//! Checkpointing and restarting.
//!
//! UG "saves only primitive nodes, which are nodes that have no ancestor
//! nodes in the LoadCoordinator" (§2.2): the coordinator's queue plus
//! the subproblem roots currently assigned to solvers. This keeps I/O
//! small at scale but re-searches the assigned subtrees after restart —
//! the effect visible in Table 2, where run 1.1 ends with 271,781 open
//! nodes but run 1.2 restarts from just 18 primitive ones.

use crate::messages::SubproblemMsg;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::Path;

/// A serialized snapshot of the coordinator's primitive state.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Checkpoint<Sub, Sol> {
    /// Queued subproblems.
    pub queue: Vec<SubproblemMsg<Sub>>,
    /// Subproblem roots that were assigned to solvers at save time
    /// (their subtrees will be re-searched).
    pub assigned: Vec<SubproblemMsg<Sub>>,
    /// Best solution so far.
    pub incumbent: Option<(Sol, f64)>,
    /// Global dual bound at save time (internal sense).
    pub dual_bound: f64,
    /// Total B&B nodes processed across the whole restart chain.
    pub nodes_so_far: u64,
    /// Subproblems transferred coordinator → solvers across the chain.
    pub transferred_so_far: u64,
    /// Wall-clock seconds accumulated across the chain.
    pub wall_time_so_far: f64,
    /// How many runs produced this chain (1-based; run `1.k` in Table 2).
    pub run_index: u32,
}

/// Writes `data` to `path` with the crash-safe discipline every durable
/// artifact of this crate uses (checkpoints and the job ledger):
///
/// 1. write to a sibling `.tmp` file,
/// 2. fsync the temp file — without it, a crash shortly after the
///    rename could leave the *new* name pointing at not-yet-flushed
///    data, i.e. a truncated or empty file, which is worse than the
///    stale-but-complete one the rename replaced,
/// 3. atomically rename over `path`,
/// 4. fsync the parent directory (best-effort) so the rename itself is
///    on disk too.
///
/// A reader therefore sees either the old complete contents or the new
/// complete contents, never a torn mix.
pub fn write_atomic(path: &Path, data: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(data)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Best-effort fsync of `path`'s parent directory, making a rename or
/// unlink in it durable. Failures are ignored: directory fsync is not
/// supported on every filesystem, and the data-file fsync already
/// happened.
pub fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
}

impl<Sub, Sol> Checkpoint<Sub, Sol>
where
    Sub: Serialize + DeserializeOwned,
    Sol: Serialize + DeserializeOwned,
{
    /// Number of primitive nodes the checkpoint holds.
    pub fn num_primitive_nodes(&self) -> usize {
        self.queue.len() + self.assigned.len()
    }

    /// Saves as JSON (human-inspectable restart artifacts), via
    /// [`write_atomic`] — a crash during or shortly after the save
    /// leaves either the previous complete checkpoint or the new one.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, &serde_json::to_vec(self)?)
    }

    /// Loads from JSON, transparently decompressing a
    /// [`crate::lz`]-compressed artifact first (older servers could
    /// write checkpoints compressed). Corrupt or torn
    /// contents surface as [`std::io::ErrorKind::InvalidData`] rather
    /// than a panic, so a recovery pass can skip a bad artifact and
    /// continue.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let data = crate::lz::decompress_if_needed(std::fs::read(path)?)?;
        serde_json::from_slice(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-test unique scratch directory: fixed names in
    /// `temp_dir()` collide when the test binary runs its tests in
    /// parallel threads (or when two checkouts run tests at once), so
    /// key by pid plus a process-wide counter.
    fn scratch_dir(label: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ugrs-cp-{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Checkpoint<Vec<u32>, Vec<f64>> {
        Checkpoint {
            queue: vec![SubproblemMsg { sub: vec![1, 2], dual_bound: 3.0 }],
            assigned: vec![SubproblemMsg { sub: vec![7], dual_bound: 1.5 }],
            incumbent: Some((vec![0.5, 1.0], 42.0)),
            dual_bound: 1.5,
            nodes_so_far: 1000,
            transferred_so_far: 17,
            wall_time_so_far: 3.25,
            run_index: 2,
        }
    }

    #[test]
    fn round_trip_through_disk() {
        let cp = sample();
        assert_eq!(cp.num_primitive_nodes(), 2);
        let dir = scratch_dir("roundtrip");
        let path = dir.join("cp.json");
        cp.save(&path).unwrap();
        let back = Checkpoint::<Vec<u32>, Vec<f64>>::load(&path).unwrap();
        assert_eq!(back.queue.len(), 1);
        assert_eq!(back.assigned[0].sub, vec![7]);
        assert_eq!(back.incumbent.as_ref().unwrap().1, 42.0);
        assert_eq!(back.run_index, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_round_trip_and_mixed_directory() {
        let cp = sample();
        let dir = scratch_dir("compressed");
        let plain = dir.join("plain.json");
        let packed = dir.join("packed.json");
        cp.save(&plain).unwrap();
        let json = serde_json::to_vec(&cp).unwrap();
        write_atomic(&packed, &crate::lz::compress(&json)).unwrap();
        assert!(crate::lz::is_compressed(&std::fs::read(&packed).unwrap()));
        assert!(!crate::lz::is_compressed(&std::fs::read(&plain).unwrap()));
        // One loader reads both formats — rollback needs no migration.
        for path in [&plain, &packed] {
            let back = Checkpoint::<Vec<u32>, Vec<f64>>::load(path).unwrap();
            assert_eq!(back.run_index, 2);
            assert_eq!(back.assigned[0].sub, vec![7]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let dir = scratch_dir("missing");
        assert!(Checkpoint::<u32, u32>::load(&dir.join("absent.json")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_corrupt_json_is_invalid_data_not_a_panic() {
        let dir = scratch_dir("corrupt");
        let path = dir.join("cp.json");
        std::fs::write(&path, b"this is not json at all").unwrap();
        let err = Checkpoint::<u32, u32>::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_torn_prefix_of_a_valid_checkpoint_errors() {
        // Simulate a torn write (a crash without write_atomic's
        // discipline, or a filesystem that lost the tail): a valid
        // checkpoint truncated mid-record must load as InvalidData.
        let dir = scratch_dir("torn");
        let path = dir.join("cp.json");
        sample().save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [1, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = Checkpoint::<Vec<u32>, Vec<f64>>::load(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_atomically_and_leaves_no_temp_file() {
        let dir = scratch_dir("atomic");
        let path = dir.join("cp.json");
        sample().save(&path).unwrap();
        let mut second = sample();
        second.run_index = 3;
        second.save(&path).unwrap();
        assert_eq!(Checkpoint::<Vec<u32>, Vec<f64>>::load(&path).unwrap().run_index, 3);
        assert!(!path.with_extension("tmp").exists(), "temp file must be renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }
}
