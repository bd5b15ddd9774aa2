//! Set-up shared by the solver workloads: materialise the manifest's
//! instances as files in a catalog directory, validate them with the
//! built `ug-instances` binary, and read them back with the strict
//! parsers. What the workloads solve is what the files hold.

use crate::manifest::{Entry, Instance};
use std::path::{Path, PathBuf};
use std::process::Command;
use ugrs_instances::{cbf, stp, Catalog, StpInstance};

/// File format and text of an instance, as the instance zoo writes it.
fn to_text(entry: &Entry, instance: &Instance) -> (&'static str, String) {
    match instance {
        Instance::Stp(g) => ("stp", StpInstance::from_graph(&entry.id, g).write()),
        Instance::Misdp(p) => ("cbf", cbf::write_cbf(p)),
    }
}

fn from_text(entry: &Entry, format: &str, text: &str) -> Result<Instance, String> {
    match format {
        "stp" => stp::parse_stp(text)
            .map(|i| Instance::Stp(i.to_graph()))
            .map_err(|e| format!("{}: {e}", entry.id)),
        _ => cbf::parse_cbf(text, &entry.id)
            .map(Instance::Misdp)
            .map_err(|e| format!("{}: {e}", entry.id)),
    }
}

/// The entry's instance after a write/parse round trip — what a run
/// solves, without touching the disk (calibration uses this).
pub fn roundtrip(entry: &Entry) -> Result<Instance, String> {
    let (format, text) = to_text(entry, &entry.generate()?);
    from_text(entry, format, &text)
}

/// Directory of the binaries the root package builds: this executable's
/// own directory (`<target>/<profile>/`; a test executable sits one
/// level below, in `deps/`).
pub fn bin_dir() -> PathBuf {
    let exe_dir = std::env::current_exe().ok().and_then(|p| p.parent().map(Path::to_path_buf));
    match exe_dir {
        Some(d) if d.ends_with("deps") => d.parent().map(Path::to_path_buf).unwrap_or(d),
        Some(d) => d,
        None => PathBuf::from("."),
    }
}

/// Path of a root-package binary, or exit 2 naming what is missing.
pub fn require_binary(name: &str) -> PathBuf {
    let path = bin_dir().join(name);
    if !path.is_file() {
        eprintln!(
            "ugrs-bench: {} not found; build the root package into the same target \
             directory first (`cargo build --release`, or run perfbench/run.sh)",
            path.display()
        );
        std::process::exit(2);
    }
    path
}

/// A scratch directory under the target directory (so inside the
/// checkout), removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let dir = bin_dir().join("ugrs-bench-tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Calibrated sequential time of the untimed solves that end a set-up.
pub const WARMUP_WORK_MS: f64 = 1200.0;

/// The items a set-up solves, untimed, before it counts as done: every
/// third entry of the manifest (then the entries after those, and so
/// on) until their calibrated times add up to [`WARMUP_WORK_MS`]. A
/// fixed list of work, so `setup_s` moves when set-up or solving gets
/// slower, not with a timer; 1.2 s is enough for the process to reach
/// its steady speed (the first solves run ~15 % slow).
pub fn warmup_items(entries: &[Entry]) -> Vec<usize> {
    let mut items = Vec::new();
    let mut work_ms = 0.0;
    for i in (0..3).flat_map(|offset| (offset..entries.len()).step_by(3)) {
        if work_ms >= WARMUP_WORK_MS {
            break;
        }
        work_ms += entries[i].seq_ms;
        items.push(i);
    }
    items
}

/// Writes every entry's instance file plus the catalog manifest into
/// `dir`, runs `ug-instances validate` on it, and reads the files back.
/// Returns the parsed instances and the validation wall time (seconds).
pub fn materialise(dir: &Path, entries: &[Entry]) -> Result<(Vec<Instance>, f64), String> {
    let validator = require_binary("ug-instances");
    let mut catalog = Catalog::new();
    for e in entries {
        let instance = e.generate()?;
        let (format, text) = to_text(e, &instance);
        catalog
            .add(
                dir,
                &e.family,
                format,
                &e.id,
                &text,
                e.n as usize,
                e.m as usize,
                Some(e.reference),
            )
            .map_err(|err| format!("writing {}: {err}", e.id))?;
    }
    catalog.save(dir).map_err(|e| format!("writing catalog manifest: {e}"))?;

    let t0 = std::time::Instant::now();
    let out = Command::new(&validator)
        .arg("validate")
        .arg("--dir")
        .arg(dir)
        .output()
        .map_err(|e| format!("running {}: {e}", validator.display()))?;
    let validate_s = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "ug-instances validate failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }

    let mut instances = Vec::with_capacity(entries.len());
    for (e, c) in entries.iter().zip(&catalog.entries) {
        let path = dir.join(&c.path);
        let text = std::fs::read_to_string(&path).map_err(|err| format!("{}: {err}", c.path))?;
        instances.push(from_text(e, &c.format, &text)?);
    }
    Ok((instances, validate_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    /// Every solver manifest holds a warm-up list of at least
    /// `WARMUP_WORK_MS` of calibrated work (so `setup_s` ≥ 1 s) that is
    /// still a small part of a pass.
    #[test]
    fn warmup_is_a_fixed_share_of_every_manifest() {
        for set in [1, 2] {
            for workload in ["stp_seq", "misdp_seq", "ug_par"] {
                let m = Manifest::load(workload, set).expect("embedded manifest");
                let items = warmup_items(&m.entries);
                let work_ms: f64 = items.iter().map(|&i| m.entries[i].seq_ms).sum();
                assert!(work_ms >= WARMUP_WORK_MS, "{workload} set {set}: {work_ms} ms");
                let pass_ms: f64 = m.entries.iter().map(|e| e.seq_ms).sum();
                assert!(work_ms * 2.0 < pass_ms, "{workload} set {set}: {work_ms} of {pass_ms} ms");
            }
        }
    }
}
