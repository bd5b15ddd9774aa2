//! The durable job ledger: what makes `ugd-server` crash-safe.
//!
//! The paper's long runs are restart *chains* (§2.2, Table 2: run 1.1
//! stops at the cluster's wall-clock limit with 271,781 open nodes; run
//! 1.2 resumes from the 18 primitive nodes the checkpoint kept). A job
//! service that serves such runs must survive its own crashes the same
//! way: no accepted job may be lost, and an interrupted job must resume
//! from its latest checkpoint rather than from scratch.
//!
//! The ledger is a directory (`--state-dir`) with two kinds of
//! artifacts, both written with the [`crate::checkpoint::write_atomic`]
//! temp-file + fsync + rename discipline:
//!
//! * `jobs/job-<id>.json` — the **write-ahead record** of one accepted
//!   job: its full [`JobSpec`] (the client's
//!   [`EncodedInstance`], root, priority, limits). It is
//!   durable *before* the server acknowledges the submission, and
//!   removed only when the job reaches a terminal state — so the set of
//!   files in `jobs/` is exactly the set of jobs the server still owes
//!   an answer for.
//! * `checkpoints/job-<id>.json` — the latest primitive-node
//!   [`Checkpoint`](crate::Checkpoint) of a *running* job, written
//!   periodically by its coordinator through
//!   [`ParallelOptions::checkpoint_path`](crate::ParallelOptions).
//!
//! Recovery ([`JobLedger::recover`]) intersects the two: a job record
//! without a checkpoint is requeued as submitted (run `1.1`); one with
//! a checkpoint resumes from it with the chain's cumulative statistics
//! (`run_index`, `nodes_so_far`, `wall_time_so_far`) carried over. A
//! record that cannot be parsed or whose instance fails its CRC — a
//! torn write from a crash mid-rename, manual tampering, or a record
//! from before wire revision 5, which held the instance decoded — is
//! *skipped and reported*, never fatal: one bad artifact must not take
//! the whole service down with it.

use crate::server::JobSpec;
use crate::wire::EncodedInstance;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// One write-ahead record of the ledger: a job id with everything
/// needed to re-run the submission after a crash.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct LedgerRecord<Inst, Sub> {
    /// The job id the server assigned (ids survive restarts).
    pub job: u64,
    /// The submission, verbatim: instance, root, priority and limits.
    pub spec: JobSpec<Inst, Sub>,
}

/// A job reconstructed by the recovery pass.
#[derive(Clone, Debug)]
pub struct RecoveredJob<Sub> {
    /// The job id from the ledger record (reused, so watchers and
    /// `ugd status` keep naming the same job across the restart).
    pub job: u64,
    /// The original submission.
    pub spec: JobSpec<EncodedInstance, Sub>,
    /// The latest checkpoint of an interrupted run, as the JSON string
    /// [`ParallelOptions::restart_from`](crate::ParallelOptions)
    /// accepts; `None` when the job never ran long enough to checkpoint
    /// (it restarts from scratch).
    pub checkpoint: Option<String>,
    /// The run index the *next* run of this job will report: 1 for a
    /// requeued job, `k + 1` when resuming a checkpoint of run `k`
    /// (Table 2's run `1.k` numbering).
    pub run_index: u32,
    /// Cumulative B&B nodes across the chain so far (0 when requeued).
    pub nodes_so_far: u64,
}

/// Everything [`JobLedger::recover`] found in a state directory.
#[derive(Clone, Debug)]
pub struct Recovery<Sub> {
    /// Recovered jobs in ascending id order (the pre-crash FIFO order).
    pub jobs: Vec<RecoveredJob<Sub>>,
    /// The next job id to assign: one past the highest id ever
    /// recorded, so recovered and new jobs never collide.
    pub next_job: u64,
    /// Ledger files that could not be parsed (torn, corrupt, or
    /// written before wire revision 5) or whose instance fails its CRC;
    /// they were left on disk for inspection but will not run.
    pub skipped: Vec<PathBuf>,
}

/// Where the ledger under `state_dir` keeps `job`'s latest checkpoint.
/// A path only: it creates nothing, so a gateway can read a dead
/// shard's checkpoint without writing into that shard's state dir.
pub fn checkpoint_path(state_dir: &Path, job: u64) -> PathBuf {
    state_dir.join("checkpoints").join(format!("job-{job}.json"))
}

/// The durable job ledger of one server (see the module docs).
#[derive(Debug)]
pub struct JobLedger {
    jobs_dir: PathBuf,
    state_dir: PathBuf,
}

impl JobLedger {
    /// Opens (creating as needed) the ledger under `state_dir`. New
    /// records are plain JSON; recovery also reads records an older
    /// server wrote through the [`crate::lz`] container.
    pub fn open(state_dir: &Path) -> io::Result<Self> {
        let jobs_dir = state_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)?;
        std::fs::create_dir_all(state_dir.join("checkpoints"))?;
        Ok(JobLedger { jobs_dir, state_dir: state_dir.to_path_buf() })
    }

    fn record_path(&self, job: u64) -> PathBuf {
        self.jobs_dir.join(format!("job-{job}.json"))
    }

    /// Where the running job's coordinator writes its periodic
    /// checkpoints (handed to
    /// [`ParallelOptions::checkpoint_path`](crate::ParallelOptions)).
    pub fn checkpoint_path(&self, job: u64) -> PathBuf {
        checkpoint_path(&self.state_dir, job)
    }

    /// Write-ahead-logs a submission: the record is fsync'd and
    /// atomically in place when this returns, so the server may
    /// acknowledge the client — the job can no longer be lost.
    pub fn record_submitted<Inst, Sub>(&self, job: u64, spec: &JobSpec<Inst, Sub>) -> io::Result<()>
    where
        Inst: Serialize,
        Sub: Serialize,
    {
        // Serialized through a Value so the borrowed spec need not be
        // cloned; the shape must match [`LedgerRecord`]'s derive.
        let record = serde_json::json!({ "job": job, "spec": spec });
        crate::checkpoint::write_atomic(&self.record_path(job), &serde_json::to_vec(&record)?)
    }

    /// Retires a job that reached a terminal state: its record and
    /// checkpoint are removed (and the removals fsync'd), so a later
    /// recovery pass will not resurrect it. Idempotent.
    pub fn record_finished(&self, job: u64) -> io::Result<()> {
        let record = self.record_path(job);
        let checkpoint = self.checkpoint_path(job);
        for path in [&record, &checkpoint] {
            match std::fs::remove_file(path) {
                Ok(()) => crate::checkpoint::sync_parent_dir(path),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The startup recovery pass: reads every job record, pairs it with
    /// its latest checkpoint if one exists, and returns the jobs in
    /// submission order. Unparseable records or checkpoints degrade
    /// gracefully (a bad checkpoint requeues the job from scratch; a
    /// bad record is skipped and reported in [`Recovery::skipped`]).
    pub fn recover<Sub: DeserializeOwned>(&self) -> io::Result<Recovery<Sub>> {
        let mut jobs = Vec::new();
        let mut skipped = Vec::new();
        let mut next_job = 0u64;
        for entry in std::fs::read_dir(&self.jobs_dir)? {
            let path = entry?.path();
            // Ignore non-record files, including a `.tmp` orphaned by a
            // crash between write and rename (its job either has a
            // complete older record or was never acknowledged).
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let record: Result<LedgerRecord<EncodedInstance, Sub>, _> = std::fs::read(&path)
                .and_then(crate::lz::decompress_if_needed)
                .map_err(|e| e.to_string())
                .and_then(|data| serde_json::from_slice(&data).map_err(|e| e.to_string()));
            let record = match record {
                Ok(r) if r.spec.instance.verify().is_ok() => r,
                _ => {
                    skipped.push(path);
                    continue;
                }
            };
            next_job = next_job.max(record.job + 1);
            // No local checkpoint: a spec that itself carries one (a job
            // handed over mid-chain by a gateway failover or drain,
            // interrupted again before this shard's first periodic save)
            // resumes from that instead.
            let checkpoint = read_state_text(&self.checkpoint_path(record.job))
                .ok()
                .or_else(|| record.spec.restart_from.clone());
            let (checkpoint, run_index, nodes_so_far) = crate::jobs::resume_point(checkpoint);
            jobs.push(RecoveredJob {
                job: record.job,
                spec: record.spec,
                checkpoint,
                run_index,
                nodes_so_far,
            });
        }
        jobs.sort_by_key(|j| j.job);
        Ok(Recovery { jobs, next_job, skipped })
    }
}

/// Reads a state artifact as text, transparently decompressing the
/// [`crate::lz`] container when present — a state dir written by an
/// older server may hold compressed checkpoints.
pub fn read_state_text(path: &Path) -> io::Result<String> {
    let data = crate::lz::decompress_if_needed(std::fs::read(path)?)?;
    String::from_utf8(data).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Extracts `(run_index, nodes_so_far)` from a checkpoint's JSON
/// without knowing its `Sub`/`Sol` types (the ledger is generic; the
/// full checkpoint is deserialized later by the coordinator). Returns
/// `None` for torn or non-checkpoint JSON. Public because the job life
/// cycle and the gateway's failover path both need the chain position
/// of a `restart_from` payload without its full types.
pub fn checkpoint_meta(json: &str) -> Option<(u32, u64)> {
    let v: serde_json::Value = serde_json::from_str(json).ok()?;
    let run_index = v.get("run_index")?.as_u64()? as u32;
    let nodes = v.get("nodes_so_far")?.as_u64()?;
    Some((run_index, nodes))
}

// ---------------------------------------------------------------------
// Leases: fenced active/standby gateway election over a shared state dir
// ---------------------------------------------------------------------

/// One epoch of the gateway lease: whoever holds the current (highest,
/// unexpired) epoch is the fleet's primary. The epoch doubles as the
/// **fencing token** shards check — an RPC announced under an older
/// epoch is refused, so a deposed primary that wakes up late cannot
/// mutate the fleet (see DESIGN §5f).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Lease {
    /// Monotonic fencing token; each successful claim is `highest + 1`.
    pub epoch: u64,
    /// Who holds this epoch (host:port of the gateway, for operators).
    pub owner: String,
    /// Unix milliseconds of the last renewal write.
    pub renewed_unix_ms: u64,
    /// The TTL the owner promised to renew within; readers treat the
    /// lease as expired `ttl_ms` after `renewed_unix_ms`.
    pub ttl_ms: u64,
}

impl Lease {
    /// Whether this lease has expired at `now_unix_ms` — the standby's
    /// takeover condition.
    pub fn expired_at(&self, now_unix_ms: u64) -> bool {
        now_unix_ms > self.renewed_unix_ms.saturating_add(self.ttl_ms)
    }
}

/// Unix milliseconds now (what [`Lease::renewed_unix_ms`] stores).
pub fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The lease directory of a shared gateway state dir: one
/// `lease-<epoch>.json` file per claimed epoch. Using one file *per
/// epoch* (instead of rewriting a single `lease.json`) is what makes
/// the protocol safe without file locks:
///
/// * **Claims are exclusive.** A claim writes its complete content to a
///   temp file, fsyncs it, then publishes with [`std::fs::hard_link`] —
///   which fails with `AlreadyExists` if any racer published the same
///   epoch first. Exactly one of N simultaneous claimants wins, and a
///   reader can never observe a half-written winner.
/// * **Renewals cannot clobber a usurper.** A primary renews by
///   rewriting *its own* epoch's file; a standby that took over wrote a
///   *new*, higher-numbered file the stale renewal never touches.
/// * **Readers take the highest parseable epoch.** A torn or truncated
///   file (from a crash or a tampered disk) is simply skipped — it can
///   hide one epoch, never corrupt the election.
#[derive(Debug)]
pub struct LeaseDir {
    dir: PathBuf,
}

impl LeaseDir {
    /// Opens (creating as needed) the lease directory under a gateway
    /// `--state-dir`.
    pub fn open(state_dir: &Path) -> io::Result<Self> {
        let dir = state_dir.join("lease");
        std::fs::create_dir_all(&dir)?;
        Ok(LeaseDir { dir })
    }

    fn epoch_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("lease-{epoch}.json"))
    }

    /// The current lease: the highest-epoch file that parses. `None`
    /// when no epoch was ever claimed (or every file is torn).
    pub fn read(&self) -> Option<Lease> {
        let mut best: Option<Lease> = None;
        let entries = std::fs::read_dir(&self.dir).ok()?;
        for entry in entries.flatten() {
            let path = entry.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("lease-") || !name.ends_with(".json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else { continue };
            let Ok(lease) = serde_json::from_str::<Lease>(&text) else { continue };
            if best.as_ref().is_none_or(|b| lease.epoch > b.epoch) {
                best = Some(lease);
            }
        }
        best
    }

    /// Tries to claim the next epoch for `owner`. Returns the freshly
    /// held lease, or `None` when the current lease is live or another
    /// claimant published the same epoch first (the caller goes back to
    /// standing by).
    ///
    /// A claim publishes only over an absent or expired lease, judged on
    /// the same read that numbers the new epoch. Every claimant that
    /// read the same lease computes the same epoch, so the hard link
    /// below lets one of them win; a claimant that reads after the
    /// winner published sees a live lease and declines, instead of
    /// usurping it with the epoch after.
    pub fn claim(&self, owner: &str, ttl: std::time::Duration) -> io::Result<Option<Lease>> {
        let current = self.read();
        if current.as_ref().is_some_and(|l| !l.expired_at(unix_ms_now())) {
            return Ok(None);
        }
        let epoch = current.map_or(1, |l| l.epoch + 1);
        let lease = Lease {
            epoch,
            owner: owner.to_string(),
            renewed_unix_ms: unix_ms_now(),
            ttl_ms: ttl.as_millis() as u64,
        };
        // Complete content first, visible name second: the hard link
        // publishes an already-fsync'd file, and fails (AlreadyExists)
        // if any racer published this epoch before us. The temp name
        // must be unique per *attempt*, not per process — two threads
        // of one process racing a claim must not share a scratch file.
        static ATTEMPT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let attempt = ATTEMPT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!("claim-{epoch}-{}-{attempt}.tmp", std::process::id()));
        let data = serde_json::to_vec(&lease)?;
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&data)?;
            f.sync_all()?;
        }
        let published = match std::fs::hard_link(&tmp, self.epoch_path(epoch)) {
            Ok(()) => true,
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => false,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };
        let _ = std::fs::remove_file(&tmp);
        if published {
            crate::checkpoint::sync_parent_dir(&self.epoch_path(epoch));
            Ok(Some(lease))
        } else {
            Ok(None)
        }
    }

    /// Renews a held lease: rewrites its own epoch file with a fresh
    /// timestamp. Never touches any other epoch, so a renewal racing a
    /// takeover cannot clobber the usurper — it merely refreshes a file
    /// every reader already ignores.
    pub fn renew(&self, lease: &mut Lease) -> io::Result<()> {
        lease.renewed_unix_ms = unix_ms_now();
        let data = serde_json::to_vec(&*lease)?;
        crate::checkpoint::write_atomic(&self.epoch_path(lease.epoch), &data)
    }

    /// Deliberately expires a held lease (graceful drain handover): the
    /// epoch file is rewritten with `renewed_unix_ms = 0`, so the
    /// standby's next poll sees an expired lease and takes over
    /// immediately instead of waiting out the TTL.
    pub fn release(&self, lease: &Lease) -> io::Result<()> {
        let mut expired = lease.clone();
        expired.renewed_unix_ms = 0;
        let data = serde_json::to_vec(&expired)?;
        crate::checkpoint::write_atomic(&self.epoch_path(lease.epoch), &data)
    }
}

// ---------------------------------------------------------------------
// Route log: durable routes + event cursors for gateway takeover
// ---------------------------------------------------------------------

/// What [`RouteLog::replay`] reconstructs for one gateway job: where it
/// was last routed and how far the gateway had durably applied the
/// shard's event log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayedRoute {
    /// Shard index the job was dispatched to.
    pub shard: usize,
    /// The shard-local job id.
    pub local: u64,
    /// Lease epoch of the gateway that wrote the route (0 when HA is
    /// off). Replay keeps the highest-epoch route per job and only
    /// honors cursors written under that same epoch.
    pub lease_epoch: u64,
    /// The cursor to catch the job up from (`Events { from_seq }`):
    /// one past the last durably-applied shard event.
    pub next_seq: usize,
}

/// An append-only log of routing decisions and event-stream cursors,
/// `routes.jsonl` in the gateway state dir. This is what lets a standby
/// resume each job's shard event log *exactly where the dead primary
/// left off*: the ledger says which jobs are owed answers, the route
/// log says which shard-local job each one became and how much of its
/// event log was already applied — so a takeover neither loses a
/// `JobEvent` nor re-delivers a `Started` it already journaled.
///
/// Lines (one JSON object each):
/// * `{"r":{"gid":g,"shard":s,"local":l,"ep":e}}` — route assigned
///   (fsync'd before the gateway emits `Routed`).
/// * `{"u":{"gid":g,"ep":e}}` — route disowned (failover, steal).
/// * `{"c":{"gid":g,"seq":n,"ep":e}}` — cursor advanced to `n`
///   (fsync'd for `Started`/`Recovered`, the events whose duplication
///   a takeover must prevent).
///
/// `ep` is the writer's lease epoch. A deposed primary that wakes up
/// and appends stale lines cannot corrupt the next takeover's replay:
/// the new primary re-logged every adopted route under its own, higher
/// epoch, and replay ignores cursors whose epoch does not match the
/// winning route's.
#[derive(Debug)]
pub struct RouteLog {
    path: PathBuf,
    file: std::sync::Mutex<std::fs::File>,
}

impl RouteLog {
    /// Opens (creating as needed) `routes.jsonl` under `state_dir` in
    /// append mode — concurrent writers (a stale primary and a fresh
    /// one) interleave whole lines, never tear them, per POSIX
    /// `O_APPEND` semantics.
    pub fn open(state_dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(state_dir)?;
        let path = state_dir.join("routes.jsonl");
        let file = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(RouteLog { path, file: std::sync::Mutex::new(file) })
    }

    fn append(&self, line: serde_json::Value, fsync: bool) -> io::Result<()> {
        let mut text = serde_json::to_string(&line)?;
        text.push('\n');
        let file = self.file.lock().unwrap();
        let mut w = &*file;
        w.write_all(text.as_bytes())?;
        if fsync {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Durably records that `gid` was routed to `(shard, local)`; the
    /// caller announces `Routed` only after this returns.
    pub fn record_route(&self, gid: u64, shard: usize, local: u64, ep: u64) -> io::Result<()> {
        self.append(
            serde_json::json!({
                "r": serde_json::json!({ "gid": gid, "shard": shard, "local": local, "ep": ep })
            }),
            true,
        )
    }

    /// Records that `gid`'s route was disowned (failover, steal);
    /// best-effort durability — a lost unroute only makes a takeover
    /// re-check a route that no longer exists.
    pub fn record_unroute(&self, gid: u64, ep: u64) -> io::Result<()> {
        self.append(serde_json::json!({ "u": serde_json::json!({ "gid": gid, "ep": ep }) }), false)
    }

    /// Durably advances `gid`'s event cursor: the next `Watch` resumes
    /// at `next_seq`. Fsync'd when `durable` (a `Started`/`Recovered`
    /// was consumed — re-delivering those across a takeover is what
    /// the merged-journal invariant forbids).
    pub fn record_cursor(
        &self,
        gid: u64,
        next_seq: usize,
        ep: u64,
        durable: bool,
    ) -> io::Result<()> {
        self.append(
            serde_json::json!({
                "c": serde_json::json!({ "gid": gid, "seq": next_seq, "ep": ep })
            }),
            durable,
        )
    }

    /// Replays the log into the latest route + cursor per job. Torn
    /// trailing lines (a crash mid-append) are skipped, like the
    /// ledger's own recovery.
    pub fn replay(&self) -> io::Result<std::collections::HashMap<u64, ReplayedRoute>> {
        let mut routes: std::collections::HashMap<u64, ReplayedRoute> = Default::default();
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(routes),
            Err(e) => return Err(e),
        };
        for line in text.lines() {
            let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else { continue };
            if let Some(r) = v.get("r") {
                let (Some(gid), Some(shard), Some(local), Some(ep)) = (
                    r.get("gid").and_then(|x| x.as_u64()),
                    r.get("shard").and_then(|x| x.as_u64()),
                    r.get("local").and_then(|x| x.as_u64()),
                    r.get("ep").and_then(|x| x.as_u64()),
                ) else {
                    continue;
                };
                let stale = routes.get(&gid).map(|cur| ep < cur.lease_epoch).unwrap_or(false);
                if !stale {
                    // Same epoch: later file position wins (a re-route
                    // after a failed steal restores the same pair).
                    routes.insert(
                        gid,
                        ReplayedRoute {
                            shard: shard as usize,
                            local,
                            lease_epoch: ep,
                            next_seq: 0,
                        },
                    );
                }
            } else if let Some(u) = v.get("u") {
                let (Some(gid), Some(ep)) =
                    (u.get("gid").and_then(|x| x.as_u64()), u.get("ep").and_then(|x| x.as_u64()))
                else {
                    continue;
                };
                if routes.get(&gid).map(|cur| ep >= cur.lease_epoch).unwrap_or(false) {
                    routes.remove(&gid);
                }
            } else if let Some(c) = v.get("c") {
                let (Some(gid), Some(seq), Some(ep)) = (
                    c.get("gid").and_then(|x| x.as_u64()),
                    c.get("seq").and_then(|x| x.as_u64()),
                    c.get("ep").and_then(|x| x.as_u64()),
                ) else {
                    continue;
                };
                if let Some(route) = routes.get_mut(&gid) {
                    if route.lease_epoch == ep {
                        route.next_seq = route.next_seq.max(seq as usize);
                    }
                }
            }
        }
        Ok(routes)
    }

    /// Rewrites the log to just the given live routes (with their
    /// cursors), dropping the history of finished jobs — called by a
    /// fresh primary after replay so the file does not grow without
    /// bound across failovers.
    pub fn compact(
        &self,
        routes: &std::collections::HashMap<u64, ReplayedRoute>,
    ) -> io::Result<()> {
        let mut text = String::new();
        let mut gids: Vec<_> = routes.keys().copied().collect();
        gids.sort_unstable();
        for gid in gids {
            let r = &routes[&gid];
            text.push_str(&serde_json::to_string(&serde_json::json!({
                "r": serde_json::json!({
                    "gid": gid, "shard": r.shard, "local": r.local, "ep": r.lease_epoch
                })
            }))?);
            text.push('\n');
            if r.next_seq > 0 {
                text.push_str(&serde_json::to_string(&serde_json::json!({
                    "c": serde_json::json!({ "gid": gid, "seq": r.next_seq, "ep": r.lease_epoch })
                }))?);
                text.push('\n');
            }
        }
        let mut file = self.file.lock().unwrap();
        crate::checkpoint::write_atomic(&self.path, text.as_bytes())?;
        // Re-open the append handle on the fresh inode: appends to the
        // renamed-over file would otherwise vanish.
        *file = std::fs::OpenOptions::new().create(true).append(true).open(&self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::messages::SubproblemMsg;

    fn scratch_dir(label: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ugrs-ledger-{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(name: &str) -> JobSpec<EncodedInstance, u32> {
        let instance = EncodedInstance::encode(&"instance".to_string());
        JobSpec { priority: 3, ..JobSpec::new(name, instance, 7) }
    }

    #[test]
    fn submit_recover_finish_lifecycle() {
        let dir = scratch_dir("lifecycle");
        let ledger = JobLedger::open(&dir).unwrap();
        ledger.record_submitted(0, &spec("a")).unwrap();
        ledger.record_submitted(1, &spec("b")).unwrap();

        let rec: Recovery<u32> = ledger.recover().unwrap();
        assert_eq!(rec.jobs.len(), 2);
        assert_eq!(rec.next_job, 2);
        assert!(rec.skipped.is_empty());
        assert_eq!(rec.jobs[0].job, 0);
        assert_eq!(rec.jobs[0].spec.name, "a");
        assert_eq!(rec.jobs[0].spec.priority, 3);
        assert_eq!(rec.jobs[0].run_index, 1, "no checkpoint: requeued from scratch");
        assert!(rec.jobs[0].checkpoint.is_none());

        ledger.record_finished(0).unwrap();
        ledger.record_finished(0).unwrap(); // idempotent
        let rec: Recovery<u32> = ledger.recover().unwrap();
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(rec.jobs[0].job, 1);
        assert_eq!(rec.next_job, 2, "retiring a job must not reuse its id");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_resumes_from_checkpoint_with_chain_stats() {
        let dir = scratch_dir("resume");
        let ledger = JobLedger::open(&dir).unwrap();
        ledger.record_submitted(4, &spec("chain")).unwrap();
        let cp = Checkpoint::<u32, u32> {
            queue: vec![SubproblemMsg { sub: 11, dual_bound: 2.0 }],
            assigned: vec![],
            incumbent: Some((9, 5.0)),
            dual_bound: 2.0,
            nodes_so_far: 1234,
            transferred_so_far: 5,
            wall_time_so_far: 60.0,
            run_index: 2,
        };
        cp.save(&ledger.checkpoint_path(4)).unwrap();

        let rec: Recovery<u32> = ledger.recover().unwrap();
        assert_eq!(rec.jobs.len(), 1);
        let j = &rec.jobs[0];
        assert_eq!(j.run_index, 3, "resuming run 2's checkpoint starts run 3");
        assert_eq!(j.nodes_so_far, 1234);
        let json = j.checkpoint.as_ref().expect("checkpoint JSON carried");
        let back: Checkpoint<u32, u32> = serde_json::from_str(json).unwrap();
        assert_eq!(back.incumbent, Some((9, 5.0)));
        assert_eq!(rec.next_job, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn half_written_submission_record_is_skipped_not_fatal() {
        let dir = scratch_dir("torn");
        let ledger = JobLedger::open(&dir).unwrap();
        ledger.record_submitted(0, &spec("good")).unwrap();
        // A torn record: a valid record's prefix, as a crash that beat
        // the atomic-write discipline (or a corrupted disk) would leave.
        let good = std::fs::read(dir.join("jobs/job-0.json")).unwrap();
        std::fs::write(dir.join("jobs/job-1.json"), &good[..good.len() / 2]).unwrap();
        // And an orphaned temp file from a crash before the rename.
        std::fs::write(dir.join("jobs/job-2.tmp"), b"{\"job\":2").unwrap();

        let rec: Recovery<u32> = ledger.recover().unwrap();
        assert_eq!(rec.jobs.len(), 1, "only the intact record runs");
        assert_eq!(rec.jobs[0].spec.name, "good");
        assert_eq!(rec.skipped.len(), 1, "the torn .json is reported");
        assert!(rec.skipped[0].ends_with("job-1.json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record written before wire revision 5 (the instance decoded,
    /// not a string) and one whose instance fails its CRC are skipped
    /// and reported, like a torn one.
    #[test]
    fn records_without_a_sound_encoded_instance_are_skipped() {
        let dir = scratch_dir("rev4");
        let ledger = JobLedger::open(&dir).unwrap();
        ledger.record_submitted(0, &spec("good")).unwrap();
        let typed = JobSpec::new("rev4", vec![1u32, 2, 3], 7u32);
        ledger.record_submitted(1, &typed).unwrap();
        let good = serde_json::to_string(&spec("flipped").instance).unwrap();
        let mut blob = crate::wire::base64_decode(good.trim_matches('"')).unwrap();
        blob[6] ^= 0x10;
        let flipped = format!("\"{}\"", crate::wire::base64_encode(&blob));
        let flipped: EncodedInstance = serde_json::from_str(&flipped).unwrap();
        ledger.record_submitted(2, &JobSpec { instance: flipped, ..spec("flipped") }).unwrap();

        let rec: Recovery<u32> = ledger.recover().unwrap();
        assert_eq!(rec.jobs.len(), 1, "only the sound record runs");
        assert_eq!(rec.jobs[0].spec.name, "good");
        let mut skipped: Vec<_> = rec.skipped.iter().filter_map(|p| p.file_name()).collect();
        skipped.sort();
        assert_eq!(skipped, ["job-1.json", "job-2.json"]);
        assert_eq!(rec.next_job, 1, "a skipped record names no id");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record an older server packed through the [`crate::lz`]
    /// container still recovers.
    #[test]
    fn compressed_record_is_recovered() {
        let dir = scratch_dir("packed");
        let ledger = JobLedger::open(&dir).unwrap();
        ledger.record_submitted(3, &spec("packed")).unwrap();
        let path = dir.join("jobs/job-3.json");
        let packed = crate::lz::compress(&std::fs::read(&path).unwrap());
        std::fs::write(&path, &packed).unwrap();
        assert!(crate::lz::is_compressed(&std::fs::read(&path).unwrap()));

        let rec: Recovery<u32> = ledger.recover().unwrap();
        assert!(rec.skipped.is_empty(), "the packed record must parse");
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!((rec.jobs[0].job, rec.jobs[0].spec.name.as_str()), (3, "packed"));
        assert_eq!(rec.jobs[0].spec.priority, 3);
        assert_eq!(rec.next_job, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_checkpoint_degrades_to_requeue() {
        let dir = scratch_dir("torn-cp");
        let ledger = JobLedger::open(&dir).unwrap();
        ledger.record_submitted(0, &spec("j")).unwrap();
        std::fs::write(ledger.checkpoint_path(0), b"{\"queue\":[{\"sub\"").unwrap();
        let rec: Recovery<u32> = ledger.recover().unwrap();
        assert_eq!(rec.jobs.len(), 1);
        assert!(rec.jobs[0].checkpoint.is_none(), "torn checkpoint: restart from scratch");
        assert_eq!(rec.jobs[0].run_index, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_claim_renew_and_usurp() {
        let dir = scratch_dir("lease");
        let leases = LeaseDir::open(&dir).unwrap();
        assert!(leases.read().is_none(), "no epoch claimed yet");
        let ttl = std::time::Duration::from_secs(60);
        let mut a = leases.claim("gw-a", ttl).unwrap().expect("first claim wins");
        assert_eq!(a.epoch, 1);
        let before = a.renewed_unix_ms;
        std::thread::sleep(std::time::Duration::from_millis(5));
        leases.renew(&mut a).unwrap();
        assert!(a.renewed_unix_ms >= before);
        assert_eq!(leases.read().unwrap(), a, "reader sees the renewal");
        // A live lease is never usurped.
        assert!(leases.claim("gw-b", ttl).unwrap().is_none(), "claim over a live lease");
        assert_eq!(leases.read().unwrap(), a);
        // The owner stops renewing: its last renewal falls out of the TTL.
        let lapsed = Lease { renewed_unix_ms: unix_ms_now() - a.ttl_ms - 1, ..a.clone() };
        let data = serde_json::to_vec(&lapsed).unwrap();
        crate::checkpoint::write_atomic(&leases.epoch_path(1), &data).unwrap();
        // A standby usurps with epoch 2; the stale owner's renewal
        // touches only lease-1.json and cannot clobber it.
        let b = leases.claim("gw-b", ttl).unwrap().expect("usurping claim");
        assert_eq!(b.epoch, 2);
        leases.renew(&mut a).unwrap();
        assert_eq!(leases.read().unwrap().epoch, 2, "stale renewal must not win");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_release_expires_immediately() {
        let dir = scratch_dir("lease-release");
        let leases = LeaseDir::open(&dir).unwrap();
        let a = leases.claim("gw-a", std::time::Duration::from_secs(3600)).unwrap().unwrap();
        assert!(!leases.read().unwrap().expired_at(unix_ms_now()));
        leases.release(&a).unwrap();
        let read = leases.read().unwrap();
        assert_eq!(read.epoch, a.epoch);
        assert!(read.expired_at(unix_ms_now()), "released lease reads as expired");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_lease_file_is_skipped_not_fatal() {
        let dir = scratch_dir("lease-torn");
        let leases = LeaseDir::open(&dir).unwrap();
        let a = leases.claim("gw-a", std::time::Duration::from_millis(100)).unwrap().unwrap();
        // A torn higher epoch (crash mid-write without the tmp+link
        // discipline, or disk corruption) must not hide the good one.
        std::fs::write(dir.join("lease/lease-7.json"), b"{\"epoch\":7,\"ow").unwrap();
        assert_eq!(leases.read().unwrap(), a, "torn epoch file is ignored");
        // But a claim counts it out by number? No: claim goes off the
        // highest *parseable* epoch, so the next claim after a's release
        // is 2 (the torn 7 is dead weight on disk, nothing more).
        leases.release(&a).unwrap();
        let b = leases.claim("gw-b", std::time::Duration::from_millis(100)).unwrap().unwrap();
        assert_eq!(b.epoch, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn route_log_replays_latest_routes_and_matching_cursors() {
        let dir = scratch_dir("routes");
        let log = RouteLog::open(&dir).unwrap();
        log.record_route(1, 0, 10, 1).unwrap();
        log.record_cursor(1, 3, 1, true).unwrap();
        log.record_route(2, 1, 11, 1).unwrap();
        log.record_unroute(2, 1).unwrap(); // failover disowned it
        log.record_route(2, 2, 5, 1).unwrap(); // ...and re-routed it
        log.record_route(3, 0, 12, 1).unwrap();
        let routes = log.replay().unwrap();
        assert_eq!(routes[&1], ReplayedRoute { shard: 0, local: 10, lease_epoch: 1, next_seq: 3 });
        assert_eq!(routes[&2], ReplayedRoute { shard: 2, local: 5, lease_epoch: 1, next_seq: 0 });
        assert_eq!(routes[&3].next_seq, 0);

        // A new primary (epoch 2) adopts job 1 and re-logs it; a stale
        // epoch-1 cursor appended by the deposed primary afterwards
        // must not advance the adopted route's cursor.
        log.record_route(1, 0, 10, 2).unwrap();
        log.record_cursor(1, 9, 1, true).unwrap(); // stale writer
        log.record_cursor(1, 4, 2, true).unwrap();
        let routes = log.replay().unwrap();
        assert_eq!(routes[&1], ReplayedRoute { shard: 0, local: 10, lease_epoch: 2, next_seq: 4 });
        // And a stale unroute cannot remove a higher-epoch route.
        log.record_unroute(1, 1).unwrap();
        assert!(log.replay().unwrap().contains_key(&1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn route_log_compaction_keeps_live_routes_and_future_appends() {
        let dir = scratch_dir("routes-compact");
        let log = RouteLog::open(&dir).unwrap();
        for gid in 0..20 {
            log.record_route(gid, 0, gid, 1).unwrap();
            log.record_cursor(gid, 2, 1, false).unwrap();
        }
        let mut live = log.replay().unwrap();
        live.retain(|gid, _| *gid >= 18); // the rest finished
        log.compact(&live).unwrap();
        // Appends after compaction land in the fresh file.
        log.record_route(99, 1, 7, 2).unwrap();
        let routes = log.replay().unwrap();
        assert_eq!(routes.len(), 3);
        assert_eq!(routes[&18].next_seq, 2);
        assert_eq!(routes[&99], ReplayedRoute { shard: 1, local: 7, lease_epoch: 2, next_seq: 0 });
        // A torn trailing line (crash mid-append) is skipped.
        {
            use std::io::Write as _;
            let mut f =
                std::fs::OpenOptions::new().append(true).open(dir.join("routes.jsonl")).unwrap();
            f.write_all(b"{\"r\":{\"gid\":100,\"sh").unwrap();
        }
        assert_eq!(log.replay().unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
