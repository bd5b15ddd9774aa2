//! Ledger handoff: one server's `--state-dir` recovered by a
//! *different* instance — the primitive under both the gateway's shard
//! failover and a rolling restart. The contract is at-least-once, no
//! duplicates, no silent loss: every acknowledged-but-unfinished job
//! comes back exactly once, every finished job stays finished, torn
//! records are reported (not invented into jobs), and `.tmp` orphans
//! from a crash mid-write are ignored (their job either has a complete
//! older record or was never acknowledged — the write-ahead discipline
//! makes both safe).

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use ugrs::ug::{EncodedInstance, JobLedger, JobSpec};

type Spec = JobSpec<EncodedInstance, u32>;

fn scratch_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ugrs-handoff-{label}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(name: &str) -> Spec {
    JobSpec::new(name, EncodedInstance::encode(&format!("instance-of-{name}")), 7)
}

/// A syntactically valid checkpoint payload at a given chain position —
/// `checkpoint_meta` only reads these two fields.
fn checkpoint_json(run_index: u32, nodes_so_far: u64) -> String {
    format!(
        r#"{{"queue":[],"assigned":[],"incumbent":null,"dual_bound":0.0,
           "nodes_so_far":{nodes_so_far},"transferred_so_far":0,
           "wall_time_so_far":0.0,"run_index":{run_index}}}"#
    )
}

/// What shard A left behind for one job.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fate {
    /// Acknowledged, never finished: MUST be recovered.
    Active,
    /// Acknowledged and retired: MUST NOT resurrect.
    Finished,
    /// Record corrupted on disk (bad sector, truncation at the fs
    /// layer): MUST be skipped *and reported*, never half-parsed.
    Torn,
    /// Crash between temp-write and rename: only the `.tmp` exists.
    /// MUST be ignored — the rename never happened, so no client ever
    /// got an ack for this record.
    TmpOrphan,
}

fn fate_strategy() -> impl Strategy<Value = Fate> {
    // Weighted: recovery-relevant fates dominate, damage stays common
    // enough that most sampled dirs contain some.
    (0u8..7).prop_map(|v| match v {
        0..=2 => Fate::Active,
        3..=4 => Fate::Finished,
        5 => Fate::Torn,
        _ => Fate::TmpOrphan,
    })
}

/// Builds shard A's state dir according to `fates`, then recovers it
/// from a brand-new `JobLedger` (a different instance, as in failover).
fn build_and_recover(dir: &Path, fates: &[Fate]) -> ugrs::ug::Recovery<u32> {
    let a = JobLedger::open(dir).expect("open shard A ledger");
    for (i, fate) in fates.iter().enumerate() {
        let id = i as u64;
        match fate {
            Fate::Active => a.record_submitted(id, &spec(&format!("job-{id}"))).unwrap(),
            Fate::Finished => {
                a.record_submitted(id, &spec(&format!("job-{id}"))).unwrap();
                a.record_finished(id).unwrap();
            }
            Fate::Torn => {
                a.record_submitted(id, &spec(&format!("job-{id}"))).unwrap();
                let path = dir.join("jobs").join(format!("job-{id}.json"));
                let full = std::fs::read_to_string(&path).unwrap();
                std::fs::write(&path, &full[..full.len() / 2]).unwrap();
            }
            Fate::TmpOrphan => {
                let path = dir.join("jobs").join(format!("job-{id}.json.tmp"));
                std::fs::write(&path, r#"{"job":"#).unwrap();
            }
        }
    }
    drop(a); // shard A is gone; a different instance takes over
    let b = JobLedger::open(dir).expect("open from the successor");
    b.recover().expect("recovery must not error on a damaged dir")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn handoff_recovers_exactly_the_unfinished_jobs(
        fates in prop::collection::vec(fate_strategy(), 0..24)
    ) {
        let dir = scratch_dir("prop");
        let recovery = build_and_recover(&dir, &fates);

        let expect_active: Vec<u64> = fates
            .iter()
            .enumerate()
            .filter(|(_, f)| **f == Fate::Active)
            .map(|(i, _)| i as u64)
            .collect();
        let got: Vec<u64> = recovery.jobs.iter().map(|j| j.job).collect();
        // Exactly once each, in submission order: at-least-once with no
        // duplication is what lets the successor requeue blindly.
        prop_assert_eq!(&got, &expect_active, "recovered set mismatch for {:?}", fates);
        for j in &recovery.jobs {
            prop_assert_eq!(j.run_index, 1, "no checkpoint => fresh run");
            let want = format!("job-{}", j.job);
            prop_assert_eq!(j.spec.name.as_str(), want.as_str());
        }

        // Torn records are surfaced for the operator, not dropped
        // silently — and never misread as jobs.
        let torn = fates.iter().filter(|f| **f == Fate::Torn).count();
        prop_assert_eq!(recovery.skipped.len(), torn, "skipped-report mismatch for {:?}", fates);

        // Fresh ids never collide with a recovered (parseable) job.
        if let Some(max) = expect_active.iter().max() {
            prop_assert!(recovery.next_job > *max);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn handoff_resumes_chain_position_from_best_available_source() {
    let dir = scratch_dir("chain");
    let a = JobLedger::open(&dir).expect("open");

    // Job 0: a local checkpoint from run 2 — resumes as run 3.
    a.record_submitted(0, &spec("local-checkpoint")).unwrap();
    std::fs::write(a.checkpoint_path(0), checkpoint_json(2, 40)).unwrap();

    // Job 1: no local checkpoint, but the spec carries `restart_from`
    // (handed over mid-chain by a gateway failover, then interrupted
    // again before this shard's first periodic save) — the chain
    // position must come from the spec, not reset to run 1.
    let mut handed = spec("handed-over");
    handed.restart_from = Some(checkpoint_json(1, 7));
    a.record_submitted(1, &handed).unwrap();

    // Job 2: torn local checkpoint — degrade to a fresh run, not an error.
    a.record_submitted(2, &spec("torn-checkpoint")).unwrap();
    std::fs::write(a.checkpoint_path(2), r#"{"run_index":"#).unwrap();

    // Job 3: both sources — the local checkpoint is fresher by
    // construction (it was written *on* this shard, after the handover).
    let mut both = spec("both-sources");
    both.restart_from = Some(checkpoint_json(1, 5));
    a.record_submitted(3, &both).unwrap();
    std::fs::write(a.checkpoint_path(3), checkpoint_json(4, 90)).unwrap();

    drop(a);
    let recovery: ugrs::ug::Recovery<u32> = JobLedger::open(&dir).unwrap().recover().unwrap();
    let by_id: Vec<(u64, u32, u64, bool)> = recovery
        .jobs
        .iter()
        .map(|j| (j.job, j.run_index, j.nodes_so_far, j.checkpoint.is_some()))
        .collect();
    assert_eq!(
        by_id,
        vec![(0, 3, 40, true), (1, 2, 7, true), (2, 1, 0, false), (3, 5, 90, true)],
        "chain positions after handoff"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn finished_jobs_never_resurrect_across_instances() {
    let dir = scratch_dir("retire");
    let a = JobLedger::open(&dir).unwrap();
    a.record_submitted(0, &spec("done")).unwrap();
    // Even with a stale checkpoint left on disk, a retired record means
    // the job's terminal event was already announced — resurrecting it
    // would double-solve (and double-bill) it.
    std::fs::write(a.checkpoint_path(0), checkpoint_json(1, 10)).unwrap();
    a.record_finished(0).unwrap();
    drop(a);
    let recovery: ugrs::ug::Recovery<u32> = JobLedger::open(&dir).unwrap().recover().unwrap();
    assert!(recovery.jobs.is_empty(), "retired job came back: {:?}", recovery.jobs.len());
    std::fs::remove_dir_all(&dir).ok();
}
