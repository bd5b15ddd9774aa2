//! A per-call distributed solve is a private one-job pool, and a pool
//! worker never exits on `Terminate` — it waits for its next job. So
//! the run itself must end its workers: none may outlive the call,
//! whether the solve finishes or its workers never join.
//!
//! This file holds a single test on purpose: it inspects every child
//! of the test process, so no other test may spawn one meanwhile.

use std::time::Duration;
use ugrs::glue::ug_solve_stp_distributed;
use ugrs::steiner::gen::{bipartite, CostScheme};
use ugrs::steiner::reduce::ReduceParams;
use ugrs::ug::{DistributedOptions, ParallelOptions, ProcessCommConfig};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_ugd-worker");

/// The pids of this process's children, zombies included, over all of
/// its threads (a child belongs to the thread that spawned it).
fn children() -> Vec<String> {
    let main = format!("/proc/self/task/{}/children", std::process::id());
    assert!(std::path::Path::new(&main).exists(), "{main} is needed to see the children");
    let mut pids = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let path = task.expect("task entry").path().join("children");
        // A thread that ended since the listing has no children left.
        let text = std::fs::read_to_string(path).unwrap_or_default();
        pids.extend(text.split_whitespace().map(str::to_string));
    }
    pids
}

#[test]
fn no_worker_outlives_a_per_call_solve() {
    let g = bipartite(5, 9, 3, CostScheme::Perturbed, 42);
    let options = || ParallelOptions { num_solvers: 2, ..Default::default() };

    let dist = DistributedOptions { worker_command: vec![WORKER_BIN.into()], ..Default::default() };
    let res = ug_solve_stp_distributed(&g, &ReduceParams::default(), options(), dist)
        .expect("distributed run must start");
    assert!(res.solved && res.tree.is_some(), "the run must prove an optimal tree");
    assert_eq!(children(), Vec::<String>::new(), "a worker outlived a solved run");

    // Workers that never join: the handshake times out, and the run
    // must end the processes it spawned all the same.
    let dist = DistributedOptions {
        worker_command: vec!["sh".into(), "-c".into(), "sleep 30".into()],
        comm: ProcessCommConfig {
            handshake_timeout: Duration::from_millis(300),
            ..Default::default()
        },
        ..Default::default()
    };
    let err = ug_solve_stp_distributed(&g, &ReduceParams::default(), options(), dist)
        .expect_err("no worker ever joins");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert_eq!(children(), Vec::<String>::new(), "a worker outlived a timed-out handshake");
}
