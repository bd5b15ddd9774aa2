//! The chaos harness: seeded fault injection against *real* distributed
//! solves. A [`FaultPlan`] (seed + profile) drives each `ugd-worker`'s
//! frame-write path through drops, corruption, duplicates and delays —
//! deterministically, so every assertion message carries the one-line
//! JSON plan that reproduces the failure:
//!
//! ```text
//! UGRS_CHAOS_SEED=1337 cargo test --test chaos
//! ```
//!
//! What must hold: with a live reconnect budget the transport self-heals
//! (session resume + retransmit ring), so both the STP and the MISDP
//! solve reach the exact reference optimum with **zero** `WorkerDied`
//! requeues while reconnecting at least once. With the budget at zero
//! the same faults degrade to the `WorkerDied` → requeue path — and the
//! run must *still* reach the optimum.

use std::time::Duration;
use ugrs::cip::NodeDesc;
use ugrs::glue::{
    ug_solve_misdp, ug_solve_misdp_distributed, ug_solve_stp, ug_solve_stp_distributed,
};
use ugrs::misdp::gen as mgen;
use ugrs::steiner::gen::{bipartite, CostScheme};
use ugrs::steiner::reduce::ReduceParams;
use ugrs::ug::chaos::{ChaosProfile, FaultAction, FaultPlan};
use ugrs::ug::comm::LcComm;
use ugrs::ug::process::ProcessListener;
use ugrs::ug::supervisor::LoadCoordinator;
use ugrs::ug::telemetry;
use ugrs::ug::{DistributedOptions, ParallelOptions, ProcessCommConfig};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_ugd-worker");

/// The seed under test. CI's `chaos-smoke` step sweeps a fixed set
/// (41, 1337, 20260807) by exporting `UGRS_CHAOS_SEED`.
fn chaos_seed() -> u64 {
    std::env::var("UGRS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(41)
}

/// The e2e fault mix: hot enough that any reasonable seed schedules
/// drops *and* corruption within the first ~100 frames a worker writes
/// (heartbeats alone produce 50 frames/s here), mild enough that the
/// solve still terminates promptly.
fn chaos_profile() -> ChaosProfile {
    ChaosProfile {
        corrupt_p: 0.08,
        drop_p: 0.05,
        dup_p: 0.05,
        delay_p: 0.05,
        delay_ms: 10,
        ..ChaosProfile::none()
    }
}

/// Transport tuning for the self-healing tests: fast heartbeats (a
/// steady frame clock for the injector) and a generous reconnect
/// budget, so every injected fault is recoverable.
fn healing_comm() -> ProcessCommConfig {
    ProcessCommConfig {
        handshake_timeout: Duration::from_secs(10),
        liveness_timeout: Duration::from_secs(2),
        heartbeat_interval: Duration::from_millis(20),
        reconnect_deadline: Duration::from_secs(10),
        chaos: None, // faults are injected worker-side via --chaos-seed
    }
}

/// Fails early — with the serialized plan — when the plan does not even
/// *schedule* the faults the test is about; a seed that fires nothing
/// would vacuously pass the recovery assertions.
fn assert_plan_is_hostile(plan: &FaultPlan, horizon: u64) {
    let events = plan.events(usize::MAX, horizon);
    let drops = events.iter().filter(|(_, a)| *a == FaultAction::Drop).count();
    let corrupts = events.iter().filter(|(_, a)| matches!(a, FaultAction::Corrupt { .. })).count();
    assert!(
        drops >= 1 && corrupts >= 1,
        "plan schedules only {drops} drop(s) / {corrupts} corruption(s) in its first \
         {horizon} frames — too tame to exercise recovery; plan: {plan}"
    );
}

/// The chaos worker command: the plan is handed to every worker via the
/// hidden `--chaos-seed` / `--chaos-profile` flags (the profile rides
/// as inline JSON, exactly the repro format of the runbook).
fn chaos_worker_command(plan: &FaultPlan, handicap_ms: u64) -> Vec<String> {
    vec![
        WORKER_BIN.to_string(),
        "--handicap-ms".into(),
        handicap_ms.to_string(),
        "--chaos-seed".into(),
        plan.seed.to_string(),
        "--chaos-profile".into(),
        serde_json::to_string(&plan.profile).expect("profile serializes"),
    ]
}

/// `ug [SteinerJack, ProcessComm]` under fire: drops and corruption
/// mid-solve must be absorbed by reconnect + replay — same optimum as
/// the threaded reference, at least one session resume, and **no**
/// `WorkerDied` requeue.
#[test]
fn stp_survives_drops_and_corruption_without_a_death() {
    let plan = FaultPlan::new(chaos_seed(), chaos_profile());
    assert_plan_is_hostile(&plan, 120);

    let g = bipartite(5, 9, 3, CostScheme::Perturbed, 42);
    let threaded = ug_solve_stp(
        &g,
        &ReduceParams::default(),
        ParallelOptions { num_solvers: 4, ..Default::default() },
    );
    assert!(threaded.solved);
    let (_, expected) = threaded.tree.clone().expect("threaded run must find a tree");

    // Process-wide counters: assert on deltas, not absolutes, so this
    // test composes with anything else the harness runs.
    let reconnects0 = telemetry::comm().reconnects.get();
    let corrupt0 = telemetry::comm().frames_corrupt.get();

    let res = ug_solve_stp_distributed(
        &g,
        &ReduceParams::default(),
        ParallelOptions { num_solvers: 4, status_interval: 0.02, ..Default::default() },
        DistributedOptions {
            worker_command: chaos_worker_command(&plan, 800),
            comm: healing_comm(),
            ..Default::default()
        },
    )
    .expect("distributed run must start");

    assert!(res.solved, "chaos run must still prove optimality; plan: {plan}");
    let (_, cost) = res.tree.expect("chaos run must find a tree");
    assert!(
        (cost - expected).abs() < 1e-6,
        "chaos optimum {cost} != reference {expected}; plan: {plan}"
    );
    assert_eq!(
        res.stats.workers_died, 0,
        "faults inside the reconnect budget must never reach the requeue path; plan: {plan}"
    );
    let reconnects = telemetry::comm().reconnects.get() - reconnects0;
    assert!(reconnects >= 1, "expected at least one session resume, saw none; plan: {plan}");
    let corrupted = telemetry::comm().frames_corrupt.get() - corrupt0;
    assert!(corrupted >= 1, "expected the CRC to catch a corrupt frame, saw none; plan: {plan}");
}

/// `ug [ScipSdp, ProcessComm]` under the same fire: the MISDP solve
/// must also heal through its faults and match the threaded optimum.
#[test]
fn misdp_survives_drops_and_corruption_without_a_death() {
    let plan = FaultPlan::new(chaos_seed(), chaos_profile());
    assert_plan_is_hostile(&plan, 120);

    let p = mgen::cardinality_ls(6, 2, 9);
    let threaded = ug_solve_misdp(&p, ParallelOptions { num_solvers: 4, ..Default::default() });
    assert!(threaded.solved);
    let expected = threaded.best_obj.expect("threaded run must find a solution");

    let reconnects0 = telemetry::comm().reconnects.get();

    let res = ug_solve_misdp_distributed(
        &p,
        ParallelOptions { num_solvers: 4, status_interval: 0.02, ..Default::default() },
        DistributedOptions {
            worker_command: chaos_worker_command(&plan, 800),
            comm: healing_comm(),
            ..Default::default()
        },
    )
    .expect("distributed run must start");

    assert!(res.solved, "chaos run must still prove optimality; plan: {plan}");
    let got = res.best_obj.expect("chaos run must find a solution");
    assert!(
        (got - expected).abs() < 1e-6,
        "chaos optimum {got} != reference {expected}; plan: {plan}"
    );
    assert_eq!(
        res.stats.workers_died, 0,
        "faults inside the reconnect budget must never reach the requeue path; plan: {plan}"
    );
    let reconnects = telemetry::comm().reconnects.get() - reconnects0;
    assert!(reconnects >= 1, "expected at least one session resume, saw none; plan: {plan}");
}

/// Degradation: the *same* fault machinery with the reconnect budget at
/// zero must fall back to the old behavior — a torn connection is a
/// death, the subproblem is requeued, and the run still reaches the
/// optimum. Built compositionally so only rank 0 gets the chaos plan
/// (with one shared plan every rank would die at the same frame).
#[test]
fn zero_reconnect_budget_degrades_to_requeue_and_still_solves() {
    // A drop-heavy plan: the first Drop tears rank 0's connection, and
    // with `--reconnect-ms 0` on the worker and a zero coordinator
    // deadline that tear is immediately fatal.
    let plan = FaultPlan::new(chaos_seed(), ChaosProfile { drop_p: 0.25, ..ChaosProfile::none() });
    assert!(
        plan.events(1, 60).iter().any(|(_, a)| *a == FaultAction::Drop),
        "plan schedules no drop in 60 frames; plan: {plan}"
    );

    let g = bipartite(5, 9, 3, CostScheme::Perturbed, 42);
    let threaded = ug_solve_stp(
        &g,
        &ReduceParams::default(),
        ParallelOptions { num_solvers: 2, ..Default::default() },
    );
    let (_, expected) = threaded.tree.expect("threaded run must find a tree");

    let mut reduced = g.clone();
    ugrs::steiner::reduce::reduce(&mut reduced, &ReduceParams::default());
    let instance_path =
        std::env::temp_dir().join(format!("ugrs-chaos-degrade-{}.json", std::process::id()));
    std::fs::write(&instance_path, serde_json::to_string(&reduced).unwrap()).unwrap();

    let n = 4;
    let config = ProcessCommConfig {
        handshake_timeout: Duration::from_secs(10),
        liveness_timeout: Duration::from_secs(2),
        heartbeat_interval: Duration::from_millis(40),
        reconnect_deadline: Duration::ZERO,
        chaos: None,
    };
    let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut children = Vec::new();
    for rank in 0..n {
        let mut cmd = std::process::Command::new(WORKER_BIN);
        cmd.arg("--connect")
            .arg(&addr)
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--instance")
            .arg(&instance_path)
            .arg("--status-interval")
            .arg("0.05")
            .arg("--heartbeat-ms")
            .arg(config.heartbeat_interval.as_millis().to_string())
            .arg("--handshake-ms")
            .arg(config.handshake_timeout.as_millis().to_string())
            .arg("--liveness-ms")
            .arg(config.liveness_timeout.as_millis().to_string())
            .arg("--reconnect-ms")
            .arg("0")
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null());
        if rank == 0 {
            // Rank 0 holds the root in a handicap delay while its
            // chaos schedule walks toward the first Drop — so the tear
            // reliably happens mid-subproblem, forcing a real requeue.
            cmd.arg("--handicap-ms")
                .arg("3000")
                .arg("--chaos-seed")
                .arg(plan.seed.to_string())
                .arg("--chaos-profile")
                .arg(serde_json::to_string(&plan.profile).unwrap());
        }
        children.push(cmd.spawn().expect("spawn ugd-worker"));
    }

    let lc = LcComm::Process(
        listener.accept_workers::<NodeDesc, Vec<f64>>(n, &config).expect("handshake"),
    );
    let mut coordinator = LoadCoordinator::new(
        lc,
        ParallelOptions { num_solvers: n, status_interval: 0.05, ..Default::default() },
        NodeDesc::root(),
    );
    let res = coordinator.run();

    for mut c in children {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match c.try_wait() {
                Ok(Some(_)) => break,
                _ if std::time::Instant::now() >= deadline => {
                    let _ = c.kill();
                    let _ = c.wait();
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }
    let _ = std::fs::remove_file(&instance_path);

    assert_eq!(
        res.stats.workers_died, 1,
        "with a zero reconnect budget the torn rank must die exactly once; plan: {plan}"
    );
    assert!(res.solved, "the requeued root must still be solved to optimality; plan: {plan}");
    let (_, obj) = res.solution.expect("a tree must be found despite the degradation");
    let cost = obj + reduced.fixed_cost;
    assert!(
        (cost - expected).abs() < 1e-6,
        "optimum after degradation {cost} != reference {expected}; plan: {plan}"
    );
}
