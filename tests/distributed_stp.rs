//! End-to-end tests of `ug [SteinerJack, ProcessComm]`: the same STP
//! instance solved by the threaded back-end and by real spawned
//! `ugd-worker` processes must agree — and the run must survive a
//! worker being killed mid-subproblem.

use std::time::Duration;
use ugrs::cip::NodeDesc;
use ugrs::glue::{ug_solve_stp, ug_solve_stp_distributed, JobInstance};
use ugrs::steiner::gen::{bipartite, CostScheme};
use ugrs::steiner::reduce::ReduceParams;
use ugrs::ug::comm::LcComm;
use ugrs::ug::process::accept_ranks;
use ugrs::ug::supervisor::LoadCoordinator;
use ugrs::ug::{DistributedOptions, EncodedInstance, ParallelOptions, ProcessCommConfig};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_ugd-worker");

fn test_graph() -> ugrs::steiner::Graph {
    bipartite(5, 9, 3, CostScheme::Perturbed, 42)
}

/// The acceptance gate of the ProcessComm PR: one generated instance,
/// solved via ThreadComm (4 threads) and via ProcessComm (coordinator +
/// 4 spawned worker processes on localhost), reaching the same optimum.
#[test]
fn thread_and_process_backends_agree() {
    let g = test_graph();
    let threaded = ug_solve_stp(
        &g,
        &ReduceParams::default(),
        ParallelOptions { num_solvers: 4, ..Default::default() },
    );
    assert!(threaded.solved);
    let (_, expected) = threaded.tree.clone().expect("threaded run must find a tree");

    let distributed = ug_solve_stp_distributed(
        &g,
        &ReduceParams::default(),
        ParallelOptions { num_solvers: 4, ..Default::default() },
        DistributedOptions { worker_command: vec![WORKER_BIN.to_string()], ..Default::default() },
    )
    .expect("distributed run must start");

    assert!(distributed.solved, "ProcessComm run must prove optimality");
    let (edges, cost) = distributed.tree.expect("ProcessComm run must find a tree");
    assert!(
        (cost - expected).abs() < 1e-6,
        "ProcessComm optimum {cost} != ThreadComm optimum {expected}"
    );
    assert!(ugrs::steiner::SteinerTree::new(&g, edges).is_valid(&g));
    assert_eq!(distributed.stats.workers_died, 0);
}

/// Worker-death robustness: kill one worker process mid-subproblem and
/// the coordinator must requeue its work and still reach the optimum.
///
/// Built from the compositional pieces (listener + hand-spawned
/// workers tagged with their ranks + `accept_ranks`) so the test holds
/// the `Child` handle it wants to kill.
/// Rank 0 is started with a 3 s `--handicap-ms`, and under the Normal
/// ramp-up the root goes to `idle[0]` = rank 0 — so when we kill it
/// shortly after start it is reliably mid-subproblem with the whole
/// tree in flight.
#[test]
fn killed_worker_is_survived_and_requeued() {
    let g = test_graph();
    let threaded = ug_solve_stp(
        &g,
        &ReduceParams::default(),
        ParallelOptions { num_solvers: 2, ..Default::default() },
    );
    let (_, expected) = threaded.tree.expect("threaded run must find a tree");

    // Coordinator-side presolve, exactly as ug_solve_stp_distributed
    // does it; the reduced instance ships in the run's `Begin`.
    let mut reduced = g.clone();
    ugrs::steiner::reduce::reduce(&mut reduced, &ReduceParams::default());
    assert!(
        reduced.num_terminals() >= 2,
        "instance must stay nontrivial after presolve or the test exercises nothing"
    );
    let fixed_cost = reduced.fixed_cost;
    let instance = JobInstance::Stp { graph: reduced };

    // Short transport timeouts (the defaults wait 15 s before declaring
    // a silent worker dead — pointless stall in a kill test), passed to
    // the workers so their heartbeat cadence matches.
    let n = 4;
    // reconnect_deadline is kept short: this test is about the
    // *requeue* path, so a killed worker should be declared dead fast.
    let config = ProcessCommConfig {
        handshake_timeout: Duration::from_secs(10),
        liveness_timeout: Duration::from_secs(2),
        heartbeat_interval: Duration::from_millis(100),
        reconnect_deadline: Duration::from_millis(500),
        chaos: None,
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut children = Vec::new();
    for rank in 0..n {
        let mut cmd = std::process::Command::new(WORKER_BIN);
        cmd.arg("--connect")
            .arg(&addr)
            .arg("--pool-tag")
            .arg(rank.to_string())
            .arg("--status-interval")
            .arg("0.05")
            .arg("--heartbeat-ms")
            .arg(config.heartbeat_interval.as_millis().to_string())
            .arg("--handshake-ms")
            .arg(config.handshake_timeout.as_millis().to_string())
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null());
        if rank == 0 {
            cmd.arg("--handicap-ms").arg("3000");
        }
        children.push(cmd.spawn().expect("spawn ugd-worker"));
    }

    let comm = accept_ranks::<NodeDesc, Vec<f64>>(listener, n, &config).expect("handshake");
    comm.begin(EncodedInstance::encode(&instance));
    let mut coordinator = LoadCoordinator::new(
        LcComm::Process(comm),
        ParallelOptions { num_solvers: n, ..Default::default() },
        NodeDesc::root(),
    );

    // Kill rank 0 while it sits in its handicap delay holding the root.
    let victim = children.remove(0);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(600));
        let mut victim = victim;
        let _ = victim.kill();
        let _ = victim.wait();
    });

    let res = coordinator.run();
    killer.join().unwrap();
    // Close the sessions, then end the survivors: after `Terminate` a
    // worker waits for its next job, as a per-call run's own do.
    drop(coordinator);
    for mut c in children {
        let _ = c.kill();
        let _ = c.wait();
    }

    assert_eq!(res.stats.workers_died, 1, "exactly the killed rank must be detected dead");
    assert!(res.solved, "the requeued root must still be solved to optimality");
    let (_, obj) = res.solution.expect("a tree must be found despite the death");
    let cost = obj + fixed_cost;
    assert!(
        (cost - expected).abs() < 1e-6,
        "optimum after worker death {cost} != reference {expected}"
    );
}
