//! End-to-end tests of the `ugd-server` job service: one server, a
//! standing pool of real `ugd-worker` processes, and mixed
//! STP/MISDP jobs submitted over the client protocol — including
//! cancellation, a worker SIGKILL mid-job, and seeded fault injection
//! on the pool workers' uplinks:
//!
//! ```text
//! UGRS_CHAOS_SEED=1337 cargo test --test server_e2e pool_workers_under_seeded_chaos
//! ```

use std::time::{Duration, Instant};
use ugrs::glue::{misdp_job, stp_job, JobInstance, SolveClient, SolveServer};
use ugrs::misdp::gen::cardinality_ls;
use ugrs::steiner::gen::{bipartite, CostScheme};
use ugrs::steiner::reduce::ReduceParams;
use ugrs::ug::chaos::{ChaosProfile, FaultAction, FaultPlan};
use ugrs::ug::telemetry::sample_sum;
use ugrs::ug::{
    JobEventKind, JobState, ParallelOptions, ProcessCommConfig, ServerConfig, ServerStatus,
};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_ugd-worker");

/// Short transport timeouts so death detection and handshakes never
/// stall a test on the 15 s defaults.
fn comm() -> ProcessCommConfig {
    ProcessCommConfig {
        handshake_timeout: Duration::from_secs(10),
        liveness_timeout: Duration::from_secs(2),
        heartbeat_interval: Duration::from_millis(100),
        reconnect_deadline: Duration::from_millis(500),
        chaos: None,
    }
}

fn server_config(pool: usize, max_jobs: usize, handicap_ms: u64) -> ServerConfig {
    let mut worker_command = vec![WORKER_BIN.to_string()];
    if handicap_ms > 0 {
        worker_command.extend(["--handicap-ms".into(), handicap_ms.to_string()]);
    }
    // CI sets UGRS_TEST_JOURNAL_DIR so run journals survive a failure
    // as uploadable artifacts; locally it defaults to off.
    let journal_dir = std::env::var_os("UGRS_TEST_JOURNAL_DIR").map(std::path::PathBuf::from);
    ServerConfig {
        worker_command,
        pool_size: pool,
        max_concurrent_jobs: max_jobs,
        comm: comm(),
        drain_timeout: Duration::from_secs(5),
        journal_dir,
        ..Default::default()
    }
}

/// Polls `status` until the predicate holds; panics after `timeout`.
fn await_status(
    client: &mut SolveClient,
    timeout: Duration,
    what: &str,
    pred: impl Fn(&ServerStatus) -> bool,
) -> ServerStatus {
    let deadline = Instant::now() + timeout;
    loop {
        let st = client.status().expect("status request");
        if pred(&st) {
            return st;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}: {st:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn stp_graph(seed: u64) -> ugrs::steiner::Graph {
    bipartite(5, 9, 3, CostScheme::Perturbed, seed)
}

/// Threaded reference optimum of an STP instance (external sense).
fn stp_reference(g: &ugrs::steiner::Graph) -> f64 {
    let r = ugrs::glue::ug_solve_stp(
        g,
        &ReduceParams::default(),
        ParallelOptions { num_solvers: 2, ..Default::default() },
    );
    assert!(r.solved);
    r.tree.expect("threaded reference must find a tree").1
}

/// External-sense optimum of the job's `Finished` event (the event's
/// `obj` is internal; STP adds the presolve-fixed cost, MISDP negates).
fn external_obj(instance: &JobInstance, kind: &JobEventKind<Vec<f64>>) -> f64 {
    match kind {
        JobEventKind::Finished { obj: Some(o), .. } => instance.external_objective(*o),
        other => panic!("expected a Finished event with an objective, got {other:?}"),
    }
}

/// The acceptance gate: three jobs — two STP, one MISDP — through one
/// server with a six-worker pool, running concurrently, all reaching
/// the optima the threaded back-end proves.
#[test]
fn three_concurrent_mixed_jobs() {
    let g1 = stp_graph(42);
    let g2 = stp_graph(1337);
    let mp = cardinality_ls(5, 2, 12);

    let expected1 = stp_reference(&g1);
    let expected2 = stp_reference(&g2);
    let misdp_ref =
        ugrs::glue::ug_solve_misdp(&mp, ParallelOptions { num_solvers: 2, ..Default::default() });
    assert!(misdp_ref.solved);
    let expected_m = misdp_ref.best_obj.expect("threaded MISDP reference must solve");

    // 150 ms handicap per subproblem: long enough that all three jobs
    // are observably in flight together, short enough to stay fast.
    let server = SolveServer::start(server_config(6, 3, 150)).expect("server start");
    let addr = server.client_addr().to_string();
    let mut client = SolveClient::connect(&addr).expect("client connect");

    let specs = [
        stp_job("stp-a", &g1, &ReduceParams::default()),
        stp_job("stp-b", &g2, &ReduceParams::default()),
        misdp_job("cls", &mp),
    ];
    let instances: Vec<JobInstance> = specs.iter().map(|s| s.instance.clone()).collect();
    let jobs: Vec<u64> = specs.into_iter().map(|s| client.submit(s).expect("submit")).collect();

    // All three must be admitted together (pool 6 = 3 jobs × 2 ranks).
    let mut status_client = SolveClient::connect(&addr).expect("status client");
    await_status(&mut status_client, Duration::from_secs(30), "3 running jobs", |st| {
        st.jobs.iter().filter(|j| j.state == JobState::Running).count() == 3
    });

    // Live telemetry: poll the Metrics request until at least two of
    // the concurrent jobs have reported a progress snapshot, then
    // check the exposition is well-formed and carries the coordinator,
    // wire and pool families.
    let deadline = Instant::now() + Duration::from_secs(30);
    let report = loop {
        let report = status_client.metrics().expect("metrics request");
        if report.jobs.iter().filter(|j| j.progress.is_some()).count() >= 2 {
            break report;
        }
        assert!(Instant::now() < deadline, "timed out waiting for job progress: {report:?}");
        std::thread::sleep(Duration::from_millis(25));
    };
    ugrs::ug::telemetry::validate_exposition(&report.text)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", report.text));
    for family in [
        "ugrs_job_gap_percent",              // per-job coordinator progress
        "ugrs_job_open_nodes",               // …
        "ugrs_wire_tx_frames_total",         // wire codec
        "ugrs_wire_rx_bytes_total",          // …
        "ugrs_server_pool_workers",          // pool
        "ugrs_server_jobs_running",          // …
        "ugrs_server_heartbeat_gap_seconds", // worker liveness histogram
    ] {
        assert!(report.text.contains(family), "exposition must contain {family}:\n{}", report.text);
    }
    for p in report.jobs.iter().filter_map(|j| j.progress.as_ref()) {
        assert!(p.wall >= 0.0 && p.nodes < u64::MAX / 2, "sane snapshot: {p:?}");
    }

    let mut optima = Vec::new();
    for (job, instance) in jobs.iter().zip(&instances) {
        let done = client.wait(*job).expect("wait");
        match done.kind {
            JobEventKind::Finished { state, .. } => {
                assert_eq!(state, JobState::Solved, "job {job} must be solved to optimality")
            }
            ref other => panic!("job {job}: unexpected terminal event {other:?}"),
        }
        optima.push(external_obj(instance, &done.kind));
    }
    assert!((optima[0] - expected1).abs() < 1e-6, "stp-a {} != {expected1}", optima[0]);
    assert!((optima[1] - expected2).abs() < 1e-6, "stp-b {} != {expected2}", optima[1]);
    assert!((optima[2] - expected_m).abs() < 1e-3, "cls {} != {expected_m}", optima[2]);

    server.shutdown_and_join();
}

/// Cancellation and robustness: cancel one running job without
/// disturbing its neighbor, then SIGKILL a leased worker of the
/// surviving job — it must requeue the lost work, finish at the
/// optimum, and the scheduler must respawn the pool back to full size.
#[test]
fn cancel_and_worker_kill() {
    let g = stp_graph(42);
    let threaded = ugrs::glue::ug_solve_stp(
        &g,
        &ReduceParams::default(),
        ParallelOptions { num_solvers: 2, ..Default::default() },
    );
    let expected = threaded.tree.expect("threaded reference").1;

    // 1.5 s handicap: job A's rank 0 reliably sits mid-subproblem
    // (holding the root) when we kill it.
    let server = SolveServer::start(server_config(4, 2, 1500)).expect("server start");
    let addr = server.client_addr().to_string();
    let mut client = SolveClient::connect(&addr).expect("client connect");

    let mut spec_a = stp_job("victim-pool", &g, &ReduceParams::default());
    spec_a.priority = 1;
    let fixed_a = match &spec_a.instance {
        JobInstance::Stp { graph } => graph.fixed_cost,
        other => panic!("stp_job built {other:?}"),
    };
    let job_a = client.submit(spec_a).expect("submit a");
    let job_b =
        client.submit(stp_job("cancelled", &stp_graph(7), &ReduceParams::default())).expect("b");

    let mut status_client = SolveClient::connect(&addr).expect("status client");
    let st = await_status(&mut status_client, Duration::from_secs(30), "both jobs running", |st| {
        st.jobs.iter().filter(|j| j.state == JobState::Running).count() == 2
    });

    // Cancel B mid-run; A must not notice.
    assert!(status_client.cancel(job_b).expect("cancel"), "running job must be cancellable");
    let done_b = client.wait(job_b).expect("wait b");
    match done_b.kind {
        JobEventKind::Finished { state, final_checkpoint, .. } => {
            assert_eq!(state, JobState::Cancelled);
            // A job cancelled mid-run leaves a restart artifact: the
            // primitive-node checkpoint, as JSON, in its result.
            let cp = final_checkpoint.expect("cancelled job must carry its final checkpoint");
            let parsed: serde_json::Value =
                serde_json::from_str(&cp).expect("checkpoint must be valid JSON");
            assert!(parsed.get("queue").is_some(), "checkpoint JSON has a queue: {cp}");
        }
        other => panic!("job b: unexpected terminal event {other:?}"),
    }

    // SIGKILL job A's rank-0 worker.
    let victim = st
        .workers
        .iter()
        .find(|w| w.job == Some(job_a) && w.rank == Some(0))
        .expect("job a must have a rank-0 lease");
    let pid = victim.pid.expect("server-spawned workers have pids");
    let killed = std::process::Command::new("kill")
        .arg("-9")
        .arg(pid.to_string())
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {pid} failed");

    let mut kinds = Vec::new();
    let done_a = client.watch(job_a, 0, |ev| kinds.push(ev.kind.clone())).expect("watch a");
    match done_a.kind {
        JobEventKind::Finished { state, obj, workers_lost, .. } => {
            assert_eq!(state, JobState::Solved, "job a must survive the kill");
            assert_eq!(workers_lost, 1, "exactly the killed rank must be counted dead");
            let cost = obj.expect("job a must find a tree") + fixed_a;
            assert!((cost - expected).abs() < 1e-6, "optimum after kill {cost} != {expected}");
        }
        other => panic!("job a: unexpected terminal event {other:?}"),
    }
    assert!(
        kinds.iter().any(|k| matches!(k, JobEventKind::WorkerLost { .. })),
        "the event stream must record the lost worker: {kinds:?}"
    );

    // The scheduler must refill the pool: 4 live, idle, undrained
    // workers again (the dead one replaced, leases all released).
    await_status(&mut status_client, Duration::from_secs(30), "pool refilled to 4 idle", |st| {
        st.workers.len() == 4 && st.workers.iter().all(|w| w.job.is_none() && !w.draining)
    });

    server.shutdown_and_join();
}

/// The CI smoke variant: pool of two, one job slot — the second job
/// waits in the queue and is cancelled there, the first solves.
#[test]
fn server_smoke_two_jobs_one_cancel() {
    let g = stp_graph(42);
    let threaded = ugrs::glue::ug_solve_stp(
        &g,
        &ReduceParams::default(),
        ParallelOptions { num_solvers: 2, ..Default::default() },
    );
    let expected = threaded.tree.expect("threaded reference").1;

    let server = SolveServer::start(server_config(2, 1, 300)).expect("server start");
    let addr = server.client_addr().to_string();
    let mut client = SolveClient::connect(&addr).expect("client connect");

    let spec = stp_job("smoke", &g, &ReduceParams::default());
    let instance = spec.instance.clone();
    let job_a = client.submit(spec).expect("submit a");
    let job_b =
        client.submit(stp_job("queued", &stp_graph(7), &ReduceParams::default())).expect("b");

    // One job slot: B is still queued, so this exercises queue-cancel.
    let mut c2 = SolveClient::connect(&addr).expect("second client");
    assert!(c2.cancel(job_b).expect("cancel"), "queued job must be cancellable");
    let done_b = c2.wait(job_b).expect("wait b");
    assert!(
        matches!(done_b.kind, JobEventKind::Finished { state: JobState::Cancelled, .. }),
        "queued job must finish Cancelled: {done_b:?}"
    );

    let done_a = client.wait(job_a).expect("wait a");
    match &done_a.kind {
        JobEventKind::Finished { state, .. } => assert_eq!(*state, JobState::Solved),
        other => panic!("job a: unexpected terminal event {other:?}"),
    }
    let cost = external_obj(&instance, &done_a.kind);
    assert!((cost - expected).abs() < 1e-6, "smoke optimum {cost} != {expected}");

    server.shutdown_and_join();
}

/// The shard side of gateway HA fencing (DESIGN §5f): a connection
/// that announces a gateway epoch *older* than the highest the server
/// has seen is refused — at the announcement itself and on every
/// mutating request it tries afterwards — while unannounced (plain
/// client) connections are untouched. This is what makes a deposed
/// primary harmless: the moment the usurper introduces itself to a
/// shard, the shard stonewalls the old epoch.
#[test]
fn stale_gateway_epoch_is_fenced() {
    let server = SolveServer::start(server_config(1, 1, 0)).expect("server start");
    let addr = server.client_addr().to_string();

    // A primary's *pooled* connection: announced under epoch 3 while
    // that was current, kept open, and in good standing so far.
    let mut pooled = SolveClient::connect(&addr).expect("pooled connect");
    assert_eq!(pooled.announce_gateway_epoch(3).expect("current epoch is acked"), 3);
    assert!(!pooled.cancel(999).expect("an unfenced cancel answers normally"));

    // The usurper (epoch 5) introduces itself.
    let mut usurper = SolveClient::connect(&addr).expect("usurper connect");
    assert_eq!(usurper.announce_gateway_epoch(5).expect("fresh epoch is acked"), 5);

    // The persistent connection needs no new handshake to be fenced:
    // its very next Submit bounces, naming the usurper.
    let spec = stp_job("fenced", &stp_graph(1), &ReduceParams::default());
    let err = pooled.try_submit(spec).expect_err("a submit under the deposed epoch must fail");
    assert_eq!(ugrs::ug::server::fenced_epoch(&err), Some(5));
    // Re-announcing on the live connection (what a re-promoted gateway
    // does on its next borrow) heals it.
    assert_eq!(pooled.announce_gateway_epoch(5).expect("re-announcement is acked"), 5);
    assert!(!pooled.cancel(999).expect("healed"));

    // The deposed primary (epoch 3) wakes up late: its announcement is
    // refused, naming the epoch that fenced it.
    let mut deposed = SolveClient::connect(&addr).expect("deposed connect");
    let err = deposed.announce_gateway_epoch(3).expect_err("stale epoch must be fenced");
    assert_eq!(ugrs::ug::server::fenced_epoch(&err), Some(5), "refusal names the usurper");

    // The same connection stays fenced for mutating RPCs: a cancel is
    // refused with the fencing error, not a not-found.
    let err = deposed.cancel(999).expect_err("mutation on a fenced connection must fail");
    assert_eq!(ugrs::ug::server::fenced_epoch(&err), Some(5));

    // Re-announcing the *current* epoch on a fresh connection heals it:
    // the deposed gateway rejoining as standby of epoch 5 is fine.
    let mut healed = SolveClient::connect(&addr).expect("healed connect");
    assert_eq!(healed.announce_gateway_epoch(5).expect("current epoch is acked"), 5);

    // A plain client that never announces an epoch is not a gateway
    // and is never fenced.
    let mut plain = SolveClient::connect(&addr).expect("plain connect");
    assert!(!plain.cancel(999).expect("plain cancel answers normally"), "unknown job: false");

    // Both refusals are visible to operators.
    let report = plain.metrics().expect("metrics");
    let fenced_line = report
        .text
        .lines()
        .find(|l| l.starts_with("ugrs_server_fenced_rpcs_total"))
        .expect("fenced counter exported");
    let n: u64 = fenced_line.split_whitespace().last().unwrap().parse().unwrap();
    assert!(n >= 3, "expected >= 3 fenced RPCs, metrics say {n}");

    server.shutdown_and_join();
}

/// The pool path's frames are checksummed: a pool worker whose uplink
/// flips one bit (the `corrupt` chaos profile) is caught by the
/// server's frame CRC — counted — and, since a pool connection is a
/// resumable session, the worker reconnects and replays instead of
/// being lost; the job reaches the reference optimum on the same pool.
/// Before pool frames carried a CRC the flipped bit either failed to
/// parse or was *accepted as a different number*.
#[test]
fn corrupted_pool_frame_is_caught_by_the_crc_and_the_job_still_solves() {
    let g = stp_graph(42);
    let expected = stp_reference(&g);
    let plan = one_early_faulty_worker("corrupt");

    // Slow heartbeats: the schedule advances on job frames only.
    let mut config = server_config(2, 1, 100);
    config.comm.heartbeat_interval = Duration::from_millis(900);
    config.comm.chaos = Some(plan.clone());
    let server = SolveServer::start(config).expect("server start");
    let addr = server.client_addr().to_string();
    let mut client = SolveClient::connect(&addr).expect("client connect");

    // Jobs until the armed worker has written its first frame (a lease
    // that ends up as an idle rank writes only the closing `JobDone`,
    // which counts just as well).
    let corrupt_before = sample_sum(&client.metrics().expect("metrics").text, CORRUPT);
    for round in 0..4 {
        solve_one(&mut client, format!("crc-{round}"), &g, expected, &plan);
        let text = client.metrics().expect("metrics").text;
        if sample_sum(&text, CORRUPT) > corrupt_before {
            break;
        }
    }
    // The resume may still be under way when the job is done.
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        let text = client.metrics().expect("metrics").text;
        if sample_sum(&text, "ugrs_comm_reconnects_total") >= 1.0 || Instant::now() > deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        sample_sum(&text, CORRUPT) >= 1.0,
        "the flipped bit must be caught by the frame CRC; plan: {plan}\n{text}"
    );
    assert!(
        sample_sum(&text, "ugrs_comm_reconnects_total") >= 1.0,
        "the torn connection must resume; plan: {plan}\n{text}"
    );
    assert_eq!(
        sample_sum(&text, "ugrs_server_workers_lost_total"),
        0.0,
        "a resumable pool session must not cost the worker; plan: {plan}\n{text}"
    );
    server.shutdown_and_join();
}

/// With a zero reconnect budget a torn pool connection cannot resume:
/// the worker is lost, its job requeues the lost rank's work and still
/// reaches the optimum, and the scheduler refills the pool.
#[test]
fn zero_reconnect_budget_pool_worker_is_replaced_and_the_job_still_solves() {
    let g = stp_graph(42);
    let expected = stp_reference(&g);
    let plan = one_early_faulty_worker("corrupt");

    let mut config = server_config(2, 1, 100);
    config.comm.heartbeat_interval = Duration::from_millis(900);
    config.comm.reconnect_deadline = Duration::ZERO;
    config.comm.chaos = Some(plan.clone());
    let server = SolveServer::start(config).expect("server start");
    let addr = server.client_addr().to_string();
    let mut client = SolveClient::connect(&addr).expect("client connect");

    let mut lost = 0.0;
    for round in 0..4 {
        solve_one(&mut client, format!("zero-{round}"), &g, expected, &plan);
        lost =
            sample_sum(&client.metrics().expect("metrics").text, "ugrs_server_workers_lost_total");
        if lost >= 1.0 {
            break;
        }
    }
    assert!(lost >= 1.0, "without a budget the torn worker must be lost; plan: {plan}");
    await_status(&mut client, Duration::from_secs(30), "pool refilled to 2", |st| {
        st.workers.len() == 2
    });
    server.shutdown_and_join();
}

/// Kill detection does not wait out the reconnect budget: a spawned
/// worker whose process exited can never resume, so the server reports
/// it lost at once even with a 10 s `reconnect_deadline`.
#[test]
fn sigkilled_pool_worker_is_lost_within_a_second_despite_a_long_reconnect_budget() {
    let g = stp_graph(42);
    let expected = stp_reference(&g);
    let mut config = server_config(2, 1, 1500);
    config.comm.reconnect_deadline = Duration::from_secs(10);
    let server = SolveServer::start(config).expect("server start");
    let addr = server.client_addr().to_string();
    let mut client = SolveClient::connect(&addr).expect("client connect");

    let spec = stp_job("victim", &g, &ReduceParams::default());
    let instance = spec.instance.clone();
    let job = client.submit(spec).expect("submit");
    let mut status_client = SolveClient::connect(&addr).expect("status client");
    let st = await_status(&mut status_client, Duration::from_secs(30), "job running", |st| {
        st.workers.iter().any(|w| w.job == Some(job) && w.rank == Some(0))
    });
    let victim = st.workers.iter().find(|w| w.job == Some(job) && w.rank == Some(0)).unwrap();
    let pid = victim.pid.expect("server-spawned workers have pids");
    let killed_at = Instant::now();
    let killed = std::process::Command::new("kill").arg("-9").arg(pid.to_string()).status();
    assert!(killed.expect("spawn kill").success(), "kill -9 {pid} failed");

    let mut lost_after = None;
    let done = client
        .watch(job, 0, |ev| {
            if matches!(ev.kind, JobEventKind::WorkerLost { .. }) && lost_after.is_none() {
                lost_after = Some(killed_at.elapsed());
            }
        })
        .expect("watch");
    let lost_after = lost_after.expect("the kill must be reported as WorkerLost");
    assert!(lost_after < Duration::from_secs(1), "WorkerLost came {lost_after:?} after the kill");
    assert!((external_obj(&instance, &done.kind) - expected).abs() < 1e-6);
    server.shutdown_and_join();
}

/// A hello on the pool listener that advertises an older wire revision
/// (or none) is refused like on a per-call run's listener: hung up on
/// without a welcome, and it takes no pool id.
#[test]
fn pool_hello_from_another_revision_is_refused_and_takes_no_pool_id() {
    use ugrs::ug::process::PROTOCOL_VERSION;
    use ugrs::ug::wire::{self, FrameDecoder};
    use ugrs::ug::{Hello, Welcome};

    let mut config = server_config(1, 1, 0);
    config.worker_command.clear(); // externally started workers only
    let server = SolveServer::start(config).expect("server start");
    let mut client = SolveClient::connect(&server.client_addr().to_string()).expect("connect");

    let hello = |max_protocol| {
        let stream = std::net::TcpStream::connect(server.worker_addr()).expect("pool connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let hello = Hello { max_protocol, ..Hello::new(None) };
        wire::write_msg(&mut (&stream), &hello).expect("hello");
        let mut reader = stream.try_clone().unwrap();
        let welcome = wire::read_msg::<Welcome, _>(&mut reader, &mut FrameDecoder::new());
        (stream, welcome)
    };
    for old in [None, Some(2), Some(PROTOCOL_VERSION - 1)] {
        let (_stream, welcome) = hello(old);
        assert!(matches!(welcome, Ok(None)), "hello {old:?} must be hung up on: {welcome:?}");
        assert!(client.status().expect("status").workers.is_empty(), "{old:?} took a pool id");
    }
    // The same hello at this build's revision is admitted, under the
    // first id.
    let (_stream, welcome) = hello(Some(PROTOCOL_VERSION));
    let welcome = welcome.expect("welcome").expect("a current-revision hello is admitted");
    assert_eq!((welcome.rank, welcome.protocol), (0, Some(PROTOCOL_VERSION)));
    await_status(&mut client, Duration::from_secs(5), "the admitted worker", |st| {
        st.workers.len() == 1
    });
    server.shutdown_and_join();
}

const CORRUPT: &str = "ugrs_comm_frames_corrupt_total";

/// A plan under which, of a pool's two initial workers (the server
/// hands worker `tag` the plan `seed + tag`), one faults on the very
/// first frame it writes and the other writes its first 150 frames
/// clean — far more than one small job needs.
fn one_early_faulty_worker(profile: &str) -> FaultPlan {
    let profile = ChaosProfile::named(profile).expect("preset");
    let first_fault = |seed: u64| {
        FaultPlan::new(seed, profile.clone()).events(1, 150).first().map(|(frame, _)| *frame)
    };
    let seed = (0u64..)
        .find(|&s| {
            matches!((first_fault(s), first_fault(s + 1)), (Some(0), None) | (None, Some(0)))
        })
        .expect("some seed arms exactly one early faulty worker");
    FaultPlan::new(seed, profile)
}

/// Submits one STP job and asserts it ends `Solved` at `expected`.
fn solve_one(
    client: &mut SolveClient,
    name: String,
    g: &ugrs::steiner::Graph,
    expected: f64,
    plan: &FaultPlan,
) {
    let spec = stp_job(name.clone(), g, &ReduceParams::default());
    let instance = spec.instance.clone();
    let job = client.submit(spec).expect("submit");
    let done = client.wait(job).expect("wait");
    match &done.kind {
        JobEventKind::Finished { state, .. } => {
            assert_eq!(*state, JobState::Solved, "{name}; plan: {plan}")
        }
        other => panic!("{name}: unexpected terminal event {other:?}; plan: {plan}"),
    }
    let cost = external_obj(&instance, &done.kind);
    assert!((cost - expected).abs() < 1e-6, "{name}: optimum {cost} != {expected}; plan: {plan}");
}

/// The seed under test. CI's `wire` job sweeps a fixed set (41, 1337,
/// 20260807) by exporting `UGRS_CHAOS_SEED`, as `tests/chaos.rs` does.
fn chaos_seed() -> u64 {
    std::env::var("UGRS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(41)
}

/// The pool path under the seeded `flaky` schedule (`ugd-server
/// --chaos-seed/--chaos-profile` arms it in every spawned worker):
/// drops, corruption, duplicates and delays on the workers' uplinks.
/// Pool connections are resumable sessions: within the healing budget
/// every torn connection resumes, no worker is lost, and every job
/// ends `Solved` at its reference optimum.
#[test]
fn pool_workers_under_seeded_chaos_reach_reference_optima() {
    let plan = FaultPlan::new(chaos_seed(), ChaosProfile::named("flaky").expect("preset"));
    // Vacuity guard: the first workers' schedules must tear something.
    let tears = (0..3u64)
        .flat_map(|tag| FaultPlan::new(plan.seed + tag, plan.profile.clone()).events(64, 400))
        .filter(|(_, a)| matches!(a, FaultAction::Drop | FaultAction::Corrupt { .. }))
        .count();
    assert!(tears >= 3, "plan tears only {tears} connection(s) in 3 x 400 frames; plan: {plan}");

    let graphs: Vec<_> = [42u64, 1337, 7, 11, 19, 23, 31, 47].into_iter().map(stp_graph).collect();
    let misdps: Vec<_> = [12u64, 13, 14, 15].into_iter().map(|s| cardinality_ls(5, 2, s)).collect();
    let mut specs = Vec::new();
    let mut expected = Vec::new();
    for (i, g) in graphs.iter().enumerate() {
        specs.push(stp_job(format!("stp-{i}"), g, &ReduceParams::default()));
        expected.push((stp_reference(g), 1e-6));
    }
    for (i, mp) in misdps.iter().enumerate() {
        let r = ugrs::glue::ug_solve_misdp(
            mp,
            ParallelOptions { num_solvers: 2, ..Default::default() },
        );
        assert!(r.solved);
        specs.insert(3 * i + 2, misdp_job(format!("cls-{i}"), mp));
        expected.insert(3 * i + 2, (r.best_obj.expect("threaded MISDP reference"), 1e-3));
    }
    assert_eq!(specs.len(), 12);

    let mut config = server_config(3, 1, 0);
    config.comm.reconnect_deadline = Duration::from_secs(5);
    config.comm.chaos = Some(plan.clone());
    let server = SolveServer::start(config).expect("server start");
    let addr = server.client_addr().to_string();
    let mut client = SolveClient::connect(&addr).expect("client connect");

    let instances: Vec<JobInstance> = specs.iter().map(|s| s.instance.clone()).collect();
    let jobs: Vec<u64> = specs
        .into_iter()
        .map(|mut s| {
            s.num_solvers = 3;
            client.submit(s).expect("submit")
        })
        .collect();
    for ((job, instance), (want, tol)) in jobs.iter().zip(&instances).zip(&expected) {
        let done = client.wait(*job).expect("wait");
        match &done.kind {
            JobEventKind::Finished { state, .. } => {
                assert_eq!(*state, JobState::Solved, "job {job} under chaos; plan: {plan}")
            }
            other => panic!("job {job}: unexpected terminal event {other:?}; plan: {plan}"),
        }
        let got = external_obj(instance, &done.kind);
        assert!((got - want).abs() < *tol, "job {job}: optimum {got} != {want}; plan: {plan}");
    }

    let text = client.metrics().expect("metrics").text;
    assert!(
        sample_sum(&text, "ugrs_comm_reconnects_total") >= 1.0,
        "the schedule must have torn and resumed a connection; plan: {plan}\n{text}"
    );
    assert_eq!(
        sample_sum(&text, "ugrs_server_workers_lost_total"),
        0.0,
        "within the healing budget no worker may be lost; plan: {plan}\n{text}"
    );
    await_status(&mut client, Duration::from_secs(30), "pool back at 3 idle workers", |st| {
        st.workers.len() == 3 && st.workers.iter().all(|w| w.job.is_none() && !w.draining)
    });
    server.shutdown_and_join();
}
