//! Fleet-tier e2e: an in-process `ugd-gateway` over three real
//! `ugd-server` subprocesses under sustained concurrent load, with one
//! shard SIGKILLed mid-run.
//!
//! The acceptance gate of the fleet tier, all in one scenario:
//! * over 200 mixed STP/MISDP jobs from concurrent submitters, every one
//!   reaching its reference optimum even though a shard dies while
//!   running a third of them;
//! * the dead shard's in-flight jobs resume from its checkpoints on a
//!   surviving peer as run `1.k` of their restart chain (Table 2
//!   semantics at fleet scope);
//! * a greedy tenant is throttled by its token bucket while everyone
//!   else's submissions keep flowing;
//! * the p99 submit-to-ack latency stays under the SLO — admission plus
//!   the write-ahead ledger must not serialize the fleet.
//!
//! A second, deterministic scenario pins down work stealing: a slow
//! shard's queue is drained by an idle fast one.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use ugrs::glue::{
    misdp_job, stp_job, JobInstance, SolveClient, SolveGateway, SolveJobSpec, SolveServer,
};
use ugrs::misdp::gen::cardinality_ls;
use ugrs::steiner::gen::{bipartite, hypercube_sparse_terminals, CostScheme};
use ugrs::steiner::reduce::ReduceParams;
use ugrs::ug::gateway::{GatewayConfig, ShardSpec, TenantQuota};
use ugrs::ug::{JobEvent, JobEventKind, JobState, ParallelOptions, ServerReply, SubmitOutcome};

const SERVER_BIN: &str = env!("CARGO_BIN_EXE_ugd-server");
const WORKER_BIN: &str = env!("CARGO_BIN_EXE_ugd-worker");

/// A shard subprocess. Killed on drop so a failing assertion never
/// leaks listeners or pool workers.
struct ShardProc {
    child: Child,
    addr: String,
    state_dir: PathBuf,
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_shard(state_dir: &Path, pool: usize, max_jobs: usize, handicap_ms: u64) -> ShardProc {
    spawn_shard_at(state_dir, pool, max_jobs, handicap_ms, "127.0.0.1:0")
}

/// Like [`spawn_shard`] but on a fixed client address — how a revived
/// shard comes back where the gateway's static config expects it.
fn spawn_shard_at(
    state_dir: &Path,
    pool: usize,
    max_jobs: usize,
    handicap_ms: u64,
    client_addr: &str,
) -> ShardProc {
    std::fs::create_dir_all(state_dir).unwrap();
    let mut child = Command::new(SERVER_BIN)
        .args([
            "--client-addr",
            client_addr,
            "--worker-addr",
            "127.0.0.1:0",
            "--pool-size",
            &pool.to_string(),
            "--max-jobs",
            &max_jobs.to_string(),
            "--worker",
            WORKER_BIN,
            "--handicap-ms",
            &handicap_ms.to_string(),
            "--status-interval",
            "0.05",
            "--checkpoint-interval",
            "0.05",
            "--state-dir",
            &state_dir.display().to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ugd-server shard");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut stdout = std::io::BufReader::new(stdout);
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read shard banner");
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    ShardProc { child, addr, state_dir: state_dir.to_path_buf() }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ugrs-fleet-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// One watched job's outcome.
#[derive(Debug)]
struct Outcome {
    gid: u64,
    instance: JobInstance,
    expected: f64,
    state: JobState,
    obj: Option<f64>,
    run_index: u32,
    recovered: Option<u32>,
}

#[test]
fn fleet_survives_shard_kill_under_sustained_load() {
    // ---- reference optima (threaded back-end, computed once) --------
    let stp_seeds = [42u64, 1337, 7, 99];
    let stp_graphs: Vec<_> =
        stp_seeds.iter().map(|&s| bipartite(5, 9, 3, CostScheme::Perturbed, s)).collect();
    let stp_expected: Vec<f64> = stp_graphs
        .iter()
        .map(|g| {
            let r = ugrs::glue::ug_solve_stp(
                g,
                &ReduceParams::default(),
                ParallelOptions { num_solvers: 2, ..Default::default() },
            );
            assert!(r.solved, "threaded STP reference must solve");
            r.tree.expect("reference tree").1
        })
        .collect();
    // A branching instance: its checkpoints hold open primitive nodes,
    // so kill-recovery has real work to resume (the bipartite family's
    // root closes in one piece).
    let heavy = hypercube_sparse_terminals(6, 4, CostScheme::Perturbed, 1);
    let heavy_expected = {
        let r = ugrs::glue::ug_solve_stp(
            &heavy,
            &ReduceParams::default(),
            ParallelOptions { num_solvers: 2, ..Default::default() },
        );
        assert!(r.solved);
        r.tree.expect("reference tree").1
    };
    let mp = cardinality_ls(5, 2, 12);
    let misdp_ref =
        ugrs::glue::ug_solve_misdp(&mp, ParallelOptions { num_solvers: 2, ..Default::default() });
    assert!(misdp_ref.solved);
    let misdp_expected = misdp_ref.best_obj.expect("threaded MISDP reference must solve");

    // ---- the fleet: 3 shard subprocesses + in-process gateway -------
    let alone = IN_PROCESS_GATEWAYS.write().unwrap_or_else(|e| e.into_inner());
    let root = scratch_dir("kill");
    // CI points this somewhere uploadable so the gateway's decision
    // journal survives the run as an artifact; locally it lives (and
    // dies) with the scratch dir.
    let journal_dir = std::env::var_os("UGRS_FLEET_JOURNAL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("journal"));
    let shards: Vec<ShardProc> =
        (0..3).map(|i| spawn_shard(&root.join(format!("shard-{i}")), 4, 4, 150)).collect();
    let config = GatewayConfig {
        shards: shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardSpec {
                name: format!("shard-{i}"),
                addr: s.addr.clone(),
                state_dir: Some(s.state_dir.clone()),
            })
            .collect(),
        health_interval: Duration::from_millis(100),
        shard_liveness: Duration::from_millis(600),
        probe_timeout: Duration::from_millis(800),
        steal_margin: 2,
        max_inflight: 1024,
        default_quota: None,
        tenant_quotas: [("greedy".to_string(), TenantQuota { rate: 1.0, burst: 3.0 })]
            .into_iter()
            .collect(),
        state_dir: Some(root.join("gateway")),
        journal_dir: Some(journal_dir.clone()),
        ..GatewayConfig::default()
    };
    let gateway = SolveGateway::start(config).expect("gateway start");
    let gw_addr = gateway.client_addr().to_string();

    // ---- sustained load: 16 submitters, >200 mixed jobs -------------
    // Worklist entries: (spec, expected external optimum).
    let mut work: Vec<(SolveJobSpec, f64)> = Vec::new();
    for i in 0..192usize {
        let k = i % stp_graphs.len();
        let mut spec = stp_job(format!("stp-{i}"), &stp_graphs[k], &ReduceParams::default());
        spec.num_solvers = 1;
        work.push((spec, stp_expected[k]));
    }
    for i in 0..8usize {
        let mut spec = stp_job(format!("heavy-{i}"), &heavy, &ReduceParams::default());
        spec.num_solvers = 1;
        work.push((spec, heavy_expected));
    }
    for i in 0..8usize {
        let mut spec = misdp_job(format!("cls-{i}"), &mp);
        spec.num_solvers = 1;
        work.push((spec, misdp_expected));
    }
    assert!(work.len() >= 200, "load must exceed 200 jobs, got {}", work.len());

    let work = Arc::new(Mutex::new(work));
    let accepted: Arc<Mutex<Vec<(u64, JobInstance, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let latencies: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let submitters: Vec<_> = (0..16)
        .map(|_| {
            let (work, accepted, latencies, addr) =
                (work.clone(), accepted.clone(), latencies.clone(), gw_addr.clone());
            std::thread::spawn(move || {
                let mut client = SolveClient::connect(&addr).expect("submitter connect");
                loop {
                    let Some((spec, expected)) = work.lock().unwrap().pop() else { return };
                    let instance = spec.instance.clone();
                    let t0 = Instant::now();
                    let outcome = client.try_submit(spec).expect("submit rpc");
                    let dt = t0.elapsed();
                    match outcome {
                        SubmitOutcome::Accepted(gid) => {
                            latencies.lock().unwrap().push(dt);
                            accepted.lock().unwrap().push((gid, instance, expected));
                        }
                        SubmitOutcome::Rejected(reason) => {
                            panic!("unmetered tenant rejected: {reason}")
                        }
                    }
                }
            })
        })
        .collect();

    // ---- the greedy tenant hits its token bucket --------------------
    // 10 rapid submissions against burst 3 @ 1/s: at most 3-4 can pass.
    let greedy = {
        let (accepted, addr, g) = (accepted.clone(), gw_addr.clone(), stp_graphs[0].clone());
        let expected = stp_expected[0];
        std::thread::spawn(move || {
            let mut client = SolveClient::connect(&addr).expect("greedy connect");
            let mut rejected = 0usize;
            for i in 0..10 {
                let mut spec = stp_job(format!("greedy-{i}"), &g, &ReduceParams::default());
                spec.num_solvers = 1;
                spec.tenant = Some("greedy".into());
                let instance = spec.instance.clone();
                match client.try_submit(spec).expect("greedy submit rpc") {
                    SubmitOutcome::Accepted(gid) => {
                        accepted.lock().unwrap().push((gid, instance, expected))
                    }
                    SubmitOutcome::Rejected(reason) => {
                        assert_eq!(reason, "quota", "greedy refusals must cite the quota");
                        rejected += 1;
                    }
                }
            }
            rejected
        })
    };
    for t in submitters {
        t.join().expect("submitter thread");
    }
    let quota_rejections = greedy.join().expect("greedy thread");
    // At peak in-flight, the gateway runs dispatch, health, accept,
    // lease (HA only) and one watcher per shard — not a thread per job.
    // Its client connections' threads are not counted.
    let threads = gateway_threads();
    assert!(threads <= 4 + shards.len(), "the gateway runs {threads} threads");
    drop(alone);
    assert!(
        quota_rejections >= 6,
        "10 instant submits against burst 3 must mostly bounce, got {quota_rejections}"
    );

    // ---- kill shard 0 while it is mid-run ---------------------------
    let mut fleet_client = SolveClient::connect(&gw_addr).expect("fleet client");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let fleet = fleet_client.fleet().expect("fleet rpc");
        let s0 = &fleet.shards[0];
        if s0.jobs_running >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "shard 0 never got busy: {fleet:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    // 400 ms ≈ 8 checkpoint intervals: the running jobs have durable
    // progress for failover to replay.
    std::thread::sleep(Duration::from_millis(400));
    let victim = &shards[0];
    victim_kill(victim);

    // ---- every accepted job must still terminate correctly ----------
    let accepted = Arc::try_unwrap(accepted).unwrap().into_inner().unwrap();
    let total = accepted.len();
    assert!(total >= 200 + 3, "accepted {total} jobs — expected the full load");
    let queue = Arc::new(Mutex::new(accepted));
    let outcomes: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::new()));
    let watchers: Vec<_> = (0..16)
        .map(|_| {
            let (queue, outcomes, addr) = (queue.clone(), outcomes.clone(), gw_addr.clone());
            std::thread::spawn(move || {
                let mut client = SolveClient::connect(&addr).expect("watcher connect");
                loop {
                    let Some((gid, instance, expected)) = queue.lock().unwrap().pop() else {
                        return;
                    };
                    let mut recovered = None;
                    let done = client
                        .watch(gid, 0, |ev| {
                            if let JobEventKind::Recovered { run_index, .. } = ev.kind {
                                recovered = Some(run_index);
                            }
                        })
                        .expect("watch to terminal");
                    let JobEventKind::Finished { state, obj, run_index, .. } = done.kind else {
                        panic!("watch returned a non-terminal event")
                    };
                    outcomes.lock().unwrap().push(Outcome {
                        gid,
                        instance,
                        expected,
                        state,
                        obj,
                        run_index,
                        recovered,
                    });
                }
            })
        })
        .collect();
    for t in watchers {
        t.join().expect("watcher thread");
    }
    let outcomes = Arc::try_unwrap(outcomes).unwrap().into_inner().unwrap();
    assert_eq!(outcomes.len(), total, "every accepted job must reach a terminal event");
    for o in &outcomes {
        assert_eq!(
            o.state,
            JobState::Solved,
            "job {} ended {:?} (run 1.{})",
            o.gid,
            o.state,
            o.run_index
        );
        let internal = o.obj.expect("solved job has an objective");
        let external = o.instance.external_objective(internal);
        assert!(
            (external - o.expected).abs() < 1e-6,
            "job {} solved to {external}, reference {}",
            o.gid,
            o.expected
        );
    }

    // The fleet-scope Table-2 property: at least one job of the dead
    // shard resumed as run 1.k (k >= 2) on a peer — and solved above.
    let resumed: Vec<&Outcome> = outcomes.iter().filter(|o| o.recovered.is_some()).collect();
    assert!(
        !resumed.is_empty(),
        "no job resumed from the killed shard's checkpoints (failover replay missing)"
    );
    for o in &resumed {
        assert!(
            o.recovered.unwrap() >= 2 && o.run_index >= 2,
            "job {} announced recovery but run index is {}",
            o.gid,
            o.run_index
        );
    }

    // Fleet counters: the death was noticed and handled.
    let fleet = fleet_client.fleet().expect("fleet rpc");
    assert!(
        fleet.failed_over_total >= 1,
        "failover counter must record the shard death: {fleet:?}"
    );
    assert!(!fleet.shards[0].healthy, "the killed shard must be marked dead");
    assert_eq!(
        fleet.rejected_total, quota_rejections as u64,
        "rejection counter must match the greedy tenant's bounces"
    );
    assert_eq!(fleet.inflight, 0, "no job may linger after all terminals");

    // ---- p99 submit-to-ack SLO --------------------------------------
    // The 250 ms SLO is a release-build claim (CI's fleet-smoke job
    // runs this test under --release); an unoptimized build only gets
    // a sanity bound so `cargo test` still catches a submit path that
    // serializes the fleet outright.
    let slo = if cfg!(debug_assertions) {
        Duration::from_millis(2000)
    } else {
        Duration::from_millis(250)
    };
    let mut lat = Arc::try_unwrap(latencies).unwrap().into_inner().unwrap();
    lat.sort();
    let p99 = percentile(&lat, 0.99);
    assert!(
        p99 < slo,
        "p99 submit-to-ack {p99:?} breaches the {slo:?} SLO (p50 {:?})",
        percentile(&lat, 0.50)
    );

    // The journal — CI's artifact — must carry the whole story.
    let journal =
        std::fs::read_to_string(journal_dir.join("gateway.jsonl")).expect("gateway journal exists");
    for ev in [
        "\"ev\":\"submit\"",
        "\"ev\":\"reject\"",
        "\"ev\":\"shard_dead\"",
        "\"ev\":\"failover\"",
        "\"ev\":\"finish\"",
    ] {
        assert!(journal.contains(ev), "journal is missing {ev} lines");
    }

    // What `ugd metrics` shows an operator (and CI's fleet-smoke greps
    // on its own small fleet): the survivors' jobs ran over pooled
    // connections.
    let metrics = fleet_client.metrics().expect("gateway metrics").text;
    for survivor in ["shard-1", "shard-2"] {
        let series = format!("ugrs_gateway_shard_conn_reused_total{{shard=\"{survivor}\"}}");
        assert!(
            sample(&metrics, &series) > 0,
            "{survivor} was never reached over a pooled connection"
        );
    }

    gateway.shutdown_and_join();
    drop(shards);
    std::fs::remove_dir_all(&root).ok();
}

/// Held (shared) by every test that runs a gateway in this process, and
/// exclusively by the one that counts the gateway's threads, until it
/// has counted them.
static IN_PROCESS_GATEWAYS: RwLock<()> = RwLock::new(());

/// Threads of this process whose name marks them as a gateway's,
/// except those serving its client connections.
fn gateway_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("a /proc filesystem")
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|name| name.starts_with("ugw-") && name.trim_end() != "ugw-client")
        .count()
}

fn victim_kill(shard: &ShardProc) {
    // SIGKILL via the pid so the ShardProc Drop later is a no-op wait.
    let _ = Command::new("kill").args(["-9", &shard.child.id().to_string()]).status();
}

/// Deterministic work stealing: a slow shard accumulates queue while a
/// fast one idles; the gateway must migrate queued jobs over and every
/// job must still solve to the optimum on whichever shard ran it.
#[test]
fn work_stealing_drains_a_slow_shard_onto_an_idle_one() {
    let g = bipartite(5, 9, 3, CostScheme::Perturbed, 42);
    let expected = {
        let r = ugrs::glue::ug_solve_stp(
            &g,
            &ReduceParams::default(),
            ParallelOptions { num_solvers: 2, ..Default::default() },
        );
        assert!(r.solved);
        r.tree.expect("reference tree").1
    };
    let _shared = IN_PROCESS_GATEWAYS.read().unwrap_or_else(|e| e.into_inner());
    let root = scratch_dir("steal");
    // One worker, one job slot each: queued jobs stay visibly queued.
    let slow = spawn_shard(&root.join("slow"), 1, 1, 1200);
    let fast = spawn_shard(&root.join("fast"), 1, 1, 0);
    let config = GatewayConfig {
        shards: vec![
            ShardSpec {
                name: "slow".into(),
                addr: slow.addr.clone(),
                state_dir: Some(slow.state_dir.clone()),
            },
            ShardSpec {
                name: "fast".into(),
                addr: fast.addr.clone(),
                state_dir: Some(fast.state_dir.clone()),
            },
        ],
        health_interval: Duration::from_millis(100),
        shard_liveness: Duration::from_millis(600),
        steal_margin: 1,
        ..GatewayConfig::default()
    };
    let gateway = SolveGateway::start(config).expect("gateway start");
    let addr = gateway.client_addr().to_string();
    let mut client = SolveClient::connect(&addr).expect("client");
    let jobs: Vec<u64> = (0..16)
        .map(|i| {
            let mut spec = stp_job(format!("steal-{i}"), &g, &ReduceParams::default());
            spec.num_solvers = 1;
            client.submit(spec).expect("submit")
        })
        .collect();
    let routed_to_fast = AtomicUsize::new(0);
    for &job in &jobs {
        let mut started = 0usize;
        let done = client
            .watch(job, 0, |ev| {
                if let JobEventKind::Routed { shard } = &ev.kind {
                    if shard == "fast" {
                        routed_to_fast.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if matches!(ev.kind, JobEventKind::Started { .. }) {
                    started += 1;
                }
            })
            .expect("watch");
        // A steal moves only queued jobs, so each job runs exactly once
        // — a duplicated Started would mean the gateway applied a
        // shard's event twice instead of in order from its cursor.
        assert_eq!(started, 1, "job {job} must announce exactly one Started event");
        match done.kind {
            JobEventKind::Finished { state, obj, .. } => {
                assert_eq!(state, JobState::Solved, "job {job} must solve");
                let external = ugrs::glue::JobInstance::Stp { graph: g.clone() }
                    .external_objective(obj.expect("objective"));
                assert!((external - expected).abs() < 1e-6, "job {job}: {external} != {expected}");
            }
            other => panic!("unexpected terminal {other:?}"),
        }
    }
    let fleet = client.fleet().expect("fleet rpc");
    assert!(
        fleet.stolen_total >= 1,
        "an idle fast shard next to a deep slow queue must trigger stealing: {fleet:?}"
    );
    // A stolen job is Routed twice — its event stream shows the move.
    assert!(
        routed_to_fast.load(Ordering::Relaxed) as u64 >= fleet.stolen_total,
        "stolen jobs must re-announce their route"
    );
    gateway.shutdown_and_join();
    drop((slow, fast));
    std::fs::remove_dir_all(&root).ok();
}

/// One sample of an exposition, by its full `name{labels}` spelling.
fn sample(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no series {series} in:\n{text}"))
}

/// The service hop reuses its shard connections: the gateway used to
/// open two per job (submit, watch), so 50 jobs meant 100 accepts on
/// the shard. The shard's own counter is the witness, the gateway's
/// pair tells the same story from the other side. Then the shard is
/// restarted on its address with the pool full of dead connections:
/// the next job costs exactly one redial and no parked dispatch entry.
#[test]
fn gateway_reuses_shard_connections_and_redials_once_after_a_shard_restart() {
    let _shared = IN_PROCESS_GATEWAYS.read().unwrap_or_else(|e| e.into_inner());
    let g = bipartite(5, 9, 3, CostScheme::Perturbed, 42);
    let shard_config = |client_addr: String| ugrs::ug::ServerConfig {
        client_addr,
        worker_command: vec![WORKER_BIN.to_string()],
        pool_size: 1,
        max_concurrent_jobs: 1,
        ..Default::default()
    };
    let shard = SolveServer::start(shard_config("127.0.0.1:0".into())).expect("shard start");
    let shard_addr = shard.client_addr().to_string();
    // One health sweep at start, the next long after the test: every
    // accept below is the job path's.
    let gateway = SolveGateway::start(GatewayConfig {
        shards: vec![ShardSpec::new("s0", shard_addr.clone())],
        health_interval: Duration::from_secs(20),
        shard_liveness: Duration::from_secs(60),
        steal_margin: 0,
        ..GatewayConfig::default()
    })
    .expect("gateway start");
    let mut client = SolveClient::connect(&gateway.client_addr().to_string()).expect("client");
    let mut solve = |name: String| {
        let mut spec = stp_job(name, &g, &ReduceParams::default());
        spec.num_solvers = 1;
        let job = client.submit(spec).expect("submit");
        match client.wait(job).expect("wait").kind {
            JobEventKind::Finished { state, .. } => assert_eq!(state, JobState::Solved),
            other => panic!("unexpected terminal {other:?}"),
        }
    };
    let accepted = |direct: &mut SolveClient| {
        let text = direct.metrics().expect("shard metrics").text;
        sample(&text, "ugrs_server_connections_accepted_total{listener=\"client\"}")
    };
    let gw_counters = || {
        let mut c = SolveClient::connect(&gateway.client_addr().to_string()).expect("client");
        let text = c.metrics().expect("gateway metrics").text;
        (
            sample(&text, "ugrs_gateway_shard_dials_total{shard=\"s0\"}"),
            sample(&text, "ugrs_gateway_shard_conn_reused_total{shard=\"s0\"}"),
        )
    };

    let mut direct = SolveClient::connect(&shard_addr).expect("direct client");
    let before = accepted(&mut direct);
    for i in 0..50 {
        solve(format!("reuse-{i}"));
    }
    let grew = accepted(&mut direct) - before;
    assert!(grew <= 6, "50 jobs made the shard accept {grew} connections");
    let (dials, reused) = gw_counters();
    assert!(dials <= 6, "50 jobs cost {dials} dials");
    assert!(reused >= 94, "100 shard RPCs, {reused} of them on a pooled connection");

    // Restart the shard where the gateway expects it. The pause lets
    // the old instance's connection threads see the shutdown flag and
    // hang up (they look every 500 ms).
    drop(direct);
    shard.shutdown_and_join();
    std::thread::sleep(Duration::from_millis(700));
    let shard = SolveServer::start(shard_config(shard_addr)).expect("shard restart");
    let t0 = Instant::now();
    solve("after-restart".into());
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(10), "no parked retry (20 s) on the way: {took:?}");
    assert_eq!(gw_counters().0, dials + 1, "the stale pool costs exactly one redial");

    // Not joined: the health thread sleeps out its 20 s interval.
    gateway.shutdown();
    shard.shutdown_and_join();
}

/// One life of a scripted shard process: the job event log it serves
/// (job 0 only), every connection it accepted, and its `WatchAll`
/// subscribers. It speaks the client protocol at the JSON level, so it
/// answers whichever requests a gateway sends.
#[derive(Default)]
struct ScriptedLife {
    events: Vec<JobEvent<u32>>,
    conns: Vec<std::net::TcpStream>,
    subscribers: Vec<std::net::TcpStream>,
}

type Json = serde_json::Value;

impl ScriptedLife {
    /// Appends to job 0's log and streams the event to the subscribers.
    fn append(&mut self, kind: JobEventKind<u32>) {
        let event = JobEvent { job: 0, seq: self.events.len(), kind };
        let reply = serde_json::to_value(&ServerReply::Event { event: event.clone() });
        self.events.push(event);
        for conn in &mut self.subscribers {
            let _ = ugrs::ug::wire::write_msg(conn, &reply);
        }
    }

    fn finished(&self) -> bool {
        self.events.last().is_some_and(|e| matches!(e.kind, JobEventKind::Finished { .. }))
    }
}

/// A scripted shard on a fixed address, restartable there: a restart
/// closes every connection of the old life, like a process exit, and
/// the new life serves the log the script gives it, like a shard that
/// recovered its job from its state dir.
struct ScriptedShard {
    addr: std::net::SocketAddr,
    life: Arc<Mutex<ScriptedLife>>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ScriptedShard {
    /// Starts a life at `addr`; a `Submit` appends `on_submit` to job
    /// 0's log before it is answered.
    fn start(
        addr: &str,
        events: Vec<JobEventKind<u32>>,
        on_submit: Vec<JobEventKind<u32>>,
    ) -> Self {
        let listener = std::net::TcpListener::bind(addr).expect("bind scripted shard");
        let addr = listener.local_addr().unwrap();
        let life = Arc::new(Mutex::new(ScriptedLife::default()));
        for kind in events {
            life.lock().unwrap().append(kind);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let on_submit = Arc::new(on_submit);
        let accept = {
            let (life, stop) = (life.clone(), stop.clone());
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(conn) = conn else { continue };
                    life.lock().unwrap().conns.push(conn.try_clone().unwrap());
                    let (life, on_submit) = (life.clone(), on_submit.clone());
                    std::thread::spawn(move || serve_scripted(conn, &life, &on_submit));
                }
            })
        };
        ScriptedShard { addr, life, stop, accept: Some(accept) }
    }

    /// Ends this life: every connection closes, the listener with it.
    fn kill(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = std::net::TcpStream::connect(self.addr);
        self.accept.take().unwrap().join().unwrap();
        for conn in &self.life.lock().unwrap().conns {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// One connection's request loop of a [`ScriptedShard`].
fn serve_scripted(
    mut conn: std::net::TcpStream,
    life: &Mutex<ScriptedLife>,
    on_submit: &[JobEventKind<u32>],
) {
    let mut reader = conn.try_clone().unwrap();
    let mut dec = ugrs::ug::wire::FrameDecoder::new();
    while let Ok(Some(req)) = ugrs::ug::wire::read_msg::<Json, _>(&mut reader, &mut dec) {
        // `"Status"`, or `{"Watch": {...}}`: the variant and its fields.
        let (kind, body) = match req.as_object() {
            Some([(kind, body)]) => (kind.as_str(), body.clone()),
            _ => (req.as_str().unwrap_or(""), Json::Null),
        };
        let field = |name: &str| body.get(name).and_then(Json::as_u64).unwrap_or(0) as usize;
        let mut life = life.lock().unwrap();
        let typed = |reply: ServerReply<u32>| serde_json::to_value(&reply);
        let reply = match kind {
            "Status" => typed(ServerReply::Status {
                status: ugrs::ug::ServerStatus {
                    pool_target: 1,
                    workers: Vec::new(),
                    queued: Vec::new(),
                    jobs: Vec::new(),
                },
            }),
            "Submit" => {
                for event in on_submit {
                    life.append(event.clone());
                }
                typed(ServerReply::Submitted { job: 0 })
            }
            // Like a server's: the log's tail, then the stream stays
            // open unless the log holds the job's end.
            "Watch" => {
                for event in life.events.iter().skip(field("from_seq")) {
                    let reply = typed(ServerReply::Event { event: event.clone() });
                    if ugrs::ug::wire::write_msg(&mut conn, &reply).is_err() {
                        return;
                    }
                }
                if !life.finished() {
                    life.subscribers.push(conn.try_clone().unwrap());
                }
                continue;
            }
            "WatchAll" => {
                life.subscribers.push(conn.try_clone().unwrap());
                Json::Str("Watching".into())
            }
            "Events" => {
                let tail = life.events.iter().skip(field("from_seq"));
                let events = tail.map(serde_json::to_value).collect();
                let body = vec![
                    ("job".to_string(), serde_json::to_value(&0u64)),
                    ("events".to_string(), Json::Array(events)),
                    ("end".to_string(), serde_json::to_value(&life.events.len())),
                ];
                Json::Object(vec![("Events".to_string(), Json::Object(body))])
            }
            _ => typed(ServerReply::Error { message: format!("scripted shard: {kind}") }),
        };
        if ugrs::ug::wire::write_msg(&mut conn, &reply).is_err() {
            return;
        }
    }
}

/// A shard that restarts inside the gateway's liveness window comes
/// back with its job recovered and the job's event log started afresh
/// — here shorter than what the gateway had already read of the old
/// one. The gateway used to resume the old log at its cursor, was sent
/// nothing (the fresh log ended below it) and waited for the job's end
/// forever. The shard is scripted, so the two logs are exactly these.
#[test]
fn a_job_recovered_by_a_shard_restarted_inside_liveness_still_finishes() {
    let _shared = IN_PROCESS_GATEWAYS.read().unwrap_or_else(|e| e.into_inner());
    let first_life = vec![
        JobEventKind::Queued,
        JobEventKind::Started { workers: 1 },
        JobEventKind::Incumbent { obj: 5.0 },
        JobEventKind::Bound { dual_bound: 1.0 },
        JobEventKind::Bound { dual_bound: 2.0 },
    ];
    let mut shard = ScriptedShard::start("127.0.0.1:0", Vec::new(), first_life);
    let gateway = SolveGateway::start(GatewayConfig {
        shards: vec![ShardSpec::new("s0", shard.addr.to_string())],
        health_interval: Duration::from_millis(100),
        shard_liveness: Duration::from_secs(5),
        probe_timeout: Duration::from_millis(500),
        steal_margin: 0,
        ..GatewayConfig::default()
    })
    .expect("gateway start");
    let gw_addr = gateway.client_addr().to_string();
    let g = bipartite(5, 9, 3, CostScheme::Perturbed, 42);
    let gid = SolveClient::connect(&gw_addr)
        .expect("client")
        .submit(stp_job("restart", &g, &ReduceParams::default()))
        .expect("submit");

    let (seen_tx, seen_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = SolveClient::connect(&gw_addr).expect("watcher");
        let done = client.watch(gid, 0, |ev| {
            let _ = seen_tx.send(Some(ev.kind.clone()));
        });
        let _ = seen_tx.send(None);
        done
    });
    // The gateway has read all five events of the first life.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match seen_rx.recv_timeout(left).expect("the first life's events") {
            Some(JobEventKind::Bound { dual_bound: 2.0 }) => break,
            Some(_) => {}
            None => panic!("the watch ended early"),
        }
    }

    let restarted = Instant::now();
    shard.kill();
    let solved = JobEventKind::Finished {
        state: JobState::Solved,
        obj: Some(4.0),
        dual_bound: 4.0,
        solution: None,
        nodes: 3,
        nodes_so_far: 3,
        run_index: 2,
        open_nodes: 0,
        workers_lost: 0,
        wall_time: 0.01,
        final_checkpoint: None,
    };
    let second_life = vec![
        JobEventKind::Queued,
        JobEventKind::Recovered { run_index: 2, nodes_so_far: 1 },
        JobEventKind::Started { workers: 1 },
        solved,
    ];
    let mut shard = ScriptedShard::start(&shard.addr.to_string(), second_life, Vec::new());

    // Far inside the liveness window: no failover, the job's end comes
    // from the restarted shard.
    let end = loop {
        let left = Duration::from_secs(3).saturating_sub(restarted.elapsed());
        match seen_rx.recv_timeout(left) {
            Ok(Some(JobEventKind::Finished { state, run_index, .. })) => break (state, run_index),
            Ok(Some(_)) => {}
            Ok(None) => panic!("the watch ended without the job's end"),
            Err(_) => panic!("the job did not finish within 3 s of its shard's restart"),
        }
    };
    assert_eq!(end, (JobState::Solved, 2));
    let fleet = SolveClient::connect(&gateway.client_addr().to_string())
        .expect("client")
        .fleet()
        .expect("fleet rpc");
    assert_eq!((fleet.inflight, fleet.failed_over_total), (0, 0), "{fleet:?}");
    gateway.shutdown_and_join();
    shard.kill();
}

/// A gateway restart must replay its own write-ahead ledger: jobs
/// acknowledged before the restart re-enter dispatch under their
/// original gateway ids, fresh ids are seeded past every recovered one
/// (no record is overwritten), and every recovered job still runs to
/// its reference optimum once a shard is reachable.
#[test]
fn gateway_restart_recovers_acknowledged_jobs_from_its_ledger() {
    let g = bipartite(5, 9, 3, CostScheme::Perturbed, 42);
    let expected = {
        let r = ugrs::glue::ug_solve_stp(
            &g,
            &ReduceParams::default(),
            ParallelOptions { num_solvers: 2, ..Default::default() },
        );
        assert!(r.solved);
        r.tree.expect("reference tree").1
    };
    let _shared = IN_PROCESS_GATEWAYS.read().unwrap_or_else(|e| e.into_inner());
    let root = scratch_dir("gw-restart");
    let gw_state = root.join("gateway");

    // ---- incarnation 1: the only shard is not up yet -----------------
    // Port 1 answers nothing, so accepted jobs are durable in the
    // gateway's ledger but never reach a shard — exactly the window a
    // crash-mid-steal or crash-before-dispatch leaves behind.
    let config = GatewayConfig {
        shards: vec![ShardSpec::new("s0", "127.0.0.1:1")],
        probe_timeout: Duration::from_millis(200),
        state_dir: Some(gw_state.clone()),
        ..GatewayConfig::default()
    };
    let first = SolveGateway::start(config).expect("gateway incarnation 1");
    assert_eq!(first.recovered_jobs(), (0, 0), "a fresh ledger recovers nothing");
    let addr = first.client_addr().to_string();
    let mut client = SolveClient::connect(&addr).expect("client");
    let gids: Vec<u64> = (0..4)
        .map(|i| {
            let mut spec = stp_job(format!("restart-{i}"), &g, &ReduceParams::default());
            spec.num_solvers = 1;
            client.submit(spec).expect("submit against shardless gateway")
        })
        .collect();
    drop(client);
    // shutdown (not a graceful drain): unfinished records stay owed.
    first.shutdown_and_join();

    // ---- incarnation 2: same state dir, now with a live shard --------
    let shard = spawn_shard(&root.join("shard"), 2, 2, 0);
    let config = GatewayConfig {
        shards: vec![ShardSpec {
            name: "s0".into(),
            addr: shard.addr.clone(),
            state_dir: Some(shard.state_dir.clone()),
        }],
        state_dir: Some(gw_state),
        ..GatewayConfig::default()
    };
    let second = SolveGateway::start(config).expect("gateway incarnation 2");
    assert_eq!(
        second.recovered_jobs(),
        (gids.len(), 0),
        "every unretired record must come back (none had a checkpoint)"
    );
    let addr = second.client_addr().to_string();
    let mut client = SolveClient::connect(&addr).expect("client 2");
    // Fresh ids are seeded past the recovered ones — a new submit must
    // not overwrite a recovered job's ledger record.
    let fresh = {
        let mut spec = stp_job("fresh", &g, &ReduceParams::default());
        spec.num_solvers = 1;
        client.submit(spec).expect("fresh submit")
    };
    let max_recovered = *gids.iter().max().unwrap();
    assert!(
        fresh > max_recovered,
        "fresh gid {fresh} must exceed every recovered gid (max {max_recovered})"
    );
    for gid in gids.iter().copied().chain([fresh]) {
        let done = client.watch(gid, 0, |_| {}).expect("watch to terminal");
        match done.kind {
            JobEventKind::Finished { state, obj, .. } => {
                assert_eq!(state, JobState::Solved, "job {gid} must solve after the restart");
                let external = ugrs::glue::JobInstance::Stp { graph: g.clone() }
                    .external_objective(obj.expect("objective"));
                assert!((external - expected).abs() < 1e-6, "job {gid}: {external} != {expected}");
            }
            other => panic!("unexpected terminal {other:?}"),
        }
    }
    // All terminal: the second incarnation's ledger owes nothing more.
    let fleet = client.fleet().expect("fleet rpc");
    assert_eq!(fleet.inflight, 0, "recovered jobs must retire their ledger records");
    second.shutdown_and_join();
    drop(shard);
    std::fs::remove_dir_all(&root).ok();
}

// =====================================================================
// Gateway high availability (DESIGN §5f)
// =====================================================================

const GATEWAY_BIN: &str = env!("CARGO_BIN_EXE_ugd-gateway");

/// A gateway subprocess of the HA pair. Killed on drop so a failing
/// assertion never leaks the listener or its lease.
struct GatewayProc {
    child: Child,
    addr: String,
    role: String,
}

impl Drop for GatewayProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `ugd-gateway` and parses its two banner lines: the listening
/// address and the HA role it came up in.
fn spawn_gateway(args: &[String]) -> GatewayProc {
    let mut child = Command::new(GATEWAY_BIN)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ugd-gateway");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut stdout = std::io::BufReader::new(stdout);
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read gateway banner");
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unexpected gateway banner: {line:?}"))
        .to_string();
    line.clear();
    stdout.read_line(&mut line).expect("read gateway role line");
    let role = line
        .split_whitespace()
        .nth(2)
        .unwrap_or_else(|| panic!("unexpected role line: {line:?}"))
        .to_string();
    GatewayProc { child, addr, role }
}

/// Submits over the HA pair the way `ugd --gateway a,b` does: a dead
/// address or a standby/draining rejection moves to the next, with
/// backoff between full rounds — riding out a takeover window.
fn submit_any(addrs: &[String], spec: SolveJobSpec) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        for addr in addrs {
            let Ok(mut client) = SolveClient::connect(addr) else { continue };
            match client.try_submit(spec.clone()) {
                Ok(SubmitOutcome::Accepted(gid)) => return gid,
                Ok(SubmitOutcome::Rejected(reason))
                    if reason == "standby" || reason == "draining" =>
                {
                    continue
                }
                Ok(SubmitOutcome::Rejected(reason)) => panic!("unexpected rejection: {reason}"),
                Err(_) => continue, // connection died mid-request: retry
            }
        }
        assert!(Instant::now() < deadline, "no gateway accepted the submission");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// How a watch over the HA pair ends: a terminal event, or — for a job
/// that finished *and retired* on the old primary in the instant before
/// it was killed — persistently "no longer tracked" anywhere, in which
/// case the merged journals are the ground truth the caller checks.
enum WatchEnd {
    Done { state: JobState, obj: Option<f64> },
    Untracked,
}

/// Watches `gid` across the pair, reconnecting through kills and
/// takeovers. "No longer tracked" must persist well past the takeover
/// window before it is believed — a standby answers that for *every*
/// job until it promotes.
fn watch_any(addrs: &[String], gid: u64) -> WatchEnd {
    let deadline = Instant::now() + Duration::from_secs(180);
    let mut untracked_since: Option<Instant> = None;
    let mut last_err = String::new();
    loop {
        for addr in addrs {
            // Bounded reads: a stream that goes silent (a gateway that
            // tracks the job but never finishes it) must surface as a
            // reconnect-and-retry, not wedge this thread past the
            // deadline. Watching from seq 0 makes the retry lossless.
            let Ok(mut client) = SolveClient::connect_timeout(addr, Duration::from_secs(10)) else {
                continue;
            };
            match client.watch(gid, 0, |_| {}) {
                Ok(done) => {
                    if let JobEventKind::Finished { state, obj, .. } = done.kind {
                        return WatchEnd::Done { state, obj };
                    }
                }
                Err(e) if e.to_string().contains("no longer tracked") => {
                    untracked_since.get_or_insert_with(Instant::now);
                    last_err = format!("{addr}: {e}");
                }
                Err(e) => {
                    untracked_since = None;
                    last_err = format!("{addr}: {e}");
                }
            }
        }
        if untracked_since.is_some_and(|t| t.elapsed() > Duration::from_secs(15)) {
            return WatchEnd::Untracked;
        }
        assert!(Instant::now() < deadline, "watch of job {gid} timed out (last error: {last_err})");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The HA acceptance gate: three shards under an active/standby
/// `ugd-gateway` pair sharing one state dir, >= 100 mixed-family jobs
/// under seeded gateway<->shard link chaos, and a SIGKILL of the
/// primary mid-load. The standby must take over within the lease TTL,
/// no acknowledged job may be lost, the merged journals must show
/// exactly one finish (and no duplicated start) per job, every job
/// must reach its reference optimum, and the shards must hold the
/// usurper's fencing epoch against stale-primary RPCs.
#[test]
fn ha_standby_takes_over_a_sigkilled_primary_under_load() {
    // ---- reference optima -------------------------------------------
    let stp_seeds = [42u64, 1337, 7, 99];
    let stp_graphs: Vec<_> =
        stp_seeds.iter().map(|&s| bipartite(5, 9, 3, CostScheme::Perturbed, s)).collect();
    let stp_expected: Vec<f64> = stp_graphs
        .iter()
        .map(|g| {
            let r = ugrs::glue::ug_solve_stp(
                g,
                &ReduceParams::default(),
                ParallelOptions { num_solvers: 2, ..Default::default() },
            );
            assert!(r.solved, "threaded STP reference must solve");
            r.tree.expect("reference tree").1
        })
        .collect();
    let mp = cardinality_ls(5, 2, 12);
    let misdp_ref =
        ugrs::glue::ug_solve_misdp(&mp, ParallelOptions { num_solvers: 2, ..Default::default() });
    assert!(misdp_ref.solved);
    let misdp_expected = misdp_ref.best_obj.expect("threaded MISDP reference must solve");

    // ---- fleet: 3 shards + active/standby gateway pair --------------
    let root = scratch_dir("ha");
    let journal_dir = std::env::var_os("UGRS_FLEET_JOURNAL_DIR")
        .map(|v| PathBuf::from(v).join("ha"))
        .unwrap_or_else(|| root.join("journal"));
    let gw_state = root.join("gateway");
    let shards: Vec<ShardProc> =
        (0..3).map(|i| spawn_shard(&root.join(format!("shard-{i}")), 4, 4, 100)).collect();
    let mut common: Vec<String> = vec![
        "--client-addr".into(),
        "127.0.0.1:0".into(),
        "--health-ms".into(),
        "100".into(),
        "--shard-liveness-ms".into(),
        "600".into(),
        "--probe-timeout-ms".into(),
        "800".into(),
        "--state-dir".into(),
        gw_state.display().to_string(),
        "--journal-dir".into(),
        journal_dir.display().to_string(),
        "--lease-ttl-ms".into(),
        "500".into(),
        "--chaos-seed".into(),
        "11".into(),
        "--chaos-profile".into(),
        "flaky".into(),
    ];
    for (i, s) in shards.iter().enumerate() {
        common.push("--shard".into());
        common.push(format!("shard-{i}={}:{}", s.addr, s.state_dir.display()));
    }
    let mut alpha_args = common.clone();
    alpha_args.extend(["--ha-owner".into(), "alpha".into()]);
    let alpha = spawn_gateway(&alpha_args);
    assert_eq!(alpha.role, "primary", "first claimant of a fresh lease dir leads");
    let mut beta_args = common;
    beta_args.extend(["--ha-owner".into(), "beta".into(), "--standby".into()]);
    let beta = spawn_gateway(&beta_args);
    assert_eq!(beta.role, "standby", "--standby must not contest a fresh lease");
    let addrs = vec![alpha.addr.clone(), beta.addr.clone()];

    // ---- >= 100 mixed jobs through submitters + concurrent watchers -
    let mut work: Vec<(SolveJobSpec, f64)> = Vec::new();
    for i in 0..96usize {
        let k = i % stp_graphs.len();
        let mut spec = stp_job(format!("ha-stp-{i}"), &stp_graphs[k], &ReduceParams::default());
        spec.num_solvers = 1;
        work.push((spec, stp_expected[k]));
    }
    for i in 0..8usize {
        let mut spec = misdp_job(format!("ha-cls-{i}"), &mp);
        spec.num_solvers = 1;
        work.push((spec, misdp_expected));
    }
    assert!(work.len() >= 100);
    let total_load = work.len();

    let work = Arc::new(Mutex::new(work));
    // (gid, instance, expected): pushed by submitters, popped by watchers.
    let accepted_q: Arc<Mutex<Vec<(u64, JobInstance, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let accepted_all: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let accepted_n = Arc::new(AtomicUsize::new(0));
    let submitted_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let completed_n = Arc::new(AtomicUsize::new(0));
    let untracked: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    let submitters: Vec<_> = (0..8)
        .map(|_| {
            let (work, accepted_q, accepted_all, accepted_n, addrs) = (
                work.clone(),
                accepted_q.clone(),
                accepted_all.clone(),
                accepted_n.clone(),
                addrs.clone(),
            );
            std::thread::spawn(move || loop {
                let Some((spec, expected)) = work.lock().unwrap().pop() else { return };
                let instance = spec.instance.clone();
                let gid = submit_any(&addrs, spec);
                accepted_all.lock().unwrap().push(gid);
                accepted_q.lock().unwrap().push((gid, instance, expected));
                accepted_n.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    let watchers: Vec<_> = (0..12)
        .map(|_| {
            let (accepted_q, addrs, completed_n, untracked, submitted_done) = (
                accepted_q.clone(),
                addrs.clone(),
                completed_n.clone(),
                untracked.clone(),
                submitted_done.clone(),
            );
            std::thread::spawn(move || loop {
                let next = accepted_q.lock().unwrap().pop();
                let Some((gid, instance, expected)) = next else {
                    if submitted_done.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                };
                match watch_any(&addrs, gid) {
                    WatchEnd::Done { state, obj } => {
                        assert_eq!(state, JobState::Solved, "job {gid} ended {state:?}");
                        let external =
                            instance.external_objective(obj.expect("solved job has an objective"));
                        assert!(
                            (external - expected).abs() < 1e-6,
                            "job {gid} solved to {external}, reference {expected}"
                        );
                    }
                    // Finished+retired on the killed primary before the
                    // terminal event reached us: the journals are the
                    // ground truth, checked below.
                    WatchEnd::Untracked => untracked.lock().unwrap().push(gid),
                }
                completed_n.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();

    // ---- SIGKILL the primary mid-load -------------------------------
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let done = completed_n.load(Ordering::Relaxed);
        if done >= 15 && done + 10 <= total_load {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "load never reached the kill window ({done}/{total_load} done)"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = Command::new("kill").args(["-9", &alpha.child.id().to_string()]).status();
    let killed_at = Instant::now();

    // Takeover: beta must hold the lease and lead within the TTL (plus
    // its promote sweep; generously bounded here, tightly asserted by
    // the journals' promote timestamp ordering below).
    let mut beta_client = loop {
        if let Ok(c) = SolveClient::connect(&beta.addr) {
            break c;
        }
        assert!(killed_at.elapsed() < Duration::from_secs(10), "standby unreachable");
        std::thread::sleep(Duration::from_millis(50));
    };
    loop {
        let fleet = beta_client.fleet().expect("standby fleet rpc");
        if fleet.ha_role == "primary" {
            assert!(fleet.ha_epoch >= 2, "takeover must bump the fencing epoch: {fleet:?}");
            assert!(fleet.failovers_total >= 1, "failover counter must record it: {fleet:?}");
            break;
        }
        assert!(killed_at.elapsed() < Duration::from_secs(15), "standby never promoted: {fleet:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // ---- every job drains correctly through the new primary ---------
    for t in submitters {
        t.join().expect("submitter thread");
    }
    submitted_done.store(true, Ordering::Relaxed);
    for t in watchers {
        t.join().expect("watcher thread");
    }
    let accepted_all = Arc::try_unwrap(accepted_all).unwrap().into_inner().unwrap();
    assert_eq!(accepted_all.len(), total_load, "every job of the load must be acknowledged");
    let untracked = Arc::try_unwrap(untracked).unwrap().into_inner().unwrap();

    // ---- merged journals: exactly-once finish, no duplicate starts --
    let mut finish_count: std::collections::HashMap<u64, usize> = Default::default();
    let mut finish_state: std::collections::HashMap<u64, String> = Default::default();
    let mut started_count: std::collections::HashMap<String, usize> = Default::default();
    let mut promotes: Vec<(String, u64)> = Vec::new();
    for owner in ["alpha", "beta"] {
        let path = journal_dir.join(format!("gateway-{owner}.jsonl"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("journal {} must exist: {e}", path.display()));
        for line in text.lines() {
            let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else {
                continue;
            };
            match v.get("ev").and_then(|e| e.as_str()) {
                Some("finish") => {
                    let gid = v.get("gid").and_then(|g| g.as_u64()).expect("finish has gid");
                    *finish_count.entry(gid).or_default() += 1;
                    let state = v.get("state").and_then(|s| s.as_str()).unwrap_or("?").to_string();
                    finish_state.insert(gid, state);
                }
                Some("started") => {
                    let gid = v.get("gid").and_then(|g| g.as_u64()).expect("started has gid");
                    let shard = v.get("shard").and_then(|s| s.as_str()).unwrap_or("?");
                    let local = v.get("local").and_then(|l| l.as_u64()).unwrap_or(u64::MAX);
                    *started_count.entry(format!("{gid}/{shard}/{local}")).or_default() += 1;
                }
                Some("promote") => {
                    let epoch = v.get("epoch").and_then(|e| e.as_u64()).unwrap_or(0);
                    promotes.push((owner.to_string(), epoch));
                }
                _ => {}
            }
        }
    }
    for &gid in &accepted_all {
        assert_eq!(
            finish_count.get(&gid),
            Some(&1),
            "job {gid} must have exactly one finish line across the merged journals \
             (got {:?})",
            finish_count.get(&gid)
        );
    }
    for &gid in &untracked {
        assert_eq!(
            finish_state.get(&gid).map(String::as_str),
            Some("solved"),
            "untracked job {gid} must have journaled a solved finish"
        );
    }
    for (key, n) in &started_count {
        assert_eq!(*n, 1, "started line {key} appears {n} times (duplicate start)");
    }
    assert!(
        promotes.contains(&("alpha".to_string(), 1)),
        "alpha must journal its bootstrap promotion: {promotes:?}"
    );
    assert!(
        promotes.iter().any(|(o, e)| o == "beta" && *e >= 2),
        "beta must journal the takeover promotion: {promotes:?}"
    );

    // ---- the shards hold the fence against the dead primary's epoch -
    // Had alpha survived its SIGKILL as a zombie, this is exactly the
    // RPC it would send — and exactly the refusal it would get.
    let mut stale = SolveClient::connect(&shards[0].addr).expect("shard connect");
    let err =
        stale.announce_gateway_epoch(1).expect_err("the usurped epoch must be fenced shard-side");
    let fenced_by = ugrs::ug::server::fenced_epoch(&err).expect("a fencing refusal");
    assert!(fenced_by >= 2, "shard must already hold beta's epoch, got {fenced_by}");

    // ---- final fleet counters on the new primary --------------------
    let fleet = beta_client.fleet().expect("fleet rpc");
    assert_eq!(fleet.inflight, 0, "no job may linger after all terminals: {fleet:?}");
    assert!(
        fleet.lease_renewals_total >= 1,
        "the new primary must be renewing its lease: {fleet:?}"
    );

    drop(beta);
    drop(alpha);
    drop(shards);
    std::fs::remove_dir_all(&root).ok();
}

/// Shard rejoin migration: a shard that died and came back (same
/// address, fresh state) must win back its rendezvous share of the
/// *queued* backlog — running jobs stay where they run. Every job
/// still announces exactly one Started event (only queued jobs move)
/// and solves to the reference optimum.
#[test]
fn revived_shard_wins_back_its_queued_rendezvous_share() {
    let g = bipartite(5, 9, 3, CostScheme::Perturbed, 42);
    let expected = {
        let r = ugrs::glue::ug_solve_stp(
            &g,
            &ReduceParams::default(),
            ParallelOptions { num_solvers: 2, ..Default::default() },
        );
        assert!(r.solved);
        r.tree.expect("reference tree").1
    };
    let _shared = IN_PROCESS_GATEWAYS.read().unwrap_or_else(|e| e.into_inner());
    let root = scratch_dir("rejoin");

    // Shard b is born, its address learned, and killed before the
    // gateway starts: from the gateway's view it is dead from birth.
    let b_state = root.join("b");
    let b0 = spawn_shard(&b_state, 2, 2, 0);
    let b_addr = b0.addr.clone();
    victim_kill(&b0);
    drop(b0);

    // Shard a is slow and single-slot: submissions pile up visibly.
    let a = spawn_shard(&root.join("a"), 1, 1, 500);
    let config = GatewayConfig {
        shards: vec![
            ShardSpec {
                name: "a".into(),
                addr: a.addr.clone(),
                state_dir: Some(a.state_dir.clone()),
            },
            ShardSpec { name: "b".into(), addr: b_addr.clone(), state_dir: Some(b_state.clone()) },
        ],
        health_interval: Duration::from_millis(100),
        shard_liveness: Duration::from_millis(500),
        probe_timeout: Duration::from_millis(400),
        steal_margin: 0, // isolate: only the rejoin path may move jobs
        ..GatewayConfig::default()
    };
    let gateway = SolveGateway::start(config).expect("gateway start");
    let addr = gateway.client_addr().to_string();
    let mut client = SolveClient::connect(&addr).expect("client");

    // All 20 jobs end up on a — b's share once the gateway has
    // declared it dead — and queue behind its one slot.
    let jobs: Vec<u64> = (0..20)
        .map(|i| {
            let mut spec = stp_job(format!("rejoin-{i}"), &g, &ReduceParams::default());
            spec.num_solvers = 1;
            client.submit(spec).expect("submit")
        })
        .collect();

    // Wait until b's start-up grace has run out (until then the jobs
    // rendezvous gives it are parked for retries, not queued on a) and
    // a is actually grinding, then revive b where the config expects
    // it — with a fresh state dir, like a reprovisioned host.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let fleet = client.fleet().expect("fleet rpc");
        let a_backlogged = fleet.shards[0].jobs_running >= 1 && fleet.shards[0].queue_depth >= 8;
        if a_backlogged && !fleet.shards[1].healthy && fleet.dispatch_depth == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "shard a never built a backlog: {fleet:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    std::fs::remove_dir_all(&b_state).ok();
    let b = spawn_shard_at(&b_state, 2, 2, 0, &b_addr);
    assert_eq!(b.addr, b_addr, "revived shard must listen where it used to");

    // The revival must be noticed and queued work migrated back.
    let deadline = Instant::now() + Duration::from_secs(30);
    let rejoined = loop {
        let fleet = client.fleet().expect("fleet rpc");
        if fleet.rejoined_total >= 1 {
            assert!(fleet.shards[1].healthy, "revived shard must be marked healthy: {fleet:?}");
            break fleet.rejoined_total;
        }
        assert!(Instant::now() < deadline, "no job migrated to the revived shard: {fleet:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        rejoined <= jobs.len() as u64,
        "rejoin migration is bounded by the backlog ({rejoined} > {})",
        jobs.len()
    );

    // Every job: exactly one Started (queued-only migration — a moved
    // running job would re-announce), solved at the optimum; at least
    // one finished on the revived shard.
    let mut finished_on_b = 0usize;
    for &job in &jobs {
        let mut started = 0usize;
        let mut last_shard = String::new();
        let done = client
            .watch(job, 0, |ev| match &ev.kind {
                JobEventKind::Routed { shard } => last_shard = shard.clone(),
                JobEventKind::Started { .. } => started += 1,
                _ => {}
            })
            .expect("watch");
        assert_eq!(started, 1, "job {job} must announce exactly one Started event");
        match done.kind {
            JobEventKind::Finished { state, obj, .. } => {
                assert_eq!(state, JobState::Solved, "job {job} must solve");
                let external = ugrs::glue::JobInstance::Stp { graph: g.clone() }
                    .external_objective(obj.expect("objective"));
                assert!((external - expected).abs() < 1e-6, "job {job}: {external} != {expected}");
            }
            other => panic!("unexpected terminal {other:?}"),
        }
        if last_shard == "b" {
            finished_on_b += 1;
        }
    }
    assert!(finished_on_b >= 1, "at least one migrated job must have run on the revived shard");
    gateway.shutdown_and_join();
    drop((a, b));
    std::fs::remove_dir_all(&root).ok();
}

/// SIGTERM graceful drain: the primary stops admitting, finishes what
/// it owes, hands the lease over by releasing it (no TTL wait), and
/// exits 0 — whereupon the standby leads under the next epoch.
#[test]
fn sigterm_drains_the_primary_and_hands_the_lease_to_the_standby() {
    let g = bipartite(5, 9, 3, CostScheme::Perturbed, 42);
    let root = scratch_dir("drain");
    let journal_dir = root.join("journal");
    let gw_state = root.join("gateway");
    // Slow enough that the drain window is comfortably observable.
    let shard = spawn_shard(&root.join("shard"), 2, 2, 400);
    let mut common: Vec<String> = vec![
        "--client-addr".into(),
        "127.0.0.1:0".into(),
        "--shard".into(),
        format!("s0={}:{}", shard.addr, shard.state_dir.display()),
        "--health-ms".into(),
        "100".into(),
        "--state-dir".into(),
        gw_state.display().to_string(),
        "--journal-dir".into(),
        journal_dir.display().to_string(),
        "--lease-ttl-ms".into(),
        "60000".into(), // only the *release* can hand over this lease
        "--drain-timeout-secs".into(),
        "30".into(),
    ];
    let alpha = {
        let mut args = common.clone();
        args.extend(["--ha-owner".into(), "alpha".into()]);
        spawn_gateway(&args)
    };
    assert_eq!(alpha.role, "primary");
    common.extend(["--ha-owner".into(), "beta".into(), "--standby".into()]);
    let beta = spawn_gateway(&common);
    assert_eq!(beta.role, "standby");

    // A few jobs the drain must finish before exiting.
    let mut client = SolveClient::connect(&alpha.addr).expect("client");
    let gids: Vec<u64> = (0..3)
        .map(|i| {
            let mut spec = stp_job(format!("drain-{i}"), &g, &ReduceParams::default());
            spec.num_solvers = 1;
            client.submit(spec).expect("submit")
        })
        .collect();

    let mut alpha = alpha; // need child mutable for wait()
    let _ = Command::new("kill").args(["-15", &alpha.child.id().to_string()]).status();
    let drained_at = Instant::now();
    // The SIGTERM poll loop ticks every 50 ms; probe only after the
    // draining flag is surely up, not in the race window before it.
    std::thread::sleep(Duration::from_millis(250));

    // The drain must refuse new work while it runs (either the
    // draining rejection from alpha, or — once alpha exits — a dead
    // connection; beta meanwhile refuses as standby until it claims).
    // One probe suffices: the 3 × 400 ms handicapped jobs keep alpha
    // draining far longer than the 250 ms settle above, so the connect
    // cannot miss the window.
    let mut saw_refusal = false;
    if let Ok(mut c) = SolveClient::connect(&alpha.addr) {
        let mut spec = stp_job("late", &g, &ReduceParams::default());
        spec.num_solvers = 1;
        match c.try_submit(spec) {
            Ok(SubmitOutcome::Rejected(reason)) => {
                assert_eq!(reason, "draining", "drain refusals must say why");
                saw_refusal = true;
            }
            Ok(SubmitOutcome::Accepted(_)) => panic!("a draining gateway must not admit"),
            Err(_) => {} // alpha already exited: refusal unobserved
        }
    }

    let status = alpha.child.wait().expect("wait on drained gateway");
    assert!(status.success(), "SIGTERM drain must exit 0, got {status:?}");
    assert!(
        drained_at.elapsed() < Duration::from_secs(30),
        "drain must finish well inside its timeout"
    );
    assert!(saw_refusal, "the draining window must be observable");

    // The lease was *released*, not timed out: with a 60 s TTL the
    // standby can only lead this fast because of the handover.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut beta_client = SolveClient::connect(&beta.addr).expect("standby connect");
    loop {
        let fleet = beta_client.fleet().expect("standby fleet rpc");
        if fleet.ha_role == "primary" {
            assert!(fleet.ha_epoch >= 2);
            break;
        }
        assert!(Instant::now() < deadline, "standby never took the released lease: {fleet:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The drained jobs finished before alpha exited; their finish lines
    // are in alpha's journal, exactly once across the pair.
    let mut finishes = 0usize;
    let alpha_journal =
        std::fs::read_to_string(journal_dir.join("gateway-alpha.jsonl")).expect("alpha journal");
    for line in alpha_journal.lines() {
        let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else { continue };
        if v.get("ev").and_then(|e| e.as_str()) == Some("finish") {
            finishes += 1;
        }
    }
    assert_eq!(finishes, gids.len(), "the drain must finish every owed job before exit");
    assert!(
        alpha_journal.contains("\"ev\":\"drain_begin\"")
            && alpha_journal.contains("\"ev\":\"drain_end\""),
        "the drain must journal its own window"
    );

    drop(beta);
    drop(shard);
    std::fs::remove_dir_all(&root).ok();
}
