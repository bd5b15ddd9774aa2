//! **Fleet sustained-load harness** — hundreds of concurrent submitters
//! against a `ugd-gateway` over three `ugd-server` shards, with one
//! shard SIGKILLed mid-run. Reports submit-to-ack and submit-to-solved
//! latency distributions and *asserts* the ack SLO: admission control
//! plus the gateway's write-ahead ledger must stay off the hot path
//! even while a third of the fleet is dying.
//!
//! ```sh
//! cargo build --release --bin ugd-server --bin ugd-worker
//! cargo run -p ugrs-bench --release --bin table_fleet \
//!     [-- --jobs 240] [--submitters 200] [--slo-ms 250] [--no-kill]
//! ```
//!
//! The `ugd-server` and `ugd-worker` binaries are looked up next to
//! this executable (all live in `target/<profile>/`); override with the
//! `UGD_SERVER` / `UGD_WORKER` env vars.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ugrs_core::gateway::{GatewayConfig, ShardSpec};
use ugrs_core::{JobEventKind, JobState, SubmitOutcome};
use ugrs_glue::{stp_job, SolveClient, SolveGateway};
use ugrs_steiner::gen as sgen;
use ugrs_steiner::reduce::ReduceParams;
use ugrs_steiner::Graph;

fn find_binary(env: &str, name: &str) -> Option<String> {
    if let Ok(path) = std::env::var(env) {
        return Some(path);
    }
    let exe = std::env::current_exe().ok()?;
    let candidate = exe.parent()?.join(name);
    candidate.exists().then(|| candidate.to_string_lossy().into_owned())
}

struct Shard {
    child: Child,
    addr: String,
    state_dir: PathBuf,
}

impl Drop for Shard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_shard(server: &str, worker: &str, state_dir: &Path) -> std::io::Result<Shard> {
    std::fs::create_dir_all(state_dir)?;
    let mut child = Command::new(server)
        .args([
            "--client-addr",
            "127.0.0.1:0",
            "--worker-addr",
            "127.0.0.1:0",
            "--pool-size",
            "4",
            "--max-jobs",
            "4",
            "--worker",
            worker,
            "--handicap-ms",
            "100",
            "--status-interval",
            "0.05",
            "--checkpoint-interval",
            "0.05",
            "--state-dir",
            &state_dir.display().to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unexpected shard banner: {line:?}"))
        .to_string();
    Ok(Shard { child, addr, state_dir: state_dir.to_path_buf() })
}

fn instances(jobs: usize) -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    let mut seed = 4000u64;
    while out.len() < jobs {
        let g = sgen::bipartite(5, 9, 3, sgen::CostScheme::Perturbed, seed);
        let mut reduced = g.clone();
        ugrs_steiner::reduce::reduce(&mut reduced, &ReduceParams::default());
        if reduced.num_terminals() >= 2 {
            out.push((format!("fleet-{seed}"), g));
        }
        seed += 1;
    }
    out
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn arg(args: &[String], flag: &str) -> Option<f64> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = arg(&args, "--jobs").map(|v| v as usize).unwrap_or(240);
    let submitters = arg(&args, "--submitters").map(|v| v as usize).unwrap_or(200);
    let slo_ms = arg(&args, "--slo-ms").unwrap_or(250.0);
    let kill = !args.iter().any(|a| a == "--no-kill");

    let (Some(server), Some(worker)) =
        (find_binary("UGD_SERVER", "ugd-server"), find_binary("UGD_WORKER", "ugd-worker"))
    else {
        eprintln!(
            "table_fleet: ugd-server/ugd-worker not found next to this binary;\n\
             build them first: cargo build --release --bin ugd-server --bin ugd-worker"
        );
        std::process::exit(2);
    };

    let root = std::env::temp_dir().join(format!("table-fleet-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let shards: Vec<Shard> = (0..3)
        .map(|i| {
            spawn_shard(&server, &worker, &root.join(format!("shard-{i}"))).expect("spawn shard")
        })
        .collect();
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
        max_inflight: jobs.max(1024),
        state_dir: Some(root.join("gateway")),
        journal_dir: Some(root.join("journal")),
        ..GatewayConfig::default()
    };
    let gateway = SolveGateway::start(config).expect("gateway start");
    let addr = gateway.client_addr().to_string();
    println!(
        "Fleet sustained load: {jobs} STP jobs, {submitters} concurrent submitters, \
         3 shards{}",
        if kill { ", one SIGKILLed mid-run" } else { "" }
    );

    // Every submitter thread drains the shared worklist: `submitters`
    // concurrent client connections pushing as fast as their acks come
    // back — the arrival pattern admission control exists to survive.
    let work = Arc::new(Mutex::new(instances(jobs)));
    let acks: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let accepted: Arc<Mutex<Vec<(u64, Instant)>>> = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..submitters)
        .map(|_| {
            let (work, acks, accepted, addr) =
                (work.clone(), acks.clone(), accepted.clone(), addr.clone());
            std::thread::spawn(move || {
                let mut client = SolveClient::connect(&addr).expect("submitter connect");
                loop {
                    let Some((name, g)) = work.lock().unwrap().pop() else { return };
                    let mut spec = stp_job(name, &g, &ReduceParams::default());
                    spec.num_solvers = 1;
                    let t = Instant::now();
                    match client.try_submit(spec).expect("submit rpc") {
                        SubmitOutcome::Accepted(gid) => {
                            acks.lock().unwrap().push(t.elapsed().as_secs_f64());
                            accepted.lock().unwrap().push((gid, t));
                        }
                        SubmitOutcome::Rejected(reason) => {
                            panic!("submission rejected without a quota: {reason}")
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter thread");
    }
    let submit_wall = t0.elapsed().as_secs_f64();

    if kill {
        // Let the fleet get properly busy, then lose a shard.
        std::thread::sleep(Duration::from_millis(500));
        let _ = Command::new("kill").args(["-9", &shards[0].child.id().to_string()]).status();
        println!("killed shard-0 (pid {}) mid-run", shards[0].child.id());
    }

    // Wait for every accepted job; end-to-end latency is submit → Solved.
    let accepted = Arc::try_unwrap(accepted).unwrap().into_inner().unwrap();
    let total = accepted.len();
    let queue = Arc::new(Mutex::new(accepted));
    let solved: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let recovered = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let watchers: Vec<_> = (0..16)
        .map(|_| {
            let (queue, solved, recovered, addr) =
                (queue.clone(), solved.clone(), recovered.clone(), addr.clone());
            std::thread::spawn(move || {
                let mut client = SolveClient::connect(&addr).expect("watcher connect");
                loop {
                    let Some((gid, since)) = queue.lock().unwrap().pop() else { return };
                    let mut resumed = false;
                    let done = client
                        .watch(gid, 0, |ev| {
                            if matches!(ev.kind, JobEventKind::Recovered { .. }) {
                                resumed = true;
                            }
                        })
                        .expect("watch");
                    if resumed {
                        recovered.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    match done.kind {
                        JobEventKind::Finished { state: JobState::Solved, .. } => {
                            solved.lock().unwrap().push(since.elapsed().as_secs_f64())
                        }
                        other => panic!("job {gid} did not solve: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in watchers {
        h.join().expect("watcher thread");
    }
    let wall = t0.elapsed().as_secs_f64();

    let mut acks = Arc::try_unwrap(acks).unwrap().into_inner().unwrap();
    acks.sort_by(|a, b| a.total_cmp(b));
    let mut e2e = Arc::try_unwrap(solved).unwrap().into_inner().unwrap();
    e2e.sort_by(|a, b| a.total_cmp(b));
    assert_eq!(e2e.len(), total, "every accepted job must solve");

    println!();
    println!(
        "{:>16} {:>8} {:>10} {:>10} {:>10}",
        "metric", "n", "p50 [ms]", "p95 [ms]", "p99 [ms]"
    );
    println!(
        "{:>16} {:>8} {:>10.2} {:>10.2} {:>10.2}",
        "submit-to-ack",
        acks.len(),
        percentile(&acks, 0.5) * 1e3,
        percentile(&acks, 0.95) * 1e3,
        percentile(&acks, 0.99) * 1e3,
    );
    println!(
        "{:>16} {:>8} {:>10.0} {:>10.0} {:>10.0}",
        "submit-to-solved",
        e2e.len(),
        percentile(&e2e, 0.5) * 1e3,
        percentile(&e2e, 0.95) * 1e3,
        percentile(&e2e, 0.99) * 1e3,
    );
    println!();
    println!(
        "{} jobs solved in {wall:.1}s ({:.1} jobs/s; submissions took {submit_wall:.2}s); \
         {} resumed from the killed shard's checkpoints",
        total,
        total as f64 / wall,
        recovered.load(std::sync::atomic::Ordering::Relaxed),
    );

    let p99_ms = percentile(&acks, 0.99) * 1e3;
    assert!(p99_ms < slo_ms, "p99 submit-to-ack {p99_ms:.2} ms breaches the {slo_ms} ms SLO");
    println!("SLO: p99 submit-to-ack {p99_ms:.2} ms < {slo_ms} ms — ok");

    gateway.shutdown_and_join();
    drop(shards);
    std::fs::remove_dir_all(&root).ok();
}
