//! **Serve-mode throughput** — what the standing worker pool buys over
//! per-call process spawning: a batch of small STP jobs pushed through
//! one `ugd-server` (workers spawned once, reused across jobs) versus
//! the same batch as back-to-back `solve_parallel_distributed` calls
//! (fleet spawned and reaped per call). Reports jobs/sec and p50/p95
//! per-job latency for both paths.
//!
//! Requires the worker binary:
//!
//! ```sh
//! cargo build --release --bin ugd-worker
//! cargo run -p ugrs-bench --release --bin table_serve \
//!     [-- --jobs <n>] [--solvers <k>]
//! ```
//!
//! The worker is looked up next to this executable (both live in
//! `target/<profile>/`); override with the `UGD_WORKER` env var.

use std::time::{Duration, Instant};
use ugrs_core::{ParallelOptions, ServerConfig};
use ugrs_glue::{stp_job, SolveClient, SolveServer};
use ugrs_steiner::gen as sgen;
use ugrs_steiner::reduce::ReduceParams;
use ugrs_steiner::Graph;

fn worker_binary() -> Option<String> {
    if let Ok(path) = std::env::var("UGD_WORKER") {
        return Some(path);
    }
    let exe = std::env::current_exe().ok()?;
    let candidate = exe.parent()?.join("ugd-worker");
    candidate.exists().then(|| candidate.to_string_lossy().into_owned())
}

/// Small bipartite instances that stay nontrivial after presolving —
/// a job whose reduced graph is already solved would measure the
/// trivial-solver fast path instead of an actual distributed solve.
fn instances(jobs: usize) -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    let mut seed = 1000u64;
    while out.len() < jobs {
        let g = sgen::bipartite(5, 9, 3, sgen::CostScheme::Perturbed, seed);
        let mut reduced = g.clone();
        ugrs_steiner::reduce::reduce(&mut reduced, &ReduceParams::default());
        if reduced.num_terminals() >= 2 {
            out.push((format!("bip-{seed}"), g));
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

struct Batch {
    wall: f64,
    latencies: Vec<f64>,
}

impl Batch {
    fn report(&self, label: &str) {
        let mut lat = self.latencies.clone();
        lat.sort_by(|a, b| a.total_cmp(b));
        println!(
            "{:>12} {:>9.2} {:>10.1} {:>10.1} {:>10.1}",
            label,
            lat.len() as f64 / self.wall,
            percentile(&lat, 0.5) * 1e3,
            percentile(&lat, 0.95) * 1e3,
            self.wall * 1e3,
        );
    }
}

/// All jobs through one server with a standing pool: submit everything
/// up front, then wait for each — per-job latency is submit → Finished.
/// With `journal_dir` set the full telemetry path is on (run journals +
/// progress snapshots), which is what the overhead row measures.
fn run_served(
    worker: &str,
    graphs: &[(String, Graph)],
    solvers: usize,
    journal_dir: Option<std::path::PathBuf>,
) -> std::io::Result<Batch> {
    let config = ServerConfig {
        worker_command: vec![worker.to_string()],
        pool_size: solvers,
        max_concurrent_jobs: 1,
        journal_dir,
        ..Default::default()
    };
    let server = SolveServer::start(config)?;
    let addr = server.client_addr().to_string();
    let mut client = SolveClient::connect(&addr)?;

    let t0 = Instant::now();
    let mut submitted = Vec::new();
    for (name, g) in graphs {
        let mut spec = stp_job(name.clone(), g, &ReduceParams::default());
        spec.num_solvers = solvers;
        submitted.push((client.submit(spec)?, Instant::now()));
    }
    let mut latencies = Vec::new();
    for (job, since) in submitted {
        let done = client.wait(job)?;
        assert!(
            matches!(
                done.kind,
                ugrs_core::JobEventKind::Finished { state: ugrs_core::JobState::Solved, .. }
            ),
            "served job {job} must be solved: {done:?}"
        );
        latencies.push(since.elapsed().as_secs_f64());
    }
    let wall = t0.elapsed().as_secs_f64();
    server.shutdown_and_join();
    Ok(Batch { wall, latencies })
}

/// The same batch as sequential per-call distributed solves, each
/// paying the full spawn + handshake + reap cost.
fn run_per_call(
    worker: &str,
    graphs: &[(String, Graph)],
    solvers: usize,
) -> std::io::Result<Batch> {
    let t0 = Instant::now();
    let mut latencies = Vec::new();
    for (_, g) in graphs {
        let t = Instant::now();
        let res = ugrs_glue::ug_solve_stp_distributed(
            g,
            &ReduceParams::default(),
            ParallelOptions { num_solvers: solvers, ..Default::default() },
            ugrs_core::DistributedOptions {
                worker_command: vec![worker.to_string()],
                ..Default::default()
            },
        )?;
        assert!(res.solved, "per-call run must solve");
        latencies.push(t.elapsed().as_secs_f64());
    }
    Ok(Batch { wall: t0.elapsed().as_secs_f64(), latencies })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = arg(&args, "--jobs").map(|v| v as usize).unwrap_or(8);
    let solvers = arg(&args, "--solvers").map(|v| v as usize).unwrap_or(2);

    let Some(worker) = worker_binary() else {
        eprintln!(
            "table_serve: ugd-worker not found next to this binary and UGD_WORKER unset;\n\
             build it first: cargo build --release --bin ugd-worker"
        );
        std::process::exit(2);
    };

    let graphs = instances(jobs);
    println!("Serve-mode throughput: {jobs} STP jobs x {solvers} solvers (worker: {worker})\n");
    println!(
        "{:>12} {:>9} {:>10} {:>10} {:>10}",
        "path", "jobs/s", "p50 [ms]", "p95 [ms]", "wall [ms]"
    );

    // Serve the batch once to warm the page cache for both paths.
    let _ = run_served(&worker, &graphs[..1.min(graphs.len())], solvers, None);

    // The served batch is tens of milliseconds; one run's scheduling
    // jitter swamps a few-percent telemetry delta. Interleave the two
    // configurations and keep each one's best run — the standard
    // noise-floor trick for short benchmarks.
    let journal_dir =
        std::env::temp_dir().join(format!("table-serve-journals-{}", std::process::id()));
    let mut plain: Option<Batch> = None;
    let mut telemetered: Option<Batch> = None;
    let best = |best: &mut Option<Batch>, b: Batch| {
        if best.as_ref().is_none_or(|prev| b.wall < prev.wall) {
            *best = Some(b);
        }
    };
    // Alternate which configuration goes first: frequency scaling and
    // cache warmth systematically favor whichever config runs second,
    // which would otherwise masquerade as telemetry overhead.
    for round in 0..6 {
        let mut one = |tel: bool| {
            let dir = tel.then(|| journal_dir.clone());
            if let Ok(b) = run_served(&worker, &graphs, solvers, dir) {
                best(if tel { &mut telemetered } else { &mut plain }, b);
            }
            std::thread::sleep(Duration::from_millis(100));
        };
        one(round % 2 == 0);
        one(round % 2 != 0);
    }
    match &plain {
        Some(b) => b.report("served"),
        None => eprintln!("table_serve: served path failed"),
    }
    match &telemetered {
        Some(b) => b.report("served+tel"),
        None => eprintln!("table_serve: telemetry path failed"),
    }
    match run_per_call(&worker, &graphs, solvers) {
        Ok(b) => b.report("per-call"),
        Err(e) => eprintln!("table_serve: per-call path failed: {e}"),
    }
    if let (Some(p), Some(t)) = (&plain, &telemetered) {
        let plain_jps = p.latencies.len() as f64 / p.wall;
        let tel_jps = t.latencies.len() as f64 / t.wall;
        let overhead = (plain_jps / tel_jps - 1.0) * 100.0;
        println!(
            "\ntelemetry overhead: {overhead:+.1}% on jobs/s \
             (journals + progress snapshots; budget <= 5%)"
        );
    }
    std::fs::remove_dir_all(&journal_dir).ok();
    println!(
        "\nserved = one standing pool, workers reused across jobs; per-call =\n\
         spawn + handshake + reap per job. The gap is the amortized startup cost.\n\
         served+tel = served with --journal-dir run journals and live progress on."
    );
}

fn arg(args: &[String], key: &str) -> Option<f64> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}
