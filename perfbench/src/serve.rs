//! `serve`: the production stack. `ugd-gateway` → one `ugd-server`
//! shard (`--state-dir` on, so the ledger fsyncs) → two standing
//! `ugd-worker`s, all spawned from the target directory, telemetry
//! journals off. The load is a **closed loop with two client
//! connections**: each submits a job, waits for `Finished`, then
//! submits the next. A pass is one block of jobs — every pool job a
//! fixed number of times, 80 % small and 20 % fat-trivial — in an order
//! drawn from the seed.

use crate::kernels::{median_or_zero, Metrics};
use crate::manifest::{Entry, Instance, Manifest};
use crate::setup::{require_binary, ScratchDir};
use crate::solve::matches_reference;
use crate::stats::percentile;
use crate::trace::{lock, SharedTracer};
use crate::workload::{proc_status_kb, Aggregation, Pass, Sample, Workload};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::io::BufRead as _;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use ugrs_core::{JobEventKind, JobState};
use ugrs_glue::{misdp_job, stp_job, SolveClient, SolveJobSpec};
use ugrs_steiner::reduce::ReduceParams;

/// Client connections of the closed loop (= `nproc` of the host the
/// bounds were measured on; never more threads than this).
pub const CLIENTS: usize = 2;
/// Standing pool workers of the shard.
const POOL_WORKERS: usize = 2;
/// How often each pool job appears in one block.
const REPS_PER_BLOCK: usize = 5;
/// Warm-up jobs at the end of each set-up.
const WARMUP_JOBS: usize = 100;
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// Pids of every process this benchmark started and has not yet reaped;
/// the panic hook and the watchdog kill them.
pub static LIVE_PIDS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

pub fn kill_live_pids() {
    let pids = LIVE_PIDS.lock().map(|p| p.clone()).unwrap_or_default();
    for pid in pids {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
}

fn track(pid: u32) {
    if let Ok(mut p) = LIVE_PIDS.lock() {
        p.push(pid);
    }
}

fn untrack(pid: u32) {
    if let Ok(mut p) = LIVE_PIDS.lock() {
        p.retain(|&q| q != pid);
    }
}

fn pid_alive(pid: u32) -> bool {
    // A zombie still has a /proc entry; its state line says so.
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .is_ok_and(|s| !s.rsplit(')').next().is_some_and(|rest| rest.trim_start().starts_with('Z')))
}

/// A spawned daemon: killed and reaped on drop.
struct Daemon {
    child: Child,
    /// Kept open so the daemon's later prints do not hit a closed pipe.
    _stdout: std::io::BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawns `program args..` and parses the listen address out of its
    /// first line (`<name> listening on <addr> ...`).
    fn spawn(program: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", program.display()))?;
        track(child.id());
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner.split_whitespace().nth(3).map(str::to_string);
        match (read, addr) {
            (Ok(n), Some(addr)) if n > 0 => Ok(Daemon { child, _stdout: stdout, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                untrack(child.id());
                Err(format!("{} printed no listen address: {banner:?}", program.display()))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits up to `grace` for the daemon to exit by itself, then kills.
    fn reap(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                untrack(self.child.id());
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        untrack(self.child.id());
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap(Duration::ZERO);
    }
}

/// Gateway + shard + pool workers, with their state directories.
struct Stack {
    gateway: Option<Daemon>,
    server: Daemon,
    worker_pids: Vec<u32>,
    dir: ScratchDir,
}

impl Stack {
    /// Spawns the shard (with `with_gateway`, a gateway in front of it)
    /// and waits until both pool workers have joined.
    fn spawn(tag: &str, journals: bool, with_gateway: bool) -> Result<Stack, String> {
        let server_bin = require_binary("ugd-server");
        let worker_bin = require_binary("ugd-worker");
        let gateway_bin = require_binary("ugd-gateway");
        let dir = ScratchDir::new(tag).map_err(|e| e.to_string())?;
        let state_dir = dir.0.join("shard");
        let mut args: Vec<String> = [
            "--client-addr",
            "127.0.0.1:0",
            "--worker-addr",
            "127.0.0.1:0",
            "--pool-size",
            &POOL_WORKERS.to_string(),
            "--max-jobs",
            &POOL_WORKERS.to_string(),
            "--worker",
            &worker_bin.display().to_string(),
            "--state-dir",
            &state_dir.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if journals {
            args.extend(["--journal-dir".to_string(), dir.0.join("journal").display().to_string()]);
        }
        let server = Daemon::spawn(&server_bin, &args)?;

        let gateway = if with_gateway {
            let shard = format!("s0={}:{}", server.addr, state_dir.display());
            let args: Vec<String> =
                ["--shard", &shard, "--client-addr", "127.0.0.1:0", "--health-ms", "100"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
            Some(Daemon::spawn(&gateway_bin, &args)?)
        } else {
            None
        };
        let mut stack = Stack { gateway, server, worker_pids: Vec::new(), dir };
        stack.wait_ready()?;
        Ok(stack)
    }

    fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        let mut direct =
            SolveClient::connect(&self.server.addr).map_err(|e| format!("connect shard: {e}"))?;
        loop {
            let status = direct.status().map_err(|e| format!("shard status: {e}"))?;
            if status.workers.len() >= POOL_WORKERS {
                self.worker_pids = status.workers.iter().filter_map(|w| w.pid).collect();
                self.worker_pids.iter().for_each(|&p| track(p));
                break;
            }
            if Instant::now() > deadline {
                return Err("pool workers did not join the shard in time".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let Some(gw) = &self.gateway else { return Ok(()) };
        let mut client = SolveClient::connect(&gw.addr).map_err(|e| format!("connect gw: {e}"))?;
        loop {
            let fleet = client.fleet().map_err(|e| format!("fleet: {e}"))?;
            if fleet.shards.iter().all(|s| s.healthy && s.pool_workers as usize >= POOL_WORKERS) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("gateway did not report its shard ready in time".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Address clients submit to: the gateway when there is one.
    fn front_addr(&self) -> &str {
        self.gateway.as_ref().map_or(&self.server.addr, |g| &g.addr)
    }

    /// Σ VmHWM over gateway + server + workers, kB.
    fn peak_rss_kb(&self) -> u64 {
        let mut pids = vec![self.server.pid()];
        pids.extend(self.gateway.as_ref().map(Daemon::pid));
        pids.extend(&self.worker_pids);
        pids.iter().map(|&p| proc_status_kb(p, "VmHWM")).sum()
    }
}

impl Drop for Stack {
    /// Orderly first (the server reaps its own workers), then by force.
    fn drop(&mut self) {
        if let Ok(mut c) = SolveClient::connect(&self.server.addr) {
            let _ = c.shutdown_server();
        }
        if let Some(gw) = &mut self.gateway {
            if let Ok(mut c) = SolveClient::connect(&gw.addr) {
                let _ = c.shutdown_server();
            }
            gw.reap(Duration::from_secs(3));
        }
        self.server.reap(Duration::from_secs(3));
        let deadline = Instant::now() + Duration::from_secs(2);
        for &pid in &self.worker_pids {
            while pid_alive(pid) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if pid_alive(pid) {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
            untrack(pid);
        }
    }
}

/// One distinct job of the pool.
struct PoolJob {
    entry: Entry,
    spec: SolveJobSpec,
    fat: bool,
}

/// Client-side timing of one job.
#[derive(Clone, Copy, Debug)]
struct JobTiming {
    item: usize,
    start: Instant,
    acked: Instant,
    done: Instant,
    /// The coordinator's own wall time, from the `Finished` event.
    run_s: f64,
    ok: bool,
}

impl JobTiming {
    fn ack_ms(&self) -> f64 {
        (self.acked - self.start).as_secs_f64() * 1e3
    }
    fn solved_ms(&self) -> f64 {
        (self.done - self.start).as_secs_f64() * 1e3
    }
}

fn build_pool(manifest: &Manifest, limit: Option<usize>) -> Result<Vec<PoolJob>, String> {
    let mut pool = Vec::new();
    for e in &manifest.entries {
        let fat = e.family == "cc";
        let mut spec = match e.generate()? {
            Instance::Stp(g) => stp_job(e.id.clone(), &g, &ReduceParams::default()),
            Instance::Misdp(p) => misdp_job(e.id.clone(), &p),
        };
        spec.num_solvers = 1;
        spec.time_limit = crate::solve::ITEM_LIMIT_S;
        pool.push(PoolJob { entry: e.clone(), spec, fat });
    }
    if let Some(k) = limit {
        // Quick mode: keep the mix, drop most of the pool.
        let (fat, small): (Vec<_>, Vec<_>) = pool.into_iter().partition(|j| j.fat);
        pool = small.into_iter().take(k).chain(fat.into_iter().take(1)).collect();
    }
    Ok(pool)
}

/// Submits `pool[order[k]]` for every k over the clients in closed
/// loop; returns the per-job timings and the wall time.
fn run_block(
    clients: &mut [SolveClient],
    pool: &[PoolJob],
    order: &[usize],
    mut every_25_jobs: Option<&mut (dyn FnMut(&mut SolveClient) + Send)>,
) -> (Vec<JobTiming>, f64) {
    let next = AtomicUsize::new(0);
    let timings: Mutex<Vec<JobTiming>> = Mutex::new(Vec::with_capacity(order.len()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (c, client) in clients.iter_mut().enumerate() {
            let (next, timings) = (&next, &timings);
            let mut probe = if c == 0 { every_25_jobs.take() } else { None };
            s.spawn(move || {
                let mut mine = 0usize;
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&item) = order.get(k) else { break };
                    let job = &pool[item];
                    let spec = job.spec.clone();
                    let start = Instant::now();
                    let result = client.submit(spec).and_then(|id| {
                        let acked = Instant::now();
                        client.wait(id).map(|ev| (acked, ev))
                    });
                    let done = Instant::now();
                    let push = |t| timings.lock().expect("timings lock").push(t);
                    match result {
                        Ok((acked, ev)) => {
                            let (ok, run_s) = verdict(job, &ev.kind);
                            push(JobTiming { item, start, acked, done, run_s, ok });
                        }
                        Err(e) => {
                            eprintln!("  FAILED {}: {e}", job.entry.id);
                            push(JobTiming {
                                item,
                                start,
                                acked: done,
                                done,
                                run_s: 0.0,
                                ok: false,
                            });
                            break; // the connection is in an unknown state
                        }
                    }
                    mine += 1;
                    if mine.is_multiple_of(25) {
                        if let Some(p) = probe.as_mut() {
                            p(client);
                        }
                    }
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    (timings.into_inner().expect("timings lock"), wall)
}

/// Solved, and at the manifest's reference optimum?
fn verdict(job: &PoolJob, kind: &JobEventKind<Vec<f64>>) -> (bool, f64) {
    let JobEventKind::Finished { state, obj, wall_time, .. } = kind else { return (false, 0.0) };
    let external = obj.map(|o| job.spec.instance.external_objective(o));
    let ok = *state == JobState::Solved
        && external.is_some_and(|o| matches_reference(o, job.entry.reference));
    if !ok {
        eprintln!(
            "  FAILED {}: state={state:?} obj={external:?} reference={}",
            job.entry.id, job.entry.reference
        );
    }
    (ok, wall_time.max(1e-9))
}

pub struct ServeWorkload {
    stack: Stack,
    pool: Vec<PoolJob>,
    clients: Vec<SolveClient>,
    /// Timings of the traced passes, for the gateway metrics.
    traced_jobs: Vec<JobTiming>,
}

fn connect_clients(addr: &str) -> Result<Vec<SolveClient>, String> {
    (0..CLIENTS)
        .map(|_| SolveClient::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect()
}

impl ServeWorkload {
    /// Builds the job pool (client-side presolve included), spawns
    /// gateway + shard + workers, waits until the fleet reports ready,
    /// and pushes the warm-up jobs through.
    pub fn setup(manifest: &Manifest, limit: Option<usize>) -> Result<ServeWorkload, String> {
        let pool = build_pool(manifest, limit)?;
        let stack = Stack::spawn("serve", false, true)?;
        let mut clients = connect_clients(stack.front_addr())?;
        let warm = if limit.is_some() { 10 } else { WARMUP_JOBS };
        let order: Vec<usize> = (0..warm).map(|k| k % pool.len()).collect();
        let (timings, _) = run_block(&mut clients, &pool, &order, None);
        if timings.iter().any(|t| !t.ok) {
            return Err("a warm-up job failed".into());
        }
        Ok(ServeWorkload { stack, pool, clients, traced_jobs: Vec::new() })
    }

    fn block_order(&self, rng: &mut SmallRng) -> Vec<usize> {
        let mut order: Vec<usize> =
            (0..self.pool.len()).flat_map(|i| std::iter::repeat_n(i, REPS_PER_BLOCK)).collect();
        order.shuffle(rng);
        order
    }
}

fn to_pass(timings: &[JobTiming], wall_s: f64) -> Pass {
    let samples = timings
        .iter()
        .map(|t| Sample { item: t.item, secs: (t.done - t.start).as_secs_f64(), ok: t.ok })
        .collect();
    Pass { wall_s, samples }
}

impl Workload for ServeWorkload {
    fn pass(&mut self, rng: &mut SmallRng, tracer: Option<&SharedTracer>) -> Pass {
        let order = self.block_order(rng);
        let (timings, wall_s) = run_block(&mut self.clients, &self.pool, &order, None);
        if let Some(tracer) = tracer {
            let mut t = lock(tracer);
            for j in &timings {
                let item = j.item as u32;
                let job = t.record("serve.job", j.start, j.done, None, item);
                t.record("gateway.submit_ack", j.start, j.acked, Some(job), item);
                let wait = t.record("serve.wait", j.acked, j.done, Some(job), item);
                let run_start = j.done.checked_sub(Duration::from_secs_f64(j.run_s));
                t.record(
                    "core.run",
                    run_start.unwrap_or(j.acked).max(j.acked),
                    j.done,
                    Some(wait),
                    item,
                );
            }
            self.traced_jobs.extend(&timings);
        }
        to_pass(&timings, wall_s)
    }

    fn aggregation(&self) -> Aggregation {
        Aggregation::Pooled
    }

    fn peak_rss_kb(&self) -> u64 {
        self.stack.peak_rss_kb()
    }

    /// Direct blocks, the journaled shard and the kernels.
    fn layers_reserve_s(&self) -> f64 {
        12.0
    }

    fn layers(
        &mut self,
        rng: &mut SmallRng,
        _tracer: &SharedTracer,
        _traced: &[Pass],
        budget_s: f64,
        out: &mut Metrics,
    ) {
        let via_gateway = std::mem::take(&mut self.traced_jobs);
        let acks: Vec<f64> = via_gateway.iter().map(JobTiming::ack_ms).collect();
        let gw_solved: Vec<f64> = via_gateway.iter().map(JobTiming::solved_ms).collect();
        out.insert("gateway.submit_ack_p50_ms", percentile(&acks, 50.0));
        out.insert("gateway.submit_ack_p99_ms", percentile(&acks, 99.0));

        // server: the same blocks, client → shard directly.
        let Ok(mut direct) = connect_clients(&self.stack.server.addr) else { return };
        let wire_before = wire_counters(&mut direct[0]);
        let mut queue_depth_max = 0usize;
        let mut probe = |c: &mut SolveClient| {
            if let Ok(st) = c.status() {
                queue_depth_max = queue_depth_max.max(st.queued.len());
            }
        };
        let t0 = Instant::now();
        let (mut jobs, mut wall) = (Vec::new(), 0.0);
        while jobs.is_empty() || t0.elapsed().as_secs_f64() < budget_s * 0.25 {
            let order = self.block_order(rng);
            let (t, w) = run_block(&mut direct, &self.pool, &order, Some(&mut probe));
            jobs.extend(t);
            wall += w;
        }
        let wire_after = wire_counters(&mut direct[0]);
        let class_p50 = |fat: bool| {
            let v: Vec<f64> = jobs
                .iter()
                .filter(|j| self.pool[j.item].fat == fat)
                .map(JobTiming::solved_ms)
                .collect();
            median_or_zero(&v)
        };
        let direct_solved: Vec<f64> = jobs.iter().map(JobTiming::solved_ms).collect();
        let direct_acks: Vec<f64> = jobs.iter().map(JobTiming::ack_ms).collect();
        out.insert("server.submit_ack_p50_ms", percentile(&direct_acks, 50.0));
        out.insert("server.solved_p50_ms.small", class_p50(false));
        out.insert("server.solved_p50_ms.fat", class_p50(true));
        out.insert("server.jobs_per_s", jobs.len() as f64 / wall.max(f64::MIN_POSITIVE));
        out.insert("server.queue_depth_max", queue_depth_max as f64);
        out.insert(
            "gateway.added_solved_ms",
            percentile(&gw_solved, 50.0) - percentile(&direct_solved, 50.0),
        );
        let per_job = |k: usize| (wire_after[k] - wire_before[k]) / jobs.len().max(1) as f64;
        out.insert("process.bytes_on_wire", per_job(0));
        out.insert("process.frames_retransmitted", wire_after[1] - wire_before[1]);
        drop(direct);

        self.telemetry_overhead(rng, budget_s * 0.35, out);
        crate::servekernels::run(&self.pool_specs(), &self.stack.dir.0, out);
    }
}

/// `[tx+rx wire bytes, retransmitted frames]` of the server process,
/// from its metrics exposition.
fn wire_counters(client: &mut SolveClient) -> [f64; 2] {
    let text = client.metrics().map(|r| r.text).unwrap_or_default();
    let sum = |name: &str| -> f64 {
        text.lines()
            .filter(|l| l.starts_with(name) && !l.starts_with('#'))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    [
        sum("ugrs_wire_tx_bytes_total") + sum("ugrs_wire_rx_bytes_total"),
        sum("ugrs_comm_frames_retransmitted_total"),
    ]
}

impl ServeWorkload {
    fn pool_specs(&self) -> Vec<(&SolveJobSpec, bool)> {
        self.pool.iter().map(|j| (&j.spec, j.fat)).collect()
    }

    /// `telemetry.journal_overhead_pct`: a second shard with run
    /// journals on, direct blocks interleaved with the journal-free
    /// shard, compared on jobs/s.
    fn telemetry_overhead(&mut self, rng: &mut SmallRng, budget_s: f64, out: &mut Metrics) {
        let Ok(journaled) = Stack::spawn("serve-journal", true, false) else { return };
        let (Ok(mut plain_c), Ok(mut journal_c)) =
            (connect_clients(&self.stack.server.addr), connect_clients(&journaled.server.addr))
        else {
            return;
        };
        let (mut plain, mut journal) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        let mut round = 0;
        while round < 2 || t0.elapsed().as_secs_f64() < budget_s {
            let order = self.block_order(rng);
            // Alternate which side goes first: whichever runs second
            // finds warmer caches.
            for journals_on in [round % 2 == 0, round % 2 != 0] {
                let clients = if journals_on { &mut journal_c } else { &mut plain_c };
                let (t, w) = run_block(clients, &self.pool, &order, None);
                let jps = t.len() as f64 / w.max(f64::MIN_POSITIVE);
                if journals_on { &mut journal } else { &mut plain }.push(jps);
            }
            round += 1;
        }
        let (p, j) = (median_or_zero(&plain), median_or_zero(&journal));
        if j > 0.0 {
            out.insert("telemetry.journal_overhead_pct", (p / j - 1.0) * 100.0);
        }
    }
}
