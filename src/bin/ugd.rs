//! `ugd` — the command-line client of `ugd-server` and `ugd-gateway`.
//!
//! ```text
//! ugd submit <file.stp|file.cbf|file.mc> [--addr 127.0.0.1:7163] [--name <s>]
//!            [--priority <p>] [--solvers <n>] [--time-limit <secs>]
//!            [--node-limit <n>] [--tenant <key>] [--no-watch]
//! ugd watch <job>   [--addr <a>] [--from <seq>]
//! ugd cancel <job>  [--addr <a>]
//! ugd status        [--addr <a>]
//! ugd top           [--addr <a>] [--interval <secs>] [--iterations <n>]
//! ugd metrics       [--addr <a>]
//! ugd fleet         [--addr <a>]
//! ugd shutdown      [--addr <a>]
//! ugd journal <file.jsonl>
//! ```
//!
//! `journal` is **offline** — it reads a file, not a server: a
//! human-readable replay of one run journal with provenance, phases,
//! the racing field and winner, gap-over-time milestones and the
//! reconstructed final statistics. Lines it cannot read — torn by a
//! crash, or an event this version no longer writes — are skipped and
//! counted.
//!
//! `submit` detects the application by extension: `.stp` (SteinLib) is
//! reduced client-side and submitted as a Steiner job, `.cbf` as a
//! MISDP job, `.mc` (max-cut edge list) as a max-cut job solved via its
//! MISDP formulation. `--file <path>` names the instance explicitly
//! (equivalent to the positional operand); either way the FNV-1a 64
//! checksum of the file's bytes rides in the spec, so the job's ledger
//! record and telemetry journal pin exactly which instance ran. By
//! default it then watches the job to completion and
//! prints the objective in the instance's external sense (STP: reduced
//! plus fixed cost; MISDP: maximized `bᵀy`). Watching is resumable: on
//! a dropped connection, re-run `ugd watch <job> --from <seq>`.
//!
//! Every subcommand also works against a `ugd-gateway` — same wire
//! protocol; `--gateway <a[,b]>` is an alias of `--addr` that makes the
//! intent explicit in scripts. Gateway-specific: `--tenant` tags a
//! submission for admission control (over-quota submissions are
//! refused with "rejected: quota", exit 5), and `ugd fleet` shows the
//! per-shard view — queue depth, busy workers, steal/failover/reject
//! counters.

use ugrs_core::telemetry::sample_sum;
use ugrs_core::{JobEvent, JobEventKind, JobState, SubmitOutcome};
use ugrs_glue::{maxcut_job, misdp_job, stp_job, SolveClient, SolveJobSpec};
use ugrs_steiner::reduce::ReduceParams;

const DEFAULT_ADDR: &str = "127.0.0.1:7163";

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("ugd: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: ugd submit [--file] <file.stp|file.cbf|file.mc> [--addr <a>] [--name <s>]\n\
         \x20                [--priority <p>] [--solvers <n>] [--time-limit <secs>]\n\
         \x20                [--node-limit <n>] [--tenant <key>] [--no-watch]\n\
         \x20      ugd watch <job> [--addr <a>] [--from <seq>]\n\
         \x20      ugd cancel <job> [--addr <a>]\n\
         \x20      ugd status [--addr <a>]\n\
         \x20      ugd top [--addr <a>] [--interval <secs>] [--iterations <n>]\n\
         \x20      ugd metrics [--addr <a>]\n\
         \x20      ugd fleet [--addr <a>]\n\
         \x20      ugd shutdown [--addr <a>]\n\
         \x20      ugd journal <file.jsonl>\n\
         (--gateway <a[,b]> is an alias of --addr; a comma list names an HA\n\
         \x20gateway pair tried in order with backoff; fleet/--tenant need a\n\
         \x20gateway; journal is offline — it reads a file, not a server)"
    );
    std::process::exit(2);
}

/// Flags shared by every subcommand, plus the positional operand.
struct Opts {
    /// Fallback list: `--addr`/`--gateway` accept `a,b,...`; commands
    /// try each in order (an HA gateway pair is two addresses).
    addrs: Vec<String>,
    positional: Option<String>,
    file: Option<String>,
    name: Option<String>,
    priority: i32,
    solvers: usize,
    time_limit: f64,
    node_limit: Option<u64>,
    from_seq: usize,
    watch: bool,
    interval: f64,
    iterations: Option<u64>,
    tenant: Option<String>,
}

fn parse_opts(mut it: std::env::Args) -> Result<Opts, String> {
    let mut o = Opts {
        addrs: vec![DEFAULT_ADDR.into()],
        positional: None,
        file: None,
        name: None,
        priority: 0,
        solvers: 2,
        time_limit: f64::INFINITY,
        node_limit: None,
        from_seq: 0,
        watch: true,
        interval: 1.0,
        iterations: None,
        tenant: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => o.addrs = split_addrs(&value("--addr")?)?,
            "--file" => o.file = Some(value("--file")?),
            // The gateway speaks the server protocol, so addressing one
            // is just an address — the alias only documents intent. A
            // comma list names an HA pair: primary tried first, the
            // standby next.
            "--gateway" => o.addrs = split_addrs(&value("--gateway")?)?,
            "--tenant" => o.tenant = Some(value("--tenant")?),
            "--name" => o.name = Some(value("--name")?),
            "--priority" => {
                o.priority = value("--priority")?.parse().map_err(|e| format!("{e}"))?
            }
            "--solvers" => o.solvers = value("--solvers")?.parse().map_err(|e| format!("{e}"))?,
            "--time-limit" => {
                o.time_limit = value("--time-limit")?.parse().map_err(|e| format!("{e}"))?
            }
            "--node-limit" => {
                o.node_limit = Some(value("--node-limit")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--from" => o.from_seq = value("--from")?.parse().map_err(|e| format!("{e}"))?,
            "--interval" => {
                o.interval = value("--interval")?.parse().map_err(|e| format!("{e}"))?
            }
            "--iterations" => {
                o.iterations = Some(value("--iterations")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--no-watch" => o.watch = false,
            other if !other.starts_with('-') && o.positional.is_none() => {
                o.positional = Some(other.to_string())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

fn split_addrs(arg: &str) -> Result<Vec<String>, String> {
    let addrs: Vec<String> =
        arg.split(',').map(str::trim).filter(|a| !a.is_empty()).map(String::from).collect();
    if addrs.is_empty() {
        return Err(format!("no address in {arg:?}"));
    }
    Ok(addrs)
}

/// Connects to the first reachable address of the fallback list.
fn connect(addrs: &[String]) -> SolveClient {
    let mut last: Option<std::io::Error> = None;
    for addr in addrs {
        match SolveClient::connect(addr) {
            Ok(c) => return c,
            Err(e) => last = Some(e),
        }
    }
    fail(format!(
        "cannot reach any of {}: {}",
        addrs.join(", "),
        last.map_or("no addresses".to_string(), |e| e.to_string())
    ))
}

/// How long to wait before retry round `attempt` (exponential from
/// 100ms, capped at 2s).
fn backoff(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis((100u64 << attempt.min(5)).min(2_000))
}

/// Submits over the fallback list: a standby or draining gateway (or a
/// dead address) moves to the next; between full rounds the client
/// backs off, riding out an HA takeover window. Quota/capacity
/// rejections are final — backing off would not change the answer.
fn submit_with_fallback(addrs: &[String], spec: &SolveJobSpec) -> (String, SolveClient, u64) {
    const ROUNDS: u32 = 8;
    for attempt in 0..ROUNDS {
        for addr in addrs {
            let Ok(mut client) = SolveClient::connect(addr) else { continue };
            match client.try_submit(spec.clone()) {
                Ok(SubmitOutcome::Accepted(job)) => return (addr.clone(), client, job),
                Ok(SubmitOutcome::Rejected(reason))
                    if reason == "standby" || reason == "draining" =>
                {
                    // Not the primary (or on its way out): next address.
                    continue;
                }
                Ok(SubmitOutcome::Rejected(reason)) => {
                    // Admission control said no: nothing was queued, so
                    // a distinct exit code lets scripts back off.
                    eprintln!("ugd: rejected: {reason}");
                    std::process::exit(5);
                }
                Err(_) => continue,
            }
        }
        std::thread::sleep(backoff(attempt));
    }
    fail(format!("no gateway in {} accepted the submission", addrs.join(", ")))
}

/// Watches `job` over the fallback list, retrying across addresses
/// until the terminal event lands. After an HA takeover the new
/// primary rebuilds the job's event log from seq 0, so a resumed watch
/// restarts there — `seen` suppresses re-printing what this process
/// already showed (keyed coarsely by event kind tag + seq).
fn watch_with_fallback(
    addrs: &[String],
    job: u64,
    from_seq: usize,
    on_event: &mut dyn FnMut(&JobEvent<Vec<f64>>),
) -> JobEvent<Vec<f64>> {
    const ROUNDS: u32 = 8;
    let mut printed = std::collections::HashSet::new();
    for attempt in 0..ROUNDS {
        for addr in addrs {
            let Ok(mut client) = SolveClient::connect(addr) else { continue };
            let done = client.watch(job, from_seq, |ev| {
                if printed.insert((std::mem::discriminant(&ev.kind), ev.seq)) {
                    on_event(ev);
                }
            });
            match done {
                Ok(ev) => return ev,
                Err(_) => continue,
            }
        }
        std::thread::sleep(backoff(attempt));
    }
    fail(format!("no gateway in {} could finish watching job {job}", addrs.join(", ")))
}

/// Builds the spec from the instance file; returns it with the
/// external-objective mapper for progress printing.
fn load_spec(path: &str, o: &Opts) -> SolveJobSpec {
    let p = std::path::Path::new(path);
    let name = o.name.clone().unwrap_or_else(|| {
        p.file_stem().map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned())
    });
    let ext = p.extension().and_then(|e| e.to_str()).unwrap_or("");
    let mut spec = match ext {
        "stp" => {
            let instance = ugrs_instances::stp::read_stp(p)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            stp_job(name, &instance.to_graph(), &ReduceParams::default())
        }
        "cbf" => {
            let problem = ugrs_instances::cbf::read_cbf(p)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            misdp_job(name, &problem)
        }
        "mc" => {
            let instance = ugrs_instances::maxcut::read_mc(p)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            maxcut_job(name, &instance)
        }
        _ => fail(format!("unknown instance type {path:?} (expected .stp, .cbf or .mc)")),
    };
    // Pin the exact bytes submitted: the checksum lands in the job's
    // WALed ledger record and the head of its telemetry journal.
    spec.checksum = Some(
        ugrs_instances::file_checksum(p)
            .unwrap_or_else(|e| fail(format!("cannot checksum {path}: {e}"))),
    );
    spec.priority = o.priority;
    spec.num_solvers = o.solvers;
    spec.time_limit = o.time_limit;
    spec.node_limit = o.node_limit;
    spec.tenant = o.tenant.clone();
    spec
}

/// Prints one event; `external` maps internal-sense objectives when the
/// client knows the instance (submit path), otherwise identity.
fn print_event(ev: &JobEvent<Vec<f64>>, external: &dyn Fn(f64) -> f64) {
    match &ev.kind {
        JobEventKind::Queued => println!("job {} queued", ev.job),
        JobEventKind::Started { workers } => {
            println!("job {} started on {workers} workers", ev.job)
        }
        JobEventKind::Incumbent { obj } => {
            println!("job {} incumbent {:.6}", ev.job, external(*obj))
        }
        JobEventKind::Bound { dual_bound } => {
            println!("job {} bound {:.6}", ev.job, external(*dual_bound))
        }
        JobEventKind::WorkerLost { rank } => {
            println!("job {} lost worker rank {rank} (requeued)", ev.job)
        }
        JobEventKind::Routed { shard } => {
            println!("job {} routed to shard {shard}", ev.job)
        }
        JobEventKind::Recovered { run_index, nodes_so_far } => {
            println!(
                "job {} recovered from server restart (next run 1.{run_index}, \
                 {nodes_so_far} nodes done in earlier runs)",
                ev.job
            )
        }
        JobEventKind::Finished {
            state, obj, nodes, workers_lost, wall_time, run_index, ..
        } => {
            let obj = obj.map_or("-".to_string(), |o| format!("{:.6}", external(o)));
            let chain = if *run_index > 1 { format!(" run=1.{run_index}") } else { String::new() };
            println!(
                "job {} finished: {state:?} obj={obj} nodes={nodes} \
                 workers_lost={workers_lost} wall={wall_time:.2}s{chain}",
                ev.job
            );
        }
    }
}

fn fmt_bound(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "-".to_string()
    }
}

/// `ugd top`: live per-job dashboard over the `Metrics` request. Redraws
/// every `interval` seconds; `iterations` bounds the loop for
/// non-interactive use (tests, CI smoke).
fn run_top(client: &mut SolveClient, interval: f64, iterations: Option<u64>) {
    let mut prev: Option<(std::time::Instant, f64, f64, f64)> = None;
    let mut iter = 0u64;
    loop {
        let report = client.metrics().unwrap_or_else(|e| fail(e));
        let now = std::time::Instant::now();
        let finished = sample_sum(&report.text, "ugrs_server_jobs_finished_total");
        let tx = sample_sum(&report.text, "ugrs_wire_tx_bytes_total");
        let rx = sample_sum(&report.text, "ugrs_wire_rx_bytes_total");
        let rates = prev.map(|(t0, f0, tx0, rx0)| {
            let dt = now.duration_since(t0).as_secs_f64().max(1e-9);
            ((finished - f0) / dt, (tx - tx0) / dt, (rx - rx0) / dt)
        });
        prev = Some((now, finished, tx, rx));

        // Clear screen + home, like top(1); harmless when piped.
        print!("\x1b[2J\x1b[H");
        println!(
            "ugd top — pool {}/{} workers ({} busy), {} running, {} queued, {} finished",
            sample_sum(&report.text, "ugrs_server_pool_workers"),
            sample_sum(&report.text, "ugrs_server_pool_target"),
            sample_sum(&report.text, "ugrs_server_workers_busy"),
            sample_sum(&report.text, "ugrs_server_jobs_running"),
            sample_sum(&report.text, "ugrs_server_queue_depth"),
            finished,
        );
        match rates {
            Some((jps, txps, rxps)) => println!(
                "jobs/s {jps:.2}   wire tx {:.1} KiB/s rx {:.1} KiB/s",
                txps / 1024.0,
                rxps / 1024.0
            ),
            None => println!("jobs/s -   wire tx - rx -"),
        }
        println!(
            "{:>5} {:<20} {:<9} {:>10} {:>8} {:>8} {:>6} {:>9} {:>10} {:>6}",
            "JOB", "NAME", "STATE", "GAP%", "OPEN", "NODES", "ACT", "IDLE%", "DUAL", "DIED"
        );
        for j in &report.jobs {
            let mut name = j.name.clone();
            name.truncate(20);
            match &j.progress {
                Some(p) => println!(
                    "{:>5} {:<20} {:<9} {:>10} {:>8} {:>8} {:>6} {:>9.1} {:>10} {:>6}",
                    j.job,
                    name,
                    format!("{:?}", j.state),
                    if p.gap_percent.is_finite() {
                        format!("{:.3}", p.gap_percent)
                    } else {
                        "inf".to_string()
                    },
                    p.open_nodes,
                    p.nodes,
                    p.active,
                    p.idle_percent,
                    fmt_bound(p.dual_bound),
                    p.workers_died,
                ),
                None => println!(
                    "{:>5} {:<20} {:<9} {:>10} {:>8} {:>8} {:>6} {:>9} {:>10} {:>6}",
                    j.job,
                    name,
                    format!("{:?}", j.state),
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                ),
            }
        }
        iter += 1;
        if iterations.is_some_and(|n| iter >= n) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval.max(0.05)));
    }
}

/// `ugd journal <file>`: human-readable replay of one run journal.
fn run_journal(path: &str) {
    use ugrs_core::telemetry::{reconstruct_stats, Journal};
    use ugrs_core::TelemetryEvent as Ev;
    let (records, skipped) =
        Journal::replay_counted(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    println!("{path}: {} event(s), {skipped} unreadable line(s) skipped", records.len());
    // Gap milestones: print the first time the gap drops under each
    // threshold (the gap-over-time curve, compressed to its knees).
    let mut milestones = [(f64::INFINITY, "finite"), (10.0, "<10%"), (1.0, "<1%"), (0.0, "0%")]
        .into_iter()
        .peekable();
    for r in &records {
        let t = r.t;
        match &r.event {
            Ev::JobMeta { family, checksum, size } => println!(
                "  [{t:8.3}s] job: family={} checksum={} size={}",
                family.as_deref().unwrap_or("unknown"),
                checksum.as_deref().unwrap_or("-"),
                size.map_or("-".to_string(), |s| s.to_string()),
            ),
            Ev::RunStarted { workers, run_index, restarted } => println!(
                "  [{t:8.3}s] run 1.{run_index} started on {workers} workers{}",
                if *restarted { " (resumed from checkpoint)" } else { "" }
            ),
            Ev::Phase { phase } => println!("  [{t:8.3}s] phase: {phase}"),
            Ev::RacingField { arms } => {
                println!("  [{t:8.3}s] racing field (best first):");
                for a in arms {
                    println!(
                        "             rank {} settings {} dual={} open={} nodes={}",
                        a.rank,
                        a.settings_index,
                        fmt_bound(a.dual_bound),
                        a.open_nodes,
                        a.nodes
                    );
                }
            }
            Ev::RacingWinner { winner_rank, settings_index } => println!(
                "  [{t:8.3}s] racing winner: rank {winner_rank} (settings {settings_index})"
            ),
            Ev::Incumbent { obj } => println!("  [{t:8.3}s] incumbent {obj:.6}"),
            Ev::Progress(p) => {
                while let Some(&(bound, label)) = milestones.peek() {
                    let hit = if bound.is_infinite() {
                        p.gap_percent.is_finite()
                    } else if bound == 0.0 {
                        p.gap_percent <= 0.0
                    } else {
                        p.gap_percent < bound
                    };
                    if !hit {
                        break;
                    }
                    println!(
                        "  [{t:8.3}s] gap {label} ({:.3}%) at {} nodes, {} open",
                        p.gap_percent, p.nodes, p.open_nodes
                    );
                    milestones.next();
                }
            }
            Ev::CheckpointSaved { primitive_nodes } => {
                println!("  [{t:8.3}s] checkpoint saved ({primitive_nodes} primitive nodes)")
            }
            Ev::WorkerDied { rank } => println!("  [{t:8.3}s] worker rank {rank} died"),
            Ev::RunFinished { stats } => println!(
                "  [{t:8.3}s] run finished: {} nodes ({} over the chain), gap {:.3}%, \
                 {} open, wall {:.2}s",
                stats.nodes_total,
                stats.nodes_so_far,
                stats.gap_percent(),
                stats.open_nodes,
                stats.wall_time,
            ),
            Ev::Transferred { .. } | Ev::Collected { .. } => {}
        }
    }
    let stats = reconstruct_stats(&records);
    println!(
        "reconstructed stats: nodes={} open={} incumbents={} transferred={} collected={} \
         max_active={} workers_died={} racing_winner={} primal={} dual={} gap={:.3}%",
        stats.nodes_total,
        stats.open_nodes,
        stats.incumbents_seen,
        stats.transferred,
        stats.collected,
        stats.max_active,
        stats.workers_died,
        stats.racing_winner.map_or("-".to_string(), |w| w.to_string()),
        fmt_bound(stats.primal_bound),
        fmt_bound(stats.dual_bound),
        stats.gap_percent(),
    );
}

fn exit_code(state: JobState) -> i32 {
    match state {
        JobState::Solved | JobState::Infeasible => 0,
        JobState::TimedOut => 3,
        JobState::Cancelled => 4,
        _ => 1,
    }
}

/// Restores the default SIGPIPE disposition so `ugd journal … | head`
/// exits quietly instead of panicking on a broken pipe (Rust's runtime
/// ignores SIGPIPE by default). Same no-dependency libc entry point as
/// ugd-server's SIGTERM handler.
fn restore_sigpipe() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: *const ()) -> *const ();
        }
        const SIGPIPE: i32 = 13;
        unsafe {
            signal(SIGPIPE, std::ptr::null()); // SIG_DFL
        }
    }
}

fn main() {
    restore_sigpipe();
    let mut argv = std::env::args();
    argv.next();
    let Some(cmd) = argv.next() else { usage() };
    let o = parse_opts(argv).unwrap_or_else(|e| {
        eprintln!("ugd: {e}");
        usage()
    });
    match cmd.as_str() {
        "submit" => {
            let Some(path) = o.positional.clone().or_else(|| o.file.clone()) else { usage() };
            let spec = load_spec(&path, &o);
            let instance = spec.instance.clone();
            let external = move |v: f64| instance.external_objective(v);
            let (addr, mut client, job) = submit_with_fallback(&o.addrs, &spec);
            println!("submitted job {job}");
            if o.watch {
                // Start on the gateway that accepted; fall back across
                // the list if it dies mid-watch (HA takeover).
                let done = match client.watch(job, 0, |ev| print_event(ev, &external)) {
                    Ok(ev) => ev,
                    Err(_) if o.addrs.len() > 1 || o.addrs[0] != addr => {
                        watch_with_fallback(&o.addrs, job, 0, &mut |ev| print_event(ev, &external))
                    }
                    Err(e) => fail(e),
                };
                if let JobEventKind::Finished { state, .. } = done.kind {
                    std::process::exit(exit_code(state));
                }
            }
        }
        "watch" => {
            let job = o
                .positional
                .as_deref()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or_else(|| usage());
            let done =
                watch_with_fallback(&o.addrs, job, o.from_seq, &mut |ev| print_event(ev, &|v| v));
            if let JobEventKind::Finished { state, .. } = done.kind {
                std::process::exit(exit_code(state));
            }
        }
        "cancel" => {
            let job = o
                .positional
                .as_deref()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or_else(|| usage());
            let mut client = connect(&o.addrs);
            match client.cancel(job).unwrap_or_else(|e| fail(e)) {
                true => println!("job {job} cancelled"),
                false => {
                    println!("job {job} not cancellable (already finished or unknown)");
                    std::process::exit(1);
                }
            }
        }
        "status" => {
            let mut client = connect(&o.addrs);
            let st = client.status().unwrap_or_else(|e| fail(e));
            println!("pool {}/{} workers:", st.workers.len(), st.pool_target);
            for w in &st.workers {
                let pid = w.pid.map_or("-".to_string(), |p| p.to_string());
                let lease = match (w.job, w.rank) {
                    (Some(j), Some(r)) => format!("job {j} rank {r}"),
                    _ if w.draining => "draining".to_string(),
                    _ => "idle".to_string(),
                };
                println!("  worker {} pid {pid}: {lease}", w.id);
            }
            println!("queued: {:?}", st.queued);
            for j in &st.jobs {
                let open = j.open_nodes.map_or(String::new(), |n| format!(" open {n}"));
                // Jobs resumed after a server crash show their restart
                // chain index, Table 2 style: `run 1.2` is the second
                // run of job 1's chain.
                let run =
                    if j.run_index > 1 { format!(" run 1.{}", j.run_index) } else { String::new() };
                println!(
                    "  job {} {:?}{run} prio {} solvers {}{open} — {}",
                    j.job, j.state, j.priority, j.num_solvers, j.name
                );
            }
        }
        "top" => {
            let mut client = connect(&o.addrs);
            run_top(&mut client, o.interval, o.iterations);
        }
        "metrics" => {
            let mut client = connect(&o.addrs);
            let report = client.metrics().unwrap_or_else(|e| fail(e));
            print!("{}", report.text);
        }
        "fleet" => {
            let mut client = connect(&o.addrs);
            let fleet = client.fleet().unwrap_or_else(|e| fail(e));
            println!(
                "fleet: {} shard(s), {} in flight, {} awaiting dispatch",
                fleet.shards.len(),
                fleet.inflight,
                fleet.dispatch_depth,
            );
            println!(
                "{:<12} {:<21} {:<9} {:>6} {:>6} {:>6} {:>8} {:>10}",
                "SHARD", "ADDR", "HEALTH", "QUEUE", "BUSY", "POOL", "RUNNING", "HEARD(ms)"
            );
            for s in &fleet.shards {
                println!(
                    "{:<12} {:<21} {:<9} {:>6} {:>6} {:>6} {:>8} {:>10}",
                    s.name,
                    s.addr,
                    if s.healthy { "ok" } else { "DEAD" },
                    s.queue_depth,
                    s.workers_busy,
                    s.pool_workers,
                    s.jobs_running,
                    s.last_heard_ms,
                );
            }
            if !fleet.families.is_empty() {
                let families: Vec<String> =
                    fleet.families.iter().map(|(f, n)| format!("{f}={n}")).collect();
                println!("families: {}", families.join(" "));
            }
            println!(
                "stolen {}  failed_over {}  rejected {}",
                fleet.stolen_total, fleet.failed_over_total, fleet.rejected_total
            );
            // A pre-HA gateway leaves the role blank (serde default);
            // only a gateway that knows its role prints the HA row.
            if !fleet.ha_role.is_empty() {
                println!(
                    "ha: {} epoch {}  renewals {}  failovers {}  fenced {}  rejoined {}",
                    fleet.ha_role,
                    fleet.ha_epoch,
                    fleet.lease_renewals_total,
                    fleet.failovers_total,
                    fleet.fenced_rpcs_total,
                    fleet.rejoined_total,
                );
            }
        }
        "shutdown" => {
            let mut client = connect(&o.addrs);
            client.shutdown_server().unwrap_or_else(|e| fail(e));
            println!("server shutting down");
        }
        "journal" => {
            let Some(path) = o.positional.clone().or_else(|| o.file.clone()) else { usage() };
            run_journal(&path);
        }
        _ => usage(),
    }
}
