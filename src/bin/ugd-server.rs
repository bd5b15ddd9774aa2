//! `ugd-server` — a persistent solve-job service over a shared worker
//! pool.
//!
//! Where `ug [*, ProcessComm]` spawns workers per call, this daemon
//! keeps a standing pool of `ugd-worker --serve` processes and runs a
//! queue of mixed STP/MISDP jobs over them, each job under its own
//! `LoadCoordinator`, with priorities, per-job limits, cancellation and
//! streaming progress for `ugd` clients:
//!
//! ```text
//! ugd-server [--client-addr 127.0.0.1:7163] [--worker-addr 127.0.0.1:0]
//!            [--pool-size 4] [--max-jobs 2] [--worker <path>]
//!            [--status-interval 0.05] [--handicap-ms 0]
//!            [--journal-dir <dir>] [--state-dir <dir>] [--compress-state]
//!            [--checkpoint-interval 1.0]
//!            [--adaptive [--tuner-refresh 32]]
//! ```
//!
//! `--compress-state` writes ledger records and checkpoints through
//! the LZ container; reads always auto-detect, so the flag can be
//! flipped between restarts over the same `--state-dir`.
//!
//! With `--adaptive` (needs `--state-dir`), multi-solver jobs race
//! their root under the `ugrs_core::tuner` policy: the roster comes
//! from the mined model under `<state-dir>/tuner/` once `ugd tune` has
//! built one (the legacy fixed roster until then), every decision is
//! journaled, and the model is reloaded after every `--tuner-refresh`
//! finished jobs.
//!
//! With `--journal-dir`, every job writes a JSONL run journal
//! (`job-<id>-<name>.jsonl`) of timestamped telemetry events there —
//! replayable for gap-over-time plots and post-mortems.
//!
//! With `--state-dir`, the server is **crash-safe**: every accepted job
//! is write-ahead-logged to `<dir>/jobs/` before the submission is
//! acknowledged, running jobs checkpoint their coordinator state to
//! `<dir>/checkpoints/` every `--checkpoint-interval` seconds (default
//! 1.0), and on startup a recovery pass requeues every unfinished job —
//! resuming interrupted ones from their latest checkpoint as run `1.k`
//! of a restart chain. See README "Operations" for the full runbook.
//!
//! `--worker` defaults to the `ugd-worker` binary next to this
//! executable. The process runs until a client sends `shutdown` — or
//! until **SIGTERM**, which drains instead of killing: submits are
//! answered `Rejected { reason: "draining" }`, running jobs are stopped
//! through the cancel path (their coordinators write final checkpoints),
//! the ledger records of unfinished jobs are *kept*, and the process
//! exits 0 — so the next `ugd-server --state-dir <same>` resumes every
//! interrupted job as run `1.k`. This is what lets an operator (or an
//! orchestrator's rolling restart) recycle a shard without losing work.

use std::io::Write as _;
use ugrs_core::chaos::{ChaosConfig, ChaosProfile};
use ugrs_core::rpc::wait_for_shutdown_or_sigterm;
use ugrs_core::ServerConfig;
use ugrs_glue::SolveServer;

struct Args {
    config: ServerConfig,
    handicap_ms: u64,
    worker: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut config = ServerConfig { client_addr: "127.0.0.1:7163".into(), ..Default::default() };
    let mut handicap_ms = 0u64;
    let mut worker = None;
    let mut chaos_seed = None;
    let mut chaos_profile = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--client-addr" => config.client_addr = value("--client-addr")?,
            "--worker-addr" => config.worker_addr = value("--worker-addr")?,
            "--pool-size" => {
                config.pool_size = value("--pool-size")?.parse().map_err(|e| format!("{e}"))?
            }
            "--max-jobs" => {
                config.max_concurrent_jobs =
                    value("--max-jobs")?.parse().map_err(|e| format!("{e}"))?
            }
            "--status-interval" => {
                config.status_interval =
                    value("--status-interval")?.parse().map_err(|e| format!("{e}"))?
            }
            "--handicap-ms" => {
                handicap_ms = value("--handicap-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--journal-dir" => {
                config.journal_dir = Some(value("--journal-dir")?.into());
            }
            "--state-dir" => {
                config.state_dir = Some(value("--state-dir")?.into());
            }
            "--compress-state" => config.compress_state = true,
            "--checkpoint-interval" => {
                config.checkpoint_interval =
                    value("--checkpoint-interval")?.parse().map_err(|e| format!("{e}"))?
            }
            "--adaptive" => {
                config.adaptive_tuning = true;
                config.racing_settings = Some(ugrs_glue::family_racing_settings);
            }
            "--tuner-refresh" => {
                config.tuner_refresh_jobs =
                    value("--tuner-refresh")?.parse().map_err(|e| format!("{e}"))?
            }
            "--worker" => worker = Some(value("--worker")?),
            "--heartbeat-ms" => {
                config.comm.heartbeat_interval = std::time::Duration::from_millis(
                    value("--heartbeat-ms")?.parse().map_err(|e| format!("{e}"))?,
                )
            }
            "--liveness-ms" => {
                config.comm.liveness_timeout = std::time::Duration::from_millis(
                    value("--liveness-ms")?.parse().map_err(|e| format!("{e}"))?,
                )
            }
            "--reconnect-ms" => {
                config.comm.reconnect_deadline = std::time::Duration::from_millis(
                    value("--reconnect-ms")?.parse().map_err(|e| format!("{e}"))?,
                )
            }
            "--chaos-seed" => {
                chaos_seed =
                    Some(value("--chaos-seed")?.parse::<u64>().map_err(|e| format!("{e}"))?)
            }
            "--chaos-profile" => {
                // Parse here so a typo fails at startup, not in a
                // worker spawned minutes later.
                chaos_profile = Some(ChaosProfile::parse(&value("--chaos-profile")?)?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if chaos_profile.is_some() && chaos_seed.is_none() {
        return Err("--chaos-profile needs --chaos-seed".into());
    }
    if config.adaptive_tuning && config.state_dir.is_none() {
        return Err(
            "--adaptive needs --state-dir (the tuner model lives under <state-dir>/tuner)".into()
        );
    }
    if let Some(seed) = chaos_seed {
        // The scheduler hands each pool worker a per-worker variant of
        // this plan (seed + worker id): still fully deterministic, but
        // de-correlated — a shared seed would synchronize every
        // worker's schedule and tear all of a job's leases at once.
        config.comm.chaos =
            Some(ChaosConfig::new(seed, chaos_profile.unwrap_or_else(ChaosProfile::none)));
    }
    config.comm.validate()?;
    Ok(Args { config, handicap_ms, worker })
}

/// The `ugd-worker` binary: explicit flag, or the sibling of this
/// executable (the cargo layout puts both in the same target dir).
fn worker_binary(explicit: Option<String>) -> Result<String, String> {
    if let Some(w) = explicit {
        return Ok(w);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
    let sibling = exe.with_file_name("ugd-worker");
    if sibling.exists() {
        Ok(sibling.display().to_string())
    } else {
        Err(format!("no ugd-worker next to {} — pass --worker <path>", exe.display()))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ugd-server: {e}");
            eprintln!(
                "usage: ugd-server [--client-addr <a>] [--worker-addr <a>] [--pool-size <n>]\n\
                 \x20       [--max-jobs <n>] [--worker <path>] [--status-interval <secs>]\n\
                 \x20       [--handicap-ms <ms>] [--journal-dir <dir>]\n\
                 \x20       [--state-dir <dir>] [--compress-state] [--checkpoint-interval <secs>]\n\
                 \x20       [--heartbeat-ms <ms>] [--liveness-ms <ms>] [--reconnect-ms <ms>]\n\
                 \x20       [--chaos-seed <n> [--chaos-profile <name|json>]]\n\
                 \x20       [--adaptive [--tuner-refresh <jobs>]]\n\
                 \n\
                 --state-dir <dir>            durable job ledger + checkpoints; on restart,\n\
                 \x20                            unfinished jobs are requeued/resumed from here\n\
                 --compress-state             LZ-compress ledger records and checkpoints\n\
                 --checkpoint-interval <secs> how often running jobs checkpoint (default 1.0)\n\
                 --adaptive                   race jobs under the mined tuner model in\n\
                 \x20                            <state-dir>/tuner (needs --state-dir)\n\
                 --tuner-refresh <jobs>       reload the model every N finished jobs (default 32)"
            );
            std::process::exit(2);
        }
    };
    let mut config = args.config;
    match worker_binary(args.worker) {
        Ok(w) => {
            config.worker_command = vec![w];
            if args.handicap_ms > 0 {
                config
                    .worker_command
                    .extend(["--handicap-ms".into(), args.handicap_ms.to_string()]);
            }
        }
        Err(e) => {
            eprintln!("ugd-server: {e}");
            std::process::exit(2);
        }
    }
    let state_dir = config.state_dir.clone();
    let server = match SolveServer::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ugd-server: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "ugd-server listening on {} (workers: {})",
        server.client_addr(),
        server.worker_addr()
    );
    let (total, resumed) = server.recovered_jobs();
    if let (Some(dir), true) = (state_dir, total > 0) {
        println!(
            "recovered {total} job(s) from {} ({resumed} resumed from checkpoint)",
            dir.display()
        );
    }
    if wait_for_shutdown_or_sigterm(
        || server.shutdown_requested(),
        "ugd-server: SIGTERM — draining (checkpointing running jobs, keeping ledger)",
    ) {
        server.drain_and_join();
        let _ = writeln!(std::io::stdout(), "ugd-server: drained");
    } else {
        server.join();
    }
}
