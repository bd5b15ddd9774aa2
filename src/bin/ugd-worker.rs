//! `ugd-worker` — the worker-process half of `ug [SCIP-*, ProcessComm]`.
//!
//! One mode: the worker joins a coordinator, receives each job's
//! instance — a [`ugrs_glue::JobInstance`] — in the job's `Begin`
//! frame, and serves mixed STP/MISDP jobs until the coordinator is gone
//! for good:
//!
//! ```text
//! ugd-worker --connect 127.0.0.1:40123 [--pool-tag 2] \
//!            [--status-interval 0.05] [--handicap-ms 0]
//! ```
//!
//! The coordinator is either a `ugd-server`, whose standing pool the
//! worker stays in across jobs, or a per-call distributed solve such as
//! [`ugrs_glue::apps::stp::ug_solve_stp_distributed`], a private
//! one-job pool that spawns one worker per rank and kills them when
//! the solve ends. `--pool-tag` is the spawn tag the coordinator put on
//! the command line: a per-call worker tagged *i* becomes rank *i*, and
//! a server marries the connection back to the process it spawned.
//!
//! `--handicap-ms` delays every subproblem solve by the given amount —
//! a test/benchmark knob that makes worker-death scenarios reproducible
//! (a handicapped worker is reliably mid-subproblem when killed).
//! `--heartbeat-ms` / `--handshake-ms` / `--liveness-ms` /
//! `--reconnect-ms` tune the transport to match the coordinator's
//! [`ProcessCommConfig`] instead of assuming defaults.
//!
//! The hidden `--chaos-seed <n>` / `--chaos-profile <name|json>` pair
//! arms deterministic fault injection on the worker's outgoing frames
//! (see [`ugrs_core::chaos`]); it exists for the chaos test suite and
//! for reproducing a failing seed from a CI log.

use std::time::Duration;
use ugrs_core::chaos::{ChaosConfig, ChaosProfile};
use ugrs_core::ProcessCommConfig;

struct Args {
    connect: String,
    pool_tag: Option<u64>,
    status_interval: f64,
    handicap: Duration,
    comm: ProcessCommConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut connect = None;
    let mut pool_tag = None;
    let mut status_interval = 0.05f64;
    let mut handicap = Duration::ZERO;
    let mut comm = ProcessCommConfig::default();
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_profile: Option<ChaosProfile> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--connect" => connect = Some(value("--connect")?),
            "--pool-tag" => {
                pool_tag = Some(value("--pool-tag")?.parse::<u64>().map_err(|e| e.to_string())?)
            }
            "--status-interval" => {
                status_interval =
                    value("--status-interval")?.parse::<f64>().map_err(|e| e.to_string())?
            }
            "--handicap-ms" => {
                handicap = Duration::from_millis(
                    value("--handicap-ms")?.parse::<u64>().map_err(|e| e.to_string())?,
                )
            }
            "--heartbeat-ms" => {
                comm.heartbeat_interval = Duration::from_millis(
                    value("--heartbeat-ms")?.parse::<u64>().map_err(|e| e.to_string())?,
                )
            }
            "--handshake-ms" => {
                comm.handshake_timeout = Duration::from_millis(
                    value("--handshake-ms")?.parse::<u64>().map_err(|e| e.to_string())?,
                )
            }
            "--liveness-ms" => {
                comm.liveness_timeout = Duration::from_millis(
                    value("--liveness-ms")?.parse::<u64>().map_err(|e| e.to_string())?,
                )
            }
            "--reconnect-ms" => {
                comm.reconnect_deadline = Duration::from_millis(
                    value("--reconnect-ms")?.parse::<u64>().map_err(|e| e.to_string())?,
                )
            }
            "--chaos-seed" => {
                chaos_seed = Some(value("--chaos-seed")?.parse::<u64>().map_err(|e| e.to_string())?)
            }
            "--chaos-profile" => {
                chaos_profile = Some(ChaosProfile::parse(&value("--chaos-profile")?)?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let connect = connect.ok_or("--connect is required")?;
    if let Some(seed) = chaos_seed {
        comm.chaos = Some(ChaosConfig::new(seed, chaos_profile.unwrap_or_else(ChaosProfile::none)));
    } else if chaos_profile.is_some() {
        return Err("--chaos-profile needs --chaos-seed".into());
    }
    comm.validate()?;
    Ok(Args { connect, pool_tag, status_interval, handicap, comm })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ugd-worker: {e}");
            eprintln!(
                "usage: ugd-worker --connect <addr> [--pool-tag <t>]\n\
                 \x20       [--status-interval <secs>] [--handicap-ms <ms>]\n\
                 \x20       [--heartbeat-ms <ms>] [--handshake-ms <ms>] [--liveness-ms <ms>] [--reconnect-ms <ms>]\n\
                 \x20       [--chaos-seed <n> [--chaos-profile <name|json>]]"
            );
            std::process::exit(2);
        }
    };
    let status_interval = Duration::from_secs_f64(args.status_interval);
    let served = ugrs_glue::serve_jobs(
        &args.connect,
        args.pool_tag,
        args.handicap,
        status_interval,
        &args.comm,
    );
    if let Err(e) = served {
        eprintln!("ugd-worker: {e}");
        std::process::exit(1);
    }
}
