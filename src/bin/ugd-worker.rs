//! `ugd-worker` — the worker-process half of `ug [SCIP-*, ProcessComm]`.
//!
//! Two modes share this binary:
//!
//! **Per-call mode** (the original ParaSCIP shape): a coordinator such as
//! [`ugrs_glue::apps::stp::ug_solve_stp_distributed`] spawns one worker
//! per rank for a single solve. Each connects back over TCP, handshakes
//! for its rank, loads the instance the coordinator wrote — a serialized
//! [`ugrs_glue::JobInstance`], the format the job service ships over the
//! wire — and serves subproblems until `Terminate`:
//!
//! ```text
//! ugd-worker --connect 127.0.0.1:40123 --rank 2 \
//!            --instance-job /tmp/ugrs-stp-1234-abc.json \
//!            [--status-interval 0.05] [--handicap-ms 0]
//! ```
//!
//! **Pool mode** (`--serve`): the worker joins a `ugd-server` pool and
//! stays alive across jobs. It receives each job's instance over the
//! wire with the job's `Begin` frame — no instance file — and serves
//! mixed STP/MISDP jobs until the server hangs up:
//!
//! ```text
//! ugd-worker --serve --connect 127.0.0.1:40123 [--pool-tag 7]
//! ```
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
use ugrs_core::{run_distributed_worker, ProcessCommConfig};
use ugrs_glue::{job_factory, DelaySolver, JobInstance};

struct Args {
    serve: bool,
    connect: String,
    rank: Option<usize>,
    pool_tag: Option<u64>,
    instance_job: Option<std::path::PathBuf>,
    status_interval: f64,
    handicap: Duration,
    comm: ProcessCommConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut serve = false;
    let mut connect = None;
    let mut rank = None;
    let mut pool_tag = None;
    let mut instance_job = None;
    let mut status_interval = 0.05f64;
    let mut handicap = Duration::ZERO;
    let mut comm = ProcessCommConfig::default();
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_profile: Option<ChaosProfile> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--serve" => serve = true,
            "--connect" => connect = Some(value("--connect")?),
            "--rank" => rank = Some(value("--rank")?.parse::<usize>().map_err(|e| e.to_string())?),
            "--pool-tag" => {
                pool_tag = Some(value("--pool-tag")?.parse::<u64>().map_err(|e| e.to_string())?)
            }
            "--instance-job" => {
                instance_job = Some(std::path::PathBuf::from(value("--instance-job")?))
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
    if !serve && instance_job.is_none() {
        return Err("--instance-job is required (unless --serve)".into());
    }
    if let Some(seed) = chaos_seed {
        comm.chaos = Some(ChaosConfig::new(seed, chaos_profile.unwrap_or_else(ChaosProfile::none)));
    } else if chaos_profile.is_some() {
        return Err("--chaos-profile needs --chaos-seed".into());
    }
    comm.validate()?;
    Ok(Args { serve, connect, rank, pool_tag, instance_job, status_interval, handicap, comm })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ugd-worker: {e}");
            eprintln!(
                "usage: ugd-worker --connect <addr> --instance-job <path> [--rank <n>]\n\
                 \x20      ugd-worker --serve --connect <addr> [--pool-tag <t>]\n\
                 common: [--status-interval <secs>] [--handicap-ms <ms>]\n\
                 \x20       [--heartbeat-ms <ms>] [--handshake-ms <ms>] [--liveness-ms <ms>] [--reconnect-ms <ms>]\n\
                 \x20       [--chaos-seed <n> [--chaos-profile <name|json>]]"
            );
            std::process::exit(2);
        }
    };
    let status_interval = Duration::from_secs_f64(args.status_interval);
    if args.serve {
        if let Err(e) = ugrs_glue::serve_jobs(
            &args.connect,
            args.pool_tag,
            args.handicap,
            status_interval,
            &args.comm,
        ) {
            eprintln!("ugd-worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let delay = args.handicap;
    let path = args.instance_job.expect("checked in parse_args");
    let inner_factory = match std::fs::read(&path)
        .map_err(|e| e.to_string())
        .and_then(|raw| serde_json::from_slice::<JobInstance>(&raw).map_err(|e| format!("{e:?}")))
        .map(|inst| job_factory(&inst))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ugd-worker: cannot load job instance {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    let factory: ugrs_core::worker::SolverFactory<DelaySolver<_>> =
        std::sync::Arc::new(move |rank, settings| DelaySolver {
            inner: inner_factory(rank, settings),
            delay,
        });
    let result =
        run_distributed_worker(&args.connect, args.rank, factory, status_interval, &args.comm);
    if let Err(e) = result {
        eprintln!("ugd-worker: {e}");
        std::process::exit(1);
    }
}
