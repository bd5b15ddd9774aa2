//! `ugd-gateway` — the fleet tier: one client endpoint over N
//! `ugd-server` shards.
//!
//! ```text
//! ugd-gateway --shard a=127.0.0.1:7163[:state/a] --shard b=127.0.0.1:7164
//!             [--client-addr 127.0.0.1:7160] [--health-ms 250]
//!             [--shard-liveness-ms 2000] [--steal-margin 2]
//!             [--max-inflight 1024] [--tenant-rate 0] [--tenant-burst 0]
//!             [--tenant-quota <name>=<rate>:<burst>]...
//!             [--state-dir <dir>] [--compress-state] [--journal-dir <dir>]
//!             [--tuner-refresh <jobs>]
//! ```
//!
//! `--compress-state` writes the gateway's own ledger through the LZ
//! container; recovery auto-detects either format.
//!
//! With `--tuner-refresh N` (needs `--state-dir`), the gateway loads
//! the `ugrs_core::tuner` model from `<state-dir>/tuner/` at startup,
//! journals its version, reloads it after every N finished jobs and
//! exports the `ugrs_tuner_*_total` counters — fleet-tier visibility
//! into the adaptive-racing loop (the racing decisions themselves
//! happen on the shards).
//!
//! The gateway speaks the same protocol as a single `ugd-server`, so
//! every `ugd` subcommand works against it unchanged — plus `ugd fleet`
//! for the per-shard view. It routes jobs by weighted rendezvous
//! hashing, steals queued work from deep shards for idle ones, applies
//! per-tenant token-bucket admission control, and on a shard death
//! replays that shard's checkpoints onto surviving peers so in-flight
//! jobs resume as run `1.k` of their restart chain. See README "Fleet
//! operations" and DESIGN §5f.
//!
//! A shard's optional `:state_dir` suffix tells the gateway where that
//! shard checkpoints (same host or shared filesystem); without it, a
//! dead shard's running jobs restart from scratch instead of resuming.

use std::time::Duration;
use ugrs_core::chaos::{ChaosProfile, FaultPlan};
use ugrs_core::gateway::{GatewayConfig, ShardSpec, TenantQuota};
use ugrs_core::rpc::wait_for_shutdown_or_sigterm;
use ugrs_glue::SolveGateway;

fn parse_shard(arg: &str) -> Result<ShardSpec, String> {
    // name=host:port[:state_dir] or name=[v6]:port[:state_dir]. The
    // address is parsed from the left — a bracketed IPv6 host keeps its
    // internal colons, and everything after the port's ':' is the state
    // dir verbatim (it may itself contain ':').
    let (name, rest) = arg
        .split_once('=')
        .ok_or_else(|| format!("--shard wants name=addr[:state_dir], got {arg:?}"))?;
    if name.is_empty() {
        return Err(format!("--shard name is empty in {arg:?}"));
    }
    let (host, after_host) = if let Some(v6) = rest.strip_prefix('[') {
        let (inner, tail) = v6
            .split_once(']')
            .ok_or_else(|| format!("unclosed '[' in --shard address {rest:?}"))?;
        (format!("[{inner}]"), tail)
    } else {
        let colon = rest
            .find(':')
            .ok_or_else(|| format!("--shard address needs host:port, got {rest:?}"))?;
        (rest[..colon].to_string(), &rest[colon..])
    };
    if host.is_empty() || host == "[]" {
        return Err(format!("--shard host is empty in {arg:?}"));
    }
    let port_and_dir = after_host
        .strip_prefix(':')
        .ok_or_else(|| format!("--shard address needs host:port, got {rest:?}"))?;
    let (port, state_dir) = match port_and_dir.split_once(':') {
        Some((port, dir)) => (port, (!dir.is_empty()).then(|| dir.into())),
        None => (port_and_dir, None),
    };
    port.parse::<u16>().map_err(|_| format!("bad port {port:?} in --shard address {rest:?}"))?;
    Ok(ShardSpec { name: name.into(), addr: format!("{host}:{port}"), state_dir })
}

fn parse_quota(arg: &str) -> Result<(String, TenantQuota), String> {
    let (name, spec) = arg
        .split_once('=')
        .ok_or_else(|| format!("--tenant-quota wants name=rate:burst, got {arg:?}"))?;
    let (rate, burst) = spec
        .split_once(':')
        .ok_or_else(|| format!("--tenant-quota wants name=rate:burst, got {arg:?}"))?;
    let rate: f64 = rate.parse().map_err(|e| format!("bad rate in {arg:?}: {e}"))?;
    let burst: f64 = burst.parse().map_err(|e| format!("bad burst in {arg:?}: {e}"))?;
    Ok((name.into(), TenantQuota { rate, burst }))
}

struct Args {
    config: GatewayConfig,
    drain_timeout: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut config = GatewayConfig { client_addr: "127.0.0.1:7160".into(), ..Default::default() };
    let mut default_rate = 0.0f64;
    let mut default_burst = 0.0f64;
    let mut drain_timeout = Duration::from_secs(30);
    let mut chaos_seed = None;
    let mut chaos_profile = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--shard" => config.shards.push(parse_shard(&value("--shard")?)?),
            "--client-addr" => config.client_addr = value("--client-addr")?,
            "--health-ms" => {
                config.health_interval = Duration::from_millis(
                    value("--health-ms")?.parse().map_err(|e| format!("{e}"))?,
                )
            }
            "--shard-liveness-ms" => {
                config.shard_liveness = Duration::from_millis(
                    value("--shard-liveness-ms")?.parse().map_err(|e| format!("{e}"))?,
                )
            }
            "--probe-timeout-ms" => {
                config.probe_timeout = Duration::from_millis(
                    value("--probe-timeout-ms")?.parse().map_err(|e| format!("{e}"))?,
                )
            }
            "--steal-margin" => {
                config.steal_margin =
                    value("--steal-margin")?.parse().map_err(|e| format!("{e}"))?
            }
            "--max-inflight" => {
                config.max_inflight =
                    value("--max-inflight")?.parse().map_err(|e| format!("{e}"))?
            }
            "--tenant-rate" => {
                default_rate = value("--tenant-rate")?.parse().map_err(|e| format!("{e}"))?
            }
            "--tenant-burst" => {
                default_burst = value("--tenant-burst")?.parse().map_err(|e| format!("{e}"))?
            }
            "--tenant-quota" => {
                let (name, quota) = parse_quota(&value("--tenant-quota")?)?;
                config.tenant_quotas.insert(name, quota);
            }
            "--state-dir" => config.state_dir = Some(value("--state-dir")?.into()),
            "--compress-state" => config.compress_state = true,
            "--journal-dir" => config.journal_dir = Some(value("--journal-dir")?.into()),
            "--tuner-refresh" => {
                config.tuner_refresh_jobs =
                    value("--tuner-refresh")?.parse().map_err(|e| format!("{e}"))?
            }
            "--lease-ttl-ms" => {
                config.lease_ttl = Some(Duration::from_millis(
                    value("--lease-ttl-ms")?.parse().map_err(|e| format!("{e}"))?,
                ))
            }
            "--standby" => config.standby = true,
            "--ha-owner" => config.ha_owner = value("--ha-owner")?,
            "--steal-batch" => {
                config.steal_batch = value("--steal-batch")?.parse().map_err(|e| format!("{e}"))?
            }
            "--drain-timeout-secs" => {
                drain_timeout = Duration::from_secs(
                    value("--drain-timeout-secs")?.parse().map_err(|e| format!("{e}"))?,
                )
            }
            "--chaos-seed" => {
                chaos_seed =
                    Some(value("--chaos-seed")?.parse::<u64>().map_err(|e| format!("{e}"))?)
            }
            "--chaos-profile" => {
                chaos_profile = Some(ChaosProfile::parse(&value("--chaos-profile")?)?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // `--tenant-rate 0` (the default) leaves unlisted tenants
    // unmetered; any positive rate meters them.
    if default_rate > 0.0 {
        let burst = if default_burst > 0.0 { default_burst } else { default_rate.max(1.0) };
        config.default_quota = Some(TenantQuota { rate: default_rate, burst });
    }
    if config.tuner_refresh_jobs > 0 && config.state_dir.is_none() {
        return Err("--tuner-refresh needs --state-dir (the tuner model lives under \
                    <state-dir>/tuner)"
            .into());
    }
    if chaos_profile.is_some() && chaos_seed.is_none() {
        return Err("--chaos-profile needs --chaos-seed".into());
    }
    if let Some(seed) = chaos_seed {
        config.chaos = Some(FaultPlan::new(seed, chaos_profile.unwrap_or_else(ChaosProfile::none)));
    }
    config.validate()?;
    Ok(Args { config, drain_timeout })
}

fn main() {
    let Args { config, drain_timeout } = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ugd-gateway: {e}");
            eprintln!(
                "usage: ugd-gateway --shard <name>=<host>:<port>[:<state_dir>] [--shard ...]\n\
                 \x20       [--client-addr <a>] [--health-ms <ms>] [--shard-liveness-ms <ms>]\n\
                 \x20       [--probe-timeout-ms <ms>] [--steal-margin <n>] [--max-inflight <n>]\n\
                 \x20       [--tenant-rate <per-sec> [--tenant-burst <n>]]\n\
                 \x20       [--tenant-quota <name>=<rate>:<burst>]...\n\
                 \x20       [--state-dir <dir>] [--compress-state] [--journal-dir <dir>]\n\
                 \x20       [--tuner-refresh <jobs>]\n\
                 \x20       [--lease-ttl-ms <ms> [--standby] [--ha-owner <name>]]\n\
                 \x20       [--steal-batch <n>] [--drain-timeout-secs <s>]\n\
                 \x20       [--chaos-seed <n> [--chaos-profile <name|json>]]\n\
                 \n\
                 --shard            one ugd-server: client address, plus its state dir when\n\
                 \x20                 reachable (enables checkpoint replay on failover)\n\
                 --steal-margin     steal queued jobs from shards at least this deep (0 = off)\n\
                 --steal-batch      max queued jobs moved per steal sweep (default 4)\n\
                 --lease-ttl-ms     HA pair: lease TTL shared via --state-dir (needs it)\n\
                 --standby          start standing by; take over only when the lease expires\n\
                 --ha-owner         lease owner name (default gw-<pid>)\n\
                 --chaos-seed       seeded fault injection on gateway->shard RPCs\n\
                 --tenant-rate      default token-bucket rate for tenants (0 = unmetered)\n\
                 --tenant-quota     per-tenant override, e.g. batch=0.5:10"
            );
            std::process::exit(2);
        }
    };
    let shards = config.shards.len();
    let gateway = match SolveGateway::start(config) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ugd-gateway: {e}");
            std::process::exit(1);
        }
    };
    println!("ugd-gateway listening on {} ({} shards)", gateway.client_addr(), shards);
    println!("ugd-gateway role {}", if gateway.is_primary() { "primary" } else { "standby" });
    let (total, resumed) = gateway.recovered_jobs();
    if total > 0 {
        println!("ugd-gateway recovered {total} jobs ({resumed} resuming from a checkpoint)");
    }
    if wait_for_shutdown_or_sigterm(
        || gateway.shutdown_requested(),
        "ugd-gateway: SIGTERM — draining (refusing new submits, handing the lease over)",
    ) {
        gateway.drain(drain_timeout);
    }
    gateway.shutdown_and_join();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_shard_accepts_ipv4_ipv6_and_state_dirs() {
        let s = parse_shard("a=127.0.0.1:7163").unwrap();
        assert_eq!((s.name.as_str(), s.addr.as_str()), ("a", "127.0.0.1:7163"));
        assert!(s.state_dir.is_none());

        let s = parse_shard("a=127.0.0.1:7163:/var/lib/ugrs/a").unwrap();
        assert_eq!(s.addr, "127.0.0.1:7163");
        assert_eq!(s.state_dir.as_deref(), Some(std::path::Path::new("/var/lib/ugrs/a")));

        // An IPv6 host keeps its brackets and internal colons.
        let s = parse_shard("v6=[::1]:7163").unwrap();
        assert_eq!(s.addr, "[::1]:7163");
        assert!(s.state_dir.is_none());

        let s = parse_shard("v6=[fe80::1]:7163:/tmp/state").unwrap();
        assert_eq!(s.addr, "[fe80::1]:7163");
        assert_eq!(s.state_dir.as_deref(), Some(std::path::Path::new("/tmp/state")));

        // A state dir may itself contain ':' — only the first ':' after
        // the port delimits it.
        let s = parse_shard("a=10.0.0.2:7000:/mnt/st:age/a").unwrap();
        assert_eq!(s.addr, "10.0.0.2:7000");
        assert_eq!(s.state_dir.as_deref(), Some(std::path::Path::new("/mnt/st:age/a")));
    }

    #[test]
    fn parse_shard_rejects_malformed_input() {
        assert!(parse_shard("no-equals").is_err(), "missing name=");
        assert!(parse_shard("=127.0.0.1:7163").is_err(), "empty name");
        assert!(parse_shard("a=127.0.0.1").is_err(), "missing port");
        assert!(parse_shard("a=:7163").is_err(), "empty host");
        assert!(parse_shard("a=[::1:7163").is_err(), "unclosed bracket");
        assert!(parse_shard("a=[::1]7163").is_err(), "missing ':' after ']'");
        assert!(parse_shard("a=127.0.0.1:notaport").is_err(), "non-numeric port");
        assert!(parse_shard("a=127.0.0.1:99999").is_err(), "port out of range");
    }
}
