//! The fleet tier: a gateway fronting N `ugd-server` shards.
//!
//! The paper scales by layering LoadCoordinators over many solver
//! processes; this module applies the same move one level up. A
//! [`Gateway`] speaks the *identical* client protocol as a
//! [`Server`](crate::server::Server) — `ugd` and [`JobClient`] work
//! against either — but instead of owning a worker pool it owns a fleet
//! of shards, each a full `ugd-server` with its own pool, ledger and
//! checkpoints. Four mechanisms make the fleet more than N servers
//! behind a port:
//!
//! * **Consistent routing** — each accepted job is placed by *weighted
//!   rendezvous hashing* over the currently-healthy shard set: every
//!   shard scores `-w / ln(h)` where `h` is a per-(job, shard) hash and
//!   `w` a health weight that shrinks with queue depth and busy
//!   workers. The highest score wins. Unlike mod-N, removing a shard
//!   remaps *only* that shard's jobs; unlike plain rendezvous, the
//!   weight steers new load toward idle shards without ever thrashing
//!   placements that already exist.
//! * **Work stealing** — a health loop polls every shard's metrics
//!   exposition (`ugrs_server_queue_depth`, `ugrs_server_workers_busy`);
//!   when one shard idles while another's queue is at least
//!   [`GatewayConfig::steal_margin`] deep, the gateway *reclaims* a
//!   queued job from the deep shard ([`ClientRequest::Reclaim`] — atomic,
//!   refused once the job started) and resubmits it to the idle one.
//!   The gateway's own write-ahead ledger holds the job across the
//!   move, so a crash mid-steal re-runs it (at-least-once) rather than
//!   losing it.
//! * **Admission control** — a token bucket per tenant key (from
//!   [`JobSpec::tenant`]) plus a global in-flight bound. An over-quota
//!   submit is answered with [`ServerReply::Rejected`] — the 429 of
//!   this protocol — with nothing assigned, queued or made durable, so
//!   a misbehaving tenant cannot OOM the fleet or starve its peers.
//! * **Shard failover** — a shard that misses every health poll for
//!   [`GatewayConfig::shard_liveness`] (validated against the poll
//!   interval exactly like
//!   [`ProcessCommConfig::validate`](crate::process::ProcessCommConfig))
//!   is declared dead. Every job routed to it is re-dispatched to a
//!   surviving peer; for jobs that were mid-run the gateway replays the
//!   dead shard's on-disk checkpoint as [`JobSpec::restart_from`], so
//!   they resume as run `1.k` of their restart chain (Table 2
//!   semantics) instead of starting over.
//!
//! One OS thread per in-flight job ("tracker") proxies the owning
//! shard's `Watch` stream into the gateway's own event log, rewriting
//! local job ids to gateway ids — a watcher of the gateway sees one
//! continuous event stream across steals and failovers, punctuated by
//! [`JobEventKind::Routed`] markers.

use crate::chaos::{FaultPlan, RpcFault, RpcFaultGate};
use crate::ledger::{self, JobLedger, Lease, LeaseDir, RouteLog};
use crate::rpc::{
    empty_finished, serve_clients, state_label, wake_listener, EventLog, RequestHandler,
};
use crate::server::{
    cancel_outcome, fenced_epoch, fenced_io_error, submit_outcome, ClientRequest, FleetStatus,
    JobClient, JobEvent, JobEventKind, JobSpec, JobState, JobSummary, MetricsReport, ServerReply,
    ServerStatus, ShardSummary, SubmitOutcome, WireType,
};
use crate::telemetry::{self, MetricsRegistry};
use crate::wire;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// One shard of the fleet: a running `ugd-server`.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Stable name used in `Routed` events, `ugd fleet` and logs.
    pub name: String,
    /// The shard's *client* address (where `ugd` would connect).
    pub addr: String,
    /// The shard's `--state-dir`, when the gateway can reach it (same
    /// host or shared filesystem). Required for checkpoint replay on
    /// failover; without it a dead shard's jobs restart from scratch.
    pub state_dir: Option<PathBuf>,
}

impl ShardSpec {
    /// A shard with no reachable state dir.
    pub fn new(name: impl Into<String>, addr: impl Into<String>) -> Self {
        ShardSpec { name: name.into(), addr: addr.into(), state_dir: None }
    }
}

/// A tenant's token-bucket budget: sustained `rate` submits/second with
/// bursts up to `burst`.
#[derive(Clone, Copy, Debug)]
pub struct TenantQuota {
    /// Tokens added per second.
    pub rate: f64,
    /// Bucket capacity (and initial fill).
    pub burst: f64,
}

/// Tuning of a [`Gateway`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// The fleet, in a stable order (indices are internal shard ids).
    pub shards: Vec<ShardSpec>,
    /// Client listener address (`"127.0.0.1:0"` = OS-picked port).
    pub client_addr: String,
    /// How often the health loop polls every shard.
    pub health_interval: Duration,
    /// A shard that answers no poll for this long is declared dead and
    /// failed over. Must exceed 2x [`Self::health_interval`] (the same
    /// rule [`ProcessCommConfig::validate`](crate::process) enforces
    /// between heartbeat and liveness).
    pub shard_liveness: Duration,
    /// Per-RPC bound on health polls and dispatch submits.
    pub probe_timeout: Duration,
    /// Steal only from queues at least this deep (0 disables stealing).
    pub steal_margin: u64,
    /// Global bound on accepted-but-not-terminal jobs; submits beyond
    /// it are `Rejected { reason: "capacity" }` — backpressure, not OOM.
    pub max_inflight: usize,
    /// Budget applied to tenants without an explicit entry in
    /// [`Self::tenant_quotas`]. `None` = unmetered.
    pub default_quota: Option<TenantQuota>,
    /// Per-tenant overrides, keyed by [`JobSpec::tenant`].
    pub tenant_quotas: HashMap<String, TenantQuota>,
    /// When set, the gateway keeps its own write-ahead [`JobLedger`]
    /// here: every accepted job is durable before its ack and retired
    /// on its terminal event — the safety net that makes a job survive
    /// the reclaim/resubmit window of a steal and a gateway crash.
    pub state_dir: Option<PathBuf>,
    /// `--compress-state`: write the gateway ledger's records through
    /// the [`crate::lz`] container. Recovery always auto-detects, so
    /// the flag can be flipped between restarts over an existing dir.
    pub compress_state: bool,
    /// When set, the gateway appends one JSON line per fleet decision
    /// (submit, reject, route, steal, failover, finish) to
    /// `<dir>/gateway.jsonl` — the artifact CI uploads.
    pub journal_dir: Option<PathBuf>,
    /// When > 0 (and [`Self::state_dir`] is set), the gateway loads
    /// the [`crate::tuner`] model from `<state_dir>/tuner/` at
    /// startup, journals its version, re-loads it after every this
    /// many finished jobs, and exports the `ugrs_tuner_*_total`
    /// counters — the fleet-tier visibility half of adaptive tuning
    /// (the racing decisions themselves happen on the shards). 0
    /// disables the tuner at the gateway.
    pub tuner_refresh_jobs: u64,
    /// When set (requires [`Self::state_dir`]), the gateway runs in
    /// **high-availability mode**: it participates in the lease
    /// election under `<state_dir>/lease/`, announces its lease epoch
    /// to every shard (fencing), and durably logs routes + event
    /// cursors to `<state_dir>/routes.jsonl` so a standby can take
    /// over mid-stream. The TTL is how stale a primary's lease may be
    /// before the standby takes over; must exceed 2x
    /// [`Self::health_interval`] (the sweep renews the lease).
    pub lease_ttl: Option<Duration>,
    /// HA only: start standing by (never claim an absent/expired lease
    /// at startup — wait for the primary to actually lapse). Without
    /// it, two gateways started together race the first claim and the
    /// loser stands by automatically.
    pub standby: bool,
    /// HA only: this gateway's identity in the lease file and journal
    /// name (conventionally its client address). Defaults to
    /// `pid-<pid>` when empty.
    pub ha_owner: String,
    /// Upper bound on jobs one steal sweep may migrate off a deep
    /// shard; the sweep takes `min(gap/2, steal_batch)` (at least 1)
    /// where `gap` is the queue-depth gap. 1 reproduces the original
    /// one-steal-per-sweep behavior.
    pub steal_batch: u64,
    /// Seeded fault injection on the gateway↔shard RPC links (health
    /// polls, dispatch submits, reclaims, cancel forwards, tracker
    /// connects) — `None` everywhere in production, `Some` only under
    /// test harnesses. `Kill` exits the gateway process with 137.
    pub chaos: Option<FaultPlan>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            shards: Vec::new(),
            client_addr: "127.0.0.1:0".into(),
            health_interval: Duration::from_millis(250),
            shard_liveness: Duration::from_secs(2),
            probe_timeout: Duration::from_secs(1),
            steal_margin: 2,
            max_inflight: 1024,
            default_quota: None,
            tenant_quotas: HashMap::new(),
            state_dir: None,
            compress_state: false,
            journal_dir: None,
            tuner_refresh_jobs: 0,
            lease_ttl: None,
            standby: false,
            ha_owner: String::new(),
            steal_batch: 4,
            chaos: None,
        }
    }
}

impl GatewayConfig {
    /// Rejects configurations that cannot work: an empty or ambiguous
    /// fleet, a liveness window the poll cadence cannot feed (the
    /// heartbeat-vs-liveness rule of
    /// [`ProcessCommConfig::validate`](crate::process)), and degenerate
    /// quotas.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards.is_empty() {
            return Err("a gateway needs at least one shard".into());
        }
        for (i, a) in self.shards.iter().enumerate() {
            for b in &self.shards[i + 1..] {
                if a.name == b.name {
                    return Err(format!("duplicate shard name {:?}", a.name));
                }
            }
        }
        if self.shard_liveness <= self.health_interval * 2 {
            return Err(format!(
                "shard liveness ({:?}) must exceed 2x the health interval ({:?}); \
                 raise --shard-liveness-ms or lower --health-ms",
                self.shard_liveness, self.health_interval
            ));
        }
        if self.max_inflight == 0 {
            return Err("max_inflight must be at least 1".into());
        }
        if let Some(ttl) = self.lease_ttl {
            if self.state_dir.is_none() {
                return Err("HA (--lease-ttl-ms) requires --state-dir (the shared lease \
                            and route log live there)"
                    .into());
            }
            if ttl <= self.health_interval * 2 {
                return Err(format!(
                    "lease TTL ({:?}) must exceed 2x the health interval ({:?}) — the \
                     sweep is what renews the lease; raise --lease-ttl-ms or lower --health-ms",
                    ttl, self.health_interval
                ));
            }
        }
        if self.standby && self.lease_ttl.is_none() {
            return Err("--standby only makes sense with --lease-ttl-ms (HA mode)".into());
        }
        if self.steal_batch == 0 {
            return Err("steal_batch must be at least 1".into());
        }
        let quotas =
            self.tenant_quotas.values().chain(self.default_quota.as_ref()).collect::<Vec<_>>();
        for q in quotas {
            // Explicit finite checks so a NaN rate/burst is rejected too.
            let rate_ok = q.rate.is_finite() && q.rate > 0.0;
            let burst_ok = q.burst.is_finite() && q.burst >= 1.0;
            if !rate_ok || !burst_ok {
                return Err(format!(
                    "tenant quota needs rate > 0 and burst >= 1 (got rate {}, burst {})",
                    q.rate, q.burst
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Weighted rendezvous hashing
// ---------------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn name_hash(name: &str) -> u64 {
    // FNV-1a: stable across runs (no RandomState), cheap, good enough
    // to decorrelate shard names before mixing with the job id.
    let mut h = 0xcbf29ce484222325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The weighted-rendezvous score of `job` on one shard: `-w / ln(h)`
/// with `h` uniform in (0, 1) from the (job, shard) pair and `w > 0`
/// the shard's health weight. Larger is better. The log transform makes
/// the winner distribution proportional to the weights while keeping
/// the defining rendezvous property: a shard's removal only remaps the
/// jobs it was winning.
fn rendezvous_score(job: u64, shard_name: &str, weight: f64) -> f64 {
    let h = splitmix64(job ^ name_hash(shard_name));
    // 53 uniform bits into (0, 1]; the +1 offset excludes an exact 0.
    let u = ((h >> 11) + 1) as f64 / (1u64 << 53) as f64;
    -weight / u.ln()
}

/// Health weight of a shard: 1 for an empty shard, shrinking as its
/// queue and busy workers grow — new jobs drift toward idle shards
/// without destabilizing existing placements.
fn health_weight(queue_depth: u64, workers_busy: u64) -> f64 {
    1.0 / (1.0 + queue_depth as f64 + workers_busy as f64)
}

// ---------------------------------------------------------------------
// Token buckets
// ---------------------------------------------------------------------

struct Bucket {
    tokens: f64,
    last: Instant,
}

impl Bucket {
    fn new(quota: &TenantQuota, now: Instant) -> Self {
        Bucket { tokens: quota.burst, last: now }
    }

    /// Refills from elapsed time, then takes one token if available.
    fn try_take(&mut self, quota: &TenantQuota, now: Instant) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * quota.rate).min(quota.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------
// Gateway state
// ---------------------------------------------------------------------

/// Where a job currently lives: shard index + the shard's local job id.
#[derive(Clone, Copy, Debug)]
struct Route {
    shard: usize,
    local: u64,
}

struct GwJob<Inst, Sub> {
    spec: JobSpec<Inst, Sub>,
    tenant: String,
    state: JobState,
    /// Bumped on every re-dispatch (steal, failover): a tracker holding
    /// an older epoch must discard what it reads — its shard no longer
    /// owns the job.
    epoch: u64,
    /// `None` while the job sits in the dispatch queue.
    route: Option<Route>,
    /// Freshest checkpoint to resume from at the next dispatch (set by
    /// failover from the dead shard's state dir).
    restart_from: Option<String>,
    /// The next shard-side event seq the tracker should ask for —
    /// `Watch { from_seq }` on (re)connect resumes here instead of
    /// replaying the shard's whole log, so a transient disconnect (or
    /// the deliberate reconnect after a failed steal) never duplicates
    /// already-delivered events in the gateway's log. Reset to 0 by the
    /// dispatcher whenever a *new* shard-local job is assigned (its log
    /// starts fresh); kept across a failed steal (same shard, same
    /// local id, same log).
    next_shard_seq: usize,
    run_index: u32,
    tracker_spawned: bool,
}

impl<Inst, Sub> GwJob<Inst, Sub> {
    /// A job waiting in the dispatch queue, not yet routed.
    fn queued(spec: JobSpec<Inst, Sub>, restart_from: Option<String>, run_index: u32) -> Self {
        GwJob {
            tenant: spec.tenant.clone().unwrap_or_else(|| "default".into()),
            spec,
            state: JobState::Queued,
            epoch: 0,
            route: None,
            restart_from,
            next_shard_seq: 0,
            run_index,
            tracker_spawned: false,
        }
    }
}

/// One dispatch-queue entry. `target` pins the destination (work
/// stealing routes to the idle shard it chose); `None` lets rendezvous
/// decide. An entry whose submit failed is parked until `retry_at`
/// while the dispatcher serves the entries behind it.
struct Dispatch {
    gid: u64,
    target: Option<usize>,
    retry_at: Option<Instant>,
}

impl Dispatch {
    fn new(gid: u64, target: Option<usize>) -> Self {
        Dispatch { gid, target, retry_at: None }
    }
}

struct GwState<Inst, Sub> {
    jobs: BTreeMap<u64, GwJob<Inst, Sub>>,
    dispatch: VecDeque<Dispatch>,
    next_gid: u64,
    /// Accepted and not yet terminal (the `max_inflight` meter).
    inflight: usize,
}

/// Health-loop view of one shard.
struct ShardHealth {
    alive: bool,
    last_ok: Instant,
    queue_depth: u64,
    workers_busy: u64,
    pool_workers: u64,
    jobs_running: u64,
    /// Local ids of the shard's queued jobs at the last poll (steal
    /// victims are picked from these).
    queued_local: Vec<u64>,
}

/// Idle connections kept per shard; one returned beyond that is closed.
const POOL_IDLE_MAX: usize = 8;

/// Read timeout of a tracker's `Watch`: what lets it notice a route
/// change while the stale shard's stream is silent.
const WATCH_WAKE: Duration = Duration::from_millis(500);

/// One gateway→shard connection out of a [`ShardPool`].
struct ShardConn<Inst, Sub, Sol> {
    client: JobClient<Inst, Sub, Sol>,
    /// The lease epoch last announced on it (0 = none).
    announced: u64,
    /// Taken from the idle list, not dialled: a failure on first use
    /// may only mean the shard closed it meanwhile (a restart).
    reused: bool,
}

/// The idle gateway→shard connections of one shard. Every shard RPC
/// but the health probe and the takeover path borrows from here and
/// returns the connection after a *completed* exchange; a connection an
/// exchange failed on, or whose stream was abandoned, is dropped.
struct ShardPool<Inst, Sub, Sol> {
    idle: Mutex<Vec<ShardConn<Inst, Sub, Sol>>>,
    dials: Arc<telemetry::Counter>,
    reused: Arc<telemetry::Counter>,
}

const REJECT_REASONS: [&str; 4] = ["quota", "capacity", "standby", "draining"];

/// Handles of the gateway's unlabeled series, registered once at start
/// so a scrape right after startup sees the full schema.
struct GwMetrics {
    stolen: Arc<telemetry::Counter>,
    failed_over: Arc<telemetry::Counter>,
    rejoined: Arc<telemetry::Counter>,
    lease_renewals: Arc<telemetry::Counter>,
    failovers: Arc<telemetry::Counter>,
    fenced_rpcs: Arc<telemetry::Counter>,
    role: Arc<telemetry::Gauge>,
    shards_healthy: Arc<telemetry::Gauge>,
    submit_ack: Arc<telemetry::Histogram>,
}

impl GwMetrics {
    fn new(r: &MetricsRegistry) -> Self {
        GwMetrics {
            stolen: r
                .counter("ugrs_gateway_jobs_stolen_total", "Queued jobs migrated off a deep shard"),
            failed_over: r.counter(
                "ugrs_gateway_jobs_failed_over_total",
                "Jobs replayed from a dead shard onto a peer",
            ),
            rejoined: r.counter(
                "ugrs_gateway_jobs_rejoined_total",
                "Queued jobs migrated back to a revived shard",
            ),
            lease_renewals: r
                .counter("ugrs_gateway_lease_renewals_total", "Lease renewal writes while primary"),
            failovers: r
                .counter("ugrs_gateway_failovers_total", "Lease takeovers from a dead primary"),
            fenced_rpcs: r.counter(
                "ugrs_gateway_fenced_rpcs_total",
                "Gateway RPCs a shard refused because our lease epoch was stale",
            ),
            role: r.gauge("ugrs_gateway_role", "1 while this gateway holds the lease (primary)"),
            shards_healthy: r.gauge("ugrs_gateway_shards_healthy", "Shards answering health polls"),
            submit_ack: r.histogram_with(
                "ugrs_gateway_submit_ack_seconds",
                &[],
                "Submit receipt to durable ack, seconds",
                &[0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25],
            ),
        }
    }
}

/// The mutable half of a gateway's HA identity, under one lock.
struct HaInner {
    /// The lease this gateway holds (primary) — `None` while standby.
    lease: Option<Lease>,
    /// When the held lease was last written to disk; the staleness
    /// trigger of [`GwShared::still_primary`].
    last_renewed: Instant,
}

struct GwShared<Inst, Sub, Sol> {
    config: GatewayConfig,
    /// The bound client listener: what [`Self::begin_shutdown`] dials.
    client_addr: SocketAddr,
    /// Per-shard connection pools, indexed like `config.shards`.
    pools: Vec<ShardPool<Inst, Sub, Sol>>,
    state: Mutex<GwState<Inst, Sub>>,
    /// Wakes the dispatcher and trackers (new dispatch, new route).
    cv: Condvar,
    /// Every job's event log; `Watch` streams from it.
    events: EventLog<Sol>,
    health: Mutex<Vec<ShardHealth>>,
    tenants: Mutex<HashMap<String, Bucket>>,
    metrics: MetricsRegistry,
    series: GwMetrics,
    ledger: Option<JobLedger>,
    journal: Option<Mutex<io::BufWriter<std::fs::File>>>,
    /// The fleet-tier tuner handle (with `config.tuner_refresh_jobs`
    /// and a state dir): tracks the mined model's version and reloads
    /// it after every N finished jobs.
    tuner: Option<crate::tuner::TunerService>,
    shutdown: AtomicBool,
    /// 1 while this gateway is the fleet's primary (always 1 without
    /// HA), 0 while standing by. The cheap check every mutating loop
    /// makes; the authoritative state is `ha`.
    role_primary: AtomicBool,
    /// The lease epoch this gateway currently announces (0 = none/HA
    /// off) — the `ep` tag of route-log lines and the fencing token of
    /// every shard RPC.
    lease_epoch: AtomicU64,
    /// Set when a shard fenced one of our RPCs (a newer epoch exists):
    /// the lease loop must demote us instead of letting stale loops
    /// keep mutating.
    fenced: AtomicBool,
    /// Set by [`Gateway::drain`]: refuse new submits with
    /// `Rejected { "draining" }`.
    draining: AtomicBool,
    /// HA state (`config.lease_ttl`): lease election + fenced routes.
    ha: Option<Mutex<HaInner>>,
    lease_dir: Option<LeaseDir>,
    route_log: Option<RouteLog>,
    /// Seeded RPC fault injection (`config.chaos`).
    chaos_gate: Option<RpcFaultGate>,
    /// Gateway job ids whose `finish` journal line an *earlier* lease
    /// holder already wrote (merged from every `gateway-*.jsonl` at
    /// promote): [`deliver`] skips re-journaling these so a terminal
    /// is exactly-once across the pair's merged journals.
    prior_finishes: Mutex<HashSet<u64>>,
    /// `"gid/shard/local"` keys of `started` journal lines an earlier
    /// lease holder already wrote — same dedup for `Started`.
    prior_started: Mutex<HashSet<String>>,
}

impl<Inst, Sub, Sol> GwShared<Inst, Sub, Sol> {
    fn is_primary(&self) -> bool {
        self.role_primary.load(Ordering::SeqCst)
    }

    /// Stops the gateway's own threads: the flag, then a wake-up for
    /// everything that blocks — condvar waiters, watchers, the accept
    /// loop.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Under the state lock, or a waiter between its flag check and
        // its wait would miss the wake-up.
        drop(self.state.lock().unwrap());
        self.cv.notify_all();
        self.events.wake();
        wake_listener(self.client_addr);
    }

    /// The health loop's pause between sweeps: one health interval, cut
    /// short by [`Self::begin_shutdown`].
    fn pause_health_loop(&self) {
        let deadline = Instant::now() + self.config.health_interval;
        let mut st = self.state.lock().unwrap();
        while !self.shutdown.load(Ordering::SeqCst) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            st = self.cv.wait_timeout(st, left).unwrap().0;
        }
    }

    /// The chaos gate every gateway→shard RPC passes first: injected
    /// faults surface as connection errors; `Kill` exits the process
    /// like a SIGKILL would (exit 137) — the fault HA absorbs.
    fn chaos_check(&self) -> io::Result<()> {
        if let Some(gate) = &self.chaos_gate {
            match gate.before_rpc() {
                RpcFault::Proceed => {}
                RpcFault::Fail => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "chaos: injected RPC fault",
                    ));
                }
                RpcFault::Exit => {
                    eprintln!("ugd-gateway: chaos kill");
                    std::process::exit(137);
                }
            }
        }
        Ok(())
    }

    /// Records that a shard fenced us: a standby claimed a newer
    /// epoch. The lease loop picks the flag up and demotes.
    fn note_fenced(&self, usurper_epoch: u64) {
        self.series.fenced_rpcs.inc();
        self.journal(serde_json::json!({
            "ev": "fenced", "usurper_epoch": usurper_epoch,
        }));
        self.fenced.store(true, Ordering::SeqCst);
    }

    /// Whether this gateway may still act as primary, re-validating
    /// against the on-disk lease when the in-memory one has gone stale
    /// (> TTL/2 since the last renewal — e.g. the process was stopped
    /// and resumed). Called before terminal side effects (ledger
    /// retirement, journal finishes, steals, failovers): a deposed
    /// primary that wakes up late must not double-finish jobs the new
    /// primary now owns.
    fn still_primary(&self) -> bool {
        let Some(ha) = &self.ha else { return true };
        if !self.is_primary() || self.fenced.load(Ordering::SeqCst) {
            return false;
        }
        let mut inner = ha.lock().unwrap();
        let Some(lease) = inner.lease.clone() else { return false };
        let ttl = Duration::from_millis(lease.ttl_ms);
        if inner.last_renewed.elapsed() <= ttl / 2 {
            return true;
        }
        // In-memory view stale: consult the disk before trusting it.
        if let Some(dir) = &self.lease_dir {
            if let Some(cur) = dir.read() {
                if cur.epoch > lease.epoch {
                    drop(inner);
                    self.note_fenced(cur.epoch);
                    return false;
                }
            }
            // Still ours on disk — renew it right here so the next
            // check is cheap again.
            if let Some(l) = inner.lease.as_mut() {
                if dir.renew(l).is_ok() {
                    inner.last_renewed = Instant::now();
                    self.series.lease_renewals.inc();
                }
            }
        }
        true
    }
    /// Appends one decision line to the gateway journal (best-effort).
    fn journal(&self, value: serde_json::Value) {
        if let Some(j) = &self.journal {
            let ts = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0);
            let mut line = value;
            if let serde_json::Value::Object(pairs) = &mut line {
                pairs.push(("ts".into(), serde_json::json!(ts)));
            }
            let Ok(text) = serde_json::to_string(&line) else { return };
            let mut w = j.lock().unwrap();
            let _ = w.write_all(text.as_bytes());
            let _ = w.write_all(b"\n");
            let _ = w.flush();
        }
    }

    fn submitted(&self, family: &str) -> Arc<telemetry::Counter> {
        self.metrics.counter_with(
            "ugrs_gateway_jobs_submitted_total",
            &[("family", family)],
            "Jobs accepted by the gateway, by instance family",
        )
    }

    fn rejected(&self, reason: &str) -> Arc<telemetry::Counter> {
        self.metrics.counter_with(
            "ugrs_gateway_jobs_rejected_total",
            &[("reason", reason)],
            "Submissions refused by admission control, by reason",
        )
    }

    /// `resumed` from a checkpoint, or requeued from scratch.
    fn recovered(&self, resumed: bool) -> Arc<telemetry::Counter> {
        self.metrics.counter_with(
            "ugrs_gateway_jobs_recovered_total",
            &[("mode", if resumed { "resumed" } else { "requeued" })],
            "Jobs brought back by the startup recovery pass, by mode",
        )
    }

    /// The terminal bookkeeping every finished job gets, in the order
    /// a takeover relies on (DESIGN §5f): the `finish` journal line —
    /// unless an earlier lease holder already wrote it, so the merged
    /// journals stay exactly-once —, then ledger retirement, then the
    /// counter.
    fn record_finish(&self, gid: u64, tenant: &str, family: &str, state: JobState, run_index: u32) {
        if !self.prior_finishes.lock().unwrap().contains(&gid) {
            self.journal(serde_json::json!({
                "ev": "finish", "gid": gid, "tenant": tenant,
                "state": state_label(state), "run_index": run_index,
            }));
        }
        self.retire(gid, state, family);
    }

    /// Retires `gid`'s ledger record and counts its terminal state.
    fn retire(&self, gid: u64, state: JobState, family: &str) {
        if let Some(ledger) = &self.ledger {
            if let Err(e) = ledger.record_finished(gid) {
                eprintln!("ugd-gateway: cannot retire ledger record of job {gid}: {e}");
            }
        }
        self.metrics
            .counter_with(
                "ugrs_gateway_jobs_finished_total",
                &[("state", state_label(state)), ("family", family)],
                "Jobs that reached a terminal state, by state and instance family",
            )
            .inc();
    }
}

// ---------------------------------------------------------------------
// The gateway
// ---------------------------------------------------------------------

/// A running fleet gateway. Start one with [`Gateway::start`]; clients
/// connect to [`Gateway::client_addr`] exactly as they would to a
/// single server.
pub struct Gateway<Inst: WireType, Sub: WireType, Sol: WireType> {
    shared: Arc<GwShared<Inst, Sub, Sol>>,
    client_addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// `(total, resumed-from-checkpoint)` jobs the startup recovery
    /// pass brought back — for the operator's startup banner.
    recovered: (usize, usize),
}

impl<Inst: WireType, Sub: WireType, Sol: WireType> Gateway<Inst, Sub, Sol> {
    /// Validates the config, binds the client listener and starts the
    /// dispatcher and health threads. Shards may come up later: an
    /// unreachable shard is simply unhealthy until its first successful
    /// poll.
    ///
    /// With [`GatewayConfig::state_dir`] set, this first runs the
    /// **recovery pass**: every job the gateway's own ledger still owes
    /// an answer for — acknowledged before a crash, or caught in the
    /// reclaim window of a steal — re-enters the dispatch queue under
    /// its original gateway id (carrying any `restart_from` checkpoint
    /// the record holds), and fresh ids are seeded past the highest
    /// recovered one so new jobs never overwrite stale records.
    pub fn start(config: GatewayConfig) -> io::Result<Self> {
        let mut config = config;
        config.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let ha_mode = config.lease_ttl.is_some();
        if ha_mode && config.ha_owner.is_empty() {
            config.ha_owner = format!("gw-{}", std::process::id());
        }
        let mut recovered: Vec<ledger::RecoveredJob<Inst, Sub>> = Vec::new();
        let mut next_gid = 0u64;
        let ledger = match &config.state_dir {
            Some(dir) => {
                let l = JobLedger::open_with(dir, config.compress_state)?;
                // With HA the recovery pass belongs to `promote`: a
                // standby must not load jobs it does not own yet.
                if !ha_mode {
                    let rec = l.recover::<Inst, Sub>()?;
                    for path in &rec.skipped {
                        eprintln!(
                            "ugd-gateway: skipping unreadable ledger record {} (torn write?)",
                            path.display()
                        );
                    }
                    next_gid = rec.next_job;
                    recovered = rec.jobs;
                }
                Some(l)
            }
            None => None,
        };
        let (lease_dir, route_log) = if ha_mode {
            let dir = config.state_dir.as_ref().expect("validated: HA requires a state dir");
            (Some(LeaseDir::open(dir)?), Some(RouteLog::open(dir)?))
        } else {
            (None, None)
        };
        let journal = match &config.journal_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let file = if ha_mode {
                    // Per-owner name so the pair can share one journal
                    // dir, and append mode so a restart (same owner)
                    // keeps the finish lines takeover dedup greps.
                    std::fs::OpenOptions::new().create(true).append(true).open(
                        dir.join(format!("gateway-{}.jsonl", sanitize_owner(&config.ha_owner))),
                    )?
                } else {
                    std::fs::File::create(dir.join("gateway.jsonl"))?
                };
                Some(Mutex::new(io::BufWriter::new(file)))
            }
            None => None,
        };
        let chaos_gate = config.chaos.as_ref().map(RpcFaultGate::new);
        let listener = TcpListener::bind(&config.client_addr)?;
        let client_addr = listener.local_addr()?;
        let now = Instant::now();
        let health = config
            .shards
            .iter()
            .map(|_| ShardHealth {
                alive: true, // grace until the first liveness window expires
                last_ok: now,
                queue_depth: 0,
                workers_busy: 0,
                pool_workers: 0,
                jobs_running: 0,
                queued_local: Vec::new(),
            })
            .collect();
        let mut jobs = BTreeMap::new();
        let mut dispatch = VecDeque::new();
        for r in &recovered {
            jobs.insert(r.job, GwJob::queued(r.spec.clone(), r.checkpoint.clone(), r.run_index));
            dispatch.push_back(Dispatch::new(r.job, None));
        }
        let inflight = jobs.len();
        let metrics = MetricsRegistry::new();
        let tuner = match (&config.state_dir, config.tuner_refresh_jobs) {
            (Some(dir), n) if n > 0 => Some(crate::tuner::TunerService::open(dir, n, &metrics)),
            _ => None,
        };
        let pools = config
            .shards
            .iter()
            .map(|shard| {
                let counter =
                    |name, help| metrics.counter_with(name, &[("shard", &shard.name)], help);
                ShardPool {
                    idle: Mutex::new(Vec::new()),
                    dials: counter(
                        "ugrs_gateway_shard_dials_total",
                        "Pooled shard connections opened",
                    ),
                    reused: counter(
                        "ugrs_gateway_shard_conn_reused_total",
                        "Shard RPCs served by an idle pooled connection",
                    ),
                }
            })
            .collect();
        let shared = Arc::new(GwShared {
            config,
            client_addr,
            pools,
            state: Mutex::new(GwState { jobs, dispatch, next_gid, inflight }),
            cv: Condvar::new(),
            events: EventLog::new(),
            health: Mutex::new(health),
            tenants: Mutex::new(HashMap::new()),
            series: GwMetrics::new(&metrics),
            metrics,
            ledger,
            journal,
            tuner,
            shutdown: AtomicBool::new(false),
            role_primary: AtomicBool::new(!ha_mode),
            lease_epoch: AtomicU64::new(0),
            fenced: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            ha: ha_mode.then(|| Mutex::new(HaInner { lease: None, last_renewed: Instant::now() })),
            lease_dir,
            route_log,
            chaos_gate,
            prior_finishes: Mutex::new(HashSet::new()),
            prior_started: Mutex::new(HashSet::new()),
        });
        // Journal the model the fleet starts with — the line an
        // operator greps to confirm a `ugd tune` pass was picked up.
        if let Some(t) = &shared.tuner {
            shared.journal(serde_json::json!({
                "ev": "tuner_model", "version": t.model_version(),
            }));
        }
        // Pre-register the labeled series so a scrape right after
        // startup sees the full schema.
        for family in ["stp", "misdp", "maxcut"] {
            shared.submitted(family);
        }
        for reason in REJECT_REASONS {
            shared.rejected(reason);
        }
        shared.recovered(false);
        shared.recovered(true);
        shared.series.role.set(if shared.is_primary() { 1.0 } else { 0.0 });
        shared.series.shards_healthy.set(shared.config.shards.len() as f64);
        // Re-announce the recovered jobs: same Queued-before-ack shape a
        // live submit has, so a watcher reattaching after the restart
        // sees a well-formed stream from seq 0.
        for r in &recovered {
            shared.recovered(r.checkpoint.is_some()).inc();
            shared.events.emit(r.job, JobEventKind::Queued);
            shared.journal(serde_json::json!({
                "ev": "recover", "gid": r.job, "resumed": r.checkpoint.is_some(),
            }));
        }
        // HA bootstrap: claim the lease when nobody healthy holds it.
        // A `--standby` gateway never claims at startup — it only takes
        // over on expiry, from the lease thread. Two non-standby
        // gateways racing here both see a free lease; the hard-link
        // publish in `LeaseDir::claim` lets exactly one win.
        let mut ha_recovered = (0usize, 0usize);
        if ha_mode && !shared.config.standby {
            let dir = shared.lease_dir.as_ref().expect("HA mode");
            let ttl = shared.config.lease_ttl.expect("HA mode");
            let free = match dir.read() {
                Some(cur) => cur.expired_at(ledger::unix_ms_now()),
                None => true,
            };
            if free {
                if let Some(lease) = dir.claim(&shared.config.ha_owner, ttl)? {
                    ha_recovered = promote(&shared, lease);
                }
            }
        }
        let mut threads = Vec::new();
        let sh = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("ugw-dispatch".into())
                .spawn(move || dispatcher_loop(sh))?,
        );
        let sh = shared.clone();
        threads.push(
            std::thread::Builder::new().name("ugw-health".into()).spawn(move || health_loop(sh))?,
        );
        let sh = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("ugw-accept".into())
                .spawn(move || serve_clients(sh, listener, "ugw-client"))?,
        );
        if ha_mode {
            let sh = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("ugw-lease".into())
                    .spawn(move || lease_loop(sh))?,
            );
        }
        let resumed = recovered.iter().filter(|r| r.checkpoint.is_some()).count();
        let recovered_counts = if ha_mode { ha_recovered } else { (recovered.len(), resumed) };
        Ok(Gateway { shared, client_addr, threads, recovered: recovered_counts })
    }

    /// How many jobs the startup recovery pass brought back:
    /// `(total, resumed_from_checkpoint)`. `(0, 0)` without a state
    /// dir or on a clean ledger.
    pub fn recovered_jobs(&self) -> (usize, usize) {
        self.recovered
    }

    /// Where clients connect.
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// Stops the gateway's own threads. The shards keep running — a
    /// gateway is a routing tier, not the fleet's owner.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// [`Self::shutdown`] followed by joining every gateway thread
    /// (tracker threads exit on the shutdown flag as well).
    pub fn shutdown_and_join(self) {
        self.shutdown();
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Blocks until a client sends `Shutdown`, then joins every
    /// gateway thread — what the `ugd-gateway` binary does after its
    /// banner.
    pub fn join(self) {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Whether this gateway currently routes jobs (always true without
    /// HA; the lease holder in an active/standby pair).
    pub fn is_primary(&self) -> bool {
        self.shared.is_primary()
    }

    /// Whether a shutdown (client `Shutdown` or drain) was requested —
    /// what the binary's SIGTERM poll loop checks.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The SIGTERM path: stop admitting (`Rejected{"draining"}`), wait
    /// up to `timeout` for in-flight jobs to finish, then release the
    /// lease (`renewed_unix_ms = 0`, so the standby's next poll claims
    /// immediately rather than waiting a full TTL) and stop the
    /// gateway's threads. Without HA this is drain + stop.
    pub fn drain(&self, timeout: Duration) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.journal(serde_json::json!({ "ev": "drain_begin" }));
        let t0 = Instant::now();
        while t0.elapsed() < timeout && self.shared.is_primary() {
            if self.shared.state.lock().unwrap().inflight == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        if let (Some(ha), Some(dir)) = (&self.shared.ha, &self.shared.lease_dir) {
            let mut inner = ha.lock().unwrap();
            // Take the lease out from under the renewers in the same
            // critical section as the on-disk release: a health sweep
            // one beat later would otherwise renew the just-released
            // file and strand the standby for a full TTL.
            if let Some(lease) = inner.lease.take() {
                let _ = dir.release(&lease);
            }
        }
        let drained = self.shared.state.lock().unwrap().inflight == 0;
        self.shared.journal(serde_json::json!({ "ev": "drain_end", "drained": drained }));
        self.shutdown();
    }
}

/// Lease owner → filesystem-safe journal stem.
fn sanitize_owner(owner: &str) -> String {
    let mapped: String = owner
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect();
    if mapped.is_empty() {
        "anon".into()
    } else {
        mapped
    }
}

// ---------------------------------------------------------------------
// HA: promotion, demotion, the lease thread
// ---------------------------------------------------------------------

/// Scans every `gateway*.jsonl` in the shared journal dir for lines an
/// earlier lease holder already wrote: `(finish gids,
/// "gid/shard/local" started keys, next-gid floor)`. The first two are
/// the takeover dedup sets; the floor is one past the highest gid any
/// line mentions, so a new primary whose ledger replay came up short
/// (every earlier job already finished and retired) cannot reuse a gid
/// the journals already account for — a reused gid's finish would be
/// swallowed by the dedup as a phantom duplicate.
fn journaled_lines(journal_dir: &std::path::Path) -> (HashSet<u64>, HashSet<String>, u64) {
    let mut finishes = HashSet::new();
    let mut started = HashSet::new();
    let mut next_gid_floor = 0u64;
    let Ok(entries) = std::fs::read_dir(journal_dir) else {
        return (finishes, started, next_gid_floor);
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("gateway") || !name.ends_with(".jsonl") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(entry.path()) else { continue };
        for line in text.lines() {
            let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else { continue };
            if let Some(gid) = v.get("gid").and_then(|g| g.as_u64()) {
                next_gid_floor = next_gid_floor.max(gid + 1);
            }
            match v.get("ev").and_then(|e| e.as_str()) {
                Some("finish") => {
                    if let Some(gid) = v.get("gid").and_then(|g| g.as_u64()) {
                        finishes.insert(gid);
                    }
                }
                Some("started") => {
                    if let (Some(gid), Some(shard), Some(local)) = (
                        v.get("gid").and_then(|g| g.as_u64()),
                        v.get("shard").and_then(|s| s.as_str()),
                        v.get("local").and_then(|l| l.as_u64()),
                    ) {
                        started.insert(format!("{gid}/{shard}/{local}"));
                    }
                }
                _ => {}
            }
        }
    }
    (finishes, started, next_gid_floor)
}

/// Takes over as primary under `lease`: fence the shards with the new
/// epoch, replay the shared ledger + route log exactly like the
/// restart path, adopt routes that still run, reconcile ones that
/// finished while no primary was watching, and requeue the rest.
/// Returns `(recovered, resumed_from_checkpoint)` for the banner.
fn promote<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: &Arc<GwShared<Inst, Sub, Sol>>,
    lease: Lease,
) -> (usize, usize) {
    let epoch = lease.epoch;
    {
        let mut inner = shared.ha.as_ref().expect("promote requires HA").lock().unwrap();
        inner.lease = Some(lease);
        inner.last_renewed = Instant::now();
    }
    shared.fenced.store(false, Ordering::SeqCst);
    shared.lease_epoch.store(epoch, Ordering::SeqCst);
    shared.journal(serde_json::json!({ "ev": "promote", "epoch": epoch }));
    if epoch > 1 {
        shared.series.failovers.inc();
    }
    // The dedup sets must exist before any tracker can deliver.
    let mut journaled_gid_floor = 0u64;
    if let Some(dir) = &shared.config.journal_dir {
        let (fin, sta, floor) = journaled_lines(dir);
        *shared.prior_finishes.lock().unwrap() = fin;
        *shared.prior_started.lock().unwrap() = sta;
        journaled_gid_floor = floor;
    }
    // Fence: every reachable shard learns the new epoch now, so the
    // deposed primary's next mutating RPC bounces no matter how late
    // it wakes up. Unreachable shards learn it from our first regular
    // connection instead.
    for shard in &shared.config.shards {
        if let Ok(mut c) =
            JobClient::<Inst, Sub, Sol>::connect_timeout(&shard.addr, shared.config.probe_timeout)
        {
            let _ = c.announce_gateway_epoch(epoch);
        }
    }
    // One status snapshot per shard for route adoption (`None` =
    // unreachable: adopt optimistically, liveness failover resolves).
    let snapshots: Vec<Option<HashMap<u64, JobState>>> = shared
        .config
        .shards
        .iter()
        .map(|s| {
            JobClient::<Inst, Sub, Sol>::connect_timeout(&s.addr, shared.config.probe_timeout)
                .and_then(|mut c| c.status())
                .ok()
                .map(|st| st.jobs.into_iter().map(|j| (j.job, j.state)).collect())
        })
        .collect();
    let rec = match shared.ledger.as_ref().expect("HA requires a ledger").recover::<Inst, Sub>() {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("ugd-gateway: takeover ledger replay failed: {e}");
            ledger::Recovery { jobs: Vec::new(), next_job: 0, skipped: Vec::new() }
        }
    };
    for path in &rec.skipped {
        eprintln!(
            "ugd-gateway: skipping unreadable ledger record {} (torn write?)",
            path.display()
        );
    }
    let routes = shared.route_log.as_ref().and_then(|rl| rl.replay().ok()).unwrap_or_default();
    let total = rec.jobs.len();
    let mut resumed = 0usize;
    let mut live_routes: std::collections::HashMap<u64, ledger::ReplayedRoute> =
        std::collections::HashMap::new();
    // What to announce/spawn after the state lock drops.
    let mut announce: Vec<(u64, Option<usize>)> = Vec::new();
    let mut reconcile: Vec<(u64, usize, u64)> = Vec::new();
    {
        let mut st = shared.state.lock().unwrap();
        st.jobs.clear();
        st.dispatch.clear();
        // Seed past both the live ledger records *and* every gid the
        // journals mention: when the old primary retired everything
        // before dying, the ledger alone would restart at 0 and reuse
        // journaled ids.
        st.next_gid = st.next_gid.max(rec.next_job).max(journaled_gid_floor);
        for r in &rec.jobs {
            let gid = r.job;
            let mut job = GwJob::queued(r.spec.clone(), r.checkpoint.clone(), r.run_index);
            match routes.get(&gid) {
                Some(route) if route.shard < shared.config.shards.len() => {
                    let shard_state =
                        snapshots[route.shard].as_ref().map(|m| m.get(&route.local).copied());
                    match shard_state {
                        // Shard unreachable, or reachable and still
                        // holding the job live: adopt the route and
                        // resume the tracker from the replayed cursor.
                        None | Some(Some(JobState::Queued)) | Some(Some(JobState::Running)) => {
                            if matches!(shard_state, Some(Some(JobState::Running))) {
                                job.state = JobState::Running;
                            }
                            job.route = Some(Route { shard: route.shard, local: route.local });
                            job.next_shard_seq = route.next_seq;
                            job.tracker_spawned = true;
                            live_routes.insert(
                                gid,
                                ledger::ReplayedRoute {
                                    shard: route.shard,
                                    local: route.local,
                                    lease_epoch: epoch,
                                    next_seq: route.next_seq,
                                },
                            );
                            announce.push((gid, Some(route.shard)));
                        }
                        // Terminal on the shard: the old primary died
                        // somewhere inside its finish sequence. Settle
                        // it synchronously after the lock drops.
                        Some(Some(_term)) => {
                            reconcile.push((gid, route.shard, route.local));
                        }
                        // The shard restarted and forgot the job:
                        // fleet failover, from its freshest on-disk
                        // checkpoint when reachable.
                        Some(None) => {
                            let spec = &shared.config.shards[route.shard];
                            if let Some(cp) = shard_checkpoint(spec, route.local) {
                                job.restart_from = Some(cp);
                            }
                            st.dispatch.push_back(Dispatch::new(gid, None));
                            announce.push((gid, None));
                        }
                    }
                }
                _ => {
                    // Never routed (or a garbage shard index from a
                    // reconfigured fleet): plain requeue.
                    st.dispatch.push_back(Dispatch::new(gid, None));
                    announce.push((gid, None));
                }
            }
            if job.restart_from.is_some() {
                resumed += 1;
            }
            st.jobs.insert(gid, job);
        }
        st.inflight = st.jobs.len();
    }
    // Re-log the adopted routes under the new epoch and rewrite the
    // log to just the live set — takeover is the natural compaction
    // point.
    if let Some(rl) = &shared.route_log {
        if let Err(e) = rl.compact(&live_routes) {
            eprintln!("ugd-gateway: route log compaction failed: {e}");
        }
    }
    for (gid, routed) in &announce {
        let resumed = {
            let st = shared.state.lock().unwrap();
            st.jobs.get(gid).is_some_and(|j| j.restart_from.is_some())
        };
        shared.recovered(resumed).inc();
        shared.events.emit(*gid, JobEventKind::Queued);
        if let Some(shard) = routed {
            shared.events.emit(
                *gid,
                JobEventKind::Routed { shard: shared.config.shards[*shard].name.clone() },
            );
        }
        shared.journal(serde_json::json!({
            "ev": "recover", "gid": gid, "adopted": routed.is_some(),
        }));
    }
    // Become primary BEFORE the adopted trackers start: a tracker's
    // first act is to bail out if this gateway is not primary, and the
    // settle_finished reconcile below can block on shard RPCs for long
    // enough that a tracker spawned here would reliably lose that race
    // and orphan its job (in-flight forever, tracker_spawned left true
    // so the dispatcher never respawns it).
    shared.role_primary.store(true, Ordering::SeqCst);
    shared.series.role.set(1.0);
    for (gid, _) in &announce {
        let spawn = {
            let st = shared.state.lock().unwrap();
            st.jobs.get(gid).is_some_and(|j| j.tracker_spawned)
        };
        if spawn {
            let sh = shared.clone();
            let gid = *gid;
            let _ = std::thread::Builder::new()
                .name(format!("ugw-track-{gid}"))
                .spawn(move || tracker_loop(sh, gid));
        }
    }
    for (gid, shard, local) in reconcile {
        settle_finished(shared, gid, shard, local);
    }
    shared.cv.notify_all();
    (total, resumed)
}

/// A job found terminal on its shard during takeover, with no primary
/// alive to have delivered it: fetch the final event and run the
/// finish sequence — journal line deduped against what the dead
/// primary already wrote, so the merged journals stay exactly-once.
fn settle_finished<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: &Arc<GwShared<Inst, Sub, Sol>>,
    gid: u64,
    shard: usize,
    local: u64,
) {
    let addr = shared.config.shards[shard].addr.clone();
    let terminal = JobClient::<Inst, Sub, Sol>::connect_timeout(&addr, shared.config.probe_timeout)
        .and_then(|mut c| c.watch(local, 0, |_| {}))
        .ok();
    let (state, run_index, kind) = match terminal {
        Some(ev) => match ev.kind {
            JobEventKind::Finished { state, run_index, .. } => (state, run_index, ev.kind),
            // A shard cannot report a terminal job and then stream a
            // non-terminal tail, but fail safe anyway.
            _ => (JobState::Failed, 1, empty_finished(JobState::Failed, 1)),
        },
        // The shard vanished between the snapshot and this fetch: the
        // result is gone with it and the record was never retired, so
        // fail the job rather than invent an answer.
        None => (JobState::Failed, 1, empty_finished(JobState::Failed, 1)),
    };
    let (tenant, family) = {
        let mut st = shared.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&gid) else { return };
        job.state = state;
        job.run_index = run_index;
        let meta =
            (job.tenant.clone(), job.spec.family.clone().unwrap_or_else(|| "unknown".into()));
        st.inflight -= 1;
        meta
    };
    shared.record_finish(gid, &tenant, &family, state, run_index);
    shared.events.emit(gid, JobEventKind::Queued);
    shared.events.emit(gid, kind);
}

/// Steps down after a newer epoch fenced this gateway: drop every
/// in-memory job (the new primary replayed them from the shared
/// ledger) and return to standby. Watchers see their streams end and
/// reconnect through the client's gateway fallback list.
fn demote<Inst, Sub, Sol: Clone>(shared: &GwShared<Inst, Sub, Sol>, usurper_epoch: u64) {
    shared.role_primary.store(false, Ordering::SeqCst);
    shared.lease_epoch.store(0, Ordering::SeqCst);
    if let Some(ha) = &shared.ha {
        ha.lock().unwrap().lease = None;
    }
    {
        let mut st = shared.state.lock().unwrap();
        st.jobs.clear();
        st.dispatch.clear();
        st.inflight = 0;
    }
    shared.fenced.store(false, Ordering::SeqCst);
    shared.journal(serde_json::json!({ "ev": "demote", "usurper_epoch": usurper_epoch }));
    shared.series.role.set(0.0);
    shared.cv.notify_all();
    shared.events.clear();
}

/// The HA election thread. Primary: renew at TTL/4 (backstop for the
/// health sweep's inline renewal) and step down the moment a higher
/// epoch shows up — on disk or via a shard's `Fenced` answer. Standby:
/// poll the lease and race to claim once it expires.
fn lease_loop<Inst: WireType, Sub: WireType, Sol: WireType>(shared: Arc<GwShared<Inst, Sub, Sol>>) {
    let ttl = shared.config.lease_ttl.expect("lease loop requires HA");
    // Tick fast enough to renew well inside the TTL, but never slower
    // than 1 s: a *released* lease (graceful drain handover) must be
    // picked up promptly even under a long TTL.
    let tick = (ttl / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
    while !shared.shutdown.load(Ordering::SeqCst) {
        let Some(dir) = &shared.lease_dir else { return };
        if shared.is_primary() {
            if shared.fenced.load(Ordering::SeqCst) {
                let usurper = dir.read().map(|l| l.epoch).unwrap_or(0);
                demote(&shared, usurper);
            } else {
                let ours = shared.lease_epoch.load(Ordering::SeqCst);
                match dir.read() {
                    Some(cur) if cur.epoch > ours => demote(&shared, cur.epoch),
                    _ => renew_lease(&shared),
                }
            }
        } else if !shared.draining.load(Ordering::SeqCst) {
            let free = match dir.read() {
                Some(cur) => cur.expired_at(ledger::unix_ms_now()),
                None => true,
            };
            if free {
                if let Ok(Some(lease)) = dir.claim(&shared.config.ha_owner, ttl) {
                    promote(&shared, lease);
                }
            }
        }
        std::thread::sleep(tick);
    }
}

/// One lease renewal write (no-op unless primary with a lease) —
/// called from the health sweep and the lease thread.
fn renew_lease<Inst, Sub, Sol>(shared: &GwShared<Inst, Sub, Sol>) {
    let (Some(ha), Some(dir)) = (&shared.ha, &shared.lease_dir) else { return };
    let mut inner = ha.lock().unwrap();
    if let Some(lease) = inner.lease.as_mut() {
        if dir.renew(lease).is_ok() {
            inner.last_renewed = Instant::now();
            drop(inner);
            shared.series.lease_renewals.inc();
        }
    }
}

// ---------------------------------------------------------------------
// Admission + submit
// ---------------------------------------------------------------------

fn reject<Inst, Sub, Sol: Clone>(
    shared: &GwShared<Inst, Sub, Sol>,
    tenant: &str,
    reason: &'static str,
) {
    shared.rejected(reason).inc();
    shared.journal(serde_json::json!({ "ev": "reject", "tenant": tenant, "reason": reason }));
}

fn gw_submit<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: &GwShared<Inst, Sub, Sol>,
    spec: JobSpec<Inst, Sub>,
) -> io::Result<Result<u64, &'static str>> {
    let t0 = Instant::now();
    let tenant = spec.tenant.clone().unwrap_or_else(|| "default".into());
    let family = spec.family.clone().unwrap_or_else(|| "unknown".into());
    let quota =
        shared.config.tenant_quotas.get(&tenant).or(shared.config.default_quota.as_ref()).copied();
    // Admission and id assignment are one critical section: N racing
    // submits cannot all pass the capacity check and then overshoot
    // `max_inflight`, because each one *reserves* its inflight slot
    // (and its tenant token) before the lock drops. The write-ahead
    // fsync happens outside the lock — every submitter syncs its own
    // record file, so concurrent submits do not serialize on the disk —
    // and a failed write rolls the reservation and the token back.
    let gid = {
        let mut st = shared.state.lock().unwrap();
        if st.inflight >= shared.config.max_inflight {
            drop(st);
            reject(shared, &tenant, "capacity");
            return Ok(Err("capacity"));
        }
        if let Some(quota) = &quota {
            let now = Instant::now();
            let mut tenants = shared.tenants.lock().unwrap();
            let bucket = tenants.entry(tenant.clone()).or_insert_with(|| Bucket::new(quota, now));
            if !bucket.try_take(quota, now) {
                drop(tenants);
                drop(st);
                reject(shared, &tenant, "quota");
                return Ok(Err("quota"));
            }
        }
        let gid = st.next_gid;
        st.next_gid += 1;
        st.inflight += 1;
        gid
    };
    // Same write-ahead discipline as the server: durable before the
    // ack, so neither a gateway crash nor the reclaim window of a later
    // steal can lose an acknowledged job. The gid is not in `st.jobs`
    // yet, but the client cannot name it before the ack either.
    if let Some(ledger) = &shared.ledger {
        if let Err(e) = ledger.record_submitted(gid, &spec) {
            // The submit is answered with an Error: release the
            // reserved slot and put the tenant's token back — a failed
            // disk must not bill the bucket for a job never accepted.
            // (The gid itself is burned; ids need not be dense.)
            shared.state.lock().unwrap().inflight -= 1;
            if let Some(quota) = &quota {
                if let Some(b) = shared.tenants.lock().unwrap().get_mut(&tenant) {
                    b.tokens = (b.tokens + 1.0).min(quota.burst);
                }
            }
            return Err(e);
        }
    }
    {
        let mut st = shared.state.lock().unwrap();
        let run_index = spec
            .restart_from
            .as_deref()
            .and_then(ledger::checkpoint_meta)
            .map_or(1, |(run, _)| run + 1);
        let restart_from = spec.restart_from.clone();
        st.jobs.insert(gid, GwJob::queued(spec, restart_from, run_index));
        st.dispatch.push_back(Dispatch::new(gid, None));
    };
    shared.submitted(&family).inc();
    shared.events.emit(gid, JobEventKind::Queued);
    shared.journal(serde_json::json!({ "ev": "submit", "gid": gid, "tenant": tenant }));
    shared.series.submit_ack.observe(t0.elapsed().as_secs_f64());
    shared.cv.notify_all();
    Ok(Ok(gid))
}

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

/// Picks the healthy shard that wins the weighted rendezvous for `gid`.
fn pick_shard<Inst, Sub, Sol>(shared: &GwShared<Inst, Sub, Sol>, gid: u64) -> Option<usize> {
    let health = shared.health.lock().unwrap();
    let mut best: Option<(usize, f64)> = None;
    for (i, h) in health.iter().enumerate() {
        if !h.alive {
            continue;
        }
        let w = health_weight(h.queue_depth, h.workers_busy);
        let score = rendezvous_score(gid, &shared.config.shards[i].name, w);
        if best.is_none_or(|(_, s)| score > s) {
            best = Some((i, score));
        }
    }
    best.map(|(i, _)| i)
}

/// The shard connection pool (DESIGN §5f).
impl<Inst: WireType, Sub: WireType, Sol: WireType> GwShared<Inst, Sub, Sol> {
    /// The pool's dial path, bounded by `probe_timeout`.
    fn dial(&self, shard: usize) -> io::Result<ShardConn<Inst, Sub, Sol>> {
        self.pools[shard].dials.inc();
        let addr = &self.config.shards[shard].addr;
        let client = JobClient::connect_timeout(addr, self.config.probe_timeout)?;
        Ok(ShardConn { client, announced: 0, reused: false })
    }

    /// Borrows a connection to `shard` whose reads time out after
    /// `read_timeout`: the chaos gate first, then an idle connection
    /// or a fresh dial. Hand it back with [`Self::give_back`] after a
    /// completed exchange; drop it otherwise.
    fn borrow(
        &self,
        shard: usize,
        read_timeout: Duration,
    ) -> io::Result<ShardConn<Inst, Sub, Sol>> {
        self.chaos_check()?;
        let pool = &self.pools[shard];
        let idle = pool.idle.lock().unwrap().pop();
        let conn = match idle {
            Some(conn) => {
                pool.reused.inc();
                ShardConn { reused: true, ..conn }
            }
            None => self.dial(shard)?,
        };
        conn.client.set_read_timeout(read_timeout)?;
        Ok(conn)
    }

    fn give_back(&self, shard: usize, conn: ShardConn<Inst, Sub, Sol>) {
        let mut idle = self.pools[shard].idle.lock().unwrap();
        if idle.len() < POOL_IDLE_MAX {
            idle.push(conn);
        }
    }

    /// Whether `e` on `conn` may only say that a pooled connection went
    /// stale (the shard closed it, typically by restarting) — a timeout
    /// or a fencing refusal is the live shard's own answer. If so its
    /// idle siblings, which date from the same shard process, are
    /// dropped, and the caller retries once on a fresh dial before the
    /// failure counts against the shard.
    fn went_stale(&self, shard: usize, conn: &ShardConn<Inst, Sub, Sol>, e: &io::Error) -> bool {
        let stale = conn.reused
            && fenced_epoch(e).is_none()
            && !matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut);
        if stale {
            self.pools[shard].idle.lock().unwrap().clear();
        }
        stale
    }

    /// `req` on `conn` under this gateway's fencing token: the lease
    /// epoch is announced on a connection before its first exchange,
    /// and again once a promote has moved it. `Fenced` — to either —
    /// comes back as the fencing error.
    fn exchange(
        &self,
        conn: &mut ShardConn<Inst, Sub, Sol>,
        req: &ClientRequest<Inst, Sub>,
    ) -> io::Result<ServerReply<Sol>> {
        let epoch = self.lease_epoch.load(Ordering::SeqCst);
        if epoch > 0 && epoch != conn.announced {
            conn.client.announce_gateway_epoch(epoch)?;
            conn.announced = epoch;
        }
        match conn.client.request(req)? {
            ServerReply::Fenced { epoch } => Err(fenced_io_error(epoch)),
            reply => Ok(reply),
        }
    }

    /// One request/reply exchange with `shard` on a pooled connection.
    /// A fencing refusal (a newer lease epoch exists) marks this
    /// gateway deposed.
    fn shard_rpc(
        &self,
        shard: usize,
        req: &ClientRequest<Inst, Sub>,
    ) -> io::Result<ServerReply<Sol>> {
        let mut conn = self.borrow(shard, self.config.probe_timeout)?;
        let reply = loop {
            match self.exchange(&mut conn, req) {
                // At most once: a dialled connection is not `reused`.
                Err(e) if self.went_stale(shard, &conn, &e) => conn = self.dial(shard)?,
                reply => break reply,
            }
        };
        let reply = reply.inspect_err(|e| {
            if let Some(newer) = fenced_epoch(e) {
                self.note_fenced(newer);
            }
        })?;
        self.give_back(shard, conn);
        Ok(reply)
    }

    /// Parks `gid`'s dispatch entry for a health interval — the health
    /// loop sorts the fleet out meanwhile — without holding up the
    /// entries behind it.
    fn park(&self, gid: u64) {
        let retry_at = Some(Instant::now() + self.config.health_interval);
        self.state.lock().unwrap().dispatch.push_back(Dispatch { gid, target: None, retry_at });
    }
}

/// Routes queued dispatch entries to shards, one at a time: clone the
/// spec (with the freshest `restart_from`), pick a target, submit over
/// a pooled connection, then record the route and make sure a tracker
/// thread is watching. Failures park the entry for a retry — a job is
/// never dropped between the gateway's ledger and a shard's.
fn dispatcher_loop<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: Arc<GwShared<Inst, Sub, Sol>>,
) {
    loop {
        let entry = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let mut wait = Duration::from_millis(200);
                // A standby's dispatch queue is empty; gate anyway so a
                // freshly deposed primary stops routing immediately.
                if shared.is_primary() {
                    let now = Instant::now();
                    let due = |d: &Dispatch| d.retry_at.is_none_or(|at| at <= now);
                    if let Some(i) = st.dispatch.iter().position(due) {
                        break st.dispatch.remove(i).expect("position is in range");
                    }
                    // Only parked entries: sleep until the first is due.
                    if let Some(at) = st.dispatch.iter().filter_map(|d| d.retry_at).min() {
                        wait = wait.min(at - now);
                    }
                }
                st = shared.cv.wait_timeout(st, wait).unwrap().0;
            }
        };
        let Dispatch { gid, target, .. } = entry;
        let (spec, epoch) = {
            let st = shared.state.lock().unwrap();
            let Some(job) = st.jobs.get(&gid) else { continue };
            if job.state.is_terminal() {
                continue;
            }
            let mut spec = job.spec.clone();
            spec.restart_from = job.restart_from.clone();
            (spec, job.epoch)
        };
        // A failed-over job must not fan out wider than its chain: its
        // resumed run reuses the original worker request.
        let target = target
            .filter(|&t| shared.health.lock().unwrap()[t].alive)
            .or_else(|| pick_shard(&shared, gid));
        let Some(target) = target else {
            // No healthy shard right now.
            shared.park(gid);
            continue;
        };
        let resumed = spec.restart_from.is_some();
        let outcome =
            shared.shard_rpc(target, &ClientRequest::Submit { spec }).and_then(submit_outcome);
        match outcome {
            Ok(SubmitOutcome::Accepted(local)) => {
                let spawn_tracker = {
                    let mut st = shared.state.lock().unwrap();
                    let Some(job) = st.jobs.get_mut(&gid) else { continue };
                    // Only the dispatcher assigns routes and a queued
                    // entry has none, so the epoch cannot have moved —
                    // checked anyway: a stale submit must be cancelled,
                    // not recorded.
                    if job.epoch != epoch || job.state.is_terminal() {
                        drop(st);
                        let _ = shared.shard_rpc(target, &ClientRequest::Cancel { job: local });
                        continue;
                    }
                    job.route = Some(Route { shard: target, local });
                    // A new shard-local job means a new event log that
                    // starts at seq 0 — the tracker must not skip it.
                    job.next_shard_seq = 0;
                    let spawn = !job.tracker_spawned;
                    job.tracker_spawned = true;
                    spawn
                };
                // Durable before the `Routed` announcement: a standby
                // replaying this log must find every route a client
                // could have observed.
                if let Some(rl) = &shared.route_log {
                    let ep = shared.lease_epoch.load(Ordering::SeqCst);
                    if let Err(e) = rl.record_route(gid, target, local, ep) {
                        eprintln!("ugd-gateway: route log append failed for job {gid}: {e}");
                    }
                }
                shared.events.emit(
                    gid,
                    JobEventKind::Routed { shard: shared.config.shards[target].name.clone() },
                );
                shared.journal(serde_json::json!({
                    "ev": "route", "gid": gid, "shard": shared.config.shards[target].name,
                    "local": local, "resumed": resumed,
                }));
                if spawn_tracker {
                    let sh = shared.clone();
                    std::thread::Builder::new()
                        .name(format!("ugw-track-{gid}"))
                        .spawn(move || tracker_loop(sh, gid))
                        .expect("spawn tracker thread");
                }
                shared.cv.notify_all();
            }
            // Shard draining, dead or unreachable.
            Ok(SubmitOutcome::Rejected(_)) | Err(_) => shared.park(gid),
        }
    }
}

// ---------------------------------------------------------------------
// Trackers: one thread per in-flight job
// ---------------------------------------------------------------------

/// Follows `gid` wherever routing sends it: watches the owning shard's
/// event stream, rewrites local ids to the gateway id, and appends to
/// the gateway's log. When the route changes (steal, failover) the
/// stale stream is abandoned — the epoch check makes delivered events
/// from a disowned shard inert, including its `Cancelled` terminal from
/// a reclaim.
fn tracker_loop<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: Arc<GwShared<Inst, Sub, Sol>>,
    gid: u64,
) {
    'routes: loop {
        // Wait for a current route (or terminality).
        let (shard, local, epoch, from_seq) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) || !shared.is_primary() {
                    return;
                }
                let Some(job) = st.jobs.get(&gid) else { return };
                if job.state.is_terminal() {
                    return;
                }
                if let Some(r) = &job.route {
                    break (r.shard, r.local, job.epoch, job.next_shard_seq);
                }
                st = shared.cv.wait_timeout(st, Duration::from_millis(200)).unwrap().0;
            }
        };
        let mut conn = match shared.borrow(shard, WATCH_WAKE) {
            Ok(conn) => conn,
            Err(_) => {
                // Injected link fault, or the shard is unreachable (the
                // dial gives up after `probe_timeout`): back off, then
                // re-resolve — failover may have re-routed meanwhile.
                std::thread::sleep(Duration::from_millis(100));
                continue 'routes;
            }
        };
        let mut reply = conn.client.request(&ClientRequest::Watch { job: local, from_seq });
        loop {
            match reply {
                Ok(ServerReply::Event { event }) => {
                    let finished = matches!(event.kind, JobEventKind::Finished { .. });
                    if !deliver(&shared, gid, epoch, event) {
                        // `Finished` completes the stream and puts the
                        // shard back in its request loop: only then may
                        // the connection serve someone else. A stream
                        // abandoned mid-way (stale epoch) takes it along.
                        if finished {
                            shared.give_back(shard, conn);
                        }
                        continue 'routes;
                    }
                }
                Ok(_) => {
                    // Error reply (shard restarted and forgot the job):
                    // re-resolve the route.
                    std::thread::sleep(Duration::from_millis(100));
                    continue 'routes;
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    // Stale? (steal/failover bumped the epoch)
                    let st = shared.state.lock().unwrap();
                    match st.jobs.get(&gid) {
                        Some(job) if job.epoch == epoch && !job.state.is_terminal() => {}
                        _ => continue 'routes,
                    }
                }
                Err(e) => {
                    // A pooled connection that went stale is retried at
                    // once, on a dial; anything else backs off first.
                    if !shared.went_stale(shard, &conn, &e) {
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    continue 'routes;
                }
            }
            reply = conn.client.read_reply();
        }
    }
}

/// Applies one shard event to the gateway's view of `gid`. Returns
/// false when the tracker must abandon this stream (stale epoch or
/// terminal). Holding `epoch` fixed across the whole delivery makes a
/// steal linearizable: the steal bumps the epoch *before* it reclaims,
/// so the reclaim's `Cancelled` terminal can never be mistaken for the
/// job's real end.
fn deliver<Inst, Sub, Sol: Clone>(
    shared: &GwShared<Inst, Sub, Sol>,
    gid: u64,
    epoch: u64,
    event: JobEvent<Sol>,
) -> bool {
    // A deposed primary must not consume events: the new lease holder
    // owns this job's ledger record and journal lines now.
    if !shared.still_primary() {
        return false;
    }
    let mut st = shared.state.lock().unwrap();
    let Some(job) = st.jobs.get_mut(&gid) else { return false };
    if job.epoch != epoch || job.state.is_terminal() {
        return false;
    }
    // Consumed under the owning epoch: the reconnect cursor moves past
    // this event so a later `Watch` never re-delivers it.
    job.next_shard_seq = job.next_shard_seq.max(event.seq + 1);
    let lease_ep = shared.lease_epoch.load(Ordering::SeqCst);
    match &event.kind {
        // The gateway emitted its own Queued at submit; the shard's
        // (and its re-runs after a steal) would just repeat it.
        JobEventKind::Queued => true,
        JobEventKind::Finished { state, run_index, .. } => {
            job.state = *state;
            job.run_index = *run_index;
            let tenant = job.tenant.clone();
            let family = job.spec.family.clone().unwrap_or_else(|| "unknown".into());
            st.inflight -= 1;
            drop(st);
            // Takeover-safe terminal sequence — the order is load-
            // bearing (see DESIGN §5f): (1) fsync the cursor past the
            // terminal, (2) the journal line, (3) ledger retirement.
            // Whatever prefix a crash leaves, the next promote either
            // finds the record retired (done), or reconciles it
            // against the shard and the journal dedup set — never a
            // lost or double-counted finish.
            if let Some(rl) = &shared.route_log {
                let _ = rl.record_cursor(gid, event.seq + 1, lease_ep, true);
            }
            shared.record_finish(gid, &tenant, &family, *state, *run_index);
            if let Some(t) = &shared.tuner {
                let before = t.model_version();
                t.job_finished();
                let after = t.model_version();
                if after != before {
                    shared.journal(serde_json::json!({
                        "ev": "tuner_model", "version": after,
                    }));
                }
            }
            shared.events.emit(gid, event.kind);
            shared.cv.notify_all();
            false
        }
        _ => {
            if let JobEventKind::Recovered { run_index, .. } = &event.kind {
                job.run_index = *run_index;
            }
            let mut started_at = None;
            if let JobEventKind::Started { .. } = &event.kind {
                job.state = JobState::Running;
                if let Some(r) = &job.route {
                    started_at = Some((r.shard, r.local));
                }
            }
            let durable = matches!(
                &event.kind,
                JobEventKind::Started { .. } | JobEventKind::Recovered { .. }
            );
            drop(st);
            // Run-boundary events move the durable cursor so a
            // takeover resumes the stream without replaying them;
            // progress ticks between boundaries are cheap to re-fetch
            // and not worth an fsync each.
            if durable {
                if let Some(rl) = &shared.route_log {
                    let _ = rl.record_cursor(gid, event.seq + 1, lease_ep, true);
                }
            }
            if let Some((shard, local)) = started_at {
                let name = &shared.config.shards[shard].name;
                let key = format!("{gid}/{name}/{local}");
                if !shared.prior_started.lock().unwrap().contains(&key) {
                    shared.journal(serde_json::json!({
                        "ev": "started", "gid": gid, "shard": name, "local": local,
                    }));
                }
            }
            shared.events.emit(gid, event.kind);
            true
        }
    }
}

// ---------------------------------------------------------------------
// Health loop: polling, failover, stealing
// ---------------------------------------------------------------------

fn health_loop<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: Arc<GwShared<Inst, Sub, Sol>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        if !shared.is_primary() {
            // A standby does not poll: its view rebuilds on promote,
            // and polling from two gateways would double the load the
            // shards see.
            shared.pause_health_loop();
            continue;
        }
        let mut newly_dead = Vec::new();
        let mut revived = Vec::new();
        for i in 0..shared.config.shards.len() {
            let addr = shared.config.shards[i].addr.clone();
            // The chaos gate sits on the poll like on any other
            // gateway→shard RPC — an injected partition looks exactly
            // like a dead shard and drives real failovers.
            let poll = shared
                .chaos_check()
                .and_then(|()| poll_shard::<Inst, Sub, Sol>(&addr, shared.config.probe_timeout));
            let mut health = shared.health.lock().unwrap();
            let h = &mut health[i];
            match poll {
                Ok(p) => {
                    h.last_ok = Instant::now();
                    h.queue_depth = p.queue_depth;
                    h.workers_busy = p.workers_busy;
                    h.pool_workers = p.pool_workers;
                    h.jobs_running = p.jobs_running;
                    h.queued_local = p.queued_local;
                    if !h.alive {
                        // The shard came back (a fresh instance on the
                        // same address): route to it again.
                        h.alive = true;
                        revived.push(i);
                    }
                }
                Err(_) => {
                    if h.alive && h.last_ok.elapsed() > shared.config.shard_liveness {
                        h.alive = false;
                        newly_dead.push(i);
                    }
                }
            }
            let healthy = health.iter().filter(|h| h.alive).count();
            drop(health);
            shared.series.shards_healthy.set(healthy as f64);
        }
        // The sweep is the lease's natural heartbeat; the dedicated
        // lease thread is the backstop when a sweep stalls on slow
        // polls.
        renew_lease(&shared);
        for shard in newly_dead {
            if shared.still_primary() {
                fail_over(&shared, shard);
            }
        }
        for shard in revived {
            if shared.still_primary() {
                rejoin_migrate(&shared, shard);
            }
        }
        if shared.config.steal_margin > 0 && shared.still_primary() {
            maybe_steal(&shared);
        }
        shared.pause_health_loop();
    }
}

struct ShardPoll {
    queue_depth: u64,
    workers_busy: u64,
    pool_workers: u64,
    jobs_running: u64,
    queued_local: Vec<u64>,
}

/// One bounded health poll: the shard's exposition (for the gauges the
/// steal and routing decisions read) plus its status (for the queued
/// local ids steals pick victims from).
fn poll_shard<Inst: WireType, Sub: WireType, Sol: WireType>(
    addr: &str,
    timeout: Duration,
) -> io::Result<ShardPoll> {
    let mut client = JobClient::<Inst, Sub, Sol>::connect_timeout(addr, timeout)?;
    let report = client.metrics()?;
    let status = client.status()?;
    Ok(ShardPoll {
        queue_depth: telemetry::sample_sum(&report.text, "ugrs_server_queue_depth") as u64,
        workers_busy: telemetry::sample_sum(&report.text, "ugrs_server_workers_busy") as u64,
        pool_workers: telemetry::sample_sum(&report.text, "ugrs_server_pool_workers") as u64,
        jobs_running: telemetry::sample_sum(&report.text, "ugrs_server_jobs_running") as u64,
        queued_local: status.queued,
    })
}

/// The freshest checkpoint `shard` left on disk for its local job,
/// when its state dir is reachable and the file holds a usable one.
fn shard_checkpoint(shard: &ShardSpec, local: u64) -> Option<String> {
    let path = shard.state_dir.as_ref()?.join("checkpoints").join(format!("job-{local}.json"));
    ledger::read_state_text(&path).ok().filter(|json| ledger::checkpoint_meta(json).is_some())
}

/// A shard died: every job routed to it goes back through dispatch.
/// Jobs that were mid-run resume from the dead shard's last on-disk
/// checkpoint (when its state dir is reachable) as run `1.k` — the
/// fleet-level replay of the server's own crash recovery.
fn fail_over<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: &Arc<GwShared<Inst, Sub, Sol>>,
    shard: usize,
) {
    let spec = &shared.config.shards[shard];
    let orphans: Vec<(u64, u64, u64)> = {
        let st = shared.state.lock().unwrap();
        st.jobs
            .iter()
            .filter(|(_, j)| !j.state.is_terminal())
            .filter_map(|(gid, j)| {
                j.route.as_ref().filter(|r| r.shard == shard).map(|r| (*gid, r.local, j.epoch))
            })
            .collect()
    };
    shared.journal(serde_json::json!({
        "ev": "shard_dead", "shard": spec.name, "orphans": orphans.len(),
    }));
    for (gid, local, epoch) in orphans {
        // Checkpoint replay: the dead shard's coordinator saved its
        // primitive nodes every checkpoint interval; the freshest save
        // is the resume point.
        let checkpoint = shard_checkpoint(spec, local);
        let resumed = checkpoint.is_some();
        {
            let mut st = shared.state.lock().unwrap();
            let Some(job) = st.jobs.get_mut(&gid) else { continue };
            if job.epoch != epoch || job.state.is_terminal() {
                continue; // moved or finished while we read the disk
            }
            job.epoch += 1;
            job.route = None;
            job.state = JobState::Queued;
            if let Some(cp) = checkpoint {
                job.restart_from = Some(cp);
            }
            st.dispatch.push_back(Dispatch::new(gid, None));
        }
        if let Some(rl) = &shared.route_log {
            let _ = rl.record_unroute(gid, shared.lease_epoch.load(Ordering::SeqCst));
        }
        shared.series.failed_over.inc();
        shared.journal(serde_json::json!({
            "ev": "failover", "gid": gid, "from": spec.name, "resumed": resumed,
        }));
    }
    shared.cv.notify_all();
}

/// Moves one job the gateway believes queued on `from` to `to`, under
/// the disown-first epoch-bump protocol that linearizes the migration
/// against the job's tracker — see [`deliver`]. Returns true when the
/// job actually moved (the reclaim landed before the shard started
/// it).
fn migrate_queued<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: &Arc<GwShared<Inst, Sub, Sol>>,
    gid: u64,
    local: u64,
    epoch: u64,
    from: usize,
    to: usize,
) -> bool {
    // Disown first: from here on every event the old shard still sends
    // (including the reclaim's Cancelled terminal) is stale by epoch.
    {
        let mut st = shared.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&gid) else { return false };
        if job.epoch != epoch || job.state.is_terminal() {
            return false;
        }
        job.epoch += 1;
        job.route = None;
    }
    if let Some(rl) = &shared.route_log {
        let _ = rl.record_unroute(gid, shared.lease_epoch.load(Ordering::SeqCst));
    }
    let reclaimed = shared
        .shard_rpc(from, &ClientRequest::Reclaim { job: local })
        .and_then(cancel_outcome)
        .unwrap_or(false);
    let mut st = shared.state.lock().unwrap();
    let Some(job) = st.jobs.get_mut(&gid) else { return false };
    // The disown window is not exclusive: while the route was empty a
    // cancel can take the undispatched path (terminal `Cancelled`,
    // inflight released, ledger retired). Requeueing now would
    // resurrect an acknowledged-cancelled job — and underflow the
    // inflight meter at its second terminal. Nothing else may bump the
    // epoch either (defense in depth: a concurrent owner means this
    // migration lost).
    if job.epoch != epoch + 1 || job.state.is_terminal() {
        drop(st);
        if !reclaimed {
            // The reclaim was refused, so the job still runs on the
            // old shard even though the gateway already answered its
            // terminal — forward the cancel instead of restoring the
            // route (best-effort: the shard's pool should not keep
            // burning on a job nobody is waiting for).
            let _ = shared.shard_rpc(from, &ClientRequest::Cancel { job: local });
        }
        shared.cv.notify_all();
        return false;
    }
    if reclaimed {
        job.state = JobState::Queued;
        st.dispatch.push_back(Dispatch::new(gid, Some(to)));
        drop(st);
    } else {
        // The job started (or finished) before the reclaim landed: it
        // stays where it is. The route returns under the *new* epoch,
        // so its tracker reconnects and resumes the stream from
        // `next_shard_seq` — the delivery cursor did not move for
        // anything the disown window discarded, so those events are
        // re-fetched exactly once, not the whole log again.
        job.route = Some(Route { shard: from, local });
        drop(st);
        if let Some(rl) = &shared.route_log {
            let _ = rl.record_route(gid, from, local, shared.lease_epoch.load(Ordering::SeqCst));
        }
    }
    shared.cv.notify_all();
    reclaimed
}

/// Batch work stealing: if some healthy shard idles while another's
/// queue is at least `steal_margin` deep, move `min(gap/2,
/// steal_batch)` queued jobs per sweep (gap = the depth difference),
/// each under the epoch-bump protocol of [`migrate_queued`].
fn maybe_steal<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: &Arc<GwShared<Inst, Sub, Sol>>,
) {
    let (idle, victim, victim_queued, gap) = {
        let health = shared.health.lock().unwrap();
        let idle = health
            .iter()
            .enumerate()
            .position(|(_, h)| h.alive && h.queue_depth == 0 && h.workers_busy < h.pool_workers);
        let victim = health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.alive && h.queue_depth >= shared.config.steal_margin)
            .max_by_key(|(_, h)| h.queue_depth)
            .map(|(i, _)| i);
        match (idle, victim) {
            (Some(i), Some(v)) if i != v => {
                let gap = health[v].queue_depth - health[i].queue_depth;
                (i, v, health[v].queued_local.clone(), gap)
            }
            _ => return,
        }
    };
    let batch = (gap / 2).min(shared.config.steal_batch).max(1) as usize;
    // Map the victim's queued local ids back to gateway jobs, oldest
    // first, up to the batch size.
    let picked: Vec<(u64, u64, u64)> = {
        let st = shared.state.lock().unwrap();
        victim_queued
            .iter()
            .filter_map(|&local| {
                st.jobs.iter().find_map(|(gid, j)| {
                    (!j.state.is_terminal()
                        && j.route.map(|r| r.shard == victim && r.local == local).unwrap_or(false))
                    .then_some((*gid, local, j.epoch))
                })
            })
            .take(batch)
            .collect()
    };
    for (gid, local, epoch) in picked {
        if !shared.still_primary() {
            return;
        }
        if migrate_queued(shared, gid, local, epoch, victim, idle) {
            shared.series.stolen.inc();
            shared.journal(serde_json::json!({
                "ev": "steal", "gid": gid,
                "from": shared.config.shards[victim].name, "to": shared.config.shards[idle].name,
            }));
        }
    }
}

/// Shard rejoin migration: a shard that was dead is answering polls
/// again, so hand it back the *queued* jobs that only sit elsewhere
/// because it was gone — exactly those whose weighted rendezvous pick
/// is the revived shard, which bounds the transfer to its fair share.
/// Running jobs are never moved (their progress lives where they
/// run); undispatched jobs need nothing, the dispatcher's next pick
/// already sees the shard alive.
fn rejoin_migrate<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: &Arc<GwShared<Inst, Sub, Sol>>,
    revived: usize,
) {
    // Snapshot which (shard, local) pairs are still queued shard-side:
    // only those can move — a reclaim of anything else is refused.
    let queued_elsewhere: Vec<Vec<u64>> = {
        let health = shared.health.lock().unwrap();
        health.iter().map(|h| h.queued_local.clone()).collect()
    };
    let candidates: Vec<(u64, u64, u64, usize)> = {
        let st = shared.state.lock().unwrap();
        st.jobs
            .iter()
            .filter(|(_, j)| !j.state.is_terminal())
            .filter_map(|(gid, j)| {
                let r = j.route?;
                if r.shard == revived || !queued_elsewhere[r.shard].contains(&r.local) {
                    return None;
                }
                (pick_shard(shared, *gid) == Some(revived))
                    .then_some((*gid, r.local, j.epoch, r.shard))
            })
            .collect()
    };
    for (gid, local, epoch, from) in candidates {
        if !shared.still_primary() {
            return;
        }
        if migrate_queued(shared, gid, local, epoch, from, revived) {
            shared.series.rejoined.inc();
            shared.journal(serde_json::json!({
                "ev": "rejoin", "gid": gid,
                "from": shared.config.shards[from].name,
                "to": shared.config.shards[revived].name,
            }));
        }
    }
}

// ---------------------------------------------------------------------
// Client connections
// ---------------------------------------------------------------------

impl<Inst: WireType, Sub: WireType, Sol: WireType> RequestHandler for GwShared<Inst, Sub, Sol> {
    type Inst = Inst;
    type Sub = Sub;
    type Conn = ();

    fn shutdown(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn handle(
        &self,
        _conn: &mut (),
        req: ClientRequest<Inst, Sub>,
        out: &mut TcpStream,
    ) -> io::Result<bool> {
        let reply: ServerReply<Sol> = match req {
            ClientRequest::Submit { spec } => {
                // Drain and role come before admission: a draining or
                // standby gateway turns submits away with a reason the
                // client's fallback list knows to route around.
                let turn_away = if self.draining.load(Ordering::SeqCst) {
                    Some("draining")
                } else if !self.is_primary() {
                    Some("standby")
                } else {
                    None
                };
                if let Some(reason) = turn_away {
                    reject(self, spec.tenant.as_deref().unwrap_or("default"), reason);
                    ServerReply::Rejected { reason: reason.into() }
                } else {
                    match gw_submit(self, spec) {
                        Ok(Ok(job)) => ServerReply::Submitted { job },
                        Ok(Err(reason)) => ServerReply::Rejected { reason: reason.into() },
                        Err(e) => {
                            ServerReply::Error { message: format!("ledger write failed: {e}") }
                        }
                    }
                }
            }
            // Epoch announcements address shards; a gateway is the
            // announcer, never the announced-to.
            ClientRequest::GatewayEpoch { .. } => ServerReply::Error {
                message: "gateway epochs fence shards; a gateway does not accept them".into(),
            },
            ClientRequest::Cancel { job } => {
                ServerReply::CancelResult { job, ok: gw_cancel(self, job) }
            }
            ClientRequest::Reclaim { .. } => ServerReply::Error {
                message: "a gateway steals for itself; Reclaim addresses shards".into(),
            },
            ClientRequest::Watch { job, from_seq } => {
                let gone = |mid_watch: bool| {
                    if mid_watch {
                        // A demotion cleared the logs: the client fails
                        // over to the new primary instead of hanging.
                        format!("job {job} is no longer tracked here (gateway standby)")
                    } else if self.ha.is_some() {
                        // Under HA an unknown gid is indistinguishable
                        // from a job that finished and *retired* under a
                        // previous primary: its ledger record is gone, so
                        // takeover replay never saw it, and its event log
                        // died with the old process. Answer the
                        // takeover-aware message so clients stop retrying
                        // and fall back to the journals, which hold its
                        // finish line.
                        format!(
                            "job {job} is no longer tracked here (retired under an earlier primary?)"
                        )
                    } else {
                        format!("unknown job {job}")
                    }
                };
                self.events.stream(out, &self.shutdown, job, from_seq, gone)?;
                return Ok(true);
            }
            ClientRequest::Status => ServerReply::Status { status: gw_status(self) },
            ClientRequest::Metrics => ServerReply::Metrics { report: gw_metrics(self) },
            ClientRequest::Fleet => ServerReply::Fleet { fleet: gw_fleet(self) },
            ClientRequest::Shutdown => {
                wire::write_msg(out, &ServerReply::<Sol>::ShuttingDown)?;
                self.begin_shutdown();
                return Ok(false);
            }
        };
        wire::write_msg(out, &reply)?;
        Ok(true)
    }
}

/// Cancels a gateway job wherever it is: still in the dispatch queue
/// (finish it locally) or routed (forward the cancel; the shard's
/// terminal event comes back through the tracker).
fn gw_cancel<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: &GwShared<Inst, Sub, Sol>,
    gid: u64,
) -> bool {
    if !shared.is_primary() {
        return false;
    }
    enum Where {
        Unknown,
        Undispatched { run_index: u32, family: String },
        Routed { shard: usize, local: u64 },
    }
    let location = {
        let mut st = shared.state.lock().unwrap();
        match st.jobs.get_mut(&gid) {
            None => Where::Unknown,
            Some(job) if job.state.is_terminal() => Where::Unknown,
            Some(job) => match &job.route {
                Some(r) => Where::Routed { shard: r.shard, local: r.local },
                None => {
                    job.state = JobState::Cancelled;
                    let run_index = job.run_index;
                    let family = job.spec.family.clone().unwrap_or_else(|| "unknown".into());
                    st.dispatch.retain(|d| d.gid != gid);
                    st.inflight -= 1;
                    Where::Undispatched { run_index, family }
                }
            },
        }
    };
    match location {
        Where::Unknown => false,
        Where::Undispatched { run_index, family } => {
            shared.retire(gid, JobState::Cancelled, &family);
            shared.events.emit(gid, empty_finished(JobState::Cancelled, run_index));
            shared.cv.notify_all();
            true
        }
        Where::Routed { shard, local } => shared
            .shard_rpc(shard, &ClientRequest::Cancel { job: local })
            .and_then(cancel_outcome)
            .unwrap_or(false),
    }
}

/// Synthesizes a [`ServerStatus`] from the fleet view so status-only
/// tooling works unchanged against a gateway: `pool_target` aggregates
/// the shards' pools, `queued` is the dispatch queue, and each job row
/// reports the gateway's lifecycle view.
fn gw_status<Inst, Sub, Sol>(shared: &GwShared<Inst, Sub, Sol>) -> ServerStatus {
    let pool_target = {
        let health = shared.health.lock().unwrap();
        health.iter().map(|h| h.pool_workers as usize).sum()
    };
    let st = shared.state.lock().unwrap();
    let jobs = st
        .jobs
        .iter()
        .map(|(gid, j)| JobSummary {
            job: *gid,
            name: j.spec.name.clone(),
            state: j.state,
            priority: j.spec.priority,
            num_solvers: j.spec.num_solvers,
            run_index: j.run_index,
            open_nodes: None,
        })
        .collect();
    ServerStatus {
        pool_target,
        workers: Vec::new(),
        queued: st.dispatch.iter().map(|d| d.gid).collect(),
        jobs,
    }
}

fn gw_metrics<Inst, Sub, Sol>(shared: &GwShared<Inst, Sub, Sol>) -> MetricsReport {
    let jobs: Vec<crate::server::JobProgress> = {
        let st = shared.state.lock().unwrap();
        shared
            .metrics
            .gauge("ugrs_gateway_inflight", "Accepted jobs not yet terminal")
            .set(st.inflight as f64);
        shared
            .metrics
            .gauge("ugrs_gateway_dispatch_depth", "Jobs waiting in the dispatch queue")
            .set(st.dispatch.len() as f64);
        st.jobs
            .iter()
            .map(|(gid, j)| crate::server::JobProgress {
                job: *gid,
                name: j.spec.name.clone(),
                state: j.state,
                progress: None,
            })
            .collect()
    };
    let mut text = shared.metrics.render();
    telemetry::global().render_into(&mut text);
    MetricsReport { text, jobs }
}

fn gw_fleet<Inst, Sub, Sol>(shared: &GwShared<Inst, Sub, Sol>) -> FleetStatus {
    let shards = {
        let health = shared.health.lock().unwrap();
        shared
            .config
            .shards
            .iter()
            .zip(health.iter())
            .map(|(s, h)| ShardSummary {
                name: s.name.clone(),
                addr: s.addr.clone(),
                healthy: h.alive,
                queue_depth: h.queue_depth,
                workers_busy: h.workers_busy,
                pool_workers: h.pool_workers,
                jobs_running: h.jobs_running,
                last_heard_ms: h.last_ok.elapsed().as_millis() as u64,
            })
            .collect()
    };
    let (inflight, dispatch_depth, families) = {
        let st = shared.state.lock().unwrap();
        let mut families = std::collections::BTreeMap::new();
        for j in st.jobs.values() {
            let label = j.spec.family.clone().unwrap_or_else(|| "unknown".into());
            *families.entry(label).or_insert(0u64) += 1;
        }
        (st.inflight, st.dispatch.len(), families)
    };
    FleetStatus {
        shards,
        inflight,
        dispatch_depth,
        families,
        stolen_total: shared.series.stolen.get(),
        failed_over_total: shared.series.failed_over.get(),
        rejected_total: REJECT_REASONS.iter().map(|reason| shared.rejected(reason).get()).sum(),
        ha_role: if shared.ha.is_some() {
            if shared.is_primary() {
                "primary".into()
            } else {
                "standby".into()
            }
        } else {
            "single".into()
        },
        ha_epoch: shared.lease_epoch.load(Ordering::SeqCst),
        lease_renewals_total: shared.series.lease_renewals.get(),
        failovers_total: shared.series.failovers.get(),
        fenced_rpcs_total: shared.series.fenced_rpcs.get(),
        rejoined_total: shared.series.rejoined.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize) -> GatewayConfig {
        GatewayConfig {
            shards: (0..n)
                .map(|i| ShardSpec::new(format!("shard-{i}"), format!("127.0.0.1:{}", 7000 + i)))
                .collect(),
            ..GatewayConfig::default()
        }
    }

    #[test]
    fn validate_catches_bad_configs() {
        assert!(config(3).validate().is_ok());
        assert!(config(0).validate().is_err(), "empty fleet");
        let mut dup = config(2);
        dup.shards[1].name = dup.shards[0].name.clone();
        assert!(dup.validate().is_err(), "duplicate names");
        let mut tight = config(2);
        tight.shard_liveness = tight.health_interval * 2;
        assert!(tight.validate().is_err(), "liveness must exceed 2x poll interval");
        let mut zero = config(1);
        zero.max_inflight = 0;
        assert!(zero.validate().is_err());
        let mut quota = config(1);
        quota.default_quota = Some(TenantQuota { rate: 0.0, burst: 4.0 });
        assert!(quota.validate().is_err(), "rate must be positive");
        let mut quota = config(1);
        quota.tenant_quotas.insert("t".into(), TenantQuota { rate: 1.0, burst: 0.5 });
        assert!(quota.validate().is_err(), "burst below one token never admits");
    }

    fn pick(job: u64, names: &[&str], weights: &[f64]) -> usize {
        let mut best = (0, f64::NEG_INFINITY);
        for (i, name) in names.iter().enumerate() {
            let s = rendezvous_score(job, name, weights[i]);
            if s > best.1 {
                best = (i, s);
            }
        }
        best.0
    }

    #[test]
    fn rendezvous_balances_equal_weights() {
        let names = ["alpha", "beta", "gamma"];
        let weights = [1.0, 1.0, 1.0];
        let mut counts = [0usize; 3];
        for job in 0..3000u64 {
            counts[pick(job, &names, &weights)] += 1;
        }
        for c in counts {
            assert!((700..=1300).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn rendezvous_removal_only_remaps_the_lost_shard() {
        let names = ["alpha", "beta", "gamma"];
        let weights = [1.0, 1.0, 1.0];
        for job in 0..2000u64 {
            let with_all = pick(job, &names, &weights);
            // Drop "beta": jobs not on beta must keep their shard.
            let reduced = pick(job, &["alpha", "gamma"], &[1.0, 1.0]);
            let reduced_name = ["alpha", "gamma"][reduced];
            if names[with_all] != "beta" {
                assert_eq!(
                    names[with_all], reduced_name,
                    "job {job} moved although its shard survived"
                );
            }
        }
    }

    #[test]
    fn rendezvous_weight_steers_load() {
        let names = ["busy", "idle"];
        // The busy shard has a deep queue; the idle one is empty.
        let weights = [health_weight(8, 4), health_weight(0, 0)];
        let mut counts = [0usize; 2];
        for job in 0..2000u64 {
            counts[pick(job, &names, &weights)] += 1;
        }
        assert!(counts[1] > counts[0] * 3, "idle shard should win the large majority: {counts:?}");
    }

    #[test]
    fn token_bucket_enforces_burst_and_refill() {
        let quota = TenantQuota { rate: 10.0, burst: 3.0 };
        let t0 = Instant::now();
        let mut b = Bucket::new(&quota, t0);
        assert!(b.try_take(&quota, t0));
        assert!(b.try_take(&quota, t0));
        assert!(b.try_take(&quota, t0));
        assert!(!b.try_take(&quota, t0), "burst of 3 admits exactly 3 instant submits");
        // 100 ms at 10 tokens/s refills one token.
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.try_take(&quota, t1));
        assert!(!b.try_take(&quota, t1));
        // Refill never exceeds the burst capacity.
        let t2 = t1 + Duration::from_secs(60);
        let mut took = 0;
        while b.try_take(&quota, t2) {
            took += 1;
        }
        assert_eq!(took, 3, "a long idle period refills to burst, not beyond");
    }

    #[test]
    fn health_weight_decreases_with_load() {
        assert!(health_weight(0, 0) > health_weight(0, 2));
        assert!(health_weight(0, 2) > health_weight(5, 2));
        assert!(health_weight(100, 100) > 0.0);
    }

    // -----------------------------------------------------------------
    // The service hop, against scripted shards
    // -----------------------------------------------------------------

    type Req = ClientRequest<u32, u32>;
    type Reply = ServerReply<u32>;
    type Gw = Gateway<u32, u32, u32>;

    /// A scripted shard: every request on every connection is logged
    /// with its connection number and arrival time, then answered by
    /// the script (`None` = stay silent). Its threads end with the
    /// test process.
    struct FakeShard {
        addr: String,
        log: Arc<Mutex<Vec<(usize, Req, Instant)>>>,
    }

    impl FakeShard {
        /// The logged requests `keep` selects, with their connections.
        fn seen(&self, keep: impl Fn(&Req) -> bool) -> Vec<(usize, Req)> {
            let log = self.log.lock().unwrap();
            log.iter().filter(|(_, r, _)| keep(r)).map(|(c, r, _)| (*c, r.clone())).collect()
        }
    }

    fn fake_shard(script: impl Fn(&Req) -> Option<Reply> + Send + Sync + 'static) -> FakeShard {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let log = Arc::new(Mutex::new(Vec::new()));
        let script = Arc::new(script);
        let shard = FakeShard { addr, log: log.clone() };
        std::thread::spawn(move || {
            for (conn, stream) in listener.incoming().enumerate() {
                let Ok(mut stream) = stream else { return };
                let (log, script) = (log.clone(), script.clone());
                std::thread::spawn(move || {
                    let mut reader = stream.try_clone().unwrap();
                    let mut dec = wire::FrameDecoder::new();
                    while let Ok(Some(req)) = wire::read_msg::<Req, _>(&mut reader, &mut dec) {
                        log.lock().unwrap().push((conn, req.clone(), Instant::now()));
                        if let Some(reply) = script(&req) {
                            if wire::write_msg(&mut stream, &reply).is_err() {
                                return;
                            }
                        }
                    }
                });
            }
        });
        shard
    }

    /// Accepts every submit under job id 7, acks epochs and cancels,
    /// never emits a job event; health polls get an error (the shard
    /// stays "alive" on its start-up grace).
    fn accepting(req: &Req) -> Option<Reply> {
        match req {
            Req::Submit { .. } => Some(Reply::Submitted { job: 7 }),
            Req::GatewayEpoch { epoch } => Some(Reply::GatewayEpochAck { epoch: *epoch }),
            Req::Cancel { job } | Req::Reclaim { job } => {
                Some(Reply::CancelResult { job: *job, ok: false })
            }
            Req::Watch { .. } => None,
            _ => Some(Reply::Error { message: "scripted shard".into() }),
        }
    }

    /// A gateway over `addrs` whose health loop keeps out of the way:
    /// one sweep at start, the next after the test is long over.
    fn quiet_gateway(addrs: &[&str], probe_timeout: Duration) -> Gw {
        Gw::start(GatewayConfig {
            shards: addrs
                .iter()
                .enumerate()
                .map(|(i, addr)| ShardSpec::new(format!("s{i}"), *addr))
                .collect(),
            health_interval: Duration::from_secs(20),
            shard_liveness: Duration::from_secs(60),
            probe_timeout,
            steal_margin: 0,
            ..GatewayConfig::default()
        })
        .expect("gateway start")
    }

    fn wait_until(what: &str, timeout: Duration, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + timeout;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// One refusing shard used to put the single dispatcher thread to
    /// sleep for a health interval per refusal, with every job for the
    /// healthy shard queued behind it.
    #[test]
    fn a_refusing_shard_does_not_hold_up_jobs_for_a_healthy_one() {
        let up = fake_shard(accepting);
        let down = fake_shard(|req| match req {
            Req::Submit { .. } => Some(Reply::Rejected { reason: "draining".into() }),
            other => accepting(other),
        });
        // Job 0, the head of the queue, goes to the refusing shard.
        let names = ["s0", "s1"];
        let down_idx = pick(0, &names, &[1.0, 1.0]);
        let mut addrs = [up.addr.as_str(); 2];
        addrs[down_idx] = &down.addr;
        let gw = quiet_gateway(&addrs, Duration::from_secs(1));
        let shared = &gw.shared;

        let jobs = 10u64;
        for gid in 0..jobs {
            let spec = JobSpec::new(format!("j{gid}"), 0u32, 0u32);
            assert_eq!(gw_submit(shared, spec).unwrap(), Ok(gid));
        }
        let for_down: Vec<u64> =
            (0..jobs).filter(|&g| pick(g, &names, &[1.0, 1.0]) == down_idx).collect();
        assert!(for_down.contains(&0) && for_down.len() < jobs as usize, "{for_down:?}");

        // Far inside the 20 s health interval a failed submit parks
        // its entry for: every job for the healthy shard is routed.
        wait_until("the healthy shard's jobs to be routed", Duration::from_secs(5), || {
            let st = shared.state.lock().unwrap();
            (0..jobs).filter(|g| !for_down.contains(g)).all(|g| st.jobs[&g].route.is_some())
        });
        let refused = down.seen(|r| matches!(r, Req::Submit { .. }));
        assert_eq!(refused.len(), for_down.len(), "each refused job was tried once, none retried");
        let st = shared.state.lock().unwrap();
        assert!(for_down.iter().all(|g| st.jobs[g].route.is_none()));
        assert_eq!(st.dispatch.len(), for_down.len(), "the refused jobs are parked, not lost");
        assert!(st.dispatch.iter().all(|d| d.retry_at.is_some()));
        drop(st);
        gw.shutdown_and_join();
    }

    /// The health loop used to sleep its interval out uninterruptibly,
    /// so joining a gateway took up to a whole interval; it now waits on
    /// the condvar `begin_shutdown` notifies.
    #[test]
    fn shutdown_and_join_does_not_wait_out_the_health_interval() {
        let shard = fake_shard(accepting);
        let gw = Gw::start(GatewayConfig {
            shards: vec![ShardSpec::new("s0", shard.addr.as_str())],
            health_interval: Duration::from_secs(5),
            shard_liveness: Duration::from_secs(60),
            ..GatewayConfig::default()
        })
        .expect("gateway start");
        // The first sweep is under way or over: whether the shutdown
        // finds the loop before or inside its pause, the pause must end.
        wait_until("the first health poll", Duration::from_secs(5), || {
            !shard.seen(|r| matches!(r, Req::Metrics)).is_empty()
        });
        let t0 = Instant::now();
        gw.shutdown_and_join();
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(200), "joining took {took:?}");
    }

    /// The pool's borrow/return rule under a moving lease epoch: one
    /// connection serves successive RPCs, announces the epoch once,
    /// announces it again after a promote moved it, and a `Fenced`
    /// reply deposes the gateway and retires the connection.
    #[test]
    fn pooled_connections_are_reused_and_reannounce_a_moved_epoch() {
        let shard = fake_shard(|req| match req {
            Req::Cancel { job: 99 } => Some(Reply::Fenced { epoch: 9 }),
            other => accepting(other),
        });
        let gw = quiet_gateway(&[&shard.addr], Duration::from_secs(1));
        let shared = &gw.shared;
        let cancel = |job| shared.shard_rpc(0, &Req::Cancel { job });

        shared.lease_epoch.store(1, Ordering::SeqCst);
        cancel(1).unwrap();
        cancel(2).unwrap();
        shared.lease_epoch.store(2, Ordering::SeqCst);
        cancel(3).unwrap();
        let pool = &shared.pools[0];
        assert_eq!((pool.dials.get(), pool.reused.get()), (1, 2));

        let traffic = shard.seen(|r| matches!(r, Req::Cancel { .. } | Req::GatewayEpoch { .. }));
        let conn = traffic[0].0;
        assert!(traffic.iter().all(|(c, _)| *c == conn), "one connection: {traffic:?}");
        let kinds: Vec<String> = traffic
            .iter()
            .map(|(_, r)| match r {
                Req::GatewayEpoch { epoch } => format!("epoch {epoch}"),
                Req::Cancel { job } => format!("cancel {job}"),
                other => panic!("filtered out: {other:?}"),
            })
            .collect();
        assert_eq!(kinds, ["epoch 1", "cancel 1", "cancel 2", "epoch 2", "cancel 3"]);

        let err = cancel(99).expect_err("the shard follows a newer epoch");
        assert_eq!(fenced_epoch(&err), Some(9));
        assert!(shared.fenced.load(Ordering::SeqCst), "a Fenced reply deposes the gateway");
        assert!(pool.idle.lock().unwrap().is_empty(), "the fenced connection is not returned");
        gw.shutdown_and_join();
    }

    /// A listener that answers no SYN: its accept queue is full and
    /// nobody accepts, so the kernel drops further handshakes the way
    /// a dead host's network does. `None` where that cannot be set up
    /// (descriptor limit below the listen backlog).
    fn black_hole() -> Option<(std::net::TcpListener, Vec<TcpStream>)> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").ok()?;
        let addr = listener.local_addr().ok()?;
        let mut filler = Vec::new();
        for _ in 0..10_000 {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(150)) {
                Ok(conn) => filler.push(conn),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return Some((listener, filler)),
                Err(_) => return None,
            }
        }
        None
    }

    /// The tracker used to dial with an unbounded `connect`: a shard
    /// whose host stopped answering pinned it for the OS connect
    /// timeout (minutes), and a re-route was not picked up before.
    #[test]
    fn a_tracker_stuck_on_a_black_holed_shard_follows_a_reroute() {
        let Some((hole, _filler)) = black_hole() else {
            eprintln!("skipped: cannot build a black-hole listener here");
            return;
        };
        let hole_addr = hole.local_addr().unwrap().to_string();
        let up = fake_shard(accepting);
        let probe_timeout = Duration::from_millis(500);
        let gw = quiet_gateway(&[&hole_addr, &up.addr], probe_timeout);
        let shared = gw.shared.clone();

        // A job routed to the black hole, as after a submit that just
        // made it before the host went away.
        let gid = 0;
        {
            let mut st = shared.state.lock().unwrap();
            let mut job = GwJob::queued(JobSpec::new("j", 0u32, 0u32), None, 1);
            job.route = Some(Route { shard: 0, local: 3 });
            job.tracker_spawned = true;
            st.jobs.insert(gid, job);
            st.inflight += 1;
        }
        let tracker = {
            let shared = shared.clone();
            std::thread::spawn(move || tracker_loop(shared, gid))
        };
        // The tracker is inside its dial when failover re-routes.
        std::thread::sleep(Duration::from_millis(150));
        let rerouted = Instant::now();
        {
            let mut st = shared.state.lock().unwrap();
            let job = st.jobs.get_mut(&gid).unwrap();
            job.epoch += 1;
            job.route = Some(Route { shard: 1, local: 7 });
        }
        shared.cv.notify_all();

        let watched = |r: &Req| matches!(r, Req::Watch { job: 7, .. });
        // The rest of the bounded dial, the 100 ms back-off, and slack.
        let bound = probe_timeout + Duration::from_millis(100) + Duration::from_millis(100);
        wait_until("the tracker to watch the new route", Duration::from_secs(10), || {
            !up.seen(watched).is_empty()
        });
        let took = up.log.lock().unwrap().iter().find(|(_, r, _)| watched(r)).unwrap().2 - rerouted;
        assert!(took < bound, "the tracker followed the re-route after {took:?}");

        gw.shutdown_and_join();
        tracker.join().unwrap();
    }
}
