//! The job-serving subsystem: a persistent solve service with a shared
//! worker pool — `ugd-server`'s core.
//!
//! PR 1's [`crate::runner::solve_parallel_distributed`] spawns and reaps
//! an entire worker fleet *per call*. The deployment model of the paper
//! (ParaSCIP on a standing HLRN III allocation, Table 2's multi-run
//! restart chains) presumes the opposite: a long-lived coordinator that
//! amortizes worker startup across many solves. This module provides
//! that layer:
//!
//! * a [`Server`] accepts **jobs** (instance + root subproblem +
//!   limits) from clients over the same length-prefixed wire codec the
//!   transport already uses, and holds a standing pool of worker
//!   processes that survive across jobs;
//! * a **scheduler** leases free pool workers to queued jobs by
//!   (priority, FIFO) order, bounded by `max_concurrent_jobs`; each
//!   running job gets its own [`crate::supervisor::LoadCoordinator`]
//!   driving its leased workers through a [`JobComm`] — the third
//!   [`crate::comm::LcComm`] back-end;
//! * jobs move through a lifecycle `Queued → Running → {Solved,
//!   Infeasible, TimedOut, Cancelled, Failed}` ([`JobState`]), with
//!   progress streamed to watching clients as [`JobEvent`]s;
//! * a worker that dies mid-job is reported to that job's coordinator
//!   as [`Message::WorkerDied`] (triggering the existing requeue path)
//!   *and* replaced by a pool-refill respawn, so the server degrades
//!   gracefully instead of shrinking forever.
//!
//! Wire protocols ([`crate::wire`]): clients speak
//! [`ClientRequest`]/[`ServerReply`] and pool workers handshake with
//! [`PoolHello`]/[`PoolWelcome`], all as length-prefixed JSON frames;
//! after its handshake a pool connection carries
//! [`PoolDown`]/[`PoolUp`] in the same checksummed binary frames as a
//! per-call worker session. The pool keeps no retransmit ring — a torn
//! connection is recovered by replacing the worker — so downward
//! frames go out unsequenced ([`wire::frame_unseq`]); upward frames are
//! numbered, and the server applies the session's duplicate/gap rule
//! to them ([`Endpoint::on_header`]). The `Begin` frame carrying the
//! instance is encoded **once** per job and the same bytes are written
//! to every leased worker — the instance never re-serializes per rank.

use crate::chaos::{self, FrameFaults};
use crate::comm::LcComm;
use crate::ledger::JobLedger;
use crate::messages::Message;
use crate::process::{require_revision, Arrival, Endpoint, ProcessCommConfig, PROTOCOL_VERSION};
use crate::rpc::{
    accept_loop, empty_finished, serve_clients, state_label, wake_listener, EventLog,
    RequestHandler,
};
use crate::runner::{ParallelOptions, ParallelResult, RampUp};
use crate::settings::SolverSettings;
use crate::supervisor::LoadCoordinator;
use crate::telemetry::{self, MetricsRegistry, ProgressMsg, ProgressSink, TelemetrySink};
use crate::wire::{self, FrameDecoder};
use crate::worker::{solve_and_report, BaseSolver, SolverFactory, Uplink};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Everything that crosses a wire in this module: the bound shared by
/// instance, subproblem and solution types.
pub trait WireType: Clone + Send + Serialize + DeserializeOwned + 'static {}
impl<T: Clone + Send + Serialize + DeserializeOwned + 'static> WireType for T {}

/// Bumped on any change to the pool or client protocol; a mismatch at
/// handshake drops the connection instead of desynchronizing the pool.
pub const POOL_PROTOCOL_VERSION: u32 = 5;

// ---------------------------------------------------------------------
// Pool protocol (server ⇄ standing workers)
// ---------------------------------------------------------------------

/// First frame of a connecting pool worker.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PoolHello {
    /// Must equal [`POOL_PROTOCOL_VERSION`].
    pub protocol: u32,
    /// The spawn tag the server passed on the command line, so the
    /// server can marry the connection back to the `Child` it spawned.
    /// `None` for externally started workers.
    pub tag: Option<u64>,
    /// The worker's OS pid (reported even when externally started, so
    /// `ServerStatus` can expose it for targeted kills in tests).
    pub pid: Option<u32>,
    /// The wire revision the worker speaks after the welcome; anything
    /// but [`PROTOCOL_VERSION`] (or nothing) is refused, as on the
    /// per-call path.
    #[serde(default)]
    pub max_protocol: Option<u32>,
}

/// The server's handshake answer: the worker's permanent pool id.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PoolWelcome {
    /// The pool id every later frame names.
    pub worker: u64,
    /// The wire revision of every later frame; the worker refuses
    /// anything but [`PROTOCOL_VERSION`] (or nothing).
    #[serde(default)]
    pub protocol: Option<u32>,
}

/// Server → worker frames after the handshake.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum PoolDown<Inst, Sub, Sol> {
    /// A new job starts on this worker: load the instance. Encoded once
    /// per job; every leased worker receives the identical bytes.
    Begin {
        /// The job the following frames belong to.
        job: u64,
        /// The instance the worker builds its base solver from.
        instance: Inst,
    },
    /// A coordination message of the named job, verbatim.
    Ug {
        /// The addressed job.
        job: u64,
        /// The coordinator's message to this worker.
        msg: Message<Sub, Sol>,
    },
}

/// Worker → server frames after the handshake.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum PoolUp<Sub, Sol> {
    /// Keep-alive, independent of solving.
    Ping {
        /// The sending worker's pool id.
        worker: u64,
    },
    /// A coordination message of the named job. The worker always says
    /// rank 0 about itself; the server rewrites the rank from its lease
    /// table before forwarding to the job's coordinator.
    Ug {
        /// The job this message belongs to.
        job: u64,
        /// The sending worker's pool id.
        worker: u64,
        /// The worker's message to the coordinator.
        msg: Message<Sub, Sol>,
    },
    /// The worker acknowledged the job's `Terminate` and is free again.
    /// Leases are only released on this frame, so a worker still
    /// draining one job can never receive the next job's `Begin`.
    JobDone {
        /// The finished job.
        job: u64,
        /// The now-free worker's pool id.
        worker: u64,
    },
}

/// Serialize-only mirror of [`PoolDown::Ug`] without the instance type
/// parameter: [`JobComm`] does not know `Inst`, and the vendored serde
/// has no `Serialize` for `()` to plug the hole with. Externally-tagged
/// encoding makes this byte-identical to `PoolDown::Ug` — keep the
/// variant shape in sync (covered by a unit test below).
#[derive(serde::Serialize)]
enum PoolDownUg<Sub, Sol> {
    Ug { job: u64, msg: Message<Sub, Sol> },
}

// ---------------------------------------------------------------------
// Client protocol
// ---------------------------------------------------------------------

/// A solve job as submitted by a client.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct JobSpec<Inst, Sub> {
    /// Free-form label, echoed in status and events.
    pub name: String,
    /// The solver-independent instance (shipped to every leased worker).
    pub instance: Inst,
    /// The root subproblem handed to the job's coordinator.
    pub root: Sub,
    /// Higher runs first; ties broken FIFO by job id.
    pub priority: i32,
    /// Pool workers to lease (clamped to the pool size).
    pub num_solvers: usize,
    /// Per-job wall-clock limit in seconds.
    pub time_limit: f64,
    /// Per-job B&B node limit.
    pub node_limit: Option<u64>,
    /// The submitting tenant's key, for gateway-side admission control
    /// (token-bucket quotas). `None` is the anonymous default tenant; a
    /// plain server ignores it.
    #[serde(default)]
    pub tenant: Option<String>,
    /// Checkpoint JSON (the format
    /// [`ParallelOptions::restart_from`](crate::ParallelOptions)
    /// accepts) this job resumes from instead of starting fresh — how a
    /// gateway replays a dead shard's interrupted job onto a peer so it
    /// continues as run `1.k` of its restart chain.
    #[serde(default)]
    pub restart_from: Option<String>,
    /// The instance's family label (`stp`, `misdp`, `maxcut`, …), set
    /// by the application's job constructors. Drives the `family` label
    /// on `ugrs_server_jobs_*` / `ugrs_gateway_jobs_*` and the
    /// per-family counts of [`FleetStatus`]. `None` renders as
    /// `unknown`.
    #[serde(default)]
    pub family: Option<String>,
    /// FNV-1a 64 checksum (hex) of the source instance file, stamped by
    /// `ugd submit --file`. WALed with the spec, so the job's ledger
    /// record pins exactly which bytes were solved; also journaled as a
    /// [`TelemetryEvent::JobMeta`](crate::telemetry::TelemetryEvent)
    /// head record of the per-job journal.
    #[serde(default)]
    pub checksum: Option<String>,
    /// Instance size hint in a family-specific unit (STP alive edges,
    /// MISDP variables, max-cut edges), set by the application's job
    /// constructors. Feeds the tuner's size-bucket fingerprint
    /// ([`crate::tuner::fingerprint`]) and the journal head record.
    #[serde(default)]
    pub size_hint: Option<u64>,
}

impl<Inst, Sub> JobSpec<Inst, Sub> {
    /// A spec with default priority 0, two solvers and no limits.
    pub fn new(name: impl Into<String>, instance: Inst, root: Sub) -> Self {
        JobSpec {
            name: name.into(),
            instance,
            root,
            priority: 0,
            num_solvers: 2,
            time_limit: f64::INFINITY,
            node_limit: None,
            tenant: None,
            restart_from: None,
            family: None,
            checksum: None,
            size_hint: None,
        }
    }

    /// The `family` metric-label value (`unknown` when unset).
    pub fn family_label(&self) -> &str {
        self.family.as_deref().unwrap_or("unknown")
    }
}

/// Client → server requests.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum ClientRequest<Inst, Sub> {
    /// Enqueue a job; answered with [`ServerReply::Submitted`].
    Submit {
        /// What to solve and under which limits.
        spec: JobSpec<Inst, Sub>,
    },
    /// Cancel a queued or running job (`ok: false` when already done).
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Stream the job's events starting at `from_seq`; the server keeps
    /// sending until the terminal `Finished` event.
    Watch {
        /// The job to watch.
        job: u64,
        /// First event sequence number to send.
        from_seq: usize,
    },
    /// Snapshot of the pool, the queue and every known job.
    Status,
    /// Prometheus-style exposition + per-job progress snapshots
    /// (powers `ugd top` and external scrapers).
    Metrics,
    /// Take a *queued* job back: the work-stealing primitive. Succeeds
    /// only while the job has not started (its ledger record is retired
    /// and it finishes `Cancelled`); a running or terminal job answers
    /// `ok: false` — the caller must leave it where it is.
    Reclaim {
        /// The job to take back.
        job: u64,
    },
    /// Per-shard fleet snapshot. Answered with [`ServerReply::Fleet`]
    /// by a gateway; a plain server answers with an error.
    Fleet,
    /// Announces the sender's gateway lease epoch for this connection —
    /// the **fencing handshake** of gateway HA (PROTOCOL.md §gateway
    /// epoch). The server remembers the highest epoch it has ever
    /// seen; a connection announced under a lower epoch belongs to a
    /// deposed primary, is answered [`ServerReply::Fenced`], and every
    /// later mutating request (`Submit`/`Cancel`/`Reclaim`) on it is
    /// fenced too. Connections that never announce (plain `ugd`
    /// clients) are unaffected.
    GatewayEpoch {
        /// The sender's lease epoch (its fencing token).
        epoch: u64,
    },
    /// Stop the server: cancel the queue, drain running jobs.
    Shutdown,
}

/// Server → client replies.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum ServerReply<Sol> {
    /// The job was accepted (and, with a ledger, durably recorded).
    Submitted {
        /// The id all later requests use.
        job: u64,
    },
    /// Answer to [`ClientRequest::Cancel`].
    CancelResult {
        /// The job the cancel addressed.
        job: u64,
        /// False when the job was already terminal or unknown.
        ok: bool,
    },
    /// One event of a watched job's log.
    Event {
        /// The event, with its dense sequence number.
        event: JobEvent<Sol>,
    },
    /// Answer to [`ClientRequest::Status`].
    Status {
        /// The snapshot.
        status: ServerStatus,
    },
    /// Answer to [`ClientRequest::Metrics`].
    Metrics {
        /// Exposition text plus structured per-job snapshots.
        report: MetricsReport,
    },
    /// The server acknowledged [`ClientRequest::Shutdown`].
    ShuttingDown,
    /// The submit was refused by admission control (HTTP 429's moral
    /// equivalent): no job id was assigned, nothing was queued or made
    /// durable. The connection stays usable; the client may retry later.
    Rejected {
        /// Why: `"quota"` (tenant token bucket empty), `"capacity"`
        /// (global in-flight bound reached) or `"draining"`.
        reason: String,
    },
    /// Answer to [`ClientRequest::Fleet`]: the gateway's per-shard view.
    Fleet {
        /// Per-shard health and counters.
        fleet: FleetStatus,
    },
    /// Answer to [`ClientRequest::GatewayEpoch`] when the announced
    /// epoch is current: the server accepted the fencing token.
    GatewayEpochAck {
        /// The highest gateway epoch the server now knows.
        epoch: u64,
    },
    /// The request came from a gateway whose lease epoch is stale — a
    /// standby took over since. The deposed sender must stop mutating
    /// the fleet and demote itself; the connection stays usable for
    /// read-only requests.
    Fenced {
        /// The highest gateway epoch the server knows (the usurper's).
        epoch: u64,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Answer to [`ClientRequest::Fleet`]: one row per shard plus the
/// gateway's own counters — what `ugd fleet` renders.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FleetStatus {
    /// One row per configured shard.
    pub shards: Vec<ShardSummary>,
    /// Jobs accepted by the gateway and not yet terminal.
    pub inflight: usize,
    /// Jobs waiting in the gateway's dispatch queue (not yet routed).
    pub dispatch_depth: usize,
    /// Queued jobs migrated off a deep shard onto an idle one, total.
    pub stolen_total: u64,
    /// Jobs replayed from a dead shard's ledger state onto a peer.
    pub failed_over_total: u64,
    /// Submissions refused by admission control, total.
    pub rejected_total: u64,
    /// Jobs known to the gateway per instance family label
    /// (`stp`/`misdp`/`maxcut`/`unknown`), terminal ones included —
    /// the per-family row of `ugd fleet`. Defaults empty when talking
    /// to an older gateway.
    #[serde(default)]
    pub families: std::collections::BTreeMap<String, u64>,
    /// HA role: `"primary"`, `"standby"`, or `"solo"` (HA off).
    /// Defaults empty when talking to an older gateway.
    #[serde(default)]
    pub ha_role: String,
    /// The gateway's current lease epoch (0 when HA is off or the
    /// gateway is a standby that has not claimed yet).
    #[serde(default)]
    pub ha_epoch: u64,
    /// Lease renewals written by this gateway while primary.
    #[serde(default)]
    pub lease_renewals_total: u64,
    /// Times this gateway took over a lapsed primary's lease.
    #[serde(default)]
    pub failovers_total: u64,
    /// RPCs of this gateway that a shard refused as stale-epoch.
    #[serde(default)]
    pub fenced_rpcs_total: u64,
    /// Queued jobs migrated back to a revived shard (rejoin).
    #[serde(default)]
    pub rejoined_total: u64,
}

/// One shard's row in a [`FleetStatus`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ShardSummary {
    /// The shard's configured name.
    pub name: String,
    /// The shard's client address.
    pub addr: String,
    /// False once the liveness sweep declared the shard dead.
    pub healthy: bool,
    /// Jobs waiting in the shard's scheduler queue
    /// (`ugrs_server_queue_depth` from its exposition).
    pub queue_depth: u64,
    /// Pool workers currently leased (`ugrs_server_workers_busy`).
    pub workers_busy: u64,
    /// Connected pool workers (`ugrs_server_pool_workers`).
    pub pool_workers: u64,
    /// Jobs currently running (`ugrs_server_jobs_running`).
    pub jobs_running: u64,
    /// Milliseconds since the shard last answered a health poll.
    pub last_heard_ms: u64,
}

/// The live view of one job, as returned by [`ClientRequest::Metrics`]:
/// its lifecycle state plus the coordinator's freshest progress
/// snapshot (absent until the job first reports, and for queued jobs).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct JobProgress {
    /// The job id.
    pub job: u64,
    /// The job's label.
    pub name: String,
    /// Lifecycle state at snapshot time.
    pub state: JobState,
    /// Freshest coordinator progress, if the job ever reported.
    pub progress: Option<ProgressMsg>,
}

/// Reply payload of [`ClientRequest::Metrics`]: the full Prometheus
/// text exposition (server registry + process-wide registry + per-job
/// series) and structured per-job snapshots.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MetricsReport {
    /// Prometheus-style text exposition.
    pub text: String,
    /// Structured per-job progress snapshots.
    pub jobs: Vec<JobProgress>,
}

/// The job lifecycle: `Queued → Running →` one terminal state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JobState {
    /// Waiting for workers (or for its turn under `max_jobs`).
    Queued,
    /// Leased workers are solving it.
    Running,
    /// Search space exhausted with a solution: proven optimal.
    Solved,
    /// Search space exhausted without a solution.
    Infeasible,
    /// Stopped on the wall-clock or node limit.
    TimedOut,
    /// Cancelled by a client (queued or mid-run) or by shutdown.
    Cancelled,
    /// Every leased worker died before the job could finish.
    Failed,
}

impl JobState {
    /// True once the job can never change state again.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One entry of a job's append-only event log. `seq` is dense from 0,
/// so a watcher can resume with `Watch { from_seq }` after a dropped
/// connection without missing or repeating events.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct JobEvent<Sol> {
    /// The job this event belongs to.
    pub job: u64,
    /// Dense per-job sequence number, from 0.
    pub seq: usize,
    /// What happened.
    pub kind: JobEventKind<Sol>,
}

/// What happened. Progress events (`Incumbent`, `Bound`) are deduped:
/// only strict improvements are logged.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum JobEventKind<Sol> {
    /// The job entered the queue.
    Queued,
    /// The job survived a server restart: its ledger record was found
    /// by the recovery pass and it is back in the queue. `run_index` is
    /// the run the next start will report — 1 when the job is requeued
    /// from scratch, `k + 1` when it resumes run `k`'s checkpoint with
    /// `nodes_so_far` cumulative B&B nodes already banked.
    Recovered {
        /// Run index of the upcoming run (Table 2's `1.k`).
        run_index: u32,
        /// Cumulative chain nodes carried into the resumed run.
        nodes_so_far: u64,
    },
    /// A gateway routed (or re-routed) the job to a shard: on initial
    /// dispatch, when its queued self was stolen onto an idler shard,
    /// and when it failed over off a dead shard. Never emitted by a
    /// plain server.
    Routed {
        /// The chosen shard's configured name.
        shard: String,
    },
    /// The job was leased `workers` pool workers and started running.
    Started {
        /// Number of leased workers.
        workers: usize,
    },
    /// An improving incumbent (internal-sense objective).
    Incumbent {
        /// The new best objective.
        obj: f64,
    },
    /// An improving global dual bound (internal sense).
    Bound {
        /// The new global dual bound.
        dual_bound: f64,
    },
    /// A leased worker died mid-job; its work was requeued.
    WorkerLost {
        /// The dead worker's rank within the job.
        rank: usize,
    },
    /// Terminal: the job reached `state`.
    Finished {
        /// The terminal lifecycle state.
        state: JobState,
        /// Best objective found (internal sense), if any.
        obj: Option<f64>,
        /// Proven global dual bound (internal sense).
        dual_bound: f64,
        /// The best solution itself, if any.
        solution: Option<Sol>,
        /// B&B nodes processed by *this* run.
        nodes: u64,
        /// Cumulative B&B nodes across the whole restart chain
        /// (equals `nodes` unless the job resumed a checkpoint).
        nodes_so_far: u64,
        /// Which run of the restart chain this was (1-based).
        run_index: u32,
        /// Primitive nodes left open when the run stopped (0 when the
        /// search space was exhausted).
        open_nodes: u64,
        /// Leased workers that died during the run.
        workers_lost: u64,
        /// Wall-clock seconds of this run.
        wall_time: f64,
        /// The final checkpoint of an unfinished run, serialized as the
        /// JSON that `ParallelOptions::restart_from` accepts — so a
        /// client can resubmit a timed-out job exactly where it stopped.
        final_checkpoint: Option<String>,
    },
}

/// A point-in-time snapshot for `ugd status`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ServerStatus {
    /// Configured pool size (the scheduler refills toward this).
    pub pool_target: usize,
    /// Every connected pool worker and its lease.
    pub workers: Vec<WorkerInfo>,
    /// Job ids still waiting, in submission order.
    pub queued: Vec<u64>,
    /// Every job the server knows, queued through terminal.
    pub jobs: Vec<JobSummary>,
}

/// One pool worker in a [`ServerStatus`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct WorkerInfo {
    /// Permanent pool id.
    pub id: u64,
    /// OS pid, when the worker reported one.
    pub pid: Option<u32>,
    /// The job this worker is leased to, if any.
    pub job: Option<u64>,
    /// Its rank within that job.
    pub rank: Option<usize>,
    /// True between a job's end and the worker's `JobDone` ack.
    pub draining: bool,
}

/// One job's row in [`ServerStatus`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct JobSummary {
    /// The job id.
    pub job: u64,
    /// The submitted label.
    pub name: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Scheduling priority (higher first).
    pub priority: i32,
    /// Requested worker count.
    pub num_solvers: usize,
    /// Which run of the job's restart chain is current (or upcoming,
    /// for a recovered queued job): 1 unless the server crashed and
    /// resumed this job from a checkpoint — then `k` as in Table 2's
    /// run `1.k`.
    pub run_index: u32,
    /// Open primitive nodes from the job's freshest progress snapshot
    /// (`None` until the coordinator first reports).
    pub open_nodes: Option<u64>,
}

// ---------------------------------------------------------------------
// Server configuration and shared state
// ---------------------------------------------------------------------

/// Tuning of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker executable + fixed leading arguments. The server appends
    /// `--serve --connect <addr> --pool-tag <tag> --status-interval <s>
    /// --heartbeat-ms <ms> --handshake-ms <ms> --liveness-ms <ms>
    /// --reconnect-ms <ms>` per spawn. Leave empty to run with
    /// externally started workers only (no refill).
    pub worker_command: Vec<String>,
    /// Standing pool size the scheduler maintains.
    pub pool_size: usize,
    /// Upper bound on simultaneously running jobs.
    pub max_concurrent_jobs: usize,
    /// Client listener address (`"127.0.0.1:0"` = OS-picked port).
    pub client_addr: String,
    /// Worker listener address.
    pub worker_addr: String,
    /// Transport tuning shared with the per-call distributed runner.
    pub comm: ProcessCommConfig,
    /// `status_interval` handed to each job's coordinator options.
    pub status_interval: f64,
    /// How long a worker may drain (job end → `JobDone`) or a running
    /// job may outlive shutdown before being killed.
    pub drain_timeout: Duration,
    /// When set, each job writes a JSONL run journal to
    /// `<journal_dir>/job-<id>-<name>.jsonl` (created as needed).
    pub journal_dir: Option<std::path::PathBuf>,
    /// When set, the server is **crash-safe**: every submission is
    /// write-ahead-logged to a [`JobLedger`] under this directory
    /// before it is acknowledged, running jobs checkpoint there every
    /// [`Self::checkpoint_interval`] seconds, and a restart against the
    /// same directory requeues pending jobs and resumes interrupted
    /// ones from their latest checkpoint.
    pub state_dir: Option<std::path::PathBuf>,
    /// Seconds between a running job's periodic checkpoints (only with
    /// [`Self::state_dir`]; also the bound on how much solving a crash
    /// can lose). `<= 0` disables periodic saves — a crash then
    /// requeues running jobs from scratch.
    pub checkpoint_interval: f64,
    /// `--compress-state`: write ledger records and job checkpoints
    /// through the [`crate::lz`] container. Readers always auto-detect,
    /// so a state dir may mix compressed and plain entries and the
    /// flag can be flipped (or rolled back) between restarts freely.
    pub compress_state: bool,
    /// Enables the [`crate::tuner`] adaptive-racing policy: multi-
    /// solver jobs race the root under a model-ranked settings roster
    /// (legacy identity roster while the family is unseen), restart
    /// budgets grow when the model predicts a stall, and every
    /// decision is journaled. Requires [`Self::state_dir`] (the model
    /// lives under `<state_dir>/tuner/`) and a
    /// [`Self::racing_settings`] generator. Off by default: jobs ramp
    /// up exactly as before.
    pub adaptive_tuning: bool,
    /// With [`Self::adaptive_tuning`], reload the tuner model from
    /// disk after every this many finished jobs (so an operator's
    /// `ugd tune` pass is picked up without a restart). 0 disables
    /// periodic refresh.
    pub tuner_refresh_jobs: u64,
    /// Racing-roster generator for adaptive tuning: maps an instance
    /// family label and a universe size `n` to `n` settings bundles
    /// (index `i` of the returned vector is settings index `i` in the
    /// tuner model). A plain `fn` pointer so the config stays
    /// `Clone + Debug`. `None` disables adaptive racing even when
    /// [`Self::adaptive_tuning`] is set.
    pub racing_settings: Option<fn(&str, usize) -> Vec<crate::settings::SolverSettings>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            worker_command: Vec::new(),
            pool_size: 4,
            max_concurrent_jobs: 2,
            client_addr: "127.0.0.1:0".into(),
            worker_addr: "127.0.0.1:0".into(),
            comm: ProcessCommConfig::default(),
            status_interval: 0.05,
            drain_timeout: Duration::from_secs(10),
            journal_dir: None,
            state_dir: None,
            checkpoint_interval: 1.0,
            compress_state: false,
            adaptive_tuning: false,
            tuner_refresh_jobs: 32,
            racing_settings: None,
        }
    }
}

/// One admitted pool connection's write half; `None` once retired.
type SharedWriter = Arc<Mutex<Option<TcpStream>>>;

/// Writes one complete downward frame; a failed write retires the
/// writer. False when the connection is (now) gone.
fn write_down(slot: &SharedWriter, frame: &[u8]) -> bool {
    let mut guard = slot.lock().unwrap();
    let Some(stream) = guard.as_mut() else { return false };
    let sent = stream.write_all(frame).and_then(|_| stream.flush()).is_ok();
    if !sent {
        *guard = None;
    }
    sent
}

struct WorkerEntry {
    writer: SharedWriter,
    /// The `Child` when the server spawned this worker itself.
    child: Option<Child>,
    pid: Option<u32>,
    /// `(job, rank)` while leased.
    lease: Option<(u64, usize)>,
    /// Set when the leased job finished; cleared by `JobDone`.
    draining_since: Option<Instant>,
    /// Last frame of any kind (heartbeats included).
    last_heard: Instant,
}

struct PendingSpawn {
    child: Child,
    since: Instant,
}

struct JobRecord<Inst, Sub, Sol> {
    spec: JobSpec<Inst, Sub>,
    state: JobState,
    cancel: Arc<AtomicBool>,
    /// Upward channel into the running job's coordinator.
    inbox: Option<Sender<Message<Sub, Sol>>>,
    /// Checkpoint JSON a recovered job resumes from (taken at start).
    restart_from: Option<String>,
    /// Current (or, while queued, upcoming) run of the restart chain.
    run_index: u32,
}

impl<Inst, Sub, Sol> JobRecord<Inst, Sub, Sol> {
    /// A job entering the queue; `run_index` is its upcoming run.
    fn queued(spec: JobSpec<Inst, Sub>, restart_from: Option<String>, run_index: u32) -> Self {
        JobRecord {
            spec,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            inbox: None,
            restart_from,
            run_index,
        }
    }
}

struct ServerState<Inst, Sub, Sol> {
    workers: HashMap<u64, WorkerEntry>,
    /// Spawned but not yet handshaken, keyed by spawn tag.
    pending: HashMap<u64, PendingSpawn>,
    next_worker_tag: u64,
    /// Waiting job ids in submission order.
    queue: Vec<u64>,
    jobs: BTreeMap<u64, JobRecord<Inst, Sub, Sol>>,
    next_job: u64,
    running: usize,
    shutdown: bool,
}

struct SharedState<Inst, Sub, Sol> {
    state: Mutex<ServerState<Inst, Sub, Sol>>,
    /// Wakes the scheduler (submission, worker change, job end).
    sched: Condvar,
    /// Every job's event log; `Watch` streams from it.
    events: EventLog<Sol>,
    config: ServerConfig,
    /// Resolved worker-listener address workers are spawned against.
    worker_addr: String,
    /// The client and the pool listener's addresses: what
    /// [`initiate_shutdown`] dials to end their accept loops.
    listeners: [SocketAddr; 2],
    shutdown: AtomicBool,
    /// Set by [`Server::drain`]: this shutdown must *preserve* the
    /// ledger records of jobs it stops (they resume on the next server
    /// against the same state dir) instead of retiring them.
    draining: AtomicBool,
    /// Highest gateway lease epoch any connection ever announced
    /// ([`ClientRequest::GatewayEpoch`]); mutating requests announced
    /// under a lower epoch are fenced. Monotonic (`fetch_max`).
    gateway_epoch: AtomicU64,
    /// Freshest per-job [`ProgressMsg`] (fed by each coordinator's
    /// progress sink). Its own lock, never taken while `state` is held.
    progress: Mutex<HashMap<u64, ProgressMsg>>,
    /// Server-scoped metrics (this server's pool/job/heartbeat series;
    /// per-instance so concurrent servers in one process stay isolated).
    /// Rendered together with [`telemetry::global`] on `Metrics`.
    metrics: MetricsRegistry,
    /// The durable job ledger (with `config.state_dir`): submissions
    /// are WAL'd here before being acknowledged, terminal jobs retired.
    ledger: Option<JobLedger>,
    /// The adaptive-racing tuner (with `config.adaptive_tuning` and a
    /// state dir): serves model-ranked rosters to `run_job` and
    /// refreshes its model after every N finished jobs.
    tuner: Option<crate::tuner::TunerService>,
}

/// Everything a job thread needs, collected under the state lock and
/// handed out of it (threads are spawned lock-free in phase B).
struct StartedJob<Inst, Sub, Sol> {
    jid: u64,
    spec: JobSpec<Inst, Sub>,
    cancel: Arc<AtomicBool>,
    writers: Vec<SharedWriter>,
    inbox: Receiver<Message<Sub, Sol>>,
    /// Checkpoint JSON to resume from (recovered jobs only).
    restart_from: Option<String>,
}

// ---------------------------------------------------------------------
// The job-side communicator: LcComm's third back-end
// ---------------------------------------------------------------------

/// The coordinator endpoint of one *job*: sends to its leased pool
/// workers (wrapped as [`PoolDown::Ug`] frames), receives from the
/// inbox the server's pool readers forward into. `WorkerDied` for a
/// lost lease is injected by the server, mirroring what the process
/// transport synthesizes.
pub struct JobComm<Sub, Sol> {
    job: u64,
    writers: Vec<SharedWriter>,
    inbox: Receiver<Message<Sub, Sol>>,
}

impl<Sub, Sol> JobComm<Sub, Sol>
where
    Sub: Serialize + DeserializeOwned,
    Sol: Serialize + DeserializeOwned,
{
    /// Number of leased workers (= the job's solver ranks).
    pub fn num_workers(&self) -> usize {
        self.writers.len()
    }

    /// Sends to the worker leased as `rank`; false when the rank is out
    /// of range or its connection is gone (the writer is retired).
    pub fn send_to(&self, rank: usize, msg: Message<Sub, Sol>) -> bool {
        let Some(slot) = self.writers.get(rank) else { return false };
        write_down(slot, &wire::frame_unseq(&PoolDownUg::Ug { job: self.job, msg }))
    }

    /// Receives the next worker message, waiting at most `d`.
    pub fn recv_timeout(&self, d: Duration) -> Option<Message<Sub, Sol>> {
        match self.inbox.recv_timeout(d) {
            Ok(m) => Some(m),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }
}

/// Rewrites the rank a worker reported (always 0 about itself) to the
/// rank its lease assigns within the job.
fn set_rank<Sub, Sol>(msg: &mut Message<Sub, Sol>, rank: usize) {
    match msg {
        Message::SolutionFound { rank: r, .. }
        | Message::Status { rank: r, .. }
        | Message::ExportedNode { rank: r, .. }
        | Message::Completed { rank: r, .. }
        | Message::WorkerDied { rank: r } => *r = rank,
        _ => {}
    }
}

/// Classifies a finished run into the job lifecycle's terminal states.
fn classify<Sub, Sol>(
    res: &ParallelResult<Sub, Sol>,
    cancelled: bool,
    num_workers: usize,
) -> JobState {
    if res.solved {
        if res.solution.is_some() {
            JobState::Solved
        } else {
            JobState::Infeasible
        }
    } else if cancelled {
        JobState::Cancelled
    } else if res.stats.workers_died >= num_workers as u64 {
        JobState::Failed
    } else {
        // The coordinator only stops unsolved on attrition (above) or on
        // a limit — wall-clock or node count both report TimedOut.
        JobState::TimedOut
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// A running job service: worker pool + scheduler + client listener.
pub struct Server<Inst: WireType, Sub: WireType, Sol: WireType> {
    shared: Arc<SharedState<Inst, Sub, Sol>>,
    client_addr: SocketAddr,
    worker_addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// `(total, resumed-from-checkpoint)` jobs the startup recovery
    /// pass brought back — for the operator's startup banner.
    recovered: (usize, usize),
}

impl<Inst: WireType, Sub: WireType, Sol: WireType> Server<Inst, Sub, Sol> {
    /// Binds both listeners and starts the scheduler; returns once the
    /// server is accepting (workers fill in asynchronously).
    ///
    /// With [`ServerConfig::state_dir`] set, this first runs the
    /// **recovery pass**: the [`JobLedger`] under that directory is
    /// read, every job it still owes an answer for re-enters the queue
    /// in its original order — pending jobs as submitted, interrupted
    /// running jobs resuming from their latest checkpoint with the
    /// chain's cumulative statistics — and only then do the listeners
    /// open. A failure to open the ledger fails the start (serving
    /// without the durability the caller asked for would be worse).
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        config.comm.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut ledger = None;
        let mut recovered = Vec::new();
        let mut next_job = 0u64;
        if let Some(dir) = &config.state_dir {
            let l = JobLedger::open_with(dir, config.compress_state)?;
            let rec = l.recover::<Inst, Sub>()?;
            for path in &rec.skipped {
                eprintln!(
                    "ugd-server: skipping unreadable ledger record {} (torn write?)",
                    path.display()
                );
            }
            next_job = rec.next_job;
            recovered = rec.jobs;
            ledger = Some(l);
        }
        let client_listener = TcpListener::bind(&config.client_addr)?;
        let worker_listener = TcpListener::bind(&config.worker_addr)?;
        let client_addr = client_listener.local_addr()?;
        let worker_addr = worker_listener.local_addr()?;
        let mut jobs = BTreeMap::new();
        let mut queue = Vec::new();
        for r in &recovered {
            queue.push(r.job);
            jobs.insert(
                r.job,
                JobRecord::queued(r.spec.clone(), r.checkpoint.clone(), r.run_index),
            );
        }
        let metrics = MetricsRegistry::new();
        // The tuner needs a durable home for its model; adaptive
        // tuning without a state dir is a configuration error surfaced
        // at startup, not a silent no-op.
        let tuner = if config.adaptive_tuning {
            let dir = config.state_dir.as_ref().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "adaptive tuning needs a state dir (the model lives under <state-dir>/tuner)",
                )
            })?;
            Some(crate::tuner::TunerService::open(dir, config.tuner_refresh_jobs, &metrics))
        } else {
            None
        };
        let shared = Arc::new(SharedState {
            state: Mutex::new(ServerState {
                workers: HashMap::new(),
                pending: HashMap::new(),
                next_worker_tag: 0,
                queue,
                jobs,
                next_job,
                running: 0,
                shutdown: false,
            }),
            sched: Condvar::new(),
            events: EventLog::new(),
            config,
            worker_addr: worker_addr.to_string(),
            listeners: [client_addr, worker_addr],
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            gateway_epoch: AtomicU64::new(0),
            progress: Mutex::new(HashMap::new()),
            metrics,
            ledger,
            tuner,
        });
        // Pre-register the lazily-observed families so a Metrics
        // request right after startup already shows the full schema.
        for family in ["stp", "misdp", "maxcut"] {
            shared.submitted(family);
        }
        shared.workers_lost();
        shared.connections_accepted("client");
        shared.connections_accepted("pool");
        shared.recovered(false);
        shared.recovered(true);
        shared.heartbeat_gap();
        for r in &recovered {
            shared.recovered(r.checkpoint.is_some()).inc();
            shared.events.emit(r.job, JobEventKind::Queued);
            shared.events.emit(
                r.job,
                JobEventKind::Recovered { run_index: r.run_index, nodes_so_far: r.nodes_so_far },
            );
        }
        let mut threads = Vec::new();
        let sh = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("ugd-scheduler".into())
                .spawn(move || scheduler_loop(sh))?,
        );
        let sh = shared.clone();
        threads.push(std::thread::Builder::new().name("ugd-worker-accept".into()).spawn(
            move || {
                accept_loop(worker_listener, &sh.shutdown, |stream| {
                    sh.connections_accepted("pool").inc();
                    if let Err(e) = admit_worker(&sh, stream) {
                        if e.kind() == io::ErrorKind::InvalidData {
                            eprintln!("ugrs: refused a pool worker connection: {e}");
                        }
                    }
                })
            },
        )?);
        let sh = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("ugd-client-accept".into())
                .spawn(move || serve_clients(sh, client_listener, "ugd-client"))?,
        );
        let resumed = recovered.iter().filter(|r| r.checkpoint.is_some()).count();
        Ok(Server {
            shared,
            client_addr,
            worker_addr,
            threads,
            recovered: (recovered.len(), resumed),
        })
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

    /// Where pool workers connect.
    pub fn worker_addr(&self) -> SocketAddr {
        self.worker_addr
    }

    /// Begins shutdown: queued jobs are cancelled, running jobs get
    /// their cancel flag, the pool is torn down once they drain.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Begins a **graceful drain** (the SIGTERM path of a rolling
    /// restart): new submits are refused, running jobs are stopped
    /// through their cancel flags — each coordinator writes a final
    /// checkpoint on the way out — and, unlike [`Self::shutdown`], the
    /// ledger records of every job that did not finish are *kept*, so
    /// the next server started against the same state dir resumes them
    /// as run `1.k` of their restart chains. Without a state dir this
    /// is identical to `shutdown`.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        initiate_shutdown(&self.shared);
    }

    /// True once a shutdown (client-requested or via [`Self::drain`])
    /// has begun — lets a binary poll instead of blocking in `join`.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Joins the service threads (call after [`Self::shutdown`]).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// [`Server::shutdown`] followed by joining every thread.
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }

    /// [`Server::drain`] followed by joining every thread.
    pub fn drain_and_join(self) {
        self.drain();
        self.join();
    }
}

fn initiate_shutdown<Inst, Sub, Sol>(shared: &SharedState<Inst, Sub, Sol>) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.state.lock().unwrap().shutdown = true;
    shared.sched.notify_all();
    shared.events.wake();
    for addr in shared.listeners {
        wake_listener(addr);
    }
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

fn spawn_pool_worker(config: &ServerConfig, worker_addr: &str, tag: u64) -> io::Result<Child> {
    let (program, fixed_args) = config
        .worker_command
        .split_first()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty worker_command"))?;
    let mut cmd = std::process::Command::new(program);
    cmd.args(fixed_args)
        .arg("--serve")
        .arg("--connect")
        .arg(worker_addr)
        .arg("--pool-tag")
        .arg(tag.to_string())
        .arg("--status-interval")
        .arg(config.status_interval.to_string())
        .arg("--heartbeat-ms")
        .arg(config.comm.heartbeat_interval.as_millis().to_string())
        .arg("--handshake-ms")
        .arg(config.comm.handshake_timeout.as_millis().to_string())
        .arg("--liveness-ms")
        .arg(config.comm.liveness_timeout.as_millis().to_string())
        .arg("--reconnect-ms")
        .arg(config.comm.reconnect_deadline.as_millis().to_string());
    if let Some(plan) = &config.comm.chaos {
        // Each worker gets a per-worker variant of the plan (seed +
        // worker id): still deterministic given the spawn order, but
        // de-correlated — with one shared seed every worker's schedule
        // would tear all of a job's leases on the same frame.
        cmd.arg("--chaos-seed")
            .arg(plan.seed.wrapping_add(tag).to_string())
            .arg("--chaos-profile")
            .arg(serde_json::to_string(&plan.profile).expect("profile serializes"));
    }
    cmd.stdin(std::process::Stdio::null()).stdout(std::process::Stdio::null()).spawn()
}

/// The scheduler: pool refill, liveness, and job starts. Each pass has
/// three phases — decide under the state lock (A), act lock-free (B:
/// kill lost workers, spawn job threads, emit events), then block on
/// the condvar (C). Nothing slow ever runs under the lock.
fn scheduler_loop<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: Arc<SharedState<Inst, Sub, Sol>>,
) {
    loop {
        let mut lost: Vec<u64> = Vec::new();
        let mut starts: Vec<StartedJob<Inst, Sub, Sol>> = Vec::new();
        {
            let mut st = shared.state.lock().unwrap();
            if st.shutdown {
                break;
            }
            // Prune pending spawns that died or never handshook.
            let handshake_grace = shared.config.comm.handshake_timeout * 2;
            st.pending.retain(|_, p| {
                if matches!(p.child.try_wait(), Ok(Some(_))) {
                    return false;
                }
                if p.since.elapsed() > handshake_grace {
                    let _ = p.child.kill();
                    let _ = p.child.wait();
                    return false;
                }
                true
            });
            // Refill toward the target pool size.
            if !shared.config.worker_command.is_empty() {
                while st.workers.len() + st.pending.len() < shared.config.pool_size {
                    let tag = st.next_worker_tag;
                    st.next_worker_tag += 1;
                    match spawn_pool_worker(&shared.config, &shared.worker_addr, tag) {
                        Ok(child) => {
                            st.pending.insert(tag, PendingSpawn { child, since: Instant::now() });
                        }
                        Err(_) => break,
                    }
                }
            }
            // Liveness sweep + expired drains.
            for (id, w) in st.workers.iter() {
                if w.last_heard.elapsed() > shared.config.comm.liveness_timeout {
                    lost.push(*id);
                } else if let Some(t) = w.draining_since {
                    if t.elapsed() > shared.config.drain_timeout {
                        lost.push(*id);
                    }
                }
            }
            // Start queued jobs while capacity and free workers allow.
            while st.running < shared.config.max_concurrent_jobs {
                let mut free: Vec<u64> = st
                    .workers
                    .iter()
                    .filter(|(id, w)| {
                        w.lease.is_none() && w.draining_since.is_none() && !lost.contains(id)
                    })
                    .map(|(id, _)| *id)
                    .collect();
                free.sort_unstable();
                // Best-priority queued job that fits the free workers
                // (smaller jobs may overtake one that does not fit yet).
                let mut pick: Option<(usize, u64)> = None;
                for (i, &jid) in st.queue.iter().enumerate() {
                    let spec = &st.jobs[&jid].spec;
                    let want = spec.num_solvers.clamp(1, shared.config.pool_size.max(1));
                    if want > free.len() {
                        continue;
                    }
                    let better = match pick {
                        None => true,
                        Some((_, best)) => {
                            let b = &st.jobs[&best].spec;
                            (spec.priority, std::cmp::Reverse(jid))
                                > (b.priority, std::cmp::Reverse(best))
                        }
                    };
                    if better {
                        pick = Some((i, jid));
                    }
                }
                let Some((qi, jid)) = pick else { break };
                let want = st.jobs[&jid].spec.num_solvers.clamp(1, shared.config.pool_size.max(1));
                st.queue.remove(qi);
                let chosen: Vec<u64> = free[..want].to_vec();
                let mut writers = Vec::with_capacity(want);
                for (rank, wid) in chosen.iter().enumerate() {
                    let w = st.workers.get_mut(wid).expect("chosen from live workers");
                    w.lease = Some((jid, rank));
                    writers.push(w.writer.clone());
                }
                let (tx, rx) = channel();
                st.running += 1;
                let job = st.jobs.get_mut(&jid).expect("queued job has a record");
                job.state = JobState::Running;
                job.inbox = Some(tx);
                starts.push(StartedJob {
                    jid,
                    spec: job.spec.clone(),
                    cancel: job.cancel.clone(),
                    writers,
                    inbox: rx,
                    // Consumed on first start: if this run is later lost
                    // to a *worker*-side failure the coordinator already
                    // requeues in memory, and a *server* crash re-reads
                    // the freshest checkpoint from disk anyway.
                    restart_from: job.restart_from.take(),
                });
            }
        }
        for id in lost {
            worker_lost(&shared, id);
        }
        for s in starts {
            shared.events.emit(s.jid, JobEventKind::Started { workers: s.writers.len() });
            let sh = shared.clone();
            let name = format!("ugd-job-{}", s.jid);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || run_job(sh, s))
                .expect("spawn job thread");
        }
        let st = shared.state.lock().unwrap();
        if st.shutdown {
            break;
        }
        let _ = shared.sched.wait_timeout(st, Duration::from_millis(100)).unwrap();
    }
    shutdown_cleanup(&shared);
}

/// Removes a dead/stuck worker: retire its connection, kill its
/// process, tell its job's coordinator (requeue path), wake the
/// scheduler (refill path). Idempotent — the pool reader and the
/// liveness sweep may both report the same worker.
fn worker_lost<Inst, Sub, Sol: Clone>(shared: &SharedState<Inst, Sub, Sol>, id: u64) {
    let (child, notify) = {
        let mut st = shared.state.lock().unwrap();
        let Some(mut w) = st.workers.remove(&id) else { return };
        if let Ok(mut g) = w.writer.lock() {
            if let Some(c) = g.take() {
                let _ = c.shutdown(std::net::Shutdown::Both);
            }
        }
        let mut notify = None;
        if let Some((jid, rank)) = w.lease {
            if let Some(job) = st.jobs.get(&jid) {
                if job.state == JobState::Running {
                    if let Some(tx) = &job.inbox {
                        notify = Some((tx.clone(), jid, rank));
                    }
                }
            }
        }
        (w.child.take(), notify)
    };
    if let Some(mut c) = child {
        let _ = c.kill();
        let _ = c.wait();
    }
    shared.workers_lost().inc();
    if let Some((tx, jid, rank)) = notify {
        let _ = tx.send(Message::WorkerDied { rank });
        shared.events.emit(jid, JobEventKind::WorkerLost { rank });
    }
    shared.sched.notify_all();
}

/// Runs one job to completion on its leased workers (the job thread).
fn run_job<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: Arc<SharedState<Inst, Sub, Sol>>,
    start: StartedJob<Inst, Sub, Sol>,
) {
    let StartedJob { jid, spec, cancel, writers, inbox, restart_from } = start;
    let n = writers.len();
    // One encode, n identical writes: the worker-pool amortization.
    let begin = wire::frame_unseq(&PoolDown::<Inst, Sub, Sol>::Begin {
        job: jid,
        instance: spec.instance.clone(),
    });
    for w in &writers {
        write_down(w, &begin);
    }
    // Telemetry wiring: an optional per-job journal plus a progress
    // sink feeding the server's live per-job snapshot map.
    let journal = shared.config.journal_dir.as_ref().and_then(|dir| {
        let path = dir.join(format!("job-{jid}-{}.jsonl", telemetry::sanitize_name(&spec.name)));
        telemetry::Journal::create(path).ok().map(Arc::new)
    });
    // Head record: pin the job's provenance (family + source-file
    // checksum) to its event stream before any run event.
    if let Some(j) = &journal {
        j.log(telemetry::TelemetryEvent::JobMeta {
            family: spec.family.clone(),
            checksum: spec.checksum.clone(),
            size: spec.size_hint,
        });
        j.flush();
    }
    let progress = {
        let sh = shared.clone();
        ProgressSink::new(move |p: &ProgressMsg| {
            sh.progress.lock().unwrap().insert(jid, p.clone());
        })
    };
    // Durability wiring: with a state dir, this job checkpoints its
    // primitive nodes periodically (so a server crash resumes it), and
    // a recovered job restarts from the checkpoint the dead server
    // left behind.
    let checkpoint_path = shared.ledger.as_ref().map(|l| l.checkpoint_path(jid));
    // Adaptive tuning: fresh multi-solver jobs race the root under a
    // tuner-decided roster (model-ranked once the family is mined, the
    // legacy identity roster while it is unseen — that exploration is
    // what generates training journals), and restarted jobs on
    // stall-predicted families get a grown Table-2 node budget.
    let mut ramp_up = RampUp::Normal;
    let mut tuner_decision = None;
    let mut node_limit = spec.node_limit;
    if let (Some(tuner), Some(mk)) = (&shared.tuner, shared.config.racing_settings) {
        let family = spec.family.as_deref();
        if restart_from.is_none() && n > 1 {
            let decision = tuner.decide(family, spec.size_hint, n);
            let universe = decision.order.len().max(n);
            let label = family.unwrap_or("unknown");
            ramp_up = RampUp::Racing {
                settings: mk(label, universe),
                time_trigger: (spec.time_limit * 0.1).clamp(0.05, 5.0),
                open_nodes_trigger: 4 * n,
            };
            tuner_decision = Some(decision);
        } else if restart_from.is_some() {
            let fp = crate::tuner::fingerprint(family, spec.size_hint);
            let stall = tuner.model().stats_for(&fp).map(|s| s.predicts_stall()).unwrap_or(false);
            if let Some(base) = node_limit {
                let chain = {
                    let st = shared.state.lock().unwrap();
                    st.jobs.get(&jid).map(|j| j.run_index + 1).unwrap_or(2)
                };
                node_limit = Some(crate::tuner::adaptive_node_budget(base, chain, stall));
            }
        }
    }
    let options = ParallelOptions {
        num_solvers: n,
        time_limit: spec.time_limit,
        node_limit,
        cancel: Some(cancel.clone()),
        status_interval: shared.config.status_interval,
        telemetry: TelemetrySink { journal, progress: Some(progress) },
        checkpoint_path,
        checkpoint_interval: shared.config.checkpoint_interval,
        compress_checkpoints: shared.config.compress_state,
        restart_from,
        ramp_up,
        tuner: tuner_decision,
        ..ParallelOptions::default()
    };
    let comm = LcComm::Job(JobComm { job: jid, writers, inbox });
    let mut coordinator = LoadCoordinator::new(comm, options, spec.root.clone());
    let res = coordinator.run();
    let state = classify(&res, cancel.load(Ordering::SeqCst), n);
    {
        let mut st = shared.state.lock().unwrap();
        if let Some(job) = st.jobs.get_mut(&jid) {
            job.state = state;
            job.inbox = None;
            job.run_index = res.stats.run_index;
        }
        // Leases release on JobDone; stamp the drain clock so a worker
        // that never acks is eventually recycled.
        for w in st.workers.values_mut() {
            if matches!(w.lease, Some((j, _)) if j == jid) {
                w.draining_since = Some(Instant::now());
            }
        }
        st.running -= 1;
    }
    // Retire the ledger record *before* announcing the terminal state:
    // a crash in between re-runs a finished job (at-least-once), while
    // the opposite order could lose an acknowledged job (at-most-once).
    // Exception: a job stopped by a graceful drain keeps its record and
    // final checkpoint — the next server on this state dir owes it a
    // resumed run `1.k`, exactly like a crash would, minus the losses.
    let drain_stopped = state == JobState::Cancelled && shared.draining.load(Ordering::SeqCst);
    if !drain_stopped {
        retire_ledger_record(&shared, jid);
    }
    record_job_finished(&shared, jid, state);
    if let Some(tuner) = &shared.tuner {
        tuner.job_finished();
    }
    shared.events.emit(
        jid,
        JobEventKind::Finished {
            state,
            obj: res.solution.as_ref().map(|(_, o)| *o),
            dual_bound: res.dual_bound,
            solution: res.solution.map(|(s, _)| s),
            nodes: res.stats.nodes_total,
            nodes_so_far: res.stats.nodes_so_far,
            run_index: res.stats.run_index,
            open_nodes: res.stats.open_nodes,
            workers_lost: res.stats.workers_died,
            wall_time: res.stats.wall_time,
            final_checkpoint: res
                .final_checkpoint
                .as_ref()
                .and_then(|cp| serde_json::to_string(cp).ok()),
        },
    );
    shared.sched.notify_all();
}

/// Removes a terminal job's WAL record and checkpoint from the ledger
/// so recovery will not resurrect it. A deletion failure is reported
/// but not fatal: the worst outcome is a re-run after a restart.
fn retire_ledger_record<Inst, Sub, Sol>(shared: &SharedState<Inst, Sub, Sol>, jid: u64) {
    if let Some(ledger) = &shared.ledger {
        if let Err(e) = ledger.record_finished(jid) {
            eprintln!("ugd-server: cannot retire ledger record of job {jid}: {e}");
        }
    }
}

fn record_job_finished<Inst, Sub, Sol>(
    shared: &SharedState<Inst, Sub, Sol>,
    job: u64,
    state: JobState,
) {
    // Family comes from the job's own record, so every terminal path
    // (finish, cancel, reclaim, shutdown) labels consistently.
    let family = {
        let st = shared.state.lock().unwrap();
        st.jobs.get(&job).and_then(|r| r.spec.family.clone()).unwrap_or_else(|| "unknown".into())
    };
    shared
        .metrics
        .counter_with(
            "ugrs_server_jobs_finished_total",
            &[("state", state_label(state)), ("family", &family)],
            "Jobs that reached a terminal state, by state and instance family",
        )
        .inc();
}

fn shutdown_cleanup<Inst, Sub, Sol: Clone>(shared: &SharedState<Inst, Sub, Sol>) {
    let queued: Vec<(u64, u32)> = {
        let mut st = shared.state.lock().unwrap();
        let queued = std::mem::take(&mut st.queue);
        let queued = queued
            .into_iter()
            .map(|j| {
                let run_index = match st.jobs.get_mut(&j) {
                    Some(r) => {
                        r.state = JobState::Cancelled;
                        r.run_index
                    }
                    None => 1,
                };
                (j, run_index)
            })
            .collect();
        for r in st.jobs.values() {
            if r.state == JobState::Running {
                r.cancel.store(true, Ordering::SeqCst);
            }
        }
        queued
    };
    // A drain keeps the queued jobs' WAL records: they never ran, so
    // the next server simply requeues them as submitted.
    let draining = shared.draining.load(Ordering::SeqCst);
    for (j, run_index) in queued {
        if !draining {
            retire_ledger_record(shared, j);
        }
        record_job_finished(shared, j, JobState::Cancelled);
        shared.events.emit(j, empty_finished(JobState::Cancelled, run_index));
    }
    // Let running jobs drain through their cancel flags, bounded.
    let deadline = Instant::now() + shared.config.drain_timeout;
    let mut st = shared.state.lock().unwrap();
    while st.running > 0 && Instant::now() < deadline {
        let (guard, _) = shared.sched.wait_timeout(st, Duration::from_millis(50)).unwrap();
        st = guard;
    }
    let mut children: Vec<Child> = Vec::new();
    for (_, mut w) in st.workers.drain() {
        if let Ok(mut g) = w.writer.lock() {
            if let Some(c) = g.take() {
                let _ = c.shutdown(std::net::Shutdown::Both);
            }
        }
        if let Some(c) = w.child.take() {
            children.push(c);
        }
    }
    for (_, p) in st.pending.drain() {
        children.push(p.child);
    }
    drop(st);
    for mut c in children {
        if !matches!(c.try_wait(), Ok(Some(_))) {
            let _ = c.kill();
        }
        let _ = c.wait();
    }
}

// ---------------------------------------------------------------------
// Worker pool: accept, handshake, per-worker readers
// ---------------------------------------------------------------------

fn admit_worker<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: &Arc<SharedState<Inst, Sub, Sol>>,
    stream: TcpStream,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = stream.try_clone()?;
    let mut dec = FrameDecoder::new();
    let hello: PoolHello = wire::read_msg(&mut reader, &mut dec)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "worker closed before hello")
    })?;
    if hello.protocol != POOL_PROTOCOL_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("pool protocol {} != {}", hello.protocol, POOL_PROTOCOL_VERSION),
        ));
    }
    // Refused before the hello can take a pool id (or adopt a child).
    require_revision("pool worker hello", hello.max_protocol)?;
    dec.set_v2(true);
    let (id, mut child) = {
        let mut st = shared.state.lock().unwrap();
        match hello.tag {
            Some(t) if st.pending.contains_key(&t) => {
                (t, Some(st.pending.remove(&t).expect("checked").child))
            }
            _ => {
                let id = st.next_worker_tag;
                st.next_worker_tag += 1;
                (id, None)
            }
        }
    };
    let finish = (|| -> io::Result<TcpStream> {
        let welcome = PoolWelcome { worker: id, protocol: Some(PROTOCOL_VERSION) };
        wire::write_msg(&mut (&stream), &welcome)?;
        stream.set_read_timeout(None)?;
        stream.try_clone()
    })();
    let writer_stream = match finish {
        Ok(s) => s,
        Err(e) => {
            // An adopted child whose handshake failed must not leak.
            if let Some(c) = child.as_mut() {
                let _ = c.kill();
                let _ = c.wait();
            }
            return Err(e);
        }
    };
    let pid = hello.pid.or_else(|| child.as_ref().map(|c| c.id()));
    {
        let mut st = shared.state.lock().unwrap();
        st.workers.insert(
            id,
            WorkerEntry {
                writer: Arc::new(Mutex::new(Some(writer_stream))),
                child,
                pid,
                lease: None,
                draining_since: None,
                last_heard: Instant::now(),
            },
        );
    }
    spawn_pool_reader(shared.clone(), id, reader, dec);
    shared.sched.notify_all();
    Ok(())
}

fn spawn_pool_reader<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: Arc<SharedState<Inst, Sub, Sol>>,
    id: u64,
    mut stream: TcpStream,
    mut dec: FrameDecoder,
) {
    // Only the receive half of a session: nothing is sent through it.
    let mut session = Endpoint::<TcpStream>::new(0, None, None);
    std::thread::Builder::new()
        .name(format!("pool-reader-{id}"))
        .spawn(move || loop {
            let up = match wire::read_frame(&mut stream, &mut dec) {
                Ok(Some((header, payload))) => match session.on_header(header) {
                    Arrival::Accept => wire::decode::<PoolUp<Sub, Sol>>(&payload).ok(),
                    Arrival::Duplicate => continue,
                    // Nothing can replay the missing frames: the worker
                    // is lost, like on any other torn stream.
                    Arrival::Gap => None,
                },
                Ok(None) | Err(_) => None,
            };
            match up {
                Some(up) => handle_pool_up(&shared, id, up),
                None => {
                    worker_lost(&shared, id);
                    return;
                }
            }
        })
        .expect("spawn pool reader thread");
}

fn handle_pool_up<Inst, Sub, Sol: Clone>(
    shared: &SharedState<Inst, Sub, Sol>,
    id: u64,
    up: PoolUp<Sub, Sol>,
) {
    match up {
        PoolUp::Ping { .. } => {
            let gap = {
                let mut st = shared.state.lock().unwrap();
                let Some(w) = st.workers.get_mut(&id) else { return };
                let gap = w.last_heard.elapsed();
                w.last_heard = Instant::now();
                gap
            };
            shared.heartbeat_gap().observe(gap.as_secs_f64());
        }
        PoolUp::JobDone { .. } => {
            {
                let mut st = shared.state.lock().unwrap();
                if let Some(w) = st.workers.get_mut(&id) {
                    w.last_heard = Instant::now();
                    w.lease = None;
                    w.draining_since = None;
                }
            }
            shared.sched.notify_all();
        }
        PoolUp::Ug { job, mut msg, .. } => {
            let tx = {
                let mut st = shared.state.lock().unwrap();
                let Some(w) = st.workers.get_mut(&id) else { return };
                w.last_heard = Instant::now();
                let Some((jid, rank)) = w.lease else { return };
                if jid != job {
                    return; // stale frame of a previous job
                }
                set_rank(&mut msg, rank);
                st.jobs.get(&jid).and_then(|j| j.inbox.clone())
            };
            if let Some(tx) = tx {
                shared.events.emit_progress(job, &msg);
                let _ = tx.send(msg);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Client connections
// ---------------------------------------------------------------------

/// The gateway epoch a client connection announced, if any. Checked
/// before every mutating request: a connection from a deposed primary
/// (announced epoch below the highest known) may read but not mutate —
/// the fencing half of gateway HA.
#[derive(Default)]
struct ClientConn {
    gateway_epoch: Option<u64>,
}

impl<Inst, Sub, Sol> SharedState<Inst, Sub, Sol> {
    fn submitted(&self, family: &str) -> Arc<telemetry::Counter> {
        self.metrics.counter_with(
            "ugrs_server_jobs_submitted_total",
            &[("family", family)],
            "Jobs accepted via Submit, by instance family",
        )
    }

    /// `resumed` from a checkpoint, or requeued from scratch.
    fn recovered(&self, resumed: bool) -> Arc<telemetry::Counter> {
        self.metrics.counter_with(
            "ugrs_server_jobs_recovered_total",
            &[("mode", if resumed { "resumed" } else { "requeued" })],
            "Jobs brought back by the startup recovery pass, by mode",
        )
    }

    /// Connections accepted on the `client` or the `pool` listener —
    /// the count a connection-reusing gateway keeps flat.
    fn connections_accepted(&self, listener: &str) -> Arc<telemetry::Counter> {
        self.metrics.counter_with(
            "ugrs_server_connections_accepted_total",
            &[("listener", listener)],
            "Connections accepted, by listener",
        )
    }

    fn workers_lost(&self) -> Arc<telemetry::Counter> {
        self.metrics.counter("ugrs_server_workers_lost_total", "Pool workers removed dead or stuck")
    }

    /// Observed gap between consecutive frames of a pool worker: the
    /// live heartbeat-latency distribution (nominal = the configured
    /// heartbeat interval; the tail shows scheduling delay).
    fn heartbeat_gap(&self) -> Arc<telemetry::Histogram> {
        self.metrics.histogram_with(
            "ugrs_server_heartbeat_gap_seconds",
            &[],
            "Gap between consecutive frames of a pool worker",
            &[0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0],
        )
    }

    /// `Some(current epoch)` when `conn` announced a stale one.
    fn fenced(&self, conn: &ClientConn) -> Option<u64> {
        let current = self.gateway_epoch.load(Ordering::SeqCst);
        (conn.gateway_epoch? < current).then(|| {
            self.metrics
                .counter(
                    "ugrs_server_fenced_rpcs_total",
                    "Mutating RPCs refused because the sender's gateway epoch was stale",
                )
                .inc();
            current
        })
    }
}

impl<Inst: WireType, Sub: WireType, Sol: WireType> RequestHandler for SharedState<Inst, Sub, Sol> {
    type Inst = Inst;
    type Sub = Sub;
    type Conn = ClientConn;

    fn shutdown(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn connection_accepted(&self) {
        self.connections_accepted("client").inc();
    }

    fn handle(
        &self,
        conn: &mut ClientConn,
        req: ClientRequest<Inst, Sub>,
        out: &mut TcpStream,
    ) -> io::Result<bool> {
        let reply: ServerReply<Sol> = match req {
            ClientRequest::GatewayEpoch { epoch } => {
                let current = self.gateway_epoch.fetch_max(epoch, Ordering::SeqCst).max(epoch);
                self.metrics
                    .gauge(
                        "ugrs_server_gateway_epoch",
                        "Highest gateway lease epoch announced to this shard",
                    )
                    .set(current as f64);
                conn.gateway_epoch = Some(epoch);
                match self.fenced(conn) {
                    Some(epoch) => ServerReply::Fenced { epoch },
                    None => ServerReply::GatewayEpochAck { epoch: current },
                }
            }
            ClientRequest::Submit { spec } => {
                if let Some(epoch) = self.fenced(conn) {
                    ServerReply::Fenced { epoch }
                } else if self.draining.load(Ordering::SeqCst) {
                    // A draining server refuses politely: the client
                    // should resubmit to a peer (or wait for the
                    // replacement), not treat this as a hard error.
                    ServerReply::Rejected { reason: "draining".into() }
                } else if self.shutdown.load(Ordering::SeqCst) {
                    ServerReply::Error { message: "server shutting down".into() }
                } else {
                    match submit_job(self, spec) {
                        Ok(job) => ServerReply::Submitted { job },
                        // The WAL write failed: the job was NOT accepted
                        // (nothing durable, nothing queued), tell the
                        // client instead of acknowledging a job that a
                        // crash would silently lose.
                        Err(e) => {
                            ServerReply::Error { message: format!("ledger write failed: {e}") }
                        }
                    }
                }
            }
            ClientRequest::Cancel { job } => match self.fenced(conn) {
                Some(epoch) => ServerReply::Fenced { epoch },
                None => ServerReply::CancelResult { job, ok: cancel_job(self, job) },
            },
            ClientRequest::Reclaim { job } => match self.fenced(conn) {
                Some(epoch) => ServerReply::Fenced { epoch },
                None => ServerReply::CancelResult { job, ok: reclaim_job(self, job) },
            },
            ClientRequest::Fleet => ServerReply::Error {
                message: "not a gateway: connect ugd fleet to a ugd-gateway".into(),
            },
            ClientRequest::Status => ServerReply::Status { status: server_status(self) },
            ClientRequest::Metrics => ServerReply::Metrics { report: metrics_report(self) },
            ClientRequest::Watch { job, from_seq } => {
                let gone = |_| format!("unknown job {job}");
                self.events.stream(out, &self.shutdown, job, from_seq, gone)?;
                return Ok(true);
            }
            ClientRequest::Shutdown => {
                wire::write_msg(out, &ServerReply::<Sol>::ShuttingDown)?;
                initiate_shutdown(self);
                return Ok(false);
            }
        };
        wire::write_msg(out, &reply)?;
        Ok(true)
    }
}

fn submit_job<Inst: Serialize, Sub: Serialize, Sol: Clone>(
    shared: &SharedState<Inst, Sub, Sol>,
    spec: JobSpec<Inst, Sub>,
) -> io::Result<u64> {
    let family = spec.family.clone().unwrap_or_else(|| "unknown".into());
    let (jid, run_index, resumed_nodes) = {
        let mut st = shared.state.lock().unwrap();
        // Write-ahead: the submission record must be durable before the
        // job id is acknowledged, otherwise a crash right after the ack
        // would silently lose an accepted job. The fsync happens under
        // the state lock, which is fine at job-submission rates.
        if let Some(ledger) = &shared.ledger {
            ledger.record_submitted(st.next_job, &spec)?;
        }
        let jid = st.next_job;
        st.next_job += 1;
        // A spec carrying a checkpoint (a gateway failing a job over
        // from a dead shard) enters mid-chain: resuming run k makes
        // this run k + 1, with the chain's nodes already banked.
        let (restart_from, run_index, resumed_nodes) = match &spec.restart_from {
            Some(json) => match crate::ledger::checkpoint_meta(json) {
                Some((run, nodes)) => (Some(json.clone()), run + 1, Some(nodes)),
                None => (None, 1, None), // torn checkpoint: from scratch
            },
            None => (None, 1, None),
        };
        st.jobs.insert(jid, JobRecord::queued(spec, restart_from, run_index));
        st.queue.push(jid);
        (jid, run_index, resumed_nodes)
    };
    shared.submitted(&family).inc();
    shared.events.emit(jid, JobEventKind::Queued);
    if let Some(nodes_so_far) = resumed_nodes {
        shared.events.emit(jid, JobEventKind::Recovered { run_index, nodes_so_far });
    }
    shared.sched.notify_all();
    Ok(jid)
}

/// The work-stealing primitive: takes a *queued* job back so its owner
/// (a gateway) can resubmit it elsewhere. Atomic under the state lock —
/// a job that already started (or finished) is refused, because its
/// leased workers own it now. On success the job's ledger record is
/// retired here (the caller's own ledger keeps it at-least-once across
/// the move) and the job finishes `Cancelled`.
fn reclaim_job<Inst, Sub, Sol: Clone>(shared: &SharedState<Inst, Sub, Sol>, job: u64) -> bool {
    let run_index = {
        let mut st = shared.state.lock().unwrap();
        let Some(rec) = st.jobs.get_mut(&job) else { return false };
        if rec.state != JobState::Queued {
            return false;
        }
        rec.state = JobState::Cancelled;
        let run_index = rec.run_index;
        st.queue.retain(|&j| j != job);
        run_index
    };
    retire_ledger_record(shared, job);
    shared
        .metrics
        .counter("ugrs_server_jobs_reclaimed_total", "Queued jobs taken back via Reclaim")
        .inc();
    record_job_finished(shared, job, JobState::Cancelled);
    shared.events.emit(job, empty_finished(JobState::Cancelled, run_index));
    shared.sched.notify_all();
    true
}

fn cancel_job<Inst, Sub, Sol: Clone>(shared: &SharedState<Inst, Sub, Sol>, job: u64) -> bool {
    enum Outcome {
        NotCancellable,
        WasQueued { run_index: u32 },
        WasRunning,
    }
    let outcome = {
        let mut st = shared.state.lock().unwrap();
        let outcome = match st.jobs.get_mut(&job) {
            None => Outcome::NotCancellable,
            Some(rec) => match rec.state {
                JobState::Queued => {
                    rec.state = JobState::Cancelled;
                    Outcome::WasQueued { run_index: rec.run_index }
                }
                JobState::Running => {
                    rec.cancel.store(true, Ordering::SeqCst);
                    Outcome::WasRunning
                }
                _ => Outcome::NotCancellable,
            },
        };
        if matches!(outcome, Outcome::WasQueued { .. }) {
            st.queue.retain(|&j| j != job);
        }
        outcome
    };
    match outcome {
        Outcome::WasQueued { run_index } => {
            retire_ledger_record(shared, job);
            record_job_finished(shared, job, JobState::Cancelled);
            shared.events.emit(job, empty_finished(JobState::Cancelled, run_index));
            shared.sched.notify_all();
            true
        }
        Outcome::WasRunning => true,
        Outcome::NotCancellable => false,
    }
}

fn server_status<Inst, Sub, Sol>(shared: &SharedState<Inst, Sub, Sol>) -> ServerStatus {
    // `progress` is locked before `state` is taken (disjoint critical
    // sections) — the snapshot may lag a status by one interval, which
    // is fine for a status display.
    let open: HashMap<u64, u64> = {
        let p = shared.progress.lock().unwrap();
        p.iter().map(|(j, m)| (*j, m.open_nodes)).collect()
    };
    let st = shared.state.lock().unwrap();
    let mut workers: Vec<WorkerInfo> = st
        .workers
        .iter()
        .map(|(id, w)| WorkerInfo {
            id: *id,
            pid: w.pid,
            job: w.lease.map(|(j, _)| j),
            rank: w.lease.map(|(_, r)| r),
            draining: w.draining_since.is_some(),
        })
        .collect();
    workers.sort_by_key(|w| w.id);
    let jobs = st
        .jobs
        .iter()
        .map(|(j, r)| JobSummary {
            job: *j,
            name: r.spec.name.clone(),
            state: r.state,
            priority: r.spec.priority,
            num_solvers: r.spec.num_solvers,
            open_nodes: open.get(j).copied(),
            run_index: r.run_index,
        })
        .collect();
    ServerStatus { pool_target: shared.config.pool_size, workers, queued: st.queue.clone(), jobs }
}

/// Builds the [`ClientRequest::Metrics`] reply: refresh the pool/queue
/// gauges, render this server's registry plus the process-wide one,
/// synthesize per-job series from the progress snapshots, and attach
/// the structured snapshots themselves.
fn metrics_report<Inst, Sub, Sol>(shared: &SharedState<Inst, Sub, Sol>) -> MetricsReport {
    use std::fmt::Write as _;
    let progress: HashMap<u64, ProgressMsg> = shared.progress.lock().unwrap().clone();
    let jobs_meta: Vec<(u64, String, JobState)> = {
        let st = shared.state.lock().unwrap();
        let r = &shared.metrics;
        r.gauge("ugrs_server_pool_workers", "Connected pool workers").set(st.workers.len() as f64);
        r.gauge("ugrs_server_pool_target", "Configured pool size")
            .set(shared.config.pool_size as f64);
        r.gauge("ugrs_server_jobs_running", "Jobs currently running").set(st.running as f64);
        r.gauge("ugrs_server_queue_depth", "Jobs waiting in the queue").set(st.queue.len() as f64);
        // Busy/idle split of the pool: what a gateway's steal loop and
        // `ugd top` read to find starved and saturated shards.
        let busy = st.workers.values().filter(|w| w.lease.is_some()).count();
        r.gauge("ugrs_server_workers_busy", "Pool workers currently leased to a job")
            .set(busy as f64);
        r.gauge("ugrs_server_workers_idle", "Connected pool workers without a lease")
            .set(st.workers.len().saturating_sub(busy) as f64);
        st.jobs.iter().map(|(j, r)| (*j, r.spec.name.clone(), r.state)).collect()
    };
    let mut text = shared.metrics.render();
    telemetry::global().render_into(&mut text);
    // Per-job gauges, synthesized from the snapshots so the exposition
    // carries the coordinator-level view without a registry per job.
    type JobSeries = (&'static str, &'static str, fn(&ProgressMsg) -> f64);
    let families: [JobSeries; 5] = [
        ("ugrs_job_gap_percent", "Relative gap of the job, percent", |p| p.gap_percent),
        ("ugrs_job_open_nodes", "Open primitive nodes in the job's coordinator", |p| {
            p.open_nodes as f64
        }),
        ("ugrs_job_idle_percent", "Aggregate idle ratio of the job's solvers", |p| p.idle_percent),
        ("ugrs_job_dual_bound", "Global dual bound of the job (internal sense)", |p| p.dual_bound),
        ("ugrs_job_nodes_total", "B&B nodes processed by the job so far", |p| p.nodes as f64),
    ];
    for (name, help, get) in families {
        let mut any = false;
        for (jid, jname, _) in &jobs_meta {
            let Some(p) = progress.get(jid) else { continue };
            if !any {
                let _ = writeln!(text, "# HELP {name} {help}");
                let _ = writeln!(text, "# TYPE {name} gauge");
                any = true;
            }
            let _ = writeln!(
                text,
                "{name}{{job=\"{jid}\",name=\"{}\"}} {}",
                telemetry::escape_label(jname),
                telemetry::fmt_value(get(p))
            );
        }
    }
    let jobs = jobs_meta
        .into_iter()
        .map(|(job, name, state)| JobProgress {
            job,
            name,
            state,
            progress: progress.get(&job).cloned(),
        })
        .collect();
    MetricsReport { text, jobs }
}

// ---------------------------------------------------------------------
// The worker side: a standing pool member
// ---------------------------------------------------------------------

/// Joins a server's worker pool and serves jobs until the server hangs
/// up: the pool analogue of [`crate::runner::run_distributed_worker`].
/// `make_factory` turns each received instance into the base-solver
/// factory used for that job's subproblems.
pub fn serve_worker<Inst, S, F>(
    addr: &str,
    tag: Option<u64>,
    make_factory: F,
    status_interval: Duration,
    config: &ProcessCommConfig,
) -> io::Result<()>
where
    Inst: WireType,
    S: BaseSolver + 'static,
    F: Fn(&Inst) -> SolverFactory<S>,
{
    let stream = crate::process::dial(addr, config.handshake_timeout)?;
    wire::write_msg(
        &mut (&stream),
        &PoolHello {
            protocol: POOL_PROTOCOL_VERSION,
            tag,
            pid: Some(std::process::id()),
            max_protocol: Some(PROTOCOL_VERSION),
        },
    )?;
    let mut reader = stream.try_clone()?;
    let mut dec = FrameDecoder::new();
    let welcome: PoolWelcome = wire::read_msg(&mut reader, &mut dec)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "server closed before welcome")
    })?;
    require_revision("pool server welcome", welcome.protocol)?;
    stream.set_read_timeout(None)?;
    dec.set_v2(true);
    let worker = welcome.worker;
    // Faults are armed only after the handshake: a worker must always
    // be able to join the pool, exactly as resume frames bypass chaos
    // on the per-call path.
    let faults = config.chaos.as_ref().map(FrameFaults::new);
    let writer = Arc::new(Mutex::new(PoolUplink { stream, faults, tx_next: 0 }));
    let hb_shutdown = Arc::new(AtomicBool::new(false));
    {
        let writer = writer.clone();
        let hb_shutdown = hb_shutdown.clone();
        let interval = config.heartbeat_interval;
        std::thread::Builder::new()
            .name(format!("pool-heartbeat-{worker}"))
            .spawn(move || loop {
                std::thread::sleep(interval);
                if hb_shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !send_up(&writer, &PoolUp::<S::Sub, S::Sol>::Ping { worker }) {
                    return;
                }
            })
            .expect("spawn pool heartbeat thread");
    }
    let (down_tx, down_rx) = channel::<PoolDown<Inst, S::Sub, S::Sol>>();
    std::thread::Builder::new()
        .name(format!("pool-downlink-{worker}"))
        .spawn(move || loop {
            match wire::read_msg::<PoolDown<Inst, S::Sub, S::Sol>, _>(&mut reader, &mut dec) {
                Ok(Some(m)) => {
                    if down_tx.send(m).is_err() {
                        return;
                    }
                }
                Ok(None) | Err(_) => return, // server gone: recv() errors out
            }
        })
        .expect("spawn pool downlink thread");

    let result = serve_loop::<Inst, S>(worker, &writer, &down_rx, &make_factory, status_interval);
    hb_shutdown.store(true, Ordering::SeqCst);
    if let Ok(up) = writer.lock() {
        let _ = up.stream.shutdown(std::net::Shutdown::Both);
    }
    result
}

fn serve_loop<Inst, S>(
    worker: u64,
    writer: &Mutex<PoolUplink>,
    down_rx: &Receiver<PoolDown<Inst, S::Sub, S::Sol>>,
    make_factory: &dyn Fn(&Inst) -> SolverFactory<S>,
    status_interval: Duration,
) -> io::Result<()>
where
    Inst: WireType,
    S: BaseSolver + 'static,
{
    let mut current: Option<(u64, SolverFactory<S>)> = None;
    loop {
        let Ok(down) = down_rx.recv() else { return Ok(()) };
        match down {
            PoolDown::Begin { job, instance } => current = Some((job, make_factory(&instance))),
            PoolDown::Ug { job, msg } => {
                let Some((cur, factory)) = current.as_ref() else { continue };
                if *cur != job {
                    continue; // stale frame of a finished job
                }
                let uplink = JobUplink { writer, down_rx, job, worker };
                let job_over = match msg {
                    Message::Terminate => true,
                    Message::Subproblem { sub, incumbent, settings } => {
                        let settings = settings.unwrap_or_else(SolverSettings::default_bundle);
                        let mut solver = factory(worker as usize, &settings);
                        // Reports itself as rank 0 — the server rewrites.
                        solve_and_report(&uplink, 0, &mut solver, sub, incumbent, status_interval)
                    }
                    _ => false, // stale control while idle
                };
                if job_over {
                    send_up(writer, &PoolUp::<S::Sub, S::Sol>::JobDone { job, worker });
                    current = None;
                }
            }
        }
    }
}

/// The transport of a pool worker while it serves `job`: like the
/// plain worker's, but frames travel as [`PoolUp::Ug`] tagged with the
/// job id, and the downlink multiplexes [`PoolDown`] (job-tagged)
/// instead of raw messages.
struct JobUplink<'a, Inst, Sub, Sol> {
    writer: &'a Mutex<PoolUplink>,
    down_rx: &'a Receiver<PoolDown<Inst, Sub, Sol>>,
    job: u64,
    worker: u64,
}

impl<Inst, Sub: Serialize, Sol: Serialize> Uplink<Sub, Sol> for JobUplink<'_, Inst, Sub, Sol> {
    fn try_recv(&self) -> Option<Message<Sub, Sol>> {
        loop {
            // `Begin` mid-solve cannot happen (leases release on
            // JobDone only); drop it and wrong-job frames defensively.
            match self.down_rx.try_recv().ok()? {
                PoolDown::Ug { job, msg } if job == self.job => return Some(msg),
                _ => {}
            }
        }
    }

    fn send(&self, msg: Message<Sub, Sol>) -> bool {
        send_up(self.writer, &PoolUp::Ug { job: self.job, worker: self.worker, msg })
    }
}

/// A pool worker's write half. The pool transport has no session
/// resume — a torn connection is recovered by *replacement* (the server
/// requeues the job and refills the pool) — so the seeded fault
/// schedule (`ProcessCommConfig::chaos`, `None` in production)
/// exercises the worker-loss machinery rather than reconnect/replay.
struct PoolUplink {
    stream: TcpStream,
    faults: Option<FrameFaults>,
    /// Next upward sequence number: what lets the server drop a
    /// duplicated frame instead of acting on it twice.
    tx_next: u64,
}

/// Writes one upward frame through [`chaos::write_frame`]: Corrupt
/// flips one bit, which the server's frame CRC catches; Duplicate is
/// suppressed by sequence number; Partition silences writes until the
/// server's liveness sweep fires or the partition lifts. Whatever
/// fails — the write, a Drop, a lifted partition — tears the
/// connection down: the server sees the worker lost and replaces it.
fn send_up<Sub: Serialize, Sol: Serialize>(
    writer: &Mutex<PoolUplink>,
    msg: &PoolUp<Sub, Sol>,
) -> bool {
    let mut guard = writer.lock().unwrap();
    let up = &mut *guard;
    let header = wire::FrameHeader { seq: up.tx_next, ack: 0 };
    up.tx_next += 1;
    let frame = wire::frame_v2(&wire::to_payload_binary(msg), header);
    let sent = chaos::write_frame(up.faults.as_mut(), &mut up.stream, &frame);
    if sent.is_err() {
        let _ = up.stream.shutdown(std::net::Shutdown::Both);
    }
    sent.is_ok()
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Zero-sized marker pinning a client to its server's wire types.
type ClientTypes<Inst, Sub, Sol> = PhantomData<fn() -> (Inst, Sub, Sol)>;

/// A blocking client of one [`Server`] (one TCP connection).
pub struct JobClient<Inst, Sub, Sol> {
    stream: TcpStream,
    dec: FrameDecoder,
    _types: ClientTypes<Inst, Sub, Sol>,
}

/// Outcome of [`JobClient::try_submit`]: admission control made a
/// rejected submit a normal answer, not an I/O error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The job was accepted under this id.
    Accepted(u64),
    /// Admission control refused it (quota, capacity or draining).
    Rejected(String),
}

/// A shard refused an RPC because the caller's gateway lease epoch was
/// stale ([`ServerReply::Fenced`]). Carried inside the `io::Error` the
/// client method returns; recover it with [`fenced_epoch`]. A gateway
/// that sees this must demote itself — a standby holds a newer lease.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FencedError {
    /// The highest gateway epoch the shard knows (the usurper's).
    pub epoch: u64,
}

impl std::fmt::Display for FencedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fenced: a newer gateway (epoch {}) owns this fleet", self.epoch)
    }
}

impl std::error::Error for FencedError {}

pub(crate) fn fenced_io_error(epoch: u64) -> io::Error {
    io::Error::new(io::ErrorKind::PermissionDenied, FencedError { epoch })
}

/// If `e` is a fencing refusal ([`ServerReply::Fenced`] surfaced by a
/// [`JobClient`] method), the usurper's epoch; `None` for every other
/// error. The one test a gateway's RPC error handling needs.
pub fn fenced_epoch(e: &io::Error) -> Option<u64> {
    e.get_ref().and_then(|inner| inner.downcast_ref::<FencedError>()).map(|f| f.epoch)
}

impl<Inst: WireType, Sub: WireType, Sol: WireType> JobClient<Inst, Sub, Sol> {
    /// Connects to a server's client address.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(JobClient { stream, dec: FrameDecoder::new(), _types: PhantomData })
    }

    /// Like [`Self::connect`], but bounded: both the TCP connect and
    /// every later read time out after `timeout` instead of blocking
    /// forever. This is the health-probe constructor — a gateway must
    /// never let one dead shard wedge its sweep. Not suitable for
    /// [`Self::watch`] on long-running jobs (events can be sparser than
    /// any sensible probe timeout).
    pub fn connect_timeout(addr: &str, timeout: Duration) -> io::Result<Self> {
        use std::net::ToSocketAddrs;
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(timeout))?;
        Ok(JobClient { stream, dec: FrameDecoder::new(), _types: PhantomData })
    }

    /// Tries each address in turn (bounded per attempt) and returns the
    /// first that connects, with its index — the client half of gateway
    /// HA: `--gateway a,b` hands `ugd` both the primary and the
    /// standby, and whichever answers serves the request.
    pub fn connect_any(addrs: &[String], timeout: Duration) -> io::Result<(usize, Self)> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no addresses given");
        for (i, addr) in addrs.iter().enumerate() {
            match Self::connect_timeout(addr, timeout) {
                Ok(client) => return Ok((i, client)),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Announces the caller's gateway lease epoch on this connection
    /// (the fencing handshake). Returns the highest epoch the server
    /// now knows; a *stale* announcement returns the fencing error
    /// ([`fenced_epoch`] recovers the usurper's epoch) — the caller
    /// must demote itself instead of mutating the fleet.
    pub fn announce_gateway_epoch(&mut self, epoch: u64) -> io::Result<u64> {
        match self.request(&ClientRequest::GatewayEpoch { epoch })? {
            ServerReply::GatewayEpochAck { epoch } => Ok(epoch),
            ServerReply::Fenced { epoch } => Err(fenced_io_error(epoch)),
            _ => Err(unexpected_reply()),
        }
    }

    /// Bounds every later read (a pooled connection changes hands).
    pub(crate) fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    pub(crate) fn read_reply(&mut self) -> io::Result<ServerReply<Sol>> {
        wire::read_msg(&mut self.stream, &mut self.dec)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    pub(crate) fn request(
        &mut self,
        req: &ClientRequest<Inst, Sub>,
    ) -> io::Result<ServerReply<Sol>> {
        wire::write_msg(&mut self.stream, req)?;
        self.read_reply()
    }

    /// Submits a job; returns its id. An admission-control rejection
    /// surfaces as an error here — use [`Self::try_submit`] to tell a
    /// quota refusal apart from a transport failure.
    pub fn submit(&mut self, spec: JobSpec<Inst, Sub>) -> io::Result<u64> {
        match self.try_submit(spec)? {
            SubmitOutcome::Accepted(job) => Ok(job),
            SubmitOutcome::Rejected(reason) => Err(io::Error::other(format!("rejected: {reason}"))),
        }
    }

    /// Submits a job, reporting an admission-control rejection as a
    /// normal [`SubmitOutcome`] instead of an error.
    pub fn try_submit(&mut self, spec: JobSpec<Inst, Sub>) -> io::Result<SubmitOutcome> {
        submit_outcome(self.request(&ClientRequest::Submit { spec })?)
    }

    /// Takes a *queued* job back from the server (the work-stealing
    /// primitive); `Ok(false)` when it already started or finished.
    pub fn reclaim(&mut self, job: u64) -> io::Result<bool> {
        cancel_outcome(self.request(&ClientRequest::Reclaim { job })?)
    }

    /// Fetches the fleet snapshot (gateways only; a plain server
    /// answers with an error).
    pub fn fleet(&mut self) -> io::Result<FleetStatus> {
        match self.request(&ClientRequest::Fleet)? {
            ServerReply::Fleet { fleet } => Ok(fleet),
            ServerReply::Error { message } => Err(io::Error::other(message)),
            _ => Err(unexpected_reply()),
        }
    }

    /// Cancels a job; `Ok(false)` when it already reached a terminal
    /// state (or is unknown).
    pub fn cancel(&mut self, job: u64) -> io::Result<bool> {
        cancel_outcome(self.request(&ClientRequest::Cancel { job })?)
    }

    /// Fetches a [`ServerStatus`] snapshot.
    pub fn status(&mut self) -> io::Result<ServerStatus> {
        match self.request(&ClientRequest::Status)? {
            ServerReply::Status { status } => Ok(status),
            _ => Err(unexpected_reply()),
        }
    }

    /// Fetches the Prometheus-style exposition plus per-job progress
    /// snapshots (what `ugd top` refreshes on).
    pub fn metrics(&mut self) -> io::Result<MetricsReport> {
        match self.request(&ClientRequest::Metrics)? {
            ServerReply::Metrics { report } => Ok(report),
            _ => Err(unexpected_reply()),
        }
    }

    /// Streams the job's events from `from_seq`, invoking `on_event`
    /// for each, until (and including) the terminal `Finished` event,
    /// which is returned.
    pub fn watch(
        &mut self,
        job: u64,
        from_seq: usize,
        mut on_event: impl FnMut(&JobEvent<Sol>),
    ) -> io::Result<JobEvent<Sol>> {
        wire::write_msg(&mut self.stream, &ClientRequest::<Inst, Sub>::Watch { job, from_seq })?;
        loop {
            match self.read_reply()? {
                ServerReply::Event { event } => {
                    on_event(&event);
                    if matches!(event.kind, JobEventKind::Finished { .. }) {
                        return Ok(event);
                    }
                }
                ServerReply::Error { message } => {
                    return Err(io::Error::new(io::ErrorKind::NotFound, message));
                }
                _ => return Err(unexpected_reply()),
            }
        }
    }

    /// Blocks until the job finishes; returns the terminal event.
    pub fn wait(&mut self, job: u64) -> io::Result<JobEvent<Sol>> {
        self.watch(job, 0, |_| {})
    }

    /// Asks the server to shut down.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.request(&ClientRequest::Shutdown)? {
            ServerReply::ShuttingDown => Ok(()),
            _ => Err(unexpected_reply()),
        }
    }
}

/// What a reply to `Submit` means to the submitter.
pub(crate) fn submit_outcome<Sol>(reply: ServerReply<Sol>) -> io::Result<SubmitOutcome> {
    match reply {
        ServerReply::Submitted { job } => Ok(SubmitOutcome::Accepted(job)),
        ServerReply::Rejected { reason } => Ok(SubmitOutcome::Rejected(reason)),
        ServerReply::Fenced { epoch } => Err(fenced_io_error(epoch)),
        ServerReply::Error { message } => Err(io::Error::other(message)),
        _ => Err(unexpected_reply()),
    }
}

/// What a reply to `Cancel` or `Reclaim` means to the caller.
pub(crate) fn cancel_outcome<Sol>(reply: ServerReply<Sol>) -> io::Result<bool> {
    match reply {
        ServerReply::CancelResult { ok, .. } => Ok(ok),
        ServerReply::Fenced { epoch } => Err(fenced_io_error(epoch)),
        _ => Err(unexpected_reply()),
    }
}

fn unexpected_reply() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "unexpected reply kind")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::UgStats;

    #[test]
    fn job_state_terminality() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        for s in [
            JobState::Solved,
            JobState::Infeasible,
            JobState::TimedOut,
            JobState::Cancelled,
            JobState::Failed,
        ] {
            assert!(s.is_terminal());
        }
    }

    fn result(
        solved: bool,
        solution: Option<(u32, f64)>,
        workers_died: u64,
    ) -> ParallelResult<u32, u32> {
        ParallelResult {
            solution,
            dual_bound: 0.0,
            solved,
            stats: UgStats { workers_died, ..UgStats::default() },
            final_checkpoint: None,
        }
    }

    #[test]
    fn classify_covers_every_terminal_state() {
        assert_eq!(classify(&result(true, Some((1, 5.0)), 0), false, 2), JobState::Solved);
        assert_eq!(classify(&result(true, None, 0), false, 2), JobState::Infeasible);
        assert_eq!(classify(&result(false, None, 0), true, 2), JobState::Cancelled);
        assert_eq!(classify(&result(false, None, 2), false, 2), JobState::Failed);
        assert_eq!(classify(&result(false, None, 1), false, 2), JobState::TimedOut);
        // A cancel that arrives after the proof changes nothing.
        assert_eq!(classify(&result(true, Some((1, 5.0)), 0), true, 2), JobState::Solved);
    }

    #[test]
    fn set_rank_rewrites_every_upward_variant() {
        let mut msgs: Vec<Message<u32, u32>> = vec![
            Message::SolutionFound { rank: 0, sol: 1, obj: 2.0 },
            Message::Status { rank: 0, dual_bound: 1.0, open: 2, nodes: 3 },
            Message::ExportedNode {
                rank: 0,
                sub: crate::messages::SubproblemMsg { sub: 1, dual_bound: 0.0 },
            },
            Message::Completed { rank: 0, dual_bound: 1.0, nodes: 2, aborted: false },
            Message::WorkerDied { rank: 0 },
        ];
        for m in msgs.iter_mut() {
            set_rank(m, 7);
        }
        for m in &msgs {
            let got = match m {
                Message::SolutionFound { rank, .. }
                | Message::Status { rank, .. }
                | Message::ExportedNode { rank, .. }
                | Message::Completed { rank, .. }
                | Message::WorkerDied { rank } => *rank,
                _ => unreachable!(),
            };
            assert_eq!(got, 7);
        }
        // Downward messages are untouched.
        let mut down: Message<u32, u32> = Message::Terminate;
        set_rank(&mut down, 7);
        assert_eq!(down.tag(), "termination");
    }

    #[test]
    fn pool_down_ug_mirror_is_wire_compatible() {
        let mirror: PoolDownUg<u32, u32> =
            PoolDownUg::Ug { job: 9, msg: Message::Incumbent { sol: 3, obj: 1.5 } };
        let bytes = wire::encode(&mirror);
        let full: PoolDown<String, u32, u32> = wire::decode(&bytes[4..]).unwrap();
        match full {
            PoolDown::Ug { job, msg } => {
                assert_eq!(job, 9);
                assert_eq!(msg.tag(), "incumbent");
            }
            other => panic!("mirror decoded as {other:?}"),
        }
    }

    #[test]
    fn job_spec_new_has_sane_defaults() {
        let spec: JobSpec<String, u32> = JobSpec::new("j", "inst".into(), 0);
        assert_eq!(spec.priority, 0);
        assert_eq!(spec.num_solvers, 2);
        assert!(spec.time_limit.is_infinite());
        assert!(spec.node_limit.is_none());
    }
}
