//! The job-serving subsystem: a persistent solve service with a shared
//! worker pool — `ugd-server`'s core.
//!
//! [`crate::runner::solve_parallel_distributed`] spawns and reaps an
//! entire worker fleet *per call*. The deployment model of the paper
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
//!   driving its leased workers through a [`JobComm`] — the process
//!   back-end of [`crate::comm::LcComm`], the same one a per-call run
//!   drives its private one-job pool through;
//! * jobs move through a lifecycle `Queued → Running → {Solved,
//!   Infeasible, TimedOut, Cancelled, Failed}` ([`JobState`]), with
//!   progress streamed to watching clients as [`JobEvent`]s;
//! * a worker that dies mid-job is reported to that job's coordinator
//!   as [`Message::WorkerDied`] (triggering the existing requeue path)
//!   *and* replaced by a pool-refill respawn, so the server degrades
//!   gracefully instead of shrinking forever.
//!
//! Wire protocols ([`crate::wire`]): clients speak
//! [`ClientRequest`]/[`ServerReply`] as length-prefixed JSON frames.
//! Pool workers are members of the session layer every worker joins
//! (`process::Sessions`: the hello/welcome handshake, resumable sessions with
//! retransmit rings, heartbeats, the liveness sweep) and speak the one
//! worker protocol, [`crate::process::PoolDown`]/[`PoolUp`]; the pool
//! is the sessions' owner and gives a payload its job and a death its
//! consequences. A torn pool connection therefore resumes; a worker is
//! replaced only once its session dies or its process exits. The
//! `Begin` payload
//! carrying the instance is encoded **once** per job and shared by
//! every leased worker's retransmit ring ([`JobComm::begin`]) — the
//! instance never re-serializes per rank.

use crate::comm::LcComm;
use crate::ledger::JobLedger;
use crate::messages::Message;
use crate::process::{
    reap, set_rank, spawn_worker, Hello, JobComm, PoolUp, ProcessCommConfig, SessionOwner, Sessions,
};
use crate::rpc::{
    empty_finished, serve_clients, state_label, wake_listener, EventLog, RequestHandler,
};
use crate::runner::{ParallelOptions, ParallelResult};
use crate::supervisor::LoadCoordinator;
use crate::telemetry::{self, MetricsRegistry, ProgressMsg, ProgressSink, TelemetrySink};
use crate::wire::{self, FrameDecoder, WireError};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// Everything that crosses a wire in this module: the bound shared by
/// instance, subproblem and solution types.
pub trait WireType: Clone + Send + Serialize + DeserializeOwned + 'static {}
impl<T: Clone + Send + Serialize + DeserializeOwned + 'static> WireType for T {}

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
    /// constructors. Journaled in the
    /// [`TelemetryEvent::JobMeta`](crate::telemetry::TelemetryEvent)
    /// head record.
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
    /// `--connect <addr> --pool-tag <tag> --status-interval <s>
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
        }
    }
}

/// A pool member; its connection is the session of the same id.
struct WorkerEntry {
    /// The `Child` when the server spawned this worker itself.
    child: Option<Child>,
    pid: Option<u32>,
    /// `(job, rank)` while leased.
    lease: Option<(u64, usize)>,
    /// Set when the leased job finished; cleared by `JobDone`.
    draining_since: Option<Instant>,
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
    /// The pool's connections: one session per worker.
    sessions: Sessions,
    /// The client listener's address: what [`initiate_shutdown`] dials
    /// to end its accept loop.
    client_addr: SocketAddr,
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
}

/// Everything a job thread needs, collected under the state lock and
/// handed out of it (threads are spawned lock-free in phase B).
struct StartedJob<Inst, Sub, Sol> {
    jid: u64,
    spec: JobSpec<Inst, Sub>,
    cancel: Arc<AtomicBool>,
    /// The leased workers' pool ids, by rank.
    workers: Vec<u64>,
    inbox: Receiver<Message<Sub, Sol>>,
    /// Checkpoint JSON to resume from (recovered jobs only).
    restart_from: Option<String>,
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
            let l = JobLedger::open(dir)?;
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
        let pool_comm = config.comm.clone();
        let shared = Arc::new_cyclic(|me: &Weak<SharedState<Inst, Sub, Sol>>| SharedState {
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
            sessions: Sessions::new(&pool_comm, Arc::new(Pool(me.clone()))),
            client_addr,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            gateway_epoch: AtomicU64::new(0),
            progress: Mutex::new(HashMap::new()),
            metrics: MetricsRegistry::new(),
            ledger,
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
        shared.sessions.listen(worker_listener)?;
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
    wake_listener(shared.client_addr);
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

/// The scheduler: pool refill, liveness, and job starts. Each pass
/// sweeps the pool's sessions, then has three phases — decide under the
/// state lock (A), act lock-free (B: kill lost workers, spawn job
/// threads, emit events), then block on the condvar (C). Nothing slow
/// ever runs under the lock.
fn scheduler_loop<Inst: WireType, Sub: WireType, Sol: WireType>(
    shared: Arc<SharedState<Inst, Sub, Sol>>,
) {
    loop {
        shared.sessions.sweep();
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
                    let config = &shared.config;
                    let spawned = spawn_worker(
                        &config.worker_command,
                        &shared.worker_addr,
                        tag,
                        config.status_interval,
                        &config.comm,
                    );
                    match spawned {
                        Ok(child) => {
                            st.pending.insert(tag, PendingSpawn { child, since: Instant::now() });
                        }
                        Err(_) => break,
                    }
                }
            }
            // A spawned worker whose process has exited is lost now —
            // no resume can bring it back, so its session's reconnect
            // window is not waited out. So is one stuck draining.
            for (id, w) in st.workers.iter_mut() {
                let exited = w.child.as_mut().is_some_and(|c| matches!(c.try_wait(), Ok(Some(_))));
                let stuck =
                    w.draining_since.is_some_and(|t| t.elapsed() > shared.config.drain_timeout);
                if exited || stuck {
                    lost.push(*id);
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
                let workers: Vec<u64> = free[..want].to_vec();
                for (rank, wid) in workers.iter().enumerate() {
                    st.workers.get_mut(wid).expect("chosen from live workers").lease =
                        Some((jid, rank));
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
                    workers,
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
            shared.events.emit(s.jid, JobEventKind::Started { workers: s.workers.len() });
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

/// Removes a dead/stuck worker: evict its session, kill its process,
/// tell its job's coordinator (requeue path), wake the scheduler
/// (refill path). Idempotent — the session layer and the scheduler's
/// process check may both report the same worker.
fn worker_lost<Inst, Sub, Sol: Clone>(shared: &SharedState<Inst, Sub, Sol>, id: u64) {
    let (child, notify) = {
        let mut st = shared.state.lock().unwrap();
        let Some(mut w) = st.workers.remove(&id) else { return };
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
    shared.sessions.evict(id);
    reap(child);
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
    let StartedJob { jid, spec, cancel, workers, inbox, restart_from } = start;
    let n = workers.len();
    let comm = JobComm::new(jid, shared.sessions.clone(), workers, inbox);
    comm.begin(&spec.instance);
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
    let options = ParallelOptions {
        num_solvers: n,
        time_limit: spec.time_limit,
        node_limit: spec.node_limit,
        cancel: Some(cancel.clone()),
        status_interval: shared.config.status_interval,
        telemetry: TelemetrySink { journal, progress: Some(progress) },
        checkpoint_path,
        checkpoint_interval: shared.config.checkpoint_interval,
        restart_from,
        ..ParallelOptions::default()
    };
    let mut coordinator = LoadCoordinator::new(LcComm::Process(comm), options, spec.root.clone());
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
    let mut children: Vec<Child> = st.workers.drain().filter_map(|(_, w)| w.child).collect();
    children.extend(st.pending.drain().map(|(_, p)| p.child));
    drop(st);
    shared.sessions.close();
    reap(children);
}

// ---------------------------------------------------------------------
// Worker pool: the owner of the pool's sessions
// ---------------------------------------------------------------------

/// The pool as the owner of its [`Sessions`]: a hello's spawn tag marries
/// the connection back to its `Child`, payloads are [`PoolUp`]s, a death
/// is a lost worker. Weak, because the table lives inside the state.
struct Pool<Inst, Sub, Sol>(Weak<SharedState<Inst, Sub, Sol>>);

impl<Inst: WireType, Sub: WireType, Sol: WireType> SessionOwner for Pool<Inst, Sub, Sol> {
    fn admit(&self, hello: &Hello, _taken: &dyn Fn(u64) -> bool) -> Option<u64> {
        let shared = self.0.upgrade()?;
        let mut st = shared.state.lock().unwrap();
        match hello.tag {
            Some(tag) if st.pending.contains_key(&tag) => Some(tag),
            _ => {
                st.next_worker_tag += 1;
                Some(st.next_worker_tag - 1)
            }
        }
    }

    fn joined(&self, id: u64, hello: &Hello) {
        let Some(shared) = self.0.upgrade() else { return };
        {
            let mut st = shared.state.lock().unwrap();
            let child = st.pending.remove(&id).map(|p| p.child);
            let pid = hello.pid.or_else(|| child.as_ref().map(Child::id));
            st.workers.insert(id, WorkerEntry { child, pid, lease: None, draining_since: None });
        }
        shared.sched.notify_all();
    }

    fn deliver(&self, id: u64, payload: &[u8]) -> Result<(), WireError> {
        let up = wire::decode::<PoolUp<Sub, Sol>>(payload)?;
        let Some(shared) = self.0.upgrade() else { return Ok(()) };
        match up {
            PoolUp::JobDone { .. } => {
                if let Some(w) = shared.state.lock().unwrap().workers.get_mut(&id) {
                    w.lease = None;
                    w.draining_since = None;
                }
                shared.sched.notify_all();
            }
            PoolUp::Ug { job, mut msg } => {
                let tx = {
                    let st = shared.state.lock().unwrap();
                    let lease = st.workers.get(&id).and_then(|w| w.lease);
                    let Some((jid, rank)) = lease.filter(|(jid, _)| *jid == job) else {
                        return Ok(()); // no lease, or a stale payload of a previous job
                    };
                    set_rank(&mut msg, rank);
                    st.jobs.get(&jid).and_then(|j| j.inbox.clone())
                };
                if let Some(tx) = tx {
                    shared.events.emit_progress(job, &msg);
                    let _ = tx.send(msg);
                }
            }
        }
        Ok(())
    }

    fn died(&self, id: u64) {
        if let Some(shared) = self.0.upgrade() {
            worker_lost(&shared, id);
        }
    }

    fn accepted(&self) {
        if let Some(shared) = self.0.upgrade() {
            shared.connections_accepted("pool").inc();
        }
    }

    fn heartbeat(&self, gap: Duration) {
        if let Some(shared) = self.0.upgrade() {
            shared.heartbeat_gap().observe(gap.as_secs_f64());
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
    fn job_spec_new_has_sane_defaults() {
        let spec: JobSpec<String, u32> = JobSpec::new("j", "inst".into(), 0);
        assert_eq!(spec.priority, 0);
        assert_eq!(spec.num_solvers, 2);
        assert!(spec.time_limit.is_infinite());
        assert!(spec.node_limit.is_none());
    }

    /// A shutdown closes idle client connections at once instead of
    /// leaving each to notice at its next read timeout.
    #[test]
    fn an_idle_client_reads_eof_right_after_shutdown() {
        let server = Server::<u32, u32, u32>::start(ServerConfig::default()).expect("start");
        let mut client = JobClient::<u32, u32, u32>::connect(&server.client_addr().to_string())
            .expect("connect");
        client.status().expect("the connection is being served");
        client.set_read_timeout(Duration::from_secs(5)).unwrap();
        let t0 = Instant::now();
        server.shutdown();
        let err = client.read_reply().expect_err("nothing but EOF may arrive");
        let took = t0.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(took < Duration::from_millis(100), "EOF took {took:?}");
        server.join();
    }
}
