//! UG — the Ubiquity Generator framework, in Rust.
//!
//! This crate reproduces the architecture of UG as described in §2.2 of
//! the paper: a generic framework that parallelizes *any existing
//! state-of-the-art B&B-based solver* (the **base solver**) through a
//! Supervisor–Worker coordination mechanism with subtree-level
//! parallelism (Algorithms 1 and 2 of the paper):
//!
//! * the **LoadCoordinator** ([`supervisor`]) is the Supervisor: it owns
//!   a small pool of subproblems extracted from the solvers, performs
//!   dynamic load balancing via *collect mode* (requesting heavy open
//!   subproblems from busy solvers), distributes incumbents, triggers
//!   checkpoints and decides termination;
//! * each **ParaSolver** ([`worker`]) wraps one base-solver instance; the
//!   B&B tree lives *inside* the base solver, and only solver-independent
//!   subproblem descriptions cross rank boundaries;
//! * **ramp-up** is either *normal* (solvers spread branched nodes) or
//!   *racing* ([`RampUp::Racing`]): all solvers attack the root under
//!   different parameter settings / permutations, a winner is selected by
//!   a (dual bound, open nodes) criterion, its open nodes are collected
//!   and redistributed, and the losers' trees are discarded — keeping
//!   only their solutions;
//! * **layered presolving** happens because every ParaSolver re-presolves
//!   each received subproblem (the base solver does this internally);
//! * **checkpointing** ([`checkpoint`]) saves only *primitive nodes* —
//!   the LoadCoordinator's queue plus the subproblem roots currently
//!   assigned — exactly UG's strategy of saving subtree roots rather
//!   than all open nodes, accepting re-search after restart.
//!
//! The message-passing layer ([`comm`]) is rank-addressed and typed,
//! with two interchangeable back-ends — the in-process **ThreadComm**
//! (the Pthreads/C++11 half, FiberSCIP-style) and the multi-process
//! **ProcessComm** ([`process`]: wire frames over localhost TCP, the
//! MPI/ParaSCIP half) — proving UG's design point that *only this
//! layer* changes between shared and distributed memory: supervisor,
//! worker and runner are byte-identical across both.

#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod comm;
pub mod gateway;
pub mod ledger;
pub mod lz;
pub mod messages;
pub mod process;
pub mod rpc;
pub mod runner;
pub mod server;
pub mod settings;
pub mod stats;
pub mod supervisor;
pub mod telemetry;
pub mod tuner;
pub mod wire;
pub mod worker;

pub use chaos::{ChaosConfig, ChaosProfile, FaultAction, FaultPlan};
pub use checkpoint::{write_atomic, Checkpoint};
pub use gateway::{Gateway, GatewayConfig, ShardSpec, TenantQuota};
pub use ledger::{JobLedger, LedgerRecord, RecoveredJob, Recovery};
pub use messages::{Message, SubproblemMsg};
pub use process::ProcessCommConfig;
pub use runner::{
    run_distributed_worker, solve_parallel, solve_parallel_distributed, DistributedOptions,
    ParallelOptions, ParallelResult, RampUp,
};
pub use server::{
    serve_worker, ClientRequest, JobClient, JobEvent, JobEventKind, JobSpec, JobState, JobSummary,
    PoolDown, PoolHello, PoolUp, PoolWelcome, Server, ServerConfig, ServerReply, ServerStatus,
    WireType, WorkerInfo, POOL_PROTOCOL_VERSION,
};
pub use server::{FleetStatus, JobProgress, MetricsReport, ShardSummary, SubmitOutcome};
pub use settings::SolverSettings;
pub use stats::UgStats;
pub use telemetry::{
    Journal, JournalRecord, MetricsRegistry, ProgressMsg, ProgressSink, RacingArm, TelemetryEvent,
    TelemetrySink,
};
pub use tuner::{adaptive_node_budget, DecisionSource, TunerDecision, TunerModel, TunerService};
pub use worker::{BaseSolver, ParaControl, SubproblemOutcome};

/// The internal objective sense across the whole framework is
/// *minimization*; base solvers must convert at their boundary.
pub const OBJ_EPS: f64 = 1e-9;
