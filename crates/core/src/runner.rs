//! The public entry points: spawn ParaSolvers, run the LoadCoordinator,
//! join, return results.
//!
//! [`solve_parallel`] runs `ug [base solver, ThreadComm]` — workers are
//! threads of this process. [`solve_parallel_distributed`] runs `ug
//! [base solver, ProcessComm]` — workers are spawned OS processes
//! hosting the base solver (see [`crate::worker::serve_worker`] for
//! their half), connected over localhost TCP. Both drive the *same*
//! [`LoadCoordinator`]; only the transport handed to it differs.

use crate::checkpoint::Checkpoint;
use crate::comm::{thread_comm, LcComm};
use crate::process::{accept_ranks, reap, spawn_worker, ProcessCommConfig};
use crate::settings::SolverSettings;
use crate::stats::UgStats;
use crate::supervisor::LoadCoordinator;
use crate::wire::EncodedInstance;
use crate::worker::{worker_loop, BaseSolver, SolverFactory};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::net::TcpListener;
use std::time::Duration;

/// Ramp-up strategy (§2.2).
#[derive(Clone, Debug)]
pub enum RampUp {
    /// Normal ramp-up: the root goes to one solver; collect mode spreads
    /// branched nodes as solvers become idle.
    Normal,
    /// Racing ramp-up: all solvers attack the root under different
    /// settings; a winner is chosen when the trigger fires.
    Racing {
        /// The settings bundles, assigned round-robin to ranks.
        settings: Vec<SolverSettings>,
        /// Fire the trigger after this much wall-clock time…
        time_trigger: f64,
        /// …or once the most promising solver reports at least this many
        /// open nodes.
        open_nodes_trigger: usize,
    },
}

/// Options of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelOptions {
    /// Number of ParaSolvers (threads).
    pub num_solvers: usize,
    /// Ramp-up strategy (normal spread or racing).
    pub ramp_up: RampUp,
    /// Wall-clock limit in seconds.
    pub time_limit: f64,
    /// Save a checkpoint here when the run stops unfinished (and
    /// periodically every `checkpoint_interval`).
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Seconds between periodic checkpoints (0 = only at shutdown).
    pub checkpoint_interval: f64,
    /// Resume from this checkpoint.
    pub restart_from: Option<String>,
    /// Minimum seconds between a worker's status reports.
    pub status_interval: f64,
    /// Stop (like the time limit: abort, drain, checkpoint) once the
    /// total processed B&B nodes reach this count.
    pub node_limit: Option<u64>,
    /// External cancellation: when the flag flips to true the run stops
    /// through the same orderly shutdown path as the time limit.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Live telemetry wiring: an optional JSONL run journal and an
    /// optional progress callback. Disabled (and near-free) by default.
    pub telemetry: crate::telemetry::TelemetrySink,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            num_solvers: 2,
            ramp_up: RampUp::Normal,
            time_limit: f64::INFINITY,
            checkpoint_path: None,
            checkpoint_interval: 0.0,
            restart_from: None,
            status_interval: 0.05,
            node_limit: None,
            cancel: None,
            telemetry: crate::telemetry::TelemetrySink::default(),
        }
    }
}

/// Result of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelResult<Sub, Sol> {
    /// Best solution with its internal-sense objective.
    pub solution: Option<(Sol, f64)>,
    /// Proven global dual bound (internal sense).
    pub dual_bound: f64,
    /// True when the search space was exhausted (optimality or
    /// infeasibility proven).
    pub solved: bool,
    /// Statistics of the run (Table 1-3 quantities).
    pub stats: UgStats,
    /// The final checkpoint (also written to disk when a path was set).
    pub final_checkpoint: Option<Checkpoint<Sub, Sol>>,
}

/// Runs the parallel solve: spawns `num_solvers` ParaSolver threads
/// around `factory`-built base solvers, coordinates them on `root`, and
/// returns the combined result.
pub fn solve_parallel<S: BaseSolver + 'static>(
    factory: SolverFactory<S>,
    root: S::Sub,
    options: ParallelOptions,
) -> ParallelResult<S::Sub, S::Sol> {
    solve_parallel_seeded(factory, root, None, options)
}

/// Like [`solve_parallel`], but seeds the coordinator with a known
/// feasible solution (internal-sense objective) before the run — the
/// paper's Table 3 workflow of re-running "from scratch with the best
/// solution", which then powers presolving, propagation and heuristics
/// in every ParaSolver.
pub fn solve_parallel_seeded<S: BaseSolver + 'static>(
    factory: SolverFactory<S>,
    root: S::Sub,
    incumbent: Option<(S::Sol, f64)>,
    options: ParallelOptions,
) -> ParallelResult<S::Sub, S::Sol> {
    let n = options.num_solvers.max(1);
    let (lc, workers) = thread_comm::<S::Sub, S::Sol>(n);
    let status_interval = Duration::from_secs_f64(options.status_interval);
    let mut handles = Vec::with_capacity(n);
    for w in workers {
        let f = factory.clone();
        handles.push(std::thread::spawn(move || worker_loop(w, f, status_interval)));
    }
    let mut coordinator = LoadCoordinator::new(lc, options, root);
    if let Some((sol, obj)) = incumbent {
        coordinator.set_initial_incumbent(sol, obj);
    }
    let result = coordinator.run();
    for h in handles {
        let _ = h.join();
    }
    result
}

/// How to launch and talk to distributed workers.
#[derive(Clone, Debug)]
pub struct DistributedOptions {
    /// Worker executable followed by its fixed leading arguments. The
    /// runner appends `--connect <addr> --pool-tag <rank>
    /// --status-interval <s>` plus the transport tuning
    /// (`--heartbeat-ms --handshake-ms --liveness-ms --reconnect-ms`)
    /// per spawned worker, so both ends share one [`ProcessCommConfig`].
    pub worker_command: Vec<String>,
    /// Coordinator listen address; `"127.0.0.1:0"` lets the OS pick a
    /// free port.
    pub listen_addr: String,
    /// Transport tuning (handshake/liveness/heartbeat).
    pub comm: ProcessCommConfig,
}

impl Default for DistributedOptions {
    fn default() -> Self {
        DistributedOptions {
            worker_command: Vec::new(),
            listen_addr: "127.0.0.1:0".into(),
            comm: ProcessCommConfig::default(),
        }
    }
}

/// Runs the parallel solve on `instance` with `num_solvers` *worker
/// processes* spawned from `dist.worker_command` — `ug [base solver,
/// ProcessComm]`. The run is a private one-job pool: worker *i* joins
/// as rank *i*, receives `instance` — encoded once by the caller — in
/// the job's one `Begin`, and every
/// protocol message crosses process boundaries as wire frames; the
/// coordinator logic is identical to the threaded run. Before this
/// returns — on every path, a panic included — the sessions are closed
/// and the workers killed and waited for.
pub fn solve_parallel_distributed<Sub, Sol>(
    instance: EncodedInstance,
    root: Sub,
    options: ParallelOptions,
    dist: DistributedOptions,
) -> std::io::Result<ParallelResult<Sub, Sol>>
where
    Sub: Clone + Send + Serialize + DeserializeOwned + 'static,
    Sol: Clone + Send + Serialize + DeserializeOwned + 'static,
{
    let n = options.num_solvers.max(1);
    let listener = TcpListener::bind(&dist.listen_addr)?;
    let addr = listener.local_addr()?.to_string();
    // Dropped last on every path: once the comm's drop has closed the
    // sessions, this kills the processes.
    let mut workers = Workers(Vec::with_capacity(n));
    for rank in 0..n as u64 {
        let spawned =
            spawn_worker(&dist.worker_command, &addr, rank, options.status_interval, &dist.comm);
        workers.0.push(spawned?);
    }
    let comm = accept_ranks::<Sub, Sol>(listener, n, &dist.comm)?;
    comm.begin(instance);
    // The coordinator, and with it the comm, drops at the end of this
    // statement.
    let result = LoadCoordinator::new(LcComm::Process(comm), options, root).run();
    Ok(result)
}

/// The worker processes of one per-call run, reaped ([`reap`]) when
/// dropped.
struct Workers(Vec<std::process::Child>);

impl Drop for Workers {
    fn drop(&mut self) {
        reap(self.0.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_sane() {
        let o = ParallelOptions::default();
        assert_eq!(o.num_solvers, 2);
        assert!(matches!(o.ramp_up, RampUp::Normal));
        assert!(o.time_limit.is_infinite());
    }
}
