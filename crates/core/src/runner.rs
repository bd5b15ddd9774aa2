//! The public entry points: spawn ParaSolvers, run the LoadCoordinator,
//! join, return results.
//!
//! [`solve_parallel`] runs `ug [base solver, ThreadComm]` — workers are
//! threads of this process. [`solve_parallel_distributed`] runs `ug
//! [base solver, ProcessComm]` — workers are spawned OS processes
//! hosting the base solver (see [`run_distributed_worker`] for their
//! half), connected over localhost TCP. Both drive the *same*
//! [`LoadCoordinator`]; only the transport handed to it differs.

use crate::checkpoint::Checkpoint;
use crate::comm::{thread_comm, LcComm, WorkerComm};
use crate::process::{connect_worker, ProcessCommConfig, ProcessListener};
use crate::settings::SolverSettings;
use crate::stats::UgStats;
use crate::supervisor::LoadCoordinator;
use crate::worker::{worker_loop, BaseSolver, SolverFactory};
use serde::de::DeserializeOwned;
use serde::Serialize;
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
    /// `--compress-state`: write checkpoints through the
    /// [`crate::lz`] container (loads always auto-detect).
    pub compress_checkpoints: bool,
    /// Resume from this checkpoint.
    pub restart_from: Option<String>,
    /// Desired size of the coordinator's subproblem pool per idle solver
    /// (collect-mode hysteresis).
    pub pool_target_per_solver: f64,
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
            compress_checkpoints: false,
            restart_from: None,
            pool_target_per_solver: 1.0,
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
    /// Worker executable followed by its fixed leading arguments (the
    /// problem selector etc.). The runner appends `--connect <addr>
    /// --rank <i> --status-interval <s>` plus the transport tuning
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

/// Runs the parallel solve with `num_solvers` *worker processes*
/// spawned from `dist.worker_command` — `ug [base solver,
/// ProcessComm]`. The subproblem and every protocol message cross
/// process boundaries as wire frames; the coordinator logic is
/// identical to the threaded run. Workers are reaped (waited for, then
/// killed if unresponsive) before this returns.
pub fn solve_parallel_distributed<Sub, Sol>(
    root: Sub,
    options: ParallelOptions,
    dist: DistributedOptions,
) -> std::io::Result<ParallelResult<Sub, Sol>>
where
    Sub: Clone + Send + Serialize + DeserializeOwned + 'static,
    Sol: Clone + Send + Serialize + DeserializeOwned + 'static,
{
    let n = options.num_solvers.max(1);
    let (program, fixed_args) = dist.worker_command.split_first().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty worker_command")
    })?;
    let listener = ProcessListener::bind(&dist.listen_addr)?;
    let addr = listener.local_addr()?.to_string();
    let mut children = ChildReaper(Vec::with_capacity(n));
    for rank in 0..n {
        let child = std::process::Command::new(program)
            .args(fixed_args)
            .arg("--connect")
            .arg(&addr)
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--status-interval")
            .arg(options.status_interval.to_string())
            .arg("--heartbeat-ms")
            .arg(dist.comm.heartbeat_interval.as_millis().to_string())
            .arg("--handshake-ms")
            .arg(dist.comm.handshake_timeout.as_millis().to_string())
            .arg("--liveness-ms")
            .arg(dist.comm.liveness_timeout.as_millis().to_string())
            .arg("--reconnect-ms")
            .arg(dist.comm.reconnect_deadline.as_millis().to_string())
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .spawn()?;
        children.0.push(child);
    }

    let lc = LcComm::Process(listener.accept_workers::<Sub, Sol>(n, &dist.comm)?);
    let mut coordinator = LoadCoordinator::new(lc, options, root);
    let result = coordinator.run();
    children.reap();
    Ok(result)
}

/// Drop guard around the spawned worker fleet: any exit path that skips
/// the graceful [`ChildReaper::reap`] — a `?` during spawn or handshake,
/// or a panic inside the coordinator — still kills and waits on every
/// child, so no `ugd-worker` can outlive its run.
struct ChildReaper(Vec<std::process::Child>);

impl ChildReaper {
    /// Graceful reap after `Terminate` was broadcast: bounded wait for
    /// voluntary exits, then kill stragglers.
    fn reap(mut self) {
        reap_children(&mut self.0);
        self.0.clear();
    }
}

impl Drop for ChildReaper {
    fn drop(&mut self) {
        // Non-graceful path: nobody told the workers to terminate, so
        // waiting first would only stall the error/panic propagation —
        // kill immediately.
        for c in self.0.iter_mut() {
            if !matches!(c.try_wait(), Ok(Some(_))) {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }
}

/// Waits (bounded) for worker processes to exit after `Terminate`, then
/// kills stragglers so a hung worker can never wedge the coordinator.
fn reap_children(children: &mut [std::process::Child]) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let all_done = children.iter_mut().all(|c| matches!(c.try_wait(), Ok(Some(_))));
        if all_done {
            return;
        }
        if std::time::Instant::now() >= deadline {
            for c in children.iter_mut() {
                if !matches!(c.try_wait(), Ok(Some(_))) {
                    let _ = c.kill();
                    let _ = c.wait();
                }
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The worker-process half of a distributed run: connect to the
/// coordinator at `addr`, then serve subproblems with `factory`-built
/// base solvers until `Terminate`. This is what a worker binary (e.g.
/// `ugd-worker`) calls after parsing its command line.
pub fn run_distributed_worker<S: BaseSolver + 'static>(
    addr: &str,
    rank_hint: Option<usize>,
    factory: SolverFactory<S>,
    status_interval: Duration,
    config: &ProcessCommConfig,
) -> std::io::Result<()> {
    let comm = WorkerComm::Process(connect_worker::<S::Sub, S::Sol>(addr, rank_hint, config)?);
    worker_loop(comm, factory, status_interval);
    Ok(())
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
