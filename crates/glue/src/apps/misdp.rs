//! `misdp_plugins` — the entire glue needed to run the MISDP solver
//! under UG (the `misdp_plugins.cpp` analog; the paper counts 106 lines
//! for the original).

use crate::base::{CipUserPlugins, UgCipSolver};
use std::sync::Arc;
use ugrs_cip::{NodeDesc, Solver as CipSolver};
use ugrs_core::{solve_parallel, ParallelOptions, ParallelResult, SolverSettings};
use ugrs_misdp::solver::{build_cip_model, register_plugins};
use ugrs_misdp::{decode_settings, racing_settings, MisdpProblem};

/// The plugin declaration list for the MISDP application.
pub struct MisdpPlugins {
    pub problem: Arc<MisdpProblem>,
}

impl CipUserPlugins for MisdpPlugins {
    fn name(&self) -> &str {
        "ug[ScipSdp,*]"
    }

    fn create_solver(&self, settings: &SolverSettings) -> CipSolver {
        // §3.2: racing dynamically chooses between the LP- and SDP-based
        // relaxations — the settings bundle decides which this instance
        // runs.
        let (approach, cip_settings) = decode_settings(settings);
        let model = build_cip_model(&self.problem);
        let mut solver = CipSolver::new(model, cip_settings);
        register_plugins(&mut solver, self.problem.clone(), approach);
        solver
    }
}

/// The MISDP racing set (odd = SDP-based, even = LP-based; §4.2).
pub fn misdp_racing_settings(n: usize) -> Vec<SolverSettings> {
    racing_settings(n)
}

/// Result of a parallel MISDP solve, in maximization sense.
#[derive(Clone, Debug)]
pub struct MisdpParallelResult {
    pub best_obj: Option<f64>,
    pub y: Option<Vec<f64>>,
    pub dual_bound: f64,
    pub solved: bool,
    pub stats: ugrs_core::UgStats,
    pub ug: ParallelResult<NodeDesc, Vec<f64>>,
}

/// `ug [ScipSdp, ThreadComm]`.
pub fn ug_solve_misdp(problem: &MisdpProblem, options: ParallelOptions) -> MisdpParallelResult {
    let problem = Arc::new(problem.clone());
    let plugins = Arc::new(MisdpPlugins { problem: problem.clone() });
    let factory = UgCipSolver::factory(plugins);
    let res = solve_parallel(factory, NodeDesc::root(), options);
    map_back(res)
}

/// `ug [ScipSdp, ProcessComm]`: the same solve over worker *processes*
/// (`dist.worker_command`, typically the `ugd-worker` binary), which
/// receive the instance as a [`crate::JobInstance`] — encoded here,
/// once — in the run's one `Begin`.
pub fn ug_solve_misdp_distributed(
    problem: &MisdpProblem,
    options: ParallelOptions,
    dist: ugrs_core::DistributedOptions,
) -> std::io::Result<MisdpParallelResult> {
    let instance = crate::JobInstance::Misdp { problem: problem.clone() };
    let instance = ugrs_core::EncodedInstance::encode(&instance);
    let res = ugrs_core::solve_parallel_distributed(instance, NodeDesc::root(), options, dist)?;
    Ok(map_back(res))
}

/// Converts a UG result from the internal minimization of −bᵀy back to
/// the MISDP's maximization sense.
fn map_back(res: ParallelResult<NodeDesc, Vec<f64>>) -> MisdpParallelResult {
    let best_obj = res.solution.as_ref().map(|(_, obj)| -obj);
    let y = res.solution.as_ref().map(|(x, _)| x.clone());
    MisdpParallelResult {
        best_obj,
        y,
        dual_bound: -res.dual_bound,
        solved: res.solved,
        stats: res.stats.clone(),
        ug: res,
    }
}
