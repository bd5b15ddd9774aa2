//! `stp_plugins` — the entire glue needed to run the Steiner solver
//! under UG (the `stp_plugins.cpp` analog, kept comparably small).

use crate::base::{CipUserPlugins, UgCipSolver};
use std::sync::Arc;
use ugrs_cip::{Emphasis, NodeDesc, Solver as CipSolver};
use ugrs_core::{ParallelOptions, ParallelResult, SolverSettings};
use ugrs_steiner::plugins::{build_model, register_plugins};
use ugrs_steiner::Graph;

/// The plugin declaration list for the STP application: holds the
/// (presolved) graph — presolving once in the LoadCoordinator, §2.2 —
/// and installs the SCIP-Jack plugin set into every fresh solver.
pub struct StpPlugins {
    pub graph: Arc<Graph>,
}

impl CipUserPlugins for StpPlugins {
    fn name(&self) -> &str {
        "ug[SteinerJack,*]"
    }

    fn create_solver(&self, settings: &SolverSettings) -> CipSolver {
        let (model, data) = build_model(&self.graph);
        let cip_settings = crate::base::decode_generic(settings);
        let mut solver = CipSolver::new(model, cip_settings);
        register_plugins(&mut solver, data);
        solver
    }
}

/// Problem-specific racing settings for STP (the paper's *customized
/// racing*): a permutation seed per racer and the emphasis presets in
/// the order default, feas, opt, easycip.
pub fn stp_racing_settings(n: usize) -> Vec<SolverSettings> {
    let cycle = [Emphasis::Default, Emphasis::Feasibility, Emphasis::Optimality, Emphasis::EasyCip];
    (0..n).map(|i| crate::base::emphasis_bundle("stp", cycle[i % 4], i)).collect()
}

/// Result of a parallel STP solve, mapped back to the original instance.
#[derive(Clone, Debug)]
pub struct StpParallelResult {
    /// Optimal/best tree (original edge ids) and its total cost.
    pub tree: Option<(Vec<u32>, f64)>,
    pub dual_bound: f64,
    pub solved: bool,
    pub stats: ugrs_core::UgStats,
    pub ug: ParallelResult<NodeDesc, Vec<f64>>,
}

/// `ug [SteinerJack, ThreadComm]`: reduce the graph once (coordinator-
/// side presolve), fan the root out to the ParaSolvers, map the winning
/// assignment back to original edges.
pub fn ug_solve_stp(
    graph: &Graph,
    reduce_params: &ugrs_steiner::reduce::ReduceParams,
    options: ParallelOptions,
) -> StpParallelResult {
    ug_solve_stp_seeded(graph, reduce_params, options, None)
}

/// [`ug_solve_stp`] seeded with a known solution: a *model assignment*
/// (as returned in `StpParallelResult::ug.solution`) plus its internal
/// objective. This reproduces Table 3's re-runs "from scratch with the
/// best solution" — the model build is deterministic, so assignments are
/// portable across runs on the same graph.
pub fn ug_solve_stp_seeded(
    graph: &Graph,
    reduce_params: &ugrs_steiner::reduce::ReduceParams,
    options: ParallelOptions,
    seed_solution: Option<(Vec<f64>, f64)>,
) -> StpParallelResult {
    let mut g = graph.clone();
    ugrs_steiner::reduce::reduce(&mut g, reduce_params);
    if g.num_terminals() < 2 {
        // Solved by presolving alone.
        return trivial_result(&g);
    }
    let g = Arc::new(g);
    let plugins = Arc::new(StpPlugins { graph: g.clone() });
    let factory = UgCipSolver::factory(plugins);
    let res =
        ugrs_core::runner::solve_parallel_seeded(factory, NodeDesc::root(), seed_solution, options);
    map_back(&g, res)
}

/// `ug [SteinerJack, ProcessComm]`: the same solve, but the ParaSolvers
/// are worker *processes* (`dist.worker_command`, typically the
/// `ugd-worker` binary) on localhost. The workers receive the reduced
/// instance as a [`crate::JobInstance`] — encoded here, once — in the
/// run's one `Begin`; every
/// subproblem and solution then crosses the wire as frames. Workers
/// dying mid-run are survived: their subproblems are requeued.
pub fn ug_solve_stp_distributed(
    graph: &Graph,
    reduce_params: &ugrs_steiner::reduce::ReduceParams,
    options: ParallelOptions,
    dist: ugrs_core::DistributedOptions,
) -> std::io::Result<StpParallelResult> {
    let mut g = graph.clone();
    ugrs_steiner::reduce::reduce(&mut g, reduce_params);
    if g.num_terminals() < 2 {
        // Solved by presolving alone — no workers needed.
        return Ok(trivial_result(&g));
    }
    let instance = crate::JobInstance::Stp { graph: g.clone() };
    let instance = ugrs_core::EncodedInstance::encode(&instance);
    let res = ugrs_core::solve_parallel_distributed(instance, NodeDesc::root(), options, dist)?;
    Ok(map_back(&g, res))
}

/// Maps a UG result on the reduced graph back to original edge ids:
/// model assignment → reduced edges → expanded original edges + fixed
/// parts from presolving.
fn map_back(g: &Graph, res: ParallelResult<NodeDesc, Vec<f64>>) -> StpParallelResult {
    let tree = res.solution.as_ref().map(|(x, obj)| {
        let (_, data) = build_model(g);
        let reduced = data.assignment_to_edges(x);
        let mut orig = g.fixed_edges.clone();
        for e in reduced {
            orig.extend(g.expand_edge(e));
        }
        orig.sort_unstable();
        orig.dedup();
        (orig, obj + g.fixed_cost)
    });
    StpParallelResult {
        tree,
        dual_bound: res.dual_bound + g.fixed_cost,
        solved: res.solved,
        stats: res.stats.clone(),
        ug: res,
    }
}

fn trivial_result(g: &Graph) -> StpParallelResult {
    let cost = g.fixed_cost;
    let edges = g.fixed_edges.clone();
    let stats = ugrs_core::UgStats { primal_bound: cost, dual_bound: cost, ..Default::default() };
    StpParallelResult {
        tree: Some((edges, cost)),
        dual_bound: cost,
        solved: true,
        stats: stats.clone(),
        ug: ParallelResult {
            solution: None,
            dual_bound: cost,
            solved: true,
            stats,
            final_checkpoint: None,
        },
    }
}
