//! The SCIP-Jack-style solver facade: presolve-reduce the graph, build
//! the branch-and-cut model, solve, and map the solution back to the
//! original instance.

use crate::graph::Graph;
use crate::heur::{local_search, real_weights, tm_best};
use crate::plugins::{build_model, register_plugins, SpgData};
use crate::reduce::{reduce, ReduceParams, ReduceStats};
use crate::tree::SteinerTree;
use std::sync::Arc;
use ugrs_cip::{ControlHooks, NoHooks, Settings, SolveStatus, Solver as CipSolver};

/// Options of a Steiner solve.
#[derive(Clone, Debug)]
pub struct SteinerOptions {
    /// Settings of the underlying CIP solver.
    pub settings: Settings,
    /// Apply dual-ascent reductions inside the tree (the paper's
    /// extended-reductions-deep-in-the-tree effect).
    pub in_tree_reductions: bool,
    /// Skip graph reductions entirely (for ablation benches).
    pub skip_reductions: bool,
}

impl Default for SteinerOptions {
    fn default() -> Self {
        SteinerOptions {
            settings: Settings::default(),
            in_tree_reductions: true,
            skip_reductions: false,
        }
    }
}

/// Result of a Steiner solve, expressed on the *original* instance.
#[derive(Clone, Debug)]
pub struct SteinerResult {
    pub status: SolveStatus,
    /// Optimal/best tree in original edge ids (None if none found).
    pub tree: Option<SteinerTree>,
    /// Its total cost (including reduction-fixed edges).
    pub best_cost: Option<f64>,
    /// Proven lower bound on the optimum.
    pub dual_bound: f64,
    pub reduce_stats: ReduceStats,
    pub cip_stats: Option<ugrs_cip::Statistics>,
}

/// What [`SteinerSolver::prepare`] yields when presolve does not finish
/// the job: the CIP model, the plugin data, the reduced graph, and the
/// reduction statistics.
pub type PreparedModel = (ugrs_cip::Model, Arc<SpgData>, Graph, ReduceStats);

/// High-level solver: owns the original instance and the reduced working
/// copy.
pub struct SteinerSolver {
    original: Graph,
    options: SteinerOptions,
}

impl SteinerSolver {
    pub fn new(graph: Graph, options: SteinerOptions) -> Self {
        SteinerSolver { original: graph, options }
    }

    pub fn original(&self) -> &Graph {
        &self.original
    }

    /// Presolves the graph and builds the CIP model + plugin data, for
    /// callers that drive the CIP solver themselves (the UG glue).
    /// The `Err` case means reductions solved the instance outright.
    pub fn prepare(&self) -> Result<PreparedModel, Box<(Graph, ReduceStats)>> {
        let mut g = self.original.clone();
        let stats = if self.options.skip_reductions {
            ReduceStats::default()
        } else {
            reduce(&mut g, &ReduceParams::default())
        };
        if g.num_terminals() < 2 {
            return Err(Box::new((g, stats)));
        }
        let (model, data) = build_model(&g);
        Ok((model, data, g, stats))
    }

    /// Full solve with no external control.
    pub fn solve(&mut self) -> SteinerResult {
        self.solve_hooked(&mut NoHooks)
    }

    /// Solve with UG control hooks.
    pub fn solve_hooked(&mut self, hooks: &mut dyn ControlHooks) -> SteinerResult {
        match self.prepare() {
            Err(presolved) => {
                let (g, stats) = *presolved;
                // Reductions solved the instance: the fixed edges are the
                // solution.
                let tree = SteinerTree::new(&self.original, g.fixed_edges.clone());
                let cost = tree.cost;
                debug_assert!((cost - g.fixed_cost).abs() < 1e-6);
                let valid = tree.is_valid(&self.original);
                SteinerResult {
                    status: if valid { SolveStatus::Optimal } else { SolveStatus::Infeasible },
                    best_cost: valid.then_some(cost),
                    tree: valid.then_some(tree),
                    dual_bound: cost,
                    reduce_stats: stats,
                    cip_stats: None,
                }
            }
            Ok((model, data, g, stats)) => {
                let mut solver = CipSolver::new(model, self.options.settings.clone());
                register_plugins(&mut solver, data.clone(), self.options.in_tree_reductions);
                // Seed with a TM + local search solution (the paper: dual
                // ascent / heuristics provide the initial incumbent).
                if let Some(t0) = tm_best(&g, 4, &real_weights(&g)) {
                    let t0 = local_search(&g, &t0, 3);
                    if let Some(x) = data.tree_to_assignment(solver.model(), &t0) {
                        solver.inject_solution(x);
                    }
                }
                let res = solver.solve(hooks);
                let (tree, best_cost) = match res.best_x {
                    Some(ref x) => {
                        let reduced_edges = data.assignment_to_edges(x);
                        // Expand reduced edges to original ids and add the
                        // reduction-fixed edges.
                        let mut orig: Vec<u32> = g.fixed_edges.clone();
                        for e in reduced_edges {
                            orig.extend(g.expand_edge(e));
                        }
                        let t = SteinerTree::new(&self.original, orig).pruned(&self.original);
                        let c = t.cost;
                        if t.is_valid(&self.original) {
                            (Some(t), Some(c))
                        } else {
                            (None, None)
                        }
                    }
                    None => (None, None),
                };
                SteinerResult {
                    status: res.status,
                    tree,
                    best_cost,
                    dual_bound: res.dual_bound + g.fixed_cost,
                    reduce_stats: stats,
                    cip_stats: Some(res.stats),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{bipartite, code_covering, hypercube, CostScheme};

    #[test]
    fn path_instance_solved_by_reduction() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 3.0);
        g.set_terminal(0, true);
        g.set_terminal(3, true);
        let mut s = SteinerSolver::new(g, SteinerOptions::default());
        let res = s.solve();
        assert_eq!(res.status, SolveStatus::Optimal);
        assert_eq!(res.best_cost, Some(6.0));
        assert!(res.cip_stats.is_none(), "should not need B&B");
        let t = res.tree.unwrap();
        assert!(t.is_valid(s.original()));
    }

    #[test]
    fn hypercube_instance_end_to_end() {
        let g = hypercube(3, CostScheme::Unit, 1);
        let mut s = SteinerSolver::new(g.clone(), SteinerOptions::default());
        let res = s.solve();
        assert_eq!(res.status, SolveStatus::Optimal);
        let t = res.tree.unwrap();
        assert!(t.is_valid(&g));
        assert!((t.cost - res.best_cost.unwrap()).abs() < 1e-9);
        // hc3 unit: 4 even-parity terminals; connecting them costs ≥ 5 is
        // impossible to assert exactly here — instead check bound closure.
        assert!((res.dual_bound - res.best_cost.unwrap()).abs() < 1e-6);
    }

    #[test]
    fn with_and_without_reductions_agree() {
        let g = code_covering(2, 3, 4, CostScheme::Perturbed, 13);
        let mut with = SteinerSolver::new(g.clone(), SteinerOptions::default());
        let r1 = with.solve();
        let mut without =
            SteinerSolver::new(g, SteinerOptions { skip_reductions: true, ..Default::default() });
        let r2 = without.solve();
        assert_eq!(r1.status, SolveStatus::Optimal);
        assert_eq!(r2.status, SolveStatus::Optimal);
        let (c1, c2) = (r1.best_cost.unwrap(), r2.best_cost.unwrap());
        assert!((c1 - c2).abs() < 1e-6, "reduced {c1} vs unreduced {c2}");
    }

    #[test]
    fn lp_accounting_is_filled_in() {
        let g = code_covering(2, 3, 5, CostScheme::Perturbed, 4);
        let opts = SteinerOptions { skip_reductions: true, ..Default::default() };
        let res = SteinerSolver::new(g, opts).solve();
        assert_eq!(res.status, SolveStatus::Optimal);
        let st = res.cip_stats.expect("unreduced instance goes through branch-and-cut");
        assert!(st.lp_solves >= 1 && st.lp_iterations >= 1, "{st:?}");
        assert!(st.lp_refactors >= 1, "every LP solve starts from a factorization");
        assert!(0.0 < st.lp_time && st.lp_time <= st.total_time, "{st:?}");
        assert_eq!(st.lp_numerical, 0);
    }

    #[test]
    fn bipartite_instance_end_to_end() {
        let g = bipartite(4, 6, 2, CostScheme::Unit, 3);
        let mut s = SteinerSolver::new(g.clone(), SteinerOptions::default());
        let res = s.solve();
        assert_eq!(res.status, SolveStatus::Optimal);
        let t = res.tree.unwrap();
        assert!(t.is_valid(&g));
    }
}
