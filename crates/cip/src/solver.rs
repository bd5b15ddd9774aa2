//! The branch-cut-and-bound driver.
//!
//! One [`Solver`] solves one [`Model`] (or one subproblem of it, when UG
//! hands over a [`NodeDesc`]). External control — the hooks the UG
//! ParaSolver wrapper needs for incumbent exchange, status reporting,
//! collect-mode node export and aborts — enters through [`ControlHooks`].

use crate::branching::{select_branching_var, Pseudocosts};
use crate::heurengine::{HeurEngine, HeurSchedule, HeurStats, PrimalHeuristic};
use crate::heuristics::{ShiftRounding, SimpleRounding};
use crate::model::{Model, VarId};
use crate::plugins::*;
use crate::presolve::presolve;
use crate::propagation::{propagate_linear, redcost_fixing, PropOutcome};
use crate::settings::{NodeSelection, Settings};
use crate::solution::{Incumbents, Solution};
use crate::stats::Statistics;
use crate::tree::{BoundChange, BranchInfo, NodeDesc, Tree};
use std::collections::HashSet;
use std::time::Instant;
use ugrs_lp::{LpProblem, LpSolution, LpStatus, Simplex, SimplexParams};

/// Final status of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveStatus {
    /// Search space exhausted with an incumbent: proven optimal.
    Optimal,
    /// Search space exhausted without a feasible solution.
    Infeasible,
    /// The relaxation was unbounded at the root.
    Unbounded,
    /// Stopped at the node limit.
    NodeLimit,
    /// Stopped at the time limit.
    TimeLimit,
    /// Stopped at the gap limit.
    GapLimit,
    /// Aborted externally (UG termination / racing loser).
    Aborted,
}

/// Result bundle of a solve, reported in the *user's* objective sense.
#[derive(Clone, Debug)]
pub struct SolveResult {
    pub status: SolveStatus,
    /// Best objective in the user's sense, if a solution was found.
    pub best_obj: Option<f64>,
    pub best_x: Option<Vec<f64>>,
    /// Proven dual bound in the user's sense.
    pub dual_bound: f64,
    pub stats: Statistics,
}

/// Callbacks wiring a running solver to its environment (the UG
/// ParaSolver). All objective values cross this boundary in the
/// *internal* minimization sense; the glue layer converts once at the
/// edges.
pub trait ControlHooks {
    /// Polled between nodes; `true` aborts the solve.
    fn should_abort(&mut self) -> bool {
        false
    }
    /// A new incumbent was installed (internal objective, values).
    fn on_incumbent(&mut self, _obj: f64, _x: &[f64]) {}
    /// Periodic status: (dual bound, open nodes, processed nodes).
    fn on_status(&mut self, _dual_bound: f64, _open: usize, _nodes: u64) {}
    /// Offer an externally found solution (values only); polled between
    /// nodes.
    fn poll_incumbent(&mut self) -> Option<Vec<f64>> {
        None
    }
    /// True when the environment wants an open node exported (UG collect
    /// mode).
    fn want_node_export(&mut self) -> bool {
        false
    }
    /// Receives the exported node.
    fn export_node(&mut self, _desc: NodeDesc) {}
}

/// No-op hooks for standalone solving.
pub struct NoHooks;
impl ControlHooks for NoHooks {}

/// The branch-cut-and-bound solver.
pub struct Solver {
    model: Model,
    settings: Settings,
    conshdlrs: Vec<Box<dyn ConstraintHandler>>,
    separators: Vec<Box<dyn Separator>>,
    propagators: Vec<Box<dyn Propagator>>,
    heuristics: HeurEngine,
    branchrules: Vec<Box<dyn BranchRule>>,
    relaxator: Option<Box<dyn Relaxator>>,
    presolvers: Vec<Box<dyn Presolver>>,
    pcost: Pseudocosts,
    stats: Statistics,
    incumbents: Incumbents,
    cut_pool: HashSet<u64>,
    /// Cuts currently installed as LP rows, with their slack age.
    active_cuts: Vec<(Cut, u64, u32)>, // (cut, fingerprint, age)
    /// Bound changes applied before solving (subproblem mode).
    initial_changes: Vec<BoundChange>,
    /// Dual bound inherited with a transferred subproblem.
    initial_bound: f64,
}

impl Solver {
    /// Creates a solver with the built-in default plugins registered.
    pub fn new(model: Model, settings: Settings) -> Self {
        let nvars = model.num_vars();
        Solver {
            model,
            settings,
            conshdlrs: Vec::new(),
            separators: Vec::new(),
            propagators: Vec::new(),
            heuristics: {
                let mut engine = HeurEngine::default();
                engine.add_legacy(Box::new(SimpleRounding));
                engine.add_legacy(Box::new(ShiftRounding::default()));
                engine
            },
            branchrules: Vec::new(),
            relaxator: None,
            presolvers: Vec::new(),
            pcost: Pseudocosts::new(nvars),
            stats: Statistics::default(),
            incumbents: Incumbents::default(),
            cut_pool: HashSet::new(),
            active_cuts: Vec::new(),
            initial_changes: Vec::new(),
            initial_bound: f64::NEG_INFINITY,
        }
    }

    /// Creates a solver with *no* heuristics pre-registered.
    pub fn new_bare(model: Model, settings: Settings) -> Self {
        let mut s = Self::new(model, settings);
        s.heuristics.clear();
        s
    }

    pub fn add_conshdlr(&mut self, h: Box<dyn ConstraintHandler>) {
        self.conshdlrs.push(h);
    }
    pub fn add_separator(&mut self, s: Box<dyn Separator>) {
        self.separators.push(s);
    }
    pub fn add_propagator(&mut self, p: Box<dyn Propagator>) {
        self.propagators.push(p);
    }
    /// Registers a legacy [`Heuristic`] plugin (runs at every heuristic
    /// round, unlimited budget).
    pub fn add_heuristic(&mut self, h: Box<dyn Heuristic>) {
        self.heuristics.add_legacy(h);
    }
    /// Registers a scheduled [`PrimalHeuristic`] plugin under its own
    /// default schedule.
    pub fn add_primal_heuristic(&mut self, h: Box<dyn PrimalHeuristic>) {
        self.heuristics.add(h);
    }
    /// Registers a scheduled [`PrimalHeuristic`] under an explicit
    /// schedule, overriding the plugin's default.
    pub fn add_primal_heuristic_with(&mut self, h: Box<dyn PrimalHeuristic>, s: HeurSchedule) {
        self.heuristics.add_with_schedule(h, s);
    }
    /// Per-heuristic call/hit/time accounting for the solve so far.
    pub fn heur_stats(&self) -> Vec<HeurStats> {
        self.heuristics.stats()
    }
    pub fn add_branchrule(&mut self, b: Box<dyn BranchRule>) {
        self.branchrules.push(b);
    }
    pub fn set_relaxator(&mut self, r: Box<dyn Relaxator>) {
        self.relaxator = Some(r);
    }
    pub fn add_presolver(&mut self, p: Box<dyn Presolver>) {
        self.presolvers.push(p);
    }

    pub fn model(&self) -> &Model {
        &self.model
    }
    pub fn settings(&self) -> &Settings {
        &self.settings
    }
    pub fn stats(&self) -> &Statistics {
        &self.stats
    }

    /// Installs initial bound changes so that `solve` works on a
    /// subproblem — this is what a UG ParaSolver does with a received
    /// [`NodeDesc`]. Presolve then runs *again* on the restricted
    /// problem: the paper's layered presolving.
    pub fn apply_node_desc(&mut self, desc: &NodeDesc) {
        self.initial_changes = desc.bound_changes.clone();
        self.initial_bound = desc.dual_bound;
        if !desc.bound_changes.is_empty() {
            // A transferred subproblem is *not* the root of the whole
            // problem: re-separating with the full root budget on every
            // transfer would dominate the run time (this is the layered
            // presolving trade-off the paper discusses). Cap it.
            let cap = self.settings.node_sepa_rounds.max(32);
            if self.settings.root_sepa_rounds > cap {
                self.settings.root_sepa_rounds = cap;
            }
        }
        for bc in &desc.bound_changes {
            let var = self.model.var_mut(bc.var);
            var.lb = var.lb.max(bc.lb);
            var.ub = var.ub.min(bc.ub);
            if var.lb > var.ub {
                // Crossed bounds → subproblem trivially infeasible; keep a
                // consistent (empty) domain marker handled in solve().
                var.ub = var.lb - 1.0;
                return;
            }
        }
    }

    /// Seeds the solver with a known feasible solution (racing restarts
    /// in Table 3 re-run "with the best solution", which then powers
    /// presolving, propagation and heuristics).
    pub fn inject_solution(&mut self, x: Vec<f64>) -> bool {
        if !self.check_full(&x) {
            return false;
        }
        let sol = Solution::new(&self.model, x);
        self.incumbents.try_install(sol, 0)
    }

    fn check_full(&mut self, x: &[f64]) -> bool {
        if !self.model.check_solution(x, crate::FEAS_TOL) {
            return false;
        }
        let model = &self.model;
        self.conshdlrs.iter_mut().all(|h| h.check(model, x))
    }

    fn cutoff(&self) -> f64 {
        match self.incumbents.best_obj() {
            None => f64::INFINITY,
            Some(obj) => {
                if self.model.has_integral_objective() {
                    obj - 1.0 + 1e-6
                } else {
                    obj - 1e-9
                }
            }
        }
    }

    /// Runs branch-cut-and-bound. Reentrant: a second call continues from
    /// a fresh tree but keeps incumbents and pseudocosts.
    pub fn solve(&mut self, hooks: &mut dyn ControlHooks) -> SolveResult {
        self.stats = Statistics::default();
        self.stats.start();

        // Domains may have been crossed by apply_node_desc.
        if self.model.vars().any(|(_, v)| v.lb > v.ub) {
            return self.finish(SolveStatus::Infeasible);
        }

        // ---- Presolve (built-in + plugins) -------------------------------
        if self.settings.presolve_rounds > 0 {
            let ps = presolve(&mut self.model, self.settings.presolve_rounds);
            if ps.infeasible {
                return self.finish(SolveStatus::Infeasible);
            }
            let mut presolvers = std::mem::take(&mut self.presolvers);
            for p in presolvers.iter_mut() {
                if p.presolve(&mut self.model) == PresolveOutcome::Infeasible {
                    self.presolvers = presolvers;
                    return self.finish(SolveStatus::Infeasible);
                }
            }
            self.presolvers = presolvers;
        }

        // ---- Build the LP relaxation --------------------------------------
        self.cut_pool.clear();
        self.active_cuts.clear();
        let mut lp = self.build_lp();
        let base_rows = lp.problem().num_rows();
        // Initial rows from constraint handlers (e.g. dual-ascent cuts),
        // installed as (ageable) cut rows.
        {
            let mut buf = CutBuffer::default();
            let mut hdlrs = std::mem::take(&mut self.conshdlrs);
            for h in hdlrs.iter_mut() {
                h.init_lp(&self.model, &mut buf);
            }
            self.conshdlrs = hdlrs;
            self.install_cuts(buf, &mut lp);
        }

        let mut tree = Tree::new(self.settings.node_selection);
        tree.set_root_bound(self.initial_bound);
        let use_relax = self.settings.use_relaxator && self.relaxator.is_some();
        let mut root_done = false;
        let mut status = SolveStatus::Optimal;
        let n = self.model.num_vars();
        let glb: Vec<f64> = self.model.vars().map(|(_, v)| v.lb).collect();
        let gub: Vec<f64> = self.model.vars().map(|(_, v)| v.ub).collect();

        'mainloop: loop {
            // ---- limits & external control --------------------------------
            if self.stats.elapsed() > self.settings.time_limit {
                status = SolveStatus::TimeLimit;
                break;
            }
            if self.stats.nodes >= self.settings.node_limit {
                status = SolveStatus::NodeLimit;
                break;
            }
            if hooks.should_abort() {
                status = SolveStatus::Aborted;
                break;
            }
            if let Some(x) = hooks.poll_incumbent() {
                if x.len() == n && self.check_full(&x) {
                    let sol = Solution::new(&self.model, x);
                    if self.incumbents.try_install(sol, self.stats.nodes) {
                        self.stats.improving_solutions += 1;
                        tree.prune_by_bound(self.cutoff());
                    }
                }
            }
            // Export only out of substantial trees: fine-grained transfers
            // would spend the run re-initializing solvers (the paper's
            // transfer counts are ~1 per 10⁵ nodes; the unit of work is a
            // subtree, not a node).
            while hooks.want_node_export() && tree.num_open() >= 6 {
                if let Some(id) = tree.steal_open_node() {
                    hooks.export_node(tree.describe(id));
                } else {
                    break;
                }
            }

            // ---- select node ----------------------------------------------
            let cutoff = self.cutoff();
            let Some(node_id) = tree.pop_best(cutoff) else {
                break; // exhausted
            };
            self.stats.nodes += 1;
            let depth = tree.node(node_id).depth;
            let binfo = tree.node(node_id).branch_info;
            let node_bound_in = tree.node(node_id).dual_bound;

            // global dual bound = min(open, this node)
            let global_bound = tree
                .open_bound()
                .min(node_bound_in)
                .min(self.incumbents.best_obj().unwrap_or(f64::INFINITY));
            self.stats.record_dual_bound(global_bound);
            if self.gap_reached() {
                status = SolveStatus::GapLimit;
                break;
            }
            // Status flows every node; the receiving side rate-limits.
            hooks.on_status(self.stats.dual_bound, tree.num_open(), self.stats.nodes);

            // ---- local domain ----------------------------------------------
            let mut lb = glb.clone();
            let mut ub = gub.clone();
            let mut local_infeasible = false;
            for bc in tree.path_changes(node_id) {
                let j = bc.var.0 as usize;
                lb[j] = lb[j].max(bc.lb);
                ub[j] = ub[j].min(bc.ub);
                if lb[j] > ub[j] {
                    local_infeasible = true;
                }
            }
            if local_infeasible {
                continue;
            }

            // ---- propagation ------------------------------------------------
            if self.settings.use_propagation {
                match propagate_linear(&self.model, &mut lb, &mut ub, 3) {
                    PropOutcome::Infeasible => continue,
                    PropOutcome::Tightened => self.stats.propagations += 1,
                    PropOutcome::Unchanged => {}
                }
            }
            if self.run_plugin_propagators(depth, &mut lb, &mut ub).is_err() {
                continue;
            }

            // ---- relaxation --------------------------------------------------
            let (mut bound, mut relax_x): (f64, Vec<f64>);
            if use_relax {
                let mut relaxator = self.relaxator.take().unwrap();
                let res = {
                    let mut cuts = CutBuffer::default();
                    let mut tight = Vec::new();
                    let mut ctx = self.ctx(depth, &lb, &ub, None, None, &[], &mut cuts, &mut tight);
                    relaxator.solve_relaxation(&mut ctx)
                };
                self.relaxator = Some(relaxator);
                self.stats.relax_solves += 1;
                self.stats.relax_iterations += res.iterations;
                self.stats.relax_fallbacks += res.fallbacks;
                match res.outcome {
                    RelaxOutcome::Infeasible => continue,
                    RelaxOutcome::Error => {
                        // fall back to pure bound inheritance + branching on
                        // some unfixed integer var
                        bound = node_bound_in;
                        relax_x = unsolved_point(&lb, &ub);
                    }
                    RelaxOutcome::Bounded { bound: b, x } => {
                        bound = b.max(node_bound_in);
                        relax_x = x;
                    }
                }
            } else {
                // LP path: drop aged cuts when the LP got too big, push
                // local bounds, warm start dual simplex.
                if let Some(newlp) = self.maybe_rebuild_lp(base_rows) {
                    lp = newlp;
                }
                for j in 0..n {
                    lp.set_var_bounds(ugrs_lp::VarId(j as u32), lb[j], ub[j]);
                }
                let (st, sol) = self.solve_lp(&mut lp);
                match st {
                    LpStatus::Unbounded if depth == 0 => {
                        status = SolveStatus::Unbounded;
                        break 'mainloop;
                    }
                    // Infeasible, or unbounded below the root.
                    LpStatus::Infeasible | LpStatus::Unbounded => continue,
                    _ => {}
                }
                if let Some(mut sol) = sol {
                    bound = sol.obj.max(node_bound_in);
                    relax_x = sol.x.clone();

                    // ---- separation loop --------------------------------------
                    let max_rounds = if depth == 0 {
                        self.settings.root_sepa_rounds
                    } else {
                        self.settings.node_sepa_rounds
                    };
                    let mut pruned = false;
                    let mut stalled_rounds = 0usize;
                    for _round in 0..max_rounds {
                        if bound >= self.cutoff() {
                            pruned = true;
                            break;
                        }
                        if self.stats.elapsed() > self.settings.time_limit {
                            break;
                        }
                        let added = self.run_separation(depth, &lb, &ub, &sol.x, bound, &mut lp);
                        if added == 0 {
                            break;
                        }
                        let (st, resolved) = self.solve_lp(&mut lp);
                        if st == LpStatus::Infeasible {
                            pruned = true;
                            break;
                        }
                        let Some(resolved) = resolved else { break };
                        sol = resolved;
                        let prev = bound;
                        bound = sol.obj.max(bound);
                        relax_x = sol.x.clone();
                        // Long root separation phases must still report progress
                        // (racing compares bounds *during* the root).
                        if depth == 0 {
                            self.stats.record_dual_bound(
                                bound.min(self.incumbents.best_obj().unwrap_or(f64::INFINITY)),
                            );
                            hooks.on_status(
                                self.stats.dual_bound,
                                tree.num_open() + 1,
                                self.stats.nodes,
                            );
                        }
                        // Stop when the dual bound stalls ("as long as the
                        // dual-bound can be sufficiently improved", §3.1).
                        if bound - prev < 1e-6 * (1.0 + bound.abs()) {
                            stalled_rounds += 1;
                            if stalled_rounds >= 2 {
                                break;
                            }
                        } else {
                            stalled_rounds = 0;
                        }
                    }
                    self.age_cuts(base_rows, &sol.row_duals);
                    if pruned {
                        self.update_pseudocosts(binfo, bound);
                        continue;
                    }

                    // ---- reduced-cost fixing ----------------------------------
                    if self.settings.use_redcost_fixing {
                        let fixed = redcost_fixing(
                            &self.model,
                            &sol.x,
                            &sol.reduced_costs,
                            bound,
                            self.cutoff(),
                            &mut lb,
                            &mut ub,
                        );
                        self.stats.redcost_fixings += fixed as u64;
                    }
                } else {
                    // No answer from the LP: the node keeps the bound it came
                    // with and is branched on some unfixed integer var.
                    bound = node_bound_in;
                    relax_x = unsolved_point(&lb, &ub);
                }
            }

            self.update_pseudocosts(binfo, bound);

            // The global dual bound may have improved now that this node's
            // relaxation is solved (min over this bound and all open nodes).
            let global = tree
                .open_bound()
                .min(bound)
                .min(self.incumbents.best_obj().unwrap_or(f64::INFINITY));
            self.stats.record_dual_bound(global);

            // ---- bound pruning ----------------------------------------------
            if bound >= self.cutoff() {
                continue;
            }

            // ---- integrality / enforcement ---------------------------------
            let mut enforce_rounds = 0usize;
            let feasible_candidate = loop {
                let frac_var = select_branching_var(
                    &self.model,
                    &relax_x,
                    self.settings.branching,
                    &self.pcost,
                    self.settings.permutation_seed,
                );
                if frac_var.is_some() {
                    break None; // fractional → branch below
                }
                // Integral on all integer vars: enforce constraint handlers.
                let mut all_feasible = true;
                let mut cut_added = false;
                let mut cutoff_node = false;
                {
                    let mut cuts = CutBuffer::default();
                    let mut tight = Vec::new();
                    let mut hdlrs = std::mem::take(&mut self.conshdlrs);
                    for h in hdlrs.iter_mut() {
                        let mut ctx = self.ctx(
                            depth,
                            &lb,
                            &ub,
                            Some(&relax_x),
                            Some(bound),
                            &[],
                            &mut cuts,
                            &mut tight,
                        );
                        match h.enforce(&mut ctx) {
                            EnforceResult::Feasible => {}
                            EnforceResult::AddedCuts(_) => {
                                all_feasible = false;
                                cut_added = true;
                            }
                            EnforceResult::Cutoff => {
                                all_feasible = false;
                                cutoff_node = true;
                                break;
                            }
                        }
                    }
                    self.conshdlrs = hdlrs;
                    if cut_added && !use_relax {
                        let installed = self.install_cuts(cuts, &mut lp);
                        if installed == 0 {
                            // Handlers reported cuts but all were pool
                            // duplicates: cannot make progress by cutting.
                            cutoff_node = true;
                        }
                    }
                }
                if cutoff_node {
                    break Some(false);
                }
                if all_feasible {
                    break Some(true);
                }
                if use_relax {
                    // Cuts are meaningless without an LP — prune defensively
                    // is wrong; instead treat as feasible-check failure and
                    // branch on the relaxator's most fractional variable
                    // (none exists, so prune). Documented limitation.
                    break Some(false);
                }
                enforce_rounds += 1;
                if enforce_rounds > 200 || self.stats.elapsed() > self.settings.time_limit {
                    break Some(false);
                }
                let sol = match self.solve_lp(&mut lp) {
                    (_, Some(sol)) => sol,
                    (LpStatus::IterLimit | LpStatus::Numerical, None) => {
                        // No answer from the LP: branch instead of cutting on.
                        relax_x = unsolved_point(&lb, &ub);
                        break None;
                    }
                    _ => break Some(false),
                };
                bound = sol.obj.max(bound);
                relax_x = sol.x;
                if bound >= self.cutoff() {
                    break Some(false);
                }
            };

            match feasible_candidate {
                Some(true) => {
                    // Install the incumbent.
                    let mut sol = Solution::new(&self.model, relax_x.clone());
                    sol.round_integers(&self.model);
                    if self.model.check_solution(&sol.x, crate::FEAS_TOL) {
                        let obj = sol.obj;
                        if self.incumbents.try_install(sol, self.stats.nodes) {
                            self.stats.improving_solutions += 1;
                            hooks.on_incumbent(obj, &self.incumbents.best().unwrap().x);
                            tree.prune_by_bound(self.cutoff());
                        }
                    }
                    if !root_done {
                        root_done = true;
                        self.stats.root_time = self.stats.elapsed();
                    }
                    continue;
                }
                Some(false) => continue,
                None => {}
            }

            // ---- heuristics --------------------------------------------------
            let freq = self.settings.heur_frequency;
            if depth == 0 || (freq > 0 && depth.is_multiple_of(freq)) {
                self.run_heuristics(depth, &lb, &ub, &relax_x, bound, hooks, &mut tree);
                if !use_relax && self.settings.use_diving {
                    self.run_diving(&lb, &ub, &relax_x, &mut lp, hooks, &mut tree);
                }
            }

            // ---- branching ---------------------------------------------------
            if !root_done {
                root_done = true;
                self.stats.root_time = self.stats.elapsed();
            }
            let decision = self.pick_branching(depth, &lb, &ub, &relax_x, bound);
            let Some(dec) = decision else {
                // No fractional variable and handlers were all feasible —
                // handled above; reaching here means a custom rule declined
                // and nothing is fractional: prune defensively.
                continue;
            };
            let j = dec.var.0 as usize;
            let frac = dec.value - dec.value.floor();
            let down = BoundChange { var: dec.var, lb: lb[j], ub: dec.value.floor() };
            let up = BoundChange { var: dec.var, lb: dec.value.floor() + 1.0, ub: ub[j] };
            let info_down = Some(BranchInfo { var: dec.var, frac, up: false, parent_bound: bound });
            let info_up = Some(BranchInfo { var: dec.var, frac, up: true, parent_bound: bound });
            // Push the preferred child last for DFS (LIFO), first for
            // best-bound (order there is bound-driven anyway).
            let dfs = self.settings.node_selection == NodeSelection::DepthFirst;
            let first_down = dec.down_first != dfs;
            if first_down {
                tree.push_node_with_info(Some(node_id), vec![down], bound, info_down);
                tree.push_node_with_info(Some(node_id), vec![up], bound, info_up);
            } else {
                tree.push_node_with_info(Some(node_id), vec![up], bound, info_up);
                tree.push_node_with_info(Some(node_id), vec![down], bound, info_down);
            }
        }

        // Exhausted tree: bound closes onto the incumbent.
        if status == SolveStatus::Optimal {
            match self.incumbents.best_obj() {
                Some(obj) => self.stats.record_dual_bound(obj),
                None => status = SolveStatus::Infeasible,
            }
        }
        self.stats.open_nodes = tree.num_open() as u64;
        self.finish(status)
    }

    /// Solves the subproblem described by `desc` (UG ParaSolver mode):
    /// bound changes are applied, then the full machinery — including
    /// another presolve round (*layered presolving*) — runs.
    pub fn solve_subproblem(
        &mut self,
        desc: &NodeDesc,
        hooks: &mut dyn ControlHooks,
    ) -> SolveResult {
        self.apply_node_desc(desc);
        self.solve(hooks)
    }

    fn gap_reached(&self) -> bool {
        if self.settings.gap_limit <= 0.0 {
            return false;
        }
        let (p, d) = (self.stats.primal_bound, self.stats.dual_bound);
        let p = self.incumbents.best_obj().unwrap_or(p);
        if !p.is_finite() || !d.is_finite() {
            return false;
        }
        (p - d).max(0.0) / p.abs().max(1e-9) < self.settings.gap_limit
    }

    #[allow(clippy::too_many_arguments)]
    fn ctx<'a>(
        &'a self,
        depth: usize,
        lb: &'a [f64],
        ub: &'a [f64],
        relax_x: Option<&'a [f64]>,
        relax_obj: Option<f64>,
        redcosts: &'a [f64],
        cuts: &'a mut CutBuffer,
        tight: &'a mut Vec<(VarId, f64, f64)>,
    ) -> SolveCtx<'a> {
        SolveCtx {
            model: &self.model,
            depth,
            local_lb: lb,
            local_ub: ub,
            relax_x,
            relax_obj,
            incumbent_obj: self.incumbents.best_obj(),
            incumbent_x: self.incumbents.best().map(|s| s.x.as_slice()),
            reduced_costs: redcosts,
            cuts,
            tightenings: tight,
            seed: self.settings.permutation_seed,
        }
    }

    fn apply_tightenings(
        tight: &[(VarId, f64, f64)],
        lb: &mut [f64],
        ub: &mut [f64],
    ) -> Result<bool, ()> {
        let mut changed = false;
        for &(v, l, u) in tight {
            let j = v.0 as usize;
            if l > lb[j] + 1e-12 {
                lb[j] = l;
                changed = true;
            }
            if u < ub[j] - 1e-12 {
                ub[j] = u;
                changed = true;
            }
            if lb[j] > ub[j] + 1e-9 {
                return Err(());
            }
            if lb[j] > ub[j] {
                lb[j] = ub[j];
            }
        }
        Ok(changed)
    }

    fn run_plugin_propagators(
        &mut self,
        depth: usize,
        lb: &mut [f64],
        ub: &mut [f64],
    ) -> Result<(), ()> {
        let mut props = std::mem::take(&mut self.propagators);
        let mut hdlrs = std::mem::take(&mut self.conshdlrs);
        let mut result = Ok(());
        'outer: for _ in 0..3 {
            let mut any = false;
            for kind in 0..2 {
                let count = if kind == 0 { props.len() } else { hdlrs.len() };
                for i in 0..count {
                    let mut cuts = CutBuffer::default();
                    let mut tight = Vec::new();
                    let pr = {
                        let mut ctx =
                            self.ctx(depth, lb, ub, None, None, &[], &mut cuts, &mut tight);
                        if kind == 0 {
                            props[i].propagate(&mut ctx)
                        } else {
                            hdlrs[i].propagate(&mut ctx)
                        }
                    };
                    match pr {
                        PropResult::Infeasible => {
                            result = Err(());
                            break 'outer;
                        }
                        PropResult::Reduced => {
                            match Self::apply_tightenings(&tight, lb, ub) {
                                Ok(c) => any |= c,
                                Err(()) => {
                                    result = Err(());
                                    break 'outer;
                                }
                            }
                            self.stats.propagations += 1;
                        }
                        PropResult::Nothing => {}
                    }
                }
            }
            if !any {
                break;
            }
        }
        self.propagators = props;
        self.conshdlrs = hdlrs;
        result
    }

    /// Runs separators and handler separation; installs surviving cuts.
    /// Returns the number of rows added to the LP.
    fn run_separation(
        &mut self,
        depth: usize,
        lb: &[f64],
        ub: &[f64],
        x: &[f64],
        bound: f64,
        lp: &mut Simplex,
    ) -> usize {
        let mut buf = CutBuffer::default();
        let mut tight = Vec::new();
        let mut seps = std::mem::take(&mut self.separators);
        for s in seps.iter_mut() {
            let mut ctx = self.ctx(depth, lb, ub, Some(x), Some(bound), &[], &mut buf, &mut tight);
            let _ = s.separate(&mut ctx);
        }
        self.separators = seps;
        let mut hdlrs = std::mem::take(&mut self.conshdlrs);
        for h in hdlrs.iter_mut() {
            let mut ctx = self.ctx(depth, lb, ub, Some(x), Some(bound), &[], &mut buf, &mut tight);
            let _ = h.separate(&mut ctx);
        }
        self.conshdlrs = hdlrs;
        self.install_cuts(buf, lp)
    }

    /// Installs the buffer's cuts that are not in the pool yet as LP rows,
    /// in one batch. Returns the number of rows added.
    fn install_cuts(&mut self, buf: CutBuffer, lp: &mut Simplex) -> usize {
        let first_new = self.active_cuts.len();
        for cut in buf.cuts {
            let fp = cut.fingerprint();
            if self.cut_pool.insert(fp) {
                self.active_cuts.push((cut, fp, 0));
            } else {
                self.stats.cuts_duplicate += 1;
            }
        }
        let new = &self.active_cuts[first_new..];
        let terms: Vec<_> = new.iter().map(|(cut, _, _)| lp_terms(&cut.terms)).collect();
        lp.add_rows(new.iter().zip(&terms).map(|((cut, _, _), t)| (cut.lhs, cut.rhs, &t[..])));
        self.stats.cuts_applied += new.len() as u64;
        new.len()
    }

    /// The LP relaxation of the model plus the active cuts, at the slack
    /// basis (model rows first, cut rows in `active_cuts` order).
    fn build_lp(&self) -> Simplex {
        let mut lp_prob = LpProblem::new();
        for (_, var) in self.model.vars() {
            lp_prob.add_var(var.lb, var.ub, var.obj);
        }
        for cons in self.model.conss() {
            lp_prob.add_row(cons.lhs, cons.rhs, &lp_terms(&cons.terms));
        }
        for (cut, _, _) in &self.active_cuts {
            lp_prob.add_row(cut.lhs, cut.rhs, &lp_terms(&cut.terms));
        }
        Simplex::new(lp_prob, self.lp_params())
    }

    fn lp_params(&self) -> SimplexParams {
        SimplexParams { iter_limit: self.settings.lp_iter_limit, ..Default::default() }
    }

    /// One LP solve with all of the LP accounting. Every solve is a
    /// `solve_dual` from the basis the simplex holds: a warm start after
    /// bound changes and added rows; from the slack basis of a fresh LP the
    /// dual simplex where that basis is dual feasible (costs `c ≥ 0` over
    /// variables resting at their lower bounds, every Steiner model) and the
    /// primal simplex where it is primal feasible, because the dual phase
    /// then has nothing to do and hands over to the primal polish at once
    /// (where it is neither, dual pivots on clamped reduced costs come first).
    /// A solve that ends without an answer — in numerical trouble (counted)
    /// or at the iteration limit — is retried once cold: the simplex rebuilt
    /// from the slack basis, `solve_primal`.
    ///
    /// Only an optimal solve has a solution. A truncated one has no bound to
    /// offer (its basis is not known to be dual feasible) and its point
    /// satisfies nothing, so the callers treat the node as unsolved.
    fn solve_lp(&mut self, lp: &mut Simplex) -> (LpStatus, Option<LpSolution>) {
        let started = Instant::now();
        let mut refactors_seen = lp.counters().refactors;
        let mut st = lp.solve_dual();
        self.stats.lp_solves += 1;
        self.stats.lp_iterations += lp.iterations() as u64;
        if matches!(st, LpStatus::Numerical | LpStatus::IterLimit) {
            self.stats.lp_numerical += (st == LpStatus::Numerical) as u64;
            self.stats.lp_refactors += lp.counters().refactors - refactors_seen;
            refactors_seen = 0;
            *lp = Simplex::new(lp.problem().clone(), self.lp_params());
            st = lp.solve_primal();
            self.stats.lp_iterations += lp.iterations() as u64;
            self.stats.lp_numerical += (st == LpStatus::Numerical) as u64;
        }
        let sol = (st == LpStatus::Optimal).then(|| lp.extract_solution());
        self.stats.lp_refactors += lp.counters().refactors - refactors_seen;
        self.stats.lp_time += started.elapsed().as_secs_f64();
        (st, sol)
    }

    /// Ages cut rows by their duals in the last LP solution (`base_rows`
    /// model rows come first; cut rows follow in `active_cuts` order).
    fn age_cuts(&mut self, base_rows: usize, row_duals: &[f64]) {
        for (k, rec) in self.active_cuts.iter_mut().enumerate() {
            let r = base_rows + k;
            if r < row_duals.len() && row_duals[r].abs() > 1e-9 {
                rec.2 = 0;
            } else {
                rec.2 += 1;
            }
        }
    }

    /// Drops aged-out cuts and rebuilds the LP when the cut rows exceed
    /// the configured maximum. Returns a fresh simplex when a rebuild
    /// happened (the caller re-solves from scratch).
    fn maybe_rebuild_lp(&mut self, base_rows: usize) -> Option<Simplex> {
        if self.active_cuts.len() <= self.settings.max_cut_rows {
            return None;
        }
        let max_age = self.settings.cut_max_age;
        let mut kept: Vec<(Cut, u64, u32)> = Vec::new();
        for rec in self.active_cuts.drain(..) {
            if rec.2 <= max_age {
                kept.push(rec);
            } else {
                self.cut_pool.remove(&rec.1);
            }
        }
        // Still too many: keep the most recently added ones.
        if kept.len() > self.settings.max_cut_rows {
            let drop_n = kept.len() - self.settings.max_cut_rows;
            for rec in kept.drain(..drop_n) {
                self.cut_pool.remove(&rec.1);
            }
        }
        self.active_cuts = kept;
        let lp = self.build_lp();
        debug_assert_eq!(lp.problem().num_rows(), base_rows + self.active_cuts.len());
        Some(lp)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_heuristics(
        &mut self,
        depth: usize,
        lb: &[f64],
        ub: &[f64],
        relax_x: &[f64],
        bound: f64,
        hooks: &mut dyn ControlHooks,
        tree: &mut Tree,
    ) {
        let mut engine = std::mem::take(&mut self.heuristics);
        for i in engine.due_indices(depth) {
            let cand = {
                let mut cuts = CutBuffer::default();
                let mut tight = Vec::new();
                let mut ctx =
                    self.ctx(depth, lb, ub, Some(relax_x), Some(bound), &[], &mut cuts, &mut tight);
                engine.entry_mut(i).call(&mut ctx)
            };
            if let Some(x) = cand {
                if x.len() == self.model.num_vars() && self.check_full(&x) {
                    let mut sol = Solution::new(&self.model, x);
                    sol.round_integers(&self.model);
                    let obj = sol.obj;
                    if self.incumbents.try_install(sol, self.stats.nodes) {
                        self.stats.improving_solutions += 1;
                        engine.record_hit(i, obj);
                        hooks.on_incumbent(obj, &self.incumbents.best().unwrap().x);
                        tree.prune_by_bound(self.cutoff());
                    }
                }
            }
        }
        self.heuristics = engine;
    }

    /// LP diving (SCIP's fracdiving): starting from the node's LP
    /// optimum, repeatedly fix the most fractional integer variable to
    /// its nearest integer and re-solve, hoping to land on an integral
    /// feasible point. The LP's variable bounds are freely mutated — the
    /// main loop re-installs the local domain at every node, so no
    /// restoration is needed.
    #[allow(clippy::too_many_arguments)]
    fn run_diving(
        &mut self,
        lb: &[f64],
        ub: &[f64],
        start_x: &[f64],
        lp: &mut Simplex,
        hooks: &mut dyn ControlHooks,
        tree: &mut Tree,
    ) {
        let mut x = start_x.to_vec();
        let mut dlb = lb.to_vec();
        let mut dub = ub.to_vec();
        for _ in 0..self.settings.dive_depth {
            if self.stats.elapsed() > self.settings.time_limit {
                return;
            }
            let frac = select_branching_var(
                &self.model,
                &x,
                crate::settings::BranchingRule::MostFractional,
                &self.pcost,
                self.settings.permutation_seed,
            );
            let Some((var, val)) = frac else {
                // Integral: try to install it as an incumbent.
                let mut sol = Solution::new(&self.model, x);
                sol.round_integers(&self.model);
                if self.check_full(&sol.x) {
                    let obj = sol.obj;
                    if self.incumbents.try_install(sol, self.stats.nodes) {
                        self.stats.improving_solutions += 1;
                        hooks.on_incumbent(obj, &self.incumbents.best().unwrap().x);
                        tree.prune_by_bound(self.cutoff());
                    }
                }
                return;
            };
            let j = var.0 as usize;
            let r = val.round().clamp(dlb[j], dub[j]);
            dlb[j] = r;
            dub[j] = r;
            lp.set_var_bounds(ugrs_lp::VarId(var.0), r, r);
            let (LpStatus::Optimal, Some(sol)) = self.solve_lp(lp) else { return };
            if sol.obj >= self.cutoff() {
                return; // dive is dominated
            }
            x = sol.x;
        }
    }

    fn pick_branching(
        &mut self,
        depth: usize,
        lb: &[f64],
        ub: &[f64],
        relax_x: &[f64],
        bound: f64,
    ) -> Option<BranchDecision> {
        let mut rules = std::mem::take(&mut self.branchrules);
        let mut picked = None;
        for r in rules.iter_mut() {
            let mut cuts = CutBuffer::default();
            let mut tight = Vec::new();
            let mut ctx =
                self.ctx(depth, lb, ub, Some(relax_x), Some(bound), &[], &mut cuts, &mut tight);
            if let Some(d) = r.branch(&mut ctx) {
                picked = Some(d);
                break;
            }
        }
        self.branchrules = rules;
        picked.or_else(|| {
            select_branching_var(
                &self.model,
                relax_x,
                self.settings.branching,
                &self.pcost,
                self.settings.permutation_seed,
            )
            .map(|(var, value)| BranchDecision {
                var,
                value,
                down_first: value - value.floor() < 0.5,
            })
        })
    }

    fn update_pseudocosts(&mut self, binfo: Option<BranchInfo>, bound: f64) {
        if let Some(bi) = binfo {
            let gain = (bound - bi.parent_bound).max(0.0);
            if gain.is_finite() {
                self.pcost.update(bi.var, bi.frac, gain, bi.up);
            }
        }
    }

    fn finish(&mut self, status: SolveStatus) -> SolveResult {
        self.stats.total_time = self.stats.elapsed();
        if self.stats.root_time == 0.0 {
            self.stats.root_time = self.stats.total_time;
        }
        self.stats.primal_bound = self.incumbents.best_obj().unwrap_or(f64::INFINITY);
        if status == SolveStatus::Optimal {
            if let Some(obj) = self.incumbents.best_obj() {
                self.stats.dual_bound = obj;
            }
        }
        if status == SolveStatus::Infeasible {
            self.stats.dual_bound = f64::INFINITY;
        }
        let best = self.incumbents.best();
        SolveResult {
            status,
            best_obj: best.map(|s| self.model.external_obj(s.obj)),
            best_x: best.map(|s| s.x.clone()),
            dual_bound: self.model.external_obj(self.stats.dual_bound),
            stats: self.stats.clone(),
        }
    }

    /// Access to the incumbent store (used by glue/tests).
    pub fn best_solution(&self) -> Option<&Solution> {
        self.incumbents.best()
    }
}

/// The point a node is branched on when its relaxation gave none: every
/// variable half a unit above its lower bound, or in the middle of a
/// narrower domain — fractional for each unfixed integer variable.
fn unsolved_point(lb: &[f64], ub: &[f64]) -> Vec<f64> {
    let clamped = lb.iter().zip(ub).map(|(l, u)| (l.max(-1e18), u.min(1e18)));
    clamped.map(|(l, u)| l + 0.5 * (u - l).min(1.0)).collect()
}

/// Model terms in the LP's variable numbering (the two coincide).
fn lp_terms(terms: &[(VarId, f64)]) -> Vec<(ugrs_lp::VarId, f64)> {
    terms.iter().map(|&(v, c)| (ugrs_lp::VarId(v.0), c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VarType;

    fn knapsack() -> Model {
        let mut m = Model::new("knap");
        m.set_maximize();
        let data = [(4.0, 12.0), (2.0, 7.0), (1.0, 4.0), (3.0, 9.0), (5.0, 14.0)];
        let vars: Vec<VarId> =
            data.iter().map(|&(_, p)| m.add_var("x", VarType::Binary, 0.0, 1.0, p)).collect();
        let terms: Vec<(VarId, f64)> = vars.iter().zip(&data).map(|(&v, &(w, _))| (v, w)).collect();
        m.add_linear(f64::NEG_INFINITY, 7.0, &terms);
        m
    }

    #[test]
    fn solves_knapsack_to_optimality() {
        let res = knapsack().optimize(Settings::default());
        assert_eq!(res.status, SolveStatus::Optimal);
        // capacity 7: best is items (4,12)+(2,7)+(1,4) = 23.
        assert!((res.best_obj.unwrap() - 23.0).abs() < 1e-6, "obj {:?}", res.best_obj);
        assert!((res.dual_bound - 23.0).abs() < 1e-6);
    }

    /// An LP that stops at its iteration limit (also on the retry) gives the
    /// node neither a bound nor a point: the node is branched, not closed on
    /// whatever the truncated solve left behind.
    #[test]
    fn truncated_lp_solves_do_not_lose_the_optimum() {
        for lp_iter_limit in 1..=6 {
            let st = Settings { lp_iter_limit, ..Default::default() };
            let res = Solver::new_bare(knapsack(), st.clone()).solve(&mut NoHooks);
            assert_eq!(res.status, SolveStatus::Optimal);
            assert!((res.best_obj.unwrap() - 23.0).abs() < 1e-6, "limit {lp_iter_limit}: {res:?}");

            // General integers: the branching point must split [0, 2] too.
            let mut m = Model::new("t");
            m.set_maximize();
            let x = m.add_var("x", VarType::Integer, 0.0, 2.0, 1.0);
            let y = m.add_var("y", VarType::Integer, 0.0, 2.0, 1.0);
            m.add_linear(f64::NEG_INFINITY, 3.5, &[(x, 1.0), (y, 1.0)]);
            let res = Solver::new_bare(m, st).solve(&mut NoHooks);
            assert!((res.best_obj.unwrap() - 3.0).abs() < 1e-6, "limit {lp_iter_limit}: {res:?}");
        }
    }

    #[test]
    fn infeasible_model_detected() {
        let mut m = Model::new("inf");
        let x = m.add_var("x", VarType::Binary, 0.0, 1.0, 1.0);
        m.add_linear(2.0, f64::INFINITY, &[(x, 1.0)]);
        let res = m.optimize(Settings::default());
        assert_eq!(res.status, SolveStatus::Infeasible);
        assert!(res.best_obj.is_none());
    }

    #[test]
    fn pure_lp_model_no_branching() {
        let mut m = Model::new("lp");
        let x = m.add_var("x", VarType::Continuous, 0.0, 4.0, -1.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 4.0, -1.0);
        m.add_linear(f64::NEG_INFINITY, 5.0, &[(x, 1.0), (y, 1.0)]);
        let res = m.optimize(Settings::default());
        assert_eq!(res.status, SolveStatus::Optimal);
        assert!((res.best_obj.unwrap() + 5.0).abs() < 1e-6);
        assert_eq!(res.stats.nodes, 1);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y, x + y <= 3.5, integers in [0,3] → 3.
        let mut m = Model::new("t");
        m.set_maximize();
        let x = m.add_var("x", VarType::Integer, 0.0, 3.0, 1.0);
        let y = m.add_var("y", VarType::Integer, 0.0, 3.0, 1.0);
        m.add_linear(f64::NEG_INFINITY, 3.5, &[(x, 1.0), (y, 1.0)]);
        let res = m.optimize(Settings::default());
        assert_eq!(res.status, SolveStatus::Optimal);
        assert!((res.best_obj.unwrap() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_respected() {
        let mut m = Model::new("t");
        m.set_maximize();
        // A problem needing some search: equality-constrained knapsack.
        let vars: Vec<VarId> = (0..12)
            .map(|i| m.add_var("x", VarType::Binary, 0.0, 1.0, ((i * 7) % 11) as f64 + 1.0))
            .collect();
        let terms: Vec<(VarId, f64)> =
            vars.iter().enumerate().map(|(i, &v)| (v, ((i * 5) % 9) as f64 + 1.0)).collect();
        m.add_linear(17.0, 17.0, &terms);
        let st =
            Settings { node_limit: 1, presolve_rounds: 0, heur_frequency: 0, ..Default::default() };
        let mut solver = Solver::new_bare(m, st);
        let res = solver.solve(&mut NoHooks);
        assert_eq!(res.status, SolveStatus::NodeLimit);
    }

    #[test]
    fn subproblem_mode_respects_bound_changes() {
        let m = knapsack();
        let desc = NodeDesc {
            bound_changes: vec![BoundChange { var: VarId(0), lb: 0.0, ub: 0.0 }],
            depth: 1,
            dual_bound: f64::NEG_INFINITY,
        };
        let mut solver = Solver::new(m, Settings::default());
        let res = solver.solve_subproblem(&desc, &mut NoHooks);
        assert_eq!(res.status, SolveStatus::Optimal);
        // Without item 0 (w=4, p=12): best within cap 7 is (2,7)+(5,14)=21.
        assert!((res.best_obj.unwrap() - 21.0).abs() < 1e-6, "obj {:?}", res.best_obj);
    }

    #[test]
    fn injected_solution_prunes() {
        let m = knapsack();
        let mut solver = Solver::new(m, Settings::default());
        // x = items 0,1,2 → profit 23, the optimum.
        assert!(solver.inject_solution(vec![1.0, 1.0, 1.0, 0.0, 0.0]));
        let res = solver.solve(&mut NoHooks);
        assert_eq!(res.status, SolveStatus::Optimal);
        assert!((res.best_obj.unwrap() - 23.0).abs() < 1e-6);
    }

    #[test]
    fn hooks_receive_incumbents() {
        struct Recorder {
            objs: Vec<f64>,
        }
        impl ControlHooks for Recorder {
            fn on_incumbent(&mut self, obj: f64, _x: &[f64]) {
                self.objs.push(obj);
            }
        }
        let mut hooks = Recorder { objs: Vec::new() };
        let m = knapsack();
        let mut solver = Solver::new(m, Settings::default());
        let res = solver.solve(&mut hooks);
        assert_eq!(res.status, SolveStatus::Optimal);
        assert!(!hooks.objs.is_empty());
        // internal sense: minimize −profit; last improvement = −23
        assert!((hooks.objs.last().unwrap() + 23.0).abs() < 1e-6);
    }

    #[test]
    fn abort_hook_stops_search() {
        struct AbortNow;
        impl ControlHooks for AbortNow {
            fn should_abort(&mut self) -> bool {
                true
            }
        }
        let m = knapsack();
        let mut solver = Solver::new(m, Settings::default());
        let res = solver.solve(&mut AbortNow);
        assert_eq!(res.status, SolveStatus::Aborted);
    }

    #[test]
    fn depth_first_also_finds_optimum() {
        let st = Settings { node_selection: NodeSelection::DepthFirst, ..Default::default() };
        let res = knapsack().optimize(st);
        assert_eq!(res.status, SolveStatus::Optimal);
        assert!((res.best_obj.unwrap() - 23.0).abs() < 1e-6);
    }

    #[test]
    fn different_seeds_same_answer() {
        for seed in [0u64, 1, 7, 42] {
            let st = Settings::default().with_seed(seed);
            let res = knapsack().optimize(st);
            assert_eq!(res.status, SolveStatus::Optimal);
            assert!((res.best_obj.unwrap() - 23.0).abs() < 1e-6, "seed {seed}");
        }
    }
}
