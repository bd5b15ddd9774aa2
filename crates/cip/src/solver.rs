//! The branch-cut-and-bound driver.
//!
//! One [`Solver`] solves one [`Model`] (or one subproblem of it, when UG
//! hands over a [`NodeDesc`]). External control — the hooks the UG
//! ParaSolver wrapper needs for incumbent exchange, status reporting,
//! collect-mode node export and aborts — enters through [`ControlHooks`].
//! A solve loops select → process → account ([`NodeOutcome`]).

use crate::branching::{select_branching_var, Pseudocosts};
use crate::heurengine::{HeurEngine, HeurStats, PrimalHeuristic};
use crate::heuristics::{ShiftRounding, SimpleRounding};
use crate::model::{Model, VarId};
use crate::plugins::*;
use crate::presolve::presolve;
use crate::propagation::{propagate_linear, redcost_fixing, PropOutcome};
use crate::settings::{NodeSelection, Settings};
use crate::solution::{Incumbents, Solution};
use crate::stats::{NodeOutcome, Statistics};
use crate::tree::{BoundChange, BranchInfo, Node, NodeDesc, Tree};
use std::collections::HashSet;
use std::time::Instant;
use ugrs_lp::{LpCounters, LpProblem, LpSolution, LpStatus, Simplex, SimplexParams};

/// Maximum cut rows kept in the LP; beyond this, aged-out cuts are
/// dropped and the LP is rebuilt (SCIP's cut aging).
const MAX_CUT_ROWS: usize = 250;
/// A cut is dropped at rebuild when it has been slack (zero dual) for more
/// than this many consecutive LP solutions.
const CUT_MAX_AGE: u32 = 3;
/// Maximum depth of one LP dive.
const DIVE_DEPTH: usize = 12;
/// Enforcement rounds (cut, re-solve) on one node before it is given up.
const MAX_ENFORCE_ROUNDS: usize = 200;

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
    heuristics: HeurEngine,
    branchrules: Vec<Box<dyn BranchRule>>,
    relaxator: Option<Box<dyn Relaxator>>,
    pcost: Pseudocosts,
    stats: Statistics,
    incumbents: Incumbents,
    cut_pool: HashSet<u64>,
    /// Cuts currently installed as LP rows, with their slack age.
    active_cuts: Vec<(Cut, u64, u32)>, // (cut, fingerprint, age)
    /// Dual bound inherited with a transferred subproblem.
    initial_bound: f64,
}

/// The [`SolveCtx`] of one plugin call at a node with domain `lb..ub`
/// and, when the node has one, its relaxation point and bound. As a macro
/// it borrows the solver field by field, so that a plugin list of the same
/// solver can be iterated mutably beside it.
macro_rules! ctx {
    ($solver:ident, $depth:expr, $lb:expr, $ub:expr, $relax:expr, $cuts:expr, $tight:expr) => {{
        let relax: Option<(&[f64], f64)> = $relax;
        SolveCtx {
            model: &$solver.model,
            depth: $depth,
            local_lb: $lb,
            local_ub: $ub,
            relax_x: relax.map(|r| r.0),
            relax_obj: relax.map(|r| r.1),
            incumbent_obj: $solver.incumbents.best_obj(),
            incumbent_x: $solver.incumbents.best().map(|s| s.x.as_slice()),
            reduced_costs: &[],
            cuts: $cuts,
            tightenings: $tight,
            seed: $solver.settings.permutation_seed,
        }
    }};
}

impl Solver {
    /// Creates a solver with the built-in default plugins registered.
    pub fn new(model: Model, settings: Settings) -> Self {
        let nvars = model.num_vars();
        Solver {
            model,
            settings,
            conshdlrs: Vec::new(),
            heuristics: {
                let mut engine = HeurEngine::default();
                engine.add_legacy(Box::new(SimpleRounding));
                engine.add_legacy(Box::new(ShiftRounding::default()));
                engine
            },
            branchrules: Vec::new(),
            relaxator: None,
            pcost: Pseudocosts::new(nvars),
            stats: Statistics::default(),
            incumbents: Incumbents::default(),
            cut_pool: HashSet::new(),
            active_cuts: Vec::new(),
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
        self.conshdlrs.iter_mut().all(|h| h.check(&self.model, x))
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
        let Some((mut tree, mut lp)) = self.start_search() else {
            return self.finish(SolveStatus::Infeasible);
        };
        let status = loop {
            let node = match self.select_node(&mut tree, hooks) {
                Ok(node) => node,
                Err(status) => break status,
            };
            let outcome = self.process_node(node, &mut tree, &mut lp, hooks);
            if let Some(status) = self.account(outcome) {
                break status;
            }
        };
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

    /// Presolves, then sets up the tree and — unless a relaxator bounds
    /// the nodes — the LP: the model rows, then the handlers' initial rows
    /// as the first cuts. `None` when the problem is infeasible before any
    /// node.
    fn start_search(&mut self) -> Option<(Tree, Option<Simplex>)> {
        // Domains may have been crossed by apply_node_desc.
        if self.model.vars().any(|(_, v)| v.lb > v.ub) {
            return None;
        }
        if self.settings.presolve_rounds > 0
            && presolve(&mut self.model, self.settings.presolve_rounds).infeasible
        {
            return None;
        }
        self.cut_pool.clear();
        self.active_cuts.clear();
        let lp = if self.settings.use_relaxator && self.relaxator.is_some() {
            None
        } else {
            let mut lp = self.build_lp();
            // Initial rows from constraint handlers (e.g. dual-ascent
            // cuts), installed as (ageable) cut rows.
            let mut buf = CutBuffer::default();
            for h in self.conshdlrs.iter_mut() {
                h.init_lp(&self.model, &mut buf);
            }
            self.install_cuts(buf, &mut lp);
            Some(lp)
        };
        let mut tree = Tree::new(self.settings.node_selection);
        tree.set_root_bound(self.initial_bound);
        Some((tree, lp))
    }

    /// Checks the limits, serves the hooks between two nodes, then pops
    /// the next node and counts it. `Err` is the status the solve ends
    /// with: a limit, an abort, or the tree exhausted.
    fn select_node(
        &mut self,
        tree: &mut Tree,
        hooks: &mut dyn ControlHooks,
    ) -> Result<usize, SolveStatus> {
        if self.stats.elapsed() > self.settings.time_limit {
            return Err(SolveStatus::TimeLimit);
        }
        if self.stats.nodes >= self.settings.node_limit {
            return Err(SolveStatus::NodeLimit);
        }
        if hooks.should_abort() {
            return Err(SolveStatus::Aborted);
        }
        if let Some(x) = hooks.poll_incumbent().filter(|x| self.check_full(x)) {
            // It came from the hooks: it is not reported back to them.
            self.install_incumbent(Solution::new(&self.model, x), None, tree);
        }
        // Export only out of substantial trees: fine-grained transfers
        // would spend the run re-initializing solvers (the paper's
        // transfer counts are ~1 per 10⁵ nodes; the unit of work is a
        // subtree, not a node).
        while hooks.want_node_export() && tree.num_open() >= 6 {
            let Some(id) = tree.steal_open_node() else { break };
            hooks.export_node(tree.describe(id));
        }
        let Some(node) = tree.pop_best(self.cutoff()) else {
            // Exhausted tree: the bound closes onto the incumbent.
            let Some(obj) = self.incumbents.best_obj() else {
                return Err(SolveStatus::Infeasible);
            };
            self.stats.record_dual_bound(obj);
            return Err(SolveStatus::Optimal);
        };
        self.stats.nodes += 1;
        Ok(node)
    }

    /// Counts how a node was closed; the first node's end is the root
    /// time. `Some` is the status an outcome ends the solve with.
    fn account(&mut self, outcome: NodeOutcome) -> Option<SolveStatus> {
        self.stats.node_outcomes[outcome as usize] += 1;
        if self.stats.nodes == 1 {
            self.stats.root_time = self.stats.elapsed();
        }
        (outcome == NodeOutcome::Unbounded).then_some(SolveStatus::Unbounded)
    }

    /// One node: its domain and propagation, its relaxation (the LP with
    /// separation, or the relaxator), enforcement on an integral point,
    /// heuristics, and branching.
    fn process_node(
        &mut self,
        node_id: usize,
        tree: &mut Tree,
        lp: &mut Option<Simplex>,
        hooks: &mut dyn ControlHooks,
    ) -> NodeOutcome {
        let node = tree.node(node_id);
        let depth = node.depth;
        // Neither the tree nor the incumbent changes until this node's
        // relaxation is solved: one scan of the open nodes serves both
        // dual-bound records. The global dual bound is the minimum over
        // the open nodes, this node and the incumbent.
        let open_bound = tree.open_bound().min(self.incumbents.best_obj().unwrap_or(f64::INFINITY));
        self.stats.record_dual_bound(open_bound.min(node.dual_bound));
        // Status flows every node; the receiving side rate-limits.
        hooks.on_status(self.stats.dual_bound, tree.num_open(), self.stats.nodes);

        // ---- local domain and propagation -----------------------------
        let mut lb: Vec<f64> = self.model.vars().map(|(_, v)| v.lb).collect();
        let mut ub: Vec<f64> = self.model.vars().map(|(_, v)| v.ub).collect();
        for bc in tree.path_changes(node_id) {
            let j = bc.var.0 as usize;
            lb[j] = lb[j].max(bc.lb);
            ub[j] = ub[j].min(bc.ub);
            if lb[j] > ub[j] {
                return NodeOutcome::Infeasible;
            }
        }
        match propagate_linear(&self.model, &mut lb, &mut ub, 3) {
            PropOutcome::Infeasible => return NodeOutcome::Infeasible,
            PropOutcome::Tightened => self.stats.propagations += 1,
            PropOutcome::Unchanged => {}
        }
        if self.run_handler_propagation(depth, &mut lb, &mut ub).is_err() {
            return NodeOutcome::Infeasible;
        }

        // ---- relaxation ------------------------------------------------
        let relaxed = match lp.as_mut() {
            Some(lp) => self.solve_node_lp(lp, node, tree.num_open(), &mut lb, &mut ub, hooks),
            None => self.solve_relaxator(node, &lb, &ub),
        };
        let (mut bound, mut relax_x) = match relaxed {
            Ok(relaxed) => relaxed,
            Err(outcome) => return outcome,
        };
        self.update_pseudocosts(node.branch_info, bound);
        self.stats.record_dual_bound(open_bound.min(bound));
        if bound >= self.cutoff() {
            return NodeOutcome::PrunedByBound;
        }

        // ---- integrality / enforcement ---------------------------------
        if let Some(outcome) = self.enforce(depth, &lb, &ub, &mut bound, &mut relax_x, lp.as_mut())
        {
            if outcome != NodeOutcome::Feasible {
                return outcome;
            }
            let mut sol = Solution::new(&self.model, relax_x);
            sol.round_integers(&self.model);
            if !self.model.check_solution(&sol.x, crate::FEAS_TOL) {
                return NodeOutcome::RoundedPointRejected;
            }
            self.install_incumbent(sol, Some(&mut *hooks), tree);
            return NodeOutcome::Feasible;
        }

        // ---- heuristics ------------------------------------------------
        let freq = self.settings.heur_frequency;
        if depth == 0 || (freq > 0 && depth.is_multiple_of(freq)) {
            self.run_heuristics(depth, &lb, &ub, &relax_x, bound, hooks, tree);
            if let Some(lp) = lp.as_mut() {
                self.run_diving(&lb, &ub, &relax_x, lp, hooks, tree);
            }
        }

        // ---- branching -------------------------------------------------
        let Some(dec) = self.pick_branching(depth, &lb, &ub, &relax_x, bound) else {
            // Nothing is fractional and no rule chose a variable: the
            // relaxation gave no point and `unsolved_point` is integral.
            return NodeOutcome::NoBranchingDecision;
        };
        let j = dec.var.0 as usize;
        let floor = dec.value.floor();
        let down = BoundChange { var: dec.var, lb: lb[j], ub: floor };
        let up = BoundChange { var: dec.var, lb: floor + 1.0, ub: ub[j] };
        // Push the preferred child last for DFS (LIFO), first for
        // best-bound (order there is bound-driven anyway).
        let mut children = [(down, false), (up, true)];
        if dec.down_first == (self.settings.node_selection == NodeSelection::DepthFirst) {
            children.reverse();
        }
        for (change, up) in children {
            let info =
                BranchInfo { var: dec.var, frac: dec.value - floor, up, parent_bound: bound };
            tree.push_node_with_info(Some(node_id), vec![change], bound, Some(info));
        }
        NodeOutcome::Branched
    }

    /// Bounds a node by the relaxator. `Ok` is the node's bound and
    /// relaxation point.
    fn solve_relaxator(
        &mut self,
        node: &Node,
        lb: &[f64],
        ub: &[f64],
    ) -> Result<(f64, Vec<f64>), NodeOutcome> {
        let relaxator = self.relaxator.as_mut().expect("a solve without an LP has a relaxator");
        let (mut cuts, mut tight) = (CutBuffer::default(), Vec::new());
        let mut ctx = ctx!(self, node.depth, lb, ub, None, &mut cuts, &mut tight);
        let res = relaxator.solve_relaxation(&mut ctx);
        self.stats.relax_solves += 1;
        self.stats.relax_iterations += res.iterations;
        self.stats.relax_fallbacks += res.fallbacks;
        match res.outcome {
            RelaxOutcome::Infeasible => Err(NodeOutcome::Infeasible),
            // The relaxator failed: the node keeps the bound it came with
            // and is branched on some unfixed integer variable.
            RelaxOutcome::Error => Ok((node.dual_bound, unsolved_point(lb, ub))),
            RelaxOutcome::Bounded { bound, x } => Ok((bound.max(node.dual_bound), x)),
        }
    }

    /// Bounds a node by the LP: drops aged cuts when the LP got too big,
    /// pushes the local bounds, warm-starts the dual simplex, separates
    /// while the bound improves, and fixes variables by reduced cost. `Ok`
    /// is the node's bound and relaxation point; an LP without an answer
    /// leaves the node the bound it came with, to be branched on some
    /// unfixed integer variable.
    fn solve_node_lp(
        &mut self,
        lp: &mut Simplex,
        node: &Node,
        open_nodes: usize,
        lb: &mut [f64],
        ub: &mut [f64],
        hooks: &mut dyn ControlHooks,
    ) -> Result<(f64, Vec<f64>), NodeOutcome> {
        if let Some(fresh) = self.maybe_rebuild_lp() {
            *lp = fresh;
        }
        for (j, (&l, &u)) in lb.iter().zip(ub.iter()).enumerate() {
            lp.set_var_bounds(ugrs_lp::VarId(j as u32), l, u);
        }
        let mut sol = match self.solve_lp(lp) {
            (LpStatus::Unbounded, _) if node.depth == 0 => return Err(NodeOutcome::Unbounded),
            // Infeasible, or unbounded below the root.
            (LpStatus::Infeasible | LpStatus::Unbounded, _) => return Err(NodeOutcome::Infeasible),
            (_, Some(sol)) => sol,
            (_, None) => return Ok((node.dual_bound, unsolved_point(lb, ub))),
        };
        let mut bound = sol.obj.max(node.dual_bound);

        // ---- separation loop -------------------------------------------
        let st = &self.settings;
        let max_rounds = if node.depth == 0 { st.root_sepa_rounds } else { st.node_sepa_rounds };
        let mut pruned = None;
        let mut stalled_rounds = 0usize;
        for _round in 0..max_rounds {
            if bound >= self.cutoff() {
                pruned = Some(NodeOutcome::PrunedByBound);
                break;
            }
            if self.stats.elapsed() > self.settings.time_limit {
                break;
            }
            if self.run_separation(node.depth, lb, ub, &sol.x, bound, lp) == 0 {
                break;
            }
            let (st, resolved) = self.solve_lp(lp);
            if st == LpStatus::Infeasible {
                pruned = Some(NodeOutcome::Infeasible);
                break;
            }
            let Some(resolved) = resolved else { break };
            sol = resolved;
            let prev = bound;
            bound = sol.obj.max(bound);
            // Long root separation phases must still report progress
            // (racing compares bounds *during* the root).
            if node.depth == 0 {
                self.stats.record_dual_bound(
                    bound.min(self.incumbents.best_obj().unwrap_or(f64::INFINITY)),
                );
                hooks.on_status(self.stats.dual_bound, open_nodes + 1, self.stats.nodes);
            }
            // Stop when the dual bound stalls ("as long as the dual-bound
            // can be sufficiently improved", §3.1).
            if bound - prev < 1e-6 * (1.0 + bound.abs()) {
                stalled_rounds += 1;
                if stalled_rounds >= 2 {
                    break;
                }
            } else {
                stalled_rounds = 0;
            }
        }
        self.age_cuts(&sol.row_duals);
        if let Some(outcome) = pruned {
            self.update_pseudocosts(node.branch_info, bound);
            return Err(outcome);
        }

        // ---- reduced-cost fixing ---------------------------------------
        let cutoff = self.cutoff();
        let fixed = redcost_fixing(&self.model, &sol.x, &sol.reduced_costs, bound, cutoff, lb, ub);
        self.stats.redcost_fixings += fixed as u64;
        Ok((bound, sol.x))
    }

    /// Enforces the constraint handlers while the node's relaxation point
    /// `x` is integral. With an LP, their cuts are installed and the LP
    /// re-solved, which moves `bound` and `x`. `None` sends the node on to
    /// branching: `x` is fractional, or the LP gave no answer and `x` is
    /// now `unsolved_point`. `Some(Feasible)` means every handler accepted
    /// the integral `x`; every other outcome closes the node.
    fn enforce(
        &mut self,
        depth: usize,
        lb: &[f64],
        ub: &[f64],
        bound: &mut f64,
        x: &mut Vec<f64>,
        mut lp: Option<&mut Simplex>,
    ) -> Option<NodeOutcome> {
        let mut rounds = 0;
        loop {
            if self.fractional(x).is_some() {
                return None;
            }
            let (mut cuts, mut tight) = (CutBuffer::default(), Vec::new());
            let (mut cut_added, mut cutoff) = (false, false);
            for h in self.conshdlrs.iter_mut() {
                let relax = Some((x.as_slice(), *bound));
                match h.enforce(&mut ctx!(self, depth, lb, ub, relax, &mut cuts, &mut tight)) {
                    EnforceResult::Feasible => {}
                    EnforceResult::AddedCuts(_) => cut_added = true,
                    EnforceResult::Cutoff => {
                        cutoff = true;
                        break;
                    }
                }
            }
            let Some(lp) = lp.as_deref_mut() else {
                // Without an LP the handlers' cuts have nowhere to go.
                return Some(match (cutoff, cut_added) {
                    (true, _) => NodeOutcome::Infeasible,
                    (false, true) => NodeOutcome::RelaxPointRejected,
                    (false, false) => NodeOutcome::Feasible,
                });
            };
            // The cuts go in even when a later handler cut the node off.
            let installed = if cut_added { self.install_cuts(cuts, lp) } else { 0 };
            if cutoff {
                return Some(NodeOutcome::Infeasible);
            }
            if !cut_added {
                return Some(NodeOutcome::Feasible);
            }
            if installed == 0 {
                // All pool duplicates: cutting cannot make progress.
                return Some(NodeOutcome::DuplicateCuts);
            }
            rounds += 1;
            if rounds > MAX_ENFORCE_ROUNDS || self.stats.elapsed() > self.settings.time_limit {
                return Some(NodeOutcome::EnforceLimit);
            }
            match self.solve_lp(lp) {
                (_, Some(sol)) => {
                    *bound = sol.obj.max(*bound);
                    *x = sol.x;
                }
                (LpStatus::IterLimit | LpStatus::Numerical, None) => {
                    // No answer from the LP: branch instead of cutting on.
                    *x = unsolved_point(lb, ub);
                    return None;
                }
                _ => return Some(NodeOutcome::Infeasible),
            }
            if *bound >= self.cutoff() {
                return Some(NodeOutcome::PrunedByBound);
            }
        }
    }

    /// Offers `sol`, checked at its call site, as the incumbent. An
    /// improving one is counted, reported to `hooks` when there are any,
    /// and prunes the open nodes it bounds. Returns whether it improved.
    fn install_incumbent(
        &mut self,
        sol: Solution,
        hooks: Option<&mut dyn ControlHooks>,
        tree: &mut Tree,
    ) -> bool {
        let obj = sol.obj;
        if !self.incumbents.try_install(sol, self.stats.nodes) {
            return false;
        }
        self.stats.improving_solutions += 1;
        if let Some(hooks) = hooks {
            hooks.on_incumbent(obj, &self.incumbents.best().unwrap().x);
        }
        tree.prune_by_bound(self.cutoff());
        true
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

    /// Up to three rounds of the handlers' `propagate`, until a round
    /// tightens nothing. `Err` when the node's domain became empty.
    fn run_handler_propagation(
        &mut self,
        depth: usize,
        lb: &mut [f64],
        ub: &mut [f64],
    ) -> Result<(), ()> {
        for _ in 0..3 {
            let mut any = false;
            for h in self.conshdlrs.iter_mut() {
                let (mut cuts, mut tight) = (CutBuffer::default(), Vec::new());
                match h.propagate(&mut ctx!(self, depth, lb, ub, None, &mut cuts, &mut tight)) {
                    PropResult::Infeasible => return Err(()),
                    PropResult::Reduced => {
                        any |= Self::apply_tightenings(&tight, lb, ub)?;
                        self.stats.propagations += 1;
                    }
                    PropResult::Nothing => {}
                }
            }
            if !any {
                break;
            }
        }
        Ok(())
    }

    /// Runs the handlers' separation; installs surviving cuts.
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
        let (mut buf, mut tight) = (CutBuffer::default(), Vec::new());
        for h in self.conshdlrs.iter_mut() {
            let _ =
                h.separate(&mut ctx!(self, depth, lb, ub, Some((x, bound)), &mut buf, &mut tight));
        }
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
        SimplexParams { iter_limit: self.settings.lp_iter_limit }
    }

    /// One LP solve with all of the LP accounting. Every solve is a
    /// `solve_dual` from the basis the simplex holds: a warm start after
    /// bound changes and added rows; from the slack basis of a fresh LP the
    /// dual simplex where that basis is dual feasible (costs `c ≥ 0` over
    /// variables resting at their lower bounds, every Steiner model) and the
    /// primal simplex where it is primal feasible, because the dual phase
    /// then has nothing to do and hands over to the primal polish at once
    /// (where it is neither, dual pivots on clamped reduced costs come first).
    /// A solve that ends without an answer — in numerical trouble or at the
    /// iteration limit — is retried once cold: the simplex rebuilt from the
    /// slack basis, `solve_primal`. Both the retries and the solves that end
    /// in numerical trouble are counted.
    ///
    /// Only an optimal solve has a solution. A truncated one has no bound to
    /// offer (its basis is not known to be dual feasible) and its point
    /// satisfies nothing, so the callers treat the node as unsolved.
    fn solve_lp(&mut self, lp: &mut Simplex) -> (LpStatus, Option<LpSolution>) {
        let started = Instant::now();
        let mut seen = *lp.counters();
        let mut st = lp.solve_dual();
        self.stats.lp_solves += 1;
        self.stats.lp_iterations += lp.iterations() as u64;
        if matches!(st, LpStatus::Numerical | LpStatus::IterLimit) {
            self.stats.lp_numerical += (st == LpStatus::Numerical) as u64;
            self.stats.lp_cold_retries += 1;
            self.stats.add_lp_work(&seen, lp.counters());
            seen = LpCounters::default();
            *lp = Simplex::new(lp.problem().clone(), self.lp_params());
            st = lp.solve_primal();
            self.stats.lp_iterations += lp.iterations() as u64;
            self.stats.lp_numerical += (st == LpStatus::Numerical) as u64;
        }
        let sol = (st == LpStatus::Optimal).then(|| lp.extract_solution());
        self.stats.add_lp_work(&seen, lp.counters());
        self.stats.lp_time += started.elapsed().as_secs_f64();
        (st, sol)
    }

    /// Ages cut rows by their duals in the last LP solution (the model
    /// rows come first; cut rows follow in `active_cuts` order).
    fn age_cuts(&mut self, row_duals: &[f64]) {
        let base_rows = self.model.num_conss();
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
    /// [`MAX_CUT_ROWS`]. Returns a fresh simplex when a rebuild
    /// happened (the caller re-solves from scratch).
    fn maybe_rebuild_lp(&mut self) -> Option<Simplex> {
        if self.active_cuts.len() <= MAX_CUT_ROWS {
            return None;
        }
        let mut kept: Vec<(Cut, u64, u32)> = Vec::new();
        for rec in self.active_cuts.drain(..) {
            if rec.2 <= CUT_MAX_AGE {
                kept.push(rec);
            } else {
                self.cut_pool.remove(&rec.1);
            }
        }
        // Still too many: keep the most recently added ones.
        if kept.len() > MAX_CUT_ROWS {
            let drop_n = kept.len() - MAX_CUT_ROWS;
            for rec in kept.drain(..drop_n) {
                self.cut_pool.remove(&rec.1);
            }
        }
        self.active_cuts = kept;
        let lp = self.build_lp();
        debug_assert_eq!(lp.problem().num_rows(), self.model.num_conss() + self.active_cuts.len());
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
        for i in self.heuristics.due_indices(depth) {
            let (mut cuts, mut tight) = (CutBuffer::default(), Vec::new());
            let mut ctx = ctx!(self, depth, lb, ub, Some((relax_x, bound)), &mut cuts, &mut tight);
            let Some(x) = self.heuristics.entry_mut(i).call(&mut ctx) else { continue };
            if !self.check_full(&x) {
                continue;
            }
            let mut sol = Solution::new(&self.model, x);
            sol.round_integers(&self.model);
            let obj = sol.obj;
            if self.install_incumbent(sol, Some(&mut *hooks), tree) {
                self.heuristics.record_hit(i, obj);
            }
        }
    }

    /// LP diving (SCIP's fracdiving): starting from the node's LP
    /// optimum, repeatedly fix the most fractional integer variable to
    /// its nearest integer and re-solve, hoping to land on an integral
    /// feasible point. The LP's variable bounds are freely mutated —
    /// `solve_node_lp` installs each node's local domain, so no
    /// restoration is needed.
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
        for _ in 0..DIVE_DEPTH {
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
                    self.install_incumbent(sol, Some(&mut *hooks), tree);
                }
                return;
            };
            let j = var.0 as usize;
            // A fixed variable is integral from then on and never picked
            // again, so the node's domain is the one to clamp to.
            let r = val.round().clamp(lb[j], ub[j]);
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
        let picked = self.branchrules.iter_mut().find_map(|r| {
            let (mut cuts, mut tight) = (CutBuffer::default(), Vec::new());
            r.branch(&mut ctx!(self, depth, lb, ub, Some((relax_x, bound)), &mut cuts, &mut tight))
        });
        picked.or_else(|| {
            let (var, value) = self.fractional(relax_x)?;
            Some(BranchDecision { var, value, down_first: value - value.floor() < 0.5 })
        })
    }

    /// The default rule's branching variable at `x`; `None` when `x` is
    /// integral.
    fn fractional(&self, x: &[f64]) -> Option<(VarId, f64)> {
        let st = &self.settings;
        select_branching_var(&self.model, x, st.branching, &self.pcost, st.permutation_seed)
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

    /// Every processed node is closed with exactly one outcome.
    fn assert_outcomes(st: &Statistics) {
        assert_eq!(st.node_outcomes.iter().sum::<u64>(), st.nodes, "{:?}", st.node_outcomes);
    }

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
        assert_outcomes(&res.stats);
        assert_eq!(res.status, SolveStatus::Optimal);
        // capacity 7: best is items (4,12)+(2,7)+(1,4) = 23.
        assert!((res.best_obj.unwrap() - 23.0).abs() < 1e-6, "obj {:?}", res.best_obj);
        assert!((res.dual_bound - 23.0).abs() < 1e-6);
    }

    /// An LP that stops at its iteration limit (also on the retry) gives the
    /// node neither a bound nor a point: the node is branched, not closed on
    /// whatever the truncated solve left behind. Every cold retry is counted.
    #[test]
    fn truncated_lp_solves_do_not_lose_the_optimum() {
        for lp_iter_limit in 1..=6 {
            let st = Settings { lp_iter_limit, ..Default::default() };
            let res = Solver::new_bare(knapsack(), st.clone()).solve(&mut NoHooks);
            assert_outcomes(&res.stats);
            assert_eq!(res.status, SolveStatus::Optimal);
            assert!((res.best_obj.unwrap() - 23.0).abs() < 1e-6, "limit {lp_iter_limit}: {res:?}");
            assert!(res.stats.lp_cold_retries > 0, "limit {lp_iter_limit}: {:?}", res.stats);
            let pivots = res.stats.lp_dual_pivots + res.stats.lp_primal_pivots;
            assert_eq!(pivots, res.stats.lp_iterations, "the retries' pivots count too");

            // General integers: the branching point must split [0, 2] too.
            let mut m = Model::new("t");
            m.set_maximize();
            let x = m.add_var("x", VarType::Integer, 0.0, 2.0, 1.0);
            let y = m.add_var("y", VarType::Integer, 0.0, 2.0, 1.0);
            m.add_linear(f64::NEG_INFINITY, 3.5, &[(x, 1.0), (y, 1.0)]);
            let res = Solver::new_bare(m, st).solve(&mut NoHooks);
            assert_outcomes(&res.stats);
            assert!((res.best_obj.unwrap() - 3.0).abs() < 1e-6, "limit {lp_iter_limit}: {res:?}");
        }
    }

    #[test]
    fn infeasible_model_detected() {
        let mut m = Model::new("inf");
        let x = m.add_var("x", VarType::Binary, 0.0, 1.0, 1.0);
        m.add_linear(2.0, f64::INFINITY, &[(x, 1.0)]);
        let res = m.optimize(Settings::default());
        assert_outcomes(&res.stats);
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
        assert_outcomes(&res.stats);
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
        assert_outcomes(&res.stats);
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
        assert_outcomes(&res.stats);
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
        assert_outcomes(&res.stats);
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
        assert_outcomes(&res.stats);
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
        assert_outcomes(&res.stats);
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
        assert_outcomes(&res.stats);
        assert_eq!(res.status, SolveStatus::Aborted);
    }

    #[test]
    fn depth_first_also_finds_optimum() {
        let st = Settings { node_selection: NodeSelection::DepthFirst, ..Default::default() };
        let res = knapsack().optimize(st);
        assert_outcomes(&res.stats);
        assert_eq!(res.status, SolveStatus::Optimal);
        assert!((res.best_obj.unwrap() - 23.0).abs() < 1e-6);
    }

    #[test]
    fn different_seeds_same_answer() {
        for seed in [0u64, 1, 7, 42] {
            let st = Settings::default().with_seed(seed);
            let res = knapsack().optimize(st);
            assert_outcomes(&res.stats);
            assert_eq!(res.status, SolveStatus::Optimal);
            assert!((res.best_obj.unwrap() - 23.0).abs() < 1e-6, "seed {seed}");
        }
    }

    /// Rejects every integral point with a redundant cut `x0 ≤ rhs`: the
    /// same cut each time, or (`fresh`) one with a new right-hand side.
    /// It adds one initial LP row, and accepts no solution.
    struct CutEveryPoint {
        fresh: bool,
        calls: usize,
    }

    impl CutEveryPoint {
        fn boxed(fresh: bool) -> Box<Self> {
            Box::new(CutEveryPoint { fresh, calls: 0 })
        }
    }

    impl ConstraintHandler for CutEveryPoint {
        fn name(&self) -> &str {
            "cut-every-point"
        }
        fn check(&mut self, _model: &Model, _x: &[f64]) -> bool {
            false
        }
        fn enforce(&mut self, ctx: &mut SolveCtx) -> EnforceResult {
            self.calls += 1;
            let rhs = if self.fresh { 1.0 + self.calls as f64 } else { 1.0 };
            ctx.cuts.add(Cut::new("redundant", f64::NEG_INFINITY, rhs, vec![(VarId(0), 1.0)]));
            EnforceResult::AddedCuts(1)
        }
        fn init_lp(&mut self, _model: &Model, cuts: &mut CutBuffer) {
            cuts.add(Cut::new(
                "init",
                f64::NEG_INFINITY,
                2.0,
                vec![(VarId(0), 1.0), (VarId(1), 1.0)],
            ));
        }
    }

    /// A relaxator that answers every node with `x` at bound 0.
    struct FixedPoint(Vec<f64>);

    impl Relaxator for FixedPoint {
        fn name(&self) -> &str {
            "fixed-point"
        }
        fn solve_relaxation(&mut self, _ctx: &mut SolveCtx) -> RelaxResult {
            let outcome = RelaxOutcome::Bounded { bound: 0.0, x: self.0.clone() };
            RelaxResult { outcome, iterations: 1, fallbacks: 0 }
        }
    }

    /// min x0 + x1 over two binaries with x0 + x1 ≤ 2: the LP optimum
    /// (0, 0) is integral at the root.
    fn two_binaries() -> Model {
        let mut m = Model::new("two");
        let x = m.add_var("x0", VarType::Binary, 0.0, 1.0, 1.0);
        let y = m.add_var("x1", VarType::Binary, 0.0, 1.0, 1.0);
        m.add_linear(f64::NEG_INFINITY, 2.0, &[(x, 1.0), (y, 1.0)]);
        m
    }

    fn no_presolve() -> Settings {
        Settings { presolve_rounds: 0, ..Default::default() }
    }

    /// Hazard: a handler whose enforcement cut is already in the pool
    /// closes the node unproven, and the solve reports `Infeasible`.
    #[test]
    fn duplicate_enforcement_cuts_close_the_node() {
        let mut solver = Solver::new_bare(two_binaries(), no_presolve());
        solver.add_conshdlr(CutEveryPoint::boxed(false));
        let res = solver.solve(&mut NoHooks);
        assert_outcomes(&res.stats);
        assert_eq!(res.stats.nodes, 1);
        assert_eq!(res.stats.outcome_count(NodeOutcome::DuplicateCuts), 1);
        assert!(!NodeOutcome::DuplicateCuts.is_proven());
        assert_eq!((res.stats.cuts_applied, res.stats.cuts_duplicate), (2, 1));
        assert_eq!(res.status, SolveStatus::Infeasible);
    }

    /// Hazard: a handler that rejects the relaxator's integral point
    /// closes the node unproven. A relaxator solve builds no LP, so the
    /// handler's initial row and its enforcement cut are never installed.
    #[test]
    fn rejected_relaxator_point_closes_the_node() {
        let st = Settings { use_relaxator: true, ..no_presolve() };
        let mut solver = Solver::new_bare(two_binaries(), st);
        solver.add_conshdlr(CutEveryPoint::boxed(false));
        solver.set_relaxator(Box::new(FixedPoint(vec![0.0, 0.0])));
        let res = solver.solve(&mut NoHooks);
        assert_outcomes(&res.stats);
        assert_eq!(res.stats.nodes, 1);
        assert_eq!(res.stats.outcome_count(NodeOutcome::RelaxPointRejected), 1);
        assert_eq!((res.stats.relax_solves, res.stats.lp_solves), (1, 0));
        assert_eq!(res.stats.cuts_applied, 0);
        assert_eq!(res.status, SolveStatus::Infeasible);

        // Registered but switched off, the relaxator leaves the LP in charge.
        let mut solver = Solver::new_bare(two_binaries(), no_presolve());
        solver.add_conshdlr(CutEveryPoint::boxed(false));
        solver.set_relaxator(Box::new(FixedPoint(vec![0.0, 0.0])));
        let res = solver.solve(&mut NoHooks);
        assert_eq!(res.stats.relax_solves, 0);
        assert!(res.stats.lp_solves > 0 && res.stats.cuts_applied > 0, "{:?}", res.stats);
    }

    /// Hazard: a handler that adds a fresh cut every round is given up
    /// after the round cap, unproven.
    #[test]
    fn enforcement_round_cap_closes_the_node() {
        let mut solver = Solver::new_bare(two_binaries(), no_presolve());
        solver.add_conshdlr(CutEveryPoint::boxed(true));
        let res = solver.solve(&mut NoHooks);
        assert_outcomes(&res.stats);
        assert_eq!(res.stats.nodes, 1);
        assert_eq!(res.stats.outcome_count(NodeOutcome::EnforceLimit), 1);
        // The initial row, then one cut per round up to and past the cap.
        assert_eq!(res.stats.cuts_applied, 1 + MAX_ENFORCE_ROUNDS as u64 + 1);
        assert_eq!(res.status, SolveStatus::Infeasible);
    }

    /// Hazard: an integral point that every handler accepts, but whose
    /// rounded copy violates a row, closes the node unproven.
    #[test]
    fn rounded_point_that_fails_the_model_closes_the_node() {
        let mut m = Model::new("round");
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0, 1.0);
        m.add_linear(f64::NEG_INFINITY, 9.999995, &[(x, 10.0)]);
        let st = Settings { use_relaxator: true, ..no_presolve() };
        let mut solver = Solver::new_bare(m, st);
        solver.set_relaxator(Box::new(FixedPoint(vec![0.9999995])));
        let res = solver.solve(&mut NoHooks);
        assert_outcomes(&res.stats);
        assert_eq!(res.stats.outcome_count(NodeOutcome::RoundedPointRejected), 1);
        assert_eq!(res.status, SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_root_lp_ends_the_solve() {
        let mut m = Model::new("unb");
        m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY, -1.0);
        let y = m.add_var("y", VarType::Integer, 0.0, 1.0, 0.0);
        m.add_linear(f64::NEG_INFINITY, 1.0, &[(y, 1.0)]);
        let res = Solver::new_bare(m, no_presolve()).solve(&mut NoHooks);
        assert_outcomes(&res.stats);
        assert_eq!(res.status, SolveStatus::Unbounded);
        assert_eq!(res.stats.outcome_count(NodeOutcome::Unbounded), 1);
    }

    /// A search that closes its nodes by proof only.
    #[test]
    fn knapsack_nodes_close_by_proof() {
        // Capacity 6 leaves the LP optimum fractional.
        let mut m = Model::new("knap6");
        m.set_maximize();
        let data = [(4.0, 12.0), (2.0, 7.0), (1.0, 4.0), (3.0, 9.0), (5.0, 14.0)];
        let terms: Vec<(VarId, f64)> =
            data.iter().map(|&(w, p)| (m.add_var("x", VarType::Binary, 0.0, 1.0, p), w)).collect();
        m.add_linear(f64::NEG_INFINITY, 6.0, &terms);
        let res = Solver::new_bare(m, no_presolve()).solve(&mut NoHooks);
        assert_outcomes(&res.stats);
        for o in NodeOutcome::ALL {
            assert!(o.is_proven() || res.stats.outcome_count(o) == 0, "{o:?}: {:?}", res.stats);
        }
        assert!(res.stats.outcome_count(NodeOutcome::Branched) > 0);
        assert!(res.stats.outcome_count(NodeOutcome::Feasible) > 0);
    }

    /// Hazard: when the LP stops at its iteration limit on a node whose
    /// integer variables are all fixed, `unsolved_point` is integral and
    /// no branching variable exists: the node is closed unproven.
    #[test]
    fn unsolved_lp_on_fixed_integers_closes_the_node() {
        let mut m = Model::new("fixed");
        let z = m.add_var("z", VarType::Integer, 1.0, 1.0, 0.0);
        let mut terms = vec![(z, 1.0)];
        terms.extend((0..4).map(|_| (m.add_var("y", VarType::Continuous, 0.0, 1.0, -1.0), 1.0)));
        m.add_linear(f64::NEG_INFINITY, 4.5, &terms);
        let st = Settings { lp_iter_limit: 1, ..no_presolve() };
        let mut solver = Solver::new_bare(m, st);
        solver.add_conshdlr(CutEveryPoint::boxed(true));
        let res = solver.solve(&mut NoHooks);
        assert_outcomes(&res.stats);
        assert_eq!(res.stats.nodes, 1);
        assert_eq!(res.stats.outcome_count(NodeOutcome::NoBranchingDecision), 1);
        assert_eq!(res.stats.lp_cold_retries, 2, "{:?}", res.stats);
        assert_eq!(res.status, SolveStatus::Infeasible);
    }
}
