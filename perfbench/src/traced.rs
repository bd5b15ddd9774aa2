//! The traced variants of the sequential solves.
//!
//! `SteinerSolver::solve` and `MisdpSolver::solve` are re-enacted step
//! by step through the same public functions they call, with a span
//! around each step, and every plugin is registered inside a wrapper
//! that opens a span per callback. The solver is not touched; whatever
//! the wrappers do not see (LP solves, tree management, built-in
//! propagation) is the self time of the `cip.solve` span. A traced
//! solve must reproduce the untraced node count and objective exactly —
//! the workloads check that, so this file cannot silently drift from
//! the facades it mirrors.

use crate::solve::{Solved, ITEM_LIMIT_S};
use crate::trace::{lock, span, SharedTracer};
use std::sync::Arc;
use std::time::Instant;
use ugrs_cip::heurengine::HeurSchedule;
use ugrs_cip::{
    BranchDecision, BranchRule, ConstraintHandler, CutBuffer, EnforceResult, Heuristic, Model,
    NoHooks, PrimalHeuristic, PropResult, RelaxResult, Relaxator, SepaResult, Settings, SolveCtx,
    SolveStatus, Solver as CipSolver,
};
use ugrs_misdp::eigcut::EigenCutHandler;
use ugrs_misdp::heur::RandomizedRounding;
use ugrs_misdp::relax::SdpRelaxator;
use ugrs_misdp::solver::build_cip_model;
use ugrs_misdp::{Approach, MisdpProblem};
use ugrs_steiner::heur::{local_search, real_weights, tm_best};
use ugrs_steiner::plugins::{
    build_model, DirectedCutHandler, KeyVertexHeuristic, TmHeuristic, VertexBranching,
};
use ugrs_steiner::reduce::{reduce, ReduceParams};
use ugrs_steiner::{Graph, SteinerTree};

/// Span names of one wrapped plugin, per callback it may receive.
#[derive(Clone, Copy)]
pub struct Names {
    pub check: &'static str,
    pub enforce: &'static str,
    pub separate: &'static str,
    pub propagate: &'static str,
    pub init_lp: &'static str,
    pub run: &'static str,
}

const STEINER_CUTS: Names = Names {
    check: "steiner.check",
    enforce: "steiner.separate",
    separate: "steiner.separate",
    propagate: "steiner.propagate",
    init_lp: "steiner.dualascent_rows",
    run: "",
};
const STEINER_TM: Names = Names { run: "steiner.tm_plugin", ..STEINER_CUTS };
const STEINER_KEYVERTEX: Names = Names { run: "steiner.keyvertex", ..STEINER_CUTS };
const STEINER_BRANCH: Names = Names { run: "steiner.branch", ..STEINER_CUTS };
const MISDP_EIGCUT: Names = Names {
    check: "misdp.psd_check",
    enforce: "misdp.eigcut",
    separate: "misdp.eigcut",
    propagate: "misdp.eigcut",
    init_lp: "misdp.eigcut",
    run: "",
};
const MISDP_ROUNDING: Names = Names { run: "misdp.rounding", ..MISDP_EIGCUT };
const MISDP_RELAX: Names = Names { run: "sdp.relax", ..MISDP_EIGCUT };

/// A plugin inside a span-recording shell; implements whichever plugin
/// traits the wrapped plugin implements.
pub struct Traced<P> {
    inner: P,
    tracer: SharedTracer,
    names: Names,
}

impl<P> Traced<P> {
    fn boxed(inner: P, tracer: &SharedTracer, names: Names) -> Box<Self> {
        Box::new(Traced { inner, tracer: tracer.clone(), names })
    }
}

impl<P: ConstraintHandler> ConstraintHandler for Traced<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn check(&mut self, model: &Model, x: &[f64]) -> bool {
        span(&self.tracer, self.names.check, || self.inner.check(model, x))
    }
    fn enforce(&mut self, ctx: &mut SolveCtx) -> EnforceResult {
        span(&self.tracer, self.names.enforce, || self.inner.enforce(ctx))
    }
    fn separate(&mut self, ctx: &mut SolveCtx) -> SepaResult {
        span(&self.tracer, self.names.separate, || self.inner.separate(ctx))
    }
    fn propagate(&mut self, ctx: &mut SolveCtx) -> PropResult {
        span(&self.tracer, self.names.propagate, || self.inner.propagate(ctx))
    }
    fn init_lp(&mut self, model: &Model, cuts: &mut CutBuffer) {
        span(&self.tracer, self.names.init_lp, || self.inner.init_lp(model, cuts))
    }
}

impl<P: Heuristic> Heuristic for Traced<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn run(&mut self, ctx: &mut SolveCtx) -> Option<Vec<f64>> {
        span(&self.tracer, self.names.run, || self.inner.run(ctx))
    }
}

impl<P: PrimalHeuristic> PrimalHeuristic for Traced<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn default_schedule(&self) -> HeurSchedule {
        self.inner.default_schedule()
    }
    fn run(&mut self, ctx: &mut SolveCtx) -> Option<Vec<f64>> {
        span(&self.tracer, self.names.run, || self.inner.run(ctx))
    }
}

impl<P: BranchRule> BranchRule for Traced<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn branch(&mut self, ctx: &mut SolveCtx) -> Option<BranchDecision> {
        span(&self.tracer, self.names.run, || self.inner.branch(ctx))
    }
}

impl<P: Relaxator> Relaxator for Traced<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn solve_relaxation(&mut self, ctx: &mut SolveCtx) -> RelaxResult {
        span(&self.tracer, self.names.run, || self.inner.solve_relaxation(ctx))
    }
}

/// What a traced STP solve learned beyond [`Solved`].
#[derive(Clone, Debug, Default)]
pub struct StpExtras {
    /// Cost of the initial TM + local-search tree on the original
    /// instance (None when reductions solved it).
    pub tm_cost: Option<f64>,
}

/// `SteinerSolver::solve`, re-enacted with spans (mirrors
/// `ugrs_steiner::solver::SteinerSolver::solve_hooked`).
pub fn solve_stp(original: &Graph, tracer: &SharedTracer) -> (Solved, StpExtras) {
    let t0 = Instant::now();
    let mut g = original.clone();
    let stats = span(tracer, "steiner.reduce", || reduce(&mut g, &ReduceParams::default()));
    let reduce_elims = stats.total_eliminations() as u64;
    if g.num_terminals() < 2 {
        let tree = SteinerTree::new(original, g.fixed_edges.clone());
        let valid = tree.is_valid(original);
        let solved = Solved {
            secs: t0.elapsed().as_secs_f64(),
            proven: valid,
            obj: valid.then_some(tree.cost),
            reduce_elims,
            ..Default::default()
        };
        return (solved, StpExtras::default());
    }
    let (model, data) = span(tracer, "steiner.build_model", || build_model(&g));
    let settings = Settings { time_limit: ITEM_LIMIT_S, ..Default::default() };
    let mut solver = CipSolver::new(model, settings);
    solver.add_conshdlr(Traced::boxed(
        DirectedCutHandler::new(data.clone(), true),
        tracer,
        STEINER_CUTS,
    ));
    solver.add_heuristic(Traced::boxed(TmHeuristic { data: data.clone() }, tracer, STEINER_TM));
    solver.add_primal_heuristic(Traced::boxed(
        KeyVertexHeuristic { data: data.clone(), hits: None },
        tracer,
        STEINER_KEYVERTEX,
    ));
    solver.add_branchrule(Traced::boxed(
        VertexBranching { data: data.clone() },
        tracer,
        STEINER_BRANCH,
    ));

    let tm_cost = span(tracer, "steiner.tm_heur", || {
        let start = tm_best(&g, 4, &real_weights(&g))?;
        let polished = local_search(&g, &start, 3);
        let cost = polished.cost + g.fixed_cost;
        if let Some(x) = data.tree_to_assignment(solver.model(), &polished) {
            solver.inject_solution(x);
        }
        Some(cost)
    });

    let res = span(tracer, "cip.solve", || solver.solve(&mut NoHooks));

    let obj = span(tracer, "steiner.map_back", || {
        let x = res.best_x.as_ref()?;
        let mut orig: Vec<u32> = g.fixed_edges.clone();
        for e in data.assignment_to_edges(x) {
            orig.extend(g.expand_edge(e));
        }
        let tree = SteinerTree::new(original, orig).pruned(original);
        tree.is_valid(original).then_some(tree.cost)
    });
    let solved = Solved {
        secs: t0.elapsed().as_secs_f64(),
        proven: res.status == SolveStatus::Optimal,
        obj,
        cip: Some(res.stats),
        reduce_elims,
        ug: None,
    };
    (solved, StpExtras { tm_cost })
}

/// `MisdpSolver::solve`, re-enacted with spans (mirrors
/// `ugrs_misdp::solver::MisdpSolver::solve_hooked`).
pub fn solve_misdp(
    problem: &Arc<MisdpProblem>,
    approach: Approach,
    tracer: &SharedTracer,
) -> Solved {
    let t0 = Instant::now();
    let mut settings = Settings { time_limit: ITEM_LIMIT_S, ..Default::default() };
    settings.use_relaxator = approach == Approach::Sdp;
    let model = span(tracer, "misdp.build_model", || build_cip_model(problem));
    let mut solver = CipSolver::new(model, settings);
    solver.add_conshdlr(Traced::boxed(EigenCutHandler::new(problem.clone()), tracer, MISDP_EIGCUT));
    solver.add_heuristic(Traced::boxed(
        RandomizedRounding::new(problem.clone()),
        tracer,
        MISDP_ROUNDING,
    ));
    if approach == Approach::Sdp {
        solver.set_relaxator(Traced::boxed(
            SdpRelaxator::new(problem.clone()),
            tracer,
            MISDP_RELAX,
        ));
    }
    let res = span(tracer, "cip.solve", || solver.solve(&mut NoHooks));
    Solved {
        secs: t0.elapsed().as_secs_f64(),
        proven: res.status == SolveStatus::Optimal,
        obj: res.best_obj,
        cip: Some(res.stats),
        reduce_elims: 0,
        ug: None,
    }
}

/// Opens the per-item root span; the traced solves above nest under it.
pub fn item_span<T>(tracer: &SharedTracer, item: u32, f: impl FnOnce() -> T) -> T {
    lock(tracer).set_item(item);
    span(tracer, "bench.item", f)
}
