//! Plugin traits — the extension points problem-specific solvers hook
//! into, mirroring SCIP's constraint handlers, heuristics, branching
//! rules and relaxators. A constraint handler's optional `separate` and
//! `propagate` callbacks take the place of SCIP's separator and
//! propagator plugins; presolving is the framework's own.

use crate::model::{Model, VarId};

/// A globally valid cutting plane `lhs ≤ Σ terms ≤ rhs`.
///
/// Cuts handed to the framework **must be valid for the whole problem**
/// (not just the current subtree); the framework adds them to the global
/// LP. Node-local reasoning belongs in propagation (bound changes), which
/// is automatically scoped to the subtree.
#[derive(Clone, Debug)]
pub struct Cut {
    pub name: String,
    pub lhs: f64,
    pub rhs: f64,
    pub terms: Vec<(VarId, f64)>,
}

impl Cut {
    pub fn new(name: &str, lhs: f64, rhs: f64, terms: Vec<(VarId, f64)>) -> Self {
        Cut { name: name.to_string(), lhs, rhs, terms }
    }

    /// Violation of the cut at `x` (positive = violated).
    pub fn violation(&self, x: &[f64]) -> f64 {
        let a: f64 = self.terms.iter().map(|&(v, c)| c * x[v.0 as usize]).sum();
        (self.lhs - a).max(a - self.rhs).max(0.0)
    }

    /// A collision-resistant-enough fingerprint for pool deduplication.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        let mut terms = self.terms.clone();
        terms.sort_by_key(|t| t.0);
        for (v, c) in terms {
            mix(v.0 as u64);
            mix((c * 1e6).round() as i64 as u64);
        }
        mix((self.lhs.max(-1e18) * 1e6).round() as i64 as u64);
        mix((self.rhs.min(1e18) * 1e6).round() as i64 as u64);
        h
    }
}

/// Buffer that plugins append cuts to; the solver filters against its cut
/// pool and installs survivors into the LP.
#[derive(Debug, Default)]
pub struct CutBuffer {
    pub cuts: Vec<Cut>,
}

impl CutBuffer {
    pub fn add(&mut self, cut: Cut) {
        self.cuts.push(cut);
    }

    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    pub fn len(&self) -> usize {
        self.cuts.len()
    }
}

/// The view of the solve state handed to plugins.
pub struct SolveCtx<'a> {
    /// The (presolved) model being solved.
    pub model: &'a Model,
    /// Depth of the current node (0 = root).
    pub depth: usize,
    /// Node-local lower bounds per variable.
    pub local_lb: &'a [f64],
    /// Node-local upper bounds per variable.
    pub local_ub: &'a [f64],
    /// Current relaxation solution, if one is available.
    pub relax_x: Option<&'a [f64]>,
    /// Objective value (internal sense) of the relaxation solution.
    pub relax_obj: Option<f64>,
    /// Internal-sense objective of the best incumbent, if any.
    pub incumbent_obj: Option<f64>,
    /// Best incumbent solution values, if any.
    pub incumbent_x: Option<&'a [f64]>,
    /// Reduced costs from the last LP solve (empty when unavailable).
    pub reduced_costs: &'a [f64],
    /// Buffer for cuts produced by the plugin.
    pub cuts: &'a mut CutBuffer,
    /// Bound tightenings requested by the plugin: `(var, new_lb, new_ub)`.
    /// The solver intersects them with the current local bounds.
    pub tightenings: &'a mut Vec<(VarId, f64, f64)>,
    /// Per-solver permutation seed (racing diversification).
    pub seed: u64,
}

impl SolveCtx<'_> {
    /// Convenience: request a new upper bound for `v`.
    pub fn tighten_ub(&mut self, v: VarId, ub: f64) {
        self.tightenings.push((v, f64::NEG_INFINITY, ub));
    }
}

/// Outcome of a separation call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SepaResult {
    /// The handler chose not to separate.
    DidNotRun,
    /// Ran, found nothing violated.
    NoCuts,
    /// Added this many cuts to the buffer.
    AddedCuts(usize),
}

/// Outcome of enforcing constraints on an integral relaxation solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnforceResult {
    /// The candidate satisfies this handler's constraints.
    Feasible,
    /// Violated; cuts separating the candidate were added.
    AddedCuts(usize),
    /// The whole node can be pruned.
    Cutoff,
}

/// Outcome of a propagation call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropResult {
    Nothing,
    /// Bounds were tightened (see `ctx.tightenings`).
    Reduced,
    /// Local infeasibility detected — prune the node.
    Infeasible,
}

/// Outcome of a relaxator solve.
#[derive(Clone, Debug)]
pub enum RelaxOutcome {
    /// Relaxation infeasible — prune.
    Infeasible,
    /// Relaxation solved: dual bound (internal sense) and its solution.
    Bounded { bound: f64, x: Vec<f64> },
    /// The relaxation solver failed; the framework falls back to the LP.
    Error,
}

/// A relaxator solve: its outcome and the work it took, which the solver
/// adds to [`crate::Statistics`]`::relax_iterations`.
#[derive(Clone, Debug)]
pub struct RelaxResult {
    pub outcome: RelaxOutcome,
    /// Iterations of the relaxation solver (the SDP's primal–dual
    /// iterations).
    pub iterations: u64,
}

/// A branching decision: split on `var` at `value` (floor/ceil children).
#[derive(Clone, Copy, Debug)]
pub struct BranchDecision {
    pub var: VarId,
    pub value: f64,
    /// Which child to explore first: `true` = down (ub = floor) first.
    pub down_first: bool,
}

/// Constraint handler: owns a constraint class that is not (fully)
/// represented by linear rows, enforced lazily.
pub trait ConstraintHandler: Send {
    fn name(&self) -> &str;

    /// Exact feasibility check of a candidate solution.
    fn check(&mut self, model: &Model, x: &[f64]) -> bool;

    /// Enforce on an integral relaxation solution. Must add separating
    /// cuts (or return `Cutoff`) when `check` would fail.
    fn enforce(&mut self, ctx: &mut SolveCtx) -> EnforceResult;

    /// Separate a fractional relaxation solution (optional).
    fn separate(&mut self, _ctx: &mut SolveCtx) -> SepaResult {
        SepaResult::DidNotRun
    }

    /// Domain propagation (optional).
    fn propagate(&mut self, _ctx: &mut SolveCtx) -> PropResult {
        PropResult::Nothing
    }

    /// Rows to install in the initial LP (e.g. SCIP-Jack's dual-ascent
    /// selected cuts).
    fn init_lp(&mut self, _model: &Model, _cuts: &mut CutBuffer) {}
}

/// Primal heuristic: returns a candidate assignment (the framework
/// validates it before installing).
pub trait Heuristic: Send {
    fn name(&self) -> &str;
    fn run(&mut self, ctx: &mut SolveCtx) -> Option<Vec<f64>>;
}

/// Branching rule.
pub trait BranchRule: Send {
    fn name(&self) -> &str;
    /// Returns `None` to defer to the framework's default rule.
    fn branch(&mut self, ctx: &mut SolveCtx) -> Option<BranchDecision>;
}

/// Alternative relaxation (SCIP-SDP's SDP relaxation).
pub trait Relaxator: Send {
    fn name(&self) -> &str;
    fn solve_relaxation(&mut self, ctx: &mut SolveCtx) -> RelaxResult;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_violation() {
        let c = Cut::new("t", 1.0, 2.0, vec![(VarId(0), 1.0)]);
        assert_eq!(c.violation(&[1.5]), 0.0);
        assert_eq!(c.violation(&[0.5]), 0.5);
        assert_eq!(c.violation(&[3.0]), 1.0);
    }

    #[test]
    fn fingerprint_is_order_invariant() {
        let a = Cut::new("a", 0.0, 1.0, vec![(VarId(0), 1.0), (VarId(1), 2.0)]);
        let b = Cut::new("b", 0.0, 1.0, vec![(VarId(1), 2.0), (VarId(0), 1.0)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Cut::new("c", 0.0, 2.0, vec![(VarId(1), 2.0), (VarId(0), 1.0)]);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
