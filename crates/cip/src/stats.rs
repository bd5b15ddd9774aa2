//! Solve statistics, including the quantities the paper's tables report
//! (root time, node counts, open nodes, bound trajectories).

use std::time::Instant;
use ugrs_lp::LpCounters;

/// How the node loop closed one node. The first five outcomes are
/// proven; the other five close a node that nobody proved empty or
/// bounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeOutcome {
    /// An empty domain: crossed bounds, propagation, an infeasible
    /// relaxation or LP (or an LP unbounded below the root), or a
    /// handler's `Cutoff`.
    Infeasible,
    /// The relaxation bound reached the cutoff.
    PrunedByBound,
    /// Integral and accepted by every handler; offered as an incumbent.
    Feasible,
    /// Split into two children.
    Branched,
    /// The root LP was unbounded; the solve ends.
    Unbounded,
    /// Enforcement's cuts were all pool duplicates.
    DuplicateCuts,
    /// A handler rejected the relaxator's integral point, and no LP
    /// takes its cuts.
    RelaxPointRejected,
    /// Enforcement hit its round cap or the time limit.
    EnforceLimit,
    /// No fractional variable and no rule's choice: the relaxation gave
    /// no point and every integer variable is fixed.
    NoBranchingDecision,
    /// Integral and accepted, but the rounded copy fails the model.
    RoundedPointRejected,
}

impl NodeOutcome {
    /// Every outcome, in `outcome as usize` order.
    pub const ALL: [NodeOutcome; 10] = {
        use NodeOutcome::*;
        [
            Infeasible,
            PrunedByBound,
            Feasible,
            Branched,
            Unbounded,
            DuplicateCuts,
            RelaxPointRejected,
            EnforceLimit,
            NoBranchingDecision,
            RoundedPointRejected,
        ]
    };

    /// True when the outcome rests on a proof.
    pub fn is_proven(self) -> bool {
        use NodeOutcome::*;
        matches!(self, Infeasible | PrunedByBound | Feasible | Branched | Unbounded)
    }
}

/// Statistics collected during one `Solver::solve` call.
#[derive(Clone, Debug)]
pub struct Statistics {
    /// Nodes processed.
    pub nodes: u64,
    /// Nodes per [`NodeOutcome`], indexed by `outcome as usize`; they sum
    /// to `nodes`.
    pub node_outcomes: [u64; NodeOutcome::ALL.len()],
    /// LP solves.
    pub lp_solves: u64,
    /// Total simplex iterations (dual pivots and primal polish).
    pub lp_iterations: u64,
    /// Basis refactorizations inside the LP solves.
    pub lp_refactors: u64,
    /// Dual simplex pivots; with `lp_primal_pivots` they make up
    /// `lp_iterations`.
    pub lp_dual_pivots: u64,
    /// Primal simplex pivots: the polish after the dual simplex and the
    /// cold retries.
    pub lp_primal_pivots: u64,
    /// Dual pivots whose ratio test saw a ratio of 0.
    pub lp_dual_degenerate: u64,
    /// Dual pivots chosen by Bland's rule after a run of zero dual steps.
    pub lp_bland_pivots: u64,
    /// LP solves that ended in numerical trouble, cold retries included;
    /// each one that persists costs a node its proof.
    pub lp_numerical: u64,
    /// LP solves retried cold (from the slack basis, by the primal
    /// simplex) after the warm solve stopped at the iteration limit or in
    /// numerical trouble.
    pub lp_cold_retries: u64,
    /// Wall-clock seconds inside the simplex (solve and solution
    /// extraction).
    pub lp_time: f64,
    /// Relaxator solves.
    pub relax_solves: u64,
    /// Iterations the relaxator's solves took (the SDP's primal–dual
    /// iterations).
    pub relax_iterations: u64,
    /// Cuts installed into the LP.
    pub cuts_applied: u64,
    /// Cuts rejected as pool duplicates.
    pub cuts_duplicate: u64,
    /// Bound tightenings applied by propagation.
    pub propagations: u64,
    /// Variables fixed by reduced-cost fixing.
    pub redcost_fixings: u64,
    /// Feasible solutions found (improving ones only).
    pub improving_solutions: u64,
    /// Wall-clock seconds spent in the root node (LP + separation +
    /// heuristics before the first branching) — Table 1's "root time".
    pub root_time: f64,
    /// Total wall-clock seconds of the solve.
    pub total_time: f64,
    /// Final dual (lower) bound, internal sense.
    pub dual_bound: f64,
    /// Final primal bound (internal sense), +inf when no solution.
    pub primal_bound: f64,
    /// Open nodes remaining when the solve stopped.
    pub open_nodes: u64,
    /// (nodes, dual bound) improvements over time, internal sense.
    pub dual_bound_history: Vec<(u64, f64)>,
    #[doc(hidden)]
    pub started: Option<Instant>,
}

impl Default for Statistics {
    fn default() -> Self {
        Statistics {
            nodes: 0,
            node_outcomes: [0; NodeOutcome::ALL.len()],
            lp_solves: 0,
            lp_iterations: 0,
            lp_refactors: 0,
            lp_dual_pivots: 0,
            lp_primal_pivots: 0,
            lp_dual_degenerate: 0,
            lp_bland_pivots: 0,
            lp_numerical: 0,
            lp_cold_retries: 0,
            lp_time: 0.0,
            relax_solves: 0,
            relax_iterations: 0,
            cuts_applied: 0,
            cuts_duplicate: 0,
            propagations: 0,
            redcost_fixings: 0,
            improving_solutions: 0,
            root_time: 0.0,
            total_time: 0.0,
            dual_bound: f64::NEG_INFINITY,
            primal_bound: f64::INFINITY,
            open_nodes: 0,
            dual_bound_history: Vec::new(),
            started: None,
        }
    }
}

impl Statistics {
    pub(crate) fn start(&mut self) {
        self.started = Some(Instant::now());
    }

    pub(crate) fn elapsed(&self) -> f64 {
        self.started.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }

    /// Relative primal–dual gap in percent, as the paper's Table 2
    /// reports it: `|primal − dual| / |primal| · 100` (0 when closed,
    /// +inf when either bound is missing).
    pub fn gap_percent(&self) -> f64 {
        if self.primal_bound.is_infinite() || self.dual_bound.is_infinite() {
            return f64::INFINITY;
        }
        let denom = self.primal_bound.abs().max(1e-9);
        ((self.primal_bound - self.dual_bound).max(0.0) / denom) * 100.0
    }

    /// Nodes closed with `outcome`.
    pub fn outcome_count(&self, outcome: NodeOutcome) -> u64 {
        self.node_outcomes[outcome as usize]
    }

    /// Adds the simplex work between two readings of one simplex's
    /// counters.
    pub(crate) fn add_lp_work(&mut self, before: &LpCounters, after: &LpCounters) {
        self.lp_refactors += after.refactors - before.refactors;
        self.lp_dual_pivots += after.dual_pivots - before.dual_pivots;
        self.lp_primal_pivots += after.primal_pivots - before.primal_pivots;
        self.lp_dual_degenerate += after.dual_degenerate - before.dual_degenerate;
        self.lp_bland_pivots += after.bland_pivots - before.bland_pivots;
    }

    pub(crate) fn record_dual_bound(&mut self, bound: f64) {
        if bound > self.dual_bound {
            self.dual_bound = bound;
            self.dual_bound_history.push((self.nodes, bound));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_computation() {
        let mut s = Statistics::default();
        assert!(s.gap_percent().is_infinite());
        s.primal_bound = 233.0;
        s.dual_bound = 230.9018;
        let g = s.gap_percent();
        assert!((g - 0.9005).abs() < 0.01, "gap = {g}"); // matches Table 2's 0.91 scale
        s.dual_bound = 233.0;
        assert_eq!(s.gap_percent(), 0.0);
    }

    #[test]
    fn dual_bound_history_monotone() {
        let mut s = Statistics::default();
        s.record_dual_bound(1.0);
        s.record_dual_bound(0.5); // ignored
        s.record_dual_bound(2.0);
        assert_eq!(s.dual_bound, 2.0);
        assert_eq!(s.dual_bound_history.len(), 2);
    }
}
