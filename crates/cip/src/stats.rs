//! Solve statistics, including the quantities the paper's tables report
//! (root time, node counts, open nodes, bound trajectories).

use std::time::Instant;

/// Statistics collected during one `Solver::solve` call.
#[derive(Clone, Debug)]
pub struct Statistics {
    /// Nodes processed.
    pub nodes: u64,
    /// LP solves.
    pub lp_solves: u64,
    /// Total simplex iterations (dual pivots and primal polish).
    pub lp_iterations: u64,
    /// Basis refactorizations inside the LP solves.
    pub lp_refactors: u64,
    /// LP solves that ended in numerical trouble, cold retries included;
    /// each one that persists costs a node its proof.
    pub lp_numerical: u64,
    /// Wall-clock seconds inside the simplex (solve and solution
    /// extraction).
    pub lp_time: f64,
    /// Relaxator solves.
    pub relax_solves: u64,
    /// Iterations the relaxator's solves took (the SDP's Newton steps).
    pub relax_iterations: u64,
    /// Relaxator re-solves with a fallback formulation (the SDP's
    /// penalty solves).
    pub relax_fallbacks: u64,
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
            lp_solves: 0,
            lp_iterations: 0,
            lp_refactors: 0,
            lp_numerical: 0,
            lp_time: 0.0,
            relax_solves: 0,
            relax_iterations: 0,
            relax_fallbacks: 0,
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
