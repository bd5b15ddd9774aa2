//! The SDP relaxator: SCIP-SDP's nonlinear branch-and-bound mode (§3.2).
//! Each node solves a continuous SDP through the interior-point solver,
//! retrying with the penalty formulation when the plain solve runs into
//! Slater-condition trouble.

use crate::model::MisdpProblem;
use std::sync::Arc;
use ugrs_cip::{RelaxOutcome, RelaxResult, Relaxator, SolveCtx};
use ugrs_sdp::{solve, solve_penalty, SdpOptions, SdpStatus};

/// The relaxator plugin.
pub struct SdpRelaxator {
    pub problem: Arc<MisdpProblem>,
    pub options: SdpOptions,
}

impl SdpRelaxator {
    pub fn new(problem: Arc<MisdpProblem>) -> Self {
        SdpRelaxator { problem, options: SdpOptions::default() }
    }
}

impl Relaxator for SdpRelaxator {
    fn name(&self) -> &str {
        "misdp-sdp-relax"
    }

    fn solve_relaxation(&mut self, ctx: &mut SolveCtx) -> RelaxResult {
        let sdp = self.problem.sdp_relaxation(ctx.local_lb, ctx.local_ub);
        let mut res = solve(&sdp, &self.options);
        let mut iterations = res.iterations;
        let mut fallbacks = res.fallbacks;
        if res.status == SdpStatus::Numerical {
            // The penalty formulation (§3.2) repairs ill-posed relaxations
            // created by branching.
            res = solve_penalty(&sdp, &self.options);
            iterations += res.iterations;
            fallbacks += 1;
        }
        let outcome = match res.status {
            SdpStatus::Infeasible => RelaxOutcome::Infeasible,
            SdpStatus::Optimal => {
                // cip minimizes internally; the model stores obj = −b, so
                // the internal bound is −(bᵀy).
                RelaxOutcome::Bounded { bound: -res.obj, x: res.y }
            }
            SdpStatus::Unbounded | SdpStatus::Numerical => RelaxOutcome::Error,
        };
        RelaxResult { outcome, iterations: iterations as u64, fallbacks: fallbacks as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugrs_cip::{CutBuffer, Model};
    use ugrs_linalg::Matrix;
    use ugrs_sdp::SdpBlock;

    fn run_relax(p: Arc<MisdpProblem>, lb: Vec<f64>, ub: Vec<f64>) -> RelaxOutcome {
        let mut r = SdpRelaxator::new(p);
        let model = Model::new("t");
        let mut cuts = CutBuffer::default();
        let mut tight = Vec::new();
        let mut ctx = SolveCtx {
            model: &model,
            depth: 0,
            local_lb: &lb,
            local_ub: &ub,
            relax_x: None,
            relax_obj: None,
            incumbent_obj: None,
            incumbent_x: None,
            reduced_costs: &[],
            cuts: &mut cuts,
            tightenings: &mut tight,
            seed: 0,
        };
        r.solve_relaxation(&mut ctx).outcome
    }

    fn toy() -> Arc<MisdpProblem> {
        // max y, 1 − y ≥ 0 block, y ∈ [0, 5] integer.
        let mut p = MisdpProblem::new("t", 1);
        p.b = vec![1.0];
        p.lb = vec![0.0];
        p.ub = vec![5.0];
        p.integer = vec![true];
        let mut blk = SdpBlock::new(1, 1);
        blk.c = Matrix::from_rows(1, 1, vec![1.0]).unwrap();
        blk.set_a(0, Matrix::from_rows(1, 1, vec![1.0]).unwrap());
        p.blocks.push(blk);
        Arc::new(p)
    }

    #[test]
    fn bound_is_internal_sense() {
        match run_relax(toy(), vec![0.0], vec![5.0]) {
            RelaxOutcome::Bounded { bound, x } => {
                // max y = 1 → internal bound −1.
                assert!((bound + 1.0).abs() < 1e-3, "bound = {bound}");
                assert!((x[0] - 1.0).abs() < 1e-3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn branching_bounds_propagate() {
        // Tighten y ≤ 0.4: SDP optimum moves to 0.4.
        match run_relax(toy(), vec![0.0], vec![0.4]) {
            RelaxOutcome::Bounded { bound, .. } => {
                assert!((bound + 0.4).abs() < 1e-3, "bound = {bound}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_bounds_detected() {
        // Force y ≥ 2 while the block caps y ≤ 1.
        match run_relax(toy(), vec![2.0], vec![5.0]) {
            RelaxOutcome::Infeasible => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
