//! The SCIP-SDP-style solver facade: build the CIP model, register the
//! approach-specific plugins, solve, report in maximization sense.

use crate::eigcut::EigenCutHandler;
use crate::heur::RandomizedRounding;
use crate::model::MisdpProblem;
use crate::relax::SdpRelaxator;
use crate::settings::Approach;
use std::sync::Arc;
use ugrs_cip::{ControlHooks, Model, NoHooks, Settings, SolveStatus, Solver as CipSolver, VarType};

/// Result of a MISDP solve (maximization sense).
#[derive(Clone, Debug)]
pub struct MisdpResult {
    pub status: SolveStatus,
    pub best_obj: Option<f64>,
    pub y: Option<Vec<f64>>,
    /// Upper bound on the supremum.
    pub dual_bound: f64,
    pub stats: ugrs_cip::Statistics,
}

/// Builds the CIP model (variables, bounds, integrality, linear rows) —
/// the SDP blocks enter through plugins.
pub fn build_cip_model(p: &MisdpProblem) -> Model {
    let mut model = Model::new(&p.name);
    model.set_maximize();
    let vars: Vec<ugrs_cip::VarId> = (0..p.m)
        .map(|i| {
            let vtype = if p.integer[i] { VarType::Integer } else { VarType::Continuous };
            model.add_var("y", vtype, p.lb[i], p.ub[i], p.b[i])
        })
        .collect();
    for row in &p.lin {
        let terms: Vec<(ugrs_cip::VarId, f64)> =
            row.terms.iter().map(|&(i, c)| (vars[i], c)).collect();
        model.add_linear(row.lhs.max(-1e18), row.rhs.min(1e18), &terms);
    }
    model
}

/// Registers the approach-specific plugin set on a CIP solver.
pub fn register_plugins(solver: &mut CipSolver, p: Arc<MisdpProblem>, approach: Approach) {
    // The eigenvector handler doubles as the exact feasibility checker in
    // both modes; in SDP mode its cuts are never needed because relaxation
    // solutions are PSD by construction.
    solver.add_conshdlr(Box::new(EigenCutHandler::new(p.clone())));
    solver.add_heuristic(Box::new(RandomizedRounding::new(p.clone())));
    if approach == Approach::Sdp {
        solver.set_relaxator(Box::new(SdpRelaxator::new(p)));
    }
}

/// The high-level solver.
pub struct MisdpSolver {
    pub problem: Arc<MisdpProblem>,
    pub approach: Approach,
    pub settings: Settings,
}

impl MisdpSolver {
    pub fn new(problem: MisdpProblem, approach: Approach, mut settings: Settings) -> Self {
        settings.use_relaxator = approach == Approach::Sdp;
        MisdpSolver { problem: Arc::new(problem), approach, settings }
    }

    pub fn solve(&self) -> MisdpResult {
        self.solve_hooked(&mut NoHooks)
    }

    pub fn solve_hooked(&self, hooks: &mut dyn ControlHooks) -> MisdpResult {
        let model = build_cip_model(&self.problem);
        let mut solver = CipSolver::new(model, self.settings.clone());
        register_plugins(&mut solver, self.problem.clone(), self.approach);
        let res = solver.solve(hooks);
        MisdpResult {
            status: res.status,
            best_obj: res.best_obj,
            y: res.best_x,
            dual_bound: res.dual_bound,
            stats: res.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{cardinality_ls, min_k_partitioning, truss_topology};
    use crate::settings::{decode_settings, racing_settings};
    use ugrs_linalg::Matrix;
    use ugrs_sdp::SdpBlock;

    fn toy() -> MisdpProblem {
        // max 2·y0 + y1: y0 ∈ {0,1}, y1 ∈ [0,1] cont.;
        // block [[1.2 − y0, 0.4·y1], [0.4·y1, 1 − y1]] ⪰ 0.
        let mut p = MisdpProblem::new("toy", 2);
        p.b = vec![2.0, 1.0];
        p.lb = vec![0.0, 0.0];
        p.ub = vec![1.0, 1.0];
        p.integer = vec![true, false];
        let mut blk = SdpBlock::new(2, 2);
        blk.c = Matrix::from_rows(2, 2, vec![1.2, 0.0, 0.0, 1.0]).unwrap();
        let mut a0 = Matrix::zeros(2, 2);
        a0[(0, 0)] = 1.0;
        blk.set_a(0, a0);
        let mut a1 = Matrix::zeros(2, 2);
        a1[(0, 1)] = -0.4;
        a1[(1, 0)] = -0.4;
        a1[(1, 1)] = 1.0;
        blk.set_a(1, a1);
        p.blocks.push(blk);
        p
    }

    fn solve_both(p: MisdpProblem) -> (MisdpResult, MisdpResult) {
        let lp = MisdpSolver::new(p.clone(), Approach::Lp, Settings::default()).solve();
        let sdp = MisdpSolver::new(p, Approach::Sdp, Settings::default()).solve();
        for st in [&lp.stats, &sdp.stats] {
            assert_eq!(st.node_outcomes.iter().sum::<u64>(), st.nodes, "{st:?}");
        }
        (lp, sdp)
    }

    #[test]
    fn both_approaches_agree_on_toy() {
        let (lp, sdp) = solve_both(toy());
        assert_eq!(lp.status, SolveStatus::Optimal, "lp failed");
        assert_eq!(sdp.status, SolveStatus::Optimal, "sdp failed");
        let (a, b) = (lp.best_obj.unwrap(), sdp.best_obj.unwrap());
        assert!((a - b).abs() < 1e-3, "lp {a} vs sdp {b}");
        // Both must return genuinely feasible points.
        let p = toy();
        assert!(p.is_feasible(lp.y.as_ref().unwrap(), 1e-4));
        assert!(p.is_feasible(sdp.y.as_ref().unwrap(), 1e-4));
    }

    #[test]
    fn both_approaches_agree_on_ttd() {
        let (lp, sdp) = solve_both(truss_topology(3, 6, 2));
        assert_eq!(lp.status, SolveStatus::Optimal);
        assert_eq!(sdp.status, SolveStatus::Optimal);
        assert!(
            (lp.best_obj.unwrap() - sdp.best_obj.unwrap()).abs() < 1e-3,
            "lp {:?} vs sdp {:?}",
            lp.best_obj,
            sdp.best_obj
        );
    }

    #[test]
    fn both_approaches_agree_on_cls() {
        let (lp, sdp) = solve_both(cardinality_ls(5, 2, 4));
        assert_eq!(lp.status, SolveStatus::Optimal);
        assert_eq!(sdp.status, SolveStatus::Optimal);
        assert!((lp.best_obj.unwrap() - sdp.best_obj.unwrap()).abs() < 1e-3);
    }

    #[test]
    fn both_approaches_agree_on_mkp() {
        let (lp, sdp) = solve_both(min_k_partitioning(4, 2, 6));
        assert_eq!(lp.status, SolveStatus::Optimal);
        assert_eq!(sdp.status, SolveStatus::Optimal);
        assert!((lp.best_obj.unwrap() - sdp.best_obj.unwrap()).abs() < 1e-3);
    }

    #[test]
    fn relaxation_work_reaches_the_statistics() {
        // Branches past the root, so up-branches fix y_ij = 1 and leave
        // relaxations whose 2×2 minor is singular: no y is strictly
        // feasible there, and the primal–dual method solves them anyway.
        let (lp, sdp) = solve_both(min_k_partitioning(6, 2, 1001));
        let st = &sdp.stats;
        assert!(st.nodes > 1, "{st:?}");
        assert_eq!(st.relax_solves, st.nodes, "{st:?}");
        assert!(st.relax_iterations > 0, "{st:?}");
        assert!(st.relax_iterations <= 30 * st.relax_solves, "{st:?}");
        assert_eq!((lp.stats.relax_solves, lp.stats.relax_iterations), (0, 0));
    }

    #[test]
    fn racing_settings_drive_solver_modes() {
        let p = toy();
        for s in racing_settings(4) {
            let (approach, cip) = decode_settings(&s);
            let res = MisdpSolver::new(p.clone(), approach, cip).solve();
            assert_eq!(res.status, SolveStatus::Optimal, "settings {}", s.name);
        }
    }
}
