//! Global presolving: the fixpoint loop the paper's *layered presolving*
//! scheme re-runs inside every ParaSolver on each received subproblem
//! (§2.2), built from the reductions below. Problem-specific reductions
//! happen before the model is built (the Steiner graph reductions).

use crate::model::Model;
use crate::propagation::{propagate_linear, PropOutcome};

/// Summary of a presolve run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Bound tightenings applied (counted per round, not per variable).
    pub rounds_with_reductions: usize,
    /// Constraints removed as redundant.
    pub removed_conss: usize,
    /// Variables fixed (lb == ub after presolve, but not before).
    pub fixed_vars: usize,
    /// Whether global infeasibility was detected.
    pub infeasible: bool,
}

/// Runs the built-in presolve loop in place: activity-based global bound
/// tightening and redundant-constraint removal, to a fixpoint (capped at
/// `max_rounds`).
pub fn presolve(model: &mut Model, max_rounds: usize) -> PresolveStats {
    let mut stats = PresolveStats::default();
    if max_rounds == 0 {
        return stats;
    }
    let fixed_before = count_fixed(model);
    for _ in 0..max_rounds {
        let mut lb: Vec<f64> = model.vars().map(|(_, v)| v.lb).collect();
        let mut ub: Vec<f64> = model.vars().map(|(_, v)| v.ub).collect();
        let out = propagate_linear(model, &mut lb, &mut ub, 3);
        match out {
            PropOutcome::Infeasible => {
                stats.infeasible = true;
                return stats;
            }
            PropOutcome::Tightened => {
                for (i, (l, u)) in lb.iter().zip(ub.iter()).enumerate() {
                    let var = model.var_mut(crate::model::VarId(i as u32));
                    var.lb = *l;
                    var.ub = *u;
                }
                stats.rounds_with_reductions += 1;
            }
            PropOutcome::Unchanged => {}
        }
        // Redundant row removal: rows that can never bind under the
        // current global bounds.
        let before = model.num_conss();
        let lbv: Vec<f64> = model.vars().map(|(_, v)| v.lb).collect();
        let ubv: Vec<f64> = model.vars().map(|(_, v)| v.ub).collect();
        model.conss.retain(|c| {
            let mut min = 0.0;
            let mut max = 0.0;
            for &(v, coef) in &c.terms {
                let (l, u) = (lbv[v.0 as usize], ubv[v.0 as usize]);
                if coef > 0.0 {
                    min += coef * l;
                    max += coef * u;
                } else {
                    min += coef * u;
                    max += coef * l;
                }
            }
            !(min >= c.lhs - 1e-9 && max <= c.rhs + 1e-9)
        });
        let removed = before - model.num_conss();
        stats.removed_conss += removed;
        if out == PropOutcome::Unchanged && removed == 0 {
            break;
        }
    }
    stats.fixed_vars = count_fixed(model).saturating_sub(fixed_before);
    stats
}

fn count_fixed(model: &Model) -> usize {
    model.vars().filter(|(_, v)| v.lb == v.ub).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, VarType};

    #[test]
    fn removes_redundant_rows() {
        let mut m = Model::new("t");
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0, 0.0);
        m.add_linear(f64::NEG_INFINITY, 100.0, &[(x, 1.0)]); // never binds
        m.add_linear(f64::NEG_INFINITY, 0.5, &[(x, 1.0)]); // absorbed into the bound
        let stats = presolve(&mut m, 3);
        // The binding row is folded into ub(x) = 0.5, after which both rows
        // are redundant and removed.
        assert_eq!(stats.removed_conss, 2);
        assert_eq!(m.num_conss(), 0);
        assert_eq!(m.var(x).ub, 0.5);
        assert!(!stats.infeasible);
    }

    #[test]
    fn tightens_and_fixes() {
        let mut m = Model::new("t");
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0, 0.0);
        let y = m.add_var("y", VarType::Integer, 0.0, 10.0, 0.0);
        m.add_linear(0.0, 0.0, &[(x, 1.0), (y, 1.0)]); // x + y = 0 → both 0
        let stats = presolve(&mut m, 5);
        assert!(stats.fixed_vars >= 2);
        assert_eq!(m.var(x).ub, 0.0);
        assert_eq!(m.var(y).ub, 0.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut m = Model::new("t");
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0, 0.0);
        m.add_linear(3.0, f64::INFINITY, &[(x, 1.0)]);
        assert!(presolve(&mut m, 3).infeasible);
    }

    #[test]
    fn zero_rounds_is_noop() {
        let mut m = Model::new("t");
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0, 0.0);
        m.add_linear(f64::NEG_INFINITY, 100.0, &[(x, 1.0)]);
        let stats = presolve(&mut m, 0);
        assert_eq!(stats, PresolveStats::default());
        assert_eq!(m.num_conss(), 1);
    }
}
