//! Branching variable selection: most-fractional and pseudocost rules,
//! with the racing permutation applied as a tie-breaker.

use crate::fractionality;
use crate::model::{Model, VarId, VarType};
use crate::settings::BranchingRule;

/// Pseudocost bookkeeping (SCIP-style): average objective gain per unit
/// of fractionality, separately for up and down branchings.
#[derive(Clone, Debug, Default)]
pub struct Pseudocosts {
    up_sum: Vec<f64>,
    up_cnt: Vec<u32>,
    down_sum: Vec<f64>,
    down_cnt: Vec<u32>,
}

impl Pseudocosts {
    pub fn new(nvars: usize) -> Self {
        Pseudocosts {
            up_sum: vec![0.0; nvars],
            up_cnt: vec![0; nvars],
            down_sum: vec![0.0; nvars],
            down_cnt: vec![0; nvars],
        }
    }

    /// Records the dual-bound gain observed after branching `var`
    /// up/down with the given fractional part.
    pub fn update(&mut self, var: VarId, frac: f64, gain: f64, up: bool) {
        let j = var.0 as usize;
        let unit = if up { 1.0 - frac } else { frac };
        if unit < 1e-6 {
            return;
        }
        let per_unit = (gain / unit).max(0.0);
        if up {
            self.up_sum[j] += per_unit;
            self.up_cnt[j] += 1;
        } else {
            self.down_sum[j] += per_unit;
            self.down_cnt[j] += 1;
        }
    }

    fn cost(&self, j: usize, up: bool) -> Option<f64> {
        let (s, c) = if up {
            (self.up_sum[j], self.up_cnt[j])
        } else {
            (self.down_sum[j], self.down_cnt[j])
        };
        if c == 0 {
            None
        } else {
            Some(s / c as f64)
        }
    }

    /// SCIP's product score with the usual epsilon floor; `None` when the
    /// variable has no history yet.
    pub fn score(&self, var: VarId, frac: f64) -> Option<f64> {
        let j = var.0 as usize;
        let up = self.cost(j, true)?;
        let down = self.cost(j, false)?;
        let eps = 1e-6;
        Some((up * (1.0 - frac)).max(eps) * (down * frac).max(eps))
    }
}

/// A deterministic permutation score derived from a seed — this is the
/// "permutations of variables" diversification the paper attributes to
/// racing ramp-up (§2.2, citing the MIPLIB 2010 performance-variability
/// observation).
#[inline]
pub fn perm_score(seed: u64, var: VarId) -> u64 {
    let mut z = seed ^ (var.0 as u64).wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Selects a branching variable among the integer variables fractional
/// in `x`, honouring the configured rule. Returns `None` when `x` is
/// integral on all integer variables.
pub fn select_branching_var(
    model: &Model,
    x: &[f64],
    rule: BranchingRule,
    pcost: &Pseudocosts,
    seed: u64,
) -> Option<(VarId, f64)> {
    let mut best: Option<(VarId, f64, f64, u64)> = None; // (var, val, score, perm)
    for (v, var) in model.vars() {
        if var.vtype == VarType::Continuous {
            continue;
        }
        let val = x[v.0 as usize];
        let frac = fractionality(val);
        if frac <= crate::INT_TOL {
            continue;
        }
        let p = perm_score(seed, v);
        let score = match rule {
            BranchingRule::MostFractional => 0.5 - (frac - 0.5).abs(),
            BranchingRule::Pseudocost => {
                let f = val - val.floor();
                pcost.score(v, f).unwrap_or_else(|| 10.0 * (0.5 - (frac - 0.5).abs()))
            }
        };
        let better = match best {
            None => true,
            Some((_, _, bs, bp)) => score > bs + 1e-12 || (score > bs - 1e-12 && p > bp),
        };
        if better {
            best = Some((v, val, score, p));
        }
    }
    best.map(|(v, val, _, _)| (v, val))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn model3() -> Model {
        let mut m = Model::new("t");
        m.add_var("a", VarType::Integer, 0.0, 10.0, 0.0);
        m.add_var("b", VarType::Integer, 0.0, 10.0, 0.0);
        m.add_var("c", VarType::Continuous, 0.0, 10.0, 0.0);
        m
    }

    #[test]
    fn most_fractional_picks_half() {
        let m = model3();
        let pc = Pseudocosts::new(3);
        let x = vec![1.1, 2.5, 3.7];
        let (v, val) = select_branching_var(&m, &x, BranchingRule::MostFractional, &pc, 0).unwrap();
        assert_eq!(v, VarId(1));
        assert_eq!(val, 2.5);
    }

    #[test]
    fn continuous_vars_never_selected() {
        let m = model3();
        let pc = Pseudocosts::new(3);
        let x = vec![1.0, 2.0, 3.7];
        assert!(select_branching_var(&m, &x, BranchingRule::MostFractional, &pc, 0).is_none());
    }

    #[test]
    fn pseudocost_prefers_high_gain_history() {
        let m = model3();
        let mut pc = Pseudocosts::new(3);
        // Variable 0 historically moves the bound a lot.
        for _ in 0..3 {
            pc.update(VarId(0), 0.5, 10.0, true);
            pc.update(VarId(0), 0.5, 10.0, false);
            pc.update(VarId(1), 0.5, 0.01, true);
            pc.update(VarId(1), 0.5, 0.01, false);
        }
        let x = vec![1.4, 2.5, 0.0]; // var 1 is more fractional...
        let (v, _) = select_branching_var(&m, &x, BranchingRule::Pseudocost, &pc, 0).unwrap();
        assert_eq!(v, VarId(0)); // ...but pseudocosts win
    }

    #[test]
    fn permutation_seed_changes_ties() {
        let m = model3();
        let pc = Pseudocosts::new(3);
        let x = vec![1.5, 2.5, 0.0]; // exact tie on fractionality
        let picks: Vec<_> = (0..8)
            .map(|s| select_branching_var(&m, &x, BranchingRule::MostFractional, &pc, s).unwrap().0)
            .collect();
        // Different seeds must not all agree (diversification works).
        assert!(picks.iter().any(|&p| p != picks[0]));
    }

    #[test]
    fn pseudocost_update_ignores_integral_branch_points() {
        let mut pc = Pseudocosts::new(1);
        pc.update(VarId(0), 0.0, 5.0, false); // frac 0 → no unit, ignored
        assert!(pc.score(VarId(0), 0.5).is_none());
    }
}
