//! LP problem builder: variables, bounds, objective, ranged rows.

use crate::{clamp_bound, INF};

/// Index of a structural variable in an [`LpProblem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Index of a row (linear constraint) in an [`LpProblem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

/// A linear program `min cᵀx s.t. lhs ≤ Ax ≤ rhs, ℓ ≤ x ≤ u` under
/// construction. Rows are *ranged* (two-sided); use `-inf`/`+inf` for
/// one-sided constraints and `lhs == rhs` for equalities.
#[derive(Clone, Debug, Default)]
pub struct LpProblem {
    pub(crate) obj: Vec<f64>,
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    /// Column-wise coefficients: per variable, (row, value) pairs.
    pub(crate) cols: Vec<Vec<(u32, f64)>>,
    /// Row-wise coefficients, kept in sync with `cols`.
    pub(crate) rows: Vec<Vec<(u32, f64)>>,
    pub(crate) row_lhs: Vec<f64>,
    pub(crate) row_rhs: Vec<f64>,
    /// Constant term added to every objective value.
    pub obj_offset: f64,
}

impl LpProblem {
    /// Empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lb, ub]` and objective coefficient
    /// `obj` (minimization). Returns its id.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        let (lb, ub) = (clamp_bound(lb), clamp_bound(ub));
        assert!(lb <= ub, "variable bounds crossed: [{lb}, {ub}]");
        let id = VarId(self.obj.len() as u32);
        self.obj.push(obj);
        self.lb.push(lb);
        self.ub.push(ub);
        self.cols.push(Vec::new());
        id
    }

    /// Adds a ranged row `lhs ≤ Σ coef·x ≤ rhs`. Duplicate variable entries
    /// are merged. Returns the row id.
    pub fn add_row(&mut self, lhs: f64, rhs: f64, terms: &[(VarId, f64)]) -> RowId {
        let (lhs, rhs) = (clamp_bound(lhs), clamp_bound(rhs));
        assert!(lhs <= rhs, "row sides crossed: [{lhs}, {rhs}]");
        let r = self.rows.len() as u32;
        let mut row: Vec<(u32, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!((v.0 as usize) < self.obj.len(), "unknown variable {v:?}");
            if c == 0.0 {
                continue;
            }
            if let Some(e) = row.iter_mut().find(|(j, _)| *j == v.0) {
                e.1 += c;
            } else {
                row.push((v.0, c));
            }
        }
        for &(j, c) in &row {
            self.cols[j as usize].push((r, c));
        }
        self.rows.push(row);
        self.row_lhs.push(lhs);
        self.row_rhs.push(rhs);
        RowId(r)
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Objective coefficient of `v`.
    pub fn obj_coef(&self, v: VarId) -> f64 {
        self.obj[v.0 as usize]
    }

    /// Bounds of `v`.
    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        (self.lb[v.0 as usize], self.ub[v.0 as usize])
    }

    /// Sets the bounds of `v` (must not cross).
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        let (lb, ub) = (clamp_bound(lb), clamp_bound(ub));
        assert!(lb <= ub, "variable bounds crossed: [{lb}, {ub}]");
        self.lb[v.0 as usize] = lb;
        self.ub[v.0 as usize] = ub;
    }

    /// Row sides of `r`.
    pub fn row_sides(&self, r: RowId) -> (f64, f64) {
        (self.row_lhs[r.0 as usize], self.row_rhs[r.0 as usize])
    }

    /// Coefficients of row `r` as `(VarId, value)` pairs.
    pub fn row_coefs(&self, r: RowId) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.rows[r.0 as usize].iter().map(|&(j, c)| (VarId(j), c))
    }

    /// Activity `Σ coef·x` of row `r` at the point `x`.
    pub fn row_activity(&self, r: RowId, x: &[f64]) -> f64 {
        self.rows[r.0 as usize].iter().map(|&(j, c)| c * x[j as usize]).sum()
    }

    /// Objective value `cᵀx + offset` at the point `x`.
    pub fn obj_value(&self, x: &[f64]) -> f64 {
        self.obj_offset + self.obj.iter().zip(x.iter()).map(|(c, v)| c * v).sum::<f64>()
    }

    /// Checks `x` for primal feasibility within `tol` (bounds and rows).
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for (j, &xj) in x.iter().enumerate() {
            if xj < self.lb[j] - tol || xj > self.ub[j] + tol {
                return false;
            }
        }
        for r in 0..self.num_rows() {
            let a = self.row_activity(RowId(r as u32), x);
            if a < self.row_lhs[r] - tol || a > self.row_rhs[r] + tol {
                return false;
            }
        }
        true
    }

    /// True if the bound is the solver's minus infinity.
    pub fn is_neg_inf(b: f64) -> bool {
        b <= -INF
    }

    /// True if the bound is the solver's plus infinity.
    pub fn is_pos_inf(b: f64) -> bool {
        b >= INF
    }

    /// Solves the problem from scratch with default parameters.
    pub fn solve(&self) -> crate::LpSolution {
        let mut s = crate::Simplex::new(self.clone(), crate::SimplexParams::default());
        s.solve_primal();
        s.extract_solution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_shapes() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0, 2.0);
        let y = p.add_var(-1.0, f64::INFINITY, -3.0);
        let r = p.add_row(1.0, 1.0, &[(x, 1.0), (y, 2.0)]);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_rows(), 1);
        assert_eq!(p.obj_coef(y), -3.0);
        assert_eq!(p.bounds(x), (0.0, 1.0));
        assert_eq!(p.row_sides(r), (1.0, 1.0));
        assert!(LpProblem::is_pos_inf(p.bounds(y).1));
    }

    #[test]
    fn duplicate_terms_merge() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0, 0.0);
        let r = p.add_row(0.0, 5.0, &[(x, 1.0), (x, 2.0)]);
        let coefs: Vec<_> = p.row_coefs(r).collect();
        assert_eq!(coefs, vec![(x, 3.0)]);
    }

    #[test]
    fn activity_and_objective() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0, 1.0);
        let y = p.add_var(0.0, 10.0, 2.0);
        p.obj_offset = 5.0;
        let r = p.add_row(0.0, 100.0, &[(x, 2.0), (y, -1.0)]);
        let pt = vec![3.0, 4.0];
        assert_eq!(p.row_activity(r, &pt), 2.0);
        assert_eq!(p.obj_value(&pt), 5.0 + 3.0 + 8.0);
        assert!(p.is_feasible(&pt, 1e-9));
        assert!(!p.is_feasible(&[100.0, 0.0], 1e-9));
    }

    #[test]
    #[should_panic(expected = "bounds crossed")]
    fn crossed_bounds_panic() {
        let mut p = LpProblem::new();
        p.add_var(1.0, 0.0, 0.0);
    }
}
