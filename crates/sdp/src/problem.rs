//! SDP problem container in the paper's dual form (8).

use ugrs_linalg::Matrix;

/// One PSD block `C − Σᵢ Aᵢ yᵢ ⪰ 0`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct SdpBlock {
    pub dim: usize,
    pub c: Matrix,
    /// Coefficient matrix per variable (`None` = zero matrix).
    pub a: Vec<Option<Matrix>>,
}

impl SdpBlock {
    /// New block of dimension `dim` for `m` variables, with zero data.
    pub fn new(dim: usize, m: usize) -> Self {
        SdpBlock { dim, c: Matrix::zeros(dim, dim), a: vec![None; m] }
    }

    /// Sets the coefficient matrix of variable `i` (must be symmetric).
    pub fn set_a(&mut self, i: usize, mat: Matrix) {
        assert_eq!(mat.rows(), self.dim);
        assert!(mat.asymmetry() < 1e-9, "A_i must be symmetric");
        self.a[i] = Some(mat);
    }

    /// Evaluates `S(y) = C − Σ Aᵢ yᵢ`.
    pub fn slack(&self, y: &[f64]) -> Matrix {
        let mut s = self.c.clone();
        for (i, ai) in self.a.iter().enumerate() {
            if let Some(a) = ai {
                if y[i] != 0.0 {
                    s.add_scaled(-y[i], a).expect("block dims");
                }
            }
        }
        s
    }
}

/// A two-sided linear row `lhs ≤ aᵀy ≤ rhs`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct LinRow {
    pub lhs: f64,
    pub rhs: f64,
    pub terms: Vec<(usize, f64)>,
}

impl LinRow {
    pub fn activity(&self, y: &[f64]) -> f64 {
        self.terms.iter().map(|&(i, c)| c * y[i]).sum()
    }
}

/// The full problem: `sup bᵀy` under PSD blocks, linear rows and bounds.
#[derive(Clone, Debug)]
pub struct SdpProblem {
    /// Number of variables.
    pub m: usize,
    /// Objective (maximized).
    pub b: Vec<f64>,
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    pub blocks: Vec<SdpBlock>,
    pub lin: Vec<LinRow>,
}

impl SdpProblem {
    /// New problem with `m` variables, all free objective-zero.
    pub fn new(m: usize) -> Self {
        SdpProblem {
            m,
            b: vec![0.0; m],
            lb: vec![-1e9; m],
            ub: vec![1e9; m],
            blocks: Vec::new(),
            lin: Vec::new(),
        }
    }

    pub fn add_block(&mut self, block: SdpBlock) {
        assert_eq!(block.a.len(), self.m);
        self.blocks.push(block);
    }

    pub fn add_lin_row(&mut self, lhs: f64, rhs: f64, terms: Vec<(usize, f64)>) {
        assert!(lhs <= rhs);
        self.lin.push(LinRow { lhs, rhs, terms });
    }

    /// Objective value `bᵀy`.
    pub fn obj(&self, y: &[f64]) -> f64 {
        self.b.iter().zip(y).map(|(b, y)| b * y).sum()
    }

    /// Checks feasibility of `y` within `tol` (smallest eigenvalue of
    /// every block ≥ −tol, rows and bounds within tol).
    pub fn is_feasible(&self, y: &[f64], tol: f64) -> bool {
        if y.len() != self.m {
            return false;
        }
        for (i, &yi) in y.iter().enumerate() {
            if yi < self.lb[i] - tol || yi > self.ub[i] + tol {
                return false;
            }
        }
        for row in &self.lin {
            let a = row.activity(y);
            if a < row.lhs - tol || a > row.rhs + tol {
                return false;
            }
        }
        for blk in &self.blocks {
            let s = blk.slack(y);
            match ugrs_linalg::eigen::symmetric_eigen(&s) {
                Ok(e) => {
                    if e.values[0] < -tol {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_evaluation() {
        // S(y) = I − y·E11.
        let mut blk = SdpBlock::new(2, 1);
        blk.c = Matrix::identity(2);
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        blk.set_a(0, a);
        let s = blk.slack(&[0.25]);
        assert_eq!(s[(0, 0)], 0.75);
        assert_eq!(s[(1, 1)], 1.0);
    }

    #[test]
    fn feasibility_check() {
        let mut p = SdpProblem::new(1);
        p.b = vec![1.0];
        let mut blk = SdpBlock::new(1, 1);
        blk.c = Matrix::from_rows(1, 1, vec![1.0]).unwrap();
        blk.set_a(0, Matrix::from_rows(1, 1, vec![1.0]).unwrap());
        p.add_block(blk); // 1 − y ≥ 0
        p.add_lin_row(f64::NEG_INFINITY, 0.8, vec![(0, 1.0)]);
        assert!(p.is_feasible(&[0.5], 1e-9));
        assert!(!p.is_feasible(&[0.9], 1e-9)); // row violated
        assert!(!p.is_feasible(&[1.5], 1e-9)); // block violated
    }
}
