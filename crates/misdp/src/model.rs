//! The MISDP problem container (the paper's form (8) plus integrality).

use ugrs_sdp::{LinRow, SdpBlock, SdpProblem};

/// A mixed integer semidefinite program, maximized: `sup bᵀy`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MisdpProblem {
    pub name: String,
    pub m: usize,
    pub b: Vec<f64>,
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    /// Integrality flags (the set `I` of the paper).
    pub integer: Vec<bool>,
    pub blocks: Vec<SdpBlock>,
    pub lin: Vec<LinRow>,
}

impl MisdpProblem {
    pub fn new(name: &str, m: usize) -> Self {
        MisdpProblem {
            name: name.to_string(),
            m,
            b: vec![0.0; m],
            lb: vec![-1e6; m],
            ub: vec![1e6; m],
            integer: vec![false; m],
            blocks: Vec::new(),
            lin: Vec::new(),
        }
    }

    /// The continuous SDP relaxation with the given (possibly tightened)
    /// bounds.
    pub fn sdp_relaxation(&self, lb: &[f64], ub: &[f64]) -> SdpProblem {
        let mut p = SdpProblem::new(self.m);
        p.b = self.b.clone();
        p.lb = lb.to_vec();
        p.ub = ub.to_vec();
        p.blocks = self.blocks.clone();
        p.lin = self.lin.clone();
        p
    }

    /// Objective `bᵀy` (maximization sense).
    pub fn obj(&self, y: &[f64]) -> f64 {
        self.b.iter().zip(y).map(|(b, y)| b * y).sum()
    }

    /// Full feasibility check: bounds, integrality, rows, PSD blocks.
    pub fn is_feasible(&self, y: &[f64], tol: f64) -> bool {
        if y.len() != self.m {
            return false;
        }
        for (i, &yi) in y.iter().enumerate() {
            if self.integer[i] && (yi - yi.round()).abs() > tol {
                return false;
            }
        }
        ugrs_sdp::problem::is_feasible(y, &self.lb, &self.ub, &self.blocks, &self.lin, tol)
    }

    /// True if the objective vector is integral on the integer support
    /// and zero elsewhere (enables the stronger B&B cutoff).
    pub fn has_integral_objective(&self) -> bool {
        self.b.iter().zip(&self.integer).all(|(b, int)| {
            if *int {
                (b - b.round()).abs() < 1e-12
            } else {
                *b == 0.0
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugrs_linalg::Matrix;

    fn toy() -> MisdpProblem {
        // max y0 + y1, y0 ∈ {0,1}, y1 ∈ [0, 2] cont., block: 2 − y0 − y1 ≥ 0.
        let mut p = MisdpProblem::new("toy", 2);
        p.b = vec![1.0, 1.0];
        p.lb = vec![0.0, 0.0];
        p.ub = vec![1.0, 2.0];
        p.integer = vec![true, false];
        let mut blk = SdpBlock::new(1, 2);
        blk.c = Matrix::from_rows(1, 1, vec![2.0]).unwrap();
        blk.set_a(0, Matrix::from_rows(1, 1, vec![1.0]).unwrap());
        blk.set_a(1, Matrix::from_rows(1, 1, vec![1.0]).unwrap());
        p.blocks.push(blk);
        p
    }

    #[test]
    fn feasibility_includes_integrality() {
        let p = toy();
        assert!(p.is_feasible(&[1.0, 1.0], 1e-8));
        assert!(!p.is_feasible(&[0.5, 0.5], 1e-8)); // fractional integer var
        assert!(!p.is_feasible(&[1.0, 1.5], 1e-8)); // block violated
        assert_eq!(p.obj(&[1.0, 1.0]), 2.0);
    }

    #[test]
    fn relaxation_carries_bounds() {
        let p = toy();
        let relax = p.sdp_relaxation(&[0.0, 0.5], &[0.0, 2.0]);
        assert_eq!(relax.lb, vec![0.0, 0.5]);
        assert!(relax.is_feasible(&[0.0, 1.0], 1e-9));
    }

    #[test]
    fn integral_objective_detection() {
        let mut p = toy();
        assert!(!p.has_integral_objective()); // continuous var has b ≠ 0
        p.b = vec![2.0, 0.0];
        assert!(p.has_integral_objective());
    }
}
