//! Cholesky (LLᵀ) factorization for symmetric positive definite systems.

use crate::vector::axpy;
use crate::{LinalgError, Matrix, Result};

/// Cholesky factor `L` with `A + shift·I = L Lᵀ`.
///
/// The SDP solver hands this nearly-singular Schur complements close
/// to the boundary of the PSD cone, so the factorization supports an
/// *adaptive* diagonal shift: if a pivot turns non-positive the whole
/// factorization is retried with a geometrically growing shift. The shift
/// actually used is reported via [`CholeskyFactor::shift`] so callers can
/// account for the perturbation.
#[derive(Clone, Debug)]
pub struct CholeskyFactor {
    l: Matrix,
    shift: f64,
}

impl CholeskyFactor {
    /// Factorizes an SPD matrix without any shift. Fails with
    /// [`LinalgError::Singular`] when `a` is not positive definite.
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::factor_with_shift(a, 0.0)
    }

    /// Factorizes `a`, adding a diagonal shift if needed. Starts at zero
    /// shift and escalates `initial_shift · 10^k` until success or the
    /// shift exceeds `max_shift`.
    pub fn new_shifted(a: &Matrix, initial_shift: f64, max_shift: f64) -> Result<Self> {
        match Self::factor_with_shift(a, 0.0) {
            Ok(f) => Ok(f),
            Err(_) => {
                let mut shift = initial_shift.max(1e-14);
                while shift <= max_shift {
                    if let Ok(f) = Self::factor_with_shift(a, shift) {
                        return Ok(f);
                    }
                    shift *= 10.0;
                }
                Err(LinalgError::Singular)
            }
        }
    }

    fn factor_with_shift(a: &Matrix, shift: f64) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::Shape("Cholesky requires a square matrix".into()));
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)] + shift;
            for k in 0..j {
                let ljk = l[(j, k)];
                d -= ljk * ljk;
            }
            // Require a pivot clearly above rounding noise relative to the
            // diagonal scale — a d of ~1e-16 means "singular in practice".
            if d <= 1e-12 * (1.0 + (a[(j, j)] + shift).abs()) || !d.is_finite() {
                return Err(LinalgError::Singular);
            }
            let ljj = d.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / ljj;
            }
        }
        Ok(CholeskyFactor { l, shift })
    }

    /// The diagonal shift that was applied (0 if none was needed).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `(A + shift·I) x = b` via two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.order();
        if b.len() != n {
            return Err(LinalgError::Shape("rhs length mismatch".into()));
        }
        // Forward: L y = b.
        let mut x = b.to_vec();
        for i in 0..n {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                s -= self.l[(i, j)] * xj;
            }
            x[i] = s / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[(j, i)] * xj;
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// `(A + shift·I)⁻¹ = L⁻ᵀ L⁻¹`, exactly symmetric: the SDP solver
    /// builds its Schur complement from this one `S⁻¹` per block.
    pub fn inverse(&self) -> Matrix {
        let n = self.order();
        // X = L⁻¹ row by row: x_i = (e_i − Σ_{k<i} L_ik x_k) / L_ii.
        let mut x = Matrix::zeros(n, n);
        for i in 0..n {
            let (done, rest) = x.data_mut().split_at_mut(i * n);
            let xi = &mut rest[..n];
            xi[i] = 1.0;
            for k in 0..i {
                axpy(-self.l[(i, k)], &done[k * n..k * n + k + 1], &mut xi[..k + 1]);
            }
            let lii = self.l[(i, i)];
            for v in &mut xi[..i + 1] {
                *v /= lii;
            }
        }
        // Xᵀ X as a sum of outer products of X's rows (row k is zero
        // beyond column k); each term is symmetric, so the sum is too.
        let mut w = Matrix::zeros(n, n);
        for k in 0..n {
            let xk = &x.row(k)[..k + 1];
            for (i, &xki) in xk.iter().enumerate() {
                axpy(xki, xk, &mut w.row_mut(i)[..k + 1]);
            }
        }
        w
    }

    /// `L⁻¹ D L⁻ᵀ` for a symmetric `d`, symmetrized: `A + α D ⪰ 0` iff
    /// `I + α L⁻¹ D L⁻ᵀ ⪰ 0`, which gives the SDP solver its step lengths.
    pub fn congruence(&self, d: &Matrix) -> Matrix {
        let z = self.forward_rows(d);
        let mut w = self.forward_rows(&z.transpose());
        w.symmetrize();
        w
    }

    /// `L⁻¹ B`, by forward substitution on whole rows.
    fn forward_rows(&self, b: &Matrix) -> Matrix {
        let n = self.order();
        let mut z = b.clone();
        for i in 0..n {
            let (done, rest) = z.data_mut().split_at_mut(i * n);
            let zi = &mut rest[..n];
            for k in 0..i {
                axpy(-self.l[(i, k)], &done[k * n..(k + 1) * n], zi);
            }
            let inv = 1.0 / self.l[(i, i)];
            for v in zi.iter_mut() {
                *v *= inv;
            }
        }
        z
    }
}

/// Returns `true` iff `a` is positive definite (up to factorization
/// breakdown tolerance). Convenience wrapper used by tests and the SDP
/// feasibility checks.
pub fn is_positive_definite(a: &Matrix) -> bool {
    CholeskyFactor::new(a).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Mᵀ M + I for M = [[1,2,0],[0,1,1],[1,0,1]] is SPD.
        let m = Matrix::from_rows(3, 3, vec![1.0, 2.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0]).unwrap();
        let mut a = m.transpose().matmul(&m).unwrap();
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn reconstructs_matrix() {
        let a = spd3();
        let f = CholeskyFactor::new(&a).unwrap();
        let llt = f.l().matmul(&f.l().transpose()).unwrap();
        let mut diff = a.clone();
        diff.add_scaled(-1.0, &llt).unwrap();
        assert!(diff.norm_frobenius() < 1e-10);
        assert_eq!(f.shift(), 0.0);
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd3();
        let b = vec![1.0, 2.0, 3.0];
        let x = CholeskyFactor::new(&a).unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x);
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite_without_shift() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap(); // eigenvalues 3, -1
        assert!(CholeskyFactor::new(&a).is_err());
        assert!(!is_positive_definite(&a));
    }

    #[test]
    fn adaptive_shift_rescues_indefinite() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        let f = CholeskyFactor::new_shifted(&a, 1e-8, 1e4).unwrap();
        assert!(f.shift() >= 1.0 - 1e-9); // needs shift ≥ |λmin| = 1
                                          // Solution solves the shifted system.
        let b = vec![1.0, 0.0];
        let x = f.solve(&b).unwrap();
        let mut shifted = a.clone();
        for i in 0..2 {
            shifted[(i, i)] += f.shift();
        }
        let ax = shifted.matvec(&x);
        assert!((ax[0] - 1.0).abs() < 1e-8 && ax[1].abs() < 1e-8);
    }

    #[test]
    fn inverse_is_symmetric_and_inverts() {
        let a = spd3();
        let w = CholeskyFactor::new(&a).unwrap().inverse();
        assert_eq!(w.asymmetry(), 0.0);
        let mut diff = a.matmul(&w).unwrap();
        diff.add_scaled(-1.0, &Matrix::identity(3)).unwrap();
        assert!(diff.norm_frobenius() < 1e-12);
    }
}
