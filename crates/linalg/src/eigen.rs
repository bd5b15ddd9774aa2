//! Cyclic Jacobi eigensolver for symmetric matrices.
//!
//! The MISDP solver needs, per separation round, the smallest eigenvalue
//! and a corresponding eigenvector of `Z = C − Σ Aᵢ yᵢ` (§3.2 of the
//! paper: the Sherali–Fraticelli eigenvector cut). Jacobi rotations give
//! high-quality orthogonal eigenvectors on the small dense blocks we care
//! about, at the price of O(n³) per sweep — perfectly fine here. The SDP
//! solver's step lengths need only the smallest eigenvalue, which
//! [`min_eigenvalue`] finds by a tridiagonal reduction and bisection.

use crate::vector::{axpy, dot};
use crate::{LinalgError, Matrix, Result};

/// Full eigendecomposition of a symmetric matrix: `A = V diag(λ) Vᵀ`.
#[derive(Clone, Debug)]
pub struct SymmetricEigen {
    /// Eigenvalues, sorted ascending.
    pub values: Vec<f64>,
    /// `vectors.col(k)` is the eigenvector for `values[k]`; columns form an
    /// orthonormal set.
    pub vectors: Matrix,
}

impl SymmetricEigen {
    /// Smallest eigenvalue with its eigenvector.
    pub fn min_pair(&self) -> (f64, Vec<f64>) {
        (self.values[0], self.vectors.col(0))
    }
}

/// Computes the eigendecomposition of a symmetric matrix by the cyclic
/// Jacobi method. `a` is symmetrized defensively; asymmetry beyond 1e-7
/// is a shape error. Fails with [`LinalgError::NoConvergence`] only for
/// pathological inputs (limit: 60 sweeps).
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    if !a.is_square() {
        return Err(LinalgError::Shape("eigen requires a square matrix".into()));
    }
    if a.asymmetry() > 1e-7 * (1.0 + a.norm_frobenius()) {
        return Err(LinalgError::Shape("matrix is not symmetric".into()));
    }
    let n = a.rows();
    if n == 0 {
        return Ok(SymmetricEigen { values: vec![], vectors: Matrix::zeros(0, 0) });
    }
    let mut m = a.clone();
    m.symmetrize();
    let mut v = Matrix::identity(n);

    let off = |m: &Matrix| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                s += m[(i, j)] * m[(i, j)];
            }
        }
        s.sqrt()
    };

    let tol = 1e-14 * (1.0 + m.norm_frobenius());
    for _sweep in 0..60 {
        if off(&m) <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                // Classic Jacobi rotation annihilating (p,q).
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Update rows/columns p and q of M = Jᵀ M J.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors: V ← V J.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    if off(&m) > 1e-7 * (1.0 + a.norm_frobenius()) {
        return Err(LinalgError::NoConvergence);
    }

    // Sort eigenpairs ascending by eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(i, i)].partial_cmp(&m[(j, j)]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (newcol, &oldcol) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, newcol)] = v[(r, oldcol)];
        }
    }
    Ok(SymmetricEigen { values, vectors })
}

/// Smallest eigenvalue of a symmetric matrix, to the last bit, without
/// eigenvectors (see [`Tridiagonal`]).
pub fn min_eigenvalue(a: &Matrix) -> Result<f64> {
    let t = Tridiagonal::new(a.clone())?;
    Ok(t.min_eigenvalue_below(t.upper + 1.0, 0.0).unwrap_or(t.lower))
}

/// The tridiagonal form `QᵀAQ` of a symmetric `A`, for an orthogonal `Q`
/// of Householder reflections (`n³` flops): it has `A`'s eigenvalues, and
/// Sturm counts bracket them in `O(n)` each. The SDP solver reads its step
/// lengths from it.
pub struct Tridiagonal {
    d: Vec<f64>,
    e: Vec<f64>,
    /// Gershgorin bounds on every eigenvalue.
    lower: f64,
    upper: f64,
}

impl Tridiagonal {
    pub fn new(a: Matrix) -> Result<Self> {
        if !a.is_square() || a.rows() == 0 {
            return Err(LinalgError::Shape("eigenvalue of a non-square or empty matrix".into()));
        }
        let (d, e) = tridiagonal(a);
        let n = d.len();
        let radius = |i: usize| {
            (if i > 0 { e[i - 1].abs() } else { 0.0 }) + (if i + 1 < n { e[i].abs() } else { 0.0 })
        };
        let lower = (0..n).map(|i| d[i] - radius(i)).fold(f64::INFINITY, f64::min);
        let upper = (0..n).map(|i| d[i] + radius(i)).fold(f64::NEG_INFINITY, f64::max);
        if !(lower.is_finite() && upper.is_finite()) {
            return Err(LinalgError::NoConvergence);
        }
        Ok(Tridiagonal { d, e, lower, upper })
    }

    /// Whether some eigenvalue lies below `x`: a negative pivot of the
    /// LDLᵀ factorization of `T − xI` (Sylvester's law of inertia).
    pub fn has_eigenvalue_below(&self, x: f64) -> bool {
        let mut q = 1.0;
        for (i, &di) in self.d.iter().enumerate() {
            let off = if i > 0 { self.e[i - 1] * self.e[i - 1] / q } else { 0.0 };
            q = di - x - off;
            if q < 0.0 {
                return true;
            }
            q = q.max(f64::MIN_POSITIVE);
        }
        false
    }

    /// The smallest eigenvalue `λ`, if it lies below `x`: the lower end
    /// of a bisection bracket no wider than `rel·|λ|` (0: to the last
    /// bit), so never above `λ`.
    pub fn min_eigenvalue_below(&self, x: f64, rel: f64) -> Option<f64> {
        if !self.has_eigenvalue_below(x) {
            return None;
        }
        let (mut lo, mut hi) = (self.lower, x.min(self.upper));
        loop {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi || hi - lo <= rel * lo.abs() {
                return Some(lo);
            }
            if self.has_eigenvalue_below(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }
}

/// The diagonal and subdiagonal of `QᵀAQ`, tridiagonal, for a symmetric
/// `a` and an orthogonal `Q` of Householder reflections.
fn tridiagonal(mut a: Matrix) -> (Vec<f64>, Vec<f64>) {
    let n = a.rows();
    a.symmetrize();
    let mut e = vec![0.0; n.saturating_sub(1)];
    let (mut v, mut p) = (vec![0.0; n], vec![0.0; n]);
    for k in 0..n.saturating_sub(2) {
        // Column k below the diagonal is row k right of it.
        let x = &a.row(k)[k + 1..];
        let norm = dot(x, x).sqrt();
        if norm == 0.0 {
            continue;
        }
        // H = I − β v vᵀ maps x to alpha·e₁.
        let alpha = if x[0] > 0.0 { -norm } else { norm };
        let (v, p) = (&mut v[k + 1..], &mut p[k + 1..]);
        v.copy_from_slice(x);
        v[0] -= alpha;
        let beta = 2.0 / dot(v, v);
        // p = β A₂₂ v, a sum of A₂₂'s rows.
        p.fill(0.0);
        for (j, &vj) in v.iter().enumerate() {
            axpy(beta * vj, &a.row(k + 1 + j)[k + 1..], p);
        }
        // A₂₂ ← H A₂₂ H = A₂₂ − v qᵀ − q vᵀ with q = p − (β vᵀp / 2) v.
        let half = 0.5 * beta * dot(v, p);
        axpy(-half, v, p);
        for (i, (&vi, &qi)) in v.iter().zip(p.iter()).enumerate() {
            let row = &mut a.row_mut(k + 1 + i)[k + 1..];
            axpy(-vi, p, row);
            axpy(-qi, v, row);
        }
        e[k] = alpha;
    }
    if n >= 2 {
        e[n - 2] = a[(n - 1, n - 2)];
    }
    ((0..n).map(|i| a[(i, i)]).collect(), e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
        let (lam, v) = e.min_pair();
        // Check A v = λ v.
        let av = a.matvec(&v);
        for i in 0..2 {
            assert!((av[i] - lam * v[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a =
            Matrix::from_rows(3, 3, vec![4.0, 1.0, -2.0, 1.0, 2.0, 0.0, -2.0, 0.0, 3.0]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let target = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - target).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn reconstruction() {
        let a = Matrix::from_rows(
            4,
            4,
            vec![5.0, 1.0, 0.0, 2.0, 1.0, 4.0, 1.0, 0.0, 0.0, 1.0, 3.0, 1.0, 2.0, 0.0, 1.0, 6.0],
        )
        .unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let d = Matrix::from_diag(&e.values);
        let rec = e.vectors.matmul(&d).unwrap().matmul(&e.vectors.transpose()).unwrap();
        let mut diff = a.clone();
        diff.add_scaled(-1.0, &rec).unwrap();
        assert!(diff.norm_frobenius() < 1e-8);
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 5.0, 0.0, 1.0]).unwrap();
        assert!(symmetric_eigen(&a).is_err());
    }

    #[test]
    fn empty_matrix() {
        let e = symmetric_eigen(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
    }

    #[test]
    fn indefinite_matrix_detected_by_min_eigenvalue() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!((min_eigenvalue(&a).unwrap() + 1.0).abs() < 1e-10);
    }
}
