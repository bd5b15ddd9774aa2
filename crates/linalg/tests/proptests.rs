//! Property-based tests for the linear algebra kernels.

use proptest::prelude::*;
use ugrs_linalg::{
    cholesky::is_positive_definite, eigen::min_eigenvalue, symmetric_eigen, CholeskyFactor,
    LuFactor, Matrix,
};

/// Strategy: a well-conditioned-ish random square matrix (entries in
/// [-5, 5] with a diagonal boost to avoid near-singularity most of the
/// time; genuinely singular draws are filtered at the use site).
fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f64..5.0, n * n).prop_map(move |mut v| {
        for i in 0..n {
            v[i * n + i] += 10.0;
        }
        Matrix::from_rows(n, n, v).unwrap()
    })
}

fn sym_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n).prop_map(|m| {
        let mut s = m.clone();
        s.symmetrize();
        s
    })
}

fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n).prop_map(move |m| {
        // MᵀM + I is always SPD.
        let mut a = m.transpose().matmul(&m).unwrap();
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        a
    })
}

proptest! {
    #[test]
    fn lu_solve_has_small_residual(a in square_matrix(5), b in prop::collection::vec(-10.0f64..10.0, 5)) {
        if let Ok(f) = LuFactor::new(&a) {
            let x = f.solve(&b).unwrap();
            let ax = a.matvec(&x);
            for (p, q) in ax.iter().zip(&b) {
                prop_assert!((p - q).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn lu_transposed_solve_consistent(a in square_matrix(4), b in prop::collection::vec(-10.0f64..10.0, 4)) {
        if let Ok(f) = LuFactor::new(&a) {
            let x = f.solve_transposed(&b).unwrap();
            let atx = a.transpose().matvec(&x);
            for (p, q) in atx.iter().zip(&b) {
                prop_assert!((p - q).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn cholesky_round_trip(a in spd_matrix(5), b in prop::collection::vec(-10.0f64..10.0, 5)) {
        let f = CholeskyFactor::new(&a).unwrap();
        prop_assert_eq!(f.shift(), 0.0);
        let x = f.solve(&b).unwrap();
        let ax = a.matvec(&x);
        for (p, q) in ax.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-5 * (1.0 + a.norm_frobenius()));
        }
    }

    #[test]
    fn spd_iff_all_eigenvalues_positive(a in sym_matrix(4)) {
        let e = symmetric_eigen(&a).unwrap();
        let pd = is_positive_definite(&a);
        let min = e.values[0];
        // Only check when safely away from the boundary.
        if min > 1e-6 {
            prop_assert!(pd);
        } else if min < -1e-6 {
            prop_assert!(!pd);
        }
    }

    #[test]
    fn eigen_reconstruction(a in sym_matrix(5)) {
        let e = symmetric_eigen(&a).unwrap();
        let d = Matrix::from_diag(&e.values);
        let rec = e.vectors.matmul(&d).unwrap().matmul(&e.vectors.transpose()).unwrap();
        let mut diff = a.clone();
        diff.add_scaled(-1.0, &rec).unwrap();
        prop_assert!(diff.norm_frobenius() < 1e-6 * (1.0 + a.norm_frobenius()));
    }

    #[test]
    fn eigen_trace_equals_sum_of_eigenvalues(a in sym_matrix(6)) {
        let e = symmetric_eigen(&a).unwrap();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((sum - a.trace()).abs() < 1e-7 * (1.0 + a.trace().abs()));
    }

    #[test]
    fn min_eigenvalue_matches_jacobi(n in 1usize..9, seed in prop::collection::vec(-5.0f64..5.0, 64)) {
        let mut a = Matrix::from_rows(n, n, seed[..n * n].to_vec()).unwrap();
        a.symmetrize();
        // A repeated eigenvalue and a zero column, which skips a reflection.
        if n > 2 {
            for j in 0..n {
                a[(0, j)] = 0.0;
                a[(j, 0)] = 0.0;
            }
        }
        let jacobi = symmetric_eigen(&a).unwrap().values[0];
        let bisected = min_eigenvalue(&a).unwrap();
        prop_assert!((jacobi - bisected).abs() <= 1e-10 * (1.0 + a.norm_frobenius()), "{} vs {}", jacobi, bisected);
    }

    #[test]
    fn congruence_whitens_by_the_factor(a in spd_matrix(5), d in sym_matrix(5)) {
        // L (L⁻¹ D L⁻ᵀ) Lᵀ = D.
        let f = CholeskyFactor::new(&a).unwrap();
        let w = f.congruence(&d);
        prop_assert_eq!(w.asymmetry(), 0.0);
        let back = f.l().matmul(&w).unwrap().matmul(&f.l().transpose()).unwrap();
        let mut diff = d.clone();
        diff.add_scaled(-1.0, &back).unwrap();
        prop_assert!(diff.norm_frobenius() < 1e-9 * (1.0 + d.norm_frobenius()));
    }

    #[test]
    fn det_of_product_with_inverse_is_one(a in square_matrix(4)) {
        if let Ok(f) = LuFactor::new(&a) {
            if f.det().abs() > 1e-6 {
                let inv = f.inverse().unwrap();
                let finv = LuFactor::new(&inv).unwrap();
                prop_assert!((f.det() * finv.det() - 1.0).abs() < 1e-4);
            }
        }
    }
}
