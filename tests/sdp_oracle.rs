//! An independent oracle for the barrier SDP solver: separable problems
//! whose optimum is closed-form. Block `k` is `C_k − y_k·A_k ⪰ 0` with
//! `A_k ≻ 0` and its own variable `y_k`; with `A_k = LLᵀ` it holds iff
//! `y_k ≤ λmin(L⁻¹C_kL⁻ᵀ)`, so `max Σ y_k` is the sum of those
//! eigenvalues, and one binding row `Σ y_k ≤ r` makes it `r`. The
//! reference is computed with `linalg::eigen` alone (`L = A_k^{1/2}`) and
//! never calls the barrier.
//!
//! Every such problem is feasible, so a solve may fail (`Numerical`) but
//! never lie: `barrier_never_lies` admits `Optimal` at the closed form or
//! `Numerical`, at 1 024 cases or `PROPTEST_CASES`. The stricter
//! `barrier_reaches_the_closed_form_optimum` demands `Optimal` on its 64.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugrs::linalg::eigen::symmetric_eigen;
use ugrs::linalg::Matrix;
use ugrs::sdp::{solve, solve_penalty, SdpBlock, SdpOptions, SdpProblem, SdpResult, SdpStatus};

/// A random symmetric `d × d` matrix with entries in `[−1, 1]`.
fn symmetric(d: usize, rng: &mut SmallRng) -> Matrix {
    let mut m = Matrix::from_rows(d, d, (0..d * d).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .expect("d × d entries");
    m.symmetrize();
    m
}

/// `A^{−1/2}` of a symmetric positive definite `A`, from its eigenpairs.
fn inverse_sqrt(a: &Matrix) -> Matrix {
    let e = symmetric_eigen(a).expect("eigen of a symmetric matrix");
    let d = a.rows();
    let mut r = Matrix::zeros(d, d);
    for (k, &lambda) in e.values.iter().enumerate() {
        let v = e.vectors.col(k);
        for p in 0..d {
            for q in 0..d {
                r[(p, q)] += v[p] * v[q] / lambda.sqrt();
            }
        }
    }
    r
}

/// The separable problem with one block per entry of `dims`, and its
/// optimum.
fn separable(dims: &[usize], seed: u64, binding_row: bool) -> (SdpProblem, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = dims.len();
    let mut p = SdpProblem::new(m);
    p.b = vec![1.0; m];
    p.lb = vec![-1e3; m];
    p.ub = vec![1e3; m];
    let mut optimum = 0.0;
    for (k, &d) in dims.iter().enumerate() {
        let g = symmetric(d, &mut rng);
        let mut a = g.matmul(&g).expect("square");
        for i in 0..d {
            a[(i, i)] += 0.5;
        }
        let c = symmetric(d, &mut rng);
        let l_inv = inverse_sqrt(&a);
        let whitened = l_inv.matmul(&c).and_then(|x| x.matmul(&l_inv)).expect("square");
        optimum += symmetric_eigen(&whitened).expect("eigen").values[0];
        let mut blk = SdpBlock::new(d, m);
        blk.c = c;
        blk.set_a(k, a);
        p.add_block(blk);
    }
    if binding_row {
        let rhs = optimum - rng.gen_range(0.1..1.0);
        p.add_lin_row(f64::NEG_INFINITY, rhs, (0..m).map(|k| (k, 1.0)).collect());
        optimum = rhs;
    }
    (p, optimum)
}

/// `PROPTEST_CASES` when it is set, else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// A solve of `p` either reaches `optimum` or admits a numerical failure;
/// it never claims infeasibility and never reports a wrong optimum.
fn check_never_lies(name: &str, optimum: f64, res: SdpResult) -> Result<(), TestCaseError> {
    let tol = 1e-6 * optimum.abs().max(1.0);
    match res.status {
        SdpStatus::Numerical => {}
        SdpStatus::Optimal => {
            prop_assert!((res.obj - optimum).abs() <= tol, "{}: {} vs {}", name, res.obj, optimum)
        }
        status => prop_assert!(false, "{}: {:?} on a feasible SDP", name, status),
    }
    Ok(())
}

/// The t = 1 centering of this penalty solve runs out of Newton steps
/// (Γ = 1e5 against unit-scale data), the line search then stalls, and
/// the path used to end at z = 0.523 and report the feasible problem
/// Infeasible. Without a Farkas certificate it may only say Numerical.
#[test]
fn stalled_penalty_solve_does_not_report_a_feasible_sdp_infeasible() {
    let (p, optimum) = separable(&[2, 6, 4], 4141335149884617536, false);
    assert!((optimum + 3.5335).abs() < 1e-4, "optimum {optimum}");
    for (name, res) in [
        ("solve", solve(&p, &SdpOptions::default())),
        ("solve_penalty", solve_penalty(&p, &SdpOptions::default())),
    ] {
        check_never_lies(name, optimum, res).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(1024)))]

    #[test]
    fn barrier_never_lies(
        dims in proptest::collection::vec(1usize..7, 1..4),
        seed in any::<u64>(),
        binding_row in any::<bool>(),
    ) {
        let (p, optimum) = separable(&dims, seed, binding_row);
        check_never_lies("solve", optimum, solve(&p, &SdpOptions::default()))?;
        check_never_lies("solve_penalty", optimum, solve_penalty(&p, &SdpOptions::default()))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    #[test]
    fn barrier_reaches_the_closed_form_optimum(
        dims in proptest::collection::vec(1usize..7, 1..4),
        seed in any::<u64>(),
        binding_row in any::<bool>(),
    ) {
        let (p, optimum) = separable(&dims, seed, binding_row);
        let tol = 1e-6 * optimum.abs().max(1.0);
        for (name, res) in [
            ("solve", solve(&p, &SdpOptions::default())),
            ("solve_penalty", solve_penalty(&p, &SdpOptions::default())),
        ] {
            prop_assert_eq!(res.status, SdpStatus::Optimal, "{} on {:?}", name, dims);
            prop_assert!(
                (res.obj - optimum).abs() <= tol,
                "{} on {:?}, row {}: {} vs {}",
                name, dims, binding_row, res.obj, optimum
            );
        }
    }
}
