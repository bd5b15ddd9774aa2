//! An independent oracle for the primal–dual SDP solver: separable
//! problems whose optimum is closed-form. Block `k` is `C_k − y_k·A_k ⪰ 0`
//! with `A_k ≻ 0` and its own variable `y_k`; with `A_k = LLᵀ` it holds
//! iff `y_k ≤ λmin(L⁻¹C_kL⁻ᵀ)`, so `max Σ y_k` is the sum of those
//! eigenvalues, and one binding row `Σ y_k ≤ r` makes it `r`. The
//! reference is computed with `linalg::eigen` alone (`L = A_k^{1/2}`) and
//! never calls the solver.
//!
//! Every such problem is feasible, so a solve may fail (`Numerical`) but
//! never lie: `barrier_never_lies` admits `Optimal` at the closed form or
//! `Numerical`, at 1 024 cases or `PROPTEST_CASES`. The stricter
//! `barrier_reaches_the_closed_form_optimum` demands `Optimal` on its 64.
//! Raising a lower bound past a block's cap makes the box exclude every
//! feasible point: `an_excluding_box_is_never_optimal` admits
//! `Infeasible` or `Numerical` there. Each `Numerical` prints one
//! `numerical:` line, which CI counts.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugrs::linalg::eigen::symmetric_eigen;
use ugrs::linalg::Matrix;
use ugrs::sdp::{solve, SdpBlock, SdpOptions, SdpProblem, SdpResult, SdpStatus};

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

/// The separable problem with one block per entry of `dims`, each
/// block's cap on its variable, and the optimum.
fn separable(dims: &[usize], seed: u64, binding_row: bool) -> (SdpProblem, Vec<f64>, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = dims.len();
    let mut p = SdpProblem::new(m);
    p.b = vec![1.0; m];
    p.lb = vec![-1e3; m];
    p.ub = vec![1e3; m];
    let mut caps = Vec::with_capacity(m);
    for (k, &d) in dims.iter().enumerate() {
        let g = symmetric(d, &mut rng);
        let mut a = g.matmul(&g).expect("square");
        for i in 0..d {
            a[(i, i)] += 0.5;
        }
        let c = symmetric(d, &mut rng);
        let l_inv = inverse_sqrt(&a);
        let whitened = l_inv.matmul(&c).and_then(|x| x.matmul(&l_inv)).expect("square");
        caps.push(symmetric_eigen(&whitened).expect("eigen").values[0]);
        let mut blk = SdpBlock::new(d, m);
        blk.c = c;
        blk.set_a(k, a);
        p.add_block(blk);
    }
    let mut optimum = caps.iter().sum();
    if binding_row {
        let rhs = optimum - rng.gen_range(0.1..1.0);
        p.add_lin_row(f64::NEG_INFINITY, rhs, (0..m).map(|k| (k, 1.0)).collect());
        optimum = rhs;
    }
    (p, caps, optimum)
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
        SdpStatus::Numerical => eprintln!("numerical: {name}"),
        SdpStatus::Optimal => {
            prop_assert!((res.obj - optimum).abs() <= tol, "{}: {} vs {}", name, res.obj, optimum)
        }
        status => prop_assert!(false, "{}: {:?} on a feasible SDP", name, status),
    }
    Ok(())
}

/// The t = 1 centering of this instance's penalty solve, under the
/// log-det barrier the solver used to be, ran out of Newton steps, and the
/// path ended at z = 0.523 and reported the feasible problem Infeasible.
/// Without a Farkas certificate a solve may only say Numerical.
#[test]
fn stalled_penalty_solve_does_not_report_a_feasible_sdp_infeasible() {
    let (p, _, optimum) = separable(&[2, 6, 4], 4141335149884617536, false);
    assert!((optimum + 3.5335).abs() < 1e-4, "optimum {optimum}");
    check_never_lies("solve", optimum, solve(&p, &SdpOptions::default())).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(1024)))]

    #[test]
    fn barrier_never_lies(
        dims in proptest::collection::vec(1usize..7, 1..4),
        seed in any::<u64>(),
        binding_row in any::<bool>(),
    ) {
        let (p, _, optimum) = separable(&dims, seed, binding_row);
        check_never_lies("barrier_never_lies", optimum, solve(&p, &SdpOptions::default()))?;
    }

    #[test]
    fn an_excluding_box_is_never_optimal(
        dims in proptest::collection::vec(1usize..7, 1..4),
        seed in any::<u64>(),
        binding_row in any::<bool>(),
        which in any::<usize>(),
        gap in 0.1f64..1.0,
    ) {
        // y_j ≥ cap_j + gap: block j rules out every y in the box.
        let (mut p, caps, _) = separable(&dims, seed, binding_row);
        let j = which % dims.len();
        p.lb[j] = caps[j] + gap;
        let res = solve(&p, &SdpOptions::default());
        match res.status {
            SdpStatus::Infeasible => {}
            SdpStatus::Numerical => eprintln!("numerical: an_excluding_box_is_never_optimal"),
            status => prop_assert!(false, "{:?} with y_{} ≥ {} + {}", status, j, caps[j], gap),
        }
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
        let (p, _, optimum) = separable(&dims, seed, binding_row);
        let tol = 1e-6 * optimum.abs().max(1.0);
        let res = solve(&p, &SdpOptions::default());
        prop_assert_eq!(res.status, SdpStatus::Optimal, "on {:?}", dims);
        prop_assert!(
            (res.obj - optimum).abs() <= tol,
            "on {:?}, row {}: {} vs {}",
            dims, binding_row, res.obj, optimum
        );
    }
}
