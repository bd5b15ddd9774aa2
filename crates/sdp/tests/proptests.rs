//! Property tests for the primal–dual SDP solver: returned points must be
//! feasible and (approximately) optimal against coordinate probing and
//! against a known feasible point.

use proptest::prelude::*;
use ugrs_linalg::Matrix;
use ugrs_sdp::{solve, SdpBlock, SdpOptions, SdpProblem, SdpStatus};

/// Random well-posed SDP: `C = MᵀM + I` (so y = 0 is strictly feasible),
/// random symmetric `Aᵢ`, box bounds.
#[derive(Clone, Debug)]
struct RandomSdp {
    m: usize,
    dim: usize,
    b: Vec<f64>,
    c_entries: Vec<f64>,
    a_entries: Vec<Vec<f64>>,
}

fn random_sdp() -> impl Strategy<Value = RandomSdp> {
    (1usize..4, 2usize..4).prop_flat_map(|(m, dim)| {
        let b = prop::collection::vec(-2.0f64..2.0, m);
        let c = prop::collection::vec(-1.0f64..1.0, dim * dim);
        let a = prop::collection::vec(prop::collection::vec(-1.0f64..1.0, dim * dim), m);
        (b, c, a).prop_map(move |(b, c_entries, a_entries)| RandomSdp {
            m,
            dim,
            b,
            c_entries,
            a_entries,
        })
    })
}

fn build(r: &RandomSdp) -> SdpProblem {
    let mut p = SdpProblem::new(r.m);
    p.b = r.b.clone();
    p.lb = vec![-2.0; r.m];
    p.ub = vec![2.0; r.m];
    let mraw = Matrix::from_rows(r.dim, r.dim, r.c_entries.clone()).unwrap();
    let mut c = mraw.transpose().matmul(&mraw).unwrap();
    for i in 0..r.dim {
        c[(i, i)] += 1.0;
    }
    let mut blk = SdpBlock::new(r.dim, r.m);
    blk.c = c;
    for (i, entries) in r.a_entries.iter().enumerate() {
        let mut a = Matrix::from_rows(r.dim, r.dim, entries.clone()).unwrap();
        a.symmetrize();
        blk.set_a(i, a);
    }
    p.add_block(blk);
    p
}

/// `PROPTEST_CASES` when it is set, else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    #[test]
    fn solution_is_feasible_and_locally_optimal(r in random_sdp()) {
        let p = build(&r);
        let res = solve(&p, &SdpOptions::default());
        prop_assert_eq!(res.status, SdpStatus::Optimal);
        prop_assert!(p.is_feasible(&res.y, 1e-5), "infeasible point returned");
        // Coordinate probing: stepping along any +/- e_i while staying
        // feasible must not improve the objective noticeably.
        for i in 0..p.m {
            for step in [0.05, -0.05] {
                let mut y = res.y.clone();
                y[i] += step;
                if p.is_feasible(&y, 1e-9) {
                    let probe = p.obj(&y);
                    prop_assert!(probe <= res.obj + 1e-3,
                        "probe {} beats reported optimum {} (var {}, step {})",
                        probe, res.obj, i, step);
                }
            }
        }
    }

    #[test]
    fn objective_beats_feasible_reference_points(r in random_sdp()) {
        let p = build(&r);
        let res = solve(&p, &SdpOptions::default());
        prop_assert_eq!(res.status, SdpStatus::Optimal);
        // y = 0 is feasible by construction; the optimum must be ≥ its value.
        let zero = vec![0.0; p.m];
        prop_assert!(p.is_feasible(&zero, 1e-9));
        prop_assert!(res.obj >= p.obj(&zero) - 1e-5);
    }
}
