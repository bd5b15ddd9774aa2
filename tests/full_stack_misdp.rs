//! Cross-crate integration for the MISDP pipeline: the two solution
//! approaches, sequentially and under UG, against exhaustive enumeration
//! of the integer assignments — an oracle that never calls the barrier
//! solver it is checking.

use ugrs::cip::Settings;
use ugrs::glue::ug_solve_misdp;
use ugrs::linalg::eigen::symmetric_eigen;
use ugrs::linalg::Matrix;
use ugrs::misdp::gen::{cardinality_ls, min_k_partitioning, truss_topology};
use ugrs::misdp::{Approach, MisdpProblem, MisdpSolver};
use ugrs::ug::ParallelOptions;

/// Exact optimum by enumerating every assignment of the binaries and
/// evaluating each leaf in closed form. All-binary leaves (TTD, MkP) are
/// feasible iff the linear rows hold and every block has
/// `λmin(S(y)) ≥ −1e-9·(1 + ‖C‖)`. The one continuous variable the
/// oracle allows is CLS's `t`: `A_t = −I` in every block, in no row, not
/// rewarded by the objective — so its best value is
/// `t* = max(lb_t, −λmin(S(y)|_{t=0}))`, and the leaf is infeasible when
/// that exceeds `ub_t`.
fn brute_force(p: &MisdpProblem) -> Option<f64> {
    let int_vars: Vec<usize> = (0..p.m).filter(|&i| p.integer[i]).collect();
    let k = int_vars.len();
    assert!(k <= 16);
    for &i in &int_vars {
        assert_eq!((p.lb[i], p.ub[i]), (0.0, 1.0), "oracle needs binaries");
    }
    let cont: Vec<usize> = (0..p.m).filter(|&i| !p.integer[i]).collect();
    assert!(cont.len() <= 1, "oracle handles at most one continuous variable");
    let t = cont.first().copied();
    if let Some(t) = t {
        assert!(p.b[t] <= 0.0, "oracle needs an objective that prefers small t");
        assert!(p.lin.iter().all(|r| r.terms.iter().all(|&(i, _)| i != t)), "t in a row");
        for blk in &p.blocks {
            let mut neg_i = Matrix::identity(blk.dim);
            ugrs::linalg::vector::scale(-1.0, neg_i.data_mut());
            assert_eq!(blk.a[t].as_ref(), Some(&neg_i), "oracle needs A_t = −I");
        }
    }
    let mut best: Option<f64> = None;
    'leaves: for mask in 0u32..(1 << k) {
        let mut y = vec![0.0; p.m];
        for (j, &i) in int_vars.iter().enumerate() {
            y[i] = (mask >> j & 1) as f64;
        }
        for row in &p.lin {
            let a = row.activity(&y);
            if a < row.lhs - 1e-9 || a > row.rhs + 1e-9 {
                continue 'leaves;
            }
        }
        let mut t_min = t.map_or(f64::NEG_INFINITY, |t| p.lb[t]);
        for blk in &p.blocks {
            let lambda = symmetric_eigen(&blk.slack(&y)).expect("eigen").values[0];
            match t {
                Some(_) => t_min = t_min.max(-lambda),
                None if lambda < -1e-9 * (1.0 + blk.c.norm_frobenius()) => continue 'leaves,
                None => {}
            }
        }
        if let Some(t) = t {
            if t_min > p.ub[t] {
                continue;
            }
            y[t] = t_min;
        }
        let obj = p.obj(&y);
        if best.is_none_or(|b| obj > b) {
            best = Some(obj);
        }
    }
    best
}

/// Both approaches and `ug_solve_misdp` with two solvers reach the
/// oracle's optimum to 1e-6 relative.
fn check(p: MisdpProblem) {
    let expected = brute_force(&p).expect("oracle must find a feasible assignment");
    let agrees = |obj: f64| (obj - expected).abs() <= 1e-6 * expected.abs().max(1.0);
    for approach in [Approach::Sdp, Approach::Lp] {
        let res = MisdpSolver::new(p.clone(), approach, Settings::default()).solve();
        let obj = res.best_obj.unwrap_or(f64::NEG_INFINITY);
        assert!(agrees(obj), "{:?} on {}: {obj} vs oracle {expected}", approach, p.name);
        assert!(p.is_feasible(res.y.as_ref().unwrap(), 1e-4));
        // A node pruned on LP numerical trouble is pruned without proof.
        assert_eq!(res.stats.lp_numerical, 0, "{:?} on {}", approach, p.name);
    }
    let par = ug_solve_misdp(&p, ParallelOptions { num_solvers: 2, ..Default::default() });
    assert!(par.solved, "{}", p.name);
    let pobj = par.best_obj.unwrap();
    assert!(agrees(pobj), "parallel on {}: {pobj} vs oracle {expected}", p.name);
}

#[test]
fn ttd_small_exact() {
    check(truss_topology(3, 6, 11));
}

#[test]
fn cls_small_exact() {
    check(cardinality_ls(5, 2, 12));
}

#[test]
fn mkp_small_exact() {
    check(min_k_partitioning(4, 2, 13));
}

// Seeded sweeps: 8 seeds per family, at most 10 binaries each.

#[test]
fn ttd_seeded_sweep() {
    for s in 0..8 {
        check(truss_topology(3, 6 + s % 3, 100 + s as u64));
    }
}

#[test]
fn cls_seeded_sweep() {
    for s in 0..8 {
        check(cardinality_ls(5 + s % 3, 2 + s % 2, 200 + s as u64));
    }
}

#[test]
fn mkp_seeded_sweep() {
    for s in 0..8 {
        check(min_k_partitioning(4 + s % 2, 2 + s % 2, 300 + s as u64));
    }
}

/// A barrier that returns weaker bounds grows the SDP-approach tree while
/// every optimum still checks out: forming line-search slacks as
/// `S − α·ΔS` accepted near-singular penalty points and grew MkP trees
/// 170–6 500×. The reference counts are those of commit 0b107b5.
#[test]
fn sdp_tree_sizes_stay_near_the_reference() {
    let cases = [
        (min_k_partitioning(6, 2, 1001), 4),
        (truss_topology(5, 13, 1000), 28),
        (cardinality_ls(8, 3, 1001), 12),
    ];
    for (p, reference) in cases {
        let res = MisdpSolver::new(p.clone(), Approach::Sdp, Settings::default()).solve();
        assert!(
            res.stats.nodes <= 2 * reference,
            "{}: {} nodes, reference {reference}",
            p.name,
            res.stats.nodes
        );
    }
}

#[test]
fn racing_settings_all_reach_optimum() {
    use ugrs::misdp::{decode_settings, racing_settings};
    let p = truss_topology(3, 6, 14);
    let expected = brute_force(&p).unwrap();
    for s in racing_settings(4) {
        let (approach, cip) = decode_settings(&s);
        let res = MisdpSolver::new(p.clone(), approach, cip).solve();
        let obj = res.best_obj.unwrap();
        assert!((obj - expected).abs() < 1e-3, "settings {}: {obj} vs {expected}", s.name);
        assert_eq!(res.stats.lp_numerical, 0, "settings {}", s.name);
    }
}
