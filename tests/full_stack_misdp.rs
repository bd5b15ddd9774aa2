//! Cross-crate integration for the MISDP pipeline: the two solution
//! approaches against each other and against exhaustive enumeration of
//! the integer assignments, sequentially and under UG.

use ugrs::glue::ug_solve_misdp;
use ugrs::misdp::gen::{cardinality_ls, min_k_partitioning, truss_topology};
use ugrs::misdp::{Approach, MisdpProblem, MisdpSolver};
use ugrs::sdp::{solve as sdp_solve, SdpOptions, SdpStatus};
use ugrs::ug::ParallelOptions;

/// Exact optimum by enumerating all integer assignments and solving the
/// continuous SDP in the remaining variables (here: all-integer or
/// integer + one continuous variable).
fn brute_force(p: &MisdpProblem) -> Option<f64> {
    let int_vars: Vec<usize> = (0..p.m).filter(|&i| p.integer[i]).collect();
    let k = int_vars.len();
    assert!(k <= 16);
    // All integer variables must be binary for this oracle.
    for &i in &int_vars {
        assert_eq!((p.lb[i], p.ub[i]), (0.0, 1.0), "oracle needs binaries");
    }
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << k) {
        let mut lb = p.lb.clone();
        let mut ub = p.ub.clone();
        for (j, &i) in int_vars.iter().enumerate() {
            let v = if mask >> j & 1 == 1 { 1.0 } else { 0.0 };
            lb[i] = v;
            ub[i] = v;
        }
        let sdp = p.sdp_relaxation(&lb, &ub);
        let res = sdp_solve(&sdp, &SdpOptions::default());
        if res.status == SdpStatus::Optimal {
            let obj = res.obj;
            if best.is_none_or(|b| obj > b) {
                best = Some(obj);
            }
        }
    }
    best
}

fn check(p: MisdpProblem, tol: f64) {
    let expected = brute_force(&p).expect("oracle must find a feasible assignment");
    for approach in [Approach::Sdp, Approach::Lp] {
        let res = MisdpSolver::new(p.clone(), approach, ugrs_cip::Settings::default()).solve();
        let obj = res.best_obj.unwrap_or(f64::NEG_INFINITY);
        assert!(
            (obj - expected).abs() < tol,
            "{:?} on {}: {obj} vs oracle {expected}",
            approach,
            p.name
        );
        assert!(p.is_feasible(res.y.as_ref().unwrap(), 1e-4));
        // A node pruned on LP numerical trouble is pruned without proof.
        assert_eq!(res.stats.lp_numerical, 0, "{:?} on {}", approach, p.name);
    }
    let par = ug_solve_misdp(&p, ParallelOptions { num_solvers: 2, ..Default::default() });
    assert!(par.solved, "{}", p.name);
    let pobj = par.best_obj.unwrap();
    assert!((pobj - expected).abs() < tol, "parallel {pobj} vs oracle {expected}");
}

#[test]
fn ttd_small_exact() {
    check(truss_topology(3, 6, 11), 1e-3);
}

#[test]
fn cls_small_exact() {
    check(cardinality_ls(5, 2, 12), 1e-3);
}

#[test]
fn mkp_small_exact() {
    check(min_k_partitioning(4, 2, 13), 1e-3);
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
