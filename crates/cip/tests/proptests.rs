//! Property tests: the CIP branch-and-cut solver against brute-force
//! enumeration on random binary programs, plus structural invariants.

use proptest::prelude::*;
use ugrs_cip::{Emphasis, Model, NodeDesc, Settings, SolveStatus, Solver, VarType};

/// `PROPTEST_CASES` when it is set, else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `(lhs, rhs, sparse coefficients)` of a generated row.
type RandomRow = (f64, f64, Vec<(usize, f64)>);

#[derive(Clone, Debug)]
struct RandomBip {
    nvars: usize,
    obj: Vec<f64>,
    rows: Vec<RandomRow>,
}

fn random_bip() -> impl Strategy<Value = RandomBip> {
    (2usize..8, 1usize..5).prop_flat_map(|(nvars, nrows)| {
        let obj = prop::collection::vec(-5.0f64..5.0, nvars);
        let row =
            (prop::collection::vec((0..nvars, -4.0f64..4.0), 1..=nvars), -6.0f64..0.0, 0.0f64..6.0);
        let rows = prop::collection::vec(row, nrows);
        (obj, rows).prop_map(move |(obj, rows)| RandomBip {
            nvars,
            obj,
            rows: rows.into_iter().map(|(t, l, r)| (l, r, t)).collect(),
        })
    })
}

fn build(bip: &RandomBip) -> Model {
    let mut m = Model::new("prop");
    let vars: Vec<_> =
        bip.obj.iter().map(|&c| m.add_var("x", VarType::Binary, 0.0, 1.0, c)).collect();
    for (lhs, rhs, terms) in &bip.rows {
        let t: Vec<_> = terms.iter().map(|&(j, c)| (vars[j], c)).collect();
        m.add_linear(*lhs, *rhs, &t);
    }
    m
}

/// Exhaustive oracle: best objective (minimization) or None if infeasible.
fn brute_force(bip: &RandomBip) -> Option<f64> {
    let n = bip.nvars;
    let mut best: Option<f64> = None;
    'outer: for mask in 0u32..(1 << n) {
        let x: Vec<f64> = (0..n).map(|j| ((mask >> j) & 1) as f64).collect();
        for (lhs, rhs, terms) in &bip.rows {
            let a: f64 = terms.iter().map(|&(j, c)| c * x[j]).sum();
            if a < lhs - 1e-9 || a > rhs + 1e-9 {
                continue 'outer;
            }
        }
        let obj: f64 = bip.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
        if best.is_none_or(|b| obj < b) {
            best = Some(obj);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    #[test]
    fn solver_matches_brute_force(bip in random_bip()) {
        let model = build(&bip);
        let res = model.optimize(Settings::default());
        // Every processed node is closed with exactly one outcome.
        prop_assert_eq!(res.stats.node_outcomes.iter().sum::<u64>(), res.stats.nodes);
        match brute_force(&bip) {
            None => prop_assert_eq!(res.status, SolveStatus::Infeasible),
            Some(expected) => {
                prop_assert_eq!(res.status, SolveStatus::Optimal);
                let got = res.best_obj.unwrap();
                prop_assert!((got - expected).abs() < 1e-6,
                    "solver {} vs brute force {}", got, expected);
                // The reported solution must actually be feasible.
                prop_assert!(model.check_solution(res.best_x.as_ref().unwrap(), 1e-6));
                // Proven bound must close onto the optimum.
                prop_assert!((res.dual_bound - expected).abs() < 1e-6);
            }
        }
    }

    /// Every emphasis preset (presolve, separation and heuristic
    /// schedules, depth-first search under `Feasibility`) reaches the same
    /// verdict and optimum.
    #[test]
    fn all_emphases_agree(bip in random_bip()) {
        let model = build(&bip);
        let mut objs = Vec::new();
        for e in Emphasis::ALL {
            let res = model.optimize(Settings::default().with_emphasis(e));
            prop_assert_eq!(res.stats.node_outcomes.iter().sum::<u64>(), res.stats.nodes);
            objs.push((res.status, res.best_obj));
        }
        for w in objs.windows(2) {
            prop_assert_eq!(w[0].0, w[1].0);
            match (w[0].1, w[1].1) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-6),
                (None, None) => {}
                _ => prop_assert!(false, "inconsistent solutions"),
            }
        }
    }

    #[test]
    fn subproblem_union_covers_root(bip in random_bip()) {
        // Branch manually on variable 0: min over the two subproblems
        // must equal the root optimum.
        let model = build(&bip);
        let root = model.optimize(Settings::default());
        let mut objs = Vec::new();
        for v in [0.0, 1.0] {
            let desc = NodeDesc {
                bound_changes: vec![ugrs_cip::tree::BoundChange {
                    var: ugrs_cip::VarId(0),
                    lb: v,
                    ub: v,
                }],
                depth: 1,
                dual_bound: f64::NEG_INFINITY,
            };
            let mut solver = Solver::new(build(&bip), Settings::default());
            let res = solver.solve_subproblem(&desc, &mut ugrs_cip::NoHooks);
            if let Some(o) = res.best_obj {
                objs.push(o);
            }
        }
        match root.best_obj {
            Some(r) => {
                let best_child = objs.iter().cloned().fold(f64::INFINITY, f64::min);
                prop_assert!((r - best_child).abs() < 1e-6,
                    "root {} vs best child {}", r, best_child);
            }
            None => prop_assert!(objs.is_empty()),
        }
    }
}
