//! Property tests for the simplex engine.
//!
//! The strongest oracle-free check for an LP solver is the KKT system:
//! a claimed optimum must be primal feasible, its duals must be dual
//! feasible, and complementary slackness must hold. On top of that we
//! check warm-started dual simplex re-solves against fresh solves.

use proptest::prelude::*;
use ugrs_lp::{LpProblem, LpStatus, Simplex, SimplexParams, VarId, VarStatus, OPT_TOL};

const TOL: f64 = 1e-5;

/// `PROPTEST_CASES` when it is set, else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `(lhs, rhs, sparse coefficients)` of a generated row.
type RandomRow = (f64, f64, Vec<(usize, f64)>);

#[derive(Clone, Debug)]
struct RandomLp {
    nvars: usize,
    lb: Vec<f64>,
    ub: Vec<f64>,
    obj: Vec<f64>,
    rows: Vec<RandomRow>,
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (2usize..6, 1usize..6).prop_flat_map(|(nvars, nrows)| {
        let bounds = prop::collection::vec((-5.0f64..0.0, 0.0f64..5.0), nvars);
        let obj = prop::collection::vec(-3.0f64..3.0, nvars);
        let row =
            (-8.0f64..0.0, 0.0f64..8.0, prop::collection::vec((0..nvars, -3.0f64..3.0), 1..=nvars));
        let rows = prop::collection::vec(row, nrows);
        (bounds, obj, rows).prop_map(move |(bounds, obj, rows)| RandomLp {
            nvars,
            lb: bounds.iter().map(|b| b.0).collect(),
            ub: bounds.iter().map(|b| b.1).collect(),
            obj,
            rows,
        })
    })
}

fn build(lp: &RandomLp) -> LpProblem {
    let mut p = LpProblem::new();
    let vars: Vec<VarId> =
        (0..lp.nvars).map(|j| p.add_var(lp.lb[j], lp.ub[j], lp.obj[j])).collect();
    for (lhs, rhs, terms) in &lp.rows {
        let t: Vec<(VarId, f64)> = terms.iter().map(|&(j, c)| (vars[j], c)).collect();
        p.add_row(*lhs, *rhs, &t);
    }
    p
}

/// Checks the KKT conditions of a claimed optimal solution.
fn assert_kkt(p: &LpProblem, sol: &ugrs_lp::LpSolution) {
    // Primal feasibility.
    assert!(p.is_feasible(&sol.x, TOL), "primal infeasible: {:?}", sol.x);
    // Dual feasibility + complementary slackness per variable:
    // reduced cost d_j >= -tol if x_j at lower, <= tol if at upper,
    // |d_j| <= tol if strictly between bounds.
    for j in 0..p.num_vars() {
        let v = VarId(j as u32);
        let (lb, ub) = p.bounds(v);
        let x = sol.x[j];
        let d = sol.reduced_costs[j];
        let at_lb = (x - lb).abs() < 1e-6;
        let at_ub = (ub - x).abs() < 1e-6;
        if at_lb && at_ub {
            continue; // fixed: any sign ok
        }
        if at_lb {
            assert!(d >= -TOL, "var {j}: at lower but reduced cost {d}");
        } else if at_ub {
            assert!(d <= TOL, "var {j}: at upper but reduced cost {d}");
        } else {
            assert!(d.abs() <= TOL, "var {j}: interior but reduced cost {d}");
        }
    }
    // Per-row dual sign + complementary slackness:
    // y_i > 0 only if activity at lhs... sign convention: reduced cost
    // d = c - A'y; for a row with activity strictly inside (lhs, rhs), y_i = 0.
    for r in 0..p.num_rows() {
        let (lhs, rhs) = p.row_sides(ugrs_lp::RowId(r as u32));
        let a = p.row_activity(ugrs_lp::RowId(r as u32), &sol.x);
        let y = sol.row_duals[r];
        let at_lhs = !LpProblem::is_neg_inf(lhs) && (a - lhs).abs() < 1e-6;
        let at_rhs = !LpProblem::is_pos_inf(rhs) && (rhs - a).abs() < 1e-6;
        if !at_lhs && !at_rhs {
            assert!(y.abs() <= TOL, "row {r}: slack but dual {y}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    #[test]
    fn optimal_solutions_satisfy_kkt(lp in random_lp()) {
        let p = build(&lp);
        let sol = p.solve();
        match sol.status {
            LpStatus::Optimal => assert_kkt(&p, &sol),
            LpStatus::Infeasible => {
                // Sanity: the all-zero point must indeed violate something
                // (zero is within all variable bounds by construction).
                let zeros = vec![0.0; p.num_vars()];
                prop_assert!(!p.is_feasible(&zeros, 1e-9));
            }
            LpStatus::Unbounded => {
                // All variables are boxed, so unbounded must never happen.
                prop_assert!(false, "boxed LP cannot be unbounded");
            }
            other => prop_assert!(false, "unexpected status {other:?}"),
        }
    }

    #[test]
    fn dual_warm_start_matches_fresh_solve(lp in random_lp(), tighten in 0.0f64..1.0) {
        let p = build(&lp);
        let mut s = Simplex::new(p.clone(), SimplexParams::default());
        if s.solve_primal() != LpStatus::Optimal {
            return Ok(());
        }
        // Branch-like tightening: halve the range of variable 0.
        let (lb, ub) = p.bounds(VarId(0));
        let mid = lb + tighten * (ub - lb);
        s.set_var_bounds(VarId(0), lb, mid);
        let st_warm = s.solve_dual();

        let mut p2 = p.clone();
        p2.set_bounds(VarId(0), lb, mid);
        let fresh = p2.solve();
        prop_assert_eq!(st_warm, fresh.status);
        if st_warm == LpStatus::Optimal {
            prop_assert!((s.obj_value() - fresh.obj).abs() < 1e-5,
                "warm {} vs fresh {}", s.obj_value(), fresh.obj);
        }
    }

    #[test]
    fn added_rows_warm_start_matches_fresh(lp in random_lp()) {
        let p = build(&lp);
        let mut s = Simplex::new(p.clone(), SimplexParams::default());
        if s.solve_primal() != LpStatus::Optimal {
            return Ok(());
        }
        // Add the "cut" x_0 + x_1 <= 1 (random-ish but deterministic).
        let terms = [(VarId(0), 1.0), (VarId(1), 1.0)];
        s.add_row(f64::NEG_INFINITY, 1.0, &terms);
        let st_warm = s.solve_dual();

        let mut p2 = p.clone();
        p2.add_row(f64::NEG_INFINITY, 1.0, &terms);
        let fresh = p2.solve();
        prop_assert_eq!(st_warm, fresh.status);
        if st_warm == LpStatus::Optimal {
            prop_assert!((s.obj_value() - fresh.obj).abs() < 1e-5);
        }
    }

    #[test]
    fn objective_never_above_any_feasible_point(lp in random_lp()) {
        // The optimum must be <= the objective of the "resting point"
        // whenever that point happens to be feasible.
        let p = build(&lp);
        let sol = p.solve();
        if sol.status != LpStatus::Optimal {
            return Ok(());
        }
        let zeros = vec![0.0; p.num_vars()];
        if p.is_feasible(&zeros, 1e-9) {
            prop_assert!(sol.obj <= p.obj_value(&zeros) + TOL);
        }
    }
}

// ---------------------------------------------------------------------
// Steiner-shaped LPs, driven the way branch-and-cut drives the simplex
// ---------------------------------------------------------------------

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugrs_lp::LpSolution;

/// The LP relaxation of a directed-cut Steiner model on a random graph:
/// arc variables `y_a ∈ [0,1]`, node variables `z_v ∈ [0,1]` for the
/// non-terminals, in-degree equalities (`= 0` at the root, `= 1` at a
/// terminal, `= z_v` elsewhere), flow balance `y(δ⁺(v)) ≥ z_v`, and unit
/// cut rows `y(δ⁻(W)) ≥ 1` added later. Unit costs make it as degenerate
/// as the real thing.
struct SteinerLp {
    nodes: usize,
    /// `(tail, head)` of arc variable `a`.
    arcs: Vec<(usize, usize)>,
    terminals: Vec<usize>,
    lp: LpProblem,
}

impl SteinerLp {
    fn new(nodes: usize, unit_costs: bool, rng: &mut SmallRng) -> Self {
        // A random spanning tree plus ~1.5·nodes extra edges, both directions.
        let mut edges: Vec<(usize, usize)> = (1..nodes).map(|v| (rng.gen_range(0..v), v)).collect();
        while edges.len() < 5 * nodes / 2 {
            let (u, v) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            if u != v && !edges.contains(&(u, v)) && !edges.contains(&(v, u)) {
                edges.push((u, v));
            }
        }
        let arcs: Vec<(usize, usize)> = edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        let mut is_terminal = vec![false; nodes];
        is_terminal[0] = true; // the root
        while is_terminal.iter().filter(|t| **t).count() < (nodes / 6).max(3) {
            is_terminal[rng.gen_range(0..nodes)] = true;
        }
        let mut lp = LpProblem::new();
        let y: Vec<VarId> = arcs
            .iter()
            .map(|_| lp.add_var(0.0, 1.0, if unit_costs { 1.0 } else { rng.gen_range(1.0..2.0) }))
            .collect();
        for (v, &terminal) in is_terminal.iter().enumerate() {
            let into =
                |w| y.iter().zip(&arcs).filter(move |(_, a)| a.1 == w).map(|(&id, _)| (id, 1.0));
            let out_of =
                |w| y.iter().zip(&arcs).filter(move |(_, a)| a.0 == w).map(|(&id, _)| (id, 1.0));
            if terminal {
                let indeg = if v == 0 { 0.0 } else { 1.0 };
                lp.add_row(indeg, indeg, &into(v).collect::<Vec<_>>());
            } else {
                let z = lp.add_var(0.0, 1.0, 0.0);
                lp.add_row(0.0, 0.0, &into(v).chain([(z, -1.0)]).collect::<Vec<_>>());
                lp.add_row(0.0, f64::INFINITY, &out_of(v).chain([(z, -1.0)]).collect::<Vec<_>>());
            }
        }
        let terminals = (1..nodes).filter(|&v| is_terminal[v]).collect();
        SteinerLp { nodes, arcs, terminals, lp }
    }

    /// One separation round at `x`: for every terminal the root does not
    /// reach over arcs with `x_a > 0`, the violated cut `y(δ⁻(W)) ≥ 1`
    /// with `W` the nodes that reach it; at most `limit` of them.
    fn separate(&self, x: &[f64], limit: usize) -> Vec<Vec<(VarId, f64)>> {
        let reach = |start: usize, forward: bool| {
            let mut seen = vec![false; self.nodes];
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(v) = stack.pop() {
                for (a, &(tail, head)) in self.arcs.iter().enumerate() {
                    let (from, to) = if forward { (tail, head) } else { (head, tail) };
                    if from == v && !seen[to] && x[a] > 1e-9 {
                        seen[to] = true;
                        stack.push(to);
                    }
                }
            }
            seen
        };
        let from_root = reach(0, true);
        let mut cuts: Vec<Vec<(VarId, f64)>> = Vec::new();
        for &t in self.terminals.iter().filter(|&&t| !from_root[t]) {
            let w = reach(t, false);
            let cut: Vec<(VarId, f64)> = (0..self.arcs.len())
                .filter(|&a| !w[self.arcs[a].0] && w[self.arcs[a].1])
                .map(|a| (VarId(a as u32), 1.0))
                .collect();
            if !cuts.contains(&cut) && cuts.len() < limit {
                cuts.push(cut);
            }
        }
        cuts
    }
}

/// The stalls the pivot rules allow on LPs this degenerate are not what
/// these tests are about: a solve that needs more than this many
/// iterations ends the case.
const SHAPE_ITER_LIMIT: usize = 5_000;

/// The warm-started `s` against a cold solve of the same problem: the
/// same status and, when optimal, the same objective to `rel_tol`
/// relative, and the KKT conditions. `None` when there is no optimum to
/// carry into the next round.
fn assert_matches_cold_solve(
    s: &mut Simplex,
    warm: LpStatus,
    rel_tol: f64,
) -> Result<Option<LpSolution>, TestCaseError> {
    let p = s.problem().clone();
    let mut cold = Simplex::new(p.clone(), shape_params());
    let cold_status = cold.solve_primal();
    if warm == LpStatus::IterLimit || cold_status == LpStatus::IterLimit {
        return Ok(None);
    }
    prop_assert_eq!(warm, cold_status);
    if warm != LpStatus::Optimal {
        return Ok(None);
    }
    let sol = s.extract_solution();
    let cold_obj = cold.obj_value();
    prop_assert!(
        (sol.obj - cold_obj).abs() <= rel_tol * (1.0 + cold_obj.abs()),
        "warm {} vs cold {}",
        sol.obj,
        cold_obj
    );
    assert_kkt(&p, &sol);
    Ok(Some(sol))
}

fn shape_params() -> SimplexParams {
    SimplexParams { iter_limit: SHAPE_ITER_LIMIT }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// m = 100–300 rows and the usage pattern of `cip::Solver`: a cold
    /// primal solve, then rounds of cut rows + dual simplex and of
    /// branching bounds + dual simplex, each checked against a cold solve.
    /// In debug builds every dual iteration also checks the incrementally
    /// updated reduced costs against `c − AᵀB⁻ᵀc_B` from scratch, and the
    /// row-wise pivot row bit for bit against the column-wise `ρᵀa_j`.
    #[test]
    fn steiner_shaped_lp_through_cut_and_branch_rounds(
        seed in any::<u64>(),
        nodes in 55usize..150,
        unit_costs in any::<bool>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let model = SteinerLp::new(nodes, unit_costs, &mut rng);
        prop_assert!((100..=300).contains(&model.lp.num_rows()));
        let mut s = Simplex::new(model.lp.clone(), shape_params());
        let st = s.solve_primal();
        let Some(mut sol) = assert_matches_cold_solve(&mut s, st, 1e-7)? else {
            return Err(TestCaseError::fail("the cut-free relaxation has an optimum"));
        };
        let mut solves = 1;
        for round in 0..24 {
            let cuts = model.separate(&sol.x, 8);
            if round % 3 != 2 && !cuts.is_empty() {
                // A separation round, as one batch of rows or row by row.
                if round % 2 == 0 {
                    s.add_rows(cuts.iter().map(|c| (1.0, f64::INFINITY, &c[..])));
                } else {
                    for c in &cuts {
                        s.add_row(1.0, f64::INFINITY, c);
                    }
                }
            } else {
                // A branching step on the most fractional arc (any arc
                // if the point is integral).
                let frac = |a: &usize| (sol.x[*a] - 0.5).abs();
                let a = (0..model.arcs.len()).min_by(|p, q| frac(p).total_cmp(&frac(q))).unwrap();
                let side = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
                s.set_var_bounds(VarId(a as u32), side, side);
            }
            let st = s.solve_dual();
            solves += 1;
            match assert_matches_cold_solve(&mut s, st, 1e-7)? {
                Some(next) => sol = next,
                None => break, // branched into an infeasible subproblem, or stalled
            }
        }
        prop_assert!(solves > 3, "only {solves} solves");
        // The duals are carried from pivot to pivot: one BTRAN per pivot,
        // not two, plus one per refactorization and up to two per solve
        // (the duals the optimal basis was priced with are the solution's).
        let c = *s.counters();
        let pivots = c.dual_pivots + c.primal_pivots;
        prop_assert!(c.btrans <= pivots + pivots / 4 + c.refactors + 2 * solves, "{c:?}");
    }
}

// ---------------------------------------------------------------------
// The dual simplex's cost perturbation
// ---------------------------------------------------------------------

/// `solve_dual` pivots on perturbed costs; what it returns must be
/// optimal for the true ones: [`assert_matches_cold_solve`] at 1e-9
/// relative, and every nonbasic non-fixed structural column's reduced
/// cost under the unperturbed costs with the sign its bound asks for,
/// within `OPT_TOL`.
fn assert_optimal_for_true_costs(
    s: &mut Simplex,
    warm: LpStatus,
) -> Result<Option<LpSolution>, TestCaseError> {
    let Some(sol) = assert_matches_cold_solve(s, warm, 1e-9)? else {
        return Ok(None);
    };
    let p = s.problem();
    let status = s.basis_snapshot().col_status;
    for (j, (&st, &d)) in status.iter().zip(&sol.reduced_costs).enumerate() {
        let v = VarId(j as u32);
        let (lb, ub) = p.bounds(v);
        let right_sign = match st {
            _ if lb == ub => continue,
            VarStatus::Basic => continue,
            VarStatus::AtLower => d >= -OPT_TOL,
            VarStatus::AtUpper => d <= OPT_TOL,
            VarStatus::Free => d.abs() <= OPT_TOL,
        };
        prop_assert!(right_sign, "column {j} ({st:?}, c = {}): reduced cost {d}", p.obj_coef(v));
    }
    Ok(Some(sol))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    /// A branching bound and a cut on a boxed LP, re-solved warm.
    #[test]
    fn perturbed_dual_solve_is_optimal_for_the_true_costs(
        lp in random_lp(),
        tighten in 0.0f64..1.0,
    ) {
        let p = build(&lp);
        let mut s = Simplex::new(p.clone(), shape_params());
        if s.solve_primal() != LpStatus::Optimal {
            return Ok(());
        }
        let (lb, ub) = p.bounds(VarId(0));
        s.set_var_bounds(VarId(0), lb, lb + tighten * (ub - lb));
        let st = s.solve_dual();
        if assert_optimal_for_true_costs(&mut s, st)?.is_none() {
            return Ok(());
        }
        s.add_row(f64::NEG_INFINITY, 1.0, &[(VarId(0), 1.0), (VarId(1), 1.0)]);
        let st = s.solve_dual();
        assert_optimal_for_true_costs(&mut s, st)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Cut rounds on a Steiner-shaped LP, each re-solved warm: the
    /// degenerate LPs the perturbation is for.
    #[test]
    fn perturbed_dual_solve_is_optimal_for_the_true_costs_on_steiner_lps(
        seed in any::<u64>(),
        nodes in 55usize..150,
        unit_costs in any::<bool>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let model = SteinerLp::new(nodes, unit_costs, &mut rng);
        let mut s = Simplex::new(model.lp.clone(), shape_params());
        let st = s.solve_dual();
        let Some(mut sol) = assert_optimal_for_true_costs(&mut s, st)? else {
            return Err(TestCaseError::fail("the cut-free relaxation has an optimum"));
        };
        for _ in 0..8 {
            let cuts = model.separate(&sol.x, 8);
            if cuts.is_empty() {
                break;
            }
            s.add_rows(cuts.iter().map(|c| (1.0, f64::INFINITY, &c[..])));
            let st = s.solve_dual();
            match assert_optimal_for_true_costs(&mut s, st)? {
                Some(next) => sol = next,
                None => break,
            }
        }
    }
}

/// The perturbation is a function of the column index and its cost, not
/// of any state: two fresh solvers driven through the same cut rounds
/// return the same bits.
#[test]
fn perturbed_dual_solves_repeat_bit_for_bit() {
    let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    let mut rng = SmallRng::seed_from_u64(7);
    let model = SteinerLp::new(90, true, &mut rng);
    let run = || {
        let mut s = Simplex::new(model.lp.clone(), shape_params());
        let mut trace = Vec::new();
        let mut st = s.solve_dual();
        for _ in 0..6 {
            let sol = s.extract_solution();
            let cuts = model.separate(&sol.x, 8);
            trace.push((st, bits(&sol.x), bits(&sol.row_duals), sol.iterations));
            if st != LpStatus::Optimal || cuts.is_empty() {
                break;
            }
            s.add_rows(cuts.iter().map(|c| (1.0, f64::INFINITY, &c[..])));
            st = s.solve_dual();
        }
        (trace, *s.counters())
    };
    let (first, second) = (run(), run());
    assert!(first.0.len() >= 3, "only {} solves", first.0.len());
    assert!(first.1.dual_pivots > 0, "{:?}", first.1);
    assert_eq!(first, second);
}
