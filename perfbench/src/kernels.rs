//! Micro-kernels of the solver layers, run on inputs harvested from the
//! manifest instances: the real root LP of a Steiner model (flow-balance
//! rows plus dual-ascent rows), its optimal basis, the cuts of the
//! first separation rounds, and the real root SDP relaxations. No
//! synthetic shapes.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use ugrs_cip::{ConstraintHandler, CutBuffer, Model, Settings, SolveCtx, VarType};
use ugrs_linalg::{CholeskyFactor, LuFactor, Matrix};
use ugrs_lp::basis::BasisFactor;
use ugrs_lp::{LpProblem, LpStatus, Simplex, SimplexParams, VarStatus};
use ugrs_misdp::MisdpProblem;
use ugrs_sdp::{SdpOptions, SdpStatus};
use ugrs_steiner::dualascent::dual_ascent;
use ugrs_steiner::maxflow::MaxFlow;
use ugrs_steiner::plugins::{build_model, DirectedCutHandler};
use ugrs_steiner::reduce::{reduce, ReduceParams};
use ugrs_steiner::sap::SapGraph;
use ugrs_steiner::Graph;

/// Per-layer metric values by name; names absent from the map are
/// reported as 0 (the layer did nothing in this workload).
pub type Metrics = BTreeMap<&'static str, f64>;

/// Microseconds per call of `f`: the median over at least five calls,
/// repeated until ~10 ms have been spent.
pub fn time_us(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < 5 || (t0.elapsed().as_secs_f64() < 0.01 && samples.len() < 200) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Sums of kernel samples that become the `lp.*`, `linalg.lu_*` and
/// `steiner.*` micro metrics.
#[derive(Default)]
struct StpKernelSamples {
    cold_ms: f64,
    pivots: u64,
    warm_us: Vec<f64>,
    refactor_us: Vec<f64>,
    ftran_us: Vec<f64>,
    btran_us: Vec<f64>,
    lu_factor_us: Vec<f64>,
    lu_solve_us: Vec<f64>,
    maxflow_us: Vec<f64>,
    dualascent_ms: f64,
    dualascent_gap_pct: Vec<f64>,
}

/// The root LP the CIP solver builds for a Steiner model: one column
/// per model variable, the model's rows, then the constraint handler's
/// initial (dual-ascent) rows.
fn root_lp(model: &Model, handler: &mut DirectedCutHandler) -> LpProblem {
    let mut lp = LpProblem::new();
    for (_, var) in model.vars() {
        lp.add_var(var.lb, var.ub, var.obj);
    }
    let lp_terms = |terms: &[(ugrs_cip::VarId, f64)]| -> Vec<(ugrs_lp::VarId, f64)> {
        terms.iter().map(|&(v, c)| (ugrs_lp::VarId(v.0), c)).collect()
    };
    for cons in model.conss() {
        lp.add_row(cons.lhs, cons.rhs, &lp_terms(&cons.terms));
    }
    let mut buf = CutBuffer::default();
    handler.init_lp(model, &mut buf);
    for cut in &buf.cuts {
        lp.add_row(cut.lhs, cut.rhs, &lp_terms(&cut.terms));
    }
    lp
}

/// The dense basis matrix of `[A | −I]` for the simplex's final basis.
fn basis_matrix(simplex: &Simplex) -> Matrix {
    let prob = simplex.problem();
    let (n, m) = (prob.num_vars(), prob.num_rows());
    let status = simplex.basis_snapshot().col_status;
    let basic: Vec<usize> = (0..n + m).filter(|&j| status[j] == VarStatus::Basic).collect();
    let mut b = Matrix::zeros(m, m);
    let pos_of: BTreeMap<usize, usize> = basic.iter().enumerate().map(|(p, &j)| (j, p)).collect();
    for r in 0..m {
        for (v, c) in prob.row_coefs(ugrs_lp::RowId(r as u32)) {
            if let Some(&p) = pos_of.get(&(v.0 as usize)) {
                b[(r, p)] = c;
            }
        }
        if let Some(&p) = pos_of.get(&(n + r)) {
            b[(r, p)] = -1.0;
        }
    }
    b
}

fn stp_kernels_one(original: &Graph, reference: f64, s: &mut StpKernelSamples) {
    let mut g = original.clone();
    reduce(&mut g, &ReduceParams::default());
    if g.num_terminals() < 2 {
        return;
    }
    // steiner: dual ascent on the reduced graph, and its bound's gap to
    // the known optimum.
    let sap = SapGraph::from_graph(&g, SapGraph::pick_root(&g));
    let t = Instant::now();
    let da = dual_ascent(&sap, 64);
    s.dualascent_ms += t.elapsed().as_secs_f64() * 1e3;
    let bound = da.bound + g.fixed_cost;
    s.dualascent_gap_pct.push((reference - bound).max(0.0) / reference.abs().max(1e-9) * 100.0);

    // lp: cold solve of the real root LP.
    let (model, data) = build_model(&g);
    let mut handler = DirectedCutHandler::new(data.clone(), true);
    let prob = root_lp(&model, &mut handler);
    let params =
        SimplexParams { iter_limit: Settings::default().lp_iter_limit, ..Default::default() };
    let mut cold = Vec::new();
    let mut simplex = Simplex::new(prob.clone(), params);
    for _ in 0..3 {
        simplex = Simplex::new(prob.clone(), params);
        let t = Instant::now();
        let status = simplex.solve_primal();
        cold.push(t.elapsed().as_secs_f64() * 1e3);
        if status != LpStatus::Optimal {
            return;
        }
    }
    s.cold_ms += median(&cold);
    s.pivots += simplex.total_iterations() as u64;

    // linalg + lp: factor and solve with the optimal root basis.
    let b = basis_matrix(&simplex);
    let m = b.rows();
    let rhs: Vec<f64> = (0..m).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
    let mut factor = BasisFactor::new(m);
    if factor.refactor(&b).is_err() {
        return;
    }
    s.refactor_us.push(time_us(|| {
        let _ = black_box(factor.refactor(black_box(&b)));
    }));
    s.ftran_us.push(time_us(|| {
        black_box(factor.ftran(black_box(&rhs)));
    }));
    s.btran_us.push(time_us(|| {
        black_box(factor.btran(black_box(&rhs)));
    }));
    s.lu_factor_us.push(time_us(|| {
        let _ = black_box(LuFactor::new(black_box(&b)));
    }));
    if let Ok(lu) = LuFactor::new(&b) {
        s.lu_solve_us.push(time_us(|| {
            let _ = black_box(lu.solve(black_box(&rhs)));
        }));
    }

    // steiner + lp: separation rounds at the LP optimum — max-flow per
    // sink, then add the round's cuts and re-solve with the dual simplex.
    let lb: Vec<f64> = model.vars().map(|(_, v)| v.lb).collect();
    let ub: Vec<f64> = model.vars().map(|(_, v)| v.ub).collect();
    for _round in 0..4 {
        let sol = simplex.extract_solution();
        for sink in data.sap.sinks() {
            let t = Instant::now();
            let mut mf = MaxFlow::new(data.sap.n);
            for (ai, arc) in data.sap.arcs.iter().enumerate() {
                let cap = sol.x[data.arc_var[ai].0 as usize].max(0.0);
                mf.add_arc(arc.tail as usize, arc.head as usize, cap);
            }
            black_box(mf.max_flow(data.root, sink, 1.0));
            s.maxflow_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let mut cuts = CutBuffer::default();
        let mut tightenings = Vec::new();
        {
            let mut ctx = SolveCtx {
                model: &model,
                depth: 0,
                local_lb: &lb,
                local_ub: &ub,
                relax_x: Some(&sol.x),
                relax_obj: Some(sol.obj),
                incumbent_obj: None,
                incumbent_x: None,
                reduced_costs: &sol.reduced_costs,
                cuts: &mut cuts,
                tightenings: &mut tightenings,
                seed: 0,
            };
            handler.separate(&mut ctx);
        }
        if cuts.is_empty() {
            break;
        }
        let t = Instant::now();
        for cut in &cuts.cuts {
            let terms: Vec<(ugrs_lp::VarId, f64)> =
                cut.terms.iter().map(|&(v, c)| (ugrs_lp::VarId(v.0), c)).collect();
            simplex.add_row(cut.lhs, cut.rhs, &terms);
        }
        let status = simplex.solve_dual();
        s.warm_us.push(t.elapsed().as_secs_f64() * 1e6);
        if status != LpStatus::Optimal {
            break;
        }
    }
}

/// `lp.*`, `linalg.lu_*` and the `steiner.*` micro metrics over the
/// given STP instances (with their reference optima).
pub fn stp_kernels(instances: &[(&Graph, f64)], out: &mut Metrics) {
    let mut s = StpKernelSamples::default();
    let t0 = Instant::now();
    for (g, reference) in instances {
        stp_kernels_one(g, *reference, &mut s);
    }
    let cold_s = s.cold_ms / 1e3;
    out.insert("lp.cold_solve_ms", s.cold_ms);
    out.insert("lp.pivots", s.pivots as f64);
    out.insert("lp.pivots_per_s", if cold_s > 0.0 { s.pivots as f64 / cold_s } else { 0.0 });
    out.insert("lp.warm_resolve_us", median_or_zero(&s.warm_us));
    out.insert("lp.refactor_us", median_or_zero(&s.refactor_us));
    out.insert("lp.ftran_us", median_or_zero(&s.ftran_us));
    out.insert("lp.btran_us", median_or_zero(&s.btran_us));
    out.insert("linalg.lu_factor_us", median_or_zero(&s.lu_factor_us));
    out.insert("linalg.lu_solve_us", median_or_zero(&s.lu_solve_us));
    out.insert("steiner.maxflow_us", median_or_zero(&s.maxflow_us));
    out.insert("steiner.dualascent_ms", s.dualascent_ms);
    out.insert("steiner.dualascent_gap_pct", mean_or_zero(&s.dualascent_gap_pct));
    eprintln!("  stp kernels: {:.2} s", t0.elapsed().as_secs_f64());
}

/// `sdp.newton_iters`, `linalg.eigen_us`, `linalg.cholesky_us` over the
/// root SDP relaxations of the given MISDP instances.
pub fn misdp_kernels(problems: &[&MisdpProblem], out: &mut Metrics) {
    let t0 = Instant::now();
    let (mut newton, mut root_ms) = (0u64, 0.0);
    let (mut eigen_us, mut chol_us) = (Vec::new(), Vec::new());
    for p in problems {
        let sdp = p.sdp_relaxation(&p.lb, &p.ub);
        let t = Instant::now();
        let res = ugrs_sdp::solve(&sdp, &SdpOptions::default());
        root_ms += t.elapsed().as_secs_f64() * 1e3;
        newton += res.iterations as u64;
        if res.status != SdpStatus::Optimal {
            continue;
        }
        // The slack matrices at the root optimum: what the eigenvector
        // separation decomposes and the barrier factors.
        for block in &p.blocks {
            let z = block.slack(&res.y);
            eigen_us.push(time_us(|| {
                let _ = black_box(ugrs_linalg::eigen::symmetric_eigen(black_box(&z)));
            }));
            chol_us.push(time_us(|| {
                let _ = black_box(CholeskyFactor::new_shifted(black_box(&z), 1e-9, 1e-2));
            }));
        }
    }
    out.insert("sdp.newton_iters", newton as f64);
    out.insert("sdp.root_solve_ms", root_ms);
    out.insert("linalg.eigen_us", median_or_zero(&eigen_us));
    out.insert("linalg.cholesky_us", median_or_zero(&chol_us));
    eprintln!("  misdp kernels: {:.2} s", t0.elapsed().as_secs_f64());
}

/// `cip.plain_mip_ms`: a plugin-free `Model` — a fixed multi-row
/// knapsack — solved by the framework's default plugins alone.
pub fn plain_mip(out: &mut Metrics) {
    let mut m = Model::new("plain-knapsack");
    m.set_maximize();
    // Deterministic coefficients (a linear congruential sequence).
    let mut state = 12345u64;
    let mut next = |modulus: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % modulus
    };
    let vars: Vec<_> = (0..28)
        .map(|_| {
            let profit = 10 + next(40);
            m.add_var("x", VarType::Binary, 0.0, 1.0, profit as f64)
        })
        .collect();
    for _ in 0..6 {
        let terms: Vec<_> = vars.iter().map(|&v| (v, (5 + next(30)) as f64)).collect();
        let cap: f64 = terms.iter().map(|t| t.1).sum::<f64>() * 0.4;
        m.add_linear(f64::NEG_INFINITY, cap.floor(), &terms);
    }
    let mut times = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let res = m.optimize(Settings::default());
        times.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(res.status, ugrs_cip::SolveStatus::Optimal, "plain MIP must solve");
    }
    out.insert("cip.plain_mip_ms", median(&times));
}

pub fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

pub fn mean_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
