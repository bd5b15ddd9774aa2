//! The barrier solver: damped-Newton log-det barrier maximization with a
//! phase-1 feasibility search and the penalty formulation of §3.2.
//!
//! The coefficient matrices the MISDP generators produce are tiny: one
//! diagonal entry (CLS `zᵢ`), two off-diagonal entries (MkP), rank one
//! (TTD), `−I` (CLS `t`, the penalty variable). The working form keeps
//! each `Aᵢ` as its nonzeros, and a dense `Aᵢ` that is `σ g gᵀ` also as
//! `(σ, g)`, and assembles the Newton system from one inverse `W = S⁻¹`
//! per block, after Fujisawa–Kojima–Nakata: `∂ᵢ log det S = −⟨W, Aᵢ⟩` and
//! `−∂ᵢ∂ⱼ log det S = ⟨W Aᵢ W, Aⱼ⟩`, by a formula chosen per pair of shapes.

use crate::problem::{SdpBlock, SdpProblem};
use ugrs_linalg::vector::{axpy, dot};
use ugrs_linalg::{CholeskyFactor, Matrix};

/// Solver knobs.
#[derive(Clone, Copy, Debug)]
pub struct SdpOptions {
    /// Target duality-gap estimate (ν / t).
    pub tol: f64,
    /// Barrier parameter growth factor.
    pub mu: f64,
    /// Initial barrier parameter.
    pub t0: f64,
    /// Newton iterations per centering step.
    pub max_newton: usize,
    /// Penalty coefficient Γ for [`solve_penalty`].
    pub penalty_gamma: f64,
}

impl Default for SdpOptions {
    fn default() -> Self {
        SdpOptions { tol: 1e-7, mu: 10.0, t0: 1.0, max_newton: 60, penalty_gamma: 1e5 }
    }
}

/// Termination status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SdpStatus {
    Optimal,
    Infeasible,
    /// The barrier diverged towards unbounded objective.
    Unbounded,
    /// Numerical failure; the result values are unreliable. For B&B use,
    /// retry via [`solve_penalty`] (the SCIP-SDP penalty approach).
    Numerical,
}

/// Solve output.
#[derive(Clone, Debug)]
pub struct SdpResult {
    pub status: SdpStatus,
    pub y: Vec<f64>,
    /// `bᵀy` of the returned point.
    pub obj: f64,
    /// The penalty variable's value when the penalty formulation was
    /// used (`None` for plain solves).
    pub penalty_z: Option<f64>,
    /// Newton iterations spent.
    pub iterations: usize,
    /// Times [`solve`] fell back to the penalty formulation because phase
    /// 1 ended without a strictly feasible point (0 or 1).
    pub fallbacks: usize,
}

const BOUND_INF: f64 = 1e8;

/// How the Newton system treats a coefficient matrix `Aᵢ`.
#[derive(Clone, Debug, PartialEq)]
enum Shape {
    /// At most `dim` nonzeros.
    Sparse,
    /// More than `dim` nonzeros, equal to `σ g gᵀ` (see [`rank_one`]).
    RankOne { sigma: f64, g: Vec<f64> },
    /// More than `dim` nonzeros, not rank one.
    Dense,
}

/// `(σ, g)` with `σ = ±1` and `a = σ g gᵀ` entry by entry to `1e-13` of
/// `a`'s largest entry, or `None`. `g` is the column of the largest
/// diagonal entry `a_kk`, scaled by `1/√|a_kk|`.
fn rank_one(a: &Matrix) -> Option<(f64, Vec<f64>)> {
    let n = a.rows();
    let k = (0..n).max_by(|&p, &q| a[(p, p)].abs().total_cmp(&a[(q, q)].abs()))?;
    let pivot = a[(k, k)];
    if pivot == 0.0 {
        return None;
    }
    let sigma = pivot.signum();
    let scale = pivot.abs().sqrt();
    let g: Vec<f64> = (0..n).map(|p| a[(p, k)] / scale).collect();
    let tol = 1e-13 * a.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let fits = (0..n).all(|p| (0..n).all(|q| (a[(p, q)] - sigma * g[p] * g[q]).abs() <= tol));
    fits.then_some((sigma, g))
}

/// One coefficient matrix `Aᵢ` of a working block, as its nonzeros.
#[derive(Clone)]
struct Term {
    var: usize,
    /// Position of `var` among the free variables (`None`: fixed).
    free: Option<usize>,
    /// `(p, q, a)` for every `Aᵢ[p][q] = a ≠ 0`, both triangles.
    entries: Vec<(usize, usize, f64)>,
    shape: Shape,
}

impl Term {
    /// `⟨M, Aᵢ⟩`.
    fn inner(&self, m: &Matrix) -> f64 {
        self.entries.iter().map(|&(p, q, a)| a * m[(p, q)]).sum()
    }

    /// `uᵀ Aᵢ u`.
    fn quad(&self, u: &[f64]) -> f64 {
        self.entries.iter().map(|&(p, q, a)| a * u[p] * u[q]).sum()
    }

    /// `⟨W Aᵢ W, Aⱼ⟩ = Σ a·b·W[s][p]·W[q][r]` over `Aᵢ`'s nonzeros
    /// `(p, q, a)` and `Aⱼ`'s `(r, s, b)`: `nnzᵢ·nnzⱼ` flops.
    fn pair(&self, other: &Term, w: &Matrix) -> f64 {
        let mut v = 0.0;
        for &(p, q, a) in &self.entries {
            for &(r, s, b) in &other.entries {
                v += a * b * w[(s, p)] * w[(q, r)];
            }
        }
        v
    }

    /// `wiw = W Aᵢ W` for a symmetric `W` as the dense product `W (Aᵢ W)`
    /// (`dim³ + nnz·dim` flops); `aw` is scratch.
    fn sandwich(&self, w: &Matrix, wiw: &mut Matrix, aw: &mut Matrix) {
        wiw.data_mut().fill(0.0);
        aw.data_mut().fill(0.0);
        for &(p, q, a) in &self.entries {
            axpy(a, w.row(q), aw.row_mut(p));
        }
        for r in 0..w.rows() {
            for (p, &wrp) in w.row(r).iter().enumerate() {
                axpy(wrp, aw.row(p), wiw.row_mut(r));
            }
        }
    }
}

/// A PSD block `C − Σ Aᵢ yᵢ ⪰ 0` of the working form.
#[derive(Clone)]
struct Block {
    dim: usize,
    c: Matrix,
    /// In variable order, so that [`Block::slack`] sums exactly like
    /// [`SdpBlock::slack`].
    terms: Vec<Term>,
}

impl Block {
    fn from_dense(blk: &SdpBlock, free_pos: &[Option<usize>]) -> Self {
        let n = blk.dim;
        let terms = blk
            .a
            .iter()
            .enumerate()
            .filter_map(|(var, a)| {
                let a = a.as_ref()?;
                let entries: Vec<_> = (0..n)
                    .flat_map(|p| (0..n).map(move |q| (p, q, a[(p, q)])))
                    .filter(|&(_, _, v)| v != 0.0)
                    .collect();
                let shape = if entries.len() <= n {
                    Shape::Sparse
                } else if let Some((sigma, g)) = rank_one(a) {
                    Shape::RankOne { sigma, g }
                } else {
                    Shape::Dense
                };
                (!entries.is_empty()).then_some(Term { var, free: free_pos[var], entries, shape })
            })
            .collect();
        Block { dim: n, c: blk.c.clone(), terms }
    }

    /// `S(y) = C − Σ Aᵢ yᵢ`, always evaluated from `y` itself.
    fn slack(&self, y: &[f64]) -> Matrix {
        let mut s = self.c.clone();
        for term in &self.terms {
            let v = y[term.var];
            if v != 0.0 {
                for &(p, q, a) in &term.entries {
                    s[(p, q)] -= v * a;
                }
            }
        }
        s
    }

    /// Adds this block's share of the Newton system at `W = S⁻¹`:
    /// `grad_i −= ⟨W, Aᵢ⟩` and `h_ij += ⟨W Aᵢ W, Aⱼ⟩` over its free terms.
    /// With `u = W g` once per rank-one term, a pair with a rank-one
    /// `σ g gᵀ` is `σᵢσⱼ(gᵢᵀuⱼ)²` or `σ uᵀAu`; a dense `Aᵢ` pairs through
    /// its sandwich `W Aᵢ W`, a sparse one through [`Term::pair`].
    fn add_newton_terms(&self, w: &Matrix, grad: &mut [f64], h: &mut Matrix) {
        let free: Vec<(usize, &Term)> =
            self.terms.iter().filter_map(|t| Some((t.free?, t))).collect();
        let us: Vec<Vec<f64>> = free
            .iter()
            .map(|(_, t)| match &t.shape {
                Shape::RankOne { g, .. } => w.matvec(g),
                _ => Vec::new(),
            })
            .collect();
        let (mut wiw, mut aw) =
            (Matrix::zeros(self.dim, self.dim), Matrix::zeros(self.dim, self.dim));
        for (n, &(gi, ti)) in free.iter().enumerate() {
            grad[gi] -= match &ti.shape {
                Shape::RankOne { sigma, g } => sigma * dot(g, &us[n]),
                _ => ti.inner(w),
            };
            if ti.shape == Shape::Dense {
                ti.sandwich(w, &mut wiw, &mut aw);
            }
            // Terms run in variable order, so gj ≥ gi: one triangle, mirrored.
            for (&(gj, tj), uj) in free[n..].iter().zip(&us[n..]) {
                let v = match (&ti.shape, &tj.shape) {
                    (Shape::RankOne { sigma: si, g }, Shape::RankOne { sigma: sj, .. }) => {
                        let d = dot(g, uj);
                        si * sj * d * d
                    }
                    (Shape::RankOne { sigma, .. }, _) => sigma * tj.quad(&us[n]),
                    (_, Shape::RankOne { sigma, .. }) => sigma * ti.quad(uj),
                    (Shape::Dense, _) => tj.inner(&wiw),
                    (Shape::Sparse, _) => ti.pair(tj, w),
                };
                h[(gi, gj)] += v;
                if gi != gj {
                    h[(gj, gi)] += v;
                }
            }
        }
    }
}

/// Internal working form: linear rows folded into 1×1 blocks so that the
/// phase-1 penalty uniformly covers every conic constraint.
struct Work {
    m: usize,
    b: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    blocks: Vec<Block>,
    free: Vec<usize>,
}

impl Work {
    fn from_problem(p: &SdpProblem) -> Self {
        let free: Vec<usize> = (0..p.m).filter(|&i| p.ub[i] - p.lb[i] > 1e-12).collect();
        let mut free_pos = vec![None; p.m];
        for (gi, &i) in free.iter().enumerate() {
            free_pos[i] = Some(gi);
        }
        let mut blocks: Vec<Block> =
            p.blocks.iter().map(|blk| Block::from_dense(blk, &free_pos)).collect();
        let row_block = |c: f64, sign: f64, terms: &[(usize, f64)]| {
            let mut blk = SdpBlock::new(1, p.m);
            blk.c = Matrix::from_diag(&[c]);
            for &(i, a) in terms {
                blk.set_a(i, Matrix::from_diag(&[sign * a]));
            }
            Block::from_dense(&blk, &free_pos)
        };
        for row in &p.lin {
            // aᵀy ≤ rhs  →  1×1 block [rhs − aᵀy] ⪰ 0, and lhs ≤ aᵀy alike.
            if row.rhs < BOUND_INF {
                blocks.push(row_block(row.rhs, 1.0, &row.terms));
            }
            if row.lhs > -BOUND_INF {
                blocks.push(row_block(-row.lhs, -1.0, &row.terms));
            }
        }
        Work { m: p.m, b: p.b.clone(), lb: p.lb.clone(), ub: p.ub.clone(), blocks, free }
    }

    /// Barrier degree of the working form.
    fn nu(&self) -> f64 {
        let mut nu: f64 = self.blocks.iter().map(|b| b.dim as f64).sum();
        for &i in &self.free {
            if self.lb[i] > -BOUND_INF {
                nu += 1.0;
            }
            if self.ub[i] < BOUND_INF {
                nu += 1.0;
            }
        }
        nu.max(1.0)
    }

    /// The Cholesky factor of every block's slack at `y`; `None` unless
    /// `y` is strictly feasible (bounds first: they cost nothing).
    fn factor(&self, y: &[f64]) -> Option<Vec<CholeskyFactor>> {
        for &i in &self.free {
            if self.lb[i] > -BOUND_INF && y[i] <= self.lb[i] {
                return None;
            }
            if self.ub[i] < BOUND_INF && y[i] >= self.ub[i] {
                return None;
            }
        }
        self.blocks.iter().map(|b| CholeskyFactor::new(&b.slack(y)).ok()).collect()
    }

    /// Strict feasibility (blocks PD, bounds strict) at `y`.
    fn strictly_feasible(&self, y: &[f64]) -> bool {
        self.factor(y).is_some()
    }

    /// Barrier objective `t·bᵀy + Σ log det S + Σ log slacks` at a
    /// strictly feasible `y` whose slacks `chols` factors.
    fn f(&self, t: f64, y: &[f64], chols: &[CholeskyFactor]) -> f64 {
        let mut v = t * self.b.iter().zip(y).map(|(b, y)| b * y).sum::<f64>();
        for chol in chols {
            v += chol.log_det();
        }
        for &i in &self.free {
            if self.lb[i] > -BOUND_INF {
                v += (y[i] - self.lb[i]).ln();
            }
            if self.ub[i] < BOUND_INF {
                v += (self.ub[i] - y[i]).ln();
            }
        }
        v
    }

    /// The Newton system of `f(t, ·)` at `y`, whose slacks `chols`
    /// factors: the gradient and the negated (PSD) Hessian over the free
    /// variables. Every Newton step is assembled here.
    fn newton_system(&self, t: f64, y: &[f64], chols: &[CholeskyFactor]) -> (Vec<f64>, Matrix) {
        let k = self.free.len();
        let mut grad = vec![0.0; k];
        let mut h = Matrix::zeros(k, k);
        for (gi, &i) in self.free.iter().enumerate() {
            grad[gi] = t * self.b[i];
            let mut d = 0.0;
            if self.lb[i] > -BOUND_INF {
                let s = y[i] - self.lb[i];
                grad[gi] += 1.0 / s;
                d += 1.0 / (s * s);
            }
            if self.ub[i] < BOUND_INF {
                let s = self.ub[i] - y[i];
                grad[gi] -= 1.0 / s;
                d += 1.0 / (s * s);
            }
            h[(gi, gi)] = d;
        }
        for (blk, chol) in self.blocks.iter().zip(chols) {
            blk.add_newton_terms(&chol.inverse(), &mut grad, &mut h);
        }
        (grad, h)
    }

    /// The Newton-decrement exit `λ²` of the centering at `t` on the path
    /// to `ν/tol`: `¼`, where damped Newton on a self-concordant barrier
    /// enters its quadratic phase, except for the last three centerings
    /// (`t·μ² ≥ ν/tol`), which end at `1e-10` — or at `f`'s resolution,
    /// see [`Work::center`] — because their points are what a solve returns.
    fn decrement_exit(&self, t: f64, opts: &SdpOptions) -> f64 {
        if t * opts.mu * opts.mu >= self.nu() / opts.tol {
            1e-10
        } else {
            0.25
        }
    }

    /// One centering: damped Newton maximization of `f(t, ·)` from `y`
    /// until the Newton decrement `λ²` is at most `exit`. `chols` factors
    /// the slacks at `y` and follows it: the factor of the accepted trial
    /// point is the next step's. Returns the Newton iterations used; on
    /// numerical failure, `Err` carries those taken.
    fn center(
        &self,
        t: f64,
        y: &mut [f64],
        chols: &mut Vec<CholeskyFactor>,
        max_newton: usize,
        exit: f64,
    ) -> Result<usize, usize> {
        let mut ytrial = y.to_vec();
        for iters in 1..=max_newton {
            let (grad, h) = self.newton_system(t, y, chols);
            // Newton direction: (−H) dx = grad.
            let dx = CholeskyFactor::new_shifted(&h, 1e-12, 1e6)
                .and_then(|hc| hc.solve(&grad))
                .map_err(|_| iters)?;
            let decrement: f64 = grad.iter().zip(&dx).map(|(g, d)| g * d).sum();
            if decrement <= exit {
                return Ok(iters);
            }
            // Backtracking line search maintaining strict feasibility. A
            // trial's slacks come from the trial point, never as S − α·ΔS:
            // that form differs from S(ytrial) by rounding, accepts points
            // whose true slack is singular, and so weakens penalty bounds.
            let f0 = self.f(t, y, chols);
            let mut gain = None;
            let mut alpha = 1.0;
            for _ in 0..60 {
                ytrial.copy_from_slice(y);
                for (gi, &i) in self.free.iter().enumerate() {
                    ytrial[i] += alpha * dx[gi];
                }
                if let Some(trial) = self.factor(&ytrial) {
                    let armijo = 0.25 * alpha * decrement.min(1e18);
                    if self.f(t, &ytrial, &trial) >= f0 + armijo - 1e-12 {
                        y.copy_from_slice(&ytrial);
                        *chols = trial;
                        gain = Some(armijo);
                        break;
                    }
                }
                alpha *= 0.5;
            }
            // End on no accepted step (no progress possible), or on one
            // whose certified gain, less the test's 1e-12 slack, is within
            // f's rounding at y (≈ 4ε|f0|): that trial may have passed by
            // rounding alone, and further steps would only halve α until
            // rounding lets another one through. A trial that left y
            // unchanged (f(trial) = f0) is the extreme case.
            match gain {
                Some(g) if g - 1e-12 > 4.0 * f64::EPSILON * f0.abs() => {}
                _ => return Ok(iters),
            }
        }
        Ok(max_newton)
    }

    /// Full barrier path following from a strictly feasible `y`, cut
    /// short when `done(y)` holds after a centering. Returns the Newton
    /// iterations used; on numerical failure, `Err` carries those taken.
    fn barrier(
        &self,
        y: &mut [f64],
        opts: &SdpOptions,
        done: impl Fn(&[f64]) -> bool,
    ) -> Result<usize, usize> {
        if self.free.is_empty() {
            return Ok(0);
        }
        let mut chols = self.factor(y).ok_or(0usize)?;
        let nu = self.nu();
        let mut t = opts.t0;
        let mut total = 0;
        let mut center_at = |t: f64, y: &mut [f64], total: usize| {
            let exit = self.decrement_exit(t, opts);
            self.center(t, y, &mut chols, opts.max_newton, exit).map_err(|it| total + it)
        };
        while nu / t > opts.tol {
            total += center_at(t, y, total)?;
            if done(y) {
                return Ok(total);
            }
            t *= opts.mu;
            if total > 100_000 {
                return Err(total);
            }
        }
        total += center_at(nu / opts.tol, y, total)?;
        Ok(total)
    }

    /// The verdict on a phase-1/penalty point `yz = (y, z)` with `z > 0`:
    /// `Infeasible` only if its slacks certify that no `y` in the box is
    /// feasible, else `Numerical`. With `Z_k = (S_k(y) + z·I)⁻¹ ≻ 0`,
    /// every feasible `y` has `Σ_k ⟨S_k(y), Z_k⟩ ≥ 0`; that sum is affine
    /// in `y`, so a negative maximum over the box (Farkas) rules them all
    /// out. A path that stalled short of its optimum leaves `z > 0` with no
    /// such certificate.
    fn infeasible_or_numerical(&self, yz: &[f64]) -> SdpStatus {
        let (y, z) = (&yz[..self.m], yz[self.m]);
        let mut sup = 0.0;
        let mut coef = vec![0.0; self.m];
        for blk in &self.blocks {
            let mut s = blk.slack(y);
            for d in 0..blk.dim {
                s[(d, d)] += z;
            }
            let Ok(chol) = CholeskyFactor::new(&s) else { return SdpStatus::Numerical };
            let zk = chol.inverse();
            sup += dot(blk.c.data(), zk.data());
            for term in &blk.terms {
                coef[term.var] += term.inner(&zk);
            }
        }
        // Σ_k ⟨S_k(y), Z_k⟩ = sup − Σᵢ coefᵢ·yᵢ: take each yᵢ at the bound
        // that maximizes it.
        for (i, &c) in coef.iter().enumerate().filter(|&(_, &c)| c != 0.0) {
            let at = if c > 0.0 { self.lb[i] } else { self.ub[i] };
            if at.abs() >= BOUND_INF {
                return SdpStatus::Numerical;
            }
            sup -= c * at;
        }
        if sup < 0.0 {
            SdpStatus::Infeasible
        } else {
            SdpStatus::Numerical
        }
    }

    /// Extends this work problem with the penalty variable `z`
    /// (`S + z·I ⪰ 0`), objective `b' = (obj_scale·b, −Γ)`.
    fn penalized(&self, gamma: f64, obj_scale: f64, z_lb: f64) -> Work {
        let m = self.m + 1;
        let mut b: Vec<f64> = self.b.iter().map(|v| v * obj_scale).collect();
        b.push(-gamma);
        let mut lb = self.lb.clone();
        let mut ub = self.ub.clone();
        lb.push(z_lb);
        ub.push(1e7);
        let z = Some(self.free.len());
        let blocks = self
            .blocks
            .iter()
            .map(|blk| {
                // A_z = −I ⇒ S' = S + z·I.
                let mut nb = blk.clone();
                let entries = (0..blk.dim).map(|d| (d, d, -1.0)).collect();
                nb.terms.push(Term { var: self.m, free: z, entries, shape: Shape::Sparse });
                nb
            })
            .collect();
        let mut free: Vec<usize> = self.free.clone();
        free.push(self.m);
        Work { m, b, lb, ub, blocks, free }
    }

    /// A default interior-for-bounds starting point.
    fn start_point(&self) -> Vec<f64> {
        (0..self.m)
            .map(|i| {
                let (l, u) = (self.lb[i], self.ub[i]);
                if u - l <= 1e-12 {
                    l
                } else if l > -BOUND_INF && u < BOUND_INF {
                    0.5 * (l + u)
                } else if l > -BOUND_INF {
                    l + 1.0
                } else if u < BOUND_INF {
                    u - 1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Minimum over blocks of λmin(S(y)) (strictness margin).
    fn min_slack_eigen(&self, y: &[f64]) -> f64 {
        let mut worst = f64::INFINITY;
        for blk in &self.blocks {
            match ugrs_linalg::eigen::symmetric_eigen(&blk.slack(y)) {
                Ok(e) => worst = worst.min(e.values[0]),
                Err(_) => return f64::NEG_INFINITY,
            }
        }
        worst
    }
}

/// Solves the SDP: phase 1 (if the default start is not strictly
/// feasible) followed by the barrier path.
pub fn solve(p: &SdpProblem, opts: &SdpOptions) -> SdpResult {
    let w = Work::from_problem(p);
    let mut iters = 0usize;
    let mut y = w.start_point();

    if !w.strictly_feasible(&y) {
        // Phase 1: max −z  s.t. S(y) + z·I ⪰ 0, z ≥ −1. Strict original
        // feasibility ⇔ optimum has z < 0, so the path stops at the first
        // center with z < 0 at which the original problem is strictly
        // feasible: that is all phase 2 needs.
        let ph1 = w.penalized(1.0, 0.0, -1.0);
        let mut yz: Vec<f64> = y.clone();
        let z0 = (-w.min_slack_eigen(&y)).max(0.0) + 1.0;
        yz.push(z0.min(1e6));
        if !ph1.strictly_feasible(&yz) {
            let obj = p.obj(&y);
            return SdpResult {
                status: SdpStatus::Numerical,
                y,
                obj,
                penalty_z: None,
                iterations: 0,
                fallbacks: 0,
            };
        }
        let interior = |yz: &[f64]| yz[w.m] < 0.0 && w.strictly_feasible(&yz[..w.m]);
        match ph1.barrier(&mut yz, &SdpOptions { tol: 1e-6, ..*opts }, interior) {
            Ok(it) => iters += it,
            Err(it) => {
                let obj = p.obj(&y);
                return SdpResult {
                    status: SdpStatus::Numerical,
                    y,
                    obj,
                    penalty_z: None,
                    iterations: iters + it,
                    fallbacks: 0,
                };
            }
        }
        let z = yz[w.m];
        if z > 1e-5 {
            return SdpResult {
                status: w.infeasible_or_numerical(&yz),
                y: yz[..w.m].to_vec(),
                obj: 0.0,
                penalty_z: Some(z),
                iterations: iters,
                fallbacks: 0,
            };
        }
        y = yz[..w.m].to_vec();
        if !w.strictly_feasible(&y) {
            // Slater condition (practically) violated: fall back to the
            // penalty formulation, as SCIP-SDP does after branching.
            let mut res = solve_penalty(p, opts);
            res.iterations += iters;
            res.fallbacks += 1;
            return res;
        }
    }

    match w.barrier(&mut y, opts, |_| false) {
        Ok(it) => iters += it,
        Err(it) => {
            return SdpResult {
                status: SdpStatus::Numerical,
                y: y.clone(),
                obj: p.obj(&y),
                penalty_z: None,
                iterations: iters + it,
                fallbacks: 0,
            }
        }
    }
    let obj = p.obj(&y);
    let status = if obj.abs() > 1e10 { SdpStatus::Unbounded } else { SdpStatus::Optimal };
    SdpResult { status, y, obj, penalty_z: None, iterations: iters, fallbacks: 0 }
}

/// The penalty formulation: `sup bᵀy − Γ·z  s.t.  S_k(y) + z·I ⪰ 0,
/// z ≥ 0` — always strictly feasible, so it survives Slater-condition
/// failures introduced by branching (§3.2). When the returned `z` is
/// (near) zero the result is feasible for the original SDP.
pub fn solve_penalty(p: &SdpProblem, opts: &SdpOptions) -> SdpResult {
    let w = Work::from_problem(p);
    let pen = w.penalized(opts.penalty_gamma, 1.0, 0.0);
    let mut yz = w.start_point();
    let z0 = (-w.min_slack_eigen(&yz)).max(0.0) + 1.0;
    yz.push(z0.min(1e6));
    if !pen.strictly_feasible(&yz) {
        return SdpResult {
            status: SdpStatus::Numerical,
            y: yz[..w.m].to_vec(),
            obj: 0.0,
            penalty_z: None,
            iterations: 0,
            fallbacks: 0,
        };
    }
    match pen.barrier(&mut yz, opts, |_| false) {
        Ok(iters) => {
            let z = yz[w.m].max(0.0);
            let y = yz[..w.m].to_vec();
            let obj = p.obj(&y);
            let status = if z > 1e-5 { w.infeasible_or_numerical(&yz) } else { SdpStatus::Optimal };
            SdpResult { status, y, obj, penalty_z: Some(z), iterations: iters, fallbacks: 0 }
        }
        Err(iters) => SdpResult {
            status: SdpStatus::Numerical,
            y: yz[..w.m].to_vec(),
            obj: 0.0,
            penalty_z: None,
            iterations: iters,
            fallbacks: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SdpBlock;

    fn scalar_problem() -> SdpProblem {
        // max y s.t. 1 − y ≥ 0, y ∈ [−5, 5] → y* = 1.
        let mut p = SdpProblem::new(1);
        p.b = vec![1.0];
        p.lb = vec![-5.0];
        p.ub = vec![5.0];
        let mut blk = SdpBlock::new(1, 1);
        blk.c = Matrix::from_rows(1, 1, vec![1.0]).unwrap();
        blk.set_a(0, Matrix::from_rows(1, 1, vec![1.0]).unwrap());
        p.add_block(blk);
        p
    }

    #[test]
    fn scalar_sdp_is_lp() {
        let res = solve(&scalar_problem(), &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Optimal);
        assert!((res.obj - 1.0).abs() < 1e-4, "obj = {}", res.obj);
    }

    #[test]
    fn two_by_two_eigenvalue_constraint() {
        // max y s.t. [[2−y, 1], [1, 2−y]] ⪰ 0 → λmin = (2−y) − 1 ≥ 0 → y* = 1.
        let mut p = SdpProblem::new(1);
        p.b = vec![1.0];
        p.lb = vec![-10.0];
        p.ub = vec![10.0];
        let mut blk = SdpBlock::new(2, 1);
        blk.c = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        blk.set_a(0, Matrix::identity(2));
        p.add_block(blk);
        let res = solve(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Optimal);
        assert!((res.obj - 1.0).abs() < 1e-4, "obj = {}", res.obj);
        assert!(p.is_feasible(&res.y, 1e-6));
    }

    #[test]
    fn linear_rows_respected() {
        // max y, 1 − y ⪰ 0 but row y ≤ 0.4 binds.
        let mut p = scalar_problem();
        p.add_lin_row(f64::NEG_INFINITY, 0.4, vec![(0, 1.0)]);
        let res = solve(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Optimal);
        assert!((res.obj - 0.4).abs() < 1e-4, "obj = {}", res.obj);
    }

    #[test]
    fn off_diagonal_coupling() {
        // max y1 + y2 s.t. [[1, y1], [y1, 1]] ⪰ 0, y2 ≤ 0.5 row, bounds.
        // → y1* = 1 (PSD boundary), y2* = 0.5, obj 1.5.
        let mut p = SdpProblem::new(2);
        p.b = vec![1.0, 1.0];
        p.lb = vec![-3.0, -3.0];
        p.ub = vec![3.0, 3.0];
        let mut blk = SdpBlock::new(2, 2);
        blk.c = Matrix::identity(2);
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = -1.0;
        a[(1, 0)] = -1.0;
        blk.set_a(0, a); // C − A·y1 = [[1, y1], [y1, 1]]
        p.add_block(blk);
        p.add_lin_row(f64::NEG_INFINITY, 0.5, vec![(1, 1.0)]);
        let res = solve(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Optimal);
        assert!((res.obj - 1.5).abs() < 1e-3, "obj = {}", res.obj);
        assert!(p.is_feasible(&res.y, 1e-5));
    }

    #[test]
    fn infeasible_block_detected() {
        // −1 − 0·y ⪰ 0 is infeasible.
        let mut p = SdpProblem::new(1);
        p.b = vec![1.0];
        p.lb = vec![0.0];
        p.ub = vec![1.0];
        let mut blk = SdpBlock::new(1, 1);
        blk.c = Matrix::from_rows(1, 1, vec![-1.0]).unwrap();
        p.add_block(blk);
        let res = solve(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Infeasible);
    }

    #[test]
    fn penalty_handles_infeasibility_gracefully() {
        let mut p = SdpProblem::new(1);
        p.b = vec![1.0];
        p.lb = vec![0.0];
        p.ub = vec![1.0];
        let mut blk = SdpBlock::new(1, 1);
        blk.c = Matrix::from_rows(1, 1, vec![-2.0]).unwrap();
        p.add_block(blk);
        let res = solve_penalty(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Infeasible);
        // z must absorb the violation (≈ 2).
        assert!((res.penalty_z.unwrap() - 2.0).abs() < 1e-2);
    }

    #[test]
    fn fixed_variables_are_respected() {
        // y0 fixed to 0.3 by bounds, maximize y0 + y1 with y1 ≤ PSD cap 1.
        let mut p = SdpProblem::new(2);
        p.b = vec![1.0, 1.0];
        p.lb = vec![0.3, -5.0];
        p.ub = vec![0.3, 5.0];
        let mut blk = SdpBlock::new(1, 2);
        blk.c = Matrix::from_rows(1, 1, vec![1.0]).unwrap();
        blk.set_a(1, Matrix::from_rows(1, 1, vec![1.0]).unwrap());
        p.add_block(blk);
        let res = solve(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Optimal);
        assert!((res.y[0] - 0.3).abs() < 1e-12);
        assert!((res.obj - 1.3).abs() < 1e-4, "obj = {}", res.obj);
    }

    #[test]
    fn max_cut_style_relaxation() {
        // A classic: max Σ y_i s.t. Diag(y)... use: max y1+y2+y3 with
        // C = [[1,.5,.5],[.5,1,.5],[.5,.5,1]], A_i = e_i e_iᵀ:
        // S = C − Diag(y) ⪰ 0. Optimum pushes S to the PSD boundary.
        let mut p = SdpProblem::new(3);
        p.b = vec![1.0; 3];
        p.lb = vec![-10.0; 3];
        p.ub = vec![10.0; 3];
        let mut blk = SdpBlock::new(3, 3);
        blk.c = Matrix::from_rows(3, 3, vec![1.0, 0.5, 0.5, 0.5, 1.0, 0.5, 0.5, 0.5, 1.0]).unwrap();
        for i in 0..3 {
            let mut a = Matrix::zeros(3, 3);
            a[(i, i)] = 1.0;
            blk.set_a(i, a);
        }
        p.add_block(blk);
        let res = solve(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Optimal);
        assert!(p.is_feasible(&res.y, 1e-5));
        // By symmetry y_i = c: S = C − cI ⪰ 0 ⇔ c ≤ λmin(C) = 0.5 → obj 1.5.
        assert!((res.obj - 1.5).abs() < 1e-3, "obj = {}", res.obj);
    }

    /// The Newton steps of the default barrier path from `y`, centering
    /// by centering, up to and including the one that fails; `None` if
    /// none does.
    fn steps_until_failure(w: &Work, mut y: Vec<f64>) -> Option<usize> {
        let opts = SdpOptions::default();
        let mut chols = w.factor(&y).expect("strictly feasible start");
        let (mut t, mut total) = (opts.t0, 0);
        while w.nu() / t > opts.tol {
            match w.center(t, &mut y, &mut chols, opts.max_newton, w.decrement_exit(t, &opts)) {
                Ok(it) => total += it,
                Err(it) => return Some(total + it),
            }
            t *= opts.mu;
        }
        None
    }

    #[test]
    fn steps_before_a_numerical_failure_are_counted() {
        // max c·(y0 + y1) s.t. 1 − y0 − y1 ≥ 0: y0 and y1 enter the block
        // identically, so the Newton system is singular along y0 − y1 but
        // for the box terms, at a scale growing like (t·c)². Past
        // t·c ≈ 1e9 no shift the solver allows lifts its second pivot above
        // the Cholesky tolerance, after several completed centerings.
        let c = 1e4;
        let mut p = SdpProblem::new(2);
        p.b = vec![c, c];
        p.lb = vec![-10.0; 2];
        p.ub = vec![10.0; 2];
        let mut blk = SdpBlock::new(1, 2);
        blk.c = Matrix::from_diag(&[1.0]);
        blk.set_a(0, Matrix::from_diag(&[1.0]));
        blk.set_a(1, Matrix::from_diag(&[1.0]));
        p.add_block(blk);
        let w = Work::from_problem(&p);

        let res = solve(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Numerical);
        assert_eq!(Some(res.iterations), steps_until_failure(&w, w.start_point()));

        let res = solve_penalty(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Numerical);
        let pen = w.penalized(SdpOptions::default().penalty_gamma, 1.0, 0.0);
        let mut yz = w.start_point();
        yz.push(1.0); // the slack at the start point is 1: z0 = 0 + 1
        assert_eq!(Some(res.iterations), steps_until_failure(&pen, yz));
    }

    /// The root relaxation of a minimum-2-partitioning MISDP on `n`
    /// vertices with seeded weights, in the shape `misdp::gen` builds:
    /// `max −Σ w_ij y_ij` s.t. `X ⪰ 0`, `X_ii = 1`, `X_ij = 2y_ij − 1`,
    /// `y ∈ [0, 1]`.
    fn mkp_relaxation(n: usize, seed: u64) -> SdpProblem {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
        let mut p = SdpProblem::new(pairs.len());
        let mut blk = SdpBlock::new(n, pairs.len());
        blk.c = Matrix::from_rows(n, n, vec![-1.0; n * n]).unwrap();
        for d in 0..n {
            blk.c[(d, d)] = 1.0;
        }
        for (v, &(i, j)) in pairs.iter().enumerate() {
            p.b[v] = -(rng.gen_range(1..10) as f64);
            p.lb[v] = 0.0;
            p.ub[v] = 1.0;
            let mut a = Matrix::zeros(n, n);
            a[(i, j)] = -2.0;
            a[(j, i)] = -2.0;
            blk.set_a(v, a);
        }
        p.add_block(blk);
        p
    }

    #[test]
    fn recentering_a_centered_point_ends_at_once() {
        // At t = 1e8, |f| is ≈ 1e9 and the Newton decrement stays above
        // the 1e-10 exit. Without the stop on a gain below f's
        // resolution, the second centering at 1e8 below ran to
        // max_newton = 60 on each of these relaxations.
        let opts = SdpOptions::default();
        for (n, seed) in [(5, 2), (6, 0), (7, 0), (8, 0)] {
            let w = Work::from_problem(&mkp_relaxation(n, seed));
            let mut y = w.start_point();
            let mut chols = w.factor(&y).expect("X = I at the box midpoint");
            let mut t = opts.t0;
            let mut center = |t: f64| {
                let exit = w.decrement_exit(t, &opts);
                w.center(t, &mut y, &mut chols, opts.max_newton, exit).expect("centered")
            };
            while t <= 1e8 {
                center(t);
                t *= opts.mu;
            }
            let again = center(1e8);
            assert!(again <= 2, "n = {n}, seed {seed}: {again} Newton steps");
        }
    }

    /// `σ g gᵀ`.
    fn outer(sigma: f64, g: &[f64]) -> Matrix {
        let n = g.len();
        Matrix::from_rows(
            n,
            n,
            g.iter().flat_map(|&p| g.iter().map(move |&q| sigma * p * q)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn rank_one_accepts_signed_outer_products_only() {
        let g = [0.3, -1.2, 0.7, 2.1];
        for sigma in [1.0, -1.0] {
            let a = outer(sigma, &g);
            let (s, h) = rank_one(&a).expect("σ g gᵀ is rank one");
            assert_eq!(s, sigma);
            let back = outer(s, &h);
            for (x, y) in a.data().iter().zip(back.data()) {
                assert!((x - y).abs() <= 1e-13 * 4.41, "{x} vs {y}");
            }
        }
        let mut two = outer(1.0, &g);
        two.add_scaled(1.0, &outer(1.0, &[1.0, 0.5, -0.25, 0.0])).unwrap();
        assert!(rank_one(&two).is_none(), "rank two");
        let mut bent = outer(-1.0, &g);
        bent[(0, 1)] += 1e-10 * 4.41;
        bent[(1, 0)] += 1e-10 * 4.41;
        assert!(rank_one(&bent).is_none(), "g gᵀ perturbed by 1e-10 of its largest entry");
        assert!(rank_one(&Matrix::zeros(3, 3)).is_none());
    }

    /// A random point `y` and a problem whose block slacks at `y` are
    /// random PD matrices `MᵀM + I`. The first block has one variable per
    /// coefficient shape the generators produce: diagonal (0), two-entry
    /// off-diagonal (1), dense rank one (2), −I (3), full dense (4), a
    /// variable found only in the linear row (5), and a fixed one (6). The
    /// second is a penalized TTD block: the −I of 3, then one axis bar
    /// `−c e_k e_kᵀ` per dimension and three dense bars `−g gᵀ` (variables
    /// from 7 on). The two-sided row over 0, 2 and 5 folds into two 1×1
    /// blocks.
    fn newton_case(dim: usize, seed: u64) -> (SdpProblem, Vec<f64>) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut uniform =
            |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let m = 7 + dim + 3;
        let y = uniform(m);
        let mut a: Vec<Option<Matrix>> = vec![None; m];
        let mut diag = Matrix::zeros(dim, dim);
        diag[(dim - 1, dim - 1)] = 1.5;
        a[0] = Some(diag);
        let mut pair = Matrix::zeros(dim, dim);
        pair[(0, dim - 1)] = -0.75;
        pair[(dim - 1, 0)] = -0.75;
        a[1] = Some(pair);
        a[2] = Some(outer(-1.0, &uniform(dim)));
        let mut neg_i = Matrix::identity(dim);
        ugrs_linalg::vector::scale(-1.0, neg_i.data_mut());
        a[3] = Some(neg_i.clone());
        let mut dense = Matrix::from_rows(dim, dim, uniform(dim * dim)).unwrap();
        dense.symmetrize();
        a[4] = Some(dense);
        let mut fixed = Matrix::from_rows(dim, dim, uniform(dim * dim)).unwrap();
        fixed.symmetrize();
        a[6] = Some(fixed);
        let mut ttd: Vec<Option<Matrix>> = vec![None; m];
        ttd[3] = Some(neg_i);
        for (k, bar) in ttd[7..].iter_mut().enumerate() {
            let g = if k < dim {
                let mut g = vec![0.0; dim];
                g[k] = 1.25 + uniform(1)[0] / 4.0;
                g
            } else {
                uniform(dim)
            };
            *bar = Some(outer(-1.0, &g));
        }

        let mut p = SdpProblem::new(m);
        p.lb[6] = y[6];
        p.ub[6] = y[6];
        for a in [a, ttd] {
            let mraw = Matrix::from_rows(dim, dim, uniform(dim * dim)).unwrap();
            let mut blk = SdpBlock::new(dim, m);
            blk.c = mraw.transpose().matmul(&mraw).unwrap();
            for d in 0..dim {
                blk.c[(d, d)] += 1.0;
            }
            for (i, ai) in a.into_iter().enumerate() {
                if let Some(ai) = ai {
                    blk.c.add_scaled(y[i], &ai).unwrap();
                    blk.set_a(i, ai);
                }
            }
            p.add_block(blk);
        }
        let terms = vec![(0, 0.5), (2, -1.25), (5, 2.0)];
        let act: f64 = terms.iter().map(|&(i, c)| c * y[i]).sum();
        p.add_lin_row(act - 0.7, act + 1.3, terms);
        (p, y)
    }

    /// The definition: `grad_i = −Σ_k tr(S_k⁻¹A_ki)` and
    /// `h_ij = Σ_k tr(S_k⁻¹A_ki S_k⁻¹A_kj)` over the free variables, with
    /// `S⁻¹A` formed column by column, densely.
    fn dense_newton_system(p: &SdpProblem, y: &[f64], free: &[usize]) -> (Vec<f64>, Matrix) {
        let mut blocks = p.blocks.clone();
        for row in &p.lin {
            for (c0, sign) in [(row.rhs, 1.0), (-row.lhs, -1.0)] {
                let mut blk = SdpBlock::new(1, p.m);
                blk.c = Matrix::from_diag(&[c0]);
                for &(i, c) in &row.terms {
                    blk.set_a(i, Matrix::from_diag(&[sign * c]));
                }
                blocks.push(blk);
            }
        }
        let k = free.len();
        let mut grad = vec![0.0; k];
        let mut h = Matrix::zeros(k, k);
        for blk in &blocks {
            let chol = CholeskyFactor::new(&blk.slack(y)).unwrap();
            let ms: Vec<Option<Matrix>> = free
                .iter()
                .map(|&i| {
                    let a = blk.a[i].as_ref()?;
                    let mut m = Matrix::zeros(blk.dim, blk.dim);
                    for col in 0..blk.dim {
                        let x = chol.solve(&a.col(col)).unwrap();
                        for (row, v) in x.into_iter().enumerate() {
                            m[(row, col)] = v;
                        }
                    }
                    Some(m)
                })
                .collect();
            for (gi, mi) in ms.iter().enumerate() {
                let Some(mi) = mi else { continue };
                grad[gi] -= mi.trace();
                for (gj, mj) in ms.iter().enumerate() {
                    if let Some(mj) = mj {
                        h[(gi, gj)] += mi.matmul(mj).unwrap().trace();
                    }
                }
            }
        }
        (grad, h)
    }

    /// `PROPTEST_CASES` when it is set, else `default`.
    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// The shapes of a block's terms, one letter each, in term order.
    fn shapes(blk: &Block) -> String {
        let letter = |t: &Term| match t.shape {
            Shape::Sparse => 'S',
            Shape::RankOne { .. } => 'R',
            Shape::Dense => 'D',
        };
        blk.terms.iter().map(letter).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(cases(64)))]

        #[test]
        fn newton_system_matches_its_definition(dim in 1usize..7, seed in proptest::prelude::any::<u64>()) {
            let (p, y) = newton_case(dim, seed);
            let w = Work::from_problem(&p);
            assert_eq!(w.free, (0..p.m).filter(|&i| i != 6).collect::<Vec<_>>());
            if dim > 1 {
                // Between them the two blocks pair rank one with rank one
                // (2 with itself, the dense bars with each other), rank one
                // with the rest (2 with 3, 4), the rest with rank one (0 with
                // 2, −I and the axis bars with the dense bars), dense with
                // dense (4 with itself) and sparse with non-rank-one
                // (0 with 1, 3, 4; −I with the axis bars): every formula of
                // `Block::add_newton_terms`.
                assert_eq!(shapes(&w.blocks[0]), "SSRSDD");
                assert_eq!(shapes(&w.blocks[1]), format!("S{}RRR", "S".repeat(dim)));
            }
            let chols = w.factor(&y).expect("S(y) is PD by construction");
            // b = 0 and no finite bounds on the free variables: only the
            // log det terms remain.
            let (grad, h) = w.newton_system(0.0, &y, &chols);
            let (dgrad, dh) = dense_newton_system(&p, &y, &w.free);
            let scale = 1.0 + dgrad.iter().chain(dh.data()).fold(0.0f64, |a, v| a.max(v.abs()));
            for (gi, (s, d)) in grad.iter().zip(&dgrad).enumerate() {
                proptest::prop_assert!((s - d).abs() <= 1e-9 * scale, "grad[{}]: {} vs {}", gi, s, d);
            }
            for (n, (s, d)) in h.data().iter().zip(dh.data()).enumerate() {
                proptest::prop_assert!((s - d).abs() <= 1e-9 * scale, "h[{}]: {} vs {}", n, s, d);
            }
        }
    }
}
