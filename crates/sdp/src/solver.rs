//! The SDP solver: an infeasible-start primal–dual path-following method
//! with the HKM direction and Mehrotra's predictor–corrector, as in CSDP
//! and SDPT3, on `sup bᵀy s.t. C_k − Σᵢ A_{k,i} yᵢ ⪰ 0, ℓ ≤ y ≤ u` (rows
//! folded into 1×1 blocks) and its dual
//! `inf Σ_k ⟨C_k, X_k⟩ + uᵀx_u − ℓᵀx_ℓ s.t. Σ_k ⟨A_{k,i}, X_k⟩ + x_u,i − x_ℓ,i = bᵢ`.
//! Each iteration factors the Schur complement
//! `Mᵢⱼ = Σ_k tr(A_{k,i} X_k A_{k,j} S_k⁻¹) + diag(x/s)` once and solves it
//! for the predictor and the corrector. The MISDP generators' `Aᵢ` are one
//! diagonal entry (CLS `zᵢ`), two off-diagonal entries (MkP), rank one
//! (TTD) or `−I` (CLS `t`): the working form keeps each as its nonzeros,
//! a dense `σ g gᵀ` also as `(σ, g)`, and assembles `M` by a formula per
//! pair of shapes, after Fujisawa–Kojima–Nakata.

use crate::problem::{SdpBlock, SdpProblem};
use ugrs_linalg::vector::{axpy, dot};
use ugrs_linalg::{CholeskyFactor, Matrix, Tridiagonal};

/// The relative gap and residuals at which a solve is optimal.
const TOL: f64 = 1e-7;
/// The same for a solve that can make no further progress (relaxations
/// without a strictly feasible point end here).
const STALL_TOL: f64 = 1e-6;
/// A step shorter than this, for either side, means no further progress.
const STALL_STEP: f64 = 1e-2;
/// Iterations before a solve gives up as `Numerical`.
const MAX_ITERS: usize = 80;
/// The fraction of the distance to the boundary of the cones a step goes.
const STEP: f64 = 0.95;
/// Row sides at or beyond this magnitude are infinite, and so are bounds
/// to the Farkas certificate.
const BOUND_INF: f64 = 1e8;
/// Bounds are clamped to ±`FREE`, `SdpProblem::new`'s free variable.
const FREE: f64 = 1e9;

/// The options of [`solve`]. It has no field: the solver's parameters are
/// this module's constants.
#[derive(Clone, Copy, Debug, Default)]
pub struct SdpOptions {}

/// Termination status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SdpStatus {
    Optimal,
    /// Certified: an iterate's `X` is a Farkas certificate that no `y` in
    /// the box is feasible.
    Infeasible,
    /// Anything else; the result values are unreliable.
    Numerical,
}

/// Solve output.
#[derive(Clone, Debug)]
pub struct SdpResult {
    pub status: SdpStatus,
    pub y: Vec<f64>,
    /// `bᵀy` of the returned point.
    pub obj: f64,
    /// Primal–dual iterations spent.
    pub iterations: usize,
}

/// How the Schur complement treats a coefficient matrix `Aᵢ`.
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

    /// `uᵀ Aᵢ v`.
    fn bilinear(&self, u: &[f64], v: &[f64]) -> f64 {
        self.entries.iter().map(|&(p, q, a)| a * u[p] * v[q]).sum()
    }

    /// `tr(Aᵢ X Aⱼ Z) = Σ a·b·X[q][r]·Z[s][p]` over `Aᵢ`'s nonzeros
    /// `(p, q, a)` and `Aⱼ`'s `(r, s, b)`: `nnzᵢ·nnzⱼ` flops.
    fn pair(&self, other: &Term, x: &Matrix, z: &Matrix) -> f64 {
        let mut v = 0.0;
        for &(p, q, a) in &self.entries {
            for &(r, s, b) in &other.entries {
                v += a * b * x[(q, r)] * z[(s, p)];
            }
        }
        v
    }

    /// `xaz = X Aᵢ Z` as the dense product `X (Aᵢ Z)` (`dim³ + nnz·dim`
    /// flops); `az` is scratch.
    fn sandwich(&self, x: &Matrix, z: &Matrix, xaz: &mut Matrix, az: &mut Matrix) {
        xaz.data_mut().fill(0.0);
        az.data_mut().fill(0.0);
        for &(p, q, a) in &self.entries {
            axpy(a, z.row(q), az.row_mut(p));
        }
        for r in 0..x.rows() {
            for (p, &xrp) in x.row(r).iter().enumerate() {
                axpy(xrp, az.row(p), xaz.row_mut(r));
            }
        }
    }
}

/// A PSD block `C − Σ Aᵢ yᵢ ⪰ 0` of the working form.
struct Block {
    dim: usize,
    c: Matrix,
    /// In variable order.
    terms: Vec<Term>,
}

impl Block {
    fn from_dense(blk: &SdpBlock) -> Self {
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
                (!entries.is_empty()).then_some(Term { var, free: None, entries, shape })
            })
            .collect();
        Block { dim: n, c: blk.c.clone(), terms }
    }

    /// `out −= Σ cᵢ Aᵢ` over the terms, with `cᵢ = coef(term)`.
    fn sub_terms(&self, out: &mut Matrix, coef: impl Fn(&Term) -> f64) {
        for term in &self.terms {
            let c = coef(term);
            if c != 0.0 {
                for &(p, q, a) in &term.entries {
                    out[(p, q)] -= c * a;
                }
            }
        }
    }

    /// Adds this block's share of the Schur complement at `(X, Z = S⁻¹)`:
    /// `m_ij += tr(Aᵢ X Aⱼ Z)` over its free terms. With `u = X g` and
    /// `v = Z g` once per rank-one term `σ g gᵀ`, a pair with it is
    /// `σᵢσⱼ(gⱼᵀuᵢ)(gⱼᵀvᵢ)` or `σ uᵀAv`; a dense `Aᵢ` pairs through its
    /// sandwich `X Aᵢ Z`, a sparse one through [`Term::pair`].
    fn add_schur(&self, x: &Matrix, z: &Matrix, m: &mut Matrix) {
        let free: Vec<(usize, &Term)> =
            self.terms.iter().filter_map(|t| Some((t.free?, t))).collect();
        let uvs: Vec<(Vec<f64>, Vec<f64>)> = free
            .iter()
            .map(|(_, t)| match &t.shape {
                Shape::RankOne { g, .. } => (x.matvec(g), z.matvec(g)),
                _ => (Vec::new(), Vec::new()),
            })
            .collect();
        let (mut xaz, mut az) =
            (Matrix::zeros(self.dim, self.dim), Matrix::zeros(self.dim, self.dim));
        for (n, &(gi, ti)) in free.iter().enumerate() {
            if ti.shape == Shape::Dense {
                ti.sandwich(x, z, &mut xaz, &mut az);
            }
            let (ui, vi) = &uvs[n];
            // Terms run in variable order, so gj ≥ gi: one triangle, mirrored.
            for (&(gj, tj), (uj, vj)) in free[n..].iter().zip(&uvs[n..]) {
                let v = match (&ti.shape, &tj.shape) {
                    (Shape::RankOne { sigma: si, .. }, Shape::RankOne { sigma: sj, g }) => {
                        si * sj * dot(g, ui) * dot(g, vi)
                    }
                    (Shape::RankOne { sigma, .. }, _) => sigma * tj.bilinear(ui, vi),
                    (_, Shape::RankOne { sigma, .. }) => sigma * ti.bilinear(uj, vj),
                    (Shape::Dense, _) => tj.inner(&xaz),
                    (Shape::Sparse, _) => ti.pair(tj, x, z),
                };
                m[(gi, gj)] += v;
                if gi != gj {
                    m[(gj, gi)] += v;
                }
            }
        }
    }
}

/// `A·B` for square matrices of one order.
fn mul(a: &Matrix, b: &Matrix) -> Matrix {
    a.matmul(b).expect("blocks are square")
}

/// `A + α·D`.
fn plus(a: &Matrix, alpha: f64, d: &Matrix) -> Matrix {
    let mut m = a.clone();
    m.add_scaled(alpha, d).expect("same order");
    m
}

/// `A + β·I`.
fn shifted(mut a: Matrix, beta: f64) -> Matrix {
    for d in 0..a.rows() {
        a[(d, d)] += beta;
    }
    a
}

/// The Cholesky factor of every matrix, or `None` unless all are PD.
fn factor(ms: &[Matrix]) -> Option<Vec<CholeskyFactor>> {
    ms.iter().map(|m| CholeskyFactor::new(m).ok()).collect()
}

/// The largest `α ≤ limit` with `x + (α/frac)·dx ≥ 0` entry by entry.
fn step_to_zero(x: &[f64], dx: &[f64], frac: f64, limit: f64) -> f64 {
    x.iter().zip(dx).filter(|&(_, &d)| d < 0.0).fold(limit, |a, (&x, &d)| a.min(-frac * x / d))
}

/// The step along `ds` from `ms` (factored by `chols`) that every block
/// allows, at most `limit`. With `frac`, the corrector's: `−frac/λ` for
/// the least eigenvalue `λ` of `L⁻¹DL⁻ᵀ` (to a relative `1e-4`) unless a
/// factorization shows the block allows `limit`, as a third do. Without,
/// the predictor's, which only feeds `σ`: the largest of `limit` and the
/// grid 0.9, 0.8, …, 0.05 at which `A + α·D` factors.
fn cone_step(
    ms: &[Matrix],
    chols: &[CholeskyFactor],
    ds: &[Matrix],
    frac: Option<f64>,
    limit: f64,
) -> f64 {
    const GRID: [f64; 10] = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05];
    let pd = |m: &Matrix, d: &Matrix, alpha: f64| CholeskyFactor::new(&plus(m, alpha, d)).is_ok();
    ms.iter().zip(chols).zip(ds).fold(limit, |a, ((m, c), d)| match frac {
        Some(frac) if pd(m, d, a / frac) => a,
        Some(frac) => match Tridiagonal::new(c.congruence(d)) {
            Ok(t) => t.min_eigenvalue_below(-frac, 1e-4).map_or(a, |lambda| a.min(-frac / lambda)),
            Err(_) => 0.0,
        },
        None if pd(m, d, a) => a,
        None => GRID.into_iter().filter(|&g| g < a).find(|&g| pd(m, d, g)).unwrap_or(0.0),
    })
}

/// One iterate. `y` stays strictly inside its box, so the bound slacks
/// `sl, su` are `y − ℓ` and `u − y`, with duals `xl, xu`. The dual residual
/// of block `k` is `β_k I`: `S_k = S_k(y) + β_k I`, and a dual step `α`
/// scales `β` by `1 − α`.
struct Iterate {
    y: Vec<f64>,
    sl: Vec<f64>,
    su: Vec<f64>,
    beta: Vec<f64>,
    x: Vec<Matrix>,
    s: Vec<Matrix>,
    chol_x: Vec<CholeskyFactor>,
    chol_s: Vec<CholeskyFactor>,
    xl: Vec<f64>,
    xu: Vec<f64>,
}

/// A search direction.
struct Direction {
    dy: Vec<f64>,
    ds: Vec<Matrix>,
    dx: Vec<Matrix>,
    dxl: Vec<f64>,
    dxu: Vec<f64>,
}

/// The targets of a direction: `X_k S_k = T_k` per block and `x·s = t`
/// per lower and upper bound.
struct Target {
    t: Vec<Matrix>,
    tl: Vec<f64>,
    tu: Vec<f64>,
}

/// A block of one solve: a working block with a free term, and its `C`
/// less the fixed variables' terms.
struct Active<'a> {
    blk: &'a Block,
    c: Matrix,
}

/// An SDP in the solver's working form: built once, then solved under
/// bounds that may change from solve to solve, as a branch-and-bound
/// relaxator's do from node to node.
pub struct SdpSolver {
    m: usize,
    b: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// The PSD blocks, then one 1×1 block per finite side of a linear row.
    blocks: Vec<Block>,
    /// The variables whose bounds leave them room.
    free: Vec<usize>,
}

impl SdpSolver {
    pub fn new(p: &SdpProblem) -> Self {
        let mut blocks: Vec<Block> = p.blocks.iter().map(Block::from_dense).collect();
        for row in &p.lin {
            // aᵀy ≤ rhs  →  1×1 block [rhs − aᵀy] ⪰ 0, and lhs ≤ aᵀy alike.
            for (c, sign) in
                [(row.rhs, 1.0), (-row.lhs, -1.0)].into_iter().filter(|c| c.0 < BOUND_INF)
            {
                let mut blk = SdpBlock::new(1, p.m);
                blk.c = Matrix::from_diag(&[c]);
                for &(i, a) in &row.terms {
                    blk.set_a(i, Matrix::from_diag(&[sign * a]));
                }
                blocks.push(Block::from_dense(&blk));
            }
        }
        let mut solver =
            SdpSolver { m: p.m, b: p.b.clone(), lb: vec![], ub: vec![], blocks, free: vec![] };
        solver.set_bounds(&p.lb, &p.ub);
        solver
    }

    /// Solves `sup bᵀy` under the blocks and rows, within `lb ≤ y ≤ ub`
    /// (a bound beyond ±1e9 counts as ±1e9, `SdpProblem::new`'s free).
    pub fn solve(&mut self, lb: &[f64], ub: &[f64]) -> SdpResult {
        self.set_bounds(lb, ub);
        self.run()
    }

    fn set_bounds(&mut self, lb: &[f64], ub: &[f64]) {
        self.lb = lb.iter().map(|l| l.max(-FREE)).collect();
        self.ub = ub.iter().map(|u| u.min(FREE)).collect();
        self.free = (0..self.m).filter(|&i| self.ub[i] - self.lb[i] > 1e-12).collect();
        let mut free_pos = vec![None; self.m];
        for (gi, &i) in self.free.iter().enumerate() {
            free_pos[i] = Some(gi);
        }
        for term in self.blocks.iter_mut().flat_map(|b| b.terms.iter_mut()) {
            term.free = free_pos[term.var];
        }
    }

    /// The start: each variable at the point of its box nearest 0 that
    /// keeps a unit from both bounds (the midpoint of a box narrower than
    /// 2, so a fixed variable at its value).
    fn start_point(&self) -> Vec<f64> {
        let at = |(&l, &u): (&f64, &f64)| {
            if u - l <= 2.0 {
                0.5 * (l + u)
            } else {
                0.0f64.clamp(l + 1.0, u - 1.0)
            }
        };
        self.lb.iter().zip(&self.ub).map(at).collect()
    }

    /// The bound slacks `y − ℓ` and `u − y` of the free variables.
    fn bound_slacks(&self, y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let f = &self.free;
        (
            f.iter().map(|&i| y[i] - self.lb[i]).collect(),
            f.iter().map(|&i| self.ub[i] - y[i]).collect(),
        )
    }

    /// `S_k(y) + β_k I` per block.
    fn slacks(&self, blocks: &[Active], y: &[f64], beta: &[f64]) -> Vec<Matrix> {
        let slack = |(a, &b): (&Active, &f64)| {
            let mut s = a.c.clone();
            a.blk.sub_terms(&mut s, |t| t.free.map_or(0.0, |_| y[t.var]));
            shifted(s, b)
        };
        blocks.iter().zip(beta).map(slack).collect()
    }

    /// Whether `X_k ⪰ 0` certifies that no `y` in the box is feasible.
    /// Every feasible `y` has `Σ_k ⟨S_k(y), X_k⟩ ≥ 0`; that sum is affine
    /// in `y`, so a negative maximum over the box (Farkas) rules them all
    /// out. The maximum must be negative beyond its terms' rounding.
    fn certifies_infeasible(&self, blocks: &[Active], x: &[Matrix]) -> bool {
        let (mut sup, mut scale) = (0.0, 0.0);
        let mut coef = vec![0.0; self.m];
        for (blk, xk) in blocks.iter().map(|a| a.blk).zip(x) {
            let cx = dot(blk.c.data(), xk.data());
            sup += cx;
            scale += cx.abs();
            for term in &blk.terms {
                coef[term.var] += term.inner(xk);
            }
        }
        // Σ_k ⟨S_k(y), X_k⟩ = sup − Σᵢ coefᵢ·yᵢ: take each yᵢ at the bound
        // that maximizes it; a free variable's is no proof.
        for (i, &c) in coef.iter().enumerate().filter(|&(_, &c)| c != 0.0) {
            let at = if c > 0.0 { self.lb[i] } else { self.ub[i] };
            if at.abs() >= BOUND_INF {
                return false;
            }
            sup -= c * at;
            scale += (c * at).abs();
        }
        sup < -1e-9 * scale
    }

    /// The starting iterate: `y` at [`SdpSolver::start_point`], `β_k` so
    /// that `λmin(S_k) ≥ 1`, and the centered `X_k = μ₀ S_k⁻¹`, `x = μ₀/s`,
    /// with `μ₀` from SDPT3's scale `ξ` of `X`.
    fn start(&self, blocks: &[Active]) -> Option<Iterate> {
        let y = self.start_point();
        let s0 = self.slacks(blocks, &y, &vec![0.0; blocks.len()]);
        let shift = |s: &Matrix| {
            let t = Tridiagonal::new(s.clone()).ok()?;
            Some(t.min_eigenvalue_below(1.0, 1e-4).map_or(0.0, |l| 1.0 - l))
        };
        let beta: Vec<f64> = s0.iter().map(shift).collect::<Option<_>>()?;
        let s: Vec<Matrix> = s0.into_iter().zip(&beta).map(|(s, &b)| shifted(s, b)).collect();
        let dim = blocks.iter().map(|a| a.blk.dim).sum::<usize>();
        let dim_max = blocks.iter().map(|a| a.blk.dim).max().unwrap_or(1) as f64;
        let mut xi = 10.0f64.max(dim_max.sqrt());
        for &i in &self.free {
            let terms = blocks.iter().flat_map(|a| &a.blk.terms).filter(|t| t.var == i);
            let norm = terms.flat_map(|t| &t.entries).map(|e| e.2 * e.2).sum::<f64>().sqrt();
            xi = xi.max(dim_max * (1.0 + self.b[i].abs()) / (1.0 + norm));
        }
        let mean = s.iter().map(Matrix::trace).sum::<f64>() / dim.max(1) as f64;
        let mu0 = xi * if dim > 0 { mean } else { 1.0 };
        let chol_s = factor(&s)?;
        let x: Vec<Matrix> = chol_s
            .iter()
            .map(|c| plus(&Matrix::zeros(c.order(), c.order()), mu0, &c.inverse()))
            .collect();
        let (sl, su) = self.bound_slacks(&y);
        let (xl, xu) = (sl.iter().map(|s| mu0 / s).collect(), su.iter().map(|s| mu0 / s).collect());
        Some(Iterate { y, sl, su, beta, chol_x: factor(&x)?, x, s, chol_s, xl, xu })
    }

    /// The primal–dual iteration.
    fn run(&self) -> SdpResult {
        let result = |status, y: Vec<f64>, iterations| SdpResult {
            status,
            obj: dot(&self.b, &y),
            y,
            iterations,
        };
        let y0 = self.start_point();
        // The blocks with a free term, with the fixed variables' terms moved
        // into C. A block without one is constant: it is either PSD, and
        // plays no part, or its least eigenvector certifies infeasibility.
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for blk in &self.blocks {
            let mut c = blk.c.clone();
            blk.sub_terms(&mut c, |t| if t.free.is_none() { y0[t.var] } else { 0.0 });
            if blk.terms.iter().any(|t| t.free.is_some()) {
                blocks.push(Active { blk, c });
            } else if Tridiagonal::new(c.clone())
                .map_or(true, |t| t.has_eigenvalue_below(-1e-9 * (1.0 + c.norm_frobenius())))
            {
                return result(SdpStatus::Infeasible, y0, 0);
            }
        }
        let Some(mut it) = self.start(&blocks) else {
            return result(SdpStatus::Numerical, y0, 0);
        };
        let k = self.free.len();
        let nu = (blocks.iter().map(|a| a.blk.dim).sum::<usize>() + 2 * k).max(1) as f64;
        let b_norm = 1.0 + self.free.iter().map(|&i| self.b[i] * self.b[i]).sum::<f64>().sqrt();
        let c_norm = 1.0 + blocks.iter().map(|a| dot(a.c.data(), a.c.data())).sum::<f64>().sqrt();
        let fixed = (0..self.m).filter(|&i| self.ub[i] - self.lb[i] <= 1e-12);
        let fixed_obj: f64 = fixed.map(|i| self.b[i] * y0[i]).sum();

        // The iterate with the least error so far, and the steps taken.
        let mut best = (f64::INFINITY, it.y.clone());
        let mut iterations = 0;
        for _ in 0..MAX_ITERS {
            let (sl, su) = (&it.sl, &it.su);
            // The residuals b − 𝒜(X) − x_u + x_ℓ and β, objectives, gap.
            let mut rp: Vec<f64> = self.free.iter().map(|&i| self.b[i]).collect();
            axpy(-1.0, &it.xu, &mut rp);
            axpy(1.0, &it.xl, &mut rp);
            let mut pobj = fixed_obj;
            for (a, x) in blocks.iter().zip(&it.x) {
                pobj += dot(a.c.data(), x.data());
                for term in &a.blk.terms {
                    if let Some(gi) = term.free {
                        rp[gi] -= term.inner(x);
                    }
                }
            }
            for (gi, &i) in self.free.iter().enumerate() {
                pobj += self.ub[i] * it.xu[gi] - self.lb[i] * it.xl[gi];
            }
            let dobj = dot(&self.b, &it.y);
            let comp = it.x.iter().zip(&it.s).map(|(x, s)| dot(x.data(), s.data())).sum::<f64>()
                + dot(&it.xl, sl)
                + dot(&it.xu, su);
            let mu = comp / nu;
            let pinf = dot(&rp, &rp).sqrt() / b_norm;
            let dims = blocks.iter().map(|a| (a.blk.dim as f64).sqrt());
            let dinf = dims.zip(&it.beta).map(|(d, b)| d * b).sum::<f64>() / c_norm;
            let gap = (pobj - dobj).abs().max(comp) / (1.0 + pobj.abs() + dobj.abs());
            let error = gap.max(pinf).max(dinf);
            if !error.is_finite() {
                break;
            }
            if error <= best.0 {
                best = (error, it.y.clone());
            }
            if error <= TOL {
                return result(SdpStatus::Optimal, it.y, iterations);
            }
            if self.certifies_infeasible(&blocks, &it.x) {
                return result(SdpStatus::Infeasible, it.y, iterations);
            }

            // The Schur complement, factored once for both directions.
            let zs: Vec<Matrix> = it.chol_s.iter().map(|c| c.inverse()).collect();
            let mut m = Matrix::zeros(k, k);
            for ((a, x), z) in blocks.iter().zip(&it.x).zip(&zs) {
                a.blk.add_schur(x, z, &mut m);
            }
            for gi in 0..k {
                m[(gi, gi)] += it.xl[gi] / sl[gi] + it.xu[gi] / su[gi];
            }
            let Ok(schur) = CholeskyFactor::new_shifted(&m, 1e-12, 1e6) else {
                break;
            };
            let xz: Vec<Matrix> = it.x.iter().zip(&zs).map(|(x, z)| mul(x, z)).collect();
            let direction = |t: &Target| self.direction(&blocks, &it, &zs, &xz, &schur, t);

            // Predictor: the affine-scaling direction (target 0).
            let zero = |n: usize| Matrix::zeros(n, n);
            let t = blocks.iter().map(|a| zero(a.blk.dim)).collect();
            let pred = direction(&Target { t, tl: vec![0.0; k], tu: vec![0.0; k] });
            let (ap, ad) = steps(&it, &pred, None);
            let mut comp_aff = 0.0;
            for (((x, s), dx), ds) in it.x.iter().zip(&it.s).zip(&pred.dx).zip(&pred.ds) {
                comp_aff += dot(x.data(), s.data())
                    + ad * dot(x.data(), ds.data())
                    + ap * dot(dx.data(), s.data())
                    + ap * ad * dot(dx.data(), ds.data());
            }
            for gi in 0..k {
                let dy = pred.dy[gi];
                comp_aff += (it.xl[gi] + ap * pred.dxl[gi]) * (sl[gi] + ad * dy)
                    + (it.xu[gi] + ap * pred.dxu[gi]) * (su[gi] - ad * dy);
            }
            let sigma = (comp_aff / comp).clamp(0.0, 1.0).powi(3);

            // Corrector: target σμ, less the predictor's second-order term.
            let t = |(dx, ds): (&Matrix, &Matrix)| {
                shifted(plus(&zero(dx.rows()), -1.0, &mul(dx, ds)), sigma * mu)
            };
            let target = Target {
                t: pred.dx.iter().zip(&pred.ds).map(t).collect(),
                tl: (0..k).map(|gi| sigma * mu - pred.dxl[gi] * pred.dy[gi]).collect(),
                tu: (0..k).map(|gi| sigma * mu + pred.dxu[gi] * pred.dy[gi]).collect(),
            };
            let dir = direction(&target);
            let (mut ap, mut ad) = steps(&it, &dir, Some(STEP));
            if ap.min(ad) < STALL_STEP && error <= STALL_TOL {
                break;
            }
            iterations += 1;

            // Step; halve it while a new X or S fails to factor.
            let stepped = (0..8).any(|_| {
                let mut y = it.y.clone();
                for (gi, &i) in self.free.iter().enumerate() {
                    y[i] += ad * dir.dy[gi];
                }
                let beta: Vec<f64> = it.beta.iter().map(|b| b * (1.0 - ad)).collect();
                let s = self.slacks(&blocks, &y, &beta);
                let x: Vec<Matrix> =
                    it.x.iter().zip(&dir.dx).map(|(x, d)| plus(x, ap, d)).collect();
                let (Some(chol_x), Some(chol_s)) = (factor(&x), factor(&s)) else {
                    (ap, ad) = (ap / 2.0, ad / 2.0);
                    return false;
                };
                axpy(ap, &dir.dxl, &mut it.xl);
                axpy(ap, &dir.dxu, &mut it.xu);
                (it.sl, it.su) = self.bound_slacks(&y);
                (it.y, it.beta, it.x, it.s, it.chol_x, it.chol_s) = (y, beta, x, s, chol_x, chol_s);
                true
            });
            if !stepped {
                break;
            }
        }
        // No further progress: the best point within the stall tolerance
        // is still an answer.
        let status = if best.0 <= STALL_TOL { SdpStatus::Optimal } else { SdpStatus::Numerical };
        result(status, best.1, iterations)
    }

    /// The HKM direction for `target`: with `G_k = (T_k + β_k X_k) S_k⁻¹`,
    /// `M Δy = b − 𝒜(G) − t_u/s_u + t_ℓ/s_ℓ`, then `ΔS = −βI − Σ AᵢΔyᵢ`,
    /// `ΔX = sym(G + X (Σ AᵢΔyᵢ) S⁻¹) − X` and `Δx = t/s − x ∓ (x/s) Δy`.
    fn direction(
        &self,
        blocks: &[Active],
        it: &Iterate,
        zs: &[Matrix],
        xz: &[Matrix],
        schur: &CholeskyFactor,
        target: &Target,
    ) -> Direction {
        let (k, sl, su) = (self.free.len(), &it.sl, &it.su);
        let mut rhs: Vec<f64> = (0..k)
            .map(|gi| self.b[self.free[gi]] - target.tu[gi] / su[gi] + target.tl[gi] / sl[gi])
            .collect();
        let gs: Vec<Matrix> = (0..blocks.len())
            .map(|b| plus(&mul(&target.t[b], &zs[b]), it.beta[b], &xz[b]))
            .collect();
        for (a, g) in blocks.iter().zip(&gs) {
            for term in a.blk.terms.iter().filter(|t| t.free.is_some()) {
                rhs[term.free.unwrap()] -= term.inner(g);
            }
        }
        let dy = schur.solve(&rhs).expect("one order");
        let (mut ds, mut dx) = (Vec::with_capacity(blocks.len()), Vec::with_capacity(blocks.len()));
        for (b, blk) in blocks.iter().map(|a| a.blk).enumerate() {
            // −Σ Aᵢ Δyᵢ, then ΔX and ΔS from it.
            let mut neg_da = Matrix::zeros(blk.dim, blk.dim);
            blk.sub_terms(&mut neg_da, |term| term.free.map_or(0.0, |gi| dy[gi]));
            let mut dxk = plus(&gs[b], -1.0, &mul(&it.x[b], &mul(&neg_da, &zs[b])));
            dxk.symmetrize();
            dx.push(plus(&dxk, -1.0, &it.x[b]));
            ds.push(shifted(neg_da, -it.beta[b]));
        }
        let dxl =
            (0..k).map(|gi| (target.tl[gi] - it.xl[gi] * dy[gi]) / sl[gi] - it.xl[gi]).collect();
        let dxu =
            (0..k).map(|gi| (target.tu[gi] + it.xu[gi] * dy[gi]) / su[gi] - it.xu[gi]).collect();
        Direction { dy, ds, dx, dxl, dxu }
    }
}

/// The primal and the dual step along `dir`, each at most 1 and within
/// the bound cones and the box: see [`cone_step`].
fn steps(it: &Iterate, dir: &Direction, frac: Option<f64>) -> (f64, f64) {
    let f = frac.unwrap_or(1.0);
    let bounds = step_to_zero(&it.xu, &dir.dxu, f, step_to_zero(&it.xl, &dir.dxl, f, 1.0));
    let down: Vec<f64> = dir.dy.iter().map(|d| -d).collect();
    let box_ = step_to_zero(&it.su, &down, f, step_to_zero(&it.sl, &dir.dy, f, 1.0));
    let primal = cone_step(&it.x, &it.chol_x, &dir.dx, frac, bounds);
    (primal, cone_step(&it.s, &it.chol_s, &dir.ds, frac, box_))
}

/// Solves the SDP by the primal–dual method.
pub fn solve(p: &SdpProblem, _opts: &SdpOptions) -> SdpResult {
    SdpSolver::new(p).solve(&p.lb, &p.ub)
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
        assert!((res.obj - 1.0).abs() < 1e-6, "obj = {}", res.obj);
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
        assert!((res.obj - 1.0).abs() < 1e-6, "obj = {}", res.obj);
        assert!(p.is_feasible(&res.y, 1e-6));
    }

    #[test]
    fn linear_rows_respected() {
        // max y, 1 − y ⪰ 0 but row y ≤ 0.4 binds.
        let mut p = scalar_problem();
        p.add_lin_row(f64::NEG_INFINITY, 0.4, vec![(0, 1.0)]);
        let res = solve(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Optimal);
        assert!((res.obj - 0.4).abs() < 1e-6, "obj = {}", res.obj);
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
        assert!((res.obj - 1.5).abs() < 1e-6, "obj = {}", res.obj);
        assert!(p.is_feasible(&res.y, 1e-6));
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
    fn conflicting_rows_are_certified_infeasible() {
        // y ≤ 1 by the block, y ≥ 1.5 by a row, y ∈ [−5, 5]: only a
        // certificate with a positive X on both blocks rules y out.
        let mut p = scalar_problem();
        p.add_lin_row(1.5, f64::INFINITY, vec![(0, 1.0)]);
        let res = solve(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Infeasible);
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
        assert!((res.obj - 1.3).abs() < 1e-6, "obj = {}", res.obj);
    }

    #[test]
    fn max_cut_style_relaxation() {
        // max y1+y2+y3 with C = [[1,.5,.5],[.5,1,.5],[.5,.5,1]], A_i = e_i e_iᵀ:
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
        assert!(p.is_feasible(&res.y, 1e-6));
        // By symmetry y_i = c: S = C − cI ⪰ 0 ⇔ c ≤ λmin(C) = 0.5 → obj 1.5.
        assert!((res.obj - 1.5).abs() < 1e-6, "obj = {}", res.obj);
    }

    #[test]
    fn a_box_alone_is_solved() {
        // max y0 − y1 over [−5, 5]² with no block: (5, −5).
        let mut p = SdpProblem::new(2);
        p.b = vec![1.0, -1.0];
        p.lb = vec![-5.0; 2];
        p.ub = vec![5.0; 2];
        let res = solve(&p, &SdpOptions::default());
        assert_eq!(res.status, SdpStatus::Optimal);
        assert!((res.obj - 10.0).abs() < 1e-5, "obj = {}", res.obj);
    }

    #[test]
    fn one_solver_serves_changing_bounds() {
        // The working form is built once; each solve sees only its bounds.
        let p = scalar_problem();
        let mut solver = SdpSolver::new(&p);
        for (ub, expect) in [(5.0, 1.0), (0.25, 0.25), (5.0, 1.0)] {
            let res = solver.solve(&[-5.0], &[ub]);
            assert_eq!(res.status, SdpStatus::Optimal);
            assert!((res.obj - expect).abs() < 1e-6, "ub {ub}: obj = {}", res.obj);
        }
        assert_eq!(solver.solve(&[2.0], &[5.0]).status, SdpStatus::Infeasible);
        assert_eq!(solver.solve(&[0.5], &[0.5]).obj, 0.5);
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
    fn relaxations_without_an_interior_are_solved() {
        // Fixing y_01 = 1 makes X's minor on {0, 1} singular: no y is
        // strictly feasible, and X_0j = X_1j on the whole face. Fixing
        // y_01 = y_12 = 1 and y_02 = 0 as well breaks transitivity, and the
        // relaxation is infeasible.
        for (n, seed) in [(5, 2), (6, 0), (7, 0), (8, 0)] {
            let mut p = mkp_relaxation(n, seed);
            let root = solve(&p, &SdpOptions::default());
            assert_eq!(root.status, SdpStatus::Optimal, "n = {n}");
            assert!(root.iterations <= 30, "n = {n}: {} iterations", root.iterations);
            p.lb[0] = 1.0;
            let face = solve(&p, &SdpOptions::default());
            assert_eq!(face.status, SdpStatus::Optimal, "n = {n}");
            assert!(face.obj <= root.obj + 1e-6, "n = {n}");
            assert!(p.is_feasible(&face.y, 1e-6), "n = {n}");
            // Pairs (0, 1), (0, 2) and (1, 2) are variables 0, 1 and n − 1.
            p.ub[1] = 0.0;
            p.lb[n - 1] = 1.0;
            assert_eq!(solve(&p, &SdpOptions::default()).status, SdpStatus::Infeasible, "n = {n}");
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
    /// second is a TTD block with the −I of 3: one axis bar `−c e_k e_kᵀ`
    /// per dimension and three dense bars `−g gᵀ` (variables from 7 on).
    /// The two-sided row over 0, 2 and 5 folds into two 1×1 blocks.
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

    /// `MᵀM + I` for a seeded random `M`.
    fn random_pd(dim: usize, seed: u64) -> Matrix {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let raw: Vec<f64> = (0..dim * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let m = Matrix::from_rows(dim, dim, raw).unwrap();
        let mut a = m.transpose().matmul(&m).unwrap();
        for d in 0..dim {
            a[(d, d)] += 1.0;
        }
        a
    }

    /// The definition: `m_ij = Σ_k tr(A_ki X_k A_kj S_k⁻¹)` over the free
    /// variables, as `tr((X_k A_kj)(S_k⁻¹ A_ki))` with `S⁻¹A` formed column
    /// by column, densely, over `p`'s blocks and then its folded rows.
    fn dense_schur(p: &SdpProblem, y: &[f64], xs: &[Matrix], free: &[usize]) -> Matrix {
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
        let mut m = Matrix::zeros(k, k);
        for (blk, x) in blocks.iter().zip(xs) {
            let chol = CholeskyFactor::new(&blk.slack(y)).unwrap();
            let sa: Vec<Option<Matrix>> = free
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
            for (gi, sai) in sa.iter().enumerate() {
                let Some(sai) = sai else { continue };
                for (gj, &j) in free.iter().enumerate() {
                    if let Some(aj) = &blk.a[j] {
                        m[(gi, gj)] += x.matmul(aj).unwrap().matmul(sai).unwrap().trace();
                    }
                }
            }
        }
        m
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
        fn schur_complement_matches_its_definition(dim in 1usize..7, seed in proptest::prelude::any::<u64>()) {
            let (p, y) = newton_case(dim, seed);
            let w = SdpSolver::new(&p);
            assert_eq!(w.free, (0..p.m).filter(|&i| i != 6).collect::<Vec<_>>());
            if dim > 1 {
                // Between them the two blocks pair rank one with rank one
                // (2 with itself, the dense bars with each other), rank one
                // with the rest (2 with 3, 4), the rest with rank one (0 with
                // 2, −I and the axis bars with the dense bars), dense with
                // dense (4 with itself) and sparse with non-rank-one
                // (0 with 1, 3, 4; −I with the axis bars): every formula of
                // `Block::add_schur`.
                assert_eq!(shapes(&w.blocks[0]), "SSRSDD");
                assert_eq!(shapes(&w.blocks[1]), format!("S{}RRR", "S".repeat(dim)));
            }
            // X is a random PD matrix of its own per block, so that the
            // assembly is held to tr(Aᵢ X Aⱼ S⁻¹), not to X = S⁻¹.
            let xs: Vec<Matrix> =
                w.blocks.iter().enumerate().map(|(k, b)| random_pd(b.dim, seed ^ (k as u64 + 1))).collect();
            let mut m = Matrix::zeros(w.free.len(), w.free.len());
            for (blk, x) in w.blocks.iter().zip(&xs) {
                let mut s = blk.c.clone();
                blk.sub_terms(&mut s, |t| y[t.var]);
                let z = CholeskyFactor::new(&s).expect("S(y) is PD by construction").inverse();
                blk.add_schur(x, &z, &mut m);
            }
            let dm = dense_schur(&p, &y, &xs, &w.free);
            let scale = 1.0 + dm.data().iter().fold(0.0f64, |a, v| a.max(v.abs()));
            for (n, (s, d)) in m.data().iter().zip(dm.data()).enumerate() {
                proptest::prop_assert!((s - d).abs() <= 1e-9 * scale, "m[{}]: {} vs {}", n, s, d);
            }
        }
    }
}
