//! Revised simplex engine (primal with composite phase 1, and dual for
//! warm starts after bound changes / row additions).
//!
//! Column numbering: `0..n` are the structural variables of the
//! [`LpProblem`], `n..n+m` are the logical (slack) variables, one per row,
//! entering the matrix as `[A | −I]`.

use crate::basis::{BasisError, BasisFactor, SparseCol};
use crate::problem::{LpProblem, VarId};
use crate::{FEAS_TOL, OPT_TOL};

/// Termination status of a simplex run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// `solve_*` has not run yet.
    NotSolved,
    /// Proven optimal (primal and dual feasible).
    Optimal,
    /// Proven primal infeasible.
    Infeasible,
    /// Proven unbounded.
    Unbounded,
    /// Iteration limit hit; bounds from the last iterate are still safe.
    IterLimit,
    /// Numerical trouble; treat the result as unusable.
    Numerical,
}

/// Status of a column (structural or slack) w.r.t. the current basis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable, held at zero.
    Free,
}

/// Minimum acceptable pivot magnitude in the ratio test.
const PIV_TOL: f64 = 1e-9;
/// Scale of the cost shifts `solve_dual` works with against dual
/// degeneracy: column `j` is shifted by `PERTURB·(1+|c_j|)·(1+h_j)`,
/// `h_j ∈ [0,1)` a hash of `j`.
const PERTURB: f64 = 5e-7;
/// Consecutive pivots that leave the objective where it is — a zero
/// primal step in the primal loop, a zero dual step in the dual loop —
/// before the loop switches to Bland's rule.
const STALL_LIMIT: usize = 50;
/// Floor of a dual steepest-edge weight after an update.
const WEIGHT_MIN: f64 = 1e-4;

/// Parameters of the simplex engine.
#[derive(Clone, Copy, Debug)]
pub struct SimplexParams {
    /// Iteration limit per `solve_*` call.
    pub iter_limit: usize,
}

impl Default for SimplexParams {
    fn default() -> Self {
        SimplexParams { iter_limit: 50_000 }
    }
}

/// A solved LP's output bundle.
#[derive(Clone, Debug)]
pub struct LpSolution {
    pub status: LpStatus,
    /// Objective value `cᵀx + offset` of the final iterate.
    pub obj: f64,
    /// Structural variable values.
    pub x: Vec<f64>,
    /// Row dual multipliers `y` (so reduced costs are `c − Aᵀy`).
    pub row_duals: Vec<f64>,
    /// Reduced costs of the structural variables.
    pub reduced_costs: Vec<f64>,
    /// Simplex iterations used by the last solve (for a dual solve: dual
    /// pivots plus the primal polish).
    pub iterations: usize,
}

/// Plain work counters over the lifetime of a [`Simplex`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LpCounters {
    /// Basis refactorizations.
    pub refactors: u64,
    /// FTRAN calls, the `τ = B⁻¹ρ` of every steepest-edge update included.
    pub ftrans: u64,
    pub btrans: u64,
    /// Eta-file updates (basis changes between refactorizations).
    pub eta_updates: u64,
    /// Dual simplex iterations.
    pub dual_pivots: u64,
    /// Primal simplex iterations, bound flips included.
    pub primal_pivots: u64,
    /// Dual simplex iterations whose ratio test saw a ratio of 0: the dual
    /// objective moved by no more than the tie tolerance.
    pub dual_degenerate: u64,
    /// Dual simplex iterations chosen by Bland's rule after a run of
    /// `STALL_LIMIT` zero dual steps.
    pub bland_pivots: u64,
}

/// A compact basis description for warm starting (SCIP-style basis
/// storage in branch-and-bound nodes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasisSnapshot {
    /// Status for each of the `n + m` columns.
    pub col_status: Vec<VarStatus>,
}

/// Revised simplex solver state. Owns a copy of the problem so bounds and
/// rows can be modified between solves.
pub struct Simplex {
    prob: LpProblem,
    params: SimplexParams,
    /// Status per column (n structurals + m slacks).
    vstat: Vec<VarStatus>,
    /// Basis columns, one per row position.
    basis_cols: Vec<usize>,
    /// Current value of every column.
    xval: Vec<f64>,
    factor: BasisFactor,
    status: LpStatus,
    iterations: usize,
    counters: LpCounters,
    /// The slack columns `−e_r`: every column of `[A | −I]` is a slice.
    slack: Vec<(u32, f64)>,
    /// Row-indexed scratch: FTRAN input (consumed) and BTRAN output (the
    /// duals `y` or the pivot row `ρ`).
    rowbuf: Vec<f64>,
    y: Vec<f64>,
    /// Position-indexed scratch: FTRAN output and BTRAN input (consumed).
    w: Vec<f64>,
    cb: Vec<f64>,
    /// `y` holds `B⁻ᵀc_B` with the phase-2 costs of the current basis: the
    /// primal loop has just returned `Optimal`, and no BTRAN, row addition,
    /// refactorization or basis install has happened since.
    y_duals: bool,
    /// Inside `solve_dual`, per nonbasic non-fixed column: the reduced
    /// cost, kept current from pivot to pivot while `dj_current`, and the
    /// pivot row `ρᵀa_j` (every column of `[A | −I]`, row-wise).
    dj: Vec<f64>,
    dj_current: bool,
    alpha: Vec<f64>,
    /// Per structural column, the cost shift `col_obj` adds: set by
    /// `solve_dual` for its dual loop, all zero everywhere else.
    shift: Vec<f64>,
    /// Dual steepest-edge weight per basis position, `β_p ≈ ‖e_pᵀB⁻¹‖²`:
    /// 1 for a slack basis, an installed basis and a new cut row, updated
    /// on every dual pivot, untouched by bound changes, refactorizations
    /// and primal pivots.
    weights: Vec<f64>,
    /// Position-indexed scratch: `τ = B⁻¹ρ` for the weight update.
    tau: Vec<f64>,
}

/// Column `j` of `[A | −I]`.
#[inline]
fn column<'a>(prob: &'a LpProblem, slack: &'a [(u32, f64)], j: usize) -> &'a SparseCol {
    match j.checked_sub(prob.num_vars()) {
        None => &prob.cols[j],
        Some(r) => std::slice::from_ref(&slack[r]),
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    One,
    Two,
}

impl Simplex {
    /// Creates a solver for `prob` with an all-slack starting basis.
    pub fn new(prob: LpProblem, params: SimplexParams) -> Self {
        let n = prob.num_vars();
        let m = prob.num_rows();
        let mut s = Simplex {
            prob,
            params,
            vstat: Vec::new(),
            basis_cols: Vec::new(),
            xval: vec![0.0; n + m],
            factor: BasisFactor::new(m),
            status: LpStatus::NotSolved,
            iterations: 0,
            counters: LpCounters::default(),
            slack: (0..m as u32).map(|r| (r, -1.0)).collect(),
            rowbuf: vec![0.0; m],
            y: vec![0.0; m],
            w: vec![0.0; m],
            cb: vec![0.0; m],
            y_duals: false,
            dj: vec![0.0; n + m],
            dj_current: false,
            alpha: vec![0.0; n + m],
            shift: vec![0.0; n],
            weights: Vec::new(),
            tau: vec![0.0; m],
        };
        s.install_slack_basis();
        s
    }

    /// The problem as currently held by the solver (bounds may have been
    /// modified via [`Simplex::set_var_bounds`], rows appended via
    /// [`Simplex::add_row`]).
    pub fn problem(&self) -> &LpProblem {
        &self.prob
    }

    /// Status of the last solve.
    pub fn status(&self) -> LpStatus {
        self.status
    }

    /// Cumulative simplex iterations over the lifetime of this solver.
    pub fn total_iterations(&self) -> usize {
        (self.counters.dual_pivots + self.counters.primal_pivots) as usize
    }

    /// Work counters over the lifetime of this solver.
    pub fn counters(&self) -> &LpCounters {
        &self.counters
    }

    /// Simplex iterations of the last `solve_*` call (for a dual solve:
    /// dual pivots plus the primal polish).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    fn n(&self) -> usize {
        self.prob.num_vars()
    }

    fn m(&self) -> usize {
        self.prob.num_rows()
    }

    #[inline]
    fn col_lb(&self, j: usize) -> f64 {
        if j < self.n() {
            self.prob.lb[j]
        } else {
            self.prob.row_lhs[j - self.n()]
        }
    }

    #[inline]
    fn col_ub(&self, j: usize) -> f64 {
        if j < self.n() {
            self.prob.ub[j]
        } else {
            self.prob.row_rhs[j - self.n()]
        }
    }

    /// The cost of column `j` the simplex works with: shifted inside the
    /// dual loop.
    #[inline]
    fn col_obj(&self, j: usize) -> f64 {
        if j < self.n() {
            self.prob.obj[j] + self.shift[j]
        } else {
            0.0
        }
    }

    /// Sparse dot of `y` with column `j`.
    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        column(&self.prob, &self.slack, j).iter().map(|&(r, c)| c * y[r as usize]).sum()
    }

    /// `w ← B⁻¹ rowbuf`; `rowbuf` is consumed.
    fn ftran(&mut self) {
        self.counters.ftrans += 1;
        self.factor.ftran_into(&mut self.rowbuf, &mut self.w);
    }

    /// `w ← B⁻¹ a_j`.
    fn ftran_col(&mut self, j: usize) {
        self.rowbuf.fill(0.0);
        for &(r, c) in column(&self.prob, &self.slack, j) {
            self.rowbuf[r as usize] = c;
        }
        self.ftran();
    }

    /// True for the columns the dual ratio test looks at: nonbasic and
    /// not fixed.
    fn dual_candidate(&self, j: usize) -> bool {
        self.vstat[j] != VarStatus::Basic && self.col_lb(j) != self.col_ub(j)
    }

    /// `y ← B⁻ᵀ cb`.
    fn btran(&mut self) {
        self.counters.btrans += 1;
        self.y_duals = false;
        self.factor.btran_into(&mut self.cb, &mut self.y);
    }

    fn nonbasic_resting_value(&self, j: usize) -> (f64, VarStatus) {
        let (lb, ub) = (self.col_lb(j), self.col_ub(j));
        let linf = LpProblem::is_neg_inf(lb);
        let uinf = LpProblem::is_pos_inf(ub);
        if linf && uinf {
            (0.0, VarStatus::Free)
        } else if linf {
            (ub, VarStatus::AtUpper)
        } else if uinf || lb.abs() <= ub.abs() {
            (lb, VarStatus::AtLower)
        } else {
            (ub, VarStatus::AtUpper)
        }
    }

    /// Installs the all-slack basis with structurals at their "resting"
    /// bound. Always succeeds (the slack basis `−I` is nonsingular).
    fn install_slack_basis(&mut self) {
        let (n, m) = (self.n(), self.m());
        self.vstat.clear();
        self.vstat.reserve(n + m);
        for j in 0..n {
            let (v, st) = self.nonbasic_resting_value(j);
            self.xval[j] = v;
            self.vstat.push(st);
        }
        for _ in 0..m {
            self.vstat.push(VarStatus::Basic);
        }
        self.basis_cols = (n..n + m).collect();
        self.reset_weights();
        self.factor.reset(m);
        self.y_duals = false;
    }

    /// Every dual steepest-edge weight to 1: exact for the slack basis
    /// `−I`, a guess for any other.
    fn reset_weights(&mut self) {
        self.weights.clear();
        self.weights.resize(self.m(), 1.0);
    }

    /// Installs a caller-provided basis snapshot; falls back to the slack
    /// basis when the snapshot's basic-column count does not match `m`.
    pub fn set_basis(&mut self, snap: &BasisSnapshot) {
        let (n, m) = (self.n(), self.m());
        if snap.col_status.len() != n + m
            || snap.col_status.iter().filter(|s| **s == VarStatus::Basic).count() != m
        {
            self.install_slack_basis();
            return;
        }
        self.vstat = snap.col_status.clone();
        self.basis_cols = (0..n + m).filter(|&j| self.vstat[j] == VarStatus::Basic).collect();
        for j in 0..n + m {
            match self.vstat[j] {
                VarStatus::AtLower => self.xval[j] = self.col_lb(j),
                VarStatus::AtUpper => self.xval[j] = self.col_ub(j),
                VarStatus::Free => self.xval[j] = 0.0,
                VarStatus::Basic => {}
            }
        }
        self.reset_weights();
        self.factor.reset(m);
        self.y_duals = false;
    }

    /// Returns the current basis for storage in a B&B node.
    pub fn basis_snapshot(&self) -> BasisSnapshot {
        BasisSnapshot { col_status: self.vstat.clone() }
    }

    /// Changes variable bounds between solves (branching). Keeps the basis;
    /// snaps the value of a nonbasic variable onto the moved bound.
    pub fn set_var_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        self.prob.set_bounds(v, lb, ub);
        let j = v.0 as usize;
        match self.vstat[j] {
            VarStatus::Basic => {}
            _ => {
                let (val, st) = self.nonbasic_resting_value(j);
                // Keep the side the variable was resting on if it is still
                // finite; otherwise fall back to the resting heuristic.
                let (nlb, nub) = (self.col_lb(j), self.col_ub(j));
                match self.vstat[j] {
                    VarStatus::AtLower if !LpProblem::is_neg_inf(nlb) => self.xval[j] = nlb,
                    VarStatus::AtUpper if !LpProblem::is_pos_inf(nub) => self.xval[j] = nub,
                    _ => {
                        self.xval[j] = val;
                        self.vstat[j] = st;
                    }
                }
            }
        }
        self.status = LpStatus::NotSolved;
    }

    /// Appends a row (cutting plane) between solves. The new slack enters
    /// the basis, preserving dual feasibility, so [`Simplex::solve_dual`]
    /// warm-starts cleanly.
    pub fn add_row(&mut self, lhs: f64, rhs: f64, terms: &[(VarId, f64)]) {
        self.add_rows([(lhs, rhs, terms)]);
    }

    /// Appends a batch of rows `(lhs, rhs, terms)` as [`Simplex::add_row`]
    /// does, invalidating the factorization once. A new row's weight is
    /// 1; the old positions keep theirs, which stay exact: `e_pᵀB⁻¹` only
    /// gains a zero for each new row.
    pub fn add_rows<'a>(&mut self, rows: impl IntoIterator<Item = (f64, f64, &'a [(VarId, f64)])>) {
        for (lhs, rhs, terms) in rows {
            let r = self.prob.add_row(lhs, rhs, terms).0;
            // Slack columns are a suffix of the column numbering, so
            // pushing keeps every index valid.
            self.vstat.push(VarStatus::Basic);
            self.basis_cols.push(self.n() + r as usize);
            self.xval.push(0.0);
            self.slack.push((r, -1.0));
            self.weights.push(1.0);
        }
        let (n, m) = (self.n(), self.m());
        for buf in [&mut self.rowbuf, &mut self.y, &mut self.w, &mut self.cb, &mut self.tau] {
            buf.resize(m, 0.0);
        }
        self.dj.resize(n + m, 0.0);
        self.alpha.resize(n + m, 0.0);
        self.factor.reset(m);
        self.y_duals = false;
        self.status = LpStatus::NotSolved;
    }

    /// Recomputes all basic values from the nonbasic ones:
    /// `z_B = −B⁻¹ N z_N`.
    fn compute_basics(&mut self) {
        self.rowbuf.fill(0.0);
        for j in 0..self.n() + self.m() {
            let xj = self.xval[j];
            if self.vstat[j] == VarStatus::Basic || xj == 0.0 {
                continue;
            }
            for &(r, c) in column(&self.prob, &self.slack, j) {
                self.rowbuf[r as usize] -= c * xj;
            }
        }
        self.ftran();
        for (pos, &col) in self.basis_cols.iter().enumerate() {
            self.xval[col] = self.w[pos];
        }
    }

    /// (Re)factorizes the basis; on singularity falls back to the slack
    /// basis. Returns `false` only if even that fails (cannot happen for
    /// well-formed problems, but guard anyway).
    fn ensure_factorized(&mut self) -> bool {
        if !self.factor.needs_refactor() {
            return true;
        }
        if self.refactor().is_err() {
            // Singular: only the slack basis is known to factorize.
            self.install_slack_basis();
            if self.refactor().is_err() {
                return false;
            }
        }
        self.compute_basics();
        true
    }

    /// Readies the basis for a new solve: a stale factorization is
    /// refactored, which recomputes the basic values; a current one keeps
    /// its factors and only recomputes the basics under the (possibly
    /// changed) bounds. `false` as for [`Simplex::ensure_factorized`].
    fn prepare_basis(&mut self) -> bool {
        if self.factor.needs_refactor() {
            return self.ensure_factorized();
        }
        self.compute_basics();
        true
    }

    /// Factorizes the current basis from the problem's sparse columns.
    fn refactor(&mut self) -> Result<(), BasisError> {
        self.counters.refactors += 1;
        self.dj_current = false;
        self.y_duals = false;
        let cols: Vec<&SparseCol> =
            self.basis_cols.iter().map(|&j| column(&self.prob, &self.slack, j)).collect();
        self.factor.refactor_cols(&cols)
    }

    fn force_refactor(&mut self) -> bool {
        self.factor.reset(self.m());
        self.ensure_factorized()
    }

    /// Total primal infeasibility of the basic variables.
    fn primal_infeasibility(&self) -> f64 {
        let tol = FEAS_TOL;
        let mut s = 0.0;
        for &col in &self.basis_cols {
            let v = self.xval[col];
            let (lb, ub) = (self.col_lb(col), self.col_ub(col));
            if v < lb - tol {
                s += lb - v;
            } else if v > ub + tol {
                s += v - ub;
            }
        }
        s
    }

    fn current_phase(&self) -> Phase {
        if self.primal_infeasibility() > 0.0 {
            Phase::One
        } else {
            Phase::Two
        }
    }

    /// `y ← B⁻ᵀ c_B` for the phase-aware basic cost vector `c_B`.
    fn compute_row_duals(&mut self, phase: Phase) {
        let tol = FEAS_TOL;
        for (pos, &col) in self.basis_cols.iter().enumerate() {
            self.cb[pos] = match phase {
                Phase::Two => self.col_obj(col),
                Phase::One => {
                    let v = self.xval[col];
                    if v < self.col_lb(col) - tol {
                        -1.0
                    } else if v > self.col_ub(col) + tol {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
        }
        self.btran();
    }

    /// Prices all nonbasic columns; returns the entering column and its
    /// movement direction (+1 increase / −1 decrease), or `None` when no
    /// candidate violates dual feasibility.
    fn price(&self, phase: Phase, bland: bool) -> Option<(usize, f64)> {
        let tol = OPT_TOL;
        let mut best: Option<(usize, f64, f64)> = None; // (col, dir, score)
        for j in 0..self.n() + self.m() {
            let st = self.vstat[j];
            if st == VarStatus::Basic {
                continue;
            }
            let (lb, ub) = (self.col_lb(j), self.col_ub(j));
            if lb == ub {
                continue; // fixed: never enters
            }
            let cj = if phase == Phase::Two { self.col_obj(j) } else { 0.0 };
            let d = cj - self.col_dot(j, &self.y);
            let (dir, score) = match st {
                VarStatus::AtLower if d < -tol => (1.0, -d),
                VarStatus::AtUpper if d > tol => (-1.0, d),
                VarStatus::Free if d < -tol => (1.0, -d),
                VarStatus::Free if d > tol => (-1.0, d),
                _ => continue,
            };
            if bland {
                return Some((j, dir));
            }
            if best.as_ref().is_none_or(|b| score > b.2) {
                best = Some((j, dir, score));
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    /// One primal ratio test. Returns `None` for an unbounded ray, or the
    /// blocking event `(t, block)` where `block` is either the entering
    /// column's own opposite bound (`Block::Flip`) or a basis position.
    fn ratio_test(&self, q: usize, dir: f64, phase: Phase) -> Option<(f64, Block)> {
        let tol = FEAS_TOL;
        let ptol = PIV_TOL;
        let mut t_best = f64::INFINITY;
        let mut block = Block::Flip;
        let mut piv_best = 0.0f64;

        // Entering variable's own range (bound flip).
        let (qlb, qub) = (self.col_lb(q), self.col_ub(q));
        if !LpProblem::is_neg_inf(qlb) && !LpProblem::is_pos_inf(qub) {
            t_best = qub - qlb;
        }

        for (pos, &col) in self.basis_cols.iter().enumerate() {
            // z_col(t) = z_col − dir·w[pos]·t; rate of decrease g:
            let g = dir * self.w[pos];
            if g.abs() <= ptol {
                continue;
            }
            let v = self.xval[col];
            let (lb, ub) = (self.col_lb(col), self.col_ub(col));
            let below = v < lb - tol;
            let above = v > ub + tol;
            let (t, leave_at_upper) = if phase == Phase::One && below {
                if g < 0.0 {
                    // moving up: blocks when reaching its violated lower bound
                    ((lb - v) / (-g), false)
                } else {
                    continue; // moving further down: no block in phase 1
                }
            } else if phase == Phase::One && above {
                if g > 0.0 {
                    ((v - ub) / g, true)
                } else {
                    continue;
                }
            } else if g > 0.0 {
                // decreasing toward lower bound
                if LpProblem::is_neg_inf(lb) {
                    continue;
                }
                (((v - lb) / g).max(0.0), false)
            } else {
                // increasing toward upper bound
                if LpProblem::is_pos_inf(ub) {
                    continue;
                }
                (((ub - v) / (-g)).max(0.0), true)
            };
            // Prefer strictly smaller t; on near-ties prefer larger |pivot|.
            if t < t_best - 1e-10 || (t < t_best + 1e-10 && g.abs() > piv_best) {
                t_best = t;
                piv_best = g.abs();
                block = Block::Leave { pos, at_upper: leave_at_upper };
            }
        }
        if t_best.is_infinite() {
            None
        } else {
            Some((t_best.max(0.0), block))
        }
    }

    /// Core primal loop, used both from scratch (phase 1 → phase 2) and to
    /// polish after a dual warm start.
    pub fn solve_primal(&mut self) -> LpStatus {
        self.iterations = 0;
        self.status = self.primal_loop();
        self.status
    }

    /// The primal loop proper. `iter_limit` applies to this loop's own
    /// pivots, so the polish after a dual solve gets a full budget.
    fn primal_loop(&mut self) -> LpStatus {
        let mut iters = 0usize;
        let mut stall = 0usize;
        if !self.prepare_basis() {
            return LpStatus::Numerical;
        }
        loop {
            if iters >= self.params.iter_limit {
                return LpStatus::IterLimit;
            }
            if self.factor.needs_refactor() && !self.ensure_factorized() {
                return LpStatus::Numerical;
            }
            let phase = self.current_phase();
            self.compute_row_duals(phase);
            let bland = stall > STALL_LIMIT;
            let Some((q, dir)) = self.price(phase, bland) else {
                if phase == Phase::One {
                    return LpStatus::Infeasible;
                }
                self.y_duals = true;
                return LpStatus::Optimal;
            };
            self.ftran_col(q);
            let Some((t, block)) = self.ratio_test(q, dir, phase) else {
                // An improving phase-1 ray must hit a bound eventually;
                // reaching here means tolerances broke down.
                return if phase == Phase::One { LpStatus::Numerical } else { LpStatus::Unbounded };
            };
            iters += 1;
            self.iterations += 1;
            self.counters.primal_pivots += 1;
            if t <= 1e-12 {
                stall += 1;
            } else {
                stall = 0;
            }
            // Apply the step to the basic values and the entering column.
            for (pos, &col) in self.basis_cols.iter().enumerate() {
                self.xval[col] -= dir * self.w[pos] * t;
            }
            self.xval[q] += dir * t;
            match block {
                Block::Flip => {
                    self.vstat[q] = if dir > 0.0 { VarStatus::AtUpper } else { VarStatus::AtLower };
                    // snap exactly
                    self.xval[q] = if dir > 0.0 { self.col_ub(q) } else { self.col_lb(q) };
                }
                Block::Leave { pos, at_upper } => {
                    let leaving = self.basis_cols[pos];
                    self.vstat[leaving] =
                        if at_upper { VarStatus::AtUpper } else { VarStatus::AtLower };
                    self.xval[leaving] =
                        if at_upper { self.col_ub(leaving) } else { self.col_lb(leaving) };
                    self.vstat[q] = VarStatus::Basic;
                    self.basis_cols[pos] = q;
                    self.counters.eta_updates += 1;
                    if self.factor.update(pos, &self.w).is_err() && !self.force_refactor() {
                        return LpStatus::Numerical;
                    }
                }
            }
        }
    }

    /// Dual simplex from the current basis, then a primal polish. A basis
    /// that is not dual feasible is tolerated (reduced costs are clamped in
    /// the ratio test): a primal feasible start goes to the polish at once.
    ///
    /// The dual loop runs on perturbed costs: every nonbasic structural
    /// column's cost is shifted toward dual feasibility at its current
    /// bound by a small amount that differs from column to column, so
    /// ties among the ratios are broken and the dual objective moves on
    /// most pivots. The shift
    /// is removed when the loop ends, however it ends; the polish then
    /// prices with the true costs, so an optimal result is optimal for
    /// the unperturbed LP.
    ///
    /// Each iteration prices the leaving row by dual steepest edge: the
    /// primal-infeasible basic position `p` with the largest
    /// `infeas_p²/β_p`, `β_p` the weight of [`Simplex::update_weights`].
    /// It builds the pivot row `ᾱ = ρᵀ[A | −I]` row-wise from the nonzeros
    /// of `ρ = B⁻ᵀe_r`. The reduced costs `dj` are computed from `y =
    /// B⁻ᵀc_B` when the call starts and after every refactorization, and in
    /// between updated from that pivot row.
    pub fn solve_dual(&mut self) -> LpStatus {
        self.iterations = 0;
        if !self.prepare_basis() {
            self.status = LpStatus::Numerical;
            return self.status;
        }
        self.perturb_costs();
        let end = self.dual_loop();
        self.shift.fill(0.0);
        self.status = match end {
            Some(st) => st,
            None => self.primal_loop(),
        };
        self.status
    }

    /// Shifts the cost of every structural column toward dual feasibility
    /// at its current status: `+ξ_j` at its lower bound, `−ξ_j` at its
    /// upper bound, none when basic or free, with
    /// `ξ_j = PERTURB·(1+|c_j|)·(1+h_j)` and `h_j` a SplitMix64 hash of
    /// `j`. No state and no clock: a solve repeats bit for bit.
    fn perturb_costs(&mut self) {
        for j in 0..self.n() {
            let xi = PERTURB * (1.0 + self.prob.obj[j].abs()) * (1.0 + unit_hash(j as u64));
            self.shift[j] = match self.vstat[j] {
                VarStatus::AtLower => xi,
                VarStatus::AtUpper => -xi,
                VarStatus::Basic | VarStatus::Free => 0.0,
            };
        }
    }

    /// The dual simplex iterations of [`Simplex::solve_dual`] on the
    /// perturbed costs. `None` hands over to the primal loop: the basis is
    /// primal feasible, or the dual pivots stalled on void pivots.
    ///
    /// After more than `STALL_LIMIT` consecutive pivots with a zero dual
    /// step (an entering ratio of 0) both choices follow Bland's rule until
    /// the dual objective moves again, which rules out a cycle.
    fn dual_loop(&mut self) -> Option<LpStatus> {
        let mut zero_steps = 0usize;
        let mut void_pivots = 0usize;
        let mut iters = 0usize;
        self.dj_current = false;
        loop {
            if iters >= self.params.iter_limit {
                return Some(LpStatus::IterLimit);
            }
            if self.factor.needs_refactor() && !self.ensure_factorized() {
                return Some(LpStatus::Numerical);
            }
            let bland = zero_steps > STALL_LIMIT;
            let Some((rpos, below)) = self.choose_leaving(bland) else {
                // Primal feasible: polish with the primal loop, which will
                // confirm optimality (or fix mild dual infeasibility).
                return None;
            };

            #[cfg(debug_assertions)]
            if self.dj_current {
                self.check_reduced_costs();
            }
            if !self.dj_current {
                self.compute_reduced_costs();
                self.dj_current = true;
            }
            self.compute_pivot_row(rpos);
            #[cfg(debug_assertions)]
            self.check_pivot_row();

            // sign = +1 when the leaving variable must increase.
            let sgn = if below { 1.0 } else { -1.0 };
            let Some(Entering { col: q, ratio, min_ratio }) = self.choose_entering(sgn, bland)
            else {
                return Some(LpStatus::Infeasible);
            };

            iters += 1;
            self.iterations += 1;
            self.counters.dual_pivots += 1;
            self.counters.dual_degenerate += (min_ratio == 0.0) as u64;
            self.counters.bland_pivots += bland as u64;

            // Pivot: q enters at position rpos; leaving goes to its
            // violated bound.
            self.ftran_col(q);
            if self.w[rpos].abs() <= PIV_TOL {
                // Numerically void pivot; refactorize and retry, falling
                // back to primal if it persists.
                if !self.force_refactor() {
                    return Some(LpStatus::Numerical);
                }
                void_pivots += 1;
                if void_pivots > STALL_LIMIT + 20 {
                    return None;
                }
                continue;
            }
            zero_steps = if ratio == 0.0 { zero_steps + 1 } else { 0 };
            self.update_weights(rpos);
            let leaving = self.basis_cols[rpos];
            if self.dj_current {
                // y moves by θρ, so d_j by −θᾱ_j; the leaving column has ᾱ = 1.
                let theta = self.dj[q] / self.alpha[q];
                if theta != 0.0 {
                    for j in 0..self.n() + self.m() {
                        if self.dual_candidate(j) {
                            self.dj[j] -= theta * self.alpha[j];
                        }
                    }
                }
                self.dj[leaving] = -theta;
                self.dj[q] = 0.0;
            }
            let (llb, lub) = (self.col_lb(leaving), self.col_ub(leaving));
            let lv = self.xval[leaving];
            let target = if below { llb } else { lub };
            // Step length of entering variable: Δ such that leaving reaches
            // its bound: x_leaving + (−w[rpos])·Δ... leaving moves by
            // −w[rpos]·Δ when q moves by Δ (z_B = −B⁻¹N z_N).
            let delta = (target - lv) / (-self.w[rpos]);
            for (pos, &col) in self.basis_cols.iter().enumerate() {
                self.xval[col] -= self.w[pos] * delta;
            }
            self.xval[q] += delta;
            self.vstat[leaving] = if below { VarStatus::AtLower } else { VarStatus::AtUpper };
            self.xval[leaving] = target;
            self.vstat[q] = VarStatus::Basic;
            self.basis_cols[rpos] = q;
            self.counters.eta_updates += 1;
            if self.factor.update(rpos, &self.w).is_err() && !self.force_refactor() {
                return Some(LpStatus::Numerical);
            }
        }
    }

    /// The leaving position of a dual iteration and whether its basic
    /// value lies below its lower bound; `None` when the basis is primal
    /// feasible. Dual steepest edge takes the infeasible position with the
    /// largest `infeas_p²/β_p`, Bland's rule the one whose basic column
    /// has the least index; the first position wins a tie.
    fn choose_leaving(&self, bland: bool) -> Option<(usize, bool)> {
        let tol = FEAS_TOL;
        let mut best: Option<(usize, bool, f64)> = None; // (pos, below, score)
        for (pos, &col) in self.basis_cols.iter().enumerate() {
            let v = self.xval[col];
            let (lb, ub) = (self.col_lb(col), self.col_ub(col));
            let (below, infeas) = if v < lb - tol {
                (true, lb - v)
            } else if v > ub + tol {
                (false, v - ub)
            } else {
                continue;
            };
            // Column indices are exact in an f64.
            let score = if bland { -(col as f64) } else { infeas * infeas / self.weights[pos] };
            if best.is_none_or(|b| score > b.2) {
                best = Some((pos, below, score));
            }
        }
        best.map(|(pos, below, _)| (pos, below))
    }

    /// The dual ratio test over the pivot row in `alpha`; `sgn` is +1 when
    /// the leaving variable must increase. `None` when no column can enter:
    /// the LP is infeasible. The least ratio `|d_j/ᾱ_j|` wins, among ratios
    /// within the tie tolerance of it the largest `|ᾱ_j|`; under Bland's
    /// rule the least column index among the columns at the least ratio.
    /// Reduced costs of the wrong sign count as 0.
    fn choose_entering(&self, sgn: f64, bland: bool) -> Option<Entering> {
        let dtol = OPT_TOL;
        let mut enter: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        let mut best_alpha = 0.0f64;
        let mut min_ratio = f64::INFINITY;
        for j in 0..self.n() + self.m() {
            if !self.dual_candidate(j) {
                continue;
            }
            let alpha = self.alpha[j] * sgn;
            // x_Br changes by −ᾱ_j·Δx_j (with ᾱ in unsigned orientation);
            // after sign-folding we need: at-lower j with alpha < 0 can
            // increase, at-upper j with alpha > 0 can decrease, free j any.
            let d = self.dj[j];
            let ratio = match self.vstat[j] {
                VarStatus::AtLower | VarStatus::Free if alpha < -PIV_TOL => d.max(0.0) / -alpha,
                VarStatus::AtUpper | VarStatus::Free if alpha > PIV_TOL => (-d).max(0.0) / alpha,
                _ => continue,
            };
            min_ratio = min_ratio.min(ratio);
            let better = if bland {
                ratio < best_ratio
            } else {
                ratio < best_ratio - dtol || (ratio < best_ratio + dtol && alpha.abs() > best_alpha)
            };
            if better {
                enter = Some(j);
                best_ratio = ratio;
                best_alpha = alpha.abs();
            }
        }
        enter.map(|col| Entering { col, ratio: best_ratio, min_ratio })
    }

    /// Forrest–Goldfarb update of the dual steepest-edge weights for the
    /// pivot that replaces basis position `r`, with `ρ = B⁻ᵀe_r` in `y` and
    /// `w = B⁻¹a_q` in `w`: `β_r` is set to `‖ρ‖²` exactly, then, with
    /// `τ = B⁻¹ρ` from one more FTRAN, `β_i ← β_i − 2(w_i/w_r)τ_i +
    /// (w_i/w_r)²β_r` (at least `WEIGHT_MIN`) for `w_i ≠ 0` and `β_r ←
    /// β_r/w_r²`.
    fn update_weights(&mut self, r: usize) {
        let beta_r: f64 = self.y.iter().map(|rho| rho * rho).sum();
        self.rowbuf.copy_from_slice(&self.y);
        self.counters.ftrans += 1;
        self.factor.ftran_into(&mut self.rowbuf, &mut self.tau);
        let wr = self.w[r];
        for (i, beta) in self.weights.iter_mut().enumerate() {
            let k = self.w[i] / wr;
            if i != r && k != 0.0 {
                *beta = (*beta - 2.0 * k * self.tau[i] + k * k * beta_r).max(WEIGHT_MIN);
            }
        }
        self.weights[r] = beta_r / (wr * wr);
    }

    /// `alpha ← ρᵀ[A | −I]` for `ρ = B⁻ᵀe_r`, which BTRAN leaves in `y`,
    /// row by row over the nonzeros of `ρ` in increasing row order: every
    /// `ᾱ_j` sums the products `c·ρ_i` of [`Simplex::col_dot`] in its
    /// order, so it is the same value, up to the sign of an exact zero.
    fn compute_pivot_row(&mut self, r: usize) {
        self.cb.fill(0.0);
        self.cb[r] = 1.0;
        self.btran();
        let n = self.n();
        self.alpha.fill(0.0);
        for (i, &rho) in self.y.iter().enumerate() {
            if rho == 0.0 {
                continue;
            }
            for &(j, c) in &self.prob.rows[i] {
                self.alpha[j as usize] += c * rho;
            }
            self.alpha[n + i] = -rho;
        }
    }

    /// The row-wise pivot row against `col_dot(j, ρ)` for every dual
    /// candidate, bit for bit with `±0` equal; debug builds check at every
    /// dual iteration.
    #[cfg(debug_assertions)]
    fn check_pivot_row(&self) {
        for j in (0..self.n() + self.m()).filter(|&j| self.dual_candidate(j)) {
            let (row, col) = (self.alpha[j], self.col_dot(j, &self.y));
            assert!(
                row.to_bits() == col.to_bits() || (row == 0.0 && col == 0.0),
                "pivot row entry of column {j}: row-wise {row:e}, column-wise {col:e}"
            );
        }
    }

    /// `dj ← c − Aᵀy` with `y = B⁻ᵀc_B`, from scratch.
    fn compute_reduced_costs(&mut self) {
        self.compute_row_duals(Phase::Two);
        for j in 0..self.n() + self.m() {
            self.dj[j] = self.col_obj(j) - self.col_dot(j, &self.y);
        }
    }

    /// The incrementally updated reduced costs against `c − AᵀB⁻ᵀc_B`
    /// computed from scratch; debug builds check at every dual iteration.
    #[cfg(debug_assertions)]
    fn check_reduced_costs(&mut self) {
        let (kept, counted) = (self.dj.clone(), self.counters.btrans);
        self.compute_reduced_costs();
        self.counters.btrans = counted;
        for j in (0..kept.len()).filter(|&j| self.dual_candidate(j)) {
            let (inc, fresh) = (kept[j], self.dj[j]);
            assert!(
                (inc - fresh).abs() <= 1e-6 * (1.0 + fresh.abs()),
                "reduced cost of column {j} drifted: updated {inc}, recomputed {fresh}"
            );
        }
        self.dj = kept;
    }

    /// Objective value of the current iterate.
    pub fn obj_value(&self) -> f64 {
        self.prob.obj_offset + (0..self.n()).map(|j| self.prob.obj[j] * self.xval[j]).sum::<f64>()
    }

    /// Extracts the full solution bundle for the last solve.
    pub fn extract_solution(&mut self) -> LpSolution {
        let n = self.n();
        let m = self.m();
        let x: Vec<f64> = self.xval[..n].to_vec();
        let mut row_duals = vec![0.0; m];
        let mut reduced = vec![0.0; n];
        if m > 0 && matches!(self.status, LpStatus::Optimal | LpStatus::IterLimit) {
            if self.factor.needs_refactor() {
                let _ = self.ensure_factorized();
            }
            if !self.y_duals {
                self.compute_row_duals(Phase::Two);
            }
            row_duals.copy_from_slice(&self.y);
        }
        for (j, rj) in reduced.iter_mut().enumerate() {
            *rj = self.prob.obj[j] - self.col_dot(j, &row_duals);
        }
        LpSolution {
            status: self.status,
            obj: self.obj_value(),
            x,
            row_duals,
            reduced_costs: reduced,
            iterations: self.iterations,
        }
    }
}

/// SplitMix64 of `z`, mapped to `[0, 1)`.
fn unit_hash(z: u64) -> f64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The entering column a dual ratio test chose, its ratio, and the least
/// ratio of any candidate.
#[derive(Clone, Copy, Debug)]
struct Entering {
    col: usize,
    ratio: f64,
    min_ratio: f64,
}

#[derive(Clone, Copy, Debug)]
enum Block {
    /// Entering variable hits its own opposite bound (no basis change).
    Flip,
    /// Basic variable at position `pos` leaves at its lower/upper bound.
    Leave { pos: usize, at_upper: bool },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(p: &LpProblem) -> LpSolution {
        let mut s = Simplex::new(p.clone(), SimplexParams::default());
        s.solve_primal();
        s.extract_solution()
    }

    #[test]
    fn simple_max_as_min() {
        // max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0  → (8/5, 6/5), obj 14/5
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY, -1.0);
        let y = p.add_var(0.0, f64::INFINITY, -1.0);
        p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 2.0)]);
        p.add_row(f64::NEG_INFINITY, 6.0, &[(x, 3.0), (y, 1.0)]);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.obj + 14.0 / 5.0).abs() < 1e-7, "obj = {}", s.obj);
        assert!((s.x[0] - 8.0 / 5.0).abs() < 1e-7);
        assert!((s.x[1] - 6.0 / 5.0).abs() < 1e-7);
    }

    #[test]
    fn equality_rows_need_phase1() {
        // min x + y s.t. x + y = 2, x - y = 0 → x=y=1, obj 2.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0, 1.0);
        let y = p.add_var(0.0, 10.0, 1.0);
        p.add_row(2.0, 2.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(0.0, 0.0, &[(x, 1.0), (y, -1.0)]);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.obj - 2.0).abs() < 1e-7);
        assert!((s.x[0] - 1.0).abs() < 1e-7 && (s.x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0, 0.0);
        p.add_row(5.0, f64::INFINITY, &[(x, 1.0)]);
        assert_eq!(solve(&p).status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY, -1.0);
        let y = p.add_var(0.0, f64::INFINITY, 0.0);
        p.add_row(0.0, f64::INFINITY, &[(x, -1.0), (y, 1.0)]);
        assert_eq!(solve(&p).status, LpStatus::Unbounded);
    }

    #[test]
    fn bound_flip_only_problem() {
        // No rows at all: min -x, x in [2, 7] → x = 7.
        let mut p = LpProblem::new();
        p.add_var(2.0, 7.0, -1.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 7.0).abs() < 1e-9);
        assert!((s.obj + 7.0).abs() < 1e-9);
    }

    #[test]
    fn ranged_row_lower_side_binds() {
        // min x + y s.t. 3 <= x + y <= 10 → obj 3.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0, 1.0);
        let y = p.add_var(0.0, 10.0, 1.0);
        p.add_row(3.0, 10.0, &[(x, 1.0), (y, 1.0)]);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.obj - 3.0).abs() < 1e-7);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -5 and x + y >= -3, y in [0, 1] → x = -4 (y=1).
        let mut p = LpProblem::new();
        let x = p.add_var(-5.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, 1.0, 0.0);
        p.add_row(-3.0, f64::INFINITY, &[(x, 1.0), (y, 1.0)]);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] + 4.0).abs() < 1e-7, "x = {}", s.x[0]);
    }

    #[test]
    fn free_variable_enters() {
        // min y s.t. y >= x - 2, y >= -x, x free → x = 1, y = -1.
        let mut p = LpProblem::new();
        let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let y = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_row(-2.0, f64::INFINITY, &[(y, 1.0), (x, -1.0)]); // y - x >= -2
        p.add_row(0.0, f64::INFINITY, &[(y, 1.0), (x, 1.0)]); // y + x >= 0
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.obj + 1.0).abs() < 1e-7, "obj = {}", s.obj);
    }

    #[test]
    fn duals_satisfy_complementary_slackness() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY, -3.0);
        let y = p.add_var(0.0, f64::INFINITY, -5.0);
        p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0)]);
        p.add_row(f64::NEG_INFINITY, 12.0, &[(y, 2.0)]);
        p.add_row(f64::NEG_INFINITY, 18.0, &[(x, 3.0), (y, 2.0)]);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.obj + 36.0).abs() < 1e-6); // classic Dantzig example
                                              // strong duality: obj = Σ y_i · rhs_i for binding rows
        let dual_obj: f64 = s.row_duals[0] * 4.0 + s.row_duals[1] * 12.0 + s.row_duals[2] * 18.0;
        assert!((dual_obj - s.obj).abs() < 1e-6, "dual {} vs {}", dual_obj, s.obj);
    }

    /// After an optimal solve `extract_solution` returns the duals the
    /// final basis was priced with, without a BTRAN, and they are the
    /// duals a fresh BTRAN computes, bit for bit.
    #[test]
    fn extract_solution_reuses_the_duals_of_the_optimal_basis() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0, -3.0);
        let y = p.add_var(0.0, 10.0, -5.0);
        p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0)]);
        p.add_row(f64::NEG_INFINITY, 12.0, &[(y, 2.0)]);
        p.add_row(f64::NEG_INFINITY, 18.0, &[(x, 3.0), (y, 2.0)]);
        let mut s = Simplex::new(p, SimplexParams::default());
        assert_eq!(s.solve_primal(), LpStatus::Optimal);
        for round in 0..2 {
            let btrans = s.counters().btrans;
            let reused = s.extract_solution().row_duals;
            assert_eq!(s.counters().btrans, btrans, "round {round}: no BTRAN");
            s.y_duals = false;
            let fresh = s.extract_solution().row_duals;
            assert_eq!(s.counters().btrans, btrans + 1);
            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused), bits(&fresh), "round {round}");
            // The dual simplex ends in the primal polish, which prices too.
            s.set_var_bounds(y, 0.0, 5.0);
            assert_eq!(s.solve_dual(), LpStatus::Optimal);
        }
    }

    #[test]
    fn warm_start_after_bound_change() {
        // Solve, then branch-like bound change, dual simplex re-solve.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0, -1.0);
        let y = p.add_var(0.0, 10.0, -2.0);
        p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
        let mut s = Simplex::new(p, SimplexParams::default());
        assert_eq!(s.solve_primal(), LpStatus::Optimal);
        let first = s.obj_value();
        assert!((first + 8.0).abs() < 1e-7); // y=4 → wait y<=4 via row, y=4, obj -8

        s.set_var_bounds(VarId(1), 0.0, 1.0); // y <= 1
        assert_eq!(s.solve_dual(), LpStatus::Optimal);
        let second = s.obj_value();
        assert!((second + 5.0).abs() < 1e-7, "obj = {second}"); // x=3,y=1
    }

    #[test]
    fn dual_solve_reports_dual_plus_polish_iterations() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0, -1.0);
        let y = p.add_var(0.0, 10.0, -2.0);
        p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
        let mut s = Simplex::new(p, SimplexParams::default());
        assert_eq!(s.solve_primal(), LpStatus::Optimal);
        let before = s.total_iterations();
        s.set_var_bounds(VarId(1), 0.0, 1.0);
        assert_eq!(s.solve_dual(), LpStatus::Optimal);
        assert!(s.iterations() >= 1, "the bound change needs a dual pivot");
        assert_eq!(s.iterations(), s.total_iterations() - before);
        assert_eq!(s.extract_solution().iterations, s.iterations());
    }

    #[test]
    fn warm_start_after_adding_cut() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0, -1.0);
        let y = p.add_var(0.0, 10.0, -1.0);
        p.add_row(f64::NEG_INFINITY, 6.0, &[(x, 1.0), (y, 1.0)]);
        let mut s = Simplex::new(p, SimplexParams::default());
        assert_eq!(s.solve_primal(), LpStatus::Optimal);
        assert!((s.obj_value() + 6.0).abs() < 1e-7);
        // "cut": x <= 2
        s.add_row(f64::NEG_INFINITY, 2.0, &[(VarId(0), 1.0)]);
        assert_eq!(s.solve_dual(), LpStatus::Optimal);
        assert!((s.obj_value() + 6.0).abs() < 1e-7); // still -6: x=2,y=4
        s.add_row(f64::NEG_INFINITY, 3.0, &[(VarId(1), 1.0)]);
        assert_eq!(s.solve_dual(), LpStatus::Optimal);
        assert!((s.obj_value() + 5.0).abs() < 1e-7); // x=2,y=3
    }

    #[test]
    fn dual_detects_infeasible_after_branching() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0, 1.0);
        let y = p.add_var(0.0, 10.0, 1.0);
        p.add_row(8.0, f64::INFINITY, &[(x, 1.0), (y, 1.0)]);
        let mut s = Simplex::new(p, SimplexParams::default());
        assert_eq!(s.solve_primal(), LpStatus::Optimal);
        s.set_var_bounds(VarId(0), 0.0, 3.0);
        s.set_var_bounds(VarId(1), 0.0, 3.0);
        assert_eq!(s.solve_dual(), LpStatus::Infeasible);
    }

    /// `solve_dual` from the slack basis of a fresh LP is the dual simplex
    /// where that basis is dual feasible, and the very pivots of
    /// `solve_primal` where it is primal feasible.
    #[test]
    fn solve_dual_from_the_slack_basis_picks_the_fitting_algorithm() {
        // Covering LP, c ≥ 0 at lower bounds: dual feasible, primal infeasible.
        let mut cover = LpProblem::new();
        let v: Vec<VarId> = (0..4).map(|j| cover.add_var(0.0, 1.0, 1.0 + j as f64)).collect();
        cover.add_row(1.0, f64::INFINITY, &[(v[0], 1.0), (v[1], 1.0)]);
        cover.add_row(1.0, f64::INFINITY, &[(v[1], 1.0), (v[2], 1.0), (v[3], 1.0)]);
        let mut s = Simplex::new(cover.clone(), SimplexParams::default());
        assert_eq!(s.solve_dual(), LpStatus::Optimal);
        assert!((s.obj_value() - 2.0).abs() < 1e-9);
        assert!(s.counters().dual_pivots >= 1);
        assert_eq!(s.counters().primal_pivots, 0, "a dual feasible start needs no polish");

        // Packing LP, c < 0: primal feasible, dual infeasible.
        let mut pack = LpProblem::new();
        let v: Vec<VarId> = (0..4).map(|j| pack.add_var(0.0, 1.0, -1.0 - j as f64)).collect();
        pack.add_row(f64::NEG_INFINITY, 1.0, &[(v[0], 1.0), (v[1], 1.0)]);
        pack.add_row(f64::NEG_INFINITY, 1.5, &[(v[1], 1.0), (v[2], 1.0), (v[3], 1.0)]);
        let mut warm = Simplex::new(pack.clone(), SimplexParams::default());
        let mut cold = Simplex::new(pack, SimplexParams::default());
        assert_eq!(warm.solve_dual(), LpStatus::Optimal);
        assert_eq!(cold.solve_primal(), LpStatus::Optimal);
        assert_eq!(warm.counters().dual_pivots, 0);
        assert_eq!(warm.counters().primal_pivots, cold.counters().primal_pivots);
        assert_eq!(warm.basis_snapshot(), cold.basis_snapshot());
        assert_eq!(warm.obj_value(), cold.obj_value());
    }

    /// A dual pivot whose entering column has reduced cost 0 leaves the
    /// dual objective where it is, and is counted as dual degenerate.
    #[test]
    fn dual_degenerate_pivots_are_counted() {
        // min x + y  s.t.  x ≥ 1,  x + y ≥ 1,  x, y ∈ [0, 10]. In the basis
        // {x, y} (y basic at 0) both rows are tight and the duals are
        // y₁ = 0, y₂ = 1, so the slack of x ≥ 1 rests at zero reduced cost.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0, 1.0);
        let y = p.add_var(0.0, 10.0, 1.0);
        p.add_row(1.0, f64::INFINITY, &[(x, 1.0)]);
        p.add_row(1.0, f64::INFINITY, &[(x, 1.0), (y, 1.0)]);
        let mut s = Simplex::new(p, SimplexParams::default());
        use VarStatus::*;
        s.set_basis(&BasisSnapshot { col_status: vec![Basic, Basic, AtLower, AtLower] });
        // The cut x ≥ 1.5 leaves through that slack (ratio 0), which pushes
        // y below 0; y leaves through the slack of x + y ≥ 1 (ratio 1).
        s.add_row(1.5, f64::INFINITY, &[(x, 1.0)]);
        assert_eq!(s.solve_dual(), LpStatus::Optimal);
        assert!((s.obj_value() - 1.5).abs() < 1e-12, "obj = {}", s.obj_value());
        let c = *s.counters();
        assert_eq!((c.dual_pivots, c.dual_degenerate, c.primal_pivots), (2, 1, 0), "{c:?}");
    }

    /// The cost shifts are deterministic, in `[ξ, 2ξ)` for `ξ =
    /// PERTURB·(1+|c_j|)`, signed by the column's bound, and gone once
    /// `solve_dual` returns.
    #[test]
    fn cost_shifts_follow_the_bound_and_do_not_outlive_the_solve() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0, 3.0);
        let y = p.add_var(-1.0, 1.0, -2.0);
        p.add_row(f64::NEG_INFINITY, 1.0, &[(x, 1.0), (y, 1.0)]);
        let mut s = Simplex::new(p, SimplexParams::default());
        s.vstat[1] = VarStatus::AtUpper;
        s.perturb_costs();
        let (xi_x, xi_y) = (PERTURB * 4.0, PERTURB * 3.0);
        assert!(xi_x <= s.shift[0] && s.shift[0] < 2.0 * xi_x, "{:?}", s.shift);
        assert!(-2.0 * xi_y < s.shift[1] && s.shift[1] <= -xi_y, "{:?}", s.shift);
        assert_eq!(s.col_obj(0), 3.0 + s.shift[0]);
        let first = s.shift.clone();
        s.perturb_costs();
        assert_eq!(s.shift, first);
        assert_eq!(s.solve_dual(), LpStatus::Optimal);
        assert!(s.shift.iter().all(|&d| d == 0.0), "{:?}", s.shift);
        assert!((0..4).all(|j| unit_hash(j) != unit_hash(j + 1)));
        assert!((0..1000).all(|j| (0.0..1.0).contains(&unit_hash(j))));
    }

    /// Two columns tie at the least ratio and a column with a larger ratio
    /// comes first: Bland's rule picks the infeasible basic of least
    /// column index and, in its pivot row, the least index at the least
    /// ratio; dual steepest edge and the ratio test's tie rule pick others.
    #[test]
    fn bland_rule_picks_least_indices_at_the_least_ratio() {
        // min 3x₀ + x₁ + 2x₂ + 2x₃  s.t.  x₀ + x₁ + 2x₂ + x₃ ≥ 1,
        // x₀ + x₁ ≥ 2: at the slack basis the slacks (columns 4 and 5)
        // are 1 and 2 below their bounds.
        let mut p = LpProblem::new();
        let v: Vec<VarId> = [3.0, 1.0, 2.0, 2.0].iter().map(|&c| p.add_var(0.0, 10.0, c)).collect();
        p.add_row(1.0, f64::INFINITY, &[(v[0], 1.0), (v[1], 1.0), (v[2], 2.0), (v[3], 1.0)]);
        p.add_row(2.0, f64::INFINITY, &[(v[0], 1.0), (v[1], 1.0)]);
        let mut s = Simplex::new(p, SimplexParams::default());
        assert!(s.prepare_basis());
        assert_eq!(s.choose_leaving(false), Some((1, true)), "infeasibility² 4 against 1");
        assert_eq!(s.choose_leaving(true), Some((0, true)), "column 4 before column 5");

        // Row 0's ratios d_j/|ᾱ_j| are 3, 1, 1, 2; x₂ has the larger pivot.
        s.compute_reduced_costs();
        s.compute_pivot_row(0);
        let dse = s.choose_entering(1.0, false).unwrap();
        let bland = s.choose_entering(1.0, true).unwrap();
        assert_eq!((dse.col, dse.ratio, dse.min_ratio), (2, 1.0, 1.0));
        assert_eq!((bland.col, bland.ratio, bland.min_ratio), (1, 1.0, 1.0));
        assert_eq!(s.solve_dual(), LpStatus::Optimal);
        assert!((s.obj_value() - 2.0).abs() < 1e-9, "obj = {}", s.obj_value());
    }

    /// `‖e_pᵀB⁻¹‖²` for every basis position, by BTRAN.
    fn exact_weights(s: &mut Simplex) -> Vec<f64> {
        assert!(s.ensure_factorized());
        (0..s.m())
            .map(|p| {
                s.cb.fill(0.0);
                s.cb[p] = 1.0;
                s.btran();
                s.y.iter().map(|r| r * r).sum()
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Dual pivots move the weights off 1 and keep them exact; bound
    /// changes, refactorizations and a solve without dual pivots leave them
    /// as they are; new rows append 1s behind the old weights.
    #[test]
    fn weights_follow_the_basis_only() {
        let mut p = LpProblem::new();
        let v: Vec<VarId> = (0..4).map(|j| p.add_var(0.0, 1.0, 1.0 + j as f64)).collect();
        p.add_row(1.0, f64::INFINITY, &[(v[0], 2.0), (v[1], 1.0)]);
        p.add_row(1.0, f64::INFINITY, &[(v[1], 1.0), (v[2], 3.0), (v[3], 1.0)]);
        let mut s = Simplex::new(p, SimplexParams::default());
        assert_eq!(s.weights, [1.0, 1.0]);
        assert_eq!(s.solve_dual(), LpStatus::Optimal);
        assert_eq!(s.counters().primal_pivots, 0);
        let solved = s.weights.clone();
        assert!(solved.iter().any(|&b| b != 1.0), "{solved:?}");
        for (b, e) in solved.iter().zip(exact_weights(&mut s)) {
            assert!((b - e).abs() <= 1e-12 * e, "{solved:?}");
        }

        s.set_var_bounds(v[3], 0.0, 2.0);
        assert_eq!(bits(&s.weights), bits(&solved));
        assert!(s.force_refactor());
        assert_eq!(bits(&s.weights), bits(&solved));
        let pivots = s.total_iterations();
        assert_eq!(s.solve_dual(), LpStatus::Optimal);
        assert_eq!(s.total_iterations(), pivots, "the optimal basis needs no pivot");
        assert_eq!(bits(&s.weights), bits(&solved));

        let cut = [(v[0], 1.0), (v[3], 1.0)];
        s.add_rows([(1.0, f64::INFINITY, &cut[..]), (f64::NEG_INFINITY, 1.0, &cut[..])]);
        assert_eq!(bits(&s.weights[..2]), bits(&solved));
        assert_eq!(s.weights[2..], [1.0, 1.0]);
        s.set_basis(&s.basis_snapshot());
        assert_eq!(s.weights, [1.0; 4]);
    }

    /// `PROPTEST_CASES` when it is set, else `default`.
    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    use proptest::prelude::*;

    /// Boxed covering LP: costs `c > 0` over `x ∈ [0, u]` and rows `aᵀx ≥
    /// b` with `a, b > 0`, dual feasible at the slack basis.
    fn covering_lp() -> impl Strategy<Value = LpProblem> {
        (2usize..9, 1usize..7).prop_flat_map(|(nvars, nrows)| {
            let vars = prop::collection::vec((0.1f64..3.0, 1.0f64..4.0), nvars);
            let row = (0.5f64..4.0, prop::collection::vec((0..nvars, 0.5f64..3.0), 1..=nvars));
            (vars, prop::collection::vec(row, nrows)).prop_map(|(vars, rows)| {
                let mut p = LpProblem::new();
                for (c, u) in vars {
                    p.add_var(0.0, u, c);
                }
                for (lhs, terms) in rows {
                    let t: Vec<(VarId, f64)> =
                        terms.iter().map(|&(j, a)| (VarId(j as u32), a)).collect();
                    p.add_row(lhs, f64::INFINITY, &t);
                }
                p
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases(64)))]

        /// A covering LP solved by the dual simplex from its slack basis,
        /// then re-solved after each of a run of bound changes: while no
        /// primal pivot has moved the basis behind the weights' back, every
        /// weight is `‖e_pᵀB⁻¹‖²` to 1e-8 relative; always at least
        /// `WEIGHT_MIN`.
        #[test]
        fn dual_steepest_edge_weights_stay_exact(
            p in covering_lp(),
            changes in prop::collection::vec((0usize..8, 0.0f64..1.0, 0.0f64..1.0), 1..8),
        ) {
            let boxes: Vec<f64> = p.ub.clone();
            let mut s = Simplex::new(p, SimplexParams::default());
            let mut exact = true;
            for round in 0..=changes.len() {
                if let Some(&(j, f, g)) = round.checked_sub(1).and_then(|k| changes.get(k)) {
                    let j = j % boxes.len();
                    let (lo, hi) = (f.min(g) * boxes[j], f.max(g) * boxes[j]);
                    s.set_var_bounds(VarId(j as u32), lo, hi);
                }
                let polished = s.counters().primal_pivots;
                s.solve_dual();
                exact &= s.counters().primal_pivots == polished;
                prop_assert!(s.weights.iter().all(|&b| b >= WEIGHT_MIN), "{:?}", s.weights);
                if exact {
                    let kept = s.weights.clone();
                    for (pos, (b, e)) in kept.iter().zip(exact_weights(&mut s)).enumerate() {
                        prop_assert!(
                            (b - e).abs() <= 1e-8 * e,
                            "round {round}, position {pos}: weight {b}, ‖e_pᵀB⁻¹‖² {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn basis_snapshot_round_trip() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0, -1.0);
        let y = p.add_var(0.0, 10.0, -2.0);
        p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
        let mut s = Simplex::new(p.clone(), SimplexParams::default());
        s.solve_primal();
        let snap = s.basis_snapshot();

        let mut s2 = Simplex::new(p, SimplexParams::default());
        s2.set_basis(&snap);
        assert_eq!(s2.solve_dual(), LpStatus::Optimal);
        assert!((s2.obj_value() - s.obj_value()).abs() < 1e-9);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut p = LpProblem::new();
        let x = p.add_var(3.0, 3.0, -1.0);
        let y = p.add_var(0.0, 10.0, -1.0);
        p.add_row(f64::NEG_INFINITY, 5.0, &[(x, 1.0), (y, 1.0)]);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.x[0], 3.0);
        assert!((s.x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant rows through the same vertex.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY, -1.0);
        let y = p.add_var(0.0, f64::INFINITY, -1.0);
        for k in 1..=6 {
            let kf = k as f64;
            p.add_row(f64::NEG_INFINITY, 2.0 * kf, &[(x, kf), (y, kf)]);
        }
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.obj + 2.0).abs() < 1e-7);
    }
}
