//! Revised simplex engine (primal with composite phase 1, and dual for
//! warm starts after bound changes / row additions).
//!
//! Column numbering: `0..n` are the structural variables of the
//! [`LpProblem`], `n..n+m` are the logical (slack) variables, one per row,
//! entering the matrix as `[A | −I]`.

use crate::basis::{BasisError, BasisFactor, SparseCol};
use crate::problem::{LpProblem, VarId};

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

/// Tunable parameters of the simplex engine.
#[derive(Clone, Copy, Debug)]
pub struct SimplexParams {
    /// Primal feasibility tolerance on bounds.
    pub feas_tol: f64,
    /// Dual feasibility (reduced cost) tolerance.
    pub opt_tol: f64,
    /// Minimum acceptable pivot magnitude in the ratio test.
    pub piv_tol: f64,
    /// Iteration limit per `solve_*` call.
    pub iter_limit: usize,
    /// Consecutive degenerate iterations before switching to Bland's rule.
    pub stall_limit: usize,
}

impl Default for SimplexParams {
    fn default() -> Self {
        SimplexParams {
            feas_tol: crate::FEAS_TOL,
            opt_tol: crate::OPT_TOL,
            piv_tol: 1e-9,
            iter_limit: 50_000,
            stall_limit: 50,
        }
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
    /// Row activities `Ax`.
    pub row_activity: Vec<f64>,
    /// Simplex iterations used by the last solve (for a dual solve: dual
    /// pivots plus the primal polish).
    pub iterations: usize,
}

/// Plain work counters over the lifetime of a [`Simplex`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LpCounters {
    /// Basis refactorizations.
    pub refactors: u64,
    pub ftrans: u64,
    pub btrans: u64,
    /// Eta-file updates (basis changes between refactorizations).
    pub eta_updates: u64,
    /// Dual simplex iterations.
    pub dual_pivots: u64,
    /// Primal simplex iterations, bound flips included.
    pub primal_pivots: u64,
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
    /// Inside `solve_dual`, per nonbasic non-fixed column: the reduced
    /// cost, kept current from pivot to pivot while `dj_current`, and the
    /// pivot row `ρᵀa_j`.
    dj: Vec<f64>,
    dj_current: bool,
    alpha: Vec<f64>,
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
            dj: vec![0.0; n + m],
            dj_current: false,
            alpha: vec![0.0; n + m],
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

    #[inline]
    fn col_obj(&self, j: usize) -> f64 {
        if j < self.n() {
            self.prob.obj[j]
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
        self.factor.reset(m);
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
        self.factor.reset(m);
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
    /// does, invalidating the factorization once.
    pub fn add_rows<'a>(&mut self, rows: impl IntoIterator<Item = (f64, f64, &'a [(VarId, f64)])>) {
        for (lhs, rhs, terms) in rows {
            let r = self.prob.add_row(lhs, rhs, terms).0;
            // Slack columns are a suffix of the column numbering, so
            // pushing keeps every index valid.
            self.vstat.push(VarStatus::Basic);
            self.basis_cols.push(self.n() + r as usize);
            self.xval.push(0.0);
            self.slack.push((r, -1.0));
        }
        let (n, m) = (self.n(), self.m());
        for buf in [&mut self.rowbuf, &mut self.y, &mut self.w, &mut self.cb] {
            buf.resize(m, 0.0);
        }
        self.dj.resize(n + m, 0.0);
        self.alpha.resize(n + m, 0.0);
        self.factor.reset(m);
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

    /// Factorizes the current basis from the problem's sparse columns.
    fn refactor(&mut self) -> Result<(), BasisError> {
        self.counters.refactors += 1;
        self.dj_current = false;
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
        let tol = self.params.feas_tol;
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
        let tol = self.params.feas_tol;
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
        let tol = self.params.opt_tol;
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
        let tol = self.params.feas_tol;
        let ptol = self.params.piv_tol;
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
        if !self.ensure_factorized() {
            return LpStatus::Numerical;
        }
        self.compute_basics();
        loop {
            if iters >= self.params.iter_limit {
                return LpStatus::IterLimit;
            }
            if self.factor.needs_refactor() && !self.ensure_factorized() {
                return LpStatus::Numerical;
            }
            let phase = self.current_phase();
            self.compute_row_duals(phase);
            let bland = stall > self.params.stall_limit;
            let Some((q, dir)) = self.price(phase, bland) else {
                return if phase == Phase::One { LpStatus::Infeasible } else { LpStatus::Optimal };
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
    /// The reduced costs `dj` are computed from `y = B⁻ᵀc_B` when the call
    /// starts and after every refactorization, and in between updated from
    /// the pivot row `ρᵀa_j` the ratio test computes anyway; under Bland's
    /// rule the ratio test stops at the first candidate, so they are
    /// recomputed for the next iteration.
    pub fn solve_dual(&mut self) -> LpStatus {
        self.iterations = 0;
        self.status = self.dual_loop();
        self.status
    }

    fn dual_loop(&mut self) -> LpStatus {
        // Refactorize only when the representation is stale (row added /
        // never factorized / eta file full); otherwise just recompute the
        // basic values under the (possibly changed) bounds.
        if self.factor.needs_refactor() && !self.ensure_factorized() {
            return LpStatus::Numerical;
        }
        self.compute_basics();
        let tol = self.params.feas_tol;
        let dtol = self.params.opt_tol;
        let mut stall = 0usize;
        let mut iters = 0usize;
        self.dj_current = false;
        loop {
            if iters >= self.params.iter_limit {
                return LpStatus::IterLimit;
            }
            if self.factor.needs_refactor() && !self.ensure_factorized() {
                return LpStatus::Numerical;
            }
            // Leaving candidate: most infeasible basic.
            let mut leave: Option<(usize, bool, f64)> = None; // (pos, below, viol)
            for (pos, &col) in self.basis_cols.iter().enumerate() {
                let v = self.xval[col];
                let (lb, ub) = (self.col_lb(col), self.col_ub(col));
                let (below, viol) = if v < lb - tol {
                    (true, lb - v)
                } else if v > ub + tol {
                    (false, v - ub)
                } else {
                    continue;
                };
                if leave.as_ref().is_none_or(|l| viol > l.2) {
                    leave = Some((pos, below, viol));
                }
            }
            let Some((rpos, below, _)) = leave else {
                // Primal feasible: polish with the primal loop, which will
                // confirm optimality (or fix mild dual infeasibility).
                return self.primal_loop();
            };

            #[cfg(debug_assertions)]
            if self.dj_current {
                self.check_reduced_costs();
            }
            if !self.dj_current {
                self.compute_reduced_costs();
                self.dj_current = true;
            }
            // Row rpos of B⁻¹N: ρ = B⁻ᵀ e_r (held in `y`), ᾱ_j = ρᵀ a_j.
            self.cb.fill(0.0);
            self.cb[rpos] = 1.0;
            self.btran();

            // sign = +1 when the leaving variable must increase.
            let sgn = if below { 1.0 } else { -1.0 };
            let bland = stall > self.params.stall_limit;
            let mut enter: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for j in 0..self.n() + self.m() {
                if !self.dual_candidate(j) {
                    continue;
                }
                self.alpha[j] = self.col_dot(j, &self.y);
                let alpha = self.alpha[j] * sgn;
                // x_Br changes by −ᾱ_j·Δx_j (with ᾱ in unsigned orientation);
                // after sign-folding we need: at-lower j with alpha < 0 can
                // increase, at-upper j with alpha > 0 can decrease, free j any.
                let d = self.dj[j];
                let ratio = match self.vstat[j] {
                    VarStatus::AtLower | VarStatus::Free if alpha < -self.params.piv_tol => {
                        (d.max(0.0)) / (-alpha)
                    }
                    VarStatus::AtUpper | VarStatus::Free if alpha > self.params.piv_tol => {
                        ((-d).max(0.0)) / alpha
                    }
                    _ => continue,
                };
                if bland {
                    enter = Some(j);
                    self.dj_current = false; // the rest of the pivot row is not computed
                    break;
                }
                if ratio < best_ratio - dtol
                    || (ratio < best_ratio + dtol && alpha.abs() > best_alpha)
                {
                    best_ratio = ratio;
                    best_alpha = alpha.abs();
                    enter = Some(j);
                }
            }
            let Some(q) = enter else {
                return LpStatus::Infeasible;
            };

            iters += 1;
            self.iterations += 1;
            self.counters.dual_pivots += 1;

            // Pivot: q enters at position rpos; leaving goes to its
            // violated bound.
            self.ftran_col(q);
            if self.w[rpos].abs() <= self.params.piv_tol {
                // Numerically void pivot; refactorize and retry, falling
                // back to primal if it persists.
                if !self.force_refactor() {
                    return LpStatus::Numerical;
                }
                stall += 1;
                if stall > self.params.stall_limit + 20 {
                    return self.primal_loop();
                }
                continue;
            }
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
            if delta.abs() <= 1e-12 {
                stall += 1;
            } else {
                stall = 0;
            }
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
                return LpStatus::Numerical;
            }
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
            self.compute_row_duals(Phase::Two);
            row_duals.copy_from_slice(&self.y);
        }
        for (j, rj) in reduced.iter_mut().enumerate() {
            *rj = self.prob.obj[j] - self.col_dot(j, &row_duals);
        }
        let row_activity: Vec<f64> = (0..m)
            .map(|r| self.prob.rows[r].iter().map(|&(j, c)| c * self.xval[j as usize]).sum())
            .collect();
        LpSolution {
            status: self.status,
            obj: self.obj_value(),
            x,
            row_duals,
            reduced_costs: reduced,
            row_activity,
            iterations: self.iterations,
        }
    }
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
