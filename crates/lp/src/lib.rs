//! Bounded-variable revised simplex LP solver.
//!
//! This crate is the CPLEX/SoPlex stand-in for the ugrs suite: the LP
//! relaxation engine that the CIP branch-and-cut framework (and through it
//! the Steiner and MISDP solvers) drives. It supports the operations a
//! branch-cut-and-bound loop needs:
//!
//! * solve from scratch (primal simplex with a composite phase 1),
//! * change variable bounds and re-optimize (dual simplex warm start —
//!   this is what branching does),
//! * append rows and re-optimize (dual simplex warm start — this is what
//!   cutting-plane separation does),
//! * extract primal values, duals, reduced costs and the basis.
//!
//! # Formulation
//!
//! Internally every problem is held in the computational form
//!
//! ```text
//! min cᵀx    s.t.  A x − s = 0,   ℓx ≤ x ≤ ux,   ℓs ≤ s ≤ us
//! ```
//!
//! i.e. each row gets a logical (slack) variable carrying the row's
//! activity bounds, so the constraint matrix is `[A | −I]` and the basis
//! is always square of order `m`. The basis inverse is represented by a
//! sparse LU factorization plus a sparse eta file, refactorized
//! periodically ([`basis`]).
//!
//! # Example
//!
//! ```
//! use ugrs_lp::{LpProblem, LpStatus};
//!
//! // min -x - 2y  s.t.  x + y <= 4, y <= 2, 0 <= x,y <= 10
//! let mut p = LpProblem::new();
//! let x = p.add_var(0.0, 10.0, -1.0);
//! let y = p.add_var(0.0, 10.0, -2.0);
//! p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
//! p.add_row(f64::NEG_INFINITY, 2.0, &[(y, 1.0)]);
//! let sol = p.solve();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.obj - (-6.0)).abs() < 1e-6); // x=2, y=2
//! ```

pub mod basis;
pub mod problem;
pub mod simplex;

pub use problem::{LpProblem, RowId, VarId};
pub use simplex::{LpCounters, LpSolution, LpStatus, Simplex, SimplexParams, VarStatus};

/// Primal feasibility tolerance on bounds.
pub const FEAS_TOL: f64 = 1e-7;
/// Dual feasibility (reduced-cost) tolerance.
pub const OPT_TOL: f64 = 1e-7;
/// The solver's notion of infinity for bounds.
pub const INF: f64 = 1e100;

/// Clamp user-provided bounds to the solver's finite infinity.
#[inline]
pub(crate) fn clamp_bound(b: f64) -> f64 {
    b.clamp(-INF, INF)
}
