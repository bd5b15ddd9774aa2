//! Interior-point semidefinite programming solver — the Mosek stand-in
//! behind SCIP-SDP's nonlinear branch-and-bound (§3.2 of the paper).
//!
//! Problems take the paper's dual form (8):
//!
//! ```text
//! sup bᵀy   s.t.   C_k − Σᵢ A_{k,i} yᵢ ⪰ 0  (k = 1..#blocks),
//!                  lhs ≤ aᵀy ≤ rhs          (linear rows),
//!                  ℓ ≤ y ≤ u.
//! ```
//!
//! The engine is a log-det **barrier method** with damped Newton steps: it
//! maximizes `t·bᵀy + Σ log det S_k(y) + Σ log(bound slacks)` along the
//! central path, geometrically increasing `t`. The blocks of the
//! CBLIB-style relaxations the MISDP solver feeds it are small, and each
//! coefficient matrix `Aᵢ` is sparse or low-rank (one diagonal entry, two
//! off-diagonal entries, rank one, `−I`): the solver keeps every `Aᵢ` as
//! its nonzeros and assembles each Newton system from one inverse
//! `S⁻¹` per block (Fujisawa–Kojima–Nakata's sparse Schur-complement
//! formulas).
//!
//! Two properties the paper's solution approach depends on are
//! reproduced faithfully:
//!
//! * a **phase-1 / penalty formulation** ([`solver::solve_penalty`]):
//!   `sup bᵀy − Γ z  s.t.  S_k(y) + z·I ⪰ 0, z ≥ 0` — the device
//!   SCIP-SDP uses when branching destroys the (dual) Slater condition;
//! * strict-interior line searches with Cholesky-based PSD checks, so a
//!   returned `y` is always strictly feasible (up to tolerance).

pub mod problem;
pub mod solver;

pub use problem::{LinRow, SdpBlock, SdpProblem};
pub use solver::{solve, solve_penalty, SdpOptions, SdpResult, SdpStatus};
