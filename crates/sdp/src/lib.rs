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
//! The engine is an infeasible-start **primal–dual path-following
//! method** with the HKM direction and Mehrotra's predictor–corrector, as
//! in CSDP and SDPT3 (and Mosek, the paper's engine): it needs no
//! strictly feasible start, so no phase 1 and no penalty formulation, and
//! it takes 15–30 iterations on the MISDP relaxations. The blocks of the
//! CBLIB-style relaxations the MISDP solver feeds it are small, and each
//! coefficient matrix `Aᵢ` is sparse or low-rank (one diagonal entry, two
//! off-diagonal entries, rank one, `−I`): the solver keeps every `Aᵢ` as
//! its nonzeros and assembles each Schur complement from `X` and `S⁻¹`
//! per block (Fujisawa–Kojima–Nakata's sparse formulas).
//!
//! A solve ends `Optimal` at a relative gap and relative residuals of
//! `1e-8`, `Infeasible` only with a Farkas certificate (an iterate's `X`
//! under which no `y` in the box is feasible), and `Numerical` otherwise.
//! [`SdpSolver`] builds the working form once and re-solves it under new
//! bounds, as the MISDP relaxator does at every node.

pub mod problem;
pub mod solver;

pub use problem::{LinRow, SdpBlock, SdpProblem};
pub use solver::{solve, SdpOptions, SdpResult, SdpSolver, SdpStatus};
