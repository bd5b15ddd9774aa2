//! Dense linear algebra kernels for the ugrs solver suite.
//!
//! This crate is the stand-in for the LAPACK/BLAS subset that the paper's
//! solver stack (SoPlex/CPLEX for LP, Mosek for SDP) relies on. Everything
//! is implemented from scratch on plain `Vec<f64>` storage:
//!
//! * [`Matrix`] — row-major dense matrices with the usual arithmetic,
//! * [`lu::LuFactor`] — LU factorization with partial pivoting,
//! * [`cholesky::CholeskyFactor`] — LLᵀ factorization of SPD matrices with
//!   an adaptive diagonal shift (used by the SDP solver's Schur complements),
//! * [`eigen`] — a cyclic Jacobi eigensolver for symmetric matrices, which
//!   powers the eigenvector-cut separator of the MISDP solver.
//!
//! The matrices arising in this project are small and dense (LP bases and
//! SDP block matrices of a few hundred rows), so the kernels favour
//! robustness and clarity over cache blocking.

pub mod cholesky;
pub mod eigen;
pub mod lu;
pub mod matrix;
pub mod vector;

pub use cholesky::CholeskyFactor;
pub use eigen::{symmetric_eigen, SymmetricEigen, Tridiagonal};
pub use lu::LuFactor;
pub use matrix::Matrix;

/// Numerical tolerance used as the default "is this zero" threshold across
/// the suite. Matches the feasibility tolerance the LP and SDP layers use.
pub const EPS: f64 = 1e-9;

/// Error type for the factorization routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix was structurally unsuitable (e.g. non-square, dimension
    /// mismatch between operands).
    Shape(String),
    /// The factorization broke down numerically (singular pivot, negative
    /// diagonal in a Cholesky step beyond the allowed shift, ...).
    Singular,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Shape(s) => write!(f, "shape error: {s}"),
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NoConvergence => write!(f, "iteration limit reached without convergence"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
