//! A SCIP-SDP-style solver for mixed integer semidefinite programs.
//!
//! Following §3.2 of the paper, MISDPs of the form
//!
//! ```text
//! sup bᵀy   s.t.  C − Σᵢ Aᵢ yᵢ ⪰ 0,  ℓ ≤ y ≤ u,  yᵢ ∈ ℤ for i ∈ I
//! ```
//!
//! are solved by **two approaches**, both built as plugins on the
//! `ugrs-cip` framework:
//!
//! * **LP-based cutting planes** ([`eigcut`]): the SDP constraint is
//!   enforced through Sherali–Fraticelli eigenvector cuts
//!   `vᵀ(C − Σ Aᵢ yᵢ)v ≥ 0` with `v` the eigenvector of the most
//!   negative eigenvalue — inequality (9) of the paper;
//! * **nonlinear branch-and-bound** ([`relax`]): each node solves a
//!   continuous SDP relaxation through `ugrs-sdp`'s primal–dual method,
//!   which needs no strictly feasible point when branching harms the
//!   Slater condition.
//!
//! The racing settings of `ug [SCIP-SDP, *]` ([`settings`]) alternate
//! between the two (§3.2: "half of them using LP-based settings and the
//! rest using SDP-settings"), which is what Figure 1 of the paper
//! measures. Instance generators for the three CBLIB families of Table 4
//! (truss topology design, cardinality-constrained least squares,
//! minimum k-partitioning) live in [`gen`].

pub mod cbf;
pub mod eigcut;
pub mod gen;
pub mod heur;
pub mod model;
pub mod relax;
pub mod settings;
pub mod solver;

pub use model::MisdpProblem;
pub use settings::{decode_settings, racing_settings, Approach};
pub use solver::{MisdpResult, MisdpSolver};
