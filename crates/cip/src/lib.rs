//! A SCIP-shaped constraint integer programming (CIP) framework.
//!
//! This crate reproduces, at reduced scale, the architecture of SCIP as
//! the paper describes it (§2.1): a **branch-cut-and-bound framework with
//! a modular plugin structure**, solving constraint integer programs by
//! LP-relaxation-based branch and bound. Problem-specific solvers — the
//! Steiner solver in `ugrs-steiner` (SCIP-Jack) and the MISDP solver in
//! `ugrs-misdp` (SCIP-SDP) — are built *on top of* this framework by
//! registering plugins, exactly like SCIP applications register theirs:
//!
//! * [`plugins::ConstraintHandler`] — non-linear/combinatorial constraints
//!   enforced by lazy cuts or feasibility checks (directed Steiner cuts,
//!   SDP eigenvector cuts); its optional `separate` and `propagate`
//!   callbacks are the one way a plugin adds cutting planes for
//!   fractional LP solutions or propagates domains,
//! * [`plugins::Heuristic`] — primal heuristics,
//! * [`plugins::BranchRule`] — custom branching,
//! * [`plugins::Relaxator`] — alternative relaxations (the SDP relaxation
//!   of SCIP-SDP's nonlinear branch-and-bound mode).
//!
//! The framework itself ships default plugins: activity-based linear
//! propagation and reduced-cost fixing, rounding and diving heuristics,
//! most-fractional and pseudocost branching, and a presolving loop — so a
//! plain MIP can be solved with no user plugins at all.
//!
//! # Example: a tiny knapsack MIP
//!
//! ```
//! use ugrs_cip::{Model, Settings, VarType, SolveStatus};
//!
//! let mut m = Model::new("knapsack");
//! m.set_maximize();
//! let items = [(4.0, 12.0), (2.0, 7.0), (1.0, 4.0), (3.0, 9.0)];
//! let vars: Vec<_> = items
//!     .iter()
//!     .map(|&(_, p)| m.add_var("x", VarType::Binary, 0.0, 1.0, p))
//!     .collect();
//! let terms: Vec<_> = vars.iter().zip(&items).map(|(&v, &(w, _))| (v, w)).collect();
//! m.add_linear(f64::NEG_INFINITY, 6.0, &terms);
//! let res = m.optimize(Settings::default());
//! assert_eq!(res.status, SolveStatus::Optimal);
//! assert!((res.best_obj.unwrap() - 20.0).abs() < 1e-6);
//! ```

pub mod branching;
pub mod heurengine;
pub mod heuristics;
pub mod model;
pub mod plugins;
pub mod presolve;
pub mod propagation;
pub mod settings;
pub mod solution;
pub mod solver;
pub mod stats;
pub mod tree;

pub use heurengine::{HeurEngine, HeurSchedule, HeurStats, PrimalHeuristic};
pub use model::{LinCons, Model, VarId, VarType};
pub use plugins::{
    BranchDecision, BranchRule, ConstraintHandler, Cut, CutBuffer, EnforceResult, Heuristic,
    PropResult, RelaxOutcome, RelaxResult, Relaxator, SepaResult, SolveCtx,
};
pub use settings::{BranchingRule, Emphasis, NodeSelection, Settings};
pub use solution::Solution;
pub use solver::{ControlHooks, NoHooks, SolveResult, SolveStatus, Solver};
pub use stats::Statistics;
pub use tree::NodeDesc;

/// Integrality tolerance: values within this distance of an integer are
/// treated as integral.
pub const INT_TOL: f64 = 1e-6;

/// General feasibility tolerance used by checks in this crate.
pub const FEAS_TOL: f64 = 1e-6;

/// Fractionality of a value: distance to the nearest integer.
#[inline]
pub fn fractionality(v: f64) -> f64 {
    (v - v.round()).abs()
}
