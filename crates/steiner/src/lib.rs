//! A SCIP-Jack-style solver for the Steiner tree problem in graphs (SPG).
//!
//! Following §3.1 of the paper, the solver combines three ingredient
//! classes:
//!
//! 1. **Reduction techniques** ([`reduce`]) — degree tests, alternative-
//!    path (special distance) tests and dual-ascent bound-based tests,
//!    applied both in presolving and (through the constraint handler's
//!    propagation) deep in the branch-and-bound tree, where branching has
//!    reshaped the graph — the effect the paper exploits to solve
//!    previously unsolved PUC instances.
//! 2. **Heuristics** ([`heur`]) — the repeated-shortest-path TM heuristic
//!    (optionally biased by LP values), MST-pruning, and a vertex
//!    insertion/elimination local search.
//! 3. **Branch-and-cut** ([`plugins`]) — the problem is transformed to the
//!    Steiner arborescence problem ([`sap`]) and solved on the
//!    flow-balance directed cut formulation (Formulation 1 of the paper):
//!    violated directed cuts (4) are separated by max-flow/min-cut
//!    ([`maxflow`]), the flow-balance rows (5) are part of the initial
//!    model, and branching happens on *vertices* via the coupling
//!    variables `z_v = y(δ⁻(v))`.
//!
//! The [`solver::SteinerSolver`] facade wires everything into the
//! `ugrs-cip` framework; `ugrs-glue` exposes the same plugin set to UG for
//! the parallel runs of §4.1.
//!
//! Instances are generated as PUC-like families ([`gen`]): hypercube
//! `hc`, code covering `cc` and bipartite `bip` instances; SteinLib
//! `.stp` files are read by `ugrs_instances::stp`.

pub mod dualascent;
pub mod gen;
pub mod graph;
pub mod heur;
pub mod maxflow;
pub mod plugins;
pub mod reduce;
pub mod sap;
pub mod solver;
pub mod tree;
pub mod util;
pub mod variants;

pub use graph::Graph;
pub use solver::{SteinerOptions, SteinerResult, SteinerSolver};
pub use tree::SteinerTree;

/// The crate's proptests run `PROPTEST_CASES` cases when it is set, else
/// `default`.
#[cfg(test)]
fn proptest_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}
