//! # ugrs — parallel state-of-the-art combinatorial optimization solvers
//!
//! A Rust reproduction of the system behind *"An Easy Way to Build
//! Parallel State-of-the-art Combinatorial Optimization Problem Solvers"*
//! (Shinano, Rehfeldt, Gally; ZIB-Report 19-14 / IPDPS 2019): the **UG**
//! parallelization framework, a **SCIP-shaped CIP** branch-cut-and-bound
//! framework, the **SCIP-Jack**-style Steiner tree solver and the
//! **SCIP-SDP**-style mixed integer semidefinite programming solver —
//! plus the LP-simplex and interior-point-SDP substrates they stand on.
//!
//! This crate re-exports the workspace members under stable names:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`ug`] | `ugrs-core` | the UG framework (Supervisor/Worker, racing, checkpointing) |
//! | [`cip`] | `ugrs-cip` | the CIP branch-cut-and-bound framework with plugins |
//! | [`steiner`] | `ugrs-steiner` | the Steiner tree solver (SCIP-Jack analog) |
//! | [`misdp`] | `ugrs-misdp` | the MISDP solver (SCIP-SDP analog) |
//! | [`glue`] | `ugrs-glue` | the ug[SCIP-*,*]-libraries analog |
//! | [`instances`] | `ugrs-instances` | the instance zoo: real-format parsers, generators, catalog |
//! | [`lp`] | `ugrs-lp` | bounded-variable revised simplex |
//! | [`sdp`] | `ugrs-sdp` | primal–dual interior-point SDP |
//! | [`linalg`] | `ugrs-linalg` | dense linear algebra kernels |
//!
//! ## Quickstart
//!
//! Solve a PUC-like Steiner instance in parallel with racing ramp-up:
//!
//! ```
//! use ugrs::glue::{stp_racing_settings, ug_solve_stp};
//! use ugrs::steiner::gen::{hypercube, CostScheme};
//! use ugrs::steiner::reduce::ReduceParams;
//! use ugrs::ug::{ParallelOptions, RampUp};
//!
//! let graph = hypercube(3, CostScheme::Perturbed, 7);
//! let options = ParallelOptions {
//!     num_solvers: 2,
//!     ramp_up: RampUp::Racing {
//!         settings: stp_racing_settings(2),
//!         time_trigger: 0.1,
//!         open_nodes_trigger: 16,
//!     },
//!     ..Default::default()
//! };
//! let res = ug_solve_stp(&graph, &ReduceParams::default(), options);
//! assert!(res.solved);
//! let (_edges, cost) = res.tree.unwrap();
//! assert!(cost > 0.0);
//! ```

pub use ugrs_cip as cip;
pub use ugrs_core as ug;
pub use ugrs_glue as glue;
pub use ugrs_instances as instances;
pub use ugrs_linalg as linalg;
pub use ugrs_lp as lp;
pub use ugrs_misdp as misdp;
pub use ugrs_sdp as sdp;
pub use ugrs_steiner as steiner;
