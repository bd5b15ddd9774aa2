//! The ug[SCIP-*,*]-libraries, in Rust: glue that parallelizes any
//! *customized CIP solver* through the UG framework.
//!
//! The paper's headline claim (§2.3) is that a customized SCIP solver is
//! parallelized by writing **less than 200 lines of glue code** — a
//! single file declaring the user plugins (`stp_plugins.cpp`: 173 LoC,
//! `misdp_plugins.cpp`: 106 LoC). This crate reproduces that split:
//!
//! * [`base`] is the generic library part — the [`base::CipUserPlugins`]
//!   trait (the `ScipUserPlugins` analog) and the [`base::UgCipSolver`]
//!   adapter implementing `ugrs_core::BaseSolver` for *any* plugin set,
//!   wiring subproblem transfer ([`ugrs_cip::NodeDesc`], which carries
//!   the branching decisions — the ug-0.8.6 feature of §4.1), incumbent
//!   exchange, collect-mode node export and aborts;
//! * [`apps::stp`] is the entire STP glue (the `stp_plugins.cpp`
//!   analog), and [`apps::misdp`] the MISDP glue (`misdp_plugins.cpp`) —
//!   both deliberately small; everything else lives in the sequential
//!   solver crates, untouched.
//!
//! `ug [SteinerJack, ThreadComm]` is then just
//! [`apps::stp::ug_solve_stp`]; `ug [ScipSdp, ThreadComm]` is
//! [`apps::misdp::ug_solve_misdp`].

pub mod apps;
pub mod base;
pub mod serve;

pub use apps::maxcut::{extract_partition, maxcut_to_misdp, ug_solve_maxcut, MaxCutParallelResult};
pub use apps::misdp::{
    misdp_racing_settings, ug_solve_misdp, ug_solve_misdp_distributed, MisdpParallelResult,
    MisdpPlugins,
};
pub use apps::stp::{
    stp_racing_settings, ug_solve_stp, ug_solve_stp_distributed, ug_solve_stp_seeded,
    StpParallelResult, StpPlugins,
};
pub use base::{CipUserPlugins, UgCipSolver};
pub use serve::{
    job_factory, maxcut_job, misdp_job, serve_jobs, stp_job, DelaySolver, JobInstance, JobSolver,
    SolveClient, SolveGateway, SolveJobEvent, SolveJobSpec, SolveServer,
};
