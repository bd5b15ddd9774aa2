//! The calls into the solver layers that the workloads time, and the
//! verdict on each: an item counts only when it is proven optimal and
//! its objective matches the manifest reference.

use crate::manifest::{Entry, Instance};
use std::time::Instant;
use ugrs_cip::{Settings, SolveStatus};
use ugrs_core::{ParallelOptions, RampUp, UgStats};
use ugrs_glue::{misdp_racing_settings, ug_solve_misdp, ug_solve_stp};
use ugrs_misdp::MisdpSolver;
use ugrs_steiner::reduce::ReduceParams;
use ugrs_steiner::{SteinerOptions, SteinerSolver};

/// Per-item limit: an item not proven optimal within it has failed.
pub const ITEM_LIMIT_S: f64 = 20.0;

/// Relative tolerance of the reference check.
pub const REF_TOL: f64 = 1e-6;

/// True when `obj` equals `reference` within [`REF_TOL`] (relative).
pub fn matches_reference(obj: f64, reference: f64) -> bool {
    (obj - reference).abs() <= REF_TOL * reference.abs().max(1.0)
}

/// What one solve produced, as read from the public result structs.
#[derive(Clone, Debug, Default)]
pub struct Solved {
    pub secs: f64,
    pub proven: bool,
    pub obj: Option<f64>,
    pub cip: Option<ugrs_cip::Statistics>,
    pub reduce_elims: u64,
    pub ug: Option<UgStats>,
}

impl Solved {
    /// Proven optimal and equal to the manifest reference.
    pub fn ok(&self, reference: f64) -> bool {
        self.proven && self.obj.is_some_and(|o| matches_reference(o, reference))
    }

    pub fn nodes(&self) -> u64 {
        match (&self.ug, &self.cip) {
            (Some(ug), _) => ug.nodes_total,
            (None, Some(c)) => c.nodes,
            (None, None) => 0,
        }
    }
}

/// A solver object built once in set-up and solved once per pass.
pub enum SeqSolver {
    Stp(Box<SteinerSolver>),
    Misdp(Box<MisdpSolver>),
}

impl SeqSolver {
    pub fn new(entry: &Entry, instance: Instance) -> SeqSolver {
        SeqSolver::with_limit(entry, instance, ITEM_LIMIT_S)
    }

    pub fn with_limit(entry: &Entry, instance: Instance, time_limit: f64) -> SeqSolver {
        match instance {
            Instance::Stp(g) => {
                let mut options = SteinerOptions::default();
                options.settings.time_limit = time_limit;
                SeqSolver::Stp(Box::new(SteinerSolver::new(g, options)))
            }
            Instance::Misdp(p) => {
                let settings = Settings { time_limit, ..Default::default() };
                SeqSolver::Misdp(Box::new(MisdpSolver::new(p, entry.approach(), settings)))
            }
        }
    }

    /// `SteinerSolver::solve` / `MisdpSolver::solve`, timed.
    pub fn solve(&mut self) -> Solved {
        let t0 = Instant::now();
        match self {
            SeqSolver::Stp(s) => {
                let res = s.solve();
                Solved {
                    secs: t0.elapsed().as_secs_f64(),
                    proven: res.status == SolveStatus::Optimal,
                    obj: res.best_cost,
                    cip: res.cip_stats,
                    reduce_elims: res.reduce_stats.total_eliminations() as u64,
                    ug: None,
                }
            }
            SeqSolver::Misdp(s) => {
                let res = s.solve();
                Solved {
                    secs: t0.elapsed().as_secs_f64(),
                    proven: res.status == SolveStatus::Optimal,
                    obj: res.best_obj,
                    cip: Some(res.stats),
                    reduce_elims: 0,
                    ug: None,
                }
            }
        }
    }
}

/// Options of one `ug_par` item: normal ramp-up, or racing with the
/// two-settings MISDP roster (one SDP-based, one LP-based solver).
pub fn par_options(num_solvers: usize, racing: bool) -> ParallelOptions {
    let ramp_up = if racing {
        RampUp::Racing {
            settings: misdp_racing_settings(num_solvers),
            time_trigger: 0.1,
            open_nodes_trigger: 12,
        }
    } else {
        RampUp::Normal
    };
    ParallelOptions { num_solvers, ramp_up, time_limit: ITEM_LIMIT_S, ..Default::default() }
}

/// ug[SteinerJack, ThreadComm] / ug[ScipSdp, ThreadComm], timed.
pub fn solve_par(instance: &Instance, options: ParallelOptions) -> Solved {
    let t0 = Instant::now();
    match instance {
        Instance::Stp(g) => {
            let res = ug_solve_stp(g, &ReduceParams::default(), options);
            Solved {
                secs: t0.elapsed().as_secs_f64(),
                proven: res.solved,
                obj: res.tree.as_ref().map(|(_, c)| *c),
                ug: Some(res.stats),
                ..Default::default()
            }
        }
        Instance::Misdp(p) => {
            let res = ug_solve_misdp(p, options);
            Solved {
                secs: t0.elapsed().as_secs_f64(),
                proven: res.solved,
                obj: res.best_obj,
                ug: Some(res.stats),
                ..Default::default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_check_is_relative() {
        assert!(matches_reference(1000.0005, 1000.0));
        assert!(!matches_reference(1000.01, 1000.0));
        assert!(matches_reference(0.0, 5e-7));
        assert!(!matches_reference(-3.0, 3.0));
    }

    #[test]
    fn failed_item_accounting() {
        let unproven = Solved { proven: false, obj: Some(4.0), ..Default::default() };
        let wrong = Solved { proven: true, obj: Some(5.0), ..Default::default() };
        let none = Solved { proven: true, obj: None, ..Default::default() };
        let good = Solved { proven: true, obj: Some(4.0), ..Default::default() };
        assert!(!unproven.ok(4.0) && !wrong.ok(4.0) && !none.ok(4.0));
        assert!(good.ok(4.0));
    }
}
