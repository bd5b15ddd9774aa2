//! The generic half of the ug[SCIP-*,*]-libraries: adapt any customized
//! CIP solver to the UG [`BaseSolver`] contract.

use std::sync::Arc;
use ugrs_cip::{ControlHooks, Emphasis, NodeDesc, Solver as CipSolver};
use ugrs_core::{BaseSolver, ParaControl, SolverSettings, SubproblemOutcome};

/// The `ScipUserPlugins` analog: everything an application must provide
/// to run under UG. One implementation = one parallelized solver.
pub trait CipUserPlugins: Send + Sync + 'static {
    /// Application name (for logs).
    fn name(&self) -> &str;

    /// Builds a fully armed sequential solver — model plus user plugins —
    /// configured for the given racing settings bundle. Called once per
    /// received subproblem, so the subproblem is presolved *again* inside
    /// (the paper's layered presolving).
    fn create_solver(&self, settings: &SolverSettings) -> CipSolver;
}

/// Adapts the CIP solver's [`ControlHooks`] to UG's [`ParaControl`].
struct HookBridge<'a, 'b> {
    ctl: &'a mut dyn ParaControl<NodeDesc, Vec<f64>>,
    /// Collect-mode hysteresis: export at most one node per poll burst.
    exports_left: usize,
    _marker: std::marker::PhantomData<&'b ()>,
}

impl ControlHooks for HookBridge<'_, '_> {
    fn should_abort(&mut self) -> bool {
        self.ctl.should_abort()
    }

    fn on_incumbent(&mut self, obj: f64, x: &[f64]) {
        self.ctl.on_solution(x.to_vec(), obj);
    }

    fn on_status(&mut self, dual_bound: f64, open: usize, nodes: u64) {
        self.ctl.on_status(dual_bound, open, nodes);
        self.exports_left = 1; // refresh the per-burst export budget
    }

    fn poll_incumbent(&mut self) -> Option<Vec<f64>> {
        self.ctl.poll_incumbent().map(|(x, _)| x)
    }

    fn want_node_export(&mut self) -> bool {
        self.exports_left > 0 && self.ctl.collect_requested()
    }

    fn export_node(&mut self, desc: NodeDesc) {
        self.exports_left = self.exports_left.saturating_sub(1);
        let bound = desc.dual_bound;
        self.ctl.export_subproblem(desc, bound);
    }
}

/// The UG base solver wrapping a plugin set. One instance is created per
/// received subproblem (see [`ugrs_core::worker::worker_loop`]).
pub struct UgCipSolver<P: CipUserPlugins> {
    plugins: Arc<P>,
    settings: SolverSettings,
}

impl<P: CipUserPlugins> UgCipSolver<P> {
    pub fn new(plugins: Arc<P>, settings: SolverSettings) -> Self {
        UgCipSolver { plugins, settings }
    }

    /// The UG solver factory for this plugin set — hand it to
    /// [`ugrs_core::solve_parallel`].
    pub fn factory(plugins: Arc<P>) -> ugrs_core::worker::SolverFactory<Self> {
        Arc::new(move |_rank, settings: &SolverSettings| {
            UgCipSolver::new(plugins.clone(), settings.clone())
        })
    }
}

impl<P: CipUserPlugins> BaseSolver for UgCipSolver<P> {
    type Sub = NodeDesc;
    type Sol = Vec<f64>;

    fn solve_subproblem(
        &mut self,
        sub: &NodeDesc,
        known_bound: f64,
        incumbent: Option<&Vec<f64>>,
        ctl: &mut dyn ParaControl<NodeDesc, Vec<f64>>,
    ) -> SubproblemOutcome {
        let mut solver = self.plugins.create_solver(&self.settings);
        // The coordinator may hold a stronger bound than the description's
        // creation-time label (it merges status reports); honour it.
        let mut sub = sub.clone();
        sub.dual_bound = sub.dual_bound.max(known_bound);
        let sub = &sub;
        if let Some(x) = incumbent {
            solver.inject_solution(x.clone());
        }
        let mut bridge = HookBridge { ctl, exports_left: 1, _marker: std::marker::PhantomData };
        let res = solver.solve_subproblem(sub, &mut bridge);
        let aborted = res.status == ugrs_cip::SolveStatus::Aborted
            || res.status == ugrs_cip::SolveStatus::TimeLimit
            || res.status == ugrs_cip::SolveStatus::NodeLimit;
        SubproblemOutcome {
            // stats.dual_bound is in the internal minimization sense —
            // exactly what UG coordinates on.
            dual_bound: res.stats.dual_bound,
            nodes: res.stats.nodes,
            aborted,
        }
    }
}

/// Generic racing settings: seed + emphasis diversification, for
/// applications without problem-specific racing parameters (UG's default
/// racing; the *customized racing* sets live with each app).
pub fn generic_racing_settings(n: usize) -> Vec<SolverSettings> {
    (0..n).map(|i| emphasis_bundle("cip", Emphasis::ALL[i % 4], i)).collect()
}

/// Racing bundle `i`, named `<prefix>-<emphasis>-<i>`: permutation seed
/// `i` under `emphasis`.
pub(crate) fn emphasis_bundle(prefix: &str, emphasis: Emphasis, i: usize) -> SolverSettings {
    let name = emphasis.name();
    SolverSettings {
        index: i,
        name: format!("{prefix}-{name}-{i}"),
        params: serde_json::json!({ "seed": i as u64, "emphasis": name }),
    }
}

/// Decodes the generic settings bundles into CIP settings.
pub fn decode_generic(settings: &SolverSettings) -> ugrs_cip::Settings {
    let emphasis = settings.params.get("emphasis").and_then(|v| v.as_str());
    let emphasis = emphasis.and_then(Emphasis::parse).unwrap_or(Emphasis::Default);
    let seed = settings.params.get("seed").and_then(|v| v.as_u64()).unwrap_or(0);
    ugrs_cip::Settings::default().with_emphasis(emphasis).with_seed(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_settings_decode() {
        let set = generic_racing_settings(6);
        assert_eq!(set.len(), 6);
        let s1 = decode_generic(&set[1]);
        assert_eq!(s1.emphasis, Emphasis::EasyCip);
        assert_eq!(s1.permutation_seed, 1);
        let s0 = decode_generic(&set[0]);
        assert_eq!(s0.emphasis, Emphasis::Default);
    }

    /// The racing bundles' names and params, as the generators have
    /// always spelled them.
    #[test]
    fn racing_bundles_keep_their_names_and_params() {
        let names = |set: Vec<SolverSettings>| set.into_iter().map(|s| s.name).collect::<Vec<_>>();
        let generic =
            ["cip-default-0", "cip-easycip-1", "cip-feas-2", "cip-opt-3", "cip-default-4"];
        assert_eq!(names(generic_racing_settings(5)), generic);
        let stp = ["stp-default-0", "stp-feas-1", "stp-opt-2", "stp-easycip-3", "stp-default-4"];
        assert_eq!(names(crate::apps::stp::stp_racing_settings(5)), stp);
        let third = &crate::apps::stp::stp_racing_settings(3)[2];
        assert_eq!(third.params, serde_json::json!({ "seed": 2u64, "emphasis": "opt" }));
        for (i, s) in generic_racing_settings(4).iter().enumerate() {
            assert_eq!(decode_generic(s).emphasis, Emphasis::ALL[i]);
        }
    }
}
