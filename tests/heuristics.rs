//! Acceptance tests of the primal-heuristic plugin engine (ISSUE 7):
//! the Uchoa–Werneck key-vertex local search, registered through the
//! generic [`PrimalHeuristic`] engine, must find incumbents *earlier*
//! than the identical solver without it — and those incumbents must be
//! broadcast through UG's incumbent exchange when run in parallel.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ugrs::cip::{ControlHooks, NodeDesc, Solver};
use ugrs::glue::{CipUserPlugins, UgCipSolver};
use ugrs::steiner::gen::{hypercube, CostScheme};
use ugrs::steiner::graph::Graph;
use ugrs::steiner::plugins::{
    build_model, register_plugins_with_hits, DirectedCutHandler, TmHeuristic, VertexBranching,
};
use ugrs::ug::{solve_parallel, Journal, ParallelOptions, TelemetrySink};

/// Records every incumbent and aborts once the known optimum is
/// reached, so `stats.nodes` measures *time-to-optimum* in nodes.
struct StopAtTarget {
    target: f64,
    found: bool,
    incumbents: Vec<f64>,
}

impl ControlHooks for StopAtTarget {
    fn should_abort(&mut self) -> bool {
        self.found
    }

    fn on_incumbent(&mut self, obj: f64, _x: &[f64]) {
        self.incumbents.push(obj);
        if obj <= self.target + 1e-6 {
            self.found = true;
        }
    }
}

/// Solves `g` to the known optimum `target`, with or without the
/// key-vertex heuristic plugged in; everything else — constraint
/// handler, TM construction heuristic, branching rule, settings — is
/// identical. Returns (nodes to reach the optimum, key-vertex hits,
/// incumbent trace).
fn solve_to(g: &Graph, with_keyvertex: bool, target: f64) -> (u64, u64, Vec<f64>) {
    let (model, data) = build_model(g);
    let hits = Arc::new(AtomicU64::new(0));
    let mut s = Solver::new(model, ugrs::cip::Settings::default());
    if with_keyvertex {
        register_plugins_with_hits(&mut s, data, Some(hits.clone()));
    } else {
        s.add_conshdlr(Box::new(DirectedCutHandler::new(data.clone(), true)));
        s.add_heuristic(Box::new(TmHeuristic { data: data.clone() }));
        s.add_branchrule(Box::new(VertexBranching { data }));
    }
    let mut hooks = StopAtTarget { target, found: false, incumbents: Vec::new() };
    let res = s.solve(&mut hooks);
    (res.stats.nodes, hits.load(Ordering::Relaxed), hooks.incumbents)
}

/// Under identical seeds and settings, the key-vertex local search never
/// reaches the proven optimum later than the baseline plugin set, and on
/// the instances where the TM construction tree leaves it something to do
/// it gets there in strictly fewer B&B nodes — it improves the root
/// incumbent to optimal before branching even starts. Which instances
/// those are depends on the vertex the root LP ends in (seeds 3, 8 and 10
/// while the root LP was solved by the primal simplex; 3, 7 and 8 since
/// it is solved by the dual), so the test names none.
#[test]
fn keyvertex_reaches_optimum_earlier_than_baseline() {
    let mut earlier = Vec::new();
    for seed in 1u64..=12 {
        let g = hypercube(4, CostScheme::Perturbed, seed);

        // Establish the true optimum first with a full solve.
        let (model, data) = build_model(&g);
        let mut full = Solver::new(model, ugrs::cip::Settings::default());
        register_plugins_with_hits(&mut full, data, None);
        let proof = full.solve(&mut ugrs::cip::NoHooks);
        let optimum = proof
            .best_obj
            .unwrap_or_else(|| panic!("seed {seed}: full solve must find the optimum"));

        let (nodes_kv, hits_kv, trace_kv) = solve_to(&g, true, optimum);
        let (nodes_base, hits_base, trace_base) = solve_to(&g, false, optimum);

        assert_eq!(hits_base, 0, "seed {seed}: baseline has no key-vertex plugin");
        assert!(
            nodes_kv <= nodes_base,
            "seed {seed}: key-vertex must not reach the optimum later \
             ({nodes_kv} nodes vs baseline {nodes_base}); traces {trace_kv:?} vs {trace_base:?}"
        );
        if nodes_kv < nodes_base {
            assert!(hits_kv >= 1, "seed {seed}: an earlier optimum must be a key-vertex hit");
            earlier.push(seed);
        }
    }
    assert!(
        earlier.len() >= 3,
        "key-vertex must reach the optimum strictly earlier on at least three of the \
         twelve instances, did on seeds {earlier:?}"
    );
}

/// An STP plugin set whose key-vertex hit counter is shared across all
/// ParaSolvers — the parallel analog of [`solve_to`]'s `with_keyvertex`.
struct KvPlugins {
    graph: Arc<Graph>,
    hits: Arc<AtomicU64>,
}

impl CipUserPlugins for KvPlugins {
    fn name(&self) -> &str {
        "ug[SteinerJack+kv,*]"
    }

    fn create_solver(&self, settings: &ugrs::ug::SolverSettings) -> Solver {
        let (model, data) = build_model(&self.graph);
        let mut solver = Solver::new(model, ugrs::glue::base::decode_generic(settings));
        register_plugins_with_hits(&mut solver, data, Some(self.hits.clone()));
        solver
    }
}

/// Run under UG with two ParaSolvers: a heuristic-found incumbent must
/// actually travel through the incumbent exchange (observable both in
/// `incumbents_seen` and as `Incumbent` events in the run journal).
#[test]
fn keyvertex_incumbent_broadcast_under_ug() {
    let dir = std::env::temp_dir().join(format!("ugrs-heur-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let journal_path = dir.join("run.jsonl");

    let graph = Arc::new(hypercube(4, CostScheme::Perturbed, 3));
    let hits = Arc::new(AtomicU64::new(0));
    let plugins = Arc::new(KvPlugins { graph, hits: hits.clone() });
    let journal = Arc::new(Journal::create(&journal_path).expect("journal"));
    let options = ParallelOptions {
        num_solvers: 2,
        telemetry: TelemetrySink::with_journal(journal.clone()),
        ..Default::default()
    };
    let res = solve_parallel(UgCipSolver::factory(plugins), NodeDesc::root(), options);

    assert!(res.solved, "the run must solve to optimality");
    assert!(hits.load(Ordering::Relaxed) >= 1, "key-vertex search must fire under UG");
    assert!(
        res.stats.incumbents_seen >= 1,
        "at least one incumbent must pass through the exchange"
    );

    journal.flush();
    let text = std::fs::read_to_string(&journal_path).expect("read journal");
    assert!(
        text.lines().any(|l| l.contains("Incumbent")),
        "the run journal must record the incumbent broadcast"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
