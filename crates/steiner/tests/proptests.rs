//! Property tests for the Steiner stack: reductions, bounds and the full
//! branch-and-cut against a brute-force oracle on random small graphs.

use proptest::prelude::*;
use ugrs_steiner::dualascent::dual_ascent;
use ugrs_steiner::heur::{real_weights, tm_best, tree_from_vertices};
use ugrs_steiner::reduce::{reduce, ReduceParams};
use ugrs_steiner::sap::SapGraph;
use ugrs_steiner::{Graph, SteinerOptions, SteinerSolver};

/// Random connected graph: a spanning-tree backbone plus extra edges;
/// 2–4 terminals.
#[derive(Clone, Debug)]
struct RandomSpg {
    n: usize,
    edges: Vec<(usize, usize, f64)>,
    terminals: Vec<usize>,
}

fn random_spg() -> impl Strategy<Value = RandomSpg> {
    (4usize..9).prop_flat_map(|n| {
        let backbone = prop::collection::vec(1.0f64..10.0, n - 1);
        let extra = prop::collection::vec((0..n, 0..n, 1.0f64..10.0), 0..(n + 2));
        let nterms = 2usize..=4.min(n).max(2);
        (backbone, extra, nterms, prop::collection::vec(0..n, 4)).prop_map(
            move |(bb, extra, nterms, tseeds)| {
                let mut edges: Vec<(usize, usize, f64)> =
                    bb.into_iter().enumerate().map(|(i, c)| (i, i + 1, c)).collect();
                for (u, v, c) in extra {
                    if u != v {
                        edges.push((u.min(v), u.max(v), c));
                    }
                }
                let mut terminals: Vec<usize> =
                    tseeds.into_iter().take(nterms).map(|t| t % n).collect();
                terminals.sort_unstable();
                terminals.dedup();
                if terminals.len() < 2 {
                    terminals = vec![0, n - 1];
                }
                RandomSpg { n, edges, terminals }
            },
        )
    })
}

fn build(spg: &RandomSpg) -> Graph {
    let mut g = Graph::new(spg.n);
    let mut seen = std::collections::HashSet::new();
    for &(u, v, c) in &spg.edges {
        if seen.insert((u, v)) {
            g.add_edge(u, v, c);
        }
    }
    for &t in &spg.terminals {
        g.set_terminal(t, true);
    }
    g
}

/// Exact optimum by enumerating Steiner-vertex subsets.
fn brute_force(g: &Graph) -> f64 {
    let optional: Vec<usize> = g.alive_nodes().filter(|&v| !g.is_terminal(v)).collect();
    let k = optional.len();
    let mut best = f64::INFINITY;
    for mask in 0u32..(1 << k) {
        let mut in_set: Vec<bool> =
            (0..g.num_nodes()).map(|v| g.is_node_alive(v) && g.is_terminal(v)).collect();
        for (i, &v) in optional.iter().enumerate() {
            if mask >> i & 1 == 1 {
                in_set[v] = true;
            }
        }
        if let Some(t) = tree_from_vertices(g, &in_set) {
            best = best.min(t.cost);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn reductions_preserve_optimum(spg in random_spg()) {
        let g = build(&spg);
        let before = brute_force(&g);
        let mut reduced = g.clone();
        reduce(&mut reduced, &ReduceParams::default());
        let after = if reduced.num_terminals() >= 2 { brute_force(&reduced) } else { 0.0 };
        prop_assert!((before - (reduced.fixed_cost + after)).abs() < 1e-6,
            "before {} vs fixed {} + after {}", before, reduced.fixed_cost, after);
    }

    #[test]
    fn dual_ascent_is_a_lower_bound(spg in random_spg()) {
        let g = build(&spg);
        let opt = brute_force(&g);
        let sap = SapGraph::from_graph(&g, SapGraph::pick_root(&g));
        let da = dual_ascent(&sap, 4);
        prop_assert!(da.bound <= opt + 1e-6, "DA {} > OPT {}", da.bound, opt);
    }

    #[test]
    fn tm_is_an_upper_bound(spg in random_spg()) {
        let g = build(&spg);
        let opt = brute_force(&g);
        if let Some(tree) = tm_best(&g, 3, &real_weights(&g)) {
            prop_assert!(tree.is_valid(&g));
            prop_assert!(tree.cost >= opt - 1e-6, "TM {} < OPT {}", tree.cost, opt);
        }
    }

    #[test]
    fn solver_matches_brute_force(spg in random_spg()) {
        let g = build(&spg);
        let expected = brute_force(&g);
        let mut solver = SteinerSolver::new(g.clone(), SteinerOptions::default());
        let res = solver.solve();
        let cost = res.best_cost.expect("connected instance must solve");
        prop_assert!((cost - expected).abs() < 1e-6, "solver {} vs oracle {}", cost, expected);
        prop_assert!(res.tree.unwrap().is_valid(&g));
        prop_assert!((res.dual_bound - expected).abs() < 1e-6);
    }
}
