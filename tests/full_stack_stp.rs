//! Cross-crate integration: the full Steiner pipeline (generators →
//! reductions → branch-and-cut → UG parallelization) against a
//! brute-force oracle on small instances.

use ugrs::glue::ug_solve_stp;
use ugrs::steiner::gen::{bipartite, code_covering, hypercube, CostScheme};
use ugrs::steiner::heur::tree_from_vertices;
use ugrs::steiner::reduce::ReduceParams;
use ugrs::steiner::{Graph, SteinerOptions, SteinerSolver, SteinerTree};
use ugrs::ug::ParallelOptions;

/// Exact optimum by enumerating Steiner-vertex subsets (≤ 2^16 MSTs).
fn brute_force(g: &Graph) -> f64 {
    let optional: Vec<usize> = g.alive_nodes().filter(|&v| !g.is_terminal(v)).collect();
    let k = optional.len();
    assert!(k <= 16, "instance too large for the oracle");
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

fn check_instance(g: Graph) {
    let expected = brute_force(&g);
    // Sequential SCIP-Jack-style.
    let mut seq = SteinerSolver::new(g.clone(), SteinerOptions::default());
    let res = seq.solve();
    let cost = res.best_cost.expect("sequential must solve");
    assert!((cost - expected).abs() < 1e-6, "sequential {cost} vs brute force {expected}");
    let tree = res.tree.unwrap();
    assert!(tree.is_valid(&g));
    // A node pruned on LP numerical trouble is pruned without proof.
    assert_eq!(res.cip_stats.map_or(0, |st| st.lp_numerical), 0);

    // Parallel through UG.
    let par = ug_solve_stp(
        &g,
        &ReduceParams::default(),
        ParallelOptions { num_solvers: 2, ..Default::default() },
    );
    assert!(par.solved);
    let (edges, pcost) = par.tree.unwrap();
    assert!((pcost - expected).abs() < 1e-6, "parallel {pcost} vs {expected}");
    assert!(SteinerTree::new(&g, edges).is_valid(&g));
}

#[test]
fn hypercube_family_exact() {
    check_instance(hypercube(3, CostScheme::Unit, 1));
    check_instance(hypercube(3, CostScheme::Perturbed, 2));
}

#[test]
fn code_covering_family_exact() {
    check_instance(code_covering(2, 3, 4, CostScheme::Unit, 3));
    check_instance(code_covering(2, 3, 5, CostScheme::Perturbed, 4));
}

#[test]
fn bipartite_family_exact() {
    check_instance(bipartite(4, 6, 2, CostScheme::Unit, 5));
    check_instance(bipartite(5, 7, 2, CostScheme::Perturbed, 6));
}

#[test]
fn random_small_instances_exact() {
    // A few structured-random graphs via the bipartite generator with
    // denser linking.
    for seed in 10..14 {
        check_instance(bipartite(4, 8, 3, CostScheme::Perturbed, seed));
    }
}

#[test]
fn reductions_never_change_the_optimum() {
    for seed in 20..24 {
        let g = code_covering(2, 3, 4, CostScheme::Perturbed, seed);
        let expected = brute_force(&g);
        let mut with = SteinerSolver::new(g.clone(), SteinerOptions::default());
        let mut without =
            SteinerSolver::new(g, SteinerOptions { skip_reductions: true, ..Default::default() });
        let (r1, r2) = (with.solve(), without.solve());
        let (c1, c2) = (r1.best_cost.unwrap(), r2.best_cost.unwrap());
        for st in [r1.cip_stats, r2.cip_stats].into_iter().flatten() {
            assert_eq!(st.lp_numerical, 0, "seed {seed}");
        }
        assert!((c1 - expected).abs() < 1e-6, "seed {seed}: reduced {c1} vs {expected}");
        assert!((c2 - expected).abs() < 1e-6, "seed {seed}: unreduced {c2} vs {expected}");
    }
}
