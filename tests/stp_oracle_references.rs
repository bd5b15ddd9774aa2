//! Every Steiner reference optimum the benchmark checks its solves
//! against, recomputed by an oracle that shares no code with the solver.
//!
//! The manifests under `perfbench/manifests/` record, per instance, its
//! generator parameters and the optimum the solver proved at calibration.
//! A reference that is only the solver agreeing with itself would let a
//! change to the search tree that finds the same wrong tree pass. Here
//! each STP instance is regenerated exactly as the benchmark does and its
//! optimum recomputed by the Erickson–Monma–Veinott DP of `ugrs-oracle`
//! (own graph form, own Dijkstra, no reductions). The manifests are only
//! read.

use std::path::Path;
use ugrs::steiner::gen::{bipartite, code_covering, hypercube_sparse_terminals, CostScheme};
use ugrs::steiner::graph::Graph;
use ugrs_oracle::steiner_tree_cost;

/// The benchmark's reference check: equal within 1e-6 relative.
fn matches_reference(obj: f64, reference: f64) -> bool {
    (obj - reference).abs() <= 1e-6 * reference.abs().max(1.0)
}

/// The instance a manifest entry names, regenerated from its family,
/// generator parameters, cost scheme and seed as the benchmark does.
/// `None` for the MISDP families.
fn generate(entry: &serde_json::Value) -> Option<Graph> {
    let params: Vec<usize> = entry["params"]
        .as_array()
        .expect("params")
        .iter()
        .map(|p| p.as_u64().expect("parameter") as usize)
        .collect();
    let scheme = if entry["unit_cost"].as_bool().expect("unit_cost") {
        CostScheme::Unit
    } else {
        CostScheme::Perturbed
    };
    let seed = entry["gen_seed"].as_u64().expect("gen_seed");
    let p = |i: usize| params[i];
    Some(match entry["family"].as_str().expect("family") {
        "cc" => code_covering(p(0), p(1), p(2), scheme, seed),
        "hc" => hypercube_sparse_terminals(p(0), p(1), scheme, seed),
        "bip" => bipartite(p(0), p(1), p(2), scheme, seed),
        _ => return None,
    })
}

#[test]
fn every_stp_reference_matches_an_independent_oracle() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("perfbench/manifests");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("manifest directory")
        .map(|f| f.expect("manifest entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    let (mut checked, mut mismatches) = (0, Vec::new());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read manifest");
        let manifest: serde_json::Value = serde_json::from_str(&text).expect("parse manifest");
        for entry in manifest["entries"].as_array().expect("entries") {
            let Some(g) = generate(entry) else { continue };
            let id = entry["id"].as_str().expect("id");
            let n = g.num_nodes();
            assert_eq!(n as u64, entry["n"].as_u64().unwrap(), "{id}: vertex count");
            assert_eq!(g.num_terminals() as u64, entry["terminals"].as_u64().unwrap(), "{id}");
            let edges: Vec<(usize, usize, f64)> = g
                .alive_edges()
                .map(|e| (g.edge(e).u as usize, g.edge(e).v as usize, g.edge(e).cost))
                .collect();
            let terminals: Vec<usize> = g.terminals().collect();
            let optimum = steiner_tree_cost(n, &edges, &terminals)
                .unwrap_or_else(|| panic!("{id}: disconnected"));
            let reference = entry["reference"].as_f64().expect("reference");
            if !matches_reference(optimum, reference) {
                let name = file.file_name().unwrap().to_string_lossy();
                mismatches.push(format!("{name} {id}: oracle {optimum}, reference {reference}"));
            }
            checked += 1;
        }
    }
    assert!(
        mismatches.is_empty(),
        "references the oracle disagrees with:\n{}",
        mismatches.join("\n")
    );
    // 28 + 28 (stp_seq), 12 + 12 (ug_par), 32 + 32 (serve).
    assert_eq!(checked, 144, "STP entries in {}", dir.display());
}
