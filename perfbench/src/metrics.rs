//! The metric tables: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a test keeps
//! the two in step.

/// (name, unit, better)
pub type MetricDef = (&'static str, &'static str, &'static str);

pub const WORKLOADS: [&str; 4] = ["stp_seq", "misdp_seq", "ug_par", "serve"];

pub const END_TO_END: [MetricDef; 7] = [
    ("solve_s", "s", "lower"),
    ("solve_sgm_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("solved_p50_ms", "ms", "lower"),
    ("solved_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

pub const PER_LAYER: [MetricDef; 83] = [
    // linalg
    ("linalg.lu_factor_us", "us", "lower"),
    ("linalg.lu_solve_us", "us", "lower"),
    ("linalg.eigen_us", "us", "lower"),
    ("linalg.cholesky_us", "us", "lower"),
    // lp
    ("lp.cold_solve_ms", "ms", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.pivots_per_s", "1/s", "higher"),
    ("lp.warm_resolve_us", "us", "lower"),
    ("lp.refactor_us", "us", "lower"),
    ("lp.ftran_us", "us", "lower"),
    ("lp.btran_us", "us", "lower"),
    // sdp
    ("sdp.solve_ms", "ms", "lower"),
    ("sdp.relax_ms", "ms", "lower"),
    ("sdp.root_solve_ms", "ms", "lower"),
    ("sdp.newton_iters", "count", "lower"),
    // cip
    ("cip.nodes", "count", "lower"),
    ("cip.nodes_per_s", "1/s", "higher"),
    ("cip.lp_solves", "count", "lower"),
    ("cip.lp_iters", "count", "lower"),
    ("cip.relax_solves", "count", "lower"),
    ("cip.cuts_applied", "count", "lower"),
    ("cip.root_time_s", "s", "lower"),
    ("cip.self_ms", "ms", "lower"),
    ("cip.plain_mip_ms", "ms", "lower"),
    // steiner
    ("steiner.prepare_ms", "ms", "lower"),
    ("steiner.reduce_ms", "ms", "lower"),
    ("steiner.reduce_elims", "count", "higher"),
    ("steiner.dualascent_ms", "ms", "lower"),
    ("steiner.dualascent_gap_pct", "%", "lower"),
    ("steiner.maxflow_us", "us", "lower"),
    ("steiner.tm_heur_ms", "ms", "lower"),
    ("steiner.tm_gap_pct", "%", "lower"),
    ("steiner.separate_ms", "ms", "lower"),
    ("steiner.propagate_ms", "ms", "lower"),
    ("steiner.heur_plugins_ms", "ms", "lower"),
    // misdp
    ("misdp.root_s", "s", "lower"),
    ("misdp.nodes_sdp", "count", "lower"),
    ("misdp.nodes_lp", "count", "lower"),
    ("misdp.eigcuts", "count", "lower"),
    ("misdp.eigcut_ms", "ms", "lower"),
    ("misdp.sdp_items_s", "s", "lower"),
    ("misdp.lp_items_s", "s", "lower"),
    // core
    ("core.idle_pct", "%", "lower"),
    ("core.transferred", "count", "lower"),
    ("core.collected", "count", "lower"),
    ("core.nodes_total", "count", "lower"),
    ("core.node_inflation", "ratio", "lower"),
    ("core.max_active", "count", "higher"),
    ("core.first_max_active_s", "s", "lower"),
    ("core.one_solver_overhead_pct", "%", "lower"),
    ("core.speedup_vs_seq", "ratio", "higher"),
    ("core.racing_share_s", "s", "lower"),
    ("core.checkpoint_save_ms", "ms", "lower"),
    ("core.checkpoint_bytes", "bytes", "lower"),
    ("core.lz_ratio", "ratio", "higher"),
    ("core.lz_compress_mb_s", "MB/s", "higher"),
    // wire
    ("wire.encode_json_ns", "ns", "lower"),
    ("wire.decode_json_ns", "ns", "lower"),
    ("wire.bytes_json", "bytes", "lower"),
    ("wire.encode_bin_ns", "ns", "lower"),
    ("wire.decode_bin_ns", "ns", "lower"),
    ("wire.bytes_bin", "bytes", "lower"),
    ("wire.crc32_mb_s", "MB/s", "higher"),
    ("wire.frame_decode_ns", "ns", "lower"),
    // process
    ("process.spawn_handshake_ms", "ms", "lower"),
    ("process.bytes_on_wire", "bytes", "lower"),
    ("process.frames_retransmitted", "count", "lower"),
    // ledger
    ("ledger.submit_fsync_ms", "ms", "lower"),
    ("ledger.record_bytes", "bytes", "lower"),
    // server
    ("server.submit_ack_p50_ms", "ms", "lower"),
    ("server.solved_p50_ms.small", "ms", "lower"),
    ("server.solved_p50_ms.fat", "ms", "lower"),
    ("server.jobs_per_s", "1/s", "higher"),
    ("server.queue_depth_max", "count", "lower"),
    // gateway
    ("gateway.submit_ack_p50_ms", "ms", "lower"),
    ("gateway.submit_ack_p99_ms", "ms", "lower"),
    ("gateway.added_solved_ms", "ms", "lower"),
    // telemetry, instances, bench
    ("telemetry.journal_overhead_pct", "%", "lower"),
    ("instances.validate_ms", "ms", "lower"),
    ("instances.materialise_ms", "ms", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.self_time_cover_pct", "%", "higher"),
    ("bench.trace_diverged", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(*better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` must list exactly these workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str, field: &str| -> Vec<String> {
            json[key]
                .as_array()
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| m[field].as_str().expect("string field").to_string())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let expect = |i: usize| -> Vec<String> {
                table.iter().map(|d| [d.0, d.1, d.2][i].to_string()).collect()
            };
            assert_eq!(names(key, "name"), expect(0), "{key} names");
            assert_eq!(names(key, "unit"), expect(1), "{key} units");
            assert_eq!(names(key, "better"), expect(2), "{key} directions");
        }
        for m in json["end_to_end"].as_array().expect("array") {
            let bound = m["bound"].as_f64().expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{:?}: bound {bound}", m["name"]);
        }
        assert!(names("end_to_end", "name").contains(&"setup_s".to_string()));
    }
}
