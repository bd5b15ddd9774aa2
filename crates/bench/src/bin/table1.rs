//! **Table 1 reproduction** — "Shared memory results for selected
//! Steiner tree instances": solve five PUC-like instances with a growing
//! number of ParaSolvers and report, per instance, the wall time per
//! thread count plus the three diagnostics the paper uses to explain the
//! scaling: root time, the maximum number of simultaneously active
//! solvers, and the first time that maximum was reached.
//!
//! `cargo run -p ugrs-bench --release --bin table1 [-- --limit <s>] [--threads 1,2,4]`

use std::time::Instant;
use ugrs_bench::fmt_time;
use ugrs_core::ParallelOptions;
use ugrs_glue::ug_solve_stp;
use ugrs_steiner::gen as sgen;
use ugrs_steiner::reduce::ReduceParams;
use ugrs_steiner::{Graph, SteinerOptions, SteinerSolver};

fn instances() -> Vec<(&'static str, Graph)> {
    use sgen::CostScheme::*;
    // Five Table-1 instances, scaled to laptop size and calibrated to
    // span the paper's scaling spectrum:
    // cc3-4u~ scales worst (long root phase relative to its tree, like
    // the paper's cc3-4p), cc3-5u~/bip~ scale best.
    vec![
        ("cc3-4p~", sgen::code_covering(3, 4, 16, Perturbed, 121)),
        ("cc3-4u~", sgen::code_covering(3, 4, 12, Unit, 122)),
        ("cc3-5u~", sgen::code_covering(3, 5, 16, Unit, 142)),
        ("hc5u~", sgen::hypercube_sparse_terminals(5, 2, Unit, 107)),
        ("bip~", sgen::bipartite(12, 28, 3, Unit, 130)),
    ]
}

struct Column {
    name: &'static str,
    times: Vec<f64>,
    root_time: f64,
    max_solvers: usize,
    first_max_active: f64,
    all_solved: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let limit: f64 = arg(&args, "--limit").unwrap_or(120.0);
    let threads: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);

    println!("Table 1: shared memory results for selected PUC-like Steiner instances");
    println!("(all times in seconds; per-run limit {limit}s)\n");

    let mut cols = Vec::new();
    for (name, g) in instances() {
        // Root time from a sequential run (the paper's "root time" is a
        // property of the base solver at the root node).
        let mut seq_opts = SteinerOptions::default();
        seq_opts.settings.time_limit = limit;
        let mut seq = SteinerSolver::new(g.clone(), seq_opts);
        let seq_res = seq.solve();
        let root_time = seq_res.cip_stats.as_ref().map(|s| s.root_time).unwrap_or(0.0);

        let mut times = Vec::new();
        let mut max_solvers = 0;
        let mut first_max = 0.0;
        let mut all_solved = true;
        for &t in &threads {
            let t0 = Instant::now();
            let options =
                ParallelOptions { num_solvers: t, time_limit: limit, ..Default::default() };
            let res = ug_solve_stp(&g, &ReduceParams::default(), options);
            times.push(t0.elapsed().as_secs_f64());
            all_solved &= res.solved;
            if t == *threads.last().unwrap() {
                max_solvers = res.stats.max_active;
                first_max = res.stats.first_max_active_time;
            }
            // Consistency: every solved run must agree on the cost.
            if res.solved {
                let cost = res.tree.as_ref().map(|(_, c)| *c).unwrap_or(f64::NAN);
                if let Some(sc) = seq_res.best_cost {
                    assert!(
                        (cost - sc).abs() < 1e-6,
                        "{name}: {t} threads found {cost}, sequential {sc}"
                    );
                }
            }
        }
        cols.push(Column {
            name,
            times,
            root_time,
            max_solvers,
            first_max_active: first_max,
            all_solved,
        });
    }

    // Print in the paper's layout: one column per instance.
    print!("{:>22}", "# Threads");
    for c in &cols {
        print!("{:>12}", c.name);
    }
    println!();
    for (ti, &t) in threads.iter().enumerate() {
        print!("{:>22}", t);
        for c in &cols {
            print!("{:>12}", fmt_time(c.times[ti]));
        }
        println!();
    }
    print!("{:>22}", "root time");
    for c in &cols {
        print!("{:>12}", fmt_time(c.root_time));
    }
    println!();
    print!("{:>22}", "max # solvers");
    for c in &cols {
        print!("{:>12}", c.max_solvers);
    }
    println!();
    print!("{:>22}", "first max active time");
    for c in &cols {
        print!("{:>12}", fmt_time(c.first_max_active));
    }
    println!();
    if cols.iter().any(|c| !c.all_solved) {
        println!("\nnote: some runs hit the time limit; their times are the limit");
    }
}

fn arg(args: &[String], key: &str) -> Option<f64> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}
