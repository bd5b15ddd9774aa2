//! **Table 1, ProcessComm variant** — the paper's distributed-memory
//! (ParaSCIP-style) configuration at laptop scale: the same PUC-like
//! instances as `table1`, each solved with `ug [SteinerJack,
//! ThreadComm]` and `ug [SteinerJack, ProcessComm]` at a growing rank
//! count, reporting wall times side by side. The gap between the two
//! columns is the transport overhead (process spawn + handshake +
//! frames over localhost TCP) that the shared-memory runs avoid.
//!
//! Requires the worker binary:
//!
//! ```sh
//! cargo build --release --bin ugd-worker
//! cargo run -p ugrs-bench --release --bin table1p \
//!     [-- --limit <s>] [--ranks 1,2,4]
//! ```
//!
//! The `wire` column is this process's tx+rx byte
//! delta over the distributed run (`ugrs_wire_{tx,rx}_bytes_total` —
//! coordinator-side traffic; worker-side bytes mirror it).
//!
//! The worker is looked up next to this executable (both live in
//! `target/<profile>/`); override with the `UGD_WORKER` env var.

use std::time::Instant;
use ugrs_bench::fmt_time;
use ugrs_core::{DistributedOptions, ParallelOptions};
use ugrs_glue::{ug_solve_stp, ug_solve_stp_distributed};
use ugrs_steiner::gen as sgen;
use ugrs_steiner::reduce::ReduceParams;
use ugrs_steiner::Graph;

fn instances() -> Vec<(&'static str, Graph)> {
    use sgen::CostScheme::*;
    // The two best-scaling Table-1 instances plus the worst-scaling one
    // (see table1.rs) — enough to show where transport overhead hides
    // behind solve time and where it dominates.
    vec![
        ("cc3-4u~", sgen::code_covering(3, 4, 12, Unit, 122)),
        ("cc3-5u~", sgen::code_covering(3, 5, 16, Unit, 142)),
        ("bip~", sgen::bipartite(12, 28, 3, Unit, 130)),
    ]
}

fn worker_binary() -> Option<String> {
    if let Ok(path) = std::env::var("UGD_WORKER") {
        return Some(path);
    }
    let exe = std::env::current_exe().ok()?;
    let candidate = exe.parent()?.join("ugd-worker");
    candidate.exists().then(|| candidate.to_string_lossy().into_owned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let limit: f64 = arg(&args, "--limit").unwrap_or(120.0);
    let ranks: Vec<usize> = args
        .iter()
        .position(|a| a == "--ranks")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 4]);

    let Some(worker) = worker_binary() else {
        eprintln!(
            "table1p: ugd-worker not found next to this binary and UGD_WORKER unset;\n\
             build it first: cargo build --release --bin ugd-worker"
        );
        std::process::exit(2);
    };

    println!("Table 1 (ProcessComm): thread vs process back-end wall times");
    println!("(worker: {worker}; per-run limit {limit}s)\n");
    println!(
        "{:>10} {:>7} {:>12} {:>12} {:>10} {:>10} {:>7}",
        "instance", "ranks", "ThreadComm", "ProcessComm", "overhead", "wire", "agree"
    );

    for (name, g) in instances() {
        for &n in &ranks {
            let options =
                ParallelOptions { num_solvers: n, time_limit: limit, ..Default::default() };

            let t0 = Instant::now();
            let threaded = ug_solve_stp(&g, &ReduceParams::default(), options.clone());
            let t_thread = t0.elapsed().as_secs_f64();

            let w = ugrs_core::telemetry::wire();
            let wire_before = w.tx_bytes.get() + w.rx_bytes.get();
            let t0 = Instant::now();
            let dist = ug_solve_stp_distributed(
                &g,
                &ReduceParams::default(),
                options,
                DistributedOptions { worker_command: vec![worker.clone()], ..Default::default() },
            );
            let t_proc = t0.elapsed().as_secs_f64();
            let wire_bytes = w.tx_bytes.get() + w.rx_bytes.get() - wire_before;

            let (verdict, note) = match &dist {
                Ok(d) => {
                    let tc = threaded.tree.as_ref().map(|(_, c)| *c);
                    let pc = d.tree.as_ref().map(|(_, c)| *c);
                    if !threaded.solved || !d.solved {
                        // Timed-out runs hold whatever incumbent each
                        // back-end reached; comparing them says nothing.
                        ("t.o.", String::new())
                    } else {
                        match (tc, pc) {
                            (Some(a), Some(b)) if (a - b).abs() < 1e-6 => ("yes", String::new()),
                            _ => ("NO", format!("  ({tc:?} vs {pc:?})")),
                        }
                    }
                }
                Err(e) => ("NO", format!("  (error: {e})")),
            };
            println!(
                "{:>10} {:>7} {:>12} {:>12} {:>10} {:>10} {:>7}{}",
                name,
                n,
                fmt_time(t_thread),
                fmt_time(t_proc),
                fmt_time(t_proc - t_thread),
                fmt_bytes(wire_bytes),
                verdict,
                note
            );
        }
    }
    println!(
        "\noverhead = ProcessComm - ThreadComm wall time (spawn + handshake + wire\n\
         framing); it is roughly constant per run, so it fades on harder instances."
    );
}

fn arg(args: &[String], key: &str) -> Option<f64> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1024 * 1024 {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}
