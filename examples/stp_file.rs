//! Solve a SteinLib `.stp` file from disk — the adoption path for users
//! with real PUC/SteinLib instances.
//!
//! Run with: `cargo run --release --example stp_file -- path/to/instance.stp [threads]`
//!
//! Without arguments, a built-in sample instance is solved instead.

use ugrs::glue::ug_solve_stp;
use ugrs::instances::stp::{parse_stp, read_stp};
use ugrs::steiner::reduce::ReduceParams;
use ugrs::ug::ParallelOptions;

const SAMPLE: &str = "\
33D32945 STP File, STP Format Version 1.0
SECTION Graph
Nodes 6
Edges 9
E 1 2 3
E 2 3 4
E 3 4 3
E 4 5 4
E 5 1 5
E 1 6 2
E 2 6 2
E 3 6 3
E 5 6 3
END
SECTION Terminals
Terminals 3
T 1
T 3
T 5
END
EOF
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let instance = match args.first() {
        Some(path) => match read_stp(std::path::Path::new(path)) {
            Ok(i) => {
                println!("read {}", path);
                i
            }
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            println!("no file given — solving the built-in sample");
            parse_stp(SAMPLE).expect("sample parses")
        }
    };
    let graph = instance.to_graph();
    let threads: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(2);
    println!(
        "instance: {} vertices, {} edges, {} terminals; solving with {threads} ParaSolvers",
        graph.num_alive_nodes(),
        graph.num_alive_edges(),
        graph.num_terminals()
    );
    let options = ParallelOptions { num_solvers: threads, ..Default::default() };
    let res = ug_solve_stp(&graph, &ReduceParams::default(), options);
    match res.tree {
        Some((edges, cost)) => {
            println!("solved = {}; best tree cost = {cost}", res.solved);
            println!("tree edges (1-based endpoints):");
            for e in edges {
                let ed = graph.edge(e);
                println!("  {} - {}  (cost {})", ed.u + 1, ed.v + 1, ed.cost);
            }
        }
        None => println!("no solution found (solved = {})", res.solved),
    }
}
