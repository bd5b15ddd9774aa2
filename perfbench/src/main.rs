//! `ugrs-bench` — the repository's benchmark.
//!
//! ```text
//! ugrs-bench --workload <stp_seq|misdp_seq|ug_par|serve> --seed <n>
//!            --seconds <s> --trace <0|1> [--set 1|2] [--quick]
//!            [--trace-out <file>]
//! ugrs-bench calibrate [--set 1|2] [--dir perfbench/manifests]
//! ugrs-bench noise [--runs 5] [--workload <w>] [--seconds <s>] [--bench-json BENCHMARK.json]
//! ```
//!
//! The first form runs one workload and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. Everything readable goes to
//! standard error. See README.md in this directory.

mod calibrate;
mod kernels;
mod manifest;
mod metrics;
mod noise;
mod par;
mod run;
mod seq;
mod serve;
mod servekernels;
mod setup;
mod solve;
mod stats;
mod trace;
mod traced;
mod workload;

use std::path::PathBuf;

/// Command-line options of every subcommand.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub set: u64,
    pub quick: bool,
    pub trace_out: Option<PathBuf>,
    pub runs: usize,
    pub dir: PathBuf,
    pub bench_json: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: ugrs-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20                 [--set 1|2] [--quick] [--trace-out <file>]\n\
         \x20      ugrs-bench calibrate [--set 1|2] [--dir perfbench/manifests]\n\
         \x20      ugrs-bench noise [--runs 5] [--workload <w>] [--seconds <s>]\n\
         \x20                 [--bench-json BENCHMARK.json]",
        metrics::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

pub fn default_opts() -> Opts {
    Opts {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        set: 1,
        quick: false,
        trace_out: None,
        runs: 5,
        dir: PathBuf::from("perfbench/manifests"),
        bench_json: PathBuf::from("BENCHMARK.json"),
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = default_opts();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: &String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        let int = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = int(value()?)?,
            "--seconds" => o.seconds = Some(num(value()?)?),
            "--trace" => o.trace = int(value()?)? != 0,
            "--set" => o.set = int(value()?)?,
            "--runs" => o.runs = int(value()?)? as usize,
            "--quick" => o.quick = true,
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            "--dir" => o.dir = PathBuf::from(value()?),
            "--bench-json" => o.bench_json = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

fn main() {
    // Children must not outlive a panic: kill them, then report it.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        serve::kill_live_pids();
        default_hook(info);
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some("calibrate") => ("calibrate", &args[1..]),
        Some("noise") => ("noise", &args[1..]),
        _ => ("run", &args[..]),
    };
    let opts = parse(rest).unwrap_or_else(|e| {
        eprintln!("ugrs-bench: {e}");
        usage()
    });
    let result = match sub {
        "calibrate" => calibrate::run(&opts.dir, opts.set),
        "noise" => noise::run(&opts),
        _ => {
            run::start_watchdog(opts.seconds.unwrap_or(0.0));
            run::run(&opts).and_then(|out| {
                println!("{}", out.line);
                // A wrong optimum is loud: the line says so, and so does
                // the exit code.
                out.correct.then_some(()).ok_or("the run was not correct (see above)".into())
            })
        }
    };
    if let Err(e) = result {
        eprintln!("ugrs-bench: {e}");
        std::process::exit(1);
    }
}
