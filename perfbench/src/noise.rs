//! `ugrs-bench noise`: runs the end-to-end suite k times, each run a
//! fresh process with its own seed, and prints min / median / max and
//! the spread of every metric × workload: the quartile distance over
//! the median, which is what the benchmark's driver computes, and
//! (max − min)/median beside it. A bound in `BENCHMARK.json` is three
//! times the widest quartile spread seen on any workload (the `3×iqr`
//! column), at least 0.03 and at most 0.25. It exits non-zero when a
//! quartile spread — of any metric, `setup_s` too — exceeds its bound.

use crate::stats::{iqr_over_median, median, range_over_median};
use crate::Opts;
use std::collections::BTreeMap;
use std::process::Command;

/// The last stdout line of one run, parsed.
fn one_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    opts: &Opts,
) -> Result<serde_json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .args(["--set", &opts.set.to_string()]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd.stderr(std::process::Stdio::null()).output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    serde_json::from_str(line).map_err(|e| format!("{workload} seed {seed}: {e}"))
}

pub fn run(opts: &Opts) -> Result<(), String> {
    let text = std::fs::read_to_string(&opts.bench_json)
        .map_err(|e| format!("{}: {e}", opts.bench_json.display()))?;
    let bench: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let seconds = opts
        .seconds
        .or_else(|| bench["run_seconds"].as_f64())
        .ok_or("run_seconds missing from BENCHMARK.json")?;
    let list = |key: &str| bench[key].as_array().map(<[_]>::to_vec).unwrap_or_default();
    let bounds: BTreeMap<String, f64> = list("end_to_end")
        .iter()
        .filter_map(|m| Some((m["name"].as_str()?.to_string(), m["bound"].as_f64()?)))
        .collect();

    let mut exceeded = Vec::new();
    for w in list("workloads") {
        let workload = w["name"].as_str().ok_or("workload without a name")?;
        if opts.workload.as_deref().is_some_and(|only| only != workload) {
            continue;
        }
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for run in 0..opts.runs {
            let result = one_run(workload, run as u64 + 1, seconds, opts)?;
            if result["correct"].as_bool() != Some(true) {
                return Err(format!("{workload} run {run}: incorrect result ({result:?})"));
            }
            for name in bounds.keys() {
                let v = result["metrics"][name.as_str()]["value"].as_f64();
                values.entry(name.clone()).or_default().push(v.ok_or("metric missing")?);
            }
            eprintln!("  {workload} run {}/{} done", run + 1, opts.runs);
        }
        println!("{workload} ({} runs of {seconds} s)", opts.runs);
        println!(
            "  {:<16} {:>12} {:>12} {:>12} {:>10} {:>10} {:>7} {:>7}",
            "metric", "min", "median", "max", "range/med", "iqr/med", "3×iqr", "bound"
        );
        for (name, v) in &values {
            let (lo, hi) = v.iter().fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
            let (range, iqr) = (range_over_median(v), iqr_over_median(v));
            let bound = bounds[name];
            let over = iqr.is_finite() && iqr > bound;
            println!(
                "  {name:<16} {lo:>12.4} {:>12.4} {hi:>12.4} {range:>10.4} {iqr:>10.4} {:>7.2} {bound:>7.2}{}",
                median(v),
                3.0 * iqr,
                if over { "  EXCEEDED" } else { "" }
            );
            if over {
                exceeded.push(format!("{workload}/{name}"));
            }
        }
    }
    if exceeded.is_empty() {
        Ok(())
    } else {
        Err(format!("spread above bound: {}", exceeded.join(", ")))
    }
}
