//! One benchmark run: set-up, the timed (or traced) passes, the
//! verdict, and the result line.

use crate::kernels::Metrics;
use crate::manifest::Manifest;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::par::ParWorkload;
use crate::seq::SeqWorkload;
use crate::serve::ServeWorkload;
use crate::stats::median;
use crate::trace::{lock, SharedTracer};
use crate::workload::{end_to_end, Pass, Workload};
use crate::Opts;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Instances (small pool jobs) per workload in `--quick` mode.
const QUICK_ITEMS: usize = 3;
/// A run that has not finished this long after its measuring time is
/// stuck: its children are killed and it exits non-zero.
const WATCHDOG_GRACE_S: f64 = 120.0;

/// The instances of `--quick` mode: the fastest of the manifest (serve
/// keeps its own mix, see `serve.rs`).
fn quick_manifest(manifest: &Manifest) -> Manifest {
    let mut m = manifest.clone();
    if m.workload != "serve" {
        m.entries.sort_by(|a, b| a.seq_ms.total_cmp(&b.seq_ms));
        m.entries.truncate(QUICK_ITEMS);
    }
    m
}

fn setup(workload: &str, manifest: &Manifest, quick: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "stp_seq" | "misdp_seq" => Box::new(SeqWorkload::setup(manifest)?),
        "ug_par" => Box::new(ParWorkload::setup(manifest)?),
        _ => Box::new(ServeWorkload::setup(manifest, quick.then_some(QUICK_ITEMS))?),
    })
}

pub fn start_watchdog(seconds: f64) {
    let limit = Duration::from_secs_f64(seconds + WATCHDOG_GRACE_S);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "ugrs-bench: still running {limit:?} after start; killing children and giving up"
        );
        crate::serve::kill_live_pids();
        std::process::exit(3);
    });
}

/// The pass after which `peak_rss_mb` is read: memory after a fixed
/// amount of work. A daemon's resident set grows with the jobs it has
/// served, so reading it at the end would measure throughput again.
const RSS_AFTER_PASS: usize = 3;

/// Passes until the next one would overrun `seconds` (at least one).
/// Returns the passes and the peak resident set, in kB.
fn timed_passes(
    w: &mut dyn Workload,
    rng: &mut SmallRng,
    seconds: f64,
    max_passes: usize,
) -> (Vec<Pass>, u64) {
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut rss_kb = 0;
    loop {
        passes.push(w.pass(rng, None));
        if passes.len() <= RSS_AFTER_PASS {
            rss_kb = w.peak_rss_kb();
        }
        let longest = passes.iter().map(|p| p.wall_s).fold(0.0, f64::max);
        if passes.len() >= max_passes || t0.elapsed().as_secs_f64() + longest > seconds {
            return (passes, rss_kb);
        }
    }
}

/// What a run leaves: its result line and whether it was correct.
pub struct Outcome {
    pub line: String,
    pub correct: bool,
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. A metric absent from `values`
/// is 0 (its layer did nothing); a non-finite one voids the run.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Metrics,
) -> Outcome {
    let mut body = Vec::new();
    let mut finite = true;
    for (name, unit, _) in defs {
        let v = values.get(name).copied().unwrap_or(0.0);
        finite &= v.is_finite();
        let v = if v.is_finite() { v } else { 0.0 };
        eprintln!("  {name:<34} {v:>16.6} {unit}");
        body.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
    }
    let correct = correct && finite;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Outcome { line, correct }
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let workload = opts.workload.as_deref().ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?} (one of {})", WORKLOADS.join(", ")));
    }
    let seconds = opts.seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let manifest = Manifest::load(workload, opts.set)?;
    let manifest = if opts.quick { quick_manifest(&manifest) } else { manifest };
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    eprintln!(
        "ugrs-bench {workload}: set {}, seed {}, {seconds} s, {} instances{}",
        opts.set,
        opts.seed,
        manifest.entries.len(),
        if opts.quick { " (quick)" } else { "" }
    );
    if opts.trace {
        traced_run(opts, workload, &manifest, &mut rng, seconds)
    } else {
        end_to_end_run(opts, workload, &manifest, &mut rng, seconds)
    }
}

fn end_to_end_run(
    opts: &Opts,
    workload: &str,
    manifest: &Manifest,
    rng: &mut SmallRng,
    seconds: f64,
) -> Result<Outcome, String> {
    // Set up several times and report the median; the last one stays.
    let mut setup_times = Vec::new();
    let mut current: Option<Box<dyn Workload>> = None;
    for _ in 0..if opts.quick { 1 } else { SETUPS } {
        drop(current.take());
        let t0 = Instant::now();
        current = Some(setup(workload, manifest, opts.quick)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut w = current.expect("at least one set-up");
    eprintln!("  set-up times: {setup_times:.3?} s");

    let max_passes = if opts.quick { 1 } else { usize::MAX };
    let (passes, rss_kb) = timed_passes(w.as_mut(), rng, seconds, max_passes);
    let e = end_to_end(&passes, w.aggregation(), median(&setup_times), rss_kb);
    drop(w);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    eprintln!("  {} timed items in {} passes of {walls:.3?} s", e.attempted, passes.len());

    let values: Metrics = [
        ("solve_s", e.solve_s),
        ("solve_sgm_s", e.solve_sgm_s),
        ("jobs_per_s", e.jobs_per_s),
        ("solved_p50_ms", e.solved_p50_ms),
        ("solved_p90_ms", e.solved_p90_ms),
        ("peak_rss_mb", e.peak_rss_mb),
        ("setup_s", e.setup_s),
    ]
    .into_iter()
    .collect();
    Ok(result_line(e.failed == 0, e.attempted, e.failed, &END_TO_END, &values))
}

fn traced_run(
    opts: &Opts,
    workload: &str,
    manifest: &Manifest,
    rng: &mut SmallRng,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut w = setup(workload, manifest, opts.quick)?;
    let tracer: SharedTracer = SharedTracer::default();

    // Untraced and traced passes alternate for the first part of the
    // run; the rest belongs to the layers' own measurements.
    let t0 = Instant::now();
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    loop {
        plain.push(w.pass(rng, None));
        traced.push(w.pass(rng, Some(&tracer)));
        let pair = plain.last().map_or(0.0, |p| p.wall_s) + traced.last().map_or(0.0, |p| p.wall_s);
        let left = seconds - w.layers_reserve_s() - t0.elapsed().as_secs_f64();
        if opts.quick || pair > left {
            break;
        }
    }

    let mut out = Metrics::new();
    let plain_s = end_to_end(&plain, w.aggregation(), 0.0, 0).solve_s;
    let traced_s = end_to_end(&traced, w.aggregation(), 0.0, 0).solve_s;
    out.insert("bench.trace_overhead_pct", (traced_s / plain_s - 1.0) * 100.0);
    // Span self times of a traced pass against the item times of an
    // untraced pass: what share of the untraced time the spans explain.
    let per_pass = |p: &[Pass]| {
        p.iter().flat_map(|p| &p.samples).map(|s| s.secs).sum::<f64>() / p.len() as f64
    };
    let self_s: f64 = lock(&tracer).self_times().values().sum::<f64>() / traced.len() as f64;
    out.insert("bench.self_time_cover_pct", self_s / per_pass(&plain) * 100.0);

    let budget_s = if opts.quick { 1.0 } else { (seconds - t0.elapsed().as_secs_f64()).max(1.0) };
    w.layers(rng, &tracer, &traced, budget_s, &mut out);
    drop(w);

    let trace_out = opts.trace_out.clone().unwrap_or_else(|| {
        crate::setup::bin_dir().join("ugrs-bench-tmp").join(format!("trace-{workload}.jsonl"))
    });
    lock(&tracer).write_jsonl(&trace_out).map_err(|e| format!("{}: {e}", trace_out.display()))?;
    eprintln!("  {} spans written to {}", lock(&tracer).spans().len(), trace_out.display());

    let samples = || plain.iter().chain(&traced).flat_map(|p| &p.samples);
    let attempted = samples().count() as u64;
    let failed = samples().filter(|s| !s.ok).count() as u64;
    Ok(result_line(failed == 0, attempted, failed, &PER_LAYER, &out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn result_line_round_trips_through_the_schema() {
        let values: Metrics = [("solve_s", 1.25), ("setup_s", 1e-7)].into_iter().collect();
        let line = result_line(true, 100, 0, &END_TO_END, &values).line;
        let json: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let mut keys: Vec<&str> =
            json.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(json["correct"].as_bool(), Some(true));
        assert_eq!(json["attempted"].as_u64(), Some(100));
        assert_eq!(json["failed"].as_u64(), Some(0));
        let metrics = &json["metrics"];
        assert_eq!(metrics.as_object().expect("object").len(), END_TO_END.len());
        for (name, unit, _) in END_TO_END {
            assert_eq!(metrics[name]["unit"].as_str(), Some(unit));
            assert!(metrics[name]["value"].as_f64().is_some(), "{name}");
        }
        assert_eq!(metrics["solve_s"]["value"].as_f64(), Some(1.25));
        assert_eq!(metrics["setup_s"]["value"].as_f64(), Some(1e-7));
        assert_eq!(metrics["jobs_per_s"]["value"].as_f64(), Some(0.0));
    }

    #[test]
    fn a_non_finite_metric_voids_the_run() {
        let values: Metrics = [("solve_s", f64::NAN)].into_iter().collect();
        let out = result_line(true, 1, 0, &END_TO_END, &values);
        let json: serde_json::Value = serde_json::from_str(&out.line).expect("still valid JSON");
        assert_eq!(json["correct"].as_bool(), Some(false));
        assert!(!out.correct);
    }

    /// `--quick` smoke: every workload, end to end and traced, on three
    /// instances and one pass. Needs the root package's binaries in the
    /// test's target directory: `cargo build --bins` with the same
    /// profile and target directory, from the repository root.
    #[test]
    fn quick_mode_exercises_every_path() {
        for bin in ["ugd-gateway", "ugd-server", "ugd-worker", "ug-instances"] {
            let path = crate::setup::bin_dir().join(bin);
            assert!(
                path.is_file(),
                "{} is missing: run `cargo build --bins` from the repository root with the \
                 same CARGO_TARGET_DIR before `cargo test --manifest-path perfbench/Cargo.toml`",
                path.display()
            );
        }
        for workload in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    workload: Some(workload.into()),
                    seconds: Some(1.0),
                    trace,
                    quick: true,
                    ..crate::default_opts()
                };
                let line =
                    run(&opts).unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}")).line;
                let json: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
                assert_eq!(json["correct"].as_bool(), Some(true), "{workload} trace={trace}");
                assert_eq!(json["failed"].as_u64(), Some(0));
                let want = if trace { PER_LAYER.len() } else { END_TO_END.len() };
                assert_eq!(json["metrics"].as_object().map(|m| m.len()), Some(want));
            }
        }
    }
}
