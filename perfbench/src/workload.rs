//! What the four workloads have in common: a pass over their items
//! yields one timed sample per item, and the end-to-end metrics are
//! functions of those samples alone.

use crate::kernels::Metrics;
use crate::stats::{
    highest_percentile_with_ten_beyond, shifted_geomean, windowed_percentile, SGM_SHIFT_S,
};
use crate::trace::SharedTracer;
use rand::rngs::SmallRng;

/// One timed item: which item, how long to its proven optimum, and
/// whether it was proven optimal at the manifest's reference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub item: usize,
    pub secs: f64,
    pub ok: bool,
}

/// One pass over the workload's items.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub samples: Vec<Sample>,
}

/// How the end-to-end metrics are formed from a workload's passes.
/// Whatever the host adds to a piece of work it only ever adds, and on a
/// shared VM it adds it in bursts of seconds and phases of minutes; the
/// best of several repeats is the estimate that repeats from run to run
/// (measured here: half the spread of the median, a third on `ug_par`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregation {
    /// Items solved one after the other, each a fixed piece of work. An
    /// item's time is its best over the passes, and the metrics describe
    /// the one undisturbed pass those times make up: their sum, their
    /// shifted geometric mean, their percentiles, items per second.
    PerItem,
    /// Items overlapping in time (two clients in flight): their times
    /// are a queueing distribution and do not add up to the wall. Each
    /// metric is computed per pass, over that pass's jobs, and the best
    /// pass's value is reported.
    Pooled,
}

impl Aggregation {
    /// Half-width, in percentage points, of the rank window the
    /// percentiles average over: a pass of a few dozen distinct items
    /// needs a wider one than a block of 200 jobs.
    fn window_pct(self) -> f64 {
        match self {
            Aggregation::PerItem => 10.0,
            Aggregation::Pooled => 5.0,
        }
    }
}

pub trait Workload {
    /// Runs every item once, in an order drawn from `rng`. With a
    /// tracer, the layer boundaries record spans into it.
    fn pass(&mut self, rng: &mut SmallRng, tracer: Option<&SharedTracer>) -> Pass;

    fn aggregation(&self) -> Aggregation {
        Aggregation::PerItem
    }

    /// Seconds of a traced run that [`Workload::layers`] needs for its
    /// own measurements; the traced passes get the rest.
    fn layers_reserve_s(&self) -> f64 {
        3.0
    }

    /// Peak resident set of everything the workload runs, in kB.
    fn peak_rss_kb(&self) -> u64 {
        proc_status_kb(std::process::id(), "VmHWM")
    }

    /// The per-layer metrics of the traced run: `traced` are the traced
    /// passes recorded into `tracer`, `budget_s` the seconds left for
    /// micro-kernels and layer-specific comparisons.
    fn layers(
        &mut self,
        rng: &mut SmallRng,
        tracer: &SharedTracer,
        traced: &[Pass],
        budget_s: f64,
        out: &mut Metrics,
    );
}

/// Reads a `kB` field (`VmHWM`, `VmRSS`) of `/proc/<pid>/status`; 0 when
/// the process is gone or the field is absent.
pub fn proc_status_kb(pid: u32, field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/status")) else { return 0 };
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The seven end-to-end metrics, plus the item accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub solve_s: f64,
    pub solve_sgm_s: f64,
    pub jobs_per_s: f64,
    pub solved_p50_ms: f64,
    pub solved_p90_ms: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Times to optimum of the items proven optimal in one pass, and the
/// pass's wall time.
struct View {
    times: Vec<f64>,
    wall_s: f64,
}

/// The passes the metrics are computed over: the reconstructed
/// undisturbed pass ([`Aggregation::PerItem`]: every item at its best
/// time, wall = their sum), or every pass as it ran
/// ([`Aggregation::Pooled`]). A failed sample has no time to optimum: it
/// is counted, not timed.
fn views(passes: &[Pass], how: Aggregation) -> Vec<View> {
    match how {
        Aggregation::PerItem => {
            let mut best = std::collections::BTreeMap::new();
            for s in passes.iter().flat_map(|p| &p.samples).filter(|s| s.ok) {
                let b = best.entry(s.item).or_insert(f64::INFINITY);
                *b = s.secs.min(*b);
            }
            let times: Vec<f64> = best.into_values().collect();
            let wall_s = times.iter().sum();
            vec![View { times, wall_s }]
        }
        Aggregation::Pooled => passes
            .iter()
            .map(|p| View {
                times: p.samples.iter().filter(|s| s.ok).map(|s| s.secs).collect(),
                wall_s: p.wall_s,
            })
            .collect(),
    }
}

pub fn end_to_end(passes: &[Pass], how: Aggregation, setup_s: f64, peak_rss_kb: u64) -> EndToEnd {
    let samples = || passes.iter().flat_map(|p| &p.samples);
    let attempted = samples().count() as u64;
    let failed = samples().filter(|s| !s.ok).count() as u64;
    let views = views(passes, how);
    let best = |f: &dyn Fn(&View) -> f64| views.iter().map(f).fold(f64::INFINITY, f64::min);
    let percentile_ms = |v: &View, p: f64| {
        let ms: Vec<f64> = v.times.iter().map(|s| s * 1e3).collect();
        windowed_percentile(&ms, p, how.window_pct())
    };
    if how == Aggregation::Pooled {
        let jobs = views.iter().map(|v| v.times.len()).min().unwrap_or(0);
        if highest_percentile_with_ten_beyond(jobs).is_none_or(|p| p < 90) {
            eprintln!("  note: a pass of {jobs} jobs leaves fewer than ten beyond p90 (needs 100)");
        }
    }
    EndToEnd {
        setup_s,
        solve_s: best(&|v| v.wall_s),
        solve_sgm_s: best(&|v| shifted_geomean(&v.times, SGM_SHIFT_S)),
        jobs_per_s: 1.0 / best(&|v| v.wall_s / v.times.len() as f64),
        solved_p50_ms: best(&|v| percentile_ms(v, 50.0)),
        solved_p90_ms: best(&|v| percentile_ms(v, 90.0)),
        peak_rss_mb: peak_rss_kb as f64 / 1024.0,
        attempted,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(wall_s: f64, secs: &[f64]) -> Pass {
        let samples =
            secs.iter().enumerate().map(|(item, &secs)| Sample { item, secs, ok: true }).collect();
        Pass { wall_s, samples }
    }

    #[test]
    fn per_item_metrics_describe_the_pass_of_best_times() {
        // Item 0 is disturbed in passes 2 and 3; its best ignores that.
        let passes = [pass(1.2, &[0.2, 1.0]), pass(5.0, &[4.0, 1.0]), pass(1.4, &[0.4, 1.0])];
        let e = end_to_end(&passes, Aggregation::PerItem, 1.5, 2048);
        assert!((e.solve_s - 1.2).abs() < 1e-12);
        assert_eq!((e.attempted, e.failed), (6, 0));
        assert!((e.jobs_per_s - 2.0 / 1.2).abs() < 1e-12);
        assert_eq!(e.peak_rss_mb, 2.0);
        assert_eq!(e.setup_s, 1.5);
        // sgm and percentiles over the two item bests 0.2 and 1.0.
        assert!((e.solve_sgm_s - ((0.3f64 * 1.1).sqrt() - 0.1)).abs() < 1e-12);
        assert_eq!(e.solved_p50_ms, 600.0);
        assert_eq!(e.solved_p90_ms, 1000.0);
    }

    #[test]
    fn pooled_metrics_are_those_of_the_best_pass() {
        let passes = [pass(2.0, &[0.1, 0.3]), pass(3.0, &[0.5, 0.5]), pass(1.0, &[0.3, 0.3])];
        let e = end_to_end(&passes, Aggregation::Pooled, 1.0, 0);
        assert_eq!(e.solve_s, 1.0);
        assert_eq!(e.jobs_per_s, 2.0);
        // Each metric takes its own best pass: sgm and p50 from the first.
        assert!((e.solve_sgm_s - ((0.2f64 * 0.4).sqrt() - 0.1)).abs() < 1e-12);
        assert_eq!(e.solved_p50_ms, 200.0);
        assert_eq!(e.solved_p90_ms, 300.0);
    }

    #[test]
    fn failed_items_are_counted_not_timed() {
        let mut p = pass(1.0, &[0.1, 0.2, 9.0]);
        p.samples[2].ok = false;
        for how in [Aggregation::Pooled, Aggregation::PerItem] {
            let e = end_to_end(std::slice::from_ref(&p), how, 1.0, 0);
            assert_eq!((e.attempted, e.failed), (3, 1));
            assert_eq!(e.solved_p90_ms, 200.0);
        }
        let e = end_to_end(std::slice::from_ref(&p), Aggregation::Pooled, 1.0, 0);
        assert!((e.jobs_per_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reads_own_rss() {
        assert!(proc_status_kb(std::process::id(), "VmHWM") > 0);
        assert_eq!(proc_status_kb(std::process::id(), "NoSuchField"), 0);
    }
}
