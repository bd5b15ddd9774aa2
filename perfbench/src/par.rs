//! `ug_par`: ug[SteinerJack, ThreadComm] and ug[ScipSdp, ThreadComm]
//! with two solvers — the only workload where the `core` layer
//! (supervisor, worker, comm, racing, transfer) does work.

use crate::kernels::{time_us, Metrics};
use crate::manifest::{Entry, Instance, Manifest};
use crate::setup::{materialise, warmup_items, ScratchDir};
use crate::solve::{par_options, solve_par, SeqSolver, Solved};
use crate::stats::median;
use crate::trace::{lock, SharedTracer};
use crate::traced::item_span;
use crate::workload::{Pass, Sample, Workload};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::time::Instant;
use ugrs_glue::ug_solve_stp;
use ugrs_steiner::reduce::ReduceParams;

/// ParaSolvers per item. The host has two cores; the LoadCoordinator
/// thread mostly sleeps.
pub const NUM_SOLVERS: usize = 2;

pub struct ParWorkload {
    entries: Vec<Entry>,
    instances: Vec<Instance>,
    scratch: ScratchDir,
    /// Every parallel solve's result, per item, for the layer metrics.
    results: Vec<Vec<Solved>>,
}

impl ParWorkload {
    pub fn setup(manifest: &Manifest) -> Result<ParWorkload, String> {
        let entries = manifest.entries.clone();
        let scratch = ScratchDir::new(&manifest.workload).map_err(|e| e.to_string())?;
        let (instances, _) = materialise(&scratch.0, &entries)?;
        let n = entries.len();
        let mut w = ParWorkload { entries, instances, scratch, results: vec![Vec::new(); n] };
        for i in warmup_items(&w.entries) {
            if !w.solve_item(i, NUM_SOLVERS).ok {
                return Err(format!("warm-up solve of {} failed", w.entries[i].id));
            }
        }
        w.results.iter_mut().for_each(Vec::clear);
        Ok(w)
    }

    fn solve_item(&mut self, i: usize, solvers: usize) -> Sample {
        let e = &self.entries[i];
        let solved = solve_par(&self.instances[i], par_options(solvers, e.racing));
        let ok = solved.ok(e.reference);
        if !ok {
            eprintln!(
                "  FAILED {}: solved={} obj={:?} reference={}",
                e.id, solved.proven, solved.obj, e.reference
            );
        }
        let sample = Sample { item: i, secs: solved.secs, ok };
        if solvers == NUM_SOLVERS {
            self.results[i].push(solved);
        }
        sample
    }
}

impl Workload for ParWorkload {
    fn pass(&mut self, rng: &mut SmallRng, tracer: Option<&SharedTracer>) -> Pass {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.shuffle(rng);
        let t0 = Instant::now();
        let samples = order
            .into_iter()
            .map(|i| match tracer {
                // One span per ug run: the coordinator's internals are
                // read from `UgStats`, not traced.
                Some(t) => item_span(t, i as u32, || self.solve_item(i, NUM_SOLVERS)),
                None => self.solve_item(i, NUM_SOLVERS),
            })
            .collect();
        Pass { wall_s: t0.elapsed().as_secs_f64(), samples }
    }

    /// A sequential and a one-solver pass over every item.
    fn layers_reserve_s(&self) -> f64 {
        let seq_s: f64 = self.entries.iter().map(|e| e.seq_ms).sum::<f64>() / 1e3;
        2.2 * seq_s + 1.0
    }

    fn layers(
        &mut self,
        _rng: &mut SmallRng,
        tracer: &SharedTracer,
        _traced: &[Pass],
        _budget_s: f64,
        out: &mut Metrics,
    ) {
        // Sequential and one-solver passes over the same instances in the
        // same process: the bases of the per-instance ratios.
        let mut seq: Vec<Solved> = Vec::new();
        let mut one: Vec<f64> = Vec::new();
        for i in 0..self.entries.len() {
            let mut e = self.entries[i].clone();
            // Normal ramp-up runs the default (SDP) settings; the
            // sequential base must be the same approach.
            e.approach = None;
            let span = lock(tracer).enter("seq.base");
            seq.push(SeqSolver::new(&e, self.instances[i].clone()).solve());
            lock(tracer).exit(span);
            one.push(self.solve_item(i, 1).secs);
        }

        let par_secs: Vec<f64> = self
            .results
            .iter()
            .map(|r| median(&r.iter().map(|s| s.secs).collect::<Vec<_>>()))
            .collect();
        let stats: Vec<&ugrs_core::UgStats> =
            self.results.iter().flatten().filter_map(|s| s.ug.as_ref()).collect();
        let runs = stats.len().max(1) as f64;
        let passes = self.results.iter().map(Vec::len).max().unwrap_or(1).max(1) as f64;
        let sum = |f: &dyn Fn(&ugrs_core::UgStats) -> f64| stats.iter().map(|s| f(s)).sum::<f64>();
        let seq_nodes: f64 = seq.iter().map(|s| s.nodes().max(1) as f64).sum();
        let par_nodes = sum(&|s| s.nodes_total.max(1) as f64) / passes;
        let seq_s: f64 = seq.iter().map(|s| s.secs).sum();
        let par_s: f64 = par_secs.iter().sum();
        let one_s: f64 = one.iter().sum();
        let racing_s: f64 =
            self.entries.iter().zip(&par_secs).filter(|(e, _)| e.racing).map(|(_, s)| *s).sum();

        out.insert("core.idle_pct", sum(&|s| s.idle_percent) / runs);
        out.insert("core.transferred", sum(&|s| s.transferred as f64) / passes);
        out.insert("core.collected", sum(&|s| s.collected as f64) / passes);
        out.insert("core.nodes_total", par_nodes);
        out.insert("core.node_inflation", par_nodes / seq_nodes.max(1.0));
        out.insert("core.max_active", sum(&|s| s.max_active as f64) / runs);
        out.insert("core.first_max_active_s", sum(&|s| s.first_max_active_time) / runs);
        out.insert("core.one_solver_overhead_pct", (one_s / seq_s - 1.0) * 100.0);
        out.insert("core.speedup_vs_seq", seq_s / par_s);
        out.insert("core.racing_share_s", racing_s);
        out.insert("cip.nodes", seq_nodes);
        self.checkpoint_kernels(out);
    }
}

impl ParWorkload {
    /// `core.checkpoint_*` and `core.lz_*`: stop the largest STP item at
    /// a node limit, then save and compress the checkpoint it leaves.
    fn checkpoint_kernels(&self, out: &mut Metrics) {
        let Some((entry, Instance::Stp(g))) = self
            .entries
            .iter()
            .zip(&self.instances)
            .filter(|(e, _)| e.is_stp() && e.seq_nodes >= 8)
            .max_by_key(|(e, _)| e.seq_nodes)
        else {
            return;
        };
        let mut options = par_options(NUM_SOLVERS, false);
        options.node_limit = Some(entry.seq_nodes / 2);
        let res = ug_solve_stp(g, &ReduceParams::default(), options);
        let Some(cp) = res.ug.final_checkpoint else { return };
        let path = self.scratch.0.join("checkpoint.json");
        let mut save_ms = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            if cp.save(&path).is_err() {
                return;
            }
            save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let Ok(json) = serde_json::to_vec(&cp) else { return };
        let compressed = ugrs_core::lz::compress(&json);
        let us = time_us(|| {
            std::hint::black_box(ugrs_core::lz::compress(std::hint::black_box(&json)));
        });
        out.insert("core.checkpoint_save_ms", median(&save_ms));
        out.insert("core.checkpoint_bytes", bytes as f64);
        out.insert("core.lz_ratio", json.len() as f64 / compressed.len().max(1) as f64);
        out.insert("core.lz_compress_mb_s", json.len() as f64 / us.max(1e-9));
    }
}
