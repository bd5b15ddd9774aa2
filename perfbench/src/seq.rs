//! `stp_seq` and `misdp_seq`: the frozen instances solved one after the
//! other with `SteinerSolver::solve` / `MisdpSolver::solve`.

use crate::kernels::{self, mean_or_zero, Metrics};
use crate::manifest::{Entry, Manifest};
use crate::setup::{materialise, warmup_items, ScratchDir};
use crate::solve::{SeqSolver, Solved};
use crate::trace::{lock, SharedTracer};
use crate::traced;
use crate::workload::{Pass, Sample, Workload};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::time::Instant;
use ugrs_misdp::{Approach, MisdpProblem};
use ugrs_steiner::Graph;

pub struct SeqWorkload {
    entries: Vec<Entry>,
    /// One solver object per entry, holding the instance as read back
    /// from the materialised files.
    solvers: Vec<SeqSolver>,
    /// What the last untraced solve of each item reported; a traced
    /// solve is compared with it.
    last: Vec<Option<Solved>>,
    /// What the last traced solve of each item reported.
    last_traced: Vec<Option<(Solved, traced::StpExtras)>>,
    /// Wall time of `ug-instances validate`, and of everything in
    /// set-up before the warm-up solves.
    validate_s: f64,
    materialise_s: f64,
    /// Items whose traced solve did not repeat the untraced search.
    diverged: std::collections::BTreeSet<usize>,
}

impl SeqWorkload {
    /// Materialises the manifest's instance files, validates them with
    /// `ug-instances`, reads them back, builds the solver objects and
    /// solves the warm-up items.
    pub fn setup(manifest: &Manifest) -> Result<SeqWorkload, String> {
        let t0 = Instant::now();
        let entries = manifest.entries.clone();
        let scratch = ScratchDir::new(&manifest.workload).map_err(|e| e.to_string())?;
        let (instances, validate_s) = materialise(&scratch.0, &entries)?;
        let solvers: Vec<SeqSolver> =
            entries.iter().zip(instances).map(|(e, i)| SeqSolver::new(e, i)).collect();
        let n = entries.len();
        let mut w = SeqWorkload {
            entries,
            solvers,
            last: vec![None; n],
            last_traced: vec![None; n],
            validate_s,
            materialise_s: t0.elapsed().as_secs_f64(),
            diverged: Default::default(),
        };
        for i in warmup_items(&w.entries) {
            if !w.solve_item(i, None).ok {
                return Err(format!("warm-up solve of {} failed", w.entries[i].id));
            }
        }
        Ok(w)
    }

    fn solve_item(&mut self, i: usize, tracer: Option<&SharedTracer>) -> Sample {
        let reference = self.entries[i].reference;
        let Some(tracer) = tracer else {
            let solved = self.solvers[i].solve();
            let sample = Sample { item: i, secs: solved.secs, ok: solved.ok(reference) };
            if !sample.ok {
                eprintln!(
                    "  FAILED {}: proven={} obj={:?} reference={reference}",
                    self.entries[i].id, solved.proven, solved.obj
                );
            }
            self.last[i] = Some(solved);
            return sample;
        };
        let (solved, extras) = traced::item_span(tracer, i as u32, || match &self.solvers[i] {
            SeqSolver::Stp(s) => traced::solve_stp(s.original(), tracer),
            SeqSolver::Misdp(s) => {
                (traced::solve_misdp(&s.problem, s.approach, tracer), Default::default())
            }
        });
        // The re-enactment should be the same solve, node for node;
        // where the facade has moved on without it, its spans describe
        // a different search. That is a defect of the trace, reported as
        // `bench.trace_diverged`, not a wrong answer of the solver.
        if let Some(plain) = &self.last[i] {
            if plain.nodes() != solved.nodes() || plain.obj != solved.obj {
                eprintln!(
                    "  note {}: traced solve diverged from SolveResult (nodes {} vs {})",
                    self.entries[i].id,
                    solved.nodes(),
                    plain.nodes()
                );
                self.diverged.insert(i);
            }
        }
        let sample = Sample { item: i, secs: solved.secs, ok: solved.ok(reference) };
        self.last_traced[i] = Some((solved, extras));
        sample
    }

    fn is_misdp(&self) -> bool {
        self.entries.first().is_some_and(|e| !e.is_stp())
    }
}

impl Workload for SeqWorkload {
    fn pass(&mut self, rng: &mut SmallRng, tracer: Option<&SharedTracer>) -> Pass {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.shuffle(rng);
        let t0 = Instant::now();
        let samples = order.into_iter().map(|i| self.solve_item(i, tracer)).collect();
        Pass { wall_s: t0.elapsed().as_secs_f64(), samples }
    }

    fn layers(
        &mut self,
        _rng: &mut SmallRng,
        tracer: &SharedTracer,
        traced: &[Pass],
        _budget_s: f64,
        out: &mut Metrics,
    ) {
        let passes = traced.len().max(1) as f64;
        let (totals, selfs) = {
            let t = lock(tracer);
            (t.totals(), t.self_times())
        };
        let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.0 * 1e3 / passes);
        let self_ms = |name: &str| selfs.get(name).map_or(0.0, |t| t * 1e3 / passes);

        // Counters of one pass, from the last traced solve of each item;
        // they repeat exactly from run to run.
        let mut cip = ugrs_cip::Statistics::default();
        let (mut elims, mut nodes_sdp, mut nodes_lp, mut eigcuts) = (0u64, 0u64, 0u64, 0u64);
        let (mut lp_items_s, mut sdp_items_s) = (0.0, 0.0);
        let mut tm_gaps = Vec::new();
        for (e, slot) in self.entries.iter().zip(&self.last_traced) {
            let Some((solved, extras)) = slot else { continue };
            elims += solved.reduce_elims;
            if let Some(tm) = extras.tm_cost {
                tm_gaps.push((tm - e.reference).max(0.0) / e.reference.abs().max(1e-9) * 100.0);
            }
            let Some(st) = &solved.cip else { continue };
            cip.nodes += st.nodes;
            cip.lp_solves += st.lp_solves;
            cip.lp_iterations += st.lp_iterations;
            cip.relax_solves += st.relax_solves;
            cip.cuts_applied += st.cuts_applied;
            cip.root_time += st.root_time;
            if !e.is_stp() {
                match e.approach() {
                    Approach::Sdp => {
                        nodes_sdp += st.nodes;
                        sdp_items_s += solved.secs;
                    }
                    Approach::Lp => {
                        nodes_lp += st.nodes;
                        eigcuts += st.cuts_applied;
                        lp_items_s += solved.secs;
                    }
                }
            }
        }
        let cip_s = total_ms("cip.solve") / 1e3;
        out.insert("cip.nodes", cip.nodes as f64);
        out.insert("cip.nodes_per_s", if cip_s > 0.0 { cip.nodes as f64 / cip_s } else { 0.0 });
        out.insert("cip.lp_solves", cip.lp_solves as f64);
        out.insert("cip.lp_iters", cip.lp_iterations as f64);
        out.insert("cip.relax_solves", cip.relax_solves as f64);
        out.insert("cip.cuts_applied", cip.cuts_applied as f64);
        out.insert("cip.root_time_s", cip.root_time);
        out.insert("cip.self_ms", self_ms("cip.solve"));
        out.insert("instances.validate_ms", self.validate_s * 1e3);
        out.insert("instances.materialise_ms", self.materialise_s * 1e3);
        out.insert("bench.trace_diverged", self.diverged.len() as f64);
        kernels::plain_mip(out);

        if self.is_misdp() {
            let relax = totals.get("sdp.relax").copied().unwrap_or((0.0, 0));
            out.insert(
                "sdp.solve_ms",
                if relax.1 > 0 { relax.0 * 1e3 / relax.1 as f64 } else { 0.0 },
            );
            out.insert("sdp.relax_ms", total_ms("sdp.relax"));
            out.insert("misdp.eigcut_ms", total_ms("misdp.eigcut") + total_ms("misdp.psd_check"));
            out.insert("misdp.root_s", cip.root_time);
            out.insert("misdp.nodes_sdp", nodes_sdp as f64);
            out.insert("misdp.nodes_lp", nodes_lp as f64);
            out.insert("misdp.eigcuts", eigcuts as f64);
            out.insert("misdp.sdp_items_s", sdp_items_s);
            out.insert("misdp.lp_items_s", lp_items_s);
            let problems: Vec<&MisdpProblem> = self
                .solvers
                .iter()
                .filter_map(|s| match s {
                    SeqSolver::Misdp(m) => Some(m.problem.as_ref()),
                    SeqSolver::Stp(_) => None,
                })
                .collect();
            kernels::misdp_kernels(&problems, out);
        } else {
            out.insert("steiner.reduce_ms", total_ms("steiner.reduce"));
            out.insert(
                "steiner.prepare_ms",
                total_ms("steiner.reduce") + total_ms("steiner.build_model"),
            );
            out.insert("steiner.reduce_elims", elims as f64);
            out.insert("steiner.tm_heur_ms", total_ms("steiner.tm_heur"));
            out.insert("steiner.tm_gap_pct", mean_or_zero(&tm_gaps));
            out.insert(
                "steiner.separate_ms",
                total_ms("steiner.separate") + total_ms("steiner.dualascent_rows"),
            );
            out.insert("steiner.propagate_ms", total_ms("steiner.propagate"));
            out.insert(
                "steiner.heur_plugins_ms",
                total_ms("steiner.tm_plugin") + total_ms("steiner.keyvertex"),
            );
            let graphs: Vec<(&Graph, f64)> = self
                .solvers
                .iter()
                .zip(&self.entries)
                .filter_map(|(s, e)| match s {
                    SeqSolver::Stp(s) => Some((s.original(), e.reference)),
                    SeqSolver::Misdp(_) => None,
                })
                .collect();
            kernels::stp_kernels(&graphs, out);
        }
    }
}
