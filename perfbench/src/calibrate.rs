//! `ugrs-bench calibrate`: scans generator parameters and seeds, keeps
//! instances inside each workload's time band (and, for `ug_par`, the
//! stability filter), cross-checks every reference (sequential optimum
//! == 2-solver optimum) and writes `manifests/<workload>.seed<N>.json`.

use crate::manifest::{Entry, Instance, Manifest};
use crate::setup::roundtrip;
use crate::solve::{matches_reference, par_options, solve_par, SeqSolver};
use crate::stats::{median, range_over_median};
use std::path::Path;

/// Sequential time bands, seconds. STP hardness is bimodal (reduced
/// away in milliseconds, or seconds of branch-and-cut), so its band is
/// wide; MISDP families fill theirs evenly.
const STP_BAND: (f64, f64) = (0.008, 0.8);
const MISDP_BAND: (f64, f64) = (0.03, 0.4);
/// Parallel time band of `ug_par`, seconds.
const PAR_BAND: (f64, f64) = (0.02, 0.6);
/// Sequential seconds one pass may sum to: a 20 s run then holds four
/// passes with slack for a slower host.
const PASS_BUDGET_S: f64 = 4.2;
/// `ug_par` keeps an instance only if its repeated parallel times
/// satisfy (max − min) / median ≤ this.
const PAR_STABILITY: f64 = 0.20;
const PAR_REPEATS: usize = 5;
/// Scan limit per candidate: anything slower is outside every band.
const SCAN_LIMIT_S: f64 = 1.0;

/// The `k` generator seeds instance set `set` scans per parameter set;
/// sets never share a seed.
fn seeds(set: u64, k: u64) -> impl Iterator<Item = u64> {
    (0..k).map(move |i| set * 1000 + i)
}

fn stp_entry(family: &str, params: &[u64], unit: bool, seed: u64) -> Entry {
    let tag = params.iter().map(|p| p.to_string()).collect::<Vec<_>>().join("-");
    Entry {
        id: format!("{family}{tag}{}-s{seed}", if unit { 'u' } else { 'p' }),
        family: family.into(),
        params: params.to_vec(),
        unit_cost: unit,
        gen_seed: seed,
        approach: None,
        racing: false,
        n: 0,
        m: 0,
        terminals: 0,
        reference: 0.0,
        seq_nodes: 0,
        seq_ms: 0.0,
    }
}

fn misdp_entry(family: &str, params: &[u64], approach: &str, seed: u64) -> Entry {
    let mut e = stp_entry(family, params, false, seed);
    e.id = format!("{family}{}-{}-s{seed}-{approach}", params[0], params[1]);
    e.approach = Some(approach.into());
    e
}

/// Candidate STP instances, family by family, for calibration seed `s`.
/// The parameter sets are the ones earlier scans found inside the band
/// for some generator seeds.
fn stp_candidates(s: u64) -> Vec<Entry> {
    let mut out = Vec::new();
    for unit in [false, true] {
        for (d, k, ts) in [(3u64, 4u64, 8..=10u64), (4, 3, 8..=12)] {
            for t in ts {
                for seed in seeds(s, 8) {
                    out.push(stp_entry("cc", &[d, k, t], unit, seed));
                }
            }
        }
        for (nt, ns) in [(10u64, 20u64), (10, 24), (12, 28), (14, 34)] {
            for seed in seeds(s, 8) {
                out.push(stp_entry("bip", &[nt, ns, 3], unit, seed));
            }
        }
        // A unit-cost hypercube does not depend on the generator seed.
        for (d, stride) in [(5u64, 2u64), (5, 3), (6, 4)] {
            for seed in seeds(s, if unit { 1 } else { 8 }) {
                out.push(stp_entry("hc", &[d, stride], unit, seed));
            }
        }
    }
    out
}

/// Candidate MISDP instances under both approaches.
fn misdp_candidates(s: u64) -> Vec<Entry> {
    let mut out = Vec::new();
    for approach in ["sdp", "lp"] {
        for (dim, bars) in [(4u64, 10u64), (5, 13), (6, 16), (6, 20), (7, 18), (7, 20)] {
            for seed in seeds(s, 3) {
                out.push(misdp_entry("ttd", &[dim, bars], approach, seed));
            }
        }
        for (pdim, k) in [(8u64, 3u64), (10, 4), (12, 4), (14, 5), (15, 5), (16, 5)] {
            for seed in seeds(s, 3) {
                out.push(misdp_entry("cls", &[pdim, k], approach, seed));
            }
        }
        for (n, k) in [(6u64, 2u64), (7, 3), (8, 3), (9, 3), (10, 3)] {
            for seed in seeds(s, 3) {
                out.push(misdp_entry("mkp", &[n, k], approach, seed));
            }
        }
    }
    out
}

/// Fills in the size fields of an entry from its generated instance.
fn describe(e: &mut Entry, inst: &Instance) {
    match inst {
        Instance::Stp(g) => {
            e.n = g.num_alive_nodes() as u64;
            e.m = g.num_alive_edges() as u64;
            e.terminals = g.num_terminals() as u64;
        }
        Instance::Misdp(p) => {
            e.n = p.m as u64;
            e.m = (p.blocks.len() + p.lin.len()) as u64;
            e.terminals = p.integer.iter().filter(|&&i| i).count() as u64;
        }
    }
}

/// Solves a candidate sequentially (twice: the first solve of a process
/// runs slow) and records reference, nodes and time. `None` when it is
/// not proven optimal within the scan limit or the nodes do not repeat.
fn measure_seq(mut e: Entry) -> Option<Entry> {
    let inst = roundtrip(&e).ok()?;
    describe(&mut e, &inst);
    let mut solver = SeqSolver::with_limit(&e, inst, SCAN_LIMIT_S);
    let first = solver.solve();
    if !first.proven || first.obj.is_none() {
        return None;
    }
    let second = solver.solve();
    if second.nodes() != first.nodes() || second.obj != first.obj {
        eprintln!("  {}: sequential solve does not repeat, skipped", e.id);
        return None;
    }
    e.reference = first.obj?;
    e.seq_nodes = first.nodes();
    e.seq_ms = first.secs.min(second.secs) * 1e3;
    Some(e)
}

/// Picks `want` entries spread evenly over the candidates sorted by
/// sequential time, so a workload covers its whole band.
fn spread(mut cands: Vec<Entry>, want: usize) -> Vec<Entry> {
    cands.sort_by(|a, b| a.seq_ms.total_cmp(&b.seq_ms));
    if cands.len() <= want {
        return cands;
    }
    (0..want).map(|i| cands[i * (cands.len() - 1) / (want - 1).max(1)].clone()).collect()
}

/// Trims a selection to the pass budget: while the picked instances sum
/// to more than `budget_s`, the slowest pick is swapped for the slowest
/// unpicked candidate faster than it (or dropped when there is none).
fn fit_budget(mut picked: Vec<Entry>, pool: &[Entry], budget_s: f64) -> Vec<Entry> {
    let total = |v: &[Entry]| v.iter().map(|e| e.seq_ms).sum::<f64>() / 1e3;
    while total(&picked) > budget_s {
        picked.sort_by(|a, b| a.seq_ms.total_cmp(&b.seq_ms));
        let Some(slowest) = picked.pop() else { break };
        let replacement = pool
            .iter()
            .filter(|c| c.family == slowest.family && c.approach == slowest.approach)
            .filter(|c| c.seq_ms < slowest.seq_ms && !picked.iter().any(|p| p.id == c.id))
            .max_by(|a, b| a.seq_ms.total_cmp(&b.seq_ms));
        if let Some(r) = replacement {
            picked.push(r.clone());
        }
    }
    picked.sort_by(|a, b| a.id.cmp(&b.id));
    picked
}

fn in_band(ms: f64, band: (f64, f64)) -> bool {
    ms >= band.0 * 1e3 && ms <= band.1 * 1e3
}

fn scan_seq(cands: Vec<Entry>, band: (f64, f64)) -> Vec<Entry> {
    let mut kept = Vec::new();
    for c in cands {
        let id = c.id.clone();
        match measure_seq(c) {
            Some(e) if in_band(e.seq_ms, band) => {
                eprintln!("  keep {id:<24} {:>7.1} ms  nodes {}", e.seq_ms, e.seq_nodes);
                kept.push(e);
            }
            Some(e) => eprintln!("  skip {id:<24} {:>7.1} ms (outside band)", e.seq_ms),
            None => eprintln!("  skip {id:<24} not solved within {SCAN_LIMIT_S} s"),
        }
    }
    kept
}

fn group<'a>(all: &'a [Entry], f: impl Fn(&Entry) -> bool + 'a) -> Vec<Entry> {
    all.iter().filter(|e| f(e)).cloned().collect()
}

/// `stp_seq`: ten code-covering, eight hypercube, ten bipartite.
/// Returns the selection and every in-band candidate (for `ug_par`).
fn calibrate_stp(seed: u64) -> (Vec<Entry>, Vec<Entry>) {
    let all = scan_seq(stp_candidates(seed), STP_BAND);
    let mut out = spread(group(&all, |e| e.family == "cc"), 10);
    out.extend(spread(group(&all, |e| e.family == "hc"), 8));
    out.extend(spread(group(&all, |e| e.family == "bip"), 10));
    (fit_budget(out, &all, PASS_BUDGET_S), all)
}

/// `misdp_seq`: per family six SDP-approach and three LP-approach
/// instances — two thirds / one third, fixed per instance.
fn calibrate_misdp(seed: u64) -> (Vec<Entry>, Vec<Entry>) {
    let all = scan_seq(misdp_candidates(seed), MISDP_BAND);
    let mut out = Vec::new();
    for family in ["ttd", "cls", "mkp"] {
        for (approach, want) in [("sdp", 6), ("lp", 3)] {
            out.extend(spread(
                group(&all, |e| e.family == family && e.approach.as_deref() == Some(approach)),
                want,
            ));
        }
    }
    (fit_budget(out, &all, PASS_BUDGET_S), all)
}

/// Repeats the 2-solver solve of `e` and returns (median seconds,
/// (max − min) / median); panics if any repeat disagrees with the
/// sequential reference — a wrong reference must not be committed.
fn measure_par(e: &Entry, inst: &Instance) -> (f64, f64) {
    let mut times = Vec::new();
    for _ in 0..PAR_REPEATS {
        let r = solve_par(inst, par_options(2, e.racing));
        assert!(
            r.proven && r.obj.is_some_and(|o| matches_reference(o, e.reference)),
            "{}: 2-solver optimum {:?} != sequential optimum {}",
            e.id,
            r.obj,
            e.reference
        );
        times.push(r.secs);
    }
    (median(&times), range_over_median(&times))
}

/// `ug_par`: in-band candidates of the two seq scans that pass the
/// parallel band and the stability filter with two solvers. STP uses
/// normal ramp-up. Each MISDP problem is tried with racing and with
/// normal ramp-up; both may be kept, as two items. The approach recorded
/// by `misdp_seq` does not apply here (racing assigns one solver each,
/// normal ramp-up runs the default SDP settings), so problems listed
/// under both approaches are tried once.
fn calibrate_par(stp: &[Entry], misdp: &[Entry]) -> Vec<Entry> {
    let mut problems: Vec<Entry> = Vec::new();
    for e in misdp {
        let same = |p: &&mut Entry| {
            p.params == e.params && p.gen_seed == e.gen_seed && p.family == e.family
        };
        match problems.iter_mut().find(same) {
            // The sequential base of the ratios is the SDP approach.
            Some(p) if e.approach.as_deref() == Some("sdp") => *p = e.clone(),
            Some(_) => {}
            None => problems.push(e.clone()),
        }
    }
    let mut kept: Vec<Entry> = Vec::new();
    for base in stp.iter().chain(&problems) {
        let Ok(inst) = roundtrip(base) else { continue };
        let modes: &[bool] = if base.is_stp() { &[false] } else { &[true, false] };
        for &racing in modes {
            let mut e = base.clone();
            e.racing = racing;
            if !e.is_stp() {
                e.approach = None;
                e.id = format!(
                    "{}{}-{}-s{}-{}",
                    e.family,
                    e.params[0],
                    e.params[1],
                    e.gen_seed,
                    if racing { "race" } else { "normal" }
                );
            }
            let (med, spread) = measure_par(&e, &inst);
            let stable = in_band(med * 1e3, PAR_BAND) && spread <= PAR_STABILITY;
            eprintln!(
                "  {} {:<28} par {:>6.1} ms  spread {:.2}",
                if stable { "keep" } else { "skip" },
                e.id,
                med * 1e3,
                spread
            );
            if stable {
                // seq_ms keeps the sequential time: speedup_vs_seq's base.
                kept.push(e);
            }
        }
    }
    // Twelve STP, eight racing and eight normal MISDP items, each class
    // spread over the band: more than a quarter of the items race.
    let mut out = spread(group(&kept, |e| e.is_stp()), 12);
    out.extend(spread(group(&kept, |e| !e.is_stp() && e.racing), 8));
    out.extend(spread(group(&kept, |e| !e.is_stp() && !e.racing), 8));
    fit_budget(out, &kept, PASS_BUDGET_S)
}

/// `serve`: the job pool. Small jobs stay non-trivial after the
/// client-side presolve and solve in 2–30 ms; fat-trivial jobs are
/// code-covering graphs of 1600–3100 edges that reductions solve
/// outright, so their cost is their payload (47–90 kB in the binary
/// codec), not their solve.
fn calibrate_serve(seed: u64) -> Vec<Entry> {
    use ugrs_steiner::reduce::{reduce, ReduceParams};
    let reduced_terminals = |e: &Entry| match e.generate() {
        Ok(Instance::Stp(mut g)) => {
            reduce(&mut g, &ReduceParams::default());
            g.num_terminals()
        }
        _ => 0,
    };
    let mut small_stp = Vec::new();
    for (nt, ns) in [(8u64, 16u64), (10, 20)] {
        for s in seeds(seed, 40) {
            let e = stp_entry("bip", &[nt, ns, 3], false, s);
            if reduced_terminals(&e) >= 2 {
                small_stp.extend(measure_seq(e).filter(|e| in_band(e.seq_ms, (0.002, 0.03))));
            }
        }
    }
    let mut small_misdp = Vec::new();
    for (pdim, k) in [(6u64, 2u64), (6, 3), (7, 3)] {
        for s in seeds(seed, 6) {
            // A served MISDP job runs the default (SDP) settings.
            let e = misdp_entry("cls", &[pdim, k], "sdp", s);
            small_misdp.extend(measure_seq(e).filter(|e| in_band(e.seq_ms, (0.005, 0.03))));
        }
    }
    let mut fat = Vec::new();
    for k in [6u64, 7] {
        for s in seeds(seed, 8) {
            let e = stp_entry("cc", &[3, k, 2], false, s);
            if reduced_terminals(&e) < 2 {
                fat.extend(measure_seq(e));
            }
        }
    }
    for (class, v) in [("small stp", &small_stp), ("small misdp", &small_misdp), ("fat", &fat)] {
        eprintln!("  serve pool candidates, {class}: {}", v.len());
    }
    // 24 + 8 small, 8 fat: 80 % / 20 % of every block.
    let mut out = spread(small_stp, 24);
    out.extend(spread(small_misdp, 8));
    let (fat6, fat7): (Vec<_>, Vec<_>) = fat.into_iter().partition(|e| e.params[1] == 6);
    out.extend(fat6.into_iter().take(4));
    out.extend(fat7.into_iter().take(4));
    out
}

fn write_manifest(dir: &Path, workload: &str, set: u64, entries: Vec<Entry>) -> Result<(), String> {
    let total: f64 = entries.iter().map(|e| e.seq_ms).sum();
    eprintln!("{workload}: {} instances, {:.2} s sequential per pass", entries.len(), total / 1e3);
    let m = Manifest { workload: workload.into(), set, entries };
    let text = serde_json::to_string_pretty(&m).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{workload}.seed{set}.json"));
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the calibration for instance set `seed` and writes the four
/// manifests into `dir`.
pub fn run(dir: &Path, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    eprintln!("calibrating stp_seq (set {seed})");
    let (stp, stp_all) = calibrate_stp(seed);
    eprintln!("calibrating misdp_seq (set {seed})");
    let (misdp, misdp_all) = calibrate_misdp(seed);
    eprintln!("calibrating ug_par (set {seed})");
    let par = calibrate_par(&stp_all, &misdp_all);
    write_manifest(dir, "stp_seq", seed, stp)?;
    write_manifest(dir, "misdp_seq", seed, misdp)?;
    write_manifest(dir, "ug_par", seed, par)?;
    eprintln!("calibrating serve (set {seed})");
    write_manifest(dir, "serve", seed, calibrate_serve(seed))
}
