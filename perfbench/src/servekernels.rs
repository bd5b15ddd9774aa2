//! Micro-kernels of the service-tier layers (`wire`, `ledger`,
//! `process`) on a fixed corpus of real messages: a transferred
//! `NodeDesc` subproblem harvested from a running Steiner solve, its
//! solution, a status report, and a fat `JobSpec` from the job pool.

use crate::kernels::{time_us, Metrics};
use crate::setup::bin_dir;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use ugrs_cip::{ControlHooks, NodeDesc};
use ugrs_core::messages::{Message, SubproblemMsg};
use ugrs_core::wire::{self, Codec, FrameDecoder, FrameHeader};
use ugrs_core::{DistributedOptions, JobLedger, ParallelOptions};
use ugrs_glue::{ug_solve_stp, ug_solve_stp_distributed, SolveJobSpec};
use ugrs_steiner::gen::{hypercube_sparse_terminals, CostScheme};
use ugrs_steiner::reduce::ReduceParams;
use ugrs_steiner::{SteinerOptions, SteinerSolver};

type Msg = Message<NodeDesc, Vec<f64>>;

/// Captures the first node the solver exports and the incumbent it
/// held at that moment, then stops the solve.
#[derive(Default)]
struct Harvest {
    node: Option<NodeDesc>,
    incumbent: Option<(Vec<f64>, f64)>,
}

impl ControlHooks for Harvest {
    fn should_abort(&mut self) -> bool {
        self.node.is_some()
    }
    fn on_incumbent(&mut self, obj: f64, x: &[f64]) {
        self.incumbent = Some((x.to_vec(), obj));
    }
    fn want_node_export(&mut self) -> bool {
        self.node.is_none()
    }
    fn export_node(&mut self, desc: NodeDesc) {
        self.node = Some(desc);
    }
}

/// The message corpus: what a distributed run actually sends.
fn corpus() -> Vec<Msg> {
    // hc5 with every second even-parity terminal, unit costs: ~0.8 s of
    // branch-and-cut sequentially, so nodes are exported early.
    let g = hypercube_sparse_terminals(5, 2, CostScheme::Unit, 1);
    let mut hooks = Harvest::default();
    SteinerSolver::new(g, SteinerOptions::default()).solve_hooked(&mut hooks);
    let node = hooks.node.unwrap_or_else(NodeDesc::root);
    let dual_bound = node.dual_bound;
    let (sol, obj) = hooks.incumbent.unwrap_or((vec![0.0; 64], 0.0));
    vec![
        Message::Subproblem {
            sub: SubproblemMsg { sub: node, dual_bound },
            incumbent: Some((sol.clone(), obj)),
            settings: None,
        },
        Message::SolutionFound { rank: 1, sol, obj },
        Message::Status { rank: 1, dual_bound, open: 17, nodes: 4242 },
    ]
}

/// Nanoseconds per operation over the corpus, plus encoded bytes.
fn codec_pass(msgs: &[Msg], spec: &SolveJobSpec, codec: Codec) -> (f64, f64, f64) {
    let payloads: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| wire::to_payload_codec(m, codec))
        .chain([wire::to_payload_codec(spec, codec)])
        .collect();
    let bytes: usize = payloads.iter().map(Vec::len).sum();
    let enc_us = time_us(|| {
        for m in msgs {
            black_box(wire::to_payload_codec(black_box(m), codec));
        }
        black_box(wire::to_payload_codec(black_box(spec), codec));
    });
    let dec_us = time_us(|| {
        for p in &payloads[..msgs.len()] {
            black_box(wire::decode::<Msg>(black_box(p)).expect("corpus decodes"));
        }
        black_box(wire::decode::<SolveJobSpec>(&payloads[msgs.len()]).expect("spec decodes"));
    });
    (enc_us * 1e3, dec_us * 1e3, bytes as f64)
}

fn wire_kernels(fat_spec: &SolveJobSpec, out: &mut Metrics) {
    let msgs = corpus();
    let (enc, dec, bytes) = codec_pass(&msgs, fat_spec, Codec::Json);
    out.insert("wire.encode_json_ns", enc);
    out.insert("wire.decode_json_ns", dec);
    out.insert("wire.bytes_json", bytes);
    let (enc, dec, bytes) = codec_pass(&msgs, fat_spec, Codec::Binary);
    out.insert("wire.encode_bin_ns", enc);
    out.insert("wire.decode_bin_ns", dec);
    out.insert("wire.bytes_bin", bytes);

    let fat = wire::to_payload_codec(fat_spec, Codec::Binary);
    let crc_us = time_us(|| {
        black_box(wire::crc32(black_box(&fat)));
    });
    out.insert("wire.crc32_mb_s", fat.len() as f64 / crc_us.max(1e-9));

    // One v2 frame per corpus message, pushed in and pulled out.
    let frames: Vec<Vec<u8>> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let header = FrameHeader { seq: i as u64, ack: 0 };
            wire::frame_v2(&wire::to_payload_codec(m, Codec::Binary), header)
        })
        .chain([wire::frame_v2(&fat, FrameHeader { seq: 99, ack: 0 })])
        .collect();
    let frame_us = time_us(|| {
        let mut dec = FrameDecoder::new();
        dec.set_v2(true);
        for f in &frames {
            dec.push(f);
            black_box(dec.next_frame2().expect("valid frame"));
        }
    });
    out.insert("wire.frame_decode_ns", frame_us * 1e3 / frames.len() as f64);
}

/// `ledger.*`: the write-ahead record of a submission, fsync included.
fn ledger_kernels(specs: &[(&SolveJobSpec, bool)], dir: &Path, out: &mut Metrics) {
    let Ok(ledger) = JobLedger::open(&dir.join("ledger-kernel")) else { return };
    let (mut ms, mut bytes) = (Vec::new(), Vec::new());
    for (job, (spec, _)) in specs.iter().enumerate() {
        let t = Instant::now();
        if ledger.record_submitted(job as u64, *spec).is_err() {
            return;
        }
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        let path = dir.join("ledger-kernel/jobs").join(format!("job-{job}.json"));
        bytes.push(std::fs::metadata(path).map_or(0.0, |m| m.len() as f64));
        let _ = ledger.record_finished(job as u64);
    }
    out.insert("ledger.submit_fsync_ms", crate::stats::median(&ms));
    out.insert("ledger.record_bytes", crate::kernels::mean_or_zero(&bytes));
}

/// `process.spawn_handshake_ms`: one distributed solve (spawn two
/// `ugd-worker`s, handshake, solve, reap) minus the same solve in
/// process.
fn process_kernels(out: &mut Metrics) {
    let worker = bin_dir().join("ugd-worker");
    let g = hypercube_sparse_terminals(5, 3, CostScheme::Unit, 1);
    let options = || ParallelOptions { num_solvers: 2, time_limit: 20.0, ..Default::default() };
    let mut deltas = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let local = ug_solve_stp(&g, &ReduceParams::default(), options());
        let local_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let dist = DistributedOptions {
            worker_command: vec![worker.display().to_string()],
            ..Default::default()
        };
        let Ok(remote) = ug_solve_stp_distributed(&g, &ReduceParams::default(), options(), dist)
        else {
            return;
        };
        let remote_s = t.elapsed().as_secs_f64();
        if local.solved && remote.solved {
            deltas.push((remote_s - local_s) * 1e3);
        }
    }
    if !deltas.is_empty() {
        out.insert("process.spawn_handshake_ms", crate::stats::median(&deltas));
    }
}

pub fn run(specs: &[(&SolveJobSpec, bool)], dir: &Path, out: &mut Metrics) {
    let t0 = Instant::now();
    if let Some((fat, _)) = specs.iter().find(|(_, fat)| *fat) {
        wire_kernels(fat, out);
    }
    ledger_kernels(specs, dir, out);
    process_kernels(out);
    eprintln!("  serve kernels: {:.2} s", t0.elapsed().as_secs_f64());
}
