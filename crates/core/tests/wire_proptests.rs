//! Property tests for the ProcessComm wire codec: every `Message`
//! variant must survive encode → arbitrary re-chunking →
//! `FrameDecoder` → decode, because a TCP stream may hand the reader
//! any fragmentation whatsoever. The v3 section holds the binary
//! payload codec to the same bar plus its own: bit flips under v2
//! framing are always `Corrupt` (session and pool frames alike),
//! arbitrary bytes never panic the decoder, truncation never
//! half-decodes. The last section is a model-based test of the session
//! [`Endpoint`] both ends of a worker connection hold (see
//! `PROTOCOL.md` §4).
//!
//! `Message` has no `PartialEq` (it carries `f64` payloads including
//! NaN), so equality is checked on the canonical re-encoded byte
//! string: the codec serializes deterministically, so a faithful
//! round-trip re-encodes to the identical frame.

use proptest::prelude::*;
use ugrs_core::messages::{Message, SubproblemMsg};
use ugrs_core::process::{Arrival, Conn, Endpoint, RingFull, RETRANSMIT_RING_CAP};
use ugrs_core::server::{JobEvent, JobEventKind, JobSummary, PoolDown, PoolUp, WorkerInfo};
use ugrs_core::wire::{
    decode, encode, frame_unseq, frame_v1, frame_v2, to_payload, to_payload_binary, FrameDecoder,
    FrameHeader, WireError, BINARY_MAGIC, MAX_FRAME_LEN, UNSEQ,
};
use ugrs_core::{
    ClientRequest, FleetStatus, JobProgress, JobSpec, JobState, MetricsReport, ProgressMsg,
    ServerReply, ServerStatus, ShardSummary, SolverSettings,
};

type Msg = Message<Vec<u32>, Vec<f64>>;
type Req = ClientRequest<String, Vec<u32>>;
type Reply = ServerReply<Vec<f64>>;
type Down = PoolDown<String, Vec<u32>, Vec<f64>>;
type Up = PoolUp<Vec<u32>, Vec<f64>>;

/// Finite and non-finite doubles — the bound fields routinely carry
/// `-inf` (unbounded dual) and must round-trip through the JSON frames.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0usize..8, -1.0e12f64..1.0e12).prop_map(|(k, x)| match k {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => f64::NAN,
        3 => 0.0,
        _ => x,
    })
}

fn arb_sub() -> impl Strategy<Value = SubproblemMsg<Vec<u32>>> {
    (proptest::collection::vec(0u32..10_000, 0..8), arb_f64())
        .prop_map(|(sub, dual_bound)| SubproblemMsg { sub, dual_bound })
}

fn arb_sol() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(arb_f64(), 0..8)
}

fn arb_settings() -> impl Strategy<Value = SolverSettings> {
    (0usize..16).prop_map(|i| SolverSettings {
        index: i,
        name: format!("racing-{i}"),
        params: serde_json::json!({ "seed": i as u64, "emphasis": "default" }),
    })
}

/// One strategy per protocol variant, so the proptest provably covers
/// the whole `Message` enum (a new variant without a generator here is
/// caught by the exhaustiveness check in `variant_count`).
fn arb_msg() -> impl Strategy<Value = Msg> {
    (
        0usize..11,
        (arb_sub(), arb_sol(), arb_settings()),
        (0usize..64, arb_f64(), 0u64..1_000_000),
        (0usize..4, 0usize..2000),
    )
        .prop_map(|(variant, (sub, sol, settings), (rank, bound, nodes), (flags, open))| {
            match variant {
                0 => Message::Subproblem {
                    sub,
                    incumbent: if flags & 1 == 0 { None } else { Some((sol, bound)) },
                    settings: if flags & 2 == 0 { None } else { Some(settings) },
                },
                1 => Message::Incumbent { sol, obj: bound },
                2 => Message::StartCollecting,
                3 => Message::StopCollecting,
                4 => Message::AbortSubproblem,
                5 => Message::Terminate,
                6 => Message::SolutionFound { rank, sol, obj: bound },
                7 => Message::Status { rank, dual_bound: bound, open, nodes },
                8 => Message::ExportedNode { rank, sub },
                9 => Message::Completed { rank, dual_bound: bound, nodes, aborted: flags & 1 == 1 },
                _ => Message::WorkerDied { rank },
            }
        })
}

// -------------------------------------------------------------------
// Job-control protocol strategies (the `ugd-server` PR's messages)
// -------------------------------------------------------------------

fn arb_job_state() -> impl Strategy<Value = JobState> {
    (0usize..7).prop_map(|k| match k {
        0 => JobState::Queued,
        1 => JobState::Running,
        2 => JobState::Solved,
        3 => JobState::Infeasible,
        4 => JobState::TimedOut,
        5 => JobState::Cancelled,
        _ => JobState::Failed,
    })
}

fn arb_job_spec() -> impl Strategy<Value = JobSpec<String, Vec<u32>>> {
    (
        0usize..1_000,
        proptest::collection::vec(0u32..10_000, 0..8),
        -4i32..4,
        0usize..16,
        arb_f64(),
        (any::<bool>(), 0u64..1_000_000_000, any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(
                n,
                root,
                priority,
                num_solvers,
                time_limit,
                (has_limit, limit, has_tenant, has_restart),
            )| JobSpec {
                name: format!("job-{n}"),
                instance: format!("inst-{n}"),
                root,
                priority,
                num_solvers,
                time_limit,
                node_limit: has_limit.then_some(limit),
                tenant: has_tenant.then(|| format!("tenant-{}", n % 7)),
                restart_from: has_restart
                    .then(|| format!("{{\"queue\":[],\"run_index\":{}}}", n % 5)),
                family: (n % 3 == 0).then(|| ["stp", "misdp", "maxcut"][n % 3].to_string()),
                checksum: (n % 2 == 0).then(|| format!("{:016x}", n as u64)),
                size_hint: (n % 5 == 0).then_some(n as u64 * 3),
            },
        )
}

fn arb_client_request() -> impl Strategy<Value = Req> {
    (0usize..9, arb_job_spec(), 0u64..1_000, 0usize..1_000).prop_map(
        |(variant, spec, job, from_seq)| match variant {
            0 => ClientRequest::Submit { spec },
            1 => ClientRequest::Cancel { job },
            2 => ClientRequest::Watch { job, from_seq },
            3 => ClientRequest::Status,
            4 => ClientRequest::Metrics,
            5 => ClientRequest::Reclaim { job },
            6 => ClientRequest::Fleet,
            7 => ClientRequest::GatewayEpoch { epoch: job },
            _ => ClientRequest::Shutdown,
        },
    )
}

fn arb_event_kind() -> impl Strategy<Value = JobEventKind<Vec<f64>>> {
    (
        0usize..8,
        (arb_f64(), arb_f64(), (any::<bool>(), arb_sol())),
        (arb_job_state(), 0u64..1_000_000, 0u64..16, 0usize..64),
    )
        .prop_map(
            |(variant, (obj, dual_bound, (has_sol, sol)), (state, nodes, workers_lost, rank))| {
                let solution = has_sol.then_some(sol);
                match variant {
                    0 => JobEventKind::Queued,
                    7 => JobEventKind::Routed { shard: format!("shard-{rank}") },
                    1 => JobEventKind::Started { workers: rank },
                    2 => JobEventKind::Incumbent { obj },
                    3 => JobEventKind::Bound { dual_bound },
                    4 => JobEventKind::WorkerLost { rank },
                    5 => JobEventKind::Recovered {
                        run_index: (workers_lost as u32 % 5) + 2,
                        nodes_so_far: nodes,
                    },
                    _ => JobEventKind::Finished {
                        state,
                        obj: if nodes % 2 == 0 { Some(obj) } else { None },
                        dual_bound,
                        solution,
                        nodes,
                        open_nodes: nodes / 3,
                        workers_lost,
                        wall_time: obj.abs().min(1e6),
                        run_index: (workers_lost as u32 % 5) + 1,
                        nodes_so_far: nodes + rank as u64,
                        final_checkpoint: (workers_lost % 2 == 1)
                            .then(|| format!("{{\"queue\":[],\"run_index\":{workers_lost}}}")),
                    },
                }
            },
        )
}

fn arb_status() -> impl Strategy<Value = ServerStatus> {
    let worker = (0u64..64, (any::<bool>(), 1u32..99_999), 0usize..2, any::<bool>()).prop_map(
        |(id, (has_pid, pid), kind, draining)| WorkerInfo {
            id,
            pid: has_pid.then_some(pid),
            job: if kind == 0 { None } else { Some(id + 1) },
            rank: if kind == 0 { None } else { Some(kind) },
            draining,
        },
    );
    let job = (0usize..1_000, 0u64..64, arb_job_state(), -4i32..4, 0usize..16).prop_map(
        |(n, job, state, priority, num_solvers)| JobSummary {
            job,
            name: format!("job-{n}"),
            state,
            priority,
            num_solvers,
            open_nodes: (n % 2 == 0).then_some(job * 3),
            run_index: (n as u32 % 4) + 1,
        },
    );
    (
        0usize..32,
        proptest::collection::vec(worker, 0..4),
        proptest::collection::vec(0u64..64, 0..4),
        proptest::collection::vec(job, 0..4),
    )
        .prop_map(|(pool_target, workers, queued, jobs)| ServerStatus {
            pool_target,
            workers,
            queued,
            jobs,
        })
}

fn arb_progress() -> impl Strategy<Value = ProgressMsg> {
    (arb_f64(), arb_f64(), 0u64..100_000, 0usize..16, any::<bool>()).prop_map(
        |(primal, dual, nodes, active, racing)| ProgressMsg {
            wall: (nodes as f64) / 100.0,
            phase: if racing { "racing".into() } else { "normal".into() },
            primal_bound: primal,
            dual_bound: dual,
            gap_percent: ugrs_core::stats::gap_percent(primal, dual),
            open_nodes: nodes / 7,
            nodes,
            transferred: nodes / 11,
            collected: nodes / 13,
            incumbents: nodes % 5,
            active,
            idle_percent: (nodes % 101) as f64,
            workers_died: nodes % 3,
        },
    )
}

fn arb_metrics_report() -> impl Strategy<Value = MetricsReport> {
    let jobs = (0u64..64, arb_job_state(), any::<bool>(), arb_progress()).prop_map(
        |(job, state, has_progress, progress)| JobProgress {
            job,
            name: format!("job-{job} \"quoted\"\n"),
            state,
            progress: has_progress.then_some(progress),
        },
    );
    (0usize..1_000, proptest::collection::vec(jobs, 0..4)).prop_map(|(n, jobs)| MetricsReport {
        text: format!("# HELP ugrs_x_total x\n# TYPE ugrs_x_total counter\nugrs_x_total {n}\n"),
        jobs,
    })
}

fn arb_fleet_status() -> impl Strategy<Value = FleetStatus> {
    let shard = (0usize..8, any::<bool>(), 0u64..64, 0u64..16, 0u64..10_000).prop_map(
        |(n, healthy, queue_depth, workers, last_heard_ms)| ShardSummary {
            name: format!("shard-{n}"),
            addr: format!("127.0.0.1:{}", 7000 + n),
            healthy,
            queue_depth,
            workers_busy: workers / 2,
            pool_workers: workers,
            jobs_running: workers / 3,
            last_heard_ms,
        },
    );
    (
        proptest::collection::vec(shard, 0..4),
        0usize..1_000,
        0usize..64,
        (0u64..100, 0u64..100, 0u64..100),
        proptest::collection::vec((0usize..4, 0u64..50), 0..4),
    )
        .prop_map(
            |(shards, inflight, dispatch_depth, (stolen, failed_over, rejected), fams)| {
                let families = fams
                    .into_iter()
                    .map(|(f, n)| (["stp", "misdp", "maxcut", "unknown"][f].to_string(), n))
                    .collect();
                FleetStatus {
                    shards,
                    inflight,
                    dispatch_depth,
                    stolen_total: stolen,
                    failed_over_total: failed_over,
                    rejected_total: rejected,
                    families,
                    ha_role: ["single", "primary", "standby"][(stolen % 3) as usize].to_string(),
                    ha_epoch: stolen,
                    lease_renewals_total: failed_over,
                    failovers_total: rejected,
                    fenced_rpcs_total: stolen,
                    rejoined_total: failed_over,
                }
            },
        )
}

fn arb_server_reply() -> impl Strategy<Value = Reply> {
    (
        0usize..11,
        (0u64..1_000, any::<bool>(), 0usize..1_000),
        (0usize..1_000, arb_event_kind()),
        arb_status(),
        arb_metrics_report(),
        arb_fleet_status(),
    )
        .prop_map(
            |(variant, (job, ok, err), (seq, kind), status, report, fleet)| match variant {
                0 => ServerReply::Submitted { job },
                1 => ServerReply::CancelResult { job, ok },
                2 => ServerReply::Event { event: JobEvent { job, seq, kind } },
                3 => ServerReply::Status { status },
                4 => ServerReply::Metrics { report },
                5 => ServerReply::ShuttingDown,
                6 => ServerReply::Rejected {
                    reason: ["quota", "capacity", "draining"][err % 3].to_string(),
                },
                7 => ServerReply::Fleet { fleet },
                8 => ServerReply::GatewayEpochAck { epoch: job },
                9 => ServerReply::Fenced { epoch: job },
                _ => ServerReply::Error { message: format!("error #{err}: \"quoted\"\n") },
            },
        )
}

fn arb_pool_down() -> impl Strategy<Value = Down> {
    (any::<bool>(), 0u64..1_000, 0usize..1_000, arb_msg()).prop_map(|(begin, job, n, msg)| {
        if begin {
            PoolDown::Begin { job, instance: format!("inst-{n}") }
        } else {
            PoolDown::Ug { job, msg }
        }
    })
}

fn arb_pool_up() -> impl Strategy<Value = Up> {
    (0usize..3, 0u64..1_000, 0u64..64, arb_msg()).prop_map(|(variant, job, worker, msg)| {
        match variant {
            0 => PoolUp::Ping { worker },
            1 => PoolUp::Ug { job, worker, msg },
            _ => PoolUp::JobDone { job, worker },
        }
    })
}

/// Canonical-bytes round trip through worst-case-ish chunking, shared
/// by all four job-control protocol directions.
fn roundtrip_canonical<T: serde::Serialize + serde::de::DeserializeOwned>(
    msgs: &[T],
    chunk: usize,
) -> Result<(), TestCaseError> {
    let frames: Vec<Vec<u8>> = msgs.iter().map(encode).collect();
    let stream: Vec<u8> = frames.concat();
    let mut dec = FrameDecoder::new();
    let mut out: Vec<T> = Vec::new();
    for piece in stream.chunks(chunk) {
        dec.push(piece);
        while let Some(payload) = dec.next_frame().unwrap() {
            out.push(decode(&payload).unwrap());
        }
    }
    prop_assert!(dec.next_frame().unwrap().is_none());
    prop_assert_eq!(out.len(), msgs.len());
    for (orig, decoded) in frames.iter().zip(&out) {
        prop_assert_eq!(orig, &encode(decoded));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode a batch of messages, glue the frames into one byte
    /// stream, feed it to the decoder in arbitrary-size chunks, and
    /// require the exact message sequence back out.
    #[test]
    fn wire_roundtrip_survives_any_chunking(
        msgs in proptest::collection::vec(arb_msg(), 1..6),
        chunk in 1usize..23,
    ) {
        let frames: Vec<Vec<u8>> = msgs.iter().map(encode).collect();
        let stream: Vec<u8> = frames.concat();

        let mut dec = FrameDecoder::new();
        let mut out: Vec<Msg> = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(payload) = dec.next_frame().unwrap() {
                out.push(decode(&payload).unwrap());
            }
        }

        prop_assert!(dec.next_frame().unwrap().is_none());
        prop_assert_eq!(out.len(), msgs.len());
        for (orig_frame, decoded) in frames.iter().zip(&out) {
            // Canonical-bytes equality: re-encoding the decoded message
            // must reproduce the original frame exactly.
            prop_assert_eq!(orig_frame, &encode(decoded));
        }
    }

    /// A frame split at *every* byte boundary (worst-case TCP
    /// trickle) still decodes, and tags survive.
    #[test]
    fn wire_roundtrip_byte_at_a_time(msg in arb_msg()) {
        let frame = encode(&msg);
        let mut dec = FrameDecoder::new();
        let mut got = None;
        for b in &frame {
            dec.push(std::slice::from_ref(b));
            if let Some(payload) = dec.next_frame().unwrap() {
                prop_assert!(got.is_none(), "frame produced twice");
                got = Some(decode::<Msg>(&payload).unwrap());
            }
        }
        let got = got.expect("frame never completed");
        prop_assert_eq!(got.tag(), msg.tag());
    }

    /// Every client-request variant survives the codec under arbitrary
    /// chunking.
    #[test]
    fn client_requests_roundtrip(
        msgs in proptest::collection::vec(arb_client_request(), 1..5),
        chunk in 1usize..23,
    ) {
        roundtrip_canonical(&msgs, chunk)?;
    }

    /// Every server-reply variant — including full status snapshots and
    /// event streams — survives the codec.
    #[test]
    fn server_replies_roundtrip(
        msgs in proptest::collection::vec(arb_server_reply(), 1..5),
        chunk in 1usize..23,
    ) {
        roundtrip_canonical(&msgs, chunk)?;
    }

    /// Pool downlink frames (`Begin` + wrapped coordination messages).
    #[test]
    fn pool_down_roundtrip(
        msgs in proptest::collection::vec(arb_pool_down(), 1..5),
        chunk in 1usize..23,
    ) {
        roundtrip_canonical(&msgs, chunk)?;
    }

    /// Pool uplink frames (heartbeats, wrapped messages, `JobDone`).
    #[test]
    fn pool_up_roundtrip(
        msgs in proptest::collection::vec(arb_pool_up(), 1..5),
        chunk in 1usize..23,
    ) {
        roundtrip_canonical(&msgs, chunk)?;
    }

    /// A single flipped bit *anywhere* in a v2 frame — length prefix,
    /// header, or payload — must surface as `WireError::Corrupt`, the
    /// structured kind the reconnect policy treats as retryable.
    #[test]
    fn v2_single_bit_flip_surfaces_as_corrupt(
        msg in arb_msg(),
        seq in 0u64..1_000_000,
        ack in 0u64..1_000_000,
        bit_pick in any::<u64>(),
    ) {
        let framed = frame_v2(&to_payload(&msg), FrameHeader { seq, ack });
        let bit = (bit_pick % (framed.len() * 8) as u64) as usize;
        let mut bad = framed;
        bad[bit / 8] ^= 1 << (bit % 8);
        let mut dec = FrameDecoder::new();
        dec.set_v2(true);
        dec.push(&bad);
        match dec.next_frame2() {
            Err(e @ WireError::Corrupt(_)) => prop_assert!(e.is_retryable()),
            other => prop_assert!(false, "bit {bit}: expected Corrupt, got {other:?}"),
        }
    }

    /// Error kinds are structured and classified: an over-limit length
    /// prefix is `TooLarge` (retryable), a CRC-clean frame carrying
    /// garbage is `Codec` (fatal) — the distinction the reconnect
    /// policy is built on.
    #[test]
    fn error_kinds_are_structured(extra in 1usize..1_000_000, garbage in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut dec = FrameDecoder::new();
        let len = MAX_FRAME_LEN + extra;
        dec.push(&(len as u32).to_be_bytes());
        match dec.next_frame() {
            Err(e @ WireError::TooLarge { len: l }) => {
                prop_assert_eq!(l, len as u32 as usize);
                prop_assert!(e.is_retryable());
            }
            other => prop_assert!(false, "expected TooLarge, got {other:?}"),
        }

        prop_assume!(serde_json::from_slice::<Msg>(&garbage).is_err());
        match decode::<Msg>(&garbage) {
            Err(e @ WireError::Codec(_)) => prop_assert!(!e.is_retryable()),
            other => prop_assert!(false, "expected Codec, got {other:?}"),
        }
    }

    // ---------------------------------------------------------------
    // Protocol v3: the binary payload codec
    // ---------------------------------------------------------------

    /// v3 frames (binary payloads inside v1 length framing) survive
    /// arbitrary re-chunking, and the decoded messages are the same
    /// ones — checked on canonical JSON bytes, which are deterministic
    /// regardless of which codec carried the message.
    #[test]
    fn v3_roundtrip_survives_any_chunking(
        msgs in proptest::collection::vec(arb_msg(), 1..6),
        chunk in 1usize..23,
    ) {
        let frames: Vec<Vec<u8>> = msgs.iter().map(|m| frame_v1(&to_payload_binary(m))).collect();
        let stream: Vec<u8> = frames.concat();
        let mut dec = FrameDecoder::new();
        let mut out: Vec<Msg> = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(payload) = dec.next_frame().unwrap() {
                prop_assert_eq!(payload[0], BINARY_MAGIC);
                out.push(decode(&payload).unwrap());
            }
        }
        prop_assert!(dec.next_frame().unwrap().is_none());
        prop_assert_eq!(out.len(), msgs.len());
        for (orig, decoded) in msgs.iter().zip(&out) {
            prop_assert_eq!(encode(orig), encode(decoded));
        }
    }

    /// The full job-control protocol rides the binary codec too: every
    /// variant of every direction round-trips (receivers auto-detect by
    /// the payload magic, so this is exactly the mixed-pool case where
    /// one worker speaks v3 and another JSON on the same server).
    #[test]
    fn v3_job_protocol_roundtrip(
        req in arb_client_request(),
        reply in arb_server_reply(),
        down in arb_pool_down(),
        up in arb_pool_up(),
    ) {
        fn back_and_forth<T: serde::Serialize + serde::de::DeserializeOwned>(
            msg: &T,
        ) -> Result<(), TestCaseError> {
            let bin = to_payload_binary(msg);
            let decoded: T = decode(&bin).unwrap();
            prop_assert_eq!(encode(msg), encode(&decoded));
            Ok(())
        }
        back_and_forth(&req)?;
        back_and_forth(&reply)?;
        back_and_forth(&down)?;
        back_and_forth(&up)?;
    }

    /// A single flipped bit anywhere in a v2-framed *binary* payload —
    /// length, header, or payload — surfaces as `WireError::Corrupt`:
    /// the CRC catches it before the binary decoder ever runs, so a
    /// compact encoding cannot silently misdecode — on a session link
    /// or on a pool connection, whose frames are the same format.
    #[test]
    fn v3_single_bit_flip_surfaces_as_corrupt(
        msg in arb_msg(),
        up in arb_pool_up(),
        seq in 0u64..1_000_000,
        ack in 0u64..1_000_000,
        bit_pick in any::<u64>(),
    ) {
        let session = frame_v2(&to_payload_binary(&msg), FrameHeader { seq, ack });
        let pool_up = frame_v2(&to_payload_binary(&up), FrameHeader { seq, ack: 0 });
        let pool_down = frame_unseq(&Down::Ug { job: seq, msg });
        for framed in [session, pool_up, pool_down] {
            let bit = (bit_pick % (framed.len() * 8) as u64) as usize;
            let mut bad = framed;
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut dec = FrameDecoder::new();
            dec.set_v2(true);
            dec.push(&bad);
            match dec.next_frame2() {
                Err(e @ WireError::Corrupt(_)) => prop_assert!(e.is_retryable()),
                other => prop_assert!(false, "bit {bit}: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// Unprotected paths (v1 framing has no CRC): the binary decoder
    /// must never panic, whatever bytes arrive after the magic — it
    /// returns a message or a structured `Codec` error. This is the
    /// fuzz half of the "never panic / never silently misdecode"
    /// guarantee (the misdecode half is the CRC test above).
    #[test]
    fn v3_decoder_never_panics_on_arbitrary_bytes(
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut payload = vec![BINARY_MAGIC];
        payload.extend_from_slice(&garbage);
        match decode::<Msg>(&payload) {
            Ok(_) | Err(WireError::Codec(_)) => {}
            other => prop_assert!(false, "expected Ok or Codec, got {other:?}"),
        }
    }

    /// A truncated binary payload (any prefix of a valid one) must
    /// error, not decode to something shorter that happens to parse.
    #[test]
    fn v3_truncation_is_always_detected(msg in arb_msg(), cut_pick in any::<u64>()) {
        let payload = to_payload_binary(&msg);
        prop_assume!(payload.len() > 1);
        let cut = 1 + (cut_pick % (payload.len() - 1) as u64) as usize;
        match decode::<Msg>(&payload[..cut]) {
            Err(WireError::Codec(_)) => {}
            other => prop_assert!(false, "cut at {cut}: expected Codec error, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// The session endpoint, modelled once for both roles
// ---------------------------------------------------------------------

/// An in-memory connection half: what one end writes, the test hands
/// to the other end's decoder. Closed pipes refuse writes, like a
/// socket after `shutdown`.
#[derive(Clone, Default)]
struct Pipe(std::sync::Arc<std::sync::Mutex<(Vec<u8>, bool)>>);

impl std::io::Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut pipe = self.0.lock().unwrap();
        if pipe.1 {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        pipe.0.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Conn for Pipe {
    fn close(&self) {
        self.0.lock().unwrap().1 = true;
    }

    fn set_write_timeout(&self, _: Option<std::time::Duration>) -> std::io::Result<()> {
        Ok(())
    }
}

/// One end of the modelled connection: the endpoint under test behind
/// its owner's lock, the pipe it currently writes into, the decoder of
/// what it receives, and the model's two ledgers.
struct End {
    ep: std::sync::Mutex<Endpoint<Pipe>>,
    out: Pipe,
    dec: FrameDecoder,
    /// Reliable payloads this end sent, in order.
    sent: Vec<u64>,
    /// Reliable payloads this end accepted, in order.
    delivered: Vec<u64>,
    /// The last frame this end received, for duplicate delivery.
    last: Option<(FrameHeader, Vec<u8>)>,
}

impl End {
    fn new() -> Self {
        let out = Pipe::default();
        let mut dec = FrameDecoder::new();
        dec.set_v2(true);
        End {
            ep: std::sync::Mutex::new(Endpoint::new(7, Some(out.clone()), None)),
            out,
            dec,
            sent: Vec::new(),
            delivered: Vec::new(),
            last: None,
        }
    }

    /// Applies one received frame the way both reader threads do.
    fn receive(&mut self, header: FrameHeader, payload: &[u8]) -> Result<Arrival, TestCaseError> {
        let mut ep = self.ep.lock().unwrap();
        let arrival = ep.on_header(header);
        prop_assert!(arrival != Arrival::Gap, "nothing in this model loses a frame in-stream");
        if arrival == Arrival::Accept {
            prop_assert!(
                ep.unacked().all(|seq| seq >= header.ack),
                "ring entry below the peer's ack {}: {:?}",
                header.ack,
                ep.unacked().collect::<Vec<_>>()
            );
            if header.seq != UNSEQ {
                self.delivered.push(u64::from_be_bytes(payload.try_into().unwrap()));
            }
        }
        Ok(arrival)
    }
}

#[derive(Clone, Debug)]
enum Step {
    /// `side` sends one payload, reliable or not (an unreliable frame
    /// is the heartbeat / ack carrier).
    Send { side: usize, reliable: bool },
    /// `side` reads the next frame its peer wrote, if one is there.
    Deliver { side: usize },
    /// `side` sees its last received frame again.
    Redeliver { side: usize },
    /// The connection breaks; whatever was in flight is gone.
    Cut,
    /// A fresh connection: both ends replay and re-attach.
    Resume,
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Weights 4 : 4 : 1 : 1 : 1 — mostly traffic, regularly a fault.
    (0u8..11, 0usize..2, any::<bool>()).prop_map(|(pick, side, reliable)| match pick {
        0..=3 => Step::Send { side, reliable },
        4..=7 => Step::Deliver { side },
        8 => Step::Redeliver { side },
        9 => Step::Cut,
        _ => Step::Resume,
    })
}

/// Both ends detach and everything in flight is lost with the wires.
fn cut(ends: &mut [End; 2]) {
    for end in ends.iter_mut() {
        end.ep.lock().unwrap().detach();
        end.out = Pipe::default();
        end.dec = FrameDecoder::new();
        end.dec.set_v2(true);
        end.last = None;
    }
}

/// The resume handshake: each end learns the other's `rx_next`, then
/// replays onto its half of the fresh connection.
fn resume(ends: &mut [End; 2]) -> Result<(), TestCaseError> {
    cut(ends);
    let rx_next = [0, 1].map(|i| ends[i].ep.lock().unwrap().rx_next());
    for (i, end) in ends.iter_mut().enumerate() {
        let attached =
            Endpoint::replay_onto(&end.ep, |ep| Some(ep), end.out.clone(), rx_next[1 - i]);
        prop_assert!(matches!(attached, Ok(true)), "replay onto an open pipe: {attached:?}");
    }
    Ok(())
}

fn deliver(ends: &mut [End; 2], side: usize) -> Result<bool, TestCaseError> {
    let wire = std::mem::take(&mut ends[1 - side].out.0.lock().unwrap().0);
    ends[side].dec.push(&wire);
    let Some((header, payload)) = ends[side].dec.next_frame2().expect("clean frames") else {
        return Ok(false);
    };
    ends[side].receive(header, &payload)?;
    ends[side].last = Some((header, payload.to_vec()));
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two endpoints joined by an in-memory connection, driven through
    /// an arbitrary schedule of sends, deliveries, duplicate
    /// deliveries, cuts and resumes: every reliable payload arrives
    /// exactly once and in order, in both directions, no ring entry
    /// survives the ack that covers it, and once everything is acked
    /// both rings are empty. The same type serves the coordinator's
    /// rank and the worker, so this is the one test of the rule.
    #[test]
    fn endpoints_deliver_exactly_once_in_order_across_cuts(
        steps in proptest::collection::vec(arb_step(), 1..160),
    ) {
        let mut ends = [End::new(), End::new()];
        let mut next_payload = 0u64;
        for step in steps {
            match step {
                Step::Send { side, reliable } => {
                    let end = &mut ends[side];
                    let sent = end.ep.lock().unwrap().send(next_payload.to_be_bytes().to_vec(), reliable);
                    prop_assert_eq!(sent, Ok(()));
                    if reliable {
                        end.sent.push(next_payload);
                    }
                    next_payload += 1;
                }
                Step::Deliver { side } => {
                    deliver(&mut ends, side)?;
                }
                Step::Redeliver { side } => {
                    if let Some((header, payload)) = ends[side].last.clone() {
                        let again = ends[side].receive(header, &payload)?;
                        if header.seq != UNSEQ {
                            prop_assert_eq!(again, Arrival::Duplicate);
                        }
                    }
                }
                Step::Cut => cut(&mut ends),
                Step::Resume => resume(&mut ends)?,
            }
            for (i, end) in ends.iter().enumerate() {
                let peer = &ends[1 - i].sent;
                prop_assert!(peer.starts_with(&end.delivered), "{:?} vs {peer:?}", end.delivered);
            }
        }
        // Heal, exchange one ack carrier each way, and drain.
        resume(&mut ends)?;
        for round in 0..2 {
            for side in 0..2 {
                while deliver(&mut ends, side)? {}
                if round == 0 {
                    let ack = ends[side].ep.lock().unwrap().send(Vec::new(), false);
                    prop_assert_eq!(ack, Ok(()));
                }
            }
        }
        for (i, end) in ends.iter().enumerate() {
            prop_assert_eq!(&end.delivered, &ends[1 - i].sent, "end {} missed payloads", i);
            let left: Vec<u64> = end.ep.lock().unwrap().unacked().collect();
            prop_assert!(left.is_empty(), "end {i} still rings {left:?} after a full ack");
        }
    }

    /// The ring is capped and the cap is an error: at
    /// `RETRANSMIT_RING_CAP` un-acked payloads `send` refuses the next
    /// one and evicts nothing; an ack makes exactly that much room.
    #[test]
    fn endpoint_ring_overflow_is_an_error_never_an_eviction(
        extra in 1usize..40,
        acked in 0u64..RETRANSMIT_RING_CAP as u64,
    ) {
        let cap = RETRANSMIT_RING_CAP as u64;
        let mut ep = Endpoint::<Pipe>::new(7, None, None);
        for _ in 0..cap {
            prop_assert_eq!(ep.send(vec![1], true), Ok(()));
        }
        for _ in 0..extra {
            prop_assert_eq!(ep.send(vec![2], true), Err(RingFull));
            prop_assert_eq!(ep.send(Vec::new(), false), Ok(()), "unreliable frames need no room");
        }
        prop_assert!(ep.unacked().eq(0..cap), "an overflow must not evict");
        prop_assert_eq!(ep.on_header(FrameHeader { seq: UNSEQ, ack: acked }), Arrival::Accept);
        for _ in 0..acked {
            prop_assert_eq!(ep.send(vec![3], true), Ok(()));
        }
        prop_assert_eq!(ep.send(vec![4], true), Err(RingFull));
        prop_assert!(ep.unacked().eq(acked..cap + acked));
    }
}

/// Compile-time guard: if someone adds a `Message` variant, this match
/// stops compiling and points them at `arb_msg()` above.
#[allow(dead_code)]
fn variant_count(m: &Msg) {
    match m {
        Message::Subproblem { .. }
        | Message::Incumbent { .. }
        | Message::StartCollecting
        | Message::StopCollecting
        | Message::AbortSubproblem
        | Message::Terminate
        | Message::SolutionFound { .. }
        | Message::Status { .. }
        | Message::ExportedNode { .. }
        | Message::Completed { .. }
        | Message::WorkerDied { .. } => {}
    }
}

/// Same guards for the job-control protocol: a new variant without a
/// generator in the strategies above stops compiling here.
#[allow(dead_code)]
fn job_protocol_variant_count(req: &Req, reply: &Reply, down: &Down, up: &Up, state: &JobState) {
    match req {
        ClientRequest::Submit { .. }
        | ClientRequest::Cancel { .. }
        | ClientRequest::Watch { .. }
        | ClientRequest::Status
        | ClientRequest::Metrics
        | ClientRequest::Reclaim { .. }
        | ClientRequest::Fleet
        | ClientRequest::GatewayEpoch { .. }
        | ClientRequest::Shutdown => {}
    }
    match reply {
        ServerReply::Submitted { .. }
        | ServerReply::CancelResult { .. }
        | ServerReply::Event {
            event:
                JobEvent {
                    kind:
                        JobEventKind::Queued
                        | JobEventKind::Routed { .. }
                        | JobEventKind::Started { .. }
                        | JobEventKind::Incumbent { .. }
                        | JobEventKind::Bound { .. }
                        | JobEventKind::WorkerLost { .. }
                        | JobEventKind::Recovered { .. }
                        | JobEventKind::Finished { .. },
                    ..
                },
        }
        | ServerReply::Status { .. }
        | ServerReply::Metrics { .. }
        | ServerReply::ShuttingDown
        | ServerReply::Rejected { .. }
        | ServerReply::Fleet { .. }
        | ServerReply::GatewayEpochAck { .. }
        | ServerReply::Fenced { .. }
        | ServerReply::Error { .. } => {}
    }
    match down {
        PoolDown::Begin { .. } | PoolDown::Ug { .. } => {}
    }
    match up {
        PoolUp::Ping { .. } | PoolUp::Ug { .. } | PoolUp::JobDone { .. } => {}
    }
    match state {
        JobState::Queued
        | JobState::Running
        | JobState::Solved
        | JobState::Infeasible
        | JobState::TimedOut
        | JobState::Cancelled
        | JobState::Failed => {}
    }
}
