//! Telemetry end-to-end: a real parallel STP run wired to a JSONL run
//! journal must be replayable, and the replay must reconstruct the
//! run's final `UgStats` — the property that makes journals usable for
//! Figure 1-style gap-over-time plots and post-mortems.

use std::sync::{Arc, Mutex};
use ugrs::glue::{stp_racing_settings, ug_solve_stp};
use ugrs::steiner::gen::{bipartite, CostScheme};
use ugrs::steiner::reduce::ReduceParams;
use ugrs::ug::telemetry::{reconstruct_stats, Journal, JournalRecord, TelemetryEvent};
use ugrs::ug::{ParallelOptions, ProgressMsg, ProgressSink, RampUp, TelemetrySink};

fn journal_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ugrs-telemetry-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

/// An instance that stays nontrivial after presolving — a graph the
/// reductions solve outright never starts a coordinator, so its journal
/// would be empty.
fn nontrivial_graph(mut seed: u64) -> ugrs::steiner::Graph {
    loop {
        let g = bipartite(5, 9, 3, CostScheme::Perturbed, seed);
        let mut reduced = g.clone();
        ugrs::steiner::reduce::reduce(&mut reduced, &ReduceParams::default());
        if reduced.num_terminals() >= 2 {
            return g;
        }
        seed += 1;
    }
}

#[test]
fn journal_replay_reconstructs_final_stats() {
    let g = nontrivial_graph(42);
    let path = journal_path("replay");
    let journal = Arc::new(Journal::create(&path).unwrap());
    let r = ug_solve_stp(
        &g,
        &ReduceParams::default(),
        ParallelOptions {
            num_solvers: 2,
            telemetry: TelemetrySink::with_journal(journal),
            ..Default::default()
        },
    );
    assert!(r.solved);

    let records = Journal::replay(&path).unwrap();
    assert!(!records.is_empty(), "journal must contain events");

    // Timestamps are monotone non-decreasing and start at the run.
    for w in records.windows(2) {
        assert!(w[0].t <= w[1].t, "timestamps must be monotone");
    }
    assert!(records[0].t >= 0.0);

    // The journal brackets the run: starts with RunStarted, ends with
    // RunFinished carrying the authoritative stats.
    assert!(
        matches!(records.first().unwrap().event, TelemetryEvent::RunStarted { workers: 2, .. }),
        "first event must be RunStarted: {:?}",
        records.first()
    );
    let TelemetryEvent::RunFinished { stats: ref finished } = records.last().unwrap().event else {
        panic!("last event must be RunFinished: {:?}", records.last());
    };
    assert_eq!(finished, &r.stats, "RunFinished must carry the run's stats verbatim");

    // Replay reconstruction: discrete events drive the counters
    // exactly; the final Progress snapshot mirrors the final stats.
    let rebuilt = reconstruct_stats(&records);
    assert_eq!(rebuilt.transferred, r.stats.transferred, "transferred from events");
    assert_eq!(rebuilt.collected, r.stats.collected, "collected from events");
    assert_eq!(rebuilt.incumbents_seen, r.stats.incumbents_seen, "incumbents from events");
    assert_eq!(rebuilt.workers_died, r.stats.workers_died, "deaths from events");
    assert_eq!(rebuilt.nodes_total, r.stats.nodes_total, "nodes from final snapshot");
    assert_eq!(rebuilt.open_nodes, r.stats.open_nodes, "open nodes from final snapshot");
    assert!((rebuilt.primal_bound - r.stats.primal_bound).abs() < 1e-9);
    assert!((rebuilt.dual_bound - r.stats.dual_bound).abs() < 1e-9);
    assert!((rebuilt.wall_time - r.stats.wall_time).abs() < 1e-6);
    assert!((rebuilt.idle_percent - r.stats.idle_percent).abs() < 1e-9);
    // Interim snapshots can only undercount the true concurrent peak.
    assert!(rebuilt.max_active <= r.stats.max_active);

    std::fs::remove_file(&path).ok();
}

#[test]
fn progress_sink_sees_live_and_final_snapshots() {
    let g = nontrivial_graph(77);
    let seen: Arc<Mutex<Vec<ProgressMsg>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = {
        let seen = seen.clone();
        ProgressSink::new(move |p| seen.lock().unwrap().push(p.clone()))
    };
    let r = ug_solve_stp(
        &g,
        &ReduceParams::default(),
        ParallelOptions {
            num_solvers: 2,
            telemetry: TelemetrySink { journal: None, progress: Some(sink) },
            ..Default::default()
        },
    );
    assert!(r.solved);
    let seen = seen.lock().unwrap();
    assert!(!seen.is_empty(), "at least the final snapshot must be emitted");
    let last = seen.last().unwrap();
    assert_eq!(last.nodes, r.stats.nodes_total);
    assert_eq!(last.transferred, r.stats.transferred);
    assert!((last.gap_percent - r.stats.gap_percent()).abs() < 1e-9);
    assert_eq!(last.phase, "normal");
}

/// `ugd journal` on a racing run's journal prints the racing field, the
/// winner and the final statistics; a line of an event this version no
/// longer writes (the roster-decision record of older journals) is
/// skipped, counted, and does not fail the replay.
#[test]
fn ugd_journal_replays_a_racing_run_and_skips_retired_events() {
    let path = journal_path("racing");
    // A zero time trigger decides the race at the coordinator's first
    // check, after it has drained the messages of its first 2 ms; a
    // racer that solves the root before that leaves no winner, so try a
    // few instances. On `nontrivial_graph`'s 5 × 9 graphs both racers
    // could finish every one of 40 instances in that window (5 of 40
    // runs failed on a 2-vCPU host); 7 × 14 graphs keep them busier.
    let decided = (0..5).any(|k| {
        let g = bipartite(7, 14, 3, CostScheme::Perturbed, 42 + 100 * k);
        let journal = Arc::new(Journal::create(&path).unwrap());
        let r = ug_solve_stp(
            &g,
            &ReduceParams::default(),
            ParallelOptions {
                num_solvers: 2,
                ramp_up: RampUp::Racing {
                    settings: stp_racing_settings(2),
                    time_trigger: 0.0,
                    open_nodes_trigger: 1,
                },
                telemetry: TelemetrySink::with_journal(journal),
                ..Default::default()
            },
        );
        assert!(r.solved);
        r.stats.racing_winner.is_some()
    });
    assert!(decided, "no instance left the race to the trigger");

    let replay = || {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ugd"))
            .arg("journal")
            .arg(&path)
            .output()
            .expect("spawn ugd");
        assert!(out.status.success(), "ugd journal failed: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let racing_lines = |text: &str| {
        assert!(text.contains("racing field (best first):"), "{text}");
        assert!(text.contains("racing winner: rank"), "{text}");
        assert!(text.contains("run finished:"), "{text}");
    };
    let text = replay();
    assert!(text.contains(" 0 unreadable line(s) skipped"), "{text}");
    racing_lines(&text);

    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(
            f,
            "{{\"t\":0.001,\"event\":{{\"TunerDecision\":{{\"fingerprint\":\"stp/b5\",\
             \"order\":[1,0],\"model_version\":1,\"predicted_stall\":false,\
             \"source\":\"model\"}}}}}}"
        )
        .unwrap();
    }
    let text = replay();
    assert!(text.contains(" 1 unreadable line(s) skipped"), "{text}");
    racing_lines(&text);
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_tolerates_concurrent_tail_write() {
    // A journal read mid-run may end in a torn line; replay must keep
    // every complete record before it. (The unit test covers the torn
    // byte-level case; this covers the writer-side flush boundary.)
    let path = journal_path("tail");
    let journal = Journal::create(&path).unwrap();
    journal.log(TelemetryEvent::Phase { phase: "racing".into() });
    journal.log(TelemetryEvent::Incumbent { obj: 12.5 });
    journal.flush();
    // Append garbage to simulate a torn concurrent write.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"t\":9.9,\"event\":{\"Incumb").unwrap();
    }
    let records: Vec<JournalRecord> = Journal::replay(&path).unwrap();
    assert_eq!(records.len(), 2);
    assert!(matches!(records[1].event, TelemetryEvent::Incumbent { obj } if obj == 12.5));
    std::fs::remove_file(&path).ok();
}
