//! Acceptance tests of the instance zoo (ISSUE 7): parse → solve →
//! reference-optimum e2e for all three instance families, one of them
//! served through a real `ugd-server` via `ugd submit --file`, the
//! counted-LoC assertion on the max-cut glue, and the checksum
//! provenance trail (spec → ledger record → telemetry journal).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;
use ugrs::glue::{ug_solve_maxcut, ug_solve_misdp, ug_solve_stp, SolveClient, SolveServer};
use ugrs::instances::gen::{
    maxcut_complete, maxcut_ring, misdp_diag_box, stp_grid_corners, stp_hypercube_antipodal,
    stp_star,
};
use ugrs::instances::{cbf, file_checksum, maxcut, stp};
use ugrs::steiner::reduce::ReduceParams;
use ugrs::ug::{ParallelOptions, ProcessCommConfig, ServerConfig};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_ugd-worker");
const UGD_BIN: &str = env!("CARGO_BIN_EXE_ugd");

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ugrs-instances-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn par(n: usize) -> ParallelOptions {
    ParallelOptions { num_solvers: n, ..Default::default() }
}

/// STP: three generated families, each written to a real `.stp` file,
/// re-read through the *strict* parser, solved under UG, and checked
/// against the generator's reference optimum.
#[test]
fn stp_files_solve_to_reference_optima() {
    let dir = tmp_dir("stp");
    for (inst, reference) in [stp_star(4), stp_hypercube_antipodal(3), stp_grid_corners(3, 3)] {
        let reference = reference.expect("generator must know the optimum");
        let path = dir.join(format!("{}.stp", inst.name));
        std::fs::write(&path, inst.write()).expect("write instance");
        let parsed = stp::read_stp(&path).expect("strict parse");
        assert_eq!(parsed, inst, "file round-trip must be lossless");
        let res = ug_solve_stp(&parsed.to_graph(), &ReduceParams::default(), par(2));
        assert!(res.solved, "{} must solve", inst.name);
        let (_, cost) = res.tree.expect("a tree");
        assert!(
            (cost - reference).abs() < 1e-6,
            "{}: solved to {cost}, reference {reference}",
            inst.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// MISDP: the diag-box family through the CBF file format.
#[test]
fn cbf_file_solves_to_reference_optimum() {
    let dir = tmp_dir("cbf");
    let (problem, reference) = misdp_diag_box(2);
    let reference = reference.unwrap();
    let path = dir.join("diagbox2.cbf");
    std::fs::write(&path, cbf::write_cbf(&problem)).expect("write instance");
    let parsed = cbf::read_cbf(&path).expect("strict parse");
    assert!(cbf::problems_equal(&parsed, &problem), "file round-trip must be lossless");
    let res = ug_solve_misdp(&parsed, par(2));
    assert!(res.solved);
    let obj = res.best_obj.expect("an incumbent");
    assert!((obj - reference).abs() < 1e-4, "solved to {obj}, reference {reference}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Max-cut: ring and complete-graph instances through the `.mc` edge
/// list format, solved via the MISDP relaxation; the recovered
/// partition must actually achieve the optimal cut.
#[test]
fn mc_files_solve_to_reference_optima() {
    let dir = tmp_dir("mc");
    for (inst, reference) in [maxcut_ring(5), maxcut_complete(4)] {
        let reference = reference.unwrap();
        let path = dir.join(format!("{}.mc", inst.name));
        std::fs::write(&path, inst.write()).expect("write instance");
        let parsed = maxcut::read_mc(&path).expect("strict parse");
        assert_eq!(parsed, inst, "file round-trip must be lossless");
        let res = ug_solve_maxcut(&parsed, par(2));
        assert!(res.solved, "{} must solve", inst.name);
        let cut = res.best_cut.expect("a cut");
        assert!(
            (cut - reference).abs() < 1e-6,
            "{}: solved to {cut}, reference {reference}",
            inst.name
        );
        let side = res.partition.expect("a partition");
        assert!(
            (inst.cut_value(&side) - reference).abs() < 1e-6,
            "{}: recovered partition must achieve the optimum",
            inst.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The paper's headline claim, extended to the third application: the
/// whole max-cut glue file stays under 200 counted lines (non-blank,
/// non-comment), alongside stp_plugins.cpp (173) and misdp_plugins.cpp
/// (106).
#[test]
fn maxcut_glue_stays_under_200_loc() {
    let src = include_str!("../crates/glue/src/apps/maxcut.rs");
    let loc = src
        .lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("//")
        })
        .count();
    assert!(loc < 200, "max-cut glue is {loc} counted LoC; the paper's budget is < 200");
}

/// The full service path: a generated `.stp` file submitted to a real
/// `ugd-server` (worker-pool processes) with `ugd submit --file`. The
/// job must solve to the reference optimum, the per-job telemetry
/// journal must open with a `JobMeta` record carrying the family and
/// the file checksum, and the server metrics must count the job under
/// `family="stp"`.
#[test]
fn served_from_file_with_checksum_provenance() {
    let dir = tmp_dir("served");
    let journal_dir = dir.join("journals");
    let (inst, reference) = stp_star(4);
    let reference = reference.unwrap();
    let path = dir.join("star4.stp");
    std::fs::write(&path, inst.write()).expect("write instance");
    let checksum = file_checksum(&path).expect("checksum");

    let config = ServerConfig {
        worker_command: vec![WORKER_BIN.to_string()],
        pool_size: 2,
        max_concurrent_jobs: 1,
        comm: ProcessCommConfig {
            handshake_timeout: Duration::from_secs(10),
            liveness_timeout: Duration::from_secs(2),
            heartbeat_interval: Duration::from_millis(100),
            reconnect_deadline: Duration::from_millis(500),
            chaos: None,
        },
        drain_timeout: Duration::from_secs(5),
        journal_dir: Some(journal_dir.clone()),
        ..Default::default()
    };
    let server = SolveServer::start(config).expect("server start");
    let addr = server.client_addr().to_string();

    let out = Command::new(UGD_BIN)
        .args(["submit", "--file"])
        .arg(&path)
        .args(["--addr", &addr, "--solvers", "2", "--name", "star4"])
        .output()
        .expect("run ugd submit --file");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ugd submit --file failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("finished: Solved"), "job must solve: {stdout}");
    assert!(
        stdout.contains(&format!("obj={reference:.6}")),
        "external objective must be the reference optimum {reference}: {stdout}"
    );

    // Provenance: the journal's head record pins family + checksum.
    let journal = std::fs::read_dir(&journal_dir)
        .expect("journal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .expect("a per-job journal file");
    let head = std::fs::read_to_string(&journal)
        .expect("read journal")
        .lines()
        .next()
        .expect("journal must not be empty")
        .to_string();
    assert!(head.contains("JobMeta"), "journal head must be the JobMeta record: {head}");
    assert!(head.contains("\"stp\""), "JobMeta must carry the family: {head}");
    assert!(head.contains(&checksum), "JobMeta must carry the file checksum: {head}");

    // Observability: the submit counted under its family label.
    let mut client = SolveClient::connect(&addr).expect("client connect");
    let metrics = client.metrics().expect("metrics").text;
    let line = metrics
        .lines()
        .find(|l| l.starts_with("ugrs_server_jobs_submitted_total") && l.contains("family=\"stp\""))
        .expect("family-labeled submitted counter");
    assert!(line.ends_with(" 1"), "exactly one stp submit: {line}");

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash-safety provenance: with a state dir, the WALed ledger record
/// of a submitted job carries the instance checksum (the job is held
/// queued by an empty worker pool so the record is observable, then
/// cancelled).
#[test]
fn ledger_record_carries_instance_checksum() {
    let dir = tmp_dir("ledger");
    let (inst, _) = stp_star(4);
    let path = dir.join("star4.stp");
    std::fs::write(&path, inst.write()).expect("write instance");
    let checksum = file_checksum(&path).expect("checksum");

    // No worker pool: the job stays queued, its WAL record on disk.
    let config = ServerConfig {
        worker_command: Vec::new(),
        pool_size: 0,
        max_concurrent_jobs: 1,
        state_dir: Some(dir.join("state")),
        drain_timeout: Duration::from_secs(2),
        ..Default::default()
    };
    let server = SolveServer::start(config).expect("server start");
    let addr = server.client_addr().to_string();

    let graph = stp::read_stp(&path).expect("parse").to_graph();
    let mut spec = ugrs::glue::stp_job("star4", &graph, &ReduceParams::default());
    spec.checksum = Some(checksum.clone());
    let mut client = SolveClient::connect(&addr).expect("client connect");
    let job = client.submit(spec).expect("submit");

    let mut found = false;
    for entry in walk(&dir.join("state")) {
        if let Ok(text) = std::fs::read_to_string(&entry) {
            if text.contains(&checksum) && text.contains("\"stp\"") {
                found = true;
                break;
            }
        }
    }
    assert!(found, "some ledger record must carry the checksum and family");

    assert!(client.cancel(job).expect("cancel"));
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.filter_map(|e| e.ok()) {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                out.push(p);
            }
        }
    }
    out
}
