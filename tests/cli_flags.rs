//! The command lines after the worker-session, codec, batching,
//! adaptive-racing, raw-instance, per-call worker-mode, state-compression
//! and steal-batch options were removed: the retired spellings are
//! usage errors (exit 2) whose usage text names only flags that still
//! exist, and a SIGTERM drain survives a closed stdout.

use std::io::BufRead;
use std::process::{Command, Stdio};

const SERVER_BIN: &str = env!("CARGO_BIN_EXE_ugd-server");
const WORKER_BIN: &str = env!("CARGO_BIN_EXE_ugd-worker");
const GATEWAY_BIN: &str = env!("CARGO_BIN_EXE_ugd-gateway");
const UGD_BIN: &str = env!("CARGO_BIN_EXE_ugd");

/// Runs `bin args`, asserts the usage-error exit code and returns
/// stderr (the complaint followed by the usage text).
fn usage_error(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2, got {:?}", out.status);
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn retired_codec_and_batching_flags_are_usage_errors() {
    let worker = ["--connect", "127.0.0.1:1"];
    let mut complaints = Vec::new();
    // There is one wire format: no value of `--codec` is accepted.
    for value in ["v1", "v2", "v3", "json", "binary"] {
        for (bin, base) in [(SERVER_BIN, &[][..]), (WORKER_BIN, &worker[..])] {
            let text = usage_error(bin, &[base, &["--codec", value]].concat());
            assert!(text.contains("unknown flag --codec"), "{text}");
            complaints.push(text);
        }
    }
    let no_batch = usage_error(SERVER_BIN, &["--no-batch"]);
    assert!(no_batch.contains("unknown flag --no-batch"), "{no_batch}");
    let batch_ms = usage_error(WORKER_BIN, &[&worker[..], &["--batch-ms", "1"]].concat());
    assert!(batch_ms.contains("unknown flag --batch-ms"), "{batch_ms}");
    complaints.extend([no_batch, batch_ms]);

    for text in &complaints {
        let usage = &text[text.find("usage:").expect("usage text follows the complaint")..];
        assert!(!usage.contains("codec") && !usage.contains("batch"), "retired flag in: {usage}");
    }
}

#[test]
fn retired_adaptive_racing_and_raw_instance_flags_are_usage_errors() {
    let cases: [(&str, &[&str], &str); 4] = [
        (SERVER_BIN, &["--adaptive"], "--adaptive"),
        (SERVER_BIN, &["--tuner-refresh", "1"], "--tuner-refresh"),
        (GATEWAY_BIN, &["--shard", "a=127.0.0.1:1", "--tuner-refresh", "1"], "--tuner-refresh"),
        (WORKER_BIN, &["--connect", "127.0.0.1:1", "--instance", "x"], "--instance"),
    ];
    let mut complaints = Vec::new();
    for (bin, args, flag) in cases {
        let text = usage_error(bin, args);
        assert!(text.contains(&format!("unknown flag {flag}\n")), "{text}");
        complaints.push(text);
    }
    let tune = usage_error(UGD_BIN, &["tune"]);
    assert!(tune.starts_with("usage: ugd submit"), "{tune}");
    complaints.push(tune);

    for text in &complaints {
        let usage = &text[text.find("usage:").expect("usage text follows the complaint")..];
        for retired in ["tune", "adaptive", "--instance "] {
            assert!(!usage.contains(retired), "retired {retired:?} in: {usage}");
        }
    }
}

/// A worker has one mode — it joins a coordinator and receives each
/// job's instance in its `Begin` — the daemons no longer compress their
/// state, and a gateway steal sweep moves at most a fixed number of
/// jobs: the retired spellings are usage errors.
#[test]
fn retired_worker_modes_and_state_compression_are_usage_errors() {
    let worker = ["--connect", "127.0.0.1:1"];
    let cases: [(&str, Vec<&str>, &str); 6] = [
        (WORKER_BIN, [&worker[..], &["--serve"]].concat(), "--serve"),
        (WORKER_BIN, [&worker[..], &["--rank", "0"]].concat(), "--rank"),
        (WORKER_BIN, [&worker[..], &["--instance-job", "x"]].concat(), "--instance-job"),
        (SERVER_BIN, vec!["--compress-state"], "--compress-state"),
        (GATEWAY_BIN, vec!["--shard", "a=127.0.0.1:1", "--compress-state"], "--compress-state"),
        (GATEWAY_BIN, vec!["--shard", "a=127.0.0.1:1", "--steal-batch", "2"], "--steal-batch"),
    ];
    for (bin, args, flag) in cases {
        let text = usage_error(bin, &args);
        assert!(text.contains(&format!("unknown flag {flag}\n")), "{text}");
        let usage = &text[text.find("usage:").expect("usage text follows the complaint")..];
        for retired in ["--serve", "--rank ", "instance-job", "compress", "steal-batch"] {
            assert!(!usage.contains(retired), "retired {retired:?} in: {usage}");
        }
    }
}

/// `println!` panics on EPIPE. A supervisor that closes the daemon's
/// stdout before it sends SIGTERM must still get a drained server that
/// exits 0, not a panic before `drain_and_join`.
#[test]
fn sigterm_drain_survives_a_closed_stdout() {
    let mut child = Command::new(SERVER_BIN)
        .args(["--client-addr", "127.0.0.1:0", "--worker-addr", "127.0.0.1:0"])
        .args(["--pool-size", "1", "--worker", WORKER_BIN])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ugd-server");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    assert!(banner.starts_with("ugd-server listening on"), "unexpected banner {banner:?}");
    drop(stdout); // the read end is gone: every later write is EPIPE

    let killed = Command::new("kill").args(["-TERM", &child.id().to_string()]).status();
    assert!(killed.expect("send SIGTERM").success(), "kill -TERM failed");
    let exit = child.wait().expect("wait for the drained server");
    assert!(exit.success(), "a drain with stdout closed must still exit 0, got {exit:?}");
}
