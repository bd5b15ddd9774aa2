//! The daemons' command lines after the worker-session and batching
//! options were removed: the retired spellings are usage errors (exit
//! 2) whose usage text names only flags that still exist, and a
//! SIGTERM drain survives a closed stdout.

use std::io::BufRead;
use std::process::{Command, Stdio};

const SERVER_BIN: &str = env!("CARGO_BIN_EXE_ugd-server");
const WORKER_BIN: &str = env!("CARGO_BIN_EXE_ugd-worker");

/// Runs `bin args`, asserts the usage-error exit code and returns
/// stderr (the complaint followed by the usage text).
fn usage_error(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2, got {:?}", out.status);
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn retired_session_and_batching_flags_are_usage_errors() {
    let v1 = usage_error(SERVER_BIN, &["--codec", "v1"]);
    assert!(v1.contains("expected v2, v3"), "the refusal must name what is accepted: {v1}");
    let no_batch = usage_error(SERVER_BIN, &["--no-batch"]);
    assert!(no_batch.contains("unknown flag --no-batch"), "{no_batch}");
    let batch_ms = usage_error(WORKER_BIN, &["--connect", "127.0.0.1:1", "--batch-ms", "1"]);
    assert!(batch_ms.contains("unknown flag --batch-ms"), "{batch_ms}");

    for text in [&v1, &no_batch, &batch_ms] {
        let usage = &text[text.find("usage:").expect("usage text follows the complaint")..];
        assert!(usage.contains("[--codec v2|v3]"), "{usage}");
        assert!(!usage.contains("batch") && !usage.contains("v1"), "retired flag in: {usage}");
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
