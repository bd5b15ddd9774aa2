//! The client-facing front end `ugd-server` and `ugd-gateway` share.
//!
//! Both daemons answer the same client protocol ([`ClientRequest`] /
//! [`ServerReply`] over v1 frames, PROTOCOL.md §4.4). Everything about
//! serving it that does not depend on *which* daemon answers lives
//! here, once:
//!
//! * `accept_loop` — the blocking accept loop every listener of this
//!   crate runs (client listeners and the worker listener of
//!   `process::Sessions`), and `wake_listener`, the
//!   dial that gets it out of `accept()` at shutdown;
//! * `serve_clients` — one thread per client connection running the
//!   framed request loop, every connection shut down when the accept
//!   loop ends; a daemon supplies only its `RequestHandler`;
//! * `EventLog` — the per-job append-only event logs with the
//!   progress-dedup watermarks and the resumable `Watch` stream;
//! * [`wait_for_shutdown_or_sigterm`] — the main-thread wait of both
//!   daemon binaries.

use crate::messages::Message;
use crate::server::{ClientRequest, JobEvent, JobEventKind, JobState, ServerReply};
use crate::wire::{self, FrameDecoder};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Pause after a failed `accept()` (descriptor exhaustion, a reset in
/// the backlog): a persistent error must not spin the loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Bound on the wake-up dial of [`wake_listener`]; the listener is our
/// own, so the connect completes in the kernel at once.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Longest a watcher sleeps before re-reading its job's log.
const STREAM_WAIT: Duration = Duration::from_millis(200);

/// Accepts connections until `shutdown` is set, handing each to
/// `on_conn`. The loop blocks in `accept()`: whoever sets the flag
/// then calls [`wake_listener`] with the listener's address, and the
/// connection that dial makes (or any client racing it) is dropped
/// unserved.
pub(crate) fn accept_loop(
    listener: TcpListener,
    shutdown: &AtomicBool,
    on_conn: impl FnMut(TcpStream),
) {
    run_accept(|| listener.accept().map(|(stream, _peer)| stream), shutdown, on_conn);
}

/// [`accept_loop`] over any source of connections (tests pass a
/// failing one). An accept error backs off briefly instead of
/// spinning.
fn run_accept(
    mut accept: impl FnMut() -> io::Result<TcpStream>,
    shutdown: &AtomicBool,
    mut on_conn: impl FnMut(TcpStream),
) {
    loop {
        let conn = accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok(stream) => on_conn(stream),
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Gets the [`accept_loop`] of the listener at `addr` out of its
/// blocked `accept()` by connecting to it once; call after setting the
/// loop's shutdown flag. A wildcard bind is dialled on loopback.
/// Returns whether the dial landed, i.e. whether the loop will return.
pub(crate) fn wake_listener(mut addr: SocketAddr) -> bool {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&addr, WAKE_TIMEOUT).is_ok()
}

/// What a daemon contributes to its client connections: the `match` on
/// the request.
pub(crate) trait RequestHandler: Send + Sync + 'static {
    /// Instance type of the jobs this daemon accepts.
    type Inst: DeserializeOwned;
    /// Subproblem type of the jobs this daemon accepts.
    type Sub: DeserializeOwned;
    /// State kept per connection across requests.
    type Conn: Default;

    /// Set once the daemon shuts down: accept loops return when woken,
    /// and [`serve_clients`] then closes every client connection.
    fn shutdown(&self) -> &AtomicBool;

    /// Called for every connection the client listener accepts (a
    /// daemon that counts them overrides it).
    fn connection_accepted(&self) {}

    /// Answers one request on `out`. `Ok(false)` closes the connection
    /// (after `Shutdown`); an error closes it too.
    fn handle(
        &self,
        conn: &mut Self::Conn,
        req: ClientRequest<Self::Inst, Self::Sub>,
        out: &mut TcpStream,
    ) -> io::Result<bool>;
}

/// Runs the client listener of a daemon: accepts until shutdown and
/// serves every connection on a thread of its own named `thread_name`.
/// When the accept loop ends, every connection still open is shut
/// down, which ends its thread's blocking read at once.
pub(crate) fn serve_clients<H: RequestHandler>(
    handler: Arc<H>,
    listener: TcpListener,
    thread_name: &'static str,
) {
    const POISONED: &str = "a connection thread panicked while holding the connection table";
    let open: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::default();
    let mut next = 0u64;
    accept_loop(listener, handler.shutdown(), |stream| {
        handler.connection_accepted();
        let Ok(dup) = stream.try_clone() else { return };
        let id = next;
        next += 1;
        open.lock().expect(POISONED).insert(id, dup);
        let (handler, open) = (handler.clone(), open.clone());
        let _ = std::thread::Builder::new().name(thread_name.into()).spawn(move || {
            let _ = serve_conn(&*handler, stream);
            open.lock().expect(POISONED).remove(&id);
        });
    });
    for (_, stream) in open.lock().expect(POISONED).drain() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// The framed request loop of one client connection.
fn serve_conn<H: RequestHandler>(handler: &H, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let mut dec = FrameDecoder::new();
    let mut conn = H::Conn::default();
    while let Some(req) = wire::read_msg(&mut reader, &mut dec)? {
        if !handler.handle(&mut conn, req, &mut writer)? {
            break;
        }
    }
    Ok(())
}

/// The metric-label spelling of a job state.
pub(crate) fn state_label(state: JobState) -> &'static str {
    match state {
        JobState::Queued => "queued",
        JobState::Running => "running",
        JobState::Solved => "solved",
        JobState::Infeasible => "infeasible",
        JobState::TimedOut => "timed_out",
        JobState::Cancelled => "cancelled",
        JobState::Failed => "failed",
    }
}

/// The `Finished` event of a job that never ran (cancelled while
/// queued, swept up by shutdown, lost with its shard): no bounds, no
/// nodes, no solution.
pub(crate) fn empty_finished<Sol>(state: JobState, run_index: u32) -> JobEventKind<Sol> {
    JobEventKind::Finished {
        state,
        obj: None,
        dual_bound: f64::NEG_INFINITY,
        solution: None,
        nodes: 0,
        nodes_so_far: 0,
        run_index,
        open_nodes: 0,
        workers_lost: 0,
        wall_time: 0.0,
        final_checkpoint: None,
    }
}

/// One job's append-only event log plus progress-dedup watermarks.
struct JobLog<Sol> {
    events: Vec<JobEvent<Sol>>,
    /// The `Finished` event is in `events`; nothing is appended after.
    done: bool,
    best_obj: Option<f64>,
    best_bound: f64,
}

impl<Sol> Default for JobLog<Sol> {
    fn default() -> Self {
        JobLog { events: Vec::new(), done: false, best_obj: None, best_bound: f64::NEG_INFINITY }
    }
}

/// The event logs of every job a daemon knows, keyed by job id, with
/// the condvar that wakes watchers streaming them.
pub(crate) struct EventLog<Sol> {
    logs: Mutex<HashMap<u64, JobLog<Sol>>>,
    appended: Condvar,
}

impl<Sol> EventLog<Sol> {
    pub(crate) fn new() -> Self {
        EventLog { logs: Mutex::new(HashMap::new()), appended: Condvar::new() }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, JobLog<Sol>>> {
        self.logs.lock().expect("a thread panicked while holding the event logs")
    }

    /// Appends what `pick` returns to `job`'s log (created on first
    /// use) under the next dense sequence number and wakes watchers.
    /// Nothing is appended after the job's `Finished` event.
    fn append(&self, job: u64, pick: impl FnOnce(&mut JobLog<Sol>) -> Option<JobEventKind<Sol>>) {
        let mut logs = self.lock();
        let log = logs.entry(job).or_default();
        if log.done {
            return;
        }
        let Some(kind) = pick(log) else { return };
        log.done = matches!(kind, JobEventKind::Finished { .. });
        let seq = log.events.len();
        log.events.push(JobEvent { job, seq, kind });
        self.appended.notify_all();
    }

    /// Appends one event to `job`'s log.
    pub(crate) fn emit(&self, job: u64, kind: JobEventKind<Sol>) {
        self.append(job, |_| Some(kind));
    }

    /// Turns upward coordination traffic into deduped progress events:
    /// strictly improving incumbents and finite, strictly improving
    /// dual bounds. Everything else is ignored.
    pub(crate) fn emit_progress<Sub>(&self, job: u64, msg: &Message<Sub, Sol>) {
        match *msg {
            Message::SolutionFound { obj, .. } => self.append(job, |log| {
                let improves = log.best_obj.is_none_or(|cur| obj < cur - crate::OBJ_EPS);
                improves.then(|| {
                    log.best_obj = Some(obj);
                    JobEventKind::Incumbent { obj }
                })
            }),
            Message::Status { dual_bound, .. } if dual_bound.is_finite() => {
                self.append(job, |log| {
                    (dual_bound > log.best_bound + crate::OBJ_EPS).then(|| {
                        log.best_bound = dual_bound;
                        JobEventKind::Bound { dual_bound }
                    })
                })
            }
            _ => {}
        }
    }

    /// Drops every log (a demoted gateway forgets its jobs); watchers
    /// in [`Self::stream`] end with an error reply.
    pub(crate) fn clear(&self) {
        self.lock().clear();
        self.appended.notify_all();
    }

    /// Wakes every watcher so it re-checks its shutdown flag.
    pub(crate) fn wake(&self) {
        self.appended.notify_all();
    }

    /// Serves one `Watch`: writes `job`'s events from `from_seq` on to
    /// `out` as [`ServerReply::Event`]s and returns once the terminal
    /// `Finished` event is out or `shutdown` is set. A client that lost
    /// its connection resumes with the `seq` after the last event it
    /// saw and misses or repeats nothing.
    ///
    /// When `job` has no log the stream ends with one
    /// [`ServerReply::Error`] whose message `gone` builds from whether
    /// this watch had already found the log (`true`: it was cleared
    /// mid-watch; `false`: the job is unknown).
    pub(crate) fn stream<W: Write>(
        &self,
        out: &mut W,
        shutdown: &AtomicBool,
        job: u64,
        from_seq: usize,
        gone: impl Fn(bool) -> String,
    ) -> io::Result<()>
    where
        Sol: Clone + Serialize,
    {
        let mut next = from_seq;
        let mut found = false;
        loop {
            let (batch, done_len) = {
                let logs = self.lock();
                let Some(log) = logs.get(&job) else {
                    drop(logs);
                    let message = gone(found);
                    return wire::write_msg(out, &ServerReply::<Sol>::Error { message });
                };
                let batch: Vec<JobEvent<Sol>> =
                    log.events.get(next..).map(|s| s.to_vec()).unwrap_or_default();
                (batch, log.done.then_some(log.events.len()))
            };
            found = true;
            next += batch.len();
            for event in batch {
                wire::write_msg(out, &ServerReply::<Sol>::Event { event })?;
            }
            // `done` means the Finished event is in the log; once everything
            // up to the log's end is sent there is nothing more to stream.
            if done_len.is_some_and(|len| next >= len) || shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            // Wait only if nothing was appended while the batch was on
            // its way out: that append's wake-up found nobody waiting.
            let logs = self.lock();
            if logs.get(&job).is_some_and(|log| log.events.len() <= next) {
                drop(
                    self.appended
                        .wait_timeout(logs, STREAM_WAIT)
                        .expect("a thread panicked while holding the event logs"),
                );
            }
        }
    }
}

/// Set by the SIGTERM handler. A signal handler may only do
/// async-signal-safe work, and a relaxed store to a static atomic is
/// exactly that.
static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    SIGTERM_RECEIVED.store(true, Ordering::Relaxed);
}

/// Installs the SIGTERM handler via the C `signal()` entry point that
/// libc (already linked by std) exports — no new dependency.
fn install_sigterm_handler() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: *const ()) -> *const ();
        }
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is libc's; `on_sigterm` has the handler ABI
        // and only stores to a static atomic.
        unsafe {
            signal(SIGTERM, on_sigterm as *const ());
        }
    }
}

/// The main-thread wait of a daemon binary: blocks until
/// `shutdown_requested` turns true (a client sent `Shutdown`) or the
/// process receives SIGTERM, polling every 50 ms — invisible next to
/// job runtimes, and a flag is all a signal handler may set.
///
/// Returns true when SIGTERM came first, after printing `announce` to
/// standard output: the caller then drains. A supervisor that sent the
/// SIGTERM may have closed our stdout already, so a failed write is
/// ignored — `println!` would panic on EPIPE and the drain, with its
/// final checkpoints, would never run.
pub fn wait_for_shutdown_or_sigterm(shutdown_requested: impl Fn() -> bool, announce: &str) -> bool {
    install_sigterm_handler();
    while !shutdown_requested() && !SIGTERM_RECEIVED.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
    }
    if shutdown_requested() {
        return false;
    }
    let _ = writeln!(io::stdout(), "{announce}");
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    type Log = EventLog<u32>;

    fn finished(state: JobState) -> JobEventKind<u32> {
        empty_finished(state, 1)
    }

    /// Decodes the replies a `stream` call wrote into `bytes`.
    fn replies(bytes: &[u8]) -> Vec<ServerReply<u32>> {
        let mut dec = FrameDecoder::new();
        dec.push(bytes);
        let mut out = Vec::new();
        while let Some(frame) = dec.next_frame().expect("well-formed frames") {
            out.push(wire::decode(&frame).expect("a ServerReply"));
        }
        out
    }

    /// Streams `job` from `from_seq` to the end and returns `(seq, is
    /// Finished)` of every event, panicking on any other reply.
    fn watch(log: &Log, job: u64, from_seq: usize) -> Vec<(usize, bool)> {
        let mut bytes = Vec::new();
        log.stream(&mut bytes, &AtomicBool::new(false), job, from_seq, |_| unreachable!()).unwrap();
        replies(&bytes)
            .into_iter()
            .map(|r| match r {
                ServerReply::Event { event } => {
                    assert_eq!(event.job, job);
                    (event.seq, matches!(event.kind, JobEventKind::Finished { .. }))
                }
                other => panic!("unexpected reply {other:?}"),
            })
            .collect()
    }

    /// A daemon of the smallest kind: `Status` and `Watch` over one
    /// event log, everything else refused.
    struct Daemon {
        shutdown: AtomicBool,
        events: Log,
    }

    impl RequestHandler for Daemon {
        type Inst = u32;
        type Sub = u32;
        type Conn = ();

        fn shutdown(&self) -> &AtomicBool {
            &self.shutdown
        }

        fn handle(
            &self,
            _conn: &mut (),
            req: ClientRequest<u32, u32>,
            out: &mut TcpStream,
        ) -> io::Result<bool> {
            match req {
                ClientRequest::Status => {
                    let status = crate::server::ServerStatus {
                        pool_target: 0,
                        workers: Vec::new(),
                        queued: Vec::new(),
                        jobs: Vec::new(),
                    };
                    wire::write_msg(out, &ServerReply::<u32>::Status { status })?;
                }
                ClientRequest::Watch { job, from_seq } => {
                    let gone = |_| format!("unknown job {job}");
                    self.events.stream(out, &self.shutdown, job, from_seq, gone)?;
                }
                _ => wire::write_msg(out, &ServerReply::<u32>::Error { message: "no".into() })?,
            }
            Ok(true)
        }
    }

    type Client = crate::server::JobClient<u32, u32, u32>;

    /// Starts a [`Daemon`] on an OS-picked port; returns it, its
    /// address and its accept thread.
    fn daemon() -> (Arc<Daemon>, SocketAddr, std::thread::JoinHandle<()>) {
        let daemon = Arc::new(Daemon { shutdown: AtomicBool::new(false), events: Log::new() });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handler = daemon.clone();
        let accept = std::thread::spawn(move || serve_clients(handler, listener, "test-client"));
        (daemon, addr, accept)
    }

    /// Sets the flag, wakes the listener and returns how long the
    /// accept thread took to end.
    fn stop(daemon: &Daemon, addr: SocketAddr, accept: std::thread::JoinHandle<()>) -> Duration {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let t0 = std::time::Instant::now();
        daemon.shutdown.store(true, Ordering::SeqCst);
        assert!(wake_listener(addr), "the wake-up dial must land");
        std::thread::spawn(move || {
            accept.join().expect("the accept thread must not panic");
            let _ = done_tx.send(());
        });
        done_rx.recv_timeout(Duration::from_secs(5)).expect("the accept loop must return");
        t0.elapsed()
    }

    #[test]
    fn a_blocked_accept_loop_returns_promptly_on_shutdown() {
        let (daemon, addr, accept) = daemon();
        // No client ever connects: the loop sits in `accept()`.
        std::thread::sleep(Duration::from_millis(30));
        let took = stop(&daemon, addr, accept);
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    }

    /// Every dial used to wait out the rest of a 10 ms poll interval:
    /// 200 of them took a second or more.
    #[test]
    fn sequential_dials_are_accepted_at_once() {
        let (daemon, addr, accept) = daemon();
        let t0 = std::time::Instant::now();
        for _ in 0..200 {
            let mut client = Client::connect(&addr.to_string()).unwrap();
            client.status().unwrap();
        }
        let took = t0.elapsed();
        stop(&daemon, addr, accept);
        assert!(took < Duration::from_millis(400), "200 dial + Status round trips took {took:?}");
    }

    #[test]
    fn a_persistent_accept_error_does_not_spin() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let attempts = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let looper = {
            let (shutdown, attempts) = (shutdown.clone(), attempts.clone());
            std::thread::spawn(move || {
                let failing = || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    Err(io::Error::other("too many open files"))
                };
                run_accept(failing, &shutdown, |_| panic!("nothing was accepted"));
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        shutdown.store(true, Ordering::SeqCst);
        looper.join().unwrap();
        let n = attempts.load(Ordering::SeqCst);
        assert!((2..=8).contains(&n), "{n} accept attempts in 50 ms at a 10 ms back-off");
    }

    /// What a gateway's pooled connection relies on (PROTOCOL.md §4.4):
    /// a `Watch` stream ends with `Finished` or one `Error`, and the
    /// connection then serves the next request.
    #[test]
    fn watches_in_a_row_on_one_connection_each_deliver_their_own_job() {
        let (daemon, addr, accept) = daemon();
        for job in [1u64, 2] {
            daemon.events.emit(job, JobEventKind::Queued);
            daemon.events.emit(job, JobEventKind::Started { workers: job as usize });
            daemon.events.emit(job, finished(JobState::Solved));
        }
        let mut client = Client::connect(&addr.to_string()).unwrap();
        for job in [1u64, 9, 2] {
            let mut seen = Vec::new();
            let end = client.watch(job, 0, |ev| seen.push((ev.job, ev.seq)));
            if job == 9 {
                let err = end.expect_err("job 9 does not exist");
                assert!(err.to_string().contains("unknown job 9"), "{err}");
                assert!(seen.is_empty());
            } else {
                end.unwrap();
                assert_eq!(seen, vec![(job, 0), (job, 1), (job, 2)]);
            }
        }
        client.status().expect("the connection still serves requests after three streams");
        stop(&daemon, addr, accept);
    }

    #[test]
    fn resume_from_seq_delivers_exactly_the_tail() {
        let log = Log::new();
        log.emit(7, JobEventKind::Queued);
        log.emit(7, JobEventKind::Started { workers: 2 });
        log.emit(7, JobEventKind::WorkerLost { rank: 1 });
        log.emit(7, finished(JobState::Solved));
        assert_eq!(watch(&log, 7, 0), vec![(0, false), (1, false), (2, false), (3, true)]);
        assert_eq!(watch(&log, 7, 2), vec![(2, false), (3, true)]);
        assert_eq!(watch(&log, 7, 4), vec![], "a cursor at the end has nothing to re-deliver");
        assert_eq!(watch(&log, 7, 99), vec![], "a cursor past the end neither hangs nor panics");
    }

    #[test]
    fn nothing_is_appended_after_finished() {
        let log = Log::new();
        log.emit(1, JobEventKind::Queued);
        log.emit(1, finished(JobState::Cancelled));
        log.emit(1, JobEventKind::Started { workers: 1 });
        log.emit(1, finished(JobState::Solved));
        log.emit_progress::<u32>(1, &Message::SolutionFound { rank: 0, sol: 1, obj: 1.0 });
        assert_eq!(watch(&log, 1, 0), vec![(0, false), (1, true)]);
    }

    #[test]
    fn progress_is_deduped_to_strict_improvements() {
        let log = Log::new();
        let sol = |obj| Message::<u32, u32>::SolutionFound { rank: 0, sol: 0, obj };
        let status =
            |dual_bound| Message::<u32, u32>::Status { rank: 0, dual_bound, open: 1, nodes: 1 };
        for msg in [
            sol(10.0),
            sol(10.0),                 // equal: dropped
            sol(12.0),                 // worse: dropped
            status(f64::NEG_INFINITY), // not finite: dropped
            status(3.0),
            status(3.0), // equal: dropped
            status(2.0), // weaker: dropped
            sol(9.0),
            status(4.0),
            Message::Terminate, // not progress
        ] {
            log.emit_progress(5, &msg);
        }
        log.emit(5, finished(JobState::Solved));
        let mut bytes = Vec::new();
        log.stream(&mut bytes, &AtomicBool::new(false), 5, 0, |_| unreachable!()).unwrap();
        let kinds: Vec<String> = replies(&bytes)
            .into_iter()
            .map(|r| match r {
                ServerReply::Event { event } => match event.kind {
                    JobEventKind::Incumbent { obj } => format!("obj {obj}"),
                    JobEventKind::Bound { dual_bound } => format!("bound {dual_bound}"),
                    JobEventKind::Finished { .. } => "finished".into(),
                    other => panic!("unexpected event {other:?}"),
                },
                other => panic!("unexpected reply {other:?}"),
            })
            .collect();
        assert_eq!(kinds, ["obj 10", "bound 3", "obj 9", "bound 4", "finished"]);
    }

    #[test]
    fn unknown_job_is_answered_with_the_callers_message() {
        let log = Log::new();
        let mut bytes = Vec::new();
        log.stream(&mut bytes, &AtomicBool::new(false), 3, 0, |found| {
            assert!(!found, "the log never existed");
            "unknown job 3".into()
        })
        .unwrap();
        match replies(&bytes).as_slice() {
            [ServerReply::Error { message }] => assert_eq!(message, "unknown job 3"),
            other => panic!("unexpected replies {other:?}"),
        }
    }

    /// The server's copy indexed `logs[&job]` here and panicked the
    /// connection thread; the shared stream ends with an error reply.
    #[test]
    fn clearing_the_logs_mid_watch_ends_the_stream_with_an_error() {
        let log = Arc::new(Log::new());
        log.emit(2, JobEventKind::Queued);
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let watcher = {
            let log = log.clone();
            std::thread::spawn(move || {
                // Reports the first write so the test clears the map
                // only once the watcher is inside the stream loop.
                struct Tap(Vec<u8>, Option<std::sync::mpsc::Sender<()>>);
                impl Write for Tap {
                    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                        if let Some(tx) = self.1.take() {
                            let _ = tx.send(());
                        }
                        self.0.write(buf)
                    }
                    fn flush(&mut self) -> io::Result<()> {
                        Ok(())
                    }
                }
                let mut out = Tap(Vec::new(), Some(seen_tx));
                log.stream(&mut out, &AtomicBool::new(false), 2, 0, |found| {
                    assert!(found, "the watch had found the log before it vanished");
                    "job 2 is no longer tracked here".into()
                })
                .unwrap();
                out.0
            })
        };
        seen_rx.recv_timeout(Duration::from_secs(5)).expect("watcher delivered the first event");
        log.clear();
        let bytes = watcher.join().expect("the watcher must not panic");
        match replies(&bytes).as_slice() {
            [ServerReply::Event { event }, ServerReply::Error { message }] => {
                assert_eq!(event.seq, 0);
                assert_eq!(message, "job 2 is no longer tracked here");
            }
            other => panic!("unexpected replies {other:?}"),
        }
    }

    /// An event appended while the watcher is writing the previous
    /// batch notifies nobody; the watcher used to go to sleep on the
    /// condvar regardless and deliver it `STREAM_WAIT` late.
    #[test]
    fn an_event_appended_during_a_write_is_not_slept_on() {
        /// Appends the job's `Finished` inside the first write.
        struct AppendOnWrite(Arc<Log>, bool, Vec<u8>);
        impl Write for AppendOnWrite {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if !std::mem::replace(&mut self.1, true) {
                    self.0.emit(6, finished(JobState::Solved));
                }
                self.2.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let log = Arc::new(Log::new());
        log.emit(6, JobEventKind::Queued);
        let mut out = AppendOnWrite(log.clone(), false, Vec::new());
        let t0 = std::time::Instant::now();
        log.stream(&mut out, &AtomicBool::new(false), 6, 0, |_| unreachable!()).unwrap();
        let took = t0.elapsed();
        assert_eq!(replies(&out.2).len(), 2, "Queued, then the Finished appended meanwhile");
        assert!(took < STREAM_WAIT / 2, "the stream slept {took:?} on an event it already had");
    }

    #[test]
    fn shutdown_ends_an_unfinished_watch() {
        let log = Log::new();
        log.emit(4, JobEventKind::Queued);
        let mut bytes = Vec::new();
        log.stream(&mut bytes, &AtomicBool::new(true), 4, 0, |_| unreachable!()).unwrap();
        assert_eq!(replies(&bytes).len(), 1, "what is in the log is still delivered");
    }
}
