//! The distributed back-end: **ProcessComm**, `ug [ugrs-*,
//! ProcessComm]` — the ParaSCIP half of the paper's transport matrix,
//! with localhost TCP standing in for MPI.
//!
//! Topology is a star, exactly like UG's LoadCoordinator-centric MPI
//! layout: the coordinator process binds a [`ProcessListener`], spawns
//! (or is joined by) worker processes, and each worker holds one
//! connection carrying [`crate::wire`] frames both ways.
//!
//! **Handshake.** A connecting worker sends `Hello { protocol,
//! rank_hint, max_protocol, resume }` (always as a v1 frame); the
//! coordinator verifies the base protocol, negotiates the protocol
//! revision (`min(worker max_protocol, coordinator cap)`, so a v2 peer
//! holds the pair at v2 and `--codec v2` forces a rollback), assigns a
//! rank (honoring the hint when free — this is what makes spawned
//! worker *i* deterministically become rank *i*), and answers
//! `Welcome { rank, num_workers, protocol, session }`. After the
//! welcome both directions switch to checksummed v2 frames. The
//! resumable session is the only mode: a hello that advertises no
//! `max_protocol`, or one below [`MIN_SESSION_PROTOCOL`], is refused —
//! the connection is closed without a welcome and without touching a
//! rank slot. Version-mismatched or garbled connections are dropped
//! before they can corrupt a run. Each connection handshakes on its
//! own thread, so a client that stalls mid-hello occupies only itself —
//! never the accept loop, and never a rank slot (ranks are claimed
//! only once a complete hello arrives, and released again if the
//! welcome cannot be written).
//!
//! **Self-healing.** Every connection belongs to a
//! *session* identified by a token from the welcome. Reliable frames
//! carry sequence numbers and CRC32 checksums ([`crate::wire`]); both
//! ends keep a bounded retransmit ring of un-acked payloads. When a
//! connection breaks — EOF, write error, CRC corruption, or the
//! liveness sweep shutting down a silent socket — the worker
//! reconnects with exponential backoff + jitter under the
//! [`ProcessCommConfig::reconnect_deadline`] budget, presents its
//! token, and both sides replay whatever the other had not yet acked;
//! duplicate deliveries are suppressed by sequence number, and a
//! sequence *gap* (a frame from the future) is treated as a torn
//! stream that forces another reconnect, so in-stream loss can never
//! be silently accepted. During a coordinator-side resume the writer
//! stays unpublished until the replay completes — concurrent
//! `send_to` frames are ringed and flushed afterwards, in order — so
//! a fresh frame can never overtake a replayed one on the wire. The
//! supervisor never hears about a transient drop. Only when the
//! deadline expires (or with a zero deadline, or when a retransmit
//! ring overflows) does the transport synthesize
//! [`Message::WorkerDied`] — exactly once per rank — and the existing
//! requeue → pool-refill path fires. Recoveries are recorded in
//! `ugrs_comm_reconnects_total` and
//! `ugrs_comm_frames_retransmitted_total`; anomalies in
//! `ugrs_comm_seq_gaps_total` and `ugrs_comm_ring_overflows_total`.
//!
//! **Liveness.** Every worker runs a heartbeat thread sending `Ping`
//! at a fixed interval, independent of solving, so a busy-but-healthy
//! worker deep in a subtree is never declared dead. A liveness sweep
//! in `recv_timeout` catches the hung-but-connected case: the silent
//! socket is shut down, which merely opens the reconnect window.
//!
//! **Chaos.** With [`ProcessCommConfig::chaos`] set, the worker-side
//! send path consults a deterministic [`FaultInjector`] before every
//! outgoing frame and injects the scheduled delay / drop / duplicate /
//! corruption / partition / kill faults. A partition suppresses writes
//! while it lasts and tears the stream down when it lifts, so the
//! suppressed (ringed) frames are replayed by the resume instead of
//! leaving a sequence gap. The recovery path (replay on resume)
//! bypasses injection, so a seeded schedule perturbs the stream but
//! never the repair.

use crate::chaos::{ChaosConfig, FaultAction, FaultInjector, SplitMix64};
use crate::messages::Message;
use crate::rpc::{accept_loop, wake_listener};
use crate::telemetry;
use crate::wire::{self, FrameDecoder, FrameHeader};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Highest protocol revision this build speaks (v3: v2's checksummed,
/// sequence-numbered, resumable frames carrying the compact binary
/// payload codec, with writer-side frame batching). Advertised as
/// `max_protocol` in the hello; the coordinator negotiates
/// `min(worker max_protocol, coordinator cap)` — see
/// [`negotiate_protocol`] and PROTOCOL.md for the normative rules.
pub const PROTOCOL_VERSION: u32 = 3;

/// The base protocol every peer must share for the handshake itself;
/// a different value here drops the connection instead of
/// desynchronizing mid-run.
pub const BASE_PROTOCOL: u32 = 1;

/// Lowest negotiated revision a worker session may run at: the
/// checksummed, sequence-numbered, resumable frames of v2. A hello
/// that negotiates below it is refused at the handshake.
pub const MIN_SESSION_PROTOCOL: u32 = 2;

/// Un-acked payloads kept per direction for replay after a reconnect.
/// A ring that reaches capacity means the peer has been unreachable
/// past any useful resume horizon: the session is declared dead loudly
/// (counted in `ugrs_comm_ring_overflows_total`, surfacing the usual
/// requeue path) rather than silently evicting — and thereby losing —
/// the oldest un-acked payload.
const RETRANSMIT_RING_CAP: usize = 1024;

/// Write timeout applied while a retransmit ring is replayed on
/// resume. Both ends replay before their regular read loop resumes; if
/// neither read while both rings exceeded the socket buffers, the two
/// blocking `write_all`s would deadlock. The coordinator additionally
/// starts its reader *before* replaying, so this timeout is the
/// backstop that turns any residual stall into another reconnect
/// instead of a hang.
const REPLAY_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Sentinel sequence number of unsequenced frames (heartbeats and ack
/// carriers): not ringed, not replayed, exempt from duplicate
/// suppression, and they never advance the receiver's `rx_next`.
const UNSEQ: u64 = u64::MAX;

/// Coordinator sends an ack-carrying frame downward after this many
/// received frames, so a chatty worker's retransmit ring stays
/// trimmed even when no protocol traffic flows downward.
const ACK_EVERY: u64 = 64;

/// Tuning knobs of the process transport.
#[derive(Clone, Debug)]
pub struct ProcessCommConfig {
    /// How long the coordinator waits for all workers to connect and
    /// complete the hello/welcome exchange.
    pub handshake_timeout: Duration,
    /// A rank whose last frame (of any kind) is older than this is
    /// declared unreachable even though its socket is still open.
    pub liveness_timeout: Duration,
    /// Interval of the worker-side heartbeat `Ping`.
    pub heartbeat_interval: Duration,
    /// Budget for a broken connection to reconnect and resume its
    /// session before the rank is declared dead. Zero disables
    /// reconnection entirely (every break is an immediate
    /// [`Message::WorkerDied`]).
    pub reconnect_deadline: Duration,
    /// Deterministic fault-injection schedule applied to the worker's
    /// outgoing frames; `None` (the default) injects nothing. Chaos
    /// also disables frame batching: fault injection acts per frame
    /// and needs direct writes.
    pub chaos: Option<ChaosConfig>,
    /// Highest protocol revision this endpoint offers in negotiation
    /// (`--codec v2` sets 2 for a forced rollback to JSON payloads).
    /// Must lie in `MIN_SESSION_PROTOCOL..=PROTOCOL_VERSION`.
    pub max_protocol: u32,
}

impl Default for ProcessCommConfig {
    fn default() -> Self {
        ProcessCommConfig {
            handshake_timeout: Duration::from_secs(20),
            liveness_timeout: Duration::from_secs(15),
            heartbeat_interval: Duration::from_millis(500),
            reconnect_deadline: Duration::from_secs(5),
            chaos: None,
            max_protocol: PROTOCOL_VERSION,
        }
    }
}

impl ProcessCommConfig {
    /// Rejects configurations that would flap ranks: the liveness
    /// timeout must exceed twice the heartbeat interval, otherwise a
    /// single delayed ping gets a healthy rank declared dead.
    pub fn validate(&self) -> Result<(), String> {
        if self.liveness_timeout <= self.heartbeat_interval * 2 {
            return Err(format!(
                "liveness timeout ({:?}) must exceed 2x the heartbeat interval ({:?}); \
                 raise --liveness-ms or lower --heartbeat-ms",
                self.liveness_timeout, self.heartbeat_interval
            ));
        }
        if !(MIN_SESSION_PROTOCOL..=PROTOCOL_VERSION).contains(&self.max_protocol) {
            return Err(format!(
                "max_protocol {} outside supported range {}..={} (use --codec v2|v3)",
                self.max_protocol, MIN_SESSION_PROTOCOL, PROTOCOL_VERSION
            ));
        }
        Ok(())
    }

    /// The protocol revision advertised in the hello, after clamping.
    pub fn advertised_protocol(&self) -> u32 {
        self.max_protocol.clamp(MIN_SESSION_PROTOCOL, PROTOCOL_VERSION)
    }
}

/// Wraps a dup of `stream` in the writer-side frame batching of a v3
/// session: whole frames are coalesced into one socket write under the
/// measured caps of [`wire::BatchConfig::default`] (32 KiB / 1 ms),
/// with a flusher thread enforcing the latency cap. `None` — every
/// frame is written directly — for a v2 session, and whenever
/// `batching` is off (chaos is configured: fault injection acts on
/// individual writes).
fn batch_writer(
    stream: &TcpStream,
    proto: u32,
    batching: bool,
) -> Option<Arc<wire::BatchWriter<TcpStream>>> {
    if proto < 3 || !batching {
        return None;
    }
    let dup = stream.try_clone().ok()?;
    Some(Arc::new(wire::BatchWriter::new(dup, wire::BatchConfig::default())))
}

/// Tick of the flusher threads: half the latency cap.
fn flush_tick() -> Duration {
    let max_delay = wire::BatchConfig::default().max_delay;
    (max_delay / 2).clamp(Duration::from_micros(200), Duration::from_millis(10))
}

/// The negotiation rule both ends apply, factored out so it can be
/// property-tested: the session speaks
/// `min(peer's advertised max, our configured cap)`, floored at the
/// base protocol. A peer that does not advertise (`None`, a pre-v2
/// build) lands on v1 — below [`MIN_SESSION_PROTOCOL`], so the
/// handshake refuses it.
pub fn negotiate_protocol(local_cap: u32, peer_max: Option<u32>) -> u32 {
    peer_max.unwrap_or(BASE_PROTOCOL).min(local_cap).clamp(BASE_PROTOCOL, PROTOCOL_VERSION)
}

/// The payload encoding a negotiated revision implies: binary from v3
/// on, JSON below.
pub(crate) fn payload_codec(proto: u32) -> wire::Codec {
    if proto >= 3 {
        wire::Codec::Binary
    } else {
        wire::Codec::Json
    }
}

/// Parses a `--codec` flag value into a protocol cap: `v2`/`v3` (or
/// bare digits), plus the aliases `json` (= v2) and `binary` (= v3).
/// Shared by the daemon binaries and the runner.
pub fn parse_codec_flag(s: &str) -> Result<u32, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "v2" | "2" | "json" => Ok(2),
        "v3" | "3" | "binary" | "bin" => Ok(3),
        other => Err(format!("unknown codec {other:?} (expected v2, v3, json, or binary)")),
    }
}

fn validated(config: &ProcessCommConfig) -> io::Result<()> {
    config.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))
}

/// Everything that crosses a worker connection after the handshake.
#[derive(serde::Serialize, serde::Deserialize)]
enum WireMsg<Sub, Sol> {
    /// Keep-alive / ack carrier; consumed by the transport, never
    /// surfaced to coordination logic.
    Ping { rank: usize },
    /// A protocol message, verbatim.
    Msg(Message<Sub, Sol>),
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Hello {
    /// Always [`BASE_PROTOCOL`]; kept first so pre-v2 coordinators
    /// accept new workers unchanged.
    protocol: u32,
    rank_hint: Option<usize>,
    /// Highest protocol revision the worker speaks; a hello without
    /// it (a pre-v2 worker) is refused.
    #[serde(default)]
    max_protocol: Option<u32>,
    /// Present when re-attaching to an existing session.
    #[serde(default)]
    resume: Option<Resume>,
}

#[derive(serde::Serialize, serde::Deserialize, Clone, Copy)]
struct Resume {
    /// The session token from the original welcome.
    token: u64,
    /// Next downward seq the worker expects; the coordinator replays
    /// its ring from here.
    rx_next: u64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Welcome {
    rank: usize,
    num_workers: usize,
    /// Negotiated protocol revision; a welcome without it (a pre-v2
    /// coordinator) is refused by the worker.
    #[serde(default)]
    protocol: Option<u32>,
    /// The session identity, and on resume the next upward seq the
    /// coordinator expects (the worker replays from it).
    #[serde(default)]
    session: Option<Session>,
}

#[derive(serde::Serialize, serde::Deserialize, Clone, Copy)]
struct Session {
    token: u64,
    rx_next: u64,
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

/// Per-rank connection state. Lock ordering: a `Link` mutex is always
/// taken *before* `Shared::last_heard`, never the other way around.
struct Link {
    /// Write half; `None` while disconnected (or before first claim).
    writer: Option<TcpStream>,
    /// Negotiated protocol revision of the current session (2 or 3).
    proto: u32,
    /// v3 batching writer wrapping a dup of `writer`; `None` while
    /// disconnected or when the session does not batch. Cleared by
    /// [`Link::disconnect`] so buffered-but-unsent frames are replayed
    /// from the ring on resume instead of leaking.
    batch: Option<Arc<wire::BatchWriter<TcpStream>>>,
    /// Bumped on every (re)connection; readers spawned for an older
    /// epoch must drop everything they hold.
    epoch: u64,
    /// A worker has completed a hello for this rank at least once.
    claimed: bool,
    /// Session identity a reconnecting worker must present.
    token: u64,
    /// Terminal; set at most once, and `WorkerDied` is synthesized by
    /// whoever sets it.
    died: bool,
    /// When the current disconnection began; `None` while connected.
    disconnected_since: Option<Instant>,
    /// Next downward sequence number.
    tx_next: u64,
    /// Un-acked downward payloads for replay on resume.
    ring: VecDeque<(u64, Arc<Vec<u8>>)>,
    /// Next upward seq expected; anything below is a duplicate.
    rx_next: u64,
    /// Upward frames since the last downward ack carrier.
    rx_count: u64,
}

impl Link {
    fn new() -> Self {
        Link {
            writer: None,
            proto: MIN_SESSION_PROTOCOL,
            batch: None,
            epoch: 0,
            claimed: false,
            token: 0,
            died: false,
            disconnected_since: None,
            tx_next: 0,
            ring: VecDeque::new(),
            rx_next: 0,
            rx_count: 0,
        }
    }

    fn trim_ring(&mut self, ack: u64) {
        while self.ring.front().is_some_and(|(seq, _)| *seq < ack) {
            self.ring.pop_front();
        }
    }

    fn disconnect(&mut self) {
        self.batch = None;
        if let Some(s) = self.writer.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        if self.disconnected_since.is_none() {
            self.disconnected_since = Some(Instant::now());
        }
    }

    /// Payload codec of the current session.
    fn codec(&self) -> wire::Codec {
        payload_codec(self.proto)
    }

    /// Routes one already-framed buffer through the batching writer
    /// when the session batches, else writes it directly. Failures
    /// disconnect the link (opening the reconnect window); a missing
    /// writer is a no-op — sequenced frames are already ringed and the
    /// resume replays them.
    fn write_framed(&mut self, framed: &[u8]) {
        use std::io::Write;
        if let Some(batch) = self.batch.clone() {
            if batch.push(framed).is_err() {
                self.disconnect();
            }
        } else if let Some(w) = self.writer.as_mut() {
            if w.write_all(framed).and_then(|_| w.flush()).is_err() {
                self.disconnect();
            }
        }
    }

    /// (Re)creates the batching writer from a dup of the published
    /// writer; call after `writer` and `proto` are set.
    fn attach_batch(&mut self, batching: bool) {
        self.batch = self.writer.as_ref().and_then(|w| batch_writer(w, self.proto, batching));
    }
}

struct Shared {
    links: Vec<Mutex<Link>>,
    last_heard: Mutex<Vec<Instant>>,
    /// Serializes rank selection across concurrent handshake threads.
    claim_lock: Mutex<()>,
    /// Signalled (under `claim_lock`) whenever a rank's first handshake
    /// is complete; what [`ProcessListener::accept_workers`] waits on.
    rank_ready: Condvar,
    shutdown: AtomicBool,
    liveness_timeout: Duration,
    reconnect_deadline: Duration,
    /// Coordinator-side protocol cap offered in negotiation.
    max_protocol: u32,
    /// v3 sessions batch their writes (off under chaos).
    batching: bool,
}

fn fresh_token() -> u64 {
    static SALT: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let raw = nanos ^ (std::process::id() as u64) << 32 ^ SALT.fetch_add(1, Ordering::Relaxed);
    let mut rng = SplitMix64::new(raw);
    // 53 bits: survives any JSON number path unscathed.
    rng.next_u64() >> 11
}

/// The coordinator's accept socket. Bind first, then spawn workers
/// pointed at [`Self::local_addr`], then collect them with
/// [`Self::accept_workers`].
pub struct ProcessListener {
    listener: TcpListener,
}

impl ProcessListener {
    /// Binds; pass port 0 (e.g. `"127.0.0.1:0"`) to let the OS pick.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Ok(ProcessListener { listener: TcpListener::bind(addr)? })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and handshakes exactly `n` workers, then returns the
    /// coordinator endpoint. Connections with the wrong protocol
    /// version (or that fail to say hello in time) are dropped and do
    /// not count toward `n`. The accept loop keeps running in the
    /// background afterwards, so broken sessions can reconnect for as
    /// long as the endpoint lives.
    pub fn accept_workers<Sub, Sol>(
        self,
        n: usize,
        config: &ProcessCommConfig,
    ) -> io::Result<ProcessLcComm<Sub, Sol>>
    where
        Sub: Serialize + DeserializeOwned + Send + 'static,
        Sol: Serialize + DeserializeOwned + Send + 'static,
    {
        validated(config)?;
        let deadline = Instant::now() + config.handshake_timeout;
        let shared = Arc::new(Shared {
            links: (0..n).map(|_| Mutex::new(Link::new())).collect(),
            last_heard: Mutex::new(vec![Instant::now(); n]),
            claim_lock: Mutex::new(()),
            rank_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            liveness_timeout: config.liveness_timeout,
            reconnect_deadline: config.reconnect_deadline,
            max_protocol: config.advertised_protocol(),
            batching: config.chaos.is_none(),
        });
        let (up_tx, up_rx) = channel();
        let addr = self.listener.local_addr()?;
        let accept = spawn_accept_loop::<Sub, Sol>(self.listener, shared.clone(), up_tx.clone());
        spawn_lc_flusher(shared.clone());
        // From here on dropping `lc` — the error return below included
        // — stops the accept loop.
        let lc =
            ProcessLcComm { shared: shared.clone(), up_rx, up_tx, accept: Some((addr, accept)) };

        // Wait until every rank has completed a handshake (its link
        // carries a connection epoch): only then can `send_to` reach it.
        let mut claim = shared.claim_lock.lock().unwrap();
        loop {
            let ready = shared.links.iter().filter(|l| l.lock().unwrap().epoch > 0).count();
            if ready == n {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("only {ready}/{n} workers connected in time"),
                ));
            }
            claim = shared.rank_ready.wait_timeout(claim, deadline - now).unwrap().0;
        }
        drop(claim);
        Ok(lc)
    }
}

/// Persistent accept loop: hands every inbound connection to its own
/// handshake thread and exits when the endpoint shuts down.
fn spawn_accept_loop<Sub, Sol>(
    listener: TcpListener,
    shared: Arc<Shared>,
    up_tx: Sender<Message<Sub, Sol>>,
) -> std::thread::JoinHandle<()>
where
    Sub: Serialize + DeserializeOwned + Send + 'static,
    Sol: Serialize + DeserializeOwned + Send + 'static,
{
    std::thread::Builder::new()
        .name("lc-accept".into())
        .spawn(move || {
            accept_loop(listener, &shared.shutdown, |stream| {
                let shared = shared.clone();
                let up_tx = up_tx.clone();
                std::thread::Builder::new()
                    .name("lc-handshake".into())
                    .spawn(move || {
                        if let Err(e) = handshake_accept(stream, &shared, up_tx) {
                            if e.kind() == io::ErrorKind::InvalidData {
                                eprintln!("ugrs: refused a worker connection: {e}");
                            }
                        }
                    })
                    .expect("spawn lc handshake thread");
            })
        })
        .expect("spawn lc accept thread")
}

/// Sweeps every link's batching writer and flushes buffers older than
/// the latency cap, so a lone small frame never waits longer than
/// `BatchConfig::max_delay` for a companion. Runs for the lifetime of
/// the endpoint; exits once `shutdown` is set. Flushing happens on a
/// clone of the batch handle *outside* the link lock — on failure the
/// lock is retaken and the link disconnected only if the same batch is
/// still installed (a reconnect may have superseded it meanwhile).
fn spawn_lc_flusher(shared: Arc<Shared>) {
    if !shared.batching {
        return;
    }
    let tick = flush_tick();
    std::thread::Builder::new()
        .name("lc-flusher".into())
        .spawn(move || loop {
            std::thread::sleep(tick);
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            for slot in &shared.links {
                let batch = slot.lock().unwrap().batch.clone();
                if let Some(b) = batch {
                    if b.flush_if_due().is_err() {
                        let mut link = slot.lock().unwrap();
                        if link.batch.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, &b)) {
                            link.disconnect();
                        }
                    }
                }
            }
        })
        .expect("spawn lc flusher thread");
}

/// Performs the coordinator half of the hello/welcome exchange on one
/// connection: claims a rank for a fresh worker, or re-attaches a
/// returning worker to its session and replays the un-acked ring. A
/// rank is claimed only after a complete hello, and released again if
/// the welcome cannot be delivered — a stalling or bogus client can
/// never leave a slot half-registered.
fn handshake_accept<Sub, Sol>(
    stream: TcpStream,
    shared: &Arc<Shared>,
    up_tx: Sender<Message<Sub, Sol>>,
) -> io::Result<()>
where
    Sub: Serialize + DeserializeOwned + Send + 'static,
    Sol: Serialize + DeserializeOwned + Send + 'static,
{
    let n = shared.links.len();
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = stream.try_clone()?;
    let mut dec = FrameDecoder::new();
    let hello: Hello = wire::read_msg(&mut reader, &mut dec)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed before hello"))?;
    if hello.protocol != BASE_PROTOCOL {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("protocol {} != {}", hello.protocol, BASE_PROTOCOL),
        ));
    }

    if let Some(resume) = hello.resume {
        return handshake_resume(stream, shared, up_tx, resume);
    }

    let proto = negotiate_protocol(shared.max_protocol, hello.max_protocol);
    if proto < MIN_SESSION_PROTOCOL {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "hello advertises max_protocol {:?}, which negotiates v{proto}; only \
                 resumable sessions (v{MIN_SESSION_PROTOCOL}+) are served — upgrade the worker",
                hello.max_protocol
            ),
        ));
    }
    let token = fresh_token();

    // Claim a rank (hint when free, else first unclaimed) under the
    // claim lock so concurrent handshakes cannot race to one slot.
    let rank = {
        let _claim = shared.claim_lock.lock().unwrap();
        let free = |r: usize| !shared.links[r].lock().unwrap().claimed;
        let rank = match hello.rank_hint {
            Some(h) if h < n && free(h) => Some(h),
            _ => (0..n).find(|&r| free(r)),
        };
        let Some(rank) = rank else {
            return Err(io::Error::other("all ranks claimed"));
        };
        shared.links[rank].lock().unwrap().claimed = true;
        rank
    };

    let welcome = Welcome {
        rank,
        num_workers: n,
        protocol: Some(proto),
        session: Some(Session { token, rx_next: 0 }),
    };
    if let Err(e) = wire::write_msg(&mut (&stream), &welcome) {
        // Welcome undeliverable: release the slot for a late,
        // legitimate worker instead of leaving it half-registered.
        shared.links[rank].lock().unwrap().claimed = false;
        return Err(e);
    }

    let epoch = {
        let mut link = shared.links[rank].lock().unwrap();
        link.writer = Some(stream);
        link.proto = proto;
        link.attach_batch(shared.batching);
        link.epoch += 1;
        link.token = token;
        link.died = false;
        link.disconnected_since = None;
        link.tx_next = 0;
        link.ring.clear();
        link.rx_next = 0;
        link.rx_count = 0;
        link.epoch
    };
    // Under the claim lock, or a waiter between its count and its wait
    // would miss the wake-up.
    drop(shared.claim_lock.lock().unwrap());
    shared.rank_ready.notify_all();
    shared.last_heard.lock().unwrap()[rank] = Instant::now();
    reader.set_read_timeout(None)?;
    dec.set_v2(true);
    spawn_lc_reader::<Sub, Sol>(rank, epoch, reader, dec, shared.clone(), up_tx);
    Ok(())
}

/// Re-attaches a returning worker: validates the session token,
/// replays every un-acked downward frame, and restarts the reader.
///
/// Two ordering rules keep the resume safe. The writer stays
/// *unpublished* (`link.writer == None`) until the whole replay is on
/// the wire: a concurrent `send_to` therefore rings its payload
/// without writing, and those frames are flushed — in sequence order,
/// under the link lock — just before publication, so a fresh frame
/// can never overtake a replayed one (the worker would bump its
/// `rx_next` past the replay and discard the rest as duplicates). And
/// the reader is spawned *before* the replay starts: the worker is
/// replaying its own ring at the same time, and with neither side
/// reading, two rings larger than the socket buffers would deadlock
/// both `write_all`s ([`REPLAY_WRITE_TIMEOUT`] backstops the rest).
fn handshake_resume<Sub, Sol>(
    stream: TcpStream,
    shared: &Arc<Shared>,
    up_tx: Sender<Message<Sub, Sol>>,
    resume: Resume,
) -> io::Result<()>
where
    Sub: Serialize + DeserializeOwned + Send + 'static,
    Sol: Serialize + DeserializeOwned + Send + 'static,
{
    use std::io::Write;
    let stale = || io::Error::new(io::ErrorKind::NotFound, "unknown or dead session token");
    let rank = shared
        .links
        .iter()
        .position(|l| {
            let l = l.lock().unwrap();
            l.claimed && !l.died && l.token == resume.token
        })
        .ok_or_else(stale)?;

    let reader = stream.try_clone()?;
    let mut writer = stream;
    writer.set_write_timeout(Some(REPLAY_WRITE_TIMEOUT))?;
    // Marks the link disconnected again (unless superseded) so the
    // reconnect window stays open for the next attempt.
    let fail = |writer: &TcpStream, epoch: u64| {
        let _ = writer.shutdown(Shutdown::Both);
        let mut link = shared.links[rank].lock().unwrap();
        if link.epoch == epoch && link.disconnected_since.is_none() {
            link.disconnected_since = Some(Instant::now());
        }
    };

    let (epoch, replay, rx_next, tx_high) = {
        let mut link = shared.links[rank].lock().unwrap();
        // Double-check under the lock (a racing resume may have won).
        if link.died || link.token != resume.token {
            return Err(stale());
        }
        // Kick out a half-alive predecessor connection, if any.
        if let Some(old) = link.writer.take() {
            let _ = old.shutdown(Shutdown::Both);
        }
        link.epoch += 1;
        let welcome = Welcome {
            rank,
            num_workers: shared.links.len(),
            // A resumed session keeps the protocol (and codec) it was
            // negotiated with; renegotiating mid-session would tear
            // the already-ringed payloads' encoding from under it.
            protocol: Some(link.proto),
            session: Some(Session { token: link.token, rx_next: link.rx_next }),
        };
        wire::write_msg(&mut (&writer), &welcome)?;
        link.trim_ring(resume.rx_next);
        let replay: Vec<(u64, Arc<Vec<u8>>)> = link.ring.iter().cloned().collect();
        // Writer deliberately NOT published yet; see the doc comment.
        link.disconnected_since = None;
        (link.epoch, replay, link.rx_next, link.tx_next)
    };

    // The session is re-attached: count the reconnect now, before the
    // reader can surface any resumed traffic (a test observing the
    // replayed messages must already see the counter).
    let comm_stats = telemetry::comm();
    comm_stats.reconnects.inc();

    // Reader first (see the doc comment), then the replay, outside the
    // link lock: the frames are already ordered and the receiver
    // suppresses any duplicate by seq.
    shared.last_heard.lock().unwrap()[rank] = Instant::now();
    reader.set_read_timeout(None)?;
    let mut dec = FrameDecoder::new();
    dec.set_v2(true);
    spawn_lc_reader::<Sub, Sol>(rank, epoch, reader, dec, shared.clone(), up_tx);
    for (seq, payload) in &replay {
        let framed = wire::frame_v2(payload, FrameHeader { seq: *seq, ack: rx_next });
        if writer.write_all(&framed).and_then(|_| writer.flush()).is_err() {
            fail(&writer, epoch);
            return Ok(());
        }
        comm_stats.frames_retransmitted.inc();
    }

    // Publish the writer, first flushing whatever `send_to` ringed
    // while it was unpublished (every seq from `tx_high` up). The
    // write timeout is still armed, so a stalled peer fails this
    // resume instead of hanging the coordinator on a held link lock.
    {
        let mut link = shared.links[rank].lock().unwrap();
        if link.epoch != epoch || link.died {
            let _ = writer.shutdown(Shutdown::Both);
            return Ok(()); // a newer connection took over mid-replay
        }
        let pending: Vec<(u64, Arc<Vec<u8>>)> =
            link.ring.iter().filter(|(seq, _)| *seq >= tx_high).cloned().collect();
        for (seq, payload) in &pending {
            let framed = wire::frame_v2(payload, FrameHeader { seq: *seq, ack: link.rx_next });
            if writer.write_all(&framed).and_then(|_| writer.flush()).is_err() {
                let _ = writer.shutdown(Shutdown::Both);
                if link.disconnected_since.is_none() {
                    link.disconnected_since = Some(Instant::now());
                }
                return Ok(());
            }
        }
        if writer.set_write_timeout(None).is_err() {
            let _ = writer.shutdown(Shutdown::Both);
            if link.disconnected_since.is_none() {
                link.disconnected_since = Some(Instant::now());
            }
            return Ok(());
        }
        link.writer = Some(writer);
        link.attach_batch(shared.batching);
    }
    Ok(())
}

fn spawn_lc_reader<Sub, Sol>(
    rank: usize,
    epoch: u64,
    mut stream: TcpStream,
    mut dec: FrameDecoder,
    shared: Arc<Shared>,
    up_tx: Sender<Message<Sub, Sol>>,
) where
    Sub: Serialize + DeserializeOwned + Send + 'static,
    Sol: Serialize + DeserializeOwned + Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("lc-reader-{rank}"))
        .spawn(move || loop {
            match wire::read_frame(&mut stream, &mut dec) {
                Ok(Some((header, payload))) => {
                    // Header bookkeeping under the link lock; decoding
                    // happens outside it.
                    {
                        let mut link = shared.links[rank].lock().unwrap();
                        if link.epoch != epoch {
                            return; // superseded by a reconnection
                        }
                        if header.seq != UNSEQ {
                            if header.seq < link.rx_next {
                                telemetry::comm().dup_frames.inc();
                                drop(link);
                                shared.last_heard.lock().unwrap()[rank] = Instant::now();
                                continue;
                            }
                            if header.seq > link.rx_next {
                                // A gap means frames vanished from the
                                // byte stream — never silently accept
                                // it; force a reconnect so the resume
                                // replays the missing range (from our
                                // unmoved rx_next).
                                telemetry::comm().seq_gaps.inc();
                                drop(link);
                                let gap = io::Error::new(
                                    io::ErrorKind::ConnectionReset,
                                    "upward sequence gap",
                                );
                                lc_reader_on_error(rank, epoch, &shared, &up_tx, Some(gap));
                                return;
                            }
                            link.rx_next = header.seq + 1;
                        }
                        link.trim_ring(header.ack);
                        link.rx_count += 1;
                        if link.rx_count.is_multiple_of(ACK_EVERY) {
                            let ping = wire::to_payload_codec(
                                &WireMsg::<Sub, Sol>::Ping { rank },
                                link.codec(),
                            );
                            let ack = link.rx_next;
                            if link.writer.is_some() {
                                let framed = wire::frame_v2(&ping, FrameHeader { seq: UNSEQ, ack });
                                link.write_framed(&framed);
                            }
                        }
                    }
                    shared.last_heard.lock().unwrap()[rank] = Instant::now();
                    match wire::decode::<WireMsg<Sub, Sol>>(&payload) {
                        Ok(WireMsg::Ping { .. }) => {}
                        Ok(WireMsg::Msg(msg)) => {
                            if up_tx.send(msg).is_err() {
                                return; // coordinator gone
                            }
                        }
                        Err(e) => {
                            // CRC-clean but unparseable: protocol bug,
                            // not line noise. Kill the rank.
                            lc_reader_on_error(rank, epoch, &shared, &up_tx, Some(e.into()));
                            return;
                        }
                    }
                }
                Ok(None) => {
                    lc_reader_on_error(rank, epoch, &shared, &up_tx, None);
                    return;
                }
                Err(e) => {
                    lc_reader_on_error(rank, epoch, &shared, &up_tx, Some(e));
                    return;
                }
            }
        })
        .expect("spawn lc reader thread");
}

/// Reader-side connection teardown: within the reconnect budget this
/// merely opens the reconnect window; otherwise the rank dies
/// (exactly once — the `died` flag is checked and set under the link
/// mutex by every path that can report a death).
fn lc_reader_on_error<Sub, Sol>(
    rank: usize,
    epoch: u64,
    shared: &Arc<Shared>,
    up_tx: &Sender<Message<Sub, Sol>>,
    err: Option<io::Error>,
) {
    let fatal = err.as_ref().is_some_and(wire::io_error_is_fatal);
    let mut link = shared.links[rank].lock().unwrap();
    if link.epoch != epoch || link.died || shared.shutdown.load(Ordering::SeqCst) {
        return;
    }
    link.disconnect();
    if fatal || shared.reconnect_deadline.is_zero() {
        link.died = true;
        drop(link);
        let _ = up_tx.send(Message::WorkerDied { rank });
    }
}

/// Coordinator endpoint of the process transport.
pub struct ProcessLcComm<Sub, Sol> {
    shared: Arc<Shared>,
    up_rx: Receiver<Message<Sub, Sol>>,
    /// Keeps the channel open for reconnecting readers even when every
    /// original reader thread has exited, and lets `send_to`
    /// synthesize `WorkerDied` on retransmit-ring overflow.
    up_tx: Sender<Message<Sub, Sol>>,
    /// The `lc-accept` thread and the address that wakes it; taken and
    /// joined on drop so the thread never outlives the endpoint.
    accept: Option<(SocketAddr, std::thread::JoinHandle<()>)>,
}

impl<Sub, Sol> std::fmt::Debug for ProcessLcComm<Sub, Sol> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProcessLcComm(n={})", self.shared.links.len())
    }
}

impl<Sub, Sol> ProcessLcComm<Sub, Sol>
where
    Sub: Serialize + DeserializeOwned,
    Sol: Serialize + DeserializeOwned,
{
    /// Number of connected worker processes.
    pub fn num_workers(&self) -> usize {
        self.shared.links.len()
    }

    /// Sends to one rank. The payload is ringed for replay first, so
    /// `true` means *delivered or will be on resume*; a failed write
    /// merely opens the reconnect window, and `false` reports a dead
    /// rank — including the rank dying right here because its
    /// retransmit ring overflowed (the un-acked backlog outgrew any
    /// useful resume horizon; `WorkerDied` is synthesized so the
    /// supervisor requeues instead of the message silently vanishing).
    pub fn send_to(&self, rank: usize, msg: Message<Sub, Sol>) -> bool {
        let Some(slot) = self.shared.links.get(rank) else { return false };
        let mut link = slot.lock().unwrap();
        if !link.claimed || link.died {
            return false;
        }
        // Encoded under the link lock: the codec is a session property
        // and must match the negotiated protocol of *this* connection.
        let payload = Arc::new(wire::to_payload_codec(&WireMsg::Msg(msg), link.codec()));
        if link.ring.len() >= RETRANSMIT_RING_CAP {
            telemetry::comm().ring_overflows.inc();
            link.died = true;
            link.disconnect();
            drop(link);
            let _ = self.up_tx.send(Message::WorkerDied { rank });
            return false;
        }
        let seq = link.tx_next;
        link.tx_next += 1;
        link.ring.push_back((seq, payload.clone()));
        let framed = wire::frame_v2(&payload, FrameHeader { seq, ack: link.rx_next });
        link.write_framed(&framed);
        true
    }

    /// Receives the next upward message, sweeping liveness first: a
    /// rank silent past the timeout has its socket shut down, which
    /// opens the reconnect window; a rank disconnected past the
    /// reconnect deadline (immediately, for a zero deadline) is
    /// reported as [`Message::WorkerDied`] exactly once.
    pub fn recv_timeout(&self, d: Duration) -> Option<Message<Sub, Sol>> {
        let n = self.shared.links.len();
        for rank in 0..n {
            let mut link = self.shared.links[rank].lock().unwrap();
            if !link.claimed || link.died {
                continue;
            }
            if link.writer.is_some() {
                let heard = self.shared.last_heard.lock().unwrap()[rank];
                if heard.elapsed() > self.shared.liveness_timeout {
                    link.disconnect();
                    if self.shared.reconnect_deadline.is_zero() {
                        link.died = true;
                        return Some(Message::WorkerDied { rank });
                    }
                }
            } else if let Some(since) = link.disconnected_since {
                if since.elapsed() > self.shared.reconnect_deadline {
                    link.died = true;
                    return Some(Message::WorkerDied { rank });
                }
            }
        }
        match self.up_rx.recv_timeout(d) {
            Ok(m) => Some(m),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }
}

impl<Sub, Sol> Drop for ProcessLcComm<Sub, Sol> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for slot in &self.shared.links {
            if let Ok(mut link) = slot.lock() {
                // Flush buffered frames (e.g. a final Terminate) before
                // tearing the socket down.
                if let Some(b) = link.batch.take() {
                    let _ = b.flush();
                }
                if let Some(s) = link.writer.take() {
                    let _ = s.shutdown(Shutdown::Both);
                }
            }
        }
        if let Some((addr, thread)) = self.accept.take() {
            // Without the wake-up the thread stays in `accept()`:
            // leave it behind rather than hang the drop.
            if wake_listener(addr) {
                let _ = thread.join();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Worker-side connection state behind one mutex: the socket, the
/// session identity, both sequence spaces, the retransmit ring, and
/// the fault injector. Everything that writes to the socket goes
/// through [`send_locked`] while holding this.
struct WorkerInner {
    /// Write half; `None` while disconnected.
    stream: Option<TcpStream>,
    /// Negotiated protocol revision of the session (2 or 3).
    proto: u32,
    /// v3 batching writer wrapping a dup of `stream`; cleared together
    /// with the stream so buffered frames are replayed from the ring
    /// on resume. Never present when chaos is configured (fault
    /// injection acts on individual writes).
    batch: Option<Arc<wire::BatchWriter<TcpStream>>>,
    token: u64,
    /// Next upward sequence number.
    tx_next: u64,
    /// Un-acked upward payloads for replay on resume.
    ring: VecDeque<(u64, Arc<Vec<u8>>)>,
    /// Next downward seq expected; anything below is a duplicate.
    rx_next: u64,
    /// Chaos partition in force: writes are suppressed (the socket
    /// stays open and silent) until this instant. When it lifts the
    /// stream is torn down so the resume replays the suppressed
    /// (ringed) frames instead of leaving a sequence gap.
    partition_until: Option<Instant>,
    chaos: Option<FaultInjector>,
    /// The reader gave up for good; sends fail from here on.
    dead: bool,
}

impl WorkerInner {
    fn drop_stream(&mut self) {
        self.batch = None;
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Payload codec of the current session.
    fn codec(&self) -> wire::Codec {
        payload_codec(self.proto)
    }
}

/// Writes one payload under the inner lock, applying sequencing,
/// ring-buffering (reliable frames only), the partition gate, and one
/// scheduled fault. Write failures silently drop the stream — the
/// reader notices and runs the reconnect, and ringed payloads are
/// replayed on resume. A full retransmit ring kills the session
/// instead of evicting (losing) the oldest un-acked payload.
fn send_locked(inner: &mut WorkerInner, payload: Arc<Vec<u8>>, reliable: bool) {
    use std::io::Write;
    let seq = if reliable {
        if inner.ring.len() >= RETRANSMIT_RING_CAP {
            // Unreachable past any useful resume horizon: die loudly
            // (the coordinator's reconnect deadline then requeues the
            // rank) instead of silently evicting the oldest un-acked
            // payload.
            telemetry::comm().ring_overflows.inc();
            inner.dead = true;
            inner.drop_stream();
            return;
        }
        let seq = inner.tx_next;
        inner.tx_next += 1;
        inner.ring.push_back((seq, payload.clone()));
        seq
    } else {
        UNSEQ
    };
    let framed = wire::frame_v2(&payload, FrameHeader { seq, ack: inner.rx_next });
    if let Some(until) = inner.partition_until {
        if Instant::now() < until {
            return; // partitioned: sequenced payloads wait in the ring
        }
        // The partition lifts with sequenced frames suppressed (ringed
        // but never written): writing fresh frames now would open a
        // seq gap past the suppressed range. Tear the stream down
        // instead — the reader reconnects and the resume replays
        // everything, in order.
        inner.partition_until = None;
        inner.drop_stream();
        return;
    }
    if inner.stream.is_none() {
        return; // disconnected: the reconnect path replays the ring
    }
    let write = |inner: &mut WorkerInner, bytes: &[u8]| {
        // Batching (v3, chaos-free sessions only) coalesces whole
        // frames into one socket write; failures tear the stream so
        // the reader reconnects and the ring replays.
        if let Some(batch) = inner.batch.clone() {
            if batch.push(bytes).is_err() {
                inner.drop_stream();
            }
            return;
        }
        if let Some(s) = inner.stream.as_mut() {
            if s.write_all(bytes).and_then(|_| s.flush()).is_err() {
                inner.drop_stream();
            }
        }
    };
    match inner.chaos.as_mut().map(|c| c.on_frame()).unwrap_or(FaultAction::Pass) {
        FaultAction::Pass => write(inner, &framed),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            write(inner, &framed);
        }
        FaultAction::Drop => {
            // TCP never loses a frame mid-stream silently; a "drop"
            // is a torn connection. The payload stays ringed and is
            // replayed on resume.
            inner.drop_stream();
        }
        FaultAction::Duplicate => {
            write(inner, &framed);
            write(inner, &framed);
        }
        FaultAction::Corrupt { bit } => {
            let mut bad = framed.clone();
            let b = (bit % (bad.len() as u64 * 8)) as usize;
            bad[b / 8] ^= 1 << (b % 8);
            write(inner, &bad);
        }
        FaultAction::Partition(d) => {
            inner.partition_until = Some(Instant::now() + d);
        }
        FaultAction::Kill => {
            // Hard worker loss; only meaningful in spawned worker
            // processes (the chaos e2e suite), never in-process.
            std::process::exit(137);
        }
    }
}

/// Connects to a coordinator or pool server, retrying every 20 ms
/// until it listens or `timeout` is spent (worker processes may win
/// the race against the bind). The stream comes back with Nagle off
/// and the 10 s read timeout the hello/welcome exchange runs under.
pub(crate) fn dial(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

/// Connects to the coordinator and completes the handshake. The
/// returned endpoint already has its heartbeat running, and its reader
/// owns the reconnect-and-resume policy.
pub fn connect_worker<Sub, Sol>(
    addr: &str,
    rank_hint: Option<usize>,
    config: &ProcessCommConfig,
) -> io::Result<ProcessWorkerComm<Sub, Sol>>
where
    Sub: Serialize + DeserializeOwned + Send + 'static,
    Sol: Serialize + DeserializeOwned + Send + 'static,
{
    validated(config)?;
    let stream = dial(addr, config.handshake_timeout)?;
    let advertised = config.advertised_protocol();
    wire::write_msg(
        &mut (&stream),
        &Hello { protocol: BASE_PROTOCOL, rank_hint, max_protocol: Some(advertised), resume: None },
    )?;
    let mut reader = stream.try_clone()?;
    let mut dec = FrameDecoder::new();
    let welcome: Welcome = wire::read_msg(&mut reader, &mut dec)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "coordinator closed before welcome")
    })?;
    stream.set_read_timeout(None)?;

    let rank = welcome.rank;
    // Clamp to our own advertisement: a buggy coordinator answering
    // higher than offered must not push us past what we can speak.
    let proto = welcome.protocol.unwrap_or(BASE_PROTOCOL).min(advertised);
    let Some(session) = welcome.session.filter(|_| proto >= MIN_SESSION_PROTOCOL) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "coordinator answered protocol {:?} {} a session; only resumable sessions \
                 (v{MIN_SESSION_PROTOCOL}+) are spoken — upgrade the coordinator",
                welcome.protocol,
                if welcome.session.is_some() { "with" } else { "without" },
            ),
        ));
    };
    let token = session.token;
    dec.set_v2(true);

    let batching = config.chaos.is_none();
    let batch = batch_writer(&stream, proto, batching);
    let flusher = batch.is_some();
    let inner = Arc::new(Mutex::new(WorkerInner {
        stream: Some(stream),
        proto,
        batch,
        token,
        tx_next: 0,
        ring: VecDeque::new(),
        rx_next: 0,
        partition_until: None,
        chaos: config.chaos.as_ref().map(|plan| plan.injector()),
        dead: false,
    }));
    let shutdown = Arc::new(AtomicBool::new(false));
    let (down_tx, down_rx) = channel();
    spawn_worker_reader::<Sub, Sol>(
        rank,
        addr.to_string(),
        config.clone(),
        reader,
        dec,
        inner.clone(),
        shutdown.clone(),
        down_tx,
    );
    spawn_heartbeat::<Sub, Sol>(rank, inner.clone(), shutdown.clone(), config.heartbeat_interval);
    if flusher {
        spawn_worker_flusher(rank, inner.clone(), shutdown.clone());
    }

    Ok(ProcessWorkerComm { rank, inner, down_rx, shutdown })
}

/// The worker's read loop plus the reconnect-and-resume policy: on any
/// retryable connection failure it redials with
/// exponential backoff + jitter under the reconnect deadline, resumes
/// the session by token, replays its un-acked ring (bypassing chaos —
/// recovery must be deterministic), and carries on. Returning from
/// this thread drops `down_tx`, which is how `recv()` learns the
/// connection is gone for good.
#[allow(clippy::too_many_arguments)]
fn spawn_worker_reader<Sub, Sol>(
    rank: usize,
    addr: String,
    config: ProcessCommConfig,
    stream: TcpStream,
    dec: FrameDecoder,
    inner: Arc<Mutex<WorkerInner>>,
    shutdown: Arc<AtomicBool>,
    down_tx: Sender<Message<Sub, Sol>>,
) where
    Sub: Serialize + DeserializeOwned + Send + 'static,
    Sol: Serialize + DeserializeOwned + Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("worker-reader-{rank}"))
        .spawn(move || {
            let mut stream = stream;
            let mut dec = dec;
            loop {
                let err = match wire::read_frame(&mut stream, &mut dec) {
                    Ok(Some((header, payload))) => {
                        let mut gap = false;
                        {
                            let mut g = inner.lock().unwrap();
                            if header.seq != UNSEQ {
                                if header.seq < g.rx_next {
                                    telemetry::comm().dup_frames.inc();
                                    continue;
                                }
                                // A gap is in-stream loss: never accept
                                // it silently; reconnect and let the
                                // resume replay the missing downward
                                // range.
                                gap = header.seq > g.rx_next;
                                if !gap {
                                    g.rx_next = header.seq + 1;
                                }
                            }
                            if !gap {
                                while g.ring.front().is_some_and(|(s, _)| *s < header.ack) {
                                    g.ring.pop_front();
                                }
                            }
                        }
                        if gap {
                            telemetry::comm().seq_gaps.inc();
                            Some(io::Error::new(
                                io::ErrorKind::ConnectionReset,
                                "downward sequence gap",
                            ))
                        } else {
                            match wire::decode::<WireMsg<Sub, Sol>>(&payload) {
                                Ok(WireMsg::Ping { .. }) => continue,
                                Ok(WireMsg::Msg(msg)) => {
                                    if down_tx.send(msg).is_err() {
                                        return; // endpoint dropped
                                    }
                                    continue;
                                }
                                Err(e) => Some(io::Error::from(e)),
                            }
                        }
                    }
                    Ok(None) => None,
                    Err(e) => Some(e),
                };
                // Connection-level failure (or fatal codec error).
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let fatal = err.as_ref().is_some_and(wire::io_error_is_fatal);
                let dead = inner.lock().unwrap().dead;
                if fatal || dead || config.reconnect_deadline.is_zero() {
                    let mut g = inner.lock().unwrap();
                    g.drop_stream();
                    g.dead = true;
                    return;
                }
                match reconnect_worker(rank, &addr, &config, &inner, &shutdown) {
                    Some((s, d)) => {
                        stream = s;
                        dec = d;
                    }
                    None => {
                        let mut g = inner.lock().unwrap();
                        g.drop_stream();
                        g.dead = true;
                        return;
                    }
                }
            }
        })
        .expect("spawn worker reader thread");
}

/// Redials and resumes the session; `None` when the deadline budget
/// runs out (the rank then dies and the coordinator requeues).
fn reconnect_worker(
    rank: usize,
    addr: &str,
    config: &ProcessCommConfig,
    inner: &Arc<Mutex<WorkerInner>>,
    shutdown: &Arc<AtomicBool>,
) -> Option<(TcpStream, FrameDecoder)> {
    use std::io::Write;
    let (token, rx_next) = {
        let mut g = inner.lock().unwrap();
        g.drop_stream();
        (g.token, g.rx_next)
    };
    let deadline = Instant::now() + config.reconnect_deadline;
    let mut jitter = SplitMix64::new(token ^ rank as u64);
    let mut attempt = 0u32;
    'redial: loop {
        if attempt > 0 {
            let base = 50u64.saturating_mul(1u64 << attempt.min(5)).min(2000);
            let backoff = Duration::from_millis(base + jitter.next_u64() % (base / 2 + 1));
            let remaining = deadline.saturating_duration_since(Instant::now());
            std::thread::sleep(backoff.min(remaining));
        }
        attempt += 1;
        if shutdown.load(Ordering::SeqCst) || Instant::now() >= deadline {
            return None;
        }
        let Ok(stream) = TcpStream::connect(addr) else { continue };
        stream.set_nodelay(true).ok();
        if stream.set_read_timeout(Some(Duration::from_secs(5))).is_err() {
            continue;
        }
        let hello = Hello {
            protocol: BASE_PROTOCOL,
            rank_hint: Some(rank),
            max_protocol: Some(config.advertised_protocol()),
            resume: Some(Resume { token, rx_next }),
        };
        if wire::write_msg(&mut (&stream), &hello).is_err() {
            continue;
        }
        let mut reader = match stream.try_clone() {
            Ok(r) => r,
            Err(_) => continue,
        };
        let mut hs_dec = FrameDecoder::new();
        let welcome: Welcome = match wire::read_msg(&mut reader, &mut hs_dec) {
            Ok(Some(w)) => w,
            _ => continue, // coordinator refused the token or hung up
        };
        let Some(session) = welcome.session else { continue };
        if stream.set_read_timeout(None).is_err() {
            continue;
        }
        let mut g = inner.lock().unwrap();
        if g.dead {
            return None; // e.g. ring overflow while we were redialing
        }
        // Replay everything the coordinator has not acked, in order,
        // chaos-free: the schedule perturbs fresh traffic, never the
        // repair itself. The write timeout bounds the replay — the
        // coordinator is replaying its own ring concurrently, and a
        // stalled peer must fail us into another redial, not hang the
        // worker on a held inner lock.
        while g.ring.front().is_some_and(|(s, _)| *s < session.rx_next) {
            g.ring.pop_front();
        }
        let replay: Vec<(u64, Arc<Vec<u8>>)> = g.ring.iter().cloned().collect();
        let ack = g.rx_next;
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => continue,
        };
        if writer.set_write_timeout(Some(REPLAY_WRITE_TIMEOUT)).is_err() {
            continue;
        }
        for (seq, payload) in &replay {
            let framed = wire::frame_v2(payload, FrameHeader { seq: *seq, ack });
            if writer.write_all(&framed).and_then(|_| writer.flush()).is_err() {
                continue 'redial;
            }
        }
        if writer.set_write_timeout(None).is_err() {
            continue 'redial;
        }
        // Re-arm batching for the resumed session (same negotiated
        // protocol, fresh socket).
        g.batch = batch_writer(&writer, g.proto, config.chaos.is_none());
        g.stream = Some(writer);
        g.partition_until = None;
        let mut dec = FrameDecoder::new();
        dec.set_v2(true);
        return Some((reader, dec));
    }
}

fn spawn_heartbeat<Sub, Sol>(
    rank: usize,
    inner: Arc<Mutex<WorkerInner>>,
    shutdown: Arc<AtomicBool>,
    interval: Duration,
) where
    Sub: Serialize + Send + 'static,
    Sol: Serialize + Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("heartbeat-{rank}"))
        .spawn(move || loop {
            std::thread::sleep(interval);
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            let mut g = inner.lock().unwrap();
            if g.dead {
                return;
            }
            let ping =
                Arc::new(wire::to_payload_codec(&WireMsg::<Sub, Sol>::Ping { rank }, g.codec()));
            send_locked(&mut g, ping, false);
        })
        .expect("spawn heartbeat thread");
}

/// Worker-side latency-cap enforcement for batched v3 sessions: wakes
/// on a sub-cap tick and flushes any buffer older than
/// `BatchConfig::max_delay`. Exits with the endpoint (or once the
/// session is dead). The flush runs on a clone of the batch handle
/// outside the inner lock; on failure the stream is torn down only if
/// the same batch is still installed.
fn spawn_worker_flusher(rank: usize, inner: Arc<Mutex<WorkerInner>>, shutdown: Arc<AtomicBool>) {
    let tick = flush_tick();
    std::thread::Builder::new()
        .name(format!("worker-flusher-{rank}"))
        .spawn(move || loop {
            std::thread::sleep(tick);
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            let batch = {
                let g = inner.lock().unwrap();
                if g.dead {
                    return;
                }
                g.batch.clone()
            };
            if let Some(b) = batch {
                if b.flush_if_due().is_err() {
                    let mut g = inner.lock().unwrap();
                    if g.batch.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, &b)) {
                        g.drop_stream();
                    }
                }
            }
        })
        .expect("spawn worker flusher thread");
}

/// Worker endpoint of the process transport.
pub struct ProcessWorkerComm<Sub, Sol> {
    rank: usize,
    inner: Arc<Mutex<WorkerInner>>,
    down_rx: Receiver<Message<Sub, Sol>>,
    shutdown: Arc<AtomicBool>,
}

impl<Sub, Sol> ProcessWorkerComm<Sub, Sol>
where
    Sub: Serialize + DeserializeOwned,
    Sol: Serialize + DeserializeOwned,
{
    /// This worker's rank as assigned in the handshake.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Non-blocking receive of the next coordinator message.
    pub fn try_recv(&self) -> Option<Message<Sub, Sol>> {
        self.down_rx.try_recv().ok()
    }

    /// Blocking receive; `None` when the connection is gone for good
    /// (only after the reconnect budget ran out).
    pub fn recv(&self) -> Option<Message<Sub, Sol>> {
        self.down_rx.recv().ok()
    }

    /// Sends a message upward. The payload is ringed before the write,
    /// so `true` means *delivered or will be on resume*; `false` only
    /// once the session is dead for good — including dying right here
    /// because the retransmit ring overflowed (this payload was *not*
    /// ringed).
    pub fn send(&self, msg: Message<Sub, Sol>) -> bool {
        let mut g = self.inner.lock().unwrap();
        if g.dead {
            return false;
        }
        // Encoded under the lock: the codec follows the negotiated
        // session protocol.
        let payload = Arc::new(wire::to_payload_codec(&WireMsg::Msg(msg), g.codec()));
        send_locked(&mut g, payload, true);
        !g.dead
    }

    /// Test hook: tears the TCP connection down underneath the
    /// transport (as a mid-run network fault would) without touching
    /// any session state, so tests can exercise the reconnect-and-
    /// resume path deterministically and in-process.
    #[cfg(test)]
    pub(crate) fn test_break_connection(&self) {
        if let Some(s) = self.inner.lock().unwrap().stream.as_ref() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

impl<Sub, Sol> Drop for ProcessWorkerComm<Sub, Sol> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // `shutdown` acts on the socket itself, past every `try_clone`
        // dup the reader and heartbeat threads hold — they unblock with
        // EOF/EPIPE and exit, and the coordinator sees the hang-up at
        // once (even when the worker is dying abnormally).
        if let Ok(mut g) = self.inner.lock() {
            // Flush buffered frames (e.g. a final solution) before the
            // socket goes away.
            if let Some(b) = g.batch.take() {
                let _ = b.flush();
            }
            g.drop_stream();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ProcessCommConfig {
        ProcessCommConfig {
            handshake_timeout: Duration::from_secs(10),
            liveness_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::from_millis(100),
            reconnect_deadline: Duration::from_millis(500),
            ..ProcessCommConfig::default()
        }
    }

    /// Full in-process exercise of the socket path: handshake with rank
    /// hints, both message directions, and worker-death synthesis.
    #[test]
    fn handshake_roundtrip_and_death_detection() {
        let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = config();

        let mut joins = Vec::new();
        for rank in 0..2usize {
            let addr = addr.clone();
            let cfg = cfg.clone();
            joins.push(std::thread::spawn(move || {
                let comm = connect_worker::<u32, u32>(&addr, Some(rank), &cfg).unwrap();
                assert_eq!(comm.rank(), rank);
                assert!(comm.send(Message::Status {
                    rank,
                    dual_bound: rank as f64,
                    open: 1,
                    nodes: 2
                }));
                // Wait for an echo from the coordinator, then hang up
                // (rank 1 hangs up without being told — "dies").
                if rank == 0 {
                    match comm.recv() {
                        Some(Message::Terminate) => {}
                        other => panic!("expected terminate, got {other:?}"),
                    }
                }
            }));
        }

        let lc = listener.accept_workers::<u32, u32>(2, &cfg).unwrap();
        assert_eq!(lc.num_workers(), 2);
        let mut status_ranks = Vec::new();
        let mut died = Vec::new();
        // Expect two statuses and one death notice (rank 1 exits after
        // sending its status; its deliberate hang-up exhausts the
        // reconnect budget and only then surfaces as a death).
        let deadline = Instant::now() + Duration::from_secs(10);
        while (status_ranks.len() < 2 || died.is_empty()) && Instant::now() < deadline {
            match lc.recv_timeout(Duration::from_millis(50)) {
                Some(Message::Status { rank, .. }) => status_ranks.push(rank),
                Some(Message::WorkerDied { rank }) => died.push(rank),
                _ => {}
            }
        }
        status_ranks.sort_unstable();
        assert_eq!(status_ranks, vec![0, 1]);
        assert_eq!(died, vec![1]);

        assert!(lc.send_to(0, Message::Terminate));
        for j in joins {
            j.join().unwrap();
        }
        // Rank 1 is dead: sends must report failure.
        assert!(!lc.send_to(1, Message::Terminate));
    }

    #[test]
    fn protocol_mismatch_is_rejected() {
        let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = ProcessCommConfig { handshake_timeout: Duration::from_millis(600), ..config() };

        let bad = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            wire::write_msg(
                &mut (&stream),
                &Hello {
                    protocol: BASE_PROTOCOL + 98,
                    rank_hint: None,
                    max_protocol: None,
                    resume: None,
                },
            )
            .unwrap();
            // The coordinator must drop us without a welcome.
            let mut reader = stream.try_clone().unwrap();
            reader.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut dec = FrameDecoder::new();
            assert!(matches!(
                wire::read_msg::<Welcome, _>(&mut reader, &mut dec),
                Ok(None) | Err(_)
            ));
        });

        // With only a bad client around, the accept must time out.
        let err = listener.accept_workers::<u32, u32>(1, &cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        bad.join().unwrap();
    }

    /// The accept loop blocks in `accept()`; the endpoint's drop has to
    /// get it out of there, or every finished run leaks a thread and a
    /// listening socket.
    #[test]
    fn dropping_the_endpoint_ends_its_accept_thread() {
        for workers in [0usize, 1] {
            let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let cfg =
                ProcessCommConfig { handshake_timeout: Duration::from_millis(50), ..config() };
            let (done_tx, done_rx) = channel();
            std::thread::spawn(move || {
                // 0 ranks: an endpoint, dropped at once. 1 rank and no
                // worker: the timed-out accept drops it itself.
                drop(listener.accept_workers::<u32, u32>(workers, &cfg));
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("the drop joins lc-accept, which must have been woken");
            // The thread owned the listening socket: gone with it.
            let refused = TcpStream::connect(addr).expect_err("nobody listens any more");
            assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
        }
    }

    #[test]
    fn misconfigured_liveness_is_rejected_up_front() {
        let cfg = ProcessCommConfig {
            liveness_timeout: Duration::from_millis(150),
            heartbeat_interval: Duration::from_millis(100),
            ..config()
        };
        let msg = cfg.validate().unwrap_err();
        assert!(msg.contains("liveness"), "unhelpful message: {msg}");
        let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
        let err = listener.accept_workers::<u32, u32>(1, &cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// The liveness sweep must report each silent rank dead exactly
    /// once — the doc comment has always claimed it; this asserts it.
    /// The sweep shuts the silent socket down, nobody resumes the
    /// session, and the reconnect deadline turns that into the death.
    #[test]
    fn liveness_sweep_reports_each_silent_rank_exactly_once() {
        let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = ProcessCommConfig {
            liveness_timeout: Duration::from_millis(300),
            heartbeat_interval: Duration::from_millis(100),
            ..config()
        };

        // Two raw clients that say hello and then go silent while
        // keeping their sockets open (the hung-but-connected case the
        // sweep exists for). They run on threads because the welcome
        // only arrives once `accept_workers` below is pumping.
        let (welcome_tx, welcome_rx) = channel::<(usize, Option<u32>, bool)>();
        for rank in 0..2usize {
            let welcome_tx = welcome_tx.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                wire::write_msg(
                    &mut (&stream),
                    &Hello {
                        protocol: BASE_PROTOCOL,
                        rank_hint: Some(rank),
                        max_protocol: Some(PROTOCOL_VERSION),
                        resume: None,
                    },
                )
                .unwrap();
                let mut reader = stream.try_clone().unwrap();
                let mut dec = FrameDecoder::new();
                let welcome: Welcome = wire::read_msg(&mut reader, &mut dec).unwrap().unwrap();
                welcome_tx
                    .send((welcome.rank, welcome.protocol, welcome.session.is_some()))
                    .unwrap();
                // Keep the socket open and silent well past the test.
                std::thread::sleep(Duration::from_secs(30));
                drop(stream);
            });
        }

        let lc = listener.accept_workers::<u32, u32>(2, &cfg).unwrap();
        let mut welcomed = Vec::new();
        for _ in 0..2 {
            let (rank, protocol, has_session) =
                welcome_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(protocol, Some(PROTOCOL_VERSION));
            assert!(has_session, "every welcome carries a session");
            welcomed.push(rank);
        }
        welcomed.sort_unstable();
        assert_eq!(welcomed, vec![0, 1]);
        let mut died = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(Message::WorkerDied { rank }) = lc.recv_timeout(Duration::from_millis(20)) {
                died.push(rank);
            }
            if died.len() == 2 {
                break;
            }
        }
        died.sort_unstable();
        assert_eq!(died, vec![0, 1], "each silent rank must die exactly once");
        // Keep sweeping: no rank may be reported a second time.
        let settle = Instant::now() + Duration::from_secs(1);
        while Instant::now() < settle {
            assert!(
                !matches!(
                    lc.recv_timeout(Duration::from_millis(20)),
                    Some(Message::WorkerDied { .. })
                ),
                "a rank died twice"
            );
        }
    }

    /// The resumable session is the only mode: a hello that does not
    /// advertise `max_protocol` (a pre-v2 worker) is hung up on without
    /// a welcome, takes no rank slot, and the worker that connects
    /// after it still gets the rank the old one hinted at.
    #[test]
    fn hello_without_max_protocol_is_refused_and_takes_no_rank() {
        let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = config();

        let clients = std::thread::spawn(move || {
            let old = TcpStream::connect(addr).unwrap();
            wire::write_msg(
                &mut (&old),
                &Hello {
                    protocol: BASE_PROTOCOL,
                    rank_hint: Some(0),
                    max_protocol: None,
                    resume: None,
                },
            )
            .unwrap();
            let mut reader = old.try_clone().unwrap();
            reader.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut dec = FrameDecoder::new();
            assert!(
                matches!(wire::read_msg::<Welcome, _>(&mut reader, &mut dec), Ok(None)),
                "a pre-v2 hello must be answered by a hang-up, not a downgraded welcome"
            );
            // Only now, with the refusal complete, does the real worker
            // arrive: had the old hello kept rank 0 it would get none.
            let comm = connect_worker::<u32, u32>(&addr.to_string(), Some(0), &config()).unwrap();
            assert_eq!(comm.rank(), 0);
            assert!(matches!(comm.recv(), Some(Message::Terminate)));
        });

        let lc = listener.accept_workers::<u32, u32>(1, &cfg).unwrap();
        assert!(lc.send_to(0, Message::Terminate));
        clients.join().unwrap();
    }

    /// A client that stalls mid-hello must not block the accept path
    /// or pin a rank: a late legitimate worker still claims rank 0
    /// well within the handshake deadline.
    #[test]
    fn stalled_hello_does_not_block_a_late_worker() {
        let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = ProcessCommConfig { handshake_timeout: Duration::from_secs(3), ..config() };

        // Connects and never says hello. Its 5s read timeout outlives
        // the whole 3s handshake budget.
        let stalled = TcpStream::connect(&addr).unwrap();

        let worker = {
            let addr = addr.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                let comm = connect_worker::<u32, u32>(&addr, Some(0), &cfg).unwrap();
                assert_eq!(comm.rank(), 0);
                assert!(matches!(comm.recv(), Some(Message::Terminate)));
            })
        };

        let started = Instant::now();
        let lc = listener.accept_workers::<u32, u32>(1, &cfg).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "stalled client must not consume the handshake budget"
        );
        assert!(lc.send_to(0, Message::Terminate));
        worker.join().unwrap();
        drop(stalled);
    }

    /// The tentpole in one room: a torn connection mid-run resumes the
    /// session — messages sent before, during, and after the break all
    /// arrive exactly once, nobody is reported dead, and the reconnect
    /// is visible in telemetry.
    #[test]
    fn broken_connection_resumes_without_a_death() {
        let reconnects_before = telemetry::comm().reconnects.get();
        let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = ProcessCommConfig { reconnect_deadline: Duration::from_secs(10), ..config() };

        let (incumbent_tx, incumbent_rx) = channel::<f64>();
        let worker = {
            let addr = addr.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let comm = connect_worker::<u32, u32>(&addr, Some(0), &cfg).unwrap();
                assert!(comm.send(Message::Status { rank: 0, dual_bound: 1.0, open: 1, nodes: 1 }));
                // Tear the TCP connection down underneath the session.
                comm.test_break_connection();
                // Sends while broken are ringed and replayed on resume.
                assert!(comm.send(Message::Status { rank: 0, dual_bound: 2.0, open: 1, nodes: 2 }));
                loop {
                    match comm.recv() {
                        Some(Message::Incumbent { obj, .. }) => incumbent_tx.send(obj).unwrap(),
                        Some(Message::Terminate) => return,
                        Some(_) => {}
                        None => panic!("session died instead of resuming"),
                    }
                }
            })
        };

        let lc = listener.accept_workers::<u32, u32>(1, &cfg).unwrap();
        let mut bounds = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while bounds.len() < 2 && Instant::now() < deadline {
            match lc.recv_timeout(Duration::from_millis(50)) {
                Some(Message::Status { dual_bound, .. }) => bounds.push(dual_bound),
                Some(Message::WorkerDied { rank }) => {
                    panic!("rank {rank} was declared dead during a recoverable break")
                }
                _ => {}
            }
        }
        assert_eq!(bounds, vec![1.0, 2.0], "both statuses exactly once, in order");
        assert!(
            telemetry::comm().reconnects.get() > reconnects_before,
            "the resume must be counted"
        );

        // Downward traffic flows on the resumed connection too.
        assert!(lc.send_to(0, Message::Incumbent { sol: 7, obj: 42.0 }));
        assert_eq!(incumbent_rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42.0);
        assert!(lc.send_to(0, Message::Terminate));
        worker.join().unwrap();
    }

    /// Regression for the resume/`send_to` race: fresh frames sent
    /// while a resume replay is in flight must never overtake the
    /// replay on the wire (the worker would run its `rx_next` past
    /// the replayed range and discard it as duplicates). The worker
    /// tears the connection down repeatedly mid-stream; every message
    /// must still arrive exactly once, in order.
    #[test]
    fn downward_stream_survives_repeated_breaks_in_order() {
        const N: usize = 200;
        let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = ProcessCommConfig { reconnect_deadline: Duration::from_secs(10), ..config() };

        let worker = {
            let addr = addr.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let comm = connect_worker::<u32, u32>(&addr, Some(0), &cfg).unwrap();
                let mut objs = Vec::new();
                while objs.len() < N {
                    match comm.recv() {
                        Some(Message::Incumbent { obj, .. }) => {
                            objs.push(obj as usize);
                            if objs.len() % 25 == 0 {
                                comm.test_break_connection();
                            }
                        }
                        Some(_) => {}
                        None => panic!("session died mid-stream"),
                    }
                }
                objs
            })
        };

        let lc = listener.accept_workers::<u32, u32>(1, &cfg).unwrap();
        for i in 0..N {
            assert!(lc.send_to(0, Message::Incumbent { sol: 0, obj: i as f64 }));
            // Keep the sweep running so an (unexpected) death surfaces.
            if let Some(Message::WorkerDied { rank }) = lc.recv_timeout(Duration::from_millis(1)) {
                panic!("rank {rank} died during a recoverable break");
            }
        }
        let objs = worker.join().unwrap();
        assert_eq!(objs, (0..N).collect::<Vec<_>>(), "exactly once, in order");
    }

    /// A frame from the future (sequence gap) means bytes vanished
    /// in-stream. The coordinator must not run its `rx_next` past the
    /// hole: it tears the connection down (no delivery, no death) and
    /// a resume of the same session still expects the missing seq.
    #[test]
    fn coordinator_treats_a_seq_gap_as_a_torn_stream() {
        use std::io::Write;
        let gaps_before = telemetry::comm().seq_gaps.get();
        let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = ProcessCommConfig { reconnect_deadline: Duration::from_secs(10), ..config() };

        let (done_tx, done_rx) = channel::<()>();
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            wire::write_msg(
                &mut (&stream),
                &Hello {
                    protocol: BASE_PROTOCOL,
                    rank_hint: Some(0),
                    max_protocol: Some(PROTOCOL_VERSION),
                    resume: None,
                },
            )
            .unwrap();
            let mut reader = stream.try_clone().unwrap();
            let mut dec = FrameDecoder::new();
            let welcome: Welcome = wire::read_msg(&mut reader, &mut dec).unwrap().unwrap();
            let session = welcome.session.expect("v2 handshake must hand out a session");

            // Seq 5 while the coordinator expects 0: frames 0..5 are
            // missing from the stream.
            let payload = wire::to_payload(&WireMsg::<u32, u32>::Msg(Message::Status {
                rank: 0,
                dual_bound: 9.0,
                open: 1,
                nodes: 1,
            }));
            (&stream).write_all(&wire::frame_v2(&payload, FrameHeader { seq: 5, ack: 0 })).unwrap();

            // The coordinator must hang up on us...
            reader.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            dec.set_v2(true);
            assert!(
                matches!(wire::read_msg::<Welcome, _>(&mut reader, &mut dec), Ok(None) | Err(_)),
                "a seq gap must tear the connection down"
            );

            // ...but the session survives: a resume is accepted and
            // still expects seq 0 (rx_next never moved past the hole).
            let stream2 = TcpStream::connect(addr).unwrap();
            wire::write_msg(
                &mut (&stream2),
                &Hello {
                    protocol: BASE_PROTOCOL,
                    rank_hint: Some(0),
                    max_protocol: Some(PROTOCOL_VERSION),
                    resume: Some(Resume { token: session.token, rx_next: 0 }),
                },
            )
            .unwrap();
            let mut reader2 = stream2.try_clone().unwrap();
            let mut dec2 = FrameDecoder::new();
            let welcome2: Welcome = wire::read_msg(&mut reader2, &mut dec2).unwrap().unwrap();
            assert_eq!(
                welcome2.session.expect("resume must return the session").rx_next,
                0,
                "the gap frame must not have advanced rx_next"
            );
            done_tx.send(()).unwrap();
        });

        let lc = listener.accept_workers::<u32, u32>(1, &cfg).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut done = false;
        while !done && Instant::now() < deadline {
            match lc.recv_timeout(Duration::from_millis(20)) {
                Some(Message::Status { .. }) => panic!("the gap frame was delivered"),
                Some(Message::WorkerDied { rank }) => {
                    panic!("rank {rank} died; a gap must only reopen the reconnect window")
                }
                _ => {}
            }
            done = done_rx.try_recv().is_ok();
        }
        assert!(done, "client never completed the gap + resume exchange");
        assert!(telemetry::comm().seq_gaps.get() > gaps_before, "the gap must be counted");
        client.join().unwrap();
    }

    /// Overflowing the coordinator's retransmit ring must kill the
    /// rank loudly (`WorkerDied`, failed send, counted) — never
    /// silently evict an un-acked payload that a resume would then
    /// skip.
    #[test]
    fn coordinator_ring_overflow_kills_the_rank_loudly() {
        let shared = Arc::new(Shared {
            links: vec![Mutex::new(Link::new())],
            last_heard: Mutex::new(vec![Instant::now()]),
            claim_lock: Mutex::new(()),
            rank_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            liveness_timeout: Duration::from_secs(30),
            reconnect_deadline: Duration::from_secs(30),
            max_protocol: PROTOCOL_VERSION,
            batching: false,
        });
        {
            let mut link = shared.links[0].lock().unwrap();
            link.claimed = true;
            link.proto = PROTOCOL_VERSION;
            // Disconnected: every send rings its payload un-acked.
            link.disconnected_since = Some(Instant::now());
        }
        let (up_tx, up_rx) = channel();
        let lc = ProcessLcComm::<u32, u32> { shared, up_rx, up_tx, accept: None };

        let overflows_before = telemetry::comm().ring_overflows.get();
        for _ in 0..RETRANSMIT_RING_CAP {
            assert!(lc.send_to(0, Message::Terminate), "ringed sends report success");
        }
        assert!(!lc.send_to(0, Message::Terminate), "the overflowing send must fail");
        assert!(
            matches!(
                lc.recv_timeout(Duration::from_millis(100)),
                Some(Message::WorkerDied { rank: 0 })
            ),
            "overflow must surface as WorkerDied"
        );
        assert!(!lc.send_to(0, Message::Terminate), "the rank must stay dead");
        assert!(telemetry::comm().ring_overflows.get() > overflows_before);
    }

    /// The worker-side ring behaves the same: at capacity the session
    /// dies, the stream drops, and no ringed payload is evicted.
    #[test]
    fn worker_ring_overflow_kills_the_session() {
        let mut inner = WorkerInner {
            stream: None,
            proto: PROTOCOL_VERSION,
            batch: None,
            token: 1,
            tx_next: 0,
            ring: VecDeque::new(),
            rx_next: 0,
            partition_until: None,
            chaos: None,
            dead: false,
        };
        let payload = Arc::new(wire::to_payload(&WireMsg::<u32, u32>::Ping { rank: 0 }));
        for _ in 0..RETRANSMIT_RING_CAP {
            send_locked(&mut inner, payload.clone(), true);
        }
        assert!(!inner.dead);
        send_locked(&mut inner, payload.clone(), true);
        assert!(inner.dead, "overflow must kill the session loudly");
        assert_eq!(inner.ring.len(), RETRANSMIT_RING_CAP, "no payload may be evicted");
    }

    /// When a chaos partition lifts, the suppressed (ringed but never
    /// written) frames would sit behind any fresh write as a sequence
    /// gap. The lift must tear the stream down so the resume replays
    /// them in order instead.
    #[test]
    fn lifted_partition_tears_the_stream_for_replay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_peer, _) = listener.accept().unwrap();
        let mut inner = WorkerInner {
            stream: Some(stream),
            proto: PROTOCOL_VERSION,
            batch: None,
            token: 1,
            tx_next: 0,
            ring: VecDeque::new(),
            rx_next: 0,
            partition_until: Some(Instant::now() + Duration::from_millis(10)),
            chaos: None,
            dead: false,
        };
        let payload = Arc::new(wire::to_payload(&WireMsg::<u32, u32>::Ping { rank: 0 }));
        send_locked(&mut inner, payload.clone(), true); // suppressed, ringed
        assert!(inner.stream.is_some(), "the socket stays open while partitioned");
        std::thread::sleep(Duration::from_millis(25));
        send_locked(&mut inner, payload.clone(), true); // lift
        assert!(inner.stream.is_none(), "lifting the partition must force a reconnect");
        assert!(inner.partition_until.is_none());
        assert_eq!(inner.ring.len(), 2, "both frames must await the resume replay");
        assert!(!inner.dead, "a partition is recoverable, not terminal");
    }

    #[test]
    fn negotiate_protocol_applies_min_rule_and_flags_pre_v2_peers() {
        assert_eq!(negotiate_protocol(3, Some(3)), 3, "two v3 peers speak v3");
        assert_eq!(negotiate_protocol(3, Some(2)), 2, "a v2 worker holds the pair at v2");
        assert_eq!(negotiate_protocol(2, Some(3)), 2, "--codec v2 caps a v3 worker");
        assert_eq!(negotiate_protocol(2, Some(2)), 2, "two v2 peers speak v2");
        assert_eq!(negotiate_protocol(99, Some(99)), PROTOCOL_VERSION, "capped at ours");
        // What the handshake refuses: no advertisement, or one below v2.
        assert!(negotiate_protocol(3, None) < MIN_SESSION_PROTOCOL);
        assert!(negotiate_protocol(3, Some(1)) < MIN_SESSION_PROTOCOL);
        assert_eq!(negotiate_protocol(3, Some(0)), BASE_PROTOCOL, "floored at base");
    }

    #[test]
    fn codec_flag_parses_versions_and_aliases() {
        assert_eq!(parse_codec_flag("v3"), Ok(3));
        assert_eq!(parse_codec_flag("binary"), Ok(3));
        assert_eq!(parse_codec_flag("V2"), Ok(2));
        assert_eq!(parse_codec_flag("json"), Ok(2));
        assert!(parse_codec_flag("v4").is_err());
        // v1 is no session mode any more: neither the flag nor a
        // hand-built config can ask for it.
        assert!(parse_codec_flag("v1").is_err());
        assert!(parse_codec_flag("1").is_err());
        let msg = ProcessCommConfig { max_protocol: 1, ..config() }.validate().unwrap_err();
        assert!(msg.contains("--codec v2|v3"), "unhelpful message: {msg}");
    }

    /// End-to-end mixed-version interop in one room: a v3↔v3 pair, a
    /// v2-capped coordinator against a v3 worker, and a v2-capped
    /// worker against a v3 coordinator all exchange traffic in both
    /// directions. The negotiated revision is not directly observable
    /// from the public API, so the assertion is behavioral: every
    /// message round-trips regardless of which side was capped.
    #[test]
    fn mixed_version_peers_interoperate() {
        for (lc_cap, worker_cap) in [(3u32, 3u32), (2, 3), (3, 2), (2, 2)] {
            let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let lc_cfg = ProcessCommConfig { max_protocol: lc_cap, ..config() };
            let wk_cfg = ProcessCommConfig { max_protocol: worker_cap, ..config() };

            let worker = {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let comm = connect_worker::<u32, u32>(&addr, Some(0), &wk_cfg).unwrap();
                    assert!(comm.send(Message::Status {
                        rank: 0,
                        dual_bound: 3.5,
                        open: 1,
                        nodes: 7
                    }));
                    match comm.recv() {
                        Some(Message::Incumbent { obj, .. }) => assert_eq!(obj, 11.0),
                        other => panic!("expected incumbent, got {other:?}"),
                    }
                    assert!(matches!(comm.recv(), Some(Message::Terminate)));
                })
            };

            let lc = listener.accept_workers::<u32, u32>(1, &lc_cfg).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match lc.recv_timeout(Duration::from_millis(50)) {
                    Some(Message::Status { dual_bound, nodes, .. }) => {
                        assert_eq!((dual_bound, nodes), (3.5, 7));
                        break;
                    }
                    Some(other) => panic!("caps ({lc_cap},{worker_cap}): unexpected {other:?}"),
                    None => assert!(
                        Instant::now() < deadline,
                        "caps ({lc_cap},{worker_cap}): status never arrived"
                    ),
                }
            }
            assert!(lc.send_to(0, Message::Incumbent { sol: 1, obj: 11.0 }));
            assert!(lc.send_to(0, Message::Terminate));
            worker.join().unwrap();
        }
    }

    /// Batched v3 traffic must honor the latency cap: a lone small
    /// frame sits in the writer buffer no longer than `max_delay`
    /// before the flusher pushes it out — the message still arrives
    /// promptly although it is far below the 32 KiB size cap.
    #[test]
    fn batched_session_delivers_a_lone_frame_within_the_latency_cap() {
        let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = config();

        let worker = {
            let addr = addr.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let comm = connect_worker::<u32, u32>(&addr, Some(0), &cfg).unwrap();
                assert!(comm.send(Message::Status { rank: 0, dual_bound: 1.0, open: 1, nodes: 1 }));
                assert!(matches!(comm.recv(), Some(Message::Terminate)));
            })
        };

        let lc = listener.accept_workers::<u32, u32>(1, &cfg).unwrap();
        let started = Instant::now();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match lc.recv_timeout(Duration::from_millis(20)) {
                Some(Message::Status { .. }) => break,
                Some(other) => panic!("unexpected {other:?}"),
                None => assert!(Instant::now() < deadline, "batched status never flushed"),
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "latency cap must bound the batch delay"
        );
        assert!(lc.send_to(0, Message::Terminate));
        worker.join().unwrap();
    }
}
