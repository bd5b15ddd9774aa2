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
//! coordinator verifies the base protocol and the advertised wire
//! revision (`require_revision`: [`PROTOCOL_VERSION`] or refused —
//! the connection is closed without a welcome and without touching a
//! rank slot), assigns a rank (honoring the hint when free — this is
//! what makes spawned worker *i* deterministically become rank *i*),
//! and answers `Welcome { rank, num_workers, protocol, session }`.
//! After the welcome both directions speak checksummed v2 frames
//! carrying binary payloads, each written directly to the socket.
//! Version-mismatched or garbled connections are dropped before they
//! can corrupt a run. Each connection handshakes on its own thread, so
//! a client that stalls mid-hello occupies only itself — never the
//! accept loop, and never a rank slot (ranks are claimed only once a
//! complete hello arrives, and released again if the welcome cannot be
//! written).
//!
//! **Self-healing.** Both ends of a connection hold the same
//! [`Endpoint`]: the write half, the session token from the welcome,
//! both sequence spaces and a bounded retransmit ring of un-acked
//! payloads. Reliable frames carry sequence numbers and CRC32
//! checksums ([`crate::wire`]). When a connection breaks — EOF, write
//! error, CRC corruption, or the liveness sweep shutting down a silent
//! socket — the worker reconnects with exponential backoff + jitter
//! under the [`ProcessCommConfig::reconnect_deadline`] budget,
//! presents its token, and both sides replay whatever the other had
//! not yet acked ([`Endpoint::replay_onto`], which carries the
//! ordering rule); duplicate deliveries are suppressed by sequence
//! number, and a sequence *gap* (a frame from the future) is treated
//! as a torn stream that forces another reconnect, so in-stream loss
//! can never be silently accepted ([`Endpoint::on_header`]). The
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
//! **Chaos.** With [`ProcessCommConfig::chaos`] set, the worker's
//! endpoint passes every outgoing frame through
//! [`crate::chaos::write_frame`], which injects the scheduled delay /
//! drop / duplicate / corruption / partition / kill faults. A
//! partition suppresses writes while it lasts and tears the stream
//! down when it lifts, so the suppressed (ringed) frames are replayed
//! by the resume instead of leaving a sequence gap. The recovery path
//! (replay on resume) bypasses injection, so a seeded schedule
//! perturbs the stream but never the repair.

use crate::chaos::{self, ChaosConfig, FrameFaults, SplitMix64};
use crate::messages::Message;
use crate::rpc::{accept_loop, wake_listener};
use crate::telemetry;
use crate::wire::{self, FrameDecoder, FrameHeader, UNSEQ};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The wire revision every worker connection — per-call session or
/// pool — speaks after its handshake: checksummed, sequence-numbered
/// v2 frames carrying the binary payload codec. Advertised as
/// `max_protocol` in the hello and as `protocol` in the welcome; a
/// peer advertising anything else is refused (`require_revision`,
/// PROTOCOL.md §4).
pub const PROTOCOL_VERSION: u32 = 3;

/// The base protocol every peer must share for the handshake itself;
/// a different value here drops the connection instead of
/// desynchronizing mid-run.
pub const BASE_PROTOCOL: u32 = 1;

/// Un-acked payloads kept per direction for replay after a reconnect.
/// A ring that reaches capacity means the peer has been unreachable
/// past any useful resume horizon: the session is declared dead loudly
/// (counted in `ugrs_comm_ring_overflows_total`, surfacing the usual
/// requeue path) rather than silently evicting — and thereby losing —
/// the oldest un-acked payload.
pub const RETRANSMIT_RING_CAP: usize = 1024;

/// Write timeout applied while a retransmit ring is replayed on
/// resume: the backstop that turns a replay stalled on a peer that
/// does not read into another reconnect instead of a hang (see
/// [`Endpoint::replay_onto`]).
const REPLAY_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

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
    /// outgoing frames; `None` (the default) injects nothing.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ProcessCommConfig {
    fn default() -> Self {
        ProcessCommConfig {
            handshake_timeout: Duration::from_secs(20),
            liveness_timeout: Duration::from_secs(15),
            heartbeat_interval: Duration::from_millis(500),
            reconnect_deadline: Duration::from_secs(5),
            chaos: None,
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
        Ok(())
    }
}

/// The revision check of every worker handshake, per-call and pool,
/// hello and welcome alike: the peer advertises [`PROTOCOL_VERSION`]
/// or the connection is refused. There is nothing to negotiate — every
/// binary is built from one tree.
pub(crate) fn require_revision(who: &str, advertised: Option<u32>) -> io::Result<()> {
    if advertised == Some(PROTOCOL_VERSION) {
        return Ok(());
    }
    let theirs =
        advertised.map_or("no wire revision".to_string(), |v| format!("wire revision {v}"));
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{who} advertises {theirs}; this build speaks revision {PROTOCOL_VERSION} only — \
             run both ends from the same build"
        ),
    ))
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
    /// Always [`BASE_PROTOCOL`].
    protocol: u32,
    rank_hint: Option<usize>,
    /// The wire revision the worker speaks after the welcome; anything
    /// but [`PROTOCOL_VERSION`] (or nothing) is refused.
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
    /// The wire revision of the session; the worker refuses anything
    /// but [`PROTOCOL_VERSION`] (or nothing).
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
// The session endpoint: what both ends of a connection keep
// ---------------------------------------------------------------------

/// What an [`Endpoint`] needs of a connection's write half beyond
/// bytes out. Implemented by `TcpStream`; tests substitute an
/// in-memory pipe.
pub trait Conn: Write {
    /// Tears the connection down under every dup of it, so the reader
    /// blocked on the other half wakes up too.
    fn close(&self);
    /// Bounds every later write (`None` = block indefinitely).
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn close(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

/// What [`Endpoint::on_header`] made of a received frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// In order (or unsequenced): deliver the payload.
    Accept,
    /// Already delivered before a reconnect: drop the payload.
    Duplicate,
    /// A frame from the future — bytes vanished in-stream. Never
    /// accepted: the caller tears the connection down so the resume
    /// replays the missing range from the unmoved `rx_next`.
    Gap,
}

/// [`Endpoint::send`] refused a reliable payload: the retransmit ring
/// holds [`RETRANSMIT_RING_CAP`] un-acked payloads. The payload was
/// *not* ringed and nothing was evicted; the session is beyond repair
/// and the caller declares it dead.
#[derive(Debug, PartialEq, Eq)]
pub struct RingFull;

/// One end of a resumable worker session — the coordinator holds one
/// per rank, the worker holds one. It owns the write half of the
/// current connection (if any), the session token, both sequence
/// spaces and the retransmit ring, and the rules on them; who may
/// declare the session dead, and when, stays with the owner.
pub struct Endpoint<W: Conn = TcpStream> {
    /// Write half; `None` while disconnected, and during a resume
    /// until the replay is on the wire.
    writer: Option<W>,
    /// Session identity a reconnecting worker must present.
    token: u64,
    /// Next outgoing sequence number.
    tx_next: u64,
    /// Un-acked outgoing payloads for replay on resume.
    ring: VecDeque<(u64, Arc<Vec<u8>>)>,
    /// Next incoming seq expected; anything below is a duplicate.
    rx_next: u64,
    /// The seeded fault schedule on the write path (worker side under
    /// chaos only).
    faults: Option<FrameFaults>,
}

impl<W: Conn> Endpoint<W> {
    /// A fresh session: both sequence spaces at zero, nothing ringed.
    pub fn new(token: u64, writer: Option<W>, chaos: Option<&ChaosConfig>) -> Self {
        Endpoint {
            writer,
            token,
            tx_next: 0,
            ring: VecDeque::new(),
            rx_next: 0,
            faults: chaos.map(FrameFaults::new),
        }
    }

    /// The session token.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Next incoming sequence number expected — what a resume tells
    /// the peer to replay from.
    pub fn rx_next(&self) -> u64 {
        self.rx_next
    }

    /// Whether a connection is currently published for writing.
    pub fn is_attached(&self) -> bool {
        self.writer.is_some()
    }

    /// Sequence numbers of the payloads still awaiting an ack, oldest
    /// first.
    pub fn unacked(&self) -> impl Iterator<Item = u64> + '_ {
        self.ring.iter().map(|(seq, _)| *seq)
    }

    /// Sends one payload. A `reliable` payload is sequenced and ringed
    /// *before* the write, so `Ok` means delivered, or replayed by the
    /// next resume; an unreliable one (heartbeat, ack carrier) goes
    /// out [`UNSEQ`] and is simply lost with the connection. A failed
    /// write (or an injected fault that demands it) detaches the
    /// connection — the owner's reader notices and the reconnect
    /// window opens. `Err` only on ring overflow.
    pub fn send(&mut self, payload: Vec<u8>, reliable: bool) -> Result<(), RingFull> {
        let seq = if reliable {
            if self.ring.len() >= RETRANSMIT_RING_CAP {
                telemetry::comm().ring_overflows.inc();
                return Err(RingFull);
            }
            let seq = self.tx_next;
            self.tx_next += 1;
            seq
        } else {
            UNSEQ
        };
        let framed = wire::frame_v2(&payload, FrameHeader { seq, ack: self.rx_next });
        if reliable {
            self.ring.push_back((seq, Arc::new(payload)));
        }
        if let Some(w) = self.writer.as_mut() {
            if chaos::write_frame(self.faults.as_mut(), w, &framed).is_err() {
                self.detach();
            }
        }
        Ok(())
    }

    /// Applies a received frame's header: duplicate suppression, gap
    /// detection, advancing `rx_next`, and trimming the ring by the
    /// peer's cumulative ack. Only an [`Arrival::Accept`]ed frame moves
    /// any state.
    pub fn on_header(&mut self, header: FrameHeader) -> Arrival {
        if header.seq != UNSEQ {
            if header.seq < self.rx_next {
                telemetry::comm().dup_frames.inc();
                return Arrival::Duplicate;
            }
            if header.seq > self.rx_next {
                telemetry::comm().seq_gaps.inc();
                return Arrival::Gap;
            }
            self.rx_next = header.seq + 1;
        }
        self.trim(header.ack);
        Arrival::Accept
    }

    fn trim(&mut self, ack: u64) {
        while self.ring.front().is_some_and(|(seq, _)| *seq < ack) {
            self.ring.pop_front();
        }
    }

    /// Drops the current connection (if any), closing the socket under
    /// the reader. Session state is untouched: ringed payloads await
    /// the resume.
    pub fn detach(&mut self) {
        if let Some(w) = self.writer.take() {
            w.close();
        }
    }

    /// Re-attaches the session to `stream` after the resume handshake:
    /// replays every payload the peer has not received (`peer_rx_next`
    /// is the peer's [`Self::rx_next`] from its hello or welcome), then
    /// publishes `stream` as the writer. `lock` + `endpoint` reach the
    /// endpoint inside its owner's state; `endpoint` returns `None`
    /// once the owner gave the session up (died, or a newer connection
    /// superseded this one), which abandons the resume: `Ok(false)`.
    /// On `Err` the stream is closed and the session stays detached
    /// for the next attempt.
    ///
    /// This is the one ordering rule of the transport. The writer
    /// stays *unpublished* until the whole replay is on the wire, and
    /// the replay runs outside the owner's lock: a concurrent
    /// [`Self::send`] therefore rings its payload without writing, and
    /// those frames are flushed — in sequence order, under the lock —
    /// just before publication, so a fresh frame can never overtake a
    /// replayed one (the peer would bump its `rx_next` past the replay
    /// and discard the rest as duplicates). Replay bypasses fault
    /// injection. Both ends replay at once; the coordinator starts its
    /// reader *before* calling this, so the worker's replay always
    /// drains, and `REPLAY_WRITE_TIMEOUT` (armed for the whole call)
    /// turns any residual stall — the worker's reader is the thread
    /// doing its replay — into another reconnect instead of a
    /// deadlock of two blocking writes.
    pub fn replay_onto<L>(
        lock: &Mutex<L>,
        endpoint: impl Fn(&mut L) -> Option<&mut Self>,
        mut stream: W,
        peer_rx_next: u64,
    ) -> io::Result<bool> {
        match Self::replay(lock, &endpoint, &mut stream, peer_rx_next) {
            Ok(Some(mut owner)) => {
                let ep = endpoint(&mut owner).expect("checked under this guard");
                if let Some(faults) = ep.faults.as_mut() {
                    faults.reconnected();
                }
                ep.writer = Some(stream);
                Ok(true)
            }
            Ok(None) => {
                stream.close();
                Ok(false)
            }
            Err(e) => {
                stream.close();
                Err(e)
            }
        }
    }

    /// The writes of [`Self::replay_onto`]. `Some(guard)`: everything
    /// is on the wire and the owner's lock is still held, so the
    /// caller publishes before any other `send` can run.
    fn replay<'l, L>(
        lock: &'l Mutex<L>,
        endpoint: &impl Fn(&mut L) -> Option<&mut Self>,
        stream: &mut W,
        peer_rx_next: u64,
    ) -> io::Result<Option<MutexGuard<'l, L>>> {
        let write = |stream: &mut W, seq: u64, payload: &[u8], ack: u64| {
            stream.write_all(&wire::frame_v2(payload, FrameHeader { seq, ack }))?;
            stream.flush()
        };
        stream.set_write_timeout(Some(REPLAY_WRITE_TIMEOUT))?;
        let (backlog, ack, tx_high) = {
            let mut owner = lock.lock().unwrap();
            let Some(ep) = endpoint(&mut owner) else { return Ok(None) };
            ep.trim(peer_rx_next);
            (ep.ring.iter().cloned().collect::<Vec<_>>(), ep.rx_next, ep.tx_next)
        };
        for (seq, payload) in &backlog {
            write(stream, *seq, payload, ack)?;
            telemetry::comm().frames_retransmitted.inc();
        }
        let mut owner = lock.lock().unwrap();
        let Some(ep) = endpoint(&mut owner) else { return Ok(None) };
        for (seq, payload) in ep.ring.iter().filter(|(seq, _)| *seq >= tx_high) {
            write(stream, *seq, payload, ep.rx_next)?;
        }
        stream.set_write_timeout(None)?;
        Ok(Some(owner))
    }

    /// Test hook: tears the connection down underneath the session (as
    /// a mid-run network fault would) without touching any session
    /// state.
    #[cfg(test)]
    fn break_connection(&self) {
        if let Some(w) = self.writer.as_ref() {
            w.close();
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

/// Per-rank state: the session endpoint plus what only the coordinator
/// decides. Lock ordering: a `Rank` mutex is always taken *before*
/// `Shared::last_heard`, never the other way around.
struct Rank {
    ep: Endpoint,
    /// Bumped on every (re)connection; readers spawned for an older
    /// epoch must drop everything they hold.
    epoch: u64,
    /// A worker has completed a hello for this rank at least once.
    claimed: bool,
    /// Terminal; set at most once, and `WorkerDied` is synthesized by
    /// whoever sets it.
    died: bool,
    /// When the current disconnection began; `None` while connected
    /// (and while a resume replay is in flight).
    disconnected_since: Option<Instant>,
    /// Upward frames since the last downward ack carrier.
    rx_count: u64,
}

impl Rank {
    fn new() -> Self {
        Rank {
            ep: Endpoint::new(0, None, None),
            epoch: 0,
            claimed: false,
            died: false,
            disconnected_since: None,
            rx_count: 0,
        }
    }

    fn disconnect(&mut self) {
        self.ep.detach();
        if self.disconnected_since.is_none() {
            self.disconnected_since = Some(Instant::now());
        }
    }

    /// [`Endpoint::send`], opening the reconnect window when the write
    /// tore the connection down.
    fn send(&mut self, payload: Vec<u8>, reliable: bool) -> Result<(), RingFull> {
        let attached = self.ep.is_attached();
        let sent = self.ep.send(payload, reliable);
        if attached && !self.ep.is_attached() {
            self.disconnect();
        }
        sent
    }
}

struct Shared {
    ranks: Vec<Mutex<Rank>>,
    last_heard: Mutex<Vec<Instant>>,
    /// Serializes rank selection across concurrent handshake threads.
    claim_lock: Mutex<()>,
    /// Signalled (under `claim_lock`) whenever a rank's first handshake
    /// is complete; what [`ProcessListener::accept_workers`] waits on.
    rank_ready: Condvar,
    shutdown: AtomicBool,
    liveness_timeout: Duration,
    reconnect_deadline: Duration,
}

impl Shared {
    fn heard_from(&self, rank: usize) {
        self.last_heard.lock().unwrap()[rank] = Instant::now();
    }
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
            ranks: (0..n).map(|_| Mutex::new(Rank::new())).collect(),
            last_heard: Mutex::new(vec![Instant::now(); n]),
            claim_lock: Mutex::new(()),
            rank_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            liveness_timeout: config.liveness_timeout,
            reconnect_deadline: config.reconnect_deadline,
        });
        let (up_tx, up_rx) = channel();
        let addr = self.listener.local_addr()?;
        let accept = spawn_accept_loop::<Sub, Sol>(self.listener, shared.clone(), up_tx.clone());
        // From here on dropping `lc` — the error return below included
        // — stops the accept loop.
        let lc =
            ProcessLcComm { shared: shared.clone(), up_rx, up_tx, accept: Some((addr, accept)) };

        // Wait until every rank has completed a handshake (its state
        // carries a connection epoch): only then can `send_to` reach it.
        let mut claim = shared.claim_lock.lock().unwrap();
        loop {
            let ready = shared.ranks.iter().filter(|r| r.lock().unwrap().epoch > 0).count();
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
    let n = shared.ranks.len();
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
    require_revision("worker hello", hello.max_protocol)?;
    reader.set_read_timeout(None)?;
    dec.set_v2(true);

    // `Some` on a resume: the stream the un-acked ring is replayed onto
    // and where the worker wants the replay to start.
    let (rank, epoch, replay) = match hello.resume {
        Some(resume) => {
            let (rank, epoch) = welcome_back(&stream, shared, resume)?;
            (rank, epoch, Some((stream, resume.rx_next)))
        }
        None => {
            // Claim a rank (hint when free, else first unclaimed) under
            // the claim lock so concurrent handshakes cannot race to
            // one slot.
            let rank = {
                let _claim = shared.claim_lock.lock().unwrap();
                let free = |r: usize| !shared.ranks[r].lock().unwrap().claimed;
                let rank = match hello.rank_hint {
                    Some(h) if h < n && free(h) => Some(h),
                    _ => (0..n).find(|&r| free(r)),
                };
                let Some(rank) = rank else {
                    return Err(io::Error::other("all ranks claimed"));
                };
                shared.ranks[rank].lock().unwrap().claimed = true;
                rank
            };
            let token = fresh_token();
            let welcome = Welcome {
                rank,
                num_workers: n,
                protocol: Some(PROTOCOL_VERSION),
                session: Some(Session { token, rx_next: 0 }),
            };
            if let Err(e) = wire::write_msg(&mut (&stream), &welcome) {
                // Welcome undeliverable: release the slot for a late,
                // legitimate worker instead of leaving it
                // half-registered.
                shared.ranks[rank].lock().unwrap().claimed = false;
                return Err(e);
            }
            let epoch = {
                let mut state = shared.ranks[rank].lock().unwrap();
                state.ep = Endpoint::new(token, Some(stream), None);
                state.epoch += 1;
                state.died = false;
                state.disconnected_since = None;
                state.rx_count = 0;
                state.epoch
            };
            // Under the claim lock, or a waiter between its count and
            // its wait would miss the wake-up.
            drop(shared.claim_lock.lock().unwrap());
            shared.rank_ready.notify_all();
            (rank, epoch, None)
        }
    };

    // The reader runs before any replay starts: the worker is replaying
    // its own ring at the same time (see [`Endpoint::replay_onto`]).
    shared.heard_from(rank);
    spawn_lc_reader::<Sub, Sol>(rank, epoch, reader, dec, shared.clone(), up_tx);
    if let Some((stream, from)) = replay {
        let resumed = Endpoint::replay_onto(
            &shared.ranks[rank],
            |state: &mut Rank| (state.epoch == epoch && !state.died).then_some(&mut state.ep),
            stream,
            from,
        );
        if resumed.is_err() {
            // Keep the reconnect window open for the next attempt
            // (unless a newer connection superseded this one).
            let mut state = shared.ranks[rank].lock().unwrap();
            if state.epoch == epoch && state.disconnected_since.is_none() {
                state.disconnected_since = Some(Instant::now());
            }
        }
    }
    Ok(())
}

/// The resume half of the handshake up to the welcome: validates the
/// session token, kicks out a half-alive predecessor connection, opens
/// a new connection epoch and tells the worker where to replay from.
/// The writer stays unpublished; [`Endpoint::replay_onto`] finishes the
/// job once the reader runs.
fn welcome_back(stream: &TcpStream, shared: &Shared, resume: Resume) -> io::Result<(usize, u64)> {
    let stale = || io::Error::new(io::ErrorKind::NotFound, "unknown or dead session token");
    let live = |state: &Rank| state.claimed && !state.died && state.ep.token() == resume.token;
    let rank = shared.ranks.iter().position(|r| live(&r.lock().unwrap())).ok_or_else(stale)?;
    let mut state = shared.ranks[rank].lock().unwrap();
    // Double-check under the lock (a racing resume may have won).
    if !live(&state) {
        return Err(stale());
    }
    state.disconnect();
    state.epoch += 1;
    let welcome = Welcome {
        rank,
        num_workers: shared.ranks.len(),
        protocol: Some(PROTOCOL_VERSION),
        session: Some(Session { token: resume.token, rx_next: state.ep.rx_next() }),
    };
    let mut out = stream;
    wire::write_msg(&mut out, &welcome)?;
    state.disconnected_since = None;
    // The session is re-attached: count the reconnect now, before the
    // reader can surface any resumed traffic (a test observing the
    // replayed messages must already see the counter).
    telemetry::comm().reconnects.inc();
    Ok((rank, state.epoch))
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
            let err = match wire::read_frame(&mut stream, &mut dec) {
                Ok(Some((header, payload))) => {
                    // Header bookkeeping under the rank lock; decoding
                    // happens outside it.
                    let arrival = {
                        let mut state = shared.ranks[rank].lock().unwrap();
                        if state.epoch != epoch {
                            return; // superseded by a reconnection
                        }
                        let arrival = state.ep.on_header(header);
                        if arrival == Arrival::Accept {
                            state.rx_count += 1;
                            if state.rx_count.is_multiple_of(ACK_EVERY) {
                                let ping = WireMsg::<Sub, Sol>::Ping { rank };
                                let _ = state.send(wire::to_payload_binary(&ping), false);
                            }
                        }
                        arrival
                    };
                    let decoded = match arrival {
                        Arrival::Accept => wire::decode::<WireMsg<Sub, Sol>>(&payload),
                        // Nothing to deliver, but the rank is alive.
                        Arrival::Duplicate => Ok(WireMsg::Ping { rank }),
                        Arrival::Gap => Err(wire::WireError::Io("upward sequence gap".into())),
                    };
                    match decoded {
                        Ok(msg) => {
                            shared.heard_from(rank);
                            if let WireMsg::Msg(msg) = msg {
                                if up_tx.send(msg).is_err() {
                                    return; // coordinator gone
                                }
                            }
                            continue;
                        }
                        // A gap merely reopens the reconnect window; a
                        // CRC-clean but unparseable payload is a
                        // protocol bug, not line noise, and kills the
                        // rank.
                        Err(e) => Some(e.into()),
                    }
                }
                Ok(None) => None,
                Err(e) => Some(e),
            };
            lc_reader_on_error(rank, epoch, &shared, &up_tx, err);
            return;
        })
        .expect("spawn lc reader thread");
}

/// Reader-side connection teardown: within the reconnect budget this
/// merely opens the reconnect window; otherwise the rank dies
/// (exactly once — the `died` flag is checked and set under the rank
/// mutex by every path that can report a death).
fn lc_reader_on_error<Sub, Sol>(
    rank: usize,
    epoch: u64,
    shared: &Arc<Shared>,
    up_tx: &Sender<Message<Sub, Sol>>,
    err: Option<io::Error>,
) {
    let fatal = err.as_ref().is_some_and(wire::io_error_is_fatal);
    let mut state = shared.ranks[rank].lock().unwrap();
    if state.epoch != epoch || state.died || shared.shutdown.load(Ordering::SeqCst) {
        return;
    }
    state.disconnect();
    if fatal || shared.reconnect_deadline.is_zero() {
        state.died = true;
        drop(state);
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
        write!(f, "ProcessLcComm(n={})", self.shared.ranks.len())
    }
}

impl<Sub, Sol> ProcessLcComm<Sub, Sol>
where
    Sub: Serialize + DeserializeOwned,
    Sol: Serialize + DeserializeOwned,
{
    /// Number of connected worker processes.
    pub fn num_workers(&self) -> usize {
        self.shared.ranks.len()
    }

    /// Sends to one rank. The payload is ringed for replay first, so
    /// `true` means *delivered or will be on resume*; a failed write
    /// merely opens the reconnect window, and `false` reports a dead
    /// rank — including the rank dying right here because its
    /// retransmit ring overflowed (the un-acked backlog outgrew any
    /// useful resume horizon; `WorkerDied` is synthesized so the
    /// supervisor requeues instead of the message silently vanishing).
    pub fn send_to(&self, rank: usize, msg: Message<Sub, Sol>) -> bool {
        let Some(slot) = self.shared.ranks.get(rank) else { return false };
        let payload = wire::to_payload_binary(&WireMsg::Msg(msg));
        let mut state = slot.lock().unwrap();
        if !state.claimed || state.died {
            return false;
        }
        if state.send(payload, true).is_err() {
            state.died = true;
            state.disconnect();
            drop(state);
            let _ = self.up_tx.send(Message::WorkerDied { rank });
            return false;
        }
        true
    }

    /// Receives the next upward message, sweeping liveness first: a
    /// rank silent past the timeout has its socket shut down, which
    /// opens the reconnect window; a rank disconnected past the
    /// reconnect deadline (immediately, for a zero deadline) is
    /// reported as [`Message::WorkerDied`] exactly once.
    pub fn recv_timeout(&self, d: Duration) -> Option<Message<Sub, Sol>> {
        for (rank, slot) in self.shared.ranks.iter().enumerate() {
            let mut state = slot.lock().unwrap();
            if !state.claimed || state.died {
                continue;
            }
            if state.ep.is_attached() {
                let heard = self.shared.last_heard.lock().unwrap()[rank];
                if heard.elapsed() > self.shared.liveness_timeout {
                    state.disconnect();
                    if self.shared.reconnect_deadline.is_zero() {
                        state.died = true;
                        return Some(Message::WorkerDied { rank });
                    }
                }
            } else if let Some(since) = state.disconnected_since {
                if since.elapsed() > self.shared.reconnect_deadline {
                    state.died = true;
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
        for slot in &self.shared.ranks {
            if let Ok(mut state) = slot.lock() {
                state.ep.detach();
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

/// Worker-side state behind one mutex: the session endpoint, and
/// whether the reader gave the session up for good (sends fail from
/// there on).
struct WorkerSide {
    ep: Endpoint,
    dead: bool,
}

impl WorkerSide {
    fn give_up(&mut self) {
        self.dead = true;
        self.ep.detach();
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

/// The worker half of the hello/welcome exchange on a dialled stream:
/// returns the reader (already switched to post-handshake frames), the
/// assigned rank and the session the coordinator answered with.
fn say_hello(
    stream: &TcpStream,
    rank_hint: Option<usize>,
    resume: Option<Resume>,
) -> io::Result<(TcpStream, FrameDecoder, usize, Session)> {
    let hello =
        Hello { protocol: BASE_PROTOCOL, rank_hint, max_protocol: Some(PROTOCOL_VERSION), resume };
    let mut out = stream;
    wire::write_msg(&mut out, &hello)?;
    let mut reader = stream.try_clone()?;
    let mut dec = FrameDecoder::new();
    let welcome: Welcome = wire::read_msg(&mut reader, &mut dec)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "coordinator closed before welcome")
    })?;
    require_revision("coordinator welcome", welcome.protocol)?;
    let session = welcome.session.ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "coordinator welcome carries no session")
    })?;
    stream.set_read_timeout(None)?;
    dec.set_v2(true);
    Ok((reader, dec, welcome.rank, session))
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
    let (reader, dec, rank, session) = say_hello(&stream, rank_hint, None)?;
    let inner = Arc::new(Mutex::new(WorkerSide {
        ep: Endpoint::new(session.token, Some(stream), config.chaos.as_ref()),
        dead: false,
    }));
    let shutdown = Arc::new(AtomicBool::new(false));
    let (down_tx, down_rx) = channel();
    spawn_worker_reader::<Sub, Sol>(
        rank,
        addr.to_string(),
        config.reconnect_deadline,
        reader,
        dec,
        inner.clone(),
        shutdown.clone(),
        down_tx,
    );
    spawn_heartbeat::<Sub, Sol>(rank, inner.clone(), shutdown.clone(), config.heartbeat_interval);

    Ok(ProcessWorkerComm { rank, inner, down_rx, shutdown })
}

/// The worker's read loop plus the reconnect-and-resume policy: on any
/// retryable connection failure it redials with
/// exponential backoff + jitter under the reconnect deadline, resumes
/// the session by token, replays its un-acked ring, and carries on.
/// Returning from this thread drops `down_tx`, which is how `recv()`
/// learns the connection is gone for good.
#[allow(clippy::too_many_arguments)]
fn spawn_worker_reader<Sub, Sol>(
    rank: usize,
    addr: String,
    reconnect_deadline: Duration,
    mut stream: TcpStream,
    mut dec: FrameDecoder,
    inner: Arc<Mutex<WorkerSide>>,
    shutdown: Arc<AtomicBool>,
    down_tx: Sender<Message<Sub, Sol>>,
) where
    Sub: Serialize + DeserializeOwned + Send + 'static,
    Sol: Serialize + DeserializeOwned + Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("worker-reader-{rank}"))
        .spawn(move || loop {
            let err = match wire::read_frame(&mut stream, &mut dec) {
                Ok(Some((header, payload))) => {
                    let arrival = inner.lock().unwrap().ep.on_header(header);
                    let decoded = match arrival {
                        Arrival::Accept => wire::decode::<WireMsg<Sub, Sol>>(&payload),
                        Arrival::Duplicate => continue,
                        Arrival::Gap => Err(wire::WireError::Io("downward sequence gap".into())),
                    };
                    match decoded {
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
                Ok(None) => None,
                Err(e) => Some(e),
            };
            // Connection-level failure (or fatal codec error).
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            let fatal = err.as_ref().is_some_and(wire::io_error_is_fatal);
            let resumed = if fatal || reconnect_deadline.is_zero() {
                None
            } else {
                reconnect_worker(rank, &addr, reconnect_deadline, &inner, &shutdown)
            };
            match resumed {
                Some((s, d)) => (stream, dec) = (s, d),
                None => {
                    inner.lock().unwrap().give_up();
                    return;
                }
            }
        })
        .expect("spawn worker reader thread");
}

/// Redials and resumes the session; `None` when the deadline budget
/// runs out or the session died meanwhile (the rank then dies and the
/// coordinator requeues).
fn reconnect_worker(
    rank: usize,
    addr: &str,
    reconnect_deadline: Duration,
    inner: &Mutex<WorkerSide>,
    shutdown: &AtomicBool,
) -> Option<(TcpStream, FrameDecoder)> {
    let (token, rx_next) = {
        let mut g = inner.lock().unwrap();
        g.ep.detach();
        (g.ep.token(), g.ep.rx_next())
    };
    let deadline = Instant::now() + reconnect_deadline;
    let mut jitter = SplitMix64::new(token ^ rank as u64);
    let mut attempt = 0u32;
    loop {
        if attempt > 0 {
            let base = 50u64.saturating_mul(1u64 << attempt.min(5)).min(2000);
            let backoff = Duration::from_millis(base + jitter.next_u64() % (base / 2 + 1));
            let remaining = deadline.saturating_duration_since(Instant::now());
            std::thread::sleep(backoff.min(remaining));
        }
        attempt += 1;
        if shutdown.load(Ordering::SeqCst)
            || Instant::now() >= deadline
            || inner.lock().unwrap().dead
        {
            return None; // dead: e.g. ring overflow while we were redialing
        }
        let Ok(stream) = TcpStream::connect(addr) else { continue };
        stream.set_nodelay(true).ok();
        if stream.set_read_timeout(Some(Duration::from_secs(5))).is_err() {
            continue;
        }
        // A refused token or a hang-up: redial.
        let Ok((reader, dec, _, session)) =
            say_hello(&stream, Some(rank), Some(Resume { token, rx_next }))
        else {
            continue;
        };
        let resumed = Endpoint::replay_onto(
            inner,
            |side: &mut WorkerSide| (!side.dead).then_some(&mut side.ep),
            stream,
            session.rx_next,
        );
        match resumed {
            Ok(true) => return Some((reader, dec)),
            Ok(false) => return None,
            Err(_) => continue,
        }
    }
}

fn spawn_heartbeat<Sub, Sol>(
    rank: usize,
    inner: Arc<Mutex<WorkerSide>>,
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
            let ping = wire::to_payload_binary(&WireMsg::<Sub, Sol>::Ping { rank });
            let _ = g.ep.send(ping, false);
        })
        .expect("spawn heartbeat thread");
}

/// Worker endpoint of the process transport.
pub struct ProcessWorkerComm<Sub, Sol> {
    rank: usize,
    inner: Arc<Mutex<WorkerSide>>,
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
    /// ringed; the coordinator's reconnect deadline then requeues the
    /// rank).
    pub fn send(&self, msg: Message<Sub, Sol>) -> bool {
        let payload = wire::to_payload_binary(&WireMsg::Msg(msg));
        let mut g = self.inner.lock().unwrap();
        if !g.dead && g.ep.send(payload, true).is_err() {
            g.give_up();
        }
        !g.dead
    }

    /// Test hook: see [`Endpoint::break_connection`].
    #[cfg(test)]
    pub(crate) fn test_break_connection(&self) {
        self.inner.lock().unwrap().ep.break_connection();
    }
}

impl<Sub, Sol> Drop for ProcessWorkerComm<Sub, Sol> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Closing acts on the socket itself, past every `try_clone`
        // dup the reader thread holds — it unblocks with EOF/EPIPE and
        // exits, and the coordinator sees the hang-up at once (even
        // when the worker is dying abnormally).
        if let Ok(mut g) = self.inner.lock() {
            g.ep.detach();
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

    /// There is one wire revision and no negotiation: a hello that
    /// advertises none (a pre-v2 worker) or an older one (`max_protocol:
    /// 2`, the retired JSON session) is hung up on without a welcome,
    /// the refusal names both revisions, it takes no rank slot, and the
    /// worker that connects afterwards still gets the rank the refused
    /// ones hinted at.
    #[test]
    fn hello_without_max_protocol_is_refused_and_takes_no_rank() {
        let listener = ProcessListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = config();

        let clients = std::thread::spawn(move || {
            for max_protocol in [None, Some(2)] {
                let old = TcpStream::connect(addr).unwrap();
                wire::write_msg(
                    &mut (&old),
                    &Hello {
                        protocol: BASE_PROTOCOL,
                        rank_hint: Some(0),
                        max_protocol,
                        resume: None,
                    },
                )
                .unwrap();
                let mut reader = old.try_clone().unwrap();
                reader.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let mut dec = FrameDecoder::new();
                assert!(
                    matches!(wire::read_msg::<Welcome, _>(&mut reader, &mut dec), Ok(None)),
                    "hello {max_protocol:?} must be answered by a hang-up, not a welcome"
                );
            }
            // Only now, with the refusals complete, does the real worker
            // arrive: had an old hello kept rank 0 it would get none.
            let comm = connect_worker::<u32, u32>(&addr.to_string(), Some(0), &config()).unwrap();
            assert_eq!(comm.rank(), 0);
            assert!(matches!(comm.recv(), Some(Message::Terminate)));
        });

        let lc = listener.accept_workers::<u32, u32>(1, &cfg).unwrap();
        assert!(lc.send_to(0, Message::Terminate));
        clients.join().unwrap();

        for advertised in [None, Some(2), Some(4)] {
            let msg = require_revision("worker hello", advertised).unwrap_err().to_string();
            let theirs = advertised.map_or("no wire revision".into(), |v| format!("revision {v}"));
            assert!(msg.contains(&theirs) && msg.contains("revision 3"), "unhelpful: {msg}");
        }
        assert!(require_revision("worker hello", Some(PROTOCOL_VERSION)).is_ok());
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
            ranks: vec![Mutex::new(Rank::new())],
            last_heard: Mutex::new(vec![Instant::now()]),
            claim_lock: Mutex::new(()),
            rank_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            liveness_timeout: Duration::from_secs(30),
            reconnect_deadline: Duration::from_secs(30),
        });
        {
            let mut state = shared.ranks[0].lock().unwrap();
            state.claimed = true;
            // Disconnected: every send rings its payload un-acked.
            state.disconnected_since = Some(Instant::now());
        }
        let (up_tx, up_rx) = channel();
        let lc = ProcessLcComm::<u32, u32> { shared: shared.clone(), up_rx, up_tx, accept: None };

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
        let unacked = shared.ranks[0].lock().unwrap().ep.unacked().count();
        assert_eq!(unacked, RETRANSMIT_RING_CAP, "no payload may be evicted");
    }

    /// The worker end reacts to the same overflow the same way: at
    /// capacity the session dies, sends fail from there on, and no
    /// ringed payload is evicted.
    #[test]
    fn worker_ring_overflow_kills_the_session() {
        let inner =
            Arc::new(Mutex::new(WorkerSide { ep: Endpoint::new(1, None, None), dead: false }));
        let (_down_tx, down_rx) = channel();
        let comm = ProcessWorkerComm::<u32, u32> {
            rank: 0,
            inner: inner.clone(),
            down_rx,
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        for _ in 0..RETRANSMIT_RING_CAP {
            assert!(comm.send(Message::Terminate), "ringed sends report success");
        }
        assert!(!inner.lock().unwrap().dead);
        assert!(!comm.send(Message::Terminate), "overflow must kill the session loudly");
        let side = inner.lock().unwrap();
        assert!(side.dead);
        assert_eq!(side.ep.unacked().count(), RETRANSMIT_RING_CAP, "no payload may be evicted");
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
        // Every frame the schedule sees opens a 10 ms partition.
        let profile = crate::chaos::ChaosProfile {
            partition_p: 1.0,
            partition_ms: 10,
            ..crate::chaos::ChaosProfile::none()
        };
        let plan = ChaosConfig::new(7, profile);
        let mut ep = Endpoint::new(1, Some(stream), Some(&plan));
        let payload = wire::to_payload_binary(&WireMsg::<u32, u32>::Ping { rank: 0 });
        ep.send(payload.clone(), true).unwrap(); // opens the partition: suppressed, ringed
        ep.send(payload.clone(), true).unwrap(); // partitioned: suppressed, ringed
        assert!(ep.is_attached(), "the socket stays open while partitioned");
        std::thread::sleep(Duration::from_millis(25));
        ep.send(payload, true).unwrap(); // lift
        assert!(!ep.is_attached(), "lifting the partition must force a reconnect");
        assert_eq!(ep.unacked().count(), 3, "every frame must await the resume replay");
    }
}
