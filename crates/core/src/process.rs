//! The worker transport: **ProcessComm**, `ug [ugrs-*, ProcessComm]` —
//! the ParaSCIP half of the paper's transport matrix, with localhost
//! TCP standing in for MPI — and the connection layer of `ugd-server`'s
//! worker pool, which is the same thing.
//!
//! Topology is a star, exactly like UG's LoadCoordinator-centric MPI
//! layout: the coordinator process listens, spawns (or is joined by)
//! worker processes, and each worker holds one connection carrying
//! [`crate::wire`] frames both ways.
//!
//! **One worker protocol.** Every worker speaks the pool protocol
//! ([`PoolDown`]/[`PoolUp`]): it receives each job's instance in a
//! `Begin` and the job's coordination messages tagged with the job id,
//! and it stays alive across jobs ([`crate::worker::serve_worker`]). A
//! per-call distributed solve is a private one-job pool: it spawns its
//! workers, sends one `Begin` for job 0, runs its coordinator over a
//! [`JobComm`] exactly like a served job does, and ends the workers by
//! closing the sessions and killing the processes (`reap`).
//!
//! **One session layer, two owners.** `Sessions` is the coordinator
//! half of every worker connection: the accept loop, the
//! hello/welcome/resume handshake, one reader per connection, the ack
//! carrier, the liveness sweep and death reporting. It accepts members
//! at any time. What a delivered payload or a death *means* belongs to
//! its `SessionOwner`: a per-call run's `Ranks` (`n` fixed members,
//! see [`accept_ranks`]) or the server's pool ([`crate::server`]:
//! members come and go). The worker half — dial, hello, the reader with
//! its reconnect policy, the heartbeat — is [`WorkerLink`].
//!
//! **Handshake.** A connecting worker sends a [`Hello`] (always as a v1
//! frame); the coordinator verifies the base protocol and the
//! advertised wire revision (`require_revision`: [`PROTOCOL_VERSION`]
//! or refused — the connection is closed without a welcome and without
//! taking a member id), lets the owner pick the member id from the
//! hello's spawn tag (a per-call run's worker tagged *i* becomes rank
//! *i*; the pool marries the tag back to its `Child`), and answers
//! with a [`Welcome`] carrying the id and a session token. After the welcome both
//! directions speak checksummed v2 frames carrying binary payloads,
//! each written directly to the socket. Each connection handshakes on
//! its own thread, so a client that stalls mid-hello occupies only
//! itself — never the accept loop, and never a member id (ids are
//! taken only once a complete hello arrives, and given back if the
//! welcome cannot be written).
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
//! can never be silently accepted ([`Endpoint::on_header`]). The owner
//! never hears about a transient drop. Only when the deadline expires
//! (or with a zero deadline, or when a retransmit ring overflows) does
//! the session die — reported to the owner exactly once, which turns
//! it into [`Message::WorkerDied`] and the requeue path (plus, in the
//! pool, a refill).
//! Recoveries are recorded in `ugrs_comm_reconnects_total` and
//! `ugrs_comm_frames_retransmitted_total`; anomalies in
//! `ugrs_comm_seq_gaps_total` and `ugrs_comm_ring_overflows_total`.
//!
//! **Liveness.** Every worker runs a heartbeat thread sending an empty
//! unsequenced frame at a fixed interval, independent of solving, so a
//! busy-but-healthy worker deep in a subtree is never declared dead.
//! The owner's periodic `Sessions::sweep` catches the
//! hung-but-connected case: the silent socket is shut down, which
//! merely opens the reconnect window.
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
use crate::wire::{self, EncodedInstance, FrameDecoder, FrameHeader, WireError, UNSEQ};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The wire revision every worker connection speaks after its
/// handshake: checksummed, sequence-numbered v2 frames carrying the
/// binary payload codec, whose payloads are the pool protocol
/// ([`PoolDown`]/[`PoolUp`]), a `Begin` carrying the
/// [`EncodedInstance`]. Advertised as `max_protocol` in the hello and
/// as `protocol` in the welcome; a peer advertising anything else is
/// refused (`require_revision`, PROTOCOL.md §4).
pub const PROTOCOL_VERSION: u32 = 5;

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
    /// A worker whose last frame (of any kind) is older than this is
    /// declared unreachable even though its socket is still open.
    pub liveness_timeout: Duration,
    /// Interval of the worker-side heartbeat.
    pub heartbeat_interval: Duration,
    /// Budget for a broken connection to reconnect and resume its
    /// session before the worker is declared dead. Zero disables
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
    /// single delayed heartbeat gets a healthy worker declared dead.
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

/// The revision check of every worker handshake, hello and welcome
/// alike: the peer advertises [`PROTOCOL_VERSION`] or the connection is
/// refused. There is nothing to negotiate — every binary is built from
/// one tree.
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

/// The first frame of every worker connection.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Hello {
    /// Always [`BASE_PROTOCOL`].
    pub protocol: u32,
    /// The wire revision the worker speaks after the welcome; anything
    /// but [`PROTOCOL_VERSION`] (or nothing) is refused.
    #[serde(default)]
    pub max_protocol: Option<u32>,
    /// Present when re-attaching to an existing session.
    #[serde(default)]
    pub resume: Option<Resume>,
    /// The spawn tag on the worker's command line (`--pool-tag`): a
    /// per-call worker's rank, and what lets a server marry the
    /// connection back to the `Child` it spawned. `None` for externally
    /// started workers.
    #[serde(default)]
    pub tag: Option<u64>,
    /// The worker's OS pid (shown in the server's status, for targeted
    /// kills).
    #[serde(default)]
    pub pid: Option<u32>,
}

impl Hello {
    /// The hello of a fresh worker of this build.
    pub fn new(tag: Option<u64>) -> Self {
        Hello {
            protocol: BASE_PROTOCOL,
            max_protocol: Some(PROTOCOL_VERSION),
            resume: None,
            tag,
            pid: Some(std::process::id()),
        }
    }
}

/// What a reconnecting worker presents in its [`Hello`].
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct Resume {
    /// The session token from the original welcome.
    pub token: u64,
    /// Next downward seq the worker expects; the coordinator replays
    /// its ring from here.
    pub rx_next: u64,
}

/// The coordinator's answer to a [`Hello`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Welcome {
    /// The member id: a per-call worker's rank, a pool worker's pool id.
    pub rank: u64,
    /// The wire revision of the session; the worker refuses anything
    /// but [`PROTOCOL_VERSION`] (or nothing).
    #[serde(default)]
    pub protocol: Option<u32>,
    /// The session identity, and on resume the next upward seq the
    /// coordinator expects (the worker replays from it).
    #[serde(default)]
    pub session: Option<Session>,
}

/// The session part of a [`Welcome`].
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct Session {
    /// The token a reconnecting worker presents.
    pub token: u64,
    /// Next upward seq the coordinator expects.
    pub rx_next: u64,
}

// ---------------------------------------------------------------------
// The pool protocol: the payloads of every worker session
// ---------------------------------------------------------------------

/// Coordinator → worker payloads.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum PoolDown<Sub, Sol> {
    /// A new job starts on this worker: load the instance. Encoded once
    /// per job; every worker of the job receives the identical bytes.
    Begin {
        /// The job the following frames belong to (0 in a per-call run).
        job: u64,
        /// The instance the worker builds its base solver from, as the
        /// client encoded it; the worker's job loop decodes it.
        instance: EncodedInstance,
    },
    /// A coordination message of the named job, verbatim.
    Ug {
        /// The addressed job.
        job: u64,
        /// The coordinator's message to this worker.
        msg: Message<Sub, Sol>,
    },
}

/// Worker → coordinator payloads (the session names the sending
/// worker).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum PoolUp<Sub, Sol> {
    /// A coordination message of the named job. The worker always says
    /// rank 0 about itself; the session's owner rewrites the rank
    /// (`set_rank`) before forwarding to the job's coordinator.
    Ug {
        /// The job this message belongs to.
        job: u64,
        /// The worker's message to the coordinator.
        msg: Message<Sub, Sol>,
    },
    /// The worker acknowledged the job's `Terminate` and is free again.
    /// A pool releases a lease only on this payload, so a worker still
    /// draining one job can never receive the next job's `Begin`.
    JobDone {
        /// The finished job.
        job: u64,
    },
}

/// Rewrites the rank a worker reported (always 0 about itself) to its
/// rank within the job.
pub(crate) fn set_rank<Sub, Sol>(msg: &mut Message<Sub, Sol>, rank: usize) {
    match msg {
        Message::SolutionFound { rank: r, .. }
        | Message::Status { rank: r, .. }
        | Message::ExportedNode { rank: r, .. }
        | Message::Completed { rank: r, .. }
        | Message::WorkerDied { rank: r } => *r = rank,
        _ => {}
    }
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
/// per member, the worker holds one. It owns the write half of the
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
    /// next resume; an unreliable one (heartbeat, ack carrier — both an
    /// empty payload) goes out [`UNSEQ`] and is simply lost with the
    /// connection. A payload shared by several sessions (a job's
    /// instance) is passed as one `Arc` and ringed without a copy. A
    /// failed write (or an injected fault that demands it) detaches the
    /// connection — the owner's reader notices and the reconnect window
    /// opens. `Err` only on ring overflow.
    pub fn send(
        &mut self,
        payload: impl Into<Arc<Vec<u8>>>,
        reliable: bool,
    ) -> Result<(), RingFull> {
        let payload = payload.into();
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
            self.ring.push_back((seq, payload));
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
// Coordinator side: the session table
// ---------------------------------------------------------------------

/// What the owner of a [`Sessions`] table decides: who a fresh worker
/// becomes, and what a delivered payload or a death means. Every call
/// but [`Self::admit`] comes without a session lock held; owners never
/// call into their table while holding a lock of their own that
/// `admit` takes.
pub(crate) trait SessionOwner: Send + Sync + 'static {
    /// The member id of a fresh worker, or `None` to refuse its hello.
    /// `taken` tells the ids already in the table. Called under the
    /// table lock, so two hellos can never pick one id.
    fn admit(&self, hello: &Hello, taken: &dyn Fn(u64) -> bool) -> Option<u64>;
    /// The welcome of member `id` is on the wire.
    fn joined(&self, id: u64, hello: &Hello);
    /// One in-order, non-empty payload from member `id`. An error (a
    /// CRC-clean payload that does not decode: a protocol bug, not line
    /// noise) kills the member.
    fn deliver(&self, id: u64, payload: &[u8]) -> Result<(), WireError>;
    /// Member `id` is dead; reported exactly once, by whichever path —
    /// reader, sweep, or an overflowing send — saw it first.
    fn died(&self, id: u64);
    /// A worker connection was accepted (before its hello).
    fn accepted(&self) {}
    /// A heartbeat arrived `gap` after the member's previous frame.
    fn heartbeat(&self, _gap: Duration) {}
}

/// One member's state: the session endpoint plus what only the
/// coordinator decides.
struct Member {
    ep: Endpoint,
    /// Bumped on every (re)connection; readers spawned for an older
    /// epoch must drop everything they hold.
    epoch: u64,
    /// Terminal; set at most once, and the owner hears of the death
    /// from whoever sets it.
    died: bool,
    /// When the current disconnection began; `None` while connected
    /// (and while a resume replay is in flight).
    disconnected_since: Option<Instant>,
    /// Arrival of the last frame (of any kind): the liveness clock.
    last_heard: Instant,
    /// Upward frames since the last downward ack carrier.
    rx_count: u64,
}

impl Member {
    fn new(token: u64) -> Self {
        Member {
            ep: Endpoint::new(token, None, None),
            epoch: 0,
            died: false,
            disconnected_since: None,
            last_heard: Instant::now(),
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
    fn send(&mut self, payload: impl Into<Arc<Vec<u8>>>, reliable: bool) -> Result<(), RingFull> {
        let attached = self.ep.is_attached();
        let sent = self.ep.send(payload, reliable);
        if attached && !self.ep.is_attached() {
            self.disconnect();
        }
        sent
    }
}

struct Table {
    /// Lock order: the table before any member, never the reverse.
    members: Mutex<HashMap<u64, Arc<Mutex<Member>>>>,
    owner: Arc<dyn SessionOwner>,
    liveness_timeout: Duration,
    reconnect_deadline: Duration,
    shutdown: AtomicBool,
    /// The accept thread and the address that wakes it; taken and
    /// joined by [`Sessions::close`].
    accept: Mutex<Option<(SocketAddr, std::thread::JoinHandle<()>)>>,
}

/// The coordinator half of every worker connection (see the module
/// docs). Cloning shares the table.
#[derive(Clone)]
pub(crate) struct Sessions(Arc<Table>);

impl Sessions {
    /// An empty table for `owner`; [`Self::listen`] opens it to workers.
    pub(crate) fn new(config: &ProcessCommConfig, owner: Arc<dyn SessionOwner>) -> Self {
        Sessions(Arc::new(Table {
            members: Mutex::new(HashMap::new()),
            owner,
            liveness_timeout: config.liveness_timeout,
            reconnect_deadline: config.reconnect_deadline,
            shutdown: AtomicBool::new(false),
            accept: Mutex::new(None),
        }))
    }

    /// Accepts worker connections on `listener` until [`Self::close`],
    /// handing each to its own handshake thread.
    pub(crate) fn listen(&self, listener: TcpListener) -> io::Result<()> {
        let addr = listener.local_addr()?;
        let table = self.0.clone();
        let thread =
            std::thread::Builder::new().name("session-accept".into()).spawn(move || {
                accept_loop(listener, &table.shutdown, |stream| {
                    table.owner.accepted();
                    let table = table.clone();
                    std::thread::Builder::new()
                        .name("session-handshake".into())
                        .spawn(move || {
                            if let Err(e) = handshake(&table, stream) {
                                if e.kind() == io::ErrorKind::InvalidData {
                                    eprintln!("ugrs: refused a worker connection: {e}");
                                }
                            }
                        })
                        .expect("spawn session handshake thread");
                })
            })?;
        *self.0.accept.lock().unwrap() = Some((addr, thread));
        Ok(())
    }

    /// Sends one reliable payload to member `id`. It is ringed for
    /// replay first, so `true` means *delivered or will be on resume*;
    /// a failed write merely opens the reconnect window. `false`: no
    /// such member, a dead one — or one dying right here because its
    /// retransmit ring overflowed (the un-acked backlog outgrew any
    /// useful resume horizon; the owner hears of the death so the
    /// payload does not silently vanish).
    pub(crate) fn send(&self, id: u64, payload: impl Into<Arc<Vec<u8>>>) -> bool {
        let Some(member) = self.0.members.lock().unwrap().get(&id).cloned() else { return false };
        let mut m = member.lock().unwrap();
        if m.died {
            return false;
        }
        if m.send(payload, true).is_ok() {
            return true;
        }
        m.died = true;
        m.disconnect();
        drop(m);
        self.0.owner.died(id);
        false
    }

    /// The liveness sweep, run by the owner between other work: a
    /// member silent past the liveness timeout has its socket shut
    /// down, which opens the reconnect window; a member disconnected
    /// past the reconnect deadline (immediately, for a zero deadline)
    /// dies.
    pub(crate) fn sweep(&self) {
        let t = &self.0;
        let mut dead = Vec::new();
        for (id, member) in t.members.lock().unwrap().iter() {
            let mut m = member.lock().unwrap();
            if m.died {
                continue;
            }
            let expired = if m.ep.is_attached() {
                let silent = m.last_heard.elapsed() > t.liveness_timeout;
                if silent {
                    m.disconnect();
                }
                silent && t.reconnect_deadline.is_zero()
            } else {
                m.disconnected_since.is_some_and(|since| since.elapsed() > t.reconnect_deadline)
            };
            if expired {
                m.died = true;
                dead.push(*id);
            }
        }
        for id in dead {
            t.owner.died(id);
        }
    }

    /// Drops member `id` for good, at the owner's request (its process
    /// exited, or it is stuck): the connection closes, a resume finds
    /// no session, and the owner hears no death — it decided it.
    pub(crate) fn evict(&self, id: u64) {
        let member = self.0.members.lock().unwrap().remove(&id);
        if let Some(member) = member {
            let mut m = member.lock().unwrap();
            m.died = true;
            m.ep.detach();
        }
    }

    /// Stops accepting, closes every connection and joins the accept
    /// thread. Readers exit quietly; no death is reported from here on.
    pub(crate) fn close(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
        if let Ok(members) = self.0.members.lock() {
            for member in members.values() {
                if let Ok(mut m) = member.lock() {
                    m.ep.detach();
                }
            }
        }
        let accept = self.0.accept.lock().ok().and_then(|mut a| a.take());
        if let Some((addr, thread)) = accept {
            // Without the wake-up the thread stays in `accept()`:
            // leave it behind rather than hang.
            if wake_listener(addr) {
                let _ = thread.join();
            }
        }
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

/// The coordinator half of the hello/welcome exchange on one
/// connection: admits a fresh worker, or re-attaches a returning one
/// to its session and replays the un-acked ring.
fn handshake(table: &Arc<Table>, stream: TcpStream) -> io::Result<()> {
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
    let (id, member, epoch, replay) = match hello.resume {
        Some(resume) => {
            let (id, member, epoch) = welcome_back(&stream, table, resume)?;
            (id, member, epoch, Some((stream, resume.rx_next)))
        }
        None => {
            let (id, member, epoch) = welcome(stream, table, &hello)?;
            (id, member, epoch, None)
        }
    };
    // The reader runs before any replay starts: the worker is replaying
    // its own ring at the same time (see [`Endpoint::replay_onto`]).
    spawn_reader(table.clone(), id, member.clone(), epoch, reader, dec);
    if let Some((stream, from)) = replay {
        let resumed = Endpoint::replay_onto(
            &member,
            |m: &mut Member| (m.epoch == epoch && !m.died).then_some(&mut m.ep),
            stream,
            from,
        );
        if resumed.is_err() {
            // Keep the reconnect window open for the next attempt
            // (unless a newer connection superseded this one).
            let mut m = member.lock().unwrap();
            if m.epoch == epoch && m.disconnected_since.is_none() {
                m.disconnected_since = Some(Instant::now());
            }
        }
    }
    Ok(())
}

/// Admits a fresh worker: the owner picks its id under the table lock,
/// and the id is given back if the welcome cannot be written — a
/// stalling or bogus client never leaves one half-registered.
fn welcome(
    stream: TcpStream,
    table: &Table,
    hello: &Hello,
) -> io::Result<(u64, Arc<Mutex<Member>>, u64)> {
    let token = fresh_token();
    let (id, member) = {
        let mut members = table.members.lock().unwrap();
        let id = table
            .owner
            .admit(hello, &|id| members.contains_key(&id))
            .filter(|id| !members.contains_key(id))
            .ok_or_else(|| io::Error::other("no member id left for this worker"))?;
        let member = Arc::new(Mutex::new(Member::new(token)));
        members.insert(id, member.clone());
        (id, member)
    };
    let welcome = Welcome {
        rank: id,
        protocol: Some(PROTOCOL_VERSION),
        session: Some(Session { token, rx_next: 0 }),
    };
    if let Err(e) = wire::write_msg(&mut (&stream), &welcome) {
        table.members.lock().unwrap().remove(&id);
        return Err(e);
    }
    let epoch = {
        let mut m = member.lock().unwrap();
        m.ep.writer = Some(stream);
        m.epoch += 1;
        m.last_heard = Instant::now();
        m.epoch
    };
    table.owner.joined(id, hello);
    Ok((id, member, epoch))
}

/// The resume half of the handshake up to the welcome: validates the
/// session token, kicks out a half-alive predecessor connection, opens
/// a new connection epoch and tells the worker where to replay from.
/// The writer stays unpublished; [`Endpoint::replay_onto`] finishes the
/// job once the reader runs.
fn welcome_back(
    stream: &TcpStream,
    table: &Table,
    resume: Resume,
) -> io::Result<(u64, Arc<Mutex<Member>>, u64)> {
    let stale = || io::Error::new(io::ErrorKind::NotFound, "unknown or dead session token");
    let live = |m: &Member| !m.died && m.ep.token() == resume.token;
    let (id, member) = table
        .members
        .lock()
        .unwrap()
        .iter()
        .find(|(_, m)| live(&m.lock().unwrap()))
        .map(|(id, m)| (*id, m.clone()))
        .ok_or_else(stale)?;
    let mut m = member.lock().unwrap();
    // Double-check under the lock (a racing resume may have won).
    if !live(&m) {
        return Err(stale());
    }
    m.disconnect();
    m.epoch += 1;
    let welcome = Welcome {
        rank: id,
        protocol: Some(PROTOCOL_VERSION),
        session: Some(Session { token: resume.token, rx_next: m.ep.rx_next() }),
    };
    wire::write_msg(&mut { stream }, &welcome)?;
    m.disconnected_since = None;
    m.last_heard = Instant::now();
    // The session is re-attached: count the reconnect now, before the
    // reader can surface any resumed traffic (a test observing the
    // replayed messages must already see the counter).
    telemetry::comm().reconnects.inc();
    let epoch = m.epoch;
    drop(m);
    Ok((id, member, epoch))
}

/// The per-connection reader: header bookkeeping under the member lock,
/// heartbeats and ack carriers (empty payloads) consumed here, every
/// other payload handed to the owner outside the lock.
fn spawn_reader(
    table: Arc<Table>,
    id: u64,
    member: Arc<Mutex<Member>>,
    epoch: u64,
    mut stream: TcpStream,
    mut dec: FrameDecoder,
) {
    std::thread::Builder::new()
        .name(format!("session-{id}"))
        .spawn(move || loop {
            let err = match wire::read_frame(&mut stream, &mut dec) {
                Ok(Some((header, payload))) => {
                    let (arrival, gap) = {
                        let mut m = member.lock().unwrap();
                        if m.epoch != epoch {
                            return; // superseded by a reconnection
                        }
                        let arrival = m.ep.on_header(header);
                        let gap = m.last_heard.elapsed();
                        if arrival != Arrival::Gap {
                            m.last_heard = Instant::now();
                        }
                        if arrival == Arrival::Accept {
                            m.rx_count += 1;
                            if m.rx_count.is_multiple_of(ACK_EVERY) {
                                let _ = m.send(Vec::new(), false);
                            }
                        }
                        (arrival, gap)
                    };
                    // A gap merely reopens the reconnect window; a
                    // payload the owner cannot decode kills the member.
                    let delivered = match arrival {
                        Arrival::Duplicate => Ok(()),
                        Arrival::Accept if payload.is_empty() => {
                            table.owner.heartbeat(gap);
                            Ok(())
                        }
                        Arrival::Accept => table.owner.deliver(id, &payload),
                        Arrival::Gap => Err(WireError::Io("upward sequence gap".into())),
                    };
                    match delivered {
                        Ok(()) => continue,
                        Err(e) => Some(e.into()),
                    }
                }
                Ok(None) => None,
                Err(e) => Some(e),
            };
            reader_failed(&table, id, &member, epoch, err);
            return;
        })
        .expect("spawn session reader thread");
}

/// Reader-side connection teardown: within the reconnect budget this
/// merely opens the reconnect window; otherwise the member dies
/// (exactly once — the `died` flag is checked and set under the member
/// lock by every path that can report a death).
fn reader_failed(
    table: &Table,
    id: u64,
    member: &Mutex<Member>,
    epoch: u64,
    err: Option<io::Error>,
) {
    let fatal = err.as_ref().is_some_and(wire::io_error_is_fatal);
    {
        let mut m = member.lock().unwrap();
        if m.epoch != epoch || m.died || table.shutdown.load(Ordering::SeqCst) {
            return;
        }
        m.disconnect();
        if !fatal && !table.reconnect_deadline.is_zero() {
            return;
        }
        m.died = true;
    }
    table.owner.died(id);
}

// ---------------------------------------------------------------------
// Coordinator side: one job's endpoint, per-call and served
// ---------------------------------------------------------------------

/// The coordinator endpoint of one job, per-call and served alike:
/// sends to the job's workers' sessions as [`PoolDown`] payloads,
/// receives the messages the sessions' owner forwarded (ranks already
/// rewritten by `set_rank`), a dead worker's
/// [`Message::WorkerDied`] among them.
pub struct JobComm<Sub, Sol> {
    job: u64,
    sessions: Sessions,
    /// Member ids, by rank within the job.
    workers: Vec<u64>,
    inbox: Receiver<Message<Sub, Sol>>,
    /// A per-call run's endpoint owns its session table: dropping it
    /// closes the sessions and ends the accept loop. A served job's
    /// borrows the pool's.
    owns_sessions: bool,
}

impl<Sub, Sol> JobComm<Sub, Sol>
where
    Sub: Serialize + DeserializeOwned,
    Sol: Serialize + DeserializeOwned,
{
    /// A served job's endpoint over (a share of) the pool's sessions.
    pub(crate) fn new(
        job: u64,
        sessions: Sessions,
        workers: Vec<u64>,
        inbox: Receiver<Message<Sub, Sol>>,
    ) -> Self {
        JobComm { job, sessions, workers, inbox, owns_sessions: false }
    }

    /// Number of the job's workers (= its solver ranks).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Starts the job on every worker: one `Begin`, framed once, that
    /// every session rings without a copy.
    pub fn begin(&self, instance: EncodedInstance) {
        let begin = PoolDown::<Sub, Sol>::Begin { job: self.job, instance };
        let begin = Arc::new(wire::to_payload_binary(&begin));
        for &worker in &self.workers {
            self.sessions.send(worker, begin.clone());
        }
    }

    /// Sends to the worker of `rank`: `Sessions::send` — `true` means
    /// *delivered or will be on resume*, `false` an unknown rank or a
    /// dead session (`WorkerDied` is reported when the send itself
    /// killed it).
    pub fn send_to(&self, rank: usize, msg: Message<Sub, Sol>) -> bool {
        let Some(&worker) = self.workers.get(rank) else { return false };
        let ug = PoolDown::Ug { job: self.job, msg };
        self.sessions.send(worker, wire::to_payload_binary(&ug))
    }

    /// Receives the next worker message, sweeping liveness first
    /// (`Sessions::sweep`): a dead worker arrives as
    /// [`Message::WorkerDied`], exactly once.
    pub fn recv_timeout(&self, d: Duration) -> Option<Message<Sub, Sol>> {
        self.sessions.sweep();
        match self.inbox.recv_timeout(d) {
            Ok(m) => Some(m),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }
}

impl<Sub, Sol> std::fmt::Debug for JobComm<Sub, Sol> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JobComm(job={}, n={})", self.job, self.workers.len())
    }
}

impl<Sub, Sol> Drop for JobComm<Sub, Sol> {
    fn drop(&mut self) {
        if self.owns_sessions {
            self.sessions.close();
        }
    }
}

/// Accepts the `n` workers of a per-call run on `listener` — a private
/// one-job pool, job 0 — and returns its endpoint once all `n` have
/// joined. Connections that fail the handshake do not count toward
/// `n`; `TimedOut` once `config.handshake_timeout` is spent. The accept
/// loop keeps running afterwards, so broken sessions can resume for as
/// long as the endpoint lives; dropping it (the error return included)
/// closes the table.
pub fn accept_ranks<Sub, Sol>(
    listener: TcpListener,
    n: usize,
    config: &ProcessCommConfig,
) -> io::Result<JobComm<Sub, Sol>>
where
    Sub: Serialize + DeserializeOwned + Send + 'static,
    Sol: Serialize + DeserializeOwned + Send + 'static,
{
    validated(config)?;
    let deadline = Instant::now() + config.handshake_timeout;
    let (up_tx, inbox) = channel();
    let ranks = Arc::new(Ranks { n, up_tx, joined: Mutex::new(0), all_joined: Condvar::new() });
    let sessions = Sessions::new(config, ranks.clone());
    sessions.listen(listener)?;
    let workers = (0..n as u64).collect();
    let comm = JobComm { job: 0, sessions, workers, inbox, owns_sessions: true };
    let mut joined = ranks.joined.lock().unwrap();
    while *joined < n {
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("only {}/{n} workers connected in time", *joined),
            ));
        }
        joined = ranks.all_joined.wait_timeout(joined, deadline - now).unwrap().0;
    }
    drop(joined);
    Ok(comm)
}

/// The owner of a per-call run's sessions: `n` fixed ranks. Spawn tag
/// *i* becomes rank *i*; an untagged (or out-of-range) hello takes the
/// lowest free rank. Payloads are [`PoolUp`]s, a death is
/// [`Message::WorkerDied`].
struct Ranks<Sub, Sol> {
    n: usize,
    up_tx: Sender<Message<Sub, Sol>>,
    /// Ranks whose first welcome is out; what [`accept_ranks`] waits on.
    joined: Mutex<usize>,
    all_joined: Condvar,
}

impl<Sub, Sol> SessionOwner for Ranks<Sub, Sol>
where
    Sub: DeserializeOwned + Send + 'static,
    Sol: DeserializeOwned + Send + 'static,
{
    fn admit(&self, hello: &Hello, taken: &dyn Fn(u64) -> bool) -> Option<u64> {
        let free = |rank: u64| rank < self.n as u64 && !taken(rank);
        hello.tag.filter(|&t| free(t)).or_else(|| (0..self.n as u64).find(|&r| free(r)))
    }

    fn joined(&self, _id: u64, _hello: &Hello) {
        *self.joined.lock().unwrap() += 1;
        self.all_joined.notify_all();
    }

    fn deliver(&self, id: u64, payload: &[u8]) -> Result<(), WireError> {
        // `JobDone` needs no answer: the run ends its workers itself.
        if let PoolUp::Ug { mut msg, .. } = wire::decode::<PoolUp<Sub, Sol>>(payload)? {
            set_rank(&mut msg, id as usize);
            // A send error means the coordinator is gone; nothing to do.
            let _ = self.up_tx.send(msg);
        }
        Ok(())
    }

    fn died(&self, id: u64) {
        let _ = self.up_tx.send(Message::WorkerDied { rank: id as usize });
    }
}

// ---------------------------------------------------------------------
// Worker processes: how they start and how they end
// ---------------------------------------------------------------------

/// Spawns one `ugd-worker`-style process: `command` (program and fixed
/// leading arguments), then `--connect <addr> --pool-tag <tag>`, the
/// status interval and `config`'s transport tuning, so both ends share
/// one [`ProcessCommConfig`]. Under `config.chaos` each worker gets a
/// variant of the plan (seed + tag): deterministic given the tags, but
/// de-correlated — with one shared seed every worker's schedule would
/// tear its connection on the same frame.
pub(crate) fn spawn_worker(
    command: &[String],
    addr: &str,
    tag: u64,
    status_interval: f64,
    config: &ProcessCommConfig,
) -> io::Result<Child> {
    let (program, fixed_args) = command
        .split_first()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty worker_command"))?;
    let millis = |d: Duration| d.as_millis().to_string();
    let mut cmd = std::process::Command::new(program);
    cmd.args(fixed_args)
        .args(["--connect", addr, "--pool-tag", &tag.to_string()])
        .args(["--status-interval", &status_interval.to_string()])
        .args(["--heartbeat-ms", &millis(config.heartbeat_interval)])
        .args(["--handshake-ms", &millis(config.handshake_timeout)])
        .args(["--liveness-ms", &millis(config.liveness_timeout)])
        .args(["--reconnect-ms", &millis(config.reconnect_deadline)]);
    if let Some(plan) = &config.chaos {
        let profile = serde_json::to_string(&plan.profile).expect("profile serializes");
        cmd.args(["--chaos-seed", &plan.seed.wrapping_add(tag).to_string()])
            .args(["--chaos-profile", &profile]);
    }
    cmd.stdin(std::process::Stdio::null()).stdout(std::process::Stdio::null()).spawn()
}

/// Ends worker processes: kills and waits for each. A worker never
/// exits on `Terminate` — it waits for its next `Begin` — so this is
/// how every worker ends, per-call and pool alike; the owner closes the
/// workers' sessions first, so their hang-ups report no deaths.
pub(crate) fn reap(children: impl IntoIterator<Item = Child>) {
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
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
fn dial(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
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
/// assigned member id and the session the coordinator answered with.
fn say_hello(
    stream: &TcpStream,
    hello: &Hello,
) -> io::Result<(TcpStream, FrameDecoder, u64, Session)> {
    let mut out = stream;
    wire::write_msg(&mut out, hello)?;
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

/// The worker half of a session (see [`crate::worker::serve_worker`]): the
/// connection, its reader — which decodes `D`s from the coordinator
/// and owns the reconnect-and-resume policy — and the heartbeat; `U`
/// is what the worker sends up.
pub struct WorkerLink<D, U> {
    id: u64,
    inner: Arc<Mutex<WorkerSide>>,
    down_rx: Receiver<D>,
    shutdown: Arc<AtomicBool>,
    up: PhantomData<fn(U)>,
}

impl<D: DeserializeOwned + Send + 'static, U> WorkerLink<D, U> {
    /// Dials `addr`, says `hello` and starts the reader and the
    /// heartbeat.
    pub(crate) fn connect(
        addr: &str,
        hello: &Hello,
        config: &ProcessCommConfig,
    ) -> io::Result<Self> {
        validated(config)?;
        let stream = dial(addr, config.handshake_timeout)?;
        let (reader, dec, id, session) = say_hello(&stream, hello)?;
        // Faults are armed only after the handshake: a worker must
        // always be able to join, exactly as resume frames bypass chaos.
        let inner = Arc::new(Mutex::new(WorkerSide {
            ep: Endpoint::new(session.token, Some(stream), config.chaos.as_ref()),
            dead: false,
        }));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (down_tx, down_rx) = channel();
        spawn_worker_reader(
            id,
            addr.to_string(),
            config.reconnect_deadline,
            reader,
            dec,
            inner.clone(),
            shutdown.clone(),
            down_tx,
        );
        spawn_heartbeat(id, inner.clone(), shutdown.clone(), config.heartbeat_interval);
        Ok(WorkerLink { id, inner, down_rx, shutdown, up: PhantomData })
    }
}

impl<D, U: Serialize> WorkerLink<D, U> {
    /// The member id the welcome assigned: a per-call worker's rank, a
    /// pool worker's pool id.
    pub fn rank(&self) -> usize {
        self.id as usize
    }

    /// Non-blocking receive of the next coordinator message.
    pub fn try_recv(&self) -> Option<D> {
        self.down_rx.try_recv().ok()
    }

    /// Blocking receive; `None` when the connection is gone for good
    /// (only after the reconnect budget ran out).
    pub fn recv(&self) -> Option<D> {
        self.down_rx.recv().ok()
    }

    /// Sends a message upward. The payload is ringed before the write,
    /// so `true` means *delivered or will be on resume*; `false` only
    /// once the session is dead for good — including dying right here
    /// because the retransmit ring overflowed (this payload was *not*
    /// ringed; the coordinator's reconnect deadline then requeues the
    /// worker).
    pub fn send(&self, msg: U) -> bool {
        let payload = wire::to_payload_binary(&msg);
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

impl<D, U> Drop for WorkerLink<D, U> {
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

/// The worker's read loop plus the reconnect-and-resume policy: on any
/// retryable connection failure it redials with
/// exponential backoff + jitter under the reconnect deadline, resumes
/// the session by token, replays its un-acked ring, and carries on.
/// Returning from this thread drops `down_tx`, which is how `recv()`
/// learns the connection is gone for good.
#[allow(clippy::too_many_arguments)]
fn spawn_worker_reader<D: DeserializeOwned + Send + 'static>(
    id: u64,
    addr: String,
    reconnect_deadline: Duration,
    mut stream: TcpStream,
    mut dec: FrameDecoder,
    inner: Arc<Mutex<WorkerSide>>,
    shutdown: Arc<AtomicBool>,
    down_tx: Sender<D>,
) {
    std::thread::Builder::new()
        .name(format!("worker-reader-{id}"))
        .spawn(move || loop {
            let err = match wire::read_frame(&mut stream, &mut dec) {
                Ok(Some((header, payload))) => {
                    let arrival = inner.lock().unwrap().ep.on_header(header);
                    let decoded = match arrival {
                        Arrival::Duplicate => continue,
                        // An ack carrier: `on_header` has applied it.
                        Arrival::Accept if payload.is_empty() => continue,
                        Arrival::Accept => wire::decode::<D>(&payload),
                        Arrival::Gap => Err(WireError::Io("downward sequence gap".into())),
                    };
                    match decoded {
                        Ok(msg) => {
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
                redial_and_resume(id, &addr, reconnect_deadline, &inner, &shutdown)
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
/// runs out or the session died meanwhile (the worker then dies and the
/// coordinator requeues).
fn redial_and_resume(
    id: u64,
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
    let hello = Hello { resume: Some(Resume { token, rx_next }), ..Hello::new(None) };
    let deadline = Instant::now() + reconnect_deadline;
    let mut jitter = SplitMix64::new(token ^ id);
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
        let Ok(stream) = dial(addr, Duration::ZERO) else { continue };
        // A refused token or a hang-up: redial.
        let Ok((reader, dec, _, session)) = say_hello(&stream, &hello) else { continue };
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

/// Sends an empty unsequenced frame every `interval`: the liveness
/// signal, and the carrier of the worker's cumulative ack.
fn spawn_heartbeat(
    id: u64,
    inner: Arc<Mutex<WorkerSide>>,
    shutdown: Arc<AtomicBool>,
    interval: Duration,
) {
    std::thread::Builder::new()
        .name(format!("heartbeat-{id}"))
        .spawn(move || loop {
            std::thread::sleep(interval);
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            let mut g = inner.lock().unwrap();
            if g.dead {
                return;
            }
            let _ = g.ep.send(Vec::new(), false);
        })
        .expect("spawn heartbeat thread");
}

#[cfg(test)]
mod tests {
    use super::*;

    type Down = PoolDown<u32, u32>;
    type Up = PoolUp<u32, u32>;

    /// What a per-call worker sends: a coordination message of job 0.
    fn ug(msg: Message<u32, u32>) -> Up {
        PoolUp::Ug { job: 0, msg }
    }

    /// A worker of a per-call run, as the tests drive it: the pool
    /// protocol's job 0, unwrapped.
    struct TestWorker(WorkerLink<Down, Up>);

    impl TestWorker {
        fn rank(&self) -> usize {
            self.0.rank()
        }

        fn send(&self, msg: Message<u32, u32>) -> bool {
            self.0.send(ug(msg))
        }

        fn recv(&self) -> Option<Message<u32, u32>> {
            loop {
                if let PoolDown::Ug { msg, .. } = self.0.recv()? {
                    return Some(msg);
                }
            }
        }

        fn test_break_connection(&self) {
            self.0.test_break_connection();
        }
    }

    /// Joins the per-call run at `addr` with spawn tag `tag`.
    fn join_as(addr: &str, tag: Option<u64>, config: &ProcessCommConfig) -> io::Result<TestWorker> {
        WorkerLink::connect(addr, &Hello::new(tag), config).map(TestWorker)
    }

    fn bind() -> TcpListener {
        TcpListener::bind("127.0.0.1:0").unwrap()
    }

    fn config() -> ProcessCommConfig {
        ProcessCommConfig {
            handshake_timeout: Duration::from_secs(10),
            liveness_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::from_millis(100),
            reconnect_deadline: Duration::from_millis(500),
            ..ProcessCommConfig::default()
        }
    }

    /// Full in-process exercise of the socket path: handshake with spawn
    /// tags, both message directions, and worker-death synthesis.
    #[test]
    fn handshake_roundtrip_and_death_detection() {
        let listener = bind();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = config();

        let mut joins = Vec::new();
        for rank in 0..2usize {
            let addr = addr.clone();
            let cfg = cfg.clone();
            joins.push(std::thread::spawn(move || {
                let comm = join_as(&addr, Some(rank as u64), &cfg).unwrap();
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

        let lc = accept_ranks::<u32, u32>(listener, 2, &cfg).unwrap();
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
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let cfg = ProcessCommConfig { handshake_timeout: Duration::from_millis(600), ..config() };

        let bad = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            wire::write_msg(
                &mut (&stream),
                &Hello { protocol: BASE_PROTOCOL + 98, max_protocol: None, ..Hello::new(None) },
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
        let err = accept_ranks::<u32, u32>(listener, 1, &cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        bad.join().unwrap();
    }

    /// The accept loop blocks in `accept()`; the endpoint's drop has to
    /// get it out of there, or every finished run leaks a thread and a
    /// listening socket.
    #[test]
    fn dropping_the_endpoint_ends_its_accept_thread() {
        for workers in [0usize, 1] {
            let listener = bind();
            let addr = listener.local_addr().unwrap();
            let cfg =
                ProcessCommConfig { handshake_timeout: Duration::from_millis(50), ..config() };
            let (done_tx, done_rx) = channel();
            std::thread::spawn(move || {
                // 0 ranks: an endpoint, dropped at once. 1 rank and no
                // worker: the timed-out accept drops it itself.
                drop(accept_ranks::<u32, u32>(listener, workers, &cfg));
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("the drop joins the accept thread, which must have been woken");
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
        let listener = bind();
        let err = accept_ranks::<u32, u32>(listener, 1, &cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// The liveness sweep must report each silent rank dead exactly
    /// once — the doc comment has always claimed it; this asserts it.
    /// The sweep shuts the silent socket down, nobody resumes the
    /// session, and the reconnect deadline turns that into the death.
    #[test]
    fn liveness_sweep_reports_each_silent_rank_exactly_once() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let cfg = ProcessCommConfig {
            liveness_timeout: Duration::from_millis(300),
            heartbeat_interval: Duration::from_millis(100),
            ..config()
        };

        // Two raw clients that say hello and then go silent while
        // keeping their sockets open (the hung-but-connected case the
        // sweep exists for). They run on threads because the welcome
        // only arrives once `accept_ranks` below is pumping.
        let (welcome_tx, welcome_rx) = channel::<(u64, Option<u32>, bool)>();
        for rank in 0..2usize {
            let welcome_tx = welcome_tx.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                wire::write_msg(&mut (&stream), &Hello::new(Some(rank as u64))).unwrap();
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

        let lc = accept_ranks::<u32, u32>(listener, 2, &cfg).unwrap();
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
    /// 3`, the retired raw-`Message` per-call session) is hung up on
    /// without a welcome, the refusal names both revisions, it takes no
    /// rank slot, and the worker that connects afterwards still gets
    /// the rank the refused ones were tagged with.
    #[test]
    fn hello_without_max_protocol_is_refused_and_takes_no_rank() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let cfg = config();

        let clients = std::thread::spawn(move || {
            for max_protocol in [None, Some(PROTOCOL_VERSION - 1)] {
                let old = TcpStream::connect(addr).unwrap();
                wire::write_msg(&mut (&old), &Hello { max_protocol, ..Hello::new(Some(0)) })
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
            let comm = join_as(&addr.to_string(), Some(0), &config()).unwrap();
            assert_eq!(comm.rank(), 0);
            assert!(matches!(comm.recv(), Some(Message::Terminate)));
        });

        let lc = accept_ranks::<u32, u32>(listener, 1, &cfg).unwrap();
        assert!(lc.send_to(0, Message::Terminate));
        clients.join().unwrap();

        let ours = format!("revision {PROTOCOL_VERSION}");
        for advertised in [None, Some(PROTOCOL_VERSION - 1), Some(PROTOCOL_VERSION + 1)] {
            let msg = require_revision("worker hello", advertised).unwrap_err().to_string();
            let theirs = advertised.map_or("no wire revision".into(), |v| format!("revision {v}"));
            assert!(msg.contains(&theirs) && msg.contains(&ours), "unhelpful: {msg}");
        }
        assert!(require_revision("worker hello", Some(PROTOCOL_VERSION)).is_ok());
    }

    /// A client that stalls mid-hello must not block the accept path
    /// or pin a rank: a late legitimate worker still claims rank 0
    /// well within the handshake deadline.
    #[test]
    fn stalled_hello_does_not_block_a_late_worker() {
        let listener = bind();
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
                let comm = join_as(&addr, Some(0), &cfg).unwrap();
                assert_eq!(comm.rank(), 0);
                assert!(matches!(comm.recv(), Some(Message::Terminate)));
            })
        };

        let started = Instant::now();
        let lc = accept_ranks::<u32, u32>(listener, 1, &cfg).unwrap();
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
        let listener = bind();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = ProcessCommConfig { reconnect_deadline: Duration::from_secs(10), ..config() };

        let (incumbent_tx, incumbent_rx) = channel::<f64>();
        let worker = {
            let addr = addr.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let comm = join_as(&addr, Some(0), &cfg).unwrap();
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

        let lc = accept_ranks::<u32, u32>(listener, 1, &cfg).unwrap();
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
        let listener = bind();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = ProcessCommConfig { reconnect_deadline: Duration::from_secs(10), ..config() };

        let worker = {
            let addr = addr.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let comm = join_as(&addr, Some(0), &cfg).unwrap();
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

        let lc = accept_ranks::<u32, u32>(listener, 1, &cfg).unwrap();
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
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let cfg = ProcessCommConfig { reconnect_deadline: Duration::from_secs(10), ..config() };

        let (done_tx, done_rx) = channel::<()>();
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            wire::write_msg(&mut (&stream), &Hello::new(Some(0))).unwrap();
            let mut reader = stream.try_clone().unwrap();
            let mut dec = FrameDecoder::new();
            let welcome: Welcome = wire::read_msg(&mut reader, &mut dec).unwrap().unwrap();
            let session = welcome.session.expect("v2 handshake must hand out a session");

            // Seq 5 while the coordinator expects 0: frames 0..5 are
            // missing from the stream.
            let payload = wire::to_payload(&ug(Message::Status {
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
                    resume: Some(Resume { token: session.token, rx_next: 0 }),
                    ..Hello::new(Some(0))
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

        let lc = accept_ranks::<u32, u32>(listener, 1, &cfg).unwrap();
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
        let (up_tx, up_rx) = channel();
        let ranks =
            Arc::new(Ranks { n: 1, up_tx, joined: Mutex::new(1), all_joined: Condvar::new() });
        let sessions = Sessions::new(&config(), ranks);
        {
            let mut member = Member::new(1);
            // Disconnected: every send rings its payload un-acked.
            member.disconnected_since = Some(Instant::now());
            sessions.0.members.lock().unwrap().insert(0, Arc::new(Mutex::new(member)));
        }
        let lc = JobComm::<u32, u32> {
            job: 0,
            sessions: sessions.clone(),
            workers: vec![0],
            inbox: up_rx,
            owns_sessions: true,
        };

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
        let unacked = sessions.0.members.lock().unwrap()[&0].lock().unwrap().ep.unacked().count();
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
        let comm = WorkerLink::<Down, Up> {
            id: 0,
            inner: inner.clone(),
            down_rx,
            shutdown: Arc::new(AtomicBool::new(false)),
            up: PhantomData,
        };
        for _ in 0..RETRANSMIT_RING_CAP {
            assert!(comm.send(ug(Message::Terminate)), "ringed sends report success");
        }
        assert!(!inner.lock().unwrap().dead);
        assert!(!comm.send(ug(Message::Terminate)), "overflow must kill the session loudly");
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
        let payload = wire::to_payload_binary(&Message::<u32, u32>::Terminate);
        ep.send(payload.clone(), true).unwrap(); // opens the partition: suppressed, ringed
        ep.send(payload.clone(), true).unwrap(); // partitioned: suppressed, ringed
        assert!(ep.is_attached(), "the socket stays open while partitioned");
        std::thread::sleep(Duration::from_millis(25));
        ep.send(payload, true).unwrap(); // lift
        assert!(!ep.is_attached(), "lifting the partition must force a reconnect");
        assert_eq!(ep.unacked().count(), 3, "every frame must await the resume replay");
    }

    #[test]
    fn set_rank_rewrites_every_upward_variant() {
        let mut msgs: Vec<Message<u32, u32>> = vec![
            Message::SolutionFound { rank: 0, sol: 1, obj: 2.0 },
            Message::Status { rank: 0, dual_bound: 1.0, open: 2, nodes: 3 },
            Message::ExportedNode {
                rank: 0,
                sub: crate::messages::SubproblemMsg { sub: 1, dual_bound: 0.0 },
            },
            Message::Completed { rank: 0, dual_bound: 1.0, nodes: 2, aborted: false },
            Message::WorkerDied { rank: 0 },
        ];
        for m in msgs.iter_mut() {
            set_rank(m, 7);
        }
        for m in &msgs {
            let got = match m {
                Message::SolutionFound { rank, .. }
                | Message::Status { rank, .. }
                | Message::ExportedNode { rank, .. }
                | Message::Completed { rank, .. }
                | Message::WorkerDied { rank } => *rank,
                _ => unreachable!(),
            };
            assert_eq!(got, 7);
        }
        // Downward messages are untouched.
        let mut down: Message<u32, u32> = Message::Terminate;
        set_rank(&mut down, 7);
        assert_eq!(down.tag(), "termination");
    }

    /// A `Begin` carries the client's encoded instance verbatim: the
    /// pool protocol's decode leaves it opaque, and it decodes to the
    /// client's value only when asked.
    #[test]
    fn begin_carries_the_encoded_instance_verbatim() {
        let instance = EncodedInstance::encode(&vec!["a".to_string(), "b".to_string()]);
        let begin = PoolDown::<u32, u32>::Begin { job: 9, instance: instance.clone() };
        let bytes = wire::to_payload_binary(&begin);
        match wire::decode::<PoolDown<u32, u32>>(&bytes).unwrap() {
            PoolDown::Begin { job, instance: got } => {
                assert_eq!((job, &got), (9, &instance));
                assert_eq!(got.decode::<Vec<String>>().unwrap(), ["a", "b"]);
            }
            other => panic!("decoded as {other:?}"),
        }
    }
}
