//! The message-passing layer.
//!
//! UG abstracts the transport behind base classes so that the *same*
//! coordination logic runs over pthreads/C++11 threads (FiberSCIP) and
//! MPI (ParaSCIP). We reproduce that boundary: [`LcComm`] and
//! [`WorkerComm`] are enum-dispatched endpoints with two back-ends —
//!
//! * **ThreadComm** (this module): in-process, one `std::sync::mpsc`
//!   channel pair per rank — the FiberSCIP half, `ug [ugrs-*,
//!   ThreadComm]`;
//! * **ProcessComm** ([`crate::process`]): length-prefixed frames
//!   ([`crate::wire`]) over localhost TCP between a coordinator process
//!   and spawned worker processes — the ParaSCIP half, `ug [ugrs-*,
//!   ProcessComm]`, standing in for MPI.
//!
//! All coordination code talks *only* in rank-addressed [`Message`]s —
//! no shared state crosses this boundary (the supervisor and workers
//! share nothing but endpoints), which is what makes the substitution
//! faithful to UG's design: `supervisor`, `worker` and `runner` never
//! know which transport carries their messages.
//!
//! **Delivery guarantees.** ThreadComm delivers every message exactly
//! once, in order (it *is* an mpsc channel). ProcessComm matches that
//! for every [`Message`]: payloads are CRC32-checksummed,
//! sequence-numbered, ring-buffered until acked, replayed across
//! reconnects and de-duplicated by seq — a transient connection loss is
//! invisible above this layer (see `PROTOCOL.md`). Transport-internal
//! heartbeats are fire-and-forget (loss only delays liveness, never
//! state). The guarantee is bounded by the reconnect deadline: when it
//! expires the back-end synthesizes [`Message::WorkerDied`] upward —
//! exactly once per rank — and the coordinator requeues the rank's
//! in-flight subproblem; messages from a dead rank's final moments may
//! then be lost, which is precisely the case the requeue covers. The
//! thread back-end never emits `WorkerDied` (a panicked thread takes
//! the whole process down anyway).

use crate::messages::Message;
use crate::process::{ProcessLcComm, ProcessWorkerComm};
use crate::server::JobComm;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// The LoadCoordinator's endpoint: can send to any rank and receive
/// from all of them.
pub enum LcComm<Sub, Sol> {
    /// In-process channels (FiberSCIP-style).
    Thread(ThreadLcComm<Sub, Sol>),
    /// TCP to spawned worker processes (ParaSCIP-style).
    Process(ProcessLcComm<Sub, Sol>),
    /// Leased standing-pool workers of one `ugd-server` job
    /// ([`crate::server`]): the same sessions as `Process`, but
    /// multiplexed over connections that outlive the job.
    Job(JobComm<Sub, Sol>),
}

/// A ParaSolver's endpoint: receives its own messages, sends upward.
pub enum WorkerComm<Sub, Sol> {
    /// In-process channels (FiberSCIP-style).
    Thread(ThreadWorkerComm<Sub, Sol>),
    /// TCP back to the spawning coordinator (ParaSCIP-style).
    Process(ProcessWorkerComm<Sub, Sol>),
}

// ---------------------------------------------------------------------
// Thread back-end
// ---------------------------------------------------------------------

/// Coordinator side of the in-process transport.
pub struct ThreadLcComm<Sub, Sol> {
    to_workers: Vec<Sender<Message<Sub, Sol>>>,
    from_workers: Receiver<Message<Sub, Sol>>,
}

/// Worker side of the in-process transport.
pub struct ThreadWorkerComm<Sub, Sol> {
    rank: usize,
    rx: Receiver<Message<Sub, Sol>>,
    tx: Sender<Message<Sub, Sol>>,
}

/// Builds an in-process communicator for `n` workers.
pub fn thread_comm<Sub, Sol>(n: usize) -> (LcComm<Sub, Sol>, Vec<WorkerComm<Sub, Sol>>) {
    let (up_tx, up_rx) = channel();
    let mut to_workers = Vec::with_capacity(n);
    let mut endpoints = Vec::with_capacity(n);
    for rank in 0..n {
        let (tx, rx) = channel();
        to_workers.push(tx);
        endpoints.push(WorkerComm::Thread(ThreadWorkerComm { rank, rx, tx: up_tx.clone() }));
    }
    (LcComm::Thread(ThreadLcComm { to_workers, from_workers: up_rx }), endpoints)
}

/// Marker alias documenting the substitution: the paper's experiments
/// use MPI on supercomputers; our shared-memory runs use the identical
/// protocol over in-process channels.
pub type ThreadComm<Sub, Sol> = (LcComm<Sub, Sol>, Vec<WorkerComm<Sub, Sol>>);

impl<Sub, Sol> LcComm<Sub, Sol>
where
    Sub: Serialize + DeserializeOwned,
    Sol: Serialize + DeserializeOwned,
{
    /// Number of solver ranks this endpoint can address.
    pub fn num_workers(&self) -> usize {
        match self {
            LcComm::Thread(c) => c.to_workers.len(),
            LcComm::Process(c) => c.num_workers(),
            LcComm::Job(c) => c.num_workers(),
        }
    }

    /// Sends `msg` to `rank`. Returns false — rather than panicking —
    /// when the rank is out of range or the worker is gone, so the
    /// coordinator treats a dead rank like a full channel instead of
    /// crashing the whole run.
    pub fn send_to(&self, rank: usize, msg: Message<Sub, Sol>) -> bool {
        match self {
            LcComm::Thread(c) => match c.to_workers.get(rank) {
                Some(tx) => tx.send(msg).is_ok(),
                None => false,
            },
            LcComm::Process(c) => c.send_to(rank, msg),
            LcComm::Job(c) => c.send_to(rank, msg),
        }
    }

    /// Broadcasts clones of `msg` to every rank.
    pub fn broadcast(&self, msg: &Message<Sub, Sol>)
    where
        Sub: Clone,
        Sol: Clone,
    {
        for rank in 0..self.num_workers() {
            let _ = self.send_to(rank, msg.clone());
        }
    }

    /// Blocking receive with timeout; `None` on timeout or when all
    /// workers hung up. On the process transport this is also where
    /// heartbeat liveness is checked: a rank silent past its deadline
    /// comes back as a synthesized [`Message::WorkerDied`].
    pub fn recv_timeout(&self, d: Duration) -> Option<Message<Sub, Sol>> {
        match self {
            LcComm::Thread(c) => match c.from_workers.recv_timeout(d) {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
            },
            LcComm::Process(c) => c.recv_timeout(d),
            LcComm::Job(c) => c.recv_timeout(d),
        }
    }
}

impl<Sub, Sol> WorkerComm<Sub, Sol>
where
    Sub: Serialize + DeserializeOwned,
    Sol: Serialize + DeserializeOwned,
{
    /// This endpoint's rank as assigned by the communicator.
    pub fn rank(&self) -> usize {
        match self {
            WorkerComm::Thread(c) => c.rank,
            WorkerComm::Process(c) => c.rank(),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message<Sub, Sol>> {
        match self {
            WorkerComm::Thread(c) => c.rx.try_recv().ok(),
            WorkerComm::Process(c) => c.try_recv(),
        }
    }

    /// Blocking receive; `None` when the coordinator hung up.
    pub fn recv(&self) -> Option<Message<Sub, Sol>> {
        match self {
            WorkerComm::Thread(c) => c.rx.recv().ok(),
            WorkerComm::Process(c) => c.recv(),
        }
    }

    /// Sends upward to the LoadCoordinator.
    pub fn send(&self, msg: Message<Sub, Sol>) -> bool {
        match self {
            WorkerComm::Thread(c) => c.tx.send(msg).is_ok(),
            WorkerComm::Process(c) => c.send(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_both_directions() {
        let (lc, workers) = thread_comm::<u32, u32>(2);
        assert_eq!(lc.num_workers(), 2);
        assert!(lc.send_to(1, Message::StartCollecting));
        assert!(matches!(workers[1].try_recv(), Some(Message::StartCollecting)));
        assert!(workers[0].try_recv().is_none());

        workers[0].send(Message::Status { rank: 0, dual_bound: 1.0, open: 2, nodes: 3 });
        let got = lc.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(got.tag(), "status");
    }

    #[test]
    fn broadcast_reaches_all() {
        let (lc, workers) = thread_comm::<u32, u32>(3);
        lc.broadcast(&Message::Terminate);
        for w in &workers {
            assert!(matches!(w.recv(), Some(Message::Terminate)));
        }
    }

    #[test]
    fn recv_timeout_expires() {
        let (lc, _workers) = thread_comm::<u32, u32>(1);
        assert!(lc.recv_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn send_to_out_of_range_rank_is_rejected_not_a_panic() {
        let (lc, _workers) = thread_comm::<u32, u32>(2);
        assert!(!lc.send_to(2, Message::Terminate));
        assert!(!lc.send_to(usize::MAX, Message::Terminate));
    }
}
