//! The typed, tagged messages exchanged between the LoadCoordinator and
//! the ParaSolvers — the protocol of Algorithms 1 and 2 of the paper
//! (`subproblem`, `solutionFound`, `status`, `startCollecting`,
//! `stopCollecting`, `terminated`, `termination`), extended with the
//! racing ramp-up control messages.

use crate::settings::SolverSettings;

/// A solver-independent subproblem plus the dual bound known for it.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct SubproblemMsg<Sub> {
    /// The solver-independent subproblem description.
    pub sub: Sub,
    /// Dual bound (internal minimization sense) valid for this subtree.
    pub dual_bound: f64,
}

/// Every message of the protocol. `Sub`/`Sol` are the base solver's
/// solver-independent subproblem and solution types.
///
/// The enum derives serde so the *whole protocol* is wire-shippable:
/// the process transport ([`crate::process`]) moves exactly these
/// values as checksummed frames in the binary codec (`PROTOCOL.md`
/// §3) — while the thread
/// transport moves them in memory: same protocol, different carrier.
///
/// Every variant is *reliable* on every transport: sequenced, ringed
/// for replay across reconnects, and de-duplicated (see
/// [`crate::comm`] for the delivery-guarantee fine print). Only
/// transport-internal heartbeats — which never appear in this enum —
/// are fire-and-forget. [`Message::WorkerDied`] is synthesized locally
/// by the coordinator's transport rather than carried on the wire, and
/// is raised exactly once per rank.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum Message<Sub, Sol> {
    // ---- LoadCoordinator → ParaSolver --------------------------------
    /// Work assignment (tag `subproblem` in Algorithm 1): the subproblem,
    /// the current incumbent, and — during racing — the settings bundle.
    Subproblem {
        /// The subproblem to solve, with its known dual bound.
        sub: SubproblemMsg<Sub>,
        /// Current incumbent (solution, objective), if any.
        incumbent: Option<(Sol, f64)>,
        /// Racing-only parameter bundle for this solver.
        settings: Option<SolverSettings>,
    },
    /// A new incumbent found elsewhere.
    Incumbent {
        /// The improving solution.
        sol: Sol,
        /// Its objective (internal minimization sense).
        obj: f64,
    },
    /// Enter collect mode: periodically export heavy open subproblems.
    StartCollecting,
    /// Leave collect mode.
    StopCollecting,
    /// Abort the current subproblem (racing loser, time limit); the
    /// worker stays alive and reports `Completed { aborted: true }`.
    AbortSubproblem,
    /// Shut the worker down (tag `termination`).
    Terminate,

    // ---- ParaSolver → LoadCoordinator --------------------------------
    /// Tag `solutionFound`.
    SolutionFound {
        /// Reporting solver rank.
        rank: usize,
        /// The solution found.
        sol: Sol,
        /// Its objective (internal minimization sense).
        obj: f64,
    },
    /// Tag `status`: periodic progress report.
    Status {
        /// Reporting solver rank.
        rank: usize,
        /// Best dual bound over the rank's open nodes.
        dual_bound: f64,
        /// Open nodes inside the rank's base solver.
        open: usize,
        /// B&B nodes the rank processed so far in this subproblem.
        nodes: u64,
    },
    /// A collected (exported) open subproblem (tag `subproblem` upward).
    ExportedNode {
        /// Exporting solver rank.
        rank: usize,
        /// The open subproblem handed back to the coordinator.
        sub: SubproblemMsg<Sub>,
    },
    /// Tag `terminated`: the assigned subproblem is done (or aborted).
    Completed {
        /// Reporting solver rank.
        rank: usize,
        /// Dual bound proven for the finished subtree.
        dual_bound: f64,
        /// B&B nodes spent on the subproblem.
        nodes: u64,
        /// True when the subproblem was aborted, not exhausted.
        aborted: bool,
    },

    // ---- transport → LoadCoordinator ---------------------------------
    /// Synthesized by the communicator (never sent by a worker): the
    /// connection to `rank` dropped or its heartbeat went silent. The
    /// coordinator requeues whatever that rank had in flight and stops
    /// assigning to it. Only the distributed back-end produces this.
    WorkerDied {
        /// The rank whose transport died.
        rank: usize,
    },
}

impl<Sub, Sol> Message<Sub, Sol> {
    /// Short tag string (mirrors the paper's message tags; handy for
    /// logging and tests).
    pub fn tag(&self) -> &'static str {
        match self {
            Message::Subproblem { .. } => "subproblem",
            Message::Incumbent { .. } => "incumbent",
            Message::StartCollecting => "startCollecting",
            Message::StopCollecting => "stopCollecting",
            Message::AbortSubproblem => "abortSubproblem",
            Message::Terminate => "termination",
            Message::SolutionFound { .. } => "solutionFound",
            Message::Status { .. } => "status",
            Message::ExportedNode { .. } => "subproblem^",
            Message::Completed { .. } => "terminated",
            Message::WorkerDied { .. } => "workerDied",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_match_paper_protocol() {
        let m: Message<u32, u32> = Message::StartCollecting;
        assert_eq!(m.tag(), "startCollecting");
        let m: Message<u32, u32> =
            Message::Completed { rank: 0, dual_bound: 0.0, nodes: 1, aborted: false };
        assert_eq!(m.tag(), "terminated");
    }
}
