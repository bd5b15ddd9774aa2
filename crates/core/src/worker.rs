//! The ParaSolver: wraps one base-solver instance per received
//! subproblem and runs Algorithm 2 of the paper.

use crate::comm::WorkerComm;
use crate::messages::{Message, SubproblemMsg};
use crate::settings::SolverSettings;
use std::time::{Duration, Instant};

/// What a base solver reports after working on one subproblem.
#[derive(Clone, Copy, Debug)]
pub struct SubproblemOutcome {
    /// Proven (or, when aborted, best-known) dual bound for the subtree.
    pub dual_bound: f64,
    /// B&B nodes processed.
    pub nodes: u64,
    /// True when the solve stopped on an external abort.
    pub aborted: bool,
}

/// The control surface handed to a base solver while it works on a
/// subproblem — the callbacks of Algorithm 2 (report solutions and
/// status, receive incumbents and collect-mode toggles, honor aborts).
pub trait ParaControl<Sub, Sol> {
    /// Poll between nodes; `true` means stop as soon as possible.
    fn should_abort(&mut self) -> bool;
    /// Report a newly found feasible solution.
    fn on_solution(&mut self, sol: Sol, obj: f64);
    /// Fetch an incumbent that arrived from another solver, if any.
    fn poll_incumbent(&mut self) -> Option<(Sol, f64)>;
    /// Periodic progress report (rate-limited internally). `dual_bound`
    /// MUST be a valid lower bound for the solver's *entire remaining
    /// subproblem* (not just the node in hand): the coordinator uses it
    /// for global-bound termination, racing winner selection and
    /// checkpoint bounds.
    fn on_status(&mut self, dual_bound: f64, open: usize, nodes: u64);
    /// True while the LoadCoordinator wants open nodes exported.
    fn collect_requested(&mut self) -> bool;
    /// Hand an open subproblem to the LoadCoordinator.
    fn export_subproblem(&mut self, sub: Sub, dual_bound: f64);
}

/// A base solver that UG can parallelize. One instance is constructed
/// *per received subproblem* (which is what makes the paper's layered
/// presolving happen: the instance re-presolves its subproblem).
pub trait BaseSolver: Send {
    /// Solver-independent subproblem description.
    type Sub: Clone + Send + serde::Serialize + serde::de::DeserializeOwned + 'static;
    /// Solver-independent solution description.
    type Sol: Clone + Send + serde::Serialize + serde::de::DeserializeOwned + 'static;

    /// Solves `sub` (to completion or until aborted), driving the
    /// callbacks on `ctl`. `known_bound` is the dual bound the
    /// coordinator already holds for this subproblem (−∞ for the root);
    /// the solver must never report or export anything weaker.
    fn solve_subproblem(
        &mut self,
        sub: &Self::Sub,
        known_bound: f64,
        incumbent: Option<&Self::Sol>,
        ctl: &mut dyn ParaControl<Self::Sub, Self::Sol>,
    ) -> SubproblemOutcome;
}

/// Factory constructing a fresh base-solver instance for a subproblem
/// under the given racing settings.
pub type SolverFactory<S> =
    std::sync::Arc<dyn Fn(usize, &SolverSettings) -> S + Send + Sync + 'static>;

/// What a ParaSolver needs from its transport while it solves: poll
/// for control messages, send upward. Implemented by [`WorkerComm`]
/// and by the per-job endpoint of a pool worker ([`crate::server`]).
pub(crate) trait Uplink<Sub, Sol> {
    /// Non-blocking receive of the next message for this solver.
    fn try_recv(&self) -> Option<Message<Sub, Sol>>;
    /// Sends upward to the LoadCoordinator.
    fn send(&self, msg: Message<Sub, Sol>) -> bool;
}

impl<Sub, Sol> Uplink<Sub, Sol> for WorkerComm<Sub, Sol>
where
    Sub: serde::Serialize + serde::de::DeserializeOwned,
    Sol: serde::Serialize + serde::de::DeserializeOwned,
{
    fn try_recv(&self) -> Option<Message<Sub, Sol>> {
        WorkerComm::try_recv(self)
    }
    fn send(&self, msg: Message<Sub, Sol>) -> bool {
        WorkerComm::send(self, msg)
    }
}

/// The concrete [`ParaControl`] wired to the communicator.
struct WorkerCtl<'a, C, Sol> {
    comm: &'a C,
    rank: usize,
    collect: bool,
    abort: bool,
    terminate_seen: bool,
    pending_incumbent: Option<(Sol, f64)>,
    last_status: Instant,
    status_interval: Duration,
    exported: u64,
}

impl<C, Sol> WorkerCtl<'_, C, Sol> {
    /// Drains pending control messages.
    fn pump<Sub>(&mut self)
    where
        C: Uplink<Sub, Sol>,
    {
        while let Some(msg) = self.comm.try_recv() {
            match msg {
                Message::Incumbent { sol, obj } => {
                    let better = self.pending_incumbent.as_ref().is_none_or(|(_, cur)| obj < *cur);
                    if better {
                        self.pending_incumbent = Some((sol, obj));
                    }
                }
                Message::StartCollecting => self.collect = true,
                Message::StopCollecting => self.collect = false,
                Message::AbortSubproblem => self.abort = true,
                Message::Terminate => {
                    self.abort = true;
                    self.terminate_seen = true;
                }
                // Subproblem while busy should not happen; drop defensively.
                _ => {}
            }
        }
    }
}

impl<C: Uplink<Sub, Sol>, Sub, Sol> ParaControl<Sub, Sol> for WorkerCtl<'_, C, Sol> {
    fn should_abort(&mut self) -> bool {
        self.pump();
        self.abort
    }

    fn on_solution(&mut self, sol: Sol, obj: f64) {
        self.comm.send(Message::SolutionFound { rank: self.rank, sol, obj });
    }

    fn poll_incumbent(&mut self) -> Option<(Sol, f64)> {
        self.pump();
        self.pending_incumbent.take()
    }

    fn on_status(&mut self, dual_bound: f64, open: usize, nodes: u64) {
        if self.last_status.elapsed() >= self.status_interval {
            self.last_status = Instant::now();
            self.comm.send(Message::Status { rank: self.rank, dual_bound, open, nodes });
        }
    }

    fn collect_requested(&mut self) -> bool {
        self.pump();
        self.collect
    }

    fn export_subproblem(&mut self, sub: Sub, dual_bound: f64) {
        self.exported += 1;
        self.comm.send(Message::ExportedNode {
            rank: self.rank,
            sub: SubproblemMsg { sub, dual_bound },
        });
    }
}

/// A fidelity wrapper asserting distributed-memory readiness: every
/// subproblem entering and every solution leaving the wrapped solver is
/// round-tripped through its serde byte representation, exactly as an
/// MPI back-end would ship it. `ThreadComm` itself moves values in
/// process; wrapping the base solver in this adapter proves the
/// solver-independent forms really are self-contained (no hidden shared
/// state) — UG's core design requirement (§2.2).
pub struct SerdeFidelity<S: BaseSolver>(pub S);

impl<S: BaseSolver> BaseSolver for SerdeFidelity<S> {
    type Sub = S::Sub;
    type Sol = S::Sol;

    fn solve_subproblem(
        &mut self,
        sub: &S::Sub,
        known_bound: f64,
        incumbent: Option<&S::Sol>,
        ctl: &mut dyn ParaControl<S::Sub, S::Sol>,
    ) -> SubproblemOutcome {
        let bytes = serde_json::to_vec(sub).expect("subproblem must serialize");
        let sub: S::Sub = serde_json::from_slice(&bytes).expect("subproblem must deserialize");
        let incumbent: Option<S::Sol> = incumbent.map(|s| {
            let b = serde_json::to_vec(s).expect("solution must serialize");
            serde_json::from_slice(&b).expect("solution must deserialize")
        });
        let mut bridge = SerdeBridge { inner: ctl };
        self.0.solve_subproblem(&sub, known_bound, incumbent.as_ref(), &mut bridge)
    }
}

struct SerdeBridge<'a, Sub, Sol> {
    inner: &'a mut dyn ParaControl<Sub, Sol>,
}

impl<Sub, Sol> ParaControl<Sub, Sol> for SerdeBridge<'_, Sub, Sol>
where
    Sub: serde::Serialize + serde::de::DeserializeOwned,
    Sol: serde::Serialize + serde::de::DeserializeOwned,
{
    fn should_abort(&mut self) -> bool {
        self.inner.should_abort()
    }
    fn on_solution(&mut self, sol: Sol, obj: f64) {
        let b = serde_json::to_vec(&sol).expect("solution must serialize");
        self.inner.on_solution(serde_json::from_slice(&b).unwrap(), obj);
    }
    fn poll_incumbent(&mut self) -> Option<(Sol, f64)> {
        self.inner.poll_incumbent().map(|(s, o)| {
            let b = serde_json::to_vec(&s).expect("solution must serialize");
            (serde_json::from_slice(&b).unwrap(), o)
        })
    }
    fn on_status(&mut self, dual_bound: f64, open: usize, nodes: u64) {
        self.inner.on_status(dual_bound, open, nodes);
    }
    fn collect_requested(&mut self) -> bool {
        self.inner.collect_requested()
    }
    fn export_subproblem(&mut self, sub: Sub, dual_bound: f64) {
        let b = serde_json::to_vec(&sub).expect("subproblem must serialize");
        self.inner.export_subproblem(serde_json::from_slice(&b).unwrap(), dual_bound);
    }
}

/// Solves one received subproblem on `solver` and reports `Completed`
/// under `rank`, relaying control traffic over `comm` meanwhile.
/// Returns true when `Terminate` arrived during the solve.
pub(crate) fn solve_and_report<S: BaseSolver, C: Uplink<S::Sub, S::Sol>>(
    comm: &C,
    rank: usize,
    solver: &mut S,
    sub: SubproblemMsg<S::Sub>,
    incumbent: Option<(S::Sol, f64)>,
    status_interval: Duration,
) -> bool {
    let mut ctl = WorkerCtl {
        comm,
        rank,
        collect: false,
        abort: false,
        terminate_seen: false,
        pending_incumbent: incumbent,
        last_status: Instant::now(),
        status_interval,
        exported: 0,
    };
    let outcome = solver.solve_subproblem(
        &sub.sub,
        sub.dual_bound,
        ctl.pending_incumbent.clone().map(|p| p.0).as_ref(),
        &mut ctl,
    );
    comm.send(Message::Completed {
        rank,
        dual_bound: outcome.dual_bound.max(sub.dual_bound),
        nodes: outcome.nodes,
        aborted: outcome.aborted,
    });
    ctl.terminate_seen
}

/// The worker main loop (Algorithm 2): waits for subproblems, solves
/// them with a freshly constructed base-solver instance, reports
/// completion; exits on `Terminate`.
pub fn worker_loop<S: BaseSolver>(
    comm: WorkerComm<S::Sub, S::Sol>,
    factory: SolverFactory<S>,
    status_interval: Duration,
) {
    let rank = comm.rank();
    loop {
        let Some(msg) = comm.recv() else { return };
        match msg {
            Message::Terminate => return,
            Message::Subproblem { sub, incumbent, settings } => {
                let settings = settings.unwrap_or_else(SolverSettings::default_bundle);
                let mut solver = factory(rank, &settings);
                if solve_and_report(&comm, rank, &mut solver, sub, incumbent, status_interval) {
                    return;
                }
            }
            // Control messages while idle are stale; ignore.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::thread_comm;

    /// A trivial base solver: "solves" by echoing a solution equal to the
    /// subproblem value.
    struct Echo;
    impl BaseSolver for Echo {
        type Sub = f64;
        type Sol = f64;
        fn solve_subproblem(
            &mut self,
            sub: &f64,
            _known_bound: f64,
            _inc: Option<&f64>,
            ctl: &mut dyn ParaControl<f64, f64>,
        ) -> SubproblemOutcome {
            ctl.on_solution(*sub, *sub);
            SubproblemOutcome { dual_bound: *sub, nodes: 1, aborted: false }
        }
    }

    #[test]
    fn worker_solves_and_reports() {
        let (lc, mut workers) = thread_comm::<f64, f64>(1);
        let w = workers.remove(0);
        let factory: SolverFactory<Echo> = std::sync::Arc::new(|_, _| Echo);
        let h = std::thread::spawn(move || worker_loop(w, factory, Duration::from_millis(10)));
        lc.send_to(
            0,
            Message::Subproblem {
                sub: SubproblemMsg { sub: 7.0, dual_bound: f64::NEG_INFINITY },
                incumbent: None,
                settings: None,
            },
        );
        let m1 = lc.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m1.tag(), "solutionFound");
        let m2 = lc.recv_timeout(Duration::from_secs(1)).unwrap();
        match m2 {
            Message::Completed { dual_bound, nodes, aborted, .. } => {
                assert_eq!(dual_bound, 7.0);
                assert_eq!(nodes, 1);
                assert!(!aborted);
            }
            other => panic!("unexpected {other:?}"),
        }
        lc.send_to(0, Message::Terminate);
        h.join().unwrap();
    }

    #[test]
    fn abort_flag_propagates() {
        struct Spinner;
        impl BaseSolver for Spinner {
            type Sub = f64;
            type Sol = f64;
            fn solve_subproblem(
                &mut self,
                _sub: &f64,
                _known_bound: f64,
                _inc: Option<&f64>,
                ctl: &mut dyn ParaControl<f64, f64>,
            ) -> SubproblemOutcome {
                let mut n = 0u64;
                while !ctl.should_abort() {
                    n += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                SubproblemOutcome { dual_bound: 0.0, nodes: n, aborted: true }
            }
        }
        let (lc, mut workers) = thread_comm::<f64, f64>(1);
        let w = workers.remove(0);
        let factory: SolverFactory<Spinner> = std::sync::Arc::new(|_, _| Spinner);
        let h = std::thread::spawn(move || worker_loop(w, factory, Duration::from_millis(10)));
        lc.send_to(
            0,
            Message::Subproblem {
                sub: SubproblemMsg { sub: 1.0, dual_bound: f64::NEG_INFINITY },
                incumbent: None,
                settings: None,
            },
        );
        std::thread::sleep(Duration::from_millis(20));
        lc.send_to(0, Message::AbortSubproblem);
        let m = lc.recv_timeout(Duration::from_secs(2)).unwrap();
        match m {
            Message::Completed { aborted, .. } => assert!(aborted),
            other => panic!("unexpected {other:?}"),
        }
        lc.send_to(0, Message::Terminate);
        h.join().unwrap();
    }
}
