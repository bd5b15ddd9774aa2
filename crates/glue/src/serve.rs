//! Job-service glue: what makes `ugd-server` a *mixed* STP/MISDP
//! service.
//!
//! The core server ([`ugrs_core::server`]) is generic over an instance
//! type; this module instantiates it with [`JobInstance`] — an enum
//! over both customized solvers of the paper — so one standing worker
//! pool serves Steiner tree and MISDP jobs interleaved. A worker
//! receives the instance with the job's `Begin` frame and builds the
//! matching plugin set per subproblem — a pool worker for every job it
//! is leased to, a per-call run's worker
//! ([`crate::apps::stp::ug_solve_stp_distributed`]) for its one job.

use crate::apps::misdp::MisdpPlugins;
use crate::apps::stp::StpPlugins;
use crate::base::UgCipSolver;
use std::sync::Arc;
use std::time::Duration;
use ugrs_cip::NodeDesc;
use ugrs_core::worker::{BaseSolver, ParaControl, SolverFactory, SubproblemOutcome};
use ugrs_core::{JobSpec, ProcessCommConfig};
use ugrs_instances::MaxCutInstance;
use ugrs_misdp::MisdpProblem;
use ugrs_steiner::Graph;

/// The instance a job ships to every leased pool worker.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum JobInstance {
    /// A (pre-reduced) Steiner tree instance.
    Stp { graph: Graph },
    /// A mixed integer semidefinite program.
    Misdp { problem: MisdpProblem },
    /// A max-cut instance, solved via its MISDP formulation
    /// ([`crate::apps::maxcut`]); workers build the formulation from
    /// the (much smaller) edge list on receipt.
    MaxCut { instance: MaxCutInstance },
}

impl JobInstance {
    /// Maps an internal-sense (minimization) objective back to the
    /// instance's external convention: STP adds the cost fixed by
    /// presolving; MISDP negates (it maximizes `bᵀy`); max-cut reports
    /// the cut value `W − internal`.
    pub fn external_objective(&self, internal: f64) -> f64 {
        match self {
            JobInstance::Stp { graph } => internal + graph.fixed_cost,
            JobInstance::Misdp { .. } => -internal,
            JobInstance::MaxCut { instance } => instance.total_weight() - internal,
        }
    }

    /// The metrics family label of this instance (`stp`, `misdp`,
    /// `maxcut`) — the value of the `family` label on
    /// `ugrs_server_jobs_*` / `ugrs_gateway_jobs_*`.
    pub fn family(&self) -> &'static str {
        match self {
            JobInstance::Stp { .. } => "stp",
            JobInstance::Misdp { .. } => "misdp",
            JobInstance::MaxCut { .. } => "maxcut",
        }
    }

    /// A family-specific size measure — STP alive edges, MISDP
    /// variables, max-cut edges. Stamped into [`JobSpec::size_hint`]
    /// and from there into the job journal's head record.
    pub fn size_hint(&self) -> u64 {
        match self {
            JobInstance::Stp { graph } => graph.num_alive_edges() as u64,
            JobInstance::Misdp { problem } => problem.m as u64,
            JobInstance::MaxCut { instance } => instance.edges.len() as u64,
        }
    }
}

/// A base solver serving either application, chosen by the job's
/// instance — the worker process's reason to exist.
pub enum JobSolver {
    Stp(UgCipSolver<StpPlugins>),
    Misdp(UgCipSolver<MisdpPlugins>),
    /// The instance was fully solved by presolving (an STP graph left
    /// with fewer than two terminals): report the empty solution at
    /// internal objective 0 and exhaust the subproblem immediately.
    /// A per-call run never ships such an instance: it short-circuits
    /// the case coordinator-side
    /// ([`crate::apps::stp::ug_solve_stp_distributed`]). A served job
    /// can carry one, so a worker must survive it arriving in a
    /// `Begin`.
    Trivial,
}

impl BaseSolver for JobSolver {
    type Sub = NodeDesc;
    type Sol = Vec<f64>;

    fn solve_subproblem(
        &mut self,
        sub: &NodeDesc,
        known_bound: f64,
        incumbent: Option<&Vec<f64>>,
        ctl: &mut dyn ParaControl<NodeDesc, Vec<f64>>,
    ) -> SubproblemOutcome {
        match self {
            JobSolver::Stp(s) => s.solve_subproblem(sub, known_bound, incumbent, ctl),
            JobSolver::Misdp(s) => s.solve_subproblem(sub, known_bound, incumbent, ctl),
            JobSolver::Trivial => {
                ctl.on_solution(Vec::new(), 0.0);
                SubproblemOutcome { dual_bound: 0.0, nodes: 1, aborted: false }
            }
        }
    }
}

/// Builds the per-job solver factory from a received instance.
pub fn job_factory(instance: &JobInstance) -> SolverFactory<JobSolver> {
    match instance {
        JobInstance::Stp { graph } if graph.num_terminals() < 2 => {
            Arc::new(|_, _| JobSolver::Trivial)
        }
        JobInstance::Stp { graph } => {
            let plugins =
                Arc::new(StpPlugins { graph: Arc::new(graph.clone()), in_tree_reductions: true });
            let inner = UgCipSolver::factory(plugins);
            Arc::new(move |rank, settings| JobSolver::Stp(inner(rank, settings)))
        }
        JobInstance::Misdp { problem } => {
            let plugins = Arc::new(MisdpPlugins { problem: Arc::new(problem.clone()) });
            let inner = UgCipSolver::factory(plugins);
            Arc::new(move |rank, settings| JobSolver::Misdp(inner(rank, settings)))
        }
        JobInstance::MaxCut { instance } => {
            let problem = Arc::new(crate::apps::maxcut::maxcut_to_misdp(instance));
            let plugins = Arc::new(MisdpPlugins { problem });
            let inner = UgCipSolver::factory(plugins);
            Arc::new(move |rank, settings| JobSolver::Misdp(inner(rank, settings)))
        }
    }
}

/// Wraps a base solver with a fixed pre-solve delay, polling the abort
/// flag while waiting so `Terminate`/`AbortSubproblem` stay responsive.
/// A test/benchmark knob: a handicapped worker is reliably
/// mid-subproblem when killed, making death scenarios reproducible.
pub struct DelaySolver<S> {
    pub inner: S,
    pub delay: Duration,
}

impl<S: BaseSolver> BaseSolver for DelaySolver<S> {
    type Sub = S::Sub;
    type Sol = S::Sol;

    fn solve_subproblem(
        &mut self,
        sub: &S::Sub,
        known_bound: f64,
        incumbent: Option<&S::Sol>,
        ctl: &mut dyn ParaControl<S::Sub, S::Sol>,
    ) -> SubproblemOutcome {
        let deadline = std::time::Instant::now() + self.delay;
        while std::time::Instant::now() < deadline {
            if ctl.should_abort() {
                return SubproblemOutcome { dual_bound: known_bound, nodes: 0, aborted: true };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.inner.solve_subproblem(sub, known_bound, incumbent, ctl)
    }
}

/// Joins a coordinator — a `ugd-server` pool or a per-call run — and
/// serves mixed STP/MISDP jobs until it is gone for good: what
/// `ugd-worker` calls after parsing its command line.
pub fn serve_jobs(
    addr: &str,
    tag: Option<u64>,
    handicap: Duration,
    status_interval: Duration,
    config: &ProcessCommConfig,
) -> std::io::Result<()> {
    ugrs_core::serve_worker(
        addr,
        tag,
        move |instance: &JobInstance| {
            let inner = job_factory(instance);
            let delay = handicap;
            let factory: SolverFactory<DelaySolver<JobSolver>> =
                Arc::new(move |rank, settings| DelaySolver { inner: inner(rank, settings), delay });
            factory
        },
        status_interval,
        config,
    )
}

/// Builds an STP job spec: reduce coordinator-side (the same §2.2
/// presolve split the per-call path uses), ship the reduced graph.
pub fn stp_job(
    name: impl Into<String>,
    graph: &Graph,
    reduce_params: &ugrs_steiner::reduce::ReduceParams,
) -> SolveJobSpec {
    let mut g = graph.clone();
    ugrs_steiner::reduce::reduce(&mut g, reduce_params);
    job_spec(name, JobInstance::Stp { graph: g })
}

/// Builds a MISDP job spec.
pub fn misdp_job(name: impl Into<String>, problem: &MisdpProblem) -> SolveJobSpec {
    job_spec(name, JobInstance::Misdp { problem: problem.clone() })
}

/// Builds a max-cut job spec; workers derive the MISDP formulation.
pub fn maxcut_job(name: impl Into<String>, instance: &MaxCutInstance) -> SolveJobSpec {
    job_spec(name, JobInstance::MaxCut { instance: instance.clone() })
}

/// The shared tail of the job constructors: root subproblem plus the
/// family label every spec carries for metrics and fleet counts.
fn job_spec(name: impl Into<String>, instance: JobInstance) -> SolveJobSpec {
    let family = instance.family();
    let size = instance.size_hint();
    let mut spec = JobSpec::new(name, instance, NodeDesc::root());
    spec.family = Some(family.to_string());
    spec.size_hint = Some(size);
    spec
}

/// The concrete server/client/spec types of the mixed solve service.
pub type SolveServer = ugrs_core::Server<JobInstance, NodeDesc, Vec<f64>>;
pub type SolveClient = ugrs_core::JobClient<JobInstance, NodeDesc, Vec<f64>>;
pub type SolveJobSpec = JobSpec<JobInstance, NodeDesc>;
pub type SolveJobEvent = ugrs_core::JobEvent<Vec<f64>>;
/// The fleet gateway over the mixed solve service — same wire types as
/// [`SolveServer`], so `ugd` talks to either transparently.
pub type SolveGateway = ugrs_core::Gateway<JobInstance, NodeDesc, Vec<f64>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_objective_per_application() {
        let mut g = Graph::default();
        g.fixed_cost = 2.5;
        let stp = JobInstance::Stp { graph: g };
        assert_eq!(stp.external_objective(10.0), 12.5);
        let misdp = JobInstance::Misdp { problem: MisdpProblem::new("t", 1) };
        assert_eq!(misdp.external_objective(-3.0), 3.0);
    }

    #[test]
    fn job_instance_round_trips_through_the_wire_codec() {
        let inst = JobInstance::Misdp { problem: MisdpProblem::new("rt", 2) };
        let framed = ugrs_core::wire::encode(&inst);
        let back: JobInstance = ugrs_core::wire::decode(&framed[4..]).unwrap();
        match back {
            JobInstance::Misdp { problem } => {
                assert_eq!(problem.name, "rt");
                assert_eq!(problem.m, 2);
            }
            other => panic!("decoded as {other:?}"),
        }
    }
}
