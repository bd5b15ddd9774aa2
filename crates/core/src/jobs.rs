//! The job life cycle `ugd-server` and `ugd-gateway` share: accept a
//! job, make it durable before the ack, owe it exactly one terminal
//! answer, and after a crash or a takeover learn from the
//! [`JobLedger`] which answers are still owed (the restart chains of
//! the paper's Table 2). Only the executor differs — the server's pool
//! scheduler or the gateway's shard router — and keeps its per-job
//! state in the payload `X` of a [`Job`]. The [`JobTable`] sits inside
//! the mutex each daemon already has; [`JobBook`] holds the ledger,
//! event and counter half outside it: one submit path
//! ([`JobBook::submit`]), one terminal sequence ([`JobBook::finish`]),
//! one recovery pass ([`Daemon::recover`], [`JobTable::restore`],
//! [`JobBook::recovered`]) and one [`resume_point`].

use crate::ledger::{JobLedger, Recovery};
use crate::rpc::EventLog;
use crate::server::{JobEventKind, JobProgress, JobSpec, JobState, JobSummary, ServerReply};
use crate::telemetry::{Counter, MetricsRegistry, ProgressMsg};
use crate::wire::EncodedInstance;
use serde::Serialize;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

const POISONED: &str = "a thread panicked while holding the daemon state";

/// A job as the daemons hold it: the instance stays encoded.
pub(crate) type Spec<Sub> = JobSpec<EncodedInstance, Sub>;

/// The rejection reason of a submit whose instance fails its CRC.
pub(crate) const BAD_INSTANCE: &str = "instance checksum mismatch";

/// Families whose submit counters a scrape sees from the start.
const FAMILIES: [&str; 3] = ["stp", "misdp", "maxcut"];

/// The names that tell the two daemons' job series and messages apart.
pub(crate) struct Daemon {
    program: &'static str,
    submitted: &'static str,
    submitted_help: &'static str,
    recovered: &'static str,
    finished: &'static str,
    /// Whether a resumed job gets this daemon's own `Recovered` event
    /// (a gateway forwards its shard's).
    announces_resume: bool,
}

pub(crate) const SERVER: Daemon = Daemon {
    program: "ugd-server",
    submitted: "ugrs_server_jobs_submitted_total",
    submitted_help: "Jobs accepted via Submit, by instance family",
    recovered: "ugrs_server_jobs_recovered_total",
    finished: "ugrs_server_jobs_finished_total",
    announces_resume: true,
};

pub(crate) const GATEWAY: Daemon = Daemon {
    program: "ugd-gateway",
    submitted: "ugrs_gateway_jobs_submitted_total",
    submitted_help: "Jobs accepted by the gateway, by instance family",
    recovered: "ugrs_gateway_jobs_recovered_total",
    finished: "ugrs_gateway_jobs_finished_total",
    announces_resume: false,
};

impl Daemon {
    /// The jobs `ledger` still owes an answer for, in submission order;
    /// unreadable records (torn writes, a failed instance CRC, records
    /// from before wire revision 5) are reported and skipped.
    pub(crate) fn recover<Sub>(&self, ledger: &JobLedger) -> io::Result<Recovery<Sub>>
    where
        Sub: serde::de::DeserializeOwned,
    {
        let rec = ledger.recover::<Sub>()?;
        for path in &rec.skipped {
            let path = path.display();
            eprintln!(
                "{}: skipping unreadable ledger record {path} \
                 (torn write, failed instance CRC, or written before wire revision 5?)",
                self.program
            );
        }
        Ok(rec)
    }

    /// Opens the ledger under `state_dir`, if any, and with `recover`
    /// puts every job it owes into a new table.
    #[allow(clippy::type_complexity)]
    pub(crate) fn open<Sub, X>(
        &self,
        state_dir: Option<&std::path::Path>,
        recover: bool,
        exec: impl Fn(&Spec<Sub>) -> X,
    ) -> io::Result<(Option<JobLedger>, JobTable<Sub, X>, Vec<Owed>)>
    where
        Sub: serde::de::DeserializeOwned,
    {
        let mut table = JobTable::new();
        let Some(dir) = state_dir else { return Ok((None, table, Vec::new())) };
        let ledger = JobLedger::open(dir)?;
        let owed = if recover { table.restore(self.recover(&ledger)?, exec) } else { Vec::new() };
        Ok((Some(ledger), table, owed))
    }
}

/// Where a run resuming `restart_from` enters its restart chain:
/// `(checkpoint, run_index, nodes_so_far)`. Resuming run `k` makes it
/// run `k + 1` with the chain's nodes banked; no checkpoint, or a torn
/// one, starts run 1 from scratch and drops the bytes.
pub(crate) fn resume_point(restart_from: Option<String>) -> (Option<String>, u32, u64) {
    match restart_from.as_deref().and_then(crate::ledger::checkpoint_meta) {
        Some((run, nodes)) => (restart_from, run + 1, nodes),
        None => (None, 1, 0),
    }
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

/// The reply to a `Submit` that went through [`JobBook::submit`].
pub(crate) fn submit_reply<Sol>(
    outcome: io::Result<Result<u64, &'static str>>,
) -> ServerReply<Sol> {
    match outcome {
        Ok(Ok(job)) => ServerReply::Submitted { job },
        Ok(Err(reason)) => ServerReply::Rejected { reason: reason.into() },
        // Nothing durable, nothing queued, nothing acknowledged.
        Err(e) => ServerReply::Error { message: format!("ledger write failed: {e}") },
    }
}

/// One job of a daemon's table.
pub(crate) struct Job<Sub, X> {
    /// The submission; its `restart_from` lives in [`Self::restart_from`].
    pub(crate) spec: Spec<Sub>,
    /// Private: the table's live count follows it.
    state: JobState,
    /// Checkpoint JSON the next run resumes from.
    pub(crate) restart_from: Option<String>,
    /// Current (or, while queued, upcoming) run of the restart chain.
    pub(crate) run_index: u32,
    /// The executor's per-job state.
    pub(crate) exec: X,
}

impl<Sub, X> Job<Sub, X> {
    /// A job entering the queue at `restart_from`'s chain position.
    pub(crate) fn queued(
        mut spec: Spec<Sub>,
        restart_from: Option<String>,
        run_index: u32,
        exec: X,
    ) -> Self {
        spec.restart_from = None;
        Job { spec, state: JobState::Queued, restart_from, run_index, exec }
    }

    pub(crate) fn state(&self) -> JobState {
        self.state
    }

    /// Moves a live job between `Queued` and `Running`; a terminal state
    /// is only ever entered through [`JobTable::finish`].
    pub(crate) fn set_state(&mut self, state: JobState) {
        let from = self.state;
        assert!(!from.is_terminal() && !state.is_terminal(), "{from:?} -> {state:?}");
        self.state = state;
    }

    /// The `family` label of the job's series.
    pub(crate) fn family(&self) -> &str {
        self.spec.family.as_deref().unwrap_or("unknown")
    }
}

/// An id [`JobTable::reserve`] handed out, never again: inserted once
/// the job is durable, or abandoned.
#[must_use = "a reserved id is inserted or abandoned"]
pub(crate) struct Reserved(u64);

/// A terminal transition [`JobTable::finish`] granted, for
/// [`JobBook::finish`] once the lock is released.
pub(crate) struct Terminal {
    pub(crate) job: u64,
    pub(crate) state: JobState,
    pub(crate) run_index: u32,
    pub(crate) family: String,
}

/// A job the recovery pass put back, for [`JobBook::recovered`].
pub(crate) struct Owed {
    pub(crate) job: u64,
    pub(crate) run_index: u32,
    pub(crate) nodes_so_far: u64,
    /// From a checkpoint, not from scratch.
    pub(crate) resumed: bool,
}

/// Every job a daemon knows, the next id, and the live count.
pub(crate) struct JobTable<Sub, X> {
    jobs: BTreeMap<u64, Job<Sub, X>>,
    next_id: u64,
    reserved: usize,
    open: usize,
}

impl<Sub, X> JobTable<Sub, X> {
    pub(crate) fn new() -> Self {
        JobTable { jobs: BTreeMap::new(), next_id: 0, reserved: 0, open: 0 }
    }

    /// Reserved ids plus jobs not yet terminal.
    pub(crate) fn live(&self) -> usize {
        self.reserved + self.open
    }

    pub(crate) fn reserve(&mut self) -> Reserved {
        self.next_id += 1;
        self.reserved += 1;
        Reserved(self.next_id - 1)
    }

    /// Gives up a reservation; its id stays burned.
    pub(crate) fn abandon(&mut self, _id: Reserved) {
        self.reserved -= 1;
    }

    /// Enters `job` under its reserved id; returns the id.
    pub(crate) fn insert(&mut self, id: Reserved, job: Job<Sub, X>) -> u64 {
        self.reserved -= 1;
        self.put(id.0, job);
        id.0
    }

    fn put(&mut self, id: u64, job: Job<Sub, X>) {
        self.open += usize::from(!job.state.is_terminal());
        if let Some(old) = self.jobs.insert(id, job) {
            self.open -= usize::from(!old.state.is_terminal());
        }
    }

    /// Puts the recovered jobs back as queued under their old ids and
    /// seeds the next id past every id the ledger ever recorded.
    pub(crate) fn restore(
        &mut self,
        rec: Recovery<Sub>,
        exec: impl Fn(&Spec<Sub>) -> X,
    ) -> Vec<Owed> {
        self.seed(rec.next_job);
        rec.jobs
            .into_iter()
            .map(|r| {
                let owed = Owed {
                    job: r.job,
                    run_index: r.run_index,
                    nodes_so_far: r.nodes_so_far,
                    resumed: r.checkpoint.is_some(),
                };
                let x = exec(&r.spec);
                self.put(r.job, Job::queued(r.spec, r.checkpoint, r.run_index, x));
                owed
            })
            .collect()
    }

    /// Keeps the next id at or above `floor`.
    pub(crate) fn seed(&mut self, floor: u64) {
        self.next_id = self.next_id.max(floor);
    }

    /// Forgets every job; reservations and the next id stay.
    pub(crate) fn clear(&mut self) {
        self.jobs.clear();
        self.open = 0;
    }

    /// The terminal transition of `job` to `state`, at `run_index` when
    /// given. Refused (`None`) for an unknown or terminal job, so no job
    /// is retired, counted or finished twice.
    pub(crate) fn finish(
        &mut self,
        job: u64,
        state: JobState,
        run_index: Option<u32>,
    ) -> Option<Terminal> {
        assert!(state.is_terminal(), "{state:?} is not terminal");
        let rec = self.jobs.get_mut(&job).filter(|j| !j.state.is_terminal())?;
        rec.state = state;
        rec.run_index = run_index.unwrap_or(rec.run_index);
        self.open -= 1;
        Some(Terminal { job, state, run_index: rec.run_index, family: rec.family().to_owned() })
    }

    /// Any change but a terminal one; those go through [`Self::finish`].
    pub(crate) fn get_mut(&mut self, job: &u64) -> Option<&mut Job<Sub, X>> {
        self.jobs.get_mut(job)
    }

    /// The `status` rows, with each job's open nodes where known.
    pub(crate) fn summaries(&self, open_nodes: impl Fn(u64) -> Option<u64>) -> Vec<JobSummary> {
        self.iter()
            .map(|(&job, j)| JobSummary {
                job,
                name: j.spec.name.clone(),
                state: j.state,
                priority: j.spec.priority,
                num_solvers: j.spec.num_solvers,
                run_index: j.run_index,
                open_nodes: open_nodes(job),
            })
            .collect()
    }

    /// The `metrics` rows, with each job's progress where known.
    pub(crate) fn progress_rows(
        &self,
        progress: impl Fn(u64) -> Option<ProgressMsg>,
    ) -> Vec<JobProgress> {
        self.iter()
            .map(|(&job, j)| JobProgress {
                job,
                name: j.spec.name.clone(),
                state: j.state,
                progress: progress(job),
            })
            .collect()
    }
}

/// Reads see the jobs by id.
impl<Sub, X> std::ops::Deref for JobTable<Sub, X> {
    type Target = BTreeMap<u64, Job<Sub, X>>;

    fn deref(&self) -> &Self::Target {
        &self.jobs
    }
}

/// The ledger, event logs and counters of a daemon: the half of the
/// life cycle outside its state lock.
pub(crate) struct JobBook<'a, Sol> {
    pub(crate) daemon: &'static Daemon,
    pub(crate) ledger: Option<&'a JobLedger>,
    pub(crate) events: &'a EventLog<Sol>,
    pub(crate) metrics: &'a MetricsRegistry,
}

impl<Sol> JobBook<'_, Sol> {
    fn submitted(&self, family: &str) -> Arc<Counter> {
        let d = self.daemon;
        self.metrics.counter_with(d.submitted, &[("family", family)], d.submitted_help)
    }

    /// `resumed` from a checkpoint, or requeued from scratch.
    fn recovered_total(&self, resumed: bool) -> Arc<Counter> {
        self.metrics.counter_with(
            self.daemon.recovered,
            &[("mode", if resumed { "resumed" } else { "requeued" })],
            "Jobs brought back by the startup recovery pass, by mode",
        )
    }

    /// Registers the job series a scrape right after start shows.
    pub(crate) fn register_series(&self) {
        for family in FAMILIES {
            self.submitted(family);
        }
        self.recovered_total(false);
        self.recovered_total(true);
    }

    /// An instance whose CRC fails is rejected before anything else:
    /// the daemons never look inside an instance, so this is their one
    /// check on it, and nothing is admitted or written ahead for it.
    /// Then under `state`'s lock `admit` may turn the job away, else
    /// its id is reserved; the write-ahead record is fsync'd outside
    /// the lock, so submits do not serialize on the disk; back under it
    /// the job is inserted and `enqueue` hands it to the executor. A
    /// failed write abandons the id and answers the submit.
    pub(crate) fn submit<S, Sub: Serialize, X>(
        &self,
        state: &Mutex<S>,
        table: fn(&mut S) -> &mut JobTable<Sub, X>,
        mut spec: Spec<Sub>,
        exec: X,
        admit: impl FnOnce(&mut S) -> Result<(), &'static str>,
        enqueue: impl FnOnce(&mut S, u64),
    ) -> io::Result<Result<u64, &'static str>> {
        if spec.instance.verify().is_err() {
            return Ok(Err(BAD_INSTANCE));
        }
        let id = {
            let mut st = state.lock().expect(POISONED);
            if let Err(reason) = admit(&mut st) {
                return Ok(Err(reason));
            }
            table(&mut st).reserve()
        };
        // Durable before the ack, or a crash right after it would lose
        // an accepted job. Nobody can name the id before the ack.
        if let Some(ledger) = self.ledger {
            if let Err(e) = ledger.record_submitted(id.0, &spec) {
                table(&mut state.lock().expect(POISONED)).abandon(id);
                return Err(e);
            }
        }
        let (restart_from, run_index, nodes_so_far) = resume_point(spec.restart_from.take());
        self.submitted(spec.family.as_deref().unwrap_or("unknown")).inc();
        // Announced before the insert: no executor event can overtake.
        self.events.emit(id.0, JobEventKind::Queued);
        if self.daemon.announces_resume && restart_from.is_some() {
            self.events.emit(id.0, JobEventKind::Recovered { run_index, nodes_so_far });
        }
        let job = Job::queued(spec, restart_from, run_index, exec);
        let mut st = state.lock().expect(POISONED);
        let id = table(&mut st).insert(id, job);
        enqueue(&mut st, id);
        Ok(Ok(id))
    }

    /// Retire the ledger record (unless `keep_record`: a drain leaves
    /// the job to the next daemon on this state dir), count the
    /// terminal state, emit `event` — or an empty `Finished` for a job
    /// that never ran. Retiring first makes a crash in between re-run a
    /// finished job (at-least-once); the other order could lose one.
    pub(crate) fn finish(&self, t: Terminal, event: Option<JobEventKind<Sol>>, keep_record: bool) {
        if let Some(ledger) = self.ledger.filter(|_| !keep_record) {
            if let Err(e) = ledger.record_finished(t.job) {
                let program = self.daemon.program;
                eprintln!("{program}: cannot retire ledger record of job {}: {e}", t.job);
            }
        }
        self.metrics
            .counter_with(
                self.daemon.finished,
                &[("state", state_label(t.state)), ("family", &t.family)],
                "Jobs that reached a terminal state, by state and instance family",
            )
            .inc();
        self.events.emit(t.job, event.unwrap_or_else(|| empty_finished(t.state, t.run_index)));
    }

    /// Counts a recovered job and announces it like a live submit, so a
    /// watcher reattaching after the restart sees a well-formed stream.
    pub(crate) fn recovered(&self, o: &Owed) {
        self.recovered_total(o.resumed).inc();
        self.events.emit(o.job, JobEventKind::Queued);
        if self.daemon.announces_resume {
            let (run_index, nodes_so_far) = (o.run_index, o.nodes_so_far);
            self.events.emit(o.job, JobEventKind::Recovered { run_index, nodes_so_far });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    type Table = JobTable<u32, ()>;

    /// A ledger in a fresh directory, removed again on drop.
    struct Dir(PathBuf);

    impl Dir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("ugrs-jobs-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Dir(dir)
        }
    }

    impl Drop for Dir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A daemon's job life cycle with nothing around it: the table is
    /// the whole lock-protected state.
    struct Daemonless {
        dir: PathBuf,
        ledger: JobLedger,
        events: EventLog<u32>,
        metrics: MetricsRegistry,
        table: Mutex<Table>,
    }

    impl Daemonless {
        fn new(dir: &Dir) -> Self {
            Daemonless {
                dir: dir.0.clone(),
                ledger: JobLedger::open(&dir.0).unwrap(),
                events: EventLog::new(),
                metrics: MetricsRegistry::new(),
                table: Mutex::new(JobTable::new()),
            }
        }

        fn book(&self) -> JobBook<'_, u32> {
            JobBook {
                daemon: &SERVER,
                ledger: Some(&self.ledger),
                events: &self.events,
                metrics: &self.metrics,
            }
        }

        fn submit(&self, spec: Spec<u32>) -> io::Result<u64> {
            let outcome = self.book().submit(&self.table, |t| t, spec, (), |_| Ok(()), |_, _| {});
            Ok(outcome?.expect("nothing turns a job away"))
        }

        /// A terminal transition the way the daemons make one: the
        /// table decides, the book acts only on a granted transition.
        fn finish(&self, job: u64, state: JobState) -> bool {
            let granted = self.table.lock().unwrap().finish(job, state, None);
            let done = granted.is_some();
            if let Some(t) = granted {
                self.book().finish(t, None, false);
            }
            done
        }

        fn finished_total(&self, state: JobState) -> u64 {
            let labels = [("state", state_label(state)), ("family", "unknown")];
            self.metrics.counter_with(SERVER.finished, &labels, "").get()
        }

        /// `(seq, is Finished)` of every event in `job`'s log so far.
        fn events(&self, job: u64) -> Vec<(usize, bool)> {
            let mut bytes = Vec::new();
            let snapshot = std::sync::atomic::AtomicBool::new(true);
            self.events
                .stream(&mut bytes, &snapshot, crate::rpc::Follow::Job { job, from_seq: 0 }, |_| {
                    String::new()
                })
                .unwrap();
            let mut dec = crate::wire::FrameDecoder::new();
            dec.push(&bytes);
            let mut seen = Vec::new();
            while let Some(frame) = dec.next_frame().unwrap() {
                if let ServerReply::<u32>::Event { event } = crate::wire::decode(&frame).unwrap() {
                    seen.push((event.seq, matches!(event.kind, JobEventKind::Finished { .. })));
                }
            }
            seen
        }

        fn record_exists(&self, job: u64) -> bool {
            self.dir.join("jobs").join(format!("job-{job}.json")).exists()
        }
    }

    fn spec() -> Spec<u32> {
        JobSpec::new("j", EncodedInstance::encode(&1u32), 2)
    }

    #[test]
    fn a_second_terminal_transition_is_refused_and_has_no_effect() {
        let dir = Dir::new("terminal");
        let d = Daemonless::new(&dir);
        // Cancelled while queued, then "finished" by a late run.
        let cancelled = d.submit(spec()).unwrap();
        // Finished by its run, then cancelled by a late client.
        let solved = d.submit(spec()).unwrap();
        assert!(d.record_exists(cancelled) && d.record_exists(solved));

        assert!(d.finish(cancelled, JobState::Cancelled));
        assert!(d.finish(solved, JobState::Solved));
        // Each record retired once; put them back to see the refused
        // transitions leave the ledger alone.
        d.ledger.record_submitted(cancelled, &spec()).unwrap();
        d.ledger.record_submitted(solved, &spec()).unwrap();

        assert!(!d.finish(cancelled, JobState::Solved), "finish after cancel");
        assert!(!d.finish(solved, JobState::Cancelled), "cancel after finish");
        assert!(d.record_exists(cancelled) && d.record_exists(solved));
        assert_eq!(d.finished_total(JobState::Cancelled), 1);
        assert_eq!(d.finished_total(JobState::Solved), 1);
        assert_eq!(d.events(cancelled), [(0, false), (1, true)], "Queued, one Finished");
        assert_eq!(d.events(solved), [(0, false), (1, true)]);
        let table = d.table.lock().unwrap();
        assert_eq!(table[&cancelled].state(), JobState::Cancelled);
        assert_eq!(table[&solved].state(), JobState::Solved);
        assert_eq!(table.live(), 0);
    }

    #[test]
    fn the_live_count_never_underflows() {
        let mut t = Table::new();
        assert!(t.finish(0, JobState::Cancelled, None).is_none(), "unknown job");
        let a = t.reserve();
        let b = t.reserve();
        assert_eq!(t.live(), 2, "reservations are live");
        t.abandon(a);
        let b = t.insert(b, Job::queued(spec(), None, 1, ()));
        assert_eq!(t.live(), 1);
        // A demoted gateway forgets its jobs while a submit is between
        // its reservation and its insert.
        let c = t.reserve();
        t.clear();
        assert_eq!(t.live(), 1, "the reservation outlives the clear");
        let c = t.insert(c, Job::queued(spec(), None, 1, ()));
        assert!(t.finish(b, JobState::Solved, None).is_none(), "cleared");
        assert!(t.finish(c, JobState::Solved, None).is_some());
        assert!(t.finish(c, JobState::Failed, None).is_none());
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn an_abandoned_id_is_never_handed_out_again() {
        let mut t = Table::new();
        let first = t.reserve();
        assert_eq!(first.0, 0);
        t.abandon(first);
        assert_eq!(t.reserve().0, 1);

        // Through the submit path: a failed write burns its id.
        let dir = Dir::new("burn");
        let d = Daemonless::new(&dir);
        let jobs = dir.0.join("jobs");
        std::fs::remove_dir_all(&jobs).unwrap();
        std::fs::write(&jobs, b"not a directory").unwrap();
        assert!(d.submit(spec()).is_err());
        assert!(d.table.lock().unwrap().is_empty());
        assert_eq!(d.table.lock().unwrap().live(), 0);
        assert_eq!(d.events(0), [], "nothing announced for a job never accepted");
        std::fs::remove_file(&jobs).unwrap();
        std::fs::create_dir(&jobs).unwrap();
        assert_eq!(d.submit(spec()).unwrap(), 1);
    }

    #[test]
    fn resume_point_maps_none_torn_and_valid_checkpoints() {
        assert_eq!(resume_point(None), (None, 1, 0));
        assert_eq!(resume_point(Some("{torn".into())), (None, 1, 0));
        assert_eq!(resume_point(Some("{\"run_index\": 2}".into())), (None, 1, 0));
        let valid = r#"{"run_index": 3, "nodes_so_far": 1234}"#.to_string();
        assert_eq!(resume_point(Some(valid.clone())), (Some(valid), 4, 1234));
    }
}
