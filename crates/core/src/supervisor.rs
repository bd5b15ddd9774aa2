//! The LoadCoordinator: Algorithm 1 of the paper, plus racing ramp-up,
//! collect-mode load balancing and checkpointing.

use crate::checkpoint::Checkpoint;
use crate::comm::LcComm;
use crate::messages::{Message, SubproblemMsg};
use crate::runner::{ParallelOptions, ParallelResult, RampUp};
use crate::stats::UgStats;
use crate::telemetry::{ProgressMsg, TelemetryEvent};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The longest the coordinator blocks for a message between two passes.
const MAX_WAIT: Duration = Duration::from_millis(2);

#[derive(Debug, PartialEq)]
enum Phase {
    Racing,
    Normal,
}

/// The Supervisor of the Supervisor–Worker scheme. Owns only a small
/// pool of subproblems; the B&B trees live inside the base solvers.
pub struct LoadCoordinator<Sub, Sol> {
    comm: LcComm<Sub, Sol>,
    opts: ParallelOptions,
    root: Sub,
    queue: Vec<SubproblemMsg<Sub>>,
    idle: Vec<usize>,
    assigned: HashMap<usize, SubproblemMsg<Sub>>,
    statuses: HashMap<usize, (f64, usize, u64)>,
    incumbent: Option<(Sol, f64)>,
    collect_mode: bool,
    phase: Phase,
    racing_winner: Option<usize>,
    start: Instant,
    idle_since: Vec<Option<Instant>>,
    idle_total: Vec<f64>,
    stats: UgStats,
    run_index: u32,
    carried_nodes: u64,
    carried_transferred: u64,
    carried_wall: f64,
    last_checkpoint: Instant,
    last_progress: Instant,
    /// Ranks already sent an AbortSubproblem for their current assignment
    /// (avoids flooding the channel from the management loop).
    abort_sent: std::collections::HashSet<usize>,
    /// Ranks the transport reported dead (distributed runs): never
    /// assigned again; their in-flight work was requeued.
    dead: std::collections::HashSet<usize>,
}

impl<Sub, Sol> LoadCoordinator<Sub, Sol>
where
    Sub: Clone + Send + Serialize + DeserializeOwned + 'static,
    Sol: Clone + Send + Serialize + DeserializeOwned + 'static,
{
    /// Builds a coordinator over `comm` that will solve `root`.
    pub fn new(comm: LcComm<Sub, Sol>, opts: ParallelOptions, root: Sub) -> Self {
        let n = comm.num_workers();
        let now = Instant::now();
        LoadCoordinator {
            comm,
            opts,
            root,
            queue: Vec::new(),
            idle: (0..n).collect(),
            assigned: HashMap::new(),
            statuses: HashMap::new(),
            incumbent: None,
            collect_mode: false,
            phase: Phase::Normal,
            racing_winner: None,
            start: now,
            idle_since: vec![Some(now); n],
            idle_total: vec![0.0; n],
            stats: UgStats::default(),
            run_index: 1,
            carried_nodes: 0,
            carried_transferred: 0,
            carried_wall: 0.0,
            last_checkpoint: now,
            last_progress: now,
            abort_sent: std::collections::HashSet::new(),
            dead: std::collections::HashSet::new(),
        }
    }

    /// Seeds the coordinator with a known solution before the run (the
    /// Table 3 workflow: "rerun from scratch with the best solution").
    pub fn set_initial_incumbent(&mut self, sol: Sol, obj: f64) {
        self.incumbent = Some((sol, obj));
    }

    fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn cutoff(&self) -> f64 {
        self.incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| o - 1e-9)
    }

    fn mark_busy(&mut self, rank: usize) {
        if let Some(since) = self.idle_since[rank].take() {
            self.idle_total[rank] += since.elapsed().as_secs_f64();
        }
    }

    fn mark_idle(&mut self, rank: usize) {
        if self.idle_since[rank].is_none() {
            self.idle_since[rank] = Some(Instant::now());
        }
        if !self.idle.contains(&rank) {
            self.idle.push(rank);
        }
    }

    fn track_active(&mut self) {
        let active = self.assigned.len();
        if active > self.stats.max_active {
            self.stats.max_active = active;
            self.stats.first_max_active_time = self.elapsed();
        }
    }

    fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Racing => "racing",
            Phase::Normal => "normal",
        }
    }

    /// The live counterpart of the final statistics: everything the
    /// paper's tables report, computed from the coordinator's current
    /// state instead of at shutdown.
    fn progress_snapshot(&self) -> ProgressMsg {
        let wall = self.elapsed();
        let n = self.comm.num_workers();
        let mut idle_sum = 0.0;
        for rank in 0..n {
            idle_sum += self.idle_total[rank]
                + self.idle_since[rank].map_or(0.0, |s| s.elapsed().as_secs_f64());
        }
        let primal = self.incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o);
        let dual = self.global_dual_bound().min(primal);
        let in_flight: u64 = self.statuses.values().map(|(_, _, n)| *n).sum();
        ProgressMsg {
            wall,
            phase: self.phase_name().into(),
            primal_bound: primal,
            dual_bound: dual,
            gap_percent: crate::stats::gap_percent(primal, dual),
            open_nodes: (self.queue.len() + self.assigned.len()) as u64,
            nodes: self.stats.nodes_total + in_flight,
            transferred: self.stats.transferred,
            collected: self.stats.collected,
            incumbents: self.stats.incumbents_seen,
            active: self.assigned.len(),
            idle_percent: 100.0 * idle_sum / (n as f64 * wall).max(1e-9),
            workers_died: self.stats.workers_died,
        }
    }

    /// Emits a progress snapshot to the journal and the progress sink,
    /// rate-limited to the status interval (but never faster than 20 Hz).
    fn maybe_progress(&mut self) {
        if !self.opts.telemetry.enabled() {
            return;
        }
        let interval = self.opts.status_interval.max(0.05);
        if self.last_progress.elapsed().as_secs_f64() < interval {
            return;
        }
        self.last_progress = Instant::now();
        let msg = self.progress_snapshot();
        self.opts.telemetry.progress(&msg);
    }

    /// Pops the queued subproblem with the best (lowest) dual bound — the
    /// heaviest expected subtree.
    fn pop_best(&mut self) -> Option<SubproblemMsg<Sub>> {
        if self.queue.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.queue.len() {
            if self.queue[i].dual_bound < self.queue[best].dual_bound {
                best = i;
            }
        }
        Some(self.queue.swap_remove(best))
    }

    fn global_dual_bound(&self) -> f64 {
        let mut b = f64::INFINITY;
        for s in &self.queue {
            b = b.min(s.dual_bound);
        }
        for (rank, sub) in &self.assigned {
            let sb = self
                .statuses
                .get(rank)
                .map(|(d, _, _)| *d)
                .unwrap_or(f64::NEG_INFINITY)
                .max(sub.dual_bound);
            b = b.min(sb);
        }
        b
    }

    fn handle(&mut self, msg: Message<Sub, Sol>) -> Option<bool> {
        match msg {
            Message::SolutionFound { rank, sol, obj } => {
                let improves = self.incumbent.as_ref().is_none_or(|(_, cur)| obj < *cur - 1e-9);
                if improves {
                    self.incumbent = Some((sol.clone(), obj));
                    self.stats.incumbents_seen += 1;
                    self.opts.telemetry.log(TelemetryEvent::Incumbent { obj });
                    // Broadcast to everyone (the finder dedups on its side).
                    let _ = rank;
                    self.comm.broadcast(&Message::Incumbent { sol, obj });
                    // Prune the pool.
                    let cutoff = self.cutoff();
                    self.queue.retain(|s| s.dual_bound < cutoff);
                }
            }
            Message::Status { rank, dual_bound, open, nodes } => {
                self.statuses.insert(rank, (dual_bound, open, nodes));
            }
            Message::ExportedNode { rank, sub } => {
                self.stats.collected += 1;
                self.opts
                    .telemetry
                    .log(TelemetryEvent::Collected { rank, dual_bound: sub.dual_bound });
                if sub.dual_bound < self.cutoff() {
                    self.queue.push(sub);
                }
            }
            Message::Completed { rank, dual_bound, nodes, aborted } => {
                self.stats.nodes_total += nodes;
                self.statuses.remove(&rank);
                if self.phase == Phase::Racing && !aborted {
                    // A racer finished the root: the whole instance is
                    // solved (its bound is global). `racing_winner` stays
                    // None — the race was never *decided* (Figure 1
                    // excludes these) — but the field is still journaled,
                    // the arm that finished the instance outright first.
                    self.log_racing_field(Some((rank, dual_bound, nodes)));
                    self.assigned.remove(&rank);
                    self.mark_idle(rank);
                    if !dual_bound.is_finite() || self.incumbent.is_none() {
                        // Infeasible instance.
                        self.stats.dual_bound = f64::INFINITY;
                    }
                    return Some(true); // solved
                }
                self.assigned.remove(&rank);
                self.mark_idle(rank);
                let _ = dual_bound;
            }
            // The transport's last resort: on a v2 session this only
            // arrives after the reconnect budget ran out (transient
            // drops are healed below this layer and never surface
            // here); it is raised at most once per rank, and `dead`
            // makes requeueing idempotent regardless.
            Message::WorkerDied { rank } if self.dead.insert(rank) => {
                self.stats.workers_died += 1;
                self.opts.telemetry.log(TelemetryEvent::WorkerDied { rank });
                self.mark_busy(rank); // freeze its idle accounting
                self.idle.retain(|&r| r != rank);
                self.abort_sent.remove(&rank);
                let last_status_bound = self.statuses.remove(&rank).map(|(d, _, _)| d);
                if let Some(mut sub) = self.assigned.remove(&rank) {
                    if self.phase == Phase::Racing {
                        // The surviving racers still hold the same
                        // root; only when the *last* racer dies is
                        // there work to recover.
                        if self.assigned.is_empty() {
                            self.phase = Phase::Normal;
                            self.queue.push(SubproblemMsg {
                                sub: self.root.clone(),
                                dual_bound: f64::NEG_INFINITY,
                            });
                        }
                    } else {
                        // Requeue at the freshest bound the dead
                        // worker reported, so re-solving the subtree
                        // never regresses the global dual bound.
                        if let Some(d) = last_status_bound {
                            sub.dual_bound = sub.dual_bound.max(d);
                        }
                        self.queue.push(sub);
                    }
                }
            }
            // Downward tags are handled by workers.
            _ => {}
        }
        None
    }

    fn send_sub(&mut self, rank: usize, sub: SubproblemMsg<Sub>, settings_index: Option<usize>) {
        self.mark_busy(rank);
        self.idle.retain(|&r| r != rank);
        let settings = settings_index.map(|i| match &self.opts.ramp_up {
            RampUp::Racing { settings, .. } => settings[i % settings.len()].clone(),
            RampUp::Normal => crate::settings::SolverSettings::default_bundle(),
        });
        self.abort_sent.remove(&rank);
        self.assigned.insert(rank, sub.clone());
        self.opts.telemetry.log(TelemetryEvent::Transferred { rank, dual_bound: sub.dual_bound });
        self.comm.send_to(
            rank,
            Message::Subproblem { sub, incumbent: self.incumbent.clone(), settings },
        );
        self.stats.transferred += 1;
        self.track_active();
    }

    fn start_racing(&mut self) {
        let n = self.comm.num_workers();
        let root = SubproblemMsg { sub: self.root.clone(), dual_bound: f64::NEG_INFINITY };
        self.phase = Phase::Racing;
        // Rank r races settings r (round-robin over the bundles).
        for rank in 0..n {
            self.send_sub(rank, root.clone(), Some(rank));
        }
        self.queue.clear();
    }

    fn racing_trigger_fired(&self) -> bool {
        let RampUp::Racing { time_trigger, open_nodes_trigger, .. } = &self.opts.ramp_up else {
            return false;
        };
        if self.elapsed() >= *time_trigger {
            return true;
        }
        self.statuses.values().any(|(_, open, _)| *open >= *open_nodes_trigger)
    }

    /// Journals the whole racing field, best arm first (same ordering as
    /// the winner pick), so a journal shows how every arm stood, not
    /// just the winner. `solved_by` marks a racer that finished the
    /// root outright (solved-during-racing): it leads the field with its
    /// final bound regardless of the last status snapshot. Rank r raced
    /// settings r.
    fn log_racing_field(&mut self, solved_by: Option<(usize, f64, u64)>) {
        let mut arms: Vec<crate::telemetry::RacingArm> = self
            .assigned
            .keys()
            .map(|&rank| {
                let (dual, open, nodes) =
                    self.statuses.get(&rank).copied().unwrap_or((f64::NEG_INFINITY, 0, 0));
                crate::telemetry::RacingArm {
                    rank,
                    settings_index: rank,
                    dual_bound: dual,
                    open_nodes: open,
                    nodes,
                }
            })
            .collect();
        arms.sort_by(|a, b| {
            b.dual_bound
                .partial_cmp(&a.dual_bound)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.open_nodes.cmp(&a.open_nodes))
                .then(a.rank.cmp(&b.rank))
        });
        if let Some((rank, dual, nodes)) = solved_by {
            arms.retain(|a| a.rank != rank);
            arms.insert(
                0,
                crate::telemetry::RacingArm {
                    rank,
                    settings_index: rank,
                    dual_bound: dual,
                    open_nodes: 0,
                    nodes,
                },
            );
        }
        self.opts.telemetry.log(TelemetryEvent::RacingField { arms });
    }

    fn finish_racing(&mut self) {
        // Winner: best (largest) dual bound — it has progressed the most —
        // with open-node count as tie-break (the paper: "a combination of
        // the lower bound and the number of open nodes").
        let winner = self
            .assigned
            .keys()
            .copied()
            .max_by(|a, b| {
                let sa = self.statuses.get(a).copied().unwrap_or((f64::NEG_INFINITY, 0, 0));
                let sb = self.statuses.get(b).copied().unwrap_or((f64::NEG_INFINITY, 0, 0));
                sa.0.partial_cmp(&sb.0).unwrap_or(std::cmp::Ordering::Equal).then(sa.1.cmp(&sb.1))
            })
            .unwrap_or(0);
        self.racing_winner = Some(winner);
        self.stats.racing_winner = self.racing_winner;
        self.log_racing_field(None);
        self.opts.telemetry.log(TelemetryEvent::RacingWinner {
            winner_rank: winner,
            settings_index: self.racing_winner.unwrap_or(0),
        });
        for rank in self.assigned.keys().copied().collect::<Vec<_>>() {
            if rank != winner {
                self.comm.send_to(rank, Message::AbortSubproblem);
            }
        }
        // The winner feeds the pool; its own subtree remainder keeps it busy.
        self.comm.send_to(winner, Message::StartCollecting);
        self.collect_mode = true;
        self.phase = Phase::Normal;
        self.opts.telemetry.log(TelemetryEvent::Phase { phase: "normal".into() });
    }

    fn manage_collect_mode(&mut self) {
        if self.phase != Phase::Normal || self.assigned.is_empty() {
            return;
        }
        // With a single solver the pool can never feed anyone else;
        // collecting would only make the lone worker ship nodes to the
        // coordinator and receive them back.
        if self.comm.num_workers() == 1 {
            return;
        }
        // Collect until the pool holds one subproblem per idle solver
        // and one spare.
        let want = self.idle.len() + 1;
        if !self.collect_mode && self.queue.len() < want {
            for rank in self.assigned.keys() {
                self.comm.send_to(*rank, Message::StartCollecting);
            }
            self.collect_mode = true;
        } else if self.collect_mode && self.queue.len() >= want + self.comm.num_workers() {
            for rank in self.assigned.keys() {
                self.comm.send_to(*rank, Message::StopCollecting);
            }
            self.collect_mode = false;
        }
    }

    fn build_checkpoint(&self) -> Checkpoint<Sub, Sol> {
        // Assigned subtree roots carry the solver's freshest reported
        // bound, so restarts never regress the chain's dual bound.
        let assigned = self
            .assigned
            .iter()
            .map(|(rank, sub)| {
                let mut sub = sub.clone();
                if let Some((d, _, _)) = self.statuses.get(rank) {
                    sub.dual_bound = sub.dual_bound.max(*d);
                }
                sub
            })
            .collect();
        Checkpoint {
            queue: self.queue.clone(),
            assigned,
            incumbent: self.incumbent.clone(),
            dual_bound: self.global_dual_bound(),
            nodes_so_far: self.carried_nodes + self.stats.nodes_total,
            transferred_so_far: self.carried_transferred + self.stats.transferred,
            wall_time_so_far: self.carried_wall + self.elapsed(),
            run_index: self.run_index,
        }
    }

    /// True when the run must stop *unfinished*: wall-clock limit, node
    /// limit, or an external cancellation flag. All three funnel into
    /// the same orderly shutdown (abort everyone, drain `Completed`
    /// reports, checkpoint the primitive nodes).
    fn hit_limit(&self) -> bool {
        if self.elapsed() >= self.opts.time_limit {
            return true;
        }
        if let Some(cancel) = &self.opts.cancel {
            if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(limit) = self.opts.node_limit {
            // Completed subtrees plus the freshest in-flight counts.
            let in_flight: u64 = self.statuses.values().map(|(_, _, n)| *n).sum();
            if self.stats.nodes_total + in_flight >= limit {
                return true;
            }
        }
        false
    }

    fn maybe_periodic_checkpoint(&mut self) {
        if self.opts.checkpoint_interval <= 0.0 {
            return;
        }
        if self.last_checkpoint.elapsed().as_secs_f64() >= self.opts.checkpoint_interval {
            self.last_checkpoint = Instant::now();
            if let Some(path) = self.opts.checkpoint_path.clone() {
                let cp = self.build_checkpoint();
                if cp.save(&path).is_ok() {
                    self.opts.telemetry.log(TelemetryEvent::CheckpointSaved {
                        primitive_nodes: cp.num_primitive_nodes(),
                    });
                }
            }
        }
    }

    /// Runs the coordination loop to completion (or the time limit).
    pub fn run(&mut self) -> ParallelResult<Sub, Sol> {
        // ---- initialization: restart, racing or normal ramp-up --------
        if let Some(cp_json) = self.opts.restart_from.clone() {
            match serde_json::from_str::<Checkpoint<Sub, Sol>>(&cp_json) {
                Ok(cp) => {
                    self.queue = cp.queue;
                    self.queue.extend(cp.assigned);
                    self.incumbent = cp.incumbent;
                    self.carried_nodes = cp.nodes_so_far;
                    self.carried_transferred = cp.transferred_so_far;
                    self.carried_wall = cp.wall_time_so_far;
                    self.run_index = cp.run_index + 1;
                }
                Err(e) => {
                    // Degrade to a from-scratch run rather than losing
                    // the job, but say so: a torn checkpoint means the
                    // chain's carried statistics are gone.
                    eprintln!(
                        "ugrs: restart_from checkpoint unreadable ({e}); solving from scratch"
                    );
                }
            }
        }
        self.opts.telemetry.log(TelemetryEvent::RunStarted {
            workers: self.comm.num_workers(),
            run_index: self.run_index,
            restarted: self.run_index > 1,
        });
        let racing_possible = matches!(self.opts.ramp_up, RampUp::Racing { .. })
            && self.comm.num_workers() > 1
            && self.queue.is_empty();
        if racing_possible {
            self.start_racing();
        } else if self.queue.is_empty() {
            self.queue
                .push(SubproblemMsg { sub: self.root.clone(), dual_bound: f64::NEG_INFINITY });
        }
        self.opts.telemetry.log(TelemetryEvent::Phase { phase: self.phase_name().into() });

        // Each pass acts on everything the state allows, then waits for
        // the next message. Assignment leaves no live idle rank next to a
        // queued subproblem, so no wait delays work that could run.
        let mut solved = false;
        let mut hit_time_limit = false;
        loop {
            // ---- worker attrition -------------------------------------
            // Every worker is gone: nobody is left to assign the
            // requeued work to. Stop unsolved; the checkpoint below
            // preserves the queue for a restart with fresh workers.
            if self.dead.len() >= self.comm.num_workers() {
                break;
            }

            // ---- racing management ------------------------------------
            if self.phase == Phase::Racing && self.racing_trigger_fired() {
                self.finish_racing();
            }

            // ---- normal-phase management -------------------------------
            if self.phase == Phase::Normal {
                // Bound-based termination: when every queued subproblem and
                // every active solver's reported bound is dominated by the
                // incumbent, nothing left can improve — abort the stragglers
                // (they drain through the normal Completed path).
                if self.incumbent.is_some() {
                    let cutoff = self.cutoff();
                    self.queue.retain(|s| s.dual_bound < cutoff);
                    if !self.assigned.is_empty() && self.global_dual_bound() >= cutoff {
                        for rank in self.assigned.keys() {
                            if self.abort_sent.insert(*rank) {
                                self.comm.send_to(*rank, Message::AbortSubproblem);
                            }
                        }
                    }
                }
                // Assignment.
                while !self.idle.is_empty() && !self.queue.is_empty() {
                    let sub = self.pop_best().unwrap();
                    let rank = self.idle[0];
                    self.send_sub(rank, sub, None);
                }
                self.manage_collect_mode();
                // Termination: pool empty, nobody working.
                if self.queue.is_empty() && self.assigned.is_empty() {
                    solved = true;
                    break;
                }
            }

            // ---- limits and checkpoints --------------------------------
            if self.hit_limit() {
                hit_time_limit = true;
                break;
            }
            self.maybe_periodic_checkpoint();
            self.maybe_progress();

            // ---- wait, then drain -------------------------------------
            // The wait bounds how late the time limit, the cancel flag,
            // the racing time trigger and the transport's liveness sweep
            // are seen; a message ends it at once.
            debug_assert!(
                self.phase == Phase::Racing || self.idle.is_empty() || self.queue.is_empty(),
                "the coordinator would wait with work queued and a rank idle"
            );
            let mut timeout = MAX_WAIT;
            while let Some(msg) = self.comm.recv_timeout(timeout) {
                timeout = Duration::ZERO;
                if let Some(s) = self.handle(msg) {
                    solved = s;
                }
            }
            if solved {
                break;
            }
        }

        // ---- shutdown -------------------------------------------------
        let final_dual = if hit_time_limit || !solved {
            self.global_dual_bound()
        } else {
            self.incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o)
        };
        if hit_time_limit {
            // Abort everyone, wait (bounded) for their Completed reports.
            for rank in self.assigned.keys() {
                self.comm.send_to(*rank, Message::AbortSubproblem);
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.assigned.is_empty() && Instant::now() < deadline {
                if let Some(msg) = self.comm.recv_timeout(Duration::from_millis(20)) {
                    // Keep the assigned map: aborted subtree roots are the
                    // primitive nodes the checkpoint must retain.
                    if let Message::Completed { rank, nodes, aborted, .. } = &msg {
                        self.stats.nodes_total += nodes;
                        let (r, ab) = (*rank, *aborted);
                        let last_status_bound = self.statuses.remove(&r).map(|(d, _, _)| d);
                        // Move an *aborted* root back into the queue so the
                        // checkpoint sees it exactly once; a subproblem that
                        // completed normally in the shutdown race is done.
                        // Its bound is upgraded to the solver's last status
                        // report — otherwise restarts would resume from the
                        // stale creation-time bound and the chain's dual
                        // bound could regress.
                        if let Some(mut sub) = self.assigned.remove(&r) {
                            if ab {
                                if let Some(d) = last_status_bound {
                                    sub.dual_bound = sub.dual_bound.max(d);
                                }
                                self.queue.push(sub);
                            }
                        }
                        self.mark_idle(r);
                    } else if let Some(s) = self.handle(msg) {
                        solved = s;
                    }
                }
            }
        }
        self.comm.broadcast(&Message::Terminate);

        // ---- statistics & checkpoint -----------------------------------
        let wall = self.elapsed();
        let n = self.comm.num_workers();
        let mut idle_sum = 0.0;
        for rank in 0..n {
            idle_sum += self.idle_total[rank]
                + self.idle_since[rank].map_or(0.0, |s| s.elapsed().as_secs_f64());
        }
        self.stats.wall_time = wall;
        self.stats.idle_percent = 100.0 * idle_sum / (n as f64 * wall).max(1e-9);
        self.stats.open_nodes = (self.queue.len() + self.assigned.len()) as u64;
        // Restart-chain accounting (Table 2's run 1.k rows): this run's
        // index plus the cumulative totals including carried history.
        self.stats.run_index = self.run_index;
        self.stats.nodes_so_far = self.carried_nodes + self.stats.nodes_total;
        self.stats.wall_time_so_far = self.carried_wall + wall;
        self.stats.primal_bound = self.incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o);
        self.stats.dual_bound = if solved && !hit_time_limit {
            self.stats.primal_bound.min(final_dual)
        } else {
            final_dual
        };
        if solved && !hit_time_limit && self.incumbent.is_none() {
            self.stats.dual_bound = f64::INFINITY; // proven infeasible
        }

        let checkpoint = if hit_time_limit || !solved {
            let cp = self.build_checkpoint();
            if let Some(path) = &self.opts.checkpoint_path {
                if cp.save(path).is_ok() {
                    self.opts.telemetry.log(TelemetryEvent::CheckpointSaved {
                        primitive_nodes: cp.num_primitive_nodes(),
                    });
                }
            }
            Some(cp)
        } else {
            None
        };

        if self.opts.telemetry.enabled() {
            // One last snapshot mirroring the final statistics (so
            // gap-over-time series end at the authoritative state), then
            // the final statistics themselves.
            let msg = ProgressMsg {
                wall: self.stats.wall_time,
                phase: self.phase_name().into(),
                primal_bound: self.stats.primal_bound,
                dual_bound: self.stats.dual_bound,
                gap_percent: self.stats.gap_percent(),
                open_nodes: self.stats.open_nodes,
                nodes: self.stats.nodes_total,
                transferred: self.stats.transferred,
                collected: self.stats.collected,
                incumbents: self.stats.incumbents_seen,
                active: self.assigned.len(),
                idle_percent: self.stats.idle_percent,
                workers_died: self.stats.workers_died,
            };
            self.opts.telemetry.progress(&msg);
            self.opts.telemetry.log(TelemetryEvent::RunFinished { stats: self.stats.clone() });
        }

        ParallelResult {
            solution: self.incumbent.clone(),
            dual_bound: self.stats.dual_bound,
            solved: solved && !hit_time_limit,
            stats: self.stats.clone(),
            final_checkpoint: checkpoint,
        }
    }
}
