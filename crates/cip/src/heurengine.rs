//! The primal-heuristic plugin engine.
//!
//! SCIP schedules each primal heuristic individually — frequency, depth
//! offset, priority, and budgets decide when a heuristic runs at a node.
//! This module reproduces that model on top of the framework's
//! [`Heuristic`] plugin point:
//!
//! * [`PrimalHeuristic`] is the scheduled plugin trait: a heuristic plus
//!   its [`HeurSchedule`] (how often, from which depth, under which call
//!   and time budgets, in which order);
//! * [`HeurEngine`] owns the registered heuristics, decides per node
//!   which are due, accounts calls/hits/time per heuristic, and reports
//!   [`HeurStats`] so a run can show which heuristic found what;
//! * legacy [`Heuristic`] plugins are adapted transparently, under
//!   [`HeurSchedule::EVERY_TENTH`], so existing plugin sets keep working.
//!
//! A schedule alone decides when a heuristic runs: the engine rewrites
//! its frequency by the solve's [`Emphasis`] at registration, as SCIP's
//! emphasis settings rewrite each heuristic's `freq`. Candidates are
//! validated by the framework before installation, and accepted
//! incumbents flow through `ControlHooks::on_incumbent` — which is how a
//! heuristic-found solution enters UG's incumbent exchange and reaches
//! every other ParaSolver.

use crate::plugins::{Heuristic, SolveCtx};
use crate::settings::Emphasis;
use std::time::{Duration, Instant};

/// When and under which budgets a [`PrimalHeuristic`] runs.
#[derive(Clone, Copy, Debug)]
pub struct HeurSchedule {
    /// Run at nodes whose depth is `depth_offset + k·frequency`;
    /// `0` means: only at `depth == depth_offset`.
    pub frequency: usize,
    /// Shallowest depth at which the heuristic may run.
    pub depth_offset: usize,
    /// Maximum calls over the whole solve (`u64::MAX` = unlimited).
    pub max_calls: u64,
    /// Total wall-clock budget across all calls; once exceeded the
    /// heuristic is retired for the rest of the solve.
    pub time_budget: Duration,
    /// Higher-priority heuristics run first within a round.
    pub priority: i32,
}

impl HeurSchedule {
    /// Every depth, unlimited budgets, priority 0: the schedule a
    /// [`PrimalHeuristic`] registers under unless it declares its own.
    pub const EVERY_DEPTH: HeurSchedule = HeurSchedule {
        frequency: 1,
        depth_offset: 0,
        max_calls: u64::MAX,
        time_budget: Duration::MAX,
        priority: 0,
    };

    /// Every tenth depth, unlimited budgets: the schedule of legacy
    /// [`Heuristic`] plugins and of the solver's LP diving.
    pub const EVERY_TENTH: HeurSchedule = HeurSchedule { frequency: 10, ..Self::EVERY_DEPTH };

    /// This schedule with its frequency rewritten by emphasis `e`: scaled
    /// by `e`'s [`crate::settings::Preset::heur_scale`], or every depth
    /// where that is `None`. A root-only schedule (`0`) stays root-only.
    pub const fn under(self, e: Emphasis) -> HeurSchedule {
        let frequency = match e.preset().heur_scale {
            _ if self.frequency == 0 => 0,
            Some(scale) => scale * self.frequency,
            None => 1,
        };
        HeurSchedule { frequency, ..self }
    }

    /// True when a heuristic with this schedule is due at `depth`.
    pub fn due_at(&self, depth: usize) -> bool {
        match depth.checked_sub(self.depth_offset) {
            Some(rel) if self.frequency == 0 => rel == 0,
            Some(rel) => rel.is_multiple_of(self.frequency),
            None => false,
        }
    }
}

/// A primal heuristic with an individual schedule — the plugin trait
/// problem solvers implement to feed incumbents into the search (and,
/// under UG, into the incumbent exchange).
pub trait PrimalHeuristic: Send {
    /// Identifier shown in statistics.
    fn name(&self) -> &str;

    /// The schedule this heuristic registers under.
    fn default_schedule(&self) -> HeurSchedule {
        HeurSchedule::EVERY_DEPTH
    }

    /// Produces a candidate assignment, or `None`. The framework
    /// validates the candidate before installing it.
    fn run(&mut self, ctx: &mut SolveCtx) -> Option<Vec<f64>>;
}

/// Adapter running a legacy [`Heuristic`] plugin under the engine with
/// [`HeurSchedule::EVERY_TENTH`].
struct LegacyHeuristic(Box<dyn Heuristic>);

impl PrimalHeuristic for LegacyHeuristic {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn default_schedule(&self) -> HeurSchedule {
        HeurSchedule::EVERY_TENTH
    }

    fn run(&mut self, ctx: &mut SolveCtx) -> Option<Vec<f64>> {
        self.0.run(ctx)
    }
}

/// Per-heuristic accounting, reported by [`HeurEngine::stats`].
#[derive(Clone, Debug)]
pub struct HeurStats {
    /// The heuristic's name.
    pub name: String,
    /// Times the heuristic ran.
    pub calls: u64,
    /// Candidates that were installed as improving incumbents.
    pub hits: u64,
    /// Total wall-clock time spent inside the heuristic.
    pub time: Duration,
    /// Best internal-sense objective among its installed candidates.
    pub best_obj: Option<f64>,
}

/// One registered heuristic plus its live accounting.
pub struct HeurEntry {
    heur: Box<dyn PrimalHeuristic>,
    schedule: HeurSchedule,
    calls: u64,
    hits: u64,
    spent: Duration,
    /// Best objective among its installed candidates.
    best: Option<f64>,
}

impl HeurEntry {
    /// True when schedule and budgets allow a call at `depth`.
    fn due(&self, depth: usize) -> bool {
        self.calls < self.schedule.max_calls
            && self.spent < self.schedule.time_budget
            && self.schedule.due_at(depth)
    }

    /// Runs the heuristic, charging the call and its time.
    pub fn call(&mut self, ctx: &mut SolveCtx) -> Option<Vec<f64>> {
        let start = Instant::now();
        let cand = self.heur.run(ctx);
        self.calls += 1;
        self.spent = self.spent.saturating_add(start.elapsed());
        cand
    }
}

/// The engine owning every registered primal heuristic.
#[derive(Default)]
pub struct HeurEngine {
    /// The emphasis every registered schedule is rewritten by.
    emphasis: Emphasis,
    entries: Vec<HeurEntry>,
}

impl HeurEngine {
    /// An engine whose schedules run under emphasis `emphasis`.
    pub fn new(emphasis: Emphasis) -> Self {
        HeurEngine { emphasis, entries: Vec::new() }
    }

    /// Registers a heuristic under its own default schedule, rewritten by
    /// the engine's emphasis. Entries stay sorted by descending priority
    /// (stable, so registration order breaks ties).
    pub fn add(&mut self, heur: Box<dyn PrimalHeuristic>) {
        let schedule = heur.default_schedule().under(self.emphasis);
        let entry =
            HeurEntry { heur, schedule, calls: 0, hits: 0, spent: Duration::ZERO, best: None };
        self.entries.push(entry);
        self.entries.sort_by_key(|e| std::cmp::Reverse(e.schedule.priority));
    }

    /// Registers a legacy [`Heuristic`] plugin ([`HeurSchedule::EVERY_TENTH`]).
    pub fn add_legacy(&mut self, heur: Box<dyn Heuristic>) {
        self.add(Box::new(LegacyHeuristic(heur)));
    }

    /// Indices (in priority order) of the heuristics due at `depth`.
    pub fn due_indices(&self, depth: usize) -> Vec<usize> {
        (0..self.entries.len()).filter(|&i| self.entries[i].due(depth)).collect()
    }

    /// The entry at `i` (as returned by [`Self::due_indices`]).
    pub fn entry_mut(&mut self, i: usize) -> &mut HeurEntry {
        &mut self.entries[i]
    }

    /// Records that entry `i`'s candidate was installed at `obj`.
    pub fn record_hit(&mut self, i: usize, obj: f64) {
        let e = &mut self.entries[i];
        e.hits += 1;
        e.best = Some(e.best.map_or(obj, |b| b.min(obj)));
    }

    /// Per-heuristic call/hit/time accounting.
    pub fn stats(&self) -> Vec<HeurStats> {
        self.entries
            .iter()
            .map(|e| HeurStats {
                name: e.heur.name().to_string(),
                calls: e.calls,
                hits: e.hits,
                time: e.spent,
                best_obj: e.best,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed {
        name: &'static str,
        schedule: HeurSchedule,
    }

    impl PrimalHeuristic for Fixed {
        fn name(&self) -> &str {
            self.name
        }
        fn default_schedule(&self) -> HeurSchedule {
            self.schedule
        }
        fn run(&mut self, _ctx: &mut SolveCtx) -> Option<Vec<f64>> {
            None
        }
    }

    #[test]
    fn schedule_due_at() {
        let s = HeurSchedule { frequency: 4, depth_offset: 2, ..HeurSchedule::EVERY_DEPTH };
        assert!(!s.due_at(0));
        assert!(!s.due_at(1));
        assert!(s.due_at(2));
        assert!(!s.due_at(3));
        assert!(s.due_at(6));
        let root_only = HeurSchedule { frequency: 0, ..HeurSchedule::EVERY_DEPTH };
        assert!(root_only.due_at(0));
        assert!(!root_only.due_at(1));
    }

    #[test]
    fn priority_orders_entries() {
        let mut eng = HeurEngine::default();
        let mk = |name, priority| {
            Box::new(Fixed {
                name,
                schedule: HeurSchedule { priority, ..HeurSchedule::EVERY_DEPTH },
            })
        };
        eng.add(mk("low", -1));
        eng.add(mk("high", 10));
        eng.add(mk("mid", 0));
        let names: Vec<String> = eng.stats().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["high", "mid", "low"]);
        assert_eq!(eng.due_indices(0), vec![0, 1, 2]);
    }

    #[test]
    fn call_budget_retires_a_heuristic() {
        let mut eng = HeurEngine::default();
        eng.add(Box::new(Fixed {
            name: "capped",
            schedule: HeurSchedule { max_calls: 2, ..HeurSchedule::EVERY_DEPTH },
        }));
        assert_eq!(eng.due_indices(0), vec![0]);
        eng.entries[0].calls = 2;
        assert!(eng.due_indices(0).is_empty(), "exhausted call budget must retire the entry");
    }

    #[test]
    fn hits_and_best_obj_are_accounted() {
        let mut eng = HeurEngine::default();
        eng.add(Box::new(Fixed { name: "h", schedule: HeurSchedule::EVERY_DEPTH }));
        eng.record_hit(0, 5.0);
        eng.record_hit(0, 3.0);
        eng.record_hit(0, 4.0);
        let s = &eng.stats()[0];
        assert_eq!(s.hits, 3);
        assert_eq!(s.best_obj, Some(3.0));
    }
}
