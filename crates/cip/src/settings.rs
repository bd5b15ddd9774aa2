//! Solver parameter settings and emphasis presets.
//!
//! UG's racing ramp-up (§2.2 of the paper) relies on running the same
//! solver under *different parameter settings and permutations of
//! variables* so that each racer explores a different tree. The racing
//! settings generators in `ugrs-glue` and `ugrs-misdp` vary the emphasis
//! preset (named by [`Emphasis::name`]), the permutation seed and, for
//! MISDPs, the relaxator switch. [`Settings`] holds only what a caller
//! chooses; what an emphasis decides is its [`Preset`], a constant table.
//! Parameters that nothing varies are constants of the solver.

/// Which rule picks the branching variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchingRule {
    /// Most fractional variable.
    MostFractional,
    /// Pseudocost product score (SCIP-style), falling back to most
    /// fractional while pseudocosts are uninitialized.
    Pseudocost,
}

/// Node selection strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeSelection {
    /// Best dual bound first (default).
    BestBound,
    /// Depth-first (plunging; finds incumbents early, uses little memory).
    DepthFirst,
}

/// Emphasis presets mirroring SCIP's `set emphasis` / `easycip` settings
/// referenced by the paper's Figure 1 discussion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Emphasis {
    #[default]
    Default,
    /// "easycip": light presolving/separation, cheap heuristics — the
    /// emphasis most often winning the racing on CLS instances.
    EasyCip,
    /// Aggressive heuristics, depth-first search.
    Feasibility,
    /// Aggressive separation, fewer heuristics.
    Optimality,
}

/// What one emphasis preset decides ([`Emphasis::preset`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Preset {
    /// The rule that picks the branching variable.
    pub branching: BranchingRule,
    /// The order open nodes are processed in.
    pub node_selection: NodeSelection,
    /// Presolve fixpoint rounds.
    pub presolve_rounds: usize,
    /// Maximum separation rounds at the root node.
    pub root_sepa_rounds: usize,
    /// Maximum separation rounds at non-root nodes.
    pub node_sepa_rounds: usize,
    /// Factor on every heuristic schedule's frequency; `None` runs each
    /// scheduled heuristic at every depth (`HeurSchedule::under`).
    pub heur_scale: Option<usize>,
}

impl Emphasis {
    /// Every preset, in the order generic racing cycles through them.
    pub const ALL: [Emphasis; 4] =
        [Emphasis::Default, Emphasis::EasyCip, Emphasis::Feasibility, Emphasis::Optimality];

    /// The preset's name in racing settings bundles.
    pub fn name(self) -> &'static str {
        match self {
            Emphasis::Default => "default",
            Emphasis::EasyCip => "easycip",
            Emphasis::Feasibility => "feas",
            Emphasis::Optimality => "opt",
        }
    }

    /// The preset [`Self::name`] gives `name`, if any.
    pub fn parse(name: &str) -> Option<Emphasis> {
        Emphasis::ALL.into_iter().find(|e| e.name() == name)
    }

    /// The table of presets: what each one changes from `Default`'s.
    pub const fn preset(self) -> Preset {
        let default = Preset {
            branching: BranchingRule::Pseudocost,
            node_selection: NodeSelection::BestBound,
            presolve_rounds: 5,
            root_sepa_rounds: 50,
            node_sepa_rounds: 5,
            heur_scale: Some(1),
        };
        match self {
            Emphasis::Default => default,
            Emphasis::EasyCip => Preset {
                presolve_rounds: 1,
                root_sepa_rounds: 10,
                node_sepa_rounds: 1,
                heur_scale: Some(2),
                ..default
            },
            Emphasis::Feasibility => {
                Preset { node_selection: NodeSelection::DepthFirst, heur_scale: None, ..default }
            }
            Emphasis::Optimality => Preset {
                root_sepa_rounds: 100,
                node_sepa_rounds: 10,
                heur_scale: Some(5),
                ..default
            },
        }
    }
}

/// The parameters a caller of the [`crate::Solver`] chooses.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Settings {
    pub emphasis: Emphasis,
    /// Node limit (u64::MAX = unlimited).
    pub node_limit: u64,
    /// Wall-clock limit in seconds (f64::INFINITY = unlimited).
    pub time_limit: f64,
    /// Seed for the variable permutation applied to tie-breaking in
    /// pricing/branching — the racing diversification device of §2.2.
    pub permutation_seed: u64,
    /// Use a registered relaxator instead of the LP relaxation
    /// (SCIP-SDP's "SDP settings"); ignored when no relaxator is present.
    pub use_relaxator: bool,
    /// LP iteration limit handed to the simplex per solve.
    pub lp_iter_limit: usize,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            emphasis: Emphasis::Default,
            node_limit: u64::MAX,
            time_limit: f64::INFINITY,
            permutation_seed: 0,
            use_relaxator: false,
            lp_iter_limit: 5_000,
        }
    }
}

impl Settings {
    /// The settings under emphasis preset `e`.
    pub fn with_emphasis(mut self, e: Emphasis) -> Self {
        self.emphasis = e;
        self
    }

    /// Seeded variant for racing diversification.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.permutation_seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heurengine::HeurSchedule;

    #[test]
    fn emphasis_presets_change_knobs() {
        let [d, e, f, o] = Emphasis::ALL.map(Emphasis::preset);
        assert!(e.root_sepa_rounds < d.root_sepa_rounds);
        assert!(e.presolve_rounds < d.presolve_rounds);
        assert!(o.node_sepa_rounds > d.node_sepa_rounds);
        assert_eq!(d.node_selection, NodeSelection::BestBound);
        assert_eq!(f.node_selection, NodeSelection::DepthFirst);
        // The heuristic schedules: as registered, ×2, every depth, ×5; a
        // root-only schedule stays root-only.
        let root_only = HeurSchedule { frequency: 0, ..HeurSchedule::EVERY_DEPTH };
        let freqs = Emphasis::ALL
            .map(|e| (HeurSchedule::EVERY_TENTH.under(e).frequency, root_only.under(e).frequency));
        assert_eq!(freqs, [(10, 0), (20, 0), (1, 0), (50, 0)]);
        let e = Emphasis::EasyCip;
        assert_eq!(Settings::default().with_emphasis(e).emphasis, e);
    }

    #[test]
    fn emphasis_names_round_trip() {
        for e in Emphasis::ALL {
            assert_eq!(Emphasis::parse(e.name()), Some(e));
        }
        assert_eq!(Emphasis::parse("bogus"), None);
    }

    #[test]
    fn seeding() {
        let s = Settings::default().with_seed(42);
        assert_eq!(s.permutation_seed, 42);
    }
}
