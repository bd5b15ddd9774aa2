//! Solver parameter settings and emphasis presets.
//!
//! UG's racing ramp-up (§2.2 of the paper) relies on running the same
//! solver under *different parameter settings and permutations of
//! variables* so that each racer explores a different tree. The racing
//! settings generators in `ugrs-glue` and `ugrs-misdp` vary the emphasis
//! preset (named by [`Emphasis::name`]), which sets the separation,
//! heuristic, presolve and node-selection fields, the permutation seed
//! and, for MISDPs, the relaxator switch. Parameters that nothing varies
//! are constants of the solver, not settings.

/// Which rule picks the branching variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BranchingRule {
    /// Most fractional variable.
    MostFractional,
    /// Pseudocost product score (SCIP-style), falling back to most
    /// fractional while pseudocosts are uninitialized.
    Pseudocost,
}

/// Node selection strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NodeSelection {
    /// Best dual bound first (default).
    BestBound,
    /// Depth-first (plunging; finds incumbents early, uses little memory).
    DepthFirst,
}

/// Emphasis presets mirroring SCIP's `set emphasis` / `easycip` settings
/// referenced by the paper's Figure 1 discussion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Emphasis {
    Default,
    /// "easycip": light presolving/separation, cheap heuristics — the
    /// emphasis most often winning the racing on CLS instances.
    EasyCip,
    /// Aggressive heuristics.
    Feasibility,
    /// Aggressive separation + propagation, fewer heuristics.
    Optimality,
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
}

/// All tunable parameters of the [`crate::Solver`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Settings {
    pub emphasis: Emphasis,
    pub branching: BranchingRule,
    pub node_selection: NodeSelection,
    /// Maximum separation rounds at the root node.
    pub root_sepa_rounds: usize,
    /// Maximum separation rounds at non-root nodes.
    pub node_sepa_rounds: usize,
    /// Run primal heuristics at nodes whose depth is a multiple of this
    /// (0 disables heuristics except at the root).
    pub heur_frequency: usize,
    /// Presolve fixpoint rounds (0 disables presolving).
    pub presolve_rounds: usize,
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
            branching: BranchingRule::Pseudocost,
            node_selection: NodeSelection::BestBound,
            root_sepa_rounds: 50,
            node_sepa_rounds: 5,
            heur_frequency: 10,
            presolve_rounds: 5,
            node_limit: u64::MAX,
            time_limit: f64::INFINITY,
            permutation_seed: 0,
            use_relaxator: false,
            lp_iter_limit: 5_000,
        }
    }
}

impl Settings {
    /// Applies an emphasis preset to the dependent knobs, returning the
    /// adjusted settings (the explicit fields above keep their values
    /// unless the preset overrides them).
    pub fn with_emphasis(mut self, e: Emphasis) -> Self {
        self.emphasis = e;
        match e {
            Emphasis::Default => {}
            Emphasis::EasyCip => {
                self.presolve_rounds = 1;
                self.root_sepa_rounds = 10;
                self.node_sepa_rounds = 1;
                self.heur_frequency = 20;
            }
            Emphasis::Feasibility => {
                self.heur_frequency = 1;
                self.node_selection = NodeSelection::DepthFirst;
            }
            Emphasis::Optimality => {
                self.root_sepa_rounds = 100;
                self.node_sepa_rounds = 10;
                self.heur_frequency = 50;
            }
        }
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

    #[test]
    fn emphasis_presets_change_knobs() {
        let d = Settings::default();
        let e = Settings::default().with_emphasis(Emphasis::EasyCip);
        assert!(e.root_sepa_rounds < d.root_sepa_rounds);
        assert_eq!(e.emphasis, Emphasis::EasyCip);
        let f = Settings::default().with_emphasis(Emphasis::Feasibility);
        assert_eq!(f.node_selection, NodeSelection::DepthFirst);
        assert_eq!(f.heur_frequency, 1);
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
