//! The racing settings of `ug [SCIP-SDP, *]`.
//!
//! §3.2: "the solution process in ug[SCIP-SDP,*] starts by creating a
//! number of SCIP-SDP solver instances with half of them using LP-based
//! settings and the rest using SDP-settings, with other parameter
//! settings also being changed". §4.2 / Figure 1: "each odd number
//! refers to an SDP-based setting while all even numbers belong to
//! LP-based settings" (1-based), with emphasis variations such as
//! `easycip`.

use ugrs_cip::{Emphasis, Settings};
use ugrs_core::SolverSettings;

/// Which relaxation backend a solver instance uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Approach {
    /// Nonlinear branch-and-bound on SDP relaxations.
    Sdp,
    /// LP relaxation + eigenvector cutting planes.
    Lp,
}

/// Builds `n` racing settings: odd 1-based indices are SDP-based, even
/// are LP-based; the emphasis cycles and the permutation seed varies.
pub fn racing_settings(n: usize) -> Vec<SolverSettings> {
    (0..n)
        .map(|i| {
            let one_based = i + 1;
            let approach = if one_based % 2 == 1 { "sdp" } else { "lp" };
            let ename = Emphasis::ALL[(i / 2) % Emphasis::ALL.len()].name();
            SolverSettings {
                index: i,
                name: format!("{approach}-{ename}-{i}"),
                params: serde_json::json!({
                    "approach": approach,
                    "emphasis": ename,
                    "seed": i as u64,
                }),
            }
        })
        .collect()
}

/// Decodes a settings bundle into the backend choice plus CIP settings.
pub fn decode_settings(s: &SolverSettings) -> (Approach, Settings) {
    let approach = match s.params.get("approach").and_then(|v| v.as_str()) {
        Some("lp") => Approach::Lp,
        _ => Approach::Sdp,
    };
    let emphasis = s.params.get("emphasis").and_then(|v| v.as_str());
    let emphasis = emphasis.and_then(Emphasis::parse).unwrap_or(Emphasis::Default);
    let seed = s.params.get("seed").and_then(|v| v.as_u64()).unwrap_or(0);
    let mut settings = Settings::default().with_emphasis(emphasis).with_seed(seed);
    settings.use_relaxator = approach == Approach::Sdp;
    (approach, settings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_indices_are_sdp_even_are_lp() {
        let set = racing_settings(8);
        assert_eq!(set.len(), 8);
        for (i, s) in set.iter().enumerate() {
            let (approach, cip) = decode_settings(s);
            if (i + 1) % 2 == 1 {
                assert_eq!(approach, Approach::Sdp, "index {i}");
                assert!(cip.use_relaxator);
            } else {
                assert_eq!(approach, Approach::Lp, "index {i}");
                assert!(!cip.use_relaxator);
            }
            assert_eq!(cip.permutation_seed, i as u64);
        }
    }

    #[test]
    fn emphasis_cycles() {
        let set = racing_settings(10);
        let (_, s0) = decode_settings(&set[0]);
        let (_, s2) = decode_settings(&set[2]);
        assert_eq!(s0.emphasis, Emphasis::Default);
        assert_eq!(s2.emphasis, Emphasis::EasyCip);
        let names: Vec<_> = set.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names[..4], ["sdp-default-0", "lp-default-1", "sdp-easycip-2", "lp-easycip-3"]);
        assert_eq!(names[4..8], ["sdp-feas-4", "lp-feas-5", "sdp-opt-6", "lp-opt-7"]);
    }

    #[test]
    fn default_bundle_decodes_to_sdp_default() {
        let (a, s) = decode_settings(&SolverSettings::default_bundle());
        assert_eq!(a, Approach::Sdp);
        assert_eq!(s.emphasis, Emphasis::Default);
    }
}
