//! Shared helpers for the table/figure harness binaries.
//!
//! Every table and figure of the paper's evaluation (§4) has a binary in
//! `src/bin/` that regenerates it on generated PUC-like / CBLIB-like
//! instances:
//!
//! | paper artifact | binary | what it shows |
//! |----------------|--------|---------------|
//! | Table 1 | `table1` | shared-memory ug\[SteinerJack\] scaling on five PUC-like instances |
//! | Table 2 | `table2` | checkpoint/restart chain on a bip-like open instance |
//! | Table 3 | `table3` | racing re-runs with injected incumbents on an hc-like instance |
//! | Table 4 | `table4` | SCIP-SDP vs ug[SCIP-SDP] with 1..8 threads over TTD/CLS/MkP |
//! | Figure 1 | `figure1` | racing-winner histogram across the settings list |
//! | Table 1, distributed | `table1p` | Table 1's instances under ThreadComm vs ProcessComm, side by side |

/// Shifted geometric mean with shift `s` — the aggregation used by
/// Table 4 ("shifted geometric mean with shift s = 10").
pub fn shifted_geomean(values: &[f64], shift: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| (v + shift).max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp() - shift
}

/// Formats seconds like the paper's tables (one decimal under 100s).
pub fn fmt_time(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else {
        format!("{t:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifted_geomean_matches_hand_computation() {
        // sqrt((1+10)(9+10)) − 10 = sqrt(209) − 10 ≈ 4.4568.
        let g = shifted_geomean(&[1.0, 9.0], 10.0);
        assert!((g - (209.0f64.sqrt() - 10.0)).abs() < 1e-12);
        // Without shift it reduces to the plain geometric mean.
        let g0 = shifted_geomean(&[4.0, 9.0], 0.0);
        assert!((g0 - 6.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_geomean_empty_is_zero() {
        assert_eq!(shifted_geomean(&[], 10.0), 0.0);
    }

    #[test]
    fn fmt_time_switches_precision() {
        assert_eq!(fmt_time(3.2468), "3.25");
        assert_eq!(fmt_time(123.4), "123");
    }
}
