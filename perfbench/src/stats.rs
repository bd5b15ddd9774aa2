//! Order statistics and aggregates of the reported metrics.

pub use ugrs_bench::shifted_geomean;

/// Shift of `solve_sgm_s`, seconds (Table 4 uses 10 s on instances of
/// minutes; the items here take tenths of a second).
pub const SGM_SHIFT_S: f64 = 0.1;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for even counts); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest rank of percentile `p` among `n` samples: ⌈p·n/100⌉, at
/// least 1 (computed so that 90 % of 100 is 90, not 90.000…01 → 91).
fn nearest_rank(p: f64, n: usize) -> usize {
    (((p * n as f64) / 100.0 - 1e-9).ceil().max(1.0) as usize).min(n)
}

/// Nearest-rank percentile: the smallest value with at least `p` % of
/// the samples at or below it. NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    v[nearest_rank(p, v.len()) - 1]
}

/// Percentile `p` as the mean of the samples whose rank lies within
/// ±`window` percentage points of it (at least the nearest-rank sample
/// itself). A single order statistic of a few dozen distinct
/// items jumps whenever two neighbours swap rank; the window mean moves
/// only as far as the samples themselves. NaN when empty.
pub fn windowed_percentile(values: &[f64], p: f64, window: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let centre = nearest_rank(p, v.len());
    // Ranks above the window's lower edge, up to its upper edge.
    let below = ((p - window).max(0.0) * v.len() as f64 / 100.0 - 1e-9).ceil().max(0.0);
    let lo = (below as usize + 1).min(centre);
    let hi = nearest_rank((p + window).min(100.0), v.len()).max(centre);
    let window = &v[lo - 1..hi];
    window.iter().sum::<f64>() / window.len() as f64
}

/// The highest whole percentile that still has at least ten samples
/// beyond it; `None` below twenty samples, where even the median has
/// fewer than ten on one side.
pub fn highest_percentile_with_ten_beyond(n: usize) -> Option<u32> {
    (50..100u32).rev().find(|&p| n >= 20 && n - nearest_rank(p as f64, n) >= 10)
}

/// (max − min) / median — the spread `ugrs-bench noise` reports.
pub fn range_over_median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) => (hi - lo) / median(&v).abs().max(f64::MIN_POSITIVE),
        _ => f64::NAN,
    }
}

/// Distance between the first and third quartile over the median, the
/// spread the driver computes (Python's `statistics.quantiles(n=4)`,
/// exclusive method).
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return f64::NAN;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (q(3) - q(1)) / median(&v).abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // 0.9 * 100 is 90.000…01 in floating point; the rank is still 90.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 55.0), 55.0);
    }

    #[test]
    fn windowed_percentile_averages_the_neighbouring_ranks() {
        // n = 100: p50 averages ranks 46..=55, p90 ranks 86..=95.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(windowed_percentile(&v, 50.0, 5.0), 50.5);
        assert_eq!(windowed_percentile(&v, 90.0, 5.0), 90.5);
        // ±10 points at p90 reach the slowest sample: ranks 81..=100.
        assert_eq!(windowed_percentile(&v, 90.0, 10.0), 90.5);
        assert_eq!(windowed_percentile(&v, 50.0, 10.0), 50.5);
        // 28 items, ±10 points: p50 averages ranks 13..=17.
        let items: Vec<f64> = (1..=28).map(f64::from).collect();
        assert_eq!(windowed_percentile(&items, 50.0, 10.0), 15.0);
        // Too few samples for a window: the nearest-rank sample alone.
        assert_eq!(windowed_percentile(&[3.0, 1.0, 2.0], 50.0, 5.0), 2.0);
        assert_eq!(windowed_percentile(&[7.0], 90.0, 5.0), 7.0);
        assert!(windowed_percentile(&[], 50.0, 5.0).is_nan());
        // Two neighbours swapping rank do not move it.
        let mut w = v.clone();
        w.swap(49, 50);
        assert_eq!(windowed_percentile(&w, 50.0, 5.0), 50.5);
    }

    #[test]
    fn ten_beyond_rule() {
        // n = 100: p90 leaves exactly ten beyond, p91 only nine.
        assert_eq!(highest_percentile_with_ten_beyond(100), Some(90));
        // n = 125 (25 items x 5 passes): rank(92 %) = 115 leaves ten.
        assert_eq!(highest_percentile_with_ten_beyond(125), Some(92));
        assert_eq!(highest_percentile_with_ten_beyond(20), Some(50));
        assert_eq!(highest_percentile_with_ten_beyond(19), None);
        assert_eq!(highest_percentile_with_ten_beyond(1000), Some(99));
    }

    #[test]
    fn sgm_uses_the_shift() {
        // sqrt((0.1+0.1)(0.7+0.1)) − 0.1 = 0.3.
        let g = shifted_geomean(&[0.1, 0.7], SGM_SHIFT_S);
        assert!((g - 0.3).abs() < 1e-12, "{g}");
        assert!(shifted_geomean(&[0.1, 0.7], 0.0) < g);
    }

    #[test]
    fn spreads() {
        assert!((range_over_median(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
        // statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
    }
}
