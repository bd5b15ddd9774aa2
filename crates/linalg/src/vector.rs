//! Slice-level vector kernels (dot products, axpy, norms).
//!
//! These are the hot inner loops of the simplex pricing and the SDP
//! solver's iterations; they are written over plain slices so callers can use them
//! on `Vec<f64>`, matrix rows, or scratch buffers alike.

/// Dot product `xᵀy`. Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y.iter()).map(|(a, b)| a * b).sum()
}

/// `y ← y + alpha * x` (the BLAS `axpy`). Panics on length mismatch.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if alpha == 0.0 {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow.
pub fn norm2(x: &[f64]) -> f64 {
    let max = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if max == 0.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for v in x {
        let s = v / max;
        sum += s * s;
    }
    max * sum.sqrt()
}

/// Infinity norm `‖x‖∞`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Index of the entry with largest absolute value, or `None` for empty input.
pub fn iamax(x: &[f64]) -> Option<usize> {
    x.iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.abs().partial_cmp(&b.abs()).unwrap())
        .map(|(i, _)| i)
}

/// Sets every entry to zero without reallocating.
#[inline]
pub fn zero(x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn axpy_zero_alpha_is_noop() {
        let mut y = vec![1.0, 2.0];
        axpy(0.0, &[f64::NAN, f64::NAN], &mut y);
        assert_eq!(y, vec![1.0, 2.0]);
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn norm2_avoids_overflow() {
        let big = 1e200;
        let n = norm2(&[big, big]);
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-12);
    }

    #[test]
    fn iamax_picks_largest_abs() {
        assert_eq!(iamax(&[1.0, -9.0, 3.0]), Some(1));
        assert_eq!(iamax(&[]), None);
    }

    #[test]
    fn scale_and_zero() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
        zero(&mut x);
        assert_eq!(x, vec![0.0, 0.0]);
    }
}
