//! Basis factorization: sparse LU plus a sparse eta file (product-form
//! updates).
//!
//! The basis inverse is `B⁻¹ = Eₖ⁻¹ ⋯ E₁⁻¹ U⁻¹ L⁻¹`, where each eta matrix
//! `Eᵢ` is the identity with one column replaced by the pivot column of
//! update `i`. Simplex bases are mostly slack columns `−e_r` and short
//! structural columns, so the factorization first pivots every column that
//! is (or becomes) a singleton — no arithmetic, no fill — and runs a
//! left-looking LU with partial pivoting on the remaining nucleus only.
//! It is rebuilt every [`BasisFactor::REFACTOR_INTERVAL`] updates (or when
//! an update pivot is too small to be trusted).
//!
//! `B` maps basis *positions* (which basic column sits where) to *rows*,
//! so FTRAN takes a row-indexed vector to a position-indexed one and BTRAN
//! the other way round; both skip zeros and work in the caller's buffers.

use ugrs_linalg::Matrix;

/// A sparse column of the constraint matrix: `(row, value)` pairs.
pub type SparseCol = [(u32, f64)];

/// Smallest pivot magnitude the LU factorization accepts.
const LU_PIVOT_TOL: f64 = 1e-11;
/// Smallest pivot magnitude an eta update accepts.
const ETA_PIVOT_TOL: f64 = 1e-10;

/// A sequence of sparse vectors sharing one index/value arena. Each
/// vector has a pivot — an index and a value — kept apart from its
/// entries.
#[derive(Default)]
struct SparseVecs {
    end: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f64>,
    pivot: Vec<(usize, f64)>,
}

impl SparseVecs {
    fn clear(&mut self) {
        self.end.clear();
        self.idx.clear();
        self.val.clear();
        self.pivot.clear();
    }

    /// Number of closed vectors.
    fn len(&self) -> usize {
        self.end.len()
    }

    /// Appends an entry to the vector under construction.
    fn push(&mut self, i: usize, v: f64) {
        self.idx.push(i as u32);
        self.val.push(v);
    }

    /// Ends the vector under construction and gives it its pivot.
    fn close(&mut self, pivot_idx: usize, pivot_val: f64) {
        self.end.push(self.idx.len());
        self.pivot.push((pivot_idx, pivot_val));
    }

    fn entries(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = k.checked_sub(1).map_or(0, |p| self.end[p])..self.end[k];
        self.idx[range.clone()].iter().map(|&i| i as usize).zip(self.val[range].iter().copied())
    }

    /// `Σ vᵢ·x[i]` over the entries of vector `k`.
    fn dot(&self, k: usize, x: &[f64]) -> f64 {
        self.entries(k).map(|(i, v)| v * x[i]).sum()
    }

    /// `x[i] −= t·vᵢ` over the entries of vector `k`.
    fn axpy(&self, k: usize, t: f64, x: &mut [f64]) {
        for (i, v) in self.entries(k) {
            x[i] -= v * t;
        }
    }
}

/// Errors surfaced by the basis layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BasisError {
    /// The candidate basis matrix was singular.
    Singular,
    /// An eta pivot was numerically unusable; the caller should
    /// refactorize and retry the pivot.
    UnstablePivot,
}

/// Maintains an invertible representation of the current basis matrix.
#[derive(Default)]
pub struct BasisFactor {
    m: usize,
    factorized: bool,
    /// Vector `k` of `u` is the column of `U` eliminated in step `k`: the
    /// pivot (row, value) and its entries in rows of earlier steps; it is
    /// the column of basis position `upos[k]`.
    u: SparseVecs,
    upos: Vec<u32>,
    /// Column etas of `L`, one per nucleus column in elimination order:
    /// the multipliers eliminated with the vector's pivot row (its pivot
    /// value is unused).
    l: SparseVecs,
    /// Eta file: the pivot column of each update, position-indexed, with
    /// the replaced position and its entry as the pivot.
    eta: SparseVecs,
}

impl BasisFactor {
    /// Refactorize after this many eta updates.
    pub const REFACTOR_INTERVAL: usize = 60;

    /// New, unfactorized container for bases of order `m`.
    pub fn new(m: usize) -> Self {
        BasisFactor { m, ..Default::default() }
    }

    /// True if a refactorization is due (interval reached or never
    /// factorized).
    pub fn needs_refactor(&self) -> bool {
        !self.factorized || self.eta.len() >= Self::REFACTOR_INTERVAL
    }

    /// Factorizes a dense basis matrix. Adapter for callers that hold the
    /// basis as a [`Matrix`]; the simplex uses [`Self::refactor_cols`].
    pub fn refactor(&mut self, b: &Matrix) -> Result<(), BasisError> {
        debug_assert_eq!(b.rows(), self.m);
        let sparse = |c: usize| {
            let nz = (0..self.m).filter(move |&r| b[(r, c)] != 0.0);
            nz.map(|r| (r as u32, b[(r, c)])).collect::<Vec<_>>()
        };
        let cols: Vec<_> = (0..self.m).map(sparse).collect();
        self.refactor_cols(&cols.iter().map(Vec::as_slice).collect::<Vec<_>>())
    }

    /// Factorizes the basis whose position `p` holds the sparse column
    /// `cols[p]` (each row at most once), discarding the eta file.
    pub fn refactor_cols(&mut self, cols: &[&SparseCol]) -> Result<(), BasisError> {
        let m = self.m;
        debug_assert_eq!(cols.len(), m);
        self.reset(m);
        // Row-wise pattern: the positions whose column has an entry in row r.
        let mut rstart = vec![0usize; m + 1];
        for &(r, _) in cols.iter().flat_map(|c| c.iter()) {
            rstart[r as usize + 1] += 1;
        }
        for r in 0..m {
            rstart[r + 1] += rstart[r];
        }
        let mut next = rstart.clone();
        let mut rpos = vec![0usize; rstart[m]];
        for (c, col) in cols.iter().enumerate() {
            for &(r, _) in col.iter() {
                rpos[next[r as usize]] = c;
                next[r as usize] += 1;
            }
        }
        // active[c]: entries of column c in rows not pivoted yet.
        let mut active: Vec<usize> = cols.iter().map(|c| c.len()).collect();
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; m];

        // Singleton columns — every slack, then whatever the removal of
        // their rows turns into a singleton — are columns of U as they
        // stand: no arithmetic, no fill.
        let mut queue: Vec<usize> = (0..m).filter(|&c| active[c] == 1).collect();
        while let Some(c) = queue.pop() {
            if col_done[c] || active[c] != 1 {
                continue;
            }
            let &(r, v) = cols[c]
                .iter()
                .find(|e| !row_done[e.0 as usize])
                .expect("one entry of the column is in an active row");
            let r = r as usize;
            if v.abs() < LU_PIVOT_TOL {
                continue; // left to the nucleus, which reports the singularity
            }
            for &(i, a) in cols[c].iter().filter(|e| e.0 as usize != r) {
                self.u.push(i as usize, a);
            }
            self.u.close(r, v);
            self.upos.push(c as u32);
            row_done[r] = true;
            col_done[c] = true;
            for &c2 in &rpos[rstart[r]..rstart[r + 1]] {
                active[c2] -= 1;
                if active[c2] == 1 {
                    queue.push(c2);
                }
            }
        }

        // Nucleus: left-looking LU with partial pivoting, sparsest
        // columns first.
        let mut nucleus: Vec<usize> = (0..m).filter(|&c| !col_done[c]).collect();
        nucleus.sort_by_key(|&c| active[c]);
        let mut x = vec![0.0; m];
        // Rows of x that may be non-zero; a row can be listed twice, which
        // the loops below tolerate.
        let mut pattern: Vec<usize> = Vec::new();
        for c in nucleus {
            pattern.clear();
            for &(r, v) in cols[c].iter() {
                x[r as usize] = v;
                pattern.push(r as usize);
            }
            for k in 0..self.l.len() {
                let t = x[self.l.pivot[k].0];
                if t != 0.0 {
                    for (i, lv) in self.l.entries(k) {
                        if x[i] == 0.0 {
                            pattern.push(i);
                        }
                        x[i] -= lv * t;
                    }
                }
            }
            let (mut p, mut best) = (usize::MAX, 0.0);
            for &r in pattern.iter().filter(|&&r| !row_done[r]) {
                if x[r].abs() > best {
                    (p, best) = (r, x[r].abs());
                }
            }
            if best < LU_PIVOT_TOL {
                return Err(BasisError::Singular);
            }
            let pivot = x[p];
            for &r in &pattern {
                let v = std::mem::take(&mut x[r]);
                if v == 0.0 || r == p {
                    continue;
                }
                if row_done[r] {
                    self.u.push(r, v);
                } else {
                    self.l.push(r, v / pivot);
                }
            }
            self.u.close(p, pivot);
            self.upos.push(c as u32);
            self.l.close(p, 1.0);
            row_done[p] = true;
        }
        self.factorized = true;
        Ok(())
    }

    /// FTRAN: `out ← B⁻¹ rhs`. `rhs` is row-indexed and used as work
    /// space; `out` is position-indexed.
    pub fn ftran_into(&self, rhs: &mut [f64], out: &mut [f64]) {
        assert!(self.factorized, "basis not factorized");
        for k in 0..self.l.len() {
            let t = rhs[self.l.pivot[k].0];
            if t != 0.0 {
                self.l.axpy(k, t, rhs);
            }
        }
        for k in (0..self.m).rev() {
            let (row, pivot) = self.u.pivot[k];
            let z = rhs[row] / pivot;
            out[self.upos[k] as usize] = z;
            if z != 0.0 {
                self.u.axpy(k, z, rhs);
            }
        }
        for k in 0..self.eta.len() {
            let (pos, pivot) = self.eta.pivot[k];
            let z = out[pos] / pivot;
            if z != 0.0 {
                self.eta.axpy(k, z, out);
            }
            out[pos] = z;
        }
    }

    /// BTRAN: `out ← B⁻ᵀ rhs` (the `y` with `yᵀB = rhsᵀ`). `rhs` is
    /// position-indexed and used as work space; `out` is row-indexed.
    pub fn btran_into(&self, rhs: &mut [f64], out: &mut [f64]) {
        assert!(self.factorized, "basis not factorized");
        for k in (0..self.eta.len()).rev() {
            // Solve Eᵀu = c: u_pos = (c_pos − Σ_{i≠pos} dᵢcᵢ) / d_pos.
            let (pos, pivot) = self.eta.pivot[k];
            rhs[pos] = (rhs[pos] - self.eta.dot(k, rhs)) / pivot;
        }
        for k in 0..self.m {
            let (row, pivot) = self.u.pivot[k];
            out[row] = (rhs[self.upos[k] as usize] - self.u.dot(k, out)) / pivot;
        }
        for k in (0..self.l.len()).rev() {
            out[self.l.pivot[k].0] -= self.l.dot(k, out);
        }
    }

    /// Allocating FTRAN: returns `B⁻¹ v`.
    pub fn ftran(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.m];
        self.ftran_into(&mut v.to_vec(), &mut out);
        out
    }

    /// Allocating BTRAN: returns `B⁻ᵀ v`.
    pub fn btran(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.m];
        self.btran_into(&mut v.to_vec(), &mut out);
        out
    }

    /// Records the pivot that replaces basis position `pos`; `pivot_col`
    /// must be `B⁻¹ a_entering` w.r.t. the *current* representation.
    /// Fails with [`BasisError::UnstablePivot`] when the pivot element is
    /// too small, in which case the caller should refactorize.
    pub fn update(&mut self, pos: usize, pivot_col: &[f64]) -> Result<(), BasisError> {
        let piv = pivot_col[pos];
        if piv.abs() < ETA_PIVOT_TOL || !piv.is_finite() {
            return Err(BasisError::UnstablePivot);
        }
        for (i, &d) in pivot_col.iter().enumerate() {
            if i != pos && d != 0.0 {
                self.eta.push(i, d);
            }
        }
        self.eta.close(pos, piv);
        Ok(())
    }

    /// Drops all state (used when the row dimension changes).
    pub fn reset(&mut self, m: usize) {
        self.m = m;
        self.factorized = false;
        self.u.clear();
        self.upos.clear();
        self.l.clear();
        self.eta.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: usize, v: Vec<f64>) -> Matrix {
        Matrix::from_rows(rows, rows, v).unwrap()
    }

    #[test]
    fn ftran_btran_without_updates() {
        let b = dense(2, vec![2.0, 0.0, 0.0, 4.0]);
        let mut f = BasisFactor::new(2);
        f.refactor(&b).unwrap();
        assert_eq!(f.ftran(&[2.0, 4.0]), vec![1.0, 1.0]);
        assert_eq!(f.btran(&[2.0, 4.0]), vec![1.0, 1.0]);
    }

    #[test]
    fn update_matches_explicit_refactor() {
        // Start with B = I, replace column 1 with a = [1, 3]ᵀ.
        let mut f = BasisFactor::new(2);
        f.refactor(&Matrix::identity(2)).unwrap();
        let a = vec![1.0, 3.0];
        let pivot_col = f.ftran(&a); // = a since B = I
        f.update(1, &pivot_col).unwrap();

        let bnew = dense(2, vec![1.0, 1.0, 0.0, 3.0]);
        let mut fresh = BasisFactor::new(2);
        fresh.refactor(&bnew).unwrap();

        let v = vec![5.0, -2.0];
        let x1 = f.ftran(&v);
        let x2 = fresh.ftran(&v);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-12);
        }
        let y1 = f.btran(&v);
        let y2 = fresh.btran(&v);
        for (p, q) in y1.iter().zip(&y2) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn chained_updates_stay_consistent() {
        let mut f = BasisFactor::new(3);
        f.refactor(&Matrix::identity(3)).unwrap();
        // Three successive column replacements; track the explicit basis.
        let mut b = Matrix::identity(3);
        let cols = [
            (0usize, vec![2.0, 1.0, 0.0]),
            (2usize, vec![0.0, 1.0, 3.0]),
            (1usize, vec![1.0, 1.0, 1.0]),
        ];
        for (pos, a) in cols.iter() {
            let pc = f.ftran(a);
            f.update(*pos, &pc).unwrap();
            for i in 0..3 {
                b[(i, *pos)] = a[i];
            }
        }
        let mut fresh = BasisFactor::new(3);
        fresh.refactor(&b).unwrap();
        let v = vec![1.0, 2.0, 3.0];
        let (x1, x2) = (f.ftran(&v), fresh.ftran(&v));
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-10);
        }
        let (y1, y2) = (f.btran(&v), fresh.btran(&v));
        for (p, q) in y1.iter().zip(&y2) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_basis_rejected() {
        let b = dense(2, vec![1.0, 2.0, 2.0, 4.0]);
        let mut f = BasisFactor::new(2);
        assert_eq!(f.refactor(&b), Err(BasisError::Singular));
    }

    #[test]
    fn tiny_pivot_rejected() {
        let mut f = BasisFactor::new(2);
        f.refactor(&Matrix::identity(2)).unwrap();
        assert_eq!(f.update(0, &[1e-13, 1.0]), Err(BasisError::UnstablePivot));
    }

    #[test]
    fn refactor_interval_flag() {
        let mut f = BasisFactor::new(1);
        assert!(f.needs_refactor());
        f.refactor(&Matrix::identity(1)).unwrap();
        assert!(!f.needs_refactor());
        for _ in 0..BasisFactor::REFACTOR_INTERVAL {
            f.update(0, &[1.0]).unwrap();
        }
        assert!(f.needs_refactor());
    }
}
