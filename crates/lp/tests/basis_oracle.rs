//! Oracle tests for the sparse basis kernel: `BasisFactor` (singleton
//! pivoting + left-looking LU + sparse eta file) against the dense
//! `linalg::LuFactor` of the same matrix, on FTRAN and BTRAN, freshly
//! factorized and after chains of eta updates.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugrs_linalg::{LuFactor, Matrix};
use ugrs_lp::basis::{BasisError, BasisFactor};

type Cols = Vec<Vec<(u32, f64)>>;

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// A few random entries per column.
    Random,
    /// What simplex bases look like: ~70 % slack columns `−e_r`, the rest
    /// short columns of ±1 around one larger entry.
    MostlySlack,
    /// `Random` with columns scaled over twelve and rows over six orders
    /// of magnitude.
    BadlyScaled,
}

const SHAPES: [Shape; 3] = [Shape::Random, Shape::MostlySlack, Shape::BadlyScaled];

fn sign(rng: &mut SmallRng) -> f64 {
    if rng.gen_bool(0.5) {
        1.0
    } else {
        -1.0
    }
}

/// Generator of basis columns of one shape, with the row scales every
/// column of a badly scaled basis shares.
struct ColumnGen {
    shape: Shape,
    row_scale: Vec<f64>,
}

impl ColumnGen {
    fn new(shape: Shape, m: usize, rng: &mut SmallRng) -> Self {
        let scaled = matches!(shape, Shape::BadlyScaled);
        let row_scale =
            (0..m).map(|_| if scaled { 10f64.powf(rng.gen_range(-3.0..3.0)) } else { 1.0 });
        ColumnGen { shape, row_scale: row_scale.collect() }
    }

    /// A column whose entry in row `home` strictly dominates its other
    /// entries (before scaling).
    fn column(&self, home: usize, rng: &mut SmallRng) -> Vec<(u32, f64)> {
        let m = self.row_scale.len();
        let unit = matches!(self.shape, Shape::MostlySlack);
        if unit && rng.gen_bool(0.7) {
            return vec![(home as u32, -1.0)];
        }
        let mut col: Vec<(u32, f64)> = Vec::new();
        for _ in 0..rng.gen_range(0..=4) {
            let r = rng.gen_range(0..m) as u32;
            if r as usize != home && col.iter().all(|e| e.0 != r) {
                col.push((r, sign(rng) * if unit { 1.0 } else { rng.gen_range(0.1..1.0) }));
            }
        }
        let others: f64 = col.iter().map(|e| e.1.abs()).sum();
        col.push((home as u32, sign(rng) * f64::ceil(others + rng.gen_range(0.5..2.0))));
        if let Shape::BadlyScaled = self.shape {
            let col_scale = 10f64.powf(rng.gen_range(-6.0..6.0));
            for e in col.iter_mut() {
                e.1 *= col_scale * self.row_scale[e.0 as usize];
            }
        }
        col
    }

    /// A nonsingular basis: column `c` is dominant in row `home[c]` of a
    /// random permutation, which keeps the matrix comfortably conditioned.
    fn basis(&self, rng: &mut SmallRng) -> Cols {
        let mut home: Vec<usize> = (0..self.row_scale.len()).collect();
        for i in (1..home.len()).rev() {
            home.swap(i, rng.gen_range(0..=i));
        }
        home.into_iter().map(|h| self.column(h, rng)).collect()
    }
}

fn dense(cols: &Cols) -> Matrix {
    let m = cols.len();
    let mut b = Matrix::zeros(m, m);
    for (c, col) in cols.iter().enumerate() {
        for &(r, v) in col {
            b[(r as usize, c)] = v;
        }
    }
    b
}

fn refactor(f: &mut BasisFactor, cols: &Cols) -> Result<(), BasisError> {
    f.refactor_cols(&cols.iter().map(Vec::as_slice).collect::<Vec<_>>())
}

fn random_vec(rng: &mut SmallRng, m: usize) -> Vec<f64> {
    (0..m).map(|_| if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(-5.0..5.0) }).collect()
}

/// `got ≡ want` to 1e-9 of the vector's scale.
fn assert_close(got: &[f64], want: &[f64], what: &str) -> Result<(), TestCaseError> {
    let scale = 1.0 + want.iter().fold(0.0f64, |s, v| s.max(v.abs()));
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!((g - w).abs() <= 1e-9 * scale, "{what}[{i}]: {g} vs {w} (scale {scale})");
    }
    Ok(())
}

/// FTRAN and BTRAN of `f` against the dense LU of `cols`.
fn assert_matches_dense(
    f: &BasisFactor,
    cols: &Cols,
    rng: &mut SmallRng,
) -> Result<(), TestCaseError> {
    let lu = LuFactor::new(&dense(cols)).expect("generated bases are nonsingular");
    for _ in 0..3 {
        let v = random_vec(rng, cols.len());
        assert_close(&f.ftran(&v), &lu.solve(&v).unwrap(), "ftran")?;
        assert_close(&f.btran(&v), &lu.solve_transposed(&v).unwrap(), "btran")?;
    }
    Ok(())
}

/// Replaces up to `updates` basis columns the way the simplex does —
/// FTRAN the entering column, pivot on a large entry, record an eta —
/// keeping `cols` in step. Returns the number of etas recorded.
fn run_update_chain(
    f: &mut BasisFactor,
    cols: &mut Cols,
    gen: &ColumnGen,
    updates: usize,
    rng: &mut SmallRng,
) -> usize {
    let m = cols.len();
    let mut recorded = 0;
    for _ in 0..updates {
        let entering = gen.column(rng.gen_range(0..m), rng);
        let mut a = vec![0.0; m];
        for &(r, v) in &entering {
            a[r as usize] = v;
        }
        let w = f.ftran(&a);
        // a = Σ w_p·B_p: pivot where a basis column contributes much of
        // it, whatever that column's scale.
        let share: Vec<f64> = (0..m)
            .map(|p| w[p].abs() * cols[p].iter().fold(0.0f64, |s, e| s.max(e.1.abs())))
            .collect();
        let most = share.iter().fold(0.0f64, |s, &v| s.max(v));
        let large: Vec<usize> = (0..m).filter(|&p| share[p] >= 0.5 * most).collect();
        let pos = large[rng.gen_range(0..large.len())];
        if f.update(pos, &w).is_ok() {
            cols[pos] = entering;
            recorded += 1;
        }
    }
    recorded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fresh_factor_matches_dense_lu(seed in any::<u64>(), m in 1usize..90, shape in 0usize..3) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cols = ColumnGen::new(SHAPES[shape], m, &mut rng).basis(&mut rng);
        let mut f = BasisFactor::new(m);
        prop_assert_eq!(refactor(&mut f, &cols), Ok(()));
        assert_matches_dense(&f, &cols, &mut rng)?;
        // The dense adapter takes the same path.
        let mut g = BasisFactor::new(m);
        prop_assert_eq!(g.refactor(&dense(&cols)), Ok(()));
        let v = random_vec(&mut rng, m);
        assert_close(&g.ftran(&v), &f.ftran(&v), "adapter ftran")?;
    }

    #[test]
    fn duplicate_column_is_singular(seed in any::<u64>(), m in 2usize..60, slack in any::<bool>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = if slack { Shape::MostlySlack } else { Shape::Random };
        let gen = ColumnGen::new(shape, m, &mut rng);
        let mut cols = gen.basis(&mut rng);
        let (from, to) = (rng.gen_range(0..m), rng.gen_range(0..m - 1));
        let to = if to >= from { to + 1 } else { to };
        cols[to] = cols[from].clone();
        let mut f = BasisFactor::new(m);
        prop_assert_eq!(refactor(&mut f, &cols), Err(BasisError::Singular));
        prop_assert!(f.needs_refactor());
        prop_assert!(LuFactor::with_pivot_tol(&dense(&cols), 1e-11).is_err());
        // So is an all-zero column, stored as one explicit zero.
        cols[to] = vec![(cols[to][0].0, 0.0)];
        prop_assert_eq!(refactor(&mut f, &cols), Err(BasisError::Singular));
        // The container recovers with the next nonsingular basis.
        let cols = gen.basis(&mut rng);
        prop_assert_eq!(refactor(&mut f, &cols), Ok(()));
        assert_matches_dense(&f, &cols, &mut rng)?;
    }

    #[test]
    fn update_chain_matches_dense_lu_and_fresh_refactor(
        seed in any::<u64>(),
        m in 2usize..70,
        shape in 0usize..3,
        updates in 1usize..=60,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let gen = ColumnGen::new(SHAPES[shape], m, &mut rng);
        let mut cols = gen.basis(&mut rng);
        let mut f = BasisFactor::new(m);
        prop_assert_eq!(refactor(&mut f, &cols), Ok(()));
        let recorded = run_update_chain(&mut f, &mut cols, &gen, updates, &mut rng);
        prop_assert!(recorded * 2 >= updates, "only {recorded} of {updates} pivots were usable");
        prop_assert_eq!(f.needs_refactor(), recorded >= BasisFactor::REFACTOR_INTERVAL);
        assert_matches_dense(&f, &cols, &mut rng)?;
        let mut fresh = BasisFactor::new(m);
        prop_assert_eq!(refactor(&mut fresh, &cols), Ok(()));
        let v = random_vec(&mut rng, m);
        assert_close(&f.ftran(&v), &fresh.ftran(&v), "chain vs fresh ftran")?;
        assert_close(&f.btran(&v), &fresh.btran(&v), "chain vs fresh btran")?;
    }
}
