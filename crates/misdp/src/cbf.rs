//! CBF-lite output: the writer for the subset of the Conic Benchmark
//! Format (CBLIB's format, [Friberg 2016]) that MISDPs of form (8) need.
//!
//! Sections written: `VER`, `OBJSENSE`, `VAR`, `INT`, `BOUNDS`
//! (extension: `idx lb ub`), `OBJACOORD` (objective), `PSDCON` (one
//! entry per block dimension), the PSD coefficient sections `HCOORD`
//! (variable k, block b, row i, col j, value) and `DCOORD` (block
//! constants), and `LROWS` (linear rows).
//!
//! The one reader of this dialect is the strict parser
//! `ugrs_instances::cbf::parse_cbf`, so generated instances can be
//! exported, inspected and re-imported.

use crate::model::MisdpProblem;

/// Writes a problem in CBF-lite text.
pub fn write_cbf(p: &MisdpProblem) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(s, "VER\n3\n").unwrap();
    writeln!(s, "OBJSENSE\nMAX\n").unwrap();
    writeln!(s, "VAR\n{} 1\nF {}\n", p.m, p.m).unwrap();
    let ints: Vec<usize> = (0..p.m).filter(|&i| p.integer[i]).collect();
    if !ints.is_empty() {
        writeln!(s, "INT\n{}", ints.len()).unwrap();
        for i in &ints {
            writeln!(s, "{i}").unwrap();
        }
        writeln!(s).unwrap();
    }
    // Bounds as a BOUNDS extension (not core CBF, but self-describing).
    writeln!(s, "BOUNDS\n{}", p.m).unwrap();
    for i in 0..p.m {
        writeln!(s, "{} {} {}", i, p.lb[i], p.ub[i]).unwrap();
    }
    writeln!(s).unwrap();
    writeln!(s, "OBJACOORD\n{}", p.b.iter().filter(|v| **v != 0.0).count()).unwrap();
    for (i, v) in p.b.iter().enumerate() {
        if *v != 0.0 {
            writeln!(s, "{i} {v}").unwrap();
        }
    }
    writeln!(s).unwrap();
    if !p.blocks.is_empty() {
        writeln!(s, "PSDCON\n{}", p.blocks.len()).unwrap();
        for b in &p.blocks {
            writeln!(s, "{}", b.dim).unwrap();
        }
        writeln!(s).unwrap();
        // HCOORD: var, block, row, col, value — note CBF's convention is
        // Σ H y + D ⪰ 0; ours is C − Σ A y ⪰ 0, so H = −A, D = C.
        let mut hcoords = Vec::new();
        let mut dcoords = Vec::new();
        for (bi, blk) in p.blocks.iter().enumerate() {
            for (vi, a) in blk.a.iter().enumerate() {
                if let Some(a) = a {
                    for r in 0..blk.dim {
                        for c in 0..=r {
                            if a[(r, c)] != 0.0 {
                                hcoords.push((vi, bi, r, c, -a[(r, c)]));
                            }
                        }
                    }
                }
            }
            for r in 0..blk.dim {
                for c in 0..=r {
                    if blk.c[(r, c)] != 0.0 {
                        dcoords.push((bi, r, c, blk.c[(r, c)]));
                    }
                }
            }
        }
        writeln!(s, "HCOORD\n{}", hcoords.len()).unwrap();
        for (v, b, r, c, val) in hcoords {
            writeln!(s, "{v} {b} {r} {c} {val}").unwrap();
        }
        writeln!(s).unwrap();
        writeln!(s, "DCOORD\n{}", dcoords.len()).unwrap();
        for (b, r, c, val) in dcoords {
            writeln!(s, "{b} {r} {c} {val}").unwrap();
        }
        writeln!(s).unwrap();
    }
    if !p.lin.is_empty() {
        writeln!(s, "LROWS\n{}", p.lin.len()).unwrap();
        for row in &p.lin {
            write!(s, "{} {} {}", row.lhs, row.rhs, row.terms.len()).unwrap();
            for (i, c) in &row.terms {
                write!(s, " {i} {c}").unwrap();
            }
            writeln!(s).unwrap();
        }
        writeln!(s).unwrap();
    }
    s
}
