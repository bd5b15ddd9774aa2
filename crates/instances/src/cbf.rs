//! Strict CBF-lite (CBLIB subset) parsing for MISDP instances.
//!
//! The dialect is exactly what `ugrs_misdp::cbf::write_cbf` emits —
//! `VER`, `OBJSENSE`, `VAR` (F/L+/L− cones), `INT`, `BOUNDS` (extension:
//! `idx lb ub`), `OBJACOORD`, `PSDCON`, `HCOORD` (with H = −A),
//! `DCOORD` (D = C) and `LROWS`. This is the one reader of the dialect:
//! every rejection is diagnosed with line and column, sections may
//! appear at most once, indices are range-checked at the line that uses
//! them, and duplicate coordinate entries are errors rather than silent
//! overwrites.

use crate::error::{parse_finite, parse_no_nan, LineTokens, ParseError, ReadError};
use std::collections::HashSet;
use ugrs_linalg::Matrix;
use ugrs_misdp::MisdpProblem;
use ugrs_sdp::{LinRow, SdpBlock};

/// Re-export of the canonical writer: generated instances are exported
/// with this and re-read by [`parse_cbf`].
pub use ugrs_misdp::cbf::write_cbf;

/// The non-comment lines of the input, with their 1-based line numbers.
struct Lines<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(_, l)| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
            .collect();
        Lines { lines, pos: 0 }
    }

    fn peek_lineno(&self) -> usize {
        self.lines
            .get(self.pos)
            .map_or_else(|| self.lines.last().map_or(1, |&(n, _)| n + 1), |&(n, _)| n)
    }

    fn next(&mut self, what: &str) -> Result<(usize, &'a str), ParseError> {
        let &(n, l) = self
            .lines
            .get(self.pos)
            .ok_or_else(|| ParseError::at_line(self.peek_lineno(), format!("expected {what}")))?;
        self.pos += 1;
        Ok((n, l))
    }

    /// Next line parsed as a single `usize` count.
    fn count(&mut self, what: &str) -> Result<usize, ParseError> {
        let (lineno, line) = self.next(what)?;
        let mut toks = LineTokens::new(line, lineno);
        let n = toks.parse::<usize>(what)?;
        toks.finish()?;
        Ok(n)
    }
}

/// Strictly parses CBF-lite text; `name` labels the returned problem
/// (callers pass the file stem).
pub fn parse_cbf(text: &str, name: &str) -> Result<MisdpProblem, ParseError> {
    let mut lines = Lines::new(text);

    // VER must come first.
    let (lineno, first) = lines.next("VER section")?;
    if first.trim() != "VER" {
        return Err(ParseError::at(lineno, 1, "expected VER as the first section"));
    }
    let ver = lines.count("format version")?;
    if !(1..=4).contains(&ver) {
        return Err(ParseError::at_line(lineno + 1, format!("unsupported CBF version {ver}")));
    }

    let mut maximize = true;
    let mut m: Option<usize> = None;
    let mut integer: Vec<bool> = Vec::new();
    let mut lb: Vec<f64> = Vec::new();
    let mut ub: Vec<f64> = Vec::new();
    let mut b: Vec<f64> = Vec::new();
    let mut dims: Vec<usize> = Vec::new();
    let mut blocks: Vec<SdpBlock> = Vec::new();
    let mut amats: Vec<Vec<Option<Matrix>>> = Vec::new();
    let mut lin: Vec<LinRow> = Vec::new();
    let mut seen: HashSet<&'static str> = HashSet::new();

    let need_vars = |m: &Option<usize>, lineno: usize, sec: &str| {
        m.ok_or_else(|| ParseError::at_line(lineno, format!("{sec} before VAR")))
    };
    let mut mark = |sec: &'static str, lineno: usize| {
        if !seen.insert(sec) {
            return Err(ParseError::at_line(lineno, format!("duplicate {sec} section")));
        }
        Ok(())
    };

    while lines.pos < lines.lines.len() {
        let (lineno, header) = lines.next("a section header")?;
        let sec = header.trim();
        match sec {
            "OBJSENSE" => {
                mark("OBJSENSE", lineno)?;
                let (sl, sval) = lines.next("objective sense")?;
                maximize = match sval.trim() {
                    "MAX" => true,
                    "MIN" => false,
                    other => return Err(ParseError::at(sl, 1, format!("bad OBJSENSE {other:?}"))),
                };
            }
            "VAR" => {
                mark("VAR", lineno)?;
                let (hl, hline) = lines.next("VAR header")?;
                let mut toks = LineTokens::new(hline, hl);
                let n = toks.parse::<usize>("variable count")?;
                let ncones = toks.parse::<usize>("cone count")?;
                toks.finish()?;
                if n == 0 {
                    return Err(ParseError::at_line(hl, "VAR declares zero variables"));
                }
                m = Some(n);
                integer = vec![false; n];
                lb = vec![-1e6; n];
                ub = vec![1e6; n];
                b = vec![0.0; n];
                let mut covered = 0usize;
                for _ in 0..ncones {
                    let (cl, cline) = lines.next("a cone line")?;
                    let mut toks = LineTokens::new(cline, cl);
                    let (kind, kcol) = toks.expect("cone kind")?;
                    let len = toks.parse::<usize>("cone length")?;
                    toks.finish()?;
                    if covered + len > n {
                        return Err(ParseError::at(cl, kcol, "cones cover more than VAR count"));
                    }
                    match kind {
                        "F" => {}
                        "L+" => {
                            for v in lb.iter_mut().skip(covered).take(len) {
                                *v = 0.0;
                            }
                            for v in ub.iter_mut().skip(covered).take(len) {
                                *v = 1e9;
                            }
                        }
                        "L-" => {
                            for v in lb.iter_mut().skip(covered).take(len) {
                                *v = -1e9;
                            }
                            for v in ub.iter_mut().skip(covered).take(len) {
                                *v = 0.0;
                            }
                        }
                        other => {
                            return Err(ParseError::at(
                                cl,
                                kcol,
                                format!("unsupported cone {other:?}"),
                            ))
                        }
                    }
                    covered += len;
                }
                if covered != n {
                    return Err(ParseError::at_line(
                        hl,
                        format!("cones cover {covered} of {n} variables"),
                    ));
                }
            }
            "INT" => {
                mark("INT", lineno)?;
                let nvars = need_vars(&m, lineno, "INT")?;
                let k = lines.count("INT count")?;
                for _ in 0..k {
                    let (il, iline) = lines.next("an INT index")?;
                    let mut toks = LineTokens::new(iline, il);
                    let (tok, col) = toks.expect("variable index")?;
                    let idx: usize = tok.parse().map_err(|_| {
                        ParseError::at(il, col, format!("bad variable index: {tok:?}"))
                    })?;
                    toks.finish()?;
                    if idx >= nvars {
                        return Err(ParseError::at(il, col, format!("index {idx} >= {nvars}")));
                    }
                    if integer[idx] {
                        return Err(ParseError::at(il, col, "duplicate INT index"));
                    }
                    integer[idx] = true;
                }
            }
            "BOUNDS" => {
                mark("BOUNDS", lineno)?;
                let nvars = need_vars(&m, lineno, "BOUNDS")?;
                let k = lines.count("BOUNDS count")?;
                for _ in 0..k {
                    let (bl, bline) = lines.next("a bounds line")?;
                    let mut toks = LineTokens::new(bline, bl);
                    let (tok, col) = toks.expect("variable index")?;
                    let idx: usize = tok.parse().map_err(|_| {
                        ParseError::at(bl, col, format!("bad variable index: {tok:?}"))
                    })?;
                    let lo = parse_no_nan(&mut toks, bl, "lower bound")?;
                    let hi = parse_no_nan(&mut toks, bl, "upper bound")?;
                    toks.finish()?;
                    if idx >= nvars {
                        return Err(ParseError::at(bl, col, format!("index {idx} >= {nvars}")));
                    }
                    if lo > hi {
                        return Err(ParseError::at_line(bl, format!("empty bound [{lo}, {hi}]")));
                    }
                    lb[idx] = lo;
                    ub[idx] = hi;
                }
            }
            "OBJACOORD" => {
                mark("OBJACOORD", lineno)?;
                let nvars = need_vars(&m, lineno, "OBJACOORD")?;
                let k = lines.count("OBJACOORD count")?;
                let mut touched = HashSet::new();
                for _ in 0..k {
                    let (ol, oline) = lines.next("an objective entry")?;
                    let mut toks = LineTokens::new(oline, ol);
                    let (tok, col) = toks.expect("variable index")?;
                    let idx: usize = tok.parse().map_err(|_| {
                        ParseError::at(ol, col, format!("bad variable index: {tok:?}"))
                    })?;
                    let val = parse_finite(&mut toks, ol, "objective value")?;
                    toks.finish()?;
                    if idx >= nvars {
                        return Err(ParseError::at(ol, col, format!("index {idx} >= {nvars}")));
                    }
                    if !touched.insert(idx) {
                        return Err(ParseError::at(ol, col, "duplicate objective index"));
                    }
                    b[idx] = val;
                }
            }
            "PSDCON" => {
                mark("PSDCON", lineno)?;
                let nvars = need_vars(&m, lineno, "PSDCON")?;
                let k = lines.count("PSDCON count")?;
                for _ in 0..k {
                    let (dl, dline) = lines.next("a block dimension")?;
                    let mut toks = LineTokens::new(dline, dl);
                    let dim = toks.parse::<usize>("block dimension")?;
                    toks.finish()?;
                    if dim == 0 {
                        return Err(ParseError::at_line(dl, "zero-dimension PSD block"));
                    }
                    dims.push(dim);
                    blocks.push(SdpBlock::new(dim, nvars));
                    amats.push(vec![None; nvars]);
                }
            }
            "HCOORD" => {
                mark("HCOORD", lineno)?;
                let nvars = need_vars(&m, lineno, "HCOORD")?;
                let k = lines.count("HCOORD count")?;
                let mut touched = HashSet::new();
                for _ in 0..k {
                    let (hl, hline) = lines.next("an HCOORD entry")?;
                    let mut toks = LineTokens::new(hline, hl);
                    let (vtok, vcol) = toks.expect("variable index")?;
                    let var: usize = vtok.parse().map_err(|_| {
                        ParseError::at(hl, vcol, format!("bad variable index: {vtok:?}"))
                    })?;
                    let (btok, bcol) = toks.expect("block index")?;
                    let blk: usize = btok.parse().map_err(|_| {
                        ParseError::at(hl, bcol, format!("bad block index: {btok:?}"))
                    })?;
                    let (rtok, rcol) = toks.expect("row")?;
                    let r: usize = rtok
                        .parse()
                        .map_err(|_| ParseError::at(hl, rcol, format!("bad row: {rtok:?}")))?;
                    let (ctok, ccol) = toks.expect("col")?;
                    let c: usize = ctok
                        .parse()
                        .map_err(|_| ParseError::at(hl, ccol, format!("bad col: {ctok:?}")))?;
                    let val = parse_finite(&mut toks, hl, "coefficient")?;
                    toks.finish()?;
                    if var >= nvars {
                        return Err(ParseError::at(hl, vcol, format!("index {var} >= {nvars}")));
                    }
                    let dim = *dims.get(blk).ok_or_else(|| {
                        ParseError::at(hl, bcol, format!("block {blk} not in PSDCON"))
                    })?;
                    if r >= dim || c >= dim {
                        return Err(ParseError::at(hl, rcol, format!("entry outside {dim}×{dim}")));
                    }
                    if !touched.insert((var, blk, r.max(c), r.min(c))) {
                        return Err(ParseError::at(hl, rcol, "duplicate HCOORD entry"));
                    }
                    // H = −A.
                    let mat = amats[blk][var].get_or_insert_with(|| Matrix::zeros(dim, dim));
                    mat[(r, c)] = -val;
                    mat[(c, r)] = -val;
                }
            }
            "DCOORD" => {
                mark("DCOORD", lineno)?;
                let k = lines.count("DCOORD count")?;
                let mut touched = HashSet::new();
                for _ in 0..k {
                    let (dl, dline) = lines.next("a DCOORD entry")?;
                    let mut toks = LineTokens::new(dline, dl);
                    let (btok, bcol) = toks.expect("block index")?;
                    let blk: usize = btok.parse().map_err(|_| {
                        ParseError::at(dl, bcol, format!("bad block index: {btok:?}"))
                    })?;
                    let (rtok, rcol) = toks.expect("row")?;
                    let r: usize = rtok
                        .parse()
                        .map_err(|_| ParseError::at(dl, rcol, format!("bad row: {rtok:?}")))?;
                    let (ctok, ccol) = toks.expect("col")?;
                    let c: usize = ctok
                        .parse()
                        .map_err(|_| ParseError::at(dl, ccol, format!("bad col: {ctok:?}")))?;
                    let val = parse_finite(&mut toks, dl, "constant")?;
                    toks.finish()?;
                    let dim = *dims.get(blk).ok_or_else(|| {
                        ParseError::at(dl, bcol, format!("block {blk} not in PSDCON"))
                    })?;
                    if r >= dim || c >= dim {
                        return Err(ParseError::at(dl, rcol, format!("entry outside {dim}×{dim}")));
                    }
                    if !touched.insert((blk, r.max(c), r.min(c))) {
                        return Err(ParseError::at(dl, rcol, "duplicate DCOORD entry"));
                    }
                    blocks[blk].c[(r, c)] = val;
                    blocks[blk].c[(c, r)] = val;
                }
            }
            "LROWS" => {
                mark("LROWS", lineno)?;
                let nvars = need_vars(&m, lineno, "LROWS")?;
                let k = lines.count("LROWS count")?;
                for _ in 0..k {
                    let (ll, lline) = lines.next("a linear row")?;
                    let mut toks = LineTokens::new(lline, ll);
                    let lhs = parse_no_nan(&mut toks, ll, "row lhs")?;
                    let rhs = parse_no_nan(&mut toks, ll, "row rhs")?;
                    let nterms = toks.parse::<usize>("term count")?;
                    if lhs > rhs {
                        return Err(ParseError::at_line(ll, format!("empty row [{lhs}, {rhs}]")));
                    }
                    let mut terms = Vec::with_capacity(nterms);
                    for _ in 0..nterms {
                        let (itok, icol) = toks.expect("term index")?;
                        let idx: usize = itok.parse().map_err(|_| {
                            ParseError::at(ll, icol, format!("bad term index: {itok:?}"))
                        })?;
                        let coef = parse_finite(&mut toks, ll, "term coefficient")?;
                        if idx >= nvars {
                            return Err(ParseError::at(
                                ll,
                                icol,
                                format!("index {idx} >= {nvars}"),
                            ));
                        }
                        terms.push((idx, coef));
                    }
                    toks.finish()?;
                    lin.push(LinRow { lhs, rhs, terms });
                }
            }
            other => {
                return Err(ParseError::at(lineno, 1, format!("unsupported section {other:?}")))
            }
        }
    }

    let nvars = m.ok_or_else(|| ParseError::at_line(lines.peek_lineno(), "missing VAR section"))?;
    if !maximize {
        for v in b.iter_mut() {
            *v = -*v;
        }
    }
    let mut p = MisdpProblem::new(name, nvars);
    p.b = b;
    p.lb = lb;
    p.ub = ub;
    p.integer = integer;
    for (blk, mats) in blocks.iter_mut().zip(amats) {
        for (var, mat) in mats.into_iter().enumerate() {
            if let Some(mat) = mat {
                blk.set_a(var, mat);
            }
        }
    }
    p.blocks = blocks;
    p.lin = lin;
    Ok(p)
}

/// Reads and strictly parses a CBF-lite file; the problem is named after
/// the file stem.
pub fn read_cbf(path: &std::path::Path) -> Result<MisdpProblem, ReadError> {
    let text = std::fs::read_to_string(path)?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("cbf");
    Ok(parse_cbf(&text, name)?)
}

/// Semantic equality of two problems (ignoring the name): same
/// variables, bounds, integrality, objective, PSD data (a `None`
/// coefficient equals a zero matrix) and linear rows.
pub fn problems_equal(a: &MisdpProblem, b: &MisdpProblem) -> bool {
    fn mat_eq(dim: usize, x: Option<&Matrix>, y: Option<&Matrix>) -> bool {
        (0..dim).all(|r| {
            (0..dim).all(|c| {
                let xv = x.map_or(0.0, |m| m[(r, c)]);
                let yv = y.map_or(0.0, |m| m[(r, c)]);
                xv == yv
            })
        })
    }
    a.m == b.m
        && a.b == b.b
        && a.lb == b.lb
        && a.ub == b.ub
        && a.integer == b.integer
        && a.blocks.len() == b.blocks.len()
        && a.blocks.iter().zip(&b.blocks).all(|(x, y)| {
            x.dim == y.dim
                && mat_eq(x.dim, Some(&x.c), Some(&y.c))
                && (0..a.m).all(|v| mat_eq(x.dim, x.a[v].as_ref(), y.a[v].as_ref()))
        })
        && a.lin.len() == b.lin.len()
        && a.lin
            .iter()
            .zip(&b.lin)
            .all(|(x, y)| x.lhs == y.lhs && x.rhs == y.rhs && x.terms == y.terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugrs_misdp::gen::{cardinality_ls, min_k_partitioning, truss_topology};

    #[test]
    fn round_trips_generated_instances() {
        for p in [truss_topology(3, 4, 1), cardinality_ls(3, 2, 2), min_k_partitioning(4, 2, 3)] {
            let text = write_cbf(&p);
            let q = parse_cbf(&text, "rt").unwrap();
            assert!(problems_equal(&p, &q), "round trip changed {}", p.name);
            // And the canonical writer is a fixed point.
            assert_eq!(write_cbf(&q), text);
        }
    }

    #[test]
    fn rejects_missing_ver() {
        let err = parse_cbf("OBJSENSE\nMAX\n", "x").unwrap_err();
        assert!(err.msg.contains("VER"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_with_position() {
        let p = truss_topology(3, 4, 1);
        let text = write_cbf(&p);
        // Corrupt the first OBJACOORD index to an out-of-range variable.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let oa = lines.iter().position(|l| l == "OBJACOORD").unwrap();
        let first = lines[oa + 2].clone();
        let val = first.split_whitespace().nth(1).unwrap();
        lines[oa + 2] = format!("99 {val}");
        let err = parse_cbf(&lines.join("\n"), "x").unwrap_err();
        assert_eq!(err.line, oa + 3);
        assert!(err.msg.contains("99"), "{err}");
    }

    #[test]
    fn rejects_duplicate_sections() {
        let p = cardinality_ls(2, 1, 3);
        let text = write_cbf(&p);
        let dup = format!("{text}\nOBJSENSE\nMAX\nOBJSENSE\nMAX\n");
        let err = parse_cbf(&dup, "x").unwrap_err();
        assert!(err.msg.contains("duplicate"), "{err}");
    }

    #[test]
    fn min_objsense_flips_objective() {
        let p = cardinality_ls(2, 1, 3);
        let text = write_cbf(&p).replace("OBJSENSE\nMAX", "OBJSENSE\nMIN");
        let q = parse_cbf(&text, "x").unwrap();
        for (x, y) in p.b.iter().zip(&q.b) {
            assert_eq!(*y, -*x);
        }
    }
}
