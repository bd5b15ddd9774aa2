//! Strict SteinLib/OR-Library `.stp` I/O.
//!
//! The one `.stp` reader of the workspace: a section-aware parser that
//! enforces the SteinLib skeleton (magic line, `SECTION … END` blocks,
//! declared counts matching the data lines, a final `EOF`) and
//! diagnoses every rejection with line and column. The
//! writer emits exactly the dialect the parser accepts, so
//! `parse(write(x)) == x` holds structurally — the round-trip property
//! the proptests pin down.

use crate::error::{parse_finite, LineTokens, ParseError, ReadError};
use serde::{Deserialize, Serialize};
use ugrs_steiner::Graph;

/// The SteinLib magic of format version 1.0.
pub const STP_MAGIC: &str = "33D32945 STP File, STP Format Version 1.0";

/// A parsed `.stp` instance: the file's content in file order, before
/// any reduction. Convert to a solver [`Graph`] with
/// [`StpInstance::to_graph`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StpInstance {
    /// Instance name (from the Comment section; empty when absent).
    pub name: String,
    /// Number of vertices.
    pub nodes: usize,
    /// Undirected edges `(u, v, cost)`, 0-based, in file order.
    pub edges: Vec<(u32, u32, f64)>,
    /// Terminal vertices, 0-based, in file order.
    pub terminals: Vec<u32>,
}

impl StpInstance {
    /// Builds the solver graph (0-based, terminals marked).
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.nodes);
        for &(u, v, c) in &self.edges {
            g.add_edge(u as usize, v as usize, c);
        }
        for &t in &self.terminals {
            g.set_terminal(t as usize, true);
        }
        g
    }

    /// Captures a solver graph as an instance (alive edges only).
    pub fn from_graph(name: &str, g: &Graph) -> Self {
        StpInstance {
            name: name.to_string(),
            nodes: g.num_nodes(),
            edges: g
                .alive_edges()
                .map(|e| {
                    let ed = g.edge(e);
                    (ed.u, ed.v, ed.cost)
                })
                .collect(),
            terminals: g.terminals().map(|t| t as u32).collect(),
        }
    }

    /// Serializes in the exact dialect [`parse_stp`] accepts.
    pub fn write(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(s, "{STP_MAGIC}").unwrap();
        writeln!(s).unwrap();
        writeln!(s, "SECTION Comment").unwrap();
        writeln!(s, "Name \"{}\"", self.name.replace('"', "")).unwrap();
        writeln!(s, "Creator \"ugrs-instances\"").unwrap();
        writeln!(s, "END").unwrap();
        writeln!(s).unwrap();
        writeln!(s, "SECTION Graph").unwrap();
        writeln!(s, "Nodes {}", self.nodes).unwrap();
        writeln!(s, "Edges {}", self.edges.len()).unwrap();
        for &(u, v, c) in &self.edges {
            writeln!(s, "E {} {} {}", u + 1, v + 1, c).unwrap();
        }
        writeln!(s, "END").unwrap();
        writeln!(s).unwrap();
        writeln!(s, "SECTION Terminals").unwrap();
        writeln!(s, "Terminals {}", self.terminals.len()).unwrap();
        for &t in &self.terminals {
            writeln!(s, "T {}", t + 1).unwrap();
        }
        writeln!(s, "END").unwrap();
        writeln!(s).unwrap();
        writeln!(s, "EOF").unwrap();
        s
    }
}

/// Parser state: which section we are inside, with the counts still due.
enum Section {
    None,
    Comment,
    Graph,
    Terminals,
    /// Coordinates and other SteinLib sections we accept but ignore.
    Skipped,
}

/// Strictly parses SteinLib `.stp` text. Vertices in the file are
/// 1-based; the returned instance is 0-based.
pub fn parse_stp(text: &str) -> Result<StpInstance, ParseError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let (_, first) = lines
        .next()
        .ok_or_else(|| ParseError::at_line(1, "empty file; expected STP magic line"))?;
    if !first.trim_end().eq_ignore_ascii_case(STP_MAGIC) {
        return Err(ParseError::at(1, 1, format!("expected magic {STP_MAGIC:?}")));
    }

    let mut section = Section::None;
    let mut name = String::new();
    let mut nodes: Option<usize> = None;
    let mut edges_declared: Option<usize> = None;
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut terminals_declared: Option<usize> = None;
    let mut terminals: Vec<u32> = Vec::new();
    let mut seen_graph = false;
    let mut seen_terminals = false;
    let mut seen_eof = false;

    for (lineno, raw) in lines {
        let line = raw.trim_end();
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        if seen_eof {
            return Err(ParseError::at_line(lineno, "content after EOF"));
        }
        let mut toks = LineTokens::new(line, lineno);
        let (tag, tag_col) = toks.expect("a line tag")?;

        if matches!(section, Section::None) {
            match tag.to_ascii_uppercase().as_str() {
                "SECTION" => {
                    let (sec, col) = toks.expect("a section name")?;
                    toks.finish()?;
                    section = match sec.to_ascii_lowercase().as_str() {
                        "comment" => Section::Comment,
                        "graph" => {
                            if seen_graph {
                                return Err(ParseError::at(lineno, col, "duplicate Graph section"));
                            }
                            seen_graph = true;
                            Section::Graph
                        }
                        "terminals" => {
                            if seen_terminals {
                                return Err(ParseError::at(
                                    lineno,
                                    col,
                                    "duplicate Terminals section",
                                ));
                            }
                            seen_terminals = true;
                            Section::Terminals
                        }
                        "coordinates" | "presolve" | "maximumdegrees" => Section::Skipped,
                        other => {
                            return Err(ParseError::at(
                                lineno,
                                col,
                                format!("unknown section {other:?}"),
                            ))
                        }
                    };
                }
                "EOF" => {
                    toks.finish()?;
                    seen_eof = true;
                }
                other => {
                    return Err(ParseError::at(
                        lineno,
                        tag_col,
                        format!("expected SECTION or EOF, got {other:?}"),
                    ))
                }
            }
            continue;
        }

        if tag.eq_ignore_ascii_case("END") {
            toks.finish()?;
            match &section {
                Section::Graph => {
                    let n = nodes.ok_or_else(|| {
                        ParseError::at_line(lineno, "Graph section without Nodes")
                    })?;
                    let m = edges_declared.ok_or_else(|| {
                        ParseError::at_line(lineno, "Graph section without Edges")
                    })?;
                    if edges.len() != m {
                        return Err(ParseError::at_line(
                            lineno,
                            format!("Edges declares {m} but section has {} E lines", edges.len()),
                        ));
                    }
                    let _ = n;
                }
                Section::Terminals => {
                    let t = terminals_declared.ok_or_else(|| {
                        ParseError::at_line(lineno, "Terminals section without a Terminals count")
                    })?;
                    if terminals.len() != t {
                        return Err(ParseError::at_line(
                            lineno,
                            format!(
                                "Terminals declares {t} but section has {} T lines",
                                terminals.len()
                            ),
                        ));
                    }
                }
                _ => {}
            }
            section = Section::None;
            continue;
        }

        match section {
            Section::Comment => {
                // Key "value" lines; capture Name, ignore the rest.
                if tag.eq_ignore_ascii_case("name") {
                    let rest = line[tag_col - 1 + tag.len()..].trim();
                    name = rest.trim_matches('"').to_string();
                }
            }
            Section::Skipped => {}
            Section::Graph => match tag.to_ascii_lowercase().as_str() {
                "nodes" => {
                    if nodes.is_some() {
                        return Err(ParseError::at(lineno, tag_col, "duplicate Nodes line"));
                    }
                    nodes = Some(toks.parse::<usize>("node count")?);
                    toks.finish()?;
                }
                "edges" => {
                    if edges_declared.is_some() {
                        return Err(ParseError::at(lineno, tag_col, "duplicate Edges line"));
                    }
                    edges_declared = Some(toks.parse::<usize>("edge count")?);
                    toks.finish()?;
                }
                "e" | "a" => {
                    let n = nodes
                        .ok_or_else(|| ParseError::at(lineno, tag_col, "E line before Nodes"))?;
                    let (utok, ucol) = toks.expect("edge endpoint")?;
                    let u: usize = utok.parse().map_err(|_| {
                        ParseError::at(lineno, ucol, format!("bad endpoint: {utok:?}"))
                    })?;
                    let (vtok, vcol) = toks.expect("edge endpoint")?;
                    let v: usize = vtok.parse().map_err(|_| {
                        ParseError::at(lineno, vcol, format!("bad endpoint: {vtok:?}"))
                    })?;
                    let cost = parse_finite(&mut toks, lineno, "edge cost")?;
                    toks.finish()?;
                    if u == 0 || v == 0 || u > n || v > n {
                        return Err(ParseError::at(
                            lineno,
                            ucol,
                            format!("endpoint out of range 1..={n}"),
                        ));
                    }
                    if u == v {
                        return Err(ParseError::at(lineno, ucol, "self-loop edge"));
                    }
                    if cost < 0.0 {
                        return Err(ParseError::at_line(lineno, "negative edge cost"));
                    }
                    if edges.len() >= edges_declared.unwrap_or(usize::MAX) {
                        return Err(ParseError::at(
                            lineno,
                            tag_col,
                            "more E lines than Edges declares",
                        ));
                    }
                    edges.push((u as u32 - 1, v as u32 - 1, cost));
                }
                other => {
                    return Err(ParseError::at(
                        lineno,
                        tag_col,
                        format!("unexpected {other:?} in Graph section"),
                    ))
                }
            },
            Section::Terminals => match tag.to_ascii_lowercase().as_str() {
                "terminals" => {
                    if terminals_declared.is_some() {
                        return Err(ParseError::at(lineno, tag_col, "duplicate Terminals line"));
                    }
                    terminals_declared = Some(toks.parse::<usize>("terminal count")?);
                    toks.finish()?;
                }
                "t" => {
                    let n = nodes.ok_or_else(|| {
                        ParseError::at(lineno, tag_col, "Terminals section before Graph")
                    })?;
                    let (ttok, tcol) = toks.expect("terminal vertex")?;
                    let t: usize = ttok.parse().map_err(|_| {
                        ParseError::at(lineno, tcol, format!("bad terminal: {ttok:?}"))
                    })?;
                    toks.finish()?;
                    if t == 0 || t > n {
                        return Err(ParseError::at(
                            lineno,
                            tcol,
                            format!("terminal out of range 1..={n}"),
                        ));
                    }
                    if terminals.len() >= terminals_declared.unwrap_or(usize::MAX) {
                        return Err(ParseError::at(
                            lineno,
                            tag_col,
                            "more T lines than Terminals declares",
                        ));
                    }
                    let t0 = t as u32 - 1;
                    if terminals.contains(&t0) {
                        return Err(ParseError::at(lineno, tcol, "duplicate terminal"));
                    }
                    terminals.push(t0);
                }
                other => {
                    return Err(ParseError::at(
                        lineno,
                        tag_col,
                        format!("unexpected {other:?} in Terminals section"),
                    ))
                }
            },
            Section::None => unreachable!(),
        }
    }

    if !matches!(section, Section::None) {
        return Err(ParseError::at_line(text.lines().count(), "unterminated section"));
    }
    if !seen_eof {
        return Err(ParseError::at_line(text.lines().count(), "missing EOF line"));
    }
    let nodes = nodes.ok_or_else(|| ParseError::at_line(1, "missing Graph section"))?;
    if !seen_terminals {
        return Err(ParseError::at_line(1, "missing Terminals section"));
    }
    Ok(StpInstance { name, nodes, edges, terminals })
}

/// Reads and strictly parses an `.stp` file.
pub fn read_stp(path: &std::path::Path) -> Result<StpInstance, ReadError> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_stp(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StpInstance {
        StpInstance {
            name: "tiny".into(),
            nodes: 3,
            edges: vec![(0, 1, 1.5), (1, 2, 2.5)],
            terminals: vec![0, 2],
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let x = tiny();
        assert_eq!(parse_stp(&x.write()).unwrap(), x);
    }

    #[test]
    fn graph_conversion_round_trips() {
        let g = tiny().to_graph();
        assert_eq!(StpInstance::from_graph("tiny", &g), tiny());
    }

    #[test]
    fn rejects_missing_magic() {
        let err = parse_stp("SECTION Graph\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_count_mismatch() {
        let mut text = tiny().write();
        text = text.replace("Edges 2", "Edges 3");
        let err = parse_stp(&text).unwrap_err();
        assert!(err.msg.contains("declares 3"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_endpoint_with_position() {
        let text = tiny().write().replace("E 2 3 2.5", "E 2 9 2.5");
        let err = parse_stp(&text).unwrap_err();
        assert!(err.msg.contains("out of range"), "{err}");
        assert!(err.line > 1);
    }

    #[test]
    fn rejects_garbage_cost() {
        let text = tiny().write().replace("E 1 2 1.5", "E 1 2 abc");
        let err = parse_stp(&text).unwrap_err();
        assert!(err.msg.contains("edge cost"), "{err}");
        assert!(err.col > 0);
    }

    #[test]
    fn rejects_content_after_eof() {
        let mut text = tiny().write();
        text.push_str("E 1 2 1\n");
        assert!(parse_stp(&text).unwrap_err().msg.contains("after EOF"));
    }

    #[test]
    fn rejects_nan_cost() {
        let text = tiny().write().replace("E 1 2 1.5", "E 1 2 NaN");
        assert!(parse_stp(&text).unwrap_err().msg.contains("finite"));
    }
}
