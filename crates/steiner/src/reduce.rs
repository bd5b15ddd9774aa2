//! Reduction techniques (§3.1: "extremely important ... often more than
//! 90% of the edges can be deleted"). Implemented here:
//!
//! * **degree tests** — delete degree-0/1 non-terminals, contract the
//!   mandatory edge of a degree-1 terminal, merge degree-2 non-terminals,
//! * **NNT test** — contract a terminal's cheapest incident edge when it
//!   leads to another terminal,
//! * **SD / alternative-path test** — delete an edge when a not-longer
//!   alternative path exists (bounded Dijkstra),
//! * **dual-ascent bound tests** — delete vertices/edges whose inclusion
//!   forces the reduced-cost lower bound past an upper bound.

use crate::dualascent::{dual_ascent, redcost_distances};
use crate::graph::Graph;
use crate::heur::{real_weights, tm_best};
use crate::sap::SapGraph;
use crate::util::MinEntry;
use std::collections::BinaryHeap;

/// Vertex-scan limit of the bounded Dijkstra in the SD test.
const SD_SCAN_LIMIT: usize = 400;
/// Outer passes of the reduction loop.
const ROUNDS: usize = 8;

/// The parameters of [`reduce`]. It has no field: the reduction loop's
/// parameters are this module's constants.
#[derive(Clone, Debug, Default)]
pub struct ReduceParams {}

/// Per-technique reduction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReduceStats {
    pub degree_deleted: usize,
    pub degree_contracted: usize,
    pub degree_merged: usize,
    pub nnt_contracted: usize,
    pub sd_deleted: usize,
    pub da_nodes_deleted: usize,
    pub da_edges_deleted: usize,
    pub rounds_run: usize,
}

impl ReduceStats {
    pub fn total_eliminations(&self) -> usize {
        self.degree_deleted
            + self.degree_contracted
            + self.degree_merged
            + self.nnt_contracted
            + self.sd_deleted
            + self.da_nodes_deleted
            + self.da_edges_deleted
    }
}

/// Runs the reduction loop in place, at most `ROUNDS` (8) passes. The
/// graph's `fixed_cost` / `fixed_edges` accumulate mandatory parts of the
/// solution.
pub fn reduce(g: &mut Graph, _params: &ReduceParams) -> ReduceStats {
    let mut stats = ReduceStats::default();
    for _ in 0..ROUNDS {
        let mut changed = false;
        changed |= degree_tests(g, &mut stats);
        changed |= nnt_test(g, &mut stats);
        changed |= sd_test(g, SD_SCAN_LIMIT, &mut stats);
        if g.num_terminals() >= 2 {
            changed |= da_tests(g, &mut stats);
        }
        stats.rounds_run += 1;
        if !changed {
            break;
        }
    }
    stats
}

/// Degree-based tests to a fixpoint. Returns true if anything changed.
pub fn degree_tests(g: &mut Graph, stats: &mut ReduceStats) -> bool {
    let mut any = false;
    loop {
        let mut changed = false;
        for v in 0..g.num_nodes() {
            if !g.is_node_alive(v) {
                continue;
            }
            let deg = g.degree(v);
            if g.num_terminals() <= 1 {
                break;
            }
            if !g.is_terminal(v) {
                match deg {
                    0 => {
                        g.delete_node(v);
                        stats.degree_deleted += 1;
                        changed = true;
                    }
                    1 => {
                        g.delete_node(v);
                        stats.degree_deleted += 1;
                        changed = true;
                    }
                    2 => {
                        g.merge_degree2(v);
                        stats.degree_merged += 1;
                        changed = true;
                    }
                    _ => {}
                }
            } else if deg == 1 {
                // Mandatory edge of a degree-1 terminal.
                let e = g.incident(v).next().unwrap();
                let u = g.edge(e).other(v as u32);
                g.contract_fixing_edge(e, u, v as u32);
                stats.degree_contracted += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        any = true;
    }
    any
}

/// Nearest-neighbour-terminal test: an edge joining two terminals that is
/// the cheapest incident edge of *both* endpoints lies in at least one
/// optimal solution (swap argument: adding it to an optimal tree closes a
/// cycle through both terminals, and the cycle's other edge at either
/// endpoint is at least as expensive) and can be contracted.
fn nnt_test(g: &mut Graph, stats: &mut ReduceStats) -> bool {
    let mut any = false;
    loop {
        if g.num_terminals() <= 1 {
            return any;
        }
        let mut action: Option<(u32, u32, u32)> = None;
        'scan: for t in g.terminals() {
            let mut cheapest: Option<u32> = None;
            for e in g.incident(t) {
                if cheapest.is_none_or(|c| g.edge(e).cost < g.edge(c).cost) {
                    cheapest = Some(e);
                }
            }
            let Some(e) = cheapest else { continue };
            let u = g.edge(e).other(t as u32) as usize;
            if !g.is_terminal(u) {
                continue;
            }
            // e must also be minimal at u.
            let min_u = g.incident(u).map(|f| g.edge(f).cost).fold(f64::INFINITY, f64::min);
            if g.edge(e).cost <= min_u + 1e-12 {
                action = Some((e, u as u32, t as u32));
                break 'scan;
            }
        }
        match action {
            Some((e, into, from)) => {
                g.contract_fixing_edge(e, into, from);
                stats.nnt_contracted += 1;
                any = true;
            }
            None => return any,
        }
    }
}

/// Alternative-path (special distance, restricted) test: edge `(u,v,c)`
/// is deleted when a different u–v path of length ≤ c exists. The
/// Dijkstra is bounded by distance `c` and `scan_limit` settled vertices.
pub fn sd_test(g: &mut Graph, scan_limit: usize, stats: &mut ReduceStats) -> bool {
    let mut any = false;
    // One scratch for every edge's search: `touched` lists the entries of
    // `dist` to reset to ∞ afterwards.
    let mut dist = vec![f64::INFINITY; g.num_nodes()];
    let mut touched: Vec<usize> = Vec::new();
    let mut heap = BinaryHeap::new();
    let edges: Vec<u32> = g.alive_edges().collect();
    for e in edges {
        if !g.edge(e).alive {
            continue;
        }
        let (u, v, c) = {
            let ed = g.edge(e);
            (ed.u as usize, ed.v as usize, ed.cost)
        };
        // Bounded Dijkstra from u avoiding e.
        for x in touched.drain(..) {
            dist[x] = f64::INFINITY;
        }
        heap.clear();
        dist[u] = 0.0;
        touched.push(u);
        heap.push(MinEntry(0.0, u as u32));
        let mut settled = 0usize;
        let mut found = false;
        while let Some(MinEntry(d, x)) = heap.pop() {
            let x = x as usize;
            if d > dist[x] + 1e-15 {
                continue;
            }
            if x == v {
                found = d <= c + 1e-12;
                break;
            }
            settled += 1;
            if settled > scan_limit || d > c + 1e-12 {
                break;
            }
            for ne in g.incident(x) {
                if ne == e {
                    continue;
                }
                let w = g.edge(ne).other(x as u32) as usize;
                let nd = d + g.edge(ne).cost;
                if nd <= c + 1e-12 && nd < dist[w] - 1e-15 {
                    if dist[w] == f64::INFINITY {
                        touched.push(w);
                    }
                    dist[w] = nd;
                    heap.push(MinEntry(nd, w as u32));
                }
            }
        }
        if found {
            g.delete_edge(e);
            stats.sd_deleted += 1;
            any = true;
        }
    }
    any
}

/// Dual-ascent bound-based vertex/arc tests against the upper bound of a
/// TM solution of the current graph.
/// Needs ≥ 2 terminals.
fn da_tests(g: &mut Graph, stats: &mut ReduceStats) -> bool {
    let ub = match tm_best(g, 4, &real_weights(g)) {
        Some(t) => t.cost,
        None => return false, // disconnected; degree tests will clean up
    };
    let root = SapGraph::pick_root(g);
    let sap = SapGraph::from_graph(g, root);
    let da = dual_ascent(&sap, 16);
    if !da.bound.is_finite() {
        return false;
    }
    bound_tests(g, &sap, &da.redcost, da.bound, ub, stats)
}

/// The vertex and arc tests of [`da_tests`] under the reduced costs
/// `redcost` of a dual solution of bound `lb` on `sap`, against the
/// upper bound `ub`.
fn bound_tests(
    g: &mut Graph,
    sap: &SapGraph,
    redcost: &[f64],
    lb: f64,
    ub: f64,
    stats: &mut ReduceStats,
) -> bool {
    let (dfr, dtt) = redcost_distances(sap, redcost, sap.root);
    let tol = 1e-9;
    let mut any = false;

    // Vertex test.
    let nodes: Vec<usize> = g.alive_nodes().filter(|&v| !g.is_terminal(v)).collect();
    for v in nodes {
        if dfr[v] + dtt[v] + lb > ub + tol {
            g.delete_node(v);
            stats.da_nodes_deleted += 1;
            any = true;
        }
    }
    // Arc/edge tests: every optimal arborescence avoids an arc with
    // `lb + d̃(r→tail) + c̃(a) + d̃(head→T) > ub`, and an edge goes when
    // both its arcs do.
    let excluded = |a: u32| {
        let arc = &sap.arcs[a as usize];
        lb + dfr[arc.tail as usize] + redcost[a as usize] + dtt[arc.head as usize] > ub + tol
    };
    let edges: Vec<u32> = g.alive_edges().collect();
    for e in edges {
        if !g.edge(e).alive {
            continue;
        }
        let a1 = find_arc(sap, e, g.edge(e).u, g.edge(e).v);
        let a2 = find_arc(sap, e, g.edge(e).v, g.edge(e).u);
        let (Some(a1), Some(a2)) = (a1, a2) else { continue };
        if excluded(a1) && excluded(a2) {
            g.delete_edge(e);
            stats.da_edges_deleted += 1;
            any = true;
        }
    }
    any
}

fn find_arc(sap: &SapGraph, edge: u32, tail: u32, head: u32) -> Option<u32> {
    sap.out[tail as usize]
        .iter()
        .copied()
        .find(|&a| sap.arcs[a as usize].edge == edge && sap.arcs[a as usize].head == head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree1_chain_collapses() {
        // 0(T) - 1 - 2 - 3(T), plus dangling 4 off vertex 1.
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(1, 4, 1.0);
        g.set_terminal(0, true);
        g.set_terminal(3, true);
        let mut st = ReduceStats::default();
        degree_tests(&mut g, &mut st);
        // The whole terminal path contracts away: the instance is solved
        // by degree tests alone with the optimal cost fixed (the dangling
        // vertex 4 becomes irrelevant once ≤ 1 terminal remains).
        assert!(g.num_terminals() <= 1);
        assert_eq!(g.fixed_cost, 3.0);
        assert!(st.degree_contracted >= 1);
        assert!(g.terminals_connected());
    }

    #[test]
    fn degree1_terminal_contracts_and_fixes() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 5.0);
        g.add_edge(1, 2, 7.0);
        g.set_terminal(0, true);
        g.set_terminal(2, true);
        let mut st = ReduceStats::default();
        degree_tests(&mut g, &mut st);
        // Both terminals have degree 1: everything is mandatory.
        assert_eq!(g.fixed_cost, 12.0);
        assert!(g.num_terminals() <= 1);
    }

    #[test]
    fn sd_deletes_dominated_edge() {
        // Triangle where 0-2 (cost 5) is dominated by 0-1-2 (cost 3).
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        let dominated = g.add_edge(0, 2, 5.0);
        g.set_terminal(0, true);
        g.set_terminal(2, true);
        let mut st = ReduceStats::default();
        assert!(sd_test(&mut g, 100, &mut st));
        assert!(!g.edge(dominated).alive);
        assert_eq!(st.sd_deleted, 1);
    }

    #[test]
    fn sd_keeps_needed_edges() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        let direct = g.add_edge(0, 2, 2.5); // cheaper than the path
        g.set_terminal(0, true);
        g.set_terminal(2, true);
        let mut st = ReduceStats::default();
        sd_test(&mut g, 100, &mut st);
        assert!(g.edge(direct).alive);
    }

    #[test]
    fn full_reduce_solves_easy_instance() {
        // A path instance reduces to nothing: the optimum is fully fixed.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 3.0);
        g.set_terminal(0, true);
        g.set_terminal(3, true);
        let stats = reduce(&mut g, &ReduceParams::default());
        assert!(stats.total_eliminations() > 0);
        assert!(g.num_terminals() <= 1);
        assert_eq!(g.fixed_cost, 6.0);
    }

    #[test]
    fn da_tests_delete_hopeless_vertices() {
        // Terminals 0,1 joined by a cost-1 edge; vertex 2 hangs far away
        // with two expensive edges (degree 2, so degree tests alone would
        // merge rather than delete — DA bound test should kill it).
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 2, 10.0);
        g.add_edge(1, 2, 10.0);
        g.set_terminal(0, true);
        g.set_terminal(1, true);
        let stats = reduce(&mut g, &ReduceParams::default());
        assert!(!g.is_node_alive(2) || g.degree(2) == 0);
        assert!(stats.total_eliminations() > 0);
    }

    #[test]
    fn reductions_preserve_optimum() {
        // Verify on a small instance by brute force: optimum before ==
        // fixed_cost + optimum after.
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 3.0);
        g.add_edge(0, 3, 1.0);
        g.add_edge(3, 4, 4.0);
        g.add_edge(4, 2, 1.0);
        g.add_edge(1, 5, 1.0);
        g.add_edge(5, 2, 1.0);
        g.set_terminal(0, true);
        g.set_terminal(2, true);
        let brute_before = brute_force_opt(&g);
        let stats = reduce(&mut g, &ReduceParams::default());
        let _ = stats;
        let after = if g.num_terminals() <= 1 { 0.0 } else { brute_force_opt(&g) };
        assert!(
            (brute_before - (g.fixed_cost + after)).abs() < 1e-9,
            "before {brute_before}, fixed {} + after {after}",
            g.fixed_cost
        );
    }

    /// Exponential-time exact SPG oracle for tiny graphs: try all edge
    /// subsets.
    fn brute_force_opt(g: &Graph) -> f64 {
        let edges: Vec<u32> = g.alive_edges().collect();
        let m = edges.len();
        assert!(m <= 20);
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << m) {
            let subset: Vec<u32> =
                (0..m).filter(|i| mask >> i & 1 == 1).map(|i| edges[i]).collect();
            let t = crate::tree::SteinerTree::new(g, subset);
            if t.is_valid(g) && t.cost < best {
                best = t.cost;
            }
        }
        best
    }
}
