//! Wong's dual ascent for the Steiner arborescence problem (§3.1: run
//! after presolving to select initial cut rows, provide a strong lower
//! bound, and guide a primal heuristic).
//!
//! The implementation grows, for each active terminal, the set of
//! vertices that reach it through zero-reduced-cost arcs, and raises the
//! dual of the corresponding directed cut by the minimum residual on the
//! entering arcs. The byproducts are exactly what SCIP-Jack uses:
//!
//! * a lower bound valid for the whole instance,
//! * reduced costs powering bound-based and extended reductions,
//! * a zero-reduced-cost subgraph on which the shortest-path heuristic
//!   finds strong primal solutions,
//! * the saturated cuts, installed as the initial LP rows.

use crate::sap::SapGraph;
use crate::util::shortest_paths;

/// Result of a dual ascent run.
#[derive(Clone, Debug)]
pub struct DualAscent {
    /// The lower bound Σ dual raises (excludes any fixed cost).
    pub bound: f64,
    /// Reduced cost per arc of the [`SapGraph`].
    pub redcost: Vec<f64>,
    /// The directed cuts that were raised, as vertex masks (head side).
    /// Each corresponds to a (now saturated) constraint of type (4).
    pub cuts: Vec<Vec<bool>>,
}

/// Runs dual ascent on `sap`. `keep_cuts` bounds how many raised cuts are
/// recorded for LP initialization (the most recent ones are kept — they
/// are the largest and strongest).
pub fn dual_ascent(sap: &SapGraph, keep_cuts: usize) -> DualAscent {
    let n = sap.n;
    let mut redcost: Vec<f64> = sap.arcs.iter().map(|a| a.cost).collect();
    let mut bound = 0.0;
    let mut active: Vec<usize> = sap.sinks().collect();
    let mut cuts: Vec<Vec<bool>> = Vec::new();
    // Scratch buffers.
    let mut in_w = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut guard = 0usize;
    let max_iters = 8 * sap.num_arcs().max(64);

    while let Some(&t) = active.first() {
        guard += 1;
        if guard > max_iters {
            break; // numerical safety; bound stays valid
        }
        // W = vertices with a zero-reduced-cost path *to* t.
        in_w.iter_mut().for_each(|b| *b = false);
        stack.clear();
        in_w[t] = true;
        stack.push(t);
        let mut hit_root = false;
        while let Some(v) = stack.pop() {
            if v == sap.root {
                hit_root = true;
                break;
            }
            for &a in &sap.inc[v] {
                if redcost[a as usize] <= 1e-12 {
                    let u = sap.arcs[a as usize].tail as usize;
                    if !in_w[u] && sap.node_alive[u] {
                        in_w[u] = true;
                        stack.push(u);
                    }
                }
            }
        }
        if hit_root {
            active.remove(0);
            continue;
        }
        // Entering arcs of W and the minimum residual.
        let mut delta = f64::INFINITY;
        for v in 0..n {
            if !in_w[v] {
                continue;
            }
            for &a in &sap.inc[v] {
                let u = sap.arcs[a as usize].tail as usize;
                if !in_w[u] && sap.node_alive[u] {
                    delta = delta.min(redcost[a as usize]);
                }
            }
        }
        if !delta.is_finite() || delta <= 0.0 {
            // t is unreachable from the root — the instance (or this
            // subgraph) is infeasible; report an infinite bound.
            bound = f64::INFINITY;
            break;
        }
        for v in 0..n {
            if !in_w[v] {
                continue;
            }
            for &a in &sap.inc[v] {
                let u = sap.arcs[a as usize].tail as usize;
                if !in_w[u] && sap.node_alive[u] {
                    redcost[a as usize] = (redcost[a as usize] - delta).max(0.0);
                }
            }
        }
        bound += delta;
        cuts.push(in_w.clone());
        if cuts.len() > keep_cuts {
            cuts.remove(0);
        }
        // Round-robin: move t to the back so other terminals also grow.
        active.rotate_left(1);
    }

    DualAscent { bound, redcost, cuts }
}

/// Reduced-cost distances of `sap` under the per-arc `redcost`:
/// `from_root[v]` along arcs from `root` to `v`, and `to_terminals[v]`
/// from `v` to its nearest terminal (one search over the reversed arcs
/// from all terminals). Dead vertices are never entered.
pub fn redcost_distances(sap: &SapGraph, redcost: &[f64], root: usize) -> (Vec<f64>, Vec<f64>) {
    let (from_root, _) = shortest_paths(sap.n, [root], |v| {
        sap.out[v]
            .iter()
            .map(|&a| (sap.arcs[a as usize].head as usize, redcost[a as usize], a))
            .filter(|&(w, _, _)| sap.node_alive[w])
    });
    let terminals = (0..sap.n).filter(|&t| sap.terminal[t]);
    let (to_terminals, _) = shortest_paths(sap.n, terminals, |v| {
        sap.inc[v]
            .iter()
            .map(|&a| (sap.arcs[a as usize].tail as usize, redcost[a as usize], a))
            .filter(|&(u, _, _)| sap.node_alive[u])
    });
    (from_root, to_terminals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path4() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 3.0);
        g.set_terminal(0, true);
        g.set_terminal(3, true);
        g
    }

    #[test]
    fn path_bound_is_exact() {
        let g = path4();
        let sap = SapGraph::from_graph(&g, 0);
        let da = dual_ascent(&sap, 8);
        assert!((da.bound - 6.0).abs() < 1e-9, "bound = {}", da.bound);
        assert!(!da.cuts.is_empty());
    }

    #[test]
    fn bound_is_lower_bound_on_diamond() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(0, 2, 2.0);
        g.add_edge(2, 3, 2.0);
        g.set_terminal(0, true);
        g.set_terminal(3, true);
        let sap = SapGraph::from_graph(&g, 0);
        let da = dual_ascent(&sap, 8);
        // OPT = 2 (path 0-1-3).
        assert!(da.bound <= 2.0 + 1e-9);
        assert!(da.bound > 0.0);
    }

    #[test]
    fn star_with_three_terminals() {
        // center 0 root? root must be terminal: terminals 1,2,3; star costs 1.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(0, 3, 1.0);
        g.set_terminal(1, true);
        g.set_terminal(2, true);
        g.set_terminal(3, true);
        let sap = SapGraph::from_graph(&g, 1);
        let da = dual_ascent(&sap, 8);
        // OPT = 3; dual ascent must reach ≥ 2 here (it is exact on trees).
        assert!(da.bound <= 3.0 + 1e-9);
        assert!(da.bound >= 2.0 - 1e-9, "bound = {}", da.bound);
    }

    #[test]
    fn infeasible_instance_detected() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        // vertex 2 isolated
        g.set_terminal(0, true);
        g.set_terminal(2, true);
        let sap = SapGraph::from_graph(&g, 0);
        let da = dual_ascent(&sap, 4);
        assert!(da.bound.is_infinite());
    }

    #[test]
    fn reduced_cost_distances() {
        let g = path4();
        let sap = SapGraph::from_graph(&g, 0);
        let da = dual_ascent(&sap, 8);
        let (dfr, dtt) = redcost_distances(&sap, &da.redcost, 0);
        // After full ascent the path to the terminal is saturated.
        assert!(dfr[3] < 1e-9);
        for &d in dtt.iter().take(4) {
            assert!(d < f64::INFINITY);
        }
        assert_eq!(dtt[0], 0.0);
    }
}
