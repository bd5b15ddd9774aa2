//! Primal heuristics of the SCIP-Jack kind (§3.1): the repeated
//! shortest-path **TM heuristic** (Takahashi–Matsuyama) with optional
//! edge-weight biasing (used LP-guided inside branch-and-cut), MST
//! pruning, and a vertex insertion/elimination local search.

use crate::graph::Graph;
use crate::tree::SteinerTree;
use crate::util::{edge_arcs, mst_on_subset, shortest_paths, Search, UnionFind};
use std::cmp::Ordering;

/// Builds a pruned Steiner tree spanning the terminals using only the
/// vertices in `in_set` (must contain all terminals). Returns `None`
/// when the terminals are not connected within the subset.
pub fn tree_from_vertices(g: &Graph, in_set: &[bool]) -> Option<SteinerTree> {
    let forest = mst_on_subset(g, in_set);
    // Check terminal connectivity within the forest.
    let mut uf = UnionFind::new(g.num_nodes());
    for &e in &forest {
        let ed = g.edge(e);
        uf.union(ed.u as usize, ed.v as usize);
    }
    let mut terms = g.terminals();
    if let Some(first) = terms.next() {
        for t in terms {
            if !uf.same(first, t) {
                return None;
            }
        }
    }
    Some(SteinerTree::new(g, forest).pruned(g))
}

/// The TM (repeated shortest path) construction heuristic from a given
/// start terminal, walking shortest paths under `weights` but pricing the
/// final tree with real costs. Returns `None` if some terminal is
/// unreachable.
///
/// One search per start: each connected path's vertices become sources
/// at distance 0 and the search continues to the next terminal it
/// settles, the nearest unconnected one by (distance, vertex). With exact
/// path sums the paths are those of a search from scratch per terminal
/// (see `scratch_pred`).
pub fn tm_from(g: &Graph, start: usize, weights: &[f64]) -> Option<SteinerTree> {
    let n = g.num_nodes();
    let mut in_tree = vec![false; n];
    in_tree[start] = true;
    let mut remaining: usize = g.terminals().filter(|&t| t != start).count();
    let mut search = Search::new(n);
    search.add_source(start);
    let mut path = Vec::new();
    while remaining > 0 {
        let t = search.run(|v| edge_arcs(g, weights, v), |v| g.is_terminal(v) && !in_tree[v])?;
        // Read the whole path back into the tree before any of its
        // vertices becomes a source and changes `dist`.
        let mut v = t;
        while !in_tree[v] {
            path.push(v);
            let e = scratch_pred(g, weights, &search, v);
            if e == u32::MAX {
                break;
            }
            v = g.edge(e).other(v as u32) as usize;
        }
        // A path may pass through further terminals: count each.
        for v in path.drain(..) {
            in_tree[v] = true;
            remaining -= usize::from(g.is_terminal(v));
            search.add_source(v);
        }
    }
    tree_from_vertices(g, &in_tree)
}

/// The edge into `w` that a search from scratch records: of the alive
/// edges `e = (u, w)` with `dist[u] < dist[w]` and `dist[u] + weights[e]
/// == dist[w]`, the one with least (`dist[u]`, `u`, position of `e` at
/// `u`), which is the first relaxation in (distance, vertex) pop order to
/// reach `dist[w]`. A continued search may have lowered `dist[w]` along
/// another path first, so its own `pred[w]` is used only when no edge
/// qualifies (a zero-weight edge, or a float sum an ulp off).
fn scratch_pred(g: &Graph, weights: &[f64], search: &Search, w: usize) -> u32 {
    let dist = &search.dist;
    let mut best: Option<(usize, u32)> = None;
    for e in g.incident(w) {
        let u = g.edge(e).other(w as u32) as usize;
        if !(dist[u] < dist[w] && dist[u] + weights[e as usize] == dist[w]) {
            continue;
        }
        let better = match best {
            None => true,
            Some((bu, be)) if bu == u => g.incident(u).find(|&f| f == e || f == be) == Some(e),
            Some((bu, _)) => (dist[u], u) < (dist[bu], bu),
        };
        if better {
            best = Some((u, e));
        }
    }
    best.map_or(search.pred[w], |(_, e)| e)
}

/// Runs TM from several start terminals (up to `starts`) and returns the
/// best tree found, if any.
pub fn tm_best(g: &Graph, starts: usize, weights: &[f64]) -> Option<SteinerTree> {
    let mut best: Option<SteinerTree> = None;
    for (i, t) in g.terminals().enumerate() {
        if i >= starts {
            break;
        }
        if let Some(tree) = tm_from(g, t, weights) {
            if best.as_ref().is_none_or(|b| tree.cost < b.cost) {
                best = Some(tree);
            }
        }
    }
    best
}

/// Unbiased real-cost weight vector for `g`.
pub fn real_weights(g: &Graph) -> Vec<f64> {
    g.edges.iter().map(|e| e.cost).collect()
}

/// LP-biased weights: `cost · (1 − y_e)` with `y_e` the (undirected) LP
/// value of the edge — paths the LP likes become cheap, which is how
/// SCIP-Jack guides TM inside branch-and-cut.
pub fn lp_biased_weights(g: &Graph, edge_lp: &[f64]) -> Vec<f64> {
    g.edges
        .iter()
        .enumerate()
        .map(|(i, e)| {
            e.cost * (1.0 - edge_lp.get(i).copied().unwrap_or(0.0).clamp(0.0, 1.0)) + 1e-9
        })
        .collect()
}

/// Vertex insertion / elimination local search: repeatedly tries to add a
/// promising non-tree vertex or drop a tree Steiner vertex, rebuilding
/// the MST-pruned tree, and keeps strict improvements. `max_passes`
/// bounds the outer loop.
pub fn local_search(g: &Graph, tree: &SteinerTree, max_passes: usize) -> SteinerTree {
    let n = g.num_nodes();
    let mut best = tree.clone();
    for _ in 0..max_passes {
        let mut improved = false;
        let mut in_set = vec![false; n];
        for v in best.vertices(g) {
            in_set[v] = true;
        }
        for t in g.terminals() {
            in_set[t] = true;
        }
        // Insertion candidates: alive non-tree vertices with ≥ 2 tree
        // neighbours.
        for v in g.alive_nodes() {
            if in_set[v] {
                continue;
            }
            let nbrs =
                g.incident(v).filter(|&e| in_set[g.edge(e).other(v as u32) as usize]).count();
            if nbrs < 2 {
                continue;
            }
            in_set[v] = true;
            if let Some(cand) = tree_from_vertices(g, &in_set) {
                if cand.cost < best.cost - 1e-9 {
                    best = cand;
                    improved = true;
                    break;
                }
            }
            in_set[v] = false;
        }
        if improved {
            continue;
        }
        // Elimination candidates: non-terminal tree vertices.
        for v in best.vertices(g) {
            if g.is_terminal(v) {
                continue;
            }
            in_set[v] = false;
            if let Some(cand) = tree_from_vertices(g, &in_set) {
                if cand.cost < best.cost - 1e-9 {
                    best = cand;
                    improved = true;
                    break;
                }
            }
            in_set[v] = true;
        }
        if !improved {
            break;
        }
    }
    best
}

/// A key path of a Steiner tree: a maximal tree path whose endpoints are
/// *key vertices* (terminals or tree vertices of degree ≥ 3) and whose
/// interior vertices are non-terminal degree-2 Steiner vertices.
#[derive(Clone, Debug)]
struct KeyPath {
    /// Key-vertex endpoints.
    ends: (usize, usize),
    /// Tree edges along the path, in walk order.
    edges: Vec<u32>,
    /// Interior (degree-2, non-terminal) vertices.
    interior: Vec<usize>,
}

/// Tree adjacency: incident tree-edge ids per vertex.
fn tree_adjacency(g: &Graph, tree: &SteinerTree) -> Vec<Vec<u32>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); g.num_nodes()];
    for &e in &tree.edges {
        let ed = g.edge(e);
        adj[ed.u as usize].push(e);
        adj[ed.v as usize].push(e);
    }
    adj
}

/// Decomposes `tree` into its key paths.
fn key_paths(g: &Graph, tree: &SteinerTree) -> Vec<KeyPath> {
    let adj = tree_adjacency(g, tree);
    let is_key = |v: usize| adj[v].len() >= 3 || g.is_terminal(v);
    let mut seen_edge = vec![false; g.edges.len()];
    let mut paths = Vec::new();
    for v in 0..g.num_nodes() {
        if adj[v].is_empty() || !is_key(v) {
            continue;
        }
        for &start in &adj[v] {
            if seen_edge[start as usize] {
                continue;
            }
            // Walk from the key vertex through degree-2 Steiner vertices
            // until the next key vertex.
            let mut edges = vec![start];
            let mut interior = Vec::new();
            seen_edge[start as usize] = true;
            let mut cur = g.edge(start).other(v as u32) as usize;
            while !is_key(cur) {
                interior.push(cur);
                // `cur` has tree degree 2 (a pruned tree has no Steiner
                // leaves): continue over the edge we did not arrive by.
                let came = *edges.last().unwrap();
                let Some(&next) = adj[cur].iter().find(|&&e| e != came) else {
                    break;
                };
                seen_edge[next as usize] = true;
                edges.push(next);
                cur = g.edge(next).other(cur as u32) as usize;
            }
            paths.push(KeyPath { ends: (v, cur), edges, interior });
        }
    }
    paths
}

/// Key-path exchange: removes one key path, splitting the tree in two,
/// and reconnects the parts with a shortest path. Returns an improving
/// tree if one was found.
fn try_key_path_exchange(g: &Graph, tree: &SteinerTree, path: &KeyPath) -> Option<SteinerTree> {
    let n = g.num_nodes();
    let removed: Vec<bool> = {
        let mut r = vec![false; g.edges.len()];
        for &e in &path.edges {
            r[e as usize] = true;
        }
        r
    };
    // Components of the remaining tree edges.
    let mut uf = UnionFind::new(n);
    for &e in &tree.edges {
        if !removed[e as usize] {
            let ed = g.edge(e);
            uf.union(ed.u as usize, ed.v as usize);
        }
    }
    let (a, b) = path.ends;
    if uf.same(a, b) {
        return None; // degenerate (parallel path survived)
    }
    let interior: Vec<bool> = {
        let mut s = vec![false; n];
        for &v in &path.interior {
            s[v] = true;
        }
        s
    };
    // Side-A vertex set (tree vertices connected to end `a`, interiors
    // dropped), used as multi-source for the reconnect search.
    let mut in_a = vec![false; n];
    let mut in_b = vec![false; n];
    for v in tree.vertices(g) {
        if interior[v] {
            continue;
        }
        if uf.same(v, a) {
            in_a[v] = true;
        } else if uf.same(v, b) {
            in_b[v] = true;
        }
    }
    let weights = real_weights(g);
    let (dist, pred) =
        shortest_paths(n, (0..n).filter(|&v| in_a[v]), |v| edge_arcs(g, &weights, v));
    // Cheapest reconnection endpoint on side B.
    let target = (0..n)
        .filter(|&v| in_b[v] && dist[v].is_finite())
        .min_by(|&x, &y| dist[x].partial_cmp(&dist[y]).unwrap_or(Ordering::Equal))?;
    let mut in_set = vec![false; n];
    for v in 0..n {
        in_set[v] = in_a[v] || in_b[v];
    }
    let mut v = target;
    while !in_a[v] {
        in_set[v] = true;
        let e = pred[v];
        if e == u32::MAX {
            break;
        }
        v = g.edge(e).other(v as u32) as usize;
    }
    let cand = tree_from_vertices(g, &in_set)?;
    (cand.cost < tree.cost - 1e-9).then_some(cand)
}

/// Key-vertex elimination: removes a non-terminal key vertex together
/// with its incident key paths and reconnects the remaining fragments
/// TM-style (repeated shortest paths between terminal components).
fn try_key_vertex_elimination(g: &Graph, tree: &SteinerTree, v: usize) -> Option<SteinerTree> {
    let n = g.num_nodes();
    let mut in_set = vec![false; n];
    for u in tree.vertices(g) {
        in_set[u] = true;
    }
    in_set[v] = false;
    for p in key_paths(g, tree) {
        if p.ends.0 == v || p.ends.1 == v {
            for &u in &p.interior {
                in_set[u] = false;
            }
        }
    }
    for t in g.terminals() {
        in_set[t] = true;
    }
    let weights = real_weights(g);
    // Reconnect until the terminals are spanned again (each round links
    // at least one more terminal component, so this terminates).
    for _ in 0..g.num_terminals().max(1) {
        if let Some(cand) = tree_from_vertices(g, &in_set) {
            return (cand.cost < tree.cost - 1e-9).then_some(cand);
        }
        let mut uf = UnionFind::new(n);
        for e in g.alive_edges() {
            let ed = g.edge(e);
            if in_set[ed.u as usize] && in_set[ed.v as usize] {
                uf.union(ed.u as usize, ed.v as usize);
            }
        }
        let t0 = g.terminals().next()?;
        let sources: Vec<usize> = (0..n).filter(|&u| in_set[u] && uf.same(u, t0)).collect();
        let source_set: Vec<bool> = {
            let mut s = vec![false; n];
            for &u in &sources {
                s[u] = true;
            }
            s
        };
        let (dist, pred) = shortest_paths(n, sources, |v| edge_arcs(g, &weights, v));
        let t = g
            .terminals()
            .filter(|&t| !source_set[t])
            .min_by(|&x, &y| dist[x].partial_cmp(&dist[y]).unwrap_or(Ordering::Equal))?;
        if !dist[t].is_finite() {
            return None;
        }
        let mut u = t;
        while !source_set[u] {
            in_set[u] = true;
            let e = pred[u];
            if e == u32::MAX {
                break;
            }
            u = g.edge(e).other(u as u32) as usize;
        }
    }
    None
}

/// Uchoa–Werneck-style key-vertex local search: alternates **key-path
/// exchange** (replace one key path by a cheapest reconnection of the two
/// tree halves) and **key-vertex elimination** (drop a non-terminal key
/// vertex with its incident key paths and re-span the terminals),
/// keeping strict improvements. Strictly stronger than the single-vertex
/// insertion/elimination moves of [`local_search`] because whole paths
/// move at once. Deterministic; `max_passes` bounds the outer loop.
pub fn key_vertex_local_search(g: &Graph, tree: &SteinerTree, max_passes: usize) -> SteinerTree {
    let mut best = tree.clone();
    for _ in 0..max_passes {
        let mut improved = false;
        for p in key_paths(g, &best) {
            if let Some(cand) = try_key_path_exchange(g, &best, &p) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            let adj = tree_adjacency(g, &best);
            let key_vertices: Vec<usize> =
                (0..g.num_nodes()).filter(|&v| adj[v].len() >= 3 && !g.is_terminal(v)).collect();
            for v in key_vertices {
                if let Some(cand) = try_key_vertex_elimination(g, &best, v) {
                    best = cand;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            // Key moves only rewire or shrink the key-vertex set; a pass
            // of single-vertex insertion/elimination can grow it, so fall
            // back to it when key moves stall. This makes the combined
            // search a strict superset of [`local_search`].
            let cand = local_search(g, &best, 1);
            if cand.cost < best.cost - 1e-9 {
                best = cand;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A 6-vertex instance where the optimum uses a Steiner vertex.
    fn steiner_instance() -> Graph {
        // Terminals 0, 1, 2 in a triangle of cost-4 edges; center 3
        // connected to each terminal with cost 2 → star via 3 costs 6 < 8.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 4.0);
        g.add_edge(1, 2, 4.0);
        g.add_edge(0, 2, 4.0);
        g.add_edge(0, 3, 2.0);
        g.add_edge(1, 3, 2.0);
        g.add_edge(2, 3, 2.0);
        g.set_terminal(0, true);
        g.set_terminal(1, true);
        g.set_terminal(2, true);
        g
    }

    #[test]
    fn tm_finds_a_valid_tree() {
        let g = steiner_instance();
        let w = real_weights(&g);
        let t = tm_from(&g, 0, &w).unwrap();
        assert!(t.is_valid(&g));
        assert!(t.cost <= 8.0 + 1e-9);
    }

    #[test]
    fn tm_best_beats_single_start_or_ties() {
        let g = steiner_instance();
        let w = real_weights(&g);
        let single = tm_from(&g, 0, &w).unwrap();
        let multi = tm_best(&g, 3, &w).unwrap();
        assert!(multi.cost <= single.cost + 1e-9);
        assert!(multi.is_valid(&g));
    }

    #[test]
    fn local_search_reaches_star_optimum() {
        let g = steiner_instance();
        let w = real_weights(&g);
        let start = tm_from(&g, 0, &w).unwrap();
        let improved = local_search(&g, &start, 10);
        assert!(improved.is_valid(&g));
        assert!((improved.cost - 6.0).abs() < 1e-9, "cost = {}", improved.cost);
    }

    #[test]
    fn tm_detects_disconnected() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.set_terminal(0, true);
        g.set_terminal(2, true);
        let w = real_weights(&g);
        assert!(tm_from(&g, 0, &w).is_none());
    }

    #[test]
    fn tm_counts_every_terminal_on_a_path() {
        // The path from 0 to its nearest terminal 1 (least vertex at
        // distance 1) passes through terminal 2 over a cost-0 edge.
        let mut g = Graph::new(3);
        g.add_edge(0, 2, 1.0);
        g.add_edge(2, 1, 0.0);
        for t in 0..3 {
            g.set_terminal(t, true);
        }
        let w = real_weights(&g);
        for start in 0..3 {
            let t = tm_from(&g, start, &w).expect("the instance is connected");
            assert!(t.is_valid(&g), "start {start}");
            assert_eq!(t.cost, 1.0, "start {start}");
        }
    }

    /// TM with a search from scratch from the whole tree for every
    /// terminal it connects, the construction [`tm_from`] continues one
    /// search for; every terminal a path passes is connected with it.
    fn tm_from_scratch(g: &Graph, start: usize, weights: &[f64]) -> Option<SteinerTree> {
        let n = g.num_nodes();
        let mut in_tree = vec![false; n];
        in_tree[start] = true;
        loop {
            let (dist, pred) =
                shortest_paths(n, (0..n).filter(|&v| in_tree[v]), |v| edge_arcs(g, weights, v));
            let Some(t) = g
                .terminals()
                .filter(|&t| !in_tree[t])
                .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap_or(Ordering::Equal))
            else {
                break;
            };
            if !dist[t].is_finite() {
                return None;
            }
            let mut v = t;
            while !in_tree[v] {
                in_tree[v] = true;
                let e = pred[v];
                if e == u32::MAX {
                    break;
                }
                v = g.edge(e).other(v as u32) as usize;
            }
        }
        tree_from_vertices(g, &in_tree)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(64)))]
        /// The continued search against a search from scratch per
        /// terminal, from every start. Vertex kinds: 0 deleted, 1
        /// terminal, else plain; one edge in five is deleted, and random
        /// pairs give parallel edges. Weight modes: 0 positive integers,
        /// 1 positive multiples of 0.5 (every path sum exact: the trees
        /// must be the same), 2 multiples of 0.5 with zeros, 3
        /// `lp_biased_weights` (a tree exactly when the reference finds
        /// one, and a valid one).
        #[test]
        fn tm_matches_search_from_scratch(
            n in 1usize..=40,
            edges in prop::collection::vec((0usize..40, 0usize..40, 0u8..8, 0u8..5), 0..120),
            kinds in prop::collection::vec(0u8..6, 40),
            mode in 0u8..4,
            lp in prop::collection::vec(0u8..5, 120),
        ) {
            let mut g = Graph::new(n);
            for &(u, v, w, life) in &edges {
                let (u, v) = (u % n, v % n);
                if u == v {
                    continue;
                }
                let cost = match mode {
                    0 => 1.0 + w as f64,
                    1 => 0.5 * (1 + w) as f64,
                    _ => 0.5 * w as f64,
                };
                let e = g.add_edge(u, v, cost);
                if life == 0 {
                    g.delete_edge(e);
                }
            }
            for (v, kind) in kinds.iter().enumerate().take(n) {
                match kind {
                    0 => g.delete_node(v),
                    1 => g.set_terminal(v, true),
                    _ => {}
                }
            }
            let weights = if mode == 3 {
                let edge_lp: Vec<f64> = lp.iter().map(|&y| 0.25 * y as f64).collect();
                lp_biased_weights(&g, &edge_lp)
            } else {
                real_weights(&g)
            };
            for start in g.terminals() {
                let got = tm_from(&g, start, &weights);
                let want = tm_from_scratch(&g, start, &weights);
                if mode <= 1 {
                    let got = got.map(|t| (t.edges, t.cost));
                    let want = want.map(|t| (t.edges, t.cost));
                    prop_assert_eq!(got, want, "start {}", start);
                } else {
                    prop_assert_eq!(got.is_some(), want.is_some(), "start {}", start);
                    if let Some(t) = got {
                        prop_assert!(t.is_valid(&g), "start {}: invalid tree", start);
                    }
                }
            }
        }
    }

    #[test]
    fn lp_bias_prefers_lp_supported_edges() {
        let g = steiner_instance();
        // LP fully supports the star edges (ids 3, 4, 5).
        let mut lp = vec![0.0; 6];
        lp[3] = 1.0;
        lp[4] = 1.0;
        lp[5] = 1.0;
        let w = lp_biased_weights(&g, &lp);
        let t = tm_from(&g, 0, &w).unwrap();
        assert!((t.cost - 6.0).abs() < 1e-9);
    }

    /// Two terminals, an expensive 2-edge path and a cheap 3-edge path.
    /// Single-vertex insertion cannot move between them (each interior
    /// cheap-path vertex has only one tree neighbour), but a key-path
    /// exchange swaps the whole path at once.
    fn two_path_instance() -> Graph {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 2.5); // expensive path 0-1-2, cost 5
        g.add_edge(1, 2, 2.5);
        g.add_edge(0, 3, 1.0); // cheap path 0-3-4-2, cost 3
        g.add_edge(3, 4, 1.0);
        g.add_edge(4, 2, 1.0);
        g.set_terminal(0, true);
        g.set_terminal(2, true);
        g
    }

    #[test]
    fn key_path_exchange_escapes_vertex_insertion_minimum() {
        let g = two_path_instance();
        let start = SteinerTree::new(&g, vec![0, 1]);
        assert!((start.cost - 5.0).abs() < 1e-9);
        // The single-vertex moves are stuck: 3 and 4 each have one tree
        // neighbour, so insertion never fires and cost 5 is a local
        // optimum for `local_search`.
        let stuck = local_search(&g, &start, 10);
        assert!((stuck.cost - 5.0).abs() < 1e-9, "vertex moves should be stuck at 5");
        // The key-path exchange replaces the whole expensive path.
        let improved = key_vertex_local_search(&g, &start, 10);
        assert!(improved.is_valid(&g));
        assert!((improved.cost - 3.0).abs() < 1e-9, "cost = {}", improved.cost);
    }

    #[test]
    fn key_vertex_elimination_drops_expensive_center() {
        // Star through center 3 costs 6; the terminal triangle costs
        // 1.9 + 1.9 = 3.8 — eliminating the key vertex finds it.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.9);
        g.add_edge(1, 2, 1.9);
        g.add_edge(0, 2, 1.9);
        g.add_edge(0, 3, 2.0);
        g.add_edge(1, 3, 2.0);
        g.add_edge(2, 3, 2.0);
        for t in 0..3 {
            g.set_terminal(t, true);
        }
        let star = SteinerTree::new(&g, vec![3, 4, 5]);
        let improved = key_vertex_local_search(&g, &star, 10);
        assert!(improved.is_valid(&g));
        assert!((improved.cost - 3.8).abs() < 1e-9, "cost = {}", improved.cost);
    }

    #[test]
    fn key_vertex_search_reaches_star_optimum() {
        let g = steiner_instance();
        let start = SteinerTree::new(&g, vec![0, 1]); // 0-1, 1-2: cost 8
        let improved = key_vertex_local_search(&g, &start, 10);
        assert!(improved.is_valid(&g));
        assert!((improved.cost - 6.0).abs() < 1e-9, "cost = {}", improved.cost);
    }

    #[test]
    fn key_vertex_search_is_deterministic_and_never_worsens() {
        let g = crate::gen::hypercube(4, crate::gen::CostScheme::Perturbed, 7);
        let w = real_weights(&g);
        let start = tm_best(&g, 3, &w).unwrap();
        let a = key_vertex_local_search(&g, &start, 5);
        let b = key_vertex_local_search(&g, &start, 5);
        assert!(a.is_valid(&g));
        assert!(a.cost <= start.cost + 1e-9);
        assert_eq!(a.edges, b.edges, "same input must give the same tree");
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn tree_from_vertices_requires_connectivity() {
        let g = steiner_instance();
        let mut in_set = vec![false; 4];
        in_set[0] = true;
        in_set[1] = true;
        in_set[2] = true; // terminals only: triangle connects them
        let t = tree_from_vertices(&g, &in_set).unwrap();
        assert!((t.cost - 8.0).abs() < 1e-9);
    }
}
