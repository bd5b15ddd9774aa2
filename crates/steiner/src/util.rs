//! Small algorithmic utilities shared by the Steiner components:
//! union–find, the one shortest-path search and minimum spanning trees.

use crate::graph::Graph;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Union–find with path halving and union by size.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    /// Unites the sets of `a` and `b`; returns false if already joined.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] { (ra, rb) } else { (rb, ra) };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        true
    }

    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// A min-heap entry of the shortest-path searches: `BinaryHeap` pops the
/// least distance first, ties broken by the least vertex.
#[derive(PartialEq)]
pub(crate) struct MinEntry(pub f64, pub u32);
impl Eq for MinEntry {}
impl PartialOrd for MinEntry {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for MinEntry {
    fn cmp(&self, o: &Self) -> Ordering {
        o.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal).then(o.1.cmp(&self.1))
    }
}

/// The crate's one Dijkstra, resumable: a multi-source search over `n`
/// vertices that a caller can stop at a settled vertex, give further
/// sources and continue. `dist[v]` is ∞ where `v` is not reached,
/// `pred[v]` the `via` of the arc that last lowered `dist[v]` (`u32::MAX`
/// at sources and unreached vertices). The heap pops by (distance,
/// vertex) ascending, a stale entry is skipped, and a vertex is relaxed
/// only by more than `1e-15`, so of equally short paths the first found
/// in pop order wins. A vertex whose distance falls after it was relaxed
/// is relaxed again, so a continued search ends with the distances a
/// search from scratch from all its sources would find.
pub(crate) struct Search {
    pub dist: Vec<f64>,
    pub pred: Vec<u32>,
    heap: BinaryHeap<MinEntry>,
}

impl Search {
    pub fn new(n: usize) -> Self {
        Search { dist: vec![f64::INFINITY; n], pred: vec![u32::MAX; n], heap: BinaryHeap::new() }
    }

    /// Makes `v` a source: distance 0 and no predecessor.
    pub fn add_source(&mut self, v: usize) {
        self.pred[v] = u32::MAX;
        if self.dist[v] != 0.0 {
            self.dist[v] = 0.0;
            self.heap.push(MinEntry(0.0, v as u32));
        }
    }

    /// Settles vertices in pop order, relaxing the arcs `(head, weight,
    /// via)` that `arcs(v)` yields, until `stop` accepts a settled
    /// vertex; returns that vertex unrelaxed, still queued, or `None`
    /// once every reached vertex is relaxed.
    pub fn run<I: Iterator<Item = (usize, f64, u32)>>(
        &mut self,
        arcs: impl Fn(usize) -> I,
        mut stop: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        while let Some(MinEntry(d, v)) = self.heap.pop() {
            let v = v as usize;
            if d > self.dist[v] {
                continue;
            }
            if stop(v) {
                self.heap.push(MinEntry(d, v as u32));
                return Some(v);
            }
            for (w, weight, via) in arcs(v) {
                let nd = d + weight;
                if nd < self.dist[w] - 1e-15 {
                    self.dist[w] = nd;
                    self.pred[w] = via;
                    self.heap.push(MinEntry(nd, w as u32));
                }
            }
        }
        None
    }
}

/// A [`Search`] from `sources` run to the end: `(dist, pred)`.
pub(crate) fn shortest_paths<I: Iterator<Item = (usize, f64, u32)>>(
    n: usize,
    sources: impl IntoIterator<Item = usize>,
    arcs: impl Fn(usize) -> I,
) -> (Vec<f64>, Vec<u32>) {
    let mut search = Search::new(n);
    for s in sources {
        search.add_source(s);
    }
    search.run(arcs, |_| false);
    (search.dist, search.pred)
}

/// The alive edges at `v` as arcs of [`shortest_paths`]: `(other end,
/// weights[e], e)`, so `pred` holds edge ids.
pub(crate) fn edge_arcs<'a>(
    g: &'a Graph,
    weights: &'a [f64],
    v: usize,
) -> impl Iterator<Item = (usize, f64, u32)> + 'a {
    g.incident(v).map(move |e| (g.edge(e).other(v as u32) as usize, weights[e as usize], e))
}

/// Kruskal MST over the subgraph induced by `in_set` (alive vertices with
/// `in_set[v] = true`). Returns edge ids of the forest (an MST per
/// connected component).
pub fn mst_on_subset(g: &Graph, in_set: &[bool]) -> Vec<u32> {
    let mut edges: Vec<u32> = g
        .alive_edges()
        .filter(|&e| {
            let ed = g.edge(e);
            in_set[ed.u as usize] && in_set[ed.v as usize]
        })
        .collect();
    edges.sort_by(|&a, &b| g.edge(a).cost.partial_cmp(&g.edge(b).cost).unwrap_or(Ordering::Equal));
    let mut uf = UnionFind::new(g.num_nodes());
    let mut out = Vec::new();
    for e in edges {
        let ed = g.edge(e);
        if uf.union(ed.u as usize, ed.v as usize) {
            out.push(e);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualascent::redcost_distances;
    use crate::heur::real_weights;
    use crate::sap::SapGraph;
    use proptest::prelude::*;

    fn diamond() -> Graph {
        //    1
        //  /   \
        // 0     3       0-1:1, 1-3:1, 0-2:2, 2-3:2, 0-3:5
        //  \   /
        //    2
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(0, 2, 2.0);
        g.add_edge(2, 3, 2.0);
        g.add_edge(0, 3, 5.0);
        g.set_terminal(0, true);
        g.set_terminal(3, true);
        g
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 2));
        uf.union(2, 3);
        uf.union(0, 3);
        assert!(uf.same(1, 2));
    }

    #[test]
    fn mst_spans_cheaply() {
        let g = diamond();
        let in_set = vec![true; 4];
        let mst = mst_on_subset(&g, &in_set);
        let cost: f64 = mst.iter().map(|&e| g.edge(e).cost).sum();
        assert_eq!(mst.len(), 3);
        assert_eq!(cost, 4.0); // edges 0-1, 1-3, 0-2
    }

    #[test]
    fn mst_respects_subset() {
        let g = diamond();
        let in_set = vec![true, false, true, true]; // exclude vertex 1
        let mst = mst_on_subset(&g, &in_set);
        let cost: f64 = mst.iter().map(|&e| g.edge(e).cost).sum();
        assert_eq!(cost, 4.0); // 0-2 (2) + 2-3 (2)
    }

    /// All-pairs distances over `arcs` (tail, head, weight) by
    /// Floyd–Warshall; `d[i][i] = 0`.
    fn floyd_warshall(n: usize, arcs: impl Iterator<Item = (usize, usize, f64)>) -> Vec<Vec<f64>> {
        let mut d = vec![vec![f64::INFINITY; n]; n];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        for (u, v, w) in arcs {
            d[u][v] = d[u][v].min(w);
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    d[i][j] = d[i][j].min(d[i][k] + d[k][j]);
                }
            }
        }
        d
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(64)))]
        /// The kernel in each of its uses against Floyd–Warshall. Vertex
        /// kinds: 0 deleted from the graph, 1 terminal, 2 search source,
        /// 3 plain, 4 dead in the SAP view only (its arcs stay, as in the
        /// in-tree reductions). One edge in five is deleted. Weights are
        /// multiples of 0.5, zero included, so every sum is exact. The
        /// undirected search runs from the terminals and sources, and
        /// walking `pred` back from a reached vertex must end at a source
        /// after a path of length `dist`.
        #[test]
        fn shortest_paths_match_floyd_warshall(
            n in 1usize..=12,
            edges in prop::collection::vec((0usize..12, 0usize..12, 0u8..8, 0u8..5), 0..36),
            kinds in prop::collection::vec(0u8..5, 12),
            arc_weights in prop::collection::vec(0u8..8, 72),
        ) {
            let mut g = Graph::new(n);
            for &(u, v, w, life) in &edges {
                let (u, v) = (u % n, v % n);
                if u != v {
                    let e = g.add_edge(u, v, 0.5 * w as f64);
                    if life == 0 {
                        g.delete_edge(e);
                    }
                }
            }
            for (v, kind) in kinds.iter().enumerate().take(n) {
                match kind {
                    0 => g.delete_node(v),
                    1 => g.set_terminal(v, true),
                    _ => {}
                }
            }
            let weights = real_weights(&g);

            // TM's use: undirected, per-edge weights, multi-source, `pred`.
            let is_source = |v: usize| kinds[v] == 1 || kinds[v] == 2;
            let sources = (0..n).filter(|&v| is_source(v));
            let (dist, pred) = shortest_paths(n, sources, |v| edge_arcs(&g, &weights, v));
            let d = floyd_warshall(n, g.alive_edges().flat_map(|e| {
                let ed = g.edge(e);
                let (u, v) = (ed.u as usize, ed.v as usize);
                [(u, v, ed.cost), (v, u, ed.cost)]
            }));
            for v in 0..n {
                let expect = (0..n).filter(|&s| is_source(s)).map(|s| d[s][v]);
                let expect = expect.fold(f64::INFINITY, f64::min);
                prop_assert_eq!(dist[v], expect, "vertex {}", v);
                if dist[v].is_finite() {
                    let (mut u, mut len, mut steps) = (v, 0.0, 0);
                    while pred[u] != u32::MAX {
                        len += weights[pred[u] as usize];
                        u = g.edge(pred[u]).other(u as u32) as usize;
                        steps += 1;
                        prop_assert!(steps < n, "pred cycles at {}", v);
                    }
                    prop_assert!(is_source(u), "pred of {} ends at non-source {}", v, u);
                    prop_assert_eq!(len, dist[v]);
                }
            }

            // The dual-ascent reductions' use: directed reduced costs.
            let Some(root) = g.terminals().next() else { return Ok(()) };
            let mut sap = SapGraph::from_graph(&g, root);
            for (alive, &kind) in sap.node_alive.iter_mut().zip(&kinds) {
                *alive &= kind != 4;
            }
            let redcost: Vec<f64> =
                (0..sap.num_arcs()).map(|a| 0.5 * arc_weights[a] as f64).collect();
            let (from_root, to_terminals) = redcost_distances(&sap, &redcost, root);
            let d = floyd_warshall(n, sap.arcs.iter().zip(&redcost).filter_map(|(arc, &w)| {
                let (t, h) = (arc.tail as usize, arc.head as usize);
                (sap.node_alive[t] && sap.node_alive[h]).then_some((t, h, w))
            }));
            for v in 0..n {
                prop_assert_eq!(from_root[v], d[root][v], "from root to {}", v);
                let expect = (0..n).filter(|&t| sap.terminal[t]).map(|t| d[v][t]);
                let expect = expect.fold(f64::INFINITY, f64::min);
                prop_assert_eq!(to_terminals[v], expect, "from {} to the terminals", v);
            }
        }
    }
}
