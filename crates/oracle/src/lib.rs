//! Exact Steiner tree optima for small terminal sets, independent of the
//! solver stack.
//!
//! The Erickson–Monma–Veinott dynamic program over terminal subsets: with
//! one terminal `r` set aside, `t[S][v]` is the cost of a cheapest tree
//! spanning the terminal subset `S` and the vertex `v`. Singletons are
//! shortest-path distances; a larger `S` first merges two trees at `v`,
//! `t[S][v] = min over A ⊂ S of t[A][v] + t[S∖A][v]`, and then lets `v`
//! move along shortest paths, one Dijkstra run with every vertex
//! labelled `t[S][v]` at the start. The optimum is `t[T∖{r}][r]`. Time
//! `O(3^k·n + 2^k·m·log n)` and memory `2^k·n` for `k + 1` terminals:
//! instant at `k ≤ 14` on a few hundred vertices.
//!
//! The input is plain `(n, edges, terminals)`; the crate has no
//! dependencies, so it shares neither code nor data structures with the
//! solvers whose optima it checks.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Terminal sets this large would need `2^(k−1)·n` labels; the DP is
/// meant for the small sets benchmark and test instances have.
pub const MAX_TERMINALS: usize = 24;

/// The cost of a minimum Steiner tree of the undirected graph on
/// vertices `0..n` with `edges` `(u, v, cost)` (costs ≥ 0; parallel
/// edges and loops allowed) spanning `terminals`. `None` when the
/// terminals are not connected. Repeated terminals count once.
///
/// # Panics
/// On a vertex out of range, a negative or NaN cost, or more than
/// [`MAX_TERMINALS`] distinct terminals.
pub fn steiner_tree_cost(
    n: usize,
    edges: &[(usize, usize, f64)],
    terminals: &[usize],
) -> Option<f64> {
    let graph = Adjacency::new(n, edges);
    let mut terms: Vec<usize> = terminals.to_vec();
    terms.sort_unstable();
    terms.dedup();
    assert!(terms.iter().all(|&t| t < n), "terminal out of range");
    assert!(terms.len() <= MAX_TERMINALS, "{} terminals: too many for the DP", terms.len());
    let Some(root) = terms.pop() else { return Some(0.0) };
    let k = terms.len();
    if k == 0 {
        return Some(0.0);
    }
    let full = (1usize << k) - 1;
    // t[S·n + v], S over the nonempty subsets of `terms`.
    let mut t = vec![f64::INFINITY; (full + 1) * n];
    let mut heap = BinaryHeap::new();
    for (i, &term) in terms.iter().enumerate() {
        let s = 1 << i;
        let row = &mut t[s * n..(s + 1) * n];
        row[term] = 0.0;
        graph.relax(row, &mut heap);
    }
    for s in 1..=full {
        if s.is_power_of_two() {
            continue;
        }
        // Both halves of a split are proper subsets of S, so smaller masks.
        let (done, later) = t.split_at_mut(s * n);
        let row = &mut later[..n];
        // Each split {A, S∖A} once: A holds S's lowest terminal.
        let low = s & s.wrapping_neg();
        let rest = s ^ low;
        let mut b = rest;
        loop {
            let (a, c) = (b | low, rest ^ b);
            if c != 0 {
                let (ta, tc) = (&done[a * n..(a + 1) * n], &done[c * n..(c + 1) * n]);
                for ((m, &x), &y) in row.iter_mut().zip(ta).zip(tc) {
                    *m = m.min(x + y);
                }
            }
            if b == 0 {
                break;
            }
            b = (b - 1) & rest;
        }
        graph.relax(row, &mut heap);
    }
    let best = t[full * n + root];
    best.is_finite().then_some(best)
}

/// The graph in compressed adjacency form.
struct Adjacency {
    start: Vec<usize>,
    /// `(neighbour, cost)` for every edge end.
    arcs: Vec<(usize, f64)>,
}

impl Adjacency {
    fn new(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut degree = vec![0usize; n + 1];
        for &(u, v, c) in edges {
            assert!(u < n && v < n, "edge ({u}, {v}) out of range for {n} vertices");
            assert!(c >= 0.0, "edge ({u}, {v}) has cost {c}");
            degree[u + 1] += 1;
            degree[v + 1] += 1;
        }
        for i in 0..n {
            degree[i + 1] += degree[i];
        }
        let start = degree;
        let mut fill = start.clone();
        let mut arcs = vec![(0, 0.0); 2 * edges.len()];
        for &(u, v, c) in edges {
            arcs[fill[u]] = (v, c);
            fill[u] += 1;
            arcs[fill[v]] = (u, c);
            fill[v] += 1;
        }
        Adjacency { start, arcs }
    }

    /// Dijkstra from every vertex at once, each starting at its label:
    /// afterwards `label[v] = min over u of label[u] + dist(u, v)`.
    fn relax(&self, label: &mut [f64], heap: &mut BinaryHeap<Label>) {
        heap.clear();
        heap.extend(
            label.iter().enumerate().filter(|(_, d)| d.is_finite()).map(|(v, &d)| Label(d, v)),
        );
        while let Some(Label(d, u)) = heap.pop() {
            if d > label[u] {
                continue;
            }
            for &(v, c) in &self.arcs[self.start[u]..self.start[u + 1]] {
                if d + c < label[v] {
                    label[v] = d + c;
                    heap.push(Label(d + c, v));
                }
            }
        }
    }
}

/// A tentative distance in the Dijkstra heap, smallest first.
struct Label(f64, usize);

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Label {}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimum over every set of Steiner vertices of the minimum spanning
    /// tree of the subgraph induced by it and the terminals.
    fn brute_force(n: usize, edges: &[(usize, usize, f64)], terminals: &[usize]) -> Option<f64> {
        let others: Vec<usize> = (0..n).filter(|v| !terminals.contains(v)).collect();
        let mut best: Option<f64> = None;
        for mask in 0..1u32 << others.len() {
            let mut inside = vec![false; n];
            for &t in terminals {
                inside[t] = true;
            }
            for (i, &v) in others.iter().enumerate() {
                inside[v] |= mask >> i & 1 == 1;
            }
            // Kruskal over the induced edges.
            let mut sorted: Vec<_> =
                edges.iter().filter(|e| inside[e.0] && inside[e.1]).copied().collect();
            sorted.sort_by(|a, b| a.2.total_cmp(&b.2));
            let mut parent: Vec<usize> = (0..n).collect();
            fn find(p: &mut [usize], mut x: usize) -> usize {
                while p[x] != x {
                    p[x] = p[p[x]];
                    x = p[x];
                }
                x
            }
            let (mut cost, mut joined) = (0.0, 0);
            for (u, v, c) in sorted {
                let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
                if ru != rv {
                    parent[ru] = rv;
                    cost += c;
                    joined += 1;
                }
            }
            if joined + 1 == inside.iter().filter(|&&b| b).count() && best.is_none_or(|b| cost < b)
            {
                best = Some(cost);
            }
        }
        best
    }

    #[test]
    fn trivial_terminal_sets_cost_nothing() {
        assert_eq!(steiner_tree_cost(3, &[(0, 1, 5.0)], &[]), Some(0.0));
        assert_eq!(steiner_tree_cost(3, &[(0, 1, 5.0)], &[2]), Some(0.0));
        assert_eq!(steiner_tree_cost(3, &[(0, 1, 5.0)], &[1, 1]), Some(0.0));
    }

    #[test]
    fn disconnected_terminals_have_no_tree() {
        assert_eq!(steiner_tree_cost(4, &[(0, 1, 1.0), (2, 3, 1.0)], &[0, 3]), None);
    }

    /// A star whose centre is no terminal: the tree uses it instead of
    /// the dearer rim.
    #[test]
    fn star_uses_its_steiner_centre() {
        let edges = [(0, 3, 2.0), (1, 3, 2.0), (2, 3, 2.0), (0, 1, 3.0), (1, 2, 3.0), (0, 2, 3.0)];
        assert_eq!(steiner_tree_cost(4, &edges, &[0, 1, 2]), Some(6.0));
        // Parallel edges and loops change nothing but the cheapest copy.
        let more = [&edges[..], &[(0, 3, 1.0), (3, 3, 0.5)]].concat();
        assert_eq!(steiner_tree_cost(4, &more, &[0, 1, 2]), Some(5.0));
    }

    /// Random graphs with up to 11 vertices against the enumeration of
    /// Steiner vertex sets.
    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..200 {
            let n = 2 + next(10) as usize;
            let m = n - 1 + next(2 * n as u64) as usize;
            let edges: Vec<(usize, usize, f64)> = (0..m)
                .map(|_| (next(n as u64) as usize, next(n as u64) as usize, 1.0 + next(9) as f64))
                .collect();
            let k = 1 + next(n as u64) as usize;
            let terminals: Vec<usize> = (0..k).map(|_| next(n as u64) as usize).collect();
            let mut distinct = terminals.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(
                steiner_tree_cost(n, &edges, &terminals),
                brute_force(n, &edges, &distinct),
                "case {case}: n {n}, edges {edges:?}, terminals {terminals:?}"
            );
        }
    }
}
