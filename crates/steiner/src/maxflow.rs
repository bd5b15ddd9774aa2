//! Dinic max-flow / min-cut on small directed graphs with real-valued
//! capacities — the separation engine for the directed cut constraints
//! (4) of Formulation 1: violated cuts are exactly min cuts of value
//! < 1 in the LP-solution-capacitated SAP graph.

/// A max-flow problem instance. Arcs are directed; reverse (residual)
/// arcs are managed internally.
pub struct MaxFlow {
    n: usize,
    /// per arc: (head, capacity); arcs stored in pairs (forward, residual).
    head: Vec<u32>,
    cap: Vec<f64>,
    adj: Vec<Vec<u32>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

const EPS: f64 = 1e-9;

impl MaxFlow {
    pub fn new(n: usize) -> Self {
        MaxFlow {
            n,
            head: Vec::new(),
            cap: Vec::new(),
            adj: vec![Vec::new(); n],
            level: vec![0; n],
            iter: vec![0; n],
        }
    }

    /// Adds a directed arc `u → v` with capacity `cap`; returns its index.
    pub fn add_arc(&mut self, u: usize, v: usize, cap: f64) -> usize {
        let id = self.head.len();
        self.head.push(v as u32);
        self.cap.push(cap.max(0.0));
        self.adj[u].push(id as u32);
        self.head.push(u as u32);
        self.cap.push(0.0);
        self.adj[v].push(id as u32 + 1);
        id
    }

    /// Undoes every flow: forward arc `k` (the `k`-th [`MaxFlow::add_arc`])
    /// gets capacity `max(caps[k], 0)`, its residual arc 0. The arcs and
    /// their adjacency order stay, so a reset network runs exactly as a
    /// freshly built one with these capacities.
    pub fn reset_capacities(&mut self, caps: &[f64]) {
        assert_eq!(2 * caps.len(), self.cap.len(), "one capacity per arc");
        for (pair, &c) in self.cap.chunks_exact_mut(2).zip(caps) {
            pair[0] = c.max(0.0);
            pair[1] = 0.0;
        }
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &a in &self.adj[v] {
                let a = a as usize;
                let w = self.head[a] as usize;
                if self.cap[a] > EPS && self.level[w] < 0 {
                    self.level[w] = self.level[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, v: usize, t: usize, f: f64) -> f64 {
        if v == t {
            return f;
        }
        while self.iter[v] < self.adj[v].len() {
            let a = self.adj[v][self.iter[v]] as usize;
            let w = self.head[a] as usize;
            if self.cap[a] > EPS && self.level[w] == self.level[v] + 1 {
                let d = self.dfs(w, t, f.min(self.cap[a]));
                if d > EPS {
                    self.cap[a] -= d;
                    self.cap[a ^ 1] += d;
                    return d;
                }
            }
            self.iter[v] += 1;
        }
        0.0
    }

    /// Computes the max flow from `s` to `t`, capped at `limit` (pass
    /// `f64::INFINITY` for the true max flow). The cap matters for
    /// separation: once the flow reaches 1 the cut cannot be violated,
    /// so we stop early.
    pub fn max_flow(&mut self, s: usize, t: usize, limit: f64) -> f64 {
        assert_ne!(s, t);
        let mut flow = 0.0;
        while flow < limit - EPS && self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, limit - flow);
                if f <= EPS {
                    break;
                }
                flow += f;
                if flow >= limit - EPS {
                    break;
                }
            }
        }
        flow
    }

    /// After `max_flow`, the source side of a min cut: vertices reachable
    /// from `s` in the residual network.
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(v) = stack.pop() {
            for &a in &self.adj[v] {
                let a = a as usize;
                let w = self.head[a] as usize;
                if self.cap[a] > EPS && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(n: usize, arcs: &[(usize, usize)], caps: &[f64]) -> MaxFlow {
        let mut mf = MaxFlow::new(n);
        for (&(u, v), &c) in arcs.iter().zip(caps) {
            mf.add_arc(u, v, c);
        }
        mf
    }

    /// Capacities over the arcs, a sink, and whether the flow is capped
    /// at 1 (as separation caps it) or not.
    type Round = (Vec<f64>, usize, bool);

    /// A digraph on `n` vertices (source 0) and a sequence of rounds.
    fn networks() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, Vec<Round>)> {
        (3usize..9, 1usize..24).prop_flat_map(|(n, m)| {
            let arcs = prop::collection::vec((0..n, 1..n), m).prop_map(move |arcs| {
                arcs.into_iter().map(|(u, d)| (u, (u + d) % n)).collect::<Vec<_>>()
            });
            let round = (prop::collection::vec(-0.5f64..2.0, m), 1..n, any::<bool>());
            (Just(n), arcs, prop::collection::vec(round, 1..6))
        })
    }

    proptest! {
        /// One network reset and solved for sink after sink gives the flow
        /// and the min cut of a freshly built network for each.
        #[test]
        fn reset_network_solves_as_a_fresh_one(net in networks()) {
            let (n, arcs, rounds) = net;
            let mut reused = build(n, &arcs, &rounds[0].0);
            for (caps, t, capped) in &rounds {
                let limit = if *capped { 1.0 } else { f64::INFINITY };
                reused.reset_capacities(caps);
                let mut fresh = build(n, &arcs, caps);
                let (got, want) = (reused.max_flow(0, *t, limit), fresh.max_flow(0, *t, limit));
                prop_assert_eq!(got.to_bits(), want.to_bits());
                prop_assert_eq!(reused.min_cut_source_side(0), fresh.min_cut_source_side(0));
            }
        }
    }

    #[test]
    fn classic_network() {
        // s=0, t=3; two disjoint paths of caps 2 and 3 → max flow 5.
        let mut mf = MaxFlow::new(4);
        mf.add_arc(0, 1, 2.0);
        mf.add_arc(1, 3, 2.0);
        mf.add_arc(0, 2, 3.0);
        mf.add_arc(2, 3, 3.0);
        assert!((mf.max_flow(0, 3, f64::INFINITY) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_respected() {
        let mut mf = MaxFlow::new(3);
        mf.add_arc(0, 1, 10.0);
        mf.add_arc(1, 2, 0.5);
        assert!((mf.max_flow(0, 2, f64::INFINITY) - 0.5).abs() < 1e-9);
        let cut = mf.min_cut_source_side(0);
        assert_eq!(cut, vec![true, true, false]);
    }

    #[test]
    fn limit_stops_early() {
        let mut mf = MaxFlow::new(2);
        mf.add_arc(0, 1, 100.0);
        let f = mf.max_flow(0, 1, 1.0);
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_cut_separates_s_from_t() {
        // Diamond with a weak middle edge.
        let mut mf = MaxFlow::new(4);
        mf.add_arc(0, 1, 1.0);
        mf.add_arc(0, 2, 1.0);
        mf.add_arc(1, 3, 0.25);
        mf.add_arc(2, 3, 0.25);
        let f = mf.max_flow(0, 3, f64::INFINITY);
        assert!((f - 0.5).abs() < 1e-9);
        let cut = mf.min_cut_source_side(0);
        assert!(cut[0] && !cut[3]);
        assert!(cut[1] && cut[2]);
    }

    #[test]
    fn flow_conservation_via_value() {
        // Max-flow equals min-cut: brute-check a tiny random-ish graph.
        let mut mf = MaxFlow::new(5);
        mf.add_arc(0, 1, 1.5);
        mf.add_arc(0, 2, 2.0);
        mf.add_arc(1, 3, 1.0);
        mf.add_arc(2, 3, 1.0);
        mf.add_arc(1, 2, 0.5);
        mf.add_arc(3, 4, 1.75);
        let f = mf.max_flow(0, 4, f64::INFINITY);
        assert!((f - 1.75).abs() < 1e-9); // bottleneck at 3→4
    }
}
