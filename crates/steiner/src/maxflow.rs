//! Dinic max-flow / min-cut on small directed graphs with real-valued
//! capacities — the separation engine for the directed cut constraints
//! (4) of Formulation 1. With the LP point as capacities, a root–sink
//! max flow below 1 proves some cut violated, and every min cut of that
//! flow is one; other violated cuts may exist that are no min cut. One
//! flow gives the two extremal min cuts: the vertices the root reaches
//! in the residual network ([`MaxFlow::min_cut_source_side`]) and those
//! that reach the sink ([`MaxFlow::min_cut_sink_side`]).

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
    /// The BFS queue and the cut searches' stack, kept between calls.
    queue: Vec<u32>,
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
            queue: Vec::new(),
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
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s as u32);
        let mut next = 0;
        while let Some(&v) = self.queue.get(next) {
            next += 1;
            let v = v as usize;
            for &a in &self.adj[v] {
                let a = a as usize;
                let w = self.head[a] as usize;
                if self.cap[a] > EPS && self.level[w] < 0 {
                    self.level[w] = self.level[v] + 1;
                    self.queue.push(w as u32);
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

    /// After a `max_flow` that stayed below its limit, the source side of
    /// a min cut: `side[v]` tells whether `v` is reachable from `s` in the
    /// residual network. The smallest source side of any min cut.
    pub fn min_cut_source_side(&mut self, s: usize, side: &mut Vec<bool>) {
        self.residual_search(s, false, side);
    }

    /// After a `max_flow` that stayed below its limit, the sink side of a
    /// min cut: `side[v]` tells whether `v` reaches `t` in the residual
    /// network. The smallest sink side of any min cut, so its cut is the
    /// one next to `t`.
    pub fn min_cut_sink_side(&mut self, t: usize, side: &mut Vec<bool>) {
        self.residual_search(t, true, side);
    }

    /// Marks in `seen` the vertices reachable from `from` over residual
    /// arcs of capacity `> EPS`, followed backwards if `backwards`.
    fn residual_search(&mut self, from: usize, backwards: bool, seen: &mut Vec<bool>) {
        seen.clear();
        seen.resize(self.n, false);
        self.queue.clear();
        self.queue.push(from as u32);
        seen[from] = true;
        while let Some(v) = self.queue.pop() {
            for &a in &self.adj[v as usize] {
                let a = a as usize;
                let w = self.head[a] as usize;
                // Backwards, `a` stands for its partner, the arc `w → v`.
                let cap = if backwards { self.cap[a ^ 1] } else { self.cap[a] };
                if cap > EPS && !seen[w] {
                    seen[w] = true;
                    self.queue.push(w as u32);
                }
            }
        }
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

    fn source_side(mf: &mut MaxFlow, s: usize) -> Vec<bool> {
        let mut side = Vec::new();
        mf.min_cut_source_side(s, &mut side);
        side
    }

    fn sink_side(mf: &mut MaxFlow, t: usize) -> Vec<bool> {
        let mut side = Vec::new();
        mf.min_cut_sink_side(t, &mut side);
        side
    }

    /// The capacity of the arcs leaving `side` (negative capacities count
    /// as 0, as in the network).
    fn cut_capacity(arcs: &[(usize, usize)], caps: &[f64], side: &[bool]) -> f64 {
        arcs.iter()
            .zip(caps)
            .filter(|(&(u, v), _)| side[u] && !side[v])
            .map(|(_, c)| c.max(0.0))
            .sum()
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
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(64)))]
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
                prop_assert_eq!(source_side(&mut reused, 0), source_side(&mut fresh, 0));
                prop_assert_eq!(sink_side(&mut reused, *t), sink_side(&mut fresh, *t));
            }
        }

        /// A flow below its limit is a max flow, and both residual
        /// searches give a min cut of it: the root's side and the sink's
        /// side are disjoint, each holds its own end only, and the arcs
        /// leaving the source side, like those entering the sink side,
        /// carry exactly the flow.
        #[test]
        fn both_extremal_cuts_carry_the_flow(net in networks()) {
            let (n, arcs, rounds) = net;
            for (caps, t, capped) in &rounds {
                let limit = if *capped { 1.0 } else { f64::INFINITY };
                let mut mf = build(n, &arcs, caps);
                let flow = mf.max_flow(0, *t, limit);
                if flow >= limit - 1e-6 {
                    continue;
                }
                let (s_side, t_side) = (source_side(&mut mf, 0), sink_side(&mut mf, *t));
                prop_assert!(s_side[0] && !t_side[0]);
                prop_assert!(t_side[*t] && !s_side[*t]);
                prop_assert!((0..n).all(|v| !(s_side[v] && t_side[v])), "the sides overlap");
                let outside_t: Vec<bool> = t_side.iter().map(|&b| !b).collect();
                for (name, side) in [("source-side", &s_side), ("sink-side", &outside_t)] {
                    let cap = cut_capacity(&arcs, caps, side);
                    prop_assert!((cap - flow).abs() < 1e-6, "{} cut {} vs flow {}", name, cap, flow);
                }
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
        assert_eq!(source_side(&mut mf, 0), vec![true, true, false]);
        assert_eq!(sink_side(&mut mf, 2), vec![false, false, true]);
    }

    #[test]
    fn two_bottlenecks_give_two_cuts() {
        // 0 → 1 → 2 with two equal bottlenecks: the root's min cut is
        // the first arc, the sink's the second.
        let mut mf = MaxFlow::new(3);
        mf.add_arc(0, 1, 0.5);
        mf.add_arc(1, 2, 0.5);
        assert!((mf.max_flow(0, 2, 1.0) - 0.5).abs() < 1e-9);
        assert_eq!(source_side(&mut mf, 0), vec![true, false, false]);
        assert_eq!(sink_side(&mut mf, 2), vec![false, false, true]);
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
        let cut = source_side(&mut mf, 0);
        assert!(cut[0] && !cut[3]);
        assert!(cut[1] && cut[2]);
        // Next to the sink the same cut: only 3 reaches 3.
        assert_eq!(sink_side(&mut mf, 3), vec![false, false, false, true]);
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
