//! Undirected graph with terminals, supporting the destructive updates
//! the reduction loop needs (edge/vertex deletion, degree-2 path merges,
//! terminal contractions) while keeping enough provenance to expand a
//! solution on the reduced graph back to original edges.

/// Edge provenance: how a (possibly reduced-graph) edge maps to original
/// edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EdgeOrigin {
    /// An edge of the original input graph (with its original id).
    Original(u32),
    /// Degree-2 merge of two arena edges (recursively expandable).
    Merged(u32, u32),
}

#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Edge {
    pub u: u32,
    pub v: u32,
    pub cost: f64,
    pub alive: bool,
    pub origin: EdgeOrigin,
}

impl Edge {
    /// The endpoint opposite to `x`.
    #[inline]
    pub fn other(&self, x: u32) -> u32 {
        if self.u == x {
            self.v
        } else {
            self.u
        }
    }
}

/// Undirected Steiner problem graph. Edges live in an append-only arena;
/// deletion and merging toggle `alive` flags so provenance stays intact.
/// Serde derives make the (reduced) instance shippable to distributed
/// worker processes, which rebuild their models from it.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Graph {
    pub(crate) edges: Vec<Edge>,
    adj: Vec<Vec<u32>>,
    terminal: Vec<bool>,
    node_alive: Vec<bool>,
    num_terminals: usize,
    /// Cost fixed into every solution by contractions of mandatory edges.
    pub fixed_cost: f64,
    /// Original edge ids fixed into every solution by contractions.
    pub fixed_edges: Vec<u32>,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
            terminal: vec![false; n],
            node_alive: vec![true; n],
            num_terminals: 0,
            fixed_cost: 0.0,
            fixed_edges: Vec::new(),
        }
    }

    /// Adds an (original) edge; returns its id. Call only during instance
    /// construction, before reductions.
    pub fn add_edge(&mut self, u: usize, v: usize, cost: f64) -> u32 {
        assert!(u != v, "self-loops are not allowed");
        assert!(cost >= 0.0, "SPG requires non-negative costs");
        let id = self.edges.len() as u32;
        self.edges.push(Edge {
            u: u as u32,
            v: v as u32,
            cost,
            alive: true,
            origin: EdgeOrigin::Original(id),
        });
        self.adj[u].push(id);
        self.adj[v].push(id);
        id
    }

    pub(crate) fn add_derived_edge(
        &mut self,
        u: u32,
        v: u32,
        cost: f64,
        origin: EdgeOrigin,
    ) -> u32 {
        let id = self.edges.len() as u32;
        self.edges.push(Edge { u, v, cost, alive: true, origin });
        self.adj[u as usize].push(id);
        self.adj[v as usize].push(id);
        id
    }

    pub fn set_terminal(&mut self, v: usize, is_terminal: bool) {
        if self.terminal[v] != is_terminal {
            self.terminal[v] = is_terminal;
            if is_terminal {
                self.num_terminals += 1;
            } else {
                self.num_terminals -= 1;
            }
        }
    }

    #[inline]
    pub fn is_terminal(&self, v: usize) -> bool {
        self.terminal[v]
    }

    #[inline]
    pub fn is_node_alive(&self, v: usize) -> bool {
        self.node_alive[v]
    }

    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Count of alive vertices.
    pub fn num_alive_nodes(&self) -> usize {
        self.node_alive.iter().filter(|a| **a).count()
    }

    pub fn num_terminals(&self) -> usize {
        self.num_terminals
    }

    /// Count of alive edges.
    pub fn num_alive_edges(&self) -> usize {
        self.edges.iter().filter(|e| e.alive).count()
    }

    pub fn edge(&self, id: u32) -> &Edge {
        &self.edges[id as usize]
    }

    /// Alive incident edges of `v`.
    pub fn incident(&self, v: usize) -> impl Iterator<Item = u32> + '_ {
        self.adj[v].iter().copied().filter(move |&e| self.edges[e as usize].alive)
    }

    /// Alive degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.incident(v).count()
    }

    /// Iterator over ids of alive edges.
    pub fn alive_edges(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.edges.len() as u32).filter(move |&e| self.edges[e as usize].alive)
    }

    /// Iterator over alive vertices.
    pub fn alive_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_nodes()).filter(move |&v| self.node_alive[v])
    }

    /// Terminals (alive).
    pub fn terminals(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive_nodes().filter(move |&v| self.terminal[v])
    }

    pub fn delete_edge(&mut self, id: u32) {
        self.edges[id as usize].alive = false;
    }

    /// Deletes a vertex together with its incident edges. Panics on
    /// terminals — deleting a terminal would change the problem.
    pub fn delete_node(&mut self, v: usize) {
        assert!(!self.terminal[v], "cannot delete a terminal");
        let ids: Vec<u32> = self.incident(v).collect();
        for e in ids {
            self.delete_edge(e);
        }
        self.node_alive[v] = false;
    }

    /// Contracts edge `id`, merging its endpoint `from` into `into`,
    /// *fixing the edge into every solution* (used when an edge is proven
    /// mandatory, e.g. the single edge of a degree-1 terminal). Updates
    /// terminal status and removes the costlier of any parallel pair.
    pub fn contract_fixing_edge(&mut self, id: u32, into: u32, from: u32) {
        let e = self.edges[id as usize].clone();
        assert!(e.alive && ((e.u == into && e.v == from) || (e.v == into && e.u == from)));
        self.fixed_cost += e.cost;
        let origs = self.expand_edge(id);
        self.fixed_edges.extend(origs);
        self.delete_edge(id);
        // Move `from`'s edges onto `into`.
        let moved: Vec<u32> = self.incident(from as usize).collect();
        for me in moved {
            let (u, v) = (self.edges[me as usize].u, self.edges[me as usize].v);
            let other = if u == from { v } else { u };
            if other == into {
                // Parallel to the contracted edge: drop it (its cost would
                // only ever add to a cycle).
                self.delete_edge(me);
                continue;
            }
            if self.edges[me as usize].u == from {
                self.edges[me as usize].u = into;
            } else {
                self.edges[me as usize].v = into;
            }
            self.adj[into as usize].push(me);
        }
        self.adj[from as usize].clear();
        if self.terminal[from as usize] {
            self.set_terminal(from as usize, false);
            self.set_terminal(into as usize, true);
        }
        self.node_alive[from as usize] = false;
        self.dedup_parallel(into as usize);
    }

    /// Keeps only the cheapest edge between `v` and each neighbor.
    pub(crate) fn dedup_parallel(&mut self, v: usize) {
        use std::collections::HashMap;
        let mut best: HashMap<u32, u32> = HashMap::new();
        let ids: Vec<u32> = self.incident(v).collect();
        for e in ids {
            let other = self.edges[e as usize].other(v as u32);
            match best.get(&other) {
                None => {
                    best.insert(other, e);
                }
                Some(&prev) => {
                    if self.edges[e as usize].cost < self.edges[prev as usize].cost {
                        self.delete_edge(prev);
                        best.insert(other, e);
                    } else {
                        self.delete_edge(e);
                    }
                }
            }
        }
    }

    /// Replaces the two edges of a degree-2 non-terminal `v` by a single
    /// merged edge (path reduction). Returns the new edge id, or `None`
    /// when a cheaper parallel edge already exists (then `v`'s edges are
    /// simply deleted).
    pub fn merge_degree2(&mut self, v: usize) -> Option<u32> {
        assert!(!self.terminal[v]);
        let inc: Vec<u32> = self.incident(v).collect();
        assert_eq!(inc.len(), 2);
        let (e1, e2) = (inc[0], inc[1]);
        let a = self.edges[e1 as usize].other(v as u32);
        let b = self.edges[e2 as usize].other(v as u32);
        let cost = self.edges[e1 as usize].cost + self.edges[e2 as usize].cost;
        self.delete_edge(e1);
        self.delete_edge(e2);
        self.node_alive[v] = false;
        if a == b {
            return None; // the two edges were parallel via v: a pure cycle
        }
        // If an existing a-b edge is at most as expensive, drop the path.
        let existing = self.incident(a as usize).find(|&e| self.edges[e as usize].other(a) == b);
        if let Some(existing) = existing {
            if self.edges[existing as usize].cost <= cost {
                return None;
            }
            self.delete_edge(existing);
        }
        Some(self.add_derived_edge(a, b, cost, EdgeOrigin::Merged(e1, e2)))
    }

    /// Expands arena edge `id` to the original edge ids it represents.
    pub fn expand_edge(&self, id: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.collect_originals(id, &mut |o| out.push(o));
        out
    }

    fn collect_originals(&self, id: u32, f: &mut impl FnMut(u32)) {
        match self.edges[id as usize].origin {
            EdgeOrigin::Original(o) => f(o),
            EdgeOrigin::Merged(a, b) => {
                self.collect_originals(a, f);
                self.collect_originals(b, f);
            }
        }
    }

    /// True if the alive graph connects all terminals (sanity check for
    /// generators and reductions).
    pub fn terminals_connected(&self) -> bool {
        let Some(start) = self.terminals().next() else {
            return true;
        };
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(v) = stack.pop() {
            for e in self.incident(v) {
                let w = self.edges[e as usize].other(v as u32) as usize;
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        self.terminals().all(|t| seen[t])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> Graph {
        // 0 - 1 - 2 - 3 with terminals 0, 3.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 3.0);
        g.set_terminal(0, true);
        g.set_terminal(3, true);
        g
    }

    #[test]
    fn basic_accessors() {
        let g = path_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_alive_edges(), 3);
        assert_eq!(g.num_terminals(), 2);
        assert_eq!(g.degree(1), 2);
        assert!(g.terminals_connected());
    }

    #[test]
    fn delete_node_removes_incident_edges() {
        let mut g = path_graph();
        g.delete_node(1);
        assert_eq!(g.num_alive_edges(), 1);
        assert!(!g.is_node_alive(1));
        assert!(!g.terminals_connected());
    }

    #[test]
    fn degree2_merge_creates_merged_edge() {
        let mut g = path_graph();
        let ne = g.merge_degree2(1).unwrap();
        assert_eq!(g.edge(ne).cost, 3.0);
        assert_eq!(g.expand_edge(ne), vec![0, 1]);
        assert!(g.terminals_connected());
        // Merge again through vertex 2: path 0-3 of cost 6.
        let ne2 = g.merge_degree2(2).unwrap();
        assert_eq!(g.edge(ne2).cost, 6.0);
        let mut ex = g.expand_edge(ne2);
        ex.sort();
        assert_eq!(ex, vec![0, 1, 2]);
    }

    #[test]
    fn degree2_merge_respects_cheaper_parallel() {
        // Triangle 0-1-2 plus cheap direct edge 0-2.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 5.0);
        g.add_edge(1, 2, 5.0);
        let _direct = g.add_edge(0, 2, 1.0);
        g.set_terminal(0, true);
        g.set_terminal(2, true);
        assert!(g.merge_degree2(1).is_none());
        assert_eq!(g.num_alive_edges(), 1);
        assert!(g.terminals_connected());
    }

    #[test]
    fn contract_fixes_edge_and_inherits_terminal() {
        let mut g = path_graph();
        // Terminal 0 has degree 1 → its edge (id 0) is mandatory.
        g.contract_fixing_edge(0, 1, 0);
        assert_eq!(g.fixed_cost, 1.0);
        assert_eq!(g.fixed_edges, vec![0]);
        assert!(g.is_terminal(1));
        assert!(!g.is_node_alive(0));
        assert_eq!(g.num_terminals(), 2);
        assert!(g.terminals_connected());
    }

    #[test]
    fn contract_dedups_parallel_edges() {
        // Triangle: contracting 0-1 creates parallel (1,2)+(0,2) → keep min.
        let mut g = Graph::new(3);
        let e01 = g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 5.0);
        g.add_edge(0, 2, 3.0);
        g.set_terminal(0, true);
        g.set_terminal(2, true);
        g.contract_fixing_edge(e01, 1, 0);
        assert_eq!(g.num_alive_edges(), 1);
        let e = g.alive_edges().next().unwrap();
        assert_eq!(g.edge(e).cost, 3.0);
    }
}
