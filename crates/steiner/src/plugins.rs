//! CIP plugins implementing SCIP-Jack's branch-and-cut core on the
//! flow-balance directed cut formulation (Formulation 1 of the paper).
//!
//! The IP model built by [`build_model`]:
//!
//! * binary arc variables `y_a` for both orientations of every alive
//!   edge (objective = arc cost),
//! * binary coupling variables `z_v = y(δ⁻(v))` for non-terminals — these
//!   make *vertex branching* a pure bound change (`z_v = 0` deletes the
//!   vertex, `z_v = 1` adds it as a quasi-terminal), which is how the
//!   branching-decision transfer of ug-0.8.6 (§4.1) is reproduced without
//!   node-local constraints,
//! * in-degree rows `y(δ⁻(t)) = 1` for terminals, `y(δ⁻(r)) = 0`,
//! * flow-balance rows (5) `z_v ≤ y(δ⁺(v))` for non-terminals.
//!
//! The directed cut constraints (4) are exponentially many and live in
//! [`DirectedCutHandler`], separated by max-flow/min-cut both for
//! fractional LP solutions and integral candidates.

use crate::dualascent::{dual_ascent, redcost_distances};
use crate::graph::Graph;
use crate::heur::{key_vertex_local_search, local_search, lp_biased_weights, tm_best};
use crate::maxflow::MaxFlow;
use crate::sap::SapGraph;
use crate::tree::SteinerTree;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ugrs_cip::{
    BranchDecision, BranchRule, ConstraintHandler, Cut, CutBuffer, EnforceResult, HeurSchedule,
    Heuristic, Model, PrimalHeuristic, PropResult, SepaResult, SolveCtx, VarId, VarType,
};

/// Shared immutable data tying the CIP model to the Steiner instance.
#[derive(Debug)]
pub struct SpgData {
    pub graph: Graph,
    pub sap: SapGraph,
    /// CIP variable per SAP arc.
    pub arc_var: Vec<VarId>,
    /// Coupling variable per vertex (None for terminals/the root/dead).
    pub node_var: Vec<Option<VarId>>,
    pub root: usize,
}

impl SpgData {
    /// Undirected LP value per arena edge: `y_a + y_ā`.
    pub fn edge_lp_values(&self, x: &[f64]) -> Vec<f64> {
        let mut vals = vec![0.0; self.graph.edges.len()];
        for (i, arc) in self.sap.arcs.iter().enumerate() {
            vals[arc.edge as usize] += x[self.arc_var[i].0 as usize];
        }
        vals
    }

    /// Converts a Steiner tree on the (reduced) graph into a full model
    /// assignment (arcs oriented away from the root, couplings set).
    pub fn tree_to_assignment(&self, model: &Model, tree: &SteinerTree) -> Option<Vec<f64>> {
        let mut x = vec![0.0; model.num_vars()];
        // Adjacency over tree edges.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); self.graph.num_nodes()];
        for &e in &tree.edges {
            let ed = self.graph.edge(e);
            adj[ed.u as usize].push(e);
            adj[ed.v as usize].push(e);
        }
        let mut seen = vec![false; self.graph.num_nodes()];
        let mut stack = vec![self.root];
        seen[self.root] = true;
        while let Some(v) = stack.pop() {
            for &e in &adj[v] {
                let w = self.graph.edge(e).other(v as u32) as usize;
                if seen[w] {
                    continue;
                }
                seen[w] = true;
                // Find the SAP arc v → w for edge e.
                let arc = self.sap.out[v].iter().copied().find(|&a| {
                    self.sap.arcs[a as usize].edge == e
                        && self.sap.arcs[a as usize].head as usize == w
                })?;
                x[self.arc_var[arc as usize].0 as usize] = 1.0;
                if let Some(z) = self.node_var[w] {
                    x[z.0 as usize] = 1.0;
                }
                stack.push(w);
            }
        }
        // All terminals must have been reached.
        for t in self.graph.terminals() {
            if !seen[t] {
                return None;
            }
        }
        Some(x)
    }

    /// Extracts the chosen edges (arena ids) from a model assignment.
    pub fn assignment_to_edges(&self, x: &[f64]) -> Vec<u32> {
        let mut edges = Vec::new();
        for (i, arc) in self.sap.arcs.iter().enumerate() {
            if x[self.arc_var[i].0 as usize] > 0.5 {
                edges.push(arc.edge);
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

/// Builds the CIP model and the shared data for a (reduced) graph.
/// Panics if the graph has fewer than 2 terminals (those instances are
/// solved by reduction alone).
///
/// The model carries the in-degree rows, the `z` couplings and the
/// aggregated flow-balance rows (5). It leaves out the per-arc rows (6)
/// and the antiparallel rows: they are *strengthenings* (the paper notes
/// (6) does not change the LP bound but can speed up branch-and-cut),
/// and with our dense LP basis they cost more rows than they save.
pub fn build_model(g: &Graph) -> (Model, Arc<SpgData>) {
    build_model_rooted(g, SapGraph::pick_root(g))
}

/// Like [`build_model`] with an explicitly chosen root terminal (needed
/// by problem-class transformations whose gadgets assume a fixed root).
pub fn build_model_rooted(g: &Graph, root: usize) -> (Model, Arc<SpgData>) {
    assert!(g.num_terminals() >= 2, "build_model needs ≥ 2 terminals");
    assert!(g.is_terminal(root), "root must be a terminal");
    let sap = SapGraph::from_graph(g, root);
    let mut model = Model::new("spg");
    let arc_var: Vec<VarId> =
        sap.arcs.iter().map(|a| model.add_var("y", VarType::Binary, 0.0, 1.0, a.cost)).collect();
    let mut node_var: Vec<Option<VarId>> = vec![None; sap.n];
    for (v, nv) in node_var.iter_mut().enumerate() {
        if sap.node_alive[v] && !sap.terminal[v] {
            *nv = Some(model.add_var("z", VarType::Binary, 0.0, 1.0, 0.0));
        }
    }
    // In-degree rows.
    for (v, nv) in node_var.iter().enumerate() {
        if !sap.node_alive[v] {
            continue;
        }
        let in_terms: Vec<(VarId, f64)> =
            sap.inc[v].iter().map(|&a| (arc_var[a as usize], 1.0)).collect();
        if v == root {
            if !in_terms.is_empty() {
                model.add_linear(0.0, 0.0, &in_terms);
            }
        } else if sap.terminal[v] {
            model.add_linear(1.0, 1.0, &in_terms);
        } else {
            let z = nv.unwrap();
            let mut terms = in_terms;
            terms.push((z, -1.0));
            model.add_linear(0.0, 0.0, &terms);
            // Flow balance (5): z_v ≤ y(δ⁺(v)).
            let mut fb: Vec<(VarId, f64)> =
                sap.out[v].iter().map(|&a| (arc_var[a as usize], 1.0)).collect();
            fb.push((z, -1.0));
            model.add_linear(0.0, f64::INFINITY, &fb);
        }
    }
    let data = Arc::new(SpgData { graph: g.clone(), sap, arc_var, node_var, root });
    (model, data)
}

/// Registers the full SCIP-Jack plugin set on a solver for the model
/// built by [`build_model`], in-tree dual-ascent reductions included.
pub fn register_plugins(solver: &mut ugrs_cip::Solver, data: Arc<SpgData>) {
    register_plugins_with_hits(solver, data, None);
}

/// [`register_plugins`] plus an externally observable hit counter for
/// the key-vertex heuristic (incremented when it improves its start
/// tree). Pass `None` to disable counting.
pub fn register_plugins_with_hits(
    solver: &mut ugrs_cip::Solver,
    data: Arc<SpgData>,
    keyvertex_hits: Option<Arc<AtomicU64>>,
) {
    solver.add_conshdlr(Box::new(DirectedCutHandler::new(data.clone(), true)));
    solver.add_heuristic(Box::new(TmHeuristic { data: data.clone() }));
    solver.add_primal_heuristic(Box::new(KeyVertexHeuristic {
        data: data.clone(),
        hits: keyvertex_hits,
    }));
    solver.add_branchrule(Box::new(VertexBranching { data }));
}

/// The directed cut constraint handler: separation by max-flow, exact
/// feasibility checking, dual-ascent initial rows, and dual-ascent-based
/// in-tree reductions ("extended reductions deep in the B&B tree").
pub struct DirectedCutHandler {
    data: Arc<SpgData>,
    /// Max cuts added per separation round.
    max_cuts_per_round: usize,
    /// Enable dual-ascent propagation at depth > 0.
    in_tree_reductions: bool,
    round_robin: usize,
    /// The SAP graph as a max-flow network, built once: each sink's
    /// separation resets its capacities to the LP point.
    network: MaxFlow,
    /// Scratch of [`DirectedCutHandler::separate_cuts`], kept between
    /// rounds: the sinks, the LP point as arc capacities, and the two
    /// sides of a sink's min cuts.
    sinks: Vec<usize>,
    caps: Vec<f64>,
    source_side: Vec<bool>,
    sink_side: Vec<bool>,
}

impl DirectedCutHandler {
    pub fn new(data: Arc<SpgData>, in_tree_reductions: bool) -> Self {
        let mut network = MaxFlow::new(data.sap.n);
        for arc in &data.sap.arcs {
            network.add_arc(arc.tail as usize, arc.head as usize, 0.0);
        }
        DirectedCutHandler {
            sinks: data.sap.sinks().collect(),
            caps: Vec::new(),
            source_side: Vec::new(),
            sink_side: Vec::new(),
            data,
            max_cuts_per_round: 25,
            in_tree_reductions,
            round_robin: 0,
            network,
        }
    }

    /// Runs min-cut separation against the capacities in `x`; adds up to
    /// `max_cuts` violated cuts to `buf`. Returns the number added.
    ///
    /// A sink `t` whose max flow from the root stays below 1 yields two
    /// cuts: the one next to the root (head set: what the root does not
    /// reach in the residual network) and the back cut next to `t` (head
    /// set: what reaches `t`), the latter only if its arcs differ. Both
    /// carry the flow, so the LP point violates both. The root-side cuts
    /// of different sinks are mostly the same few sets; the back cuts
    /// are not.
    fn separate_cuts(&mut self, x: &[f64], buf: &mut CutBuffer, max_cuts: usize) -> usize {
        let k = self.sinks.len();
        if k == 0 {
            return 0;
        }
        let d = &self.data;
        self.caps.clear();
        self.caps.extend(d.arc_var.iter().map(|v| x[v.0 as usize]));
        let mut added = 0;
        for i in 0..k {
            if added >= max_cuts {
                break;
            }
            let t = self.sinks[(self.round_robin + i) % k];
            self.network.reset_capacities(&self.caps);
            let flow = self.network.max_flow(d.root, t, 1.0);
            if flow >= 1.0 - 1e-6 {
                continue;
            }
            self.network.min_cut_source_side(d.root, &mut self.source_side);
            self.network.min_cut_sink_side(t, &mut self.sink_side);
            debug_assert!(!self.sink_side[d.root], "a max flow below 1 leaves the root outside");
            let front = cut_terms(d, |v| !self.source_side[v]);
            let back = cut_terms(d, |v| self.sink_side[v]);
            let back = (back != front).then_some(back);
            for terms in std::iter::once(front).chain(back) {
                if !terms.is_empty() {
                    buf.add(Cut::new("dircut", 1.0, f64::INFINITY, terms));
                    added += 1;
                }
            }
        }
        self.round_robin = (self.round_robin + 1) % k;
        added
    }
}

/// The terms of the directed cut row `y(δ⁻(W)) ≥ 1` for the head set
/// `W = {v : in_w(v)}`: every SAP arc from outside `W` into it.
fn cut_terms(d: &SpgData, in_w: impl Fn(usize) -> bool) -> Vec<(VarId, f64)> {
    d.sap
        .arcs
        .iter()
        .zip(&d.arc_var)
        .filter(|(arc, _)| !in_w(arc.tail as usize) && in_w(arc.head as usize))
        .map(|(_, &var)| (var, 1.0))
        .collect()
}

impl ConstraintHandler for DirectedCutHandler {
    fn name(&self) -> &str {
        "steiner-directed-cut"
    }

    fn check(&mut self, _model: &Model, x: &[f64]) -> bool {
        // Every terminal reachable from the root via arcs with y = 1.
        let d = &self.data;
        let mut seen = vec![false; d.sap.n];
        let mut stack = vec![d.root];
        seen[d.root] = true;
        while let Some(v) = stack.pop() {
            for &a in &d.sap.out[v] {
                if x[d.arc_var[a as usize].0 as usize] > 0.5 {
                    let w = d.sap.arcs[a as usize].head as usize;
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
        }
        d.sap.sinks().all(|t| seen[t])
    }

    fn enforce(&mut self, ctx: &mut SolveCtx) -> EnforceResult {
        let x = ctx.relax_x.expect("enforce needs a relaxation solution");
        let x = x.to_vec();
        let mut buf = CutBuffer::default();
        let n = self.separate_cuts(&x, &mut buf, self.max_cuts_per_round);
        if n == 0 {
            return EnforceResult::Feasible;
        }
        for c in buf.cuts {
            ctx.cuts.add(c);
        }
        EnforceResult::AddedCuts(n)
    }

    fn separate(&mut self, ctx: &mut SolveCtx) -> SepaResult {
        let Some(x) = ctx.relax_x else {
            return SepaResult::DidNotRun;
        };
        let x = x.to_vec();
        let mut buf = CutBuffer::default();
        let n = self.separate_cuts(&x, &mut buf, self.max_cuts_per_round);
        for c in buf.cuts {
            ctx.cuts.add(c);
        }
        if n == 0 {
            SepaResult::NoCuts
        } else {
            SepaResult::AddedCuts(n)
        }
    }

    fn init_lp(&mut self, _model: &Model, cuts: &mut CutBuffer) {
        // Dual-ascent cuts as the initial rows (§3.1: "a dual-ascent
        // heuristic to select a set of constraints from (4) to be
        // included into the initial LP").
        let d = &self.data;
        let da = dual_ascent(&d.sap, 32);
        for mask in &da.cuts {
            let terms = cut_terms(d, |v| mask[v]);
            if !terms.is_empty() {
                cuts.add(Cut::new("da-cut", 1.0, f64::INFINITY, terms));
            }
        }
    }

    fn propagate(&mut self, ctx: &mut SolveCtx) -> PropResult {
        // In-tree dual-ascent reductions: on down-branched subproblems
        // (vertices deleted via z_v = 0), rebuild the reduced SAP and use
        // the DA bound + reduced costs to prune or fix arcs — the paper's
        // "extended reduction ... on these modified graphs" effect.
        if !self.in_tree_reductions || ctx.depth == 0 || !ctx.depth.is_multiple_of(4) {
            return PropResult::Nothing;
        }
        let Some(cutoff) = ctx.incumbent_obj else {
            return PropResult::Nothing;
        };
        let d = &self.data;
        // Only sound when nothing is forced *into* the solution locally.
        for (i, _) in d.sap.arcs.iter().enumerate() {
            if ctx.local_lb[d.arc_var[i].0 as usize] > 0.5 {
                return PropResult::Nothing;
            }
        }
        for v in 0..d.sap.n {
            if let Some(z) = d.node_var[v] {
                if ctx.local_lb[z.0 as usize] > 0.5 {
                    return PropResult::Nothing;
                }
            }
        }
        // Build the locally reduced view.
        let big = 1e12;
        let mut local_sap = d.sap.clone();
        for v in 0..local_sap.n {
            if let Some(z) = d.node_var[v] {
                if ctx.local_ub[z.0 as usize] < 0.5 {
                    local_sap.node_alive[v] = false;
                }
            }
        }
        for (i, arc) in local_sap.arcs.iter_mut().enumerate() {
            if ctx.local_ub[d.arc_var[i].0 as usize] < 0.5 {
                arc.cost = big; // excluded arc
            }
        }
        let da = dual_ascent(&local_sap, 0);
        if da.bound >= big {
            return PropResult::Infeasible; // some terminal got disconnected
        }
        // A child solution must *improve* on the incumbent; with integral
        // costs that means being cheaper by at least 1.
        let threshold = if integral_costs(&d.graph) { cutoff - 1.0 + 1e-6 } else { cutoff - 1e-9 };
        if da.bound > threshold {
            return PropResult::Infeasible;
        }
        // Arc fixing by reduced cost (the restricted extended test's base
        // form, applied in-tree).
        let (dfr, dtt) = redcost_distances(&local_sap, &da.redcost, d.root);
        let mut fixed = 0;
        for (i, arc) in local_sap.arcs.iter().enumerate() {
            let var = d.arc_var[i];
            if ctx.local_ub[var.0 as usize] < 0.5 {
                continue;
            }
            let t = arc.tail as usize;
            let h = arc.head as usize;
            if !local_sap.node_alive[t] || !local_sap.node_alive[h] {
                continue;
            }
            if da.bound + dfr[t] + da.redcost[i] + dtt[h] > threshold {
                ctx.tighten_ub(var, 0.0);
                fixed += 1;
            }
        }
        if fixed > 0 {
            PropResult::Reduced
        } else {
            PropResult::Nothing
        }
    }
}

fn integral_costs(g: &Graph) -> bool {
    g.alive_edges().all(|e| {
        let c = g.edge(e).cost;
        (c - c.round()).abs() < 1e-12
    })
}

/// The TM heuristic as a CIP plugin, biased by the LP solution.
pub struct TmHeuristic {
    pub data: Arc<SpgData>,
}

impl Heuristic for TmHeuristic {
    fn name(&self) -> &str {
        "steiner-tm"
    }

    fn run(&mut self, ctx: &mut SolveCtx) -> Option<Vec<f64>> {
        let x = ctx.relax_x?;
        let d = &self.data;
        let edge_lp = d.edge_lp_values(x);
        let weights = lp_biased_weights(&d.graph, &edge_lp);
        let tree = tm_best(&d.graph, 3, &weights)?;
        let tree = local_search(&d.graph, &tree, 2);
        d.tree_to_assignment(ctx.model, &tree)
    }
}

/// The Uchoa–Werneck-style key-vertex local search as a scheduled
/// [`PrimalHeuristic`]: polishes the current incumbent tree (or, absent
/// one, an LP-biased TM start) with key-path exchange, key-vertex
/// elimination, and single-vertex insertion moves. Improving trees are
/// returned to the framework, installed as incumbents, and — under UG —
/// broadcast through the incumbent exchange.
pub struct KeyVertexHeuristic {
    /// Shared instance data.
    pub data: Arc<SpgData>,
    /// Incremented whenever the search strictly improves its start tree;
    /// lets tests observe heuristic-found incumbents from outside.
    pub hits: Option<Arc<AtomicU64>>,
}

impl KeyVertexHeuristic {
    /// Builds the start tree: the incumbent when one exists, else a
    /// cheap LP-biased TM tree.
    fn start_tree(&self, ctx: &SolveCtx) -> Option<SteinerTree> {
        let d = &self.data;
        if let Some(inc) = ctx.incumbent_x {
            let edges = d.assignment_to_edges(inc);
            if !edges.is_empty() {
                let tree = SteinerTree::new(&d.graph, edges).pruned(&d.graph);
                if tree.is_valid(&d.graph) {
                    return Some(tree);
                }
            }
        }
        let x = ctx.relax_x?;
        let edge_lp = d.edge_lp_values(x);
        let weights = lp_biased_weights(&d.graph, &edge_lp);
        tm_best(&d.graph, 2, &weights)
    }
}

impl PrimalHeuristic for KeyVertexHeuristic {
    fn name(&self) -> &str {
        "steiner-keyvertex"
    }

    fn default_schedule(&self) -> HeurSchedule {
        HeurSchedule {
            // Every other depth: the search is heavier than TM, and
            // polishing the same incumbent at every node is wasted work.
            frequency: 2,
            max_calls: 512,
            // Below TM so it polishes what TM (priority 0) just found.
            priority: -1,
            ..HeurSchedule::default()
        }
    }

    fn run(&mut self, ctx: &mut SolveCtx) -> Option<Vec<f64>> {
        let start = self.start_tree(ctx)?;
        let polished = key_vertex_local_search(&self.data.graph, &start, 8);
        if polished.cost >= start.cost - 1e-9 && ctx.incumbent_x.is_some() {
            // Incumbent already key-vertex-optimal: nothing new to offer.
            return None;
        }
        if polished.cost < start.cost - 1e-9 {
            if let Some(h) = &self.hits {
                h.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.data.tree_to_assignment(ctx.model, &polished)
    }
}

/// Vertex branching: pick the non-terminal whose coupling variable is
/// most fractional (ties broken toward high degree). Falls back to the
/// framework default (arc branching) when all couplings are integral.
pub struct VertexBranching {
    pub data: Arc<SpgData>,
}

impl BranchRule for VertexBranching {
    fn name(&self) -> &str {
        "steiner-vertex"
    }

    fn branch(&mut self, ctx: &mut SolveCtx) -> Option<BranchDecision> {
        let x = ctx.relax_x?;
        let d = &self.data;
        let mut best: Option<(VarId, f64, f64)> = None; // (var, val, score)
        for v in 0..d.sap.n {
            let Some(z) = d.node_var[v] else { continue };
            let val = x[z.0 as usize];
            let frac = (val - val.round()).abs();
            if frac <= 1e-6 {
                continue;
            }
            let score = frac * (1.0 + d.graph.degree(v) as f64 / 8.0);
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((z, val, score));
            }
        }
        best.map(|(var, value, _)| BranchDecision {
            var,
            value,
            // Explore the "add as terminal" side first: it tends to find
            // solutions; deletion shrinks the graph for the other child.
            down_first: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{code_covering, CostScheme};
    use proptest::prelude::*;
    use ugrs_cip::{Settings, SolveStatus, Solver};

    fn solve_graph(g: &Graph) -> (f64, ugrs_cip::SolveResult, Arc<SpgData>) {
        let (model, data) = build_model(g);
        let mut solver = Solver::new(model, Settings::default());
        register_plugins(&mut solver, data.clone());
        let res = solver.solve(&mut ugrs_cip::NoHooks);
        (res.best_obj.unwrap_or(f64::NAN), res, data)
    }

    #[test]
    fn solves_star_instance() {
        // Optimal tree uses the Steiner center: cost 6.
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
        let (obj, res, data) = solve_graph(&g);
        assert_eq!(res.status, SolveStatus::Optimal);
        assert!((obj - 6.0).abs() < 1e-6, "obj = {obj}");
        // Extract and validate the tree.
        let edges = data.assignment_to_edges(&res.best_x.unwrap());
        let tree = SteinerTree::new(&g, edges);
        assert!(tree.is_valid(&g));
        assert!((tree.cost - 6.0).abs() < 1e-6);
    }

    #[test]
    fn solves_small_code_covering() {
        let g = code_covering(2, 3, 4, CostScheme::Perturbed, 5);
        let (obj, res, data) = solve_graph(&g);
        assert_eq!(res.status, SolveStatus::Optimal);
        let edges = data.assignment_to_edges(&res.best_x.unwrap());
        let tree = SteinerTree::new(&g, edges);
        assert!(tree.is_valid(&g));
        assert!((tree.cost - obj).abs() < 1e-6);
        // Cross-check with brute force.
        let brute = brute(&g);
        assert!((obj - brute).abs() < 1e-6, "obj {obj} vs brute {brute}");
    }

    fn brute(g: &Graph) -> f64 {
        // Enumerate vertex subsets containing the terminals; MST each.
        let opt_vertices: Vec<usize> = g.alive_nodes().filter(|&v| !g.is_terminal(v)).collect();
        let k = opt_vertices.len();
        assert!(k <= 16);
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << k) {
            let mut in_set: Vec<bool> =
                (0..g.num_nodes()).map(|v| g.is_node_alive(v) && g.is_terminal(v)).collect();
            for (i, &v) in opt_vertices.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    in_set[v] = true;
                }
            }
            if let Some(t) = crate::heur::tree_from_vertices(g, &in_set) {
                best = best.min(t.cost);
            }
        }
        best
    }

    /// A connected graph on 3–8 vertices (a spanning path plus random
    /// edges) with at least two terminals, and a point `x ∈ [0,1]` over a
    /// model's variables, a quarter each 0 and 1.
    fn graphs_and_points() -> impl Strategy<Value = (Graph, Vec<f64>)> {
        (3usize..9, 0usize..12).prop_flat_map(|(n, extra)| {
            let edges = prop::collection::vec((0..n, 1..n, 1u32..9), extra);
            let terminals = (prop::collection::vec(any::<bool>(), n), 1..n);
            let value = (0u8..4, 0.0f64..=1.0).prop_map(|(k, v)| [0.0, 1.0, v, v][k as usize]);
            let x = prop::collection::vec(value, 2 * (n - 1 + extra) + n);
            (Just(n), edges, terminals, x).prop_map(|(n, edges, (mask, t), x)| {
                let mut g = Graph::new(n);
                for v in 1..n {
                    g.add_edge(v - 1, v, 1.0);
                }
                for (u, d, c) in edges {
                    g.add_edge(u, (u + d) % n, c as f64);
                }
                for v in (0..n).filter(|&v| mask[v] || v == 0 || v == t) {
                    g.set_terminal(v, true);
                }
                (g, x)
            })
        })
    }

    /// The vertices the root cannot reach over SAP arcs outside `cut`:
    /// the largest head set `W` with `δ⁻(W) ⊆ cut`.
    fn cut_off_by(d: &SpgData, cut: &Cut) -> Vec<bool> {
        let vars: std::collections::HashSet<VarId> = cut.terms.iter().map(|&(v, _)| v).collect();
        let mut cut_off = vec![true; d.sap.n];
        let mut stack = vec![d.root];
        cut_off[d.root] = false;
        while let Some(v) = stack.pop() {
            for &a in &d.sap.out[v] {
                let w = d.sap.arcs[a as usize].head as usize;
                if cut_off[w] && !vars.contains(&d.arc_var[a as usize]) {
                    cut_off[w] = false;
                    stack.push(w);
                }
            }
        }
        cut_off
    }

    /// `min x(δ⁻(W))` over every head set `W` that holds `t` and not the
    /// root, by enumeration.
    fn brute_min_cut(d: &SpgData, x: &[f64], t: usize) -> f64 {
        let others: Vec<usize> = (0..d.sap.n).filter(|&v| v != d.root && v != t).collect();
        (0u32..1 << others.len())
            .map(|mask| {
                let mut w = vec![false; d.sap.n];
                w[t] = true;
                for (i, &v) in others.iter().enumerate() {
                    w[v] = mask >> i & 1 == 1;
                }
                cut_terms(d, |v| w[v]).iter().map(|&(v, _)| x[v.0 as usize]).sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Every cut a separation round emits is a directed cut that every
    /// Steiner arborescence crosses (some terminal is cut off from the
    /// root without its arcs) and that `x` violates. Per sink, the round
    /// emits a cut exactly when some cut next to the sink is violated,
    /// each emitted cut is a minimum one, and its two cuts differ.
    fn check_separation(g: &Graph, x: &[f64]) -> Result<(), TestCaseError> {
        let (model, d) = build_model(g);
        let x = &x[..model.num_vars()];
        let mut handler = DirectedCutHandler::new(d.clone(), false);
        let lhs = |cut: &Cut| cut.terms.iter().map(|&(v, c)| c * x[v.0 as usize]).sum::<f64>();

        let mut round = CutBuffer::default();
        let added = handler.separate_cuts(x, &mut round, handler.max_cuts_per_round);
        prop_assert_eq!(added, round.len());
        for cut in &round.cuts {
            let w = cut_off_by(&d, cut);
            prop_assert!(!w[d.root] && d.sap.sinks().any(|t| w[t]));
            prop_assert!(lhs(cut) < 1.0 - 1e-6, "x(δ⁻(W)) = {}", lhs(cut));
        }

        for t in d.sap.sinks().collect::<Vec<_>>() {
            handler.sinks = vec![t];
            let mut buf = CutBuffer::default();
            handler.separate_cuts(x, &mut buf, usize::MAX);
            let min = brute_min_cut(&d, x, t);
            prop_assert_eq!(buf.is_empty(), min >= 1.0 - 1e-6, "sink {} min cut {}", t, min);
            prop_assert!(buf.len() <= 2);
            for cut in &buf.cuts {
                prop_assert!(cut_off_by(&d, cut)[t]);
                prop_assert!((lhs(cut) - min).abs() < 1e-6, "{} vs min {}", lhs(cut), min);
            }
            if let [front, back] = &buf.cuts[..] {
                prop_assert_ne!(&front.terms, &back.terms);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(64)))]
        #[test]
        fn separated_cuts_are_violated_steiner_cuts(case in graphs_and_points()) {
            check_separation(&case.0, &case.1)?;
        }
    }

    #[test]
    fn tree_assignment_round_trip() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.set_terminal(0, true);
        g.set_terminal(2, true);
        let (model, data) = build_model(&g);
        let tree = SteinerTree::new(&g, vec![0, 1]);
        let x = data.tree_to_assignment(&model, &tree).unwrap();
        let edges = data.assignment_to_edges(&x);
        assert_eq!(edges, vec![0, 1]);
        assert!(model.check_solution(&x, 1e-6), "assignment must satisfy the rows");
    }
}
