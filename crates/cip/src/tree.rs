//! The branch-and-bound tree: node storage, open-node queue, and the
//! solver-independent subproblem description UG ships between ranks.

use crate::model::VarId;
use crate::settings::NodeSelection;
use std::collections::BinaryHeap;

/// A bound change relative to the parent node.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BoundChange {
    pub var: VarId,
    pub lb: f64,
    pub ub: f64,
}

/// Solver-independent description of a subproblem: the root-to-node
/// bound changes plus bookkeeping. This is exactly the object the UG
/// LoadCoordinator moves between ParaSolvers (the paper's "descriptions
/// of subproblems ... translated into a solver independent form"), and
/// what checkpointing persists.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct NodeDesc {
    /// Accumulated bound changes from the root (includes the branching
    /// decisions — the ug-0.8.6 feature the paper highlights).
    pub bound_changes: Vec<BoundChange>,
    /// Depth in the originating tree.
    pub depth: usize,
    /// Dual bound known for this subproblem (internal sense).
    pub dual_bound: f64,
}

impl NodeDesc {
    /// The root subproblem.
    pub fn root() -> Self {
        NodeDesc { bound_changes: Vec::new(), depth: 0, dual_bound: f64::NEG_INFINITY }
    }
}

/// How a node was created by branching (for pseudocost updates).
#[derive(Clone, Copy, Debug)]
pub struct BranchInfo {
    pub var: VarId,
    /// Fractional part of the branching value at the parent.
    pub frac: f64,
    /// True for the up (ceil) child.
    pub up: bool,
    /// Parent's dual bound when branching (internal sense).
    pub parent_bound: f64,
}

/// In-tree node record. Bound changes are stored as deltas against the
/// parent; the full local domain is reconstructed by walking the path.
#[derive(Clone, Debug)]
pub struct Node {
    pub id: usize,
    pub parent: Option<usize>,
    pub depth: usize,
    pub changes: Vec<BoundChange>,
    /// Dual (lower) bound inherited/computed for this node.
    pub dual_bound: f64,
    pub open: bool,
    /// Branching provenance (None for the root and injected nodes).
    pub branch_info: Option<BranchInfo>,
}

/// Priority-queue entry ordering open nodes.
#[derive(Clone, Copy, Debug)]
struct OpenEntry {
    id: usize,
    bound: f64,
    depth: usize,
}

impl PartialEq for OpenEntry {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for OpenEntry {}

/// Max-heap over "priority"; we invert bounds so the best (lowest) dual
/// bound pops first for best-bound search.
struct BestBoundOrd(OpenEntry);
impl PartialEq for BestBoundOrd {
    fn eq(&self, o: &Self) -> bool {
        self.0.id == o.0.id
    }
}
impl Eq for BestBoundOrd {}
impl PartialOrd for BestBoundOrd {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for BestBoundOrd {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // lower bound = higher priority; tie-break: deeper first, then id.
        o.0.bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.0.depth.cmp(&o.0.depth))
            .then(o.0.id.cmp(&self.0.id))
    }
}

/// The branch-and-bound tree with its open-node queue.
pub struct Tree {
    nodes: Vec<Node>,
    heap: BinaryHeap<BestBoundOrd>,
    stack: Vec<OpenEntry>,
    selection: NodeSelection,
    open_count: usize,
}

impl Tree {
    /// New tree containing only an open root node with bound `-inf`.
    pub fn new(selection: NodeSelection) -> Self {
        let mut t = Tree {
            nodes: Vec::new(),
            heap: BinaryHeap::new(),
            stack: Vec::new(),
            selection,
            open_count: 0,
        };
        t.push_node(None, Vec::new(), f64::NEG_INFINITY);
        t
    }

    /// Installs an inherited dual bound on the root (a transferred
    /// subproblem already carries a proven bound from its origin solver;
    /// descendants must never report anything weaker).
    pub fn set_root_bound(&mut self, bound: f64) {
        if bound.is_finite() && self.nodes[0].dual_bound < bound {
            self.nodes[0].dual_bound = bound;
        }
    }

    /// Adds a node and marks it open. Returns its id.
    pub fn push_node(
        &mut self,
        parent: Option<usize>,
        changes: Vec<BoundChange>,
        dual_bound: f64,
    ) -> usize {
        self.push_node_with_info(parent, changes, dual_bound, None)
    }

    /// Adds a node with branching provenance.
    pub fn push_node_with_info(
        &mut self,
        parent: Option<usize>,
        changes: Vec<BoundChange>,
        dual_bound: f64,
        branch_info: Option<BranchInfo>,
    ) -> usize {
        let id = self.nodes.len();
        let depth = parent.map_or(0, |p| self.nodes[p].depth + 1);
        self.nodes.push(Node { id, parent, depth, changes, dual_bound, open: true, branch_info });
        let e = OpenEntry { id, bound: dual_bound, depth };
        match self.selection {
            NodeSelection::BestBound => self.heap.push(BestBoundOrd(e)),
            NodeSelection::DepthFirst => self.stack.push(e),
        }
        self.open_count += 1;
        id
    }

    /// Pops the next node to process according to the selection rule,
    /// skipping nodes whose bound is no better than `cutoff`. Pruned
    /// nodes are closed. Returns `None` when no open node remains.
    pub fn pop_best(&mut self, cutoff: f64) -> Option<usize> {
        loop {
            let e = match self.selection {
                NodeSelection::BestBound => self.heap.pop().map(|b| b.0),
                NodeSelection::DepthFirst => self.stack.pop(),
            }?;
            if !self.nodes[e.id].open {
                continue;
            }
            self.nodes[e.id].open = false;
            self.open_count -= 1;
            if e.bound >= cutoff {
                continue; // pruned by bound
            }
            return Some(e.id);
        }
    }

    /// Removes (closes) a specific open node and returns its description —
    /// used by the UG collect mode to hand a subproblem to the
    /// LoadCoordinator. Picks the *shallowest* open node (ties broken by
    /// best bound): shallow nodes are the "heavy subproblems" with large
    /// expected subtrees, and — crucially — stealing them leaves the
    /// solver's current dive frontier intact, so deep cut/bound progress
    /// is not forever migrating between solvers.
    pub fn steal_open_node(&mut self) -> Option<usize> {
        let best = self
            .nodes
            .iter()
            .filter(|n| n.open)
            .min_by(|a, b| {
                a.depth.cmp(&b.depth).then(a.dual_bound.partial_cmp(&b.dual_bound).unwrap())
            })?
            .id;
        self.nodes[best].open = false;
        self.open_count -= 1;
        Some(best)
    }

    /// Closes all open nodes whose bound is `>= cutoff`; returns how many
    /// were pruned.
    pub fn prune_by_bound(&mut self, cutoff: f64) -> usize {
        let mut pruned = 0;
        for n in &mut self.nodes {
            if n.open && n.dual_bound >= cutoff {
                n.open = false;
                self.open_count -= 1;
                pruned += 1;
            }
        }
        pruned
    }

    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_open(&self) -> usize {
        self.open_count
    }

    /// Minimum dual bound over all open nodes (`+inf` when none).
    pub fn open_bound(&self) -> f64 {
        self.nodes.iter().filter(|n| n.open).map(|n| n.dual_bound).fold(f64::INFINITY, f64::min)
    }

    /// Accumulates the root-to-node bound changes for `id`.
    pub fn path_changes(&self, id: usize) -> Vec<BoundChange> {
        let mut path = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let n = &self.nodes[c];
            path.push(n.changes.clone());
            cur = n.parent;
        }
        path.reverse();
        path.into_iter().flatten().collect()
    }

    /// Builds the transferable description of node `id`.
    pub fn describe(&self, id: usize) -> NodeDesc {
        let n = &self.nodes[id];
        NodeDesc { bound_changes: self.path_changes(id), depth: n.depth, dual_bound: n.dual_bound }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bc(var: u32, lb: f64, ub: f64) -> BoundChange {
        BoundChange { var: VarId(var), lb, ub }
    }

    #[test]
    fn best_bound_order() {
        let mut t = Tree::new(NodeSelection::BestBound);
        let root = t.pop_best(f64::INFINITY).unwrap();
        assert_eq!(root, 0);
        let a = t.push_node(Some(root), vec![bc(0, 0.0, 0.0)], 5.0);
        let b = t.push_node(Some(root), vec![bc(0, 1.0, 1.0)], 3.0);
        assert_eq!(t.num_open(), 2);
        assert_eq!(t.pop_best(f64::INFINITY), Some(b));
        assert_eq!(t.pop_best(f64::INFINITY), Some(a));
        assert_eq!(t.pop_best(f64::INFINITY), None);
    }

    #[test]
    fn depth_first_order() {
        let mut t = Tree::new(NodeSelection::DepthFirst);
        let root = t.pop_best(f64::INFINITY).unwrap();
        let a = t.push_node(Some(root), vec![], 1.0);
        let b = t.push_node(Some(root), vec![], 2.0);
        // LIFO: b (pushed last) first, regardless of bound.
        assert_eq!(t.pop_best(f64::INFINITY), Some(b));
        assert_eq!(t.pop_best(f64::INFINITY), Some(a));
    }

    #[test]
    fn cutoff_prunes_on_pop() {
        let mut t = Tree::new(NodeSelection::BestBound);
        let root = t.pop_best(f64::INFINITY).unwrap();
        t.push_node(Some(root), vec![], 10.0);
        let b = t.push_node(Some(root), vec![], 1.0);
        assert_eq!(t.pop_best(5.0), Some(b));
        assert_eq!(t.pop_best(5.0), None); // the 10.0 node is pruned
    }

    #[test]
    fn path_changes_accumulate() {
        let mut t = Tree::new(NodeSelection::BestBound);
        let root = t.pop_best(f64::INFINITY).unwrap();
        let a = t.push_node(Some(root), vec![bc(0, 1.0, 1.0)], 0.0);
        let b = t.push_node(Some(a), vec![bc(1, 0.0, 0.0)], 0.0);
        let path = t.path_changes(b);
        assert_eq!(path, vec![bc(0, 1.0, 1.0), bc(1, 0.0, 0.0)]);
        let d = t.describe(b);
        assert_eq!(d.depth, 2);
        assert_eq!(d.bound_changes.len(), 2);
    }

    #[test]
    fn steal_takes_best_open() {
        let mut t = Tree::new(NodeSelection::BestBound);
        let root = t.pop_best(f64::INFINITY).unwrap();
        t.push_node(Some(root), vec![], 7.0);
        let b = t.push_node(Some(root), vec![], 2.0);
        assert_eq!(t.steal_open_node(), Some(b));
        assert_eq!(t.num_open(), 1);
        // stolen node no longer pops
        assert_ne!(t.pop_best(f64::INFINITY), Some(b));
    }

    #[test]
    fn prune_by_bound_counts() {
        let mut t = Tree::new(NodeSelection::BestBound);
        let root = t.pop_best(f64::INFINITY).unwrap();
        t.push_node(Some(root), vec![], 7.0);
        t.push_node(Some(root), vec![], 2.0);
        assert_eq!(t.prune_by_bound(5.0), 1);
        assert_eq!(t.num_open(), 1);
        assert_eq!(t.open_bound(), 2.0);
    }
}
