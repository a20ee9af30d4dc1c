use fastlive_graph::{Cfg, NodeId, NO_NODE};

/// Classification of a CFG edge relative to a depth-first search tree
/// (Figure 1 of the paper, following Tarjan 1972).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum EdgeClass {
    /// An edge of the DFS spanning tree.
    Tree,
    /// `(u, v)` where `v` is an ancestor of `u` in the DFS tree (the set
    /// `E↑`; self-loops are back edges). Drawn dashed in the paper.
    Back,
    /// `(u, v)` where `u` is a proper ancestor of `v` but the edge is not
    /// the tree edge that discovered `v`.
    Forward,
    /// Every other edge; always points from larger to smaller preorder
    /// number ("cross edges always point in the same direction").
    Cross,
    /// Edge whose source is unreachable from the entry node.
    Unreachable,
}

impl std::fmt::Display for EdgeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EdgeClass::Tree => "tree",
            EdgeClass::Back => "back",
            EdgeClass::Forward => "forward",
            EdgeClass::Cross => "cross",
            EdgeClass::Unreachable => "unreachable",
        };
        f.write_str(s)
    }
}

/// A depth-first search spanning tree of a CFG, with preorder/postorder
/// numberings and the edge classification of §2.1.
///
/// The traversal is iterative (no recursion, safe for deep graphs) and
/// deterministic: children are visited in [`Cfg::succs`] order, so two
/// runs over the same graph yield identical numberings — a property the
/// test suite and the deterministic benchmarks rely on.
///
/// # Examples
///
/// ```
/// use fastlive_cfg::{DfsTree, EdgeClass};
/// use fastlive_graph::DiGraph;
///
/// let g = DiGraph::from_edges(3, 0, &[(0, 1), (1, 2), (2, 0)]);
/// let dfs = DfsTree::compute(&g);
/// assert_eq!(dfs.pre(0), 0);
/// assert!(dfs.is_ancestor(0, 2));
/// assert_eq!(dfs.back_edges(), &[(2, 0)]);
/// assert_eq!(dfs.edge_class(2, 0), EdgeClass::Back);
/// ```
#[derive(Clone, Debug)]
pub struct DfsTree {
    /// Nodes in preorder (discovery order). `preorder[0]` is the entry.
    preorder: Vec<NodeId>,
    /// Nodes in postorder (finish order).
    postorder: Vec<NodeId>,
    /// `pre_num[v]` = preorder number of `v`, `NO_NODE` if unreachable.
    pre_num: Vec<u32>,
    /// `post_num[v]` = postorder number of `v`, `NO_NODE` if unreachable.
    post_num: Vec<u32>,
    /// DFS-tree parent; `NO_NODE` for the root and unreachable nodes.
    parent: Vec<NodeId>,
    /// Back edges `(source, target)` in source-major order, i.e. `E↑`.
    back_edges: Vec<(NodeId, NodeId)>,
    /// Every edge's `(target, class)`, source-major and aligned with
    /// `Cfg::succs`: node `u`'s edges are
    /// `classified[class_start[u]..class_start[u + 1]]`.
    classified: Vec<(NodeId, EdgeClass)>,
    class_start: Vec<u32>,
}

impl DfsTree {
    /// Runs a depth-first search over `g` from its entry node.
    ///
    /// Every buffer is sized before it is filled, so a call allocates
    /// a fixed number of times whatever the size of `g`.
    pub fn compute<G: Cfg>(g: &G) -> Self {
        let n = g.num_nodes();
        let mut pre_num = vec![NO_NODE; n];
        let mut post_num = vec![NO_NODE; n];
        let mut parent = vec![NO_NODE; n];
        let mut preorder = Vec::with_capacity(n);
        let mut postorder = Vec::with_capacity(n);

        // Iterative DFS: the stack holds (node, index of next successor)
        // and is never deeper than the node count.
        let root = g.entry();
        pre_num[root as usize] = 0;
        preorder.push(root);
        let mut stack: Vec<(NodeId, u32)> = Vec::with_capacity(n);
        stack.push((root, 0));
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let succs = g.succs(u);
            if (*next as usize) < succs.len() {
                let v = succs[*next as usize];
                *next += 1;
                if pre_num[v as usize] == NO_NODE {
                    pre_num[v as usize] = preorder.len() as u32;
                    preorder.push(v);
                    parent[v as usize] = u;
                    stack.push((v, 0));
                }
            } else {
                stack.pop();
                post_num[u as usize] = postorder.len() as u32;
                postorder.push(u);
            }
        }

        // Classify all edges now that both numberings exist. Only back/non-
        // back matters for liveness, but figures and diagnostics want the
        // full four-way split.
        let mut classified = Vec::with_capacity(g.num_edges());
        let mut class_start = Vec::with_capacity(n + 1);
        let mut tree_edge_taken = vec![false; n];
        let mut num_back = 0;
        for u in 0..n as NodeId {
            class_start.push(classified.len() as u32);
            let succs = g.succs(u);
            if pre_num[u as usize] == NO_NODE {
                classified.extend(succs.iter().map(|&v| (v, EdgeClass::Unreachable)));
                continue;
            }
            for &v in succs {
                let class = if ancestor(&pre_num, &post_num, v, u) {
                    // v ancestor of u (v == u means a self-loop): back edge.
                    num_back += 1;
                    EdgeClass::Back
                } else if ancestor(&pre_num, &post_num, u, v) {
                    // u proper ancestor of v: the one instance that is the
                    // actual discovery edge is a tree edge, parallel
                    // duplicates are forward edges.
                    if parent[v as usize] == u && !tree_edge_taken[v as usize] {
                        tree_edge_taken[v as usize] = true;
                        EdgeClass::Tree
                    } else {
                        EdgeClass::Forward
                    }
                } else {
                    EdgeClass::Cross
                };
                classified.push((v, class));
            }
        }
        class_start.push(classified.len() as u32);

        let mut back_edges = Vec::with_capacity(num_back);
        for (u, span) in class_start.windows(2).enumerate() {
            let row = &classified[span[0] as usize..span[1] as usize];
            back_edges.extend(
                row.iter()
                    .filter(|&&(_, c)| c == EdgeClass::Back)
                    .map(|&(v, _)| (u as NodeId, v)),
            );
        }

        DfsTree {
            preorder,
            postorder,
            pre_num,
            post_num,
            parent,
            back_edges,
            classified,
            class_start,
        }
    }

    /// The `(target, class)` pairs of `u`'s outgoing edges.
    fn row(&self, u: NodeId) -> &[(NodeId, EdgeClass)] {
        let u = u as usize;
        &self.classified[self.class_start[u] as usize..self.class_start[u + 1] as usize]
    }

    /// Preorder (discovery) number of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable from the entry.
    pub fn pre(&self, v: NodeId) -> u32 {
        let p = self.pre_num[v as usize];
        assert_ne!(p, NO_NODE, "node {v} is unreachable");
        p
    }

    /// Postorder (finish) number of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable from the entry.
    pub fn post(&self, v: NodeId) -> u32 {
        let p = self.post_num[v as usize];
        assert_ne!(p, NO_NODE, "node {v} is unreachable");
        p
    }

    /// Returns `true` if `v` was reached by the search.
    pub fn is_reachable(&self, v: NodeId) -> bool {
        self.pre_num[v as usize] != NO_NODE
    }

    /// Returns `true` if every node of the graph is reachable.
    pub fn all_reachable(&self) -> bool {
        self.preorder.len() == self.pre_num.len()
    }

    /// Number of nodes reached by the search.
    pub fn num_reached(&self) -> usize {
        self.preorder.len()
    }

    /// Total number of nodes of the graph the search ran on (reachable
    /// or not) — used to detect stale analyses after CFG edits.
    pub fn num_nodes(&self) -> usize {
        self.pre_num.len()
    }

    /// DFS-tree parent of `v`; `None` for the root or unreachable nodes.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        match self.parent[v as usize] {
            NO_NODE => None,
            p => Some(p),
        }
    }

    /// Nodes in preorder.
    pub fn preorder(&self) -> &[NodeId] {
        &self.preorder
    }

    /// Postorder number of every node, `NO_NODE` for unreachable ones —
    /// the non-panicking table the dominator fixpoint walks.
    pub(crate) fn post_nums(&self) -> &[u32] {
        &self.post_num
    }

    /// Nodes in postorder. Restricted to non-back edges this is a reverse
    /// topological order of the *reduced graph* — the order §5.2 uses to
    /// propagate the `R_v` sets.
    pub fn postorder(&self) -> &[NodeId] {
        &self.postorder
    }

    /// Nodes in reverse postorder (a topological order of the reduced
    /// graph, and the iteration order for the dominator fixpoint).
    pub fn reverse_postorder(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.postorder.iter().rev().copied()
    }

    /// `true` if `a` is an ancestor of `b` in the DFS tree (`a == b`
    /// counts).
    ///
    /// Uses the interval characterisation: `a` is an ancestor of `b` iff
    /// `pre(a) <= pre(b)` and `post(a) >= post(b)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if either node is unreachable.
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        ancestor(&self.pre_num, &self.post_num, a, b)
    }

    /// The back edges `E↑ = {(s, t) ∈ E | t ancestor of s}` in
    /// source-major order, with multiplicity.
    pub fn back_edges(&self) -> &[(NodeId, NodeId)] {
        &self.back_edges
    }

    /// Class of the `i`-th outgoing edge of `u` (aligned with
    /// [`Cfg::succs`]).
    ///
    /// # Panics
    ///
    /// Panics if `u` has fewer than `i + 1` successors.
    pub fn edge_class_at(&self, u: NodeId, i: usize) -> EdgeClass {
        self.row(u)[i].1
    }

    /// Class of edge `(u, v)`. With parallel edges, returns the class of
    /// the first instance.
    ///
    /// # Panics
    ///
    /// Panics if no edge `(u, v)` exists.
    pub fn edge_class(&self, u: NodeId, v: NodeId) -> EdgeClass {
        self.row(u)
            .iter()
            .find(|&&(t, _)| t == v)
            .map(|&(_, c)| c)
            .unwrap_or_else(|| panic!("no edge ({u}, {v})"))
    }

    /// Iterates all classified edges `(u, v, class)` in source-major order.
    pub fn classified_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeClass)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |u| self.row(u).iter().map(move |&(v, c)| (u, v, c)))
    }
}

/// Interval ancestor test shared by `DfsTree` methods.
fn ancestor(pre: &[u32], post: &[u32], a: NodeId, b: NodeId) -> bool {
    let (pa, pb) = (pre[a as usize], pre[b as usize]);
    let (qa, qb) = (post[a as usize], post[b as usize]);
    debug_assert!(
        pa != NO_NODE && pb != NO_NODE,
        "ancestor test on unreachable node"
    );
    pa <= pb && qa >= qb
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_graph::DiGraph;

    /// A diamond with a loop on the join node:
    /// 0 -> {1,2}; 1 -> 3; 2 -> 3; 3 -> 1 (back for DFS order 0,1,3).
    fn diamond_loop() -> DiGraph {
        DiGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 1)])
    }

    #[test]
    fn preorder_starts_at_entry() {
        let dfs = DfsTree::compute(&diamond_loop());
        assert_eq!(dfs.preorder()[0], 0);
        assert_eq!(dfs.pre(0), 0);
        assert_eq!(dfs.num_reached(), 4);
        assert!(dfs.all_reachable());
    }

    #[test]
    fn deterministic_numbering_follows_succ_order() {
        let dfs = DfsTree::compute(&diamond_loop());
        // DFS visits 0, then succ order: 1, then 3, then back to 0's
        // second successor 2.
        assert_eq!(dfs.preorder(), &[0, 1, 3, 2]);
        assert_eq!(dfs.postorder(), &[3, 1, 2, 0]);
        let rpo: Vec<_> = dfs.reverse_postorder().collect();
        assert_eq!(rpo, vec![0, 2, 1, 3]);
    }

    #[test]
    fn parents_follow_tree() {
        let dfs = DfsTree::compute(&diamond_loop());
        assert_eq!(dfs.parent(0), None);
        assert_eq!(dfs.parent(1), Some(0));
        assert_eq!(dfs.parent(3), Some(1));
        assert_eq!(dfs.parent(2), Some(0));
    }

    #[test]
    fn edge_classes_of_diamond_loop() {
        let dfs = DfsTree::compute(&diamond_loop());
        assert_eq!(dfs.edge_class(0, 1), EdgeClass::Tree);
        assert_eq!(dfs.edge_class(0, 2), EdgeClass::Tree);
        assert_eq!(dfs.edge_class(1, 3), EdgeClass::Tree);
        assert_eq!(dfs.edge_class(2, 3), EdgeClass::Cross);
        assert_eq!(dfs.edge_class(3, 1), EdgeClass::Back);
        assert_eq!(dfs.back_edges(), &[(3, 1)]);
    }

    #[test]
    fn ancestor_intervals() {
        let dfs = DfsTree::compute(&diamond_loop());
        assert!(dfs.is_ancestor(0, 3));
        assert!(dfs.is_ancestor(1, 3));
        assert!(dfs.is_ancestor(2, 2)); // reflexive
        assert!(!dfs.is_ancestor(2, 3));
        assert!(!dfs.is_ancestor(3, 1));
    }

    #[test]
    fn self_loop_is_back_edge() {
        let g = DiGraph::from_edges(2, 0, &[(0, 1), (1, 1)]);
        let dfs = DfsTree::compute(&g);
        assert_eq!(dfs.edge_class(1, 1), EdgeClass::Back);
        assert_eq!(dfs.back_edges(), &[(1, 1)]);
    }

    #[test]
    fn forward_edge_detected() {
        // 0 -> 1 -> 2 and a skip edge 0 -> 2 visited after the tree path.
        let g = DiGraph::from_edges(3, 0, &[(0, 1), (1, 2), (0, 2)]);
        let dfs = DfsTree::compute(&g);
        assert_eq!(dfs.edge_class(0, 1), EdgeClass::Tree);
        assert_eq!(dfs.edge_class(1, 2), EdgeClass::Tree);
        assert_eq!(dfs.edge_class_at(0, 1), EdgeClass::Forward);
    }

    #[test]
    fn parallel_tree_edges_second_is_forward() {
        let g = DiGraph::from_edges(2, 0, &[(0, 1), (0, 1)]);
        let dfs = DfsTree::compute(&g);
        assert_eq!(dfs.edge_class_at(0, 0), EdgeClass::Tree);
        assert_eq!(dfs.edge_class_at(0, 1), EdgeClass::Forward);
    }

    #[test]
    fn cross_edges_point_backwards_in_preorder() {
        // Theorem 3's foundation: cross edges lead to smaller preorder.
        let g = DiGraph::from_edges(5, 0, &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 2), (3, 1)]);
        let dfs = DfsTree::compute(&g);
        for (u, v, c) in dfs.classified_edges() {
            if c == EdgeClass::Cross {
                assert!(
                    dfs.pre(v) < dfs.pre(u),
                    "cross edge ({u},{v}) points forward"
                );
            }
        }
    }

    #[test]
    fn unreachable_nodes_marked() {
        let g = DiGraph::from_edges(3, 0, &[(0, 1), (2, 1)]);
        let dfs = DfsTree::compute(&g);
        assert!(!dfs.is_reachable(2));
        assert!(!dfs.all_reachable());
        assert_eq!(dfs.num_reached(), 2);
        assert_eq!(dfs.edge_class(2, 1), EdgeClass::Unreachable);
        assert_eq!(dfs.parent(2), None);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn pre_of_unreachable_panics() {
        let g = DiGraph::from_edges(2, 0, &[]);
        DfsTree::compute(&g).pre(1);
    }

    #[test]
    fn single_node_graph() {
        let g = DiGraph::new(1, 0);
        let dfs = DfsTree::compute(&g);
        assert_eq!(dfs.preorder(), &[0]);
        assert_eq!(dfs.postorder(), &[0]);
        assert!(dfs.back_edges().is_empty());
    }

    #[test]
    fn postorder_is_reverse_topological_on_reduced_graph() {
        // For every non-back edge (u, v): post(u) > post(v). This is the
        // property §5.2 relies on to propagate R_v in one postorder pass.
        let g = DiGraph::from_edges(
            6,
            0,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 1),
                (1, 4),
                (4, 5),
                (5, 2),
                (2, 5),
                (5, 0),
            ],
        );
        let dfs = DfsTree::compute(&g);
        for (u, v, c) in dfs.classified_edges() {
            if !matches!(c, EdgeClass::Back | EdgeClass::Unreachable) {
                assert!(
                    dfs.post(u) > dfs.post(v),
                    "edge ({u},{v}) class {c} violates order"
                );
            }
        }
    }

    #[test]
    fn display_for_edge_class() {
        assert_eq!(EdgeClass::Back.to_string(), "back");
        assert_eq!(EdgeClass::Tree.to_string(), "tree");
    }
}
