use fastlive_graph::{Cfg, NodeId, NO_NODE};

use crate::csr::group_by_owner;
use crate::DomTree;

/// Dominance frontiers of every node, computed with the algorithm of
/// Cytron et al. (TOPLAS 1991) as refined by Cooper–Harvey–Kennedy:
/// for each join node `b`, walk each predecessor's dominator chain up to
/// (but excluding) `idom(b)`, adding `b` to the frontier of every node on
/// the way.
///
/// The *iterated* dominance frontier ([`DominanceFrontiers::iterated`]) of
/// a variable's definition blocks is exactly the set of blocks that need a
/// φ-function (Figure 2 of the paper); SSA construction in
/// `fastlive-construct` is built on it.
///
/// # Examples
///
/// ```
/// use fastlive_cfg::{DfsTree, DomTree, DominanceFrontiers};
/// use fastlive_graph::DiGraph;
///
/// // Diamond: the join node 3 is in the frontier of both branches.
/// let g = DiGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
/// let dfs = DfsTree::compute(&g);
/// let dom = DomTree::compute(&g, &dfs);
/// let df = DominanceFrontiers::compute(&g, &dom);
/// assert_eq!(df.of(1), &[3]);
/// assert_eq!(df.of(2), &[3]);
/// assert_eq!(df.of(0), &[] as &[u32]);
/// ```
#[derive(Clone, Debug)]
pub struct DominanceFrontiers {
    /// `DF(v)` is `members[start[v]..start[v + 1]]`, sorted ascending,
    /// deduplicated.
    members: Vec<NodeId>,
    start: Vec<u32>,
}

impl DominanceFrontiers {
    /// Computes all dominance frontiers. Unreachable nodes get empty
    /// frontiers and are skipped as predecessors.
    ///
    /// The walks run twice, once to count each frontier and once to
    /// fill it, so a call allocates a fixed number of times whatever
    /// the size of `g`.
    pub fn compute<G: Cfg>(g: &G, dom: &DomTree) -> Self {
        // Joins are visited in ascending order, so each frontier comes
        // out sorted.
        let (members, start) =
            group_by_owner(g.num_nodes(), |emit| for_each_frontier_edge(g, dom, emit));
        DominanceFrontiers { members, start }
    }

    /// The dominance frontier of `v`, sorted ascending.
    pub fn of(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.members[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// The iterated dominance frontier `DF⁺(defs)`: the least set `S` with
    /// `DF(defs ∪ S) ⊆ S`, computed with a worklist. This is the
    /// φ-placement set of Cytron et al.
    ///
    /// # Examples
    ///
    /// ```
    /// use fastlive_cfg::{DfsTree, DomTree, DominanceFrontiers};
    /// use fastlive_graph::DiGraph;
    ///
    /// // Two defs in the branches of a diamond need one φ at the join.
    /// let g = DiGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
    /// let dfs = DfsTree::compute(&g);
    /// let dom = DomTree::compute(&g, &dfs);
    /// let df = DominanceFrontiers::compute(&g, &dom);
    /// assert_eq!(df.iterated(&[1, 2]), vec![3]);
    /// ```
    pub fn iterated(&self, defs: &[NodeId]) -> Vec<NodeId> {
        let n = self.start.len() - 1;
        let mut in_set = vec![false; n];
        let mut out = Vec::new();
        let mut work: Vec<NodeId> = defs.to_vec();
        let mut queued = vec![false; n];
        for &d in defs {
            queued[d as usize] = true;
        }
        while let Some(v) = work.pop() {
            for &f in self.of(v) {
                if !in_set[f as usize] {
                    in_set[f as usize] = true;
                    out.push(f);
                    if !queued[f as usize] {
                        queued[f as usize] = true;
                        work.push(f);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Calls `add(x, b)` once for every `b ∈ DF(x)`, joins `b` in
/// ascending order: for each join `b`, each predecessor's dominator
/// chain is walked up to (but excluding) `idom(b)`.
fn for_each_frontier_edge<G: Cfg>(g: &G, dom: &DomTree, mut add: impl FnMut(NodeId, NodeId)) {
    // `last[x] == b` once `b` is in `DF(x)`: a join reached along
    // several predecessor walks joins each frontier once.
    let mut last = vec![NO_NODE; g.num_nodes()];
    let mut add_once = |x: NodeId, b: NodeId| {
        if last[x as usize] != b {
            last[x as usize] = b;
            add(x, b);
        }
    };
    for b in 0..g.num_nodes() as NodeId {
        if !dom.is_reachable(b) || g.preds(b).is_empty() {
            continue;
        }
        match dom.idom(b) {
            // The entry node with predecessors (back edges into the
            // entry): nothing strictly dominates the entry, so *every*
            // dominator of a predecessor has the entry in its frontier;
            // the walk runs through the root inclusive.
            None => {
                for &p in g.preds(b) {
                    if dom.is_reachable(p) {
                        dom.dominators(p).for_each(|x| add_once(x, b));
                    }
                }
            }
            // With a single predecessor the walk is empty (the pred *is*
            // the idom); the ≥2-predecessor check of the textbook version
            // is just this short-circuit.
            Some(_) if g.preds(b).len() < 2 => {}
            Some(idom_b) => {
                for &p in g.preds(b) {
                    if !dom.is_reachable(p) {
                        continue;
                    }
                    let mut runner = p;
                    while runner != idom_b {
                        add_once(runner, b);
                        runner = dom
                            .idom(runner)
                            .expect("walk from a predecessor must reach idom(b) before the root");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfsTree;
    use fastlive_graph::DiGraph;

    fn frontiers(g: &DiGraph) -> DominanceFrontiers {
        let dfs = DfsTree::compute(g);
        let dom = DomTree::compute(g, &dfs);
        DominanceFrontiers::compute(g, &dom)
    }

    #[test]
    fn straight_line_has_empty_frontiers() {
        let df = frontiers(&DiGraph::from_edges(3, 0, &[(0, 1), (1, 2)]));
        for v in 0..3 {
            assert!(df.of(v).is_empty());
        }
    }

    #[test]
    fn loop_header_is_its_own_frontier() {
        // 0 -> 1 -> 2 -> 1; 2 -> 3. The header 1 has two preds, and the
        // body 2 (and header itself, via the back edge walk) get DF {1}.
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let df = frontiers(&g);
        assert_eq!(df.of(2), &[1]);
        assert_eq!(df.of(1), &[1]); // a loop header is in its own DF
        assert!(df.of(0).is_empty());
        assert!(df.of(3).is_empty());
    }

    #[test]
    fn cytron_definition_holds() {
        // DF(x) = { y : x dominates a pred of y, but not strictly y }.
        let g = DiGraph::from_edges(
            8,
            0,
            &[
                (0, 1),
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (4, 5),
                (5, 1),
                (5, 6),
                (0, 7),
                (7, 6),
            ],
        );
        let dfs = DfsTree::compute(&g);
        let dom = DomTree::compute(&g, &dfs);
        let df = DominanceFrontiers::compute(&g, &dom);
        use fastlive_graph::Cfg as _;
        for x in 0..8u32 {
            let mut expect: Vec<u32> = (0..8u32)
                .filter(|&y| {
                    g.preds(y).iter().any(|&p| dom.dominates(x, p)) && !dom.strictly_dominates(x, y)
                })
                .collect();
            expect.sort_unstable();
            assert_eq!(df.of(x), expect.as_slice(), "DF({x})");
        }
    }

    #[test]
    fn iterated_frontier_reaches_fixpoint() {
        // Nested loops: defs inside the inner loop propagate φs to both
        // headers.
        let g = DiGraph::from_edges(
            6,
            0,
            &[(0, 1), (1, 2), (2, 3), (3, 2), (3, 4), (4, 1), (4, 5)],
        );
        let df = frontiers(&g);
        let idf = df.iterated(&[3]);
        assert_eq!(idf, vec![1, 2]);
        // A def at the entry alone never needs φs.
        assert!(df.iterated(&[0]).is_empty());
        assert!(df.iterated(&[]).is_empty());
    }

    #[test]
    fn diamond_needs_phi_only_at_join() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let df = frontiers(&g);
        assert_eq!(df.iterated(&[1]), vec![3]);
        assert_eq!(df.iterated(&[1, 2]), vec![3]);
        assert_eq!(df.iterated(&[0]), Vec::<u32>::new());
    }

    #[test]
    fn unreachable_preds_ignored() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 3)]);
        // Node 3 has a self-loop: its own frontier contains itself.
        let df = frontiers(&g);
        assert_eq!(df.of(3), &[3]);
    }
}
