use fastlive_graph::{Cfg, NodeId, NO_NODE};

use crate::csr::group_by_owner;
use crate::DfsTree;

/// The dominator tree of a CFG, with the dominance-tree preorder
/// numbering of §5.1.
///
/// Immediate dominators are computed with the iterative algorithm of
/// Cooper, Harvey & Kennedy ("A Simple, Fast Dominance Algorithm"),
/// which iterates to a fixed point over reverse postorder. An independent
/// Lengauer–Tarjan implementation lives in
/// [`lengauer_tarjan`](crate::lengauer_tarjan) and the two are
/// cross-checked in tests.
///
/// §5.1 of the paper numbers blocks in a *preorder of the dominance tree*
/// "such that if a node dominates another, it has a smaller number", and
/// represents each dominance subtree as the interval
/// `[num(q), maxnum(q)]`. [`DomTree::num`] and [`DomTree::maxnum`] expose
/// exactly this numbering; the whole of Algorithm 3 is built on it.
///
/// # Examples
///
/// ```
/// use fastlive_cfg::{DfsTree, DomTree};
/// use fastlive_graph::DiGraph;
///
/// let g = DiGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
/// let dfs = DfsTree::compute(&g);
/// let dom = DomTree::compute(&g, &dfs);
/// assert_eq!(dom.idom(3), Some(0)); // the join is dominated by the split
/// assert!(dom.strictly_dominates(0, 3));
/// assert!(!dom.dominates(1, 3));
/// // Dominance is an interval query on the preorder numbering:
/// assert!(dom.num(0) < dom.num(3));
/// assert!(dom.maxnum(0) >= dom.num(3));
/// ```
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator; the entry maps to itself, unreachable nodes to
    /// `NO_NODE`.
    idom: Vec<NodeId>,
    /// Children in the dominance tree, ordered by DFS preorder: node
    /// `v`'s children are `children[child_start[v]..child_start[v + 1]]`.
    children: Vec<NodeId>,
    child_start: Vec<u32>,
    /// `num[v]`: dominance-tree preorder number (the paper's `num(v)`).
    num: Vec<u32>,
    /// `maxnum[v]`: largest preorder number in `v`'s dominance subtree.
    maxnum: Vec<u32>,
    /// Inverse of `num`: `by_num[n]` is the node with preorder number `n`.
    by_num: Vec<NodeId>,
    /// Depth in the dominance tree (entry = 0).
    depth: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree of `g` using the DFS tree `dfs`
    /// (which supplies the reverse-postorder iteration order).
    ///
    /// Unreachable nodes get no dominator and number; queries on them
    /// panic.
    pub fn compute<G: Cfg>(g: &G, dfs: &DfsTree) -> Self {
        let n = g.num_nodes();
        let root = g.entry();

        // The fixpoint runs in postorder-number space, where the
        // intersect walk compares numbers directly: `doms[i]` is the
        // postorder number of the immediate dominator of the node
        // numbered `i`. Unreachable predecessors are skipped.
        let post = dfs.post_nums();
        let by_post = dfs.postorder();
        let root_post = post[root as usize];
        let mut doms = vec![NO_NODE; by_post.len()];
        doms[root_post as usize] = root_post;
        let mut changed = true;
        while changed {
            changed = false;
            // Reverse postorder: the root comes first and is skipped.
            for (b_post, &b) in by_post.iter().enumerate().rev().skip(1) {
                // First processed predecessor seeds the intersection.
                let mut new_idom = NO_NODE;
                for &p in g.preds(b) {
                    let p_post = post[p as usize];
                    if p_post == NO_NODE || doms[p_post as usize] == NO_NODE {
                        continue;
                    }
                    new_idom = if new_idom == NO_NODE {
                        p_post
                    } else {
                        intersect(&doms, p_post, new_idom)
                    };
                }
                debug_assert_ne!(
                    new_idom, NO_NODE,
                    "reachable node {b} has no processed pred"
                );
                if doms[b_post] != new_idom {
                    doms[b_post] = new_idom;
                    changed = true;
                }
            }
        }
        let mut idom = vec![NO_NODE; n];
        for (&v, &d) in by_post.iter().zip(&doms) {
            idom[v as usize] = by_post[d as usize];
        }

        // Children lists ordered by DFS preorder => deterministic preorder
        // numbering that follows discovery order (like the paper's Fig. 3).
        let (children, child_start) = group_by_owner(n, |emit| {
            for &v in dfs.preorder() {
                if v != root {
                    emit(idom[v as usize], v);
                }
            }
        });

        // Dominance-tree preorder numbering with subtree max (num/maxnum).
        let mut num = vec![NO_NODE; n];
        let mut maxnum = vec![NO_NODE; n];
        let mut by_num = vec![NO_NODE; dfs.num_reached()];
        let mut depth = vec![0u32; n];
        let mut counter = 0u32;
        // Iterative preorder walk; entries are (node, next child index).
        let mut stack: Vec<(NodeId, u32)> = Vec::with_capacity(dfs.num_reached());
        stack.push((root, child_start[root as usize]));
        num[root as usize] = 0;
        by_num[0] = root;
        counter += 1;
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            if *ci < child_start[v as usize + 1] {
                let c = children[*ci as usize];
                *ci += 1;
                num[c as usize] = counter;
                by_num[counter as usize] = c;
                depth[c as usize] = depth[v as usize] + 1;
                counter += 1;
                stack.push((c, child_start[c as usize]));
            } else {
                maxnum[v as usize] = counter - 1;
                stack.pop();
            }
        }
        debug_assert_eq!(counter as usize, dfs.num_reached());

        DomTree {
            idom,
            children,
            child_start,
            num,
            maxnum,
            by_num,
            depth,
        }
    }

    /// Immediate dominator of `v`; `None` for the entry node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable.
    pub fn idom(&self, v: NodeId) -> Option<NodeId> {
        let d = self.idom[v as usize];
        assert_ne!(d, NO_NODE, "node {v} is unreachable");
        if d == v && self.num[v as usize] == 0 {
            None
        } else {
            Some(d)
        }
    }

    /// Returns `true` if `v` is reachable (has a dominator-tree slot).
    pub fn is_reachable(&self, v: NodeId) -> bool {
        self.idom[v as usize] != NO_NODE
    }

    /// `a dom b`: every path from the entry to `b` contains `a`
    /// (reflexive). O(1) via the preorder interval.
    ///
    /// # Panics
    ///
    /// Panics if either node is unreachable.
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        self.num(b) >= self.num(a) && self.num(b) <= self.maxnum(a)
    }

    /// `a sdom b`: dominates and `a != b`.
    ///
    /// # Panics
    ///
    /// Panics if either node is unreachable.
    pub fn strictly_dominates(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// The paper's `num(v)`: preorder number of `v` in the dominance tree.
    /// Dominators always have smaller numbers than the nodes they
    /// dominate.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable.
    pub fn num(&self, v: NodeId) -> u32 {
        let x = self.num[v as usize];
        assert_ne!(x, NO_NODE, "node {v} is unreachable");
        x
    }

    /// The paper's `maxnum(v)` (`get_max_num` in Algorithm 3): the largest
    /// preorder number inside `v`'s dominance subtree. The numbers of the
    /// nodes strictly dominated by `v` are exactly
    /// `num(v) + 1 ..= maxnum(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable.
    pub fn maxnum(&self, v: NodeId) -> u32 {
        let x = self.maxnum[v as usize];
        assert_ne!(x, NO_NODE, "node {v} is unreachable");
        x
    }

    /// Node carrying preorder number `n` (inverse of [`num`](Self::num)).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a valid number.
    pub fn node_at_num(&self, n: u32) -> NodeId {
        self.by_num[n as usize]
    }

    /// Number of reachable nodes (== number of preorder numbers).
    pub fn num_reachable(&self) -> usize {
        self.by_num.len()
    }

    /// Children of `v` in the dominance tree, ordered by DFS preorder.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.children[self.child_start[v] as usize..self.child_start[v + 1] as usize]
    }

    /// Depth of `v` in the dominance tree; the entry has depth 0.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable.
    pub fn depth(&self, v: NodeId) -> u32 {
        assert!(self.is_reachable(v), "node {v} is unreachable");
        self.depth[v as usize]
    }

    /// Reachable nodes in dominance-tree preorder.
    pub fn preorder(&self) -> &[NodeId] {
        &self.by_num
    }

    /// Iterates `v` and all its dominators up to the entry, innermost
    /// first.
    pub fn dominators(&self, v: NodeId) -> Dominators<'_> {
        assert!(self.is_reachable(v), "node {v} is unreachable");
        Dominators {
            tree: self,
            cur: Some(v),
        }
    }
}

/// Iterator over a node's dominators, from the node itself to the entry.
/// Created by [`DomTree::dominators`].
#[derive(Clone, Debug)]
pub struct Dominators<'a> {
    tree: &'a DomTree,
    cur: Option<NodeId>,
}

impl Iterator for Dominators<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let v = self.cur?;
        self.cur = self.tree.idom(v);
        Some(v)
    }
}

/// The two-finger intersection walk of Cooper–Harvey–Kennedy, climbing by
/// postorder number.
fn intersect(doms: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a < b {
            a = doms[a as usize];
        }
        while b < a {
            b = doms[b as usize];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_graph::DiGraph;

    fn dom_of(g: &DiGraph) -> DomTree {
        DomTree::compute(g, &DfsTree::compute(g))
    }

    #[test]
    fn straight_line() {
        let g = DiGraph::from_edges(3, 0, &[(0, 1), (1, 2)]);
        let d = dom_of(&g);
        assert_eq!(d.idom(0), None);
        assert_eq!(d.idom(1), Some(0));
        assert_eq!(d.idom(2), Some(1));
        assert!(d.dominates(0, 2));
        assert!(d.strictly_dominates(0, 2));
        assert!(d.dominates(2, 2));
        assert!(!d.strictly_dominates(2, 2));
    }

    #[test]
    fn diamond_join_dominated_by_split() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let d = dom_of(&g);
        assert_eq!(d.idom(3), Some(0));
        assert!(!d.dominates(1, 3));
        assert!(!d.dominates(2, 3));
    }

    #[test]
    fn loop_header_dominates_body() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let d = dom_of(&g);
        assert_eq!(d.idom(2), Some(1));
        assert!(d.dominates(1, 2));
        assert!(!d.dominates(2, 3));
    }

    /// The classic irreducible example: entry branches to both members of
    /// a two-node cycle, so neither member dominates the other.
    #[test]
    fn irreducible_pair() {
        let g = DiGraph::from_edges(3, 0, &[(0, 1), (0, 2), (1, 2), (2, 1)]);
        let d = dom_of(&g);
        assert_eq!(d.idom(1), Some(0));
        assert_eq!(d.idom(2), Some(0));
        assert!(!d.dominates(1, 2));
        assert!(!d.dominates(2, 1));
    }

    #[test]
    fn numbering_orders_dominators_first() {
        let g = DiGraph::from_edges(6, 0, &[(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]);
        let d = dom_of(&g);
        // num is a preorder: every node's dominator has a smaller number.
        for v in 0..6u32 {
            if let Some(i) = d.idom(v) {
                assert!(d.num(i) < d.num(v), "idom({v}) = {i} numbered after");
            }
        }
        // The strict-dominance interval is exactly [num+1, maxnum].
        for a in 0..6u32 {
            for b in 0..6u32 {
                let in_interval = d.num(b) > d.num(a) && d.num(b) <= d.maxnum(a);
                assert_eq!(in_interval, d.strictly_dominates(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn node_at_num_inverts_num() {
        let g = DiGraph::from_edges(5, 0, &[(0, 1), (1, 2), (0, 3), (3, 4)]);
        let d = dom_of(&g);
        for v in 0..5u32 {
            assert_eq!(d.node_at_num(d.num(v)), v);
        }
        assert_eq!(d.num_reachable(), 5);
    }

    #[test]
    fn children_and_depth() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let d = dom_of(&g);
        let mut kids = d.children(0).to_vec();
        kids.sort_unstable();
        assert_eq!(kids, vec![1, 2, 3]);
        assert_eq!(d.depth(0), 0);
        assert_eq!(d.depth(3), 1);
    }

    #[test]
    fn dominators_iterator_walks_to_entry() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 3)]);
        let d = dom_of(&g);
        let doms: Vec<_> = d.dominators(3).collect();
        assert_eq!(doms, vec![3, 2, 1, 0]);
    }

    #[test]
    fn unreachable_nodes_are_flagged() {
        let g = DiGraph::from_edges(3, 0, &[(0, 1)]);
        let d = dom_of(&g);
        assert!(d.is_reachable(1));
        assert!(!d.is_reachable(2));
        assert_eq!(d.num_reachable(), 2);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn num_of_unreachable_panics() {
        let g = DiGraph::from_edges(2, 0, &[]);
        dom_of(&g).num(1);
    }

    #[test]
    fn entry_with_incoming_edge() {
        // A back edge into the entry node must not disturb idom(entry).
        let g = DiGraph::from_edges(2, 0, &[(0, 1), (1, 0)]);
        let d = dom_of(&g);
        assert_eq!(d.idom(0), None);
        assert_eq!(d.idom(1), Some(0));
    }

    #[test]
    fn matches_purely_iterative_definition_on_small_graph() {
        // Brute force: a dom b iff removing a disconnects b from entry.
        let g = DiGraph::from_edges(
            7,
            0,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 1),
                (1, 4),
                (4, 5),
                (5, 6),
                (6, 4),
                (2, 6),
            ],
        );
        let d = dom_of(&g);
        let n = 7u32;
        for a in 0..n {
            for b in 0..n {
                let brute = brute_dominates(&g, a, b);
                assert_eq!(d.dominates(a, b), brute, "a={a} b={b}");
            }
        }
    }

    /// Reference dominance: `a dom b` iff every entry→b path contains `a`,
    /// checked by deleting `a` and testing reachability of `b`.
    fn brute_dominates(g: &DiGraph, a: NodeId, b: NodeId) -> bool {
        use fastlive_graph::Cfg as _;
        if a == b {
            return true;
        }
        if g.entry() == a {
            return true;
        }
        let mut seen = vec![false; g.num_nodes()];
        let mut stack = vec![g.entry()];
        seen[g.entry() as usize] = true;
        while let Some(u) = stack.pop() {
            if u == a {
                continue; // never walk *through* a (mark it seen but stop)
            }
            for &v in g.succs(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        !seen[b as usize]
    }
}
