//! A deliberately literal implementation of the paper, used as an
//! executable specification.
//!
//! [`ReferenceChecker`] computes `R_v` (Definition 4) by per-node graph
//! search and `T_q` (Definition 5) by the fixpoint
//! `T_q = ⋃_i T^i_q` exactly as written — including the per-level
//! filter `t' ∈ V \ R_t` — and answers queries with Algorithm 1 and
//! Algorithm 2 as plain set operations. No bitsets, no numbering
//! tricks, no subtree skipping.
//!
//! The production engine ([`LivenessChecker`](crate::LivenessChecker))
//! must agree with this one on every query; the test suites of this
//! crate and of `fastlive-dataflow` check that, along with agreement
//! against a path-search oracle that implements Definition 2 directly.

use std::collections::BTreeSet;

use fastlive_cfg::{DfsTree, DomTree, EdgeClass};
use fastlive_graph::{Cfg, NodeId};

/// The executable-specification checker. Quadratic memory, unoptimized
/// queries; use [`LivenessChecker`](crate::LivenessChecker) for real
/// workloads.
#[derive(Clone, Debug)]
pub struct ReferenceChecker {
    dfs: DfsTree,
    dom: DomTree,
    /// `r[v]` = `R_v` as a sorted node set (reachable nodes only).
    r: Vec<BTreeSet<NodeId>>,
    /// `t[q]` = `T_q` per Definition 5.
    t: Vec<BTreeSet<NodeId>>,
    is_back_target: Vec<bool>,
}

impl ReferenceChecker {
    /// Computes `R` and `T` for every node of `g`.
    pub fn compute<G: Cfg>(g: &G) -> Self {
        let dfs = DfsTree::compute(g);
        let dom = DomTree::compute(g, &dfs);
        let n = g.num_nodes();

        // R_v by forward search over the reduced graph, per node.
        let mut r: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
        for v in 0..n as NodeId {
            if !dfs.is_reachable(v) {
                continue;
            }
            let mut stack = vec![v];
            r[v as usize].insert(v);
            while let Some(x) = stack.pop() {
                for (i, &w) in g.succs(x).iter().enumerate() {
                    if dfs.edge_class_at(x, i) != EdgeClass::Back && r[v as usize].insert(w) {
                        stack.push(w);
                    }
                }
            }
        }

        // T_q per Definition 5: start from {q}; for each member t, add
        // the targets t' of back edges with source in R_t and t' ∉ R_t.
        let back_edges: Vec<(NodeId, NodeId)> = dfs.back_edges().to_vec();
        let mut t: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
        for q in 0..n as NodeId {
            if !dfs.is_reachable(q) {
                continue;
            }
            let set = &mut t[q as usize];
            set.insert(q);
            let mut work = vec![q];
            while let Some(x) = work.pop() {
                for &(s2, t2) in &back_edges {
                    if r[x as usize].contains(&s2) && !r[x as usize].contains(&t2) && set.insert(t2)
                    {
                        work.push(t2);
                    }
                }
            }
        }

        let mut is_back_target = vec![false; n];
        for &(_, tgt) in dfs.back_edges() {
            is_back_target[tgt as usize] = true;
        }

        ReferenceChecker {
            dfs,
            dom,
            r,
            t,
            is_back_target,
        }
    }

    /// `R_q` as defined (Definition 4).
    pub fn r_set(&self, v: NodeId) -> &BTreeSet<NodeId> {
        &self.r[v as usize]
    }

    /// `T_q` as defined (Definition 5).
    pub fn t_set(&self, q: NodeId) -> &BTreeSet<NodeId> {
        &self.t[q as usize]
    }

    /// Algorithm 1, verbatim: build `T_(q,a) = T_q ∩ sdom(def)` and test
    /// `R_t ∩ uses ≠ ∅` for each member.
    pub fn is_live_in(&self, def: NodeId, uses: &[NodeId], q: NodeId) -> bool {
        if !self.dom.is_reachable(def) || !self.dom.is_reachable(q) {
            return false;
        }
        let t_qa: Vec<NodeId> = self.t[q as usize]
            .iter()
            .copied()
            .filter(|&t| self.dom.strictly_dominates(def, t))
            .collect();
        for t in t_qa {
            if uses.iter().any(|u| self.r[t as usize].contains(u)) {
                return true;
            }
        }
        false
    }

    /// Algorithm 2, verbatim, with its two special cases.
    pub fn is_live_out(&self, def: NodeId, uses: &[NodeId], q: NodeId) -> bool {
        if !self.dom.is_reachable(def) || !self.dom.is_reachable(q) {
            return false;
        }
        if def == q {
            // Live-out of the defining block iff some reachable use is
            // elsewhere.
            return uses.iter().any(|&u| u != q && self.dom.is_reachable(u));
        }
        if !self.dom.strictly_dominates(def, q) {
            return false;
        }
        for &t in &self.t[q as usize] {
            if !self.dom.strictly_dominates(def, t) {
                continue;
            }
            let drop_q = t == q && !self.is_back_target[q as usize];
            if uses
                .iter()
                .any(|&u| !(drop_q && u == q) && self.r[t as usize].contains(&u))
            {
                return true;
            }
        }
        false
    }

    /// The DFS tree (shared with diagnostics).
    pub fn dfs(&self) -> &DfsTree {
        &self.dfs
    }

    /// The dominator tree.
    pub fn dom(&self) -> &DomTree {
        &self.dom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LivenessChecker;
    use fastlive_graph::DiGraph;

    fn figure3() -> DiGraph {
        DiGraph::from_edges(
            11,
            0,
            &[
                (0, 1),
                (1, 2),
                (1, 10),
                (2, 3),
                (2, 7),
                (3, 4),
                (4, 5),
                (5, 6),
                (5, 4),
                (6, 1),
                (7, 8),
                (8, 9),
                (8, 5),
                (9, 7),
                (9, 10),
            ],
        )
    }

    #[test]
    fn definition5_on_figure3() {
        let r = ReferenceChecker::compute(&figure3());
        let t9: Vec<NodeId> = r.t_set(9).iter().copied().collect();
        assert_eq!(t9, vec![1, 4, 7, 9]);
        // T of (paper) 4: only {4, 2} 1-based -> {3, 1} 0-based: the
        // header 8 (paper) is kept out by the per-level filter.
        let t3: Vec<NodeId> = r.t_set(3).iter().copied().collect();
        assert_eq!(t3, vec![1, 3]);
    }

    #[test]
    fn narrated_queries_match_paper() {
        let r = ReferenceChecker::compute(&figure3());
        assert!(r.is_live_in(2, &[8], 9)); // x live-in at 10
        assert!(r.is_live_in(2, &[4], 9)); // y live-in at 10
        assert!(!r.is_live_in(1, &[3], 9)); // w not live at 10
        assert!(!r.is_live_in(2, &[8], 3)); // x not live-in at 4
    }

    /// Pseudo-random graphs: the production checker and the reference
    /// checker must agree on every (def, use, q) triple.
    #[test]
    fn agrees_with_bitset_checker_on_random_graphs() {
        let mut state = 0x853c49e6748fea9bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..120 {
            let n = 2 + (next() % 10) as usize;
            let mut g = DiGraph::new(n, 0);
            for v in 1..n as NodeId {
                g.add_edge((next() % v as u64) as NodeId, v);
            }
            for _ in 0..(next() % (2 * n as u64 + 1)) {
                g.add_edge((next() % n as u64) as NodeId, (next() % n as u64) as NodeId);
            }
            let reference = ReferenceChecker::compute(&g);
            let bitset = LivenessChecker::compute(&g);
            for def in 0..n as NodeId {
                for u in 0..n as NodeId {
                    for q in 0..n as NodeId {
                        let uses = [u];
                        assert_eq!(
                            reference.is_live_in(def, &uses, q),
                            bitset.is_live_in(def, &uses, q),
                            "case {case}: live-in(def={def}, use={u}, q={q})\n{g:?}"
                        );
                        assert_eq!(
                            reference.is_live_out(def, &uses, q),
                            bitset.is_live_out(def, &uses, q),
                            "case {case}: live-out(def={def}, use={u}, q={q})\n{g:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn t_sets_differ_only_by_redundant_elements() {
        // The bitset engine's globally-filtered T may differ from
        // Definition 5, but only by elements t with t ∈ R_q (redundant
        // for queries) in either direction.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..80 {
            let n = 2 + (next() % 10) as usize;
            let mut g = DiGraph::new(n, 0);
            for v in 1..n as NodeId {
                g.add_edge((next() % v as u64) as NodeId, v);
            }
            for _ in 0..(next() % (2 * n as u64 + 1)) {
                g.add_edge((next() % n as u64) as NodeId, (next() % n as u64) as NodeId);
            }
            let reference = ReferenceChecker::compute(&g);
            let bitset = LivenessChecker::compute(&g);
            for q in 0..n as NodeId {
                if !reference.dom().is_reachable(q) {
                    continue;
                }
                let def_t = reference.t_set(q);
                let eng_t: BTreeSet<NodeId> = bitset.t_set(q).into_iter().collect();
                // Anything Definition 5 contains but the engine dropped
                // must be reduced-reachable from q (then the t = q
                // iteration subsumes its R-set, so queries cannot
                // change). The engine may also keep *extra* elements the
                // propagation found; their soundness is covered by the
                // exhaustive query-agreement test above.
                for x in def_t.difference(&eng_t) {
                    assert!(
                        reference.r_set(q).contains(x),
                        "engine dropped a non-redundant T element at q={q}: {x} \
                         (definition {def_t:?} vs engine {eng_t:?})"
                    );
                }
            }
        }
    }
}
