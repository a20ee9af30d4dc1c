//! The loop-nesting-forest formulation sketched in the paper's outlook
//! (§8): "Our technique uses structural properties of the CFG and could
//! take advantage of a precomputed loop nesting forest."

use fastlive_bitset::BitMatrix;
use fastlive_cfg::{DfsTree, DomTree, EdgeClass, LoopForest, Reducibility};
use fastlive_graph::{Cfg, NodeId};

/// A liveness checker for **reducible** CFGs that replaces the stored
/// `T_q` sets by the loop nesting forest.
///
/// On a reducible CFG the back-edge targets are exactly the loop
/// headers, and the (filtered) set `T_q` is `{q}` plus the headers of
/// the loops containing `q` — a chain in the dominator tree. A query
/// therefore needs **no `T` matrix at all**: walk up the loop forest
/// from `q` while the headers stay strictly dominated by `def(a)`, and
/// test reduced reachability from the outermost survivor (Theorem 2's
/// unique most-dominating candidate). This halves the precomputation
/// memory and is the direction later SSA-liveness work took.
///
/// [`compute`](Self::compute) returns `None` for irreducible CFGs; the
/// caller falls back to [`LivenessChecker`](crate::LivenessChecker)
/// (as §6.1 observes, irreducibility is rare: 7 of 4823 SPEC2000
/// procedures).
///
/// # Examples
///
/// ```
/// use fastlive_core::baseline::LoopForestChecker;
/// use fastlive_graph::DiGraph;
///
/// let g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
/// let live = LoopForestChecker::compute(&g).expect("reducible");
/// assert!(live.is_live_in(0, &[2], 1));
/// assert!(!live.is_live_in(0, &[2], 3));
/// ```
#[derive(Clone, Debug)]
pub struct LoopForestChecker {
    dom: DomTree,
    forest: LoopForest,
    /// Reduced reachability, rows/columns in dominance-preorder numbers.
    r: BitMatrix,
    is_back_target: Vec<bool>,
}

impl LoopForestChecker {
    /// Precomputes the dominator tree, loop forest and `R` matrix.
    /// Returns `None` if the CFG is irreducible.
    pub fn compute<G: Cfg>(g: &G) -> Option<Self> {
        let dfs = DfsTree::compute(g);
        let dom = DomTree::compute(g, &dfs);
        if !Reducibility::compute(&dfs, &dom).is_reducible() {
            return None;
        }
        let forest = LoopForest::compute(g, &dfs);

        let n = dom.num_reachable();
        let mut r = BitMatrix::new(n, n);
        for &v in dfs.postorder() {
            let vn = dom.num(v);
            r.set(vn, vn);
            for (i, &w) in g.succs(v).iter().enumerate() {
                if dfs.edge_class_at(v, i) != EdgeClass::Back {
                    r.union_rows(vn, dom.num(w));
                }
            }
        }

        let mut is_back_target = vec![false; g.num_nodes()];
        for &(_, t) in dfs.back_edges() {
            is_back_target[t as usize] = true;
        }

        Some(LoopForestChecker {
            dom,
            forest,
            r,
            is_back_target,
        })
    }

    /// The loop forest backing the checker.
    pub fn forest(&self) -> &LoopForest {
        &self.forest
    }

    /// The single candidate of Theorem 2 for the query `(def, q)`:
    /// the outermost loop header enclosing `q` that is still strictly
    /// dominated by `def` — or `q` itself when no such header exists.
    /// `None` when `q ∉ sdom(def)`.
    pub fn candidate(&self, def: NodeId, q: NodeId) -> Option<NodeId> {
        if !self.dom.is_reachable(def)
            || !self.dom.is_reachable(q)
            || !self.dom.strictly_dominates(def, q)
        {
            return None;
        }
        let mut t = q;
        for l in self.forest.containing_loops(q) {
            let h = self.forest.loop_ref(l).header;
            if self.dom.strictly_dominates(def, h) {
                t = h;
            } else {
                break;
            }
        }
        Some(t)
    }

    /// Live-in check via the loop forest (single reachability test).
    pub fn is_live_in(&self, def: NodeId, uses: &[NodeId], q: NodeId) -> bool {
        let Some(t) = self.candidate(def, q) else {
            return false;
        };
        let tn = self.dom.num(t);
        uses.iter()
            .any(|&u| self.dom.is_reachable(u) && self.r.contains(tn, self.dom.num(u)))
    }

    /// Live-out check via the loop forest (Algorithm 2's special cases
    /// carried over).
    pub fn is_live_out(&self, def: NodeId, uses: &[NodeId], q: NodeId) -> bool {
        if !self.dom.is_reachable(def) || !self.dom.is_reachable(q) {
            return false;
        }
        if def == q {
            // Live-out of the defining block iff some reachable use is
            // elsewhere.
            return uses.iter().any(|&u| u != q && self.dom.is_reachable(u));
        }
        let Some(t) = self.candidate(def, q) else {
            return false;
        };
        let tn = self.dom.num(t);
        let drop_q_use = t == q && !self.is_back_target[q as usize];
        uses.iter().any(|&u| {
            !(drop_q_use && u == q)
                && self.dom.is_reachable(u)
                && self.r.contains(tn, self.dom.num(u))
        })
    }

    /// Heap bytes of the stored matrix — a third of the bitset
    /// engine's, which also keeps `T` and the transposed `R` its fused
    /// query kernel scans.
    pub fn matrix_heap_bytes(&self) -> usize {
        self.r.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LivenessChecker;
    use fastlive_graph::DiGraph;

    #[test]
    fn rejects_irreducible_graphs() {
        let g = DiGraph::from_edges(3, 0, &[(0, 1), (0, 2), (1, 2), (2, 1)]);
        assert!(LoopForestChecker::compute(&g).is_none());
    }

    #[test]
    fn nested_loop_chain_candidate() {
        // 0 -> 1 -> 2 -> 3 -> 2, 3 -> 1, 1 -> 4: loops at 1 and 2.
        let g = DiGraph::from_edges(5, 0, &[(0, 1), (1, 2), (2, 3), (3, 2), (3, 1), (1, 4)]);
        let live = LoopForestChecker::compute(&g).expect("reducible");
        // def at entry: the outermost header under it is 1.
        assert_eq!(live.candidate(0, 3), Some(1));
        // def at 1: headers under it stop at 2.
        assert_eq!(live.candidate(1, 3), Some(2));
        // def at 2: no header strictly below, candidate is q itself.
        assert_eq!(live.candidate(2, 3), Some(3));
        // q not strictly dominated: no candidate.
        assert_eq!(live.candidate(3, 1), None);
    }

    #[test]
    fn matches_bitset_engine_on_reducible_random_graphs() {
        // Tree backbone plus back edges to ancestors: reducible by
        // construction.
        let mut state = 0xdeadbeef12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut tested = 0;
        for case in 0..150 {
            let n = 2 + (next() % 14) as usize;
            let mut g = DiGraph::new(n, 0);
            let mut parent = vec![0u32; n];
            for v in 1..n as NodeId {
                let p = (next() % v as u64) as NodeId;
                parent[v as usize] = p;
                g.add_edge(p, v);
            }
            // Back edges to strict tree ancestors.
            for _ in 0..(next() % (n as u64 / 2 + 1)) {
                let mut v = (next() % n as u64) as NodeId;
                // pick a random ancestor
                let mut hops = next() % 4;
                let src = v;
                while v != 0 && hops > 0 {
                    v = parent[v as usize];
                    hops -= 1;
                }
                g.add_edge(src, v);
            }
            let Some(lf) = LoopForestChecker::compute(&g) else {
                continue;
            };
            tested += 1;
            let bitset = LivenessChecker::compute(&g);
            for def in 0..n as NodeId {
                for u in 0..n as NodeId {
                    for q in 0..n as NodeId {
                        assert_eq!(
                            bitset.is_live_in(def, &[u], q),
                            lf.is_live_in(def, &[u], q),
                            "case {case}: live-in def={def} use={u} q={q}\n{g:?}"
                        );
                        assert_eq!(
                            bitset.is_live_out(def, &[u], q),
                            lf.is_live_out(def, &[u], q),
                            "case {case}: live-out def={def} use={u} q={q}\n{g:?}"
                        );
                    }
                }
            }
        }
        assert!(tested >= 100, "only {tested} reducible samples");
    }

    #[test]
    fn memory_is_a_third_of_the_bitset_engine() {
        // The bitset engine keeps three matrices of this shape (R, T,
        // and the transposed R its fused query kernel scans); the loop
        // forest checker stores only R.
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let bitset = LivenessChecker::compute(&g);
        let lf = LoopForestChecker::compute(&g).expect("reducible");
        assert_eq!(lf.matrix_heap_bytes() * 3, bitset.matrix_heap_bytes());
    }
}
