//! The sorted-array storage variant suggested by §6.1 and §8 of the
//! paper ("future implementations could use sorted arrays instead of
//! bitsets to save space in case of larger CFGs").

use fastlive_bitset::SortedSet;
use fastlive_cfg::{DfsTree, DomTree, EdgeClass};
use fastlive_graph::{Cfg, NodeId};

/// A liveness checker storing `R_v` and `T_v` as sorted arrays instead
/// of bitsets.
///
/// Memory is proportional to the total number of *set elements* rather
/// than `|V|²` bits, which moves the §6.1 break-even point for large
/// CFGs: the `memory_breakeven` benchmark binary compares the two
/// representations across block counts. Queries use binary search
/// (`O(log |R_t|)` per use test) instead of bit probes, mirroring the
/// trade-off the paper describes for LAO's sorted-array live sets.
///
/// Answers are bit-for-bit identical to
/// [`LivenessChecker`](crate::LivenessChecker); the test suite checks
/// this on randomized graphs.
///
/// # Examples
///
/// ```
/// use fastlive_core::SortedLivenessChecker;
/// use fastlive_graph::DiGraph;
///
/// let g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
/// let live = SortedLivenessChecker::compute(&g);
/// assert!(live.is_live_in(0, &[2], 1));
/// assert!(!live.is_live_in(0, &[2], 3));
/// ```
#[derive(Clone, Debug)]
pub struct SortedLivenessChecker {
    dfs: DfsTree,
    dom: DomTree,
    /// `R` rows indexed by dominance-preorder number, elements are
    /// numbers too.
    r: Vec<SortedSet>,
    /// `T` rows (globally filtered like the bitset engine).
    t: Vec<SortedSet>,
    maxnum_by_num: Vec<u32>,
    is_back_target: Vec<bool>,
    reducible: bool,
}

impl SortedLivenessChecker {
    /// Runs the precomputation with sorted-array propagation throughout
    /// (peak memory stays proportional to the stored result).
    pub fn compute<G: Cfg>(g: &G) -> Self {
        let dfs = DfsTree::compute(g);
        let dom = DomTree::compute(g, &dfs);
        let n = dom.num_reachable();
        let num = |v: NodeId| dom.num(v);

        // R: postorder merge propagation.
        let mut r: Vec<SortedSet> = vec![SortedSet::new(); n];
        for &v in dfs.postorder() {
            let vn = num(v);
            let mut row = SortedSet::from_sorted(vec![vn]);
            for (i, &w) in g.succs(v).iter().enumerate() {
                if dfs.edge_class_at(v, i) != EdgeClass::Back {
                    row.union_with(&r[num(w) as usize]);
                }
            }
            row.shrink_to_fit();
            r[vn as usize] = row;
        }

        // Phase 1: T of back-edge targets in DFS-preorder order (Eq. 1).
        let mut targets: Vec<NodeId> = dfs.back_edges().iter().map(|&(_, t)| t).collect();
        targets.sort_unstable_by_key(|&t| dfs.pre(t));
        targets.dedup();
        let mut theader: Vec<Option<SortedSet>> = vec![None; g.num_nodes()];
        for &tgt in &targets {
            let tn = num(tgt);
            let mut row = SortedSet::from_sorted(vec![tn]);
            for &(s2, t2) in dfs.back_edges() {
                if r[tn as usize].contains(num(s2)) && !r[tn as usize].contains(num(t2)) {
                    row.union_with(theader[t2 as usize].as_ref().expect("Theorem 3 order"));
                }
            }
            theader[tgt as usize] = Some(row);
        }

        // Phases 2+3: seed sources, propagate in postorder; then the
        // global filter (T_v \ R_v) ∪ {v}.
        let mut seeds: Vec<Vec<NodeId>> = vec![Vec::new(); g.num_nodes()];
        for &(s, tgt) in dfs.back_edges() {
            seeds[s as usize].push(tgt);
        }
        let mut t: Vec<SortedSet> = vec![SortedSet::new(); n];
        for &v in dfs.postorder() {
            let vn = num(v);
            let mut row = SortedSet::new();
            for (i, &w) in g.succs(v).iter().enumerate() {
                if dfs.edge_class_at(v, i) != EdgeClass::Back {
                    row.union_with(&t[num(w) as usize]);
                }
            }
            for &tgt in &seeds[v as usize] {
                row.union_with(theader[tgt as usize].as_ref().expect("seeded target"));
            }
            t[vn as usize] = row;
        }
        for &v in dfs.preorder() {
            let vn = num(v);
            let kept: Vec<u32> = t[vn as usize]
                .iter()
                .filter(|&x| x != vn && !r[vn as usize].contains(x))
                .chain(std::iter::once(vn))
                .collect();
            let mut row = SortedSet::from_unsorted(kept);
            row.shrink_to_fit();
            t[vn as usize] = row;
        }

        let mut is_back_target = vec![false; g.num_nodes()];
        for &(_, tgt) in dfs.back_edges() {
            is_back_target[tgt as usize] = true;
        }
        let reducible = dfs.back_edges().iter().all(|&(s, tt)| dom.dominates(tt, s));
        let mut maxnum_by_num = vec![0u32; n];
        for i in 0..n as u32 {
            maxnum_by_num[i as usize] = dom.maxnum(dom.node_at_num(i));
        }

        SortedLivenessChecker {
            dfs,
            dom,
            r,
            t,
            maxnum_by_num,
            is_back_target,
            reducible,
        }
    }

    /// `true` if the CFG is reducible.
    pub fn is_reducible(&self) -> bool {
        self.reducible
    }

    fn reachable(&self, v: NodeId) -> bool {
        self.dom.is_reachable(v)
    }

    /// Algorithm 1/3 with sorted-array probes.
    pub fn is_live_in(&self, def: NodeId, uses: &[NodeId], q: NodeId) -> bool {
        self.query(def, uses, q, None)
    }

    /// Algorithm 2 with sorted-array probes.
    pub fn is_live_out(&self, def: NodeId, uses: &[NodeId], q: NodeId) -> bool {
        if !self.reachable(def) || !self.reachable(q) {
            return false;
        }
        if def == q {
            // Live-out of the defining block iff some reachable use is
            // elsewhere.
            return uses.iter().any(|&u| u != q && self.reachable(u));
        }
        self.query(def, uses, q, Some(q))
    }

    /// Shared candidate loop. `live_out_q` carries Algorithm 2's `q`
    /// for the `U \ {q}` special case.
    fn query(&self, def: NodeId, uses: &[NodeId], q: NodeId, live_out_q: Option<NodeId>) -> bool {
        if !self.reachable(def) || !self.reachable(q) {
            return false;
        }
        let defn = self.dom.num(def);
        let qn = self.dom.num(q);
        let max_dom = self.dom.maxnum(def);
        if qn <= defn || max_dom < qn {
            return false;
        }
        let trow = &self.t[qn as usize];
        let mut from = defn + 1;
        while let Some(tn) = trow.next_at_least(from) {
            if tn > max_dom {
                break;
            }
            let rrow = &self.r[tn as usize];
            let drop_q = live_out_q.is_some_and(|oq| tn == qn && !self.is_back_target[oq as usize]);
            for &u in uses {
                if drop_q && u == q {
                    continue;
                }
                if self.reachable(u) && rrow.contains(self.dom.num(u)) {
                    return true;
                }
            }
            from = self.maxnum_by_num[tn as usize] + 1;
        }
        false
    }

    /// Heap bytes of the stored `R`/`T` arrays (cardinality-
    /// proportional; compare with
    /// [`LivenessChecker::matrix_heap_bytes`](crate::LivenessChecker::matrix_heap_bytes)).
    pub fn set_heap_bytes(&self) -> usize {
        self.r.iter().map(SortedSet::heap_bytes).sum::<usize>()
            + self.t.iter().map(SortedSet::heap_bytes).sum::<usize>()
    }

    /// The DFS tree.
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

    #[test]
    fn matches_bitset_engine_on_random_graphs() {
        let mut state = 0x6c078965u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..120 {
            let n = 2 + (next() % 12) as usize;
            let mut g = DiGraph::new(n, 0);
            for v in 1..n as NodeId {
                g.add_edge((next() % v as u64) as NodeId, v);
            }
            for _ in 0..(next() % (2 * n as u64 + 1)) {
                g.add_edge((next() % n as u64) as NodeId, (next() % n as u64) as NodeId);
            }
            let bitset = LivenessChecker::compute(&g);
            let sorted = SortedLivenessChecker::compute(&g);
            assert_eq!(bitset.is_reducible(), sorted.is_reducible());
            for def in 0..n as NodeId {
                for u in 0..n as NodeId {
                    for q in 0..n as NodeId {
                        assert_eq!(
                            bitset.is_live_in(def, &[u], q),
                            sorted.is_live_in(def, &[u], q),
                            "case {case}: live-in def={def} use={u} q={q}\n{g:?}"
                        );
                        assert_eq!(
                            bitset.is_live_out(def, &[u], q),
                            sorted.is_live_out(def, &[u], q),
                            "case {case}: live-out def={def} use={u} q={q}\n{g:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memory_scales_with_cardinality_not_universe() {
        // A long chain: every R_v averages n/2 elements, so the sorted
        // representation is ~n²/2 * 4 bytes ... the bitset one is
        // n * ceil(n/64) * 8. For small sparse graphs sorted wins.
        // Two disjoint long branches: each node reaches only its own
        // short suffix, cardinalities stay tiny.
        let n = 200u32;
        let mut g = DiGraph::new(n as usize, 0);
        // Star: entry -> 199 leaves. R sets have 1-200 elements... keep
        // it truly sparse: entry -> leaf i, no other edges.
        for v in 1..n {
            g.add_edge(0, v);
        }
        let bitset = LivenessChecker::compute(&g);
        let sorted = SortedLivenessChecker::compute(&g);
        // Bitset: 3 matrices (R, T, transposed R) * 200 rows, each row
        // padded from ceil(200/64) = 4 words to a full 8-word cache
        // line, plus up to 7 words of alignment slack per matrix.
        assert_eq!(bitset.matrix_heap_bytes(), 3 * (200 * 8 + 7) * 8);
        // Sorted: R holds 200 + 199 elements, T 200 singletons — about
        // 2.4 KB against 12.8 KB for the bitsets.
        assert!(sorted.set_heap_bytes() < bitset.matrix_heap_bytes() / 4);
    }

    #[test]
    fn figure3_queries_match() {
        let g = DiGraph::from_edges(
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
        );
        let live = SortedLivenessChecker::compute(&g);
        assert!(live.is_live_in(2, &[8], 9));
        assert!(live.is_live_in(2, &[4], 9));
        assert!(!live.is_live_in(1, &[3], 9));
        assert!(!live.is_live_in(2, &[8], 3));
    }
}
