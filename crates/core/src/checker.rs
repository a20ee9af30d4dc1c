//! The liveness checker: Algorithms 1–3 of the paper.
//!
//! # The word-masked interval trick, fused
//!
//! Thanks to the §5.1 dominance-preorder numbering, the Algorithm 3
//! candidate set `T_q ∩ sdom(def)` is the **contiguous bit interval**
//! `[num(def)+1, maxnum(def)]` of `T_q`'s row. The hot query paths
//! exploit that with a *fused* kernel: Algorithm 1 asks whether some
//! candidate `t` in that interval has `use ∈ R_t`, and with the
//! transposed reachability matrix (`rt`, whose row `num(use)` collects
//! exactly the `t` with `use ∈ R_t`) that becomes a single masked
//! word-parallel AND of two rows over the interval
//! ([`BitMatrix::rows_intersect_in_range`](fastlive_bitset::BitMatrix::rows_intersect_in_range)):
//! each interval word is loaded once, edge words are masked once, and
//! no candidate is ever materialized. This answers over the **full**
//! candidate set, which is exactly Algorithm 1's semantics — the §4.1
//! subtree skipping and the Theorem 2 fast path only drop *redundant*
//! tests, so the fused answer is identical by construction (the
//! differential suite pins this against
//! [`baseline::is_live_in_scalar`] and the enumeration loop).
//!
//! The explicit candidate walk survives as [`baseline::candidates`],
//! with subtree skipping as an argument. It powers the ablation
//! benchmarks, diagnostics, and the differential tests that keep the
//! fused kernel honest.
//!
//! [`baseline::is_live_in_scalar`]: crate::baseline::is_live_in_scalar
//! [`baseline::candidates`]: crate::baseline::candidates

use fastlive_cfg::{DfsTree, DomTree, Reducibility};
use fastlive_graph::{Cfg, NodeId};

use crate::precompute::Precomputation;

/// Fast SSA liveness checking over an arbitrary CFG.
///
/// This is the paper's contribution as a reusable object. Construction
/// runs the *variable-independent* precomputation (DFS tree, dominator
/// tree, the reduced-reachability matrix `R` and the back-edge-target
/// matrix `T`); afterwards [`is_live_in`](Self::is_live_in) and
/// [`is_live_out`](Self::is_live_out) answer queries for **any**
/// variable, given only its definition block and its def-use chain —
/// no per-variable state exists, so adding or removing variables,
/// instructions or uses never invalidates a `LivenessChecker`. Only
/// CFG edits (new blocks or edges) require recomputation.
///
/// The query path is the bitset implementation of §5.1 (Algorithm 3)
/// taken one step further: `T_q ∩ sdom(def)` is the interval
/// `[num(def)+1, maxnum(def)]` of `T_q`'s bit row, and the whole
/// candidate loop fuses into one masked word-parallel AND of that
/// interval against the use's transposed-`R` row (see the module
/// docs). The explicit loop — candidates in dominance-preorder order,
/// §4.1 subtree skipping, the Theorem 2 single-test exit on reducible
/// CFGs — survives in [`crate::baseline`] for ablation and
/// differential testing.
///
/// # Examples
///
/// ```
/// use fastlive_core::LivenessChecker;
/// use fastlive_graph::DiGraph;
///
/// // 0 -> 1 -> 2 -> 1 (loop), 2 -> 3. A variable defined in 0 and
/// // used in 2 is live around the whole loop.
/// let g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
/// let live = LivenessChecker::compute(&g);
/// assert!(live.is_live_in(0, &[2], 1));
/// assert!(live.is_live_in(0, &[2], 2));
/// assert!(live.is_live_out(0, &[2], 2)); // back to the header
/// assert!(!live.is_live_in(0, &[2], 3)); // dead after the loop
/// ```
#[derive(Clone, Debug)]
pub struct LivenessChecker {
    dfs: DfsTree,
    dom: DomTree,
    pre: Precomputation,
    /// `maxnum` indexed by dominance-preorder *number* (for subtree
    /// skipping without going back to node ids).
    maxnum_by_num: Vec<u32>,
    /// Dominance-preorder number per node id (`u32::MAX` when
    /// unreachable) — the query hot path avoids the panicking
    /// [`DomTree::num`] accessor.
    num_by_node: Vec<u32>,
    is_back_target: Vec<bool>,
}

impl LivenessChecker {
    /// Runs all precomputations for `g`.
    pub fn compute<G: Cfg>(g: &G) -> Self {
        let dfs = DfsTree::compute(g);
        let dom = DomTree::compute(g, &dfs);
        Self::with_parts(g, dfs, dom)
    }

    /// Builds a checker reusing an existing DFS and dominator tree
    /// (which many compilers keep around anyway — §2 lists them as
    /// prerequisites that are "often available").
    pub fn with_parts<G: Cfg>(g: &G, dfs: DfsTree, dom: DomTree) -> Self {
        let pre = Precomputation::compute(g, &dfs, &dom);
        Self::with_precomputation(g, dfs, dom, pre)
    }

    /// Builds a checker from an **already-computed** precomputation —
    /// the reuse hook for engines that cache `R`/`T` matrices by CFG
    /// shape (the matrices depend only on the graph, never on
    /// variables, so any CFG-identical function shares them).
    ///
    /// # Panics
    ///
    /// Panics if `pre`'s matrices were not computed over `dom`'s
    /// reachable-node universe (a shape mismatch would silently corrupt
    /// every query).
    pub fn with_precomputation<G: Cfg>(
        g: &G,
        dfs: DfsTree,
        dom: DomTree,
        pre: Precomputation,
    ) -> Self {
        assert_eq!(
            pre.r.rows(),
            dom.num_reachable(),
            "precomputation was built over a different graph shape"
        );
        let mut maxnum_by_num = vec![0u32; dom.num_reachable()];
        for i in 0..dom.num_reachable() as u32 {
            maxnum_by_num[i as usize] = dom.maxnum(dom.node_at_num(i));
        }
        let mut num_by_node = vec![u32::MAX; g.num_nodes()];
        for (n, &v) in dom.preorder().iter().enumerate() {
            num_by_node[v as usize] = n as u32;
        }
        let mut is_back_target = vec![false; g.num_nodes()];
        for &(_, t) in dfs.back_edges() {
            is_back_target[t as usize] = true;
        }
        LivenessChecker {
            dfs,
            dom,
            pre,
            maxnum_by_num,
            num_by_node,
            is_back_target,
        }
    }

    /// Dominance-preorder number of `v`, or `None` when unreachable —
    /// the non-panicking lookup the query loops use.
    #[inline]
    pub(crate) fn num_of(&self, v: NodeId) -> Option<u32> {
        match self.num_by_node.get(v as usize) {
            Some(&n) if n != u32::MAX => Some(n),
            _ => None,
        }
    }

    /// The precomputed `R`/`T` matrices (crate-internal: the batch
    /// subsystem reuses them without re-running the precomputation).
    pub(crate) fn pre(&self) -> &Precomputation {
        &self.pre
    }

    /// The precomputed `R`/`T` matrices — the public reuse hook.
    /// Together with [`with_precomputation`](Self::with_precomputation)
    /// this lets an engine move a precomputation out of one checker and
    /// into another for a CFG-identical function without re-running
    /// §5.2.
    pub fn precomputation(&self) -> &Precomputation {
        &self.pre
    }

    /// The node-id → preorder-number map (`u32::MAX` = unreachable),
    /// indexed by node id — shared with the batch subsystem so the map
    /// is built exactly once.
    pub(crate) fn num_by_node(&self) -> &[u32] {
        &self.num_by_node
    }

    /// `maxnum` by dominance-preorder number (crate-internal: the
    /// candidate walks of [`crate::baseline`] skip subtrees with it).
    #[inline]
    pub(crate) fn maxnum_by_num(&self) -> &[u32] {
        &self.maxnum_by_num
    }

    /// `true` if the CFG is reducible (every back-edge target dominates
    /// its source). Computed on demand: only diagnostics ask.
    pub fn is_reducible(&self) -> bool {
        Reducibility::compute(&self.dfs, &self.dom).is_reducible()
    }

    /// The dominator tree the checker computed.
    pub fn dom(&self) -> &DomTree {
        &self.dom
    }

    /// The DFS tree the checker computed.
    pub fn dfs(&self) -> &DfsTree {
        &self.dfs
    }

    /// `true` if `v` is the target of a DFS back edge.
    pub fn is_back_edge_target(&self, v: NodeId) -> bool {
        self.is_back_target[v as usize]
    }

    /// `w ∈ R_v`: is `w` reachable from `v` in the reduced graph
    /// (no back edges)? Both must be reachable from the entry.
    #[inline]
    pub fn reduced_reachable(&self, v: NodeId, w: NodeId) -> bool {
        match (self.num_of(v), self.num_of(w)) {
            (Some(vn), Some(wn)) => self.pre.r.contains(vn, wn),
            _ => false,
        }
    }

    /// The set `R_v` as node ids (primarily for tests and diagnostics).
    pub fn r_set(&self, v: NodeId) -> Vec<NodeId> {
        self.pre
            .r
            .row_iter(self.dom.num(v))
            .map(|n| self.dom.node_at_num(n))
            .collect()
    }

    /// The set `T_q` as node ids (primarily for tests and diagnostics).
    pub fn t_set(&self, q: NodeId) -> Vec<NodeId> {
        self.pre
            .t
            .row_iter(self.dom.num(q))
            .map(|n| self.dom.node_at_num(n))
            .collect()
    }

    /// `true` if a query `(def, q)` has a non-empty candidate set
    /// `T_q ∩ sdom(def)`. A `false` answer proves the variable dead at
    /// `q` regardless of its uses; the query entry points use this to
    /// reject before resolving any use numbers.
    ///
    /// This is exactly the `q <= def || maxnum(def) < q` precheck of
    /// Algorithm 3 — no row scan. Once the precheck passes the set is
    /// *never* empty: the precomputation's global filter puts `q` into
    /// its own `T_q`, and `num(q)` lies inside `[num(def)+1,
    /// maxnum(def)]` by the precheck itself, so `q` is always a
    /// candidate (the `debug_assert!` pins the invariant).
    #[inline]
    pub fn has_candidates(&self, def: NodeId, q: NodeId) -> bool {
        let (Some(defn), Some(qn)) = (self.num_of(def), self.num_of(q)) else {
            return false;
        };
        let max_dom = self.maxnum_by_num[defn as usize];
        if qn <= defn || max_dom < qn {
            return false;
        }
        debug_assert!(
            self.pre.t.intersects_in_range(qn, defn + 1, max_dom),
            "global filter guarantees q ∈ T_q inside the interval"
        );
        true
    }

    /// The Algorithm 3 precheck and interval bounds of a query
    /// `(def, q)`: `Some((num(q), num(def)+1, maxnum(def)))` when `q`
    /// is strictly dominated by `def` (both reachable), `None`
    /// otherwise. The fused query paths resolve this once and then run
    /// one [`fused_use_hit`](Self::fused_use_hit) per use.
    #[inline]
    fn query_bounds(&self, def: NodeId, q: NodeId) -> Option<(u32, u32, u32)> {
        let (Some(defn), Some(qn)) = (self.num_of(def), self.num_of(q)) else {
            return None;
        };
        let max_dom = self.maxnum_by_num[defn as usize];
        // `if (q <= def || max_dom < q) return false;` of Algorithm 3.
        if qn <= defn || max_dom < qn {
            return None;
        }
        Some((qn, defn + 1, max_dom))
    }

    /// The fused Algorithm 1 body for one use: does some candidate
    /// `t ∈ T_q` with `num(t) ∈ [lo, hi]` reach the use (`use ∈ R_t`)?
    /// One masked word-parallel pass over the interval, ANDing the
    /// `T_q` row against the transposed-`R` row of the use — each word
    /// touched exactly once, no per-word re-masking, no candidate
    /// enumeration.
    #[inline]
    fn fused_use_hit(&self, qn: u32, lo: u32, hi: u32, un: u32) -> bool {
        self.pre
            .t
            .rows_intersect_in_range(qn, &self.pre.rt, un, lo, hi)
    }

    /// Algorithm 1 / Algorithm 3: is a variable defined at block `def`
    /// with uses at blocks `uses` live-in at block `q`?
    ///
    /// `uses` are blocks in the sense of Definition 1: a φ-argument
    /// counts as a use at the corresponding *predecessor* block.
    /// Duplicate or unreachable entries are allowed (unreachable uses
    /// can never witness liveness).
    ///
    /// The query is one fused kernel per use: the `T_q` row is ANDed
    /// against the use's transposed-`R` row over the candidate
    /// interval, so each interval word is touched exactly once and no
    /// candidate is enumerated (see the module docs). Short-circuits on
    /// the first witnessing use.
    pub fn is_live_in(&self, def: NodeId, uses: &[NodeId], q: NodeId) -> bool {
        let Some((qn, lo, hi)) = self.query_bounds(def, q) else {
            return false;
        };
        uses.iter()
            .filter_map(|&u| self.num_of(u))
            .any(|un| self.fused_use_hit(qn, lo, hi, un))
    }

    /// [`is_live_in`](Self::is_live_in) for a use list already resolved
    /// to preorder numbers — lets [`crate::FunctionLiveness`] resolve
    /// its def-use chain exactly once per query.
    #[inline]
    pub(crate) fn is_live_in_prenums(&self, def: NodeId, q: NodeId, nums: &[u32]) -> bool {
        match self.query_bounds(def, q) {
            Some((qn, lo, hi)) => nums.iter().any(|&un| self.fused_use_hit(qn, lo, hi, un)),
            None => false,
        }
    }

    /// Algorithm 2: is the variable live-out at block `q`?
    ///
    /// The two special cases of §4.2 apply: when `q` *is* the
    /// definition block, the variable is live-out iff it has a
    /// reachable use outside `q`; and the trivial candidate `t = q` may
    /// only count a use at `q` itself when `q` is a back-edge target
    /// (which proves a non-trivial cycle through `q`). As everywhere
    /// else, unreachable blocks never witness liveness.
    pub fn is_live_out(&self, def: NodeId, uses: &[NodeId], q: NodeId) -> bool {
        if def == q {
            // Live-out of the defining block iff some use is elsewhere.
            return self.num_of(q).is_some()
                && uses.iter().any(|&u| u != q && self.num_of(u).is_some());
        }
        let Some((qn, lo, hi)) = self.query_bounds(def, q) else {
            return false;
        };
        let back = self.is_back_target[q as usize];
        uses.iter()
            .filter_map(|&u| self.num_of(u))
            .any(|un| self.fused_use_out_hit(qn, lo, hi, un, back))
    }

    /// The fused Algorithm 2 body for one use. A use elsewhere than `q`
    /// (or any use, when `q` is a back-edge target) scans the full
    /// candidate interval like live-in. A use *at* `q` of a non-target
    /// `q` must not count the trivial candidate `t = q` (the `U \ {q}`
    /// of Algorithm 2, line 8) — that is the single bit `num(q)` of the
    /// interval, so the scan splits into `[lo, qn-1]` and `[qn+1, hi]`
    /// (the kernel treats inverted halves as empty; `qn ∈ [lo, hi]` is
    /// guaranteed by the precheck, and `qn ≥ lo ≥ 1` keeps `qn - 1` in
    /// range).
    #[inline]
    fn fused_use_out_hit(&self, qn: u32, lo: u32, hi: u32, un: u32, back: bool) -> bool {
        if un != qn || back {
            self.fused_use_hit(qn, lo, hi, un)
        } else {
            self.fused_use_hit(qn, lo, qn - 1, un) || self.fused_use_hit(qn, qn + 1, hi, un)
        }
    }

    /// [`is_live_out`](Self::is_live_out) for pre-resolved use numbers
    /// (no defining-block special case — the caller handles `def == q`).
    #[inline]
    pub(crate) fn is_live_out_prenums(&self, def: NodeId, q: NodeId, nums: &[u32]) -> bool {
        let Some((qn, lo, hi)) = self.query_bounds(def, q) else {
            return false;
        };
        let back = self.is_back_target[q as usize];
        nums.iter()
            .any(|&un| self.fused_use_out_hit(qn, lo, hi, un, back))
    }

    /// Heap bytes consumed by the three matrices (`R`, `T`, and the
    /// derived transposed `R`) — the §6.1 memory cost.
    pub fn matrix_heap_bytes(&self) -> usize {
        self.pre.r.heap_bytes() + self.pre.t.heap_bytes() + self.pre.rt.heap_bytes()
    }
}

/// Packs up to `count` resolved numbers (`None`s drop out) into a
/// plain stack array for `count ≤ 8` — no heap allocation, no drop
/// glue — or a spill vector beyond, and hands the packed slice to `f`.
/// The once-per-query scratch both the graph-level and the
/// function-level query paths share.
#[inline]
pub(crate) fn with_nums<R>(
    count: usize,
    nums: impl Iterator<Item = Option<u32>>,
    f: impl FnOnce(&[u32]) -> R,
) -> R {
    if count <= 8 {
        let mut buf = [0u32; 8];
        let mut k = 0;
        for n in nums.flatten() {
            buf[k] = n;
            k += 1;
        }
        f(&buf[..k])
    } else {
        let v: Vec<u32> = nums.flatten().collect();
        f(&v)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fastlive_graph::DiGraph;

    /// The paper's Figure 3, 0-based (paper node k = node k-1).
    /// Variables of the narration: w defined at 1 (paper 2) used at 3
    /// (paper 4); x defined at 2 (paper 3) used at 8 (paper 9);
    /// y defined at 2 used at 4 (paper 5).
    pub(crate) fn figure3() -> DiGraph {
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
    fn figure3_t_set_of_node_10_paper() {
        // §3.2: from (paper) node 10, the relevant back-edge targets are
        // 10 itself plus 8, 5, 2 -> 0-based {9, 7, 4, 1}.
        let live = LivenessChecker::compute(&figure3());
        let mut t = live.t_set(9);
        t.sort_unstable();
        assert_eq!(t, vec![1, 4, 7, 9]);
    }

    #[test]
    fn figure3_narrated_queries() {
        let live = LivenessChecker::compute(&figure3());
        assert!(!live.is_reducible(), "the paper's example is irreducible");

        // "is x live-in at node 10?" -- yes (use at 9 reduced-reachable
        // from back-edge target 8). Paper nodes -> 0-based.
        assert!(live.is_live_in(2, &[8], 9));
        // "is y live-in at 10?" -- yes, needs two back-edge hops.
        assert!(live.is_live_in(2, &[4], 9));
        // "is w live at 10?" -- no: 2 (paper) is not strictly dominated
        // by def(w), so it is excluded and no use is reachable.
        assert!(!live.is_live_in(1, &[3], 9));
        // "is x live-in at 4 (paper)?" -- no: reaching the back-edge
        // target 8 (paper) from 4 leaves and re-enters def(x)'s subtree.
        assert!(!live.is_live_in(2, &[8], 3));
    }

    #[test]
    fn figure3_r_sets_spot_checks() {
        let live = LivenessChecker::compute(&figure3());
        // R of (paper) 10 = {10, 11}: only the forward continuation.
        let mut r9 = live.r_set(9);
        r9.sort_unstable();
        assert_eq!(r9, vec![9, 10]);
        // (paper) 8 reaches 9, 10, 6, 7, 11 without back edges
        // (0-based: {8, 9, 5, 6, 10} plus itself).
        let mut r7 = live.r_set(7);
        r7.sort_unstable();
        assert_eq!(r7, vec![5, 6, 7, 8, 9, 10]);
        assert!(live.reduced_reachable(7, 8));
        assert!(!live.reduced_reachable(9, 7));
    }

    #[test]
    fn straight_line_liveness() {
        let g = DiGraph::from_edges(3, 0, &[(0, 1), (1, 2)]);
        let live = LivenessChecker::compute(&g);
        // def at 0, use at 2: live-in at 1 and 2, live-out at 0 and 1.
        assert!(live.is_live_in(0, &[2], 1));
        assert!(live.is_live_in(0, &[2], 2));
        assert!(!live.is_live_in(0, &[2], 0)); // never live-in at its def
        assert!(live.is_live_out(0, &[2], 0));
        assert!(live.is_live_out(0, &[2], 1));
        assert!(!live.is_live_out(0, &[2], 2));
    }

    #[test]
    fn use_in_def_block_only() {
        let g = DiGraph::from_edges(3, 0, &[(0, 1), (1, 2)]);
        let live = LivenessChecker::compute(&g);
        // def at 1, used only at 1: dead everywhere else.
        assert!(!live.is_live_in(1, &[1], 2));
        assert!(!live.is_live_out(1, &[1], 1)); // Algorithm 2 line 2-3
        assert!(!live.is_live_out(1, &[1], 0));
        // But with a second use at 2 it is live-out of 1.
        assert!(live.is_live_out(1, &[1, 2], 1));
    }

    #[test]
    fn loop_keeps_values_alive_around_back_edge() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3: use at 1, def at 0.
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let live = LivenessChecker::compute(&g);
        assert!(live.is_reducible());
        // Used at the header: live-out of the body (wraps around).
        assert!(live.is_live_out(0, &[1], 2));
        assert!(live.is_live_in(0, &[1], 2));
        assert!(live.is_live_in(0, &[1], 1));
        assert!(!live.is_live_in(0, &[1], 3));
        // Used only in the body: still live through the header re-entry.
        assert!(live.is_live_out(0, &[2], 2));
    }

    #[test]
    fn self_loop_block_is_its_own_witness() {
        // 0 -> 1, 1 -> 1, 1 -> 2. A variable defined at 0 and used at 1
        // is live-out at 1 (the self-loop re-reaches the use).
        let g = DiGraph::from_edges(3, 0, &[(0, 1), (1, 1), (1, 2)]);
        let live = LivenessChecker::compute(&g);
        assert!(live.is_back_edge_target(1));
        assert!(live.is_live_out(0, &[1], 1));
        // Without the self loop it would be dead-out:
        let g2 = DiGraph::from_edges(3, 0, &[(0, 1), (1, 2)]);
        let live2 = LivenessChecker::compute(&g2);
        assert!(!live2.is_live_out(0, &[1], 1));
    }

    #[test]
    fn unreachable_blocks_answer_false() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (2, 1), (2, 3)]);
        let live = LivenessChecker::compute(&g);
        assert!(!live.is_live_in(0, &[1], 2)); // q unreachable
        assert!(!live.is_live_in(2, &[1], 1)); // def unreachable
        assert!(!live.is_live_in(0, &[3], 1)); // use unreachable
        assert!(!live.is_live_out(0, &[1], 2));
        assert!(!live.is_live_out(0, &[3], 0)); // only use elsewhere unreachable
        assert!(!live.is_live_out(2, &[1], 2)); // def block unreachable
    }

    #[test]
    fn nested_loops_t_sets_are_header_chains() {
        // Reducible: T_q = {q} + headers of enclosing loops (the loop
        // forest connection the precompute filter guarantees).
        let g = DiGraph::from_edges(
            6,
            0,
            &[(0, 1), (1, 2), (2, 3), (3, 2), (3, 4), (4, 1), (4, 5)],
        );
        let live = LivenessChecker::compute(&g);
        let mut t3 = live.t_set(3);
        t3.sort_unstable();
        assert_eq!(t3, vec![1, 2, 3]); // itself + inner header 2 + outer 1
        let mut t4 = live.t_set(4);
        t4.sort_unstable();
        assert_eq!(t4, vec![1, 4]);
        let mut t5 = live.t_set(5);
        t5.sort_unstable();
        assert_eq!(t5, vec![5]);
    }

    #[test]
    fn empty_uses_are_never_live() {
        let g = figure3();
        let live = LivenessChecker::compute(&g);
        for def in 0..11 {
            for q in 0..11 {
                assert!(!live.is_live_in(def, &[], q));
                assert!(!live.is_live_out(def, &[], q));
            }
        }
    }

    #[test]
    fn matrix_memory_reporting() {
        let g = DiGraph::from_edges(3, 0, &[(0, 1), (1, 2)]);
        let live = LivenessChecker::compute(&g);
        // 3 reachable nodes -> three 3x3 matrices (R, T, transposed R)
        // of one word per row (single-word rows are stored unpadded).
        assert_eq!(live.matrix_heap_bytes(), 3 * 3 * 8);
    }
}
