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
//! differential suite pins this against [`is_live_in_scalar`] and the
//! enumeration loop).
//!
//! The explicit candidate walk survives as [`Candidates`]: the row is
//! read as `u64` words, the first word is masked with
//! `!0 << (num(def)+1 mod 64)` to clip the interval's left edge, and
//! set bits pop off a cached *cursor word* with `trailing_zeros`;
//! subtree skipping re-masks the cursor directly at `maxnum(t)+1`. The
//! iterator powers the ablation benchmarks, diagnostics, and the
//! differential tests that keep the fused kernel honest.
//!
//! [`is_live_in_scalar`]: LivenessChecker::is_live_in_scalar

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
/// CFGs — survives as [`candidates`](Self::candidates) and
/// [`is_live_in_scalar`](Self::is_live_in_scalar) for ablation and
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
    reducible: bool,
    /// §4.1 dominance-subtree skipping in the candidate loop. Always
    /// sound; disabled only by the ablation benchmark.
    skip_subtrees: bool,
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
        let reducible = Reducibility::compute(&dfs, &dom).is_reducible();
        LivenessChecker {
            dfs,
            dom,
            pre,
            maxnum_by_num,
            num_by_node,
            is_back_target,
            reducible,
            skip_subtrees: true,
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

    /// Enables or disables the §4.1 subtree skipping in the candidate
    /// loop (on by default). Skipping is what makes Theorem 2 concrete:
    /// on a reducible CFG the surviving candidates form a dominance
    /// chain, so the most-dominating one is tested and the rest of the
    /// chain — its subtree — is skipped, leaving exactly one iteration.
    /// Disabling it (ablation benchmark) visits every element of
    /// `T_q ∩ sdom(def)` and must return the same answers, only slower.
    pub fn set_subtree_skipping(&mut self, enabled: bool) {
        self.skip_subtrees = enabled;
    }

    /// `true` if the CFG is reducible (every back-edge target dominates
    /// its source).
    pub fn is_reducible(&self) -> bool {
        self.reducible
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

    /// The candidate back-edge targets for a query `(def, q)`:
    /// `T_q ∩ sdom(def)`, most-dominating first, with each candidate's
    /// dominance subtree skipped (the Algorithm 3 loop). Honors the
    /// Theorem 2 fast path. Empty when `q ∉ sdom(def)` or either block
    /// is unreachable.
    pub fn candidates(&self, def: NodeId, q: NodeId) -> Candidates<'_> {
        Candidates {
            checker: self,
            nums: self.candidate_nums(def, q).unwrap_or_default(),
        }
    }

    /// The candidate loop in preorder-number space — what the query hot
    /// paths iterate, sparing the NodeId round-trip of
    /// [`candidates`](Self::candidates). `None` when the Algorithm 3
    /// precheck fails.
    #[inline]
    fn candidate_nums(&self, def: NodeId, q: NodeId) -> Option<CandidateNums<'_>> {
        let (Some(defn), Some(qn)) = (self.num_of(def), self.num_of(q)) else {
            return None;
        };
        let max_dom = self.maxnum_by_num[defn as usize];
        // `if (q <= def || max_dom < q) return false;` of Algorithm 3.
        if qn <= defn || max_dom < qn {
            return None;
        }
        let words = self.pre.t.row_words(qn);
        let from = defn + 1;
        let wi = from as usize / 64;
        // Left edge of the interval: one mask. (`from <= max_dom < n`,
        // so `wi` is always in range.)
        let cur = words[wi] & (!0u64 << (from % 64));
        Some(CandidateNums {
            words,
            cur,
            wi,
            max_dom,
            maxnum_by_num: &self.maxnum_by_num,
            skip_subtrees: self.skip_subtrees,
        })
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

    /// The seed's scalar query loop, kept callable for ablation and the
    /// before/after benchmark (`fastlive-bench query`, `BENCH_query.json`):
    /// candidates advance bit-at-a-time through `next_set_in_row` and
    /// every use's preorder number is re-resolved on every candidate
    /// iteration — exactly the loop [`is_live_in`](Self::is_live_in)
    /// replaced. Answers are always identical, only slower.
    pub fn is_live_in_scalar(&self, def: NodeId, uses: &[NodeId], q: NodeId) -> bool {
        let (Some(defn), Some(qn)) = (self.num_of(def), self.num_of(q)) else {
            return false;
        };
        let max_dom = self.maxnum_by_num[defn as usize];
        if qn <= defn || max_dom < qn {
            return false;
        }
        let mut from = defn + 1;
        while let Some(tn) = self.pre.t.next_set_in_row(qn, from) {
            if tn > max_dom {
                break;
            }
            from = if self.skip_subtrees {
                self.maxnum_by_num[tn as usize] + 1
            } else {
                tn + 1
            };
            for &u in uses {
                if let Some(un) = self.num_of(u) {
                    if self.pre.r.contains(tn, un) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// [`is_live_in`](Self::is_live_in) with the uses given as a bitset
    /// over dominance-preorder *numbers* — the exact set formulation of
    /// Algorithm 1 (`R_t ∩ uses(a) ≠ ∅` as one vectorized intersection
    /// test). Useful when a pass keeps per-variable use sets materialized.
    ///
    /// Build the set with [`use_num_set`](Self::use_num_set).
    ///
    /// # Panics
    ///
    /// Panics if `uses` was built over a different universe than the
    /// checker's reachable-block count (a silent truncation otherwise).
    pub fn is_live_in_set(
        &self,
        def: NodeId,
        uses: &fastlive_bitset::DenseBitSet,
        q: NodeId,
    ) -> bool {
        assert_eq!(
            uses.universe(),
            self.dom.num_reachable(),
            "universe mismatch in is_live_in_set"
        );
        let use_words = uses.as_words();
        let Some(cands) = self.candidate_nums(def, q) else {
            return false;
        };
        for tn in cands {
            // `R_t ∩ uses ≠ ∅` as a word-parallel AND sweep: 64 blocks
            // per step, exiting on the first overlapping word.
            let hit = self
                .pre
                .r
                .row_words(tn)
                .iter()
                .zip(use_words)
                .any(|(&r, &u)| r & u != 0);
            if hit {
                return true;
            }
        }
        false
    }

    /// Converts use blocks into the bitset representation (dominance
    /// preorder numbers) consumed by
    /// [`is_live_in_set`](Self::is_live_in_set). Unreachable blocks are
    /// dropped (they can never witness liveness).
    pub fn use_num_set(&self, uses: &[NodeId]) -> fastlive_bitset::DenseBitSet {
        let mut set = fastlive_bitset::DenseBitSet::new(self.dom.num_reachable());
        for &u in uses {
            if let Some(un) = self.num_of(u) {
                set.insert(un);
            }
        }
        set
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

/// The word-masked interval scan in preorder-number space (see the
/// module docs): borrows the `T_q` row's words and keeps a *cursor
/// word* — the current `u64` with all bits below the scan position
/// already cleared. `next` pops set bits with `trailing_zeros`, skips
/// all-zero words one comparison at a time, and subtree skipping
/// re-masks the cursor at `maxnum(t) + 1` without rescanning the row
/// prefix.
#[derive(Clone, Debug, Default)]
struct CandidateNums<'a> {
    /// Words of the `T_q` row; empty when the query short-circuits.
    words: &'a [u64],
    /// Current word, masked below the scan position.
    cur: u64,
    /// Index of `cur` within `words`.
    wi: usize,
    /// Last preorder number inside `sdom(def)` (inclusive scan bound).
    max_dom: u32,
    /// Subtree extents, for the §4.1 skip.
    maxnum_by_num: &'a [u32],
    skip_subtrees: bool,
}

impl CandidateNums<'_> {
    /// Repositions the cursor at bit `to`, clearing everything below.
    #[inline]
    fn seek(&mut self, to: u32) {
        let wi = to as usize / 64;
        if wi >= self.words.len() {
            self.words = &[];
            self.cur = 0;
            self.wi = 0;
            return;
        }
        self.wi = wi;
        self.cur = self.words[wi] & (!0u64 << (to % 64));
    }
}

impl Iterator for CandidateNums<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            if self.cur != 0 {
                let tn = (self.wi * 64) as u32 + self.cur.trailing_zeros();
                if tn > self.max_dom {
                    self.words = &[];
                    self.cur = 0;
                    return None;
                }
                if self.skip_subtrees {
                    // Skip t's whole dominance subtree: R of dominated
                    // candidates is a subset of R_t (§4.1), so testing
                    // them is pointless.
                    self.seek(self.maxnum_by_num[tn as usize] + 1);
                } else {
                    self.cur &= self.cur - 1; // clear lowest set bit
                }
                return Some(tn);
            }
            self.wi += 1;
            if self.wi >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.wi];
        }
    }
}

/// Iterator over the Algorithm 3 candidate loop as node ids; see
/// [`LivenessChecker::candidates`]. A thin wrapper translating the
/// internal number-space scan back to nodes.
#[derive(Clone, Debug)]
pub struct Candidates<'a> {
    checker: &'a LivenessChecker,
    nums: CandidateNums<'a>,
}

impl Iterator for Candidates<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.nums.next().map(|tn| self.checker.dom.node_at_num(tn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_graph::DiGraph;

    /// The paper's Figure 3, 0-based (paper node k = node k-1).
    /// Variables of the narration: w defined at 1 (paper 2) used at 3
    /// (paper 4); x defined at 2 (paper 3) used at 8 (paper 9);
    /// y defined at 2 used at 4 (paper 5).
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
    fn candidates_are_dominance_ordered_and_skip_subtrees() {
        let g = figure3();
        let live = LivenessChecker::compute(&g);
        // Query (def=1, q=9): T_9 = {1,4,7,9}; sdom(1) excludes 1 itself.
        let cands: Vec<NodeId> = live.candidates(1, 9).collect();
        // num order = dominance preorder: each candidate's num increases
        // and no candidate dominates a later one (subtree skipping).
        for w in cands.windows(2) {
            assert!(live.dom().num(w[0]) < live.dom().num(w[1]));
            assert!(!live.dom().strictly_dominates(w[0], w[1]));
        }
        // Every element of T_q ∩ sdom(def) — q in particular — is
        // dominated by some yielded candidate (subtree skipping only
        // drops elements whose R-set a dominator subsumes).
        assert!(cands.iter().any(|&c| live.dom().dominates(c, 9)));
        assert!(
            cands.len() >= 2,
            "irreducible example needs several tests: {cands:?}"
        );
    }

    #[test]
    fn theorem2_single_candidate_on_reducible() {
        // Nested loops: without subtree skipping, a query deep inside
        // sees the whole header chain; with skipping (Theorem 2), the
        // most-dominating candidate subsumes the rest and the loop body
        // executes exactly once.
        let g = DiGraph::from_edges(5, 0, &[(0, 1), (1, 2), (2, 3), (3, 2), (3, 1), (1, 4)]);
        let mut live = LivenessChecker::compute(&g);
        assert!(live.is_reducible());
        live.set_subtree_skipping(false);
        let all: Vec<NodeId> = live.candidates(0, 3).collect();
        live.set_subtree_skipping(true);
        let fast: Vec<NodeId> = live.candidates(0, 3).collect();
        assert!(
            all.len() >= 2,
            "deep loop nest should give several candidates: {all:?}"
        );
        assert_eq!(
            fast.len(),
            1,
            "Theorem 2: a single test suffices on reducible CFGs"
        );
        assert_eq!(fast[0], all[0]);
        // The single candidate dominates all the others (Theorem 2).
        for &t in &all[1..] {
            assert!(live.dom().dominates(fast[0], t));
        }
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
    fn query_against_def_that_dominates_nothing() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let live = LivenessChecker::compute(&g);
        // def at 1 (a leaf of the dominance tree except for itself):
        // q = 3 is not strictly dominated by 1 => false regardless.
        assert!(!live.is_live_in(1, &[3], 3));
        assert_eq!(live.candidates(1, 3).count(), 0);
    }

    #[test]
    fn bitset_use_queries_match_slice_queries() {
        let g = figure3();
        let live = LivenessChecker::compute(&g);
        let n = 11u32;
        // Multi-use sets across all (def, q) pairs.
        for def in 0..n {
            for seed in 0..8u32 {
                let uses: Vec<u32> = (0..3).map(|i| (seed * 3 + i * 5 + def) % n).collect();
                let set = live.use_num_set(&uses);
                for q in 0..n {
                    assert_eq!(
                        live.is_live_in(def, &uses, q),
                        live.is_live_in_set(def, &set, q),
                        "def={def} q={q} uses={uses:?}"
                    );
                }
            }
        }
    }

    use fastlive_workload::random_digraph as random_graph;

    #[test]
    fn word_scan_matches_scalar_loop_on_wide_rows() {
        // > 3 words of preorder numbers, so candidate intervals span
        // word boundaries and all-zero middle words actually occur.
        for seed in 1..6u64 {
            let g = random_graph(200, seed * 0x9e37, 260);
            let live = LivenessChecker::compute(&g);
            let mut x = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
            let mut step = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            };
            for _ in 0..4000 {
                let def = step() % 200;
                let uses = [step() % 200, step() % 200];
                let q = step() % 200;
                assert_eq!(
                    live.is_live_in(def, &uses, q),
                    live.is_live_in_scalar(def, &uses, q),
                    "seed={seed} def={def} uses={uses:?} q={q}"
                );
            }
        }
    }

    #[test]
    fn word_scan_candidates_match_scalar_enumeration() {
        for seed in [3u64, 11, 42] {
            let g = random_graph(150, seed, 200);
            for skip in [true, false] {
                let mut live = LivenessChecker::compute(&g);
                live.set_subtree_skipping(skip);
                for def in (0..150).step_by(7) {
                    for q in (0..150).step_by(3) {
                        // Scalar reference: walk T_q bit-at-a-time.
                        let (Some(defn), Some(qn)) = (live.num_of(def), live.num_of(q)) else {
                            assert_eq!(live.candidates(def, q).count(), 0);
                            continue;
                        };
                        let max_dom = live.maxnum_by_num[defn as usize];
                        let mut expect = Vec::new();
                        if qn > defn && qn <= max_dom {
                            let mut from = defn + 1;
                            while let Some(tn) = live.pre.t.next_set_in_row(qn, from) {
                                if tn > max_dom {
                                    break;
                                }
                                from = if skip {
                                    live.maxnum_by_num[tn as usize] + 1
                                } else {
                                    tn + 1
                                };
                                expect.push(live.dom.node_at_num(tn));
                            }
                        }
                        let got: Vec<NodeId> = live.candidates(def, q).collect();
                        assert_eq!(got, expect, "seed={seed} skip={skip} def={def} q={q}");
                    }
                }
            }
        }
    }

    #[test]
    fn has_candidates_agrees_with_iterator() {
        let g = random_graph(150, 77, 200);
        let live = LivenessChecker::compute(&g);
        for def in 0..150 {
            for q in 0..150 {
                assert_eq!(
                    live.has_candidates(def, q),
                    live.candidates(def, q).next().is_some(),
                    "def={def} q={q}"
                );
            }
        }
    }

    #[test]
    fn many_uses_spill_without_changing_answers() {
        let g = figure3();
        let live = LivenessChecker::compute(&g);
        // 12 uses (> the 8-slot inline scratch), with duplicates.
        let uses: Vec<NodeId> = (0..12).map(|i| i % 11).collect();
        for def in 0..11 {
            for q in 0..11 {
                let expect = live.is_live_in_scalar(def, &uses, q);
                assert_eq!(live.is_live_in(def, &uses, q), expect);
                let one_by_one = uses.iter().any(|&u| live.is_live_in(def, &[u], q));
                assert_eq!(expect, one_by_one);
            }
        }
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

    #[test]
    fn fused_live_out_matches_candidate_enumeration() {
        // Reference: Algorithm 2 over the *full* candidate enumeration
        // (skipping disabled), with the t = q special case applied
        // per-candidate — the loop the fused kernel replaced.
        for seed in [5u64, 23, 91] {
            let g = random_graph(150, seed, 200);
            let mut live = LivenessChecker::compute(&g);
            live.set_subtree_skipping(false);
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut step = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            };
            for _ in 0..3000 {
                let def = step() % 150;
                let uses = [step() % 150, step() % 150, step() % 150];
                let q = step() % 150;
                let expect = if def == q {
                    let reachable = |b: NodeId| live.dom().is_reachable(b);
                    reachable(q) && uses.iter().any(|&u| u != q && reachable(u))
                } else {
                    live.candidates(def, q).any(|t| {
                        uses.iter().any(|&u| {
                            (t != q || live.is_back_edge_target(q) || u != q)
                                && live.reduced_reachable(t, u)
                        })
                    })
                };
                assert_eq!(
                    live.is_live_out(def, &uses, q),
                    expect,
                    "seed={seed} def={def} uses={uses:?} q={q}"
                );
            }
        }
    }
}
