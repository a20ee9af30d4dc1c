//! Paper-reproduction code: the §6 evaluation devices and the
//! executable specifications the differential suites compare the
//! production engine against. No production query reads this module;
//! the benchmark runner and the tests do.
//!
//! * [`SortedLivenessChecker`] — the sorted-array storage of §6.1/§8.
//! * [`LoopForestChecker`] — the loop-nesting-forest checker of the §8
//!   outlook (reducible CFGs only).
//! * [`ReferenceChecker`] — Definitions 4/5 and Algorithms 1/2 written
//!   out literally.
//! * [`candidates`] — the explicit Algorithm 3 candidate walk, with the
//!   §4.1 subtree skipping (and with it Theorem 2's single test on
//!   reducible CFGs) as an argument.
//! * [`is_live_in_scalar`] — the seed's scalar query loop, the
//!   before/after baseline of `BENCH_query.json` and of the `ablation`
//!   suite.
//! * [`live_sets_scalar`] — the per-`(value, block)` query loop that
//!   [`FunctionLiveness::live_sets`] replaced with one batch pass.
//! * [`is_live_at_chain_walk`] — the per-use position walk that
//!   [`FunctionLiveness::is_live_at`] replaced, the baseline of
//!   `BENCH_point.json`.
//!
//! Every function here answers exactly like the production path it
//! mirrors, only slower; the tests below and the workspace's
//! differential suites pin that.

mod loop_forest_check;
mod reference;
mod sorted;

pub use loop_forest_check::LoopForestChecker;
pub use reference::ReferenceChecker;
pub use sorted::SortedLivenessChecker;

use fastlive_graph::NodeId;
use fastlive_ir::{Function, ProgramPoint, Value};

use crate::{FunctionLiveness, LivenessChecker, PointError};

/// The candidate back-edge targets for a query `(def, q)`:
/// `T_q ∩ sdom(def)`, most-dominating first (the Algorithm 3 loop).
/// With `skip_subtrees` each candidate's dominance subtree is skipped
/// (§4.1), which on a reducible CFG leaves Theorem 2's single
/// candidate; without it every element of the set is visited. Empty
/// when `q ∉ sdom(def)` or either block is unreachable.
///
/// The row is read as `u64` words, the first word is masked with
/// `!0 << (num(def)+1 mod 64)` to clip the interval's left edge, and
/// set bits pop off a cached *cursor word* with `trailing_zeros`;
/// subtree skipping re-masks the cursor directly at `maxnum(t)+1`.
pub fn candidates(
    live: &LivenessChecker,
    def: NodeId,
    q: NodeId,
    skip_subtrees: bool,
) -> Candidates<'_> {
    Candidates {
        checker: live,
        nums: candidate_nums(live, def, q, skip_subtrees).unwrap_or_default(),
    }
}

/// The candidate loop in preorder-number space. `None` when the
/// Algorithm 3 precheck fails.
#[inline]
fn candidate_nums(
    live: &LivenessChecker,
    def: NodeId,
    q: NodeId,
    skip_subtrees: bool,
) -> Option<CandidateNums<'_>> {
    let (Some(defn), Some(qn)) = (live.num_of(def), live.num_of(q)) else {
        return None;
    };
    let max_dom = live.maxnum_by_num()[defn as usize];
    // `if (q <= def || max_dom < q) return false;` of Algorithm 3.
    if qn <= defn || max_dom < qn {
        return None;
    }
    let words = live.pre().t.row_words(qn);
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
        maxnum_by_num: live.maxnum_by_num(),
        skip_subtrees,
    })
}

/// The seed's scalar query loop, kept callable for ablation and the
/// before/after benchmark (`fastlive-bench query`, `BENCH_query.json`):
/// candidates advance bit-at-a-time through `next_set_in_row` and
/// every use's preorder number is re-resolved on every candidate
/// iteration — exactly the loop [`LivenessChecker::is_live_in`]
/// replaced. `skip_subtrees` selects the §4.1 skip (the `ablation`
/// suite's on/off arms). Answers are always identical, only slower.
pub fn is_live_in_scalar(
    live: &LivenessChecker,
    def: NodeId,
    uses: &[NodeId],
    q: NodeId,
    skip_subtrees: bool,
) -> bool {
    let (Some(defn), Some(qn)) = (live.num_of(def), live.num_of(q)) else {
        return false;
    };
    let max_dom = live.maxnum_by_num()[defn as usize];
    if qn <= defn || max_dom < qn {
        return false;
    }
    let mut from = defn + 1;
    while let Some(tn) = live.pre().t.next_set_in_row(qn, from) {
        if tn > max_dom {
            break;
        }
        from = if skip_subtrees {
            live.maxnum_by_num()[tn as usize] + 1
        } else {
            tn + 1
        };
        for &u in uses {
            if let Some(un) = live.num_of(u) {
                if live.pre().r.contains(tn, un) {
                    return true;
                }
            }
        }
    }
    false
}

/// The scalar materialization [`FunctionLiveness::live_sets`]
/// replaced: one [`is_live_in`](FunctionLiveness::is_live_in) /
/// [`is_live_out`](FunctionLiveness::is_live_out) query per
/// `(value, block)` pair. Kept callable as the executable
/// specification of the batch-backed path (the two must agree
/// bit-for-bit) and for the break-even benchmarks.
///
/// Returns `(live_in, live_out)`, indexed by block, each a sorted list
/// of values.
pub fn live_sets_scalar(
    live: &FunctionLiveness,
    func: &Function,
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let n = func.num_blocks();
    let mut live_in = vec![Vec::new(); n];
    let mut live_out = vec![Vec::new(); n];
    for v in func.values() {
        for b in func.blocks() {
            if live.is_live_in(func, v, b) {
                live_in[b.index()].push(v);
            }
            if live.is_live_out(func, v, b) {
                live_out[b.index()].push(v);
            }
        }
    }
    (live_in, live_out)
}

/// [`FunctionLiveness::is_live_at`] the way the SSA-destruction
/// crate's private shim used to compute it: the "use after `p`" part
/// walks the def-use chain and resolves every same-block use's
/// absolute position with a full `inst_position` scan — O(uses ×
/// block length) per query. Kept callable as the executable
/// specification of the fast path (the two must agree bit-for-bit;
/// see the point-oracle tests) and as the baseline of
/// `BENCH_point.json`.
pub fn is_live_at_chain_walk(
    live: &FunctionLiveness,
    func: &Function,
    v: Value,
    p: ProgramPoint,
) -> Result<bool, PointError> {
    let def = func.def_point(v).ok_or(PointError::DefinitionRemoved(v))?;
    if def > p {
        return Ok(false);
    }
    let b = p.block();
    let used_later = func
        .uses(v)
        .iter()
        .any(|&i| func.inst_block(i) == Some(b) && func.inst_position(i) >= p.next_index());
    Ok(used_later || live.is_live_out(func, v, b))
}

/// The word-masked interval scan in preorder-number space: borrows the
/// `T_q` row's words and keeps a *cursor word* — the current `u64`
/// with all bits below the scan position already cleared. `next` pops
/// set bits with `trailing_zeros`, skips all-zero words one comparison
/// at a time, and subtree skipping re-masks the cursor at
/// `maxnum(t) + 1` without rescanning the row prefix.
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
/// [`candidates`]. A thin wrapper translating the internal
/// number-space scan back to nodes.
#[derive(Clone, Debug)]
pub struct Candidates<'a> {
    checker: &'a LivenessChecker,
    nums: CandidateNums<'a>,
}

impl Iterator for Candidates<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.nums
            .next()
            .map(|tn| self.checker.dom().node_at_num(tn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::tests::figure3;
    use fastlive_graph::DiGraph;
    use fastlive_workload::random_digraph as random_graph;

    #[test]
    fn candidates_are_dominance_ordered_and_skip_subtrees() {
        let g = figure3();
        let live = LivenessChecker::compute(&g);
        // Query (def=1, q=9): T_9 = {1,4,7,9}; sdom(1) excludes 1 itself.
        let cands: Vec<NodeId> = candidates(&live, 1, 9, true).collect();
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
        let live = LivenessChecker::compute(&g);
        assert!(live.is_reducible());
        let all: Vec<NodeId> = candidates(&live, 0, 3, false).collect();
        let fast: Vec<NodeId> = candidates(&live, 0, 3, true).collect();
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
    fn query_against_def_that_dominates_nothing() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let live = LivenessChecker::compute(&g);
        // def at 1 (a leaf of the dominance tree except for itself):
        // q = 3 is not strictly dominated by 1 => false regardless.
        assert!(!live.is_live_in(1, &[3], 3));
        assert_eq!(candidates(&live, 1, 3, true).count(), 0);
    }

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
                    is_live_in_scalar(&live, def, &uses, q, true),
                    "seed={seed} def={def} uses={uses:?} q={q}"
                );
            }
        }
    }

    #[test]
    fn word_scan_candidates_match_scalar_enumeration() {
        for seed in [3u64, 11, 42] {
            let g = random_graph(150, seed, 200);
            let live = LivenessChecker::compute(&g);
            for skip in [true, false] {
                for def in (0..150).step_by(7) {
                    for q in (0..150).step_by(3) {
                        // Scalar reference: walk T_q bit-at-a-time.
                        let (Some(defn), Some(qn)) = (live.num_of(def), live.num_of(q)) else {
                            assert_eq!(candidates(&live, def, q, skip).count(), 0);
                            continue;
                        };
                        let max_dom = live.maxnum_by_num()[defn as usize];
                        let mut expect = Vec::new();
                        if qn > defn && qn <= max_dom {
                            let mut from = defn + 1;
                            while let Some(tn) = live.pre().t.next_set_in_row(qn, from) {
                                if tn > max_dom {
                                    break;
                                }
                                from = if skip {
                                    live.maxnum_by_num()[tn as usize] + 1
                                } else {
                                    tn + 1
                                };
                                expect.push(live.dom().node_at_num(tn));
                            }
                        }
                        let got: Vec<NodeId> = candidates(&live, def, q, skip).collect();
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
                    candidates(&live, def, q, true).next().is_some(),
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
                let expect = is_live_in_scalar(&live, def, &uses, q, true);
                assert_eq!(live.is_live_in(def, &uses, q), expect);
                let one_by_one = uses.iter().any(|&u| live.is_live_in(def, &[u], q));
                assert_eq!(expect, one_by_one);
            }
        }
    }

    #[test]
    fn fused_live_out_matches_candidate_enumeration() {
        // Reference: Algorithm 2 over the *full* candidate enumeration
        // (skipping disabled), with the t = q special case applied
        // per-candidate — the loop the fused kernel replaced.
        for seed in [5u64, 23, 91] {
            let g = random_graph(150, seed, 200);
            let live = LivenessChecker::compute(&g);
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
                    candidates(&live, def, q, false).any(|t| {
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

    #[test]
    fn fast_point_path_matches_chain_walk_at_every_point() {
        let f = crate::function_liveness::tests::loop_func();
        let live = FunctionLiveness::compute(&f);
        for v in f.values() {
            for b in f.blocks() {
                for p in f.block_points(b) {
                    assert_eq!(
                        live.is_live_at(&f, v, p),
                        is_live_at_chain_walk(&live, &f, v, p),
                        "{v} at {p}"
                    );
                }
            }
        }
    }
}
