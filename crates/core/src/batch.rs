//! [`BatchLiveness`]: whole-function live-in/live-out sets computed in
//! one matrix pass over the checker's precomputation.
//!
//! # Why a batch path exists
//!
//! The paper's query engine is built for *sparse* consumers — passes
//! that ask about a few variables at a few program points. *Dense*
//! consumers (register allocators building interference graphs,
//! break-even experiments, debuggers dumping live sets) want the
//! classic data-flow shape: a live-in and live-out **set per block**.
//! Looping scalar queries over every `(variable, block)` pair costs
//! `O(V · B)` candidate scans; "Parameterized Construction of Program
//! Representations for Sparse Dataflow Analyses" (Tavares et al.)
//! motivates serving both consumers from one analysis. This module
//! serves the dense ones directly from the `R`/`T` matrices with
//! word-level row unions — no per-query work at all.
//!
//! # The set formulation
//!
//! Algorithm 1 says: `a` is live-in at `q` iff some `t ∈ T_q ∩
//! sdom(def(a))` reduced-reaches a use of `a`. Batched over all
//! variables at once, with one bit column per variable:
//!
//! ```text
//! excl(v)   = ⋃ { reach(w) : (v, w) a non-back edge }
//! reach(v)  = uses(v) ∪ excl(v)
//!             — vars with a use in R_v \ {v}, and in R_v; one
//!               postorder pass of word unions, exactly like the R
//!               matrix itself (§5.2)
//! strict(v) = strict(idom(v)) ∪ defs(idom(v))
//!             — vars whose def strictly dominates v; one dominator-
//!               preorder pass. Variable columns are grouped by
//!               definition block, so `defs(idom(v))` is a contiguous
//!               column interval spliced in with one masked row union
//! cand(t)   = reach(t) ∩ strict(t)
//!             — vars for which t is a live-in witness (def sdom t and
//!               R_t touches a use)
//! M(q)      = (excl(q) ∪ ⋃ { cand(t) : t ∈ T_q, t ≠ q }) ∩ strict(q)
//! live_in(q)  = M(q) ∪ cand(q)
//! live_out(q) = M(q) ∪ B(q) ∪ (defs(q) ∩ outside_use)
//! ```
//!
//! `live_in(q)` is Algorithm 1's `(⋃ { cand(t) : t ∈ T_q }) ∩ strict(q)`,
//! since `q ∈ T_q` and `excl(q) ∩ strict(q) ⊆ cand(q) ⊆ strict(q)`.
//! Algorithm 2 counts the trivial candidate `t = q` only for uses
//! strictly past `q` (`excl(q)`, the `U \ {q}` of §4.2) unless `q` is a
//! back-edge target, whose self-cycle may re-reach a use at `q`: then
//! `B(q) = cand(q)`, else `B(q) = ∅`. The last `live_out` term is
//! Algorithm 2's defining-block case: variables defined at `q` with a
//! reachable use outside `q`. The `∩ strict(q)` enforces Algorithm 3's
//! precondition `num(def) < num(q) ≤ maxnum(def)` — without it, an
//! irreducible `t ∈ T_q` inside `def`'s subtree could report liveness at
//! a `q` the definition does not even dominate. The pass holds four
//! `blocks × variables` matrices: `cand` is `reach` cut down in place,
//! and `excl(v)` is written into row `v` of `live_out`, where `M(v)`
//! then grows.
//!
//! Total cost: `O((E + Σ|T_q| + B) · V/64)` word operations for `B`
//! blocks, `E` edges and `V` variables — compare `O(V · B)` scalar
//! queries, each with its own candidate walk. The break-even between
//! the two is measured by the `fastlive-bench` runner's `query` suite
//! (`BENCH_query.json`).
//!
//! # The set view
//!
//! Columns are grouped by definition block, not ordered by variable, so
//! the set view, [`BatchLiveness::sets`], scatters each row through the
//! column-to-variable map into a scratch row indexed by variable, then
//! reads it back in ascending order into one exactly-sized `Vec`: no
//! sort, no regrowth.

use std::fmt;

use fastlive_bitset::BitMatrix;
use fastlive_cfg::EdgeClass;
use fastlive_graph::{Cfg, NodeId};

use crate::checker::LivenessChecker;

/// Why [`BatchLiveness::compute`] rejected its variable inputs.
///
/// Malformed def-use input is a recoverable condition, not a panic: a
/// long-lived analysis engine serving many clients must be able to
/// refuse one bad request and keep answering the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// A use site named a variable with no entry in `defs`.
    UnknownVariable {
        /// The out-of-range variable index.
        var: u32,
        /// How many variables `defs` actually defined.
        num_defined: usize,
    },
    /// A definition or use site named a block outside the graph.
    BlockOutOfRange {
        /// The out-of-range block id.
        block: NodeId,
        /// The graph's node count.
        num_blocks: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BatchError::UnknownVariable { var, num_defined } => {
                write!(f, "use of unknown variable {var} ({num_defined} defined)")
            }
            BatchError::BlockOutOfRange { block, num_blocks } => {
                write!(f, "block {block} out of range ({num_blocks} blocks)")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// Live-in/live-out sets for **all** blocks and variables of a CFG,
/// computed in one pass from a [`LivenessChecker`]'s precomputation.
///
/// Variables are caller-defined indices `0..defs.len()`; block rows are
/// node ids. Unreachable blocks (and variables defined in them) are
/// never live.
///
/// # Examples
///
/// ```
/// use fastlive_core::{BatchLiveness, LivenessChecker};
/// use fastlive_graph::DiGraph;
///
/// // 0 -> 1 -> 2 -> 1 (loop), 2 -> 3. Variable 0 defined at block 0
/// // and used at block 2 is live around the whole loop.
/// let g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
/// let live = LivenessChecker::compute(&g);
/// let batch = BatchLiveness::compute(&g, &live, &[0], &[(0, 2)])?;
/// assert!(batch.is_live_in(0, 1));
/// assert!(batch.is_live_in(0, 2));
/// assert!(batch.is_live_out(0, 2)); // back to the header
/// assert!(!batch.is_live_in(0, 3)); // dead after the loop
/// let (live_in, _) = batch.sets(|var| var);
/// assert_eq!(live_in[2], vec![0]);
/// # Ok::<(), fastlive_core::BatchError>(())
/// ```
#[derive(Clone, Debug)]
pub struct BatchLiveness {
    /// Row `num(b)`, column `col_of[var]`: live-in sets.
    live_in: BitMatrix,
    /// Same layout: live-out sets.
    live_out: BitMatrix,
    /// Dominance-preorder number per node id (`u32::MAX` unreachable).
    num_by_node: Vec<u32>,
    /// Column per variable (`u32::MAX` when the def is unreachable).
    col_of: Vec<u32>,
    /// Original variable index per column (inverse of `col_of`).
    var_of_col: Vec<u32>,
}

impl BatchLiveness {
    /// Computes live-in/live-out for every block of `g` at once.
    ///
    /// `defs[a]` is the definition block of variable `a`; `uses` lists
    /// `(a, block)` use sites (Definition 1 attribution: a φ-argument
    /// is a use at the predecessor). Duplicates are fine. The answers
    /// match [`LivenessChecker::is_live_in`] /
    /// [`LivenessChecker::is_live_out`] on every pair.
    ///
    /// # Errors
    ///
    /// Returns a [`BatchError`] if a block id is out of range for `g`
    /// or a use names a variable `>= defs.len()` — diagnostics, not
    /// panics, so malformed input can't abort a long-lived engine.
    ///
    /// # Panics
    ///
    /// Panics if `checker` was computed over a different graph than `g`
    /// (an API-contract violation, unlike malformed variable input).
    pub fn compute<G: Cfg>(
        g: &G,
        checker: &LivenessChecker,
        defs: &[NodeId],
        uses: &[(u32, NodeId)],
    ) -> Result<Self, BatchError> {
        let num_blocks = g.num_nodes();
        for &d in defs {
            if d as usize >= num_blocks {
                return Err(BatchError::BlockOutOfRange {
                    block: d,
                    num_blocks,
                });
            }
        }
        for &(a, ub) in uses {
            if a as usize >= defs.len() {
                return Err(BatchError::UnknownVariable {
                    var: a,
                    num_defined: defs.len(),
                });
            }
            if ub as usize >= num_blocks {
                return Err(BatchError::BlockOutOfRange {
                    block: ub,
                    num_blocks,
                });
            }
        }

        let dfs = checker.dfs();
        let dom = checker.dom();
        let n = dom.num_reachable();
        // Shared with the checker — built once in `with_parts`.
        let num_by_node = checker.num_by_node().to_vec();
        assert_eq!(
            num_by_node.len(),
            g.num_nodes(),
            "checker was computed over a different graph"
        );
        let num_of = |v: NodeId| -> Option<u32> {
            match num_by_node[v as usize] {
                u32::MAX => None,
                k => Some(k),
            }
        };

        // ---- Variable columns, grouped by definition block in
        // preorder-number order so defs(b) is the contiguous column
        // interval [col_lo[num(b)], col_hi[num(b)]).
        let mut counts = vec![0u32; n];
        for &d in defs {
            if let Some(dn) = num_of(d) {
                counts[dn as usize] += 1;
            }
        }
        let mut col_lo = vec![0u32; n];
        let mut col_hi = vec![0u32; n];
        let mut acc = 0u32;
        for i in 0..n {
            col_lo[i] = acc;
            acc += counts[i];
            col_hi[i] = acc;
        }
        let v_cols = acc as usize;
        let mut col_of = vec![u32::MAX; defs.len()];
        let mut var_of_col = vec![0u32; v_cols];
        let mut next = col_lo.clone();
        for (a, &d) in defs.iter().enumerate() {
            if let Some(dn) = num_of(d) {
                let c = next[dn as usize];
                next[dn as usize] += 1;
                col_of[a] = c;
                var_of_col[c as usize] = a as u32;
            }
        }

        // All-ones helper row: masked unions against it splice whole
        // column intervals (a definition block's variables) into a row.
        let mut ones = BitMatrix::new(1, v_cols);
        ones.fill_row(0);

        // ---- reach: vars with a use reduced-reachable from each block,
        // one postorder pass (the batched Definition 4). Row `v` of
        // `live_out` holds excl(v), the uses strictly past v, until the
        // assembly below turns it into live_out(v).
        // `outside_use` row 0: vars with a reachable use outside their
        // def block (unreachable use blocks never witness liveness,
        // matching the checker's defining-block test).
        let mut reach = BitMatrix::new(n, v_cols);
        let mut live_out = BitMatrix::new(n, v_cols);
        let mut outside_use = BitMatrix::new(1, v_cols);
        for &(a, ub) in uses {
            // In range: every use was validated against `defs` above.
            let col = col_of[a as usize];
            if col == u32::MAX {
                continue; // def unreachable: never live
            }
            if let Some(un) = num_of(ub) {
                reach.set(un, col);
                if ub != defs[a as usize] {
                    outside_use.set(0, col);
                }
            }
        }
        for &v in dfs.postorder() {
            let vn = num_by_node[v as usize];
            // Classify by edge *pair*, not successor index: the checker
            // may have been computed over a successor-reordered (e.g.
            // canonicalized) graph with the same edge relation, and
            // back-ness is a property of the node pair alone.
            for &w in g.succs(v) {
                if dfs.edge_class(v, w) != EdgeClass::Back {
                    live_out.union_row_from(vn, &reach, num_by_node[w as usize]);
                }
            }
            reach.union_row_from(vn, &live_out, vn);
        }

        // ---- strict: vars defined at strict dominators, one
        // dominator-preorder pass with a masked splice per idom.
        let mut strict = BitMatrix::new(n, v_cols);
        for &v in &dom.preorder()[1.min(n)..] {
            let vn = num_by_node[v as usize];
            let p = dom.idom(v).expect("non-root preorder node has an idom");
            let pn = num_by_node[p as usize];
            strict.union_rows(vn, pn);
            let (lo, hi) = (col_lo[pn as usize], col_hi[pn as usize]);
            if lo < hi {
                strict.union_row_from_masked(vn, &ones, 0, lo, hi - 1);
            }
        }

        // ---- cand(t) = reach(t) ∩ strict(t), in place: `reach` is
        // not read again.
        let mut cand = reach;
        for tn in 0..n as u32 {
            cand.intersect_row_from(tn, &strict, tn);
        }

        // ---- Assemble: M(q) is excl(q) plus the candidate rows along
        // T_q \ {q}, cut to strict(q); live-in adds the witness t = q.
        let t = &checker.pre().t;
        let mut live_in = BitMatrix::new(n, v_cols);
        for &q in dom.preorder() {
            let qn = num_by_node[q as usize];
            for tn in t.row_iter(qn) {
                if tn != qn {
                    live_out.union_row_from(qn, &cand, tn);
                }
            }
            live_out.intersect_row_from(qn, &strict, qn);
            live_in.union_row_from(qn, &live_out, qn);
            live_in.union_row_from(qn, &cand, qn);
            // Trivial live-out candidate t = q: only a back-edge target
            // proves a cycle that may re-reach a use at q itself; other
            // blocks count uses strictly past q (U \ {q}, §4.2), which
            // excl(q) already put in M(q).
            if checker.is_back_edge_target(q) {
                live_out.union_row_from(qn, &cand, qn);
            }
            // Algorithm 2's defining-block case: vars defined at q that
            // are used at some other reachable block — one masked
            // splice of q's column interval.
            let (lo, hi) = (col_lo[qn as usize], col_hi[qn as usize]);
            if lo < hi {
                live_out.union_row_from_masked(qn, &outside_use, 0, lo, hi - 1);
            }
        }

        Ok(BatchLiveness {
            live_in,
            live_out,
            num_by_node,
            col_of,
            var_of_col,
        })
    }

    #[inline]
    fn cell(&self, matrix: &BitMatrix, var: u32, q: NodeId) -> bool {
        let Some(&col) = self.col_of.get(var as usize) else {
            return false;
        };
        let Some(&qn) = self.num_by_node.get(q as usize) else {
            return false;
        };
        col != u32::MAX && qn != u32::MAX && matrix.contains(qn, col)
    }

    /// Is variable `var` live-in at block `q`? Out-of-range or
    /// unreachable arguments report `false`.
    #[inline]
    pub fn is_live_in(&self, var: u32, q: NodeId) -> bool {
        self.cell(&self.live_in, var, q)
    }

    /// Is variable `var` live-out at block `q`?
    #[inline]
    pub fn is_live_out(&self, var: u32, q: NodeId) -> bool {
        self.cell(&self.live_out, var, q)
    }

    /// Every block's live-in and live-out set, indexed by node id: `f`
    /// of each variable, ascending, in a `Vec` of exactly the set's
    /// size (empty for unreachable blocks).
    pub fn sets<T>(&self, f: impl Fn(u32) -> T) -> (Vec<Vec<T>>, Vec<Vec<T>>) {
        let mut scratch = vec![0; self.col_of.len().div_ceil(64)];
        let mut rows = |matrix: &BitMatrix| -> Vec<Vec<T>> {
            (0..self.num_by_node.len() as NodeId)
                .map(|q| self.extract(matrix, q, &mut scratch, &f))
                .collect()
        };
        (rows(&self.live_in), rows(&self.live_out))
    }

    /// The set extraction (module docs, *The set view*): scatter row
    /// `q` into `scratch`, then drain the words it touched (`lo..=hi`,
    /// none for an empty row) into a `Vec` of the scattered count.
    fn extract<T>(
        &self,
        matrix: &BitMatrix,
        q: NodeId,
        scratch: &mut [u64],
        f: &impl Fn(u32) -> T,
    ) -> Vec<T> {
        let qn = match self.num_by_node.get(q as usize) {
            Some(&qn) if qn != u32::MAX => qn,
            _ => return Vec::new(),
        };
        let (mut len, mut lo, mut hi) = (0, usize::MAX, 0);
        for (wi, mut bits) in matrix.row_words(qn).iter().copied().enumerate() {
            while bits != 0 {
                let var = self.var_of_col[wi * 64 + bits.trailing_zeros() as usize] as usize;
                scratch[var / 64] |= 1 << (var % 64);
                (len, lo, hi) = (len + 1, lo.min(var / 64), hi.max(var / 64));
                bits &= bits - 1;
            }
        }
        let mut out = Vec::with_capacity(len);
        for (wi, word) in scratch.iter_mut().enumerate().take(hi + 1).skip(lo) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(f((wi * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_graph::DiGraph;

    /// The paper's Figure 3, 0-based (see `checker.rs`).
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

    /// Exhaustive agreement with the scalar checker on a given graph
    /// and variable set.
    fn assert_matches_checker(g: &DiGraph, vars: &[(NodeId, Vec<NodeId>)]) {
        use fastlive_graph::Cfg as _;
        let checker = LivenessChecker::compute(g);
        let defs: Vec<NodeId> = vars.iter().map(|&(d, _)| d).collect();
        let uses: Vec<(u32, NodeId)> = vars
            .iter()
            .enumerate()
            .flat_map(|(a, (_, us))| us.iter().map(move |&u| (a as u32, u)))
            .collect();
        let batch = BatchLiveness::compute(g, &checker, &defs, &uses).expect("valid input");
        for (a, (d, us)) in vars.iter().enumerate() {
            for q in 0..g.num_nodes() as u32 {
                assert_eq!(
                    batch.is_live_in(a as u32, q),
                    checker.is_live_in(*d, us, q),
                    "live-in var {a} (def {d}, uses {us:?}) at {q}"
                );
                assert_eq!(
                    batch.is_live_out(a as u32, q),
                    checker.is_live_out(*d, us, q),
                    "live-out var {a} (def {d}, uses {us:?}) at {q}"
                );
            }
        }
    }

    #[test]
    fn figure3_matches_scalar_queries() {
        // The narration's variables plus every single-use combination
        // that satisfies strict SSA (def dominates use).
        let g = figure3();
        let checker = LivenessChecker::compute(&g);
        let mut vars: Vec<(NodeId, Vec<NodeId>)> =
            vec![(1, vec![3]), (2, vec![8]), (2, vec![4]), (2, vec![8, 4])];
        for d in 0..11 {
            for u in 0..11 {
                if checker.dom().dominates(d, u) {
                    vars.push((d, vec![u]));
                }
            }
        }
        assert_matches_checker(&g, &vars);
    }

    #[test]
    fn loop_and_straight_line_shapes() {
        let loop_g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        assert_matches_checker(
            &loop_g,
            &[
                (0, vec![2]),
                (0, vec![1]),
                (1, vec![1]),
                (0, vec![3]),
                (1, vec![2, 3]),
            ],
        );
        let line = DiGraph::from_edges(3, 0, &[(0, 1), (1, 2)]);
        assert_matches_checker(
            &line,
            &[(0, vec![2]), (0, vec![0]), (1, vec![1]), (0, vec![1, 2])],
        );
    }

    #[test]
    fn unreachable_defs_and_uses_are_dead() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (2, 1), (2, 3)]);
        let checker = LivenessChecker::compute(&g);
        // Var 0: unreachable def. Var 1: reachable def, unreachable use.
        let batch =
            BatchLiveness::compute(&g, &checker, &[2, 0], &[(0, 1), (1, 3)]).expect("valid input");
        for q in 0..4 {
            assert!(!batch.is_live_in(0, q));
            assert!(!batch.is_live_out(0, q));
            assert!(!batch.is_live_in(1, q));
        }
        // ... not even live-out of its defining block: an unreachable
        // use is no use "elsewhere", exactly like the scalar checker.
        assert!(!batch.is_live_out(1, 0));
        assert!(!checker.is_live_out(0, &[3], 0));
        // Out-of-range variable indices are simply dead.
        assert!(!batch.is_live_in(99, 0));
    }

    #[test]
    fn set_views_agree_with_point_reads() {
        let g = figure3();
        let checker = LivenessChecker::compute(&g);
        let defs = [1u32, 2, 2];
        let uses = [(0u32, 3u32), (1, 8), (2, 4)];
        let batch = BatchLiveness::compute(&g, &checker, &defs, &uses).expect("valid input");
        let (ins, outs) = batch.sets(|var| var);
        for q in 0..11 {
            for a in 0..3u32 {
                assert_eq!(ins[q as usize].contains(&a), batch.is_live_in(a, q));
                assert_eq!(outs[q as usize].contains(&a), batch.is_live_out(a, q));
            }
        }
    }

    /// The extraction the word-level one replaced: the row's columns
    /// mapped through `var_of_col`, collected, then sorted.
    fn collect_map_sort(batch: &BatchLiveness, matrix: &BitMatrix, q: NodeId) -> Vec<u32> {
        match batch.num_by_node[q as usize] {
            u32::MAX => Vec::new(),
            qn => {
                let mut vars: Vec<u32> = matrix
                    .row_iter(qn)
                    .map(|c| batch.var_of_col[c as usize])
                    .collect();
                vars.sort_unstable();
                vars
            }
        }
    }

    /// A generated function of one regime (0 reducible, 1 goto-injected
    /// irreducible, 2 deep-live), optionally edited to carry an
    /// unreachable block that defines a value and uses a parameter, and
    /// a detached value (its defining instruction removed).
    fn generated(regime: u8, blocks: usize, seed: u64, edited: bool) -> fastlive_ir::Function {
        use fastlive_ir::{InstData, UnaryOp};
        use fastlive_workload::{generate_module, ModuleParams};
        let params = ModuleParams {
            functions: 1,
            min_blocks: blocks,
            max_blocks: blocks,
            irreducible_per_mille: if regime == 1 { 1000 } else { 0 },
            deep_live_per_mille: if regime == 2 { 1000 } else { 0 },
        };
        let mut func = generate_module("extract", params, seed).func(0).clone();
        if edited {
            let param = func.params()[0];
            let orphan = func.add_block();
            let neg = func.append_inst(
                orphan,
                InstData::Unary {
                    op: UnaryOp::Ineg,
                    arg: param,
                },
            );
            let result = func.inst_result(neg).expect("a unary has a result");
            func.append_inst(orphan, InstData::Return { args: vec![result] });
            let entry = func.entry_block();
            let detached = func.insert_inst(entry, 0, InstData::IntConst { imm: 3 });
            func.remove_inst(detached);
        }
        func
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every set the word-level extraction produces equals the old
        /// collect-map-sort extraction of the same row, is ascending and
        /// exactly sized, and `FunctionLiveness::live_sets` reads the
        /// same sets.
        #[test]
        fn word_level_extraction_matches_collect_map_sort(
            regime in 0u8..3,
            blocks in 4usize..48,
            seed in proptest::prelude::any::<u64>(),
            edited in 0u8..2,
        ) {
            let func = generated(regime, blocks, seed, edited == 1);
            let live = crate::FunctionLiveness::compute(&func);
            let batch = live.batch(&func);
            let (ins, outs) = batch.sets(|var| var);
            let (value_ins, value_outs) = live.live_sets(&func);
            proptest::prop_assert_eq!(ins.len(), func.num_blocks());
            proptest::prop_assert_eq!(outs.len(), func.num_blocks());
            for q in 0..func.num_blocks() as NodeId {
                let views = [
                    (&ins, &value_ins, &batch.live_in),
                    (&outs, &value_outs, &batch.live_out),
                ];
                for (sets, values, matrix) in views {
                    let set = &sets[q as usize];
                    proptest::prop_assert_eq!(set, &collect_map_sort(&batch, matrix, q));
                    proptest::prop_assert!(set.windows(2).all(|w| w[0] < w[1]));
                    proptest::prop_assert_eq!(set.capacity(), set.len());
                    let as_vars: Vec<u32> =
                        values[q as usize].iter().map(|v| v.index() as u32).collect();
                    proptest::prop_assert_eq!(&as_vars, set);
                }
            }
        }
    }

    #[test]
    fn no_variables_is_fine() {
        let g = figure3();
        let checker = LivenessChecker::compute(&g);
        let batch = BatchLiveness::compute(&g, &checker, &[], &[]).expect("valid input");
        let (ins, outs) = batch.sets(|var| var);
        assert_eq!(ins[5], Vec::<u32>::new());
        assert_eq!(outs[5], Vec::<u32>::new());
    }

    #[test]
    fn randomized_agreement_with_checker() {
        // Random graphs (many irreducible) with random strict-SSA-ish
        // variables: def anywhere, uses in the def's dominance subtree.
        for seed in 1..10u64 {
            let n: u32 = 40;
            let graph_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let g = fastlive_workload::random_digraph(n, graph_seed, 2 * n as usize);
            let mut x = graph_seed | 1;
            let mut step = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let checker = LivenessChecker::compute(&g);
            let dom = checker.dom().clone();
            let mut vars = Vec::new();
            for _ in 0..60 {
                let d = step() as u32 % n;
                let mut us = Vec::new();
                for _ in 0..1 + step() % 3 {
                    let u = step() as u32 % n;
                    if dom.is_reachable(d) && dom.is_reachable(u) && dom.dominates(d, u) {
                        us.push(u);
                    }
                }
                vars.push((d, us));
            }
            assert_matches_checker(&g, &vars);
        }
    }
}
