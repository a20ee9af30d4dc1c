//! The variable-independent precomputation of §5.2: reduced
//! reachability `R_v` (Definition 4) and relevant back-edge targets
//! `T_v` (Definition 5), both as bit matrices indexed by the
//! dominance-tree preorder numbering of §5.1.
//!
//! # How the sets are computed
//!
//! * **`R_v`** — one pass over the DFS postorder. For every non-back
//!   edge `(v, w)`: `R_v ⊇ R_w` (postorder is a reverse topological
//!   order of the acyclic reduced graph), plus `v ∈ R_v`.
//! * **`T_v`** — three phases, following §5.2:
//!   1. For every back-edge *target* `t` in increasing DFS-preorder
//!      order, Equation (1): `T_t = {t} ∪ ⋃_{t' ∈ T↑_t} T_{t'}`, where
//!      `T↑_t` holds the targets `t' ∉ R_t` of back edges whose source
//!      is in `R_t`. Theorem 3 guarantees the preorder makes every
//!      `T_{t'}` available.
//!   2. Every back-edge *source* `s` seeds its propagation value with
//!      the `T_t` of its own back-edge targets.
//!   3. The seeds are propagated through the reduced graph in postorder
//!      (like `R_v`), and `v` is added to each `T_v`.
//!
//! # A deliberate deviation from the paper's text
//!
//! Read literally, phase 3 produces a *superset* of Definition 5: it
//! keeps `T_t` contributions of back edges whose target is itself
//! reduced-reachable from `v` (the per-level filter `t' ∉ R_v` of
//! Definition 5 cannot be applied by plain forward propagation).
//! Such extra elements are harmless for correctness (for any extra `t`,
//! `t ∈ R_v` implies `R_t ⊆ R_v`, so the `t = v` iteration of
//! Algorithm 1 already finds every use they could find) — but they can
//! break Lemma 3's *total dominance order* on reducible CFGs, which
//! Theorem 2's single-test fast path and the subtree-skipping loop of
//! Algorithm 3 rely on. We therefore finish with a global filter
//!
//! ```text
//! T_v := (T̃_v \ R_v) ∪ {v}
//! ```
//!
//! which removes only redundant elements (soundness and completeness
//! are unaffected, see the test suite's oracle comparisons) and, on
//! reducible CFGs, leaves exactly `{v} ∪ {headers of loops containing
//! v}` — restoring the total order. The reference implementation in
//! [`reference`](crate::reference) computes Definition 5 verbatim and
//! the test suite checks that both engines answer every query
//! identically.

use fastlive_bitset::BitMatrix;
use fastlive_cfg::{DfsTree, DomTree, EdgeClass};
use fastlive_graph::{Cfg, NodeId};

/// The precomputed matrices, in dominance-preorder number space:
/// row/column `i` talks about the block `dom.node_at_num(i)`.
///
/// Equality is exact and field-for-field (all matrices, bit by bit) —
/// what the persistence codec's round-trip property tests check. `rt`
/// is derived deterministically from `r`, so the codec persists only
/// `r` and `t` and rebuilds `rt` on decode
/// ([`from_parts`](Self::from_parts)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Precomputation {
    /// `r.contains(num(v), num(w))` iff `w ∈ R_v`.
    pub r: BitMatrix,
    /// `t.contains(num(q), num(x))` iff `x ∈ T_q` (globally filtered).
    pub t: BitMatrix,
    /// `r` transposed: `rt.contains(num(w), num(v))` iff `w ∈ R_v`.
    /// Row `num(u)` is "the candidates whose `R` reaches `u`" — the
    /// second operand of the fused query kernel, which ANDs a `T_q` row
    /// against an `rt` row over the candidate interval instead of
    /// walking candidates one by one.
    pub rt: BitMatrix,
}

impl Precomputation {
    /// Assembles a `Precomputation` from the two persisted matrices,
    /// deriving the transposed reachability matrix. The codec calls
    /// this on decode; [`compute`](Self::compute) produces the
    /// identical value for the same graph, so round-trip equality is
    /// exact.
    pub fn from_parts(r: BitMatrix, t: BitMatrix) -> Self {
        let rt = r.transposed();
        Precomputation { r, t, rt }
    }
    /// Runs the full §5.2 precomputation. Unreachable nodes get no rows
    /// (they have no dominance preorder number).
    pub fn compute<G: Cfg>(g: &G, dfs: &DfsTree, dom: &DomTree) -> Self {
        let n = dom.num_reachable();
        let num = |v: NodeId| dom.num(v);

        // ---- R: reduced reachability, one postorder pass.
        let mut r = BitMatrix::new(n, n);
        for &v in dfs.postorder() {
            let vn = num(v);
            r.set(vn, vn);
            for (i, &w) in g.succs(v).iter().enumerate() {
                if dfs.edge_class_at(v, i) != EdgeClass::Back {
                    r.union_rows(vn, num(w));
                }
            }
        }

        // Distinct back-edge targets, sorted by DFS preorder (Theorem 3
        // processing order). `header_row[v]` is the phase-1 row of v.
        let mut targets: Vec<NodeId> = dfs.back_edges().iter().map(|&(_, t)| t).collect();
        targets.sort_unstable_by_key(|&t| dfs.pre(t));
        targets.dedup();
        let mut header_row = vec![u32::MAX; g.num_nodes()];
        for (i, &t) in targets.iter().enumerate() {
            header_row[t as usize] = i as u32;
        }

        // ---- Phase 1: T_t for back-edge targets via Equation (1).
        let mut theaders = BitMatrix::new(targets.len(), n);
        for (i, &t) in targets.iter().enumerate() {
            let tn = num(t);
            theaders.set(i as u32, tn);
            for &(s2, t2) in dfs.back_edges() {
                // t2 ∈ T↑_t iff source s2 ∈ R_t and target t2 ∉ R_t.
                if r.contains(tn, num(s2)) && !r.contains(tn, num(t2)) {
                    let j = header_row[t2 as usize];
                    debug_assert!(
                        (j as usize) < i,
                        "Theorem 3 violated: {t2} not processed before {t}"
                    );
                    theaders.union_rows(i as u32, j);
                }
            }
        }

        // ---- Phases 2+3: seed back-edge sources, propagate in postorder.
        // A back edge `(v, w)` seeds `T_v` with the phase-1 row of `w`
        // (phase 2); every other edge propagates `T_w` (phase 3).
        let mut t = BitMatrix::new(n, n);
        for &v in dfs.postorder() {
            let vn = num(v);
            for (i, &w) in g.succs(v).iter().enumerate() {
                if dfs.edge_class_at(v, i) == EdgeClass::Back {
                    t.union_row_from(vn, &theaders, header_row[w as usize]);
                } else {
                    t.union_rows(vn, num(w));
                }
            }
        }

        // ---- Global filter: T_v := (T̃_v \ R_v) ∪ {v}.
        for &v in dfs.preorder() {
            let vn = num(v);
            t.difference_row_from(vn, &r, vn);
            t.set(vn, vn);
        }

        Precomputation::from_parts(r, t)
    }
}
