//! [`CfgShape`]: a canonical structural fingerprint of a CFG.
//!
//! The paper's precomputation depends on **nothing but the shape of the
//! control-flow graph** — block count and successor lists. Two
//! functions whose CFGs are identical (same blocks in the same order,
//! same edges) therefore share a `LivenessChecker` verbatim, even if
//! every instruction differs. `CfgShape` makes that sharing addressable:
//! it canonically encodes the shape and carries a precomputed 64-bit
//! FNV-1a hash, so it can key a hash map with O(1) probes while
//! equality stays *exact* (the full encoding is compared on hash
//! collisions — a collision can cost a wasted recomputation, never a
//! wrong answer).

use fastlive_graph::{Cfg, DiGraph};

/// Canonical structural encoding of a CFG, with a precomputed hash.
///
/// The encoding is `[num_nodes, entry, len(succs(0)), sorted(succs(0)),
/// len(succs(1)), sorted(succs(1)), ...]` — blocks in id order, each
/// successor list **sorted**. Sorting is what makes the fingerprint
/// canonical: successor *order* influences which DFS tree the
/// precomputation builds, but never a liveness answer (liveness is a
/// property of the edge relation, and every checker is exact for its
/// own numbering), so two functions whose edges agree as sets-with-
/// multiplicity may share one precomputation even when in-memory edge
/// order diverges — as happens after in-place terminator rewiring vs. a
/// textual round-trip. Instruction contents never enter.
///
/// # Examples
///
/// ```
/// use fastlive_engine::CfgShape;
/// use fastlive_ir::parse_function;
///
/// let a = parse_function("function %a { block0(v0): v1 = ineg v0  return v1 }")?;
/// let b = parse_function("function %b { block0(v0): v1 = iadd v0, v0  v2 = bnot v1  return v2 }")?;
/// // Different instructions, same single-block CFG: same shape.
/// assert_eq!(CfgShape::of(&a), CfgShape::of(&b));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Eq)]
pub struct CfgShape {
    encoding: Vec<u32>,
    hash: u64,
}

impl CfgShape {
    /// Fingerprints `g`'s structure.
    pub fn of<G: Cfg>(g: &G) -> Self {
        let n = g.num_nodes();
        let mut encoding = Vec::with_capacity(2 + n + g.num_edges());
        encoding.push(n as u32);
        encoding.push(g.entry());
        for v in 0..n as u32 {
            let succs = g.succs(v);
            encoding.push(succs.len() as u32);
            let start = encoding.len();
            encoding.extend_from_slice(succs);
            encoding[start..].sort_unstable();
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &word in &encoding {
            for byte in word.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
        CfgShape { encoding, hash }
    }

    /// The 64-bit structural hash (stable across runs and platforms).
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// Number of blocks in the fingerprinted graph.
    pub fn num_blocks(&self) -> usize {
        self.encoding[0] as usize
    }

    /// The canonical encoding words (see the type docs for the layout)
    /// — the exact byte identity the persistence codec embeds in cache
    /// files so a fingerprint-hash collision degrades to a miss, never
    /// a wrong load.
    pub fn encoding(&self) -> &[u32] {
        &self.encoding
    }

    /// Materializes the **canonical graph** the shape encodes: same
    /// blocks and edge multiset as every function that fingerprints to
    /// this shape, successor lists sorted.
    ///
    /// This graph — not any particular function's — is what the engine
    /// runs the precomputation on. Successor *order* steers the DFS and
    /// therefore the dominance-preorder numbering the `R`/`T` matrices
    /// are indexed by, so two order-divergent functions sharing this
    /// shape would otherwise disagree about what the matrices mean.
    /// Canonicalizing pins one numbering per shape, which is what makes
    /// a precomputation serialized by one process exact for every
    /// shape-identical function loaded by another. Liveness answers are
    /// unaffected: they depend on the edge relation only.
    pub fn to_graph(&self) -> DiGraph {
        let mut rest = &self.encoding[2..];
        let lists = std::iter::from_fn(move || {
            let (&len, tail) = rest.split_first()?;
            let (list, tail) = tail.split_at(len as usize);
            rest = tail;
            Some(list)
        });
        DiGraph::from_succ_lists(self.encoding[1], lists)
    }
}

impl PartialEq for CfgShape {
    fn eq(&self, other: &Self) -> bool {
        // Hash first (cheap reject), then the exact encoding: equality
        // is never probabilistic.
        self.hash == other.hash && self.encoding == other.encoding
    }
}

impl std::hash::Hash for CfgShape {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_ir::parse_function;

    #[test]
    fn instruction_edits_preserve_the_shape() {
        let mut f = parse_function(
            "function %f { block0(v0):
                brif v0, block1, block2
            block1: jump block2
            block2: return v0 }",
        )
        .unwrap();
        let before = CfgShape::of(&f);
        let b2 = f.block_by_index(2);
        f.insert_inst(
            b2,
            0,
            fastlive_ir::InstData::Unary {
                op: fastlive_ir::UnaryOp::Ineg,
                arg: f.params()[0],
            },
        );
        assert_eq!(before, CfgShape::of(&f));
        assert_eq!(before.hash64(), CfgShape::of(&f).hash64());
        assert_eq!(before.num_blocks(), 3);
    }

    #[test]
    fn cfg_edits_change_the_shape() {
        let f = parse_function("function %f { block0: jump block1 block1: return }").unwrap();
        let g = parse_function(
            "function %g { block0: jump block1 block1: jump block2 block2: return }",
        )
        .unwrap();
        assert_ne!(CfgShape::of(&f), CfgShape::of(&g));
        // Same block count, different edges: still distinct.
        let h =
            parse_function("function %h { block0(v0): brif v0, block1, block1 block1: return }")
                .unwrap();
        let i =
            parse_function("function %i { block0(v0): brif v0, block0, block1 block1: return }")
                .unwrap();
        assert_eq!(CfgShape::of(&h).num_blocks(), CfgShape::of(&i).num_blocks());
        assert_ne!(CfgShape::of(&h), CfgShape::of(&i));
    }

    #[test]
    fn successor_order_does_not_change_the_shape() {
        // Swapped brif arms: same edge relation, different edge order,
        // one shape — in-place rewiring and textual round-trips may
        // reorder successor lists without changing any liveness answer.
        let a = parse_function(
            "function %a { block0(v0): brif v0, block1, block2 block1: return block2: return }",
        )
        .unwrap();
        let b = parse_function(
            "function %b { block0(v0): brif v0, block2, block1 block1: return block2: return }",
        )
        .unwrap();
        assert_eq!(CfgShape::of(&a), CfgShape::of(&b));
    }

    #[test]
    fn to_graph_rebuilds_the_canonical_edge_relation() {
        use fastlive_graph::Cfg;
        let f = parse_function(
            "function %f { block0(v0): brif v0, block2, block1
             block1: jump block0 block2: return }",
        )
        .unwrap();
        let g = CfgShape::of(&f).to_graph();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.entry(), 0);
        // Successors come back sorted regardless of branch-arm order.
        assert_eq!(g.succs(0), &[1, 2]);
        assert_eq!(g.succs(1), &[0]);
        assert_eq!(g.succs(2), &[] as &[u32]);
        // The canonical graph fingerprints back to the same shape.
        assert_eq!(CfgShape::of(&g), CfgShape::of(&f));
    }

    #[test]
    fn shape_is_name_and_value_independent() {
        let a = parse_function(
            "function %left { block0(v0): v1 = iconst 3  jump block1(v1) block1(v2): return v2 }",
        )
        .unwrap();
        let b = parse_function(
            "function %right { block0(v9): v5 = iconst 8  jump block1(v5) block1(v7): return v9 }",
        )
        .unwrap();
        assert_eq!(CfgShape::of(&a), CfgShape::of(&b));
    }
}
