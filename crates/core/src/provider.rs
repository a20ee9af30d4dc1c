//! [`LivenessProvider`]: the workspace-wide liveness query interface —
//! block queries plus program-point queries, with the point
//! decomposition provided as a default implementation.
//!
//! This trait is the generalization of what used to be a private
//! `BlockLiveness` trait inside the SSA-destruction crate. Hoisting it
//! here makes the paper's checker ([`FunctionLiveness`]), the batched
//! snapshot ([`BatchLiveness`](crate::BatchLiveness)) and the data-flow
//! baselines of `fastlive-dataflow` interchangeable behind one
//! interface, for *both* granularities:
//!
//! * **Block queries** (`live_in` / `live_out`) — Definitions 2/3 of
//!   the paper.
//! * **Point queries** (`live_at` / `live_after_def`) — liveness at a
//!   [`ProgramPoint`], the primitive the Budimlić interference test
//!   needs ("whether one variable is live directly after the
//!   instruction that defines the other one", §6.2). The default
//!   implementation derives the answer from block queries via the
//!   decomposition
//!
//!   ```text
//!   live_at(a, p)  =  defined(a) at-or-before p
//!                     ∧ (a has a use after p in p's block  ∨  live_out(a, block(p)))
//!   ```
//!
//!   so every block-granularity engine answers point queries for free
//!   at full speed — both layout legs are the prefix/suffix membership
//!   scans of `fastlive_ir` (the per-use position walk this replaced
//!   survives only as
//!   [`baseline::is_live_at_chain_walk`](crate::baseline::is_live_at_chain_walk),
//!   the executable spec and bench baseline).
//!
//! Point queries read positions from the *current* instruction layout
//! and def-use chains; they never touch the CFG, so they neither bump
//! nor depend on [`Function::cfg_version`](fastlive_ir::Function::cfg_version).

use fastlive_ir::{Block, Function, ProgramPoint, Value};

/// Why a point-granularity liveness query could not be answered.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PointError {
    /// The queried value's defining instruction was removed from its
    /// block: a detached definition has no program point, so "defined
    /// at or before" is unanswerable. (This used to be an
    /// `expect("definition removed")` panic inside the destruction
    /// pass; it now surfaces as a value.)
    DefinitionRemoved(Value),
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointError::DefinitionRemoved(v) => {
                write!(f, "the defining instruction of {v} was removed")
            }
        }
    }
}

impl std::error::Error for PointError {}

/// A liveness engine answering block- and point-granularity queries
/// for the SSA values of a [`Function`].
///
/// All implementations must agree on the semantics (Definitions 1–3 of
/// the paper, φ-uses attributed to predecessor blocks); clients like
/// the SSA-destruction pass make identical decisions with any correct
/// provider, so swapping providers changes performance, never results
/// — which is what lets the benchmarks compare pure engine cost on an
/// identical query stream.
///
/// Methods take `&mut self` because set-based engines may patch
/// themselves lazily when queried about values created mid-pass.
///
/// # Examples
///
/// A block-only engine answers point queries through the default
/// decomposition:
///
/// ```
/// use fastlive_core::{FunctionLiveness, LivenessProvider};
/// use fastlive_ir::parse_function;
///
/// let f = parse_function(
///     "function %f { block0(v0):
///          v1 = iconst 1
///          v2 = iadd v0, v1
///          return v2 }",
/// )?;
/// let mut live = FunctionLiveness::compute(&f);
/// let v1 = f.value("v1").unwrap();
/// // v1 is live just after its definition (the iadd still needs it) …
/// assert!(live.live_after_def(&f, v1)?);
/// // … and dead after the iadd (its last use).
/// let after_iadd = f.point_after(f.block_insts(f.entry_block())[1]).unwrap();
/// assert!(!live.live_at(&f, v1, after_iadd)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait LivenessProvider {
    /// Is `v` live-in at `b` (Definition 2)?
    fn live_in(&mut self, func: &Function, v: Value, b: Block) -> bool;

    /// Is `v` live-out at `b` (Definition 3)?
    fn live_out(&mut self, func: &Function, v: Value, b: Block) -> bool;

    /// Is `v` live at program point `p`?
    ///
    /// The default implementation is the point decomposition above:
    /// `v` is dead before its definition point; otherwise it is live
    /// iff it has a use after `p` inside `p`'s block or is live-out of
    /// that block. Errs with [`PointError::DefinitionRemoved`] when
    /// `v`'s defining instruction was removed.
    fn live_at(&mut self, func: &Function, v: Value, p: ProgramPoint) -> Result<bool, PointError> {
        if !func
            .is_defined_at(v, p)
            .ok_or(PointError::DefinitionRemoved(v))?
        {
            return Ok(false); // same block, not yet defined at p
        }
        Ok(func.has_use_after(v, p) || self.live_out(func, v, p.block()))
    }

    /// Is `v` live just after its own definition — i.e. is it used at
    /// all past the defining instruction? (The Budimlić test asks this
    /// of the dominating value at the dominated definition point.)
    fn live_after_def(&mut self, func: &Function, v: Value) -> Result<bool, PointError> {
        let def = func.def_point(v).ok_or(PointError::DefinitionRemoved(v))?;
        self.live_at(func, v, def)
    }

    /// A pass rewrote the uses of `v` (copy insertion): engines that
    /// store liveness *sets* must refresh their information for `v`,
    /// mirroring the set maintenance Sreedhar's algorithm performs in
    /// LAO. The paper's checker needs nothing here — its precomputation
    /// is variable-independent — which is the whole point.
    fn invalidate_value(&mut self, func: &Function, v: Value) {
        let _ = (func, v);
    }

    /// Engine name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's checker as a provider. `live_at` is overridden to route
/// through the inherent
/// [`is_live_at`](crate::FunctionLiveness::is_live_at) — the same
/// decomposition as the trait default, pinned to one implementation so
/// the two entry points cannot drift.
impl LivenessProvider for crate::FunctionLiveness {
    fn live_in(&mut self, func: &Function, v: Value, b: Block) -> bool {
        self.is_live_in(func, v, b)
    }
    fn live_out(&mut self, func: &Function, v: Value, b: Block) -> bool {
        self.is_live_out(func, v, b)
    }
    fn live_at(&mut self, func: &Function, v: Value, p: ProgramPoint) -> Result<bool, PointError> {
        self.is_live_at(func, v, p)
    }
    fn name(&self) -> &'static str {
        "new (Boissinot et al.)"
    }
}

/// The dense snapshot as a provider. Block answers come from the
/// materialized matrices (O(1) bit probes); point queries use the
/// default decomposition over the *current* def-use chains. Note the
/// snapshot itself goes stale on instruction edits — re-materialize
/// after editing, or use [`FunctionLiveness`](crate::FunctionLiveness)
/// directly when the program is being rewritten mid-query.
impl LivenessProvider for crate::BatchLiveness {
    fn live_in(&mut self, _func: &Function, v: Value, b: Block) -> bool {
        self.is_live_in(v.index() as u32, b.as_u32())
    }
    fn live_out(&mut self, _func: &Function, v: Value, b: Block) -> bool {
        self.is_live_out(v.index() as u32, b.as_u32())
    }
    fn name(&self) -> &'static str {
        "batch snapshot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionLiveness;
    use fastlive_ir::parse_function;

    /// A provider that only knows block queries: exercises the default
    /// point decomposition against the checker's native fast path.
    struct BlockOnly(FunctionLiveness);

    impl LivenessProvider for BlockOnly {
        fn live_in(&mut self, func: &Function, v: Value, b: Block) -> bool {
            self.0.is_live_in(func, v, b)
        }
        fn live_out(&mut self, func: &Function, v: Value, b: Block) -> bool {
            self.0.is_live_out(func, v, b)
        }
        fn name(&self) -> &'static str {
            "block-only"
        }
    }

    #[test]
    fn default_decomposition_matches_native_fast_path() {
        let f = parse_function(
            "function %loop { block0(v0):
                v1 = iconst 0
                jump block1(v1)
            block1(v2):
                v3 = iconst 1
                v4 = iadd v2, v3
                v5 = icmp_slt v4, v0
                brif v5, block1(v4), block2
            block2:
                return v4 }",
        )
        .expect("parses");
        let mut fast = FunctionLiveness::compute(&f);
        let mut derived = BlockOnly(FunctionLiveness::compute(&f));
        for v in f.values() {
            for b in f.blocks() {
                for p in f.block_points(b) {
                    assert_eq!(
                        fast.live_at(&f, v, p),
                        derived.live_at(&f, v, p),
                        "{v} at {p}"
                    );
                }
            }
            assert_eq!(fast.live_after_def(&f, v), derived.live_after_def(&f, v));
        }
    }

    #[test]
    fn detached_definition_is_an_error_not_a_panic() {
        let mut f = parse_function("function %f { block0(v0): return v0 }").expect("parses");
        let b0 = f.entry_block();
        let dead = f.insert_inst(b0, 0, fastlive_ir::InstData::IntConst { imm: 1 });
        let dv = f.inst_result(dead).unwrap();
        let mut live = FunctionLiveness::compute(&f);
        assert_eq!(live.live_after_def(&f, dv), Ok(false));
        f.remove_inst(dead);
        assert_eq!(
            live.live_after_def(&f, dv),
            Err(PointError::DefinitionRemoved(dv))
        );
        let p = fastlive_ir::ProgramPoint::block_entry(b0);
        assert_eq!(
            live.live_at(&f, dv, p),
            Err(PointError::DefinitionRemoved(dv))
        );
        let msg = PointError::DefinitionRemoved(dv).to_string();
        assert!(msg.contains("removed"), "{msg}");
    }
}
