//! [`FunctionLiveness`]: the liveness checker bound to an
//! [`fastlive_ir::Function`], plus program-point-granularity queries.

use fastlive_ir::{Block, Function, Inst, ProgramPoint, Value};

use crate::checker::LivenessChecker;
use crate::provider::PointError;

/// Liveness queries for the SSA values of a [`Function`].
///
/// Construction runs the paper's variable-independent precomputation on
/// the function's CFG. Queries read the function's *current* def-use
/// chains, so the `FunctionLiveness` stays valid while instructions,
/// values and uses are added or removed — the paper's headline property.
/// Only CFG edits (adding blocks or changing terminator targets)
/// invalidate it; [`is_current_for`](Self::is_current_for) detects the
/// block-count part of that cheaply and queries debug-assert it.
///
/// # Examples
///
/// ```
/// use fastlive_core::FunctionLiveness;
/// use fastlive_ir::parse_function;
///
/// let mut f = parse_function(
///     "function %loop { block0(v0):
///          v1 = iconst 0
///          jump block1(v1)
///      block1(v2):
///          v3 = iconst 1
///          v4 = iadd v2, v3
///          v5 = icmp_slt v4, v0
///          brif v5, block1(v4), block2
///      block2:
///          return v4 }",
/// )?;
/// let live = FunctionLiveness::compute(&f);
/// let v0 = f.params()[0];
/// let block1 = f.blocks().nth(1).unwrap();
///
/// // The loop bound v0 is live around the whole loop...
/// assert!(live.is_live_in(&f, v0, block1));
/// assert!(live.is_live_out(&f, v0, block1));
///
/// // ... and stays correctly tracked after inserting an instruction,
/// // without recomputing anything.
/// let block2 = f.blocks().nth(2).unwrap();
/// let v4 = f.value("v4").unwrap();
/// f.insert_inst(
///     block2,
///     0,
///     fastlive_ir::InstData::Unary { op: fastlive_ir::UnaryOp::Ineg, arg: v4 },
/// );
/// assert!(live.is_live_in(&f, v4, block2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct FunctionLiveness {
    checker: LivenessChecker,
}

impl FunctionLiveness {
    /// Runs the precomputation on the function's CFG.
    pub fn compute(func: &Function) -> Self {
        FunctionLiveness {
            checker: LivenessChecker::compute(func),
        }
    }

    /// Wraps an already-computed checker — the reuse hook for engines
    /// that cache precomputations by CFG shape. Because the
    /// precomputation never reads instructions, a checker computed for
    /// **any** function with an identical CFG (same block count, same
    /// successor lists) answers queries for this one exactly; queries
    /// read the def-use chains of whichever function they are handed.
    pub fn from_checker(checker: LivenessChecker) -> Self {
        FunctionLiveness { checker }
    }

    /// Unwraps the graph-level checker (e.g. to move it into a cache).
    pub fn into_checker(self) -> LivenessChecker {
        self.checker
    }

    /// The underlying graph-level checker.
    pub fn checker(&self) -> &LivenessChecker {
        &self.checker
    }

    /// `true` while the function still has the block count the
    /// precomputation saw. (Necessary but not sufficient: rewiring
    /// terminators without adding blocks also invalidates the checker.)
    pub fn is_current_for(&self, func: &Function) -> bool {
        func.num_blocks() == self.checker.dfs().num_nodes()
    }

    /// Is `v` live-in at block `q` (Definition 2 / Algorithm 3)?
    ///
    /// Uses are taken from the live def-use chain: every instruction
    /// currently using `v`, attributed to its block (which, for branch
    /// arguments, is the predecessor — Definition 1). A value whose
    /// defining instruction was removed is live nowhere.
    pub fn is_live_in(&self, func: &Function, v: Value, q: Block) -> bool {
        debug_assert!(self.is_current_for(func), "stale checker: the CFG changed");
        let Some(def) = func.try_def_block(v) else {
            return false;
        };
        let def = def.as_u32();
        // Word-masked interval guard: most negative queries die before
        // the def-use chain is even walked.
        if !self.checker.has_candidates(def, q.as_u32()) {
            return false;
        }
        with_use_nums(&self.checker, func, v, |nums| {
            self.checker.is_live_in_prenums(def, q.as_u32(), nums)
        })
    }

    /// Is `v` live-out at block `q` (Algorithm 2)? A value whose
    /// defining instruction was removed is live nowhere.
    pub fn is_live_out(&self, func: &Function, v: Value, q: Block) -> bool {
        debug_assert!(self.is_current_for(func), "stale checker: the CFG changed");
        let Some(def) = func.try_def_block(v) else {
            return false;
        };
        if def == q {
            // Live-out of the defining block iff some reachable use is
            // elsewhere.
            let (checker, q) = (&self.checker, q.as_u32());
            return checker.num_of(q).is_some()
                && func.uses(v).iter().any(|&i| {
                    let ub = func.inst_block(i).expect("use site removed").as_u32();
                    ub != q && checker.num_of(ub).is_some()
                });
        }
        if !self.checker.has_candidates(def.as_u32(), q.as_u32()) {
            return false;
        }
        with_use_nums(&self.checker, func, v, |nums| {
            self.checker
                .is_live_out_prenums(def.as_u32(), q.as_u32(), nums)
        })
    }

    /// Materializes classic per-block live-in/live-out *sets* — for
    /// consumers that want data-flow-shaped results with checker-backed
    /// freshness.
    ///
    /// Routed through one [`batch`](Self::batch) matrix pass rather
    /// than `O(values × blocks)` scalar queries (the 20–60× measured in
    /// `BENCH_query.json`);
    /// [`baseline::live_sets_scalar`](crate::baseline::live_sets_scalar)
    /// keeps the query-loop materialization as the reference both paths
    /// are tested against.
    ///
    /// Returns `(live_in, live_out)`, indexed by block, each a sorted
    /// list of values.
    pub fn live_sets(&self, func: &Function) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
        let batch = self.batch(func);
        let to_values = |vars: Vec<u32>| -> Vec<Value> {
            vars.iter()
                .map(|&v| Value::from_index(v as usize))
                .collect()
        };
        let mut live_in = Vec::with_capacity(func.num_blocks());
        let mut live_out = Vec::with_capacity(func.num_blocks());
        for b in func.blocks() {
            live_in.push(to_values(batch.live_in_vars(b.as_u32())));
            live_out.push(to_values(batch.live_out_vars(b.as_u32())));
        }
        (live_in, live_out)
    }

    /// Materializes live-in/live-out sets for **all** blocks and values
    /// in one batched matrix pass over the precomputation — the dense
    /// counterpart of the scalar queries, with variable `a` of the
    /// result being the value of index `a`
    /// ([`Value::index`](fastlive_ir::Value)). Unlike
    /// [`live_sets`](Self::live_sets) this never loops scalar queries:
    /// cost is `O((E + Σ|T_q|) · V/64)` word operations total.
    ///
    /// The snapshot reads the *current* def-use chains, so unlike the
    /// checker itself it goes stale when instructions change.
    pub fn batch(&self, func: &Function) -> crate::BatchLiveness {
        debug_assert!(self.is_current_for(func), "stale checker: the CFG changed");
        let mut defs = vec![0 as fastlive_graph::NodeId; func.num_values()];
        let mut uses: Vec<(u32, fastlive_graph::NodeId)> = Vec::new();
        for v in func.values() {
            // A detached definition keeps the placeholder block and no
            // use rows, so it is live nowhere — as in the scalar queries.
            let Some(def) = func.try_def_block(v) else {
                continue;
            };
            defs[v.index()] = def.as_u32();
            for &inst in func.uses(v) {
                let ub = func.inst_block(inst).expect("use site removed");
                uses.push((v.index() as u32, ub.as_u32()));
            }
        }
        crate::BatchLiveness::compute(func, &self.checker, &defs, &uses)
            .expect("def-use chains of a function are always valid batch input")
    }

    /// Is `v` live at program point `p` (the paper's point
    /// decomposition)?
    ///
    /// `v` is dead before its definition point; otherwise it is live
    /// at `p` iff some use of `v` sits after `p` inside `p`'s block —
    /// decided by [`Function::has_use_after`]'s suffix membership scan
    /// over the instruction list, not a per-use position walk — or `v`
    /// is live-out of the block (Algorithm 2).
    ///
    /// This is the primitive the Budimlić interference test needs
    /// ("whether one variable is live directly after the instruction
    /// that defines the other one", §6.2), exposed as a first-class
    /// query. Errs when `v`'s defining instruction was removed (a
    /// detached definition has no position).
    pub fn is_live_at(
        &self,
        func: &Function,
        v: Value,
        p: ProgramPoint,
    ) -> Result<bool, PointError> {
        if !func
            .is_defined_at(v, p)
            .ok_or(PointError::DefinitionRemoved(v))?
        {
            return Ok(false); // same block, not yet defined at p
        }
        if func.has_use_after(v, p) {
            return Ok(true);
        }
        Ok(self.is_live_out(func, v, p.block()))
    }

    /// Is `v` live just after its own definition point — i.e. used at
    /// all past the defining instruction (or parameter binding)?
    pub fn is_live_after_def(&self, func: &Function, v: Value) -> Result<bool, PointError> {
        let def = func.def_point(v).ok_or(PointError::DefinitionRemoved(v))?;
        self.is_live_at(func, v, def)
    }

    /// Is `v` live at the program point *just after* `inst`? A
    /// convenience wrapper around [`is_live_at`](Self::is_live_at).
    ///
    /// # Panics
    ///
    /// Panics if `inst` or `v`'s defining instruction has been removed
    /// (use the point API directly for fallible handling).
    pub fn is_live_after(&self, func: &Function, v: Value, inst: Inst) -> bool {
        let p = func.point_after(inst).expect("instruction removed");
        self.is_live_at(func, v, p)
            .expect("definition of the queried value was removed")
    }

    /// Is `v` live at the program point *just before* `inst`?
    ///
    /// A use by `inst` itself counts; `v` is not live before its own
    /// definition.
    ///
    /// # Panics
    ///
    /// Panics if `inst` or `v`'s defining instruction has been removed
    /// (use the point API directly for fallible handling).
    pub fn is_live_before(&self, func: &Function, v: Value, inst: Inst) -> bool {
        let p = func.point_before(inst).expect("instruction removed");
        self.is_live_at(func, v, p)
            .expect("definition of the queried value was removed")
    }
}

/// Resolves `v`'s current uses straight to dominance-preorder numbers,
/// once per query (Definition 1 attribution: a branch argument is a use
/// at the branching block; unreachable blocks drop out), and hands the
/// list to `f` via the shared stack scratch. The seed resolved use
/// blocks inside the candidate loop, multiplying the def-use walk by
/// the candidate count.
#[inline]
fn with_use_nums<R>(
    checker: &crate::LivenessChecker,
    func: &Function,
    v: Value,
    f: impl FnOnce(&[u32]) -> R,
) -> R {
    let uses = func.uses(v);
    crate::checker::with_nums(
        uses.len(),
        uses.iter().map(|&inst| {
            let ub = func.inst_block(inst).expect("use site removed");
            checker.num_of(ub.as_u32())
        }),
        f,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fastlive_ir::parse_function;

    pub(crate) fn loop_func() -> Function {
        parse_function(
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
        .expect("parses")
    }

    fn nth_block(f: &Function, i: usize) -> Block {
        f.blocks().nth(i).expect("block exists")
    }

    #[test]
    fn loop_bound_is_live_through_the_loop() {
        let f = loop_func();
        let live = FunctionLiveness::compute(&f);
        let v0 = f.params()[0];
        let b0 = nth_block(&f, 0);
        let b1 = nth_block(&f, 1);
        let b2 = nth_block(&f, 2);
        assert!(!live.is_live_in(&f, v0, b0)); // never live-in at its def
        assert!(live.is_live_out(&f, v0, b0));
        assert!(live.is_live_in(&f, v0, b1));
        assert!(live.is_live_out(&f, v0, b1)); // needed by next iteration
        assert!(!live.is_live_in(&f, v0, b2));
        assert!(!live.is_live_out(&f, v0, b2));
    }

    #[test]
    fn phi_argument_liveness_follows_definition1() {
        let f = loop_func();
        let live = FunctionLiveness::compute(&f);
        let b0 = nth_block(&f, 0);
        let b1 = nth_block(&f, 1);
        // v1 (initial counter) is used only as a branch argument in
        // block0 — per Definition 1 that use happens *at block0*, the
        // block that also defines v1. Algorithm 2's def-block case
        // (uses(a) \ {def} = ∅) therefore reports it dead-out: the value
        // is consumed by the edge copy, exactly the paper's convention.
        let v1 = f.value("v1").expect("v1 exists");
        assert!(!live.is_live_out(&f, v1, b0));
        assert!(!live.is_live_in(&f, v1, b1));
        // But the φ-arg *is* live at the branch instruction itself.
        let jump = *f.block_insts(b0).last().unwrap();
        assert!(live.is_live_before(&f, v1, jump));
        // v4 (next counter) is passed around the back edge: live-out of
        // block1 and live-in at block1? v4 is *defined* in block1, so
        // live-in is false; live-out is true (the branch arg use is in
        // block1 itself, but v4 is also used by return in block2).
        let v4 = f.value("v4").expect("v4 exists");
        assert!(live.is_live_out(&f, v4, b1));
        assert!(!live.is_live_in(&f, v4, b1));
    }

    #[test]
    fn point_queries_inside_a_block() {
        let f = loop_func();
        let live = FunctionLiveness::compute(&f);
        let b1 = nth_block(&f, 1);
        let insts = f.block_insts(b1).to_vec();
        let v2 = f.value("v2").unwrap(); // block param
        let v4 = f.value("v4").unwrap(); // iadd result
        let iconst = insts[0];
        let iadd = insts[1];
        let icmp = insts[2];

        // v2 (param) is live before/after the iconst (used by the iadd)
        // and dead after the iadd (its last use).
        assert!(live.is_live_before(&f, v2, iconst));
        assert!(live.is_live_after(&f, v2, iconst));
        assert!(live.is_live_before(&f, v2, iadd));
        assert!(!live.is_live_after(&f, v2, iadd));

        // v4 is not live before its own definition, live after it.
        assert!(!live.is_live_before(&f, v4, iadd));
        assert!(live.is_live_after(&f, v4, iadd));
        assert!(live.is_live_before(&f, v4, icmp));
        assert!(live.is_live_after(&f, v4, icmp)); // used by brif + block2
    }

    #[test]
    fn live_after_def_is_use_driven() {
        let f = loop_func();
        let live = FunctionLiveness::compute(&f);
        // v4 is used by the brif and in block2: live after its def.
        let v4 = f.value("v4").unwrap();
        assert_eq!(live.is_live_after_def(&f, v4), Ok(true));
        // v5 is consumed by the brif, the last instruction: live after
        // its def (the brif comes later), dead after the brif.
        let v5 = f.value("v5").unwrap();
        assert_eq!(live.is_live_after_def(&f, v5), Ok(true));
        let b1 = nth_block(&f, 1);
        let brif = *f.block_insts(b1).last().unwrap();
        let after_brif = f.point_after(brif).unwrap();
        assert_eq!(live.is_live_at(&f, v5, after_brif), Ok(false));
    }

    #[test]
    fn queries_survive_instruction_edits() {
        let mut f = loop_func();
        let live = FunctionLiveness::compute(&f);
        let b2 = nth_block(&f, 2);
        let v0 = f.params()[0];
        assert!(!live.is_live_in(&f, v0, b2));

        // Add a use of v0 in block2: the same checker now answers true,
        // with zero recomputation (the paper's motivating property).
        f.insert_inst(
            b2,
            0,
            fastlive_ir::InstData::Unary {
                op: fastlive_ir::UnaryOp::Ineg,
                arg: v0,
            },
        );
        assert!(live.is_live_in(&f, v0, b2));
        assert!(live.is_live_out(&f, v0, nth_block(&f, 1)));

        // Remove it again: liveness reverts.
        let added = f.block_insts(b2)[0];
        f.remove_inst(added);
        assert!(!live.is_live_in(&f, v0, b2));
        assert!(live.is_current_for(&f));
    }

    #[test]
    fn new_values_are_queryable_without_recompute() {
        let mut f = loop_func();
        let live = FunctionLiveness::compute(&f);
        let b0 = nth_block(&f, 0);
        let b1 = nth_block(&f, 1);
        let b2 = nth_block(&f, 2);
        // Create a fresh value in block0 and a use in block2.
        let k = f.insert_inst(b0, 0, fastlive_ir::InstData::IntConst { imm: 9 });
        let kv = f.inst_result(k).unwrap();
        f.insert_inst(
            b2,
            0,
            fastlive_ir::InstData::Unary {
                op: fastlive_ir::UnaryOp::Bnot,
                arg: kv,
            },
        );
        assert!(live.is_live_in(&f, kv, b1)); // crosses the loop
        assert!(live.is_live_in(&f, kv, b2));
        assert!(live.is_live_out(&f, kv, b0));
    }
}
