//! [`EngineSession`]: the epoch-based query surface over an analyzed
//! [`Module`].

use std::borrow::Cow;
use std::sync::Arc;

use fastlive_core::{AnalysisError, BatchLiveness, FunctionLiveness, NullnessArtifact};
use fastlive_ir::{Block, FuncId, Function, Module, ProgramPoint, Value};

use crate::artifact::{AnalysisArtifact, AnalysisKind, ArtifactHandle};
use crate::engine::AnalysisEngine;
use crate::fingerprint::CfgShape;

struct SessionEntry {
    /// Fingerprint every resident slot was resolved under — the
    /// exact-revalidation baseline.
    shape: CfgShape,
    /// [`Function::cfg_version`](fastlive_ir::Function::cfg_version)
    /// observed when `shape` was taken — the O(1) per-query staleness
    /// signal.
    cfg_version: u64,
    /// How many times this function was recomputed since the session
    /// started: +1 per detected CFG change (however many kinds are
    /// resident) and per retried failure.
    epoch: u64,
    /// One per [`AnalysisKind`]: `None` until first asked for, then
    /// the artifact or the typed error its last resolution ended in. An
    /// `Err` slot is **retried on its kind's next query** — a transient
    /// failure (an injected panic, a worker lost mid-analyze) self-heals.
    slots: [Option<Result<ArtifactHandle, AnalysisError>>; AnalysisKind::ALL.len()],
}

/// Per-function analysis queries over a module, with transparent
/// revalidation.
///
/// A session is created by [`AnalysisEngine::analyze`] and holds one
/// entry per function: its [`CfgShape`] and one artifact slot per
/// [`AnalysisKind`] (possibly shared between CFG-identical functions),
/// liveness resolved up front. Every access first validates the entry
/// against the function's *current* state by comparing the function's
/// [`cfg_version`](fastlive_ir::Function::cfg_version) counter — O(1)
/// and exact for every mutator-driven edit, one rule for every kind:
///
/// * **Instruction-level edits** (insert/remove instructions, add
///   values or uses, swap branch arguments) keep every artifact exact
///   with zero work — the paper's headline property. The version
///   counter and the epoch do not move.
/// * **CFG edits** (`add_block`, terminator insertion,
///   `redirect_branch_target` — every mutator that can change blocks
///   or edges bumps the counter) invalidate the entry: the next access
///   re-resolves every resident kind under one fresh fingerprint
///   through the engine's cache and bumps the function's *epoch* once.
/// * **Wholesale replacement** of a function (swapping in a different
///   `Function` object via [`Module::func_mut`]) carries the
///   replacement's own version counter, which may coincide with the
///   recorded one. Call [`revalidate`](Self::revalidate) after such a
///   swap: it compares the exact [`CfgShape`] and re-resolves on any
///   structural difference.
///
/// Queries take the module by reference on every call, so the module
/// stays freely editable between queries — the session never borrows
/// it.
///
/// # Errors
///
/// Every query returns `Result<_, AnalysisError>`: a function whose
/// precomputation panicked (or whose point query hit a detached
/// definition) answers with a typed error instead of unwinding into
/// the caller, and every *other* function and kind keeps answering
/// normally — per-slot isolation is the degradation contract. Failed
/// slots are retried on their next query.
pub struct EngineSession<'e> {
    engine: &'e AnalysisEngine,
    entries: Vec<SessionEntry>,
}

impl SessionEntry {
    /// Were the entry's slots resolved for `func`'s current CFG? The
    /// O(1) per-access staleness test. Block count is a backstop for
    /// wholesale replacement, where the new object's own version
    /// counter may coincide with the recorded one (see
    /// [`EngineSession::revalidate`] for the exact check).
    fn is_current_for(&self, func: &Function) -> bool {
        self.cfg_version == func.cfg_version() && self.shape.num_blocks() == func.num_blocks()
    }
}

impl<'e> EngineSession<'e> {
    pub(crate) fn new(
        engine: &'e AnalysisEngine,
        module: &Module,
        lives: Vec<(CfgShape, Result<Arc<FunctionLiveness>, AnalysisError>)>,
    ) -> Self {
        EngineSession {
            engine,
            entries: lives
                .into_iter()
                .zip(module.functions())
                .map(|((shape, live), func)| {
                    let mut slots: [_; AnalysisKind::ALL.len()] = Default::default();
                    slots[AnalysisKind::Liveness as usize] =
                        Some(live.map(ArtifactHandle::Liveness));
                    SessionEntry {
                        shape,
                        cfg_version: func.cfg_version(),
                        epoch: 0,
                        slots,
                    }
                })
                .collect(),
        }
    }

    /// Number of functions the session holds entries for: the module's
    /// length at [`AnalysisEngine::analyze`] time, grown to the
    /// module's current length when a function pushed since is first
    /// accessed or revalidated.
    pub fn num_functions(&self) -> usize {
        self.entries.len()
    }

    /// The engine this session resolves through — for batch planners
    /// that want to [`prefetch`](AnalysisEngine::prefetch) artifacts
    /// across functions before issuing per-function queries.
    pub fn engine(&self) -> &'e AnalysisEngine {
        self.engine
    }

    /// The recomputation epoch of `func`: 0 until its CFG first
    /// changes, +1 per detected invalidation (or retried failure)
    /// since, however many analysis kinds are resident. A function the
    /// session holds no entry for yet (one pushed onto the module since
    /// it opened and not accessed since) is at 0.
    pub fn epoch(&self, func: FuncId) -> u64 {
        self.entries.get(func).map_or(0, |entry| entry.epoch)
    }

    /// Total recomputations across all functions since the session
    /// started.
    pub fn recomputations(&self) -> u64 {
        self.entries.iter().map(|e| e.epoch).sum()
    }

    /// The (revalidated) artifact of analysis `A` for `func`, exact
    /// for the function's current state and under instruction-level
    /// edits — the one accessor behind every query method. A kind's
    /// first request resolves it without moving the epoch; so does the
    /// first request for a function pushed onto the module after the
    /// session opened, whose entry is created here.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range for the module.
    pub fn artifact<A: AnalysisArtifact>(
        &mut self,
        module: &Module,
        func: FuncId,
    ) -> Result<Arc<A>, AnalysisError> {
        let current = module.func(func);
        self.grow_to(module, func);
        let entry = &self.entries[func];
        if !entry.is_current_for(current) {
            self.reresolve(module, func, CfgShape::of(current));
        } else if matches!(entry.slots[A::KIND as usize], Some(Err(_))) {
            self.reresolve(module, func, entry.shape.clone());
        }
        let (engine, entry) = (self.engine, &mut self.entries[func]);
        let slot = entry.slots[A::KIND as usize]
            .get_or_insert_with(|| engine.resolve::<A>(&entry.shape).map(A::into_handle));
        slot.as_ref()
            .map(|handle| Arc::clone(A::from_handle(handle).expect("a slot holds its own kind")))
            .map_err(Clone::clone)
    }

    /// Warms the engine's cache, through its worker pool, for the
    /// `(function, analysis)` pairs this session lacks — the batch
    /// planner's prefetch. A kind whose slot holds an artifact current
    /// for the function's CFG (the staleness test of
    /// [`artifact`](Self::artifact)) is skipped; every other request is
    /// warmed under the entry's stored [`CfgShape`], or under a fresh
    /// fingerprint when the CFG changed since. The session's slots do
    /// not move: the next access adopts the warmed artifact as a memory
    /// hit. Advisory like [`AnalysisEngine::prefetch`]: out-of-range
    /// ids and failures are skipped.
    pub fn prefetch(&self, module: &Module, requests: &[(FuncId, AnalysisKind)]) {
        let lacking: Vec<(Cow<'_, CfgShape>, AnalysisKind)> = requests
            .iter()
            .filter_map(|&(id, kind)| {
                let (entry, current) = (self.entries.get(id)?, module.functions().get(id)?);
                if !entry.is_current_for(current) {
                    Some((Cow::Owned(CfgShape::of(current)), kind))
                } else if matches!(entry.slots[kind as usize], Some(Ok(_))) {
                    None
                } else {
                    Some((Cow::Borrowed(&entry.shape), kind))
                }
            })
            .collect();
        self.engine.prefetch_with(lacking.len(), |i| {
            let (shape, kind) = &lacking[i];
            Some((Cow::Borrowed(shape.as_ref()), *kind))
        });
    }

    /// The (revalidated) liveness handle for `func` — for callers that
    /// want to issue many raw [`FunctionLiveness`] queries without
    /// per-query session overhead.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range for the module.
    pub fn analysis(
        &mut self,
        module: &Module,
        func: FuncId,
    ) -> Result<Arc<FunctionLiveness>, AnalysisError> {
        self.artifact(module, func)
    }

    /// The (revalidated) nullness / definite-initialization artifact
    /// for `func`. Run [`NullnessArtifact::solve`] over the handle for
    /// per-value facts; like liveness queries, solving reads the
    /// function's current instructions, so instruction-level edits are
    /// free.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn nullness(
        &mut self,
        module: &Module,
        func: FuncId,
    ) -> Result<Arc<NullnessArtifact>, AnalysisError> {
        self.artifact(module, func)
    }

    /// Is `v` live-in at block `q` of `module.func(func)`? Exact for
    /// the function's current state; transparently recomputes if the
    /// CFG changed. Errs if the function's analysis failed (see the
    /// [type docs](EngineSession#errors)).
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn is_live_in(
        &mut self,
        module: &Module,
        func: FuncId,
        v: Value,
        q: Block,
    ) -> Result<bool, AnalysisError> {
        Ok(self
            .analysis(module, func)?
            .is_live_in(module.func(func), v, q))
    }

    /// Is `v` live-out at block `q` of `module.func(func)`?
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn is_live_out(
        &mut self,
        module: &Module,
        func: FuncId,
        v: Value,
        q: Block,
    ) -> Result<bool, AnalysisError> {
        Ok(self
            .analysis(module, func)?
            .is_live_out(module.func(func), v, q))
    }

    /// Is `v` live at program point `p` of `module.func(func)` — the
    /// point-granularity query
    /// ([`FunctionLiveness::is_live_at`]) behind the session's
    /// revalidation?
    ///
    /// Point queries are instruction-level: they read the current
    /// instruction layout and def-use chains but never touch the CFG,
    /// so they neither bump nor depend on
    /// [`cfg_version`](fastlive_ir::Function::cfg_version) — the same
    /// freshness rules as block queries apply (instruction edits are
    /// free, CFG edits recompute transparently).
    ///
    /// Errs with
    /// [`AnalysisError::Point`]`(`[`PointError::DefinitionRemoved`](fastlive_core::PointError::DefinitionRemoved)`)`
    /// when `v`'s defining instruction has been removed.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn is_live_at(
        &mut self,
        module: &Module,
        func: FuncId,
        v: Value,
        p: ProgramPoint,
    ) -> Result<bool, AnalysisError> {
        Ok(self
            .analysis(module, func)?
            .is_live_at(module.func(func), v, p)?)
    }

    /// Is `v` live just after its own definition point (the Budimlić
    /// primitive)?
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn is_live_after_def(
        &mut self,
        module: &Module,
        func: FuncId,
        v: Value,
    ) -> Result<bool, AnalysisError> {
        Ok(self
            .analysis(module, func)?
            .is_live_after_def(module.func(func), v)?)
    }

    /// Dense route for whole-function consumers: live-in/live-out bit
    /// rows for **all** `(value, block)` pairs of `func` in one matrix
    /// pass ([`FunctionLiveness::batch`]); built into value sets, it
    /// reads 10–42× cheaper than a scalar query per pair at 35–1,024
    /// blocks (`batch_speedup_vs_scalar` in `BENCH_query.json`). The
    /// snapshot reads the def-use chains at call time and goes stale on
    /// *any* later edit — re-request it after editing.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn batch(&mut self, module: &Module, func: FuncId) -> Result<BatchLiveness, AnalysisError> {
        Ok(self.analysis(module, func)?.batch(module.func(func)))
    }

    /// Exact revalidation: recomputes the function's [`CfgShape`] and,
    /// on any structural difference from the shape the resident
    /// artifacts were resolved under, re-resolves every resident kind
    /// through the engine (bumping the epoch once). Failed slots always
    /// re-resolve. Needed only after replacing a function wholesale;
    /// plain mutator-driven edits are caught by the per-query check.
    ///
    /// Returns `true` if anything was re-resolved; a function pushed
    /// onto the module since the session opened gets its entry here.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range for the module.
    pub fn revalidate(&mut self, module: &Module, func: FuncId) -> bool {
        let shape = CfgShape::of(module.func(func));
        self.grow_to(module, func);
        let entry = &mut self.entries[func];
        let stale = shape != entry.shape || entry.slots.iter().flatten().any(Result::is_err);
        if stale {
            self.reresolve(module, func, shape);
        } else {
            // Structurally unchanged: adopt the (possibly different)
            // version counter so later queries don't re-resolve for a
            // CFG that is provably the same.
            entry.cfg_version = module.func(func).cfg_version();
        }
        stale
    }

    /// Gives every function up to `func` an entry: functions pushed
    /// onto the module since the session opened get fresh, unresolved
    /// entries at epoch 0, so their first access resolves through the
    /// engine.
    fn grow_to(&mut self, module: &Module, func: FuncId) {
        if func >= self.entries.len() {
            let pushed = &module.functions()[self.entries.len()..];
            self.entries.extend(pushed.iter().map(|f| SessionEntry {
                shape: CfgShape::of(f),
                cfg_version: f.cfg_version(),
                epoch: 0,
                slots: Default::default(),
            }));
        }
    }

    /// Re-resolves `func`'s resident slots under `shape` through the
    /// engine (so a shape that round-trips to a known fingerprint is
    /// still cheap) and bumps its epoch once: every slot if the shape
    /// moved, else just the failed ones.
    fn reresolve(&mut self, module: &Module, func: FuncId, shape: CfgShape) {
        let (engine, entry) = (self.engine, &mut self.entries[func]);
        let moved = shape != entry.shape;
        entry.shape = shape;
        entry.cfg_version = module.func(func).cfg_version();
        for kind in AnalysisKind::ALL {
            if let Some(slot) = &mut entry.slots[kind as usize] {
                if moved || slot.is_err() {
                    *slot = engine.resolve_kind(&entry.shape, kind);
                }
            }
        }
        entry.epoch += 1;
        let recorder = engine.recorder();
        if recorder.enabled() {
            let detail = format!(
                "func={} epoch={} ok={}",
                module.func(func).name,
                entry.epoch,
                entry.slots.iter().flatten().all(Result::is_ok)
            );
            recorder.event(fastlive_telemetry::EventKind::SessionRevalidated, &detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use fastlive_ir::{parse_module, InstData, UnaryOp};

    fn looped_module() -> Module {
        parse_module(
            "function %jit { block0(v0):
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

    #[test]
    fn instruction_edits_keep_epoch_zero_and_answers_exact() {
        let mut module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let id = 0;
        let v0 = module.func(id).params()[0];
        let b2 = module.func(id).block_by_index(2);
        assert!(!session.is_live_in(&module, id, v0, b2).unwrap());
        let art = session.nullness(&module, id).unwrap();
        let stats = engine.cache_stats();

        // Sink a use of v0 and a fresh `iconst 0` into block2: same CFG,
        // new answers for both kinds, no epoch, no cache probe.
        let func = module.func_mut(id);
        func.insert_inst(
            b2,
            0,
            InstData::Unary {
                op: UnaryOp::Ineg,
                arg: v0,
            },
        );
        let null = func.insert_inst(b2, 0, InstData::IntConst { imm: 0 });
        let null = module.func(id).inst_result(null).unwrap();
        assert!(session.is_live_in(&module, id, v0, b2).unwrap());
        let again = session.nullness(&module, id).unwrap();
        assert!(Arc::ptr_eq(&art, &again));
        let facts = again.solve(module.func(id));
        assert_eq!(facts.of(null), fastlive_core::Nullness::Null);
        assert_eq!(facts, fresh_facts(module.func(id)));
        assert_eq!(engine.cache_stats(), stats);
        assert_eq!(session.epoch(id), 0);
        assert_eq!(session.recomputations(), 0);
    }

    #[test]
    fn cfg_edits_bump_the_epoch_and_recompute() {
        let mut module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let id = 0;
        let v0 = module.func(id).params()[0];
        session.nullness(&module, id).unwrap();

        // Split critical edges: adds blocks, i.e. a CFG change.
        let created = fastlive_ir::split_critical_edges(module.func_mut(id));
        assert!(!created.is_empty(), "the loop exit edge is critical");
        let b2 = module.func(id).block_by_index(2);
        let before = session.epoch(id);
        let answer = session.is_live_in(&module, id, v0, b2).unwrap();
        assert_eq!(session.epoch(id), before + 1, "CFG change must recompute");
        // The same bump re-resolved the resident nullness slot.
        let stats = engine.cache_stats();
        let art = session.nullness(&module, id).unwrap();
        assert_eq!(engine.cache_stats(), stats);
        assert_eq!(session.epoch(id), before + 1);
        // And the recomputed answers match from-scratch analyses.
        let func = module.func(id);
        let oracle = FunctionLiveness::compute(func);
        assert_eq!(answer, oracle.is_live_in(func, v0, b2));
        assert_eq!(art.solve(func), fresh_facts(func));
    }

    #[test]
    fn redirect_without_block_count_change_invalidates() {
        // Rewiring an edge keeps the block count — only the CFG-version
        // counter betrays the change. The session must recompute, not
        // serve stale answers.
        let mut module = parse_module(
            "function %f { block0(v0): jump block1 block1: jump block2 block2: return v0 }",
        )
        .expect("parses");
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let v0 = module.func(0).params()[0];
        let b1 = module.func(0).block_by_index(1);
        assert!(session.is_live_in(&module, 0, v0, b1).unwrap());

        // block0 now jumps straight to block2: block1 is unreachable.
        let func = module.func_mut(0);
        let jump = func.block_insts(func.entry_block())[0];
        let b2 = func.block_by_index(2);
        func.redirect_branch_target(jump, 0, b2, vec![]);

        assert!(
            !session.is_live_in(&module, 0, v0, b1).unwrap(),
            "stale answer after edge rewire"
        );
        assert_eq!(session.epoch(0), 1, "rewire must recompute");
        let oracle = FunctionLiveness::compute(module.func(0));
        for b in module.func(0).blocks() {
            assert_eq!(
                session.is_live_in(&module, 0, v0, b).unwrap(),
                oracle.is_live_in(module.func(0), v0, b)
            );
        }
    }

    #[test]
    fn revalidate_catches_same_block_count_replacement() {
        let mut module = parse_module("function %f { block0(v0): jump block1 block1: return v0 }")
            .expect("parses");
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let stale = session.nullness(&module, 0).unwrap();

        // Replace %f with a CFG-different function of the SAME block
        // count (self-loop instead of straight-line).
        let replacement = fastlive_ir::parse_function(
            "function %f { block0(v0): brif v0, block0, block1 block1: return v0 }",
        )
        .expect("parses");
        *module.func_mut(0) = replacement;
        assert!(session.revalidate(&module, 0), "shape changed");
        assert_eq!(session.epoch(0), 1);
        assert!(!session.revalidate(&module, 0), "now current");
        // The resident nullness slot was re-resolved with liveness.
        let stats = engine.cache_stats();
        let art = session.nullness(&module, 0).unwrap();
        assert_eq!(engine.cache_stats(), stats);
        assert!(!Arc::ptr_eq(&stale, &art));
        assert_eq!(art.solve(module.func(0)), fresh_facts(module.func(0)));

        let v0 = module.func(0).params()[0];
        let b0 = module.func(0).entry_block();
        let oracle = FunctionLiveness::compute(module.func(0));
        assert_eq!(
            session.is_live_out(&module, 0, v0, b0).unwrap(),
            oracle.is_live_out(module.func(0), v0, b0)
        );
    }

    #[test]
    fn recompile_with_identical_cfg_is_a_cache_hit() {
        let module = looped_module();
        let engine = AnalysisEngine::new(EngineConfig {
            threads: 1,
            cache_capacity: 8,
            ..EngineConfig::default()
        });
        let _first = engine.analyze(&module);
        assert_eq!(engine.cache_stats().misses, 1);

        // "Recompile": parse the same source again — fresh Function
        // objects, identical CFG. The second analysis never precomputes.
        let recompiled = parse_module(&module.to_string()).expect("round-trips");
        let mut session = engine.analyze(&recompiled);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "no new precomputation");
        assert_eq!(stats.hits, 1);

        let v0 = recompiled.func(0).params()[0];
        let b1 = recompiled.func(0).block_by_index(1);
        assert!(session.is_live_in(&recompiled, 0, v0, b1).unwrap());
    }

    #[test]
    fn point_queries_never_touch_cfg_version_or_epoch() {
        let mut module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let id = 0;
        let v4 = module.func(id).value("v4").unwrap();
        let version_before = module.func(id).cfg_version();

        // Sweep every point of every block: answers come back, nothing
        // recomputes, the CFG-version counter never moves — the
        // point-API invariant recorded in the ROADMAP.
        let blocks: Vec<_> = module.func(id).blocks().collect();
        for b in blocks {
            let points: Vec<_> = module.func(id).block_points(b).collect();
            for p in points {
                let ans = session.is_live_at(&module, id, v4, p).expect("def exists");
                let oracle = FunctionLiveness::compute(module.func(id));
                assert_eq!(ans, oracle.is_live_at(module.func(id), v4, p).unwrap());
            }
        }
        assert_eq!(module.func(id).cfg_version(), version_before);
        assert_eq!(session.epoch(id), 0);
        assert_eq!(session.recomputations(), 0);

        // Instruction-level edit: point answers track it with no
        // recomputation, exactly like block queries.
        let b2 = module.func(id).block_by_index(2);
        module.func_mut(id).insert_inst(
            b2,
            0,
            InstData::Unary {
                op: UnaryOp::Ineg,
                arg: v4,
            },
        );
        let entry_b2 = fastlive_ir::ProgramPoint::block_entry(b2);
        assert_eq!(session.is_live_at(&module, id, v4, entry_b2), Ok(true));
        assert_eq!(session.epoch(id), 0);
    }

    #[test]
    fn detached_definition_errors_through_the_session() {
        let mut module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let b0 = module.func(0).entry_block();
        let dead = module
            .func_mut(0)
            .insert_inst(b0, 0, InstData::IntConst { imm: 7 });
        let dv = module.func(0).inst_result(dead).unwrap();
        assert_eq!(session.is_live_after_def(&module, 0, dv), Ok(false));
        module.func_mut(0).remove_inst(dead);
        assert_eq!(
            session.is_live_after_def(&module, 0, dv),
            Err(AnalysisError::Point(
                fastlive_core::PointError::DefinitionRemoved(dv)
            ))
        );
    }

    #[test]
    fn nullness_rides_the_same_cache_without_duplicating_liveness() {
        let module = looped_module();
        let engine = AnalysisEngine::new(EngineConfig {
            threads: 1,
            cache_capacity: 8,
            ..EngineConfig::default()
        });
        let mut session = engine.analyze(&module);
        assert_eq!(engine.cache_len(), 1, "liveness artifact cached");

        // First nullness request is a second, independent cache entry
        // under the same fingerprint; repeats never reach the engine.
        let art = session.nullness(&module, 0).unwrap();
        assert_eq!(engine.cache_len(), 2, "one entry per (shape, analysis)");
        let stats = engine.cache_stats();
        let again = session.nullness(&module, 0).unwrap();
        assert!(
            Arc::ptr_eq(&art, &again),
            "second request shares the handle"
        );
        assert_eq!(engine.cache_stats(), stats, "a resident slot never probes");
        assert_eq!(
            session.epoch(0),
            0,
            "a first resolution is no recomputation"
        );
        assert_eq!(engine.cache_stats().misses, 2, "one per analysis kind");

        // And the artifact answers over the function's real body.
        let func = module.func(0);
        let facts = art.solve(func);
        let v1 = func.value("v1").unwrap();
        assert_eq!(facts.of(v1), fastlive_core::Nullness::Null, "iconst 0");
    }

    /// An engine whose cache outlives the tests' edits (no
    /// evictions), so a re-resolution of a known shape is a counted
    /// memory hit.
    fn cached_engine() -> AnalysisEngine {
        AnalysisEngine::new(EngineConfig {
            threads: 1,
            cache_capacity: 8,
            ..EngineConfig::default()
        })
    }

    /// A fresh nullness analysis of the function's current state.
    fn fresh_facts(func: &fastlive_ir::Function) -> fastlive_core::NullnessFacts {
        NullnessArtifact::compute(func).solve(func)
    }

    /// Engine probes so far: `(hits + misses + dedup hits, misses)`.
    fn probes(engine: &AnalysisEngine) -> (u64, u64) {
        let s = engine.cache_stats();
        (s.hits + s.misses + s.dedup_hits, s.misses)
    }

    /// The planner's prefetch asks the engine only for what the session
    /// lacks: on a fresh session liveness is resident everywhere, so a
    /// nullness batch over two functions probes for nullness alone. A
    /// function whose CFG was edited is still warmed for liveness, under
    /// its new shape, which its next access then finds in memory.
    #[test]
    fn prefetch_warms_only_what_the_session_lacks() {
        let mut module = parse_module(
            "function %a { block0(v0): brif v0, block1, block2
             block1: jump block2
             block2: return v0 }
             function %b { block0(v0): return v0 }",
        )
        .expect("parses");
        let engine = cached_engine();
        let mut session = engine.analyze(&module);
        let both = [
            (0, AnalysisKind::Liveness),
            (0, AnalysisKind::Nullness),
            (1, AnalysisKind::Liveness),
            (1, AnalysisKind::Nullness),
        ];
        let before = probes(&engine);
        session.prefetch(&module, &both);
        let after = probes(&engine);
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (2, 2),
            "two nullness computes, no liveness probe"
        );

        fastlive_ir::split_critical_edges(module.func_mut(0));
        let liveness = [(0, AnalysisKind::Liveness), (1, AnalysisKind::Liveness)];
        let before = probes(&engine);
        session.prefetch(&module, &liveness);
        let after = probes(&engine);
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (1, 1),
            "the edited function's new shape, and nothing else"
        );
        session.analysis(&module, 0).expect("answers");
        assert_eq!(probes(&engine), (after.0 + 1, after.1), "a memory hit");
        assert_eq!(session.epoch(0), 1);
        // Out-of-range requests are skipped, like the engine's own.
        session.prefetch(&module, &[(7, AnalysisKind::Liveness)]);
        assert_eq!(probes(&engine), (after.0 + 1, after.1));
    }

    #[test]
    fn a_liveness_only_load_never_resolves_nullness() {
        let mut module = looped_module();
        let engine = cached_engine();
        let mut session = engine.analyze(&module);
        let v4 = module.func(0).value("v4").unwrap();
        let b1 = module.func(0).block_by_index(1);
        session.is_live_in(&module, 0, v4, b1).unwrap();
        session.is_live_out(&module, 0, v4, b1).unwrap();
        session.is_live_after_def(&module, 0, v4).unwrap();
        session.batch(&module, 0).unwrap();
        fastlive_ir::split_critical_edges(module.func_mut(0));
        session.is_live_in(&module, 0, v4, b1).unwrap();
        assert!(!session.revalidate(&module, 0));
        assert_eq!(engine.cache_len(), 2, "one liveness entry per shape");
        session.nullness(&module, 0).unwrap();
        assert_eq!(engine.cache_len(), 3);
    }

    #[test]
    fn a_panicking_nullness_compute_fails_only_nullness_and_retries() {
        let module = looped_module();
        let engine = cached_engine();
        let mut session = engine.analyze(&module);
        engine.set_compute_fault(Some(Box::new(|_: &CfgShape| panic!("nullness dies"))));
        let v0 = module.func(0).params()[0];
        let b1 = module.func(0).block_by_index(1);
        assert!(matches!(
            session.nullness(&module, 0),
            Err(AnalysisError::ComputePanicked { .. })
        ));
        // Liveness keeps answering from its own resident slot.
        assert_eq!(session.is_live_in(&module, 0, v0, b1), Ok(true));
        assert!(
            session.nullness(&module, 0).is_err(),
            "retried, still faulty"
        );

        engine.set_compute_fault(None);
        let epoch = session.epoch(0);
        let art = session
            .nullness(&module, 0)
            .expect("the next request retries");
        assert_eq!(session.epoch(0), epoch + 1, "the retry is a recomputation");
        assert_eq!(art.solve(module.func(0)), fresh_facts(module.func(0)));
        assert_eq!(session.is_live_in(&module, 0, v0, b1), Ok(true));
    }

    /// The `edit` workload's sequence: a CFG edit, a wholesale restore
    /// of the older CFG answered by one `LiveIn`, then an instruction
    /// edit and a nullness batch — which must recompute nothing,
    /// because the restore re-resolved every resident kind at once.
    #[test]
    fn a_restored_cfg_then_an_instruction_edit_recomputes_nothing() {
        let mut module = looped_module();
        let pristine = module.func(0).clone();
        let engine = cached_engine();
        let mut session = engine.analyze(&module);
        session.nullness(&module, 0).unwrap();

        fastlive_ir::split_critical_edges(module.func_mut(0));
        session.analysis(&module, 0).unwrap();
        session.nullness(&module, 0).unwrap();

        *module.func_mut(0) = pristine;
        let v0 = module.func(0).params()[0];
        let b0 = module.func(0).entry_block();
        session.is_live_in(&module, 0, v0, b0).unwrap();
        let (recomputations, stats) = (session.recomputations(), engine.cache_stats());

        let b2 = module.func(0).block_by_index(2);
        module
            .func_mut(0)
            .insert_inst(b2, 0, InstData::IntConst { imm: 0 });
        let func = module.func(0);
        let art = session.nullness(&module, 0).unwrap();
        let facts = art.solve(func);
        for v in func.values() {
            for b in func.blocks() {
                art.definitely_initialized_at_entry(func, v, b);
            }
        }
        assert_eq!(session.recomputations(), recomputations);
        assert_eq!(engine.cache_stats(), stats);
        assert_eq!(facts, fresh_facts(func));
    }

    /// A function pushed after the session opened has an epoch (0) and
    /// revalidates before any query on it, and then answers.
    #[test]
    fn pushed_function_has_an_epoch_and_revalidates_before_any_query() {
        let mut module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let pushed = module.push(
            fastlive_ir::parse_function(
                "function %g { block0(v0): jump block1 block1: return v0 }",
            )
            .expect("parses"),
        );
        assert_eq!(session.epoch(pushed), 0);
        assert!(!session.revalidate(&module, pushed), "nothing resolved yet");
        assert_eq!(session.num_functions(), 2);
        assert_eq!(session.epoch(pushed), 0);
        let v0 = module.func(pushed).params()[0];
        let b1 = module.func(pushed).block_by_index(1);
        assert_eq!(session.is_live_in(&module, pushed, v0, b1), Ok(true));
        assert_eq!(session.epoch(pushed), 0);
    }

    #[test]
    fn batch_matches_scalar_session_queries() {
        let module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let batch = session.batch(&module, 0).unwrap();
        let func = module.func(0);
        for v in func.values() {
            for b in func.blocks() {
                assert_eq!(
                    batch.is_live_in(v.index() as u32, b.as_u32()),
                    session.is_live_in(&module, 0, v, b).unwrap(),
                    "{v} at {b}"
                );
            }
        }
    }
}
