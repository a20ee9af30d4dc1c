//! The [`QueryEngine`] trait and the [`Backend`] that implements it.
//!
//! One query plane, two executors behind the [`Backend`] enum:
//!
//! * [`Backend::Session`] — an [`EngineSession`] over the
//!   [`AnalysisEngine`](fastlive_engine::AnalysisEngine)'s two-tier
//!   fingerprint cache, revalidating against CFG edits per query. The
//!   default: this is the production path. The paper's precomputation
//!   depends only on the CFG, so an engine built with
//!   `cache_capacity(0)` is the per-function checker computed on
//!   demand — the differential suites run it as their cache-less arm.
//! * [`Backend::Oracle`] — the iterative data-flow solver
//!   ([`IterativeLiveness`]), recomputed from scratch on every query.
//!   Slow and stateless by design: its answers are the referee the
//!   differential suites hold the session against.
//!
//! Both answer byte-identical [`Response`]s for any [`Query`]
//! (`tests/facade_oracle.rs` enforces it over reducible, irreducible
//! and deep-live workloads, cached and cache-less); they differ only in
//! cost model.

use std::sync::Arc;

use fastlive_cfg::{DfsTree, DomTree};
use fastlive_core::{
    BatchLiveness, FunctionLiveness, LivenessProvider, Nullness, NullnessArtifact, NullnessFacts,
    PointError,
};
use fastlive_dataflow::{IterativeLiveness, IterativeNullness, VarUniverse};
use fastlive_destruct::{values_interfere, CheckerEngine};
use fastlive_engine::{AnalysisKind, EngineSession};
use fastlive_ir::{Block, FuncId, Function, Module, ProgramPoint, Value};
use fastlive_telemetry::NoopRecorder;

use crate::plan::{run_planned, scalar_query};
use crate::query::{LiveSets, Query, QueryError, Response};

/// A liveness query executor: one [`Query`] in, one [`Response`] out,
/// batches via [`run_queries`](Self::run_queries).
///
/// Implementations must agree on semantics (Definitions 1–3 of the
/// paper, φ-uses attributed to predecessor blocks) — swapping backends
/// changes performance, never answers.
pub trait QueryEngine {
    /// Answers one query against the module's current state.
    fn query(&mut self, module: &Module, query: &Query) -> Result<Response, QueryError>;

    /// Answers a batch of queries, in input order. The default is a
    /// scalar loop; [`Backend`] overrides it with a plan-and-run
    /// execution that groups queries per function, resolves each
    /// function's uses once, and serves grouped `LiveIn`/`LiveOut`
    /// probes from [`BatchLiveness`] rows.
    fn run_queries(
        &mut self,
        module: &Module,
        queries: &[Query],
    ) -> Vec<Result<Response, QueryError>> {
        queries.iter().map(|q| self.query(module, q)).collect()
    }

    /// Short backend name for reports.
    fn backend_name(&self) -> &'static str;
}

/// Which backend a [`Fastlive`](crate::Fastlive) session runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Engine-cached, revalidating ([`Backend::Session`]) — the
    /// default.
    #[default]
    Session,
    /// Iterative dataflow, for differential testing
    /// ([`Backend::Oracle`]).
    Oracle,
}

/// The two executors behind one type — what
/// [`Fastlive::session`](crate::Fastlive::session) hands out (wrapped
/// in a [`FastliveSession`](crate::FastliveSession)).
pub enum Backend<'e> {
    /// Engine session: queries ride the fingerprint cache, the
    /// persistence tier and the per-query CFG revalidation.
    Session(EngineSession<'e>),
    /// Iterative-dataflow oracle: recomputes the classic bit-vector
    /// fixpoint for the addressed function on **every** query.
    Oracle,
}

/// One resolved function's analysis state for the duration of a query
/// (or of a whole per-function query group, under the planner): the
/// backend-specific engine plus a lazily computed dominator tree for
/// interference tests.
pub(crate) struct FuncAnalysis {
    kind: LivenessState,
    dom: Option<DomTree>,
}

/// How one resolved function's *liveness* is served. (This used to be
/// named `AnalysisKind`, which now names the engine's analysis-id enum
/// — the facade state is per-backend, the engine enum is per-analysis.)
enum LivenessState {
    /// A cache-shared checker (session backend).
    Shared(Arc<FunctionLiveness>),
    /// The data-flow oracle's solved sets.
    Iterative(IterativeLiveness),
}

/// How one resolved function's *nullness* is served: the exact sparse
/// path (shape-level artifact + solved per-value facts) or the dense
/// iterative referee. Both answer identically — `tests/facade_oracle.rs`
/// and the fuzz campaign's query mix enforce it.
pub(crate) enum NullnessState {
    /// Dominance artifact, shared through the engine cache, plus the
    /// sparse solve over the function's current body (session backend).
    Exact {
        art: Arc<NullnessArtifact>,
        facts: NullnessFacts,
    },
    /// The chaotic-iteration referee (oracle backend).
    Oracle(IterativeNullness),
}

impl NullnessState {
    pub(crate) fn fact(&self, v: Value) -> Nullness {
        match self {
            NullnessState::Exact { facts, .. } => facts.of(v),
            NullnessState::Oracle(it) => it.fact(v),
        }
    }

    pub(crate) fn definitely_init(&self, func: &Function, v: Value, q: Block) -> bool {
        match self {
            NullnessState::Exact { art, .. } => art.definitely_initialized_at_entry(func, v, q),
            NullnessState::Oracle(it) => it.definitely_initialized_at_entry(v, q),
        }
    }
}

impl FuncAnalysis {
    pub(crate) fn live_in(&self, func: &Function, v: Value, b: Block) -> bool {
        match &self.kind {
            LivenessState::Shared(c) => c.is_live_in(func, v, b),
            LivenessState::Iterative(it) => it.is_live_in(v, b),
        }
    }

    pub(crate) fn live_out(&self, func: &Function, v: Value, b: Block) -> bool {
        match &self.kind {
            LivenessState::Shared(c) => c.is_live_out(func, v, b),
            LivenessState::Iterative(it) => it.is_live_out(v, b),
        }
    }

    pub(crate) fn live_at(
        &mut self,
        func: &Function,
        v: Value,
        p: ProgramPoint,
    ) -> Result<bool, PointError> {
        match &mut self.kind {
            LivenessState::Shared(c) => c.is_live_at(func, v, p),
            LivenessState::Iterative(it) => LivenessProvider::live_at(it, func, v, p),
        }
    }

    pub(crate) fn live_sets(&self, func: &Function) -> LiveSets {
        match &self.kind {
            LivenessState::Shared(c) => {
                let (live_in, live_out) = c.live_sets(func);
                LiveSets { live_in, live_out }
            }
            LivenessState::Iterative(it) => LiveSets {
                live_in: func.blocks().map(|b| it.live_in_set(b)).collect(),
                live_out: func.blocks().map(|b| it.live_out_set(b)).collect(),
            },
        }
    }

    /// The dense row snapshot the planner serves grouped `LiveIn` /
    /// `LiveOut` probes from. `None` for the oracle — its block
    /// queries are already O(1) probes into the solved sets.
    pub(crate) fn batch(&self, func: &Function) -> Option<BatchLiveness> {
        match &self.kind {
            LivenessState::Shared(c) => Some(c.batch(func)),
            LivenessState::Iterative(_) => None,
        }
    }

    pub(crate) fn interfere(
        &mut self,
        func: &Function,
        a: Value,
        b: Value,
    ) -> Result<bool, PointError> {
        let dom = self.dom.get_or_insert_with(|| {
            let dfs = DfsTree::compute(func);
            DomTree::compute(func, &dfs)
        });
        match &mut self.kind {
            LivenessState::Shared(arc) => {
                let mut engine = CheckerEngine::from_shared(Arc::clone(arc));
                values_interfere(&mut engine, func, dom, a, b)
            }
            LivenessState::Iterative(it) => values_interfere(it, func, dom, a, b),
        }
    }
}

/// The hooks the scalar executor and the planner share.
impl Backend<'_> {
    /// The analysis state for one resolved function. Fallible because
    /// the session's analysis may itself have failed (a panicked
    /// precomputation under fault injection) — that failure becomes a
    /// per-query [`QueryError::AnalysisFailed`], never a crash.
    pub(crate) fn analysis_for(
        &mut self,
        module: &Module,
        id: FuncId,
    ) -> Result<FuncAnalysis, QueryError> {
        let kind = match self {
            Backend::Session(session) => LivenessState::Shared(session.analysis(module, id)?),
            Backend::Oracle => {
                let func = module.func(id);
                LivenessState::Iterative(IterativeLiveness::compute(func, &VarUniverse::all(func)))
            }
        };
        Ok(FuncAnalysis { kind, dom: None })
    }

    /// The nullness state for one resolved function — only called for
    /// groups that actually carry nullness queries, so liveness-only
    /// batches never pay for the second analysis.
    pub(crate) fn nullness_for(
        &mut self,
        module: &Module,
        id: FuncId,
    ) -> Result<NullnessState, QueryError> {
        let func = module.func(id);
        Ok(match self {
            Backend::Session(session) => {
                let art = session.nullness(module, id)?;
                let facts = art.solve(func);
                NullnessState::Exact { art, facts }
            }
            Backend::Oracle => NullnessState::Oracle(IterativeNullness::compute(func)),
        })
    }

    /// Advisory cache warm-up for a cross-function batch: the session
    /// threads the `(function, analysis)` pairs through the engine's
    /// worker pool before the planner's sequential group loop; the
    /// oracle computes per group anyway.
    pub(crate) fn prefetch(&mut self, module: &Module, requests: &[(FuncId, AnalysisKind)]) {
        if let Backend::Session(session) = self {
            session.engine().prefetch(module, requests);
        }
    }
}

impl QueryEngine for Backend<'_> {
    fn query(&mut self, module: &Module, query: &Query) -> Result<Response, QueryError> {
        scalar_query(self, module, query)
    }

    fn run_queries(
        &mut self,
        module: &Module,
        queries: &[Query],
    ) -> Vec<Result<Response, QueryError>> {
        // The raw trait path is statically uninstrumented:
        // `NoopRecorder::enabled()` is `false` by construction, so the
        // planner reads no clock here. Metered batches go through
        // `FastliveSession::run_queries` instead.
        run_planned(self, module, queries, &NoopRecorder)
    }

    fn backend_name(&self) -> &'static str {
        match self {
            Backend::Session(_) => "session",
            Backend::Oracle => "oracle",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_engine::AnalysisEngine;

    fn sample() -> Module {
        fastlive_ir::parse_module(
            "function %f { block0(v0):
                 v1 = iconst 1
                 brif v0, block1(v1), block2
             block1(v2):
                 jump block2
             block2:
                 return v0 }",
        )
        .expect("parses")
    }

    fn analyses(module: &Module) -> Vec<(&'static str, FuncAnalysis)> {
        let engine = AnalysisEngine::with_defaults();
        let mut session = Backend::Session(engine.analyze(module));
        vec![
            ("session", session.analysis_for(module, 0).unwrap()),
            ("oracle", Backend::Oracle.analysis_for(module, 0).unwrap()),
        ]
    }

    /// The converted `expect("checker-backed")` family: every
    /// `LivenessState` answers every probe kind — the matches are total
    /// by construction, and the answers agree across states.
    #[test]
    fn every_analysis_kind_answers_every_probe() {
        let module = sample();
        let func = module.func(0);
        let v0 = func.value("v0").unwrap();
        let v1 = func.value("v1").unwrap();
        let b1 = func.block("block1").unwrap();
        let mut seen_live_in = Vec::new();
        let mut seen_sets = Vec::new();
        for (name, mut a) in analyses(&module) {
            seen_live_in.push((name, a.live_in(func, v0, b1)));
            assert!(!a.live_out(func, v1, b1), "{name}");
            let sets = a.live_sets(func);
            assert_eq!(sets.live_in.len(), func.num_blocks(), "{name}");
            seen_sets.push(sets);
            // The converted `expect("just computed")` path: the lazily
            // built dominator tree is reused across interfere calls.
            let first = a.interfere(func, v0, v1).unwrap();
            let again = a.interfere(func, v0, v1).unwrap();
            assert_eq!(first, again, "{name}");
        }
        assert!(seen_live_in.iter().all(|&(_, ans)| ans), "{seen_live_in:?}");
        assert_eq!(seen_sets[0], seen_sets[1], "kinds disagree on live_sets");
    }

    /// The oracle state reports no batch snapshot (its probes are O(1)
    /// already); the checker state produces one. Neither path panics.
    #[test]
    fn batch_snapshots_match_kind() {
        let module = sample();
        let func = module.func(0);
        let mut it = analyses(&module).into_iter();
        let (_, session) = it.next().unwrap();
        let (_, oracle) = it.next().unwrap();
        assert!(session.batch(func).is_some());
        assert!(oracle.batch(func).is_none());
    }
}
