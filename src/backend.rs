//! The [`QueryEngine`] trait and the [`Backend`] that implements it.
//!
//! One query plane, two executors behind the [`Backend`] enum:
//!
//! * [`Backend::Session`] — an [`EngineSession`] over the
//!   [`AnalysisEngine`](fastlive_engine::AnalysisEngine)'s two-tier
//!   fingerprint cache: one entry per function serves every analysis
//!   kind, revalidating against CFG edits per query. The default: this
//!   is the production path. The paper's precomputation depends only
//!   on the CFG, so an engine built with `cache_capacity(0)` is the
//!   per-function checker computed on demand — the differential suites
//!   run it as their cache-less arm.
//! * [`Backend::Oracle`] — the iterative data-flow solvers
//!   ([`IterativeLiveness`], [`IterativeNullness`]), recomputed from
//!   scratch on every query. Slow and stateless by design: their
//!   answers are the referee the differential suites hold the session
//!   against.
//!
//! One resolver serves both executors: the scalar path and the planner
//! turn a function into one per-function state with a session arm and
//! an oracle arm, resolving nullness only for queries (or a batch's
//! functions) that ask for it. Both backends answer byte-identical
//! [`Response`]s for any [`Query`] (`tests/facade_oracle.rs` enforces
//! it over reducible, irreducible and deep-live workloads, cached and
//! cache-less); they differ only in cost model.

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

    /// Answers a batch of queries: one result per query, in input
    /// order. The default is a scalar loop; [`Backend`] overrides it
    /// with the planner, which resolves each function once and serves
    /// its block probes and `LiveSets` from one [`BatchLiveness`] row
    /// pass when they pay for it.
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

/// One resolved function's state for the duration of a query (or,
/// under the planner, from the function's first query in a batch to its
/// last): the backend's liveness, its nullness when the query or the
/// function's queries ask for it, and a lazily built dominator tree for
/// interference tests. Both arms answer identically —
/// `tests/facade_oracle.rs` and the fuzz campaign enforce it.
pub(crate) enum FuncState {
    /// The session's cache-shared artifacts. Nullness carries the
    /// sparse solve over the function's current body, or the error its
    /// resolution ended in — which fails only nullness-family queries.
    Session {
        live: Arc<FunctionLiveness>,
        nullness: Option<Result<(NullnessFacts, Arc<NullnessArtifact>), QueryError>>,
        dom: Option<DomTree>,
    },
    /// The oracle's data-flow solutions.
    Oracle {
        live: IterativeLiveness,
        nullness: Option<Result<IterativeNullness, QueryError>>,
        dom: Option<DomTree>,
    },
}

impl FuncState {
    pub(crate) fn live_in(&self, func: &Function, v: Value, b: Block) -> bool {
        match self {
            FuncState::Session { live, .. } => live.is_live_in(func, v, b),
            FuncState::Oracle { live, .. } => live.is_live_in(v, b),
        }
    }

    pub(crate) fn live_out(&self, func: &Function, v: Value, b: Block) -> bool {
        match self {
            FuncState::Session { live, .. } => live.is_live_out(func, v, b),
            FuncState::Oracle { live, .. } => live.is_live_out(v, b),
        }
    }

    pub(crate) fn live_at(
        &mut self,
        func: &Function,
        v: Value,
        p: ProgramPoint,
    ) -> Result<bool, PointError> {
        match self {
            FuncState::Session { live, .. } => live.is_live_at(func, v, p),
            FuncState::Oracle { live, .. } => LivenessProvider::live_at(live, func, v, p),
        }
    }

    pub(crate) fn live_sets(&self, func: &Function) -> LiveSets {
        match self {
            FuncState::Session { live, .. } => {
                let (live_in, live_out) = live.live_sets(func);
                LiveSets { live_in, live_out }
            }
            FuncState::Oracle { live, .. } => LiveSets {
                live_in: func.blocks().map(|b| live.live_in_set(b)).collect(),
                live_out: func.blocks().map(|b| live.live_out_set(b)).collect(),
            },
        }
    }

    /// The dense row snapshot the planner serves a function's `LiveIn`
    /// / `LiveOut` probes and `LiveSets` from. `None` for the oracle —
    /// its block queries are already O(1) probes into the solved sets.
    pub(crate) fn batch(&self, func: &Function) -> Option<BatchLiveness> {
        match self {
            FuncState::Session { live, .. } => Some(live.batch(func)),
            FuncState::Oracle { .. } => None,
        }
    }

    pub(crate) fn interfere(
        &mut self,
        func: &Function,
        a: Value,
        b: Value,
    ) -> Result<bool, PointError> {
        let build = || DomTree::compute(func, &DfsTree::compute(func));
        match self {
            FuncState::Session { live, dom, .. } => {
                let mut engine = CheckerEngine::from_shared(Arc::clone(live));
                values_interfere(&mut engine, func, dom.get_or_insert_with(build), a, b)
            }
            FuncState::Oracle { live, dom, .. } => {
                values_interfere(live, func, dom.get_or_insert_with(build), a, b)
            }
        }
    }

    pub(crate) fn nullness(&self, v: Value) -> Result<Nullness, QueryError> {
        Ok(match self {
            FuncState::Session { nullness, .. } => resolved(nullness, "nullness")?.0.of(v),
            FuncState::Oracle { nullness, .. } => resolved(nullness, "nullness")?.fact(v),
        })
    }

    pub(crate) fn definitely_init(
        &self,
        func: &Function,
        v: Value,
        q: Block,
    ) -> Result<bool, QueryError> {
        Ok(match self {
            FuncState::Session { nullness, .. } => {
                let (_, art) = resolved(nullness, "definite-init")?;
                art.definitely_initialized_at_entry(func, v, q)
            }
            FuncState::Oracle { nullness, .. } => {
                resolved(nullness, "definite-init")?.definitely_initialized_at_entry(v, q)
            }
        })
    }
}

/// The nullness a state carries for a nullness-family query: its
/// resolution error, or — for a state resolved without nullness — a
/// planner bookkeeping slip, reported per query like any other internal
/// error.
fn resolved<'a, T>(
    nullness: &'a Option<Result<T, QueryError>>,
    query: &str,
) -> Result<&'a T, QueryError> {
    match nullness {
        Some(n) => n.as_ref().map_err(Clone::clone),
        None => Err(QueryError::Internal {
            detail: format!("{query} query reached answer() without a nullness state"),
        }),
    }
}

/// The hooks the scalar executor and the planner share.
impl Backend<'_> {
    /// The state for one resolved function, with nullness only when
    /// `with_nullness` — so liveness-only queries and functions never
    /// pay for the second analysis. Fallible because the session's liveness
    /// may itself have failed (a panicked precomputation under fault
    /// injection) — that failure becomes a per-query
    /// [`QueryError::AnalysisFailed`], never a crash.
    pub(crate) fn resolve(
        &mut self,
        module: &Module,
        id: FuncId,
        with_nullness: bool,
    ) -> Result<FuncState, QueryError> {
        let func = module.func(id);
        Ok(match self {
            Backend::Session(session) => FuncState::Session {
                live: session.analysis(module, id)?,
                nullness: with_nullness.then(|| {
                    let art = session.nullness(module, id)?;
                    Ok((art.solve(func), art))
                }),
                dom: None,
            },
            Backend::Oracle => FuncState::Oracle {
                live: IterativeLiveness::compute(func, &VarUniverse::all(func)),
                nullness: with_nullness.then(|| Ok(IterativeNullness::compute(func))),
                dom: None,
            },
        })
    }

    /// Advisory cache warm-up for a cross-function batch: the session
    /// threads the `(function, analysis)` pairs it lacks through the
    /// engine's worker pool before the planner's sequential answer
    /// loop; the oracle computes per function anyway.
    pub(crate) fn prefetch(&mut self, module: &Module, requests: &[(FuncId, AnalysisKind)]) {
        if let Backend::Session(session) = self {
            session.prefetch(module, requests);
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

    fn states(module: &Module) -> Vec<(&'static str, FuncState)> {
        let engine = AnalysisEngine::with_defaults();
        let mut session = Backend::Session(engine.analyze(module));
        vec![
            ("session", session.resolve(module, 0, true).unwrap()),
            ("oracle", Backend::Oracle.resolve(module, 0, true).unwrap()),
        ]
    }

    /// The converted `expect("checker-backed")` family: both state arms
    /// answer every probe kind — the matches are total by
    /// construction, and the answers agree across arms.
    #[test]
    fn every_analysis_kind_answers_every_probe() {
        let module = sample();
        let func = module.func(0);
        let v0 = func.value("v0").unwrap();
        let v1 = func.value("v1").unwrap();
        let b1 = func.block("block1").unwrap();
        let mut seen_live_in = Vec::new();
        let mut seen_sets = Vec::new();
        let mut seen_nullness = Vec::new();
        for (name, mut a) in states(&module) {
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
            seen_nullness.push((a.nullness(v1), a.definitely_init(func, v1, b1)));
        }
        assert!(seen_live_in.iter().all(|&(_, ans)| ans), "{seen_live_in:?}");
        assert_eq!(seen_sets[0], seen_sets[1], "arms disagree on live_sets");
        assert_eq!(
            seen_nullness[0], seen_nullness[1],
            "arms disagree on nullness"
        );
        assert_eq!(seen_nullness[0], (Ok(Nullness::NonNull), Ok(true)));
    }

    /// Liveness-only resolution never touches the second analysis, and
    /// the resulting state refuses nullness-family probes with a typed
    /// error instead of panicking.
    #[test]
    fn liveness_only_states_refuse_nullness_probes() {
        let module = sample();
        let func = module.func(0);
        let v1 = func.value("v1").unwrap();
        let engine = AnalysisEngine::with_defaults();
        let session = Backend::Session(engine.analyze(&module));
        for mut backend in [session, Backend::Oracle] {
            let state = backend.resolve(&module, 0, false).unwrap();
            assert!(matches!(
                state.nullness(v1),
                Err(QueryError::Internal { .. })
            ));
            let init = state.definitely_init(func, v1, func.entry_block());
            assert!(matches!(init, Err(QueryError::Internal { .. })));
        }
        assert_eq!(engine.cache_len(), 1, "no nullness artifact was resolved");
    }

    /// The oracle state reports no batch snapshot (its probes are O(1)
    /// already); the checker state produces one. Neither path panics.
    #[test]
    fn batch_snapshots_match_kind() {
        let module = sample();
        let func = module.func(0);
        let mut it = states(&module).into_iter();
        let (_, session) = it.next().unwrap();
        let (_, oracle) = it.next().unwrap();
        assert!(session.batch(func).is_some());
        assert!(oracle.batch(func).is_none());
    }
}
