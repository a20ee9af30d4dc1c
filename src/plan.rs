//! Plan-and-run batch execution: the shared executors behind
//! [`QueryEngine::query`](crate::QueryEngine::query) and
//! [`QueryEngine::run_queries`](crate::QueryEngine::run_queries).
//!
//! The scalar path answers one query from a freshly obtained
//! per-function analysis. The planner answers a batch in input order,
//! obtaining each touched function's analysis **once**: a counting pass
//! records what each function needs (block probes, `LiveSets` queries,
//! nullness), the session prefetches what it lacks, then each query is
//! answered from its function's state — resolved at the function's
//! first query, dropped after its last. A batch sorted by function holds
//! one state at a time; an interleaved batch, one per function with
//! queries still pending. A function with enough block probes also gets
//! one [`BatchLiveness`] row snapshot, so they become O(1) bit reads
//! instead of candidate scans (`BENCH_facade.json` records the ratio).
//!
//! Planning never changes answers: the module is immutable for the
//! call, and the row snapshot is bit-for-bit equivalent to the scalar
//! queries (`batch_oracle` and `tests/facade_oracle.rs` pin both).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::iter;

use fastlive_core::BatchLiveness;
use fastlive_engine::AnalysisKind;
use fastlive_ir::{FuncId, Function, Module, Value};
use fastlive_telemetry::{QueryClass, Recorder};

use crate::backend::{Backend, FuncState};
use crate::query::{
    resolve_block, resolve_func, resolve_point, resolve_value, FuncRef, LiveSets, Query,
    QueryError, Response,
};

/// Should a function with `block_probes` `LiveIn`/`LiveOut` queries in
/// the batch materialize batch rows? The matrix pass costs
/// `O((E + Σ|T_q|) · V/64)`, one scalar probe a candidate scan plus a
/// def-use walk: about half a probe per block, and at least two, keeps
/// tiny batches on the scalar path without giving up the asymptotic
/// win (the break-even per shape is measured in `BENCH_query.json`).
fn batch_pays_off(func: &Function, block_probes: usize) -> bool {
    block_probes >= 2.max(func.num_blocks() / 2)
}

/// Resolve-and-answer for one query, given the function's state and
/// (optionally) a pre-materialized batch snapshot for block probes and
/// `LiveSets`.
fn answer(
    state: &mut FuncState,
    batch: Option<&BatchLiveness>,
    func: &Function,
    query: &Query,
) -> Result<Response, QueryError> {
    match query {
        Query::LiveIn { value, block, .. } | Query::LiveOut { value, block, .. } => {
            let (v, b) = (resolve_value(func, value)?, resolve_block(func, block)?);
            let out = matches!(query, Query::LiveOut { .. });
            Ok(Response::Live(match batch {
                Some(rows) if out => rows.is_live_out(v.index() as u32, b.as_u32()),
                Some(rows) => rows.is_live_in(v.index() as u32, b.as_u32()),
                None if out => state.live_out(func, v, b),
                None => state.live_in(func, v, b),
            }))
        }
        Query::LiveAt { value, point, .. } => {
            let v = resolve_value(func, value)?;
            let p = resolve_point(func, point)?;
            Ok(Response::Live(state.live_at(func, v, p)?))
        }
        Query::LiveSets { .. } => Ok(Response::Sets(match batch {
            // The snapshot already holds every row: extract the sets
            // from it instead of paying another matrix pass (the same
            // extraction as `FunctionLiveness::live_sets`).
            Some(rows) => {
                let (live_in, live_out) = rows.sets(|var| Value::from_index(var as usize));
                LiveSets { live_in, live_out }
            }
            None => state.live_sets(func),
        })),
        Query::Interfere { a, b, .. } => {
            let va = resolve_value(func, a)?;
            let vb = resolve_value(func, b)?;
            Ok(Response::Interference(state.interfere(func, va, vb)?))
        }
        Query::Nullness { value, .. } => {
            let v = resolve_value(func, value)?;
            Ok(Response::Nullness(state.nullness(v)?))
        }
        Query::DefiniteInit { value, block, .. } => {
            let v = resolve_value(func, value)?;
            let b = resolve_block(func, block)?;
            Ok(Response::Init(state.definitely_init(func, v, b)?))
        }
    }
}

/// The telemetry label of a query kind — the per-class index the
/// facade's latency histograms are keyed by.
pub(crate) fn class_of(query: &Query) -> QueryClass {
    match query {
        Query::LiveIn { .. } => QueryClass::LiveIn,
        Query::LiveOut { .. } => QueryClass::LiveOut,
        Query::LiveAt { .. } => QueryClass::LiveAt,
        Query::LiveSets { .. } => QueryClass::LiveSets,
        Query::Interfere { .. } => QueryClass::Interfere,
        Query::Nullness { .. } => QueryClass::Nullness,
        Query::DefiniteInit { .. } => QueryClass::DefiniteInit,
    }
}

/// One query, straight through: resolve the function, obtain its
/// state, answer.
pub(crate) fn scalar_query(
    backend: &mut Backend<'_>,
    module: &Module,
    query: &Query,
) -> Result<Response, QueryError> {
    let id = resolve_func(module, query.func())?;
    let nullness = matches!(query, Query::Nullness { .. } | Query::DefiniteInit { .. });
    let mut state = backend.resolve(module, id, nullness)?;
    answer(&mut state, None, module.func(id), query)
}

/// One function the batch touches: what its queries need, counted up
/// front, and its state from its first query to its last.
#[derive(Default)]
struct Touched {
    id: FuncId,
    /// Queries of this function not yet answered; the state is dropped
    /// when this reaches zero.
    pending: usize,
    block_probes: usize,
    sets_queries: usize,
    nullness: bool,
    /// The analyses and optional row snapshot, or the error that fails
    /// every query.
    state: Option<Result<(FuncState, Option<BatchLiveness>), QueryError>>,
}

/// A multiplicative hasher for the touched-function index (keys: ids
/// already checked against the module), consulted once per run of
/// same-function queries in each pass, where SipHash would cost more
/// than a block probe from rows. `finish` rotates the well-mixed high
/// bits down, so ids a power of two apart do not share a bucket.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_usize(b.into()));
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The batch's touched functions in first-appearance order, compactly
/// indexed: a map from function id to slot, consulted once per run of
/// consecutive queries on one function.
#[derive(Default)]
struct TouchedSet {
    slots: Vec<Touched>,
    index: HashMap<FuncId, usize, BuildHasherDefault<IdHasher>>,
}

impl TouchedSet {
    /// The slot of the function `r` names, registered on first sight;
    /// an unresolvable reference is the query's own error.
    fn slot_of(&mut self, module: &Module, r: &FuncRef) -> Result<usize, QueryError> {
        let id = resolve_func(module, r)?;
        let slots = &mut self.slots;
        Ok(*self.index.entry(id).or_insert_with(|| {
            slots.push(Touched {
                id,
                ..Touched::default()
            });
            slots.len() - 1
        }))
    }
}

/// The planned batch executor. Results come back in input order, each
/// answered from its function's state — resolved at the function's
/// first query, with row snapshots for functions whose block probes
/// pay for them, and dropped after its last; per-query failures are
/// per-slot `Err`s, never a failure of the whole batch.
///
/// `recorder` observes what the plan *did* — batch size, how many
/// touched functions took the grouped (batch-row) vs the scalar path,
/// and the whole-batch latency. With a disabled recorder (the
/// trait-path default) not even a clock is read; answers never depend
/// on it.
pub(crate) fn run_planned(
    backend: &mut Backend<'_>,
    module: &Module,
    queries: &[Query],
    recorder: &dyn Recorder,
) -> Vec<Result<Response, QueryError>> {
    let t0 = recorder.enabled().then(std::time::Instant::now);
    // Counting pass: what each touched function needs, one run of
    // consecutive same-function queries at a time. Unresolvable
    // functions are skipped here and fail in place below, without
    // costing any analysis.
    let runs = || queries.chunk_by(|a, b| a.func() == b.func());
    let mut touched = TouchedSet::default();
    for run in runs() {
        let Ok(k) = touched.slot_of(module, run[0].func()) else {
            continue;
        };
        let t = &mut touched.slots[k];
        t.pending += run.len();
        for query in run {
            match query {
                Query::LiveIn { .. } | Query::LiveOut { .. } => t.block_probes += 1,
                Query::LiveSets { .. } => t.sets_queries += 1,
                Query::Nullness { .. } | Query::DefiniteInit { .. } => t.nullness = true,
                Query::LiveAt { .. } | Query::Interfere { .. } => {}
            }
        }
    }

    // Cross-function batches warm the cache through the backend's
    // worker pool before the sequential answer loop, for the analyses
    // the session lacks, so each function's first query hits memory. A
    // single-function batch gains nothing — its first query would do
    // the same work with no parallelism to exploit.
    if touched.slots.len() >= 2 {
        let mut requests = Vec::with_capacity(touched.slots.len());
        for t in &touched.slots {
            requests.push((t.id, AnalysisKind::Liveness));
            if t.nullness {
                requests.push((t.id, AnalysisKind::Nullness));
            }
        }
        backend.prefetch(module, &requests);
    }

    let (mut grouped, mut scalar) = (0u64, 0u64);
    let mut results = Vec::with_capacity(queries.len());
    for run in runs() {
        let k = match touched.slot_of(module, run[0].func()) {
            Ok(k) => k,
            Err(e) => {
                results.extend(iter::repeat_n(Err(e), run.len()));
                continue;
            }
        };
        let t = &mut touched.slots[k];
        let func = module.func(t.id);
        // One row pass amortized over the function's block probes, or
        // over repeated `LiveSets` (session only: the oracle's `batch()`
        // is `None`, so it counts as scalar). A failed liveness fails
        // every query of the function; a failed nullness, just its
        // nullness-family queries.
        let wants_rows = batch_pays_off(func, t.block_probes) || t.sets_queries >= 2;
        let (id, nullness) = (t.id, t.nullness);
        let resolved = t.state.get_or_insert_with(|| {
            let state = backend.resolve(module, id, nullness)?;
            let rows = if wants_rows { state.batch(func) } else { None };
            if rows.is_some() {
                grouped += 1;
            } else {
                scalar += 1;
            }
            Ok((state, rows))
        });
        match resolved {
            Ok((state, rows)) => {
                results.extend(run.iter().map(|q| answer(state, rows.as_ref(), func, q)))
            }
            Err(e) => results.extend(iter::repeat_n(Err(e.clone()), run.len())),
        }
        t.pending -= run.len();
        if t.pending == 0 {
            t.state = None;
        }
    }

    if let Some(t0) = t0 {
        recorder.plan(
            queries.len() as u64,
            grouped,
            scalar,
            t0.elapsed().as_nanos() as u64,
        );
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_engine::AnalysisEngine;

    /// The one `Internal` path the planner keeps: a nullness-family
    /// query that reaches `answer` with a state resolved without
    /// nullness is a typed per-query error, not a panic. The counting
    /// pass makes it unreachable from `run_planned`; `answer` still
    /// refuses it on both arms.
    #[test]
    fn nullness_query_on_a_liveness_only_state_is_an_internal_error() {
        let module = fastlive_ir::parse_module(
            "function %f { block0(v0):
                 v1 = iconst 0
                 return v1 }",
        )
        .expect("parses");
        let func = module.func(0);
        let engine = AnalysisEngine::with_defaults();
        for mut backend in [Backend::Session(engine.analyze(&module)), Backend::Oracle] {
            let mut state = backend.resolve(&module, 0, false).expect("resolves");
            for query in [
                Query::nullness(0, "v1"),
                Query::definitely_init(0, "v1", "block0"),
            ] {
                match answer(&mut state, None, func, &query) {
                    Err(QueryError::Internal { detail }) => {
                        assert!(detail.contains("without a nullness state"), "{detail}")
                    }
                    other => panic!("expected an Internal error, got {other:?}"),
                }
            }
            let live = answer(&mut state, None, func, &Query::live_out(0, "v0", "block0"));
            assert_eq!(live, Ok(Response::Live(false)), "liveness still answers");
        }
    }
}
