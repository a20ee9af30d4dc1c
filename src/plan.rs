//! Plan-and-run batch execution: the shared executors behind
//! [`QueryEngine::query`](crate::QueryEngine::query) and
//! [`QueryEngine::run_queries`](crate::QueryEngine::run_queries).
//!
//! The scalar path resolves one query's references and answers it from
//! a freshly obtained per-function analysis. The planner instead
//! groups a batch by resolved function, obtains each function's
//! analysis **once**, and — when a group carries enough `LiveIn` /
//! `LiveOut` probes — materializes one [`BatchLiveness`] row snapshot
//! (resolving the function's def-use chains once) and answers those
//! probes as O(1) bit reads instead of per-query candidate scans.
//! That is what makes the facade *faster* than a loop over naive call
//! sites, not just prettier (`BENCH_facade.json` records the ratio).
//!
//! Planning never changes answers: the module is immutable for the
//! duration of the call, and the batch snapshot is bit-for-bit
//! equivalent to the scalar queries (a workspace-level invariant the
//! core crate's `batch_oracle` suite and `tests/facade_queries.rs`
//! both pin).

use fastlive_core::BatchLiveness;
use fastlive_engine::AnalysisKind;
use fastlive_ir::{FuncId, Function, Module};
use fastlive_telemetry::{QueryClass, Recorder};

use crate::backend::{Backend, FuncState};
use crate::query::{
    resolve_block, resolve_func, resolve_point, resolve_value, Query, QueryError, Response,
};

/// Minimum number of `LiveIn`/`LiveOut` probes in one function group
/// before the planner pays for a batch row snapshot. Below this, the
/// scalar candidate scan is always cheaper than a whole matrix pass.
const BATCH_THRESHOLD: usize = 2;

/// Should a group with `block_probes` `LiveIn`/`LiveOut` queries over
/// `func` materialize batch rows? The matrix pass costs
/// `O((E + Σ|T_q|) · V/64)` — roughly proportional to the block count
/// times the value-word count — while one scalar probe costs a
/// candidate scan plus a def-use walk. Requiring about half a block's
/// worth of probes per block keeps tiny batches on the scalar path
/// (where the pass could never amortize) without giving up the
/// asymptotic win; the exact break-even per shape is measured in
/// `BENCH_query.json`.
fn batch_pays_off(func: &Function, block_probes: usize) -> bool {
    block_probes >= BATCH_THRESHOLD.max(func.num_blocks() / 2)
}

/// Resolve-and-answer for one query, given the function's state and
/// (optionally) a pre-materialized batch snapshot for block probes.
fn answer(
    state: &mut FuncState,
    batch: Option<&BatchLiveness>,
    func: &Function,
    query: &Query,
) -> Result<Response, QueryError> {
    match query {
        Query::LiveIn { value, block, .. } => {
            let v = resolve_value(func, value)?;
            let b = resolve_block(func, block)?;
            Ok(Response::Live(match batch {
                Some(rows) => rows.is_live_in(v.index() as u32, b.as_u32()),
                None => state.live_in(func, v, b),
            }))
        }
        Query::LiveOut { value, block, .. } => {
            let v = resolve_value(func, value)?;
            let b = resolve_block(func, block)?;
            Ok(Response::Live(match batch {
                Some(rows) => rows.is_live_out(v.index() as u32, b.as_u32()),
                None => state.live_out(func, v, b),
            }))
        }
        Query::LiveAt { value, point, .. } => {
            let v = resolve_value(func, value)?;
            let p = resolve_point(func, point)?;
            Ok(Response::Live(state.live_at(func, v, p)?))
        }
        Query::LiveSets { .. } => Ok(Response::Sets(match batch {
            // The group's snapshot already holds every row — derive the
            // sets from it instead of paying another matrix pass (the
            // mapping below is exactly `FunctionLiveness::live_sets`).
            Some(rows) => sets_from_rows(rows, func),
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

/// Does the query need the function's nullness?
fn needs_nullness(query: &Query) -> bool {
    matches!(query, Query::Nullness { .. } | Query::DefiniteInit { .. })
}

/// Whole-function sets out of an existing row snapshot — the same
/// var-index → [`Value`](fastlive_ir::Value) mapping (ascending per
/// block) as `FunctionLiveness::live_sets`, which `tests/facade_*.rs`
/// pin against the oracle.
fn sets_from_rows(rows: &BatchLiveness, func: &Function) -> crate::LiveSets {
    let to_values = |vars: Vec<u32>| -> Vec<fastlive_ir::Value> {
        vars.into_iter()
            .map(|v| fastlive_ir::Value::from_index(v as usize))
            .collect()
    };
    crate::LiveSets {
        live_in: func
            .blocks()
            .map(|b| to_values(rows.live_in_vars(b.as_u32())))
            .collect(),
        live_out: func
            .blocks()
            .map(|b| to_values(rows.live_out_vars(b.as_u32())))
            .collect(),
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
    let mut state = backend.resolve(module, id, needs_nullness(query))?;
    answer(&mut state, None, module.func(id), query)
}

/// The planned batch executor: group by function, analyze once per
/// function, serve grouped block probes from batch rows. Results come
/// back in input order; per-query failures are per-slot `Err`s, never
/// a failure of the whole batch.
///
/// `recorder` observes what the plan *did* — batch size, how many
/// groups took the grouped (batch-row) vs the scalar path, and the
/// whole-batch latency. With a disabled recorder (the trait-path
/// default) not even a clock is read; answers never depend on it.
pub(crate) fn run_planned(
    backend: &mut Backend<'_>,
    module: &Module,
    queries: &[Query],
    recorder: &dyn Recorder,
) -> Vec<Result<Response, QueryError>> {
    let t0 = recorder.enabled().then(std::time::Instant::now);
    let mut grouped_groups = 0u64;
    let mut scalar_groups = 0u64;
    // Resolve every query's function up front; unresolvable ones fail
    // in place without costing any analysis. Groups are found through
    // a per-function index (O(1) per query — a linear group scan would
    // make planning O(queries × functions) on big modules) but kept in
    // first-appearance order so execution stays deterministic.
    let mut results: Vec<Option<Result<Response, QueryError>>> = vec![None; queries.len()];
    let mut groups: Vec<(FuncId, Vec<usize>)> = Vec::new();
    let mut group_of: Vec<Option<usize>> = vec![None; module.len()];
    for (i, query) in queries.iter().enumerate() {
        match resolve_func(module, query.func()) {
            Ok(id) => match group_of[id] {
                Some(g) => groups[g].1.push(i),
                None => {
                    group_of[id] = Some(groups.len());
                    groups.push((id, vec![i]));
                }
            },
            Err(e) => results[i] = Some(Err(e)),
        }
    }

    // Cross-function batches warm the cache through the backend's
    // worker pool before the sequential group loop: one `(function,
    // analysis)` request per distinct need, so the per-group `resolve`
    // below hits memory. A single-group batch gains nothing — the group
    // loop would do the same work with no parallelism to exploit.
    if groups.len() >= 2 {
        let mut requests = Vec::with_capacity(groups.len());
        for (id, idxs) in &groups {
            requests.push((*id, AnalysisKind::Liveness));
            if idxs.iter().any(|&i| needs_nullness(&queries[i])) {
                requests.push((*id, AnalysisKind::Nullness));
            }
        }
        backend.prefetch(module, &requests);
    }

    for (id, idxs) in groups {
        let func = module.func(id);
        // A failed liveness fails every query of its group — the other
        // groups (other functions) still answer. Nullness is resolved
        // only for groups that ask for it; its failure poisons just the
        // group's nullness-family queries.
        let with_nullness = idxs.iter().any(|&i| needs_nullness(&queries[i]));
        let mut state = match backend.resolve(module, id, with_nullness) {
            Ok(state) => state,
            Err(e) => {
                for i in idxs {
                    results[i] = Some(Err(e.clone()));
                }
                continue;
            }
        };
        let block_probes = idxs
            .iter()
            .filter(|&&i| matches!(queries[i], Query::LiveIn { .. } | Query::LiveOut { .. }))
            .count();
        let sets_queries = idxs
            .iter()
            .filter(|&&i| matches!(queries[i], Query::LiveSets { .. }))
            .count();
        // One row materialization amortized over the group's block
        // probes — or over repeated whole-function set requests, each
        // of which would otherwise pay its own pass (session only; the
        // oracle's probes are already O(1) set reads and its `batch()`
        // is `None`).
        let batch = if batch_pays_off(func, block_probes) || sets_queries >= 2 {
            state.batch(func)
        } else {
            None
        };
        // The grouped/scalar split is per *group*: a group whose
        // snapshot materialized took the batch-row path (the oracle's
        // `batch()` is `None`, so its groups always count as scalar).
        if batch.is_some() {
            grouped_groups += 1;
        } else {
            scalar_groups += 1;
        }
        for i in idxs {
            // Batch-served block probes are the hot loop of dense
            // streams: answer them right here as O(1) bit reads, so
            // the per-query cost stays at the dispatch floor and only
            // the complex kinds pay the full `answer` call.
            let result = match (&batch, &queries[i]) {
                (Some(rows), Query::LiveIn { value, block, .. }) => resolve_value(func, value)
                    .and_then(|v| {
                        resolve_block(func, block)
                            .map(|b| Response::Live(rows.is_live_in(v.index() as u32, b.as_u32())))
                    }),
                (Some(rows), Query::LiveOut { value, block, .. }) => resolve_value(func, value)
                    .and_then(|v| {
                        resolve_block(func, block)
                            .map(|b| Response::Live(rows.is_live_out(v.index() as u32, b.as_u32())))
                    }),
                _ => answer(&mut state, batch.as_ref(), func, &queries[i]),
            };
            results[i] = Some(result);
        }
    }

    if let Some(t0) = t0 {
        recorder.plan(
            queries.len() as u64,
            grouped_groups,
            scalar_groups,
            t0.elapsed().as_nanos() as u64,
        );
    }

    finalize(results)
}

/// Collapses the planner's slot table into per-query results. Every
/// slot is filled by construction — grouped and answered, or failed at
/// resolution — but a planner bookkeeping slip must stay a per-slot
/// [`QueryError::Internal`], never a process abort for the whole batch
/// (this replaced an `expect`).
fn finalize(
    results: Vec<Option<Result<Response, QueryError>>>,
) -> Vec<Result<Response, QueryError>> {
    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                Err(QueryError::Internal {
                    detail: format!("query {i} was neither grouped nor failed at resolution"),
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The converted `plan.rs:250` panic path: an unfilled slot is a
    /// typed per-query error; the filled slots still answer.
    #[test]
    fn unfilled_slot_is_a_typed_error_not_a_panic() {
        let filled = Some(Ok(Response::Live(true)));
        let out = finalize(vec![filled, None]);
        assert_eq!(out[0], Ok(Response::Live(true)));
        match &out[1] {
            Err(QueryError::Internal { detail }) => {
                assert!(detail.contains("query 1"), "{detail}")
            }
            other => panic!("expected Internal error, got {other:?}"),
        }
    }

    #[test]
    fn filled_slots_pass_through_in_order() {
        let e = QueryError::UnknownFunction(crate::FuncRef::Name("nope".into()));
        let out = finalize(vec![
            Some(Err(e.clone())),
            Some(Ok(Response::Interference(false))),
        ]);
        assert_eq!(out, vec![Err(e), Ok(Response::Interference(false))]);
    }
}
