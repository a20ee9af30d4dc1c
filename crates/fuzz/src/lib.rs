//! Differential fuzzing for the fastlive workspace.
//!
//! The harness composes the workload generator with adversarial
//! mutators (irreducible double-entry loops, dominator ladders,
//! duplicate and self edges, in-place session edits, fault-injected
//! persistence campaigns) and runs every case through three facade
//! arms — the cached [`fastlive::BackendKind::Session`], a cache-less
//! session and [`fastlive::BackendKind::Oracle`] — under mixed
//! block/point/interference query loads. Any disagreement, panic, or
//! round-trip mismatch is handed to the [`shrink`] module's
//! delta-debugging minimizer, which emits a self-contained `.fl`
//! reproducer plus the exact diverging query.
//!
//! Module map:
//!
//! * [`case`] — the deletable case IR; the only road back to real IR
//!   is print → parse → verify, so every candidate the harness runs is
//!   strict SSA and every reproducer is its own parser test.
//! * [`mutate`] — adversarial generators and mutators.
//! * [`diff`] — query mixes and the backend-agreement check.
//! * [`shrink`] — the greedy delta-debugging minimizer.
//! * [`import`] — corpus importers (`.ssa` block-parameter text,
//!   `.dot` digraphs) for real CFG shapes.
//! * [`arms`] — the campaign runner tying it all together.
//!
//! The crate also ships [`BrokenBackend`], a deliberately wrong backend
//! used to prove, in CI, that the harness *detects* bugs and that the
//! shrinker minimizes them — a fuzzer whose failure path is never
//! exercised is indistinguishable from one that cannot fail.

pub mod arms;
pub mod case;
pub mod diff;
pub mod import;
pub mod mutate;
pub mod shrink;

use fastlive::{Backend, BlockRef, FuncRef, Query, QueryEngine, QueryError, Response, ValueRef};
use fastlive_ir::{Block, Function, Module, Value};

/// A deliberately wrong [`QueryEngine`]: it answers like the oracle
/// ([`Backend::Oracle`]) except that *live-through* `LiveIn` queries —
/// the value neither defined nor used in the queried block — come back
/// `false`. That is precisely the class of answer a broken reduced
/// reachability precomputation would get wrong, and it is what the
/// shrinker self-test minimizes against.
pub struct BrokenBackend {
    inner: Backend<'static>,
}

impl BrokenBackend {
    /// A fresh broken backend.
    pub fn new() -> Self {
        BrokenBackend {
            inner: Backend::Oracle,
        }
    }
}

impl Default for BrokenBackend {
    fn default() -> Self {
        Self::new()
    }
}

/// Resolves the refs of a `LiveIn` query by hand (the facade's
/// resolvers are crate-private) — `None` when anything is out of
/// range, in which case the answer is left untouched (error answers
/// must keep agreeing with the oracle).
fn resolve_live_in<'m>(
    module: &'m Module,
    func: &FuncRef,
    value: &ValueRef,
    block: &BlockRef,
) -> Option<(&'m Function, Value, Block)> {
    let f = match func {
        FuncRef::Id(id) => (*id < module.len()).then(|| module.func(*id))?,
        FuncRef::Name(name) => module.func(module.by_name(name)?),
    };
    let v = match value {
        ValueRef::Id(v) => (v.index() < f.num_values()).then_some(*v)?,
        ValueRef::Name(name) => f.value(name)?,
    };
    let b = match block {
        BlockRef::Id(b) => (b.index() < f.num_blocks()).then_some(*b)?,
        BlockRef::Name(name) => f.block(name)?,
    };
    Some((f, v, b))
}

impl QueryEngine for BrokenBackend {
    fn query(&mut self, module: &Module, query: &Query) -> Result<Response, QueryError> {
        let mut answers = self.run_queries(module, std::slice::from_ref(query));
        answers.pop().expect("one query, one answer")
    }

    fn run_queries(
        &mut self,
        module: &Module,
        queries: &[Query],
    ) -> Vec<Result<Response, QueryError>> {
        let mut answers = self.inner.run_queries(module, queries);
        for (query, answer) in queries.iter().zip(answers.iter_mut()) {
            let Query::LiveIn { func, value, block } = query else {
                continue;
            };
            if !matches!(answer, Ok(Response::Live(true))) {
                continue;
            }
            let Some((f, v, b)) = resolve_live_in(module, func, value, block) else {
                continue;
            };
            let live_through = f.def_block(v) != b && f.use_blocks(v).all(|ub| ub != b);
            if live_through {
                *answer = Ok(Response::Live(false));
            }
        }
        answers
    }

    fn backend_name(&self) -> &'static str {
        "broken"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{check_against_oracle, query_mix};
    use fastlive::Fastlive;
    use fastlive_workload::{generate_module, ModuleParams};

    #[test]
    fn broken_backend_diverges_on_deep_live_ranges() {
        let module = generate_module(
            "bk",
            ModuleParams {
                functions: 2,
                min_blocks: 8,
                max_blocks: 24,
                deep_live_per_mille: 600,
                ..ModuleParams::default()
            },
            17,
        );
        let queries = query_mix(&module, 16, 5);
        let fl = Fastlive::builder().build().expect("default build");
        let mut broken = BrokenBackend::new();
        let divergences = check_against_oracle(&fl, &mut broken, &module, &queries);
        assert!(
            !divergences.is_empty(),
            "the wrong-answer backend must diverge on live-through probes"
        );
        for d in &divergences {
            assert!(
                matches!(d.query, Query::LiveIn { .. }),
                "only LiveIn answers are sabotaged, got {:?}",
                d.query
            );
        }
    }
}
