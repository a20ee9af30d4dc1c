//! [`AnalysisEngine::destruct_module`]: SSA destruction across a whole
//! [`Module`], reusing the engine's cached (and in-flight-deduplicated)
//! precomputations and its parallel fan-out.
//!
//! Per-function destruction ([`destruct_ssa`]) precomputes a liveness
//! checker *after* splitting critical edges. Run naively over a module
//! that is one §5.2 precomputation per function — even though modules
//! are full of CFG-identical functions (and recompilation reproduces
//! the same post-split shapes). Routing the engine construction through
//! [`AnalysisEngine::analysis_for`] makes destruction hit the same
//! fingerprint cache as analysis: CFG-identical functions share one
//! checker, warm reruns precompute nothing, and concurrent workers
//! that miss on the same shape are deduplicated.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fastlive_core::AnalysisError;
use fastlive_destruct::{destruct_ssa, CheckerEngine, DestructResult};
use fastlive_ir::Module;

use crate::engine::{fan_out, panic_message, AnalysisEngine};

impl AnalysisEngine {
    /// Runs SSA destruction on every function of `module` — in
    /// parallel per [`EngineConfig::threads`](crate::EngineConfig) —
    /// with each function's liveness engine served through the
    /// fingerprint cache. Results are returned in function order;
    /// `module` itself is not modified (destruction works on clones,
    /// like a backend pipeline lowering a module it may re-analyze).
    ///
    /// The per-function engine is the paper's checker
    /// ([`CheckerEngine`]) wrapping a **shared** cached analysis:
    /// decisions are identical to
    /// `destruct_ssa(f, CheckerEngine::compute)`, but CFG-identical
    /// functions (and warm reruns — the JIT recompilation story) skip
    /// the precomputation. See `BENCH_point.json` for the measured
    /// cold/warm gap.
    ///
    /// Failures are **per function**: a precomputation that panics (or
    /// a destruction pass that does) yields `Err(AnalysisError)` in
    /// that function's slot while every other function's destruction
    /// completes normally — the process never aborts.
    pub fn destruct_module(&self, module: &Module) -> Vec<Result<DestructResult, AnalysisError>> {
        let n = module.len();
        let workers = self.worker_count(n);
        let run_one = |i: usize| -> Result<DestructResult, AnalysisError> {
            let func = module.functions()[i].clone();
            // `analysis_for` is called after destruct_ssa splits
            // critical edges, so the cache is keyed by the final CFG.
            // A typed analysis failure is smuggled out through the
            // unwind (destruct_ssa's engine callback is infallible by
            // signature) and recovered by the downcast below; any
            // *other* payload is a genuine destruction panic.
            catch_unwind(AssertUnwindSafe(|| {
                destruct_ssa(func, |f| match self.analysis_for(f) {
                    Ok(live) => CheckerEngine::from_shared(live),
                    Err(e) => std::panic::panic_any(e),
                })
            }))
            .map_err(|payload| match payload.downcast::<AnalysisError>() {
                Ok(e) => *e,
                Err(other) => AnalysisError::ComputePanicked {
                    message: panic_message(other.as_ref()),
                },
            })
        };
        fan_out(workers, n, run_one)
            .into_iter()
            .map(|s| {
                // A worker that dies outright (catch_unwind can't stop
                // e.g. a stack overflow abort path, but a plain unwind
                // that escapes run_one is caught by the pool) forfeits
                // its claimed indices; those slots become typed errors
                // instead of taking the whole module down.
                s.unwrap_or_else(|| {
                    Err(AnalysisError::ComputePanicked {
                        message: "destruction worker terminated before publishing".into(),
                    })
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use fastlive_workload::{generate_module, ModuleParams};

    fn test_module(seed: u64) -> Module {
        generate_module(
            "drv",
            ModuleParams {
                functions: 6,
                min_blocks: 4,
                max_blocks: 16,
                irreducible_per_mille: 150,
                ..ModuleParams::default()
            },
            seed,
        )
    }

    #[test]
    fn module_destruction_matches_per_function_destruction() {
        let module = test_module(11);
        for threads in [1usize, 4] {
            let engine = AnalysisEngine::new(EngineConfig {
                threads,
                cache_capacity: 64,
                ..EngineConfig::default()
            });
            let results = engine.destruct_module(&module);
            assert_eq!(results.len(), module.len());
            for (i, func) in module.functions().iter().enumerate() {
                let got = results[i].as_ref().expect("no injected faults");
                let standalone = destruct_ssa(func.clone(), CheckerEngine::compute);
                assert_eq!(
                    got.func.to_string(),
                    standalone.func.to_string(),
                    "threads={threads}: divergent destruction of {}",
                    func.name
                );
                assert_eq!(got.stats.queries, standalone.stats.queries);
                assert_eq!(got.stats.copies_inserted, standalone.stats.copies_inserted);
            }
        }
    }

    #[test]
    fn warm_rerun_precomputes_nothing() {
        let module = test_module(23);
        let engine = AnalysisEngine::new(EngineConfig {
            threads: 2,
            cache_capacity: 128,
            ..EngineConfig::default()
        });
        let cold = engine.destruct_module(&module);
        let misses_after_cold = engine.cache_stats().misses;
        let warm = engine.destruct_module(&module);
        let stats = engine.cache_stats();
        assert_eq!(
            stats.misses, misses_after_cold,
            "warm destruction must be all cache (or dedup) hits: {stats:?}"
        );
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(
                c.as_ref().unwrap().func.to_string(),
                w.as_ref().unwrap().func.to_string()
            );
        }
    }
}
