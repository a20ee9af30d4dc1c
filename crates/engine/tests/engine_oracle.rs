//! The engine/oracle equivalence property: every [`EngineSession`]
//! answer must match a from-scratch per-function analysis computed over
//! the function's own graph — across thread counts, across cache states
//! (cold, warm, disabled), on reducible and irreducible modules, and
//! after CFG-preserving and CFG-changing edits (the latter must
//! invalidate and recompute). The engine computes over the shape's
//! canonical graph (`CfgShape::to_graph`, sorted successors), so this
//! also pins that the canonical graph and the function's graph agree.

use fastlive_core::{FunctionLiveness, NullnessArtifact};
use fastlive_engine::{AnalysisEngine, EngineConfig, EngineSession};
use fastlive_ir::{parse_module, Module, ProgramPoint};
use fastlive_workload::{generate_module, ModuleParams, SplitMix64};
use proptest::prelude::*;

/// Every (value, block) live-in/live-out and block-entry live-at
/// answer of `session`, and every nullness fact and definite-init
/// answer of its nullness artifact, equals a fresh per-function
/// analysis of the module's current state.
fn assert_session_matches_oracle(session: &mut EngineSession<'_>, module: &Module, label: &str) {
    assert_eq!(session.num_functions(), module.len());
    for (id, func) in module.iter() {
        let oracle = FunctionLiveness::compute(func);
        let batch = session.batch(module, id).expect("no injected faults");
        let null_oracle = NullnessArtifact::compute(func);
        let nullness = session.nullness(module, id).expect("no injected faults");
        assert_eq!(
            nullness.solve(func),
            null_oracle.solve(func),
            "{label}: {} nullness facts",
            func.name
        );
        for v in func.values() {
            for b in func.blocks() {
                assert_eq!(
                    session.is_live_in(module, id, v, b),
                    Ok(oracle.is_live_in(func, v, b)),
                    "{label}: {} live-in {v} at {b}",
                    func.name
                );
                assert_eq!(
                    session.is_live_out(module, id, v, b),
                    Ok(oracle.is_live_out(func, v, b)),
                    "{label}: {} live-out {v} at {b}",
                    func.name
                );
                // The dense route must agree with the sparse one.
                assert_eq!(
                    batch.is_live_in(v.index() as u32, b.as_u32()),
                    oracle.is_live_in(func, v, b),
                    "{label}: {} batch live-in {v} at {b}",
                    func.name
                );
                let entry = ProgramPoint::block_entry(b);
                assert_eq!(
                    session.is_live_at(module, id, v, entry),
                    Ok(oracle.is_live_at(func, v, entry).expect("attached value")),
                    "{label}: {} live-at {v} at the entry of {b}",
                    func.name
                );
                assert_eq!(
                    nullness.definitely_initialized_at_entry(func, v, b),
                    null_oracle.definitely_initialized_at_entry(func, v, b),
                    "{label}: {} definite-init {v} at {b}",
                    func.name
                );
            }
        }
    }
}

fn test_module(seed: u64, irreducible_per_mille: u32, deep_live_per_mille: u32) -> Module {
    generate_module(
        "prop",
        ModuleParams {
            functions: 5,
            min_blocks: 4,
            max_blocks: 24,
            irreducible_per_mille,
            deep_live_per_mille,
        },
        seed,
    )
}

#[test]
fn engine_matches_oracle_across_threads_and_cache_states() {
    // Reducible-only and irreducibility-heavy modules — half of each
    // generated with the liveness-driven deep-live bias, so long live
    // ranges crossing loop headers and live-through-but-not-used
    // blocks are routinely present; 1 and 4 worker threads; caching
    // disabled, cold and warm.
    for seed in 0..4u64 {
        for per_mille in [0u32, 400] {
            let deep = if seed % 2 == 1 { 700 } else { 0 };
            let module = test_module(seed * 31 + per_mille as u64, per_mille, deep);
            for threads in [1usize, 4] {
                for cache_capacity in [0usize, 64] {
                    let engine = AnalysisEngine::new(EngineConfig {
                        threads,
                        cache_capacity,
                        ..EngineConfig::default()
                    });
                    let mut cold = engine.analyze(&module);
                    assert_session_matches_oracle(
                        &mut cold,
                        &module,
                        &format!("cold s={seed} irr={per_mille} t={threads} c={cache_capacity}"),
                    );
                    // Warm pass: the same engine analyzes the module
                    // again; with caching on, every probe hits.
                    let misses_before = engine.cache_stats().misses;
                    let mut warm = engine.analyze(&module);
                    if cache_capacity > 0 {
                        assert_eq!(
                            engine.cache_stats().misses,
                            misses_before,
                            "warm analysis must not precompute"
                        );
                    }
                    assert_session_matches_oracle(
                        &mut warm,
                        &module,
                        &format!("warm s={seed} irr={per_mille} t={threads} c={cache_capacity}"),
                    );
                }
            }
        }
    }
}

#[test]
fn recompiled_cfg_identical_module_is_served_from_cache() {
    let module = test_module(99, 250, 500);
    let engine = AnalysisEngine::new(EngineConfig {
        threads: 4,
        cache_capacity: 128,
        ..EngineConfig::default()
    });
    let _ = engine.analyze(&module);
    let cold = engine.cache_stats();

    // "Recompilation": round-trip through text. Fresh Function objects,
    // identical CFGs — zero new precomputations.
    let recompiled = parse_module(&module.to_string()).expect("round-trips");
    let mut session = engine.analyze(&recompiled);
    let warm = engine.cache_stats();
    assert_eq!(warm.misses, cold.misses, "recompilation must be all hits");
    assert!(warm.hits > cold.hits);
    assert_session_matches_oracle(&mut session, &recompiled, "recompiled");
}

#[test]
fn shared_precomputation_across_edge_orders_stays_exact() {
    // Two functions whose edges agree as sets but diverge in successor
    // order (swapped brif arms) share one cached precomputation; both
    // must still answer exactly — liveness is edge-order-insensitive.
    let module = parse_module(
        "function %ab { block0(v0):
             v1 = iconst 1
             brif v0, block1(v1), block2
         block1(v2):
             jump block3
         block2:
             jump block3
         block3:
             return v0 }
         function %ba { block0(v0):
             v1 = iconst 1
             brif v0, block2, block1(v1)
         block1(v2):
             jump block3
         block2:
             jump block3
         block3:
             return v0 }",
    )
    .expect("parses");
    let engine = AnalysisEngine::new(EngineConfig {
        threads: 1,
        cache_capacity: 16,
        ..EngineConfig::default()
    });
    let mut session = engine.analyze(&module);
    assert_eq!(
        engine.cache_stats().misses,
        1,
        "edge order must not defeat sharing"
    );
    assert_eq!(engine.cache_stats().hits, 1);
    assert_session_matches_oracle(&mut session, &module, "edge orders");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random edit scripts: CFG-preserving edits never bump an epoch
    /// and never stale an answer; CFG-changing edits (critical-edge
    /// splitting) invalidate and recompute. After every step, all
    /// session answers match a fresh oracle.
    #[test]
    fn edits_revalidate_exactly(seed in 0u64..500, irr in 0u32..2) {
        let mut module = test_module(seed, if irr == 1 { 500 } else { 0 }, (seed % 2) as u32 * 600);
        let engine = AnalysisEngine::new(EngineConfig { threads: 2, cache_capacity: 64 , ..EngineConfig::default() });
        let mut session = engine.analyze(&module);
        let mut rng = SplitMix64::new(seed ^ 0xed17);

        for (id, _) in (0..module.len()).map(|i| (i, ())) {
            // CFG-preserving edit: sink a fresh use of a parameter into
            // a random block (position 0 is always legal).
            let func = module.func_mut(id);
            let param = func.params()[rng.index(func.params().len())];
            let target = func.block_by_index(rng.index(func.num_blocks()));
            func.insert_inst(
                target,
                0,
                fastlive_ir::InstData::Unary { op: fastlive_ir::UnaryOp::Ineg, arg: param },
            );
            prop_assert_eq!(session.epoch(id), 0, "instruction edit must not recompute");
            // Spot-check: the session sees the new use without recompute.
            let func = module.func(id);
            let oracle = FunctionLiveness::compute(func);
            for b in func.blocks() {
                prop_assert_eq!(
                    session.is_live_in(&module, id, param, b),
                    Ok(oracle.is_live_in(func, param, b)),
                    "after instruction edit: {} at {}", param, b
                );
            }
            prop_assert_eq!(session.epoch(id), 0);

            // CFG-changing edit: split critical edges. If any block was
            // created the next query must recompute (epoch bump).
            let created = fastlive_ir::split_critical_edges(module.func_mut(id));
            let func = module.func(id);
            let oracle = FunctionLiveness::compute(func);
            let v = func.params()[0];
            let q = func.block_by_index(rng.index(func.num_blocks()));
            let answer = session.is_live_in(&module, id, v, q);
            prop_assert_eq!(answer, Ok(oracle.is_live_in(func, v, q)));
            if created.is_empty() {
                prop_assert_eq!(session.epoch(id), 0, "no CFG change, no recompute");
            } else {
                prop_assert_eq!(session.epoch(id), 1, "CFG change must recompute once");
            }
        }

        // Full sweep at the end: everything still exact.
        assert_session_matches_oracle(&mut session, &module, "after edit script");
    }
}
