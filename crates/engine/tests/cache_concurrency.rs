//! Concurrency properties of the engine's cache: N threads released by
//! a barrier onto overlapping fingerprints — cold, warm-memory and
//! warm-disk — must compute (or disk-load) each distinct shape exactly
//! once, every probe must land in exactly one of `hits`, `misses` and
//! `dedup_hits`, and answers must be independent of the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use fastlive_core::FunctionLiveness;
use fastlive_engine::{AnalysisEngine, EngineConfig};
use fastlive_ir::Module;
use fastlive_workload::{generate_module, ModuleParams};

mod common;
use common::{distinct_shapes, temp_dir};

fn test_module(seed: u64, functions: usize) -> Module {
    generate_module(
        "concurrency",
        ModuleParams {
            functions,
            min_blocks: 4,
            max_blocks: 18,
            irreducible_per_mille: 300,
            deep_live_per_mille: 400,
        },
        seed,
    )
}

/// N threads released by one barrier onto the functions of `module`,
/// each starting at a different offset so shape probes interleave.
fn barrier_storm(engine: &AnalysisEngine, module: &Module, threads: usize) {
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..module.len() {
                    let _ = engine.analysis_for(&module.functions()[(i + t) % module.len()]);
                }
            });
        }
    });
}

/// The dedup property: N threads × one barrier × overlapping shapes —
/// exactly one computation per distinct shape, and every probe
/// accounted for, over modules whose shape counts differ.
#[test]
fn barrier_storm_computes_each_shape_once() {
    const THREADS: usize = 8;
    for (seed, functions) in [(11, 6), (13, 9), (17, 12)] {
        let module = test_module(seed, functions);
        let distinct = distinct_shapes(&module);
        let engine = AnalysisEngine::new(EngineConfig {
            threads: 1,
            cache_capacity: 64,
            ..EngineConfig::default()
        });
        barrier_storm(&engine, &module, THREADS);
        let stats = engine.cache_stats();
        assert_eq!(
            stats.misses, distinct,
            "seed={seed}: one computation per distinct shape: {stats:?}"
        );
        assert_eq!(
            stats.hits + stats.dedup_hits + stats.misses,
            (THREADS * module.len()) as u64,
            "seed={seed}: every probe accounted for: {stats:?}"
        );
        assert_eq!(engine.cache_len() as u64, distinct);
    }
}

/// The same storm against a warm *disk*, cold memory: distinct shapes
/// are loaded from the store exactly once (`misses == disk_hits`, so
/// zero precomputations), under any interleaving.
#[test]
fn barrier_storm_on_warm_disk_loads_each_shape_once() {
    const THREADS: usize = 8;
    let module = test_module(29, 6);
    let distinct = distinct_shapes(&module);
    let dir = temp_dir("concurrency-warmdisk");

    // Seed the store.
    let seeder = AnalysisEngine::new(EngineConfig {
        threads: 2,
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let _ = seeder.analyze(&module);
    assert_eq!(seeder.cache_stats().disk_misses, distinct);

    // Two fresh engines on the same warm store: each loads every
    // shape once.
    for round in 0..2 {
        let engine = AnalysisEngine::new(EngineConfig {
            threads: 1,
            cache_capacity: 64,
            persist_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        barrier_storm(&engine, &module, THREADS);
        let stats = engine.cache_stats();
        assert_eq!(
            stats.misses, distinct,
            "round {round}: one resolution per distinct shape: {stats:?}"
        );
        assert_eq!(
            stats.disk_hits, distinct,
            "round {round}: all of them from disk: {stats:?}"
        );
        assert_eq!(
            stats.hits + stats.dedup_hits + stats.misses,
            (THREADS * module.len()) as u64,
            "round {round}: every probe accounted for: {stats:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Thread counts never change answers: 1, 2, 4 and 8 workers produce
/// bit-identical sessions (checked against a fresh per-function
/// analysis).
#[test]
fn thread_count_does_not_change_answers() {
    let module = test_module(43, 5);
    for threads in [1usize, 2, 4, 8] {
        let engine = AnalysisEngine::new(EngineConfig {
            threads,
            cache_capacity: 32,
            ..EngineConfig::default()
        });
        let mut session = engine.analyze(&module);
        for (id, func) in module.iter() {
            let oracle = FunctionLiveness::compute(func);
            for v in func.values() {
                for b in func.blocks() {
                    assert_eq!(
                        session.is_live_in(&module, id, v, b),
                        Ok(oracle.is_live_in(func, v, b)),
                        "threads={threads}: {} {v} at {b}",
                        func.name
                    );
                }
            }
        }
    }
}

/// `analyze`'s own worker pool (not a hand-rolled barrier) through a
/// cache too small for the module: every probe stays accounted for
/// after repeated traffic and evictions, and the capacity bound is
/// exact.
#[test]
fn analyze_pool_traffic_keeps_accounting_exact() {
    let module = test_module(57, 12);
    let distinct = distinct_shapes(&module);
    let engine = AnalysisEngine::new(EngineConfig {
        threads: 4,
        cache_capacity: 8, // small: force evictions
        ..EngineConfig::default()
    });
    for round in 0..4 {
        let _ = engine.analyze(&module);
        let stats = engine.cache_stats();
        assert_eq!(
            stats.hits + stats.dedup_hits + stats.misses,
            ((round + 1) * module.len()) as u64,
            "round {round}: every probe accounted for: {stats:?}"
        );
        assert!(
            stats.misses >= distinct,
            "round {round}: at least one computation per distinct shape"
        );
    }
    assert!(distinct > 8, "the module must overflow the cache");
    assert_eq!(engine.cache_len(), 8, "the capacity bound is exact");
}

/// Concurrent probes through `analysis_for` share one `Arc` per shape
/// even with the disk tier in play.
#[test]
fn concurrent_probes_share_one_arc_per_shape() {
    const THREADS: usize = 6;
    let func = fastlive_ir::parse_function(
        "function %f { block0(v0): jump block1 block1: brif v0, block1, block2 block2: return v0 }",
    )
    .expect("parses");
    let dir = temp_dir("concurrency-arc");
    let engine = AnalysisEngine::new(EngineConfig {
        threads: 1,
        cache_capacity: 16,
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let barrier = Barrier::new(THREADS);
    let resolved = AtomicUsize::new(0);
    let handles: Vec<_> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let live = engine.analysis_for(&func).expect("no injected faults");
                    resolved.fetch_add(1, Ordering::Relaxed);
                    live
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("prober panicked"))
            .collect()
    });
    assert_eq!(resolved.load(Ordering::Relaxed), THREADS);
    for h in &handles[1..] {
        assert!(
            std::sync::Arc::ptr_eq(&handles[0], h),
            "all probers must share the single resolution"
        );
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits + stats.dedup_hits, (THREADS - 1) as u64);
    std::fs::remove_dir_all(&dir).ok();
}
