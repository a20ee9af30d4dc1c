//! Panic isolation across the engine: a precomputation that panics
//! (injected through the test-only compute-fault hook) must fail
//! exactly one function with a typed [`AnalysisError`] — concurrent
//! queries on other functions keep answering, waiters deduplicated on
//! the abandoned in-flight slot retry instead of hanging, and clearing
//! the fault self-heals every failed entry.

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

use common::temp_dir;
use fastlive_core::{AnalysisError, FunctionLiveness};
use fastlive_engine::{AnalysisEngine, CfgShape, EngineConfig};
use fastlive_ir::{parse_module, Module};

/// Two CFG-distinct functions: the hook can target one by block count.
fn two_function_module() -> Module {
    parse_module(
        "function %poisoned { block0(v0): jump block1
             block1: brif v0, block1, block2 block2: return v0 }
         function %healthy { block0(v0): return v0 }",
    )
    .expect("parses")
}

#[test]
fn panicking_function_fails_typed_while_others_answer() {
    let module = two_function_module();
    let bad_shape = CfgShape::of(module.func(0));
    let engine = AnalysisEngine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    let target = bad_shape.clone();
    engine.set_compute_fault(Some(Box::new(move |shape: &CfgShape| {
        if *shape == target {
            panic!("injected precompute panic");
        }
    })));

    let mut session = engine.analyze(&module);
    let poisoned = module.by_name("poisoned").unwrap();
    let healthy = module.by_name("healthy").unwrap();

    // The poisoned function answers with the typed error — including
    // the panic message — on every query surface.
    let v0 = module.func(poisoned).params()[0];
    let b1 = module.func(poisoned).block_by_index(1);
    match session.is_live_in(&module, poisoned, v0, b1) {
        Err(AnalysisError::ComputePanicked { message }) => {
            assert!(message.contains("injected precompute panic"), "{message}");
        }
        other => panic!("expected ComputePanicked, got {other:?}"),
    }
    assert!(matches!(
        session.batch(&module, poisoned),
        Err(AnalysisError::ComputePanicked { .. })
    ));

    // The healthy function is untouched.
    let func = module.func(healthy);
    let oracle = FunctionLiveness::compute(func);
    let hv = func.params()[0];
    let hb = func.entry_block();
    assert_eq!(
        session.is_live_in(&module, healthy, hv, hb),
        Ok(oracle.is_live_in(func, hv, hb))
    );
}

#[test]
fn waiters_on_an_abandoned_slot_retry_instead_of_hanging() {
    const THREADS: usize = 6;
    let module = two_function_module();
    let func = module.func(0).clone();
    let engine = AnalysisEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    // Exactly the first computation panics; any retry succeeds. If an
    // abandoned slot wedged its waiters this test would deadlock (and
    // time out) rather than fail an assertion.
    let first = AtomicBool::new(true);
    engine.set_compute_fault(Some(Box::new(move |_shape: &CfgShape| {
        if first.swap(false, Ordering::SeqCst) {
            panic!("first compute dies");
        }
    })));

    let barrier = Barrier::new(THREADS);
    let failed = AtomicUsize::new(0);
    let succeeded = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                barrier.wait();
                match engine.analysis_for(&func) {
                    Ok(live) => {
                        let oracle = FunctionLiveness::compute(&func);
                        let v = func.params()[0];
                        let b = func.block_by_index(2);
                        assert_eq!(live.is_live_in(&func, v, b), oracle.is_live_in(&func, v, b));
                        succeeded.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(AnalysisError::ComputePanicked { .. }) => {
                        failed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(other) => panic!("unexpected error: {other:?}"),
                }
            });
        }
    });
    assert_eq!(
        failed.load(Ordering::SeqCst) + succeeded.load(Ordering::SeqCst),
        THREADS
    );
    // Only the prober that owned the doomed computation may fail; every
    // deduplicated waiter retried into the successful recompute.
    assert!(
        failed.load(Ordering::SeqCst) <= 1,
        "at most the owner fails"
    );
    assert!(succeeded.load(Ordering::SeqCst) >= THREADS - 1);
    // And the slot is fully healed: a fresh probe is an ordinary hit.
    assert!(engine.analysis_for(&func).is_ok());
}

#[test]
fn sessions_self_heal_once_the_fault_clears() {
    let module = two_function_module();
    let engine = AnalysisEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    engine.set_compute_fault(Some(Box::new(|_: &CfgShape| panic!("always"))));
    let mut session = engine.analyze(&module);
    let v0 = module.func(0).params()[0];
    let b2 = module.func(0).block_by_index(2);
    assert!(session.is_live_in(&module, 0, v0, b2).is_err());

    // Fault cleared: the very next query retries the failed entry and
    // succeeds — no session rebuild, no manual invalidation.
    engine.set_compute_fault(None);
    let func = module.func(0);
    let oracle = FunctionLiveness::compute(func);
    assert_eq!(
        session.is_live_in(&module, 0, v0, b2),
        Ok(oracle.is_live_in(func, v0, b2))
    );
    assert!(session.epoch(0) >= 1, "the retry is a recomputation");
}

#[test]
fn concurrent_queries_on_other_shapes_keep_answering() {
    // Many distinct shapes; one is poisoned. All others must analyze
    // concurrently without contagion.
    let mut src = String::new();
    for i in 0..12 {
        src.push_str(&format!("function %f{i} {{ block0(v0): "));
        for j in 0..i {
            src.push_str(&format!("jump block{} block{}: ", j + 1, j + 1));
        }
        src.push_str("return v0 }\n");
    }
    let module = parse_module(&src).expect("parses");
    let bad_shape = CfgShape::of(module.func(5));
    let engine = AnalysisEngine::new(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    let target = bad_shape.clone();
    engine.set_compute_fault(Some(Box::new(move |shape: &CfgShape| {
        if *shape == target {
            panic!("shape-local poison");
        }
    })));

    let mut session = engine.analyze(&module);
    for (id, func) in module.iter() {
        let v = func.params()[0];
        let b = func.entry_block();
        let answer = session.is_live_in(&module, id, v, b);
        if CfgShape::of(func) == bad_shape {
            assert!(
                matches!(answer, Err(AnalysisError::ComputePanicked { .. })),
                "{}: expected the injected failure",
                func.name
            );
        } else {
            let oracle = FunctionLiveness::compute(func);
            assert_eq!(answer, Ok(oracle.is_live_in(func, v, b)), "{}", func.name);
        }
    }
}

#[test]
fn destruct_module_isolates_the_panicking_function() {
    let module = two_function_module();
    // Post-edge-split shapes differ from analysis shapes; target by
    // block count instead (%healthy is the only single-block CFG).
    let engine = AnalysisEngine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    engine.set_compute_fault(Some(Box::new(|shape: &CfgShape| {
        if shape.num_blocks() > 1 {
            panic!("multi-block destruction dies");
        }
    })));
    let results = engine.destruct_module(&module);
    assert_eq!(results.len(), 2);
    assert!(
        matches!(results[0], Err(AnalysisError::ComputePanicked { .. })),
        "%poisoned must fail typed: {:?}",
        results[0]
    );
    let healthy = results[1].as_ref().expect("single-block CFG unaffected");
    assert!(healthy.func.to_string().contains("return"));

    // Clearing the hook heals destruction too.
    engine.set_compute_fault(None);
    let results = engine.destruct_module(&module);
    assert!(results.iter().all(|r| r.is_ok()));
}

/// The hook fires only on true compute misses — cached shapes never
/// re-enter the panicking path, so a warm engine is immune.
#[test]
fn warm_cache_is_immune_to_compute_faults() {
    let module = two_function_module();
    let dir = temp_dir("pi-warm");
    let engine = AnalysisEngine::new(EngineConfig {
        threads: 1,
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    // Warm both tiers first.
    let _ = engine.analyze(&module);
    engine.set_compute_fault(Some(Box::new(|_: &CfgShape| panic!("too late"))));
    let mut session = engine.analyze(&module);
    let func = module.func(0);
    let oracle = FunctionLiveness::compute(func);
    let v = func.params()[0];
    let b = func.block_by_index(2);
    assert_eq!(
        session.is_live_in(&module, 0, v, b),
        Ok(oracle.is_live_in(func, v, b)),
        "memory-warm shapes never recompute"
    );

    // Disk-warm is immune too: a fresh engine on the same store decodes
    // instead of computing, so the hook never fires.
    let cold = AnalysisEngine::new(EngineConfig {
        threads: 1,
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    cold.set_compute_fault(Some(Box::new(|_: &CfgShape| panic!("disk should serve"))));
    let mut session = cold.analyze(&module);
    assert_eq!(
        session.is_live_in(&module, 0, v, b),
        Ok(oracle.is_live_in(func, v, b))
    );
    assert_eq!(cold.cache_stats().disk_hits, 2);
    std::fs::remove_dir_all(&dir).ok();
}
