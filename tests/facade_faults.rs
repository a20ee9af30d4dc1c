//! Graceful degradation through the facade: the three differential
//! arms stay byte-identical while the disk tier is under scripted fault
//! injection, a panicking precomputation surfaces as a per-query
//! [`QueryError::AnalysisFailed`] (never a crash, never contagion),
//! and [`Fastlive::health`] reflects the breaker's trip → restore
//! cycle.

use std::sync::Arc;
use std::time::Duration;

use fastlive::workload::{generate_module, ModuleParams};
use fastlive::{
    AnalysisError, BackendKind, BreakerConfig, BreakerState, Fastlive, Fault, FaultRule, FaultVfs,
    Module, OpKind, Query, QueryError,
};

fn test_module(seed: u64) -> Module {
    generate_module(
        "ff",
        ModuleParams {
            functions: 4,
            min_blocks: 4,
            max_blocks: 14,
            irreducible_per_mille: 200,
            deep_live_per_mille: 300,
        },
        seed,
    )
}

fn block_queries(module: &Module) -> Vec<Query> {
    let mut queries = Vec::new();
    for (id, func) in module.iter() {
        for v in func.values() {
            for b in func.blocks() {
                queries.push(Query::live_in(id, v, b));
                queries.push(Query::live_out(id, v, b));
            }
        }
        queries.push(Query::live_sets(id));
    }
    queries
}

/// The faulted session, a cache-less session and the oracle answer
/// byte-identically while the session backend's disk tier is being
/// actively sabotaged — fault injection degrades cost, never answers.
#[test]
fn backends_stay_byte_identical_under_disk_faults() {
    let module = test_module(77);
    let queries = block_queries(&module);
    let dir = std::env::temp_dir().join(format!("fastlive-ff-ident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A thoroughly sick disk: flaky reads, failing writes, slow stats.
    let vfs = Arc::new(FaultVfs::new(vec![
        FaultRule::window(OpKind::Read, 1, 4, Fault::eio()),
        FaultRule::window(OpKind::Write, 0, 3, Fault::enospc()),
        FaultRule::window(OpKind::Write, 5, 2, Fault::TornWrite(9)),
        FaultRule::every(OpKind::Metadata, Fault::Delay(Duration::from_micros(80))),
    ]));
    let faulted = Fastlive::builder()
        .threads(2)
        .persist_dir(dir.clone())
        .vfs(vfs)
        .disk_breaker(BreakerConfig {
            trip_threshold: 4,
            initial_backoff: Duration::from_millis(10),
            ..BreakerConfig::default()
        })
        .build()
        .expect("valid config");

    let cacheless = Fastlive::builder()
        .threads(2)
        .cache_capacity(0)
        .build()
        .expect("valid config");

    let mut session = faulted.session_with(&module, BackendKind::Session);
    let mut uncached = cacheless.session_with(&module, BackendKind::Session);
    let mut oracle = faulted.session_with(&module, BackendKind::Oracle);

    let answers_s = session.run_queries(&module, &queries);
    let answers_u = uncached.run_queries(&module, &queries);
    let answers_o = oracle.run_queries(&module, &queries);
    for ((s, u), (o, q)) in answers_s
        .iter()
        .zip(&answers_u)
        .zip(answers_o.iter().zip(&queries))
    {
        assert_eq!(s, u, "faulted vs cache-less session on {q:?}");
        assert_eq!(s, o, "session vs oracle on {q:?}");
        assert!(s.is_ok(), "disk faults must never fail a query: {q:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panicking precomputation fails only its own function's queries —
/// with `AnalysisFailed` carrying the typed error — and self-heals
/// once the fault clears.
#[test]
fn panicking_function_degrades_to_analysis_failed() {
    let module = test_module(78);
    let fl = Fastlive::builder().threads(2).build().expect("valid");
    let poisoned = fastlive::CfgShape::of(module.func(0));
    let target = poisoned.clone();
    fl.engine().set_compute_fault(Some(Box::new(move |shape| {
        if *shape == target {
            panic!("facade-injected panic");
        }
    })));

    let mut session = fl.session(&module);
    let results = session.run_queries(&module, &block_queries(&module));
    let mut failed = 0usize;
    let mut answered = 0usize;
    for r in &results {
        match r {
            Ok(_) => answered += 1,
            Err(QueryError::AnalysisFailed(AnalysisError::ComputePanicked { message })) => {
                assert!(message.contains("facade-injected panic"), "{message}");
                failed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(failed > 0, "the poisoned function's queries must fail");
    assert!(answered > 0, "other functions must keep answering");

    // Same batch against the engine-free oracle: only the poisoned
    // function differs (it answers there); every other slot matches.
    let mut oracle = fl.session_with(&module, BackendKind::Oracle);
    let oracle_results = oracle.run_queries(&module, &block_queries(&module));
    for (s, o) in results.iter().zip(&oracle_results) {
        if s.is_ok() {
            assert_eq!(s, o);
        }
    }

    // Fault cleared: the session self-heals on the next query — no
    // rebuild needed.
    fl.engine().set_compute_fault(None);
    let healed = session.run_queries(&module, &block_queries(&module));
    assert!(healed.iter().all(|r| r.is_ok()), "must self-heal");
    assert_eq!(healed, oracle_results, "healed answers are exact");
}

/// `Fastlive::health()` tracks the breaker through sick and recovered
/// phases, and reports quiescent health on a disk-less stack.
#[test]
fn health_reflects_trip_and_restore() {
    let module = test_module(79);
    let dir = std::env::temp_dir().join(format!("fastlive-ff-health-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = Arc::new(FaultVfs::new(vec![
        FaultRule::every(OpKind::Read, Fault::eio()),
        FaultRule::every(OpKind::Metadata, Fault::eio()),
        FaultRule::every(OpKind::Write, Fault::eio()),
    ]));
    let fl = Fastlive::builder()
        .threads(1)
        .cache_capacity(0) // every probe reaches the disk tier
        .persist_dir(dir.clone())
        .vfs(vfs.clone())
        .disk_breaker(BreakerConfig {
            trip_threshold: 2,
            initial_backoff: Duration::from_millis(30),
            max_backoff: Duration::from_millis(120),
            ..BreakerConfig::default()
        })
        .build()
        .expect("valid config");

    let baseline = fl.health();
    assert!(baseline.persist_configured);
    assert_eq!(baseline.disk_state, BreakerState::Closed);
    assert_eq!(baseline.disk_trips, 0);

    let _ = fl.session(&module); // analyze under a fully sick disk
    let sick = fl.health();
    assert_eq!(sick.disk_state, BreakerState::Open, "{sick:?}");
    assert!(sick.disk_trips >= 1);
    assert!(sick.cache.disk_errors >= 2);

    vfs.set_rules(vec![]);
    std::thread::sleep(Duration::from_millis(150));
    let _ = fl.session(&module); // half-open probe succeeds, tier restores
    let recovered = fl.health();
    assert_eq!(recovered.disk_state, BreakerState::Closed, "{recovered:?}");
    assert!(recovered.disk_restores >= 1, "{recovered:?}");
    assert_eq!(recovered.consecutive_disk_failures, 0);

    // A disk-less facade reports unconfigured persist and never trips.
    let memory_only = Fastlive::with_defaults();
    let _ = memory_only.session(&module);
    let h = memory_only.health();
    assert!(!h.persist_configured);
    assert_eq!(h.disk_state, BreakerState::Closed);
    assert_eq!(h.disk_trips + h.disk_restores + h.disk_probes_skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
