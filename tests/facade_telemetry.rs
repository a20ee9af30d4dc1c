//! Facade-level telemetry properties: instrumentation is an
//! **observer**. Enabling it must leave every backend's answers
//! byte-identical to an uninstrumented run (the answers-never-depend-
//! on-telemetry invariant from ROADMAP.md), the snapshot's counters
//! must match the queries actually issued, and the renderings
//! (`to_json`, `to_prometheus`, `Display`) must stay well-formed.

use fastlive::workload::{generate_module, ModuleParams};
use fastlive::{
    BackendKind, EventKind, Fastlive, Module, PointRef, Query, QueryError, Response,
    TelemetrySnapshot,
};

fn test_module(seed: u64) -> Module {
    generate_module(
        "obs",
        ModuleParams {
            functions: 3,
            min_blocks: 4,
            max_blocks: 14,
            irreducible_per_mille: 250,
            deep_live_per_mille: 400,
        },
        seed,
    )
}

/// One query of every kind against the module's first function.
fn one_of_each(module: &Module) -> Vec<Query> {
    let (id, func) = module.iter().next().expect("nonempty module");
    let values: Vec<_> = func.values().collect();
    let blocks: Vec<_> = func.blocks().collect();
    vec![
        Query::live_in(id, values[0], blocks[0]),
        Query::live_out(id, values[0], blocks[0]),
        Query::live_at(id, values[0], PointRef::entry(blocks[0])),
        Query::live_sets(id),
        Query::interfere(id, values[0], *values.last().unwrap()),
    ]
}

/// A denser mixed batch across all functions (enough block probes per
/// function that the planner takes the grouped path).
fn dense_batch(module: &Module) -> Vec<Query> {
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

fn answers(
    fl: &Fastlive,
    module: &Module,
    kind: BackendKind,
    queries: &[Query],
    scalar: bool,
) -> Vec<Result<Response, QueryError>> {
    let mut session = fl.session_with(module, kind);
    if scalar {
        queries.iter().map(|q| session.query(module, q)).collect()
    } else {
        session.run_queries(module, queries)
    }
}

/// The acceptance differential: enabled-vs-noop telemetry produces
/// byte-identical responses on all three arms (cached session,
/// cache-less session, oracle), for both scalar dispatch and planned
/// batches.
#[test]
fn enabled_telemetry_never_changes_answers() {
    let facade = |cache_capacity: usize, telemetry: bool| {
        Fastlive::builder()
            .threads(1)
            .cache_capacity(cache_capacity)
            .telemetry(telemetry)
            .build()
            .unwrap()
    };
    let (plain, metered) = (facade(256, false), facade(256, true));
    let (plain_uncached, metered_uncached) = (facade(0, false), facade(0, true));
    for seed in [0xa1u64, 0xb2, 0xc3] {
        let module = test_module(seed);
        let queries = dense_batch(&module);
        for (plain, metered, kind) in [
            (&plain, &metered, BackendKind::Session),
            (&plain_uncached, &metered_uncached, BackendKind::Session),
            (&plain, &metered, BackendKind::Oracle),
        ] {
            let cache = plain.config().cache_capacity;
            for scalar in [true, false] {
                assert_eq!(
                    answers(plain, &module, kind, &queries, scalar),
                    answers(metered, &module, kind, &queries, scalar),
                    "seed {seed:#x} {kind:?} cache={cache} scalar={scalar}: \
                     telemetry is an observer"
                );
            }
        }
    }
    assert!(metered.telemetry().total_queries() > 0, "and it did record");
    assert!(metered_uncached.telemetry().total_queries() > 0);
}

/// The snapshot counts exactly what was issued: per-kind histogram
/// counts equal the per-kind query counts, the per-backend counters
/// split the same total, and planner counters match the batches run.
#[test]
fn snapshot_counters_match_issued_queries() {
    let fl = Fastlive::builder()
        .threads(1)
        .telemetry(true)
        .build()
        .unwrap();
    let module = test_module(0x77);
    let per_class = one_of_each(&module);

    // 3 rounds of scalar singles on one session, 2 on a second one,
    // 1 on the oracle.
    for (kind, rounds) in [
        (BackendKind::Session, 3usize),
        (BackendKind::Session, 2),
        (BackendKind::Oracle, 1),
    ] {
        let mut session = fl.session_with(&module, kind);
        for _ in 0..rounds {
            for q in &per_class {
                session.query(&module, q).unwrap();
            }
        }
    }
    let snap = fl.telemetry();
    assert_eq!(snap.total_queries(), 6 * 5, "6 rounds × 5 kinds");
    for kind in ["live_in", "live_out", "live_at", "live_sets", "interfere"] {
        assert_eq!(snap.query_kind(kind).unwrap().count, 6, "{kind}: {snap}");
    }
    let backend_count = |snap: &TelemetrySnapshot, name: &str| {
        snap.backend_queries
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.count)
            .unwrap_or(0)
    };
    assert_eq!(backend_count(&snap, "session"), 25);
    assert_eq!(backend_count(&snap, "oracle"), 5);
    assert_eq!(backend_count(&snap, "other"), 0);

    // Planned batches: the dense batch takes the grouped path for
    // every checker-backed function group; the oracle's groups are
    // always scalar.
    let batch = dense_batch(&module);
    fl.session_with(&module, BackendKind::Session)
        .run_queries(&module, &batch);
    fl.session_with(&module, BackendKind::Oracle)
        .run_queries(&module, &batch);
    let snap = fl.telemetry();
    assert_eq!(snap.plan.batches, 2);
    assert_eq!(snap.plan.queries, 2 * batch.len() as u64);
    assert_eq!(snap.plan.grouped_groups, module.len() as u64, "{snap}");
    assert_eq!(snap.plan.scalar_groups, module.len() as u64, "{snap}");
    assert_eq!(snap.plan.batch_size.count, 2);
    assert_eq!(snap.plan.batch_size.max, batch.len() as u64);

    // The engine tier saw the session traffic; a no-op facade would
    // have no snapshot at all (all-zero default).
    assert!(snap.total_tier_records() > 0);
    let plain = Fastlive::builder().threads(1).build().unwrap();
    plain
        .session(&module)
        .run_queries(&module, &one_of_each(&module));
    assert_eq!(plain.telemetry(), TelemetrySnapshot::default());
}

/// The enriched health report through the facade: it carries the
/// engine's cache stats and the last GC sweep, and session
/// revalidation events reach the report's event tail.
#[test]
fn health_report_is_enriched_through_the_facade() {
    let dir = std::env::temp_dir().join(format!("fastlive-obs-facade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fl = Fastlive::builder()
        .threads(1)
        .telemetry(true)
        .persist_dir(&dir)
        .build()
        .unwrap();
    let module = test_module(0x99);
    let mut session = fl.session(&module);
    session.run_queries(&module, &dense_batch(&module));

    // Edit a function's CFG and re-query: the session backend
    // revalidates and the event lands in health(). Splitting the
    // critical edge block0→block2 guarantees a shape change.
    let mut small = fastlive::parse_module(
        "function %r { block0(v0): brif v0, block1, block2
         block1: jump block2
         block2: return v0 }",
    )
    .unwrap();
    let id = small.by_name("r").unwrap();
    let mut s2 = fl.session(&small);
    s2.query(&small, &Query::live_sets(id)).unwrap();
    let created = fastlive::ir::split_critical_edges(small.func_mut(id));
    assert!(!created.is_empty(), "the edit must change the CFG");
    s2.query(&small, &Query::live_sets(id)).unwrap();

    let health = fl.health();
    assert_eq!(health.cache, fl.engine().cache_stats());
    assert!(
        health
            .recent_events
            .iter()
            .any(|e| e.kind == EventKind::SessionRevalidated),
        "revalidation reached the event tail: {health}"
    );

    let gc = fl.gc_persist(Some(fastlive::GcPolicy {
        max_entries: 0,
        max_age: None,
    }));
    let health = fl.health();
    assert_eq!(health.last_gc, gc, "the sweep's stats are carried");
    std::fs::remove_dir_all(&dir).ok();
}

/// Rendering sanity: JSON stays balanced and quoted, the Prometheus
/// exposition carries the metric families, Display round-trips the
/// headline numbers, and `HealthReport::to_json` nests the snapshot's
/// building blocks.
#[test]
fn renderings_are_well_formed() {
    let fl = Fastlive::builder()
        .threads(1)
        .telemetry(true)
        .build()
        .unwrap();
    let module = test_module(0x42);
    fl.session(&module)
        .run_queries(&module, &dense_batch(&module));
    let snap = fl.telemetry();

    let json = snap.to_json().to_string();
    let mut depth = 0i64;
    let mut in_str = false;
    let mut prev = '\0';
    for c in json.chars() {
        match c {
            '"' if prev != '\\' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "balanced at every prefix");
        prev = if prev == '\\' && c == '\\' { '\0' } else { c };
    }
    assert_eq!(depth, 0, "balanced JSON");
    assert!(!in_str, "closed strings");
    assert!(json.contains("\"queries\"") && json.contains("\"tiers\""));

    let prom = snap.to_prometheus();
    for family in [
        "fastlive_query_latency_ns",
        "fastlive_tier_latency_ns",
        "fastlive_plan_queries_total",
    ] {
        assert!(prom.contains(family), "{family} missing:\n{prom}");
    }

    let display = format!("{snap}");
    assert!(display.contains("queries"), "{display}");

    let health_json = fl.health().to_json().to_string();
    assert!(health_json.contains("\"disk_state\""));
    assert!(health_json.contains("\"cache\""));
}
