//! `BENCH_obs.json`: what end-to-end telemetry costs, and what it
//! measures.
//!
//! Three arms per workload, all answering the same queries:
//!
//! * `raw` — the uninstrumented baseline: `QueryEngine` trait calls on
//!   a bare `Backend::Session`. The trait path hands the planner a
//!   `NoopRecorder` statically, so this arm predates the telemetry
//!   seam entirely.
//! * `noop` — `FastliveSession` with the default no-op recorder. The
//!   seam's disabled half: one `enabled()` check per dispatch, no
//!   clock reads. The acceptance bar is ≈1.0× against `raw`.
//! * `telemetry` — `FastliveSession` with a live `Telemetry` hub:
//!   per-kind latency histograms, tier spans, planner counters. The
//!   bar is within a few percent of `noop` on batch paths (scalar
//!   dispatch pays two clock reads per query, so its overhead is
//!   reported per-query in ns, not hidden in a ratio).
//!
//! Each ratio and the per-query difference are taken per round from
//! paired samples of one `measure`.
//!
//! The report also records per-tier latency quantiles from an enabled
//! three-tier run (compute / disk write-through / warm-memory /
//! warm-disk) and a cross-thread exactness check: N threads × M
//! queries must leave the histograms summing to exactly N·M.

use std::sync::Arc;

use fastlive::telemetry::Json;
use fastlive::workload::{generate_module, ModuleParams};
use fastlive::{Backend, Fastlive, Query, QueryEngine, Recorder, Telemetry};
use fastlive_bench::{
    column, dense_batch, ensure, fields, measure, mixed_batch, module_header, num, row_set, rows,
    section, Arm, SpreadField,
};

const OVERHEAD_KEYS: &str = "workload queries raw_ns noop_ns telemetry_ns noop_overhead \
    telemetry_overhead telemetry_ns_per_query";

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let rounds = if quick { 3 } else { 25 };
    let module = generate_module(
        "obs_bench",
        ModuleParams {
            functions: if quick { 3 } else { 6 },
            min_blocks: if quick { 12 } else { 48 },
            max_blocks: if quick { 24 } else { 96 },
            irreducible_per_mille: 500,
            deep_live_per_mille: 500,
        },
        0x00b5_e7ed,
    );

    let plain = Fastlive::builder().threads(1).build().expect("valid");
    let metered = Fastlive::builder()
        .threads(1)
        .telemetry(true)
        .build()
        .expect("valid");

    // Correctness gate before any timing: the metered stack answers
    // byte-identically to the plain one on every workload.
    let n = if quick { 512 } else { 4096 };
    // Cap the dense sweep so one sample stays a few ms: short samples
    // spread the interleaved rounds across a shared host's throttling
    // windows instead of landing whole arms inside one.
    let dense: Vec<Query> = {
        let full = dense_batch(&module);
        let stride = full.len().div_ceil(if quick { 8192 } else { 65536 }).max(1);
        full.into_iter().step_by(stride).collect()
    };
    let mixed = mixed_batch(&module, n, 600, true, 0x0b5);
    for queries in [&dense, &mixed] {
        let a = plain.session(&module).run_queries(&module, queries);
        let b = metered.session(&module).run_queries(&module, queries);
        assert_eq!(a, b, "telemetry changed answers");
    }

    // ---- Overhead arms -------------------------------------------------
    let mut overhead = Vec::new();
    for (workload, queries, scalar) in [
        ("grouped_dense", &dense, false),
        ("grouped_mixed", &mixed, false),
        ("scalar_mixed", &mixed, true),
    ] {
        // `scalar` picks per-query dispatch vs the planner.
        let raw = || {
            let mut backend = Backend::Session(plain.engine().analyze(&module));
            if scalar {
                (queries.iter())
                    .map(|q| backend.query(&module, q).is_ok() as usize)
                    .sum::<usize>()
            } else {
                backend.run_queries(&module, queries).len()
            }
        };
        let facade = |fl: &Fastlive| {
            let mut session = fl.session(&module);
            if scalar {
                (queries.iter())
                    .map(|q| session.query(&module, q).is_ok() as usize)
                    .sum::<usize>()
            } else {
                session.run_queries(&module, queries).len()
            }
        };
        let m = measure(
            rounds,
            vec![
                Arm::new(raw),
                Arm::new(|| facade(&plain)),
                Arm::new(|| facade(&metered)),
            ],
        );
        let per_query = m.per_round(|s| (s[2] - s[1]) / queries.len() as f64);
        overhead.push(
            Json::obj()
                .field("workload", workload)
                .field("queries", queries.len())
                .spread("raw_ns", m.arm(0), 0)
                .spread("noop_ns", m.arm(1), 0)
                .spread("telemetry_ns", m.arm(2), 0)
                .spread("noop_overhead", m.ratio(1, 0), 3)
                .spread("telemetry_overhead", m.ratio(2, 1), 3)
                .spread("telemetry_ns_per_query", per_query, 1),
        );
    }

    // ---- Per-tier latency quantiles ------------------------------------
    // A fresh three-tier lifecycle under one enabled hub: cold compute
    // + disk write-through, a warm-memory pass, then a cold-memory /
    // warm-disk engine over the same store.
    let dir = std::env::temp_dir().join(format!("fastlive-obs-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tiered = |dir: &std::path::Path| {
        Fastlive::builder()
            .threads(1)
            .telemetry(true)
            .persist_dir(dir)
            .build()
            .expect("valid")
    };
    let first = tiered(&dir);
    let _ = first.session(&module); // cold: compute + disk_miss + write-through
    let _ = first.session(&module); // warm: memory_hit
    let second = tiered(&dir);
    let _ = second.session(&module); // warm disk: disk_hit
    let mut tiers = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for snap in [first.telemetry(), second.telemetry()] {
        for tier in &snap.tiers {
            if tier.hist.count == 0 || seen.contains(&tier.name) {
                continue;
            }
            seen.push(tier.name);
            tiers.push(
                Json::obj()
                    .field("tier", tier.name)
                    .field("count", tier.hist.count)
                    .field("p50_ns", tier.hist.p50())
                    .field("p99_ns", tier.hist.p99())
                    .field("max_ns", tier.hist.max),
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    // ---- Cross-thread exactness ----------------------------------------
    let threads = if quick { 4 } else { 8 };
    let per_thread = if quick { 200 } else { 1000 };
    let telemetry = Arc::new(Telemetry::new());
    let storm = Fastlive::builder()
        .threads(1)
        .recorder(Arc::clone(&telemetry) as Arc<dyn Recorder>)
        .build()
        .expect("valid");
    let probe = mixed_batch(&module, per_thread, 600, true, 0xeaac7);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let storm = &storm;
            let module = &module;
            let probe = &probe;
            scope.spawn(move || {
                let mut session = storm.session(module);
                for q in probe {
                    let _ = session.query(module, q);
                }
            });
        }
    });
    let expected = (threads * per_thread) as u64;
    let recorded = telemetry.snapshot_now().total_queries();
    assert_eq!(
        recorded, expected,
        "histograms must be exact under contention"
    );

    module_header(quick, rounds, &module)
        .field("overhead", overhead)
        .field("tiers", tiers)
        .field(
            "exactness",
            Json::obj()
                .field("threads", threads)
                .field("queries_per_thread", per_thread)
                .field("expected", expected)
                .field("recorded", recorded)
                .field("exact", true),
        )
}

/// The former CI schema check: keys, the three workloads, the four
/// lifecycle tiers, and exact cross-thread histogram totals.
pub fn check(d: &Json) -> Result<(), String> {
    fields(d, "functions blocks_total overhead tiers exactness")?;
    let overhead = rows(d, "overhead", OVERHEAD_KEYS)?;
    row_set(
        overhead,
        &["workload"],
        &["grouped_dense", "grouped_mixed", "scalar_mixed"],
    )?;
    let tiers = column(
        rows(d, "tiers", "tier count p50_ns p99_ns max_ns")?,
        &["tier"],
    );
    for tier in ["compute", "disk_miss", "memory_hit", "disk_hit"] {
        ensure(
            tiers.contains(tier),
            format!("tier `{tier}` missing from {tiers:?}"),
        )?;
    }
    let keys = "threads queries_per_thread expected recorded exact";
    let ex = section(d, "exactness", keys)?;
    let exact = ex.get("exact") == Some(&Json::Bool(true));
    ensure(
        exact && num(ex, "recorded")? == num(ex, "expected")?,
        format!("inexact: {ex}"),
    )
}
