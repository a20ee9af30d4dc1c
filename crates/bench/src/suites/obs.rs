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
//! The report also records per-tier latency quantiles from an enabled
//! three-tier run (compute / disk write-through / warm-memory /
//! warm-disk) and a cross-thread exactness check: N threads × M
//! queries must leave the histograms summing to exactly N·M.

use std::sync::Arc;

use fastlive::telemetry::Json;
use fastlive::workload::{generate_module, ModuleParams};
use fastlive::{Backend, Fastlive, Module, Query, QueryEngine, Recorder, Telemetry};
use fastlive_bench::{
    column, dense_batch, ensure, mixed_batch, module_header, num, row_set, rows, section, time_ns,
    MODULE_HEADER,
};

struct Arms {
    raw_ns: f64,
    noop_ns: f64,
    telemetry_ns: f64,
}

/// Times the three arms on one workload. `scalar` picks per-query
/// dispatch vs the planner. Samples are **interleaved** round-robin
/// (raw, noop, telemetry, raw, …) so slow host-frequency drift hits
/// every arm alike, and each arm reports its *minimum* — the
/// noise-robust statistic for CPU-bound work on a shared host, where
/// every disturbance only ever adds time.
fn run_arms(
    reps: usize,
    plain: &Fastlive,
    metered: &Fastlive,
    module: &Module,
    queries: &[Query],
    scalar: bool,
) -> Arms {
    let raw_arm = || {
        time_ns(1, || {
            let mut backend = Backend::Session(plain.engine().analyze(module));
            if scalar {
                queries
                    .iter()
                    .map(|q| backend.query(module, q).is_ok() as usize)
                    .sum::<usize>()
            } else {
                backend.run_queries(module, queries).len()
            }
        })
    };
    let facade_arm = |fl: &Fastlive| {
        time_ns(1, || {
            let mut session = fl.session(module);
            if scalar {
                queries
                    .iter()
                    .map(|q| session.query(module, q).is_ok() as usize)
                    .sum::<usize>()
            } else {
                session.run_queries(module, queries).len()
            }
        })
    };
    // One untimed warmup per arm, then interleaved samples.
    raw_arm();
    facade_arm(plain);
    facade_arm(metered);
    let mut samples: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..reps {
        samples[0].push(raw_arm());
        samples[1].push(facade_arm(plain));
        samples[2].push(facade_arm(metered));
    }
    let best = |v: &Vec<f64>| v.iter().copied().fold(f64::INFINITY, f64::min);
    Arms {
        raw_ns: best(&samples[0]),
        noop_ns: best(&samples[1]),
        telemetry_ns: best(&samples[2]),
    }
}

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let reps = if quick { 3 } else { 25 };
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
    // Cap the dense sweep so one sample stays a few ms: short reps
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
        let arms = run_arms(reps, &plain, &metered, &module, queries, scalar);
        let noop_overhead = arms.noop_ns / arms.raw_ns;
        let telemetry_overhead = arms.telemetry_ns / arms.noop_ns;
        overhead.push(
            Json::obj()
                .field("workload", workload)
                .field("queries", queries.len())
                .field("raw_ns", Json::Num(arms.raw_ns, 0))
                .field("noop_ns", Json::Num(arms.noop_ns, 0))
                .field("telemetry_ns", Json::Num(arms.telemetry_ns, 0))
                .field("noop_overhead", Json::Num(noop_overhead, 3))
                .field("telemetry_overhead", Json::Num(telemetry_overhead, 3))
                .field(
                    "telemetry_ns_per_query",
                    Json::Num((arms.telemetry_ns - arms.noop_ns) / queries.len() as f64, 1),
                ),
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

    module_header(&module)
        .field("quick", quick)
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
    d.require(MODULE_HEADER)?;
    d.require(&["quick", "overhead", "tiers", "exactness"])?;
    let overhead = rows(
        d,
        "overhead",
        &[
            "workload",
            "queries",
            "raw_ns",
            "noop_ns",
            "telemetry_ns",
            "noop_overhead",
            "telemetry_overhead",
            "telemetry_ns_per_query",
        ],
    )?;
    row_set(
        overhead,
        &["workload"],
        &["grouped_dense", "grouped_mixed", "scalar_mixed"],
    )?;
    let tiers = column(
        rows(d, "tiers", &["tier", "count", "p50_ns", "p99_ns", "max_ns"])?,
        &["tier"],
    );
    for tier in ["compute", "disk_miss", "memory_hit", "disk_hit"] {
        ensure(
            tiers.contains(tier),
            format!("tier `{tier}` missing from {tiers:?}"),
        )?;
    }
    let ex = section(
        d,
        "exactness",
        &[
            "threads",
            "queries_per_thread",
            "expected",
            "recorded",
            "exact",
        ],
    )?;
    let exact = ex.get("exact") == Some(&Json::Bool(true));
    ensure(
        exact && num(ex, "recorded")? == num(ex, "expected")?,
        format!("inexact: {ex}"),
    )
}
