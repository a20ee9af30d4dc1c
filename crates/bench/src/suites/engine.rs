//! `BENCH_engine.json`: thread-scaling and fingerprint-cache numbers
//! for the `fastlive-engine` analysis engine.
//!
//! * `thread_scaling` — wall time to precompute a whole module
//!   (caching disabled, so every function pays the full §5.2
//!   precomputation) at 1/2/4/8 worker threads, with the speedup over
//!   the single-thread run. `host_cpus` records the machine's
//!   available parallelism — scaling is physically bounded by it, so a
//!   1-core box reports ≈1× at every thread count while the same
//!   suite on a 4-core box reports the real fan-out.
//! * `fingerprint_cache` — the paper's JIT story measured: a cold
//!   analysis (every probe misses and precomputes), a warm re-analysis
//!   of the same module, and a warm analysis of a **recompiled**
//!   module (re-parsed from text: fresh `Function` objects, identical
//!   CFGs). Warm runs cost one cache probe per function; the speedup
//!   column is cold/warm.

use fastlive::telemetry::Json;
use fastlive::Fastlive;
use fastlive_bench::{host_cpus, module_header, row_set, rows, section, time_ns, MODULE_HEADER};
use fastlive_ir::parse_module;
use fastlive_workload::{generate_module, ModuleParams};

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let (functions, reps) = if quick { (16, 3) } else { (96, 9) };
    let module = generate_module(
        "engine_bench",
        ModuleParams {
            functions,
            min_blocks: 8,
            max_blocks: 64,
            irreducible_per_mille: 100,
            ..ModuleParams::default()
        },
        0xe61e,
    );

    // ---- Thread scaling: cold precompute throughput, cache disabled.
    let mut scaling = Vec::new();
    let mut base_ns = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let ns = time_ns(reps, || {
            Fastlive::builder()
                .threads(threads)
                .cache_capacity(0)
                .build()
                .expect("valid config")
                .engine()
                .analyze(&module)
                .num_functions()
        });
        if threads == 1 {
            base_ns = ns;
        }
        let speedup = base_ns / ns;
        let throughput = module.len() as f64 / (ns / 1e9);
        scaling.push(
            Json::obj()
                .field("threads", threads)
                .field("analyze_ns", Json::Num(ns, 0))
                .field("functions_per_sec", Json::Num(throughput, 0))
                .field("speedup_vs_1", Json::Num(speedup, 2)),
        );
    }

    // ---- Fingerprint cache: cold vs warm vs recompiled-warm.
    let threads = 4.min(host_cpus());
    // Cold: a fresh engine per repetition, so every probe misses.
    let cold_ns = time_ns(reps, || {
        Fastlive::builder()
            .threads(threads)
            .cache_capacity(1024)
            .build()
            .expect("valid config")
            .engine()
            .analyze(&module)
            .num_functions()
    });
    // Warm: one facade, pre-warmed, re-analyzing the same module.
    let fl = Fastlive::builder()
        .threads(threads)
        .cache_capacity(1024)
        .build()
        .expect("valid config");
    let engine = fl.engine();
    let _ = engine.analyze(&module);
    let warm_ns = time_ns(reps, || engine.analyze(&module).num_functions());
    // Recompiled: CFG-identical functions from a fresh parse.
    let recompiled = parse_module(&module.to_string()).expect("module round-trips");
    let pre_stats = engine.cache_stats();
    let recompiled_ns = time_ns(reps, || engine.analyze(&recompiled).num_functions());
    let post_stats = engine.cache_stats();
    assert_eq!(
        pre_stats.misses, post_stats.misses,
        "recompiled analysis must be all cache hits"
    );
    let cache: Json = [
        ("cold", cold_ns),
        ("warm_same_module", warm_ns),
        ("warm_recompiled", recompiled_ns),
    ]
    .into_iter()
    .map(|(scenario, ns)| {
        let speedup = cold_ns / ns;
        Json::obj()
            .field("scenario", scenario)
            .field("analyze_ns", Json::Num(ns, 0))
            .field("speedup_vs_cold", Json::Num(speedup, 1))
    })
    .collect();

    module_header(&module)
        .field("thread_scaling", scaling)
        .field("fingerprint_cache", cache)
        .field(
            "cache_stats",
            Json::obj()
                .field("hits", post_stats.hits)
                .field("misses", post_stats.misses)
                .field("evictions", post_stats.evictions),
        )
}

/// The former CI schema check: header and section keys, the three
/// cache scenarios, and the thread-scaling row keys.
pub fn check(d: &Json) -> Result<(), String> {
    d.require(MODULE_HEADER)?;
    d.require(&["thread_scaling", "fingerprint_cache", "cache_stats"])?;
    let cache = rows(
        d,
        "fingerprint_cache",
        &["scenario", "analyze_ns", "speedup_vs_cold"],
    )?;
    row_set(
        cache,
        &["scenario"],
        &["cold", "warm_same_module", "warm_recompiled"],
    )?;
    let scaling_keys = ["threads", "analyze_ns", "functions_per_sec", "speedup_vs_1"];
    rows(d, "thread_scaling", &scaling_keys)?;
    section(d, "cache_stats", &["hits", "misses", "evictions"]).map(drop)
}
