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
use fastlive_bench::{
    fields, host_cpus, ladder_check, ladder_rows, measure, module_header, row_set, rows, section,
    Arm, SpreadField,
};
use fastlive_ir::parse_module;
use fastlive_workload::{generate_module, ModuleParams};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let (functions, rounds) = if quick { (16, 3) } else { (96, 15) };
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
    let cold = |threads: usize, cache_capacity: usize| {
        Fastlive::builder()
            .threads(threads)
            .cache_capacity(cache_capacity)
            .build()
            .expect("valid config")
            .engine()
            .analyze(&module)
            .num_functions()
    };

    // ---- Thread scaling: cold precompute throughput, cache disabled.
    let arms = THREADS.iter().map(|&t| Arm::new(move || cold(t, 0)));
    let m = measure(rounds, arms.collect());
    let per_sec = |i: usize| m.per_round(|s| module.len() as f64 * 1e9 / s[i]);
    let scaling: Json = (THREADS.iter().enumerate())
        .map(|(i, &threads)| {
            Json::obj()
                .field("threads", threads)
                .spread("analyze_ns", m.arm(i), 0)
                .spread("functions_per_sec", per_sec(i), 0)
                .spread("speedup_vs_1", m.ratio(0, i), 2)
        })
        .collect();

    // ---- Fingerprint cache: cold (a fresh engine per call, so every
    // probe misses) vs warm (one pre-warmed facade re-analyzing the
    // same module) vs recompiled-warm (CFG-identical functions from a
    // fresh parse).
    let threads = 4.min(host_cpus());
    let fl = Fastlive::builder()
        .threads(threads)
        .cache_capacity(1024)
        .build()
        .expect("valid config");
    let engine = fl.engine();
    let _ = engine.analyze(&module);
    let recompiled = parse_module(&module.to_string()).expect("module round-trips");
    let pre_stats = engine.cache_stats();
    let m = measure(
        rounds,
        vec![
            Arm::new(|| cold(threads, 1024)),
            Arm::new(|| engine.analyze(&module).num_functions()),
            Arm::new(|| engine.analyze(&recompiled).num_functions()),
        ],
    );
    let post_stats = engine.cache_stats();
    assert_eq!(
        pre_stats.misses, post_stats.misses,
        "warm and recompiled analyses must be all cache hits"
    );
    let cache = ladder_rows(&m, &["cold", "warm_same_module", "warm_recompiled"]);

    module_header(quick, rounds, &module)
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
/// cache scenarios, the thread-scaling row keys, and in full runs warm
/// analyses beating cold.
pub fn check(d: &Json) -> Result<(), String> {
    fields(d, "functions blocks_total thread_scaling cache_stats")?;
    row_set(
        ladder_check(d, "fingerprint_cache")?,
        &["scenario"],
        &["cold", "warm_same_module", "warm_recompiled"],
    )?;
    let keys = "threads analyze_ns functions_per_sec speedup_vs_1";
    rows(d, "thread_scaling", keys)?;
    section(d, "cache_stats", "hits misses evictions").map(drop)
}
