//! `BENCH_persist.json`: the cost ladder of the engine's two-tier
//! cache, measured on one module —
//!
//! * `cold` — fresh engine, empty persist directory: every function
//!   pays the §5.2 precomputation *and* the write-through.
//! * `warm_disk` — fresh engine (empty memory) on the now-populated
//!   directory: every distinct fingerprint is decoded from disk, zero
//!   precomputations (`misses == disk_hits` is asserted).
//! * `warm_memory` — the same engine re-analyzing: every probe is an
//!   in-memory hit.
//!
//! `store` reports the on-disk footprint (entries, bytes) and
//! `format_version` pins the codec the numbers were taken with.

use fastlive::telemetry::Json;
use fastlive::Fastlive;
use fastlive_bench::{
    ensure, host_cpus, median_ns, module_header, num, row_set, rows, section, time_ns,
    MODULE_HEADER,
};
use fastlive_workload::{generate_module, ModuleParams};

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let (functions, reps) = if quick { (16, 3) } else { (96, 9) };
    let threads = 4.min(host_cpus());
    let module = generate_module(
        "persist_bench",
        ModuleParams {
            functions,
            min_blocks: 8,
            max_blocks: 64,
            irreducible_per_mille: 100,
            deep_live_per_mille: 300,
        },
        0x9e51,
    );
    let dir = std::env::temp_dir().join(format!("fastlive-bench-persist-{}", std::process::id()));
    let analyze = || {
        Fastlive::builder()
            .threads(threads)
            .persist_dir(dir.clone())
            .build()
            .expect("valid config")
            .engine()
            .analyze(&module)
            .num_functions()
    };

    // ---- cold: fresh engine per rep, directory wiped per rep. The
    // wipe happens *outside* the timed region — cold measures
    // precompute + write-through, not the previous rep's teardown.
    let cold_ns = median_ns(
        reps,
        || {
            let _ = std::fs::remove_dir_all(&dir);
        },
        |()| analyze(),
    );

    // ---- warm_disk: the directory stays (last cold rep populated
    // it); a fresh engine per rep has cold memory but a warm store.
    let warm_disk_ns = time_ns(reps, analyze);
    // Invariant behind the scenario label: zero precomputations.
    let fl = Fastlive::builder()
        .threads(threads)
        .persist_dir(dir.clone())
        .build()
        .expect("valid config");
    let probe = fl.engine();
    let _ = probe.analyze(&module);
    let disk_stats = probe.cache_stats();
    assert_eq!(
        disk_stats.misses, disk_stats.disk_hits,
        "warm-disk analysis must not precompute: {disk_stats:?}"
    );
    assert_eq!(disk_stats.disk_rejects, 0, "{disk_stats:?}");

    // ---- warm_memory: the probe engine is now fully warm in memory.
    let warm_mem_ns = time_ns(reps, || probe.analyze(&module).num_functions());
    let s = probe.cache_stats();

    // ---- store footprint.
    let (entries, bytes) = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                .fold((0u64, 0u64), |(n, b), len| (n + 1, b + len))
        })
        .unwrap_or((0, 0));
    let _ = std::fs::remove_dir_all(&dir);

    let ladder: Json = [
        ("cold", cold_ns),
        ("warm_disk", warm_disk_ns),
        ("warm_memory", warm_mem_ns),
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
        .field("format_version", fastlive::engine::persist::FORMAT_VERSION)
        .field("persist", ladder)
        .field(
            "store",
            Json::obj().field("entries", entries).field("bytes", bytes),
        )
        .field(
            "cache_stats",
            Json::obj()
                .field("hits", s.hits)
                .field("misses", s.misses)
                .field("dedup_hits", s.dedup_hits)
                .field("disk_hits", s.disk_hits)
                .field("disk_misses", s.disk_misses)
                .field("disk_rejects", s.disk_rejects),
        )
}

/// The former CI schema check: keys, the three-rung ladder, the store
/// footprint, and a warm store that rejected nothing.
pub fn check(d: &Json) -> Result<(), String> {
    d.require(MODULE_HEADER)?;
    d.require(&["format_version", "persist", "store", "cache_stats"])?;
    let ladder = rows(d, "persist", &["scenario", "analyze_ns", "speedup_vs_cold"])?;
    row_set(ladder, &["scenario"], &["cold", "warm_disk", "warm_memory"])?;
    section(d, "store", &["entries", "bytes"])?;
    let stats = section(
        d,
        "cache_stats",
        &[
            "hits",
            "misses",
            "dedup_hits",
            "disk_hits",
            "disk_misses",
            "disk_rejects",
        ],
    )?;
    ensure(num(stats, "disk_rejects")? == 0.0, "disk_rejects must be 0")
}
