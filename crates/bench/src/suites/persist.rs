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
use fastlive_bench::{
    ensure, fields, host_cpus, ladder, ladder_check, ladder_rows, module_header, num, row_set,
    section, LADDER,
};
use fastlive_workload::{generate_module, ModuleParams};

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let (functions, rounds) = if quick { (16, 3) } else { (96, 15) };
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
    let (m, s) = ladder(rounds, &dir, 4.min(host_cpus()), |fl| {
        fl.engine().analyze(&module).num_functions()
    });
    let (entries, bytes) = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                .fold((0u64, 0u64), |(n, b), len| (n + 1, b + len))
        })
        .unwrap_or((0, 0));
    let _ = std::fs::remove_dir_all(&dir);

    module_header(quick, rounds, &module)
        .field("format_version", fastlive::engine::persist::FORMAT_VERSION)
        .field("persist", ladder_rows(&m, &LADDER))
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
/// footprint, a warm store that rejected nothing, and in full runs
/// both warm rungs beating cold.
pub fn check(d: &Json) -> Result<(), String> {
    fields(d, "functions blocks_total format_version store cache_stats")?;
    row_set(ladder_check(d, "persist")?, &["scenario"], &LADDER)?;
    section(d, "store", "entries bytes")?;
    let keys = "hits misses dedup_hits disk_hits disk_misses disk_rejects";
    let stats = section(d, "cache_stats", keys)?;
    ensure(num(stats, "disk_rejects")? == 0.0, "disk_rejects must be 0")
}
