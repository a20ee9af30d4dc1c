//! `BENCH_sparse.json`: the two-tier cost ladder measured **per
//! analysis kind** now that the engine is a generic sparse-analysis
//! platform —
//!
//! * `cold` — fresh engine, empty persist directory: every function
//!   pays the kind's precomputation *and* the write-through.
//! * `warm_disk` — fresh engine (empty memory) on the now-populated
//!   directory: every distinct fingerprint is decoded from disk, zero
//!   precomputations (`misses == disk_hits` is asserted).
//! * `warm_memory` — the same engine re-driving the kind: every probe
//!   is an in-memory hit.
//!
//! Both [`AnalysisKind`]s are driven through the same engine entry
//! point ([`prefetch`](fastlive::AnalysisEngine::prefetch), the worker
//! pool the batch planner uses), so the ladder compares kinds on equal
//! machinery.
//!
//! `no_regression` is the liveness guard: warm-memory liveness on an
//! engine whose cache also carries every nullness artifact, versus a
//! liveness-only engine. Generalizing the cache must not have taxed
//! the original analysis — the ratio sits at ~1.0.

use fastlive::telemetry::Json;
use fastlive::{AnalysisKind, Fastlive};
use fastlive_bench::{
    ensure, host_cpus, median_ns, module_header, num, row_set, rows, section, time_ns,
    MODULE_HEADER,
};
use fastlive_ir::{FuncId, Module};
use fastlive_workload::{generate_module, ModuleParams};

fn requests_for(module: &Module, kind: AnalysisKind) -> Vec<(FuncId, AnalysisKind)> {
    (0..module.len()).map(|id| (id, kind)).collect()
}

fn builder(threads: usize, dir: &std::path::Path) -> Fastlive {
    Fastlive::builder()
        .threads(threads)
        .persist_dir(dir.to_path_buf())
        .build()
        .expect("valid config")
}

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let (functions, reps) = if quick { (16, 3) } else { (96, 9) };
    let threads = 4.min(host_cpus());
    let module = generate_module(
        "sparse_bench",
        ModuleParams {
            functions,
            min_blocks: 8,
            max_blocks: 64,
            irreducible_per_mille: 100,
            deep_live_per_mille: 300,
        },
        0x5a21,
    );
    let dir = std::env::temp_dir().join(format!("fastlive-bench-sparse-{}", std::process::id()));

    let mut ladder = Vec::new();
    for kind in AnalysisKind::ALL {
        let requests = requests_for(&module, kind);
        let prefetch_fresh = || {
            builder(threads, &dir).engine().prefetch(&module, &requests);
            requests.len()
        };

        // ---- cold: fresh engine per rep, directory wiped per rep
        // (outside the timed region).
        let cold_ns = median_ns(
            reps,
            || {
                let _ = std::fs::remove_dir_all(&dir);
            },
            |()| prefetch_fresh(),
        );

        // ---- warm_disk: fresh engine per rep over the populated
        // store (the last cold rep filled it).
        let warm_disk_ns = time_ns(reps, prefetch_fresh);
        // Invariant behind the scenario label: zero precomputations,
        // zero rejects, for this kind like any other.
        let fl = builder(threads, &dir);
        let probe = fl.engine();
        probe.prefetch(&module, &requests);
        let stats = probe.cache_stats();
        assert_eq!(
            stats.misses, stats.disk_hits,
            "[{kind}] warm-disk must not precompute: {stats:?}"
        );
        assert_eq!(stats.disk_rejects, 0, "[{kind}] {stats:?}");

        // ---- warm_memory: the probe engine is now fully warm.
        let warm_mem_ns = time_ns(reps, || {
            probe.prefetch(&module, &requests);
            requests.len()
        });

        for (scenario, ns) in [
            ("cold", cold_ns),
            ("warm_disk", warm_disk_ns),
            ("warm_memory", warm_mem_ns),
        ] {
            let speedup = cold_ns / ns;
            ladder.push(
                Json::obj()
                    .field("kind", kind.to_string())
                    .field("scenario", scenario)
                    .field("analyze_ns", Json::Num(ns, 0))
                    .field("speedup_vs_cold", Json::Num(speedup, 1)),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- no_regression: warm-memory liveness with the cache shared
    // by both kinds vs a liveness-only engine. Same capacity, same
    // module — the second analysis must not tax the first.
    let live = requests_for(&module, AnalysisKind::Liveness);
    let null = requests_for(&module, AnalysisKind::Nullness);
    let solo_fl = Fastlive::builder().threads(threads).build().expect("valid");
    let solo = solo_fl.engine();
    solo.prefetch(&module, &live);
    let solo_ns = time_ns(reps, || {
        solo.prefetch(&module, &live);
        live.len()
    });
    let shared_fl = Fastlive::builder().threads(threads).build().expect("valid");
    let shared = shared_fl.engine();
    shared.prefetch(&module, &live);
    shared.prefetch(&module, &null);
    let shared_ns = time_ns(reps, || {
        shared.prefetch(&module, &live);
        live.len()
    });
    let ratio = shared_ns / solo_ns;

    module_header(&module)
        .field("format_version", fastlive::engine::persist::FORMAT_VERSION)
        .field("sparse", ladder)
        .field(
            "no_regression",
            Json::obj()
                .field("liveness_solo_ns", Json::Num(solo_ns, 0))
                .field("liveness_shared_cache_ns", Json::Num(shared_ns, 0))
                .field("ratio", Json::Num(ratio, 2)),
        )
}

/// The former CI schema check: keys, the full kind × scenario ladder,
/// warm memory beating cold per kind, and format version 2.
pub fn check(d: &Json) -> Result<(), String> {
    d.require(MODULE_HEADER)?;
    d.require(&["format_version", "sparse", "no_regression"])?;
    let ladder = rows(
        d,
        "sparse",
        &["kind", "scenario", "analyze_ns", "speedup_vs_cold"],
    )?;
    row_set(
        ladder,
        &["kind", "scenario"],
        &[
            "liveness/cold",
            "liveness/warm_disk",
            "liveness/warm_memory",
            "nullness/cold",
            "nullness/warm_disk",
            "nullness/warm_memory",
        ],
    )?;
    for r in ladder {
        if r.get("scenario") == Some(&Json::from("warm_memory")) {
            ensure(
                num(r, "speedup_vs_cold")? > 1.0,
                format!("warm memory must beat cold: {r}"),
            )?;
        }
    }
    let no_regression = ["liveness_solo_ns", "liveness_shared_cache_ns", "ratio"];
    section(d, "no_regression", &no_regression)?;
    ensure(num(d, "format_version")? == 2.0, "format_version must be 2")
}
