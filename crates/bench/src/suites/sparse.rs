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
//! the original analysis: the ratio's spread should straddle 1.0.

use fastlive::telemetry::Json;
use fastlive::{AnalysisKind, Fastlive};
use fastlive_bench::{
    ensure, fields, host_cpus, ladder, ladder_check, ladder_rows, measure, module_header, num,
    row_set, section, Arm, SpreadField, LADDER,
};
use fastlive_ir::{FuncId, Module};
use fastlive_workload::{generate_module, ModuleParams};

fn requests_for(module: &Module, kind: AnalysisKind) -> Vec<(FuncId, AnalysisKind)> {
    (0..module.len()).map(|id| (id, kind)).collect()
}

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let (functions, rounds) = if quick { (16, 3) } else { (96, 15) };
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

    let mut rungs = Vec::new();
    for kind in AnalysisKind::ALL {
        let requests = requests_for(&module, kind);
        let (m, _) = ladder(rounds, &dir, threads, |fl| {
            fl.engine().prefetch(&module, &requests);
            requests.len()
        });
        let rows = ladder_rows(&m, &LADDER).into_iter();
        rungs.extend(rows.map(|r| r.field("kind", kind.to_string())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- no_regression: warm-memory liveness with the cache shared
    // by both kinds vs a liveness-only engine. Same capacity, same
    // module — the second analysis must not tax the first.
    let live = requests_for(&module, AnalysisKind::Liveness);
    let null = requests_for(&module, AnalysisKind::Nullness);
    let facade = || Fastlive::builder().threads(threads).build().expect("valid");
    let (solo, shared) = (facade(), facade());
    solo.engine().prefetch(&module, &live);
    shared.engine().prefetch(&module, &live);
    shared.engine().prefetch(&module, &null);
    let warm = |fl: &Fastlive| {
        fl.engine().prefetch(&module, &live);
        live.len()
    };
    let m = measure(
        rounds,
        vec![Arm::new(|| warm(&solo)), Arm::new(|| warm(&shared))],
    );

    module_header(quick, rounds, &module)
        .field("format_version", fastlive::engine::persist::FORMAT_VERSION)
        .field("sparse", rungs)
        .field(
            "no_regression",
            Json::obj()
                .spread("liveness_solo_ns", m.arm(0), 0)
                .spread("liveness_shared_cache_ns", m.arm(1), 0)
                .spread("ratio", m.ratio(1, 0), 2),
        )
}

/// The former CI schema check: keys, the full kind × scenario ladder,
/// warm memory beating cold per kind (in full runs, both warm rungs by
/// their lower quartile), and format version 2.
pub fn check(d: &Json) -> Result<(), String> {
    fields(d, "functions blocks_total format_version no_regression")?;
    let rungs = ladder_check(d, "sparse")?;
    row_set(
        rungs,
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
    for r in rungs {
        if r.get("scenario") == Some(&Json::from("warm_memory")) {
            ensure(
                num(r, "speedup_vs_cold")? > 1.0,
                format!("warm memory must beat cold: {r}"),
            )?;
        }
    }
    let keys = "liveness_solo_ns liveness_shared_cache_ns ratio";
    section(d, "no_regression", keys)?;
    ensure(num(d, "format_version")? == 2.0, "format_version must be 2")
}
