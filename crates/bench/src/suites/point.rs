//! `BENCH_point.json`: program-point query and module-destruction
//! numbers for the point-precise liveness API.
//!
//! * `point_replay` — the `live_at` records of real SSA-destruction
//!   query streams (the Budimlić interference tests the pass issued),
//!   replayed per suite against two implementations of the same
//!   query: the core **fast path**
//!   (`FunctionLiveness::is_live_at`, suffix membership scan) and the
//!   **chain-walk shim** it replaced
//!   (`baseline::is_live_at_chain_walk`, the destruct-private per-use
//!   `inst_position` walk that used to live in
//!   `crates/destruct/src/interference.rs`). Answers are asserted
//!   equal before timing; `speedup` is shim/fast, so ≥ 1.0 means the
//!   refactor did not regress the query.
//! * `destruct_module` — whole-module SSA destruction through
//!   `AnalysisEngine::destruct_module`: a cold run (every post-split
//!   shape precomputes) vs a warm rerun on the same engine (every
//!   probe hits the fingerprint cache — the JIT recompilation story),
//!   with the final cache counters including `dedup_hits`.

use fastlive::telemetry::Json;
use fastlive_bench::{
    ensure, host_cpus, median, prepare_suite, rows, section, time_ns, PreparedProc,
};
use fastlive_core::{baseline, FunctionLiveness};
use fastlive_engine::{AnalysisEngine, EngineConfig};
use fastlive_ir::{Function, ProgramPoint, Value};
use fastlive_workload::{generate_module, generate_suite, ModuleParams};

/// One function's point-query stream: the `LiveAt` records of its
/// destruction run, resolved to points.
struct PointStream {
    func: Function,
    points: Vec<(Value, ProgramPoint)>,
}

fn point_streams(prepared: Vec<PreparedProc>) -> Vec<PointStream> {
    prepared
        .into_iter()
        .map(|p| {
            let points = p
                .queries
                .iter()
                .filter_map(|q| q.point().map(|point| (q.value, point)))
                .collect();
            PointStream {
                func: p.func,
                points,
            }
        })
        .filter(|s| !s.points.is_empty())
        .collect()
}

fn replay_fast(live: &FunctionLiveness, s: &PointStream) -> usize {
    s.points
        .iter()
        .map(|&(v, p)| live.is_live_at(&s.func, v, p).expect("def exists") as usize)
        .sum()
}

fn replay_shim(live: &FunctionLiveness, s: &PointStream) -> usize {
    s.points
        .iter()
        .map(|&(v, p)| {
            baseline::is_live_at_chain_walk(live, &s.func, v, p).expect("def exists") as usize
        })
        .sum()
}

/// One suite's fast-vs-shim replay row.
fn replay_row(reps: usize, scale: u32, pi: usize) -> Json {
    let profile = &fastlive_workload::SPEC2000_INT[pi];
    let suite = generate_suite(profile, scale, 0x9015 + pi as u64);
    let streams = point_streams(prepare_suite(&suite));
    let total: usize = streams.iter().map(|s| s.points.len()).sum();
    assert!(total > 0, "destruction must issue point queries");

    let analyses: Vec<FunctionLiveness> = streams
        .iter()
        .map(|s| FunctionLiveness::compute(&s.func))
        .collect();
    // The two paths are the same function — assert before timing.
    for (live, s) in analyses.iter().zip(&streams) {
        assert_eq!(
            replay_fast(live, s),
            replay_shim(live, s),
            "{}",
            s.func.name
        );
    }
    // Interleaved A/B samples (fast, shim, fast, shim, …) so slow
    // drift in machine state biases neither side; small streams loop
    // several replays per sample to rise above timer noise.
    let iters = (100_000 / total).max(1);
    let replay_all = |replay: fn(&FunctionLiveness, &PointStream) -> usize| {
        time_ns(1, || {
            (0..iters)
                .map(|_| {
                    analyses
                        .iter()
                        .zip(&streams)
                        .map(|(live, s)| replay(live, s))
                        .sum::<usize>()
                })
                .sum::<usize>()
        })
    };
    let (mut fast, mut shim) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        fast.push(replay_all(replay_fast));
        shim.push(replay_all(replay_shim));
    }
    let fast_ns = median(fast) / iters as f64 / total as f64;
    let shim_ns = median(shim) / iters as f64 / total as f64;
    let speedup = shim_ns / fast_ns;
    Json::obj()
        .field("suite", profile.name)
        .field("procs", streams.len())
        .field("point_queries", total)
        .field("fast_ns_per_query", Json::Num(fast_ns, 1))
        .field("shim_ns_per_query", Json::Num(shim_ns, 1))
        .field("speedup", Json::Num(speedup, 2))
}

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let (scale, reps, module_functions) = if quick { (10, 3, 12) } else { (60, 9, 64) };
    // Small, medium and large Table-1 profiles.
    let replay: Json = [1usize, 4, 8]
        .into_iter()
        .map(|pi| replay_row(reps, scale, pi))
        .collect();

    // ---- Whole-module destruction: engine-cold vs engine-warm.
    let module = generate_module(
        "point_bench",
        ModuleParams {
            functions: module_functions,
            min_blocks: 6,
            max_blocks: 48,
            irreducible_per_mille: 100,
            ..ModuleParams::default()
        },
        0xbeef,
    );
    let threads = 4.min(host_cpus());
    let engine = || {
        AnalysisEngine::new(EngineConfig {
            threads,
            cache_capacity: 1024,
            ..EngineConfig::default()
        })
    };
    // Cold: a fresh engine per repetition (every shape precomputes).
    let cold_ns = time_ns(reps, || engine().destruct_module(&module).len());
    // Warm: one pre-warmed engine, rerunning the whole-module pass.
    let warm = engine();
    let _ = warm.destruct_module(&module);
    let misses_before = warm.cache_stats().misses;
    let warm_ns = time_ns(reps, || warm.destruct_module(&module).len());
    let stats = warm.cache_stats();
    assert_eq!(
        stats.misses, misses_before,
        "warm module destruction must not precompute"
    );
    let speedup = cold_ns / warm_ns;
    Json::obj()
        .field("host_cpus", host_cpus())
        .field("point_replay", replay)
        .field(
            "destruct_module",
            Json::obj()
                .field("functions", module.len())
                .field("threads", threads)
                .field("cold_ns", Json::Num(cold_ns, 0))
                .field("warm_ns", Json::Num(warm_ns, 0))
                .field("speedup", Json::Num(speedup, 2))
                .field(
                    "cache_stats",
                    Json::obj()
                        .field("hits", stats.hits)
                        .field("misses", stats.misses)
                        .field("evictions", stats.evictions)
                        .field("dedup_hits", stats.dedup_hits),
                ),
        )
}

/// The former CI schema check: keys, at least three replay rows, and
/// the destruction section with its cache counters.
pub fn check(d: &Json) -> Result<(), String> {
    d.require(&["host_cpus", "point_replay", "destruct_module"])?;
    let replay = rows(
        d,
        "point_replay",
        &[
            "suite",
            "procs",
            "point_queries",
            "fast_ns_per_query",
            "shim_ns_per_query",
            "speedup",
        ],
    )?;
    ensure(replay.len() >= 3, "point_replay needs three suites")?;
    let dm = section(
        d,
        "destruct_module",
        &[
            "functions",
            "threads",
            "cold_ns",
            "warm_ns",
            "speedup",
            "cache_stats",
        ],
    )?;
    section(
        dm,
        "cache_stats",
        &["hits", "misses", "evictions", "dedup_hits"],
    )
    .map(drop)
}
