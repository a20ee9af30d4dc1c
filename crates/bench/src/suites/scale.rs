//! `BENCH_scale.json`: cache contention — warm `analyze` throughput
//! swept over concurrent client threads.
//!
//! Every row pre-warms one facade (so the measured phase is pure cache
//! probing, zero precomputations — asserted via the engine's
//! `CacheStats`) and then times `threads` OS threads each re-analyzing
//! the same module through the shared engine, whose probes all take
//! the cache's one lock. `host_cpus` records the machine's available
//! parallelism: on a host with fewer cores than client threads the
//! extra threads time-slice, so throughput stays flat rather than
//! scaling.

use fastlive::telemetry::Json;
use fastlive::Fastlive;
use fastlive_bench::{
    ensure, fields, measure, module_header, num, row_set, rows, Arm, SpreadField,
};
use fastlive_workload::{generate_module, ModuleParams};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

const GRID_KEYS: &str = "threads analyze_ns probes_per_sec scaling_vs_1_thread";

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let (functions, rounds) = if quick { (12, 3) } else { (64, 15) };
    let module = generate_module(
        "scale_bench",
        ModuleParams {
            functions,
            min_blocks: 8,
            max_blocks: 64,
            irreducible_per_mille: 100,
            ..ModuleParams::default()
        },
        0x5ca1e,
    );

    // One pre-warmed facade per thread count. Warm analysis goes
    // through the in-memory tier only; the engine's own worker pool is
    // pinned to 1 so the measured concurrency is exactly the `threads`
    // client threads.
    let facades: Vec<Fastlive> = THREAD_SWEEP
        .iter()
        .map(|_| {
            let fl = Fastlive::builder()
                .threads(1)
                .cache_capacity(1024)
                .build()
                .expect("valid config");
            let _ = fl.engine().analyze(&module);
            fl
        })
        .collect();
    let warm: Vec<u64> = facades
        .iter()
        .map(|f| f.engine().cache_stats().misses)
        .collect();
    let m = measure(
        rounds,
        (THREAD_SWEEP.iter().zip(&facades))
            .map(|(&threads, fl)| {
                let (engine, module) = (fl.engine(), &module);
                Arm::new(move || {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..threads)
                            .map(|_| scope.spawn(|| engine.analyze(module).num_functions()))
                            .collect();
                        (handles.into_iter())
                            .map(|h| h.join().expect("no panics"))
                            .sum::<usize>()
                    })
                })
            })
            .collect(),
    );
    for (i, fl) in facades.iter().enumerate() {
        assert_eq!(
            warm[i],
            fl.engine().cache_stats().misses,
            "measured phase must be all cache hits"
        );
    }
    let grid: Vec<Json> = (THREAD_SWEEP.into_iter().enumerate())
        .map(|(i, threads)| {
            // Total warm probes per second across all client threads,
            // and that throughput over one thread's.
            let probes = (threads * module.len()) as f64;
            let scaling = m.per_round(|s| s[0] / s[i] * threads as f64);
            Json::obj()
                .field("threads", threads)
                .spread("analyze_ns", m.arm(i), 0)
                .spread("probes_per_sec", m.per_round(|s| probes * 1e9 / s[i]), 0)
                .spread("scaling_vs_1_thread", scaling, 2)
        })
        .collect();
    module_header(quick, rounds, &module)
        .field("reps", rounds)
        .field("grid", grid)
}

/// The former CI schema check: keys, one row per thread count, and
/// positive timings.
pub fn check(d: &Json) -> Result<(), String> {
    fields(d, "functions blocks_total reps grid")?;
    let grid = rows(d, "grid", GRID_KEYS)?;
    row_set(grid, &["threads"], &["1", "2", "4", "8"])?;
    ensure(num(d, "host_cpus")? >= 1.0, "host_cpus must be >= 1")?;
    for cell in grid {
        ensure(
            num(cell, "analyze_ns")? > 0.0,
            format!("empty timing: {cell}"),
        )?;
    }
    Ok(())
}
