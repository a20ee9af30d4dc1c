//! Emits `BENCH_obs.json`: what end-to-end telemetry costs, and what
//! it measures.
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
//! The file also records per-tier latency quantiles from an enabled
//! three-tier run (compute / disk write-through / warm-memory /
//! warm-disk) and a cross-thread exactness check: N threads × M
//! queries must leave the histograms summing to exactly N·M.
//!
//! ```text
//! cargo run --release -p fastlive-bench --bin bench_obs_json [--quick] [OUT.json]
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use fastlive::workload::{generate_module, ModuleParams};
use fastlive::{
    Backend, Block, Fastlive, Module, PointRef, Query, QueryEngine, Recorder, Telemetry, Value,
};
use fastlive_bench::time_ns;

fn module_blocks(m: &Module) -> usize {
    m.functions().iter().map(|f| f.num_blocks()).sum()
}

/// `LiveIn` + `LiveOut` for every `(value, block)` pair — the planner's
/// grouped fast path.
fn dense_batch(module: &Module) -> Vec<Query> {
    let mut queries = Vec::new();
    for (id, func) in module.iter() {
        for v in func.values() {
            for b in func.blocks() {
                queries.push(Query::live_in(id, v, b));
                queries.push(Query::live_out(id, v, b));
            }
        }
    }
    queries
}

/// A deterministic mixed stream: block probes plus the `LiveAt` /
/// `Interfere` / `LiveSets` sprinkle — the scalar dispatch workload.
fn mixed_batch(module: &Module, n: usize, seed: u64) -> Vec<Query> {
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize % bound.max(1)
    };
    let mut queries = Vec::with_capacity(n);
    while queries.len() < n {
        let id = next(module.len());
        let func = module.func(id);
        let value = Value::from_index(next(func.num_values()));
        let block = Block::from_index(next(func.num_blocks()));
        let roll = next(1000);
        queries.push(if roll < 600 {
            if roll % 2 == 0 {
                Query::live_in(id, value, block)
            } else {
                Query::live_out(id, value, block)
            }
        } else if roll % 3 == 0 && func.num_values() >= 2 {
            let w = Value::from_index(next(func.num_values()));
            Query::interfere(id, value, w)
        } else if roll % 31 == 0 {
            Query::live_sets(id)
        } else {
            let len = func.block_insts(block).len();
            if len == 0 {
                Query::live_at(id, value, PointRef::entry(block))
            } else {
                Query::live_at(id, value, PointRef::after(block, next(len)))
            }
        });
    }
    queries
}

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

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_obs.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            out_path = arg;
        }
    }
    let reps = if quick { 3 } else { 25 };
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

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
    let blocks = module_blocks(&module);
    eprintln!(
        "module: {} functions, {blocks} blocks total, host_cpus={host_cpus}",
        module.len()
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
    let mixed = mixed_batch(&module, n, 0x0b5);
    for queries in [&dense, &mixed] {
        let a = plain.session(&module).run_queries(&module, queries);
        let b = metered.session(&module).run_queries(&module, queries);
        assert_eq!(a, b, "telemetry changed answers");
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"host_cpus\": {host_cpus},\n  \"functions\": {},\n  \"blocks_total\": {blocks},\n  \"quick\": {quick},",
        module.len()
    );

    // ---- Overhead arms -------------------------------------------------
    json.push_str("  \"overhead\": [\n");
    let rows: Vec<(&str, &Vec<Query>, bool)> = vec![
        ("grouped_dense", &dense, false),
        ("grouped_mixed", &mixed, false),
        ("scalar_mixed", &mixed, true),
    ];
    for (i, (workload, queries, scalar)) in rows.iter().enumerate() {
        let arms = run_arms(reps, &plain, &metered, &module, queries, *scalar);
        let n = queries.len() as f64;
        let noop_overhead = arms.noop_ns / arms.raw_ns;
        let telemetry_overhead = arms.telemetry_ns / arms.noop_ns;
        let telemetry_ns_per_query = (arms.telemetry_ns - arms.noop_ns) / n;
        let _ = write!(
            json,
            "{}    {{\"workload\": \"{workload}\", \"queries\": {}, \
             \"raw_ns\": {:.0}, \"noop_ns\": {:.0}, \"telemetry_ns\": {:.0}, \
             \"noop_overhead\": {noop_overhead:.3}, \
             \"telemetry_overhead\": {telemetry_overhead:.3}, \
             \"telemetry_ns_per_query\": {telemetry_ns_per_query:.1}}}",
            if i == 0 { "" } else { ",\n" },
            queries.len(),
            arms.raw_ns,
            arms.noop_ns,
            arms.telemetry_ns,
        );
        eprintln!(
            "{workload:<14} n={:>6}: raw {:>12.0} ns, noop {:>12.0} ns ({noop_overhead:.3}x), \
             telemetry {:>12.0} ns ({telemetry_overhead:.3}x)",
            queries.len(),
            arms.raw_ns,
            arms.noop_ns,
            arms.telemetry_ns,
        );
    }
    json.push_str("\n  ],\n");

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
    json.push_str("  \"tiers\": [\n");
    let mut wrote = 0usize;
    let mut seen: Vec<&str> = Vec::new();
    for snap in [first.telemetry(), second.telemetry()] {
        for tier in &snap.tiers {
            if tier.hist.count == 0 || seen.contains(&tier.name) {
                continue;
            }
            seen.push(tier.name);
            let _ = write!(
                json,
                "{}    {{\"tier\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                if wrote == 0 { "" } else { ",\n" },
                tier.name,
                tier.hist.count,
                tier.hist.p50(),
                tier.hist.p99(),
                tier.hist.max,
            );
            wrote += 1;
        }
    }
    json.push_str("\n  ],\n");
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
    let probe = mixed_batch(&module, per_thread, 0xeaac7);
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
    let snap = telemetry.snapshot_now();
    let expected = (threads * per_thread) as u64;
    let recorded = snap.total_queries();
    assert_eq!(
        recorded, expected,
        "histograms must be exact under contention"
    );
    let _ = writeln!(
        json,
        "  \"exactness\": {{\"threads\": {threads}, \"queries_per_thread\": {per_thread}, \
         \"expected\": {expected}, \"recorded\": {recorded}, \"exact\": true}}"
    );
    json.push('}');
    json.push('\n');

    std::fs::write(&out_path, &json).expect("write BENCH_obs.json");
    println!("wrote {out_path}");
}
