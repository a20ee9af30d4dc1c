//! `BENCH_faults.json`: what the robustness layer costs when nothing
//! is wrong, and how fast it recovers when something is.
//!
//! * `vfs_overhead` — cold analyze (precompute + write-through) through
//!   the production `StdVfs` vs. a rule-free `FaultVfs`: the injection
//!   seam must be free on the happy path (ratio ≈ 1; compare the
//!   `cold` scenario of `BENCH_persist.json`).
//! * `recovery` — a scripted total-disk failure trips the breaker,
//!   the disk heals, and the half-open probe restores the tier: the
//!   measured trip→restore wall time tracks the configured backoff,
//!   not some hidden retry storm.
//! * `degraded` — analyze cost with the breaker open (memory-only) vs.
//!   a healthy disk-less engine: an open breaker must cost nothing over
//!   never having configured persistence. The two arms are timed in a
//!   `measure` of their own, so that neither runs right after
//!   `recovery`'s sleeping poll loop: that order alone reads as a
//!   cost.

use std::sync::Arc;
use std::time::Duration;

use fastlive::telemetry::Json;
use fastlive::{
    AnalysisEngine, BreakerConfig, BreakerState, EngineConfig, Fault, FaultRule, FaultVfs, OpKind,
};
use fastlive_bench::{
    ensure, fields, host_cpus, measure, module_header, num, section, Arm, SpreadField,
};
use fastlive_workload::{generate_module, ModuleParams};

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let (functions, rounds) = if quick { (12, 3) } else { (64, 15) };
    let threads = 4.min(host_cpus());
    let module = generate_module(
        "faults_bench",
        ModuleParams {
            functions,
            min_blocks: 8,
            max_blocks: 48,
            irreducible_per_mille: 100,
            deep_live_per_mille: 300,
        },
        0xfa17,
    );
    let dir = std::env::temp_dir().join(format!("fastlive-bench-faults-{}", std::process::id()));
    let wipe = || {
        let _ = std::fs::remove_dir_all(&dir);
    };

    // ---- vfs_overhead: cold analyze through StdVfs vs healthy
    // FaultVfs, directory wiped outside the sample.
    let cold_config = EngineConfig {
        threads,
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    // ---- recovery: trip on a fully sick disk (untimed set-up), heal,
    // then time until health() reports Closed again (polling with
    // re-analyzes is what drives the half-open probe).
    let backoff = Duration::from_millis(25);
    let sick = || {
        Arc::new(FaultVfs::new(vec![FaultRule::every(
            OpKind::Any,
            Fault::eio(),
        )]))
    };
    let tripped = || {
        wipe();
        let vfs = sick();
        let engine = AnalysisEngine::with_vfs(
            EngineConfig {
                threads,
                cache_capacity: 0, // every probe consults the disk tier
                persist_dir: Some(dir.clone()),
                disk_breaker: BreakerConfig {
                    trip_threshold: 3,
                    initial_backoff: backoff,
                    max_backoff: backoff * 8,
                    ..BreakerConfig::default()
                },
            },
            vfs.clone(),
        );
        let _ = engine.analyze(&module);
        assert_eq!(
            engine.health().disk_state,
            BreakerState::Open,
            "sick disk must trip the breaker"
        );
        vfs.set_rules(vec![]);
        engine
    };

    // ---- degraded: analyze with the breaker latched open (its disk
    // fails every operation, so it never touches `dir`) vs a disk-less
    // engine. Open-breaker probes must cost ~nothing.
    let open_engine = AnalysisEngine::with_vfs(
        EngineConfig {
            threads,
            persist_dir: Some(dir.clone()),
            disk_breaker: BreakerConfig {
                trip_threshold: 1,
                initial_backoff: Duration::from_secs(3600), // stays open
                ..BreakerConfig::default()
            },
            ..EngineConfig::default()
        },
        sick(),
    );
    let _ = open_engine.analyze(&module); // trip it
    let memory_engine = AnalysisEngine::new(EngineConfig {
        threads,
        ..EngineConfig::default()
    });
    let _ = memory_engine.analyze(&module); // warm, like open_engine

    let m = measure(
        rounds,
        vec![
            Arm::with_setup(wipe, |()| {
                let engine = AnalysisEngine::new(cold_config.clone());
                engine.analyze(&module).num_functions()
            }),
            Arm::with_setup(wipe, |()| {
                let vfs = Arc::new(FaultVfs::healthy());
                let engine = AnalysisEngine::with_vfs(cold_config.clone(), vfs);
                engine.analyze(&module).num_functions()
            }),
            Arm::with_setup(tripped, |engine| {
                while engine.health().disk_state != BreakerState::Closed {
                    let _ = engine.analyze(&module);
                    std::thread::sleep(Duration::from_millis(2));
                }
            }),
        ],
    );
    let degraded = measure(
        rounds,
        vec![
            Arm::new(|| open_engine.analyze(&module).num_functions()),
            Arm::new(|| memory_engine.analyze(&module).num_functions()),
        ],
    );
    let health = open_engine.health();
    wipe();

    module_header(quick, rounds, &module)
        .field(
            "vfs_overhead",
            Json::obj()
                .spread("std_cold_ns", m.arm(0), 0)
                .spread("fault_vfs_cold_ns", m.arm(1), 0)
                .spread("ratio", m.ratio(1, 0), 3),
        )
        .field(
            "recovery",
            Json::obj()
                .spread("trip_to_restore_ns", m.arm(2), 0)
                .field("configured_backoff_ns", backoff.as_nanos() as u64)
                .field("trip_threshold", 3u32),
        )
        .field(
            "degraded",
            Json::obj()
                .spread("open_breaker_analyze_ns", degraded.arm(0), 0)
                .spread("memory_only_analyze_ns", degraded.arm(1), 0)
                .spread("ratio", degraded.ratio(0, 1), 3),
        )
        .field(
            "health",
            Json::obj()
                .field("disk_state", format!("{:?}", health.disk_state))
                .field("disk_trips", health.disk_trips)
                .field("disk_restores", health.disk_restores)
                .field("disk_probes_skipped", health.disk_probes_skipped)
                .field("disk_errors", health.cache.disk_errors),
        )
}

/// The former CI schema check: section keys, no restore before the
/// configured backoff, and a breaker still latched open after tripping.
pub fn check(d: &Json) -> Result<(), String> {
    fields(d, "functions blocks_total")?;
    section(d, "vfs_overhead", "std_cold_ns fault_vfs_cold_ns ratio")?;
    let keys = "trip_to_restore_ns configured_backoff_ns trip_threshold";
    let rec = section(d, "recovery", keys)?;
    ensure(
        num(rec, "trip_to_restore_ns")? >= num(rec, "configured_backoff_ns")?,
        "cannot restore before the configured backoff elapses",
    )?;
    let keys = "open_breaker_analyze_ns memory_only_analyze_ns ratio";
    section(d, "degraded", keys)?;
    let keys = "disk_state disk_trips disk_restores disk_probes_skipped disk_errors";
    let h = section(d, "health", keys)?;
    let open = h.get("disk_state") == Some(&Json::from("Open"));
    ensure(
        open && num(h, "disk_trips")? >= 1.0,
        format!("breaker must stay open: {h}"),
    )
}
