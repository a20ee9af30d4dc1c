//! Scripted disk-fault campaigns against the three-tier cache: ENOSPC
//! storms, torn writes at every byte boundary, flaky reads, quarantine
//! and the circuit breaker's trip → backoff → restore cycle. The
//! standing contract under every schedule: **zero process aborts,
//! every query gets the correct answer or a typed error, and answers
//! stay byte-identical to a from-scratch analysis.**

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{distinct_shapes, temp_dir};
use fastlive_core::{FunctionLiveness, LivenessChecker};
use fastlive_engine::vfs::{Fault, FaultRule, FaultVfs, OpKind};
use fastlive_engine::{AnalysisEngine, BreakerConfig, BreakerState, CfgShape, EngineConfig};
use fastlive_ir::{parse_module, Module};
use fastlive_workload::{
    generate_campaigns, generate_module, CampaignParams, FaultOp, FaultSpec, ModuleParams,
};

fn test_module(seed: u64) -> Module {
    generate_module(
        "fi",
        ModuleParams {
            functions: 8,
            min_blocks: 4,
            max_blocks: 20,
            irreducible_per_mille: 150,
            deep_live_per_mille: 300,
        },
        seed,
    )
}

/// Every session answer equals a from-scratch per-function analysis.
fn assert_exact(engine: &AnalysisEngine, module: &Module, label: &str) {
    let mut session = engine.analyze(module);
    for (id, func) in module.iter() {
        let oracle = FunctionLiveness::compute(func);
        for v in func.values() {
            for b in func.blocks() {
                assert_eq!(
                    session.is_live_in(module, id, v, b),
                    Ok(oracle.is_live_in(func, v, b)),
                    "{label}: {} live-in {v} at {b}",
                    func.name
                );
            }
        }
    }
}

/// An unbounded ENOSPC storm on writes: nothing persists, every
/// computation still succeeds, the failures land in `disk_errors`
/// (never in `disk_rejects`), and answers stay exact.
#[test]
fn enospc_storm_never_loses_a_computation() {
    let module = test_module(1);
    let dir = temp_dir("fi-enospc");
    let fv = Arc::new(FaultVfs::new(vec![FaultRule::every(
        OpKind::Write,
        Fault::enospc(),
    )]));
    let engine = AnalysisEngine::with_vfs(
        EngineConfig {
            threads: 2,
            persist_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
        fv.clone(),
    );
    assert_exact(&engine, &module, "enospc storm");
    let stats = engine.cache_stats();
    assert_eq!(stats.disk_rejects, 0, "{stats:?}");
    assert!(
        stats.disk_errors >= distinct_shapes(&module),
        "every failed write-through must be accounted: {stats:?}"
    );
    assert!(fv.faults_injected() > 0);
    // The store holds no committed entries (tmp files were cleaned up
    // best-effort; the atomic-rename protocol never published one).
    let entries = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "flpc"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(entries, 0, "no entry may be published under ENOSPC");
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn write at **every** byte boundary of the entry: each truncated
/// prefix must decode to a clean reject (recompute + overwrite), never
/// a wrong answer, and a healthy rewrite heals the store.
#[test]
fn torn_write_at_every_boundary_is_a_clean_reject() {
    use fastlive_engine::persist::{LoadOutcome, PersistStore};
    use fastlive_engine::AnalysisKind;

    let module = parse_module(
        "function %f { block0(v0): jump block1
             block1: brif v0, block1, block2 block2: return v0 }",
    )
    .expect("parses");
    let shape = CfgShape::of(module.func(0));
    let live = FunctionLiveness::from_checker(LivenessChecker::compute(&shape.to_graph()));
    let load = |store: &PersistStore| store.load_artifact::<FunctionLiveness>(&shape);

    let dir = temp_dir("fi-torn");
    let fv = Arc::new(FaultVfs::healthy());
    let store = PersistStore::with_vfs(&dir, fv.clone());
    store.save_artifact(&shape, &live).expect("healthy save");
    let full_len = match load(&store) {
        LoadOutcome::Hit(got) => {
            assert_eq!(
                got.checker().precomputation(),
                live.checker().precomputation()
            );
            std::fs::metadata(store.entry_path_for(&shape, AnalysisKind::Liveness))
                .expect("entry exists")
                .len() as usize
        }
        other => panic!("expected hit, got {other:?}"),
    };

    for cut in 0..full_len {
        fv.set_rules(vec![FaultRule::every(OpKind::Write, Fault::TornWrite(cut))]);
        store
            .save_artifact(&shape, &live)
            .expect("a torn write lies: it reports success");
        fv.set_rules(vec![]);
        match load(&store) {
            LoadOutcome::Reject => {}
            LoadOutcome::Hit(got) => {
                panic!("cut={cut}: a {cut}-byte prefix of {full_len} decoded as a hit: {got:?}")
            }
            other => panic!("cut={cut}: expected reject, got {other:?}"),
        }
        // Healthy rewrite heals the entry.
        store.save_artifact(&shape, &live).expect("healing save");
        assert!(
            matches!(load(&store), LoadOutcome::Hit(_)),
            "cut={cut}: store must heal"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Consecutive disk errors trip the breaker (memory-only operation,
/// probes skipped), the backoff holds, and a recovered disk restores
/// the tier through a half-open probe.
#[test]
fn breaker_trips_backs_off_and_restores() {
    let module = test_module(3);
    let dir = temp_dir("fi-breaker");
    let fv = Arc::new(FaultVfs::new(vec![
        FaultRule::every(OpKind::Metadata, Fault::eio()),
        FaultRule::every(OpKind::Read, Fault::eio()),
        FaultRule::every(OpKind::Write, Fault::eio()),
    ]));
    let engine = AnalysisEngine::with_vfs(
        EngineConfig {
            threads: 1,
            cache_capacity: 0, // force every probe to the disk tier
            persist_dir: Some(dir.clone()),
            disk_breaker: BreakerConfig {
                trip_threshold: 3,
                initial_backoff: Duration::from_millis(40),
                max_backoff: Duration::from_millis(200),
                ..BreakerConfig::default()
            },
        },
        fv.clone(),
    );

    // Sick disk: answers stay exact throughout.
    assert_exact(&engine, &module, "sick disk");
    let health = engine.health();
    assert!(health.persist_configured);
    assert_eq!(health.disk_state, BreakerState::Open, "{health:?}");
    assert!(health.disk_trips >= 1, "{health:?}");
    assert!(health.cache.disk_errors >= 3, "{health:?}");

    // While open, further probes are skipped, not attempted.
    let skipped_before = engine.health().disk_probes_skipped;
    assert_exact(&engine, &module, "breaker open");
    let health = engine.health();
    assert!(
        health.disk_probes_skipped > skipped_before,
        "open breaker must skip probes: {health:?}"
    );

    // Disk recovers; after the backoff a half-open probe restores the
    // tier and write-through resumes.
    fv.set_rules(vec![]);
    std::thread::sleep(Duration::from_millis(250));
    assert_exact(&engine, &module, "recovered disk");
    let health = engine.health();
    assert_eq!(health.disk_state, BreakerState::Closed, "{health:?}");
    assert!(health.disk_restores >= 1, "{health:?}");
    assert_eq!(health.consecutive_disk_failures, 0, "{health:?}");

    // The healed tier now actually serves: committed entries exist.
    let entries = std::fs::read_dir(&dir)
        .map(|rd| rd.flatten().count())
        .unwrap_or(0);
    assert!(entries > 0, "restored tier must write entries");
    std::fs::remove_dir_all(&dir).ok();
}

/// An entry that keeps rejecting *and* cannot be overwritten is
/// quarantined after the configured streak: the disk stops being
/// probed for that one shape while everything else proceeds normally.
#[test]
fn repeatedly_rejecting_entry_is_quarantined() {
    use fastlive_engine::persist::PersistStore;
    use fastlive_engine::AnalysisKind;

    let module =
        parse_module("function %f { block0(v0): jump block1 block1: return v0 }").expect("parses");
    let shape = CfgShape::of(module.func(0));
    let dir = temp_dir("fi-quarantine");

    // Plant a sick entry, then make every overwrite fail (EACCES): the
    // engine can neither use nor heal the file.
    {
        let healthy = PersistStore::with_vfs(&dir, Arc::new(FaultVfs::healthy()));
        let live = FunctionLiveness::from_checker(LivenessChecker::compute(&shape.to_graph()));
        healthy.save_artifact(&shape, &live).expect("plant");
        let path = healthy.entry_path_for(&shape, AnalysisKind::Liveness);
        let mut bytes = std::fs::read(&path).expect("read entry");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("corrupt entry");
    }

    let fv = Arc::new(FaultVfs::new(vec![FaultRule::every(
        OpKind::Write,
        Fault::eacces(),
    )]));
    let engine = AnalysisEngine::with_vfs(
        EngineConfig {
            threads: 1,
            cache_capacity: 0, // every probe consults the disk tier
            persist_dir: Some(dir.clone()),
            disk_breaker: BreakerConfig {
                trip_threshold: 0, // isolate quarantine from the breaker
                quarantine_threshold: 2,
                ..BreakerConfig::default()
            },
        },
        fv,
    );

    let func = module.func(0);
    for _ in 0..5 {
        let live = engine.analysis_for(func).expect("compute always works");
        let oracle = FunctionLiveness::compute(func);
        for v in func.values() {
            for b in func.blocks() {
                assert_eq!(live.is_live_in(func, v, b), oracle.is_live_in(func, v, b));
            }
        }
    }
    let stats = engine.cache_stats();
    assert_eq!(
        stats.disk_rejects, 2,
        "rejects must stop at the quarantine threshold: {stats:?}"
    );
    let health = engine.health();
    assert_eq!(health.quarantined_shapes, 1, "{health:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The workload crate's generated campaigns, run end to end: translate
/// each scripted schedule onto a `FaultVfs`, analyze the campaign's own
/// module, and hold every answer to the oracle. No schedule may abort
/// the process or corrupt an answer.
#[test]
fn generated_fault_campaigns_never_corrupt_answers() {
    let campaigns = generate_campaigns(
        CampaignParams {
            campaigns: 6,
            functions: 4,
            max_blocks: 12,
            torn_bound: 48,
        },
        0xca3f,
    );
    for campaign in &campaigns {
        let module = generate_module("fc", campaign.module, campaign.module_seed);
        let rules: Vec<FaultRule> = campaign
            .events
            .iter()
            .map(|e| {
                let op = match e.op {
                    FaultOp::Read => OpKind::Read,
                    FaultOp::Write => OpKind::Write,
                    FaultOp::Rename => OpKind::Rename,
                    FaultOp::Remove => OpKind::Remove,
                    FaultOp::Metadata => OpKind::Metadata,
                    FaultOp::ReadDir => OpKind::ReadDir,
                    FaultOp::CreateDir => OpKind::CreateDir,
                    FaultOp::Any => OpKind::Any,
                };
                let fault = match e.fault {
                    FaultSpec::Errno(code) => Fault::Errno(code),
                    FaultSpec::TornWrite(n) => Fault::TornWrite(n),
                    FaultSpec::DelayMicros(us) => Fault::Delay(Duration::from_micros(us)),
                };
                FaultRule::window(op, e.skip as usize, e.count.min(1 << 20) as usize, fault)
            })
            .collect();
        let dir = temp_dir(&format!("fi-campaign-{}", campaign.name));
        let engine = AnalysisEngine::with_vfs(
            EngineConfig {
                threads: 2,
                persist_dir: Some(dir.clone()),
                disk_breaker: BreakerConfig {
                    trip_threshold: 3,
                    initial_backoff: Duration::from_millis(20),
                    ..BreakerConfig::default()
                },
                ..EngineConfig::default()
            },
            Arc::new(FaultVfs::new(rules)),
        );
        assert_exact(&engine, &module, &campaign.name);
        if campaign.expect_persistent_failure {
            let health = engine.health();
            assert!(
                health.cache.disk_errors > 0,
                "{}: a persistent-failure schedule must surface disk errors: {health:?}",
                campaign.name
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Sanity for the default configuration: a healthy `FaultVfs` behaves
/// exactly like `StdVfs` — same stats, same store contents.
#[test]
fn healthy_fault_vfs_matches_std_vfs_end_to_end() {
    let module = test_module(9);
    let dir_std = temp_dir("fi-std");
    let dir_fv = temp_dir("fi-fv");

    let std_engine = AnalysisEngine::new(EngineConfig {
        threads: 1,
        persist_dir: Some(dir_std.clone()),
        ..EngineConfig::default()
    });
    let fv_engine = AnalysisEngine::with_vfs(
        EngineConfig {
            threads: 1,
            persist_dir: Some(dir_fv.clone()),
            ..EngineConfig::default()
        },
        Arc::new(FaultVfs::healthy()),
    );
    let _ = std_engine.analyze(&module);
    let _ = fv_engine.analyze(&module);
    assert_eq!(std_engine.cache_stats(), fv_engine.cache_stats());

    let list = |d: &std::path::Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .map(|rd| {
                rd.flatten()
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    };
    assert_eq!(list(&dir_std), list(&dir_fv), "identical store contents");
    std::fs::remove_dir_all(&dir_std).ok();
    std::fs::remove_dir_all(&dir_fv).ok();
}
