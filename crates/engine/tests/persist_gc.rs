//! Engine-level GC acceptance (ISSUE 5 satellite): deleting persisted
//! entries is always safe. After a GC sweep prunes the store, a fresh
//! engine pointed at the same directory serves the surviving shapes as
//! `disk_hits` and pays exactly one clean `disk_misses` recomputation
//! per gc'd shape — with byte-identical answers either way — and its
//! write-through restores the store to full strength.

use std::time::Duration;

use fastlive_core::FunctionLiveness;
use fastlive_engine::persist::GcStats;
use fastlive_engine::{AnalysisEngine, EngineConfig, PersistStore};
use fastlive_ir::parse_module;
use fastlive_workload::{generate_module, ModuleParams};

mod common;
use common::{distinct_shapes, temp_dir};

fn engine_for(dir: &std::path::Path) -> AnalysisEngine {
    AnalysisEngine::new(EngineConfig {
        threads: 1,
        persist_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    })
}

#[test]
fn gcd_entry_degrades_to_one_clean_disk_miss() {
    let dir = temp_dir("persist-gc");
    let module = generate_module(
        "gc",
        ModuleParams {
            functions: 6,
            min_blocks: 4,
            max_blocks: 16,
            irreducible_per_mille: 300,
            deep_live_per_mille: 300,
        },
        0x6c5e,
    );
    let shapes = distinct_shapes(&module);
    assert!(shapes >= 2, "need several distinct shapes, got {shapes}");

    // Cold engine populates the store.
    let first = engine_for(&dir);
    let mut baseline = first.analyze(&module);
    assert_eq!(first.cache_stats().disk_misses, shapes);

    // GC down to one entry; the sweep must report the store's truth.
    let stats = first
        .gc_persist(1, None)
        .expect("persistence is configured");
    assert_eq!(
        stats,
        GcStats {
            retained: 1,
            removed: shapes as usize - 1,
        }
    );

    // A fresh engine on the pruned store: one disk hit for the
    // survivor, one clean disk-miss recomputation per gc'd shape, no
    // rejects — and answers identical to the pre-GC session and to a
    // from-scratch checker.
    let second = engine_for(&dir);
    let mut session = second.analyze(&module);
    let stats2 = second.cache_stats();
    assert_eq!(stats2.disk_hits, 1, "{stats2:?}");
    assert_eq!(stats2.disk_misses, shapes - 1, "{stats2:?}");
    assert_eq!(stats2.disk_rejects, 0, "{stats2:?}");
    for (id, func) in module.iter() {
        let oracle = FunctionLiveness::compute(func);
        for v in func.values() {
            for b in func.blocks() {
                assert_eq!(
                    session.is_live_in(&module, id, v, b),
                    Ok(oracle.is_live_in(func, v, b)),
                    "{} {v} live-in at {b}",
                    func.name
                );
                assert_eq!(
                    session.is_live_in(&module, id, v, b),
                    baseline.is_live_in(&module, id, v, b),
                );
            }
        }
    }

    // The second engine's write-through healed the store: a third cold
    // start is all disk hits again.
    let third = engine_for(&dir);
    let _ = third.analyze(&module);
    assert_eq!(third.cache_stats().disk_hits, shapes);
    assert_eq!(third.cache_stats().disk_misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_treats_mixed_analysis_kinds_as_ordinary_entries() {
    use fastlive_core::NullnessArtifact;
    use fastlive_engine::persist::LoadOutcome;
    use fastlive_engine::CfgShape;

    let dir = temp_dir("persist-gc-mixed");
    let module = parse_module(
        "function %a { block0(v0): jump block1 block1: return v0 }
         function %b { block0(v0): brif v0, block0, block1 block1: return v0 }",
    )
    .expect("parses");

    // Populate both kinds for both shapes: four entries in one store.
    let engine = engine_for(&dir);
    let _ = engine.analyze(&module);
    for (_, func) in module.iter() {
        engine.nullness_for(func).expect("computes");
    }
    let store = PersistStore::new(&dir);
    let count = || {
        std::fs::read_dir(&dir)
            .map(|d| d.filter_map(Result::ok).count())
            .unwrap_or(0)
    };
    assert_eq!(count(), 4, "two shapes x two kinds");

    // Prune to two entries: GC ranks by age alone — an analysis kind
    // is not a protected class, each file is just an entry.
    let stats = engine.gc_persist(2, None).expect("persistence configured");
    assert_eq!(
        stats,
        GcStats {
            retained: 2,
            removed: 2
        }
    );
    assert_eq!(count(), 2);

    // Whatever survived, a fresh engine degrades the gc'd kinds to
    // clean misses and write-through heals the store back to four.
    let second = engine_for(&dir);
    let mut session = second.analyze(&module);
    for (id, func) in module.iter() {
        let art = second.nullness_for(func).expect("recomputes");
        assert!(art.is_current_for(func));
        let oracle = FunctionLiveness::compute(func);
        for v in func.values() {
            for b in func.blocks() {
                assert_eq!(
                    session.is_live_in(&module, id, v, b),
                    Ok(oracle.is_live_in(func, v, b)),
                );
            }
        }
    }
    assert_eq!(second.cache_stats().disk_rejects, 0);
    assert_eq!(count(), 4, "write-through restores both kinds");
    for (_, func) in module.iter() {
        let shape = CfgShape::of(func);
        assert!(matches!(
            store.load_artifact::<FunctionLiveness>(&shape),
            LoadOutcome::Hit(_)
        ));
        assert!(matches!(
            store.load_artifact::<NullnessArtifact>(&shape),
            LoadOutcome::Hit(_)
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn age_gc_expires_everything_past_the_horizon() {
    let dir = temp_dir("persist-gc-age");
    let module = parse_module(
        "function %a { block0(v0): jump block1 block1: return v0 }
         function %b { block0(v0): brif v0, block0, block1 block1: return v0 }",
    )
    .expect("parses");
    let engine = engine_for(&dir);
    let _ = engine.analyze(&module);
    assert_eq!(engine.cache_stats().disk_misses, 2);

    // A generous horizon keeps everything; a zero horizon expires all.
    assert_eq!(
        engine.gc_persist(usize::MAX, Some(Duration::from_secs(3600))),
        Some(GcStats {
            retained: 2,
            removed: 0
        })
    );
    assert_eq!(
        engine.gc_persist(usize::MAX, Some(Duration::ZERO)),
        Some(GcStats {
            retained: 0,
            removed: 2
        })
    );
    let store = PersistStore::new(&dir);
    let shape = fastlive_engine::CfgShape::of(module.func(0));
    assert!(matches!(
        store.load_artifact::<FunctionLiveness>(&shape),
        fastlive_engine::persist::LoadOutcome::Absent
    ));

    // No persistence tier → no sweep.
    let bare = AnalysisEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    assert_eq!(bare.gc_persist(0, None), None);
    std::fs::remove_dir_all(&dir).ok();
}
