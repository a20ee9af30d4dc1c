//! Round-trip properties of the persistence codec (ISSUE 4): for
//! random reducible, goto-injected irreducible and deep-live modules,
//! `decode(encode(p))` must equal `p` field-for-field, and a decoded
//! cache entry must answer `is_live_in` / `is_live_out` / `is_live_at`
//! exactly like a fresh precomputation — with the iterative-dataflow
//! oracles as the independent referee. The engine-level half of the
//! acceptance criterion lives here too: a second `AnalysisEngine`
//! pointed at the same `persist_dir` serves every distinct fingerprint
//! from disk, with zero in-memory hits and byte-identical answers.

use fastlive_core::{FunctionLiveness, LivenessChecker};
use fastlive_dataflow::oracle;
use fastlive_engine::persist::{decode, encode_artifact, revive, LoadOutcome, PersistStore};
use fastlive_engine::{AnalysisEngine, CfgShape, EngineConfig};
use fastlive_ir::{parse_module, Module};
use fastlive_workload::{generate_module, ModuleParams};
use proptest::prelude::*;

mod common;
use common::{distinct_shapes, temp_dir};

fn test_module(seed: u64, irreducible_per_mille: u32, deep_live_per_mille: u32) -> Module {
    generate_module(
        "persist",
        ModuleParams {
            functions: 4,
            min_blocks: 4,
            max_blocks: 20,
            irreducible_per_mille,
            deep_live_per_mille,
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Codec identity: every generated function's precomputation
    /// round-trips bit-for-bit, and the revived checker answers every
    /// block and point query identically to a fresh computation and to
    /// the dataflow oracles.
    #[test]
    fn decode_of_encode_is_identity_and_answers_exactly(
        seed in 0u64..400,
        irr in 0u32..2,
        deep in 0u32..2,
    ) {
        let module = test_module(seed, irr * 450, deep * 600);
        for (_, func) in module.iter() {
            let shape = CfgShape::of(func);
            let live = FunctionLiveness::from_checker(LivenessChecker::compute(&shape.to_graph()));
            let bytes = encode_artifact(&shape, &live);
            let back = decode(&shape, &bytes)
                .unwrap_or_else(|| panic!("{}: own encoding must decode", func.name));
            let pre = live.checker().precomputation();
            prop_assert_eq!(&back, pre, "{}: decode(encode(p)) != p", func.name);

            let revived = revive(&shape, back).expect("dimensions match the canonical graph");
            for v in func.values() {
                for b in func.blocks() {
                    prop_assert_eq!(
                        revived.is_live_in(func, v, b),
                        oracle::live_in_value(func, v, b),
                        "{}: revived live-in {} at {}", func.name, v, b
                    );
                    prop_assert_eq!(
                        revived.is_live_out(func, v, b),
                        oracle::live_out_value(func, v, b),
                        "{}: revived live-out {} at {}", func.name, v, b
                    );
                    for p in func.block_points(b) {
                        prop_assert_eq!(
                            revived.is_live_at(func, v, p),
                            Ok(oracle::live_at_value(func, v, p)),
                            "{}: revived live-at {} at {}", func.name, v, p
                        );
                    }
                }
            }
        }
    }

    /// Store round-trip through the filesystem: save, load, compare —
    /// and a second, separately opened store on the same directory
    /// sees the same entries (the cross-process story minus the
    /// process boundary).
    #[test]
    fn store_round_trips_across_openings(seed in 0u64..200) {
        let module = test_module(seed, 300, 300);
        let dir = temp_dir(&format!("store-rt-{seed}"));
        {
            let store = PersistStore::new(&dir);
            for (_, func) in module.iter() {
                let shape = CfgShape::of(func);
                let live = FunctionLiveness::from_checker(LivenessChecker::compute(&shape.to_graph()));
                prop_assert!(store.save_artifact(&shape, &live).is_ok());
            }
        }
        let reopened = PersistStore::new(&dir);
        for (_, func) in module.iter() {
            let shape = CfgShape::of(func);
            let expect = LivenessChecker::compute(&shape.to_graph())
                .precomputation()
                .clone();
            match reopened.load_artifact::<FunctionLiveness>(&shape) {
                LoadOutcome::Hit(got) => {
                    prop_assert_eq!(got.checker().precomputation(), &expect, "{}", func.name)
                }
                other => prop_assert!(false, "{}: expected hit, got {:?}", func.name, other),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The padded row arena never leaks into the codec (PR 8): for
/// functions large enough that every matrix row carries cache-line
/// padding, the encoding still holds exactly `rows × ceil(cols/64)`
/// words per matrix — byte-length checked against the format
/// arithmetic — `decode(encode(p)) == p` bit-for-bit, and the revived
/// checker agrees with the iterative-dataflow oracle.
#[test]
fn padded_arena_never_leaks_into_the_encoding() {
    let module = generate_module(
        "padded",
        ModuleParams {
            functions: 1,
            min_blocks: 66,
            max_blocks: 80,
            irreducible_per_mille: 300,
            deep_live_per_mille: 400,
        },
        0x9a7d,
    );
    for (_, func) in module.iter() {
        let shape = CfgShape::of(func);
        let live = FunctionLiveness::from_checker(LivenessChecker::compute(&shape.to_graph()));
        let pre = live.checker().precomputation();
        let n = pre.r.rows();
        assert!(n > 64, "need multi-word rows for padding to exist");
        let words_per_row = pre.r.cols().div_ceil(64);
        // The in-memory arena is padded (rows rounded up to whole cache
        // lines, plus alignment slack) ...
        assert!(
            pre.r.heap_bytes() > n * words_per_row * 8,
            "{}: arena should carry padding",
            func.name
        );
        // ... but the packed view and the byte format are not: header
        // (magic + version + analysis tag + reserved + hash + shape
        // encoding) + two matrices of exactly rows × words_per_row
        // words + CRC.
        assert_eq!(pre.r.to_words().len(), n * words_per_row);
        let bytes = encode_artifact(&shape, &live);
        // magic(4) + version(4) + tag(4) + reserved(4) + hash(8) +
        // enc count(4) = 28 bytes.
        let expect_len = 28 + 4 * shape.encoding().len() + 2 * (8 + 8 * n * words_per_row) + 4;
        assert_eq!(bytes.len(), expect_len, "{}: padding leaked", func.name);

        let back = decode(&shape, &bytes).expect("own encoding decodes");
        assert_eq!(&back, pre, "{}: decode(encode(p)) != p", func.name);

        let revived = revive(&shape, back).expect("dimensions match");
        for v in func.values().take(12) {
            for b in func.blocks() {
                assert_eq!(
                    revived.is_live_in(func, v, b),
                    oracle::live_in_value(func, v, b),
                    "{}: revived live-in {} at {}",
                    func.name,
                    v,
                    b
                );
                assert_eq!(
                    revived.is_live_out(func, v, b),
                    oracle::live_out_value(func, v, b),
                    "{}: revived live-out {} at {}",
                    func.name,
                    v,
                    b
                );
            }
        }
    }
}

/// The acceptance criterion: a second engine on the same `persist_dir`
/// analyzes an identical module with **zero** in-memory hits (all
/// shapes distinct) but one `disk_hits` per distinct fingerprint, and
/// every answer is byte-identical to the first engine's.
#[test]
fn second_engine_is_served_entirely_from_disk() {
    // Hand-built module: four functions with pairwise distinct CFG
    // shapes (different block counts / edge relations).
    let src = "function %f1 { block0(v0): return v0 }
        function %f2 { block0(v0): jump block1 block1: return v0 }
        function %f3 { block0(v0): brif v0, block1, block2
            block1: jump block2 block2: return v0 }
        function %f4 { block0(v0): jump block1
            block1: brif v0, block1, block2 block2: return v0 }";
    let module = parse_module(src).expect("parses");
    let dir = temp_dir("second-engine");

    let first = AnalysisEngine::new(EngineConfig {
        threads: 2,
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let mut first_session = first.analyze(&module);
    let cold = first.cache_stats();
    assert_eq!(cold.misses, 4, "four distinct shapes");
    assert_eq!(cold.disk_misses, 4, "empty store: all disk misses");
    assert_eq!(cold.disk_hits, 0);
    assert_eq!(cold.disk_rejects, 0);

    // A brand-new engine — nothing shared in memory — on the same dir.
    let second = AnalysisEngine::new(EngineConfig {
        threads: 2,
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let mut second_session = second.analyze(&module);
    let warm = second.cache_stats();
    assert_eq!(warm.hits, 0, "nothing was in this engine's memory");
    assert_eq!(warm.misses, 4);
    assert_eq!(warm.disk_hits, 4, "one disk hit per distinct fingerprint");
    assert_eq!(warm.disk_misses, 0);
    assert_eq!(warm.disk_rejects, 0);
    assert_eq!(
        warm.misses,
        warm.disk_hits + warm.disk_misses + warm.disk_rejects,
        "every in-memory miss consults the disk tier exactly once"
    );

    // Byte-identical liveness answers, and both match the oracle.
    for (id, func) in module.iter() {
        for v in func.values() {
            for b in func.blocks() {
                let a = first_session.is_live_in(&module, id, v, b);
                let c = second_session.is_live_in(&module, id, v, b);
                assert_eq!(a, c, "{}: live-in {v} at {b}", func.name);
                assert_eq!(a, Ok(oracle::live_in_value(func, v, b)));
                let a = first_session.is_live_out(&module, id, v, b);
                let c = second_session.is_live_out(&module, id, v, b);
                assert_eq!(a, c, "{}: live-out {v} at {b}", func.name);
                assert_eq!(a, Ok(oracle::live_out_value(func, v, b)));
                for p in func.block_points(b) {
                    let a = first_session.is_live_at(&module, id, v, p);
                    let c = second_session.is_live_at(&module, id, v, p);
                    assert_eq!(a, c, "{}: live-at {v} at {p}", func.name);
                    assert_eq!(a, Ok(oracle::live_at_value(func, v, p)));
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Same acceptance shape on generated modules, where fingerprints may
/// repeat: the second engine's memory hits account exactly for the
/// duplicates and its disk hits for the distinct shapes.
#[test]
fn second_engine_disk_hits_count_distinct_fingerprints() {
    for seed in [7u64, 19, 23] {
        let module = test_module(seed, 350, 500);
        let distinct = distinct_shapes(&module);
        let dir = temp_dir(&format!("distinct-{seed}"));
        let first = AnalysisEngine::new(EngineConfig {
            threads: 1,
            persist_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let _ = first.analyze(&module);
        assert_eq!(first.cache_stats().disk_misses, distinct, "seed {seed}");

        let second = AnalysisEngine::new(EngineConfig {
            threads: 1,
            persist_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let _ = second.analyze(&module);
        let stats = second.cache_stats();
        assert_eq!(stats.disk_hits, distinct, "seed {seed}: {stats:?}");
        assert_eq!(
            stats.hits,
            module.len() as u64 - distinct,
            "seed {seed}: duplicates served from memory: {stats:?}"
        );
        assert_eq!(stats.disk_rejects, 0, "seed {seed}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Persistence composes with `destruct_module`: destruction populates
/// the store (keyed by post-edge-split shapes), and a fresh engine
/// destructs the same module without a single precomputation —
/// `misses - disk_hits == 0` — producing identical programs.
#[test]
fn destruct_module_round_trips_through_the_store() {
    let module = test_module(42, 250, 400);
    let dir = temp_dir("destruct-persist");
    let first = AnalysisEngine::new(EngineConfig {
        threads: 2,
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let cold = first.destruct_module(&module);

    let second = AnalysisEngine::new(EngineConfig {
        threads: 2,
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let warm = second.destruct_module(&module);
    let stats = second.cache_stats();
    assert_eq!(
        stats.misses, stats.disk_hits,
        "warm-disk destruction must precompute nothing: {stats:?}"
    );
    assert_eq!(stats.disk_misses + stats.disk_rejects, 0, "{stats:?}");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            c.as_ref().unwrap().func.to_string(),
            w.as_ref().unwrap().func.to_string()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
