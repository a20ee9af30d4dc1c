//! Adversarial serialization tests (ISSUE 4): every way a cache file
//! can rot — truncation at *every* prefix length, a flip of *every*
//! bit, zero fill, version and magic bumps (with the CRC patched so
//! the version gate itself is what trips), plus ≥256 proptest cases of
//! random byte mutations — must yield a clean `disk_rejects` miss:
//! never a panic, never a wrong answer, never a partial load. After a
//! reject the engine recomputes and overwrites, leaving a valid entry
//! behind.

use fastlive_core::{FunctionLiveness, LivenessChecker};
use fastlive_dataflow::oracle;
use fastlive_engine::persist::{crc32, decode, encode_artifact, LoadOutcome, PersistStore};
use fastlive_engine::{AnalysisEngine, AnalysisKind, CfgShape, EngineConfig};
use fastlive_ir::{parse_function, parse_module};
use fastlive_workload::{generate_function, GenParams};
use proptest::prelude::*;

mod common;

/// A small function whose encoded entry still exercises every format
/// section (multi-block, loop, branch).
const SMALL_SRC: &str = "function %small { block0(v0):
        jump block1
    block1:
        brif v0, block1, block2
    block2:
        return v0 }";

fn encoded_entry(src: &str) -> (CfgShape, Vec<u8>) {
    let f = parse_function(src).expect("parses");
    let shape = CfgShape::of(&f);
    let bytes = encode_artifact(
        &shape,
        &FunctionLiveness::from_checker(LivenessChecker::compute(&shape.to_graph())),
    );
    (shape, bytes)
}

/// Re-stamps the trailing CRC so structural mutations (version bump,
/// magic change) are tested on their own gate, not masked by the
/// checksum.
fn fix_crc(bytes: &mut [u8]) {
    let n = bytes.len();
    let crc = crc32(&bytes[..n - 4]).to_le_bytes();
    bytes[n - 4..].copy_from_slice(&crc);
}

#[test]
fn every_truncation_is_rejected() {
    let (shape, bytes) = encoded_entry(SMALL_SRC);
    assert!(decode(&shape, &bytes).is_some(), "sanity: full entry loads");
    for len in 0..bytes.len() {
        assert!(
            decode(&shape, &bytes[..len]).is_none(),
            "prefix of {len}/{} bytes must be rejected",
            bytes.len()
        );
    }
    // Trailing junk is a reject too — an entry is exactly its bytes.
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(decode(&shape, &extended).is_none());
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let (shape, bytes) = encoded_entry(SMALL_SRC);
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1 << bit;
            assert!(
                decode(&shape, &mutated).is_none(),
                "flip of bit {bit} in byte {i} must be rejected"
            );
        }
    }
}

#[test]
fn zero_fill_is_rejected() {
    let (shape, bytes) = encoded_entry(SMALL_SRC);
    // Whole file zeroed (same length), empty file, and each section
    // zeroed in place.
    assert!(decode(&shape, &vec![0u8; bytes.len()]).is_none());
    assert!(decode(&shape, &[]).is_none());
    // Sections of the v2 layout: magic+version, tag+reserved, hash+k,
    // encoding+body.
    for (lo, hi) in [(0usize, 8usize), (8, 16), (16, 28), (28, bytes.len() - 4)] {
        let mut mutated = bytes.clone();
        mutated[lo..hi].fill(0);
        assert!(
            decode(&shape, &mutated).is_none(),
            "zeroed bytes {lo}..{hi} must be rejected"
        );
    }
}

#[test]
fn version_and_magic_gates_hold_even_with_a_valid_crc() {
    let (shape, bytes) = encoded_entry(SMALL_SRC);
    // Future format version, CRC re-stamped: the version gate rejects.
    let mut vbump = bytes.clone();
    vbump[4] = vbump[4].wrapping_add(1);
    fix_crc(&mut vbump);
    assert!(
        decode(&shape, &vbump).is_none(),
        "a version-crossed file must degrade to a miss"
    );
    // Wrong magic, CRC re-stamped.
    let mut mbad = bytes.clone();
    mbad[0] = b'X';
    fix_crc(&mut mbad);
    assert!(decode(&shape, &mbad).is_none());
    // Unknown analysis tag (byte 8), CRC re-stamped: the tag gate
    // rejects before any body parsing.
    let mut tbad = bytes.clone();
    tbad[8] = 99;
    fix_crc(&mut tbad);
    assert!(decode(&shape, &tbad).is_none());
    // Nonzero reserved word, CRC re-stamped.
    let mut rbad = bytes.clone();
    rbad[12] = 1;
    fix_crc(&mut rbad);
    assert!(decode(&shape, &rbad).is_none());
    // Wrong embedded hash, CRC re-stamped.
    let mut hbad = bytes.clone();
    hbad[16] ^= 0xff;
    fix_crc(&mut hbad);
    assert!(decode(&shape, &hbad).is_none());
    // A shape-encoding word changed, CRC re-stamped: the exact-identity
    // gate (not just the hash) rejects — this is the collision net.
    let mut sbad = bytes.clone();
    sbad[28] = sbad[28].wrapping_add(1);
    fix_crc(&mut sbad);
    assert!(decode(&shape, &sbad).is_none());
}

/// A CRC-valid forgery whose analysis tag was swapped to the *other*
/// kind must never decode as that kind — and at the engine level it
/// lands in `disk_rejects`, then gets overwritten by a healthy entry.
#[test]
fn a_tag_swapped_forgery_never_decodes_as_the_other_analysis() {
    use fastlive_core::NullnessArtifact;
    use fastlive_engine::persist::decode_artifact;

    let f = parse_function(SMALL_SRC).expect("parses");
    let shape = CfgShape::of(&f);

    // Liveness bytes re-tagged as nullness: the tag gate refuses them
    // even though the CRC is freshly valid. The forged body would even
    // parse as a plausible matrix — the tag must reject first.
    let mut forged_null = encode_artifact(
        &shape,
        &FunctionLiveness::from_checker(LivenessChecker::compute(&shape.to_graph())),
    );
    forged_null[8..12].copy_from_slice(&AnalysisKind::Nullness.tag().to_le_bytes());
    fix_crc(&mut forged_null);
    assert!(decode_artifact::<NullnessArtifact>(&shape, &forged_null).is_none());
    assert!(decode(&shape, &forged_null).is_none(), "nor as liveness");

    // And the mirror image: nullness bytes re-tagged as liveness.
    let art = NullnessArtifact::compute(&shape.to_graph());
    let mut forged_live = encode_artifact(&shape, &art);
    forged_live[8..12].copy_from_slice(&AnalysisKind::Liveness.tag().to_le_bytes());
    fix_crc(&mut forged_live);
    assert!(decode(&shape, &forged_live).is_none());
    assert!(decode_artifact::<NullnessArtifact>(&shape, &forged_live).is_none());

    // Engine level: plant each forgery at the kind's salted path and
    // ask for that kind — one disk_rejects each, exact recomputation,
    // healthy overwrite.
    let module = parse_module(SMALL_SRC).expect("parses");
    let dir = common::temp_dir("corrupt-tag-forgery");
    let store = PersistStore::new(&dir);
    std::fs::create_dir_all(&dir).expect("store dir");
    std::fs::write(
        store.entry_path_for(&shape, AnalysisKind::Nullness),
        &forged_null,
    )
    .expect("plant nullness forgery");
    std::fs::write(
        store.entry_path_for(&shape, AnalysisKind::Liveness),
        &forged_live,
    )
    .expect("plant liveness forgery");

    let engine = AnalysisEngine::new(EngineConfig {
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let _ = engine.analyze(&module);
    let art = engine.nullness_for(module.func(0)).expect("recomputes");
    assert!(art.is_current_for(module.func(0)));
    let stats = engine.cache_stats();
    assert_eq!(stats.disk_rejects, 2, "{stats:?}");
    assert_eq!(stats.disk_hits, 0, "{stats:?}");

    // Both paths were overwritten with valid same-kind entries.
    assert!(matches!(
        store.load_artifact::<FunctionLiveness>(&shape),
        LoadOutcome::Hit(_)
    ));
    assert!(matches!(
        store.load_artifact::<NullnessArtifact>(&shape),
        LoadOutcome::Hit(_)
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn entry_for_one_shape_never_loads_for_another() {
    let (shape_a, bytes_a) = encoded_entry(SMALL_SRC);
    let (shape_b, bytes_b) =
        encoded_entry("function %other { block0(v0): jump block1 block1: return v0 }");
    assert!(decode(&shape_b, &bytes_a).is_none());
    assert!(decode(&shape_a, &bytes_b).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// ≥256 random mutations of a larger generated entry — byte
    /// stomps, truncations, extensions — must never panic and, unless
    /// the mutation is the identity, never load.
    #[test]
    fn random_mutations_never_panic_or_load(
        seed in 0u64..64,
        kind in 0u32..3,
        a in 0usize..usize::MAX,
        b in 0u8..=255u8,
        n in 1usize..48,
    ) {
        let (_, f) = generate_function(
            "mut",
            GenParams { target_blocks: 16, ..GenParams::default() },
            seed,
        );
        let shape = CfgShape::of(&f);
        let live = FunctionLiveness::from_checker(LivenessChecker::compute(&shape.to_graph()));
        let original = encode_artifact(&shape, &live);
        let mut mutated = original.clone();
        match kind {
            // Stomp `n` pseudo-random bytes starting at a random offset.
            0 => {
                let start = a % mutated.len();
                for i in 0..n {
                    let idx = (start + i * 7) % mutated.len();
                    mutated[idx] = mutated[idx].wrapping_add(b).wrapping_add(i as u8);
                }
            }
            // Truncate to a random length.
            1 => mutated.truncate(a % mutated.len()),
            // Extend with junk.
            _ => mutated.extend(std::iter::repeat_n(b, n)),
        }
        let out = decode(&shape, &mutated); // must not panic
        if mutated != original {
            prop_assert!(out.is_none(), "a mutated entry must never load");
        } else {
            prop_assert_eq!(out.as_ref(), Some(live.checker().precomputation()));
        }
    }
}

/// Engine-level degradation: a corrupted file costs one `disk_rejects`
/// and a recomputation, answers stay exact, and the bad entry is
/// overwritten with a valid one.
#[test]
fn engine_recovers_from_corrupt_files_and_overwrites_them() {
    let module = parse_module(SMALL_SRC).expect("parses");
    let dir = common::temp_dir("corrupt-engine-recover");

    // Populate, then vandalize every entry three different ways across
    // three rounds: truncate, bit-flip, zero-fill.
    let seeder = AnalysisEngine::new(EngineConfig {
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let _ = seeder.analyze(&module);
    let store = PersistStore::new(&dir);
    let shape = CfgShape::of(module.func(0));
    let path = store.entry_path_for(&shape, AnalysisKind::Liveness);
    let valid = std::fs::read(&path).expect("entry was written");

    for (round, vandalize) in [
        (&|bytes: &[u8]| bytes[..bytes.len() / 2].to_vec()) as &dyn Fn(&[u8]) -> Vec<u8>,
        &|bytes: &[u8]| {
            let mut m = bytes.to_vec();
            m[bytes.len() / 3] ^= 0x10;
            m
        },
        &|bytes: &[u8]| vec![0u8; bytes.len()],
    ]
    .into_iter()
    .enumerate()
    {
        std::fs::write(&path, vandalize(&valid)).expect("vandalize");
        let engine = AnalysisEngine::new(EngineConfig {
            persist_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let mut session = engine.analyze(&module);
        let stats = engine.cache_stats();
        assert_eq!(stats.disk_rejects, 1, "round {round}: {stats:?}");
        assert_eq!(stats.disk_hits, 0, "round {round}: {stats:?}");
        // Exact answers despite the corruption.
        let func = module.func(0);
        for v in func.values() {
            for b in func.blocks() {
                assert_eq!(
                    session.is_live_in(&module, 0, v, b),
                    Ok(oracle::live_in_value(func, v, b)),
                    "round {round}: {v} at {b}"
                );
            }
        }
        // The reject was overwritten: the store is healthy again.
        assert!(
            matches!(
                store.load_artifact::<FunctionLiveness>(&shape),
                LoadOutcome::Hit(_)
            ),
            "round {round}: recomputation must overwrite the bad entry"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A vanished persist directory (deleted mid-flight) degrades to
/// misses and rewrites — never a panic.
#[test]
fn deleted_directory_degrades_to_misses() {
    let module = parse_module(SMALL_SRC).expect("parses");
    let dir = common::temp_dir("corrupt-deleted-dir");
    let engine = AnalysisEngine::new(EngineConfig {
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let _ = engine.analyze(&module);
    std::fs::remove_dir_all(&dir).expect("delete store out from under the engine");
    // Force a fresh probe of the same shape: new engine, same dir.
    let engine2 = AnalysisEngine::new(EngineConfig {
        persist_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let _ = engine2.analyze(&module);
    let stats = engine2.cache_stats();
    assert_eq!(stats.disk_misses, 1, "{stats:?}");
    std::fs::remove_dir_all(&dir).ok();
}
