//! The cross-process cache end to end, through the facade: one
//! `Fastlive` analyzes a module with a persist directory configured
//! (paying the precomputations and writing them through), a second —
//! standing in for tomorrow's compiler invocation — analyzes the same
//! module from a cold start and is served entirely from disk. A
//! vandalized cache file then shows the corruption policy (a clean
//! reject, a recomputation, a repaired store), and the builder's `gc`
//! flag prunes the store on the way back in.
//!
//! ```text
//! cargo run --example persistent_cache
//! ```

use fastlive::{parse_module, AnalysisKind, CfgShape, Fastlive, PersistStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = parse_module(
        "function %count { block0(v0):
             v1 = iconst 0
             jump block1(v1)
         block1(v2):
             v3 = iconst 1
             v4 = iadd v2, v3
             v5 = icmp_slt v4, v0
             brif v5, block1(v4), block2
         block2:
             return v4 }
         function %straight { block0(v0):
             v1 = imul v0, v0
             return v1 }",
    )?;
    let dir = std::env::temp_dir().join(format!("fastlive-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Process 1: cold build, write-through.
    let first = Fastlive::builder().persist_dir(&dir).build()?;
    let mut session = first.session(&module);
    let stats = first.engine().cache_stats();
    println!(
        "first engine : {} precomputations, {} written to {}",
        stats.misses,
        stats.disk_misses,
        dir.display()
    );
    println!(
        "               v0 live-in at block1 of %count: {}",
        session.is_live_in(&module, "count", "v0", "block1")?
    );

    // ---- "Process 2": a brand-new facade, cold memory, same dir.
    let second = Fastlive::builder().persist_dir(&dir).build()?;
    let mut session2 = second.session(&module);
    let stats2 = second.engine().cache_stats();
    println!(
        "second engine: {} in-memory hits, {} disk hits, {} precomputations",
        stats2.hits,
        stats2.disk_hits,
        stats2.misses - stats2.disk_hits
    );
    assert_eq!(
        session.is_live_in(&module, "count", "v0", "block1")?,
        session2.is_live_in(&module, "count", "v0", "block1")?,
        "disk-served answers are byte-identical"
    );

    // ---- Corruption: flip a byte in %count's entry.
    let store = PersistStore::new(&dir);
    let count = module.by_name("count").unwrap();
    let path = store.entry_path_for(&CfgShape::of(module.func(count)), AnalysisKind::Liveness);
    let mut bytes = std::fs::read(&path)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes)?;

    let third = Fastlive::builder().persist_dir(&dir).build()?;
    let mut session3 = third.session(&module);
    let stats3 = third.engine().cache_stats();
    println!(
        "third engine : {} disk hits, {} disk rejects (corrupt entry recomputed + overwritten)",
        stats3.disk_hits, stats3.disk_rejects
    );
    assert_eq!(stats3.disk_rejects, 1);
    assert!(
        session3.is_live_in(&module, "count", "v0", "block1")?,
        "a corrupt file can cost a recomputation, never an answer"
    );

    // The overwrite repaired the store: a fourth cold start is clean.
    let fourth = Fastlive::builder().persist_dir(&dir).build()?;
    let _ = fourth.session(&module);
    println!(
        "fourth engine: {} disk hits, {} rejects — store healed",
        fourth.engine().cache_stats().disk_hits,
        fourth.engine().cache_stats().disk_rejects
    );

    // ---- Maintenance: the builder's gc flag prunes the store at
    // build() (age- and count-bounded). A gc'd entry just recomputes —
    // one clean disk miss — and the write-through restores it.
    let pruned = Fastlive::builder().persist_dir(&dir).gc(1, None).build()?;
    let mut session5 = pruned.session(&module);
    let stats5 = pruned.engine().cache_stats();
    println!(
        "after gc(1)  : {} disk hit, {} clean recompute — answers unchanged: {}",
        stats5.disk_hits,
        stats5.disk_misses,
        session5.is_live_in(&module, "count", "v0", "block1")?
    );
    assert_eq!(stats5.disk_hits + stats5.disk_misses, 2);
    assert_eq!(stats5.disk_rejects, 0);

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
