//! Ablations over the paper's design choices, on one 64-block
//! function:
//!
//! * §4.1 dominance-ordered iteration with subtree skipping, on vs off
//!   (Theorem 2's practical payoff). Both arms run the candidate loop
//!   that takes the flag, `baseline::is_live_in_scalar`, on dominance-biased
//!   probes (uniform probes mostly die at the `q ∉ sdom(def)`
//!   precheck); the fused `is_live_in` kernel never walks candidates,
//!   so it cannot show the ablation. Each arm also reports its total
//!   candidate visits, and skipping must visit fewer.
//! * bitset versus sorted-array storage for `R`/`T` (§6.1/§8);
//! * the loop-nesting-forest checker (§8 outlook) versus the `T` matrix;
//! * Cooper–Harvey–Kennedy versus Lengauer–Tarjan dominators (a §2
//!   prerequisite both engines share).
//!
//! Each line is the median ns per call over 30 batches of at least a
//! millisecond (3 with `--quick`).

use fastlive_bench::{batched_ns, dominance_probes, run_probes_scalar};
use fastlive_cfg::{lengauer_tarjan, DfsTree, DomTree};
use fastlive_core::baseline::{self, LoopForestChecker, SortedLivenessChecker};
use fastlive_core::LivenessChecker;
use fastlive_ir::Function;
use fastlive_workload::{generate_function, GenParams};

fn test_function() -> Function {
    let params = GenParams {
        target_blocks: 64,
        max_depth: 6,
        ..GenParams::default()
    };
    generate_function("ablate", params, 0xab1a7e).1
}

/// A deterministic batch of uniform (def, use, q) probes over the CFG.
fn uniform_probes(func: &Function) -> Vec<(u32, u32, u32)> {
    let n = func.num_blocks() as u32;
    let mut x = 0x12345678u32;
    (0..512)
        .map(|_| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x % n, (x >> 8) % n, (x >> 16) % n)
        })
        .collect()
}

fn report(id: &str, ns: f64, note: &str) {
    println!("ablation/{id:<34} median {ns:>12.1} ns/iter{note}");
}

/// Runs the suite.
pub fn run(quick: bool) {
    let samples = if quick { 3 } else { 30 };
    let func = test_function();

    // Subtree skipping on/off, on the scalar candidate loop.
    let live = LivenessChecker::compute(&func);
    let probes = dominance_probes(&live, 512, 0x12345678);
    assert_eq!(
        run_probes_scalar(&live, &probes, true),
        run_probes_scalar(&live, &probes, false),
        "skipping changed an answer"
    );
    let visits = |skip: bool| -> usize {
        probes
            .iter()
            .map(|&(d, _, q)| baseline::candidates(&live, d, q, skip).count())
            .sum()
    };
    let (skip_visits, linear_visits) = (visits(true), visits(false));
    for (id, skip, n) in [
        ("queries/subtree_skipping", true, skip_visits),
        ("queries/no_skipping", false, linear_visits),
    ] {
        let ns = batched_ns(samples, || run_probes_scalar(&live, &probes, skip));
        report(id, ns, &format!("  ({n} candidate visits)"));
    }
    assert!(
        skip_visits < linear_visits,
        "subtree skipping must visit fewer candidates ({skip_visits} vs {linear_visits})"
    );

    // Bitset vs sorted-array vs loop-forest query engines.
    let uniform = uniform_probes(&func);
    let sorted = SortedLivenessChecker::compute(&func);
    let ns = batched_ns(samples, || {
        uniform
            .iter()
            .filter(|&&(d, u, q)| sorted.is_live_in(d, &[u], q))
            .count()
    });
    report("queries/sorted_arrays", ns, "");
    if let Some(forest) = LoopForestChecker::compute(&func) {
        let ns = batched_ns(samples, || {
            uniform
                .iter()
                .filter(|&&(d, u, q)| forest.is_live_in(d, &[u], q))
                .count()
        });
        report("queries/loop_forest", ns, "");
    }

    // Dominator construction: CHK vs LT.
    let dfs = DfsTree::compute(&func);
    let chk = batched_ns(samples, || DomTree::compute(&func, &dfs));
    report("dominators/chk", chk, "");
    let lt = batched_ns(samples, || {
        lengauer_tarjan::immediate_dominators(&func, &dfs)
    });
    report("dominators/lengauer_tarjan", lt, "");
}
