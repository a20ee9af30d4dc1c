//! Reproduces the §6.1 **memory break-even analysis**: "there is a
//! point where our algorithm needs more memory than the native liveness
//! algorithm ... this break-even point is reached if the number of
//! basic blocks is larger than the size of such an array".
//!
//! For a sweep of procedure sizes this suite reports the bytes used by
//!
//! * the checker's `R`+`T` bit matrices (quadratic in blocks),
//! * the same closures as sorted arrays (§6.1/§8 alternative),
//! * the loop-forest variant (no `T` matrix at all),
//! * the LAO baseline's sorted live-in/live-out arrays, for the
//!   φ-related and the full universe.
//!
//! `--quick` stops the sweep at 256 blocks.

use fastlive_core::baseline::{LoopForestChecker, SortedLivenessChecker};
use fastlive_core::LivenessChecker;
use fastlive_dataflow::{LaoLiveness, VarUniverse};
use fastlive_workload::{generate_function, GenParams};

/// Runs the suite.
pub fn run(quick: bool) {
    println!("Memory break-even (bytes of analysis storage per procedure)\n");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "blocks", "bitset R+T", "sorted R+T", "loop-forest", "LAO phi", "LAO full"
    );
    println!("{}", "-".repeat(74));

    let sweep: &[usize] = if quick {
        &[8, 16, 32, 64, 128, 256]
    } else {
        &[8, 16, 32, 64, 128, 256, 512, 1024, 2048]
    };
    for &target in sweep {
        let params = GenParams {
            target_blocks: target,
            max_depth: 3 + (target / 16).min(6) as u32,
            ..GenParams::default()
        };
        let (_, func) = generate_function(&format!("m{target}"), params, target as u64);
        let checker = LivenessChecker::compute(&func);
        let sorted = SortedLivenessChecker::compute(&func);
        let forest = LoopForestChecker::compute(&func);
        let lao_phi = LaoLiveness::compute(&func, &VarUniverse::phi_related(&func));
        let lao_full = LaoLiveness::compute(&func, &VarUniverse::all(&func));
        println!(
            "{:>7} {:>12} {:>12} {:>12} {:>12} {:>12}",
            func.num_blocks(),
            checker.matrix_heap_bytes(),
            sorted.set_heap_bytes(),
            forest
                .map(|f| f.matrix_heap_bytes().to_string())
                .unwrap_or_else(|| "irreducible".to_string()),
            lao_phi.set_heap_bytes(),
            lao_full.set_heap_bytes(),
        );
    }

    println!(
        "\nPaper's model: with 32-variable live arrays on 32-bit, arrays win \
         above ~1024 blocks;\nthe bitset columns grow quadratically while the \
         LAO columns grow with live-set mass."
    );
}
