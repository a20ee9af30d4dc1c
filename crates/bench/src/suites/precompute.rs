//! Precomputation cost of every liveness engine across procedure sizes
//! — the left half of Table 2, generalized into a size sweep — and the
//! checker's precomputation alone up to 2048 blocks: the quadratic
//! behaviour §6.1/§8 warn about for "procedures with some thousand
//! blocks", measured rather than asserted.
//!
//! Each line is the median ns per call over batches of at least a
//! millisecond (20 samples per engine, 10 for the checker sweep).
//! `--quick` keeps the two smallest sizes of each sweep and takes 3
//! samples.

use fastlive_bench::batched_ns;
use fastlive_core::baseline::SortedLivenessChecker;
use fastlive_core::{FunctionLiveness, LivenessChecker};
use fastlive_dataflow::{AppelLiveness, IterativeLiveness, LaoLiveness, VarUniverse};
use fastlive_ir::Function;
use fastlive_workload::{generate_function, GenParams};

fn sized(name: &str, target: usize, max_depth: u32, seed: u64) -> Function {
    let params = GenParams {
        target_blocks: target,
        max_depth,
        ..GenParams::default()
    };
    generate_function(&format!("{name}{target}"), params, seed).1
}

fn report(id: String, ns: f64) {
    println!("{id:<44} median {ns:>14.1} ns/iter");
}

/// Runs the suite.
pub fn run(quick: bool) {
    let (samples, sweep_samples, sizes) = if quick { (3, 3, 2) } else { (20, 10, 4) };
    for target in [10usize, 36, 128, 512].into_iter().take(sizes) {
        let f = sized(
            "p",
            target,
            3 + (target / 16).min(6) as u32,
            0x9000 + target as u64,
        );
        let (phi, all) = (VarUniverse::phi_related(&f), VarUniverse::all(&f));
        let arm = |name: &str, ns: f64| report(format!("precompute/{name}/{}", f.num_blocks()), ns);
        arm(
            "new_checker",
            batched_ns(samples, || FunctionLiveness::compute(&f)),
        );
        arm(
            "native_lao_phi",
            batched_ns(samples, || LaoLiveness::compute(&f, &phi)),
        );
        arm(
            "native_lao_full",
            batched_ns(samples, || LaoLiveness::compute(&f, &all)),
        );
        arm(
            "bitvector_full",
            batched_ns(samples, || IterativeLiveness::compute(&f, &all)),
        );
        arm(
            "appel_full",
            batched_ns(samples, || AppelLiveness::compute(&f, &all)),
        );
        arm(
            "sorted_checker",
            batched_ns(samples, || SortedLivenessChecker::compute(&f)),
        );
    }
    for target in [32usize, 128, 512, 2048].into_iter().take(sizes) {
        let f = sized("s", target, 3 + (target / 16).min(8) as u32, target as u64);
        let ns = batched_ns(sweep_samples, || LivenessChecker::compute(&f));
        report(format!("scaling/checker_precompute/{}", f.num_blocks()), ns);
    }
}
