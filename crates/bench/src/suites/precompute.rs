//! Precomputation cost of every liveness engine across procedure sizes
//! — the left half of Table 2, generalized into a size sweep — and the
//! checker's precomputation alone up to 2048 blocks: the quadratic
//! behaviour §6.1/§8 warn about for "procedures with some thousand
//! blocks", measured rather than asserted.
//!
//! Each line is the median ns per call and its quartiles over
//! interleaved rounds of batches of at least a millisecond (one
//! `measure` per size: 20 rounds for the engines, 10 for the checker
//! sweep). `--quick` keeps the two smallest sizes of each sweep and
//! takes 3 rounds.

use fastlive_bench::{measure, Arm, Spread};
use fastlive_core::baseline::SortedLivenessChecker;
use fastlive_core::{FunctionLiveness, LivenessChecker};
use fastlive_dataflow::{IterativeLiveness, LaoLiveness, VarUniverse};
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

fn report(id: String, ns: Spread) {
    println!("{id:<44} median {ns:>14.1} ns/iter");
}

/// Runs the suite.
pub fn run(quick: bool) {
    let (rounds, sweep, sizes) = if quick { (3, 3, 2) } else { (20, 10, 4) };
    for target in [10usize, 36, 128, 512].into_iter().take(sizes) {
        let f = sized(
            "p",
            target,
            3 + (target / 16).min(6) as u32,
            0x9000 + target as u64,
        );
        let (phi, all) = (VarUniverse::phi_related(&f), VarUniverse::all(&f));
        let m = measure(
            rounds,
            vec![
                Arm::new(|| FunctionLiveness::compute(&f)),
                Arm::new(|| LaoLiveness::compute(&f, &phi)),
                Arm::new(|| LaoLiveness::compute(&f, &all)),
                Arm::new(|| IterativeLiveness::compute(&f, &all)),
                Arm::new(|| SortedLivenessChecker::compute(&f)),
            ],
        );
        let names = "new_checker native_lao_phi native_lao_full bitvector_full sorted_checker";
        for (i, name) in names.split_whitespace().enumerate() {
            report(format!("precompute/{name}/{}", f.num_blocks()), m.arm(i));
        }
    }
    for target in [32usize, 128, 512, 2048].into_iter().take(sizes) {
        let f = sized("s", target, 3 + (target / 16).min(8) as u32, target as u64);
        let m = measure(sweep, vec![Arm::new(|| LivenessChecker::compute(&f))]);
        let blocks = f.num_blocks();
        report(format!("scaling/checker_precompute/{blocks}"), m.arm(0));
    }
}
