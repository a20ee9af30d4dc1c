//! The workspace-wide equivalence battery: on generated workloads,
//! every liveness engine must agree with the brute-force Definition-2
//! oracle for every value at every block, live-in and live-out.

use fastlive::core::baseline::{LoopForestChecker, SortedLivenessChecker};
use fastlive::core::{FunctionLiveness, LivenessChecker};
use fastlive::dataflow::{oracle, IterativeLiveness, LaoLiveness, VarUniverse};
use fastlive::ir::Function;
use fastlive::workload::{generate_function, GenParams};

fn workload(seed: u64, target: usize) -> Function {
    let params = GenParams {
        target_blocks: target,
        num_params: 2 + (seed % 3) as u32,
        ..GenParams::default()
    };
    generate_function(&format!("eq{seed}"), params, seed).1
}

#[test]
fn all_engines_match_the_oracle_on_generated_functions() {
    for seed in 0..25u64 {
        let func = workload(seed, 10 + (seed as usize % 4) * 10);
        let universe = VarUniverse::all(&func);
        let checker = FunctionLiveness::compute(&func);
        let iterative = IterativeLiveness::compute(&func, &universe);
        let lao = LaoLiveness::compute(&func, &universe);
        let batch = checker.batch(&func);

        for v in func.values() {
            let var = v.index() as u32;
            for b in func.blocks() {
                let want_in = oracle::live_in_value(&func, v, b);
                let want_out = oracle::live_out_value(&func, v, b);
                assert_eq!(
                    checker.is_live_in(&func, v, b),
                    want_in,
                    "checker in {v}@{b} seed {seed}"
                );
                assert_eq!(
                    checker.is_live_out(&func, v, b),
                    want_out,
                    "checker out {v}@{b} seed {seed}"
                );
                assert_eq!(
                    iterative.is_live_in(v, b),
                    want_in,
                    "iter in {v}@{b} seed {seed}"
                );
                assert_eq!(
                    iterative.is_live_out(v, b),
                    want_out,
                    "iter out {v}@{b} seed {seed}"
                );
                assert_eq!(lao.is_live_in(v, b), want_in, "lao in {v}@{b} seed {seed}");
                assert_eq!(
                    lao.is_live_out(v, b),
                    want_out,
                    "lao out {v}@{b} seed {seed}"
                );
                assert_eq!(
                    batch.is_live_in(var, b.as_u32()),
                    want_in,
                    "batch in {v}@{b} seed {seed}"
                );
                assert_eq!(
                    batch.is_live_out(var, b.as_u32()),
                    want_out,
                    "batch out {v}@{b} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn graph_level_engines_agree_on_generated_cfgs() {
    // Drive the three graph-level checkers with raw (def, uses, q)
    // probes derived from the functions' real def-use chains.
    for seed in 40..55u64 {
        let func = workload(seed, 25);
        let bitset = LivenessChecker::compute(&func);
        let sorted = SortedLivenessChecker::compute(&func);
        let forest = LoopForestChecker::compute(&func);
        for v in func.values() {
            let def = func.def_block(v).as_u32();
            let uses: Vec<u32> = func.use_blocks(v).map(|b| b.as_u32()).collect();
            for b in func.blocks() {
                let q = b.as_u32();
                let want_in = bitset.is_live_in(def, &uses, q);
                let want_out = bitset.is_live_out(def, &uses, q);
                assert_eq!(
                    sorted.is_live_in(def, &uses, q),
                    want_in,
                    "sorted in seed {seed}"
                );
                assert_eq!(
                    sorted.is_live_out(def, &uses, q),
                    want_out,
                    "sorted out seed {seed}"
                );
                if let Some(f) = &forest {
                    assert_eq!(
                        f.is_live_in(def, &uses, q),
                        want_in,
                        "forest in seed {seed}"
                    );
                    assert_eq!(
                        f.is_live_out(def, &uses, q),
                        want_out,
                        "forest out seed {seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn phi_universe_is_a_consistent_restriction() {
    // The φ-related analysis must agree with the full analysis on every
    // variable it tracks.
    for seed in 60..70u64 {
        let func = workload(seed, 20);
        let full = LaoLiveness::compute(&func, &VarUniverse::all(&func));
        let phi_universe = VarUniverse::phi_related(&func);
        let phi = LaoLiveness::compute(&func, &phi_universe);
        for &v in phi_universe.values() {
            for b in func.blocks() {
                assert_eq!(phi.is_live_in(v, b), full.is_live_in(v, b), "seed {seed}");
                assert_eq!(phi.is_live_out(v, b), full.is_live_out(v, b), "seed {seed}");
            }
        }
        // The fill ratio shrinks when the universe shrinks (§6.2's
        // 3.16 vs 18.52 effect).
        assert!(phi.average_fill() <= full.average_fill());
    }
}

#[test]
fn average_fill_ratio_has_the_papers_ordering() {
    // Aggregated over a few functions: φ-related sets are several times
    // sparser than full-universe sets, the effect behind the paper's
    // "full liveness takes 60% longer" remark.
    let mut phi_total = 0.0;
    let mut full_total = 0.0;
    for seed in 80..90u64 {
        let func = workload(seed, 30);
        phi_total += LaoLiveness::compute(&func, &VarUniverse::phi_related(&func)).average_fill();
        full_total += LaoLiveness::compute(&func, &VarUniverse::all(&func)).average_fill();
    }
    assert!(
        full_total > phi_total * 1.5,
        "full sets should be much denser: {full_total:.2} vs {phi_total:.2}"
    );
}
