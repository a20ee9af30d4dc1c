//! Randomized agreement battery for the baseline engines, driven by the
//! workload generator (a dev-dependency; the production dependency
//! graph stays acyclic).

use fastlive_dataflow::{oracle, IterativeLiveness, LaoLiveness, VarUniverse};
use fastlive_workload::{generate_function, GenParams};

#[test]
fn engines_agree_with_oracle_across_sizes_and_shapes() {
    for seed in 0..20u64 {
        let params = GenParams {
            target_blocks: 6 + (seed as usize % 6) * 9,
            num_params: 1 + (seed % 4) as u32,
            loop_percent: 15 + (seed % 4) * 15,
            ..GenParams::default()
        };
        let (_, func) = generate_function(&format!("ra{seed}"), params, seed);
        let u = VarUniverse::all(&func);
        let iter = IterativeLiveness::compute(&func, &u);
        let lao = LaoLiveness::compute(&func, &u);
        for v in func.values() {
            for b in func.blocks() {
                let want_in = oracle::live_in_value(&func, v, b);
                let want_out = oracle::live_out_value(&func, v, b);
                assert_eq!(
                    iter.is_live_in(v, b),
                    want_in,
                    "iter in {v}@{b} seed {seed}"
                );
                assert_eq!(lao.is_live_in(v, b), want_in, "lao in {v}@{b} seed {seed}");
                assert_eq!(
                    iter.is_live_out(v, b),
                    want_out,
                    "iter out {v}@{b} seed {seed}"
                );
                assert_eq!(
                    lao.is_live_out(v, b),
                    want_out,
                    "lao out {v}@{b} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn solver_statistics_behave_sanely() {
    // Loop-free programs converge without re-relaxation; loopier
    // programs do more work; insertions track live-set mass.
    let flat = generate_function(
        "flat",
        GenParams {
            target_blocks: 20,
            loop_percent: 0,
            ..GenParams::default()
        },
        7,
    )
    .1;
    let loopy = generate_function(
        "loopy",
        GenParams {
            target_blocks: 20,
            loop_percent: 80,
            ..GenParams::default()
        },
        7,
    )
    .1;
    let u_flat = VarUniverse::all(&flat);
    let u_loopy = VarUniverse::all(&loopy);
    let s_flat = IterativeLiveness::compute(&flat, &u_flat);
    let s_loopy = IterativeLiveness::compute(&loopy, &u_loopy);
    // A loop-free CFG needs exactly one relaxation per block.
    assert_eq!(s_flat.relaxations, flat.num_blocks());
    assert!(
        s_loopy.relaxations > loopy.num_blocks(),
        "back edges force re-relaxation"
    );

    let l_loopy = LaoLiveness::compute(&loopy, &u_loopy);
    assert!(l_loopy.set_insertions > 0);
    assert!(l_loopy.average_fill() > 0.0);
}

#[test]
fn phi_universe_tracks_only_phi_resources() {
    for seed in 30..40u64 {
        let params = GenParams {
            target_blocks: 25,
            ..GenParams::default()
        };
        let (_, func) = generate_function(&format!("pu{seed}"), params, seed);
        let phi = VarUniverse::phi_related(&func);
        let entry = func.entry_block();
        for &v in phi.values() {
            // Every tracked value is a non-entry block parameter or a
            // branch argument somewhere.
            let is_param = matches!(
                func.value_def(v),
                fastlive_ir::ValueDef::Param { block, .. } if block != entry
            );
            let is_branch_arg = func.uses(v).iter().any(|&i| {
                func.inst_data(i)
                    .branch_targets()
                    .any(|c| c.args.contains(&v))
            });
            assert!(
                is_param || is_branch_arg,
                "{v} tracked but not φ-related (seed {seed})"
            );
        }
    }
}
