//! Structural claims of the paper, tested as code: Theorem 2 (single
//! test on reducible CFGs), the loop-forest characterisation of `T_q`,
//! the variable-independence of the precomputation, and the Lemma 3
//! dominance order.

use fastlive::cfg::{DfsTree, DomTree, LoopForest, Reducibility};
use fastlive::core::{baseline, FunctionLiveness, LivenessChecker};
use fastlive::dataflow::oracle;
use fastlive::ir::{InstData, UnaryOp};
use fastlive::workload::{generate_function, GenParams};

fn reducible_functions() -> Vec<fastlive::ir::Function> {
    (0..20u64)
        .filter_map(|seed| {
            let params = GenParams {
                target_blocks: 24,
                ..GenParams::default()
            };
            let (_, f) = generate_function(&format!("thm{seed}"), params, seed);
            let dfs = DfsTree::compute(&f);
            let dom = DomTree::compute(&f, &dfs);
            Reducibility::compute(&dfs, &dom)
                .is_reducible()
                .then_some(f)
        })
        .collect()
}

#[test]
fn theorem2_single_candidate_on_reducible_cfgs() {
    // "If the CFG is reducible ... the while body is executed at most
    // once": the candidate iterator yields ≤ 1 element for every query.
    let funcs = reducible_functions();
    assert!(funcs.len() >= 15);
    for f in &funcs {
        let live = LivenessChecker::compute(f);
        let n = f.num_blocks() as u32;
        for def in 0..n {
            for q in 0..n {
                let count = baseline::candidates(&live, def, q, true).count();
                assert!(
                    count <= 1,
                    "{}: {count} candidates for (def={def}, q={q})",
                    f.name
                );
            }
        }
    }
}

#[test]
fn lemma3_dominance_totally_orders_t_sets_on_reducible_cfgs() {
    for f in &reducible_functions() {
        let live = LivenessChecker::compute(f);
        let dfs = DfsTree::compute(f);
        let dom = DomTree::compute(f, &dfs);
        for q in 0..f.num_blocks() as u32 {
            let t = live.t_set(q);
            for &a in &t {
                for &b in &t {
                    assert!(
                        dom.dominates(a, b) || dom.dominates(b, a),
                        "{}: T_{q} not a dominance chain: {a} vs {b} in {t:?}",
                        f.name
                    );
                }
            }
        }
    }
}

#[test]
fn t_sets_are_loop_header_chains_on_reducible_cfgs() {
    // The bridge to the §8 outlook: on a reducible CFG the stored T_q
    // is exactly {q} plus the headers of the loops containing q.
    for f in &reducible_functions() {
        let live = LivenessChecker::compute(f);
        let dfs = DfsTree::compute(f);
        let forest = LoopForest::compute(f, &dfs);
        for q in 0..f.num_blocks() as u32 {
            let mut expect: Vec<u32> = forest
                .containing_loops(q)
                .map(|l| forest.loop_ref(l).header)
                .filter(|&h| h != q)
                .collect();
            expect.push(q);
            expect.sort_unstable();
            let mut got = live.t_set(q);
            got.sort_unstable();
            assert_eq!(got, expect, "{}: T_{q}", f.name);
        }
    }
}

#[test]
fn precomputation_is_variable_independent() {
    // §1, feature 2: "precomputed information remains valid upon adding
    // or removing variables or their uses." Edit a function heavily and
    // compare every answer of the *old* checker against the oracle on
    // the *new* function.
    for seed in 0..10u64 {
        let params = GenParams {
            target_blocks: 18,
            ..GenParams::default()
        };
        let (_, mut f) = generate_function(&format!("edit{seed}"), params, seed);
        let live = FunctionLiveness::compute(&f);

        // Edits: sink fresh uses of random values into random blocks and
        // add brand-new constants (no CFG changes).
        let values: Vec<_> = f.values().collect();
        let blocks: Vec<_> = f.blocks().collect();
        for (i, &v) in values.iter().enumerate().take(12) {
            let b = blocks[(i * 7 + seed as usize) % blocks.len()];
            // Insert `ineg v` at the top of b when that is legal
            // (definition dominates b); otherwise skip.
            let dfs = DfsTree::compute(&f);
            let dom = DomTree::compute(&f, &dfs);
            let db = f.def_block(v);
            if db == b || !dom.strictly_dominates(db.as_u32(), b.as_u32()) {
                continue;
            }
            f.insert_inst(
                b,
                0,
                InstData::Unary {
                    op: UnaryOp::Ineg,
                    arg: v,
                },
            );
        }
        let k = f.insert_inst(f.entry_block(), 0, InstData::IntConst { imm: 9 });
        let kv = f.inst_result(k).unwrap();
        let last = *blocks.last().unwrap();
        if f.block_insts(last).len() > 1 {
            f.insert_inst(
                last,
                0,
                InstData::Unary {
                    op: UnaryOp::Bnot,
                    arg: kv,
                },
            );
        }

        // The checker computed *before* the edits answers exactly.
        assert!(live.is_current_for(&f), "no CFG change happened");
        for v in f.values() {
            for b in f.blocks() {
                assert_eq!(
                    live.is_live_in(&f, v, b),
                    oracle::live_in_value(&f, v, b),
                    "stale? live-in {v}@{b} seed {seed}"
                );
                assert_eq!(
                    live.is_live_out(&f, v, b),
                    oracle::live_out_value(&f, v, b),
                    "stale? live-out {v}@{b} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn checker_survives_dead_phi_elimination() {
    // remove_dead_block_params deletes φs and branch arguments but
    // never touches the CFG: a checker computed before the cleanup
    // stays exact afterwards — precisely the class of transformation
    // §1 says survives.
    use fastlive::ir::{parse_function, remove_dead_block_params};
    let mut f = parse_function(
        "function %deadphi { block0(v0):
            brif v0, block1(v0, v0), block2
        block1(v1, v2):
            v3 = ineg v1
            jump block3(v3, v2)
        block2:
            v4 = iconst 7
            jump block3(v4, v4)
        block3(v5, v6):
            v7 = iadd v5, v0
            return v7 }",
    )
    .unwrap();
    let live = FunctionLiveness::compute(&f);
    // v6 is dead; removing it kills v2's last use, which cascades.
    let removed = remove_dead_block_params(&mut f);
    assert_eq!(removed, 2, "v6 then v2 must cascade away");
    assert!(live.is_current_for(&f), "CFG unchanged");
    for v in f.values() {
        for b in f.blocks() {
            assert_eq!(
                live.is_live_in(&f, v, b),
                oracle::live_in_value(&f, v, b),
                "live-in {v}@{b} after cleanup"
            );
            assert_eq!(
                live.is_live_out(&f, v, b),
                oracle::live_out_value(&f, v, b),
                "live-out {v}@{b} after cleanup"
            );
        }
    }
    // And semantics are untouched.
    use fastlive::ir::interp;
    assert_eq!(interp::run(&f, &[5], 100).unwrap().returned, vec![0]);
    assert_eq!(interp::run(&f, &[0], 100).unwrap().returned, vec![7]);
}

#[test]
fn irreducible_ratio_matches_the_papers_rarity() {
    // §6.1: irreducibility is rare. Our default suites contain a small
    // share of goto-injected procedures; verify it stays small but
    // non-zero at a scale large enough to see it.
    use fastlive::workload::{generate_suite, FunctionStats, SPEC2000_INT};
    let mut total = 0usize;
    let mut irreducible = 0usize;
    for profile in &SPEC2000_INT[..4] {
        let suite = generate_suite(profile, 40, 99);
        for f in &suite.functions {
            total += 1;
            irreducible += (!FunctionStats::measure(f).is_reducible()) as usize;
        }
    }
    assert!(total > 500);
    assert!(
        irreducible * 50 < total,
        "irreducibility must stay rare: {irreducible}/{total}"
    );
}
