//! The batch subsystem against the iterative data-flow oracle: on
//! every generated function — structured/reducible and goto-injected
//! irreducible alike — [`BatchLiveness`] must produce exactly the
//! live-in/live-out sets that `fastlive_dataflow::IterativeLiveness`
//! solves for, and agree with the scalar point queries of
//! [`FunctionLiveness`] on every `(value, block)` pair.

use fastlive_cfg::{DfsTree, DomTree, Reducibility};
use fastlive_construct::construct_ssa;
use fastlive_core::FunctionLiveness;
use fastlive_dataflow::{IterativeLiveness, VarUniverse};
use fastlive_ir::Function;
use fastlive_workload::{generate_function, generate_pre, inject_gotos, GenParams};

/// Checks one function exhaustively: batch vs. iterative oracle vs.
/// scalar checker queries, for every value at every block, plus the
/// materialized set views.
fn assert_batch_matches_oracle(func: &Function, label: &str) {
    let live = FunctionLiveness::compute(func);
    let batch = live.batch(func);
    let oracle = IterativeLiveness::compute(func, &VarUniverse::all(func));
    for v in func.values() {
        let var = v.index() as u32;
        for b in func.blocks() {
            let q = b.index() as u32;
            assert_eq!(
                batch.is_live_in(var, q),
                oracle.is_live_in(v, b),
                "{label}: live-in {v} at {b}"
            );
            assert_eq!(
                batch.is_live_out(var, q),
                oracle.is_live_out(v, b),
                "{label}: live-out {v} at {b}"
            );
            assert_eq!(
                batch.is_live_in(var, q),
                live.is_live_in(func, v, b),
                "{label}: batch vs scalar live-in {v} at {b}"
            );
            assert_eq!(
                batch.is_live_out(var, q),
                live.is_live_out(func, v, b),
                "{label}: batch vs scalar live-out {v} at {b}"
            );
        }
    }
    // Set views carry the same information as the point queries.
    for b in func.blocks() {
        let q = b.index() as u32;
        let ins: Vec<u32> = oracle
            .live_in_set(b)
            .iter()
            .map(|v| v.index() as u32)
            .collect();
        let mut ins_sorted = ins.clone();
        ins_sorted.sort_unstable();
        assert_eq!(
            batch.live_in_vars(q),
            ins_sorted,
            "{label}: live-in set at {b}"
        );
        assert_eq!(
            batch.live_out_len(q),
            oracle.live_out_set(b).len(),
            "{label}: at {b}"
        );
    }
}

#[test]
fn batch_matches_oracle_on_structured_functions() {
    for (i, target) in [4usize, 10, 24, 48, 80].into_iter().enumerate() {
        for seed in 0..6u64 {
            let params = GenParams {
                target_blocks: target,
                max_depth: 3 + (target / 16).min(5) as u32,
                ..GenParams::default()
            };
            let (_, func) = generate_function("batch", params, seed * 977 + i as u64);
            let dfs = DfsTree::compute(&func);
            let dom = DomTree::compute(&func, &dfs);
            assert!(
                Reducibility::compute(&dfs, &dom).is_reducible(),
                "structured generator must stay reducible"
            );
            assert_batch_matches_oracle(&func, &format!("structured t={target} s={seed}"));
        }
    }
}

#[test]
fn batch_matches_oracle_on_irreducible_functions() {
    let mut irreducible_seen = 0;
    for seed in 0..40u64 {
        let params = GenParams {
            target_blocks: 24,
            ..GenParams::default()
        };
        let mut pre = generate_pre("batch_irr", params, seed);
        inject_gotos(&mut pre, 4, seed);
        // Gotos can break definite assignment; the suite generator
        // discards those programs and so do we.
        let Ok(func) = construct_ssa(&pre) else {
            continue;
        };
        let dfs = DfsTree::compute(&func);
        let dom = DomTree::compute(&func, &dfs);
        if !Reducibility::compute(&dfs, &dom).is_reducible() {
            irreducible_seen += 1;
        }
        assert_batch_matches_oracle(&func, &format!("goto-injected s={seed}"));
    }
    assert!(
        irreducible_seen >= 5,
        "goto injection produced only {irreducible_seen} irreducible CFGs"
    );
}

#[test]
fn batch_snapshot_vs_live_sets_materialization() {
    // The batch path and the O(V·B)-queries live_sets() path are two
    // routes to the same answer.
    let params = GenParams {
        target_blocks: 20,
        ..GenParams::default()
    };
    let (_, func) = generate_function("snap", params, 0xbeef);
    let live = FunctionLiveness::compute(&func);
    let batch = live.batch(&func);
    let (ins, outs) = live.live_sets(&func);
    for b in func.blocks() {
        let q = b.index() as u32;
        let from_sets: Vec<u32> = ins[b.index()].iter().map(|v| v.index() as u32).collect();
        assert_eq!(batch.live_in_vars(q), from_sets);
        let out_sets: Vec<u32> = outs[b.index()].iter().map(|v| v.index() as u32).collect();
        assert_eq!(batch.live_out_vars(q), out_sets);
    }
}

#[test]
fn live_sets_batch_route_matches_the_scalar_route() {
    // `live_sets` is now one batch matrix pass;
    // `baseline::live_sets_scalar` keeps the per-(value, block) query
    // loop it replaced. Identical
    // output on structured and goto-injected functions alike.
    for seed in 0..8u64 {
        let params = GenParams {
            target_blocks: 8 + (seed as usize % 4) * 16,
            ..GenParams::default()
        };
        let mut pre = generate_pre("sets", params, seed);
        if seed % 2 == 1 {
            let mut dirty = pre.clone();
            inject_gotos(&mut dirty, 3, seed);
            if construct_ssa(&dirty).is_ok() {
                pre = dirty;
            }
        }
        let func = construct_ssa(&pre).expect("strict");
        let live = FunctionLiveness::compute(&func);
        assert_eq!(
            live.live_sets(&func),
            fastlive_core::baseline::live_sets_scalar(&live, &func),
            "seed {seed}"
        );
    }
}

#[test]
fn malformed_batch_input_is_an_error_not_a_panic() {
    use fastlive_core::{BatchError, BatchLiveness, LivenessChecker};
    use fastlive_graph::DiGraph;

    let g = DiGraph::from_edges(3, 0, &[(0, 1), (1, 2)]);
    let checker = LivenessChecker::compute(&g);
    // A use naming a variable nobody defined.
    let err = BatchLiveness::compute(&g, &checker, &[0], &[(7, 2)]).unwrap_err();
    assert_eq!(
        err,
        BatchError::UnknownVariable {
            var: 7,
            num_defined: 1
        }
    );
    assert!(err.to_string().contains("unknown variable 7"));
    // A definition block outside the graph.
    let err = BatchLiveness::compute(&g, &checker, &[9], &[]).unwrap_err();
    assert_eq!(
        err,
        BatchError::BlockOutOfRange {
            block: 9,
            num_blocks: 3
        }
    );
    // A use block outside the graph.
    let err = BatchLiveness::compute(&g, &checker, &[0], &[(0, 9)]).unwrap_err();
    assert!(matches!(err, BatchError::BlockOutOfRange { block: 9, .. }));
    // The checker survives the refusals and keeps answering.
    assert!(checker.is_live_in(0, &[2], 1));
}
