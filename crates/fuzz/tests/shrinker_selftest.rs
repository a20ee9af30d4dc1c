//! The harness must be able to fail: seed a deliberately wrong
//! backend, confirm the differential check catches it on a 200-block
//! case, and confirm the shrinker minimizes the failure to a
//! reproducer of at most 10 blocks that still fails — deterministically
//! — after being re-parsed from its own text.

use fastlive::{Fastlive, Query};
use fastlive_construct::construct_ssa;
use fastlive_ir::{Block, Module, Value};
use fastlive_workload::{generate_pre, GenParams};

use fastlive_fuzz::diff::check_against_oracle;
use fastlive_fuzz::shrink::shrink;
use fastlive_fuzz::BrokenBackend;

/// Exhaustive LiveIn probes — small candidates stay fully covered, so
/// shrinking never stalls because a random probe set missed the bug.
fn probes(module: &Module) -> Vec<Query> {
    let mut queries = Vec::new();
    for (id, func) in module.iter() {
        for v in 0..func.num_values() {
            for b in 0..func.num_blocks() {
                if v * b > 40_000 {
                    break;
                }
                queries.push(Query::live_in(
                    id,
                    Value::from_index(v),
                    Block::from_index(b),
                ));
            }
        }
    }
    queries
}

#[test]
fn broken_backend_shrinks_below_ten_blocks() {
    let pre = generate_pre(
        "shrink_selftest",
        GenParams {
            target_blocks: 200,
            deep_live_percent: 60,
            ..GenParams::default()
        },
        9,
    );
    let func = construct_ssa(&pre).expect("generator output is constructible");
    assert!(func.num_blocks() >= 150, "the starting case must be large");
    let mut module = Module::new();
    module.push(func);

    let fl = Fastlive::builder().build().expect("default build");
    let mut predicate = |m: &Module| {
        let queries = probes(m);
        let mut broken = BrokenBackend::new();
        check_against_oracle(&fl, &mut broken, m, &queries)
            .into_iter()
            .next()
    };

    let out = shrink(&module, &mut predicate, 4_000)
        .expect("the broken backend must be caught on the large case");
    assert!(
        out.blocks_after <= 10,
        "reproducer too large ({} blocks):\n{}",
        out.blocks_after,
        out.text
    );
    assert!(out.blocks_before > out.blocks_after);

    // Determinism: the emitted text re-parses and still fails, twice.
    let reparsed = out.reparse();
    let first = predicate(&reparsed).expect("re-parsed reproducer still fails");
    let second = predicate(&reparsed).expect("and fails again");
    assert_eq!(
        format!("{:?}", first.query),
        format!("{:?}", second.query),
        "the diverging query must be stable across runs"
    );
}
