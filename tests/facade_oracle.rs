//! Differential property suite for the facade's three arms: the
//! cached session, a cache-less session (`cache_capacity(0)`: the
//! paper's per-function checker, computed per session) and the oracle
//! (iterative dataflow) must produce **byte-identical** `Response`s for
//! any `Query` — over reducible, goto-injected irreducible and
//! deep-live workloads, for every query kind, and for both execution
//! styles (scalar `query` and planned `run_queries`).

use fastlive::workload::{generate_module, ModuleParams};
use fastlive::{BackendKind, Fastlive, Module, PointRef, Query, QueryError, Response};

/// A module drawn from one of the three workload regimes.
fn test_module(seed: u64, irreducible_per_mille: u32, deep_live_per_mille: u32) -> Module {
    generate_module(
        "facade",
        ModuleParams {
            functions: 3,
            min_blocks: 4,
            max_blocks: 16,
            irreducible_per_mille,
            deep_live_per_mille,
        },
        seed,
    )
}

/// A mixed query batch covering every `Query` variant, alternating
/// name- and id-addressing so both resolution paths are exercised.
fn mixed_queries(module: &Module) -> Vec<Query> {
    let mut queries = Vec::new();
    for (id, func) in module.iter() {
        let name = func.name.clone();
        let values: Vec<_> = func.values().collect();
        let blocks: Vec<_> = func.blocks().collect();
        for (vi, &v) in values.iter().enumerate() {
            for (bi, &b) in blocks.iter().enumerate() {
                // Alternate addressing modes query by query.
                if (vi + bi) % 2 == 0 {
                    queries.push(Query::live_in(id, v, b));
                    queries.push(Query::live_out(name.as_str(), format!("v{vi}"), b));
                } else {
                    queries.push(Query::live_in(name.as_str(), v, format!("block{bi}")));
                    queries.push(Query::live_out(id, format!("v{vi}"), format!("block{bi}")));
                }
            }
            // Nullness-family probes: the fact at the definition, and
            // definite-initialization against a rotating block sample
            // (alternating addressing like the liveness probes above).
            if vi % 2 == 0 {
                queries.push(Query::nullness(id, v));
            } else {
                queries.push(Query::nullness(name.as_str(), format!("v{vi}")));
            }
            for (bi, &b) in blocks.iter().enumerate().step_by(2) {
                if (vi + bi) % 2 == 0 {
                    queries.push(Query::definitely_init(id, v, b));
                } else {
                    queries.push(Query::definitely_init(
                        name.as_str(),
                        format!("v{vi}"),
                        format!("block{bi}"),
                    ));
                }
            }
            // Point queries: block entries plus a sweep of one block's
            // interior positions.
            let b = blocks[vi % blocks.len()];
            queries.push(Query::live_at(id, v, PointRef::entry(b)));
            for pos in 0..func.block_insts(b).len().min(3) {
                queries.push(Query::live_at(id, v, PointRef::after(b, pos)));
                queries.push(Query::live_at(id, v, PointRef::before(b, pos)));
            }
        }
        // Interference over a sliding window of value pairs.
        for w in values.windows(2) {
            queries.push(Query::interfere(id, w[0], w[1]));
        }
        queries.push(Query::live_sets(id));
        queries.push(Query::live_sets(name.as_str()));
    }
    queries
}

fn run_all(
    fl: &Fastlive,
    module: &Module,
    kind: BackendKind,
    queries: &[Query],
) -> Vec<Result<Response, QueryError>> {
    fl.session_with(module, kind).run_queries(module, queries)
}

#[test]
fn three_backends_answer_byte_identically() {
    let regimes = [
        ("reducible", 0u32, 0u32),
        ("irreducible", 500, 0),
        ("deep_live", 250, 1000),
    ];
    let fl = Fastlive::builder()
        .threads(1)
        .build()
        .expect("default-ish config is valid");
    let cacheless = Fastlive::builder()
        .threads(1)
        .cache_capacity(0)
        .build()
        .expect("valid");
    for (regime, irr, deep) in regimes {
        for seed in [0x51u64, 0x1132, 0xfa2e] {
            let module = test_module(seed, irr, deep);
            let queries = mixed_queries(&module);
            assert!(queries.len() >= 64, "representative batch size");
            let session = run_all(&fl, &module, BackendKind::Session, &queries);
            let uncached = run_all(&cacheless, &module, BackendKind::Session, &queries);
            let oracle = run_all(&fl, &module, BackendKind::Oracle, &queries);
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(
                    session[i], uncached[i],
                    "[{regime} seed {seed:#x}] cached vs cache-less session on {q:?}"
                );
                assert_eq!(
                    session[i], oracle[i],
                    "[{regime} seed {seed:#x}] session vs oracle on {q:?}"
                );
            }
        }
    }
}

#[test]
fn planned_execution_matches_scalar_execution() {
    // The acceptance-criterion shape: a ≥64-query mixed batch must
    // answer identically under `run_queries` (grouped, batch-row
    // block probes) and a one-at-a-time loop — on every arm.
    let fl = Fastlive::builder().threads(1).build().expect("valid");
    let cacheless = Fastlive::builder()
        .threads(1)
        .cache_capacity(0)
        .build()
        .expect("valid");
    for (irr, deep) in [(0u32, 0u32), (500, 0), (250, 1000)] {
        let module = test_module(0xbeef ^ u64::from(irr * 2 + deep), irr, deep);
        let queries = mixed_queries(&module);
        assert!(queries.len() >= 64);
        for (f, kind) in [
            (&fl, BackendKind::Session),
            (&cacheless, BackendKind::Session),
            (&fl, BackendKind::Oracle),
        ] {
            let mut grouped_session = f.session_with(&module, kind);
            let grouped = grouped_session.run_queries(&module, &queries);
            let mut scalar_session = f.session_with(&module, kind);
            let scalar: Vec<_> = queries
                .iter()
                .map(|q| scalar_session.query(&module, q))
                .collect();
            assert_eq!(
                grouped,
                scalar,
                "planned vs scalar diverged on backend {} (cache capacity {})",
                grouped_session.backend_name(),
                f.config().cache_capacity
            );
        }
    }
}

/// One function's queries of all seven kinds, id-addressed: block
/// probes, a point, interference, nullness, definite initialization and
/// one `LiveSets`, over a rotating sample of values and blocks.
fn per_function_queries(id: usize, func: &fastlive::Function) -> Vec<Query> {
    let values: Vec<_> = func.values().collect();
    let blocks: Vec<_> = func.blocks().collect();
    let mut queries = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        let b = blocks[i % blocks.len()];
        queries.push(Query::live_in(id, v, b));
        queries.push(Query::live_out(id, v, b));
        queries.push(Query::live_at(id, v, PointRef::entry(b)));
        queries.push(Query::interfere(id, v, values[(i + 1) % values.len()]));
        queries.push(Query::nullness(id, v));
        queries.push(Query::definitely_init(id, v, b));
    }
    queries.push(Query::live_sets(id));
    queries
}

/// A batch that interleaves four functions query by query, so the
/// planner holds several function states at once. Besides all seven
/// kinds on every function, it carries an unknown function, an
/// out-of-range value and a second `LiveSets` on function 1.
fn interleaved_queries(module: &Module) -> Vec<Query> {
    let per_function: Vec<Vec<Query>> = module
        .iter()
        .map(|(id, func)| per_function_queries(id, func))
        .collect();
    let longest = per_function.iter().map(Vec::len).max().unwrap_or(0);
    let mut queries = Vec::new();
    for i in 0..longest {
        for list in &per_function {
            if let Some(q) = list.get(i) {
                queries.push(q.clone());
            }
        }
        if i == 3 {
            queries.push(Query::live_sets(1usize));
            queries.push(Query::live_in("no_such_function", "v0", "block0"));
            let past_end = fastlive::Value::from_index(module.func(2).num_values() + 5);
            queries.push(Query::nullness(2usize, past_end));
        }
    }
    queries
}

/// Planned `run_queries` answers an interleaved batch exactly as scalar
/// `query` does, element for element, in input order, on every arm —
/// with one function's analyses failing through the compute-fault hook
/// on both session arms.
#[test]
fn interleaved_batch_answers_like_scalar_queries_on_every_arm() {
    let module = generate_module(
        "interleaved",
        ModuleParams {
            functions: 4,
            min_blocks: 6,
            max_blocks: 20,
            irreducible_per_mille: 500,
            deep_live_per_mille: 500,
        },
        0x1e4f,
    );
    let queries = interleaved_queries(&module);
    let faulty = fastlive::CfgShape::of(module.func(3));
    let arm = |capacity: usize| {
        let fl = Fastlive::builder()
            .threads(1)
            .cache_capacity(capacity)
            .build()
            .expect("valid");
        let target = faulty.clone();
        fl.engine().set_compute_fault(Some(Box::new(move |shape| {
            if *shape == target {
                panic!("interleaved-batch fault");
            }
        })));
        fl
    };
    let (cached, cacheless) = (arm(64), arm(0));
    let oracle_fl = Fastlive::builder().threads(1).build().expect("valid");
    let arms = [
        (&cached, BackendKind::Session),
        (&cacheless, BackendKind::Session),
        (&oracle_fl, BackendKind::Oracle),
    ];
    let oracle = run_all(&oracle_fl, &module, BackendKind::Oracle, &queries);
    let failing: Vec<bool> = module
        .functions()
        .iter()
        .map(|f| fastlive::CfgShape::of(f) == faulty)
        .collect();
    for (fl, kind) in arms {
        let name = format!("{kind:?} (cache capacity {})", fl.config().cache_capacity);
        let planned = run_all(fl, &module, kind, &queries);
        let mut session = fl.session_with(&module, kind);
        let scalar: Vec<_> = queries.iter().map(|q| session.query(&module, q)).collect();
        assert_eq!(planned.len(), queries.len(), "{name}");
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(planned[i], scalar[i], "{name}: query {i}, {q:?}");
            let fails = kind == BackendKind::Session
                && matches!(q.func(), fastlive::FuncRef::Id(id) if failing[*id]);
            if fails {
                assert!(
                    matches!(&planned[i], Err(QueryError::AnalysisFailed(_))),
                    "{name}: {q:?} on the faulty function gave {:?}",
                    planned[i]
                );
            } else {
                assert_eq!(planned[i], oracle[i], "{name} vs oracle: {q:?}");
            }
        }
    }
    let kinds: std::collections::HashSet<_> = queries.iter().map(std::mem::discriminant).collect();
    assert_eq!(kinds.len(), 7, "all seven kinds");
    assert!(oracle
        .iter()
        .any(|r| matches!(r, Err(QueryError::UnknownFunction(_)))));
    assert!(oracle
        .iter()
        .any(|r| matches!(r, Err(QueryError::UnknownValue { .. }))));
}

/// `run_queries` returns exactly one result per query, whatever the
/// batch holds: nothing, only unresolvable functions, one function, or
/// an interleaved mix.
#[test]
fn run_queries_returns_one_result_per_query() {
    let module = test_module(0x5107, 250, 500);
    let fl = Fastlive::builder().threads(1).build().expect("valid");
    let unknown = vec![Query::live_sets("nope"), Query::live_sets(99usize)];
    let single = per_function_queries(0, module.func(0));
    let batches = [
        Vec::new(),
        unknown,
        single,
        interleaved_queries(&module),
        mixed_queries(&module),
    ];
    for kind in [BackendKind::Session, BackendKind::Oracle] {
        for queries in &batches {
            let results = run_all(&fl, &module, kind, queries);
            assert_eq!(results.len(), queries.len(), "{kind:?}");
        }
    }
}

/// A function pushed onto the module after its sessions opened
/// answers on every arm, scalar and planned, like the oracle: its first
/// query resolves it like any first resolution, at epoch 0. Two
/// functions are pushed between queries: a two-block function with a
/// new shape, and a renamed clone of function 0, whose shape is cached.
#[test]
fn functions_pushed_after_the_session_opened_answer_on_every_arm() {
    let mut module = test_module(0x9a5, 250, 500);
    let fl = Fastlive::builder().threads(1).build().expect("valid");
    let cacheless = Fastlive::builder()
        .threads(1)
        .cache_capacity(0)
        .build()
        .expect("valid");
    let arms = [
        (&fl, BackendKind::Session),
        (&cacheless, BackendKind::Session),
        (&fl, BackendKind::Oracle),
    ];
    // Per arm: one session answering scalar, one answering planned.
    let mut sessions: Vec<_> = arms
        .iter()
        .map(|&(f, kind)| (f.session_with(&module, kind), f.session_with(&module, kind)))
        .collect();
    let before = per_function_queries(0, module.func(0));
    for (scalar, planned) in &mut sessions {
        for q in &before {
            scalar.query(&module, q).expect("function 0 answers");
        }
        planned.run_queries(&module, &before);
    }

    let pushed = fastlive::parse_module(
        "function %pushed { block0(v0): jump block1 block1: v1 = iadd v0, v0 return v1 }",
    )
    .expect("parses");
    let id = module.push(pushed.func(0).clone());
    let mut clone = module.func(0).clone();
    clone.name = "clone0".into();
    let clone_id = module.push(clone);

    let mut queries = per_function_queries(id, module.func(id));
    queries.extend(per_function_queries(clone_id, module.func(clone_id)));
    queries.push(Query::live_in("pushed", "v0", "block1"));
    let probe = queries.len() - 1;
    queries.extend(before);
    let oracle = run_all(&fl, &module, BackendKind::Oracle, &queries);
    assert_eq!(
        oracle[probe],
        Ok(Response::Live(true)),
        "v0 is used in block1"
    );
    for ((scalar, planned), (f, kind)) in sessions.iter_mut().zip(arms) {
        let arm = format!("{kind:?} (cache capacity {})", f.config().cache_capacity);
        let answers = planned.run_queries(&module, &queries);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(scalar.query(&module, q), oracle[i], "{arm} scalar: {q:?}");
            assert_eq!(answers[i], oracle[i], "{arm} planned: {q:?}");
        }
        for s in [&*scalar, &*planned] {
            if let Some(engine) = s.engine_session() {
                assert_eq!(engine.num_functions(), module.len(), "{arm}");
                assert_eq!((engine.epoch(id), engine.epoch(clone_id)), (0, 0), "{arm}");
            }
        }
    }
}

/// Every query of every kind over every value, block and point of the
/// module — the exhaustive batch for hand-built edge cases.
fn exhaustive_queries(module: &Module) -> Vec<Query> {
    let mut queries = Vec::new();
    for (id, func) in module.iter() {
        let values: Vec<_> = func.values().collect();
        for &v in &values {
            queries.push(Query::nullness(id, v));
            for b in func.blocks() {
                queries.push(Query::live_in(id, v, b));
                queries.push(Query::live_out(id, v, b));
                queries.push(Query::definitely_init(id, v, b));
                queries.push(Query::live_at(id, v, PointRef::entry(b)));
                for pos in 0..func.block_insts(b).len() {
                    queries.push(Query::live_at(id, v, PointRef::after(b, pos)));
                }
            }
            for &w in &values {
                queries.push(Query::interfere(id, v, w));
            }
        }
        queries.push(Query::live_sets(id));
    }
    queries
}

/// Every arm — cached and cache-less sessions and the oracle, each
/// scalar and planned — answers the exhaustive batch like the oracle.
fn every_arm_answers_like_the_oracle(module: &Module) {
    let fl = Fastlive::builder().threads(1).build().expect("valid");
    let cacheless = Fastlive::builder()
        .threads(1)
        .cache_capacity(0)
        .build()
        .expect("valid");
    let queries = exhaustive_queries(module);
    let oracle = run_all(&fl, module, BackendKind::Oracle, &queries);
    for (f, kind) in [
        (&fl, BackendKind::Session),
        (&cacheless, BackendKind::Session),
        (&fl, BackendKind::Oracle),
    ] {
        let planned = run_all(f, module, kind, &queries);
        let mut session = f.session_with(module, kind);
        let scalar: Vec<_> = queries.iter().map(|q| session.query(module, q)).collect();
        for (i, q) in queries.iter().enumerate() {
            let arm = format!("{kind:?} (cache capacity {})", f.config().cache_capacity);
            assert_eq!(planned[i], oracle[i], "{arm} planned vs oracle on {q:?}");
            assert_eq!(scalar[i], oracle[i], "{arm} scalar vs oracle on {q:?}");
        }
    }
}

/// A strict-SSA module whose edit orphans a block: `block1` is left
/// unreachable, holding the only use of `v1` and the definition of
/// `v2`. The corpus cannot carry this case (`verify_strict_ssa` rejects
/// unreachable blocks), so it is built by an edit. Every arm, scalar
/// and planned, must answer like the oracle: an unreachable use keeps
/// nothing live, and an unreachable definition interferes with nothing.
#[test]
fn orphaned_blocks_answer_identically_on_every_arm() {
    let mut module = fastlive::parse_module(
        "function %orphan { block0(v0):
             v1 = iconst 0
             brif v0, block1, block2
         block1:
             v2 = iadd v0, v1
             return v2
         block2:
             v3 = iconst 7
             jump block3(v3)
         block3(v4):
             return v4 }
         function %intact { block0(v0): return v0 }",
    )
    .expect("parses");
    fastlive::core::verify_strict_ssa(module.func(0)).expect("strict SSA before the edit");
    let func = module.func_mut(0);
    let term = func.terminator(func.entry_block()).expect("terminated");
    let b2 = func.block("block2").expect("exists");
    func.redirect_branch_target(term, 0, b2, Vec::new());

    every_arm_answers_like_the_oracle(&module);

    let fl = Fastlive::builder().threads(1).build().expect("valid");
    let mut session = fl.session(&module);
    let live_out = Query::live_out("orphan", "v1", "block0");
    assert_eq!(session.query(&module, &live_out), Ok(Response::Live(false)));
    let interfere = Query::interfere("orphan", "v2", "v0");
    assert_eq!(
        session.query(&module, &interfere),
        Ok(Response::Interference(false))
    );
}

/// An orphan that still branches into reachable code: `block2` is
/// unreachable but jumps to `block1`, passing `v1` as a φ argument and
/// keeping `v0` in use along the way. Under the unreachable-code rule
/// (`fastlive_core`'s crate docs) the orphan holds no live value and
/// its φ argument counts nowhere, so the oracle must not relax it on
/// the way back from `block1`.
#[test]
fn orphan_branching_into_reachable_code_answers_identically_on_every_arm() {
    let module = fastlive::parse_module(
        "function %f {
         block0(v0):
             v1 = iconst 0
             jump block1(v0)
         block1(v2):
             v3 = iadd v2, v0
             return v3
         block2:
             jump block1(v1)
         }",
    )
    .expect("parses");
    every_arm_answers_like_the_oracle(&module);
    let fl = Fastlive::builder().threads(1).build().expect("valid");
    for q in [
        Query::live_in("f", "v0", "block2"),
        Query::live_out("f", "v0", "block2"),
        Query::live_in("f", "v1", "block2"),
    ] {
        assert_eq!(
            fl.session_with(&module, BackendKind::Oracle)
                .query(&module, &q),
            Ok(Response::Live(false)),
            "{q:?}"
        );
    }
}
