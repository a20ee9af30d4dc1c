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
