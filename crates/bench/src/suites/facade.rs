//! `BENCH_facade.json`: scalar-vs-planned execution of typed query
//! batches through the `fastlive` facade.
//!
//! Each row runs one batch against the session backend twice — a
//! scalar loop (`session.query` per query: every block probe pays its
//! own candidate scan) and the planner (`session.run_queries`: answered
//! in input order, each function resolved once, its uses resolved
//! once, its `LiveIn`/`LiveOut` probes served from `BatchLiveness`
//! rows) — asserts the answers are **identical**, and reports the
//! ratio. Both timed arms collect every answer into one vector, so
//! they do the same work, output included. Batch mixes:
//!
//! * `block_heavy` — 90% `LiveIn`/`LiveOut` probes plus the
//!   `Interfere`/`LiveAt` sprinkle every real consumer carries. The
//!   facade win: one resolution (analysis handle, dominator tree,
//!   batch rows) per function instead of per query.
//! * `block_dense` — `LiveIn` + `LiveOut` for every `(value, block)`
//!   pair (interference-graph construction). Warm scalar probes are
//!   already cheap through the fused interval kernel, so this is the
//!   planner's floor: it wins only by keeping its own per-query
//!   dispatch below a scalar probe's.
//! * `mixed` — 60% block probes with `LiveAt`, `Interfere` and
//!   `LiveSets`, the everything-at-once shape.

use fastlive::telemetry::Json;
use fastlive::workload::{generate_module, ModuleParams};
use fastlive::Fastlive;
use fastlive_bench::{
    dense_batch, ensure, fields, measure, mixed_batch, module_header, num, row_set, rows, win, Arm,
    SpreadField,
};

const KEYS: &str = "mix backend queries identical scalar_ns grouped_ns \
    scalar_ns_per_query grouped_ns_per_query speedup";

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let rounds = if quick { 3 } else { 15 };
    // Irreducible + deep-live: long live ranges and wide `T_q` rows,
    // i.e. realistic non-trivial probe costs.
    let module = generate_module(
        "facade_bench",
        ModuleParams {
            functions: if quick { 3 } else { 6 },
            min_blocks: if quick { 12 } else { 64 },
            max_blocks: if quick { 32 } else { 128 },
            irreducible_per_mille: 600,
            deep_live_per_mille: 600,
        },
        0x00fa_cade,
    );

    let fl = Fastlive::builder()
        .threads(1)
        .build()
        .expect("valid config");

    let n = if quick { 512 } else { 4096 };
    let mixes = [
        ("block_heavy", mixed_batch(&module, n, 900, false, 0x5eed)),
        ("block_dense", dense_batch(&module)),
        ("mixed", mixed_batch(&module, n, 600, true, 0x5eed)),
    ];
    let mut batches = Vec::new();
    for (mix, queries) in &mixes {
        // Correctness gate first: planned == scalar, always.
        let mut session = fl.session(&module);
        let planned = session.run_queries(&module, queries);
        let scalar: Vec<_> = queries.iter().map(|q| session.query(&module, q)).collect();
        assert_eq!(planned, scalar, "planner changed answers ({mix})");
        assert!(
            planned.iter().all(Result::is_ok),
            "batch has no resolution errors"
        );

        // Both arms collect every answer into one vector and drop it
        // inside the sample: the row compares equal work.
        let m = measure(
            rounds,
            vec![
                Arm::new(|| {
                    let mut s = fl.session(&module);
                    queries
                        .iter()
                        .map(|q| s.query(&module, q))
                        .collect::<Vec<_>>()
                }),
                Arm::new(|| fl.session(&module).run_queries(&module, queries)),
            ],
        );
        let n = queries.len() as f64;
        batches.push(
            Json::obj()
                .field("mix", *mix)
                .field("backend", session.backend_name())
                .field("queries", queries.len())
                .field("identical", true)
                .spread("scalar_ns", m.arm(0), 0)
                .spread("grouped_ns", m.arm(1), 0)
                .spread("scalar_ns_per_query", m.per_round(|s| s[0] / n), 1)
                .spread("grouped_ns_per_query", m.per_round(|s| s[1] / n), 1)
                .spread("speedup", m.ratio(0, 1), 2),
        );
    }
    module_header(quick, rounds, &module).field("batches", batches)
}

/// The former CI schema check: keys, the three mixes on the session
/// backend, identical answers, batches of at least 64 queries, and in
/// full runs the planner's win on every mix.
pub fn check(d: &Json) -> Result<(), String> {
    fields(d, "functions blocks_total")?;
    let batches = rows(d, "batches", KEYS)?;
    row_set(batches, &["mix"], &["block_heavy", "block_dense", "mixed"])?;
    row_set(batches, &["backend"], &["session"])?;
    for b in batches {
        let identical = b.get("identical") == Some(&Json::Bool(true));
        ensure(identical, format!("planner must not change answers: {b}"))?;
        ensure(num(b, "queries")? >= 64.0, format!("too few queries: {b}"))?;
        win(d, b, "speedup")?;
    }
    Ok(())
}
