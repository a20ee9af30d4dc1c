//! `BENCH_facade.json`: scalar-vs-planned execution of typed query
//! batches through the `fastlive` facade.
//!
//! Each row runs one batch against the session backend twice — a
//! scalar loop (`session.query` per query: every block probe pays its
//! own candidate scan) and the planner (`session.run_queries`: grouped
//! per function, uses resolved once, grouped `LiveIn`/`LiveOut` served
//! from `BatchLiveness` rows) — asserts the answers are **identical**,
//! and reports the ratio. Both timed arms collect every answer into one
//! vector, so they do the same work, output included. Batch mixes:
//!
//! * `block_heavy` — 90% `LiveIn`/`LiveOut` probes plus the
//!   `Interfere`/`LiveAt` sprinkle every real consumer carries. The
//!   ≥2× facade win: one resolution (analysis handle, dominator tree,
//!   batch rows) per function instead of per query.
//! * `block_dense` — `LiveIn` + `LiveOut` for every `(value, block)`
//!   pair (interference-graph construction). This records the floor:
//!   warm scalar probes are already cheap through the fused interval
//!   kernel, so grouped and scalar execution sit at about parity here.
//! * `mixed` — 60% block probes with `LiveAt`, `Interfere` and
//!   `LiveSets`, the everything-at-once shape.

use fastlive::telemetry::Json;
use fastlive::workload::{generate_module, ModuleParams};
use fastlive::Fastlive;
use fastlive_bench::{
    dense_batch, ensure, mixed_batch, module_header, num, row_set, rows, time_ns, MODULE_HEADER,
};

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let reps = if quick { 3 } else { 7 };
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
        // inside the timed region: the row compares equal work.
        let scalar_ns = time_ns(reps, || {
            let mut s = fl.session(&module);
            let answers: Vec<_> = queries.iter().map(|q| s.query(&module, q)).collect();
            answers.len()
        });
        let grouped_ns = time_ns(reps, || {
            let mut s = fl.session(&module);
            s.run_queries(&module, queries).len()
        });
        let name = session.backend_name();
        let n = queries.len();
        let speedup = scalar_ns / grouped_ns;
        batches.push(
            Json::obj()
                .field("mix", *mix)
                .field("backend", name)
                .field("queries", n)
                .field("scalar_ns", Json::Num(scalar_ns, 0))
                .field("grouped_ns", Json::Num(grouped_ns, 0))
                .field("scalar_ns_per_query", Json::Num(scalar_ns / n as f64, 1))
                .field("grouped_ns_per_query", Json::Num(grouped_ns / n as f64, 1))
                .field("identical", true)
                .field("speedup", Json::Num(speedup, 2)),
        );
    }
    module_header(&module).field("batches", batches)
}

/// The former CI schema check: keys, the three mixes on the session
/// backend, identical answers, and batches of at least 64 queries.
pub fn check(d: &Json) -> Result<(), String> {
    d.require(MODULE_HEADER)?;
    let batches = rows(
        d,
        "batches",
        &[
            "mix",
            "backend",
            "queries",
            "scalar_ns",
            "grouped_ns",
            "scalar_ns_per_query",
            "grouped_ns_per_query",
            "identical",
            "speedup",
        ],
    )?;
    row_set(batches, &["mix"], &["block_heavy", "block_dense", "mixed"])?;
    row_set(batches, &["backend"], &["session"])?;
    for b in batches {
        let identical = b.get("identical") == Some(&Json::Bool(true));
        ensure(identical, format!("planner must not change answers: {b}"))?;
        ensure(num(b, "queries")? >= 64.0, format!("too few queries: {b}"))?;
    }
    Ok(())
}
