//! Emits `BENCH_facade.json`: scalar-vs-planned execution of typed
//! query batches through the `fastlive` facade.
//!
//! Each row runs one batch against the session backend twice — a
//! scalar loop (`session.query` per query: every block probe pays its
//! own candidate scan) and the planner (`session.run_queries`: grouped
//! per function, uses resolved once, grouped `LiveIn`/`LiveOut` served
//! from `BatchLiveness` rows) — asserts the answers are **identical**,
//! and reports the ratio. Batch mixes:
//!
//! * `block_heavy` — 90% `LiveIn`/`LiveOut` probes plus the
//!   `Interfere`/`LiveAt` sprinkle every real consumer carries. The
//!   ≥2× facade win: one resolution (analysis handle, dominator tree,
//!   batch rows) per function instead of per query.
//! * `block_dense` — `LiveIn` + `LiveOut` for every `(value, block)`
//!   pair (interference-graph construction). This records the honest
//!   floor: warm scalar probes already cost ~tens of ns through the
//!   fused interval kernel, so grouped execution ≈ parity there — the
//!   planner's break-even guard exists precisely so dense batches
//!   never *regress*.
//! * `mixed` — 60% block probes with `LiveAt`, `Interfere` and
//!   `LiveSets`, the everything-at-once shape.
//!
//! ```text
//! cargo run --release -p fastlive-bench --bin bench_facade_json [--quick] [OUT.json]
//! ```
//!
//! `--quick` shrinks the module and repetitions for CI smoke runs
//! (the JSON schema is identical).

use std::fmt::Write as _;

use fastlive::workload::{generate_module, ModuleParams};
use fastlive::{Block, Fastlive, Module, PointRef, Query, Value};
use fastlive_bench::time_ns;

fn module_blocks(m: &Module) -> usize {
    m.functions().iter().map(|f| f.num_blocks()).sum()
}

/// `LiveIn` + `LiveOut` for every `(value, block)` pair — the dense
/// consumer's query stream, id-addressed.
fn dense_batch(module: &Module) -> Vec<Query> {
    let mut queries = Vec::new();
    for (id, func) in module.iter() {
        for v in func.values() {
            for b in func.blocks() {
                queries.push(Query::live_in(id, v, b));
                queries.push(Query::live_out(id, v, b));
            }
        }
    }
    queries
}

/// A deterministic randomized batch of `n` queries:
/// `block_per_mille`‰ `LiveIn`/`LiveOut` probes, the rest `LiveAt` /
/// `Interfere` (and, when `with_sets`, sparse `LiveSets`).
fn mixed_batch(
    module: &Module,
    n: usize,
    block_per_mille: usize,
    with_sets: bool,
    seed: u64,
) -> Vec<Query> {
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        // SplitMix64 step — deterministic, dependency-free.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize % bound.max(1)
    };
    let mut queries = Vec::with_capacity(n);
    while queries.len() < n {
        let id = next(module.len());
        let func = module.func(id);
        let value = Value::from_index(next(func.num_values()));
        let block = Block::from_index(next(func.num_blocks()));
        let roll = next(1000);
        queries.push(if roll < block_per_mille {
            if roll % 2 == 0 {
                Query::live_in(id, value, block)
            } else {
                Query::live_out(id, value, block)
            }
        } else if roll % 3 == 0 && func.num_values() >= 2 {
            let w = Value::from_index(next(func.num_values()));
            Query::interfere(id, value, w)
        } else if with_sets && roll % 31 == 0 {
            Query::live_sets(id)
        } else {
            let len = func.block_insts(block).len();
            if len == 0 {
                Query::live_at(id, value, PointRef::entry(block))
            } else {
                Query::live_at(id, value, PointRef::after(block, next(len)))
            }
        });
    }
    queries
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_facade.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            out_path = arg;
        }
    }
    let reps = if quick { 3 } else { 7 };
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

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
    let blocks = module_blocks(&module);
    eprintln!(
        "module: {} functions, {blocks} blocks total, host_cpus={host_cpus}",
        module.len()
    );

    let fl = Fastlive::builder()
        .threads(1)
        .build()
        .expect("valid config");

    let n = if quick { 512 } else { 4096 };
    let rows = [
        ("block_heavy", mixed_batch(&module, n, 900, false, 0x5eed)),
        ("block_dense", dense_batch(&module)),
        ("mixed", mixed_batch(&module, n, 600, true, 0x5eed)),
    ];

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"host_cpus\": {host_cpus},\n  \"functions\": {},\n  \"blocks_total\": {blocks},",
        module.len()
    );
    json.push_str("  \"batches\": [\n");

    for (i, (mix, queries)) in rows.iter().enumerate() {
        // Correctness gate first: planned == scalar, always.
        let mut session = fl.session(&module);
        let planned = session.run_queries(&module, queries);
        let scalar: Vec<_> = queries.iter().map(|q| session.query(&module, q)).collect();
        assert_eq!(planned, scalar, "planner changed answers ({mix})");
        assert!(
            planned.iter().all(Result::is_ok),
            "batch has no resolution errors"
        );

        let scalar_ns = time_ns(reps, || {
            let mut s = fl.session(&module);
            queries
                .iter()
                .map(|q| s.query(&module, q).is_ok() as usize)
                .sum::<usize>()
        });
        let grouped_ns = time_ns(reps, || {
            let mut s = fl.session(&module);
            s.run_queries(&module, queries).len()
        });
        let name = session.backend_name();
        let n = queries.len();
        let speedup = scalar_ns / grouped_ns;
        let _ = write!(
            json,
            "{}    {{\"mix\": \"{mix}\", \"backend\": \"{name}\", \"queries\": {n}, \
             \"scalar_ns\": {scalar_ns:.0}, \"grouped_ns\": {grouped_ns:.0}, \
             \"scalar_ns_per_query\": {:.1}, \"grouped_ns_per_query\": {:.1}, \
             \"identical\": true, \"speedup\": {speedup:.2}}}",
            if i == 0 { "" } else { ",\n" },
            scalar_ns / n as f64,
            grouped_ns / n as f64,
        );
        eprintln!(
            "{mix:<12} {name:<7} n={n:>6}: scalar {scalar_ns:>12.0} ns, \
             grouped {grouped_ns:>12.0} ns ({speedup:.2}x)"
        );
    }
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_facade.json");
    println!("wrote {out_path}");
}
