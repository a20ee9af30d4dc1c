//! Emits `BENCH_query.json`: the before/after numbers for the
//! word-masked query loop and the batch-vs-query break-even analysis.
//!
//! * `query_loop` — ns per probe for the seed's scalar candidate loop
//!   (`is_live_in_scalar`: bit-at-a-time `next_set_bit`, use numbers
//!   re-resolved per candidate) against the word-masked loop
//!   (`is_live_in`: cursor-word interval scan, uses resolved once), on
//!   dominance-biased probe streams over growing CFGs. Wide CFGs have
//!   multi-word `T_q` rows, which is where the word scan pays.
//! * `batch_breakeven` — wall time to materialize live-in/live-out
//!   sets for *all* (value, block) pairs via one `BatchLiveness`
//!   matrix pass vs. a scalar query per pair vs. the iterative
//!   data-flow solver, plus the number of scalar queries a batch pass
//!   costs (the break-even point: ask fewer queries than that and the
//!   sparse path wins, more and the batch path wins).
//!
//! ```text
//! cargo run --release -p fastlive-bench --bin bench_query_json [OUT.json]
//! ```

use std::fmt::Write as _;

use fastlive_bench::{dominance_probes, run_probes, run_probes_scalar, sized_function, time_ns};
use fastlive_core::{FunctionLiveness, LivenessChecker};
use fastlive_dataflow::{IterativeLiveness, VarUniverse};
use fastlive_workload::random_digraph;

const PROBES: usize = 512;
const REPS: usize = 15;

/// One before/after row: scalar vs. word-masked ns/query on `probes`.
fn loop_row(
    json: &mut String,
    first: bool,
    shape: &str,
    live: &LivenessChecker,
    probes: &[(u32, u32, u32)],
) {
    let hits = run_probes(live, probes);
    assert_eq!(hits, run_probes_scalar(live, probes), "loops disagree");
    let avg_cands: f64 = probes
        .iter()
        .map(|&(d, _, q)| live.candidates(d, q).count())
        .sum::<usize>() as f64
        / probes.len() as f64;
    let scalar = time_ns(REPS, || run_probes_scalar(live, probes)) / probes.len() as f64;
    let word = time_ns(REPS, || run_probes(live, probes)) / probes.len() as f64;
    let blocks = live.dom().num_reachable();
    let _ = write!(
        json,
        "{}    {{\"shape\": \"{shape}\", \"blocks\": {blocks}, \"probes\": {}, \
         \"positive\": {hits}, \"avg_candidates\": {avg_cands:.1}, \
         \"seed_scalar_ns_per_query\": {scalar:.2}, \
         \"word_masked_ns_per_query\": {word:.2}, \"speedup\": {:.3}}}",
        if first { "" } else { ",\n" },
        probes.len(),
        scalar / word,
    );
    eprintln!(
        "query_loop {shape:<22} blocks={blocks:>5} cands={avg_cands:>6.1}: \
         scalar {scalar:>8.1} ns/q, word {word:>8.1} ns/q ({:.2}x)",
        scalar / word
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_query.json".into());
    let mut json = String::from("{\n  \"query_loop\": [\n");

    // Structured (reducible) CFGs: Theorem 2 keeps candidate counts at
    // ~1, so this regime checks the "no slower than the seed" half of
    // the claim.
    let mut first = true;
    for target in [64usize, 256, 1024] {
        let func = sized_function(target, 0xfeed + target as u64);
        let live = LivenessChecker::compute(&func);
        let probes = dominance_probes(&live, PROBES, 0x9e37);
        loop_row(&mut json, first, "structured", &live, &probes);
        first = false;
    }

    // Irreducible CFGs with dense retreating edges: wide T_q rows. The
    // negative probes (use = def, provably unreachable from every
    // candidate) force full interval scans — the regime the word-masked
    // cursor is built for.
    for n in [256u32, 1024] {
        let g = random_digraph(n, 0xabcd, n as usize * 10);
        let live = LivenessChecker::compute(&g);
        assert!(!live.is_reducible());
        let neg: Vec<(u32, u32, u32)> = dominance_probes(&live, PROBES, 0x9e37)
            .into_iter()
            .map(|(d, _, q)| (d, d, q))
            .collect();
        loop_row(&mut json, false, "irreducible_wide_neg", &live, &neg);
    }

    json.push_str("\n  ],\n  \"batch_breakeven\": [\n");
    let mut first = true;
    for target in [32usize, 128, 512, 1024] {
        let func = sized_function(target, 0xba7c + target as u64);
        let live = FunctionLiveness::compute(&func);
        let universe = VarUniverse::all(&func);
        let blocks = func.num_blocks();
        let values = func.num_values();
        let batch_ns = time_ns(REPS, || live.batch(&func));
        // `live_sets` itself is batch-backed now; the scalar row keeps
        // measuring the per-(value, block) query loop it replaced.
        let scalar_ns = time_ns(REPS.min(5), || live.live_sets_scalar(&func));
        let iterative_ns = time_ns(REPS, || IterativeLiveness::compute(&func, &universe));
        // Per-query cost on this function's own shape, for the
        // break-even estimate.
        let checker = live.checker();
        let probes = dominance_probes(checker, PROBES, 0x517e);
        let per_query = time_ns(REPS, || run_probes(checker, &probes)) / PROBES as f64;
        let breakeven = batch_ns / per_query;
        let _ = write!(
            json,
            "{}    {{\"blocks\": {blocks}, \"values\": {values}, \
             \"batch_ns\": {batch_ns:.0}, \"scalar_all_pairs_ns\": {scalar_ns:.0}, \
             \"iterative_dataflow_ns\": {iterative_ns:.0}, \
             \"query_ns\": {per_query:.2}, \"breakeven_queries\": {breakeven:.0}, \
             \"batch_speedup_vs_scalar\": {:.1}}}",
            if first { "" } else { ",\n" },
            scalar_ns / batch_ns,
        );
        first = false;
        eprintln!(
            "batch blocks={blocks:>5} values={values:>5}: batch {batch_ns:>12.0} ns, \
             scalar-all-pairs {scalar_ns:>14.0} ns ({:.1}x), iterative {iterative_ns:>12.0} ns, \
             break-even ≈ {breakeven:.0} queries",
            scalar_ns / batch_ns
        );
    }
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_query.json");
    println!("wrote {out_path}");
}
