//! `BENCH_query.json`: the seed's scalar query loop against the fused
//! query kernel, and the batch-vs-query break-even analysis.
//!
//! * `query_loop` — ns per probe for the seed's scalar candidate loop
//!   (`is_live_in_scalar`: bit-at-a-time `next_set_bit`, use numbers
//!   re-resolved per candidate) against the fused kernel
//!   (`is_live_in`: one masked two-row AND per use), on
//!   dominance-biased probe streams over growing CFGs. Wide CFGs have
//!   multi-word `T_q` rows, which is where the scalar loop pays per
//!   candidate and the kernel does not.
//! * `batch_breakeven` — wall time to materialize live-in/live-out
//!   sets for *all* (value, block) pairs via one `BatchLiveness`
//!   matrix pass vs. a scalar query per pair vs. the iterative
//!   data-flow solver, plus the number of scalar queries a batch pass
//!   costs (the break-even point: ask fewer queries than that and the
//!   sparse path wins, more and the batch path wins).
//!
//! `--quick` keeps the smallest size of each sweep and cuts the reps.

use fastlive::telemetry::Json;
use fastlive_bench::{
    dominance_probes, ensure, host_cpus, row_set, rows, run_probes, run_probes_scalar,
    sized_function, time_ns,
};
use fastlive_core::{FunctionLiveness, LivenessChecker};
use fastlive_dataflow::{IterativeLiveness, VarUniverse};
use fastlive_workload::random_digraph;

const PROBES: usize = 512;

const LOOP_KEYS: &[&str] = &[
    "shape",
    "blocks",
    "probes",
    "positive",
    "avg_candidates",
    "seed_scalar_ns_per_query",
    "fused_kernel_ns_per_query",
    "speedup",
];

const BATCH_KEYS: &[&str] = &[
    "blocks",
    "values",
    "batch_ns",
    "scalar_all_pairs_ns",
    "iterative_dataflow_ns",
    "query_ns",
    "breakeven_queries",
    "batch_speedup_vs_scalar",
];

/// One before/after row: scalar loop vs. fused kernel ns/query on
/// `probes`.
fn loop_row(reps: usize, shape: &str, live: &LivenessChecker, probes: &[(u32, u32, u32)]) -> Json {
    let hits = run_probes(live, probes);
    assert_eq!(hits, run_probes_scalar(live, probes), "loops disagree");
    let avg_cands: f64 = probes
        .iter()
        .map(|&(d, _, q)| live.candidates(d, q).count())
        .sum::<usize>() as f64
        / probes.len() as f64;
    let scalar = time_ns(reps, || run_probes_scalar(live, probes)) / probes.len() as f64;
    let fused = time_ns(reps, || run_probes(live, probes)) / probes.len() as f64;
    let blocks = live.dom().num_reachable();
    Json::obj()
        .field("shape", shape)
        .field("blocks", blocks)
        .field("probes", probes.len())
        .field("positive", hits)
        .field("avg_candidates", Json::Num(avg_cands, 1))
        .field("seed_scalar_ns_per_query", Json::Num(scalar, 2))
        .field("fused_kernel_ns_per_query", Json::Num(fused, 2))
        .field("speedup", Json::Num(scalar / fused, 3))
}

/// One break-even row on a structured function of ~`target` blocks.
fn batch_row(reps: usize, target: usize) -> Json {
    let func = sized_function(target, 0xba7c + target as u64);
    let live = FunctionLiveness::compute(&func);
    let universe = VarUniverse::all(&func);
    let blocks = func.num_blocks();
    let values = func.num_values();
    let batch_ns = time_ns(reps, || live.batch(&func));
    // `live_sets` itself is batch-backed now; the scalar row keeps
    // measuring the per-(value, block) query loop it replaced.
    let scalar_ns = time_ns(reps.min(5), || live.live_sets_scalar(&func));
    let iterative_ns = time_ns(reps, || IterativeLiveness::compute(&func, &universe));
    // Per-query cost on this function's own shape, for the break-even
    // estimate.
    let checker = live.checker();
    let probes = dominance_probes(checker, PROBES, 0x517e);
    let per_query = time_ns(reps, || run_probes(checker, &probes)) / PROBES as f64;
    let breakeven = batch_ns / per_query;
    Json::obj()
        .field("blocks", blocks)
        .field("values", values)
        .field("batch_ns", Json::Num(batch_ns, 0))
        .field("scalar_all_pairs_ns", Json::Num(scalar_ns, 0))
        .field("iterative_dataflow_ns", Json::Num(iterative_ns, 0))
        .field("query_ns", Json::Num(per_query, 2))
        .field("breakeven_queries", Json::Num(breakeven, 0))
        .field(
            "batch_speedup_vs_scalar",
            Json::Num(scalar_ns / batch_ns, 1),
        )
}

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let reps = if quick { 3 } else { 15 };
    let (structured, irreducible, batch): (&[usize], &[u32], &[usize]) = if quick {
        (&[64], &[256], &[32])
    } else {
        (&[64, 256, 1024], &[256, 1024], &[32, 128, 512, 1024])
    };
    let mut loops = Vec::new();
    // Structured (reducible) CFGs: Theorem 2 keeps candidate counts at
    // ~1, so this regime checks the "no slower than the seed" half of
    // the claim.
    for &target in structured {
        let func = sized_function(target, 0xfeed + target as u64);
        let live = LivenessChecker::compute(&func);
        let probes = dominance_probes(&live, PROBES, 0x9e37);
        loops.push(loop_row(reps, "structured", &live, &probes));
    }
    // Irreducible CFGs with dense retreating edges: wide T_q rows. The
    // negative probes (use = def, provably unreachable from every
    // candidate) force the scalar loop through full interval scans.
    for &n in irreducible {
        let g = random_digraph(n, 0xabcd, n as usize * 10);
        let live = LivenessChecker::compute(&g);
        assert!(!live.is_reducible());
        let neg: Vec<(u32, u32, u32)> = dominance_probes(&live, PROBES, 0x9e37)
            .into_iter()
            .map(|(d, _, q)| (d, d, q))
            .collect();
        loops.push(loop_row(reps, "irreducible_wide_neg", &live, &neg));
    }
    Json::obj()
        .field("host_cpus", host_cpus())
        .field("query_loop", loops)
        .field(
            "batch_breakeven",
            batch.iter().map(|&t| batch_row(reps, t)).collect::<Json>(),
        )
}

/// The report's keys, both shapes, and non-empty sweeps.
pub fn check(d: &Json) -> Result<(), String> {
    d.require(&["host_cpus", "query_loop", "batch_breakeven"])?;
    let loops = rows(d, "query_loop", LOOP_KEYS)?;
    row_set(loops, &["shape"], &["structured", "irreducible_wide_neg"])?;
    let batch = rows(d, "batch_breakeven", BATCH_KEYS)?;
    ensure(!batch.is_empty(), "batch_breakeven is empty")
}
