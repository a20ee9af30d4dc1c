//! `BENCH_query.json`: the seed's scalar query loop against the fused
//! query kernel, and the batch-vs-query break-even analysis.
//!
//! * `query_loop` — ns per probe for the seed's scalar candidate loop
//!   (`baseline::is_live_in_scalar`: bit-at-a-time `next_set_bit`, use numbers
//!   re-resolved per candidate) against the fused kernel
//!   (`is_live_in`: one masked two-row AND per use), on
//!   dominance-biased probe streams over growing CFGs. Wide CFGs have
//!   multi-word `T_q` rows, which is where the scalar loop pays per
//!   candidate and the kernel does not.
//! * `batch_breakeven` — live-in/live-out for *all* (value, block)
//!   pairs, compared on equal outputs: bit rows from one
//!   `BatchLiveness` matrix pass against bit rows from the iterative
//!   data-flow solve (`batch_vs_iterative`), and value sets from
//!   `FunctionLiveness::live_sets` (the batch pass plus conversion)
//!   against value sets from a scalar query per pair
//!   (`batch_speedup_vs_scalar`); plus the number of scalar queries a
//!   batch pass costs (the break-even point: ask fewer queries than
//!   that and the sparse path wins, more and the batch path wins).
//!
//! `--quick` keeps the smallest size of each sweep and cuts the
//! rounds.

use fastlive::telemetry::Json;
use fastlive_bench::{
    dominance_probes, ensure, header, measure, num, row_set, rows, run_probes, run_probes_scalar,
    sized_function, win, Arm, SpreadField,
};
use fastlive_core::{baseline, FunctionLiveness, LivenessChecker};
use fastlive_dataflow::{IterativeLiveness, VarUniverse};
use fastlive_workload::random_digraph;

const PROBES: usize = 512;

const LOOP_KEYS: &str = "shape blocks probes positive avg_candidates \
    seed_scalar_ns_per_query fused_kernel_ns_per_query speedup";

const BATCH_KEYS: &str = "blocks values batch_ns iterative_dataflow_ns batch_vs_iterative \
    live_sets_ns scalar_all_pairs_ns batch_speedup_vs_scalar query_ns breakeven_queries";

/// One before/after row: scalar loop vs. fused kernel ns/query on
/// `probes`.
fn loop_row(
    rounds: usize,
    shape: &str,
    live: &LivenessChecker,
    probes: &[(u32, u32, u32)],
) -> Json {
    let hits = run_probes(live, probes);
    assert_eq!(
        hits,
        run_probes_scalar(live, probes, true),
        "loops disagree"
    );
    let avg_cands: f64 = probes
        .iter()
        .map(|&(d, _, q)| baseline::candidates(live, d, q, true).count())
        .sum::<usize>() as f64
        / probes.len() as f64;
    let m = measure(
        rounds,
        vec![
            Arm::new(|| run_probes_scalar(live, probes, true)),
            Arm::new(|| run_probes(live, probes)),
        ],
    );
    let n = probes.len() as f64;
    Json::obj()
        .field("shape", shape)
        .field("blocks", live.dom().num_reachable())
        .field("probes", probes.len())
        .field("positive", hits)
        .field("avg_candidates", Json::Num(avg_cands, 1))
        .spread("seed_scalar_ns_per_query", m.per_round(|s| s[0] / n), 2)
        .spread("fused_kernel_ns_per_query", m.per_round(|s| s[1] / n), 2)
        .spread("speedup", m.ratio(0, 1), 3)
}

/// One break-even row on a structured function of ~`target` blocks.
fn batch_row(rounds: usize, target: usize) -> Json {
    let func = sized_function(target, 0xba7c + target as u64);
    let live = FunctionLiveness::compute(&func);
    let universe = VarUniverse::all(&func);
    assert_eq!(
        live.live_sets(&func),
        baseline::live_sets_scalar(&live, &func),
        "set builders disagree"
    );
    // Per-query cost on this function's own shape, for the break-even
    // estimate.
    let checker = live.checker();
    let probes = dominance_probes(checker, PROBES, 0x517e);
    let n = PROBES as f64;
    // The pass, the solve and the allocation-free probe loop share one
    // `measure`, so `breakeven_queries` stays a per-round ratio. The
    // set builders get their own: timed in the same rounds, `batch_ns`
    // moves with the heap state they leave.
    let m = measure(
        rounds,
        vec![
            Arm::new(|| live.batch(&func)),
            Arm::new(|| IterativeLiveness::compute(&func, &universe)),
            Arm::new(|| run_probes(checker, &probes)),
        ],
    );
    let sets = measure(
        rounds,
        vec![
            Arm::new(|| live.live_sets(&func)),
            Arm::new(|| baseline::live_sets_scalar(&live, &func)),
        ],
    );
    Json::obj()
        .field("blocks", func.num_blocks())
        .field("values", func.num_values())
        .spread("batch_ns", m.arm(0), 0)
        .spread("iterative_dataflow_ns", m.arm(1), 0)
        .spread("batch_vs_iterative", m.ratio(0, 1), 2)
        .spread("live_sets_ns", sets.arm(0), 0)
        .spread("scalar_all_pairs_ns", sets.arm(1), 0)
        .spread("batch_speedup_vs_scalar", sets.ratio(1, 0), 1)
        .spread("query_ns", m.per_round(|s| s[2] / n), 2)
        .spread("breakeven_queries", m.per_round(|s| s[0] / s[2] * n), 0)
}

/// Runs the suite.
pub fn run(quick: bool) -> Json {
    let rounds = if quick { 3 } else { 15 };
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
        loops.push(loop_row(rounds, "structured", &live, &probes));
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
        loops.push(loop_row(rounds, "irreducible_wide_neg", &live, &neg));
    }
    let batch: Json = batch.iter().map(|&t| batch_row(rounds, t)).collect();
    (header(quick, rounds))
        .field("query_loop", loops)
        .field("batch_breakeven", batch)
}

/// The report's keys, both shapes, non-empty sweeps, and in full runs
/// the fused kernel's and the batch's wins.
pub fn check(d: &Json) -> Result<(), String> {
    d.require(&["query_loop", "batch_breakeven"])?;
    let loops = rows(d, "query_loop", LOOP_KEYS)?;
    row_set(loops, &["shape"], &["structured", "irreducible_wide_neg"])?;
    // The kernel wins on wide negative scans and, by a small margin, on
    // the largest structured CFG.
    for r in loops {
        let wide = r.get("shape") == Some(&Json::from("irreducible_wide_neg"));
        if wide || num(r, "blocks")? >= 1024.0 {
            win(d, r, "speedup")?;
        }
    }
    let batch = rows(d, "batch_breakeven", BATCH_KEYS)?;
    for r in batch {
        win(d, r, "batch_speedup_vs_scalar")?;
    }
    ensure(!batch.is_empty(), "batch_breakeven is empty")
}
