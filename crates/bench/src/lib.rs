//! Shared harness code for the `fastlive-bench` runner
//! (`src/main.rs`): workload preparation, timing, query streams, and
//! the helpers the report suites check their `BENCH_*.json` with.
//!
//! The measurement methodology follows §6.2 of the paper:
//!
//! * **Precomputation time** — per procedure: for the "native" engine,
//!   solving the data-flow equations over the φ-related universe (and,
//!   for the §6.2 side claim, the full universe); for the "new" engine,
//!   computing the `R`/`T` matrices (plus DFS and dominators).
//! * **Query time** — per query: the exact query stream recorded while
//!   Sreedhar III SSA destruction ran is replayed against each engine
//!   on the post-destruction function, so both engines answer the same
//!   questions about the same program.
//! * Times come from [`std::time::Instant`]; the paper used rdtsc
//!   cycles on a 1.4 GHz Pentium M (1000 cycles = 714 ns). We report
//!   nanoseconds; all of the paper's *claims* are ratios, which are
//!   unit-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::time::Instant;

use fastlive::telemetry::Json;
use fastlive::{Block, Module, PointRef, Query, Value};
use fastlive_core::{FunctionLiveness, LivenessChecker};
use fastlive_dataflow::{LaoLiveness, VarUniverse};
use fastlive_destruct::{destruct_ssa, CheckerEngine, DestructResult, QueryKind, QueryRecord};
use fastlive_ir::Function;
use fastlive_workload::{generate_suite, BenchProfile, SplitMix64, Suite};

/// The machine's available parallelism, recorded in every report:
/// thread-scaling figures mean nothing without it.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Total block count over a module's functions.
fn module_blocks(m: &Module) -> usize {
    m.functions().iter().map(|f| f.num_blocks()).sum()
}

/// The keys of [`module_header`].
pub const MODULE_HEADER: &[&str] = &["host_cpus", "functions", "blocks_total"];

/// The header every module-driven report starts with: `host_cpus`,
/// `functions` and `blocks_total`.
pub fn module_header(m: &Module) -> Json {
    Json::obj()
        .field("host_cpus", host_cpus())
        .field("functions", m.len())
        .field("blocks_total", module_blocks(m))
}

/// Scale (percent of the paper's procedure counts) read from
/// `FASTLIVE_SCALE`, defaulting to `dflt`.
pub fn scale_from_env(dflt: u32) -> u32 {
    std::env::var("FASTLIVE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(dflt)
        .clamp(1, 400)
}

/// Generates all ten suites at the given scale.
pub fn all_suites(scale: u32, seed: u64) -> Vec<Suite> {
    fastlive_workload::SPEC2000_INT
        .iter()
        .map(|p| generate_suite(p, scale, seed))
        .collect()
}

/// One prepared procedure: the post-destruction function plus the query
/// stream its destruction issued.
pub struct PreparedProc {
    /// The function after edge splitting and copy insertion.
    pub func: Function,
    /// The recorded liveness queries of the destruction pass.
    pub queries: Vec<QueryRecord>,
}

/// Runs SSA destruction (with the checker engine) on every function of
/// a suite, collecting the per-procedure query streams.
pub fn prepare_suite(suite: &Suite) -> Vec<PreparedProc> {
    suite
        .functions
        .iter()
        .map(|f| {
            let DestructResult { func, stats, .. } =
                destruct_ssa(f.clone(), CheckerEngine::compute);
            PreparedProc {
                func,
                queries: stats.queries,
            }
        })
        .collect()
}

/// The median of `samples` (the upper middle one for an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median-of-`reps` wall time of `work`, in nanoseconds. Each rep
/// first runs `setup` untimed (wiping a store, building a fresh
/// engine) and hands its result to `work`. A `black_box` on the
/// result keeps the optimizer honest.
pub fn median_ns<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut work: impl FnMut(S) -> T,
) -> f64 {
    assert!(reps >= 1);
    median(
        (0..reps)
            .map(|_| {
                let input = setup();
                let t0 = Instant::now();
                let out = work(input);
                let ns = t0.elapsed().as_nanos() as f64;
                std::hint::black_box(out);
                ns
            })
            .collect(),
    )
}

/// [`median_ns`] without a set-up.
pub fn time_ns<T>(reps: usize, mut work: impl FnMut() -> T) -> f64 {
    median_ns(reps, || (), |()| work())
}

/// Median ns per call of `work` over `samples` batches, each batch
/// calling `work` often enough to take at least a millisecond — for
/// calls too short for one clock read pair to time.
pub fn batched_ns<T>(samples: usize, mut work: impl FnMut() -> T) -> f64 {
    let mut batch = |iters: usize| {
        for _ in 0..iters {
            std::hint::black_box(work());
        }
    };
    let mut iters = 1;
    while time_ns(1, || batch(iters)) < 1e6 && iters < 1 << 24 {
        iters *= 2;
    }
    time_ns(samples, || batch(iters)) / iters as f64
}

/// Replays a query stream against the paper's checker; returns the
/// number of positive answers (and keeps the loop from being optimized
/// away). Point queries ([`QueryKind::LiveAt`]) go through
/// [`FunctionLiveness::is_live_at`].
pub fn replay_checker(live: &FunctionLiveness, func: &Function, queries: &[QueryRecord]) -> usize {
    let mut hits = 0;
    for q in queries {
        let ans = match q.kind {
            QueryKind::LiveIn => live.is_live_in(func, q.value, q.block),
            QueryKind::LiveOut => live.is_live_out(func, q.value, q.block),
            QueryKind::LiveAt { .. } => {
                let p = q.point().expect("LiveAt record carries a point");
                live.is_live_at(func, q.value, p)
                    .expect("recorded streams never query detached definitions")
            }
        };
        hits += ans as usize;
    }
    hits
}

/// Replays a query stream against the LAO-style baseline (binary-search
/// lookups in sorted arrays). Point queries use the block-query
/// decomposition — exactly what a block-granularity engine must do —
/// over `func`'s current def-use chains.
pub fn replay_native(live: &LaoLiveness, func: &Function, queries: &[QueryRecord]) -> usize {
    let mut hits = 0;
    for q in queries {
        let ans = match q.kind {
            QueryKind::LiveIn => live.is_live_in(q.value, q.block),
            QueryKind::LiveOut => live.is_live_out(q.value, q.block),
            QueryKind::LiveAt { .. } => {
                let p = q.point().expect("LiveAt record carries a point");
                match func.is_defined_at(q.value, p) {
                    Some(true) => {
                        func.has_use_after(q.value, p) || live.is_live_out(q.value, p.block())
                    }
                    _ => false,
                }
            }
        };
        hits += ans as usize;
    }
    hits
}

/// A structured function of roughly `target` blocks with a nesting
/// depth that grows with size — the workload shape of the `query`
/// suite's query-loop and batch rows.
pub fn sized_function(target: usize, seed: u64) -> Function {
    let params = fastlive_workload::GenParams {
        target_blocks: target,
        max_depth: 3 + (target / 16).min(8) as u32,
        ..fastlive_workload::GenParams::default()
    };
    fastlive_workload::generate_function(&format!("q{target}"), params, seed).1
}

/// Deterministic `(def, use, q)` probe triples biased toward
/// non-trivial candidate scans: `def` is reachable and both the query
/// block and the use block lie inside `def`'s dominance subtree, so
/// the Algorithm 3 interval `[num(def)+1, maxnum(def)]` is non-empty
/// for most probes. This is the workload where the query loop's cost
/// actually lives; uniformly random triples mostly die at the
/// `q ∉ sdom(def)` precheck.
pub fn dominance_probes(live: &LivenessChecker, count: usize, seed: u64) -> Vec<(u32, u32, u32)> {
    let dom = live.dom();
    let n = dom.num_reachable() as u32;
    // With < 2 reachable blocks no definition strictly dominates
    // anything, so no non-trivial probe exists and the draw loop below
    // could never terminate.
    assert!(
        n > 1,
        "dominance_probes needs at least two reachable blocks"
    );
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let defn = step() as u32 % n;
        let def = dom.node_at_num(defn);
        let mx = dom.maxnum(def);
        if mx == defn {
            continue; // dominates nothing: the probe would be trivial
        }
        let span = mx - defn;
        let qn = defn + 1 + step() as u32 % span;
        let un = defn + step() as u32 % (span + 1);
        out.push((def, dom.node_at_num(un), dom.node_at_num(qn)));
    }
    out
}

/// Replays graph-level probes against the fused query kernel
/// ([`LivenessChecker::is_live_in`]); returns the positive-answer
/// count.
pub fn run_probes(live: &LivenessChecker, probes: &[(u32, u32, u32)]) -> usize {
    probes
        .iter()
        .map(|&(d, u, q)| live.is_live_in(d, &[u], q) as usize)
        .sum()
}

/// Replays the same probes against the seed's scalar loop
/// ([`LivenessChecker::is_live_in_scalar`]) for the before/after
/// comparison.
pub fn run_probes_scalar(live: &LivenessChecker, probes: &[(u32, u32, u32)]) -> usize {
    probes
        .iter()
        .map(|&(d, u, q)| live.is_live_in_scalar(d, &[u], q) as usize)
        .sum()
}

/// `LiveIn` + `LiveOut` for every `(value, block)` pair — the dense
/// consumer's query stream (interference-graph construction),
/// id-addressed.
pub fn dense_batch(module: &Module) -> Vec<Query> {
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
pub fn mixed_batch(
    module: &Module,
    n: usize,
    block_per_mille: usize,
    with_sets: bool,
    seed: u64,
) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed | 1);
    let mut next = |bound: usize| (rng.next_u64() % bound.max(1) as u64) as usize;
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

/// The rows of the array field `key` of `report`, each checked to
/// carry `keys`.
pub fn rows<'a>(report: &'a Json, key: &str, keys: &[&str]) -> Result<&'a [Json], String> {
    let rows = report
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{key}` is not an array"))?;
    rows.iter().try_for_each(|r| r.require(keys))?;
    Ok(rows)
}

/// The object field `key` of `report`, checked to carry `keys`.
pub fn section<'a>(report: &'a Json, key: &str, keys: &[&str]) -> Result<&'a Json, String> {
    let obj = report
        .get(key)
        .ok_or_else(|| format!("missing key `{key}`"))?;
    obj.require(keys)?;
    Ok(obj)
}

/// Field `key` of `obj` as a number.
pub fn num(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("`{key}` is not a number in {obj}"))
}

/// The distinct values the fields `keys` take together over `rows`,
/// joined by `/` with strings unquoted.
pub fn column(rows: &[Json], keys: &[&str]) -> BTreeSet<String> {
    rows.iter()
        .map(|r| {
            let cell: Vec<String> = keys
                .iter()
                .map(|k| match r.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(v) => v.to_string(),
                    None => "?".to_string(),
                })
                .collect();
            cell.join("/")
        })
        .collect()
}

/// `Err` unless the [`column()`] of `keys` over `rows` is exactly
/// `expected` — pins a report's row set.
pub fn row_set(rows: &[Json], keys: &[&str], expected: &[&str]) -> Result<(), String> {
    let got = column(rows, keys);
    let want: BTreeSet<String> = expected.iter().map(|s| s.to_string()).collect();
    ensure(
        got == want,
        format!("{keys:?} rows are {got:?}, expected {want:?}"),
    )
}

/// `Ok` when `cond` holds, else `Err(what)`.
pub fn ensure(cond: bool, what: impl Into<String>) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what.into())
    }
}

/// The per-benchmark measurements backing one Table 2 row.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Procedures measured.
    pub procs: usize,
    /// Mean native (LAO φ-related) precompute ns per procedure.
    pub native_pre_ns: f64,
    /// Mean checker precompute ns per procedure.
    pub new_pre_ns: f64,
    /// Total queries replayed.
    pub queries: usize,
    /// Mean native ns per query.
    pub native_query_ns: f64,
    /// Mean checker ns per query.
    pub new_query_ns: f64,
    /// Mean full-universe data-flow precompute ns per procedure
    /// (the §6.2 "full liveness" variant).
    pub full_pre_ns: f64,
    /// Mean φ-related live-in set cardinality (paper: 3.16).
    pub fill_phi: f64,
    /// Mean full-universe live-in set cardinality (paper: 18.52).
    pub fill_full: f64,
}

impl Table2Row {
    /// Precomputation speedup (native / new), Table 2 "Spdup".
    pub fn pre_speedup(&self) -> f64 {
        self.native_pre_ns / self.new_pre_ns
    }
    /// Query speedup (native / new; below 1 means the checker's query
    /// is slower, as the paper reports).
    pub fn query_speedup(&self) -> f64 {
        self.native_query_ns / self.new_query_ns
    }
    /// Combined speedup per the paper's formula:
    /// `#proc×pre + #queries×query` for each engine, then the ratio.
    pub fn both_speedup(&self) -> f64 {
        let native =
            self.procs as f64 * self.native_pre_ns + self.queries as f64 * self.native_query_ns;
        let new = self.procs as f64 * self.new_pre_ns + self.queries as f64 * self.new_query_ns;
        native / new
    }
}

/// Measures one suite into a [`Table2Row`]. `reps` controls the
/// median-of-N timing.
pub fn measure_suite(profile: &BenchProfile, prepared: &[PreparedProc], reps: usize) -> Table2Row {
    let mut native_pre = 0.0;
    let mut new_pre = 0.0;
    let mut full_pre = 0.0;
    let mut native_q = 0.0;
    let mut new_q = 0.0;
    let mut queries = 0usize;
    let mut fill_phi = 0.0;
    let mut fill_full = 0.0;

    for p in prepared {
        let phi = VarUniverse::phi_related(&p.func);
        let all = VarUniverse::all(&p.func);
        native_pre += time_ns(reps, || LaoLiveness::compute(&p.func, &phi));
        new_pre += time_ns(reps, || FunctionLiveness::compute(&p.func));
        full_pre += time_ns(reps, || LaoLiveness::compute(&p.func, &all));

        let lao = LaoLiveness::compute(&p.func, &phi);
        let checker = FunctionLiveness::compute(&p.func);
        fill_phi += lao.average_fill();
        fill_full += LaoLiveness::compute(&p.func, &all).average_fill();
        if !p.queries.is_empty() {
            queries += p.queries.len();
            native_q += time_ns(reps, || replay_native(&lao, &p.func, &p.queries));
            new_q += time_ns(reps, || replay_checker(&checker, &p.func, &p.queries));
        }
    }

    let n = prepared.len().max(1) as f64;
    Table2Row {
        name: profile.name.to_string(),
        procs: prepared.len(),
        native_pre_ns: native_pre / n,
        new_pre_ns: new_pre / n,
        queries,
        native_query_ns: if queries == 0 {
            0.0
        } else {
            native_q / queries as f64
        },
        new_query_ns: if queries == 0 {
            0.0
        } else {
            new_q / queries as f64
        },
        full_pre_ns: full_pre / n,
        fill_phi: fill_phi / n,
        fill_full: fill_full / n,
    }
}

/// Aggregates rows into the paper's "Total" line (procedure- and
/// query-weighted means).
pub fn total_row(rows: &[Table2Row]) -> Table2Row {
    let procs: usize = rows.iter().map(|r| r.procs).sum();
    let queries: usize = rows.iter().map(|r| r.queries).sum();
    let wavg_p = |f: &dyn Fn(&Table2Row) -> f64| {
        rows.iter().map(|r| f(r) * r.procs as f64).sum::<f64>() / procs.max(1) as f64
    };
    let wavg_q = |f: &dyn Fn(&Table2Row) -> f64| {
        rows.iter().map(|r| f(r) * r.queries as f64).sum::<f64>() / queries.max(1) as f64
    };
    Table2Row {
        name: "Total".to_string(),
        procs,
        native_pre_ns: wavg_p(&|r| r.native_pre_ns),
        new_pre_ns: wavg_p(&|r| r.new_pre_ns),
        queries,
        native_query_ns: wavg_q(&|r| r.native_query_ns),
        new_query_ns: wavg_q(&|r| r.new_query_ns),
        full_pre_ns: wavg_p(&|r| r.full_pre_ns),
        fill_phi: wavg_p(&|r| r.fill_phi),
        fill_full: wavg_p(&|r| r.fill_full),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_suite_has_queries() {
        let suite = generate_suite(&fastlive_workload::SPEC2000_INT[3], 20, 5);
        let prepared = prepare_suite(&suite);
        assert_eq!(prepared.len(), suite.functions.len());
        let total: usize = prepared.iter().map(|p| p.queries.len()).sum();
        assert!(total > 0, "destruction must issue queries");
    }

    #[test]
    fn replay_engines_agree_on_answers() {
        let suite = generate_suite(&fastlive_workload::SPEC2000_INT[3], 20, 6);
        for p in prepare_suite(&suite) {
            let phi = VarUniverse::phi_related(&p.func);
            let lao = LaoLiveness::compute(&p.func, &phi);
            let checker = FunctionLiveness::compute(&p.func);
            for q in &p.queries {
                // Replay only φ-universe values: the destruct stream may
                // mention non-φ class members, which LAO cannot answer.
                if phi.index_of(q.value).is_none() {
                    continue;
                }
                let (a, b) = match q.kind {
                    QueryKind::LiveIn => (
                        checker.is_live_in(&p.func, q.value, q.block),
                        lao.is_live_in(q.value, q.block),
                    ),
                    QueryKind::LiveOut => (
                        checker.is_live_out(&p.func, q.value, q.block),
                        lao.is_live_out(q.value, q.block),
                    ),
                    QueryKind::LiveAt { .. } => {
                        let point = q.point().unwrap();
                        (
                            checker.is_live_at(&p.func, q.value, point).unwrap(),
                            replay_native(&lao, &p.func, std::slice::from_ref(q)) == 1,
                        )
                    }
                };
                assert_eq!(a, b, "{:?} on {}", q, p.func.name);
            }
        }
    }

    #[test]
    fn probe_replays_agree_between_loops() {
        let params = fastlive_workload::GenParams {
            target_blocks: 96,
            ..fastlive_workload::GenParams::default()
        };
        let (_, func) = fastlive_workload::generate_function("probe", params, 0x5eed);
        let live = LivenessChecker::compute(&func);
        let probes = dominance_probes(&live, 512, 42);
        assert_eq!(probes.len(), 512);
        let hits = run_probes(&live, &probes);
        assert_eq!(hits, run_probes_scalar(&live, &probes));
        assert!(hits > 0, "dominance-biased probes should find live values");
        // The probes honor the dominance bias they promise.
        for &(d, u, q) in &probes {
            assert!(live.dom().dominates(d, u));
            assert!(live.dom().strictly_dominates(d, q));
        }
    }

    #[test]
    fn measurement_produces_sane_ratios() {
        let suite = generate_suite(&fastlive_workload::SPEC2000_INT[8], 30, 7);
        let prepared = prepare_suite(&suite);
        let row = measure_suite(&suite.profile, &prepared, 3);
        assert!(row.native_pre_ns > 0.0);
        assert!(row.new_pre_ns > 0.0);
        assert!(row.pre_speedup() > 0.0);
        assert!(row.both_speedup() > 0.0);
        let total = total_row(&[row.clone(), row]);
        assert_eq!(total.procs, 2 * suite.functions.len());
    }
}
