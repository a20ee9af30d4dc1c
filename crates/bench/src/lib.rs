//! Shared harness code for the `fastlive-bench` runner
//! (`src/main.rs`): workload preparation, the one timing method
//! ([`measure`]), query streams, and the helpers the report suites
//! check their `BENCH_*.json` with.
//!
//! Table 2's methodology follows §6.2 of the paper: precomputation
//! time per procedure (the "native" data-flow solve over the φ-related
//! universe, and the full one for the §6.2 side claim, against the
//! checker's `R`/`T` matrices plus DFS and dominators), and query time
//! per query, replaying the stream Sreedhar III SSA destruction issued
//! against each engine on the post-destruction function. The paper
//! counted Pentium M cycles; we report nanoseconds, and all of the
//! paper's *claims* are ratios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::fmt;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fastlive::telemetry::Json;
use fastlive::{Block, CacheStats, Fastlive, Module, PointRef, Query, Value};
use fastlive_core::{baseline, FunctionLiveness, LivenessChecker};
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

/// The keys of [`header`], which the runner checks in every report.
pub const HEADER: &str = "host_cpus build_profile quick rounds";

/// The header every report starts with: the host's parallelism, the
/// build profile, whether the run was `--quick`, and the rounds of
/// each [`measure`].
pub fn header(quick: bool, rounds: usize) -> Json {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::obj()
        .field("host_cpus", host_cpus())
        .field("build_profile", profile)
        .field("quick", quick)
        .field("rounds", rounds)
}

/// [`header`] plus the measured module's `functions` and
/// `blocks_total`.
pub fn module_header(quick: bool, rounds: usize, m: &Module) -> Json {
    let blocks: usize = m.functions().iter().map(|f| f.num_blocks()).sum();
    header(quick, rounds)
        .field("functions", m.len())
        .field("blocks_total", blocks)
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

/// A sample must span at least this much work: a call shorter than
/// that is batched until its batch does, so one pair of clock reads
/// never dominates what it times.
const FLOOR_NS: f64 = 1e6;

/// The median and quartiles of a set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The lower quartile.
    pub q1: f64,
    /// The median.
    pub median: f64,
    /// The upper quartile.
    pub q3: f64,
}

impl Spread {
    /// The quartiles of `samples`, interpolated linearly between
    /// ranks: the median of an even count is the mean of the middle
    /// two.
    pub fn of(mut samples: Vec<f64>) -> Spread {
        assert!(!samples.is_empty(), "spread of no samples");
        samples.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let h = (samples.len() - 1) as f64 * p;
            let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
            samples[lo] + (h - lo as f64) * (samples[hi] - samples[lo])
        };
        Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

/// `median [q1, q3]`, each at the formatter's precision (default 1).
impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(1);
        write!(f, "{:.p$} [{:.p$}, {:.p$}]", self.median, self.q1, self.q3)
    }
}

/// Report fields for a [`Spread`].
pub trait SpreadField {
    /// Adds the median as `key` and `[q1, q3]` as `{key}_iqr`, both
    /// rounded to `decimals`.
    fn spread(self, key: &str, s: Spread, decimals: usize) -> Json;
}

impl SpreadField for Json {
    fn spread(self, key: &str, s: Spread, decimals: usize) -> Json {
        let iqr = vec![Json::Num(s.q1, decimals), Json::Num(s.q3, decimals)];
        self.field(key, Json::Num(s.median, decimals))
            .field(&format!("{key}_iqr"), iqr)
    }
}

/// One arm of a measured row: the work whose calls are timed, with an
/// optional untimed set-up before each call.
pub struct Arm<'a> {
    /// Runs the given number of calls as one sample; returns its ns.
    run: Box<dyn FnMut(usize) -> f64 + 'a>,
    batch: bool,
}

impl<'a> Arm<'a> {
    /// An arm timing `work`, batched up to a millisecond per sample
    /// when one call is too short to time.
    pub fn new<T>(mut work: impl FnMut() -> T + 'a) -> Arm<'a> {
        let run = Box::new(move |calls| {
            let t0 = Instant::now();
            for _ in 0..calls {
                black_box(work());
            }
            t0.elapsed().as_nanos() as f64
        });
        Arm { run, batch: true }
    }

    /// An arm timing `work` on the output of `setup` (a wiped store, a
    /// fresh engine), which runs before every call outside the sample.
    /// Its samples are single calls, since the set-up must run between
    /// them.
    pub fn with_setup<S, T>(
        mut setup: impl FnMut() -> S + 'a,
        mut work: impl FnMut(S) -> T + 'a,
    ) -> Arm<'a> {
        let run = Box::new(move |_| {
            let input = setup();
            let t0 = Instant::now();
            black_box(work(input));
            t0.elapsed().as_nanos() as f64
        });
        Arm { run, batch: false }
    }
}

/// The samples of one [`measure`]: ns per call, per arm and round.
#[derive(Clone, Debug)]
pub struct Measured {
    /// `samples[arm][round]`.
    samples: Vec<Vec<f64>>,
}

impl Measured {
    /// Arm `i`'s ns per call.
    pub fn arm(&self, i: usize) -> Spread {
        Spread::of(self.samples[i].clone())
    }

    /// `f` of each round's samples (indexed by arm): a statistic of
    /// paired samples, never of two separate medians.
    pub fn per_round(&self, f: impl Fn(&[f64]) -> f64) -> Spread {
        let rounds = self.samples[0].len();
        Spread::of(
            (0..rounds)
                .map(|r| f(&self.samples.iter().map(|s| s[r]).collect::<Vec<_>>()))
                .collect(),
        )
    }

    /// Arm `num`'s time over arm `den`'s, per round.
    pub fn ratio(&self, num: usize, den: usize) -> Spread {
        self.per_round(|s| s[num] / s[den])
    }
}

/// Times the arms of one row, the one way every BENCH number is taken.
///
/// A warm-up round runs each arm untimed and sizes its batch: an arm
/// without set-up doubles its calls per sample until a sample spans
/// a millisecond. Then come `rounds` rounds; each runs every arm once,
/// starting one arm later than the round before, so slow drift of the
/// host hits every arm alike. Every output goes through `black_box`
/// and is dropped inside its sample.
pub fn measure(rounds: usize, mut arms: Vec<Arm<'_>>) -> Measured {
    assert!(rounds >= 1 && !arms.is_empty(), "nothing to measure");
    let calls: Vec<usize> = arms
        .iter_mut()
        .map(|arm| {
            let mut calls = 1;
            while (arm.run)(calls) < FLOOR_NS && arm.batch && calls < 1 << 24 {
                calls *= 2;
            }
            calls
        })
        .collect();
    let n = arms.len();
    let mut samples = vec![Vec::with_capacity(rounds); n];
    for round in 0..rounds {
        for i in (0..n).map(|k| (round + k) % n) {
            samples[i].push((arms[i].run)(calls[i]) / calls[i] as f64);
        }
    }
    Measured { samples }
}

/// The rungs of [`ladder`], slowest first.
pub const LADDER: [&str; 3] = ["cold", "warm_disk", "warm_memory"];

/// The two-tier cache's cost ladder on one persist `dir`, for a pass
/// `drive` runs on a facade: `cold` is a fresh facade on a store wiped
/// outside the sample, which precomputes, writes through and leaves
/// the store full; `warm_disk` a fresh facade on the full store,
/// asserted to precompute nothing; `warm_memory` one facade whose
/// memory is warm. Returns the measurement and that facade's cache
/// stats, and leaves the store full.
pub fn ladder(
    rounds: usize,
    dir: &Path,
    threads: usize,
    drive: impl Fn(&Fastlive) -> usize,
) -> (Measured, CacheStats) {
    let facade = || {
        Fastlive::builder()
            .threads(threads)
            .persist_dir(dir)
            .build()
            .expect("valid config")
    };
    let fresh = || drive(&facade());
    fresh();
    let warm = facade();
    drive(&warm);
    let stats = warm.engine().cache_stats();
    assert_eq!(
        (stats.misses, stats.disk_rejects),
        (stats.disk_hits, 0),
        "a warm store must serve every probe: {stats:?}"
    );
    let wipe = || {
        let _ = std::fs::remove_dir_all(dir);
    };
    let m = measure(
        rounds,
        vec![
            Arm::with_setup(wipe, |()| fresh()),
            Arm::new(fresh),
            Arm::new(|| drive(&warm)),
        ],
    );
    (m, warm.engine().cache_stats())
}

/// One row per scenario of a cold-first measurement: `scenario`,
/// `analyze_ns` and `speedup_vs_cold`.
pub fn ladder_rows(m: &Measured, scenarios: &[&str]) -> Vec<Json> {
    (scenarios.iter().enumerate())
        .map(|(i, &scenario)| {
            Json::obj()
                .field("scenario", scenario)
                .spread("analyze_ns", m.arm(i), 0)
                .spread("speedup_vs_cold", m.ratio(0, i), 1)
        })
        .collect()
}

/// The [`ladder_rows`] under `key`, checked for their keys and, in
/// full runs, for every warm scenario beating cold.
pub fn ladder_check<'a>(report: &'a Json, key: &str) -> Result<&'a [Json], String> {
    let ladder = rows(report, key, "scenario analyze_ns speedup_vs_cold")?;
    let warm = |r: &&Json| r.get("scenario") != Some(&"cold".into());
    (ladder.iter().filter(warm)).try_for_each(|r| win(report, r, "speedup_vs_cold"))?;
    Ok(ladder)
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
/// ([`baseline::is_live_in_scalar`]) for the before/after comparison,
/// with or without the §4.1 subtree skipping.
pub fn run_probes_scalar(
    live: &LivenessChecker,
    probes: &[(u32, u32, u32)],
    skip_subtrees: bool,
) -> usize {
    probes
        .iter()
        .map(|&(d, u, q)| baseline::is_live_in_scalar(live, d, &[u], q, skip_subtrees) as usize)
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

/// The rows of the array field `key` of `report`, each checked by
/// [`fields`].
pub fn rows<'a>(report: &'a Json, key: &str, keys: &str) -> Result<&'a [Json], String> {
    let rows = report
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{key}` is not an array"))?;
    rows.iter().try_for_each(|r| fields(r, keys))?;
    Ok(rows)
}

/// The object field `key` of `report`, checked by [`fields`].
pub fn section<'a>(report: &'a Json, key: &str, keys: &str) -> Result<&'a Json, String> {
    let obj = report
        .get(key)
        .ok_or_else(|| format!("missing key `{key}`"))?;
    fields(obj, keys)?;
    Ok(obj)
}

/// `Err` unless `obj` carries the whitespace-separated `keys`, each
/// inside its `{key}_iqr` where it has one.
pub fn fields(obj: &Json, keys: &str) -> Result<(), String> {
    keys.split_whitespace().try_for_each(|key| {
        obj.require(&[key])?;
        match iqr(obj, key) {
            Some((q1, q3)) => {
                let m = num(obj, key)?;
                ensure(
                    q1 <= m && m <= q3,
                    format!("`{key}_iqr` must bracket it in {obj}"),
                )
            }
            None => Ok(()),
        }
    })
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

/// `[q1, q3]` of `obj`'s [`SpreadField::spread`] `key`.
fn iqr(obj: &Json, key: &str) -> Option<(f64, f64)> {
    match obj.get(&format!("{key}_iqr")).and_then(Json::as_array)? {
        [q1, q3] => Some((q1.as_f64()?, q3.as_f64()?)),
        _ => None,
    }
}

/// In a full run, `Err` unless the lower quartile of ratio `key` in
/// `obj` clears 1.0: a row the README calls a win must be one. A
/// `--quick` `report` skips the check.
pub fn win(report: &Json, obj: &Json, key: &str) -> Result<(), String> {
    let quick = report.get("quick") == Some(&Json::Bool(true));
    let won = iqr(obj, key).is_some_and(|(q1, _)| q1 > 1.0);
    ensure(quick || won, format!("`{key}` is no win in {obj}"))
}

/// The measurements backing one Table 2 row: one [`measure`] whose
/// arms are, over all of a suite's procedures, the native (LAO
/// φ-related), checker and full-universe precomputations, then the
/// native and checker query replays.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Procedures measured.
    pub procs: usize,
    /// Total queries replayed.
    pub queries: usize,
    /// Mean φ-related live-in set cardinality (paper: 3.16).
    pub fill_phi: f64,
    /// Mean full-universe live-in set cardinality (paper: 18.52).
    pub fill_full: f64,
    /// Whole-suite ns per round of the five arms.
    pub totals: Measured,
}

impl Table2Row {
    /// Median ns per procedure of the native, checker and full-universe
    /// precomputations, then per query of the native and checker
    /// replays.
    pub fn unit_ns(&self) -> [f64; 5] {
        std::array::from_fn(|i| {
            let units = if i < 3 { self.procs } else { self.queries };
            self.totals.arm(i).median / units.max(1) as f64
        })
    }
    /// Precomputation speedup (native / new), Table 2 "Spdup".
    pub fn pre_speedup(&self) -> Spread {
        self.totals.ratio(0, 1)
    }
    /// Query speedup (native / new; below 1 means the checker's query
    /// is slower, as the paper reports).
    pub fn query_speedup(&self) -> Spread {
        self.totals.ratio(3, 4)
    }
    /// Combined speedup per the paper's formula,
    /// `#proc×pre + #queries×query` for each engine, which is each
    /// engine's whole-suite time.
    pub fn both_speedup(&self) -> Spread {
        self.totals.per_round(|s| (s[0] + s[3]) / (s[1] + s[4]))
    }
}

/// Measures one suite into a [`Table2Row`] over `rounds` rounds.
pub fn measure_suite(
    profile: &BenchProfile,
    prepared: &[PreparedProc],
    rounds: usize,
) -> Table2Row {
    let phi: Vec<VarUniverse> = prepared
        .iter()
        .map(|p| VarUniverse::phi_related(&p.func))
        .collect();
    let all: Vec<VarUniverse> = prepared.iter().map(|p| VarUniverse::all(&p.func)).collect();
    let lao: Vec<LaoLiveness> = prepared
        .iter()
        .zip(&phi)
        .map(|(p, u)| LaoLiveness::compute(&p.func, u))
        .collect();
    let checker: Vec<FunctionLiveness> = prepared
        .iter()
        .map(|p| FunctionLiveness::compute(&p.func))
        .collect();
    let n = prepared.len().max(1) as f64;
    let fill_phi = lao.iter().map(LaoLiveness::average_fill).sum::<f64>() / n;
    let fill_full = (prepared.iter().zip(&all))
        .map(|(p, u)| LaoLiveness::compute(&p.func, u).average_fill())
        .sum::<f64>()
        / n;
    fn lao_pre<'a>(prepared: &'a [PreparedProc], universes: &'a [VarUniverse]) -> Arm<'a> {
        Arm::new(move || {
            for (p, u) in prepared.iter().zip(universes) {
                black_box(LaoLiveness::compute(&p.func, u));
            }
        })
    }
    let totals = measure(
        rounds,
        vec![
            lao_pre(prepared, &phi),
            Arm::new(|| {
                for p in prepared {
                    black_box(FunctionLiveness::compute(&p.func));
                }
            }),
            lao_pre(prepared, &all),
            Arm::new(|| {
                (prepared.iter().zip(&lao))
                    .map(|(p, l)| replay_native(l, &p.func, &p.queries))
                    .sum::<usize>()
            }),
            Arm::new(|| {
                (prepared.iter().zip(&checker))
                    .map(|(p, c)| replay_checker(c, &p.func, &p.queries))
                    .sum::<usize>()
            }),
        ],
    );
    Table2Row {
        name: profile.name.to_string(),
        procs: prepared.len(),
        queries: prepared.iter().map(|p| p.queries.len()).sum(),
        fill_phi,
        fill_full,
        totals,
    }
}

/// Aggregates rows into the paper's "Total" line: each round's
/// whole-workload time is the sum of the suites' times in that round,
/// and fills are procedure-weighted means.
pub fn total_row(rows: &[Table2Row]) -> Table2Row {
    let procs: usize = rows.iter().map(|r| r.procs).sum();
    let wavg = |f: fn(&Table2Row) -> f64| {
        rows.iter().map(|r| f(r) * r.procs as f64).sum::<f64>() / procs.max(1) as f64
    };
    let mut totals = rows[0].totals.clone();
    for (a, arm) in totals.samples.iter_mut().enumerate() {
        for (r, t) in arm.iter_mut().enumerate() {
            *t = rows.iter().map(|row| row.totals.samples[a][r]).sum();
        }
    }
    Table2Row {
        name: "Total".to_string(),
        procs,
        queries: rows.iter().map(|r| r.queries).sum(),
        fill_phi: wavg(|r| r.fill_phi),
        fill_full: wavg(|r| r.fill_full),
        totals,
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
        assert_eq!(hits, run_probes_scalar(&live, &probes, true));
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
        assert!(row.unit_ns().iter().all(|&ns| ns > 0.0), "{row:?}");
        assert!(row.pre_speedup().median > 0.0);
        assert!(row.both_speedup().median > 0.0);
        let total = total_row(&[row.clone(), row.clone()]);
        assert_eq!(total.procs, 2 * suite.functions.len());
        // Twice the work per round, at the same per-procedure cost.
        assert_eq!(total.pre_speedup(), row.pre_speedup());
        assert_eq!(total.unit_ns(), row.unit_ns());
    }

    #[test]
    fn spread_quartiles_match_hand_computed_values() {
        let odd = Spread::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((odd.q1, odd.median, odd.q3), (2.0, 3.0, 4.0));
        // Even count: ranks 0.75, 1.5 and 2.25 interpolate linearly.
        let even = Spread::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.q1, even.median, even.q3), (1.75, 2.5, 3.25));
        let one = Spread::of(vec![7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn ratios_pair_samples_per_round() {
        let m = Measured {
            samples: vec![vec![10.0, 20.0, 30.0], vec![10.0, 10.0, 30.0]],
        };
        // Per round: 1, 2 and 1; the medians' quotient would say 2.
        assert_eq!(m.arm(0).median / m.arm(1).median, 2.0);
        assert_eq!(m.ratio(0, 1), Spread::of(vec![1.0, 2.0, 1.0]));
        assert_eq!(m.ratio(0, 1).median, 1.0);
    }

    #[test]
    fn set_up_time_never_lands_inside_a_sample() {
        let calls = std::cell::Cell::new(0);
        let sleep = || std::thread::sleep(std::time::Duration::from_millis(5));
        let work = |()| calls.set(calls.get() + 1);
        let m = measure(3, vec![Arm::with_setup(sleep, work)]);
        assert_eq!(calls.get(), 4, "an arm with a set-up is never batched");
        assert!(m.arm(0).q3 < 1e6, "{:?}", m.arm(0));
    }

    #[test]
    fn arms_run_in_rotated_order_each_round() {
        let log = std::cell::RefCell::new(Vec::new());
        let arm = |i: usize| {
            let log = &log;
            Arm::with_setup(|| (), move |()| log.borrow_mut().push(i))
        };
        measure(3, vec![arm(0), arm(1), arm(2)]);
        // The warm-up round, then rounds starting at arm 0, 1 and 2.
        assert_eq!(log.into_inner(), [0, 1, 2, 0, 1, 2, 1, 2, 0, 2, 0, 1]);
    }

    #[test]
    fn short_calls_are_batched_up_to_the_floor_and_reported_per_call() {
        let calls = std::cell::Cell::new(0usize);
        let m = measure(
            2,
            vec![Arm::new(|| {
                calls.set(calls.get() + 1);
                black_box(calls.get())
            })],
        );
        // Warm-up tried 1, 2, ..., `batch` calls; each round ran `batch`.
        let batch = (calls.get() + 1) / 4;
        assert!(batch > 1 && batch.is_power_of_two(), "batch of {batch}");
        assert_eq!(calls.get(), 2 * batch - 1 + 2 * batch);
        let per_call = m.arm(0);
        assert!(per_call.median * (batch as f64) < 4.0 * FLOOR_NS);
        assert!(per_call.median < FLOOR_NS / 2.0, "{per_call:?}");
    }
}
