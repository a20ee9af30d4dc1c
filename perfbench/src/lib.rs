//! The repository benchmark: three workloads driven through the public
//! `fastlive` facade from one client thread, every answer checked
//! against the dataflow oracle.
//!
//! * `serve` — a long-lived session answering scalar queries of all
//!   seven kinds; after set-up nothing is computed.
//! * `edit` — instruction edits every op and a CFG edit on a fixed
//!   share of ops, each followed by one planned batch about the edited
//!   function.
//! * `reopen` — a build per op of a SPEC-profile suite from a persist
//!   store its set-up populated: fresh facade, module analysis from
//!   disk, the SSA-destruction query stream, a nullness pass.
//!
//! An untraced run reports the end-to-end metrics; a traced run (same
//! inputs) reports per-layer metrics from spans the benchmark wraps
//! around its own calls (see [`trace`]). `REFERENCE.md` beside this
//! crate records the workloads' properties and which end-to-end metric
//! each per-layer metric should move.

#![forbid(unsafe_code)]

mod edit;
pub mod host;
pub mod json;
mod reopen;
mod serve;
pub mod stats;
pub mod trace;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::Instant;

use fastlive::{
    BackendKind, CacheStats, Fastlive, FastliveSession, Module, Nullness, Query, QueryError,
    Response,
};

use json::Json;
use stats::{mean, median, quantile, ratio};
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Scalar queries of all kinds against a warm session.
    Serve,
    /// IR edits followed by one planned batch per op.
    Edit,
    /// A build of the SPEC-profile suite per op, from a persist store.
    Reopen,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Serve, Workload::Edit, Workload::Reopen];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Edit => "edit",
            Workload::Reopen => "reopen",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Corrupts one expected answer before the run — the self-test
    /// that the correctness gate can fail.
    pub plant_wrong_answer: bool,
    /// Directory the run may write to: the span export and the persist
    /// store.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one invocation measured.
#[derive(Clone, Debug)]
pub struct Report {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Ops that panicked, answered differently from the oracle, or
    /// broke a counter invariant.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Host block, workload properties, sample counts and, when
    /// traced, the span summary.
    pub detail: Json,
    /// Descriptions of the first failed ops.
    pub failures: Vec<String>,
}

impl Report {
    /// Failed ops ÷ attempted ops.
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result object printed as the last line of standard output.
    pub fn result_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut v = Json::obj();
            v.set("value", m.value).set("unit", m.unit);
            metrics.set(m.name, v);
        }
        let mut o = Json::obj();
        o.set("correct", self.failed == 0)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        o
    }
}

/// A run is cut into this many equal slices of its time, each starting
/// with a fresh set-up that its ops then use: `setup_s` is the median
/// of these set-ups, and they meet the host in the same fast and slow
/// periods the ops do rather than all in the run's first instant.
const SETUP_REPS: usize = 15;
/// Share of a traced run measured untraced first: the baseline of
/// `trace.overhead`.
const BASELINE_SHARE: f64 = 0.25;
/// An untraced run keeps going past its time until it holds this many
/// ops, so that about fifty samples lie beyond the slices' 99th
/// percentiles.
const MIN_OPS: usize = 5000;
/// Hard stop, whatever the op count: a run must end well within the
/// three minutes a benchmark invocation may take.
const HARD_CAP_S: f64 = 120.0;

/// Counter deltas gathered around traced ops, from what the program
/// exports (`Fastlive::health`, `EngineSession::recomputations`, the
/// telemetry snapshot's plan counters) and from the replays.
#[derive(Clone, Debug, Default)]
pub(crate) struct Counters {
    pub ops: u64,
    pub recomputations: u64,
    pub cache: CacheStats,
    pub plan_grouped: u64,
    pub plan_scalar: u64,
    pub precheck_probes: u64,
    pub precheck_killed: u64,
    pub batch_probes: u64,
    pub batch_passes: u64,
    pub pool_workers: u64,
    pub write_bytes: u64,
    pub decode_self_ns: u64,
    pub decode_entries: u64,
    /// What the op's calls cost one layer down, summed from the
    /// replays (net of their spans' own clock reads): the figure
    /// `trace.layer_residual` holds against the traced op time.
    pub explained_ns: f64,
}

impl Counters {
    /// Adds one op's counter movement between two snapshots.
    pub fn add_op(&mut self, before: &Snap, after: &Snap) {
        let (a, b) = (&before.cache, &after.cache);
        self.ops += 1;
        self.recomputations += after.recomputations - before.recomputations;
        self.cache = self.cache.add(&CacheStats {
            hits: b.hits - a.hits,
            misses: b.misses - a.misses,
            evictions: b.evictions - a.evictions,
            dedup_hits: b.dedup_hits - a.dedup_hits,
            disk_hits: b.disk_hits - a.disk_hits,
            disk_misses: b.disk_misses - a.disk_misses,
            disk_rejects: b.disk_rejects - a.disk_rejects,
            disk_errors: b.disk_errors - a.disk_errors,
        });
    }
}

/// The program's own counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Snap {
    pub recomputations: u64,
    pub cache: CacheStats,
}

impl Snap {
    pub fn take(fl: &Fastlive, session: &FastliveSession<'_>) -> Snap {
        Snap {
            recomputations: session.engine_session().map_or(0, |s| s.recomputations()),
            cache: fl.health().cache,
        }
    }
}

/// State of one invocation, shared by the workload modules.
pub(crate) struct Run {
    pub opts: Options,
    pub tracer: Tracer,
    pub setup_s: Vec<f64>,
    /// Durations of the untraced ops.
    pub op_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The workload's input properties.
    pub props: Json,
    pub c: Counters,
    /// Resident and high-water memory (MiB) when the first set-up
    /// starts: the harness's inputs and expected answers, before the
    /// program holds anything.
    rss_before_setup: (f64, f64),
    /// Where each slice's ops begin in `op_ns`.
    slice_starts: Vec<usize>,
    start: Option<Instant>,
}

impl Run {
    fn new(opts: Options) -> Self {
        Run {
            opts,
            tracer: Tracer::new(false),
            setup_s: Vec::new(),
            op_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            props: Json::obj(),
            c: Counters::default(),
            rss_before_setup: (0.0, 0.0),
            slice_starts: Vec::new(),
            start: None,
        }
    }

    /// Seconds since the run's first set-up began.
    fn elapsed(&mut self) -> f64 {
        self.start
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_secs_f64()
    }

    /// Whether the run is over: its time spent and, untraced, enough
    /// ops held; or the hard cap reached.
    fn over(&mut self) -> bool {
        let t = self.elapsed();
        let enough = self.opts.trace || self.op_ns.len() >= MIN_OPS;
        (t >= self.opts.seconds && enough) || t >= HARD_CAP_S
    }

    /// Whether another slice of the run follows. Each slice drops the
    /// previous slice's state, then sets up afresh: only one set-up is
    /// ever alive.
    pub fn next_slice(&mut self) -> bool {
        !self.over()
    }

    /// Whether the slice under way is the run's first.
    pub fn first_slice(&self) -> bool {
        self.slice_starts.len() == 1
    }

    /// Times one fresh set-up, the start of a slice.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.setup_s.is_empty() {
            self.rss_before_setup = (host::status_mb("VmRSS"), host::status_mb("VmHWM"));
        }
        self.slice_starts.push(self.op_ns.len());
        let t0 = Instant::now();
        let out = f();
        self.setup_s.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Runs `f` with tracing on, outside any op — for the set-up
    /// replays of a traced run.
    pub fn traced_setup(&mut self, f: impl FnOnce(&mut Tracer, &mut Counters)) {
        if self.opts.trace {
            self.tracer.set_on(true);
            f(&mut self.tracer, &mut self.c);
            self.tracer.set_on(false);
        }
    }

    /// The next op's index, or `None` once the slice's or the run's
    /// time is spent (the last slice runs until the run is over). A
    /// traced run switches tracing on after its untraced baseline.
    pub fn next_op(&mut self) -> Option<u64> {
        let t = self.elapsed();
        let slices = self.slice_starts.len();
        let slice_end = self.opts.seconds * slices as f64 / SETUP_REPS as f64;
        if self.over() || (slices < SETUP_REPS && t >= slice_end) {
            return None;
        }
        if self.opts.trace && !self.tracer.is_on() && t >= self.opts.seconds * BASELINE_SHARE {
            self.tracer.set_on(true);
        }
        self.attempted += 1;
        Some(self.attempted - 1)
    }

    /// Records a finished op: its duration (`None` if it panicked) and
    /// why it failed, if it did.
    pub fn finish_op(&mut self, ns: Option<u64>, failure: Option<String>) {
        if let (Some(ns), false) = (ns, self.tracer.is_on()) {
            self.op_ns.push(ns);
        }
        if let Some(why) = failure {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }
}

/// The code of an expected answer no backend gives.
const PLANTED: u64 = 1;

/// One answer reduced to a word, so the expected answers of every op a
/// run can reach stay small beside the program's own memory: a boolean
/// answer or a nullness fact keeps its kind and value, a set answer or
/// an error becomes a tagged 62-bit digest.
pub(crate) fn answer_code(answer: &Result<Response, QueryError>) -> u64 {
    let digest = |tag: u64, feed: &dyn Fn(&mut DefaultHasher)| {
        let mut h = DefaultHasher::new();
        feed(&mut h);
        tag << 62 | h.finish() >> 2
    };
    match answer {
        Ok(Response::Live(b)) => 2 + *b as u64,
        Ok(Response::Interference(b)) => 4 + *b as u64,
        Ok(Response::Init(b)) => 6 + *b as u64,
        Ok(Response::Nullness(n)) => match n {
            Nullness::Null => 8,
            Nullness::NonNull => 9,
            Nullness::Maybe => 10,
        },
        Ok(Response::Sets(s)) => digest(1, &|h| {
            for set in s.live_in.iter().chain(&s.live_out) {
                set.len().hash(h);
                set.iter().for_each(|v| v.index().hash(h));
            }
        }),
        Err(e) => digest(2, &|h| format!("{e:?}").hash(h)),
    }
}

/// Names the answer behind `code`.
fn describe(code: u64) -> String {
    match code {
        PLANTED => "planted wrong answer".into(),
        2 | 3 => format!("Live({})", code == 3),
        4 | 5 => format!("Interference({})", code == 5),
        6 | 7 => format!("Init({})", code == 7),
        8 => "Nullness(Null)".into(),
        9 => "Nullness(NonNull)".into(),
        10 => "Nullness(Maybe)".into(),
        c if c >> 62 == 1 => format!("live sets with digest {c:#x}"),
        c => format!("an error with digest {c:#x}"),
    }
}

/// Describes how `got` differs from the oracle's answers `want` (as
/// [`answer_code`]s), if it does.
pub(crate) fn compare(
    got: &[Result<Response, QueryError>],
    want: &[u64],
    queries: &[Query],
) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} answers for {} queries", got.len(), want.len()));
    }
    let wrong: Vec<usize> = (0..got.len())
        .filter(|&i| answer_code(&got[i]) != want[i])
        .collect();
    let &first = wrong.first()?;
    Some(format!(
        "{} answer(s) differ from the oracle; first: {:?} answered {:?}, oracle {}",
        wrong.len(),
        queries[first],
        got[first],
        describe(want[first])
    ))
}

/// The oracle's answers as [`answer_code`]s: the iterative dataflow
/// backend, planned per function.
pub(crate) fn oracle(module: &Module, queries: &[Query]) -> Vec<u64> {
    let fl = Fastlive::builder()
        .threads(1)
        .build()
        .expect("a one-thread facade is a valid configuration");
    let answers = fl
        .session_with(module, BackendKind::Oracle)
        .run_queries(module, queries);
    if let Some(i) = answers.iter().position(Result::is_err) {
        panic!(
            "workload query {:?} has no answer: {:?}",
            queries[i], answers[i]
        );
    }
    answers.iter().map(answer_code).collect()
}

/// Replaces the first expected answer with one no backend gives.
pub(crate) fn plant_wrong_answer(expected: &mut [u64]) {
    expected[0] = PLANTED;
}

/// Span name of a facade scalar query of `q`'s kind.
pub(crate) fn query_span(q: &Query) -> &'static str {
    match q {
        Query::LiveIn { .. } => "facade.query.live_in",
        Query::LiveOut { .. } => "facade.query.live_out",
        Query::LiveAt { .. } => "facade.query.live_at",
        Query::LiveSets { .. } => "facade.query.live_sets",
        Query::Interfere { .. } => "facade.query.interfere",
        Query::Nullness { .. } => "facade.query.nullness",
        Query::DefiniteInit { .. } => "facade.query.definite_init",
    }
}

/// Per-kind query counts of `queries`, for the workload properties.
pub(crate) fn kind_counts(queries: &[Query]) -> Json {
    let mut counts = std::collections::BTreeMap::<&str, u64>::new();
    for q in queries {
        let kind = query_span(q).trim_start_matches("facade.query.");
        *counts.entry(kind).or_default() += 1;
    }
    let mut o = Json::obj();
    for (k, n) in counts {
        o.set(k, n);
    }
    o
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_us", "us"),
    ("op_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("ir.parse.ns_per_block", "ns"),
    ("ir.edit.ns_per_op", "ns"),
    ("facade.query.ns.live_in", "ns"),
    ("facade.query.ns.live_out", "ns"),
    ("facade.query.ns.live_at", "ns"),
    ("facade.query.ns.live_sets", "ns"),
    ("facade.query.ns.interfere", "ns"),
    ("facade.query.ns.nullness", "ns"),
    ("facade.query.ns.definite_init", "ns"),
    ("facade.resolve.self_ns", "ns"),
    ("facade.plan.ns_per_query", "ns"),
    ("facade.plan.grouped_share", "ratio"),
    ("facade.plan.prefetch_ns", "ns"),
    ("engine.session.ns_per_call", "ns"),
    ("engine.session.recomputations_per_op", "count"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.cache.misses_per_op", "count"),
    ("engine.cache.evictions_per_op", "count"),
    ("engine.cache.dedup_hits_per_op", "count"),
    ("engine.fingerprint.ns", "ns"),
    ("engine.fingerprint.calls_per_op", "count"),
    ("engine.pool.wall_ns", "ns"),
    ("engine.pool.efficiency", "ratio"),
    ("engine.persist.write.ns_per_entry", "ns"),
    ("engine.persist.write.bytes_per_entry", "B"),
    ("engine.persist.read.read_ns", "ns"),
    ("engine.persist.read.crc_ns", "ns"),
    ("engine.persist.read.decode_ns", "ns"),
    ("engine.persist.read.revive_ns", "ns"),
    ("engine.persist.read.rt_ns", "ns"),
    ("engine.persist.disk_hit_ratio", "ratio"),
    ("core.precompute.ns_per_block", "ns"),
    ("core.query.ns.live_in", "ns"),
    ("core.query.ns.live_out", "ns"),
    ("core.query.ns.live_at", "ns"),
    ("core.query.precheck_kill_ratio", "ratio"),
    ("core.checker.ns_per_probe", "ns"),
    ("core.batch.ns_per_pass", "ns"),
    ("core.batch.probes_per_pass", "count"),
    ("core.nullness.compute_ns", "ns"),
    ("core.nullness.solve_ns", "ns"),
    ("cfg.dom.ns_per_block", "ns"),
    ("destruct.interfere.ns", "ns"),
    ("bitset.kernel.ns_per_call", "ns"),
    ("trace.overhead", "ratio"),
    ("trace.layer_residual", "ratio"),
];

/// The share of the traced op time that the one-layer-down replays do
/// not account for: (Σ op root spans, less the clock reads of the
/// spans inside them, − Σ replayed layer costs of the same calls) ÷ the
/// former. Negative when the replays cost more than the ops.
fn layer_residual(tr: &Tracer, c: &Counters) -> f64 {
    let roots: u64 = tr.op_ns().iter().sum();
    let net = roots as f64 - tr.op_child_spans() as f64 * tr.span_cost_ns();
    ratio(net - c.explained_ns, net)
}

/// Computes every per-layer metric from the traced run.
fn per_layer(run: &Run) -> Vec<Metric> {
    let tr = &run.tracer;
    let c = &run.c;
    let cost = tr.span_cost_ns();
    let per_item = |name: &str| tr.stat(name).ns_per_item(cost);
    let total = |name: &str| tr.stat(name).total_ns as f64;
    let ops = c.ops as f64;
    let k = &c.cache;
    let entries = tr.stat("engine.persist.encode").items as f64;
    let probes = tr.stat("replay.facade.probe");
    let session_probes = tr.stat("engine.session.probe");
    let mut untraced: Vec<f64> = run.op_ns.iter().map(|&ns| ns as f64).collect();
    let mut traced: Vec<f64> = tr.op_ns().iter().map(|&ns| ns as f64).collect();
    let value = |name: &str| -> f64 {
        match name {
            "ir.parse.ns_per_block" => per_item("ir.parse"),
            "ir.edit.ns_per_op" => ratio(total("ir.edit.insert") + total("ir.edit.split"), ops),
            "facade.resolve.self_ns" => {
                (probes.ns_per_item(cost) - session_probes.ns_per_item(cost)).max(0.0)
            }
            "facade.plan.ns_per_query" => per_item("facade.run_queries"),
            "facade.plan.grouped_share" => ratio(
                c.plan_grouped as f64,
                (c.plan_grouped + c.plan_scalar) as f64,
            ),
            "facade.plan.prefetch_ns" => per_item("engine.prefetch"),
            "engine.session.ns_per_call" => per_item("engine.session.analysis"),
            "engine.session.recomputations_per_op" => ratio(c.recomputations as f64, ops),
            "engine.cache.hit_ratio" => ratio(k.hits as f64, (k.hits + k.misses) as f64),
            "engine.cache.misses_per_op" => ratio(k.misses as f64, ops),
            "engine.cache.evictions_per_op" => ratio(k.evictions as f64, ops),
            "engine.cache.dedup_hits_per_op" => ratio(k.dedup_hits as f64, ops),
            "engine.fingerprint.ns" => per_item("engine.fingerprint"),
            // Every engine resolution fingerprints the CFG once and ends
            // as exactly one hit, miss or dedup hit.
            "engine.fingerprint.calls_per_op" => {
                ratio((k.hits + k.misses + k.dedup_hits) as f64, ops)
            }
            "engine.pool.wall_ns" => per_item("engine.pool.wall"),
            "engine.pool.efficiency" => ratio(
                total("engine.pool.work"),
                total("engine.pool.wall") * c.pool_workers.max(1) as f64,
            ),
            "engine.persist.write.ns_per_entry" => ratio(
                total("engine.persist.encode") + total("engine.persist.write"),
                entries,
            ),
            "engine.persist.write.bytes_per_entry" => ratio(c.write_bytes as f64, entries),
            "engine.persist.read.read_ns" => per_item("engine.persist.read"),
            "engine.persist.read.crc_ns" => per_item("engine.persist.crc"),
            "engine.persist.read.decode_ns" => {
                ratio(c.decode_self_ns as f64, c.decode_entries as f64)
            }
            "engine.persist.read.revive_ns" => per_item("engine.persist.revive"),
            "engine.persist.read.rt_ns" => per_item("engine.persist.rt"),
            "engine.persist.disk_hit_ratio" => ratio(k.disk_hits as f64, k.misses as f64),
            "core.precompute.ns_per_block" => per_item("core.precompute"),
            "core.query.precheck_kill_ratio" => {
                ratio(c.precheck_killed as f64, c.precheck_probes as f64)
            }
            "core.checker.ns_per_probe" => per_item("core.checker.probe"),
            "core.batch.ns_per_pass" => per_item("core.batch"),
            "core.batch.probes_per_pass" => ratio(c.batch_probes as f64, c.batch_passes as f64),
            "core.nullness.compute_ns" => per_item("core.nullness.compute"),
            "core.nullness.solve_ns" => per_item("core.nullness.solve"),
            "cfg.dom.ns_per_block" => per_item("cfg.dom"),
            "destruct.interfere.ns" => per_item("destruct.interfere"),
            "bitset.kernel.ns_per_call" => per_item("bitset.kernel"),
            "trace.layer_residual" => layer_residual(tr, c).abs(),
            // facade.query.ns.<kind> and core.query.ns.<kind> are the
            // spans of the same name.
            other => per_item(&other.replace(".ns.", ".")),
        }
    };
    let overhead = ratio(median(&mut traced), median(&mut untraced));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: if name == "trace.overhead" {
                overhead
            } else {
                value(name)
            },
            unit,
        })
        .collect()
}

/// The non-empty slices of `ops`; `starts` holds where each begins.
fn slices<'a>(ops: &'a [u64], starts: &'a [usize]) -> impl Iterator<Item = &'a [u64]> {
    let ends = starts.iter().skip(1).copied().chain([ops.len()]);
    starts
        .iter()
        .zip(ends)
        .map(move |(&a, b)| &ops[a..b])
        .filter(|slice| !slice.is_empty())
}

/// The median and the 99th percentile of each slice's ops, in µs.
///
/// The host switches between a fast and a slow state (about 1.4×
/// apart) every few seconds to minutes; the slice medians show which
/// state each slice met. The run's tail is the mean of the slice
/// percentiles: one percentile over all ops would follow the few
/// slices that met the worst bursts of steal.
fn slice_stats(ops: &[u64], starts: &[usize]) -> (Vec<f64>, Vec<f64>) {
    slices(ops, starts)
        .map(|slice| {
            let slice = &mut slice.to_vec();
            (
                quantile(slice, 0.5) as f64 / 1e3,
                quantile(slice, 0.99) as f64 / 1e3,
            )
        })
        .unzip()
}

/// How many ops lie beyond their own slice's 99th percentile (`p99s`,
/// in µs), summed over the slices: the samples the tail figure rests
/// on.
fn beyond_slice_p99s(ops: &[u64], starts: &[usize], p99s: &[f64]) -> usize {
    slices(ops, starts)
        .zip(p99s)
        .map(|(slice, &p99)| slice.iter().filter(|&&ns| ns as f64 / 1e3 > p99).count())
        .sum()
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Report {
    let steal_at_start = host::steal_s();
    let hwm_at_start = host::status_mb("VmHWM");
    std::fs::create_dir_all(&opts.work_dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", opts.work_dir.display()));
    let mut run = Run::new(opts.clone());
    match opts.workload {
        Workload::Serve => serve::run(&mut run),
        Workload::Edit => edit::run(&mut run),
        Workload::Reopen => reopen::run(&mut run),
    }
    run.tracer.flush();

    let (slice_medians, slice_p99s) = slice_stats(&run.op_ns, &run.slice_starts);
    let e2e = vec![
        Metric {
            name: "op_us",
            value: median(&mut run.op_ns.iter().map(|&ns| ns as f64).collect::<Vec<_>>()) / 1e3,
            unit: "us",
        },
        Metric {
            name: "op_p99_us",
            value: mean(&slice_p99s),
            unit: "us",
        },
        Metric {
            name: "setup_s",
            value: median(&mut run.setup_s.clone()),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: host::status_mb("VmHWM"),
            unit: "MB",
        },
    ];

    let mut samples = Json::obj();
    samples
        .set("timed_ops", run.op_ns.len())
        .set(
            "op_us_deciles",
            (1..10)
                .map(|d| quantile(&mut run.op_ns.clone(), d as f64 / 10.0) as f64 / 1e3)
                .collect::<Vec<f64>>(),
        )
        .set(
            "ops_beyond_slice_p99s",
            beyond_slice_p99s(&run.op_ns, &run.slice_starts, &slice_p99s),
        )
        .set("slice_op_us", slice_medians)
        .set("slice_p99_us", slice_p99s)
        .set("setup_reps", run.setup_s.len())
        .set("setup_s", run.setup_s.clone());
    let mut end_to_end = Json::obj();
    for m in &e2e {
        let mut v = Json::obj();
        v.set("value", m.value).set("unit", m.unit);
        end_to_end.set(m.name, v);
    }
    let mut share = Json::obj();
    share
        .set("value", ratio(run.failed as f64, run.attempted as f64))
        .set("unit", "ratio");
    end_to_end.set("failed_share", share);

    // How much of `peak_rss_mb` the harness holds before the program
    // holds anything: the process at start, then the inputs and the
    // oracle's expected answers (and whatever the oracle freed, which
    // the allocator keeps for the program to reuse).
    let mut memory = Json::obj();
    memory
        .set("hwm_mb_at_start", hwm_at_start)
        .set("rss_mb_before_setup", run.rss_before_setup.0)
        .set("hwm_mb_before_setup", run.rss_before_setup.1)
        .set("hwm_mb_at_exit", host::status_mb("VmHWM"));

    let mut detail = Json::obj();
    detail
        .set("workload", opts.workload.name())
        .set("seed", opts.seed)
        .set("traced", opts.trace)
        .set("host", host::block(steal_at_start, &opts.work_dir))
        .set("inputs", run.props.clone())
        .set("samples", samples)
        .set("memory", memory)
        .set("end_to_end", end_to_end)
        .set("failures", run.failures.clone());
    let metrics = if opts.trace {
        let path = opts.work_dir.join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        let mut summary = run.tracer.summary();
        summary.set("layer_residual", layer_residual(&run.tracer, &run.c));
        let mut export = Json::obj();
        export
            .set("summary", summary.clone())
            .set("spans", run.tracer.spans_json());
        let written = std::fs::write(&path, format!("{export}\n"));
        detail.set("trace", summary).set(
            "trace_file",
            match written {
                Ok(()) => path.display().to_string(),
                Err(e) => format!("not written: {e}"),
            },
        );
        per_layer(&run)
    } else {
        e2e
    };
    Report {
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        detail,
        failures: run.failures,
    }
}

#[cfg(test)]
mod tests;
