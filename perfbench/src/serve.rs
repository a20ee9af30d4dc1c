//! `serve`: the long-lived read path of a JIT or a tool. After set-up
//! nothing is computed: every op is one client request — a fixed slice
//! of a seeded stream of scalar `FastliveSession::query` calls over all
//! seven kinds — so all of its time sits in per-query layers.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use fastlive::cfg::{DfsTree, DomTree, Reducibility};
use fastlive::destruct::CheckerEngine;
use fastlive::workload::{generate_module, ModuleParams, SplitMix64};
use fastlive::{
    parse_module, values_interfere, Block, BlockRef, CfgShape, EngineSession, Fastlive,
    FastliveSession, FuncId, FuncRef, FunctionLiveness, Module, PointRef, ProgramPoint, Query,
    Value, ValueRef,
};

use crate::json::Json;
use crate::trace::Tracer;
use crate::{compare, kind_counts, oracle, plant_wrong_answer, query_span, Counters, Run, Snap};

/// Functions in the serve/edit module.
pub(crate) const FUNCTIONS: usize = 12;
const MIN_BLOCKS: usize = 64;
const MAX_BLOCKS: usize = 128;

/// Queries per op.
const SLICE: usize = 48;
/// Distinct slices in the stream; ops cycle through them.
const SLICES: usize = 512;
/// One slice in this many trades a `LiveIn` for a `LiveSets`.
const LIVE_SETS_EVERY: usize = 16;

#[derive(Clone, Copy)]
enum Kind {
    LiveIn,
    LiveOut,
    LiveAt,
    Interfere,
    Nullness,
    DefiniteInit,
    LiveSets,
}

/// Kind counts of every slice: block and point probes are the majority
/// by count. Every op carries the same number of each expensive kind,
/// on functions drawn at random, so an op's cost averages over several
/// functions and the op median hardly depends on which functions a
/// seed happens to make expensive.
const MIX: [(Kind, usize); 6] = [
    (Kind::LiveIn, 15),
    (Kind::LiveOut, 12),
    (Kind::LiveAt, 12),
    (Kind::Interfere, 3),
    (Kind::Nullness, 3),
    (Kind::DefiniteInit, 3),
];

/// The serve/edit module as text. Block targets are spread evenly over
/// `MIN_BLOCKS..=MAX_BLOCKS`; half the functions are goto-injected
/// (irreducible candidates) and half get the deep-live bias, crossed so
/// each combination holds a quarter — sizes and shares do not drift
/// with the seed, only the programs do.
pub(crate) fn module_text(seed: u64) -> String {
    let mut module = Module::new();
    for i in 0..FUNCTIONS {
        let target = MIN_BLOCKS + i * (MAX_BLOCKS - MIN_BLOCKS) / (FUNCTIONS - 1);
        let params = ModuleParams {
            functions: 1,
            min_blocks: target,
            max_blocks: target,
            irreducible_per_mille: if i % 2 == 0 { 1000 } else { 0 },
            deep_live_per_mille: if i % 4 < 2 { 1000 } else { 0 },
        };
        let fseed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64;
        let m = generate_module(&format!("f{i}"), params, fseed);
        module.push(m.functions()[0].clone());
    }
    module.to_string()
}

/// Sizes and shape shares of a serve/edit module.
pub(crate) fn module_props(module: &Module) -> Json {
    let funcs = module.functions();
    let blocks: Vec<usize> = funcs.iter().map(|f| f.num_blocks()).collect();
    let irreducible = funcs
        .iter()
        .filter(|f| {
            let dfs = DfsTree::compute(*f);
            let dom = DomTree::compute(*f, &dfs);
            !Reducibility::compute(&dfs, &dom).is_reducible()
        })
        .count();
    let mut o = Json::obj();
    o.set("functions", funcs.len())
        .set("blocks", blocks.iter().sum::<usize>())
        .set("min_blocks", blocks.iter().copied().min().unwrap_or(0))
        .set("max_blocks", blocks.iter().copied().max().unwrap_or(0))
        .set(
            "values",
            funcs.iter().map(|f| f.num_values()).sum::<usize>(),
        )
        .set("goto_injected_share", 0.5)
        .set("irreducible_share", irreducible as f64 / funcs.len() as f64)
        .set("deep_live_share", 0.5);
    o
}

/// One query of `kind` on a random function of `module`, by id.
fn draw(kind: Kind, module: &Module, rng: &mut SplitMix64) -> Query {
    let f = rng.index(module.len());
    let func = module.func(f);
    let value = |rng: &mut SplitMix64| Value::from_index(rng.index(func.num_values()));
    let block = |rng: &mut SplitMix64| Block::from_index(rng.index(func.num_blocks()));
    match kind {
        Kind::LiveIn => Query::live_in(f, value(rng), block(rng)),
        Kind::LiveOut => Query::live_out(f, value(rng), block(rng)),
        Kind::LiveAt => {
            let v = value(rng);
            let b = block(rng);
            let insts = func.block_insts(b).len();
            let point = match rng.index(2 * insts + 1) {
                0 => PointRef::entry(b),
                k if k % 2 == 1 => PointRef::before(b, k / 2),
                k => PointRef::after(b, k / 2 - 1),
            };
            Query::live_at(f, v, point)
        }
        Kind::Interfere => Query::interfere(f, value(rng), value(rng)),
        Kind::Nullness => Query::nullness(f, value(rng)),
        Kind::DefiniteInit => Query::definitely_init(f, value(rng), block(rng)),
        Kind::LiveSets => Query::live_sets(f),
    }
}

/// The request stream: `SLICES` slices of `SLICE` queries each.
fn stream(module: &Module, seed: u64) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e_5e7e);
    let mut out = Vec::with_capacity(SLICES * SLICE);
    for s in 0..SLICES {
        let mut slice: Vec<Query> = Vec::with_capacity(SLICE);
        for &(kind, n) in &MIX {
            let n = match kind {
                Kind::LiveIn if s % LIVE_SETS_EVERY == LIVE_SETS_EVERY - 1 => {
                    slice.push(draw(Kind::LiveSets, module, &mut rng));
                    n - 1
                }
                _ => n,
            };
            for _ in 0..n {
                slice.push(draw(kind, module, &mut rng));
            }
        }
        // Fisher–Yates: kinds interleave within a request.
        for i in (1..slice.len()).rev() {
            slice.swap(i, rng.index(i + 1));
        }
        out.extend(slice);
    }
    out
}

/// The last step of the `serve`/`edit` set-up: resolves every
/// function's nullness artifact through `session` (`session()` itself
/// resolved liveness).
pub(crate) fn warm(session: &mut FastliveSession<'_>, module: &Module) {
    for f in 0..module.len() {
        let _ = session.query(module, &Query::nullness(f, Value::from_index(0)));
    }
}

pub(crate) fn run(run: &mut Run) {
    let text = module_text(run.opts.seed);
    let reference = parse_module(&text).expect("generated module text parses");
    let queries = stream(&reference, run.opts.seed);
    let mut expected = oracle(&reference, &queries);
    if run.opts.plant_wrong_answer {
        plant_wrong_answer(&mut expected);
    }
    let mut props = module_props(&reference);
    props
        .set("queries_per_op", SLICE)
        .set("distinct_ops", SLICES)
        .set("query_kinds", kind_counts(&queries))
        .set("text_bytes", text.len());
    run.props = props;

    let blocks = reference
        .functions()
        .iter()
        .map(|f| f.num_blocks())
        .sum::<usize>() as u64;
    let mut results = Vec::with_capacity(SLICE);
    while run.next_slice() {
        let (module, fl) = run.setup(|| {
            let module = parse_module(&text).expect("generated module text parses");
            let fl = Fastlive::with_defaults();
            warm(&mut fl.session(&module), &module);
            (module, fl)
        });
        // The set-up was timed cold; this session re-opens on the warm
        // engine, so the ops start from a fully resolved state.
        let mut session = fl.session(&module);
        warm(&mut session, &module);
        let mut replay = fl.engine().analyze(&module);
        if run.first_slice() {
            run.traced_setup(|tr, _| trace_parse(tr, &text, blocks));
        }

        while let Some(i) = run.next_op() {
            let at = (i as usize % SLICES) * SLICE;
            let qs = &queries[at..at + SLICE];
            let before = Snap::take(&fl, &session);
            let tr = &mut run.tracer;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let root = tr.begin_op(i);
                let t0 = Instant::now();
                results.clear();
                for q in qs {
                    let s = tr.begin(query_span(q));
                    results.push(session.query(&module, q));
                    tr.end(s, 1);
                }
                let ns = t0.elapsed().as_nanos() as u64;
                tr.end(root, 1);
                ns
            }));
            let after = Snap::take(&fl, &session);
            let failure = match &outcome {
                Err(_) => Some(format!("op {i} panicked")),
                Ok(_) => compare(&results, &expected[at..at + SLICE], qs).or_else(|| {
                    (after.recomputations != before.recomputations
                        || after.cache.misses != before.cache.misses)
                        .then(|| format!("op {i} recomputed an analysis on a read-only session"))
                }),
            };
            if run.tracer.is_on() {
                run.c.add_op(&before, &after);
                replay_probes(
                    &mut run.tracer,
                    &mut run.c,
                    &module,
                    &mut session,
                    &mut replay,
                    qs,
                );
                replay_serve_extras(&mut run.tracer, &mut run.c, &fl, &module, &mut replay, qs);
            }
            run.finish_op(outcome.ok(), failure);
        }
    }
}

/// Times the parse of the input text (set-up of a traced run).
pub(crate) fn trace_parse(tr: &mut Tracer, text: &str, blocks: u64) {
    for _ in 0..3 {
        let s = tr.begin("ir.parse");
        black_box(parse_module(black_box(text)).ok());
        tr.end(s, blocks);
    }
}

/// The ids a by-id query addresses.
pub(crate) fn ids(q: &Query) -> (FuncId, Option<Value>, Option<Block>) {
    let f = match q.func() {
        FuncRef::Id(f) => *f,
        FuncRef::Name(_) => unreachable!("workload queries address by id"),
    };
    let v = |r: &ValueRef| match r {
        ValueRef::Id(v) => *v,
        ValueRef::Name(_) => unreachable!("workload queries address by id"),
    };
    let b = |r: &BlockRef| match r {
        BlockRef::Id(b) => *b,
        BlockRef::Name(_) => unreachable!("workload queries address by id"),
    };
    match q {
        Query::LiveIn { value, block, .. }
        | Query::LiveOut { value, block, .. }
        | Query::DefiniteInit { value, block, .. } => (f, Some(v(value)), Some(b(block))),
        Query::LiveAt { value, .. } | Query::Nullness { value, .. } => (f, Some(v(value)), None),
        Query::Interfere { a, .. } => (f, Some(v(a)), None),
        Query::LiveSets { .. } => (f, None, None),
    }
}

/// Resolves a by-id point reference against `func`'s current layout.
fn point(module: &Module, f: FuncId, r: &PointRef) -> ProgramPoint {
    let func = module.func(f);
    let (b, i) = match r {
        PointRef::Entry(BlockRef::Id(b)) => return ProgramPoint::block_entry(*b),
        PointRef::Before {
            block: BlockRef::Id(b),
            inst,
        }
        | PointRef::After {
            block: BlockRef::Id(b),
            inst,
        } => (*b, *inst),
        _ => unreachable!("workload queries address by id"),
    };
    let inst = func.block_insts(b)[i];
    match r {
        PointRef::Before { .. } => func.point_before(inst),
        _ => func.point_after(inst),
    }
    .expect("the instruction is in its block")
}

#[derive(Clone, Copy, PartialEq)]
enum ProbeKind {
    In,
    Out,
    At(ProgramPoint),
}

impl ProbeKind {
    /// The span of the probe's `FunctionLiveness` replay.
    fn core_span(self) -> &'static str {
        match self {
            ProbeKind::In => "core.query.live_in",
            ProbeKind::Out => "core.query.live_out",
            ProbeKind::At(_) => "core.query.live_at",
        }
    }
}

/// A block or point probe of an op, resolved to ids, with the analysis
/// of its function.
struct Probe<'q> {
    query: &'q Query,
    f: FuncId,
    v: Value,
    /// The queried block (the point's block for a point probe).
    b: Block,
    kind: ProbeKind,
    live: Arc<FunctionLiveness>,
}

/// Times `reps` passes of `call` over `items` under span `name` and
/// returns the net time of one pass.
fn replay_loop<T>(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    items: &[T],
    mut call: impl FnMut(&T),
) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let s = tr.begin(name);
    for _ in 0..reps {
        items.iter().for_each(&mut call);
    }
    tr.end_net(s, (reps * items.len()) as u64) / reps as f64
}

/// Replays the block and point probes among `qs` one layer at a time
/// below the facade: the facade call again, `EngineSession`,
/// `FunctionLiveness`, `LivenessChecker` and the bitset kernel. Small
/// probe sets are replayed several times so the clock reads around
/// each loop stay small against the calls. The facade replay — the
/// session's probe plus the facade's own resolution — is what the
/// probes count towards the op's layer accounting.
pub(crate) fn replay_probes(
    tr: &mut Tracer,
    c: &mut Counters,
    module: &Module,
    session: &mut FastliveSession<'_>,
    rs: &mut EngineSession<'_>,
    qs: &[Query],
) {
    let probes: Vec<Probe> = qs
        .iter()
        .filter_map(|query| {
            let (f, v, b) = ids(query);
            let kind = match query {
                Query::LiveIn { .. } => ProbeKind::In,
                Query::LiveOut { .. } => ProbeKind::Out,
                Query::LiveAt { point: p, .. } => ProbeKind::At(point(module, f, p)),
                _ => return None,
            };
            let b = match kind {
                ProbeKind::At(p) => p.block(),
                _ => b.expect("block probes address a block"),
            };
            Some(Probe {
                query,
                f,
                v: v.expect("probes address a value"),
                b,
                kind,
                live: rs.analysis(module, f).expect("workload analyses succeed"),
            })
        })
        .collect();
    let reps = if probes.len() >= 256 { 1 } else { 4 };

    c.explained_ns += replay_loop(tr, "replay.facade.probe", reps, &probes, |p| {
        black_box(session.query(module, p.query).ok());
    });
    replay_loop(tr, "engine.session.probe", reps, &probes, |p| {
        black_box(
            match p.kind {
                ProbeKind::In => rs.is_live_in(module, p.f, p.v, p.b),
                ProbeKind::Out => rs.is_live_out(module, p.f, p.v, p.b),
                ProbeKind::At(at) => rs.is_live_at(module, p.f, p.v, at),
            }
            .ok(),
        );
    });
    replay_loop(tr, "engine.session.analysis", reps, &probes, |p| {
        black_box(rs.analysis(module, p.f).ok());
    });
    for kind in [ProbeKind::In, ProbeKind::Out] {
        let of_kind: Vec<&Probe> = probes.iter().filter(|p| p.kind == kind).collect();
        replay_loop(tr, kind.core_span(), reps, &of_kind, |p| {
            let func = module.func(p.f);
            black_box(match p.kind {
                ProbeKind::In => p.live.is_live_in(func, p.v, p.b),
                _ => p.live.is_live_out(func, p.v, p.b),
            });
        });
    }
    let points: Vec<&Probe> = probes
        .iter()
        .filter(|p| matches!(p.kind, ProbeKind::At(_)))
        .collect();
    replay_loop(tr, "core.query.live_at", reps, &points, |p| {
        if let ProbeKind::At(at) = p.kind {
            black_box(p.live.is_live_at(module.func(p.f), p.v, at).ok());
        }
    });

    // Graph-level inputs of each probe: definition block, use blocks (a
    // φ-argument counts at its predecessor), query block. A point probe
    // reaches the checker as the live-out test of its block.
    let mut checker_probes = Vec::new();
    let mut kernel_calls = Vec::new();
    for p in &probes {
        let func = module.func(p.f);
        let def = func.def_block(p.v).as_u32();
        let q = p.b.as_u32();
        if def == q {
            continue;
        }
        let checker = p.live.checker();
        c.precheck_probes += 1;
        let candidates = checker.has_candidates(def, q);
        if !candidates {
            c.precheck_killed += 1;
        }
        let uses: Vec<u32> = func
            .uses(p.v)
            .iter()
            .filter_map(|&i| func.inst_block(i))
            .map(Block::as_u32)
            .collect();
        if candidates {
            let dom = checker.dom();
            let (qn, lo, hi) = (dom.num(q), dom.num(def) + 1, dom.maxnum(def));
            for &u in uses.iter().filter(|&&u| dom.is_reachable(u)) {
                kernel_calls.push((&p.live, qn, dom.num(u), lo, hi));
            }
        }
        checker_probes.push((&p.live, p.kind == ProbeKind::In, def, uses, q));
    }
    replay_loop(
        tr,
        "core.checker.probe",
        reps,
        &checker_probes,
        |(live, live_in, def, uses, q)| {
            black_box(if *live_in {
                live.checker().is_live_in(*def, uses, *q)
            } else {
                live.checker().is_live_out(*def, uses, *q)
            });
        },
    );
    replay_loop(
        tr,
        "bitset.kernel",
        reps,
        &kernel_calls,
        |(live, qn, un, lo, hi)| {
            let pre = live.checker().precomputation();
            black_box(pre.t.rows_intersect_in_range(*qn, &pre.rt, *un, *lo, *hi));
        },
    );
}

/// Replays the serve op's non-probe queries one layer down, each call
/// counting towards the op's layer accounting: the nullness family's
/// fingerprint and solve, `Interfere`'s dominator rebuild and
/// interference test, `LiveSets`' `FunctionLiveness::live_sets` (and,
/// for `core.batch.*` only, the batch pass inside it).
fn replay_serve_extras(
    tr: &mut Tracer,
    c: &mut Counters,
    fl: &Fastlive,
    module: &Module,
    rs: &mut EngineSession<'_>,
    qs: &[Query],
) {
    for q in qs {
        let (f, a, _) = ids(q);
        let func = module.func(f);
        match q {
            Query::Nullness { .. } | Query::DefiniteInit { .. } => {
                let s = tr.begin("engine.fingerprint");
                black_box(CfgShape::of(func));
                c.explained_ns += tr.end_net(s, 1);
                let art = fl
                    .engine()
                    .nullness_for(func)
                    .expect("workload analyses succeed");
                let s = tr.begin("core.nullness.solve");
                black_box(art.solve(func));
                c.explained_ns += tr.end_net(s, 1);
            }
            Query::Interfere { b, .. } => {
                let s = tr.begin("cfg.dom");
                let dfs = DfsTree::compute(func);
                let dom = DomTree::compute(func, &dfs);
                c.explained_ns += tr.end_net(s, func.num_blocks() as u64);
                let b = match b {
                    ValueRef::Id(b) => *b,
                    ValueRef::Name(_) => unreachable!("workload queries address by id"),
                };
                let live = rs.analysis(module, f).expect("workload analyses succeed");
                let mut engine = CheckerEngine::from_shared(live);
                let a = a.expect("interference addresses two values");
                let s = tr.begin("destruct.interfere");
                black_box(values_interfere(&mut engine, func, &dom, a, b).ok());
                c.explained_ns += tr.end_net(s, 1);
            }
            Query::LiveSets { .. } => {
                let live = rs.analysis(module, f).expect("workload analyses succeed");
                let s = tr.begin("core.live_sets");
                black_box(live.live_sets(func));
                c.explained_ns += tr.end_net(s, 1);
                let s = tr.begin("core.batch");
                black_box(live.batch(func));
                tr.end(s, 1);
            }
            _ => {}
        }
    }
}
