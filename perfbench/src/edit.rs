//! `edit`: writes beside reads on one session. Each op edits one
//! function, round-robin — an instruction edit every op (a new use of
//! an entry parameter) and, on one op in [`VARIANTS`], a CFG edit
//! (`split_critical_edges`) — then asks one planned batch about that
//! function. Afterwards, untimed, the pristine function is restored
//! wholesale, so every op edits the same starting point.
//!
//! Restoring rather than removing the inserted instruction matters:
//! removing a result-producing instruction leaves a detached value on
//! which whole-function queries cannot be answered.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fastlive::core::{LivenessChecker, NullnessArtifact};
use fastlive::ir::{split_critical_edges, InstData, UnaryOp};
use fastlive::workload::SplitMix64;
use fastlive::{parse_module, Block, CfgShape, Fastlive, FuncId, Function, Query, Value};

use crate::serve::{module_props, module_text, trace_parse, warm, FUNCTIONS};
use crate::{compare, kind_counts, oracle, plant_wrong_answer, Run, Snap};

/// Edit variants per function; the last one also splits critical
/// edges, so CFG edits are exactly 1 op in `VARIANTS`.
const VARIANTS: usize = 8;
/// Values whose liveness each op probes at every block, besides the
/// inserted value and the first entry parameter.
const DENSE_VALUES: usize = 4;

/// The instruction edit of `variant`: a negation of one entry
/// parameter at the top of one block.
fn insert(func: &mut Function, variant: usize, seed: u64) {
    let params = func.params();
    let arg = params[variant % params.len()];
    let mut rng = SplitMix64::new(seed ^ (variant as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    let block = Block::from_index(rng.index(func.num_blocks()));
    func.insert_inst(
        block,
        0,
        InstData::Unary {
            op: UnaryOp::Ineg,
            arg,
        },
    );
}

fn is_cfg_edit(variant: usize) -> bool {
    variant == VARIANTS - 1
}

/// The planned batch of every op on function `f`: dense `LiveIn` /
/// `LiveOut` probes of a fixed number of values at every block, one
/// `Nullness` query per value, one `LiveSets`.
fn batch_for(f: FuncId, func: &Function, seed: u64) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed ^ 0x0ba7_c4e5 ^ f as u64);
    // The value every edit inserts: the function's next value id.
    let inserted = Value::from_index(func.num_values());
    let mut probed = vec![inserted, func.params()[0]];
    for _ in 0..DENSE_VALUES {
        probed.push(Value::from_index(rng.index(func.num_values())));
    }
    let mut out = Vec::new();
    for &v in &probed {
        for b in func.blocks() {
            out.push(Query::live_in(f, v, b));
            out.push(Query::live_out(f, v, b));
        }
    }
    for v in func.values().chain([inserted]) {
        out.push(Query::nullness(f, v));
    }
    out.push(Query::live_sets(f));
    out
}

/// The function's seed for edit placement.
fn edit_seed(seed: u64, f: FuncId) -> u64 {
    seed.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ f as u64
}

/// Applies op `variant`'s full edit to `func`.
fn apply(func: &mut Function, variant: usize, seed: u64) {
    insert(func, variant, seed);
    if is_cfg_edit(variant) {
        split_critical_edges(func);
    }
}

pub(crate) fn run(run: &mut Run) {
    let seed = run.opts.seed;
    let text = module_text(seed);
    let reference = parse_module(&text).expect("generated module text parses");
    let pristine: Vec<Function> = reference.functions().to_vec();
    let batches: Vec<Vec<Query>> = pristine
        .iter()
        .enumerate()
        .map(|(f, func)| batch_for(f, func, seed))
        .collect();
    // The oracle answers every (function, variant) state once.
    let mut scratch = reference.clone();
    let mut expected: Vec<Vec<Vec<u64>>> = Vec::new();
    for (f, func) in pristine.iter().enumerate() {
        let mut per_variant = Vec::with_capacity(VARIANTS);
        for variant in 0..VARIANTS {
            let mut edited = func.clone();
            apply(&mut edited, variant, edit_seed(seed, f));
            *scratch.func_mut(f) = edited;
            per_variant.push(oracle(&scratch, &batches[f]));
        }
        *scratch.func_mut(f) = func.clone();
        expected.push(per_variant);
    }
    if run.opts.plant_wrong_answer {
        plant_wrong_answer(&mut expected[0][0]);
    }
    let mut props = module_props(&reference);
    let all: Vec<Query> = batches.concat();
    props
        .set("functions_edited_round_robin", FUNCTIONS)
        .set("cfg_edit_share", 1.0 / VARIANTS as f64)
        .set(
            "queries_per_op_mean",
            all.len() as f64 / batches.len() as f64,
        )
        .set("query_kinds", kind_counts(&all));
    run.props = props;

    let traced = run.opts.trace;
    let blocks = reference
        .functions()
        .iter()
        .map(|f| f.num_blocks())
        .sum::<usize>() as u64;
    while run.next_slice() {
        let (mut module, fl) = run.setup(|| {
            let module = parse_module(&text).expect("generated module text parses");
            let fl = Fastlive::with_defaults();
            warm(&mut fl.session(&module), &module);
            (module, fl)
        });
        let mut session = fl.session(&module);
        warm(&mut session, &module);
        let mut replay = fl.engine().analyze(&module);
        // A telemetry-enabled twin replays each batch for the planner's
        // grouped/scalar counts; the measured facade stays
        // uninstrumented.
        let twin_fl = traced.then(|| {
            Fastlive::builder()
                .telemetry(true)
                .build()
                .expect("the default configuration with telemetry is valid")
        });
        let mut twin = twin_fl.as_ref().map(|t| t.session(&module));
        if run.first_slice() {
            run.traced_setup(|tr, _| trace_parse(tr, &text, blocks));
        }

        while let Some(i) = run.next_op() {
            let f = i as usize % FUNCTIONS;
            let variant = (i as usize / FUNCTIONS) % VARIANTS;
            let cfg_edit = is_cfg_edit(variant);
            let queries = &batches[f];
            let fseed = edit_seed(seed, f);
            let before = Snap::take(&fl, &session);
            let tr = &mut run.tracer;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let root = tr.begin_op(i);
                let t0 = Instant::now();
                let func = module.func_mut(f);
                let s = tr.begin("ir.edit.insert");
                insert(func, variant, fseed);
                let mut ir_ns = tr.end_net(s, 1);
                if cfg_edit {
                    let s = tr.begin("ir.edit.split");
                    split_critical_edges(func);
                    ir_ns += tr.end_net(s, 1);
                }
                let s = tr.begin("facade.run_queries");
                let answers = session.run_queries(&module, queries);
                tr.end(s, queries.len() as u64);
                let ns = t0.elapsed().as_nanos() as u64;
                tr.end(root, 1);
                (ns, answers, ir_ns)
            }));
            let after = Snap::take(&fl, &session);
            let failure = match &outcome {
                Err(_) => Some(format!("op {i} panicked")),
                Ok((_, answers, _)) => {
                    compare(answers, &expected[f][variant], queries).or_else(|| {
                        let moved = after.recomputations != before.recomputations
                            || after.cache.misses != before.cache.misses;
                        (moved && !cfg_edit)
                            .then(|| format!("op {i}: an instruction edit recomputed an analysis"))
                    })
                }
            };
            if run.tracer.is_on() {
                // One layer below the op, each call counting towards its
                // layer accounting: the IR edits as timed in the op, the
                // session's resolution, one fingerprint per engine lookup,
                // the precomputations of a new shape, the planner's row pass
                // and set materialization (`live_sets`), the nullness solve.
                let tr = &mut run.tracer;
                let c = &mut run.c;
                c.add_op(&before, &after);
                if let Ok((_, _, ir_ns)) = &outcome {
                    c.explained_ns += ir_ns;
                }
                let func = module.func(f);
                let s = tr.begin("engine.session.analysis");
                let live = replay
                    .analysis(&module, f)
                    .expect("workload analyses succeed");
                c.explained_ns += tr.end_net(s, 1);
                let s = tr.begin("engine.fingerprint");
                let shape = CfgShape::of(func);
                let lookups = (after.cache.hits + after.cache.misses + after.cache.dedup_hits)
                    - (before.cache.hits + before.cache.misses + before.cache.dedup_hits);
                c.explained_ns += tr.end_net(s, 1) * lookups as f64;
                if after.cache.misses > before.cache.misses {
                    // The op paid a precomputation for its new CFG shape.
                    let graph = shape.to_graph();
                    let s = tr.begin("core.precompute");
                    black_box(LivenessChecker::compute(&graph));
                    c.explained_ns += tr.end_net(s, shape.num_blocks() as u64);
                    let s = tr.begin("core.nullness.compute");
                    black_box(NullnessArtifact::compute(&graph));
                    c.explained_ns += tr.end_net(s, 1);
                }
                let s = tr.begin("core.live_sets");
                black_box(live.live_sets(func));
                c.explained_ns += tr.end_net(s, 1);
                let s = tr.begin("core.batch");
                black_box(live.batch(func));
                tr.end(s, 1);
                let art = fl
                    .engine()
                    .nullness_for(func)
                    .expect("workload analyses succeed");
                let s = tr.begin("core.nullness.solve");
                black_box(art.solve(func));
                c.explained_ns += tr.end_net(s, 1);
                if let (Some(twin_fl), Some(twin)) = (&twin_fl, &mut twin) {
                    let plan0 = twin_fl.telemetry().plan;
                    black_box(twin.run_queries(&module, queries));
                    let plan1 = twin_fl.telemetry().plan;
                    let grouped = plan1.grouped_groups - plan0.grouped_groups;
                    c.plan_grouped += grouped;
                    c.plan_scalar += plan1.scalar_groups - plan0.scalar_groups;
                    if grouped > 0 {
                        c.batch_passes += grouped;
                        c.batch_probes += queries
                            .iter()
                            .filter(|q| matches!(q, Query::LiveIn { .. } | Query::LiveOut { .. }))
                            .count() as u64;
                    }
                }
            }
            *module.func_mut(f) = pristine[f].clone();
            if cfg_edit {
                // The restored CFG is older than the one the sessions last
                // saw: let them revalidate now, outside any op.
                let probe = Query::live_in(f, Value::from_index(0), Block::from_index(0));
                let _ = session.query(&module, &probe);
                let _ = replay.analysis(&module, f);
                if let Some(twin) = &mut twin {
                    let _ = twin.query(&module, &probe);
                }
            }
            run.finish_op(outcome.ok().map(|(ns, _, _)| ns), failure);
        }
    }
}
