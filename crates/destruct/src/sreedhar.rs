//! The Method III pass of Sreedhar et al. ("Translating Out of Static
//! Single Assignment Form", SAS 1999), driving every liveness query the
//! paper's Table 2 measures.

use fastlive_cfg::{DfsTree, DomTree};
use fastlive_construct::PreFunction;
use fastlive_core::{LivenessProvider, PointError};
use fastlive_graph::Cfg as _;
use fastlive_ir::{
    split_critical_edges, Block, Function, Inst, InstData, ProgramPoint, UnaryOp, Value,
};

use crate::congruence::Congruence;
use crate::interference::values_interfere;
use crate::out_of_ssa::out_of_ssa;

/// The flavor of a recorded liveness query.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// `live_in(value, block)`.
    LiveIn,
    /// `live_out(value, block)`.
    LiveOut,
    /// `live_at(value, point)` — a program-point query (the Budimlić
    /// "live directly after the defining instruction" test). The
    /// record's `block` field is the point's block.
    LiveAt {
        /// Layout index of the instruction the point follows, or
        /// `None` for the block entry.
        after_inst: Option<u32>,
    },
}

/// One liveness query issued by the pass — the unit of the paper's
/// query-time measurement. Recorded so benchmarks can replay the exact
/// same stream against different engines.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QueryRecord {
    /// Live-in, live-out, or a program-point query.
    pub kind: QueryKind,
    /// Queried value.
    pub value: Value,
    /// Queried block (the point's block for [`QueryKind::LiveAt`]).
    pub block: Block,
}

impl QueryRecord {
    /// The queried program point of a [`QueryKind::LiveAt`] record.
    pub fn point(&self) -> Option<ProgramPoint> {
        match self.kind {
            QueryKind::LiveAt { after_inst: None } => Some(ProgramPoint::block_entry(self.block)),
            QueryKind::LiveAt {
                after_inst: Some(i),
            } => Some(ProgramPoint::after(self.block, i as usize)),
            _ => None,
        }
    }
}

/// Counters and the query log of one destruction run.
#[derive(Clone, Debug, Default)]
pub struct DestructStats {
    /// Every block-liveness query, in issue order.
    pub queries: Vec<QueryRecord>,
    /// Pairwise Budimlić interference tests performed.
    pub interference_tests: usize,
    /// `copy` instructions inserted (Sreedhar's repair).
    pub copies_inserted: usize,
    /// φ-functions (non-entry block parameters) processed.
    pub phis_processed: usize,
    /// Critical edges split before the pass.
    pub split_edges: usize,
    /// Copies that later coalesced away (`x = x` after renaming).
    pub copies_coalesced: usize,
    /// φs that needed the full-copy (Method I) fallback.
    pub fallback_phis: usize,
}

/// Everything a destruction run produces.
#[derive(Clone, Debug)]
pub struct DestructResult {
    /// The SSA function after edge splitting and copy insertion (φs
    /// still present) — useful for inspection and further queries.
    pub func: Function,
    /// The out-of-SSA program over mutable variables.
    pub pre: PreFunction,
    /// Final φ-congruence classes.
    pub classes: Congruence,
    /// Counters and the query log.
    pub stats: DestructStats,
}

/// Records every query an engine answers.
struct Recording<E> {
    inner: E,
    log: Vec<QueryRecord>,
}

impl<E: LivenessProvider> LivenessProvider for Recording<E> {
    fn live_in(&mut self, func: &Function, v: Value, b: Block) -> bool {
        self.log.push(QueryRecord {
            kind: QueryKind::LiveIn,
            value: v,
            block: b,
        });
        self.inner.live_in(func, v, b)
    }
    fn live_out(&mut self, func: &Function, v: Value, b: Block) -> bool {
        self.log.push(QueryRecord {
            kind: QueryKind::LiveOut,
            value: v,
            block: b,
        });
        self.inner.live_out(func, v, b)
    }
    fn live_at(&mut self, func: &Function, v: Value, p: ProgramPoint) -> Result<bool, PointError> {
        // One record per point query regardless of how the inner
        // engine answers it (native fast path or the default
        // decomposition), so every engine produces the *same* stream.
        self.log.push(QueryRecord {
            kind: QueryKind::LiveAt {
                after_inst: p.inst_index().map(|i| i as u32),
            },
            value: v,
            block: p.block(),
        });
        self.inner.live_at(func, v, p)
    }
    fn invalidate_value(&mut self, func: &Function, v: Value) {
        self.inner.invalidate_value(func, v);
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One φ resource: the value, the block whose exit (for arguments) or
/// entry (for the result) hosts it, and where to patch a copy in.
#[derive(Clone, Debug)]
enum Resource {
    /// The φ result: parameter `index` of `block`.
    Result { value: Value, block: Block },
    /// A φ argument: `args[arg_index]` of `target_index`-th target of
    /// the predecessor's terminator.
    Arg {
        value: Value,
        pred: Block,
        term: Inst,
        target_index: usize,
        arg_index: usize,
    },
}

impl Resource {
    fn value(&self) -> Value {
        match self {
            Resource::Result { value, .. } | Resource::Arg { value, .. } => *value,
        }
    }
    /// The block whose liveness decides conflicts at this resource:
    /// the φ block for the result, the predecessor for arguments.
    fn location(&self) -> Block {
        match self {
            Resource::Result { block, .. } => *block,
            Resource::Arg { pred, .. } => *pred,
        }
    }
}

/// Runs SSA destruction on `func` with a liveness engine built by
/// `make_engine` *after* critical edges are split (engines precompute
/// against the final CFG).
///
/// The engine choice changes performance, never results: the pass makes
/// identical decisions with any correct [`LivenessProvider`], which the
/// cross-engine tests assert.
///
/// # Examples
///
/// ```
/// use fastlive_destruct::{destruct_ssa, CheckerEngine};
/// use fastlive_ir::parse_function;
///
/// let f = parse_function(
///     "function %loop { block0(v0):
///          v1 = iconst 0
///          jump block1(v1)
///      block1(v2):
///          v3 = iconst 1
///          v4 = iadd v2, v3
///          v5 = icmp_slt v4, v0
///          brif v5, block1(v4), block2
///      block2:
///          return v4 }",
/// )?;
/// let result = destruct_ssa(f, CheckerEngine::compute);
/// assert!(result.stats.phis_processed >= 1);
/// assert!(!result.stats.queries.is_empty());
/// // The out-of-SSA program still counts to five:
/// let out = fastlive_construct::run_pre(&result.pre, &[5], 1_000).unwrap();
/// assert_eq!(out.returned, vec![5]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn destruct_ssa<E, F>(mut func: Function, make_engine: F) -> DestructResult
where
    E: LivenessProvider,
    F: FnOnce(&Function) -> E,
{
    let mut stats = DestructStats {
        split_edges: split_critical_edges(&mut func).len(),
        ..DestructStats::default()
    };

    let dfs = DfsTree::compute(&func);
    let dom = DomTree::compute(&func, &dfs);
    let mut engine = Recording {
        inner: make_engine(&func),
        log: Vec::new(),
    };
    let mut classes = Congruence::new(func.num_values());

    let entry = func.entry_block();
    let blocks: Vec<Block> = func.blocks().collect();
    for &b in &blocks {
        if b == entry {
            continue; // entry parameters are function parameters, not φs
        }
        for pi in 0..func.block_params(b).len() {
            stats.phis_processed += 1;
            // The pass only inserts copies — it never removes a
            // definition — so point queries cannot hit a detached def.
            process_phi(
                &mut func,
                &dom,
                &mut engine,
                &mut classes,
                &mut stats,
                b,
                pi,
            )
            .expect("SSA destruction never detaches definitions");
        }
    }

    let pre = out_of_ssa(&func, &mut classes, &mut stats);
    stats.queries = engine.log;
    DestructResult {
        func,
        pre,
        classes,
        stats,
    }
}

/// Handles one φ: pairwise class-interference analysis, Sreedhar's
/// copy-placement case analysis, copy insertion, class merge.
fn process_phi<E: LivenessProvider>(
    func: &mut Function,
    dom: &DomTree,
    engine: &mut Recording<E>,
    classes: &mut Congruence,
    stats: &mut DestructStats,
    block: Block,
    pi: usize,
) -> Result<(), PointError> {
    // Gather the resources: result + one argument per incoming edge.
    let mut resources: Vec<Resource> = vec![Resource::Result {
        value: func.block_params(block)[pi],
        block,
    }];
    let mut preds: Vec<Block> = func
        .preds(block.as_u32())
        .iter()
        .map(|&p| Block::from_index(p as usize))
        .collect();
    preds.dedup();
    for pred in preds {
        let term = func.terminator(pred).expect("predecessor is terminated");
        for (ti, call) in func.inst_data(term).branch_targets().enumerate() {
            if call.block == block {
                resources.push(Resource::Arg {
                    value: call.args[pi],
                    pred,
                    term,
                    target_index: ti,
                    arg_index: pi,
                });
            }
        }
    }

    // Pairwise analysis over distinct congruence classes. A resource
    // needs a copy when its class conflicts at the other resource's
    // location (Sreedhar's four cases; the unresolved fourth case is
    // resolved conservatively by copying the first side).
    let mut needs_copy = vec![false; resources.len()];
    for i in 0..resources.len() {
        for j in i + 1..resources.len() {
            let (ri, rj) = (&resources[i], &resources[j]);
            let (ci, cj) = (classes.find(ri.value()), classes.find(rj.value()));
            if ci == cj {
                continue; // same class: never a conflict
            }
            if !classes_interfere(func, dom, engine, classes, stats, ci, cj)? {
                continue;
            }
            let ci_live_at_j = class_live_at(func, engine, classes, ci, rj);
            let cj_live_at_i = class_live_at(func, engine, classes, cj, ri);
            match (ci_live_at_j, cj_live_at_i) {
                (true, false) => needs_copy[i] = true,
                (false, true) => needs_copy[j] = true,
                (true, true) => {
                    needs_copy[i] = true;
                    needs_copy[j] = true;
                }
                // Sreedhar defers this pair and later copies one side if
                // the conflict persists; copying side i is the sound
                // conservative resolution.
                (false, false) => needs_copy[i] = true,
            }
        }
    }

    // Insert the planned copies.
    let mut copied = vec![false; resources.len()];
    for idx in 0..resources.len() {
        if needs_copy[idx] {
            insert_copy(func, engine, classes, stats, &mut resources[idx]);
            copied[idx] = true;
        }
    }

    // Safety net: the merged class must be interference-free, or the
    // out-of-SSA sharing would clobber live values (the classic swap /
    // lost-copy problems surface exactly here). If any conflict
    // remains, fall back to Sreedhar's Method I for this φ: isolate
    // every resource behind its own copy, which always yields a clean
    // class (each copy lives only on its edge, the parameter only up
    // to its result copy).
    if !merged_class_is_clean(func, dom, engine, classes, stats, &resources)? {
        stats.fallback_phis += 1;
        for idx in 0..resources.len() {
            if !copied[idx] {
                insert_copy(func, engine, classes, stats, &mut resources[idx]);
                copied[idx] = true;
            }
        }
        debug_assert!(
            merged_class_is_clean(func, dom, engine, classes, stats, &resources)?,
            "full-copy fallback must produce an interference-free class"
        );
    }

    // Merge every resource into one φ-congruence class.
    let first = resources[0].value();
    for r in &resources[1..] {
        classes.union(first, r.value());
    }
    Ok(())
}

/// Repairs one resource with a `copy`:
/// * result `x0 = φ(..)` becomes `x0' = φ(..); x0 = copy x0'` — the
///   parameter keeps the φ role, every other use moves to the copy;
/// * argument `xi` gets `xi' = copy xi` at the end of its predecessor,
///   and the branch passes `xi'`.
///
/// Set-based engines are told about the values whose use sets changed
/// (`invalidate_value`), mirroring the liveness maintenance Sreedhar's
/// algorithm performs — the paper's checker ignores the notification.
fn insert_copy<E: LivenessProvider>(
    func: &mut Function,
    engine: &mut Recording<E>,
    classes: &mut Congruence,
    stats: &mut DestructStats,
    resource: &mut Resource,
) {
    stats.copies_inserted += 1;
    match *resource {
        Resource::Result { value, block } => {
            let copy = func.insert_inst(
                block,
                0,
                InstData::Unary {
                    op: UnaryOp::Copy,
                    arg: value,
                },
            );
            let fresh = func.inst_result(copy).expect("copy has a result");
            func.replace_uses_except(value, fresh, copy);
            classes.ensure(func.num_values());
            engine.invalidate_value(func, value);
            // `value` (the parameter) remains this resource.
        }
        Resource::Arg {
            value,
            pred,
            term,
            target_index,
            arg_index,
        } => {
            let pos = func.block_insts(pred).len() - 1;
            let copy = func.insert_inst(
                pred,
                pos,
                InstData::Unary {
                    op: UnaryOp::Copy,
                    arg: value,
                },
            );
            let fresh = func.inst_result(copy).expect("copy has a result");
            func.set_branch_arg(term, target_index, arg_index, fresh);
            classes.ensure(func.num_values());
            engine.invalidate_value(func, value);
            *resource = Resource::Arg {
                value: fresh,
                pred,
                term,
                target_index,
                arg_index,
            };
        }
    }
}

/// Would merging all resource classes produce an interference-free
/// class? Pairwise Budimlić over the union's members.
fn merged_class_is_clean<E: LivenessProvider>(
    func: &Function,
    dom: &DomTree,
    engine: &mut Recording<E>,
    classes: &mut Congruence,
    stats: &mut DestructStats,
    resources: &[Resource],
) -> Result<bool, PointError> {
    let mut roots: Vec<Value> = resources.iter().map(|r| classes.find(r.value())).collect();
    roots.sort_unstable();
    roots.dedup();
    let members: Vec<Value> = roots
        .iter()
        .flat_map(|&r| classes.members(r).iter().copied())
        .collect();
    for i in 0..members.len() {
        for j in i + 1..members.len() {
            stats.interference_tests += 1;
            if values_interfere(engine, func, dom, members[i], members[j])? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Do two congruence classes interfere? Pairwise Budimlić tests over
/// the members — the query pattern §6.2 describes ("tests interference
/// of certain SSA variables ... whether one variable is live directly
/// after the instruction that defines the other one").
fn classes_interfere<E: LivenessProvider>(
    func: &Function,
    dom: &DomTree,
    engine: &mut Recording<E>,
    classes: &mut Congruence,
    stats: &mut DestructStats,
    ci: Value,
    cj: Value,
) -> Result<bool, PointError> {
    let members_i = classes.members(ci).to_vec();
    let members_j = classes.members(cj).to_vec();
    for &a in &members_i {
        for &b in &members_j {
            stats.interference_tests += 1;
            if values_interfere(engine, func, dom, a, b)? {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Is any member of class `c` live at the location of `resource`?
/// Live-out of the predecessor for arguments; live-in of the φ block
/// for the result (the φ's parallel bindings happen on the edges, so
/// a value live *into* the block conflicts with the binding).
fn class_live_at<E: LivenessProvider>(
    func: &Function,
    engine: &mut Recording<E>,
    classes: &mut Congruence,
    c: Value,
    resource: &Resource,
) -> bool {
    let loc = resource.location();
    let members = classes.members(c).to_vec();
    members.iter().any(|&m| match resource {
        Resource::Result { .. } => engine.live_in(func, m, loc),
        Resource::Arg { .. } => engine.live_out(func, m, loc),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{BitvecEngine, CheckerEngine, NativeEngine};
    use fastlive_construct::run_pre;
    use fastlive_dataflow::{IterativeLiveness, LaoLiveness, VarUniverse};
    use fastlive_ir::{interp, parse_function};

    fn loop_src() -> &'static str {
        "function %loop { block0(v0):
            v1 = iconst 0
            jump block1(v1)
        block1(v2):
            v3 = iconst 1
            v4 = iadd v2, v3
            v5 = icmp_slt v4, v0
            brif v5, block1(v4), block2
        block2:
            return v4 }"
    }

    /// The swap pattern: two φs exchanging values around a loop — the
    /// classic case where naive copy insertion breaks and interference
    /// analysis must keep the classes apart.
    fn swap_src() -> &'static str {
        "function %swap { block0(v0, v1, v2):
            jump block1(v0, v1, v2)
        block1(v3, v4, v5):
            v6 = iconst 1
            v7 = isub v5, v6
            v8 = icmp_slt v6, v5
            brif v8, block1(v4, v3, v7), block2
        block2:
            return v3, v4 }"
    }

    fn run_all_inputs(src: &str, inputs: &[Vec<i64>]) {
        let original = parse_function(src).unwrap();
        let result = destruct_ssa(original.clone(), CheckerEngine::compute);
        for args in inputs {
            let want = interp::run(&original, args, 100_000).expect("ssa runs");
            let got = run_pre(&result.pre, args, 200_000).expect("pre runs");
            assert_eq!(
                got.returned, want.returned,
                "inputs {args:?}\n{}",
                result.func
            );
        }
    }

    #[test]
    fn simple_loop_round_trips() {
        run_all_inputs(loop_src(), &[vec![0], vec![1], vec![5], vec![-3]]);
    }

    #[test]
    fn swap_loop_round_trips() {
        run_all_inputs(
            swap_src(),
            &[
                vec![10, 20, 0],
                vec![10, 20, 1],
                vec![10, 20, 2],
                vec![10, 20, 7],
            ],
        );
    }

    #[test]
    fn swap_needs_copies() {
        let f = parse_function(swap_src()).unwrap();
        let result = destruct_ssa(f, CheckerEngine::compute);
        // Swapping φs cannot be coalesced into single variables without
        // at least one repair copy.
        assert!(result.stats.copies_inserted >= 1, "{:?}", result.stats);
        assert!(result.stats.interference_tests > 0);
    }

    #[test]
    fn straight_line_needs_no_copies() {
        let f = parse_function(loop_src()).unwrap();
        let result = destruct_ssa(f, CheckerEngine::compute);
        // The counting loop coalesces completely: v1, v2, v4 share one
        // variable, no copies required.
        assert_eq!(result.stats.copies_inserted, 0, "{:?}", result.stats);
        assert!(result.stats.phis_processed == 1);
    }

    #[test]
    fn all_engines_make_identical_decisions() {
        for src in [loop_src(), swap_src()] {
            let f = parse_function(src).unwrap();
            let with_checker = destruct_ssa(f.clone(), CheckerEngine::compute);
            let with_native = destruct_ssa(f.clone(), |func| {
                NativeEngine::new(
                    LaoLiveness::compute(func, &VarUniverse::phi_related(func)),
                    func,
                )
            });
            let with_bitvec = destruct_ssa(f.clone(), |func| {
                BitvecEngine::new(
                    IterativeLiveness::compute(func, &VarUniverse::all(func)),
                    func,
                )
            });
            assert_eq!(
                with_checker.stats.copies_inserted, with_native.stats.copies_inserted,
                "checker vs native on {}",
                f.name
            );
            assert_eq!(
                with_checker.stats.copies_inserted, with_bitvec.stats.copies_inserted,
                "checker vs bitvec on {}",
                f.name
            );
            // Identical query streams (same decisions, same order).
            assert_eq!(with_checker.stats.queries, with_native.stats.queries);
            assert_eq!(with_checker.stats.queries, with_bitvec.stats.queries);
            // And identical out-of-SSA behaviour.
            let inputs: Vec<Vec<i64>> = match f.params().len() {
                1 => vec![vec![4]],
                _ => vec![vec![10, 20, 3]],
            };
            for args in inputs {
                assert_eq!(
                    run_pre(&with_checker.pre, &args, 100_000).unwrap().returned,
                    run_pre(&with_native.pre, &args, 100_000).unwrap().returned,
                );
            }
        }
    }

    #[test]
    fn critical_edges_are_split_first() {
        // brif with an edge straight into a multi-pred block.
        let f = parse_function(
            "function %ce { block0(v0):
                brif v0, block1, block2
            block1:
                jump block2
            block2:
                return v0 }",
        )
        .unwrap();
        let result = destruct_ssa(f, CheckerEngine::compute);
        assert_eq!(result.stats.split_edges, 1);
        assert_eq!(run_pre(&result.pre, &[1], 100).unwrap().returned, vec![1]);
    }

    #[test]
    fn phi_of_dead_after_join_value_coalesces_free() {
        // Both arms pass the same value, which dies at the join: the
        // φ coalesces with its argument without copies.
        let f = parse_function(
            "function %same { block0(v0, v9):
                brif v0, block1, block2
            block1:
                jump block3(v9)
            block2:
                jump block3(v9)
            block3(v1):
                v2 = iadd v1, v1
                return v2 }",
        )
        .unwrap();
        let result = destruct_ssa(f, CheckerEngine::compute);
        assert_eq!(result.stats.copies_inserted, 0, "{}", result.func);
        assert_eq!(
            run_pre(&result.pre, &[1, 21], 100).unwrap().returned,
            vec![42]
        );
        assert_eq!(
            run_pre(&result.pre, &[0, 21], 100).unwrap().returned,
            vec![42]
        );
    }

    #[test]
    fn phi_arg_live_past_join_needs_copies() {
        // v9 flows into the φ *and* is used after the join: plain
        // Method III (no value-equality refinement) must isolate the
        // arguments behind copies.
        let f = parse_function(
            "function %same2 { block0(v0, v9):
                brif v0, block1, block2
            block1:
                jump block3(v9)
            block2:
                jump block3(v9)
            block3(v1):
                v2 = iadd v1, v9
                return v2 }",
        )
        .unwrap();
        let result = destruct_ssa(f, CheckerEngine::compute);
        assert!(result.stats.copies_inserted >= 1, "{}", result.func);
        assert_eq!(
            run_pre(&result.pre, &[1, 21], 100).unwrap().returned,
            vec![42]
        );
        assert_eq!(
            run_pre(&result.pre, &[0, 21], 100).unwrap().returned,
            vec![42]
        );
    }
}
