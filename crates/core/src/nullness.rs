//! Dominance-based nullness / definite-initialization analysis.
//!
//! This is the workspace's second sparse analysis, built per the
//! parameterized construction of Tavares, Boissinot, Pereira &
//! Rastello: a **variable-independent, shape-level precomputation**
//! (dominator tree + dominance frontiers over the CFG) plus **sparse
//! forward propagation along def-use chains** at query time. The split
//! mirrors the liveness checker exactly — [`NullnessArtifact`] is to
//! this analysis what `Precomputation` is to liveness: it survives all
//! program edits except CFG changes, so the engine can cache and
//! persist it per CFG fingerprint.
//!
//! Two facts are answered:
//!
//! * **Nullness** — a three-valued forward constant-style lattice per
//!   SSA value: definitely zero ([`Nullness::Null`]), definitely
//!   non-zero ([`Nullness::NonNull`]), or unknown
//!   ([`Nullness::Maybe`]). Facts propagate sparsely value-to-value;
//!   merge points need no special casing because this IR's block
//!   parameters already sit exactly where the sparse construction
//!   would split live ranges — at the iterated dominance frontiers of
//!   the definitions they merge ([`NullnessArtifact::fact_split_blocks`]
//!   exposes that frontier closure from the persisted matrix).
//! * **Definite initialization** — "has `v`'s definition executed on
//!   every path reaching the entry of block `q`?" In strict SSA this
//!   is a pure dominance query (see
//!   [`NullnessArtifact::definitely_initialized_at_entry`]), which is
//!   why the artifact carries the dominator tree.
//!
//! The solver treats every reachable block as executable (no
//! conditional-branch pruning), so the result is the least fixpoint of
//! monotone transfer functions over a finite lattice — independent of
//! iteration order. That is the property the differential suites lean
//! on: the dense iterative referee in `fastlive-dataflow` must agree
//! bit-for-bit.

use fastlive_bitset::BitMatrix;
use fastlive_cfg::{DfsTree, DomTree, DominanceFrontiers};
use fastlive_graph::{Cfg, NodeId};
use fastlive_ir::{BinaryOp, Block, Function, InstData, UnaryOp, Value, ValueDef};

/// The public three-valued nullness verdict for an SSA value.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Nullness {
    /// The value is zero on every execution.
    Null,
    /// The value is non-zero on every execution.
    NonNull,
    /// The analysis cannot prove either.
    Maybe,
}

impl Nullness {
    /// Stable lowercase label (used by telemetry and bench output).
    pub fn name(self) -> &'static str {
        match self {
            Nullness::Null => "null",
            Nullness::NonNull => "non_null",
            Nullness::Maybe => "maybe",
        }
    }
}

impl std::fmt::Display for Nullness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Internal four-valued lattice: `Top` (no information yet — the value
/// of an unevaluated or unreachable definition) refines downward to a
/// concrete fact and joins up to `Maybe`.
///
/// Order: `Top < {Null, NonNull} < Maybe`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Fact {
    Top,
    Null,
    NonNull,
    Maybe,
}

impl Fact {
    /// Least upper bound.
    fn join(self, other: Fact) -> Fact {
        match (self, other) {
            (Fact::Top, x) | (x, Fact::Top) => x,
            (a, b) if a == b => a,
            _ => Fact::Maybe,
        }
    }

    /// Collapse to the public verdict: residual `Top` (values defined
    /// in unreachable code) reports as `Maybe`.
    fn finalize(self) -> Nullness {
        match self {
            Fact::Null => Nullness::Null,
            Fact::NonNull => Nullness::NonNull,
            Fact::Top | Fact::Maybe => Nullness::Maybe,
        }
    }
}

/// The shape-level precomputation for nullness/definite-init: the
/// dominance-frontier relation as a dense bit matrix (persisted by the
/// engine's disk tier) plus the dominator tree (cheap, rebuilt from
/// the canonical graph on revive — never persisted, like the liveness
/// checker's derived `rt` matrix).
#[derive(Clone, Debug)]
pub struct NullnessArtifact {
    /// `df.contains(b, f)` ⇔ `f ∈ DF(b)`. Square: `num_blocks ×
    /// num_blocks`.
    df: BitMatrix,
    /// Dominator tree over the same graph; derived, not persisted.
    dom: DomTree,
}

impl NullnessArtifact {
    /// Computes the artifact from a CFG (typically the fingerprint's
    /// canonical graph; any graph with the same shape gives identical
    /// query answers, because dominance is successor-order
    /// independent).
    pub fn compute<G: Cfg>(g: &G) -> Self {
        let dfs = DfsTree::compute(g);
        let dom = DomTree::compute(g, &dfs);
        let fronts = DominanceFrontiers::compute(g, &dom);
        let n = g.num_nodes();
        let mut df = BitMatrix::new(n, n);
        for b in 0..n as NodeId {
            for &f in fronts.of(b) {
                df.set(b, f);
            }
        }
        NullnessArtifact { df, dom }
    }

    /// Revives an artifact from its persisted frontier matrix: rebuilds
    /// the dominator tree from the canonical graph and validates the
    /// matrix dimensions against it. `None` means the payload does not
    /// fit the graph and the caller must recompute.
    pub fn from_parts<G: Cfg>(g: &G, df: BitMatrix) -> Option<Self> {
        if df.rows() != g.num_nodes() || df.cols() != g.num_nodes() {
            return None;
        }
        let dfs = DfsTree::compute(g);
        let dom = DomTree::compute(g, &dfs);
        Some(NullnessArtifact { df, dom })
    }

    /// The persisted dominance-frontier matrix.
    pub fn df(&self) -> &BitMatrix {
        &self.df
    }

    /// The (derived) dominator tree.
    pub fn dom(&self) -> &DomTree {
        &self.dom
    }

    /// Number of blocks in the underlying shape.
    pub fn num_blocks(&self) -> usize {
        self.df.rows()
    }

    /// `true` when this artifact still matches `func`'s block count —
    /// the cheap staleness probe mirroring
    /// [`FunctionLiveness::is_current_for`](crate::FunctionLiveness::is_current_for).
    pub fn is_current_for(&self, func: &Function) -> bool {
        self.df.rows() == func.num_blocks()
    }

    /// The iterated dominance frontier of `v`'s definition block — the
    /// exact set of blocks where the sparse construction splits `v`'s
    /// fact (in this block-parameter IR, where a φ merging `v` would
    /// live). Computed by closure over the persisted matrix. Sorted
    /// ascending; empty for values defined in unreachable code and for
    /// values whose defining instruction was removed.
    pub fn fact_split_blocks(&self, func: &Function, v: Value) -> Vec<Block> {
        let d = match func.try_def_block(v) {
            Some(d) if self.dom.is_reachable(d.as_u32()) => d.as_u32(),
            _ => return Vec::new(),
        };
        let n = self.df.rows() as NodeId;
        let mut in_set = vec![false; n as usize];
        let mut work = vec![d];
        let mut out = Vec::new();
        while let Some(b) = work.pop() {
            for f in self.df.row_iter(b) {
                if !in_set[f as usize] {
                    in_set[f as usize] = true;
                    out.push(Block::from_index(f as usize));
                    work.push(f);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Definite initialization: has `v`'s definition executed on
    /// *every* path from function entry to the entry of block `q`?
    ///
    /// In strict SSA with atomic blocks this is dominance:
    ///
    /// * `q` unreachable → `false` (no path reaches it at all);
    /// * `v` a block parameter of `d` → `true` iff `d` dominates `q`
    ///   (parameters bind on block entry, so `d == q` counts);
    /// * `v` an instruction result in `d` → `true` iff `d` *strictly*
    ///   dominates `q` (at `q`'s own entry the defining instruction
    ///   has not run yet; a loop-header def reaches its own entry only
    ///   along back edges, never along the path that first enters the
    ///   loop);
    /// * `v`'s defining instruction removed → `false` (it never runs).
    pub fn definitely_initialized_at_entry(&self, func: &Function, v: Value, q: Block) -> bool {
        let qn = q.as_u32();
        if !self.dom.is_reachable(qn) {
            return false;
        }
        let d = match func.try_def_block(v) {
            Some(d) if self.dom.is_reachable(d.as_u32()) => d.as_u32(),
            _ => return false,
        };
        match func.value_def(v) {
            ValueDef::Param { .. } => self.dom.dominates(d, qn),
            ValueDef::Inst(_) => d != qn && self.dom.dominates(d, qn),
        }
    }

    /// Solves the per-value nullness facts for `func` by sparse
    /// forward propagation along def-use chains. `func` must have the
    /// same block count as the artifact's shape
    /// ([`is_current_for`](Self::is_current_for)).
    pub fn solve(&self, func: &Function) -> NullnessFacts {
        debug_assert!(
            self.is_current_for(func),
            "artifact is stale for this function"
        );
        let n = func.num_values();
        let mut fact = vec![Fact::Top; n];

        // Deterministic seeding: every value defined in a reachable
        // block, in dominance-preorder of its definition block, block
        // parameters before instruction results. The fixpoint itself
        // is order-independent (monotone functions, finite lattice);
        // the order only bounds the number of relaxations.
        let mut list: std::collections::VecDeque<Value> = std::collections::VecDeque::new();
        let mut on_list = vec![false; n];
        for &bn in self.dom.preorder() {
            let b = Block::from_index(bn as usize);
            for &p in func.block_params(b) {
                list.push_back(p);
                on_list[p.index()] = true;
            }
            for &i in func.block_insts(b) {
                if let Some(r) = func.inst_result(i) {
                    list.push_back(r);
                    on_list[r.index()] = true;
                }
            }
        }

        while let Some(v) = list.pop_front() {
            on_list[v.index()] = false;
            let new = self.eval(func, &fact, v);
            if new == fact[v.index()] {
                continue;
            }
            fact[v.index()] = new;
            // Push the dependents: instruction results whose operands
            // include v, and block parameters fed by v as a branch
            // argument.
            for &u in func.uses(v) {
                if let Some(r) = func.inst_result(u) {
                    if !on_list[r.index()] {
                        on_list[r.index()] = true;
                        list.push_back(r);
                    }
                }
                for call in func.inst_data(u).branch_targets() {
                    for (i, &a) in call.args.iter().enumerate() {
                        if a != v {
                            continue;
                        }
                        let p = func.block_params(call.block)[i];
                        if !on_list[p.index()] {
                            on_list[p.index()] = true;
                            list.push_back(p);
                        }
                    }
                }
            }
        }

        NullnessFacts {
            facts: fact.into_iter().map(Fact::finalize).collect(),
        }
    }

    /// One transfer-function evaluation of `v` under the current
    /// environment.
    fn eval(&self, func: &Function, fact: &[Fact], v: Value) -> Fact {
        match func.value_def(v) {
            ValueDef::Param { block, index } => {
                if block == func.entry_block() {
                    // Function parameters: unconstrained inputs.
                    return Fact::Maybe;
                }
                // Merge point: join the facts of every branch argument
                // arriving from a *reachable* predecessor. (These joins
                // are exactly the dominance-frontier splits of the
                // sparse construction — see `fact_split_blocks`.)
                let mut acc = Fact::Top;
                for &p in func.preds(block.as_u32()) {
                    if !self.dom.is_reachable(p) {
                        continue;
                    }
                    let pb = Block::from_index(p as usize);
                    let Some(term) = func.terminator(pb) else {
                        continue;
                    };
                    for call in func.inst_data(term).branch_targets() {
                        if call.block == block {
                            acc = acc.join(fact[call.args[index as usize].index()]);
                        }
                    }
                }
                acc
            }
            ValueDef::Inst(i) => transfer(func.inst_data(i), |x| fact[x.index()]),
        }
    }
}

/// The solved nullness facts of one function: one [`Nullness`] per SSA
/// value, indexed by value id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NullnessFacts {
    facts: Vec<Nullness>,
}

impl NullnessFacts {
    /// The verdict for `v`.
    pub fn of(&self, v: Value) -> Nullness {
        self.facts[v.index()]
    }

    /// Number of values covered.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// `true` when the function had no values.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }
}

/// The transfer function of one instruction, evaluated over the
/// wrapping two's-complement semantics of [`UnaryOp::eval`] /
/// [`BinaryOp::eval`] (`sdiv` by zero yields 0, `srem` by zero yields
/// the dividend, `MIN / -1` wraps). Every arm is monotone in each
/// operand, with `Top` as bottom.
fn transfer(data: &InstData, env: impl Fn(Value) -> Fact) -> Fact {
    use Fact::{Maybe, NonNull, Null, Top};
    match data {
        InstData::IntConst { imm } => {
            if *imm == 0 {
                Null
            } else {
                NonNull
            }
        }
        InstData::Unary { op, arg } => {
            let a = env(*arg);
            match op {
                // `copy` preserves the value; `ineg` preserves
                // zero-ness (wrapping: -MIN == MIN, still non-zero).
                UnaryOp::Copy | UnaryOp::Ineg => a,
                // !0 == -1 is non-zero; !x for non-zero x may be zero
                // (x == -1).
                UnaryOp::Bnot => match a {
                    Top => Top,
                    Null => NonNull,
                    _ => Maybe,
                },
            }
        }
        InstData::Binary { op, args: [x, y] } => {
            let (a, b) = (env(*x), env(*y));
            if a == Top || b == Top {
                // Syntactic tautologies are constants even over Top —
                // x == x is 1 regardless of x's value.
                return match op {
                    BinaryOp::IcmpEq | BinaryOp::IcmpSle if x == y => NonNull,
                    BinaryOp::IcmpNe | BinaryOp::IcmpSlt if x == y => Null,
                    _ => Top,
                };
            }
            match op {
                // 0±0 = 0; 0±n and n±0 stay non-zero; n±m may wrap to
                // anything.
                BinaryOp::Iadd | BinaryOp::Isub => match (a, b) {
                    (Null, Null) => Null,
                    (Null, NonNull) | (NonNull, Null) => NonNull,
                    _ => Maybe,
                },
                // 0·x = x·0 = 0, even when the other side is unknown;
                // n·m may wrap to zero.
                BinaryOp::Imul => {
                    if a == Null || b == Null {
                        Null
                    } else {
                        Maybe
                    }
                }
                // Total division: 0/x = 0 and x/0 = 0 by definition.
                BinaryOp::Sdiv => {
                    if a == Null || b == Null {
                        Null
                    } else {
                        Maybe
                    }
                }
                // 0%x = 0; x%0 = x by the total semantics; MIN%-1 = 0,
                // so NonNull%NonNull is only Maybe.
                BinaryOp::Srem => {
                    if a == Null {
                        Null
                    } else if b == Null {
                        a
                    } else {
                        Maybe
                    }
                }
                BinaryOp::Band => {
                    if a == Null || b == Null {
                        Null
                    } else {
                        Maybe
                    }
                }
                // x|y keeps every set bit of either side.
                BinaryOp::Bor => {
                    if a == NonNull || b == NonNull {
                        NonNull
                    } else if a == Null {
                        b
                    } else if b == Null {
                        a
                    } else {
                        Maybe
                    }
                }
                // 0^y = y, x^0 = x; n^n may cancel to zero.
                BinaryOp::Bxor => {
                    if a == Null {
                        b
                    } else if b == Null {
                        a
                    } else {
                        Maybe
                    }
                }
                BinaryOp::IcmpEq => {
                    if x == y {
                        NonNull
                    } else {
                        match (a, b) {
                            (Null, Null) => NonNull,
                            (Null, NonNull) | (NonNull, Null) => Null,
                            _ => Maybe,
                        }
                    }
                }
                BinaryOp::IcmpNe => {
                    if x == y {
                        Null
                    } else {
                        match (a, b) {
                            (Null, Null) => Null,
                            (Null, NonNull) | (NonNull, Null) => NonNull,
                            _ => Maybe,
                        }
                    }
                }
                BinaryOp::IcmpSlt => {
                    if x == y {
                        Null
                    } else {
                        match (a, b) {
                            (Null, Null) => Null,
                            _ => Maybe,
                        }
                    }
                }
                BinaryOp::IcmpSle => {
                    if x == y {
                        NonNull
                    } else {
                        match (a, b) {
                            (Null, Null) => NonNull,
                            _ => Maybe,
                        }
                    }
                }
            }
        }
        // Terminators produce no result; this arm is never reached
        // through `eval` (only values with a defining instruction are
        // evaluated).
        InstData::Jump { .. } | InstData::Brif { .. } | InstData::Return { .. } => Fact::Maybe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_ir::{BinaryOp, Function};

    fn artifact(func: &Function) -> NullnessArtifact {
        NullnessArtifact::compute(func)
    }

    #[test]
    fn constants_and_straight_line_arithmetic() {
        let mut f = Function::new("t");
        let b0 = f.add_block();
        let zero = f.ins(b0).iconst(0);
        let one = f.ins(b0).iconst(1);
        let sum = f.ins(b0).iadd(zero, one); // 0 + 1: non-null
        let prod = f.ins(b0).binary(BinaryOp::Imul, zero, sum); // 0 * x: null
        let wrap = f.ins(b0).iadd(one, one); // 1 + 1 may wrap in general
        f.ins(b0).ret(vec![prod]);

        let art = artifact(&f);
        let facts = art.solve(&f);
        assert_eq!(facts.of(zero), Nullness::Null);
        assert_eq!(facts.of(one), Nullness::NonNull);
        assert_eq!(facts.of(sum), Nullness::NonNull);
        assert_eq!(facts.of(prod), Nullness::Null);
        assert_eq!(facts.of(wrap), Nullness::Maybe);
    }

    #[test]
    fn params_are_maybe_and_tautologies_are_constant() {
        let mut f = Function::new("t");
        let b0 = f.add_block();
        let p = f.append_block_param(b0);
        let same = f.ins(b0).binary(BinaryOp::IcmpEq, p, p); // x == x: 1
        let diff = f.ins(b0).binary(BinaryOp::IcmpNe, p, p); // x != x: 0
        f.ins(b0).ret(vec![same]);

        let art = artifact(&f);
        let facts = art.solve(&f);
        assert_eq!(facts.of(p), Nullness::Maybe);
        assert_eq!(facts.of(same), Nullness::NonNull);
        assert_eq!(facts.of(diff), Nullness::Null);
    }

    #[test]
    fn merge_point_joins_split_facts() {
        // entry: brif p, then(1), else(0); merge(m) — m joins NonNull
        // with Null to Maybe; a second diamond passing 0 on both edges
        // joins to Null.
        let mut f = Function::new("t");
        let b0 = f.add_block();
        let p = f.append_block_param(b0);
        let bt = f.add_block();
        let be = f.add_block();
        let bm = f.add_block();
        let m = f.append_block_param(bm);
        let n = f.append_block_param(bm);

        let zero = f.ins(b0).iconst(0);
        f.ins(b0).brif(p, bt, vec![], be, vec![]);
        let one = f.ins(bt).iconst(1);
        f.ins(bt).jump(bm, vec![one, zero]);
        let zero_e = f.ins(be).iconst(0);
        f.ins(be).jump(bm, vec![zero_e, zero]);
        f.ins(bm).ret(vec![m]);

        let art = artifact(&f);
        let facts = art.solve(&f);
        assert_eq!(facts.of(m), Nullness::Maybe); // NonNull ⊔ Null
        assert_eq!(facts.of(n), Nullness::Null); // Null ⊔ Null
        assert_eq!(
            art.fact_split_blocks(&f, one),
            vec![bm],
            "the diamond's merge block is the definition's dominance frontier"
        );
    }

    #[test]
    fn loop_carried_facts_reach_fixpoint() {
        // i starts at 1 and is multiplied by 2 each trip: stays
        // non-null through the back edge. j starts at 0 and has 0
        // added: stays null.
        let mut f = Function::new("t");
        let b0 = f.add_block();
        let p = f.append_block_param(b0);
        let bh = f.add_block();
        let i = f.append_block_param(bh);
        let j = f.append_block_param(bh);
        let bx = f.add_block();

        let one = f.ins(b0).iconst(1);
        let zero = f.ins(b0).iconst(0);
        f.ins(b0).jump(bh, vec![one, zero]);
        let two = f.ins(bh).iconst(2);
        let i2 = f.ins(bh).binary(BinaryOp::Imul, i, two);
        let j2 = f.ins(bh).iadd(j, zero);
        f.ins(bh).brif(p, bh, vec![i2, j2], bx, vec![]);
        f.ins(bx).ret(vec![i]);

        let art = artifact(&f);
        let facts = art.solve(&f);
        assert_eq!(
            facts.of(j),
            Nullness::Null,
            "0 + 0 stays null around the loop"
        );
        assert_eq!(facts.of(j2), Nullness::Null);
        assert_eq!(
            facts.of(i),
            Nullness::Maybe,
            "NonNull * NonNull may wrap to zero, so the loop-carried fact widens"
        );
    }

    #[test]
    fn definite_initialization_is_dominance() {
        // b0 -> b1 -> b3, b0 -> b2 -> b3; defs in b1 do not reach b3's
        // entry on the b2 path.
        let mut f = Function::new("t");
        let b0 = f.add_block();
        let p = f.append_block_param(b0);
        let b1 = f.add_block();
        let b2 = f.add_block();
        let b3 = f.add_block();
        let early = f.ins(b0).iconst(7);
        f.ins(b0).brif(p, b1, vec![], b2, vec![]);
        let only_then = f.ins(b1).iconst(1);
        f.ins(b1).jump(b3, vec![]);
        f.ins(b2).jump(b3, vec![]);
        let late = f.ins(b3).iconst(2);
        f.ins(b3).ret(vec![late]);

        let art = artifact(&f);
        assert!(art.definitely_initialized_at_entry(&f, early, b3));
        assert!(art.definitely_initialized_at_entry(&f, p, b3));
        assert!(!art.definitely_initialized_at_entry(&f, only_then, b3));
        // A block's own instruction defs are not initialized at its
        // *entry*; its params are.
        assert!(!art.definitely_initialized_at_entry(&f, late, b3));
        assert!(art.definitely_initialized_at_entry(&f, p, b0));
        assert!(!art.definitely_initialized_at_entry(&f, early, b0));
    }

    #[test]
    fn unreachable_defs_are_maybe_and_never_initialized() {
        let mut f = Function::new("t");
        let b0 = f.add_block();
        let bu = f.add_block(); // never branched to
        f.ins(b0).ret(vec![]);
        let ghost = f.ins(bu).iconst(3);
        f.ins(bu).ret(vec![ghost]);

        let art = artifact(&f);
        let facts = art.solve(&f);
        assert_eq!(facts.of(ghost), Nullness::Maybe);
        assert!(!art.definitely_initialized_at_entry(&f, ghost, b0));
        assert!(art.fact_split_blocks(&f, ghost).is_empty());
    }

    #[test]
    fn revive_round_trip_validates_dimensions() {
        let mut f = Function::new("t");
        let b0 = f.add_block();
        f.ins(b0).ret(vec![]);
        let art = artifact(&f);
        let revived = NullnessArtifact::from_parts(&f, art.df().clone()).expect("same graph");
        assert_eq!(revived.df(), art.df());
        let wrong = BitMatrix::new(3, 3);
        assert!(NullnessArtifact::from_parts(&f, wrong).is_none());
    }
}
