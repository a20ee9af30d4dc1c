//! The iterative nullness / definite-initialization referee.
//!
//! A deliberately naive dense solver, written independently of
//! `fastlive_core::NullnessArtifact`'s sparse def-use propagation: it
//! re-evaluates *every* reachable block in index order, round after
//! round, until nothing changes. Reachability comes from a plain BFS
//! (no dominator tree anywhere), and definite initialization is the
//! textbook must-analysis — intersection of predecessor out-sets —
//! rather than a dominance query. Because both solvers compute least
//! (respectively greatest) fixpoints of the same monotone equations,
//! their answers must agree bit-for-bit; the differential suites hold
//! the facade's session backend, cached and cache-less, to this
//! referee. Unreachable blocks follow the workspace's unreachable-code
//! rule (`fastlive_core`'s crate docs): they are never relaxed, hold no
//! definitely-initialized value, and φ joins skip their arguments.

use fastlive_bitset::DenseBitSet;
use fastlive_core::Nullness;
use fastlive_graph::Cfg;
use fastlive_ir::{BinaryOp, Block, Function, InstData, UnaryOp, Value};

/// Four-point working lattice; `Unknown` is the dense solver's bottom
/// ("no evidence yet"), reported as [`Nullness::Maybe`] once solved.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum V {
    Unknown,
    Zero,
    NonZero,
    Any,
}

impl V {
    fn merge(self, other: V) -> V {
        match (self, other) {
            (V::Unknown, x) | (x, V::Unknown) => x,
            (a, b) if a == b => a,
            _ => V::Any,
        }
    }

    fn public(self) -> Nullness {
        match self {
            V::Zero => Nullness::Null,
            V::NonZero => Nullness::NonNull,
            V::Unknown | V::Any => Nullness::Maybe,
        }
    }
}

/// The solved facts of one function: per-value nullness plus per-block
/// "definitely initialized at entry" sets.
#[derive(Clone, Debug)]
pub struct IterativeNullness {
    facts: Vec<Nullness>,
    init_in: Vec<DenseBitSet>,
    reachable: Vec<bool>,
    rounds: u32,
}

impl IterativeNullness {
    /// Solves both analyses for `func` by chaotic iteration.
    pub fn compute(func: &Function) -> Self {
        let nb = func.num_blocks();
        let nv = func.num_values();

        // Reachability by BFS over the block graph.
        let mut reachable = vec![false; nb];
        let mut queue = vec![func.entry_block().as_u32()];
        reachable[func.entry_block().index()] = true;
        while let Some(b) = queue.pop() {
            for &s in func.succs(b) {
                if !reachable[s as usize] {
                    reachable[s as usize] = true;
                    queue.push(s);
                }
            }
        }

        let mut vals = vec![V::Unknown; nv];
        let mut rounds = 0u32;

        // Nullness: full re-evaluation sweeps until a fixpoint.
        loop {
            rounds += 1;
            let mut changed = false;
            for bi in 0..nb {
                if !reachable[bi] {
                    continue;
                }
                let b = Block::from_index(bi);
                for (pi, &p) in func.block_params(b).iter().enumerate() {
                    let next = if b == func.entry_block() {
                        V::Any
                    } else {
                        incoming(func, &reachable, &vals, b, pi)
                    };
                    if next != vals[p.index()] {
                        vals[p.index()] = next;
                        changed = true;
                    }
                }
                for &inst in func.block_insts(b) {
                    let Some(r) = func.inst_result(inst) else {
                        continue;
                    };
                    let next = eval_inst(func.inst_data(inst), &vals);
                    if next != vals[r.index()] {
                        vals[r.index()] = next;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Definite initialization: greatest fixpoint of
        //   In(entry) = params(entry)
        //   In(b)     = params(b) ∪ ⋂ { Out(p) : p reachable pred }
        //   Out(b)    = In(b) ∪ { instruction results of b }
        // over reachable blocks, starting from the full set.
        let full = DenseBitSet::from_elems(nv, 0..nv as u32);
        let mut init_in: Vec<DenseBitSet> = (0..nb)
            .map(|bi| {
                if !reachable[bi] {
                    DenseBitSet::new(nv)
                } else if bi == func.entry_block().index() {
                    DenseBitSet::from_elems(nv, func.params().iter().map(|v| v.index() as u32))
                } else {
                    full.clone()
                }
            })
            .collect();
        let mut init_out: Vec<DenseBitSet> = init_in
            .iter()
            .enumerate()
            .map(|(bi, set)| {
                let mut out = set.clone();
                if reachable[bi] {
                    for &inst in func.block_insts(Block::from_index(bi)) {
                        if let Some(r) = func.inst_result(inst) {
                            out.insert(r.index() as u32);
                        }
                    }
                }
                out
            })
            .collect();

        loop {
            rounds += 1;
            let mut changed = false;
            for bi in 0..nb {
                if !reachable[bi] || bi == func.entry_block().index() {
                    continue;
                }
                let b = Block::from_index(bi);
                let mut inset = full.clone();
                let mut have_pred = false;
                for &p in func.preds(b.as_u32()) {
                    if reachable[p as usize] {
                        inset.intersect_with(&init_out[p as usize]);
                        have_pred = true;
                    }
                }
                if !have_pred {
                    inset = DenseBitSet::new(nv);
                }
                for &v in func.block_params(b) {
                    inset.insert(v.index() as u32);
                }
                if inset != init_in[bi] {
                    init_in[bi] = inset.clone();
                    for &inst in func.block_insts(b) {
                        if let Some(r) = func.inst_result(inst) {
                            inset.insert(r.index() as u32);
                        }
                    }
                    init_out[bi] = inset;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        IterativeNullness {
            facts: vals.into_iter().map(V::public).collect(),
            init_in,
            reachable,
            rounds,
        }
    }

    /// The three-valued verdict for `v`.
    pub fn fact(&self, v: Value) -> Nullness {
        self.facts[v.index()]
    }

    /// `true` when `v`'s definition has executed on every path from
    /// entry to the entry of `q`.
    pub fn definitely_initialized_at_entry(&self, v: Value, q: Block) -> bool {
        self.reachable[q.index()] && self.init_in[q.index()].contains(v.index() as u32)
    }

    /// Number of full sweeps both fixpoints took (a test diagnostic).
    pub fn rounds(&self) -> u32 {
        self.rounds
    }
}

/// Joins the facts of every branch argument feeding parameter `pi` of
/// block `b` from reachable predecessors.
fn incoming(func: &Function, reachable: &[bool], vals: &[V], b: Block, pi: usize) -> V {
    let mut acc = V::Unknown;
    for &p in func.preds(b.as_u32()) {
        if !reachable[p as usize] {
            continue;
        }
        let pb = Block::from_index(p as usize);
        let Some(term) = func.terminator(pb) else {
            continue;
        };
        for call in func.inst_data(term).branch_targets() {
            if call.block == b {
                acc = acc.merge(vals[call.args[pi].index()]);
            }
        }
    }
    acc
}

/// The dense solver's transfer function — organized as a value-range
/// case analysis rather than the core solver's per-op tables, but
/// encoding the same total wrapping semantics ([`BinaryOp::eval`]):
/// `sdiv` by zero is 0, `srem` by zero is the dividend, products and
/// sums wrap.
fn eval_inst(data: &InstData, vals: &[V]) -> V {
    match data {
        InstData::IntConst { imm } => {
            if *imm == 0 {
                V::Zero
            } else {
                V::NonZero
            }
        }
        InstData::Unary { op, arg } => {
            let a = vals[arg.index()];
            match (op, a) {
                (_, V::Unknown) => V::Unknown,
                (UnaryOp::Copy | UnaryOp::Ineg, x) => x,
                (UnaryOp::Bnot, V::Zero) => V::NonZero,
                (UnaryOp::Bnot, _) => V::Any,
            }
        }
        InstData::Binary { op, args } => {
            let (a, b) = (vals[args[0].index()], vals[args[1].index()]);
            let same = args[0] == args[1];
            // Reflexive comparisons are compile-time constants whatever
            // the operand holds.
            if same {
                match op {
                    BinaryOp::IcmpEq | BinaryOp::IcmpSle => return V::NonZero,
                    BinaryOp::IcmpNe | BinaryOp::IcmpSlt => return V::Zero,
                    _ => {}
                }
            }
            if a == V::Unknown || b == V::Unknown {
                return V::Unknown;
            }
            let both_zero = a == V::Zero && b == V::Zero;
            let one_zero = (a == V::Zero) ^ (b == V::Zero);
            match op {
                BinaryOp::Iadd | BinaryOp::Isub => {
                    if both_zero {
                        V::Zero
                    } else if one_zero && (a == V::NonZero || b == V::NonZero) {
                        V::NonZero
                    } else {
                        V::Any
                    }
                }
                BinaryOp::Imul | BinaryOp::Sdiv | BinaryOp::Band => {
                    if a == V::Zero || b == V::Zero {
                        V::Zero
                    } else {
                        V::Any
                    }
                }
                BinaryOp::Srem => {
                    if a == V::Zero {
                        V::Zero
                    } else if b == V::Zero {
                        a
                    } else {
                        V::Any
                    }
                }
                BinaryOp::Bor => {
                    if a == V::NonZero || b == V::NonZero {
                        V::NonZero
                    } else if a == V::Zero {
                        b
                    } else if b == V::Zero {
                        a
                    } else {
                        V::Any
                    }
                }
                BinaryOp::Bxor => {
                    if a == V::Zero {
                        b
                    } else if b == V::Zero {
                        a
                    } else {
                        V::Any
                    }
                }
                BinaryOp::IcmpEq => {
                    if both_zero {
                        V::NonZero
                    } else if one_zero && (a == V::NonZero || b == V::NonZero) {
                        V::Zero
                    } else {
                        V::Any
                    }
                }
                BinaryOp::IcmpNe => {
                    if both_zero {
                        V::Zero
                    } else if one_zero && (a == V::NonZero || b == V::NonZero) {
                        V::NonZero
                    } else {
                        V::Any
                    }
                }
                BinaryOp::IcmpSlt => {
                    if both_zero {
                        V::Zero
                    } else {
                        V::Any
                    }
                }
                BinaryOp::IcmpSle => {
                    if both_zero {
                        V::NonZero
                    } else {
                        V::Any
                    }
                }
            }
        }
        InstData::Jump { .. } | InstData::Brif { .. } | InstData::Return { .. } => V::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_core::NullnessArtifact;
    use fastlive_workload::{generate_module, ModuleParams};

    /// The property everything else rests on: dense referee == sparse
    /// solver, for every value and every (value, block) init query, on
    /// generated workloads.
    #[test]
    fn agrees_with_the_sparse_solver_on_generated_modules() {
        for seed in 0..12 {
            let module = generate_module(
                "nl",
                ModuleParams {
                    functions: 3,
                    min_blocks: 3,
                    max_blocks: 18,
                    ..ModuleParams::default()
                },
                seed,
            );
            for f in module.functions() {
                let dense = IterativeNullness::compute(f);
                let art = NullnessArtifact::compute(f);
                let sparse = art.solve(f);
                for v in f.values() {
                    assert_eq!(
                        dense.fact(v),
                        sparse.of(v),
                        "nullness divergence on seed {seed}, {} {v}",
                        f.name
                    );
                    for b in f.blocks() {
                        assert_eq!(
                            dense.definitely_initialized_at_entry(v, b),
                            art.definitely_initialized_at_entry(f, v, b),
                            "init divergence on seed {seed}, {} {v} at {b}",
                            f.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn loop_header_defs_are_not_initialized_at_their_own_entry() {
        // h defines s inside the loop and passes it around the back
        // edge: s is in Out of the back-edge predecessor, but the
        // first entry into h has not executed it — the intersection
        // must exclude it.
        let mut f = fastlive_ir::Function::new("t");
        let b0 = f.add_block();
        let p = f.append_block_param(b0);
        let bh = f.add_block();
        let i = f.append_block_param(bh);
        let bx = f.add_block();
        let one = f.ins(b0).iconst(1);
        f.ins(b0).jump(bh, vec![one]);
        let s = f.ins(bh).iadd(i, one);
        f.ins(bh).brif(p, bh, vec![s], bx, vec![]);
        f.ins(bx).ret(vec![s]);

        let dense = IterativeNullness::compute(&f);
        assert!(!dense.definitely_initialized_at_entry(s, bh));
        assert!(dense.definitely_initialized_at_entry(i, bh));
        assert!(dense.definitely_initialized_at_entry(s, bx));

        let art = NullnessArtifact::compute(&f);
        assert!(!art.definitely_initialized_at_entry(&f, s, bh));
        assert!(art.definitely_initialized_at_entry(&f, i, bh));
        assert!(art.definitely_initialized_at_entry(&f, s, bx));
    }
}
