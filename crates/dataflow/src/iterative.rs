use fastlive_bitset::DenseBitSet;
use fastlive_cfg::DfsTree;
use fastlive_graph::Cfg as _;
use fastlive_ir::{Block, Function, Value};

use crate::universe::VarUniverse;

/// Classic iterative data-flow liveness with a stack worklist.
///
/// Solves the backward equations
///
/// ```text
/// live_out(b) = ⋃_{s ∈ succ(b)} live_in(s)
/// live_in(b)  = gen(b) ∪ (live_out(b) \ kill(b))
/// ```
///
/// with `gen(b)` the upward-exposed uses (Definition-1 uses of
/// variables not defined in `b` — under strict SSA every same-block use
/// follows its definition) and `kill(b)` the definitions. The worklist
/// is a plain stack seeded so that blocks pop in CFG postorder, which
/// Cooper, Harvey & Kennedy report as the effective order for liveness;
/// when a block's `live_in` changes its reachable predecessors are
/// pushed. Blocks the entry cannot reach are never relaxed, so they
/// follow the workspace's unreachable-code rule (see the
/// `fastlive_core` crate docs): their sets stay empty and their uses
/// and φ arguments keep nothing live.
///
/// This is the "conventional data-flow approach" of the paper's
/// abstract: fast sets, but the results die with the first program
/// edit.
///
/// # Examples
///
/// ```
/// use fastlive_dataflow::{IterativeLiveness, VarUniverse};
/// use fastlive_ir::parse_function;
///
/// let f = parse_function(
///     "function %f { block0(v0):
///          jump block1
///      block1:
///          return v0 }",
/// )?;
/// let u = VarUniverse::all(&f);
/// let live = IterativeLiveness::compute(&f, &u);
/// let v0 = f.params()[0];
/// let b1 = f.block_by_index(1);
/// assert!(live.is_live_in(v0, b1));
/// assert!(live.is_live_out(v0, f.entry_block()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct IterativeLiveness {
    live_in: Vec<DenseBitSet>,
    live_out: Vec<DenseBitSet>,
    universe: VarUniverse,
    /// Number of block relaxations until the fixpoint (solver statistic;
    /// the paper notes LAO's runtime is bounded by set insertions, not
    /// iterations).
    pub relaxations: usize,
}

impl IterativeLiveness {
    /// Solves the equations for all variables in `universe`.
    pub fn compute(func: &Function, universe: &VarUniverse) -> Self {
        let n_blocks = func.num_blocks();
        let n_vars = universe.len();

        // gen/kill per block.
        let mut gen: Vec<DenseBitSet> = (0..n_blocks).map(|_| DenseBitSet::new(n_vars)).collect();
        let mut kill: Vec<DenseBitSet> = (0..n_blocks).map(|_| DenseBitSet::new(n_vars)).collect();
        for b in func.blocks() {
            let bi = b.index();
            for &p in func.block_params(b) {
                if let Some(i) = universe.index_of(p) {
                    kill[bi].insert(i);
                }
            }
            for &inst in func.block_insts(b) {
                if let Some(r) = func.inst_result(inst) {
                    if let Some(i) = universe.index_of(r) {
                        kill[bi].insert(i);
                    }
                }
                func.inst_data(inst).for_each_operand(|v| {
                    if let Some(i) = universe.index_of(v) {
                        if func.def_block(v) != b {
                            gen[bi].insert(i);
                        }
                    }
                });
            }
        }

        let mut live_in: Vec<DenseBitSet> =
            (0..n_blocks).map(|_| DenseBitSet::new(n_vars)).collect();
        let mut live_out: Vec<DenseBitSet> =
            (0..n_blocks).map(|_| DenseBitSet::new(n_vars)).collect();

        // Stack worklist; seed in reverse postorder so pops happen in
        // postorder (successors first — the natural order for a
        // backward problem).
        let dfs = DfsTree::compute(func);
        let mut stack: Vec<u32> = dfs.reverse_postorder().collect();
        let mut on_stack = vec![false; n_blocks];
        for &b in &stack {
            on_stack[b as usize] = true;
        }

        let mut relaxations = 0usize;
        let mut scratch = DenseBitSet::new(n_vars);
        while let Some(b) = stack.pop() {
            on_stack[b as usize] = false;
            relaxations += 1;
            // live_out(b) = union of successors' live_in.
            scratch.clear();
            for &s in func.succs(b) {
                scratch.union_with(&live_in[s as usize]);
            }
            live_out[b as usize] = scratch.clone();
            // live_in(b) = gen ∪ (out \ kill).
            scratch.difference_with(&kill[b as usize]);
            scratch.union_with(&gen[b as usize]);
            if scratch != live_in[b as usize] {
                std::mem::swap(&mut live_in[b as usize], &mut scratch);
                for &p in func.preds(b) {
                    if dfs.is_reachable(p) && !on_stack[p as usize] {
                        on_stack[p as usize] = true;
                        stack.push(p);
                    }
                }
            }
        }

        IterativeLiveness {
            live_in,
            live_out,
            universe: universe.clone(),
            relaxations,
        }
    }

    /// Is `v` live-in at `b`? Untracked variables report `false`.
    pub fn is_live_in(&self, v: Value, b: Block) -> bool {
        self.universe
            .index_of(v)
            .is_some_and(|i| self.live_in[b.index()].contains(i))
    }

    /// Is `v` live-out at `b`? Untracked variables report `false`.
    pub fn is_live_out(&self, v: Value, b: Block) -> bool {
        self.universe
            .index_of(v)
            .is_some_and(|i| self.live_out[b.index()].contains(i))
    }

    /// The live-in set of `b` as values.
    pub fn live_in_set(&self, b: Block) -> Vec<Value> {
        self.live_in[b.index()]
            .iter()
            .map(|i| self.universe.value_at(i))
            .collect()
    }

    /// The live-out set of `b` as values.
    pub fn live_out_set(&self, b: Block) -> Vec<Value> {
        self.live_out[b.index()]
            .iter()
            .map(|i| self.universe.value_at(i))
            .collect()
    }

    /// Average number of live-in variables per block — the "fill ratio"
    /// §6.2 reports (3.16 φ-only / 18.52 full on SPEC2000).
    pub fn average_fill(&self) -> f64 {
        if self.live_in.is_empty() {
            return 0.0;
        }
        let total: usize = self.live_in.iter().map(DenseBitSet::len).sum();
        total as f64 / self.live_in.len() as f64
    }

    /// The universe the solver ran over.
    pub fn universe(&self) -> &VarUniverse {
        &self.universe
    }
}

/// The iterative solver behind the workspace-wide query interface.
/// Block answers are O(1) bit probes over the solved sets; point
/// queries use the trait's default decomposition over the current
/// def-use chains. Values outside the solver's universe report dead —
/// compute over [`VarUniverse::all`] when every value must be
/// answerable.
impl fastlive_core::LivenessProvider for IterativeLiveness {
    fn live_in(&mut self, _func: &Function, v: Value, b: Block) -> bool {
        IterativeLiveness::is_live_in(self, v, b)
    }
    fn live_out(&mut self, _func: &Function, v: Value, b: Block) -> bool {
        IterativeLiveness::is_live_out(self, v, b)
    }
    fn name(&self) -> &'static str {
        "bitvector data-flow"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_ir::parse_function;

    fn loop_func() -> Function {
        parse_function(
            "function %loop { block0(v0):
                v1 = iconst 0
                jump block1(v1)
            block1(v2):
                v3 = iconst 1
                v4 = iadd v2, v3
                v5 = icmp_slt v4, v0
                brif v5, block1(v4), block2
            block2:
                return v4 }",
        )
        .unwrap()
    }

    #[test]
    fn loop_bound_live_through_loop() {
        let f = loop_func();
        let live = IterativeLiveness::compute(&f, &VarUniverse::all(&f));
        let v0 = f.params()[0];
        let b0 = f.entry_block();
        let b1 = f.block_by_index(1);
        let b2 = f.block_by_index(2);
        assert!(!live.is_live_in(v0, b0));
        assert!(live.is_live_out(v0, b0));
        assert!(live.is_live_in(v0, b1));
        assert!(live.is_live_out(v0, b1));
        assert!(!live.is_live_in(v0, b2));
        assert!(live.relaxations >= 3);
    }

    #[test]
    fn phi_convention_matches_definition1() {
        let f = loop_func();
        let live = IterativeLiveness::compute(&f, &VarUniverse::all(&f));
        let b0 = f.entry_block();
        let b1 = f.block_by_index(1);
        // v1 is a φ-arg defined and used (by the jump) in block0: not
        // upward exposed, not live-in at block1 either.
        let v1 = f.value("v1").unwrap();
        assert!(!live.is_live_out(v1, b0));
        assert!(!live.is_live_in(v1, b1));
        // v4 is a φ-arg on the back edge: used at block1 where it is
        // also defined => not live-in at block1; live-out there only
        // because block2 returns it... no: live_out(b1) = live_in(b1) ∪
        // live_in(b2); v4 ∈ gen(block2) => live-out at block1.
        let v4 = f.value("v4").unwrap();
        assert!(!live.is_live_in(v4, b1));
        assert!(live.is_live_out(v4, b1));
        // v2 (the φ result) is killed at block1 and used there only.
        let v2 = f.value("v2").unwrap();
        assert!(!live.is_live_in(v2, b1));
        assert!(!live.is_live_out(v2, b1));
    }

    #[test]
    fn restricted_universe_ignores_other_vars() {
        let f = loop_func();
        let phi = VarUniverse::phi_related(&f);
        let live = IterativeLiveness::compute(&f, &phi);
        let v0 = f.params()[0]; // not φ-related
        let b1 = f.block_by_index(1);
        assert!(!live.is_live_in(v0, b1)); // untracked => false
        let v4 = f.value("v4").unwrap();
        assert!(live.is_live_out(v4, b1));
        assert!(live.average_fill() <= 2.0);
    }

    #[test]
    fn live_sets_round_trip() {
        let f = loop_func();
        let live = IterativeLiveness::compute(&f, &VarUniverse::all(&f));
        let b1 = f.block_by_index(1);
        let set = live.live_in_set(b1);
        for v in &set {
            assert!(live.is_live_in(*v, b1));
        }
        assert!(set.contains(&f.params()[0]));
    }

    #[test]
    fn diamond_branches_merge() {
        let f = parse_function(
            "function %d { block0(v0, v1):
                brif v0, block1, block2
            block1:
                v2 = ineg v1
                jump block3(v2)
            block2:
                v3 = bnot v1
                jump block3(v3)
            block3(v4):
                return v4 }",
        )
        .unwrap();
        let live = IterativeLiveness::compute(&f, &VarUniverse::all(&f));
        let v1 = f.value("v1").unwrap();
        let b1 = f.block_by_index(1);
        let b2 = f.block_by_index(2);
        let b3 = f.block_by_index(3);
        assert!(live.is_live_in(v1, b1));
        assert!(live.is_live_in(v1, b2));
        assert!(!live.is_live_in(v1, b3));
        assert!(live.is_live_out(v1, f.entry_block()));
        let v2 = f.value("v2").unwrap();
        assert!(!live.is_live_in(v2, b3)); // φ-arg consumed on the edge
    }
}
