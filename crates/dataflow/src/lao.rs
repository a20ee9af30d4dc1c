use fastlive_bitset::{SortedSet, SparseSet};
use fastlive_cfg::DfsTree;
use fastlive_graph::Cfg as _;
use fastlive_ir::{Block, Function, Value};

use crate::universe::VarUniverse;

/// A faithful reimplementation of the liveness analysis of the LAO code
/// generator, as described in §6.2 of the paper — the "Native" column
/// of Table 2.
///
/// The distinguishing features, quoting the paper:
///
/// 1. *"the universe of the variables to consider is collected in a
///    table prior to liveness analysis ... variables are assigned dense
///    indices"* — [`VarUniverse`];
/// 2. *"the local liveness analysis is performed using the sparse sets
///    of Briggs & Torczon"* — per-block `gen`/`kill` computed with a
///    [`SparseSet`] scratch;
/// 3. *"the global liveness analysis relies on sets represented as
///    sorted dense arrays ... testing set membership only requires a
///    binary search"* — per-block live-in/live-out stored as
///    [`SortedSet`]s, queried via binary search;
/// 4. the solver is *"a classic iterative solver whose worklist is a
///    stack"*;
/// 5. for SSA destruction, *"non-φ-related variables [are ignored]
///    completely"* — pass [`VarUniverse::phi_related`].
///
/// Like the paper's setting, the input must have every block reachable
/// from the entry: the solver relaxes unreachable predecessors too, so
/// on an orphaned block it would not follow the workspace's
/// unreachable-code rule (`fastlive_core`'s crate docs).
///
/// # Examples
///
/// ```
/// use fastlive_dataflow::{LaoLiveness, VarUniverse};
/// use fastlive_ir::parse_function;
///
/// let f = parse_function(
///     "function %f { block0(v0): jump block1  block1: return v0 }",
/// )?;
/// let live = LaoLiveness::compute(&f, &VarUniverse::all(&f));
/// let v0 = f.params()[0];
/// assert!(live.is_live_in(v0, f.block_by_index(1)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct LaoLiveness {
    live_in: Vec<SortedSet>,
    live_out: Vec<SortedSet>,
    universe: VarUniverse,
    /// Block relaxations until the fixpoint.
    pub relaxations: usize,
    /// Total set insertions performed — §6.2 observes LAO's runtime
    /// "is basically bounded by the number of set insertions".
    pub set_insertions: usize,
}

impl LaoLiveness {
    /// Runs the solver over the given universe.
    pub fn compute(func: &Function, universe: &VarUniverse) -> Self {
        let n_blocks = func.num_blocks();
        let n_vars = universe.len();
        let mut set_insertions = 0usize;

        // Local analysis with a Briggs–Torczon sparse set tracking the
        // variables defined so far in the block.
        let mut gen: Vec<SortedSet> = Vec::with_capacity(n_blocks);
        let mut kill: Vec<SortedSet> = Vec::with_capacity(n_blocks);
        let mut defined = SparseSet::new(n_vars);
        let mut upward = SparseSet::new(n_vars);
        for b in func.blocks() {
            defined.clear();
            upward.clear();
            for &p in func.block_params(b) {
                if let Some(i) = universe.index_of(p) {
                    defined.insert(i);
                }
            }
            for &inst in func.block_insts(b) {
                func.inst_data(inst).for_each_operand(|v| {
                    if let Some(i) = universe.index_of(v) {
                        if !defined.contains(i) {
                            upward.insert(i);
                        }
                    }
                });
                if let Some(r) = func.inst_result(inst) {
                    if let Some(i) = universe.index_of(r) {
                        defined.insert(i);
                    }
                }
            }
            gen.push(SortedSet::from_unsorted(upward.iter().collect()));
            kill.push(SortedSet::from_unsorted(defined.iter().collect()));
        }

        let mut live_in: Vec<SortedSet> = vec![SortedSet::new(); n_blocks];
        let mut live_out: Vec<SortedSet> = vec![SortedSet::new(); n_blocks];

        // Global fixpoint: stack worklist, sorted-array sets.
        let dfs = DfsTree::compute(func);
        let mut stack: Vec<u32> = dfs.reverse_postorder().collect();
        let mut on_stack = vec![false; n_blocks];
        for &b in &stack {
            on_stack[b as usize] = true;
        }
        let mut relaxations = 0usize;
        let mut scratch = SparseSet::new(n_vars);
        while let Some(b) = stack.pop() {
            on_stack[b as usize] = false;
            relaxations += 1;
            scratch.clear();
            for &s in func.succs(b) {
                for i in live_in[s as usize].iter() {
                    if scratch.insert(i) {
                        set_insertions += 1;
                    }
                }
            }
            let out = SortedSet::from_unsorted(scratch.iter().collect());
            // in = gen ∪ (out \ kill)
            let mut inn = gen[b as usize].clone();
            for i in out.iter() {
                if !kill[b as usize].contains(i) && inn.insert(i) {
                    set_insertions += 1;
                }
            }
            live_out[b as usize] = out;
            if inn != live_in[b as usize] {
                live_in[b as usize] = inn;
                for &p in func.preds(b) {
                    if !on_stack[p as usize] {
                        on_stack[p as usize] = true;
                        stack.push(p);
                    }
                }
            }
        }

        LaoLiveness {
            live_in,
            live_out,
            universe: universe.clone(),
            relaxations,
            set_insertions,
        }
    }

    /// Binary-search membership query (the "Native" query of Table 2).
    /// Untracked variables report `false`.
    pub fn is_live_in(&self, v: Value, b: Block) -> bool {
        self.universe
            .index_of(v)
            .is_some_and(|i| self.live_in[b.index()].contains(i))
    }

    /// Binary-search membership in the live-out array.
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

    /// Average live-in cardinality (the §6.2 "fill ratio").
    pub fn average_fill(&self) -> f64 {
        if self.live_in.is_empty() {
            return 0.0;
        }
        let total: usize = self.live_in.iter().map(SortedSet::len).sum();
        total as f64 / self.live_in.len() as f64
    }

    /// Heap bytes of the stored live-in/live-out arrays, for the §6.1
    /// memory break-even comparison.
    pub fn set_heap_bytes(&self) -> usize {
        self.live_in
            .iter()
            .chain(&self.live_out)
            .map(SortedSet::heap_bytes)
            .sum()
    }

    /// Registers that a variable with universe index `i` became live-in
    /// at `b` (and live-out at the given predecessors): the incremental
    /// patch-up Sreedhar-style passes perform when they insert copies.
    /// This is what "keeping liveness up to date" costs with set-based
    /// liveness — the cost the paper's checker avoids entirely.
    pub fn add_live_in(&mut self, v: Value, b: Block, func: &Function) {
        let Some(i) = self.universe.index_of(v) else {
            return;
        };
        if self.live_in[b.index()].insert(i) {
            self.set_insertions += 1;
            for &p in func.preds(b.as_u32()) {
                if self.live_out[p as usize].insert(i) {
                    self.set_insertions += 1;
                }
            }
        }
    }

    /// The universe the solver ran over.
    pub fn universe(&self) -> &VarUniverse {
        &self.universe
    }
}

/// The LAO-style baseline behind the workspace-wide query interface:
/// binary-search membership for block queries, the default
/// decomposition for point queries. Values outside the universe (e.g.
/// non-φ-related values under [`VarUniverse::phi_related`]) report
/// dead; the destruction pass wraps this engine in a patching adapter
/// (`fastlive-destruct`'s `NativeEngine`) precisely because of that.
impl fastlive_core::LivenessProvider for LaoLiveness {
    fn live_in(&mut self, _func: &Function, v: Value, b: Block) -> bool {
        LaoLiveness::is_live_in(self, v, b)
    }
    fn live_out(&mut self, _func: &Function, v: Value, b: Block) -> bool {
        LaoLiveness::is_live_out(self, v, b)
    }
    fn name(&self) -> &'static str {
        "native (LAO-style)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterativeLiveness;
    use fastlive_ir::parse_function;

    fn funcs() -> Vec<Function> {
        [
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
            "function %straight { block0(v0):
                v1 = iadd v0, v0
                v2 = imul v1, v0
                return v2 }",
        ]
        .iter()
        .map(|s| parse_function(s).unwrap())
        .collect()
    }

    #[test]
    fn agrees_with_bitvector_solver_on_all_universes() {
        for f in funcs() {
            for universe in [VarUniverse::all(&f), VarUniverse::phi_related(&f)] {
                let lao = LaoLiveness::compute(&f, &universe);
                let bits = IterativeLiveness::compute(&f, &universe);
                for v in f.values() {
                    for b in f.blocks() {
                        assert_eq!(
                            lao.is_live_in(v, b),
                            bits.is_live_in(v, b),
                            "{}: live-in({v}, {b})",
                            f.name
                        );
                        assert_eq!(
                            lao.is_live_out(v, b),
                            bits.is_live_out(v, b),
                            "{}: live-out({v}, {b})",
                            f.name
                        );
                    }
                }
                assert!((lao.average_fill() - bits.average_fill()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sorted_sets_are_queried_by_binary_search() {
        let f = &funcs()[0];
        let lao = LaoLiveness::compute(f, &VarUniverse::all(f));
        let b1 = f.block_by_index(1);
        let set = lao.live_in_set(b1);
        assert!(set.contains(&f.params()[0]));
        assert!(lao.set_insertions > 0);
        assert!(lao.set_heap_bytes() > 0);
    }

    #[test]
    fn incremental_patch_up() {
        let f = &funcs()[0];
        let mut lao = LaoLiveness::compute(f, &VarUniverse::all(f));
        let v0 = f.params()[0];
        let b2 = f.block_by_index(2);
        assert!(!lao.is_live_in(v0, b2));
        lao.add_live_in(v0, b2, f);
        assert!(lao.is_live_in(v0, b2));
        let b1 = f.block_by_index(1);
        assert!(lao.is_live_out(v0, b1)); // predecessor updated
    }
}
