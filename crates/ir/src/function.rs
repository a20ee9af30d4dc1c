//! The [`Function`]: blocks, instructions, SSA values and their def-use
//! chains.

use fastlive_graph::{Cfg, NodeId};

use crate::entities::{Block, Inst, PrimaryMap, Value};
use crate::instr::InstData;
use crate::point::ProgramPoint;

/// Where an SSA value is defined.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ValueDef {
    /// The `index`-th parameter of `block` — the IR's φ-functions.
    /// Entry-block parameters are the function's parameters.
    Param {
        /// Owning block.
        block: Block,
        /// Position among the block's parameters.
        index: u32,
    },
    /// The result of an instruction.
    Inst(Inst),
}

/// Per-block storage: parameters and the instruction list.
#[derive(Clone, Debug)]
struct BlockData {
    params: Vec<Value>,
    insts: Vec<Inst>,
}

/// An SSA function over a single integer type, with maintained def-use
/// chains and predecessor/successor lists.
///
/// # Shape invariants
///
/// * The first created block is the entry; its parameters are the
///   function parameters.
/// * Every block ends with exactly one terminator (`jump`, `brif`,
///   `return`); appending past a terminator panics.
/// * φ-functions are *block parameters*: a branch to `blockN(a, b)`
///   passes `a, b` to `blockN`'s parameters. Per Definition 1 of the
///   paper, those branch arguments are uses *at the predecessor block* —
///   which is automatic here, because the branch instruction lives in the
///   predecessor.
/// * Def-use chains ([`Function::uses`]) are maintained by every mutator.
///   This is the cheap-to-maintain structure the paper's queries walk
///   ("updating the def-use chain when adding or removing uses of a
///   variable incurs virtually no costs").
///
/// # Examples
///
/// ```
/// use fastlive_ir::{Function, BinaryOp};
///
/// let mut f = Function::new("add1");
/// let b0 = f.add_block();
/// let x = f.append_block_param(b0);
/// let one = f.ins(b0).iconst(1);
/// let sum = f.ins(b0).iadd(x, one);
/// f.ins(b0).ret(vec![sum]);
/// assert_eq!(f.params(), &[x]);
/// assert_eq!(f.uses(x).len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Function {
    /// Symbolic name (printed as `function %name`).
    pub name: String,
    blocks: PrimaryMap<Block, BlockData>,
    insts: PrimaryMap<Inst, InstData>,
    /// Block owning each instruction; `None` after removal.
    inst_block: Vec<Option<Block>>,
    /// Result value of each instruction (terminators have none).
    results: Vec<Option<Value>>,
    values: PrimaryMap<Value, ValueDef>,
    /// Def-use chains: instructions using each value (with multiplicity).
    uses: Vec<Vec<Inst>>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    /// Bumped by every mutation that can change the CFG shape (blocks
    /// or edges); see [`Function::cfg_version`].
    cfg_version: u64,
}

impl Function {
    /// Creates an empty function. Add an entry block before anything else.
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            blocks: PrimaryMap::new(),
            insts: PrimaryMap::new(),
            inst_block: Vec::new(),
            results: Vec::new(),
            values: PrimaryMap::new(),
            uses: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            cfg_version: 0,
        }
    }

    /// A monotone counter of CFG-shape mutations: incremented by
    /// [`add_block`](Self::add_block), by inserting a terminator, and
    /// by [`redirect_branch_target`](Self::redirect_branch_target) —
    /// every mutator that can add blocks or change the edge relation.
    /// Instruction-level edits (non-terminator inserts/removals, use
    /// replacement, branch-*argument* changes) leave it untouched.
    ///
    /// This is the O(1) staleness signal for consumers that cache
    /// CFG-dependent analyses (the paper's precomputation): equal
    /// version on the same `Function` object ⇒ the CFG has not changed
    /// since.
    pub fn cfg_version(&self) -> u64 {
        self.cfg_version
    }

    // ---------------------------------------------------------- blocks

    /// Appends a new empty block. The first block becomes the entry.
    pub fn add_block(&mut self) -> Block {
        self.add_block_with_capacity(0, 0)
    }

    /// (parser support) [`add_block`](Self::add_block) with room for
    /// `params` parameters and `insts` instructions.
    pub(crate) fn add_block_with_capacity(&mut self, params: usize, insts: usize) -> Block {
        self.cfg_version += 1;
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.blocks.push(BlockData {
            params: Vec::with_capacity(params),
            insts: Vec::with_capacity(insts),
        })
    }

    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been created yet.
    pub fn entry_block(&self) -> Block {
        assert!(!self.blocks.is_empty(), "function has no blocks");
        Block::from_index(0)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates all blocks in creation (layout) order.
    pub fn blocks(&self) -> impl Iterator<Item = Block> + use<> {
        (0..self.blocks.len()).map(Block::from_index)
    }

    /// The `i`-th created block (`block_by_index(0)` is the entry).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_blocks()`.
    pub fn block_by_index(&self, i: usize) -> Block {
        assert!(i < self.blocks.len(), "block index {i} out of range");
        Block::from_index(i)
    }

    /// Looks up a value by its printed name `vN` (the `N`-th created
    /// value). This matches the textual name whenever the source numbers
    /// values densely in definition order — which the printer always
    /// produces and all in-tree test sources follow.
    ///
    /// Returns `None` for malformed names or out-of-range indices.
    pub fn value(&self, name: &str) -> Option<Value> {
        let i: usize = name.strip_prefix('v')?.parse().ok()?;
        (i < self.values.len()).then(|| Value::from_index(i))
    }

    /// Looks up a block by its printed name `blockN` (the `N`-th
    /// created block) — the companion of [`value`](Self::value), used
    /// by the `fastlive` facade's name-addressed queries.
    ///
    /// Returns `None` for malformed names or out-of-range indices.
    pub fn block(&self, name: &str) -> Option<Block> {
        let i: usize = name.strip_prefix("block")?.parse().ok()?;
        (i < self.blocks.len()).then(|| Block::from_index(i))
    }

    /// Appends a parameter to `block` and returns the new value.
    pub fn append_block_param(&mut self, block: Block) -> Value {
        let index = self.blocks[block].params.len() as u32;
        let v = self.values.push(ValueDef::Param { block, index });
        self.uses.push(Vec::new());
        self.blocks[block].params.push(v);
        v
    }

    /// (parser support) Pre-sizes the function for `blocks` more blocks
    /// and `insts` more instructions, and reserves `values` unbound
    /// value slots, so a source with textual forward references can
    /// have every definition's entity allocated — in textual definition
    /// order — before any use is appended. Each slot holds a
    /// placeholder `ValueDef` until bound by
    /// [`bind_block_param`](Self::bind_block_param) or
    /// [`append_inst_bound`](Self::append_inst_bound); the parser binds
    /// every slot before a function is returned to a caller.
    pub(crate) fn reserve(&mut self, blocks: usize, values: usize, insts: usize) {
        self.blocks.reserve(blocks);
        self.succs.reserve(blocks);
        self.preds.reserve(blocks);
        self.insts.reserve(insts);
        self.inst_block.reserve(insts);
        self.results.reserve(insts);
        self.values.reserve(values);
        for _ in 0..values {
            self.values.push(ValueDef::Param {
                block: Block::from_index(0),
                index: u32::MAX,
            });
        }
        self.uses.resize_with(self.uses.len() + values, Vec::new);
    }

    /// (parser support) Binds reserved slot `v` as the next parameter
    /// of `block`, the slot-reusing twin of
    /// [`append_block_param`](Self::append_block_param).
    pub(crate) fn bind_block_param(&mut self, block: Block, v: Value) {
        let index = self.blocks[block].params.len() as u32;
        self.values[v] = ValueDef::Param { block, index };
        self.blocks[block].params.push(v);
    }

    /// (parser support) Appends `data` like
    /// [`append_inst`](Self::append_inst), binding its result to the
    /// reserved slot `result` instead of allocating a fresh value.
    pub(crate) fn append_inst_bound(
        &mut self,
        block: Block,
        data: InstData,
        result: Value,
    ) -> Inst {
        debug_assert!(data.has_result(), "bound append requires a result op");
        let pos = self.blocks[block].insts.len();
        self.insert_inst_impl(block, pos, data, Some(result))
    }

    /// The parameters of `block`.
    pub fn block_params(&self, block: Block) -> &[Value] {
        &self.blocks[block].params
    }

    /// The function parameters (= entry block parameters).
    pub fn params(&self) -> &[Value] {
        self.block_params(self.entry_block())
    }

    /// The instructions of `block` in order.
    pub fn block_insts(&self, block: Block) -> &[Inst] {
        &self.blocks[block].insts
    }

    /// The terminator of `block`, if the block is complete.
    pub fn terminator(&self, block: Block) -> Option<Inst> {
        let last = *self.blocks[block].insts.last()?;
        self.insts[last].is_terminator().then_some(last)
    }

    /// `true` once `block` ends in a terminator.
    pub fn is_terminated(&self, block: Block) -> bool {
        self.terminator(block).is_some()
    }

    // ------------------------------------------------------ instructions

    /// Appends an instruction to `block`, maintaining def-use chains and
    /// (for terminators) the CFG edges. Returns the instruction; its
    /// result value, if any, is available via [`Function::inst_result`].
    ///
    /// Prefer the [`ins`](Function::ins) builder for readable call sites.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already terminated or an operand value does
    /// not exist.
    pub fn append_inst(&mut self, block: Block, data: InstData) -> Inst {
        let pos = self.blocks[block].insts.len();
        self.insert_inst(block, pos, data)
    }

    /// Inserts an instruction at position `pos` of `block` (0 = first).
    /// Only terminators may occupy the final position of a terminated
    /// block's layout; inserting a terminator into a terminated block or
    /// a non-terminator after the terminator panics.
    ///
    /// # Panics
    ///
    /// See above; also panics on out-of-range `pos` or unknown operands.
    pub fn insert_inst(&mut self, block: Block, pos: usize, data: InstData) -> Inst {
        self.insert_inst_impl(block, pos, data, None)
    }

    fn insert_inst_impl(
        &mut self,
        block: Block,
        pos: usize,
        data: InstData,
        bound_result: Option<Value>,
    ) -> Inst {
        let n_insts = self.blocks[block].insts.len();
        assert!(pos <= n_insts, "insert position {pos} out of range");
        if data.is_terminator() {
            assert!(
                pos == n_insts && !self.is_terminated(block),
                "{block} already has a terminator"
            );
        } else {
            let limit = if self.is_terminated(block) {
                n_insts - 1
            } else {
                n_insts
            };
            assert!(
                pos <= limit,
                "cannot insert instruction after the terminator of {block}"
            );
        }
        data.for_each_operand(|v| {
            assert!(v.index() < self.values.len(), "operand {v} does not exist");
        });

        let inst = self.insts.push(data);
        self.inst_block.push(Some(block));
        // Register uses.
        let uses = &mut self.uses;
        self.insts[inst].for_each_operand(|v| uses[v.index()].push(inst));
        // Result value: a fresh entity, or — on the parser's
        // forward-reference path — a pre-reserved slot bound here.
        let result = if self.insts[inst].has_result() {
            Some(match bound_result {
                Some(v) => {
                    self.values[v] = ValueDef::Inst(inst);
                    v
                }
                None => {
                    let v = self.values.push(ValueDef::Inst(inst));
                    self.uses.push(Vec::new());
                    v
                }
            })
        } else {
            None
        };
        self.results.push(result);
        // CFG edges.
        if self.insts[inst].is_terminator() {
            self.cfg_version += 1;
            for t in self.insts[inst].branch_targets() {
                let dest = t.block;
                assert!(dest.index() < self.blocks.len(), "branch to unknown {dest}");
            }
            for t in self.insts[inst].branch_targets() {
                self.succs[block.index()].push(t.block.as_u32());
                self.preds[t.block.index()].push(block.as_u32());
            }
        }
        self.blocks[block].insts.insert(pos, inst);
        inst
    }

    /// Removes a non-terminator instruction whose result is unused.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is a terminator, already removed, or its
    /// result still has uses.
    pub fn remove_inst(&mut self, inst: Inst) {
        let block = self.inst_block[inst.index()].expect("instruction already removed");
        assert!(
            !self.insts[inst].is_terminator(),
            "cannot remove a terminator"
        );
        if let Some(r) = self.results[inst.index()] {
            assert!(
                self.uses[r.index()].is_empty(),
                "result {r} of removed {inst} still used"
            );
        }
        let uses = &mut self.uses;
        self.insts[inst].for_each_operand(|v| remove_one(&mut uses[v.index()], inst));
        let insts = &mut self.blocks[block].insts;
        let pos = insts
            .iter()
            .position(|&i| i == inst)
            .expect("inst in its block list");
        insts.remove(pos);
        self.inst_block[inst.index()] = None;
    }

    /// The payload of `inst`.
    pub fn inst_data(&self, inst: Inst) -> &InstData {
        &self.insts[inst]
    }

    /// The result value of `inst` (`None` for terminators).
    pub fn inst_result(&self, inst: Inst) -> Option<Value> {
        self.results[inst.index()]
    }

    /// The block containing `inst` (`None` if removed).
    pub fn inst_block(&self, inst: Inst) -> Option<Block> {
        self.inst_block[inst.index()]
    }

    /// Position of `inst` within its block (0-based). O(block length).
    ///
    /// # Panics
    ///
    /// Panics if the instruction was removed.
    pub fn inst_position(&self, inst: Inst) -> usize {
        let block = self.inst_block(inst).expect("instruction was removed");
        self.blocks[block]
            .insts
            .iter()
            .position(|&i| i == inst)
            .expect("inst in its block list")
    }

    /// Number of instructions ever created (including removed ones).
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    // ---------------------------------------------------- program points

    /// The point just after `inst`, or `None` if the instruction was
    /// removed from its block. O(block length) for the position lookup.
    pub fn point_after(&self, inst: Inst) -> Option<ProgramPoint> {
        let block = self.inst_block(inst)?;
        let pos = self.blocks[block].insts.iter().position(|&i| i == inst)?;
        Some(ProgramPoint::after(block, pos))
    }

    /// The point just before `inst` (the block entry for the first
    /// instruction), or `None` if the instruction was removed.
    pub fn point_before(&self, inst: Inst) -> Option<ProgramPoint> {
        let block = self.inst_block(inst)?;
        let pos = self.blocks[block].insts.iter().position(|&i| i == inst)?;
        Some(match pos {
            0 => ProgramPoint::block_entry(block),
            _ => ProgramPoint::after(block, pos - 1),
        })
    }

    /// The program point where `v` becomes available: the entry of its
    /// block for parameters (φ-results bind at block entry), the point
    /// just after the defining instruction otherwise.
    ///
    /// Returns `None` when the defining instruction has been removed —
    /// a detached definition has no position, and callers (the point
    /// queries of `fastlive-core`) surface that as an error instead of
    /// panicking.
    pub fn def_point(&self, v: Value) -> Option<ProgramPoint> {
        match self.values[v] {
            ValueDef::Param { block, .. } => Some(ProgramPoint::block_entry(block)),
            ValueDef::Inst(inst) => self.point_after(inst),
        }
    }

    /// All points of `block` in program order: the entry point, then
    /// one point after each instruction.
    pub fn block_points(&self, block: Block) -> impl Iterator<Item = ProgramPoint> + use<> {
        let n = self.blocks[block].insts.len();
        std::iter::once(ProgramPoint::block_entry(block))
            .chain((0..n).map(move |i| ProgramPoint::after(block, i)))
    }

    /// Is `v`'s definition **at or before** point `p` within `p`'s
    /// block — i.e. does the value already exist at `p` as far as
    /// layout is concerned? Definitions in *other* blocks always
    /// report `true`: cross-block positioning is a dominance question,
    /// which the liveness query itself answers. Returns `None` when
    /// the defining instruction was removed.
    ///
    /// This is the "already defined" leg of the point-liveness
    /// decomposition. Parameters bind at their block's entry (at or
    /// before every point); instruction definitions in `p`'s block are
    /// decided by membership in the layout *prefix*
    /// `insts[..p.next_index()]` — no full-block position resolution.
    pub fn is_defined_at(&self, v: Value, p: ProgramPoint) -> Option<bool> {
        match self.values[v] {
            ValueDef::Param { .. } => Some(true),
            ValueDef::Inst(i) => {
                let db = self.inst_block[i.index()]?;
                if db != p.block() {
                    return Some(true);
                }
                let insts = &self.blocks[db].insts;
                let prefix = &insts[..p.next_index().min(insts.len())];
                Some(prefix.contains(&i))
            }
        }
    }

    /// Does `v` have a use strictly after point `p`, inside `p`'s
    /// block? This is the "last use after position" primitive of the
    /// point-liveness decomposition.
    ///
    /// The scan walks the def-use chain once; each use sited in the
    /// block is tested by membership in the instruction-list *suffix*
    /// `insts[p.next_index()..]` — a flat `u32` equality scan the
    /// compiler vectorizes to word-level compares — instead of
    /// resolving the use's absolute position with a full-block walk
    /// per use (what the old destruct-private shim did).
    pub fn has_use_after(&self, v: Value, p: ProgramPoint) -> bool {
        let block = p.block();
        let suffix = match self.blocks[block].insts.get(p.next_index()..) {
            Some(s) if !s.is_empty() => s,
            _ => return false,
        };
        self.uses[v.index()]
            .iter()
            .any(|&u| self.inst_block[u.index()] == Some(block) && suffix.contains(&u))
    }

    // ----------------------------------------------------------- values

    /// Where `v` is defined.
    pub fn value_def(&self, v: Value) -> ValueDef {
        self.values[v]
    }

    /// The block defining `v` — the paper's `def(a)`.
    ///
    /// # Panics
    ///
    /// Panics if `v`'s defining instruction was removed (use
    /// [`try_def_block`](Self::try_def_block) for fallible handling).
    pub fn def_block(&self, v: Value) -> Block {
        self.try_def_block(v).expect("definition was removed")
    }

    /// The block defining `v`, or `None` when its defining instruction
    /// has been removed (a detached definition).
    pub fn try_def_block(&self, v: Value) -> Option<Block> {
        match self.values[v] {
            ValueDef::Param { block, .. } => Some(block),
            ValueDef::Inst(inst) => self.inst_block(inst),
        }
    }

    /// The def-use chain of `v`: every instruction using it, with
    /// multiplicity, in no particular order.
    pub fn uses(&self, v: Value) -> &[Inst] {
        &self.uses[v.index()]
    }

    /// The blocks where `v` is used in the sense of Definition 1: the
    /// block of each using instruction. Branch arguments are uses at the
    /// predecessor block (where the branch lives), exactly as the paper
    /// requires for φ-uses. Duplicates possible.
    pub fn use_blocks(&self, v: Value) -> impl Iterator<Item = Block> + '_ {
        self.uses[v.index()]
            .iter()
            .map(|&i| self.inst_block(i).expect("use site was removed"))
    }

    /// Number of values.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Iterates all values.
    pub fn values(&self) -> impl Iterator<Item = Value> + use<> {
        (0..self.values.len()).map(Value::from_index)
    }

    // -------------------------------------------------------- mutation

    /// Replaces every use of `old` with `new` except those inside
    /// `except` (used when inserting `new = copy old`), updating def-use
    /// chains.
    pub fn replace_uses_except(&mut self, old: Value, new: Value, except: Inst) {
        assert_ne!(old, new, "cannot replace a value with itself");
        let sites = std::mem::take(&mut self.uses[old.index()]);
        let mut kept = Vec::new();
        for inst in sites {
            if inst != except {
                self.insts[inst].map_operands(|v| if v == old { new } else { v });
                self.uses[new.index()].push(inst);
            } else {
                kept.push(inst);
            }
        }
        self.uses[old.index()] = kept;
    }

    /// Replaces the `arg_index`-th argument of the `target_index`-th
    /// branch target of `inst` (a terminator) with `new`, updating use
    /// chains. This is how SSA destruction swaps a φ-argument for a
    /// freshly inserted copy.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set_branch_arg(
        &mut self,
        inst: Inst,
        target_index: usize,
        arg_index: usize,
        new: Value,
    ) {
        assert!(
            new.index() < self.values.len(),
            "operand {new} does not exist"
        );
        let old = {
            let call = self.insts[inst]
                .branch_targets_mut()
                .nth(target_index)
                .expect("target index out of range");
            let slot = call
                .args
                .get_mut(arg_index)
                .expect("arg index out of range");
            let old = *slot;
            *slot = new;
            old
        };
        if old != new {
            remove_one(&mut self.uses[old.index()], inst);
            self.uses[new.index()].push(inst);
        }
    }

    /// Redirects the `target_index`-th branch target of terminator `inst`
    /// to `new_block`, passing `new_args`, and fixes CFG edges and use
    /// chains. Used by critical-edge splitting.
    ///
    /// # Panics
    ///
    /// Panics on bad indices or unknown values/blocks.
    pub fn redirect_branch_target(
        &mut self,
        inst: Inst,
        target_index: usize,
        new_block: Block,
        new_args: Vec<Value>,
    ) {
        assert!(
            new_block.index() < self.blocks.len(),
            "branch to unknown {new_block}"
        );
        for &a in &new_args {
            assert!(a.index() < self.values.len(), "operand {a} does not exist");
        }
        let from = self.inst_block(inst).expect("terminator was removed");
        let (old_block, old_args) = {
            let call = self.insts[inst]
                .branch_targets_mut()
                .nth(target_index)
                .expect("target index out of range");
            let old_block = call.block;
            let old_args = std::mem::replace(&mut call.args, new_args.clone());
            call.block = new_block;
            (old_block, old_args)
        };
        for a in old_args {
            remove_one(&mut self.uses[a.index()], inst);
        }
        for a in new_args {
            self.uses[a.index()].push(inst);
        }
        remove_one(&mut self.succs[from.index()], old_block.as_u32());
        remove_one(&mut self.preds[old_block.index()], from.as_u32());
        self.succs[from.index()].push(new_block.as_u32());
        self.preds[new_block.index()].push(from.as_u32());
        self.cfg_version += 1;
    }

    /// Removes the `index`-th parameter of `block` together with the
    /// corresponding branch argument of every predecessor terminator.
    /// The parameter value must be unused; it stays allocated but
    /// detached (no uses, not listed among the block's parameters).
    ///
    /// # Panics
    ///
    /// Panics if `block` is the entry block (its parameters are the
    /// function signature), `index` is out of range, or the parameter
    /// still has uses.
    pub fn remove_block_param(&mut self, block: Block, index: usize) {
        assert_ne!(
            block,
            self.entry_block(),
            "entry parameters are the function signature"
        );
        let params = &self.blocks[block].params;
        assert!(index < params.len(), "parameter index {index} out of range");
        let param = params[index];
        assert!(
            self.uses[param.index()].is_empty(),
            "cannot remove {param}: it still has uses"
        );
        self.blocks[block].params.remove(index);
        // Re-index the parameters that shifted down.
        let shifted: Vec<Value> = self.blocks[block].params[index..].to_vec();
        for (off, v) in shifted.into_iter().enumerate() {
            self.values[v] = ValueDef::Param {
                block,
                index: (index + off) as u32,
            };
        }
        // Drop the matching argument from every predecessor branch.
        let preds: Vec<NodeId> = {
            let mut p = self.preds[block.index()].clone();
            p.sort_unstable();
            p.dedup();
            p
        };
        for p in preds {
            let pb = Block::from_index(p as usize);
            let term = self.terminator(pb).expect("predecessor is terminated");
            for call in self.insts[term].branch_targets_mut() {
                if call.block == block {
                    let a = call.args.remove(index);
                    remove_one(&mut self.uses[a.index()], term);
                }
            }
        }
    }

    /// Convenience instruction builder positioned at the end of `block`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fastlive_ir::Function;
    ///
    /// let mut f = Function::new("f");
    /// let b = f.add_block();
    /// let k = f.ins(b).iconst(7);
    /// f.ins(b).ret(vec![k]);
    /// ```
    pub fn ins(&mut self, block: Block) -> crate::builder::InsBuilder<'_> {
        crate::builder::InsBuilder::new(self, block)
    }

    /// Rebuilds the def-use chains from scratch and compares with the
    /// maintained ones — a consistency oracle for tests.
    ///
    /// Returns `Err` with a description on the first mismatch.
    pub fn check_use_chains(&self) -> Result<(), String> {
        let mut expect: Vec<Vec<Inst>> = vec![Vec::new(); self.values.len()];
        for b in self.blocks() {
            for &inst in self.block_insts(b) {
                self.insts[inst].for_each_operand(|v| expect[v.index()].push(inst));
            }
        }
        for v in self.values() {
            let mut a = self.uses[v.index()].clone();
            let mut b = expect[v.index()].clone();
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return Err(format!("use chain of {v} is {a:?}, expected {b:?}"));
            }
        }
        Ok(())
    }
}

/// The CFG view of a function: nodes are block indices. Edges carry the
/// multiplicity of branch targets (a two-way branch to the same block
/// contributes two edges), matching [`fastlive_graph::DiGraph`] semantics.
impl Cfg for Function {
    fn num_nodes(&self) -> usize {
        self.blocks.len()
    }
    fn entry(&self) -> NodeId {
        self.entry_block().as_u32()
    }
    fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succs[n as usize]
    }
    fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.preds[n as usize]
    }
}

fn remove_one<T: PartialEq>(v: &mut Vec<T>, x: T) {
    let pos = v
        .iter()
        .position(|e| *e == x)
        .expect("element to remove is present");
    v.swap_remove(pos);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BinaryOp, BlockCall, UnaryOp};

    fn sample() -> (Function, Block, Block, Block) {
        // block0(x): brif x, block1, block2
        // block1: v = x+x; jump block2
        // block2: return x
        let mut f = Function::new("sample");
        let b0 = f.add_block();
        let b1 = f.add_block();
        let b2 = f.add_block();
        let x = f.append_block_param(b0);
        f.append_inst(
            b0,
            InstData::Brif {
                cond: x,
                then_dest: BlockCall::no_args(b1),
                else_dest: BlockCall::no_args(b2),
            },
        );
        f.append_inst(
            b1,
            InstData::Binary {
                op: BinaryOp::Iadd,
                args: [x, x],
            },
        );
        f.append_inst(
            b1,
            InstData::Jump {
                dest: BlockCall::no_args(b2),
            },
        );
        f.append_inst(b2, InstData::Return { args: vec![x] });
        (f, b0, b1, b2)
    }

    #[test]
    fn entry_is_first_block() {
        let (f, b0, ..) = sample();
        assert_eq!(f.entry_block(), b0);
        assert_eq!(f.num_blocks(), 3);
    }

    #[test]
    fn name_lookups_resolve_printed_names() {
        let (f, b0, b1, b2) = sample();
        assert_eq!(f.block("block0"), Some(b0));
        assert_eq!(f.block("block1"), Some(b1));
        assert_eq!(f.block("block2"), Some(b2));
        assert_eq!(f.block("block3"), None);
        assert_eq!(f.block("blk1"), None);
        assert_eq!(f.block("block"), None);
        assert_eq!(f.value("v0"), Some(f.params()[0]));
        assert_eq!(f.value("v99"), None);
    }

    #[test]
    fn cfg_edges_follow_terminators() {
        let (f, b0, b1, b2) = sample();
        assert_eq!(f.succs(b0.as_u32()), &[b1.as_u32(), b2.as_u32()]);
        assert_eq!(f.succs(b1.as_u32()), &[b2.as_u32()]);
        assert!(f.succs(b2.as_u32()).is_empty());
        let mut p2 = f.preds(b2.as_u32()).to_vec();
        p2.sort_unstable();
        assert_eq!(p2, vec![0, 1]);
        assert_eq!(f.num_edges(), 3);
    }

    #[test]
    fn def_use_chains_track_operands() {
        let (f, b0, b1, b2) = sample();
        let x = f.params()[0];
        // x used by: brif (b0), iadd twice (b1), return (b2).
        assert_eq!(f.uses(x).len(), 4);
        let mut blocks: Vec<_> = f.use_blocks(x).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![b0, b1, b1, b2]);
        assert_eq!(f.def_block(x), b0);
        f.check_use_chains().expect("chains consistent");
    }

    #[test]
    fn inst_results_and_positions() {
        let (f, _, b1, _) = sample();
        let add = f.block_insts(b1)[0];
        let r = f.inst_result(add).expect("iadd has a result");
        assert_eq!(f.value_def(r), ValueDef::Inst(add));
        assert_eq!(f.def_block(r), b1);
        assert_eq!(f.inst_position(add), 0);
        let jump = f.block_insts(b1)[1];
        assert_eq!(f.inst_result(jump), None);
        assert_eq!(f.inst_position(jump), 1);
    }

    #[test]
    #[should_panic(expected = "already has a terminator")]
    fn double_terminator_rejected() {
        let (mut f, b0, _, _) = sample();
        f.append_inst(b0, InstData::Return { args: vec![] });
    }

    #[test]
    #[should_panic(expected = "after the terminator")]
    fn insert_after_terminator_rejected() {
        let (mut f, b0, ..) = sample();
        let pos = f.block_insts(b0).len();
        f.insert_inst(b0, pos, InstData::IntConst { imm: 1 });
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn unknown_operand_rejected() {
        let mut f = Function::new("f");
        let b = f.add_block();
        f.append_inst(
            b,
            InstData::Unary {
                op: UnaryOp::Copy,
                arg: Value::from_index(99),
            },
        );
    }

    #[test]
    fn insert_before_terminator() {
        let (mut f, b0, ..) = sample();
        let pos = f.block_insts(b0).len() - 1;
        let inst = f.insert_inst(b0, pos, InstData::IntConst { imm: 5 });
        assert_eq!(f.block_insts(b0)[pos], inst);
        assert_eq!(f.inst_position(inst), 0);
        f.check_use_chains().expect("chains consistent");
    }

    #[test]
    fn remove_inst_unregisters_uses() {
        let mut f = Function::new("f");
        let b = f.add_block();
        let x = f.append_block_param(b);
        let dead = f.append_inst(
            b,
            InstData::Unary {
                op: UnaryOp::Ineg,
                arg: x,
            },
        );
        f.append_inst(b, InstData::Return { args: vec![x] });
        assert_eq!(f.uses(x).len(), 2);
        f.remove_inst(dead);
        assert_eq!(f.uses(x).len(), 1);
        assert_eq!(f.inst_block(dead), None);
        assert_eq!(f.block_insts(b).len(), 1);
        f.check_use_chains().expect("chains consistent");
    }

    #[test]
    #[should_panic(expected = "still used")]
    fn remove_inst_with_live_result_rejected() {
        let mut f = Function::new("f");
        let b = f.add_block();
        let k = f.append_inst(b, InstData::IntConst { imm: 3 });
        let kv = f.inst_result(k).unwrap();
        f.append_inst(b, InstData::Return { args: vec![kv] });
        f.remove_inst(k);
    }

    #[test]
    fn replace_uses_except_an_unrelated_site_moves_every_chain() {
        let (mut f, _, b1, _) = sample();
        let x = f.params()[0];
        let add = f.block_insts(b1)[0];
        let jump = f.block_insts(b1)[1];
        let r = f.inst_result(add).unwrap();
        let n_x = f.uses(x).len();
        // The jump does not use `x`, so every use site moves.
        f.replace_uses_except(x, r, jump);
        assert!(f.uses(x).is_empty());
        assert_eq!(f.uses(r).len(), n_x);
        f.check_use_chains().expect("chains consistent");
    }

    #[test]
    fn replace_uses_except_keeps_one_site() {
        let (mut f, b0, b1, _) = sample();
        let x = f.params()[0];
        let add = f.block_insts(b1)[0];
        let r = f.inst_result(add).unwrap();
        f.replace_uses_except(x, r, add);
        // The iadd still uses x twice, everything else uses r.
        assert_eq!(f.uses(x).len(), 2);
        assert!(f.uses(x).iter().all(|&i| i == add));
        let brif = f.block_insts(b0)[0];
        match f.inst_data(brif) {
            InstData::Brif { cond, .. } => assert_eq!(*cond, r),
            other => panic!("unexpected {other:?}"),
        }
        f.check_use_chains().expect("chains consistent");
    }

    #[test]
    fn branch_args_are_uses_at_pred_block() {
        // block0(x): jump block1(x); block1(p): return p
        let mut f = Function::new("phi");
        let b0 = f.add_block();
        let b1 = f.add_block();
        let x = f.append_block_param(b0);
        let p = f.append_block_param(b1);
        f.append_inst(
            b0,
            InstData::Jump {
                dest: BlockCall::with_args(b1, vec![x]),
            },
        );
        f.append_inst(b1, InstData::Return { args: vec![p] });
        // Definition 1: the φ-use of x happens at block0 (the predecessor).
        let blocks: Vec<_> = f.use_blocks(x).collect();
        assert_eq!(blocks, vec![b0]);
        assert_eq!(f.def_block(p), b1);
    }

    #[test]
    fn set_branch_arg_updates_chains() {
        let mut f = Function::new("f");
        let b0 = f.add_block();
        let b1 = f.add_block();
        let x = f.append_block_param(b0);
        let y = f.append_block_param(b0);
        f.append_block_param(b1);
        let j = f.append_inst(
            b0,
            InstData::Jump {
                dest: BlockCall::with_args(b1, vec![x]),
            },
        );
        assert_eq!(f.uses(x).len(), 1);
        f.set_branch_arg(j, 0, 0, y);
        assert!(f.uses(x).is_empty());
        assert_eq!(f.uses(y), &[j]);
        f.check_use_chains().expect("chains consistent");
    }

    #[test]
    fn redirect_branch_target_rewires_cfg() {
        let (mut f, b0, b1, b2) = sample();
        let mid = f.add_block();
        f.append_inst(
            mid,
            InstData::Jump {
                dest: BlockCall::no_args(b1),
            },
        );
        let brif = f.block_insts(b0)[0];
        f.redirect_branch_target(brif, 0, mid, vec![]);
        assert_eq!(f.succs(b0.as_u32()), &[b2.as_u32(), mid.as_u32()]);
        assert!(f.preds(b1.as_u32()).contains(&mid.as_u32()));
        assert!(!f.preds(b1.as_u32()).contains(&b0.as_u32()));
        f.check_use_chains().expect("chains consistent");
    }

    #[test]
    fn cfg_version_tracks_exactly_the_cfg_mutators() {
        let mut f = Function::new("v");
        assert_eq!(f.cfg_version(), 0);
        let b0 = f.add_block();
        let b1 = f.add_block();
        let v2 = f.cfg_version();
        assert_eq!(v2, 2, "each add_block bumps");

        // Non-terminator instructions never bump.
        let x = f.ins(b0).iconst(1);
        let y = f.ins(b0).iadd(x, x);
        assert_eq!(f.cfg_version(), v2);

        // Terminators add edges: bump.
        let j = f.ins(b0).jump(b1, vec![]);
        let v3 = f.cfg_version();
        assert!(v3 > v2);
        f.ins(b1).ret(vec![y]);
        let v4 = f.cfg_version();
        assert!(v4 > v3);

        // Use-level edits never bump...
        f.replace_uses_except(x, y, j);
        let dead = f.insert_inst(
            b1,
            0,
            InstData::Unary {
                op: crate::UnaryOp::Ineg,
                arg: y,
            },
        );
        f.remove_inst(dead);
        assert_eq!(f.cfg_version(), v4);

        // ... but rewiring a branch target does.
        let b2 = f.add_block();
        f.ins(b2).ret(vec![]);
        let before = f.cfg_version();
        f.redirect_branch_target(j, 0, b2, vec![]);
        assert!(f.cfg_version() > before);
    }

    #[test]
    fn def_points_and_inst_points() {
        let (f, b0, b1, _) = sample();
        let x = f.params()[0];
        // Parameters bind at the block entry.
        assert_eq!(f.def_point(x), Some(ProgramPoint::block_entry(b0)));
        let add = f.block_insts(b1)[0];
        let r = f.inst_result(add).unwrap();
        assert_eq!(f.def_point(r), Some(ProgramPoint::after(b1, 0)));
        assert_eq!(f.point_after(add), Some(ProgramPoint::after(b1, 0)));
        assert_eq!(f.point_before(add), Some(ProgramPoint::block_entry(b1)));
        let jump = f.block_insts(b1)[1];
        assert_eq!(f.point_before(jump), Some(ProgramPoint::after(b1, 0)));
    }

    #[test]
    fn detached_definition_has_no_point() {
        // A removed defining instruction leaves its result value
        // detached: `def_point` reports `None` instead of panicking
        // (the old `expect("definition removed")` path).
        let mut f = Function::new("f");
        let b = f.add_block();
        let dead = f.append_inst(b, InstData::IntConst { imm: 3 });
        let dv = f.inst_result(dead).unwrap();
        f.append_inst(b, InstData::Return { args: vec![] });
        assert!(f.def_point(dv).is_some());
        f.remove_inst(dead);
        assert_eq!(f.def_point(dv), None);
        assert_eq!(f.point_after(dead), None);
        assert_eq!(f.point_before(dead), None);
    }

    #[test]
    fn is_defined_at_is_prefix_membership() {
        let (f, b0, b1, _) = sample();
        let x = f.params()[0];
        let add = f.block_insts(b1)[0];
        let r = f.inst_result(add).unwrap();
        // Parameters exist everywhere (cross-block is a dominance
        // question the liveness query answers).
        assert_eq!(
            f.is_defined_at(x, ProgramPoint::block_entry(b0)),
            Some(true)
        );
        assert_eq!(
            f.is_defined_at(x, ProgramPoint::block_entry(b1)),
            Some(true)
        );
        // r is defined by the iadd at index 0 of b1.
        assert_eq!(
            f.is_defined_at(r, ProgramPoint::block_entry(b1)),
            Some(false)
        );
        assert_eq!(f.is_defined_at(r, ProgramPoint::after(b1, 0)), Some(true));
        // In other blocks the layout check always passes.
        assert_eq!(
            f.is_defined_at(r, ProgramPoint::block_entry(b0)),
            Some(true)
        );
    }

    #[test]
    fn has_use_after_respects_positions() {
        let (f, b0, b1, b2) = sample();
        let x = f.params()[0];
        // x is used by the brif (b0, index 0): after the entry point,
        // not after the brif itself.
        assert!(f.has_use_after(x, ProgramPoint::block_entry(b0)));
        assert!(!f.has_use_after(x, ProgramPoint::after(b0, 0)));
        // In b1 the iadd (index 0) uses x; the jump does not.
        assert!(f.has_use_after(x, ProgramPoint::block_entry(b1)));
        assert!(!f.has_use_after(x, ProgramPoint::after(b1, 0)));
        // The return in b2 uses x.
        assert!(f.has_use_after(x, ProgramPoint::block_entry(b2)));
        assert!(!f.has_use_after(x, ProgramPoint::after(b2, 0)));
        // Past-the-end points never see uses.
        assert!(!f.has_use_after(x, ProgramPoint::after(b2, 99)));
    }

    #[test]
    fn parallel_edges_from_brif_to_same_block() {
        let mut f = Function::new("f");
        let b0 = f.add_block();
        let b1 = f.add_block();
        let c = f.append_inst(b0, InstData::IntConst { imm: 1 });
        let cv = f.inst_result(c).unwrap();
        f.append_inst(
            b0,
            InstData::Brif {
                cond: cv,
                then_dest: BlockCall::no_args(b1),
                else_dest: BlockCall::no_args(b1),
            },
        );
        f.append_inst(b1, InstData::Return { args: vec![] });
        assert_eq!(f.succs(0), &[1, 1]);
        assert_eq!(f.preds(1), &[0, 0]);
    }
}
