//! A mutable, serializable mirror of one SSA function — the substrate
//! the adversarial mutators and the minimizing shrinker both edit.
//!
//! [`fastlive_ir::Function`] is append-only by design: blocks and
//! values can be added but never removed, which is exactly wrong for a
//! shrinker. [`CaseFunc`] is the plain vector-of-blocks picture of one
//! function where any block, edge, instruction or parameter can be
//! deleted in O(1) conceptual steps. The only road back to a real
//! `Function` is the text parser: [`CaseFunc::to_text`] prints the
//! `.fl` form (sparse value ids are fine — the parser renumbers them
//! densely in textual definition order) and [`CaseFunc::to_function`]
//! parses and verifies it. Every mutated or shrunk candidate therefore
//! flows through exactly the parser and verifier code paths this
//! harness is trying to break — the harness fuzzes its own plumbing
//! for free.

use std::fmt::Write as _;

use fastlive_core::verify_strict_ssa;
use fastlive_ir::{parse_function, BinaryOp, Function, InstData, Module, UnaryOp};

/// One non-terminator operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseOp {
    /// `v = iconst IMM`.
    Iconst(i64),
    /// `v = <op> a`.
    Unary(UnaryOp, u32),
    /// `v = <op> a, b`.
    Binary(BinaryOp, u32, u32),
}

/// A branch target: block index plus arguments for its parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseCall {
    /// Index into [`CaseFunc::blocks`].
    pub block: usize,
    /// Arguments matching the target's parameter list.
    pub args: Vec<u32>,
}

/// A block terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseTerm {
    /// Unconditional branch.
    Jump(CaseCall),
    /// Conditional branch on a value.
    Brif(u32, CaseCall, CaseCall),
    /// Function return.
    Return(Vec<u32>),
}

impl CaseTerm {
    /// The branch targets of the terminator (empty for `Return`).
    pub fn targets(&self) -> Vec<&CaseCall> {
        match self {
            CaseTerm::Jump(d) => vec![d],
            CaseTerm::Brif(_, t, e) => vec![t, e],
            CaseTerm::Return(_) => Vec::new(),
        }
    }

    /// Mutable access to the branch targets.
    pub fn targets_mut(&mut self) -> Vec<&mut CaseCall> {
        match self {
            CaseTerm::Jump(d) => vec![d],
            CaseTerm::Brif(_, t, e) => vec![t, e],
            CaseTerm::Return(_) => Vec::new(),
        }
    }
}

/// One basic block: parameters, body instructions, terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseBlock {
    /// Block parameter value ids (the φ-destinations).
    pub params: Vec<u32>,
    /// Non-terminator instructions: `(result id, operation)`.
    pub insts: Vec<(u32, CaseOp)>,
    /// The terminator.
    pub term: CaseTerm,
}

/// A whole function in deletable form. Block 0 is the entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseFunc {
    /// Function name (printed quoted when not a bare identifier).
    pub name: String,
    /// The blocks; index 0 is the entry block.
    pub blocks: Vec<CaseBlock>,
    next_value: u32,
}

impl CaseFunc {
    /// An empty function shell with one terminated entry block.
    pub fn new(name: impl Into<String>) -> Self {
        CaseFunc {
            name: name.into(),
            blocks: vec![CaseBlock {
                params: Vec::new(),
                insts: Vec::new(),
                term: CaseTerm::Return(Vec::new()),
            }],
            next_value: 0,
        }
    }

    /// Mints a value id never used in this function before.
    pub fn fresh_value(&mut self) -> u32 {
        let v = self.next_value;
        self.next_value += 1;
        v
    }

    /// Appends an empty (returning) block and returns its index.
    pub fn add_block(&mut self) -> usize {
        self.blocks.push(CaseBlock {
            params: Vec::new(),
            insts: Vec::new(),
            term: CaseTerm::Return(Vec::new()),
        });
        self.blocks.len() - 1
    }

    /// The deletable mirror of an existing function.
    pub fn from_function(func: &Function) -> Self {
        let mut blocks = Vec::with_capacity(func.num_blocks());
        for b in func.blocks() {
            let params = func
                .block_params(b)
                .iter()
                .map(|v| v.index() as u32)
                .collect();
            let mut insts = Vec::new();
            let mut term = CaseTerm::Return(Vec::new());
            for &inst in func.block_insts(b) {
                let vid = |v: fastlive_ir::Value| v.index() as u32;
                match func.inst_data(inst) {
                    InstData::IntConst { imm } => {
                        let r = func.inst_result(inst).map(vid).unwrap_or(u32::MAX);
                        insts.push((r, CaseOp::Iconst(*imm)));
                    }
                    InstData::Unary { op, arg } => {
                        let r = func.inst_result(inst).map(vid).unwrap_or(u32::MAX);
                        insts.push((r, CaseOp::Unary(*op, vid(*arg))));
                    }
                    InstData::Binary { op, args } => {
                        let r = func.inst_result(inst).map(vid).unwrap_or(u32::MAX);
                        insts.push((r, CaseOp::Binary(*op, vid(args[0]), vid(args[1]))));
                    }
                    InstData::Jump { dest } => {
                        term = CaseTerm::Jump(CaseCall {
                            block: dest.block.index(),
                            args: dest.args.iter().copied().map(vid).collect(),
                        });
                    }
                    InstData::Brif {
                        cond,
                        then_dest,
                        else_dest,
                    } => {
                        term = CaseTerm::Brif(
                            vid(*cond),
                            CaseCall {
                                block: then_dest.block.index(),
                                args: then_dest.args.iter().copied().map(vid).collect(),
                            },
                            CaseCall {
                                block: else_dest.block.index(),
                                args: else_dest.args.iter().copied().map(vid).collect(),
                            },
                        );
                    }
                    InstData::Return { args } => {
                        term = CaseTerm::Return(args.iter().copied().map(vid).collect());
                    }
                }
            }
            blocks.push(CaseBlock {
                params,
                insts,
                term,
            });
        }
        CaseFunc {
            name: func.name.clone(),
            blocks,
            next_value: func.num_values() as u32,
        }
    }

    /// Every value id defined by block `b` (parameters then results).
    pub fn defs_of(&self, b: usize) -> Vec<u32> {
        let block = &self.blocks[b];
        block
            .params
            .iter()
            .copied()
            .chain(block.insts.iter().map(|(r, _)| *r))
            .collect()
    }

    /// Rewrites every value *use* (operands, branch args, returns — not
    /// definitions) through `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(u32) -> u32) {
        for block in &mut self.blocks {
            for (_, op) in &mut block.insts {
                match op {
                    CaseOp::Iconst(_) => {}
                    CaseOp::Unary(_, a) => *a = f(*a),
                    CaseOp::Binary(_, a, b) => {
                        *a = f(*a);
                        *b = f(*b);
                    }
                }
            }
            match &mut block.term {
                CaseTerm::Jump(d) => {
                    for a in &mut d.args {
                        *a = f(*a);
                    }
                }
                CaseTerm::Brif(c, t, e) => {
                    *c = f(*c);
                    for a in t.args.iter_mut().chain(e.args.iter_mut()) {
                        *a = f(*a);
                    }
                }
                CaseTerm::Return(args) => {
                    for a in args {
                        *a = f(*a);
                    }
                }
            }
        }
    }

    /// Deletes every block unreachable from the entry (edge and block
    /// deletions orphan blocks; the dominance verifier has nothing to
    /// say about orphans, so the case keeps itself honest). Returns how
    /// many blocks were removed.
    pub fn prune_unreachable(&mut self) -> usize {
        let n = self.blocks.len();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(b) = stack.pop() {
            for call in self.blocks[b].term.targets() {
                if call.block < n && !seen[call.block] {
                    seen[call.block] = true;
                    stack.push(call.block);
                }
            }
        }
        let dropped = seen.iter().filter(|s| !**s).count();
        if dropped == 0 {
            return 0;
        }
        // Old index → new index for the survivors.
        let mut remap = vec![usize::MAX; n];
        let mut next = 0usize;
        for (i, &s) in seen.iter().enumerate() {
            if s {
                remap[i] = next;
                next += 1;
            }
        }
        let mut i = 0usize;
        self.blocks.retain(|_| {
            let keep = seen[i];
            i += 1;
            keep
        });
        for block in &mut self.blocks {
            for call in block.term.targets_mut() {
                call.block = remap[call.block];
            }
        }
        dropped
    }

    /// The `.fl` text of the function. Value ids print as written —
    /// possibly sparse after deletions; the parser renumbers densely.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("function %");
        write_fl_name(&mut out, &self.name);
        out.push_str(" {\n");
        for (i, block) in self.blocks.iter().enumerate() {
            let _ = write!(out, "block{i}");
            if !block.params.is_empty() {
                out.push('(');
                for (j, p) in block.params.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "v{p}");
                }
                out.push(')');
            }
            out.push_str(":\n");
            for (r, op) in &block.insts {
                match op {
                    CaseOp::Iconst(imm) => {
                        let _ = writeln!(out, "    v{r} = iconst {imm}");
                    }
                    CaseOp::Unary(op, a) => {
                        let _ = writeln!(out, "    v{r} = {} v{a}", op.mnemonic());
                    }
                    CaseOp::Binary(op, a, b) => {
                        let _ = writeln!(out, "    v{r} = {} v{a}, v{b}", op.mnemonic());
                    }
                }
            }
            let call = |out: &mut String, c: &CaseCall| {
                let _ = write!(out, "block{}", c.block);
                if !c.args.is_empty() {
                    out.push('(');
                    for (j, a) in c.args.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "v{a}");
                    }
                    out.push(')');
                }
            };
            match &block.term {
                CaseTerm::Jump(d) => {
                    out.push_str("    jump ");
                    call(&mut out, d);
                    out.push('\n');
                }
                CaseTerm::Brif(c, t, e) => {
                    let _ = write!(out, "    brif v{c}, ");
                    call(&mut out, t);
                    out.push_str(", ");
                    call(&mut out, e);
                    out.push('\n');
                }
                CaseTerm::Return(args) => {
                    out.push_str("    return");
                    for (j, a) in args.iter().enumerate() {
                        out.push_str(if j == 0 { " " } else { ", " });
                        let _ = write!(out, "v{a}");
                    }
                    out.push('\n');
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Parses the printed text back into a verified strict-SSA
    /// function. `Err` carries the parse or verification message — a
    /// mutation or shrink step that broke the program, which callers
    /// discard (and count) rather than run.
    pub fn to_function(&self) -> Result<Function, String> {
        let func = parse_function(&self.to_text()).map_err(|e| format!("parse: {e}"))?;
        verify_strict_ssa(&func).map_err(|e| format!("verify: {e}"))?;
        Ok(func)
    }

    /// [`to_function`](Self::to_function), wrapped as a one-function
    /// module (the unit the facade queries).
    pub fn to_module(&self) -> Result<Module, String> {
        let mut module = Module::new();
        module.push(self.to_function()?);
        Ok(module)
    }
}

/// Writes a function name the way the IR printer does: bare when it is
/// a bare identifier, quoted-and-escaped otherwise. The round-trip
/// tests in `fastlive-ir` pin the printer side; this mirror only has to
/// produce *some* text the parser maps back to the same name, which
/// the `to_function` round-trip checks on every use.
fn write_fl_name(out: &mut String, name: &str) {
    let mut chars = name.chars();
    let bare = match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        }
        _ => false,
    };
    if bare {
        out.push_str(name);
        return;
    }
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 || c as u32 == 0x7f => {
                let _ = write!(out, "\\u{{{:x}}}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Rebuilds a module from case functions, failing on the first case
/// that no longer parses or verifies.
pub fn module_of_cases(cases: &[CaseFunc]) -> Result<Module, String> {
    let mut module = Module::new();
    for case in cases {
        module.push(case.to_function()?);
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Function {
        parse_function(
            "function %f { block0(v0):
                v1 = iconst 0
                brif v0, block1(v1), block2
            block1(v2):
                v3 = iadd v2, v0
                jump block2
            block2:
                return v0 }",
        )
        .unwrap()
    }

    #[test]
    fn mirror_round_trips_through_the_parser() {
        let func = sample();
        let case = CaseFunc::from_function(&func);
        let back = case.to_function().expect("mirror parses");
        assert_eq!(back.to_string(), func.to_string());
    }

    #[test]
    fn sparse_ids_survive_serialization() {
        let func = sample();
        let mut case = CaseFunc::from_function(&func);
        // Delete the iadd (v3): ids stay sparse, text still parses.
        case.blocks[1].insts.clear();
        let back = case.to_function().expect("sparse mirror parses");
        assert_eq!(back.num_values(), 3);
    }

    #[test]
    fn prune_drops_orphaned_blocks() {
        let func = sample();
        let mut case = CaseFunc::from_function(&func);
        // Cut the edge into block1: brif → jump block2.
        case.blocks[0].term = CaseTerm::Jump(CaseCall {
            block: 2,
            args: vec![],
        });
        assert_eq!(case.prune_unreachable(), 1);
        assert_eq!(case.blocks.len(), 2);
        case.to_function().expect("pruned case is valid");
    }

    #[test]
    fn quoted_names_round_trip() {
        let mut case = CaseFunc::new("weird name \"x\"\n");
        case.blocks[0].term = CaseTerm::Return(vec![]);
        let func = case.to_function().expect("quoted name parses");
        assert_eq!(func.name, "weird name \"x\"\n");
    }
}
