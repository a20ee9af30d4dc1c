//! Instruction data: opcodes, operands and branch targets.

use crate::entities::{Block, Value};

/// Operations with one operand.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Identity move — the instruction SSA destruction inserts.
    Copy,
    /// Two's-complement negation.
    Ineg,
    /// Bitwise complement.
    Bnot,
}

impl UnaryOp {
    /// The textual mnemonic used by the printer and parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnaryOp::Copy => "copy",
            UnaryOp::Ineg => "ineg",
            UnaryOp::Bnot => "bnot",
        }
    }

    /// Evaluates the operation on a concrete value.
    pub fn eval(self, x: i64) -> i64 {
        match self {
            UnaryOp::Copy => x,
            UnaryOp::Ineg => x.wrapping_neg(),
            UnaryOp::Bnot => !x,
        }
    }

    /// The opcode whose [`mnemonic`](Self::mnemonic) is `text`.
    pub fn from_mnemonic(text: &str) -> Option<Self> {
        Some(match text {
            "copy" => UnaryOp::Copy,
            "ineg" => UnaryOp::Ineg,
            "bnot" => UnaryOp::Bnot,
            _ => return None,
        })
    }

    /// All unary opcodes (used by the workload generator).
    pub const ALL: [UnaryOp; 3] = [UnaryOp::Copy, UnaryOp::Ineg, UnaryOp::Bnot];
}

/// Operations with two operands. Comparison results are `1` or `0`.
///
/// All operations are *total*: wrapping arithmetic, and division or
/// remainder by zero yields 0 (`i64::MIN / -1` wraps). This keeps the
/// interpreter trap-free so that randomly generated programs always have
/// defined semantics — important for the semantic-preservation tests of
/// SSA construction/destruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Wrapping addition.
    Iadd,
    /// Wrapping subtraction.
    Isub,
    /// Wrapping multiplication.
    Imul,
    /// Signed division; `x / 0 = 0`, `MIN / -1 = MIN`.
    Sdiv,
    /// Signed remainder; `x % 0 = x`, `MIN % -1 = 0`.
    Srem,
    /// Bitwise and.
    Band,
    /// Bitwise or.
    Bor,
    /// Bitwise xor.
    Bxor,
    /// Equality (0/1).
    IcmpEq,
    /// Inequality (0/1).
    IcmpNe,
    /// Signed less-than (0/1).
    IcmpSlt,
    /// Signed less-or-equal (0/1).
    IcmpSle,
}

impl BinaryOp {
    /// The textual mnemonic used by the printer and parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinaryOp::Iadd => "iadd",
            BinaryOp::Isub => "isub",
            BinaryOp::Imul => "imul",
            BinaryOp::Sdiv => "sdiv",
            BinaryOp::Srem => "srem",
            BinaryOp::Band => "band",
            BinaryOp::Bor => "bor",
            BinaryOp::Bxor => "bxor",
            BinaryOp::IcmpEq => "icmp_eq",
            BinaryOp::IcmpNe => "icmp_ne",
            BinaryOp::IcmpSlt => "icmp_slt",
            BinaryOp::IcmpSle => "icmp_sle",
        }
    }

    /// The opcode whose [`mnemonic`](Self::mnemonic) is `text`.
    pub fn from_mnemonic(text: &str) -> Option<Self> {
        Some(match text {
            "iadd" => BinaryOp::Iadd,
            "isub" => BinaryOp::Isub,
            "imul" => BinaryOp::Imul,
            "sdiv" => BinaryOp::Sdiv,
            "srem" => BinaryOp::Srem,
            "band" => BinaryOp::Band,
            "bor" => BinaryOp::Bor,
            "bxor" => BinaryOp::Bxor,
            "icmp_eq" => BinaryOp::IcmpEq,
            "icmp_ne" => BinaryOp::IcmpNe,
            "icmp_slt" => BinaryOp::IcmpSlt,
            "icmp_sle" => BinaryOp::IcmpSle,
            _ => return None,
        })
    }

    /// Evaluates the operation on concrete values (total semantics).
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinaryOp::Iadd => a.wrapping_add(b),
            BinaryOp::Isub => a.wrapping_sub(b),
            BinaryOp::Imul => a.wrapping_mul(b),
            BinaryOp::Sdiv => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinaryOp::Srem => {
                if b == 0 {
                    a
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinaryOp::Band => a & b,
            BinaryOp::Bor => a | b,
            BinaryOp::Bxor => a ^ b,
            BinaryOp::IcmpEq => (a == b) as i64,
            BinaryOp::IcmpNe => (a != b) as i64,
            BinaryOp::IcmpSlt => (a < b) as i64,
            BinaryOp::IcmpSle => (a <= b) as i64,
        }
    }

    /// All binary opcodes (used by the workload generator).
    pub const ALL: [BinaryOp; 12] = [
        BinaryOp::Iadd,
        BinaryOp::Isub,
        BinaryOp::Imul,
        BinaryOp::Sdiv,
        BinaryOp::Srem,
        BinaryOp::Band,
        BinaryOp::Bor,
        BinaryOp::Bxor,
        BinaryOp::IcmpEq,
        BinaryOp::IcmpNe,
        BinaryOp::IcmpSlt,
        BinaryOp::IcmpSle,
    ];
}

/// A branch target: destination block plus the arguments passed to its
/// block parameters.
///
/// Block-parameter arguments are this IR's φ-functions: passing `x` to
/// `blockN(p)` on the edge from block `B` *is* the φ-use of `x` at `B`
/// in the sense of the paper's Definition 1 ("v is the i-th predecessor
/// of some node containing a φ-function whose i-th argument is x").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BlockCall {
    /// Destination block.
    pub block: Block,
    /// Arguments matching the destination's block parameters.
    pub args: Vec<Value>,
}

impl BlockCall {
    /// A target with no arguments.
    pub fn no_args(block: Block) -> Self {
        BlockCall {
            block,
            args: Vec::new(),
        }
    }

    /// A target with arguments.
    pub fn with_args(block: Block, args: Vec<Value>) -> Self {
        BlockCall { block, args }
    }
}

/// The payload of an instruction.
///
/// Exactly the last instruction of every block must be a *terminator*
/// ([`Jump`](InstData::Jump), [`Brif`](InstData::Brif) or
/// [`Return`](InstData::Return)); all other instructions produce one
/// [`Value`] result.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum InstData {
    /// `v = iconst IMM` — integer constant.
    IntConst {
        /// The constant.
        imm: i64,
    },
    /// `v = <op> a` — unary operation.
    Unary {
        /// Opcode.
        op: UnaryOp,
        /// Operand.
        arg: Value,
    },
    /// `v = <op> a, b` — binary operation.
    Binary {
        /// Opcode.
        op: BinaryOp,
        /// Operands.
        args: [Value; 2],
    },
    /// `jump blockN(args)` — unconditional branch.
    Jump {
        /// Destination.
        dest: BlockCall,
    },
    /// `brif c, blockT(args), blockF(args)` — conditional branch: taken
    /// if `c != 0`.
    Brif {
        /// Condition value.
        cond: Value,
        /// Target when the condition is non-zero.
        then_dest: BlockCall,
        /// Target when the condition is zero.
        else_dest: BlockCall,
    },
    /// `return args` — leave the function.
    Return {
        /// Returned values.
        args: Vec<Value>,
    },
}

impl InstData {
    /// `true` for jump/brif/return.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstData::Jump { .. } | InstData::Brif { .. } | InstData::Return { .. }
        )
    }

    /// `true` if the instruction produces a result value.
    pub fn has_result(&self) -> bool {
        !self.is_terminator()
    }

    /// `true` for the `copy` instruction.
    pub fn is_copy(&self) -> bool {
        matches!(
            self,
            InstData::Unary {
                op: UnaryOp::Copy,
                ..
            }
        )
    }

    /// Calls `f` on every value operand, including branch arguments, in
    /// textual order.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            InstData::IntConst { .. } => {}
            InstData::Unary { arg, .. } => f(*arg),
            InstData::Binary { args, .. } => {
                f(args[0]);
                f(args[1]);
            }
            InstData::Jump { dest } => dest.args.iter().copied().for_each(f),
            InstData::Brif {
                cond,
                then_dest,
                else_dest,
            } => {
                f(*cond);
                then_dest.args.iter().copied().for_each(&mut f);
                else_dest.args.iter().copied().for_each(&mut f);
            }
            InstData::Return { args } => args.iter().copied().for_each(f),
        }
    }

    /// Rewrites every operand through `f` (used by renaming passes).
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            InstData::IntConst { .. } => {}
            InstData::Unary { arg, .. } => *arg = f(*arg),
            InstData::Binary { args, .. } => {
                args[0] = f(args[0]);
                args[1] = f(args[1]);
            }
            InstData::Jump { dest } => {
                for a in &mut dest.args {
                    *a = f(*a);
                }
            }
            InstData::Brif {
                cond,
                then_dest,
                else_dest,
            } => {
                *cond = f(*cond);
                for a in &mut then_dest.args {
                    *a = f(*a);
                }
                for a in &mut else_dest.args {
                    *a = f(*a);
                }
            }
            InstData::Return { args } => {
                for a in args {
                    *a = f(*a);
                }
            }
        }
    }

    /// The branch targets of a terminator: none for `return` and
    /// non-terminators, `dest` for `jump`, `then_dest` then `else_dest`
    /// for `brif`. Allocation-free; `.nth(i)` is the `i`-th target.
    pub fn branch_targets(&self) -> BranchTargets<&BlockCall> {
        BranchTargets(match self {
            InstData::Jump { dest } => [Some(dest), None],
            InstData::Brif {
                then_dest,
                else_dest,
                ..
            } => [Some(then_dest), Some(else_dest)],
            _ => [None, None],
        })
    }

    /// Mutable access to the branch targets, in the same order.
    pub fn branch_targets_mut(&mut self) -> BranchTargets<&mut BlockCall> {
        BranchTargets(match self {
            InstData::Jump { dest } => [Some(dest), None],
            InstData::Brif {
                then_dest,
                else_dest,
                ..
            } => [Some(then_dest), Some(else_dest)],
            _ => [None, None],
        })
    }
}

/// The at most two branch targets of a terminator, as an exact-size
/// iterator of `&BlockCall` ([`InstData::branch_targets`]) or
/// `&mut BlockCall` ([`InstData::branch_targets_mut`]).
#[derive(Clone, Debug)]
pub struct BranchTargets<T>([Option<T>; 2]);

impl<T> Iterator for BranchTargets<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.0.iter_mut().find_map(Option::take)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.iter().flatten().count();
        (n, Some(n))
    }
}

impl<T> ExactSizeIterator for BranchTargets<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Value {
        Value::from_index(i)
    }

    #[test]
    fn terminator_classification() {
        assert!(InstData::Jump {
            dest: BlockCall::no_args(Block::from_index(0))
        }
        .is_terminator());
        assert!(InstData::Return { args: vec![] }.is_terminator());
        assert!(!InstData::IntConst { imm: 3 }.is_terminator());
        assert!(InstData::IntConst { imm: 3 }.has_result());
        assert!(InstData::Unary {
            op: UnaryOp::Copy,
            arg: v(0)
        }
        .is_copy());
        assert!(!InstData::Unary {
            op: UnaryOp::Ineg,
            arg: v(0)
        }
        .is_copy());
    }

    #[test]
    fn operand_iteration_covers_branch_args() {
        let data = InstData::Brif {
            cond: v(0),
            then_dest: BlockCall::with_args(Block::from_index(1), vec![v(1), v(2)]),
            else_dest: BlockCall::with_args(Block::from_index(2), vec![v(3)]),
        };
        let mut ops = Vec::new();
        data.for_each_operand(|x| ops.push(x.index()));
        assert_eq!(ops, vec![0, 1, 2, 3]);
    }

    #[test]
    fn map_operands_rewrites_everything() {
        let mut data = InstData::Binary {
            op: BinaryOp::Iadd,
            args: [v(0), v(1)],
        };
        data.map_operands(|x| Value::from_index(x.index() + 10));
        let mut ops = Vec::new();
        data.for_each_operand(|x| ops.push(x.index()));
        assert_eq!(ops, vec![10, 11]);
    }

    #[test]
    fn total_arithmetic_semantics() {
        assert_eq!(BinaryOp::Iadd.eval(i64::MAX, 1), i64::MIN); // wraps
        assert_eq!(BinaryOp::Sdiv.eval(5, 0), 0);
        assert_eq!(BinaryOp::Sdiv.eval(i64::MIN, -1), i64::MIN);
        assert_eq!(BinaryOp::Srem.eval(5, 0), 5);
        assert_eq!(BinaryOp::Srem.eval(i64::MIN, -1), 0);
        assert_eq!(BinaryOp::IcmpSlt.eval(-1, 0), 1);
        assert_eq!(BinaryOp::IcmpSle.eval(1, 0), 0);
        assert_eq!(UnaryOp::Ineg.eval(i64::MIN), i64::MIN);
        assert_eq!(UnaryOp::Bnot.eval(0), -1);
        assert_eq!(UnaryOp::Copy.eval(7), 7);
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<&str> = BinaryOp::ALL.iter().map(|o| o.mnemonic()).collect();
        names.extend(UnaryOp::ALL.iter().map(|o| o.mnemonic()));
        names.push("iconst");
        names.push("jump");
        names.push("brif");
        names.push("return");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate mnemonic");
        for op in UnaryOp::ALL {
            assert_eq!(UnaryOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        for op in BinaryOp::ALL {
            assert_eq!(BinaryOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        for other in ["iconst", "jump", "brif", "return", "Iadd", ""] {
            assert_eq!(UnaryOp::from_mnemonic(other), None);
            assert_eq!(BinaryOp::from_mnemonic(other), None);
        }
    }

    #[test]
    fn branch_targets_access() {
        let mut data = InstData::Jump {
            dest: BlockCall::no_args(Block::from_index(3)),
        };
        assert_eq!(data.branch_targets().len(), 1);
        data.branch_targets_mut().next().unwrap().args.push(v(9));
        let mut ops = Vec::new();
        data.for_each_operand(|x| ops.push(x));
        assert_eq!(ops, vec![v(9)]);
        assert!(InstData::Return { args: vec![] }
            .branch_targets()
            .next()
            .is_none());

        // `brif` yields then, else; the length counts down exactly.
        let mut brif = InstData::Brif {
            cond: v(0),
            then_dest: BlockCall::no_args(Block::from_index(1)),
            else_dest: BlockCall::no_args(Block::from_index(2)),
        };
        let mut targets = brif.branch_targets();
        assert_eq!(targets.len(), 2);
        assert_eq!(targets.next().map(|c| c.block.index()), Some(1));
        assert_eq!(targets.len(), 1);
        assert_eq!(targets.next().map(|c| c.block.index()), Some(2));
        assert_eq!(targets.len(), 0);
        assert!(targets.next().is_none());
        brif.branch_targets_mut().nth(1).unwrap().block = Block::from_index(5);
        let blocks: Vec<usize> = brif.branch_targets().map(|c| c.block.index()).collect();
        assert_eq!(blocks, vec![1, 5]);
    }
}
