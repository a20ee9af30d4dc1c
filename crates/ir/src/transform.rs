//! IR-level transformations.
//!
//! * [`split_critical_edges`] — the standard prerequisite of SSA
//!   destruction. A *critical edge* runs from a block with several
//!   successors to a block with several predecessors; the copies that
//!   replace φ-functions need a spot "on the edge" (the paper's §2.2:
//!   the φ assignment happens on the way from the predecessor), which
//!   only exists after splitting. **Changes the CFG** — liveness
//!   precomputations must be redone afterwards.
//! * [`remove_dead_block_params`] — drops φs whose result is never
//!   used, cascading (removing an argument may kill the producing φ's
//!   last use). **Does not change the CFG** — the paper's checker stays
//!   valid across it, which `tests` demonstrate.

use fastlive_graph::Cfg as _;

use crate::entities::Block;
use crate::function::Function;
use crate::instr::InstData;

/// Splits every critical edge of `func` by inserting an empty block with
/// a `jump`, moving the branch arguments onto the new edge. Returns the
/// newly created blocks.
///
/// After this pass, any block with multiple predecessors has only
/// single-successor predecessors, so SSA destruction can place copies at
/// the end of predecessors without affecting other paths.
///
/// # Examples
///
/// ```
/// use fastlive_graph::Cfg as _;
/// use fastlive_ir::{parse_function, split_critical_edges, verify_structure};
///
/// // block0 has two successors; block2 has two predecessors: the edge
/// // block0 -> block2 is critical.
/// let mut f = parse_function(
///     "function %f { block0(v0):
///         brif v0, block1, block2
///     block1:
///         jump block2
///     block2:
///         return }",
/// )?;
/// let new = split_critical_edges(&mut f);
/// assert_eq!(new.len(), 1);
/// verify_structure(&f)?;
/// assert_eq!(f.num_blocks(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn split_critical_edges(func: &mut Function) -> Vec<Block> {
    let mut created = Vec::new();
    let blocks: Vec<Block> = func.blocks().collect();
    for b in blocks {
        let Some(term) = func.terminator(b) else {
            continue;
        };
        let n_targets = func.inst_data(term).branch_targets().len();
        if n_targets < 2 {
            continue; // jumps and returns never start critical edges
        }
        for ti in 0..n_targets {
            let (dest, args) = {
                let call = func
                    .inst_data(term)
                    .branch_targets()
                    .nth(ti)
                    .expect("target index below the count");
                (call.block, call.args.clone())
            };
            if func.preds(dest.as_u32()).len() < 2 {
                continue; // not critical
            }
            let mid = func.add_block();
            created.push(mid);
            // The new block forwards the original arguments; the branch
            // now targets `mid` with no arguments.
            func.redirect_branch_target(term, ti, mid, Vec::new());
            func.append_inst(
                mid,
                InstData::Jump {
                    dest: crate::instr::BlockCall::with_args(dest, args),
                },
            );
        }
    }
    created
}

/// Removes every non-entry block parameter whose value is unused,
/// together with the branch arguments feeding it, iterating until no
/// dead parameter remains (an argument removal can kill its producer's
/// last use). Returns the number of parameters removed.
///
/// # Examples
///
/// ```
/// use fastlive_ir::{parse_function, remove_dead_block_params};
///
/// // block1's parameter is never read.
/// let mut f = parse_function(
///     "function %f { block0(v0):
///          jump block1(v0)
///      block1(v1):
///          return v0 }",
/// )?;
/// assert_eq!(remove_dead_block_params(&mut f), 1);
/// assert!(f.block_params(f.block_by_index(1)).is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn remove_dead_block_params(func: &mut Function) -> usize {
    let entry = func.entry_block();
    let mut removed = 0;
    loop {
        let mut victim = None;
        'scan: for b in func.blocks() {
            if b == entry {
                continue;
            }
            for (i, &p) in func.block_params(b).iter().enumerate() {
                if func.uses(p).is_empty() {
                    victim = Some((b, i));
                    break 'scan;
                }
            }
        }
        match victim {
            Some((b, i)) => {
                func.remove_block_param(b, i);
                removed += 1;
            }
            None => return removed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp;
    use crate::parser::parse_function;
    use crate::verify::verify_structure;

    /// No block with ≥2 preds may have a pred with ≥2 succs.
    fn assert_no_critical_edges(f: &Function) {
        for b in f.blocks() {
            if f.preds(b.as_u32()).len() >= 2 {
                for &p in f.preds(b.as_u32()) {
                    assert!(
                        f.succs(p).len() < 2,
                        "critical edge block{p} -> {b} survived"
                    );
                }
            }
        }
    }

    #[test]
    fn splits_diamond_shortcut() {
        let mut f = parse_function(
            "function %f { block0(v0):
                brif v0, block1, block2
            block1:
                jump block2
            block2:
                return v0 }",
        )
        .unwrap();
        let before = interp::run(&f, &[1], 100).unwrap().returned;
        let created = split_critical_edges(&mut f);
        assert_eq!(created.len(), 1);
        verify_structure(&f).expect("still valid");
        assert_no_critical_edges(&f);
        assert_eq!(interp::run(&f, &[1], 100).unwrap().returned, before);
    }

    #[test]
    fn loop_back_edge_with_args_is_split() {
        let mut f = parse_function(
            "function %count { block0(v0):
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
        .unwrap();
        // block1 has 2 preds (entry, itself) and its pred block1 has 2
        // succs: the back edge is critical.
        let created = split_critical_edges(&mut f);
        assert_eq!(created.len(), 1);
        verify_structure(&f).expect("still valid");
        assert_no_critical_edges(&f);
        // Arguments moved onto the new edge block's jump.
        let mid = created[0];
        let j = f.terminator(mid).unwrap();
        match f.inst_data(j) {
            InstData::Jump { dest } => assert_eq!(dest.args.len(), 1),
            other => panic!("expected jump, got {other:?}"),
        }
        // Semantics preserved.
        assert_eq!(interp::run(&f, &[5], 1_000).unwrap().returned, vec![5]);
    }

    #[test]
    fn no_op_without_critical_edges() {
        let mut f = parse_function(
            "function %f { block0(v0):
                brif v0, block1, block2
            block1:
                return v0
            block2:
                return }",
        )
        .unwrap();
        assert!(split_critical_edges(&mut f).is_empty());
        assert_eq!(f.num_blocks(), 3);
    }

    #[test]
    fn dead_param_cascade() {
        // v1 feeds v2 which feeds nothing: removing v2's parameter
        // kills v1's last use, so v1's parameter dies too.
        let mut f = parse_function(
            "function %cascade { block0(v0):
                jump block1(v0)
            block1(v1):
                jump block2(v1)
            block2(v2):
                return v0 }",
        )
        .unwrap();
        assert_eq!(remove_dead_block_params(&mut f), 2);
        verify_structure(&f).expect("still valid");
        assert!(f.block_params(f.block_by_index(1)).is_empty());
        assert!(f.block_params(f.block_by_index(2)).is_empty());
        assert_eq!(interp::run(&f, &[9], 100).unwrap().returned, vec![9]);
        f.check_use_chains().expect("chains consistent");
    }

    #[test]
    fn live_params_survive() {
        let mut f = parse_function(
            "function %keep { block0(v0):
                jump block1(v0)
            block1(v1):
                return v1 }",
        )
        .unwrap();
        assert_eq!(remove_dead_block_params(&mut f), 0);
        assert_eq!(f.block_params(f.block_by_index(1)).len(), 1);
    }

    #[test]
    fn middle_param_removal_reindexes_and_fixes_branches() {
        // Three params, the middle one dead: later params shift down and
        // every predecessor's argument list shrinks coherently.
        let mut f = parse_function(
            "function %mid { block0(v0, v1):
                brif v0, block1(v0, v1, v0), block1(v1, v0, v1)
            block1(v2, v3, v4):
                v5 = iadd v2, v4
                return v5 }",
        )
        .unwrap();
        assert_eq!(remove_dead_block_params(&mut f), 1);
        verify_structure(&f).expect("branch arity stays consistent");
        let b1 = f.block_by_index(1);
        assert_eq!(f.block_params(b1).len(), 2);
        // then-arm passed (v0, _, v0): the survivors compute v0 + v0.
        assert_eq!(interp::run(&f, &[21, 5], 100).unwrap().returned, vec![42]);
        // else-arm passed (v1, _, v1): v1 + v1.
        assert_eq!(interp::run(&f, &[0, 8], 100).unwrap().returned, vec![16]);
        f.check_use_chains().expect("chains consistent");
    }

    #[test]
    #[should_panic(expected = "still has uses")]
    fn removing_a_used_param_is_rejected() {
        let mut f = parse_function(
            "function %used { block0(v0):
                jump block1(v0)
            block1(v1):
                return v1 }",
        )
        .unwrap();
        f.remove_block_param(f.block_by_index(1), 0);
    }

    #[test]
    #[should_panic(expected = "function signature")]
    fn entry_params_cannot_be_removed() {
        let mut f = parse_function("function %sig { block0(v0): return }").unwrap();
        f.remove_block_param(f.entry_block(), 0);
    }

    #[test]
    fn brif_to_same_block_twice() {
        // Both targets point at block1, which therefore has 2 preds; both
        // edges are critical and each gets its own split block.
        let mut f = parse_function(
            "function %f { block0(v0):
                brif v0, block1(v0), block1(v0)
            block1(v1):
                return v1 }",
        )
        .unwrap();
        let created = split_critical_edges(&mut f);
        assert_eq!(created.len(), 2);
        verify_structure(&f).expect("still valid");
        assert_no_critical_edges(&f);
        assert_eq!(interp::run(&f, &[9], 100).unwrap().returned, vec![9]);
    }
}
