//! The interference test of Budimlić et al. ("Fast Copy Coalescing and
//! Live-Range Identification", PLDI 2002), as used by LAO's SSA
//! destruction per §6.2 of the paper:
//!
//! > "The interference test employed was proposed by Budimlić et al.
//! > and uses SSA properties and liveness to determine if two variables
//! > interfere. Basically, it decides whether one variable is live
//! > directly after the instruction that defines the other one."
//!
//! Under strict SSA, two values can only interfere if one's definition
//! dominates the other's; it then suffices to test liveness of the
//! dominating value at the dominated definition point. No interference
//! graph is ever built.
//!
//! The test is written against the workspace-wide
//! [`LivenessProvider`] interface: "live directly after the defining
//! instruction" is exactly a [`ProgramPoint`](fastlive_ir::ProgramPoint)
//! query ([`LivenessProvider::live_at`] at
//! [`Function::def_point`](fastlive_ir::Function::def_point)), so the
//! per-query def-use-chain shim this crate used to carry is gone.
//! Detached definitions (a removed defining instruction) surface as
//! [`PointError`] instead of panicking.

use fastlive_cfg::DomTree;
use fastlive_core::{LivenessProvider, PointError};
use fastlive_ir::{Function, Value};

/// The Budimlić test: do SSA values `a` and `b` interfere (are they
/// simultaneously live somewhere)?
///
/// * If neither definition point dominates the other, the live ranges
///   cannot overlap under strict SSA: no interference.
/// * Otherwise the value defined *higher* is tested for liveness just
///   after the *lower* definition — one point query.
///
/// Two values defined at the same point (two parameters of one block)
/// interfere iff both are still in use at all. A value defined in a
/// block unreachable from the entry interferes with nothing: no
/// execution writes it.
///
/// Errs with [`PointError::DefinitionRemoved`] if either value's
/// defining instruction has been removed from its block.
pub fn values_interfere<E: LivenessProvider>(
    engine: &mut E,
    func: &Function,
    dom: &DomTree,
    a: Value,
    b: Value,
) -> Result<bool, PointError> {
    if a == b {
        return Ok(false);
    }
    let pa = func.def_point(a).ok_or(PointError::DefinitionRemoved(a))?;
    let pb = func.def_point(b).ok_or(PointError::DefinitionRemoved(b))?;
    if !dom.is_reachable(pa.block().as_u32()) || !dom.is_reachable(pb.block().as_u32()) {
        return Ok(false);
    }
    if pa == pb {
        // Two parameters of the same block (the only way definition
        // points coincide). Entry parameters always conflict: they are
        // bound to distinct argument slots and must keep distinct
        // locations. Other block parameters bind simultaneously and
        // produce no write in the out-of-SSA program, so they conflict
        // exactly when both are ever live.
        if pa.block() == func.entry_block() {
            return Ok(true);
        }
        return Ok(engine.live_at(func, a, pa)? && engine.live_at(func, b, pb)?);
    }
    // Order so that `hi` is defined strictly above `lo`. Note that `lo`
    // being dead does not excuse it: its definition still *writes* the
    // shared location, which must not clobber a live `hi`.
    let (ba, bb) = (pa.block(), pb.block());
    let a_first = if ba == bb {
        pa < pb
    } else if dom.strictly_dominates(ba.as_u32(), bb.as_u32()) {
        true
    } else if dom.strictly_dominates(bb.as_u32(), ba.as_u32()) {
        false
    } else {
        return Ok(false); // incomparable definitions never interfere
    };
    let (hi, lo_point) = if a_first { (a, pb) } else { (b, pa) };
    engine.live_at(func, hi, lo_point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::CheckerEngine;
    use fastlive_cfg::{DfsTree, DomTree};
    use fastlive_ir::{parse_function, ProgramPoint};

    fn setup(src: &str) -> (Function, DomTree, CheckerEngine) {
        let f = parse_function(src).expect("parses");
        let dfs = DfsTree::compute(&f);
        let dom = DomTree::compute(&f, &dfs);
        let engine = CheckerEngine::compute(&f);
        (f, dom, engine)
    }

    fn interfere<E: LivenessProvider>(
        e: &mut E,
        f: &Function,
        dom: &DomTree,
        a: Value,
        b: Value,
    ) -> bool {
        values_interfere(e, f, dom, a, b).expect("no detached definitions in these tests")
    }

    #[test]
    fn overlapping_ranges_interfere() {
        let (f, dom, mut e) = setup(
            "function %f { block0(v0):
                v1 = iconst 1
                v2 = iadd v0, v1
                v3 = iadd v0, v2
                return v3 }",
        );
        let v0 = f.value("v0").unwrap();
        let v1 = f.value("v1").unwrap();
        let v2 = f.value("v2").unwrap();
        let v3 = f.value("v3").unwrap();
        // v0 is live across everything: interferes with v1 and v2.
        assert!(interfere(&mut e, &f, &dom, v0, v1));
        assert!(interfere(&mut e, &f, &dom, v1, v0)); // symmetric
        assert!(interfere(&mut e, &f, &dom, v0, v2));
        // v1 dies at the v2 definition: v1 vs v3 do not interfere.
        assert!(!interfere(&mut e, &f, &dom, v1, v3));
        // A value never interferes with itself.
        assert!(!interfere(&mut e, &f, &dom, v2, v2));
    }

    #[test]
    fn sibling_branches_do_not_interfere() {
        let (f, dom, mut e) = setup(
            "function %f { block0(v0):
                brif v0, block1, block2
            block1:
                v1 = iconst 1
                return v1
            block2:
                v2 = iconst 2
                return v2 }",
        );
        let v1 = f.value("v1").unwrap();
        let v2 = f.value("v2").unwrap();
        assert!(!interfere(&mut e, &f, &dom, v1, v2));
        assert!(!interfere(&mut e, &f, &dom, v2, v1));
    }

    #[test]
    fn same_block_params_interfere_when_both_used() {
        let (f, dom, mut e) = setup(
            "function %f { block0(v0, v1):
                v2 = iadd v0, v1
                return v2 }",
        );
        let v0 = f.value("v0").unwrap();
        let v1 = f.value("v1").unwrap();
        assert!(interfere(&mut e, &f, &dom, v0, v1));
        // Entry parameters conflict even when one is dead: they occupy
        // distinct argument slots.
        let (g, gdom, mut ge) = setup(
            "function %g { block0(v0, v1):
                return v0 }",
        );
        let g0 = g.value("v0").unwrap();
        let g1 = g.value("v1").unwrap();
        assert!(interfere(&mut ge, &g, &gdom, g0, g1));
        // Non-entry sibling parameters with a dead side do not.
        let (h, hdom, mut he) = setup(
            "function %h { block0(v0, v1):
                jump block1(v0, v1)
            block1(v2, v3):
                return v2 }",
        );
        let h2 = h.value("v2").unwrap();
        let h3 = h.value("v3").unwrap();
        assert!(!interfere(&mut he, &h, &hdom, h2, h3));
    }

    #[test]
    fn live_through_a_loop_interferes_with_loop_values() {
        let (f, dom, mut e) = setup(
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
        );
        let v0 = f.value("v0").unwrap(); // loop bound, live throughout
        let v2 = f.value("v2").unwrap(); // loop-carried counter
        let v4 = f.value("v4").unwrap();
        assert!(interfere(&mut e, &f, &dom, v0, v2));
        assert!(interfere(&mut e, &f, &dom, v0, v4));
        // v2 dies at the iadd; v4 defined there: no interference...
        // except v2 is *not* used after v4's def and not live-out:
        assert!(!interfere(&mut e, &f, &dom, v2, v4));
    }

    #[test]
    fn unreachable_definitions_interfere_with_nothing() {
        let (mut f, _, _) = setup(
            "function %f { block0(v0):
                v1 = iconst 1
                brif v0, block1, block2
            block1:
                v2 = iadd v0, v1
                return v2
            block2:
                return v0 }",
        );
        // block0 now branches to block2 both ways: block1 is orphaned.
        let term = f.terminator(f.entry_block()).unwrap();
        let b2 = f.block("block2").unwrap();
        f.redirect_branch_target(term, 0, b2, Vec::new());
        let dfs = DfsTree::compute(&f);
        let dom = DomTree::compute(&f, &dfs);
        let mut e = CheckerEngine::compute(&f);
        let v0 = f.value("v0").unwrap();
        let v2 = f.value("v2").unwrap();
        assert!(!interfere(&mut e, &f, &dom, v0, v2));
        assert!(!interfere(&mut e, &f, &dom, v2, v0));
    }

    #[test]
    fn point_queries_respect_positions() {
        let (f, _, mut e) = setup(
            "function %f { block0(v0):
                v1 = iconst 1
                v2 = iadd v0, v1
                return v2 }",
        );
        let b0 = f.entry_block();
        let v1 = f.value("v1").unwrap();
        // v1 live after its def (pos 0), dead after the iadd (pos 1).
        assert_eq!(e.live_at(&f, v1, ProgramPoint::after(b0, 0)), Ok(true));
        assert_eq!(e.live_at(&f, v1, ProgramPoint::after(b0, 1)), Ok(false));
        // Not live before its own definition (the block entry).
        assert_eq!(e.live_at(&f, v1, ProgramPoint::block_entry(b0)), Ok(false));
        assert_eq!(e.live_after_def(&f, v1), Ok(true));
    }

    #[test]
    fn detached_definition_surfaces_as_an_error() {
        let (mut f, _, _) = setup(
            "function %f { block0(v0):
                v1 = iconst 1
                return v0 }",
        );
        let v1 = f.value("v1").unwrap();
        let dead = f.block_insts(f.entry_block())[0];
        f.remove_inst(dead);
        // Recompute dominators/engine on the edited function.
        let dfs = DfsTree::compute(&f);
        let dom = DomTree::compute(&f, &dfs);
        let mut e = CheckerEngine::compute(&f);
        let v0 = f.value("v0").unwrap();
        assert_eq!(
            values_interfere(&mut e, &f, &dom, v0, v1),
            Err(PointError::DefinitionRemoved(v1))
        );
    }
}
