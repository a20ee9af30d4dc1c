//! A brute-force liveness oracle implementing Definition 2 by literal
//! path search — the ground truth for every engine in the workspace.
//!
//! *"A variable `a` is live-in at a node `q` if there exists a path
//! from `q` to a node `u` where `a` is used and that path does not
//! contain `def(a)`."* The oracle searches for exactly such a path with
//! a BFS that refuses to enter `def(a)`. No dominance, no SSA tricks —
//! `O(V + E)` per query, unusable in a compiler, perfect in a test.
//!
//! The engines being checked assume strict SSA (every use dominated by
//! the definition) and reachable query blocks; callers of the oracle
//! must respect the same preconditions for comparisons to be
//! meaningful, and the randomized test suites do.

use fastlive_graph::{Cfg, NodeId};
use fastlive_ir::{Block, Function, ProgramPoint, Value};

/// Definition 2 by path search: is a variable defined at `def` and used
/// at `uses` live-in at `q`?
pub fn live_in<G: Cfg>(g: &G, def: NodeId, uses: &[NodeId], q: NodeId) -> bool {
    if q == def {
        // Every path from q contains def; the trivial path too.
        return false;
    }
    // BFS from q over G, never entering def.
    let mut seen = vec![false; g.num_nodes()];
    seen[q as usize] = true;
    let mut queue = vec![q];
    // The trivial path (just q) counts: a use at q witnesses liveness.
    while let Some(x) = queue.pop() {
        if uses.contains(&x) {
            return true; // x != def by construction
        }
        for &s in g.succs(x) {
            if s != def && !seen[s as usize] {
                seen[s as usize] = true;
                queue.push(s);
            }
        }
    }
    false
}

/// Definition 3: live-out iff live-in at some successor.
pub fn live_out<G: Cfg>(g: &G, def: NodeId, uses: &[NodeId], q: NodeId) -> bool {
    g.succs(q).iter().any(|&s| live_in(g, def, uses, s))
}

/// [`live_in`] for an IR value, with `def`/`uses` taken from the
/// function's def-use chains (Definition-1 use attribution).
pub fn live_in_value(func: &Function, v: Value, q: Block) -> bool {
    let uses: Vec<NodeId> = func.use_blocks(v).map(|b| b.as_u32()).collect();
    live_in(func, func.def_block(v).as_u32(), &uses, q.as_u32())
}

/// [`live_out`] for an IR value.
pub fn live_out_value(func: &Function, v: Value, q: Block) -> bool {
    let uses: Vec<NodeId> = func.use_blocks(v).map(|b| b.as_u32()).collect();
    live_out(func, func.def_block(v).as_u32(), &uses, q.as_u32())
}

/// Program-point liveness by literal backward simulation — the ground
/// truth for the point-granularity queries (`is_live_at` and the
/// `LivenessProvider` decomposition of `fastlive-core`).
///
/// Starts from the path-search [`live_out_value`] answer at the block
/// exit and walks the block's instructions *backward* down to `p`,
/// applying the textbook transfer function one instruction at a time:
/// crossing a definition of `v` kills it, crossing a use of `v`
/// (operands and branch arguments alike — Definition 1 attributes both
/// to this block) makes it live. No decomposition, no dominance — just
/// the definition of liveness at a point, `O(V + E + block length)`
/// per query.
pub fn live_at_value(func: &Function, v: Value, p: ProgramPoint) -> bool {
    let b = p.block();
    let mut live = live_out_value(func, v, b);
    let insts = func.block_insts(b);
    for i in (p.next_index()..insts.len()).rev() {
        let inst = insts[i];
        if func.inst_result(inst) == Some(v) {
            live = false; // the definition kills everything above it
        }
        let mut used = false;
        func.inst_data(inst).for_each_operand(|u| {
            if u == v {
                used = true;
            }
        });
        if used {
            live = true;
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IterativeLiveness, LaoLiveness, VarUniverse};
    use fastlive_graph::DiGraph;
    use fastlive_ir::parse_function;

    #[test]
    fn trivial_path_counts() {
        let g = DiGraph::from_edges(2, 0, &[(0, 1)]);
        // Use at q itself, def elsewhere: live (trivial path).
        assert!(live_in(&g, 0, &[1], 1));
        // Live-in at the def block is always false.
        assert!(!live_in(&g, 0, &[0], 0));
    }

    #[test]
    fn paths_may_not_cross_the_definition() {
        // 0 -> 1 -> 2; def at 1, use at 2: not live-in at 0 because the
        // only path 0..2 passes the definition.
        let g = DiGraph::from_edges(3, 0, &[(0, 1), (1, 2)]);
        assert!(!live_in(&g, 1, &[2], 0));
        assert!(live_in(&g, 1, &[2], 2));
        assert!(live_out(&g, 1, &[2], 1));
        assert!(!live_out(&g, 1, &[2], 2));
    }

    #[test]
    fn loop_paths_found() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        // def 0, use 1: the back edge keeps it live out of 2.
        assert!(live_out(&g, 0, &[1], 2));
        assert!(!live_in(&g, 0, &[1], 3));
    }

    #[test]
    fn figure3_matches_narration() {
        let g = DiGraph::from_edges(
            11,
            0,
            &[
                (0, 1),
                (1, 2),
                (1, 10),
                (2, 3),
                (2, 7),
                (3, 4),
                (4, 5),
                (5, 6),
                (5, 4),
                (6, 1),
                (7, 8),
                (8, 9),
                (8, 5),
                (9, 7),
                (9, 10),
            ],
        );
        assert!(live_in(&g, 2, &[8], 9)); // x live-in at 10 (paper)
        assert!(live_in(&g, 2, &[4], 9)); // y live-in at 10
        assert!(!live_in(&g, 1, &[3], 9)); // w not live at 10
        assert!(!live_in(&g, 2, &[8], 3)); // x not live-in at 4
    }

    #[test]
    fn point_oracle_simulates_within_blocks() {
        let f = parse_function(
            "function %f { block0(v0):
                v1 = iconst 1
                v2 = iadd v0, v1
                return v2 }",
        )
        .unwrap();
        let b0 = f.entry_block();
        let v0 = f.params()[0];
        let v1 = f.value("v1").unwrap();
        let v2 = f.value("v2").unwrap();
        let points: Vec<ProgramPoint> = f.block_points(b0).collect();
        // v0: live until the iadd consumes it.
        assert!(live_at_value(&f, v0, points[0]));
        assert!(live_at_value(&f, v0, points[1]));
        assert!(!live_at_value(&f, v0, points[2]));
        // v1: born after the iconst, dead after the iadd.
        assert!(!live_at_value(&f, v1, points[0]));
        assert!(live_at_value(&f, v1, points[1]));
        assert!(!live_at_value(&f, v1, points[2]));
        // v2: live only between the iadd and the return.
        assert!(!live_at_value(&f, v2, points[1]));
        assert!(live_at_value(&f, v2, points[2]));
        assert!(!live_at_value(&f, v2, points[3]));
    }

    #[test]
    fn point_oracle_carries_loop_liveness_across_blocks() {
        let f = parse_function(
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
        .unwrap();
        let v0 = f.params()[0];
        let b1 = f.blocks().nth(1).unwrap();
        // The loop bound is live at every point of the body.
        for p in f.block_points(b1) {
            assert!(live_at_value(&f, v0, p), "{p}");
        }
        // v0 is live-out of block0 (the loop compare needs it), so it
        // is live at every entry-block point too.
        for p in f.block_points(f.entry_block()) {
            assert!(live_at_value(&f, v0, p), "{p}");
        }
    }

    #[test]
    fn all_dataflow_engines_match_the_oracle() {
        let f = parse_function(
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
        .unwrap();
        let u = VarUniverse::all(&f);
        let iter = IterativeLiveness::compute(&f, &u);
        let lao = LaoLiveness::compute(&f, &u);
        for v in f.values() {
            for b in f.blocks() {
                let want_in = live_in_value(&f, v, b);
                let want_out = live_out_value(&f, v, b);
                assert_eq!(iter.is_live_in(v, b), want_in, "iter in {v} {b}");
                assert_eq!(lao.is_live_in(v, b), want_in, "lao in {v} {b}");
                assert_eq!(iter.is_live_out(v, b), want_out, "iter out {v} {b}");
                assert_eq!(lao.is_live_out(v, b), want_out, "lao out {v} {b}");
            }
        }
    }
}
