//! The paper's Figure 3 example, reconstructed from the prose of §3.2,
//! exercised end to end: every claim the text makes about the graph
//! must hold for every engine in the workspace.

use fastlive::cfg::{DfsTree, DomTree, LoopForest, Reducibility};
use fastlive::core::baseline::{self, ReferenceChecker, SortedLivenessChecker};
use fastlive::core::LivenessChecker;
use fastlive::dataflow::oracle;
use fastlive::graph::DiGraph;

/// Paper nodes 1..=11 become 0..=10.
fn figure3() -> DiGraph {
    DiGraph::from_edges(
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
    )
}

/// The three variables of the narration, as (def block, use block),
/// 0-based: w = (2→1, 4→3), x = (3→2, 9→8), y = (3→2 or 2, 5→4).
const W: (u32, u32) = (1, 3);
const X: (u32, u32) = (2, 8);
const Y: (u32, u32) = (2, 4);

#[test]
fn back_edges_and_targets_match_the_paper() {
    let g = figure3();
    let dfs = DfsTree::compute(&g);
    // "All back edge targets (8, 5, 2)" — 0-based {7, 4, 1}.
    let mut targets: Vec<u32> = dfs.back_edges().iter().map(|&(_, t)| t).collect();
    targets.sort_unstable();
    assert_eq!(targets, vec![1, 4, 7]);
}

#[test]
fn the_example_is_irreducible() {
    // The {5,6} loop (paper) is entered both from 4 and via the cross
    // edge from 9: one back edge fails the dominance criterion.
    let g = figure3();
    let dfs = DfsTree::compute(&g);
    let dom = DomTree::compute(&g, &dfs);
    let red = Reducibility::compute(&dfs, &dom);
    assert!(!red.is_reducible());
    assert_eq!(red.irreducible_back_edges().len(), 1);
    assert_eq!(red.num_back_edges(), 3);
    // Havlak agrees: the loop headed by (paper) 5 is marked irreducible.
    let forest = LoopForest::compute(&g, &dfs);
    let l = forest.loop_headed_by(4).expect("loop at paper node 5");
    assert!(!forest.loop_ref(l).reducible);
}

#[test]
fn t_set_of_paper_node_10() {
    // §3.2: the relevant back-edge targets from (paper) 10 are
    // {10, 8, 5, 2}.
    let live = LivenessChecker::compute(&figure3());
    let mut t = live.t_set(9);
    t.sort_unstable();
    assert_eq!(t, vec![1, 4, 7, 9]);
    // And the Definition-5 reference agrees exactly here.
    let reference = ReferenceChecker::compute(&figure3());
    let t_ref: Vec<u32> = reference.t_set(9).iter().copied().collect();
    assert_eq!(t_ref, vec![1, 4, 7, 9]);
}

#[test]
fn narrated_queries_on_every_engine() {
    let g = figure3();
    let bitset = LivenessChecker::compute(&g);
    let sorted = SortedLivenessChecker::compute(&g);
    let reference = ReferenceChecker::compute(&g);

    // (variable, q, expected): the four §3.2 queries, 0-based.
    let cases = [
        (X, 9, true),  // "is x live-in at node 10?" — yes
        (Y, 9, true),  // "is y live-in at 10?" — yes, two back-edge hops
        (W, 9, false), // "is w live-in at 10?" — no
        (X, 3, false), // "is x live-in at 4?" — no
    ];
    for ((def, usage), q, expected) in cases {
        let uses = [usage];
        assert_eq!(
            oracle::live_in(&g, def, &uses, q),
            expected,
            "oracle {def}->{usage} at {q}"
        );
        assert_eq!(
            bitset.is_live_in(def, &uses, q),
            expected,
            "bitset {def}->{usage} at {q}"
        );
        assert_eq!(
            sorted.is_live_in(def, &uses, q),
            expected,
            "sorted {def}->{usage} at {q}"
        );
        assert_eq!(
            reference.is_live_in(def, &uses, q),
            expected,
            "reference {def}->{usage} at {q}"
        );
    }
}

#[test]
fn exhaustive_agreement_with_the_oracle_on_figure3() {
    // Every (def, use, q) triple with def dominating the use — the
    // strict-SSA precondition — must agree with Definition 2.
    let g = figure3();
    let dfs = DfsTree::compute(&g);
    let dom = DomTree::compute(&g, &dfs);
    let live = LivenessChecker::compute(&g);
    for def in 0..11u32 {
        for u in 0..11u32 {
            if !dom.dominates(def, u) {
                continue;
            }
            for q in 0..11u32 {
                let uses = [u];
                assert_eq!(
                    live.is_live_in(def, &uses, q),
                    oracle::live_in(&g, def, &uses, q),
                    "live-in def={def} use={u} q={q}"
                );
                assert_eq!(
                    live.is_live_out(def, &uses, q),
                    oracle::live_out(&g, def, &uses, q),
                    "live-out def={def} use={u} q={q}"
                );
            }
        }
    }
}

#[test]
fn figure3_as_an_ir_function() {
    // The same CFG as a real program: w defined at (paper) 2, x and y
    // at 3; w used at 4, y at 5, x at 9. The full IR stack must answer
    // the narrated queries like the graph-level checker does.
    use fastlive::core::{verify_strict_ssa, FunctionLiveness};
    use fastlive::ir::parse_function;

    let f = parse_function(
        "function %fig3 {
         block0:
             jump block1
         block1:
             v0 = iconst 1
             v1 = iconst 0
             brif v1, block2, block10
         block2:
             v2 = iconst 2
             v3 = iconst 3
             v4 = iconst 0
             brif v4, block3, block7
         block3:
             v5 = ineg v0
             jump block4
         block4:
             v6 = ineg v3
             jump block5
         block5:
             v7 = iconst 0
             brif v7, block6, block4
         block6:
             jump block1
         block7:
             jump block8
         block8:
             v8 = ineg v2
             v9 = iconst 0
             brif v9, block9, block5
         block9:
             v10 = iconst 0
             brif v10, block7, block10
         block10:
             return }",
    )
    .expect("parses");
    verify_strict_ssa(&f).expect("strict SSA");

    let live = FunctionLiveness::compute(&f);
    let w = f.value("v0").unwrap();
    let x = f.value("v2").unwrap();
    let y = f.value("v3").unwrap();
    let paper10 = f.block_by_index(9);
    let paper4 = f.block_by_index(3);

    assert!(live.is_live_in(&f, x, paper10), "x live-in at 10");
    assert!(live.is_live_in(&f, y, paper10), "y live-in at 10");
    assert!(!live.is_live_in(&f, w, paper10), "w not live at 10");
    assert!(!live.is_live_in(&f, x, paper4), "x not live-in at 4");

    // Cross-check against the oracle over the whole function.
    for v in [w, x, y] {
        for b in f.blocks() {
            assert_eq!(
                live.is_live_in(&f, v, b),
                oracle::live_in_value(&f, v, b),
                "live-in {v}@{b}"
            );
            assert_eq!(
                live.is_live_out(&f, v, b),
                oracle::live_out_value(&f, v, b),
                "live-out {v}@{b}"
            );
        }
    }
}

#[test]
fn w_fails_for_the_reason_the_paper_gives() {
    // "The problem is that 2 is not strictly dominated by def(w)":
    // paper node 2 (0-based 1) is w's own definition block, so the
    // intersection T_10 ∩ sdom(def(w)) drops it, and no surviving
    // candidate reaches the use.
    let g = figure3();
    let live = LivenessChecker::compute(&g);
    let candidates: Vec<u32> = baseline::candidates(&live, W.0, 9, true).collect();
    assert!(!candidates.contains(&W.0), "def(w) itself must be excluded");
    for t in candidates {
        assert!(
            !live.reduced_reachable(t, W.1),
            "no candidate may reach w's use (got {t})"
        );
    }
}

#[test]
fn x_at_4_fails_for_the_reason_the_paper_gives() {
    // "to reach 8 on a path from 4 the path must leave the dominance
    // subtree of def(x)": 8 (paper) is reachable from 4 in the full
    // graph but is not in T_4.
    let g = figure3();
    let live = LivenessChecker::compute(&g);
    // Paper 8 = node 7 is NOT in T_4 (node 3).
    assert!(!live.t_set(3).contains(&7));
    // Even though a path 4,5,6,7,2,3,8 exists in the full graph:
    // (0-based: 3,4,5,6,1,2,7 — check raw reachability.)
    let mut seen = [false; 11];
    let mut stack = vec![3u32];
    seen[3] = true;
    while let Some(n) = stack.pop() {
        use fastlive::graph::Cfg as _;
        for &s in g.succs(n) {
            if !seen[s as usize] {
                seen[s as usize] = true;
                stack.push(s);
            }
        }
    }
    assert!(seen[7], "paper node 8 is reachable from 4 in the full CFG");
}
