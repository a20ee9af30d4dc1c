//! Regenerates the paper's figures as Graphviz sources:
//!
//! * **Figure 1** — DFS edge classes (tree/back/forward/cross) on a CFG
//!   with all four kinds, back edges dashed like in the paper.
//! * **Figure 3** — the 11-node example CFG, annotated with the
//!   dominance-tree preorder numbering (§5.1) and the sets `T_q` for
//!   the narrated queries.
//!
//! Pipe any of the emitted `digraph` blocks into `dot -Tsvg`.

use fastlive_cfg::{DfsTree, EdgeClass};
use fastlive_core::LivenessChecker;
use fastlive_graph::{dot, DiGraph};

/// Runs the suite (`--quick` changes nothing: the figures are tiny).
pub fn run(_quick: bool) {
    figure1();
    figure3();
}

/// A small graph exhibiting all four DFS edge classes.
fn figure1() {
    let g = DiGraph::from_edges(
        6,
        0,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (0, 3),
            (3, 4),
            (4, 2),
            (0, 2),
            (4, 4),
        ],
    );
    let dfs = DfsTree::compute(&g);
    println!("// Figure 1: DFS edge classification (back edges dashed)");
    let style = dot::Style {
        node_label: Box::new(|n| format!("{n}")),
        node_attrs: Box::new(|_| String::new()),
        edge_attrs: Box::new(|u, i, _| match dfs.edge_class_at(u, i) {
            EdgeClass::Back => "style=dashed, color=red, label=\"back\"".into(),
            EdgeClass::Cross => "color=blue, label=\"cross\"".into(),
            EdgeClass::Forward => "color=darkgreen, label=\"forward\"".into(),
            EdgeClass::Tree => "penwidth=2".into(),
            EdgeClass::Unreachable => "color=gray".into(),
        }),
    };
    println!("{}", dot::render(&g, "figure1", &style));
}

/// The paper's example CFG (nodes printed 1-based like the paper).
fn figure3() {
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
    let dfs = DfsTree::compute(&g);
    let live = LivenessChecker::compute(&g);
    println!("// Figure 3: the example CFG; labels show paper node / dom-preorder num");
    let style = dot::Style {
        node_label: Box::new(|n| format!("{} (num {})", n + 1, live.dom().num(n))),
        node_attrs: Box::new(|_| String::new()),
        edge_attrs: Box::new(|u, i, _| match dfs.edge_class_at(u, i) {
            EdgeClass::Back => "style=dashed".into(),
            _ => String::new(),
        }),
    };
    println!("{}", dot::render(&g, "figure3", &style));

    for (paper, q) in [(10u32, 9u32), (4, 3)] {
        let mut t: Vec<u32> = live.t_set(q).iter().map(|&x| x + 1).collect();
        t.sort_unstable();
        println!("// T_{paper} (paper numbering) = {t:?}");
    }
    println!("// narrated queries:");
    println!(
        "//   x (def 3, use 9) live-in at 10? {}",
        live.is_live_in(2, &[8], 9)
    );
    println!(
        "//   y (def 3, use 5) live-in at 10? {}",
        live.is_live_in(2, &[4], 9)
    );
    println!(
        "//   w (def 2, use 4) live-in at 10? {}",
        live.is_live_in(1, &[3], 9)
    );
    println!(
        "//   x (def 3, use 9) live-in at 4?  {}",
        live.is_live_in(2, &[8], 3)
    );
}
