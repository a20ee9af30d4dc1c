//! Property-based tests (proptest): randomized graphs and set
//! operations shrunk to minimal counterexamples.

use std::collections::BTreeSet;

use fastlive::bitset::{DenseBitSet, SortedSet, SparseSet};
use fastlive::cfg::{DfsTree, DomTree, EdgeClass};
use fastlive::core::baseline::{LoopForestChecker, ReferenceChecker, SortedLivenessChecker};
use fastlive::core::LivenessChecker;
use fastlive::dataflow::oracle;
use fastlive::graph::{Cfg as _, DiGraph};
use proptest::prelude::*;

/// Strategy: a connected digraph of `n ≤ 12` nodes — a random tree
/// backbone (keeps all nodes reachable) plus arbitrary extra edges.
fn digraphs() -> impl Strategy<Value = DiGraph> {
    (2usize..12).prop_flat_map(|n| {
        let backbone = proptest::collection::vec(0u32..(n as u32), n - 1);
        let extras = proptest::collection::vec((0u32..(n as u32), 0u32..(n as u32)), 0..2 * n);
        (Just(n), backbone, extras).prop_map(|(n, parents, extras)| {
            let mut g = DiGraph::new(n, 0);
            for (i, &p) in parents.iter().enumerate() {
                let v = (i + 1) as u32;
                g.add_edge(p % v, v); // parent index below v: stays a DAG backbone
            }
            for (u, v) in extras {
                g.add_edge(u, v);
            }
            g
        })
    })
}

/// Strategy: a [`digraphs`] graph plus 1–4 orphan nodes numbered after
/// it, with edges among the orphans and into the reachable part but
/// none out of it, so no orphan is reachable from the entry.
fn orphaned_digraphs() -> impl Strategy<Value = DiGraph> {
    (digraphs(), 1u32..5).prop_flat_map(|(g, k)| {
        let n = g.num_nodes() as u32;
        let edges = proptest::collection::vec((n..n + k, 0..n + k), 1..3 * k as usize);
        (Just(g), Just(k), edges).prop_map(|(mut g, k, edges)| {
            for _ in 0..k {
                g.add_node();
            }
            for (u, v) in edges {
                g.add_edge(u, v);
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The checker agrees with the Definition-2 oracle on every query
    /// whose (def, use) pair satisfies strict SSA (def dominates use).
    #[test]
    fn checker_matches_oracle(g in digraphs()) {
        let dfs = DfsTree::compute(&g);
        let dom = DomTree::compute(&g, &dfs);
        let live = LivenessChecker::compute(&g);
        let n = g.num_nodes() as u32;
        for def in 0..n {
            for u in 0..n {
                if !dfs.is_reachable(def) || !dfs.is_reachable(u) || !dom.dominates(def, u) {
                    continue;
                }
                for q in 0..n {
                    if !dfs.is_reachable(q) {
                        continue;
                    }
                    let uses = [u];
                    prop_assert_eq!(
                        live.is_live_in(def, &uses, q),
                        oracle::live_in(&g, def, &uses, q),
                        "live-in def={} use={} q={}", def, u, q
                    );
                    prop_assert_eq!(
                        live.is_live_out(def, &uses, q),
                        oracle::live_out(&g, def, &uses, q),
                        "live-out def={} use={} q={}", def, u, q
                    );
                }
            }
        }
    }

    /// The baseline checkers (sorted arrays, the reference sets and,
    /// on reducible graphs, the loop forest) answer like the bitset
    /// engine on every `(def, [use], q)` triple — on connected graphs
    /// and on graphs with orphan nodes, whose triples the
    /// unreachable-code rule of `fastlive_core`'s crate docs decides.
    #[test]
    fn sorted_engine_matches_bitset_engine(g in digraphs(), orphaned in orphaned_digraphs()) {
        for g in [g, orphaned] {
            let bitset = LivenessChecker::compute(&g);
            let sorted = SortedLivenessChecker::compute(&g);
            let reference = ReferenceChecker::compute(&g);
            let forest = LoopForestChecker::compute(&g);
            let n = g.num_nodes() as u32;
            for def in 0..n {
                for u in 0..n {
                    for q in 0..n {
                        let uses = [u];
                        let want = (
                            bitset.is_live_in(def, &uses, q),
                            bitset.is_live_out(def, &uses, q),
                        );
                        let sorted_answer = (
                            sorted.is_live_in(def, &uses, q),
                            sorted.is_live_out(def, &uses, q),
                        );
                        let reference_answer = (
                            reference.is_live_in(def, &uses, q),
                            reference.is_live_out(def, &uses, q),
                        );
                        let forest_answer = forest.as_ref().map_or(want, |f| {
                            (f.is_live_in(def, &uses, q), f.is_live_out(def, &uses, q))
                        });
                        for (name, got) in [
                            ("sorted", sorted_answer),
                            ("reference", reference_answer),
                            ("loop forest", forest_answer),
                        ] {
                            prop_assert_eq!(
                                got, want,
                                "{} (live-in, live-out) def={} use={} q={} in {:?}",
                                name, def, u, q, g
                            );
                        }
                    }
                }
            }
        }
    }

    /// DFS invariants: postorder is a reverse topological order of the
    /// reduced graph; back edges target ancestors.
    #[test]
    fn dfs_invariants(g in digraphs()) {
        let dfs = DfsTree::compute(&g);
        for (u, v, class) in dfs.classified_edges() {
            match class {
                EdgeClass::Back => prop_assert!(dfs.is_ancestor(v, u)),
                EdgeClass::Unreachable => prop_assert!(!dfs.is_reachable(u)),
                _ => prop_assert!(dfs.post(u) > dfs.post(v), "({}, {}) {}", u, v, class),
            }
        }
    }

    /// Dominance facts: idom strictly dominates; num/maxnum intervals
    /// characterize dominance exactly.
    #[test]
    fn domtree_invariants(g in digraphs()) {
        let dfs = DfsTree::compute(&g);
        let dom = DomTree::compute(&g, &dfs);
        let n = g.num_nodes() as u32;
        for v in 0..n {
            if !dfs.is_reachable(v) {
                continue;
            }
            if let Some(i) = dom.idom(v) {
                prop_assert!(dom.strictly_dominates(i, v));
            }
            for w in 0..n {
                if !dfs.is_reachable(w) {
                    continue;
                }
                let interval = dom.num(w) >= dom.num(v) && dom.num(w) <= dom.maxnum(v);
                prop_assert_eq!(interval, dom.dominates(v, w));
            }
        }
    }

    /// DenseBitSet behaves like a model BTreeSet.
    #[test]
    fn dense_bitset_is_a_set(
        ops in proptest::collection::vec((0u32..192, any::<bool>()), 0..120)
    ) {
        let mut real = DenseBitSet::new(192);
        let mut model = BTreeSet::new();
        for (x, insert) in ops {
            if insert {
                prop_assert_eq!(real.insert(x), model.insert(x));
            } else {
                prop_assert_eq!(real.remove(x), model.remove(&x));
            }
        }
        prop_assert_eq!(real.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(real.len(), model.len());
        // next_set_bit agrees with range scans of the model.
        for from in 0..192u32 {
            let expect = model.range(from..).next().copied();
            prop_assert_eq!(real.next_set_bit(from), expect);
        }
    }

    /// SortedSet and SparseSet agree with the same model.
    #[test]
    fn sorted_and_sparse_sets_agree(
        elems in proptest::collection::vec(0u32..128, 0..80)
    ) {
        let mut sparse = SparseSet::new(128);
        let sorted: SortedSet = elems.iter().copied().collect();
        let model: BTreeSet<u32> = elems.iter().copied().collect();
        for &e in &elems {
            sparse.insert(e);
        }
        for x in 0..128u32 {
            prop_assert_eq!(sorted.contains(x), model.contains(&x));
            prop_assert_eq!(sparse.contains(x), model.contains(&x));
        }
        prop_assert_eq!(sorted.len(), model.len());
        prop_assert_eq!(sparse.len(), model.len());
    }

    /// Set algebra on DenseBitSet matches the model algebra.
    #[test]
    fn bitset_algebra(
        a in proptest::collection::btree_set(0u32..100, 0..40),
        b in proptest::collection::btree_set(0u32..100, 0..40)
    ) {
        let da = DenseBitSet::from_elems(100, a.iter().copied());
        let db = DenseBitSet::from_elems(100, b.iter().copied());
        let mut union = da.clone();
        union.union_with(&db);
        let mut inter = da.clone();
        inter.intersect_with(&db);
        let mut diff = da.clone();
        diff.difference_with(&db);
        prop_assert_eq!(union.iter().collect::<Vec<_>>(), a.union(&b).copied().collect::<Vec<_>>());
        prop_assert_eq!(inter.iter().collect::<Vec<_>>(), a.intersection(&b).copied().collect::<Vec<_>>());
        prop_assert_eq!(diff.iter().collect::<Vec<_>>(), a.difference(&b).copied().collect::<Vec<_>>());
        prop_assert_eq!(da.intersects(&db), !a.is_disjoint(&b));
        prop_assert_eq!(da.is_subset_of(&db), a.is_subset(&b));
    }
}
