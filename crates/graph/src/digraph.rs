use std::fmt;

use crate::{Cfg, NodeId};

/// A plain adjacency-list directed graph implementing [`Cfg`].
///
/// `DiGraph` is the workhorse for unit tests, the workload generators and
/// the reconstruction of the paper's Figure 3, and it is the canonical
/// graph the engine rebuilds from every `CfgShape`. It stores both forward
/// and reverse adjacency so that [`Cfg::preds`] is O(1). Each direction
/// keeps every node's list in one arena, so building a graph costs a fixed
/// number of allocations whatever its size; equality and `Debug` describe
/// the adjacency lists, never the arena layout.
///
/// # Examples
///
/// Build the paper's Figure 3 CFG (nodes renumbered 0-based) and inspect it:
///
/// ```
/// use fastlive_graph::{Cfg, DiGraph};
///
/// let mut g = DiGraph::new(4, 0);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// g.add_edge(2, 1); // a loop back edge
/// g.add_edge(1, 3);
/// assert_eq!(g.succs(1), &[2, 3]);
/// assert_eq!(g.preds(1), &[0, 2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiGraph {
    entry: NodeId,
    succs: Adjacency,
    preds: Adjacency,
    num_edges: usize,
}

/// One direction of a graph's adjacency: node `v`'s list is
/// `arena[slots[v].start..][..slots[v].len]`, with room for `slots[v].cap`
/// entries before [`push`](Self::push) moves it to the arena's end.
#[derive(Clone)]
struct Adjacency {
    arena: Vec<NodeId>,
    slots: Vec<Slot>,
}

#[derive(Copy, Clone, Default)]
struct Slot {
    start: u32,
    len: u32,
    cap: u32,
}

impl Adjacency {
    /// Empty lists for `n` nodes, each with room for exactly as many
    /// entries as `owners` names its node, packed in node order.
    fn reserved(n: usize, owners: impl Iterator<Item = NodeId>) -> Self {
        let mut slots = vec![Slot::default(); n];
        for v in owners {
            slots[v as usize].cap += 1;
        }
        let mut end = 0u32;
        for slot in &mut slots {
            slot.start = end;
            end += slot.cap;
        }
        Adjacency {
            arena: vec![0; end as usize],
            slots,
        }
    }

    #[inline]
    fn list(&self, v: NodeId) -> &[NodeId] {
        let slot = self.slots[v as usize];
        &self.arena[slot.start as usize..(slot.start + slot.len) as usize]
    }

    /// Appends `x` to `v`'s list. A full list at the arena's end grows in
    /// place; any other full list moves to the end with room to double,
    /// so a sequence of pushes costs amortized O(1) each.
    fn push(&mut self, v: NodeId, x: NodeId) {
        let Adjacency { arena, slots } = self;
        let slot = &mut slots[v as usize];
        if slot.len == slot.cap {
            let end = u32::try_from(arena.len()).expect("adjacency arena fits u32 offsets");
            if slot.start + slot.cap != end {
                let (from, len) = (slot.start as usize, slot.len as usize);
                arena.extend_from_within(from..from + len);
                slot.start = end;
                slot.cap = slot.len;
            }
            if slot.len == slot.cap {
                let extra = slot.len.max(4);
                arena.resize(arena.len() + extra as usize, 0);
                slot.cap += extra;
            }
        }
        arena[(slot.start + slot.len) as usize] = x;
        slot.len += 1;
    }

    fn add_node(&mut self) {
        let start = u32::try_from(self.arena.len()).expect("adjacency arena fits u32 offsets");
        self.slots.push(Slot {
            start,
            ..Slot::default()
        });
    }

    fn lists(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.slots.len() as NodeId).map(|v| self.list(v))
    }
}

impl PartialEq for Adjacency {
    fn eq(&self, other: &Self) -> bool {
        self.slots.len() == other.slots.len() && self.lists().eq(other.lists())
    }
}

impl Eq for Adjacency {}

impl fmt::Debug for Adjacency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.lists()).finish()
    }
}

impl DiGraph {
    /// Creates a graph with `n` nodes, no edges, and entry node `entry`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `entry >= n`.
    pub fn new(n: usize, entry: NodeId) -> Self {
        Self::from_edges(n, entry, &[])
    }

    /// Creates a graph with `n` nodes and the given edge list.
    ///
    /// Edges keep their multiplicity and their order per source node
    /// (and per target node in the predecessor lists).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or any endpoint is out of range.
    pub fn from_edges(n: usize, entry: NodeId, edges: &[(NodeId, NodeId)]) -> Self {
        check_entry(n, entry);
        for &(u, v) in edges {
            check_edge(n, u, v);
        }
        let mut g = DiGraph {
            entry,
            succs: Adjacency::reserved(n, edges.iter().map(|&(u, _)| u)),
            preds: Adjacency::reserved(n, edges.iter().map(|&(_, v)| v)),
            num_edges: 0,
        };
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Creates a graph from every node's successor list, in node order,
    /// with both adjacency arenas sized exactly: four allocations,
    /// whatever the node and edge counts. Predecessor lists come out in
    /// source-major order, as if the edges had been added one by one in
    /// that order.
    ///
    /// # Panics
    ///
    /// Panics if `lists` is empty, or `entry` or a successor is out of
    /// range.
    ///
    /// # Examples
    ///
    /// ```
    /// use fastlive_graph::{Cfg, DiGraph};
    ///
    /// let lists: [&[u32]; 3] = [&[1, 2], &[2], &[]];
    /// let g = DiGraph::from_succ_lists(0, lists.into_iter());
    /// assert_eq!(g, DiGraph::from_edges(3, 0, &[(0, 1), (0, 2), (1, 2)]));
    /// assert_eq!(g.preds(2), &[0, 1]);
    /// ```
    pub fn from_succ_lists<'a, I>(entry: NodeId, lists: I) -> Self
    where
        I: Iterator<Item = &'a [NodeId]> + Clone,
    {
        let (n, num_edges) = lists
            .clone()
            .fold((0, 0), |(n, m), list| (n + 1, m + list.len()));
        check_entry(n, entry);
        let mut succs = Adjacency {
            arena: Vec::with_capacity(num_edges),
            slots: Vec::with_capacity(n),
        };
        for (u, list) in lists.enumerate() {
            for &v in list {
                check_edge(n, u as NodeId, v);
            }
            let start = succs.arena.len() as u32;
            succs.arena.extend_from_slice(list);
            let len = list.len() as u32;
            succs.slots.push(Slot {
                start,
                len,
                cap: len,
            });
        }
        let mut preds = Adjacency::reserved(n, succs.arena.iter().copied());
        for u in 0..n as NodeId {
            for &v in succs.list(u) {
                preds.push(v, u);
            }
        }
        DiGraph {
            entry,
            succs,
            preds,
            num_edges,
        }
    }

    /// Adds the directed edge `u -> v`. Parallel edges and self-loops are
    /// allowed.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        check_edge(self.num_nodes(), u, v);
        self.succs.push(u, v);
        self.preds.push(v, u);
        self.num_edges += 1;
    }

    /// Appends a fresh node with no edges and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.succs.add_node();
        self.preds.add_node();
        (self.num_nodes() - 1) as NodeId
    }

    /// Returns the graph with every edge reversed and the same entry node.
    ///
    /// Useful for backward analyses over the CFG.
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            entry: self.entry,
            succs: self.preds.clone(),
            preds: self.succs.clone(),
            num_edges: self.num_edges,
        }
    }

    /// Iterates over all edges `(u, v)` in source-major order, including
    /// parallel duplicates.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succs
            .lists()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as NodeId, v)))
    }
}

fn check_entry(n: usize, entry: NodeId) {
    assert!(n > 0, "a CFG needs at least one node");
    assert!(
        (entry as usize) < n,
        "entry {entry} out of range for {n} nodes"
    );
}

fn check_edge(n: usize, u: NodeId, v: NodeId) {
    assert!((u as usize) < n, "edge source {u} out of range");
    assert!((v as usize) < n, "edge target {v} out of range");
}

impl Cfg for DiGraph {
    fn num_nodes(&self) -> usize {
        self.succs.slots.len()
    }
    fn entry(&self) -> NodeId {
        self.entry
    }
    fn succs(&self, n: NodeId) -> &[NodeId] {
        self.succs.list(n)
    }
    fn preds(&self, n: NodeId) -> &[NodeId] {
        self.preds.list(n)
    }
    fn num_edges(&self) -> usize {
        self.num_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = DiGraph::new(3, 0);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert!(g.succs(0).is_empty());
        assert!(g.preds(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = DiGraph::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_entry_rejected() {
        let _ = DiGraph::new(2, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_rejected() {
        let mut g = DiGraph::new(2, 0);
        g.add_edge(0, 7);
    }

    #[test]
    fn preds_and_succs_are_mirrors() {
        let g = DiGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 1)]);
        for (u, v) in g.edges() {
            assert!(g.succs(u).contains(&v));
            assert!(g.preds(v).contains(&u));
        }
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn parallel_edges_keep_multiplicity() {
        let g = DiGraph::from_edges(2, 0, &[(0, 1), (0, 1)]);
        assert_eq!(g.succs(0), &[1, 1]);
        assert_eq!(g.preds(1), &[0, 0]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn self_loop_allowed() {
        let g = DiGraph::from_edges(2, 0, &[(0, 1), (1, 1)]);
        assert_eq!(g.succs(1), &[1]);
        assert_eq!(g.preds(1), &[0, 1]);
    }

    #[test]
    fn reversed_swaps_directions() {
        let g = DiGraph::from_edges(3, 0, &[(0, 1), (1, 2)]);
        let r = g.reversed();
        assert_eq!(r.succs(2), &[1]);
        assert_eq!(r.succs(1), &[0]);
        assert_eq!(r.num_edges(), 2);
        assert_eq!(r.entry(), 0);
    }

    #[test]
    fn add_node_extends_graph() {
        let mut g = DiGraph::new(1, 0);
        let n = g.add_node();
        assert_eq!(n, 1);
        g.add_edge(0, n);
        assert_eq!(g.succs(0), &[1]);
    }

    #[test]
    fn interleaved_pushes_keep_lists_and_equality() {
        // Alternating sources and targets move lists around the arena;
        // the lists, equality and `Debug` must not see the layout.
        let edges: Vec<_> = (0..60u32).map(|i| (i % 3, (i * 7) % 5)).collect();
        let mut g = DiGraph::new(5, 0);
        for &(u, v) in &edges {
            g.add_edge(u, v);
        }
        let packed = DiGraph::from_edges(5, 0, &edges);
        assert_eq!(g, packed);
        assert_eq!(format!("{g:?}"), format!("{packed:?}"));
        for u in 0..5 {
            let want: Vec<_> = edges.iter().filter(|e| e.0 == u).map(|e| e.1).collect();
            assert_eq!(g.succs(u), want.as_slice());
            let want: Vec<_> = edges.iter().filter(|e| e.1 == u).map(|e| e.0).collect();
            assert_eq!(g.preds(u), want.as_slice());
        }
        let n = g.add_node();
        g.add_edge(n, 0);
        g.add_edge(1, n);
        assert_eq!(g.succs(n), &[0]);
        assert_eq!(g.preds(n), &[1]);
        assert_ne!(g, packed);
    }

    #[test]
    fn debug_lists_adjacency() {
        let g = DiGraph::from_edges(2, 0, &[(0, 1)]);
        assert_eq!(
            format!("{g:?}"),
            "DiGraph { entry: 0, succs: [[1], []], preds: [[], [0]], num_edges: 1 }"
        );
    }

    #[test]
    fn succ_lists_build_the_same_graph_as_edges() {
        let lists: [&[NodeId]; 4] = [&[1, 1, 3], &[2], &[0, 2], &[]];
        let g = DiGraph::from_succ_lists(0, lists.iter().copied());
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(g, DiGraph::from_edges(4, 0, &edges));
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn succ_lists_reject_bad_targets() {
        let lists: [&[NodeId]; 2] = [&[1], &[2]];
        let _ = DiGraph::from_succ_lists(0, lists.iter().copied());
    }

    #[test]
    fn edges_iterates_in_source_major_order() {
        let g = DiGraph::from_edges(3, 0, &[(1, 2), (0, 1), (0, 2)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn cfg_trait_for_references() {
        fn count<G: Cfg>(g: G) -> usize {
            g.num_edges()
        }
        let g = DiGraph::from_edges(2, 0, &[(0, 1)]);
        assert_eq!(count(&g), 1);
        assert_eq!(count(&g), 1);
    }
}
