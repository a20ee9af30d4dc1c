use crate::{Cfg, NodeId};

/// A plain adjacency-list directed graph implementing [`Cfg`].
///
/// `DiGraph` is the workhorse for unit tests, the workload generators and
/// the reconstruction of the paper's Figure 3. It stores both forward and
/// reverse adjacency so that [`Cfg::preds`] is O(1).
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
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    num_edges: usize,
}

impl DiGraph {
    /// Creates a graph with `n` nodes, no edges, and entry node `entry`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `entry >= n`.
    pub fn new(n: usize, entry: NodeId) -> Self {
        assert!(n > 0, "a CFG needs at least one node");
        assert!(
            (entry as usize) < n,
            "entry {entry} out of range for {n} nodes"
        );
        DiGraph {
            entry,
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Creates a graph with `n` nodes and the given edge list.
    ///
    /// Edges keep their multiplicity and their order per source node.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or any endpoint is out of range.
    pub fn from_edges(n: usize, entry: NodeId, edges: &[(NodeId, NodeId)]) -> Self {
        let mut g = DiGraph::new(n, entry);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Adds the directed edge `u -> v`. Parallel edges and self-loops are
    /// allowed.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.num_nodes(),
            "edge source {u} out of range"
        );
        assert!(
            (v as usize) < self.num_nodes(),
            "edge target {v} out of range"
        );
        self.succs[u as usize].push(v);
        self.preds[v as usize].push(u);
        self.num_edges += 1;
    }

    /// Appends a fresh node with no edges and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        (self.succs.len() - 1) as NodeId
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
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as NodeId, v)))
    }
}

impl Cfg for DiGraph {
    fn num_nodes(&self) -> usize {
        self.succs.len()
    }
    fn entry(&self) -> NodeId {
        self.entry
    }
    fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succs[n as usize]
    }
    fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.preds[n as usize]
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
