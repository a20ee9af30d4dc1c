//! Structural control-flow-graph analyses for the `fastlive` liveness
//! library.
//!
//! §2 of Boissinot et al. (CGO 2008) lists the prerequisites of the fast
//! liveness check; this crate provides each of them, generic over any
//! [`Cfg`](fastlive_graph::Cfg):
//!
//! * [`DfsTree`] — depth-first search spanning tree with pre/postorder
//!   numbering and the edge classification of Figure 1 (tree, back,
//!   forward, cross). The back-edge set `E↑` drives the whole paper.
//! * [`DomTree`] — dominator tree via the iterative algorithm of Cooper,
//!   Harvey & Kennedy, with the dominance-tree *preorder numbering*
//!   (`num`/`maxnum`) that §5.1 uses to iterate `T_q ∩ sdom(def(a))` as a
//!   bitset interval. A second, independent implementation
//!   ([`lengauer_tarjan`]) exists for cross-validation and benchmarking.
//! * [`DominanceFrontiers`] — Cytron et al. dominance frontiers and their
//!   iterated form, needed by SSA construction.
//! * [`Reducibility`] — the §2.1 test: a CFG is reducible iff every back
//!   edge's target dominates its source.
//! * [`LoopForest`] — Havlak's loop nesting forest, the structure the §8
//!   outlook proposes to exploit.
//!
//! # Examples
//!
//! ```
//! use fastlive_cfg::{DfsTree, DomTree};
//! use fastlive_graph::DiGraph;
//!
//! // A simple loop: 0 -> 1 -> 2 -> 1, 2 -> 3.
//! let g = DiGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
//! let dfs = DfsTree::compute(&g);
//! assert_eq!(dfs.back_edges(), &[(2, 1)]);
//!
//! let dom = DomTree::compute(&g, &dfs);
//! assert!(dom.dominates(1, 3));
//! assert!(!dom.dominates(2, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod dfs;
mod domfront;
mod domtree;
pub mod lengauer_tarjan;
mod loop_forest;
mod reducible;

pub use dfs::{DfsTree, EdgeClass};
pub use domfront::DominanceFrontiers;
pub use domtree::DomTree;
pub use loop_forest::{Loop, LoopForest, LoopId};
pub use reducible::Reducibility;
