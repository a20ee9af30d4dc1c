//! Fast liveness checking for SSA-form programs — the algorithm of
//! Boissinot, Hack, Grund, Dupont de Dinechin & Rastello (CGO 2008).
//!
//! # The idea
//!
//! Instead of solving backward data-flow equations for live *sets*, the
//! paper answers point queries — *"is variable `a` live-in/live-out at
//! block `q`?"* — from two ingredients:
//!
//! 1. A **variable-independent precomputation** over the CFG: for every
//!    block `v`, the set `R_v` of blocks reachable without traversing
//!    DFS back edges (Definition 4), and the set `T_v` of back-edge
//!    targets relevant to paths leaving `v` (Definition 5). Both are
//!    bitsets indexed by a dominance-tree preorder numbering (§5.1).
//! 2. The **def-use chain** of the queried variable, read at query time.
//!
//! A live-in query (Algorithm 1/3) intersects `T_q` with the dominance
//! subtree of `def(a)` — a contiguous bit interval thanks to the
//! numbering — and reports liveness iff some use of `a` is
//! reduced-reachable from a surviving candidate. Because step 1 never
//! looks at variables, the precomputation survives *all* program edits
//! except CFG changes: insert instructions, clone values, delete uses —
//! every query stays exact with zero recomputation. That is the
//! property that makes the approach attractive for passes like SSA
//! destruction, register allocation and JIT pipelines.
//!
//! # Entry points
//!
//! Most applications should reach this crate through the
//! [`fastlive` facade](https://docs.rs/fastlive) (the workspace root
//! crate): `Fastlive::builder()` plus its typed `Query` layer wrap
//! every entry point below — and the engine, batching and persistence
//! tiers — behind one front door. The surfaces here remain the
//! building blocks:
//!
//! * [`LivenessChecker`] — the graph-level engine (any
//!   [`Cfg`](fastlive_graph::Cfg)): precomputation + Algorithm 1/2/3
//!   queries through one fused interval kernel per use.
//! * [`FunctionLiveness`] — the same engine bound to an
//!   [`fastlive_ir::Function`], reading live def-use chains, plus the
//!   program-point queries
//!   ([`is_live_at`](FunctionLiveness::is_live_at),
//!   [`is_live_after_def`](FunctionLiveness::is_live_after_def)) that
//!   the Budimlić interference test of SSA destruction needs.
//! * [`LivenessProvider`] — the workspace-wide query trait: block and
//!   point queries behind one interface, with the point decomposition
//!   as a default implementation, so the checker, the batch snapshot
//!   and the `fastlive-dataflow` baselines are interchangeable to
//!   clients like SSA destruction.
//! * [`BatchLiveness`] — the dense consumer's entry point: live-in and
//!   live-out bit-matrix rows for **all** blocks at once, derived from
//!   the same precomputation by word-level row unions instead of
//!   per-query candidate scans
//!   ([`FunctionLiveness::batch`] binds it to a function).
//! * [`verify_strict_ssa`] — checks the paper's §2.2 prerequisite.
//! * [`baseline`] — the paper-reproduction code, fenced off from the
//!   production API: the sorted-array, loop-forest and literal
//!   reference checkers, the explicit candidate walk with §4.1 subtree
//!   skipping as an argument, and the scalar twins of the fused
//!   queries that the benchmarks and differential tests compare
//!   against.
//!
//! # Examples
//!
//! ```
//! use fastlive_core::LivenessChecker;
//! use fastlive_graph::DiGraph;
//!
//! // The paper's Figure 3 (nodes 0-based). One precomputation ...
//! let g = DiGraph::from_edges(
//!     11,
//!     0,
//!     &[
//!         (0, 1), (1, 2), (1, 10), (2, 3), (2, 7), (3, 4), (4, 5),
//!         (5, 6), (5, 4), (6, 1), (7, 8), (8, 9), (8, 5), (9, 7), (9, 10),
//!     ],
//! );
//! let live = LivenessChecker::compute(&g);
//!
//! // ... answers every query of §3.2 (paper node k is k-1 here):
//! assert!(live.is_live_in(2, &[8], 9));  // x live-in at 10? yes
//! assert!(live.is_live_in(2, &[4], 9));  // y live-in at 10? yes
//! assert!(!live.is_live_in(1, &[3], 9)); // w live at 10? no
//! assert!(!live.is_live_in(2, &[8], 3)); // x live-in at 4? no
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod batch;
mod checker;
mod error;
mod function_liveness;
mod nullness;
mod precompute;
mod provider;
mod verify;

pub use batch::{BatchError, BatchLiveness};
pub use checker::LivenessChecker;
pub use error::AnalysisError;
pub use function_liveness::FunctionLiveness;
pub use nullness::{Nullness, NullnessArtifact, NullnessFacts};
pub use precompute::Precomputation;
pub use provider::{LivenessProvider, PointError};
pub use verify::{verify_strict_ssa, SsaError};
