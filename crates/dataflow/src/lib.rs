//! Baseline liveness engines and test oracles for the `fastlive`
//! workspace.
//!
//! The paper's evaluation (§6.2) compares its checker against the
//! production liveness analysis of the LAO code generator. This crate
//! re-implements that baseline from the paper's description, plus one
//! more reference point and the ground truth:
//!
//! * [`IterativeLiveness`] — a classic iterative data-flow solver with
//!   a stack worklist (Cooper, Harvey & Kennedy, "Iterative Data-Flow
//!   Analysis, Revisited"), bit-vector sets over a variable universe.
//! * [`LaoLiveness`] — the LAO engine as described in §6.2: a variable
//!   universe table with dense indices, Briggs–Torczon sparse sets for
//!   the local (per-block) analysis, global live sets stored as sorted
//!   dense arrays, and binary-search membership queries. Supports the
//!   φ-related-variable filtering LAO applies during SSA destruction.
//! * [`oracle`] — a brute-force implementation of Definition 2 (path
//!   search avoiding the definition), the ground truth every engine in
//!   the workspace is tested against; [`oracle::live_at_value`]
//!   extends it to program points by literal backward simulation
//!   inside the queried block.
//!
//! All engines implement the same block-granularity semantics as
//! `fastlive-core` (φ-uses attributed to predecessor blocks per
//! Definition 1), so answers are comparable bit-for-bit. Each engine
//! also implements the workspace-wide
//! [`fastlive_core::LivenessProvider`] interface, inheriting point
//! queries from the trait's default block-query decomposition.
//!
//! [`IterativeLiveness`] additionally serves as the
//! [`fastlive` facade](https://docs.rs/fastlive)'s `Oracle` query
//! backend — the independent referee its differential suites hold the
//! checker-backed backends against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod iterative;
mod lao;
mod nullness;
pub mod oracle;
mod universe;

pub use iterative::IterativeLiveness;
pub use lao::LaoLiveness;
pub use nullness::IterativeNullness;
pub use universe::VarUniverse;
