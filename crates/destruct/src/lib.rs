//! SSA destruction for the `fastlive` workspace: Sreedhar et al.'s
//! Method III φ-congruence coalescing driven by the Budimlić et al.
//! liveness-based interference test.
//!
//! This pass is the paper's *evaluation workload* (§6.2): every liveness
//! query timed in Table 2 is issued while this algorithm decides which
//! φ resources may share a location. The pass is generic over the
//! workspace-wide [`fastlive_core::LivenessProvider`] interface so
//! that the same query stream can be served by the paper's checker
//! ([`CheckerEngine`]) or by the reimplemented LAO baseline
//! ([`NativeEngine`]) — exactly the comparison the paper measures. The
//! Budimlić test's "live directly after the defining instruction" is a
//! [`ProgramPoint`](fastlive_ir::ProgramPoint) query
//! ([`LivenessProvider::live_at`]); the destruct-private block+position
//! shim this crate used to carry is gone.
//!
//! Pipeline ([`destruct_ssa`]):
//!
//! 1. split critical edges (copies need a home "on the edge", §2.2),
//! 2. initialize singleton φ-congruence classes,
//! 3. for every φ (block parameter), test interference between the
//!    classes of its resources (result + arguments) with the Budimlić
//!    dominance/liveness test, insert `copy` instructions per
//!    Sreedhar's case analysis, and merge the resources' classes,
//! 4. leave SSA ([`out_of_ssa`]): map every congruence class to one
//!    mutable variable of a [`PreFunction`](fastlive_construct::PreFunction),
//!    dropping φs and branch arguments entirely.
//!
//! Correctness is validated semantically: the destructed program must
//! compute the same outputs as the SSA function on randomized inputs
//! (see the crate tests and `tests/destruct_semantics.rs` at the
//! workspace root).
//!
//! The [`values_interfere`] primitive is also a first-class query of
//! the [`fastlive` facade](https://docs.rs/fastlive) (the workspace
//! root crate): `Query::Interfere` routes through this function on
//! every backend, so interference answers are one `session.query`
//! away without assembling a provider and dominator tree by hand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod congruence;
mod engines;
mod interference;
mod out_of_ssa;
mod sreedhar;

pub use congruence::Congruence;
pub use engines::{BitvecEngine, CheckerEngine, NativeEngine, PatchedEngine};
pub use interference::values_interfere;
pub use out_of_ssa::out_of_ssa;
pub use sreedhar::{destruct_ssa, DestructResult, DestructStats, QueryKind, QueryRecord};

// The query interface the engines implement, re-exported so destruct
// clients need not depend on `fastlive-core` directly.
pub use fastlive_core::{LivenessProvider, PointError};
