//! # fastlive — fast liveness checking for SSA-form programs
//!
//! An implementation of *Boissinot, Hack, Grund, Dupont de Dinechin,
//! Rastello: "Fast Liveness Checking for SSA-Form Programs" (CGO 2008)*,
//! together with everything needed to reproduce its evaluation: a
//! Cranelift-style SSA intermediate representation, CFG analyses, baseline
//! data-flow liveness engines (including a reimplementation of the LAO
//! comparator described in §6.2), SSA construction and destruction passes,
//! and SPEC2000-calibrated workload generators.
//!
//! ## One front door
//!
//! This crate is the **facade** over the whole workspace: build a
//! [`Fastlive`] once, open a [`FastliveSession`] per module, and ask
//! typed [`Query`]s — every question the five underlying public
//! surfaces (`LivenessChecker`, `FunctionLiveness`, `BatchLiveness`,
//! `AnalysisEngine`/`EngineSession`, `LivenessProvider`) answer, behind
//! one API that addresses functions, values and blocks by name or id:
//!
//! ```
//! use fastlive::{parse_module, Fastlive, PointRef, Query, Response};
//!
//! let module = parse_module(
//!     "function %count { block0(v0):
//!          v1 = iconst 0
//!          jump block1(v1)
//!      block1(v2):
//!          v3 = iconst 1
//!          v4 = iadd v2, v3
//!          v5 = icmp_slt v4, v0
//!          brif v5, block1(v4), block2
//!      block2:
//!          return v4 }",
//! )?;
//!
//! // One configured stack: threads, caches, persistence, GC.
//! let fl = Fastlive::builder().threads(2).build()?;
//! let mut session = fl.session(&module);
//!
//! // Scalar typed queries, by name or id ...
//! assert!(session.is_live_in(&module, "count", "v0", "block1")?);
//! assert!(session.is_live_at(&module, "count", "v4", PointRef::after("block1", 1))?);
//! assert!(session.values_interfere(&module, "count", "v0", "v2")?);
//!
//! // ... or planned batches: each function resolved once, block probes
//! // answered from one batch-row pass instead of N candidate scans.
//! let answers = session.run_queries(
//!     &module,
//!     &[
//!         Query::live_in("count", "v0", "block1"),
//!         Query::live_out("count", "v4", "block1"),
//!         Query::live_sets("count"),
//!     ],
//! );
//! assert_eq!(answers[0], Ok(Response::Live(true)));
//! assert_eq!(answers[1], Ok(Response::Live(true)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Two executors answer the same queries behind the [`QueryEngine`]
//! trait (select one with [`Fastlive::session_with`]):
//! [`BackendKind::Session`] (engine-cached, revalidating against CFG
//! edits — the default) and [`BackendKind::Oracle`] (iterative
//! dataflow, the differential-testing referee). A facade built with
//! `cache_capacity(0)` runs the session with its cache off: the
//! paper's per-function checker, computed per session.
//!
//! ## Crate map
//!
//! The workspace members remain available under stable module names —
//! depend on individual `fastlive-*` crates for a narrower footprint —
//! and the entry-point types that examples and facade signatures use
//! are re-exported at the crate root, so
//! `use fastlive::{FunctionLiveness, AnalysisEngine}` is the single
//! import root for pre-facade code.
//!
//! | module | contents |
//! |--------|----------|
//! | [`graph`] | [`Cfg`](graph::Cfg) trait, plain digraphs, Graphviz export |
//! | [`bitset`] | dense bitsets, bit matrices, sparse & sorted sets |
//! | [`mod@cfg`] | DFS trees, dominators, dominance frontiers, loop forests |
//! | [`ir`] | SSA IR: functions, builder, parser, printer, interpreter |
//! | [`core`] | the paper's algorithm: precomputation + live-in/live-out checks; reproduction variants under [`core::baseline`] |
//! | [`engine`] | module-level analysis: worker pool, CFG-fingerprint cache, sessions |
//! | [`dataflow`] | baseline engines and the brute-force oracle |
//! | [`construct`] | SSA construction (Cytron et al.) |
//! | [`destruct`] | SSA destruction (Sreedhar et al. Method III) |
//! | [`telemetry`] | zero-dependency metrics: histograms, event log, the [`Recorder`] seam |
//! | [`workload`] | deterministic program generators and SPEC2000 profiles |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod builder;
mod plan;
mod query;

pub use backend::{Backend, BackendKind, QueryEngine};
pub use builder::{BuildError, Fastlive, FastliveBuilder, FastliveSession, GcPolicy};
pub use query::{BlockRef, FuncRef, LiveSets, PointRef, Query, QueryError, Response, ValueRef};

pub use fastlive_bitset as bitset;
pub use fastlive_cfg as cfg;
pub use fastlive_construct as construct;
pub use fastlive_core as core;
pub use fastlive_dataflow as dataflow;
pub use fastlive_destruct as destruct;
pub use fastlive_engine as engine;
pub use fastlive_graph as graph;
pub use fastlive_ir as ir;
pub use fastlive_telemetry as telemetry;
pub use fastlive_workload as workload;

// The historical entry points, flattened to one import root: downstream
// code written against the pre-facade surfaces imports everything from
// `fastlive::` without naming the member crates.
pub use fastlive_core::{
    AnalysisError, FunctionLiveness, LivenessChecker, Nullness, NullnessArtifact,
};
pub use fastlive_dataflow::{IterativeLiveness, VarUniverse};
pub use fastlive_destruct::values_interfere;
pub use fastlive_engine::{
    persist::GcStats,
    vfs::{Fault, FaultRule, FaultVfs, OpKind, Vfs},
    AnalysisEngine, AnalysisKind, BreakerConfig, BreakerState, CacheStats, CfgShape, EngineConfig,
    EngineSession, HealthReport, PersistStore,
};
pub use fastlive_ir::{
    parse_function, parse_module, Block, FuncId, Function, Module, ProgramPoint, Value,
};
// The observability surface: the recorder seam plus the snapshot and
// label types [`Fastlive::telemetry`] and [`Fastlive::health`] report
// in terms of.
pub use fastlive_telemetry::{EventKind, Recorder, Telemetry, TelemetrySnapshot};
