//! `fastlive-engine` — a parallel, fingerprint-cached, multi-function
//! liveness analysis engine.
//!
//! Most applications should configure this engine through the
//! [`fastlive` facade](https://docs.rs/fastlive)'s
//! `Fastlive::builder()` — it subsumes [`EngineConfig`] construction,
//! validates knob combinations at build time, and serves the session
//! below through a typed query layer. The types here are the
//! building blocks.
//!
//! The per-function checker ([`fastlive_core::FunctionLiveness`])
//! exploits the paper's headline property — the precomputation
//! "survives all program transformations except for changes in the
//! control-flow graph" (§1) — one function at a time. This crate turns
//! that property into a *system* that amortizes precomputation across a
//! whole module, across threads, and across recompilations:
//!
//! ```text
//!        Module (fastlive_ir)           source with many `function` units
//!           │
//!           ▼
//!   AnalysisEngine::analyze       scoped worker pool, self-scheduling
//!           │                     shared queue (EngineConfig::threads)
//!           ▼
//!   CfgShape fingerprint cache    one bounded LRU under one lock,
//!           │                     keyed by CFG structure:
//!           │                     CFG-identical functions — including
//!           │                     recompiled ones — share one
//!           │                     precomputation (CacheStats)
//!           ▼
//!   persist::PersistStore         optional cross-process tier
//!           │                     (EngineConfig::persist_dir): misses
//!           │                     decode a checksummed on-disk entry
//!           │                     instead of precomputing; corrupt
//!           │                     files degrade to clean misses
//!           ▼
//!       EngineSession             one entry per function: its CfgShape
//!                                 plus one artifact slot per
//!                                 AnalysisKind, transparently
//!                                 revalidated against the function's
//!                                 current state; is_live_in /
//!                                 is_live_out / is_live_at (program
//!                                 points) / batch / nullness
//! ```
//!
//! Cache misses are **deduplicated per fingerprint**: workers that
//! miss on a shape another worker is already precomputing block on an
//! in-flight slot and adopt its result (`CacheStats::dedup_hits`), so
//! one precomputation happens per distinct shape under any
//! interleaving. The engine also drives whole-module SSA destruction
//! ([`AnalysisEngine::destruct_module`]) through the same cache, and
//! point queries ([`EngineSession::is_live_at`]) follow the same
//! revalidation rules as block queries — they are instruction-level
//! and never bump or depend on `cfg_version`.
//!
//! Why caching by CFG shape is sound: the §5.2 precomputation reads
//! *only* the graph (blocks and successor lists — what [`CfgShape`]
//! encodes), never instructions or values; queries re-read the queried
//! function's def-use chains on every call. One cached checker
//! therefore serves every CFG-identical function exactly, which is
//! also what makes the JIT scenario cheap: recompiling a function
//! almost always preserves its CFG, so re-analysis is one hash-map
//! probe.
//!
//! # Examples
//!
//! ```
//! use fastlive_engine::{AnalysisEngine, EngineConfig};
//! use fastlive_ir::parse_module;
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
//!          return v4 }
//!      function %id { block0(v0): return v0 }",
//! )?;
//!
//! let engine = AnalysisEngine::new(EngineConfig { threads: 4, ..EngineConfig::default() });
//! let mut session = engine.analyze(&module);
//!
//! let count = module.by_name("count").unwrap();
//! let v0 = module.func(count).params()[0];
//! let block1 = module.func(count).block_by_index(1);
//! assert!(session.is_live_in(&module, count, v0, block1)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod breaker;
mod cache;
mod driver;
mod engine;
mod fingerprint;
pub mod persist;
mod session;
pub mod vfs;

pub use artifact::{AnalysisArtifact, AnalysisKind, ArtifactHandle};
pub use breaker::{BreakerConfig, BreakerState, HealthReport};
pub use cache::CacheStats;
pub use engine::{AnalysisEngine, EngineConfig};
pub use fingerprint::CfgShape;
pub use persist::{GcStats, PersistStore};
pub use session::EngineSession;

// The telemetry seam: what `AnalysisEngine::with_instrumentation`
// accepts and what `health()` / `telemetry()` report in terms of.
pub use fastlive_telemetry::{
    Event, EventKind, NoopRecorder, Recorder, Telemetry, TelemetrySnapshot,
};
