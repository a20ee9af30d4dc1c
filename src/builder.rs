//! [`Fastlive`]: the one-stop front door, and its builder.
//!
//! ```
//! use fastlive::{parse_module, Fastlive, Query, Response};
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
//! let fl = Fastlive::builder().threads(2).build()?;
//! let mut session = fl.session(&module);
//! assert_eq!(
//!     session.query(&module, &Query::live_in("count", "v0", "block1"))?,
//!     Response::Live(true),
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastlive_core::Nullness;
use fastlive_engine::persist::GcStats;
use fastlive_engine::vfs::Vfs;
use fastlive_engine::{AnalysisEngine, BreakerConfig, EngineConfig, EngineSession, HealthReport};
use fastlive_ir::Module;
use fastlive_telemetry::{NoopRecorder, Recorder, Telemetry, TelemetrySnapshot};

use crate::backend::{Backend, BackendKind, QueryEngine};
use crate::plan::{class_of, run_planned};
use crate::query::{BlockRef, FuncRef, LiveSets, PointRef, Query, QueryError, Response, ValueRef};

/// A persistence-tier GC policy, applied at
/// [`build()`](FastliveBuilder::build) and re-runnable any time via
/// [`Fastlive::gc_persist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcPolicy {
    /// Keep at most this many `.flpc` entries (oldest evicted first).
    pub max_entries: usize,
    /// Also delete entries older than this, when set.
    pub max_age: Option<Duration>,
}

/// Why [`FastliveBuilder::build`] refused a configuration. Every
/// variant is a configuration that the lower layers would either
/// silently distort or only trip over at runtime — the builder front
/// door turns them into values instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The configured persist path exists and is not a directory — the
    /// store would silently degrade every probe to a reject.
    PersistDirNotADirectory(PathBuf),
    /// A GC policy was set without a persistence tier to sweep.
    GcWithoutPersistDir,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::PersistDirNotADirectory(p) => {
                write!(
                    f,
                    "persist path {} exists and is not a directory",
                    p.display()
                )
            }
            BuildError::GcWithoutPersistDir => {
                write!(f, "a gc policy needs a persist_dir to sweep")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Fastlive`] — the preferred way to configure the
/// whole stack (it subsumes [`EngineConfig`] construction and
/// validates the combination at [`build()`](Self::build)).
#[derive(Clone, Default)]
pub struct FastliveBuilder {
    config: EngineConfig,
    gc: Option<GcPolicy>,
    vfs: Option<Arc<dyn Vfs>>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for FastliveBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastliveBuilder")
            .field("config", &self.config)
            .field("gc", &self.gc)
            .field("vfs", &self.vfs.as_ref().map(|_| "<dyn Vfs>"))
            .field(
                "recorder",
                &self.recorder.as_ref().map(|_| "<dyn Recorder>"),
            )
            .finish()
    }
}

impl FastliveBuilder {
    /// Worker threads for module analysis (`0` = one per CPU, the
    /// default; `1` = inline on the calling thread).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Exact bound on the artifacts retained in memory (`0` disables
    /// the in-memory tier). Default 256.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Directory of the cross-process persistence tier (disabled by
    /// default).
    pub fn persist_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.persist_dir = Some(dir.into());
        self
    }

    /// Runs a persistence-tier GC sweep at [`build()`](Self::build)
    /// time (and records the policy for later
    /// [`Fastlive::gc_persist`] calls). Requires
    /// [`persist_dir`](Self::persist_dir).
    pub fn gc(mut self, max_entries: usize, max_age: Option<Duration>) -> Self {
        self.gc = Some(GcPolicy {
            max_entries,
            max_age,
        });
        self
    }

    /// Circuit-breaker policy for the persistence tier: after
    /// `trip_threshold` consecutive disk I/O *errors* (not rejects) the
    /// tier goes memory-only and is re-probed on an exponential
    /// backoff; `quarantine_threshold` consecutive rejects sideline one
    /// sick entry. See [`BreakerConfig`] for the defaults and
    /// [`Fastlive::health`] for the observable state.
    pub fn disk_breaker(mut self, config: BreakerConfig) -> Self {
        self.config.disk_breaker = config;
        self
    }

    /// Routes every persistence-tier filesystem operation through the
    /// given [`Vfs`] — the fault-injection seam
    /// ([`FaultVfs`](fastlive_engine::vfs::FaultVfs)) and the hook for
    /// custom storage. Default: the real filesystem
    /// ([`StdVfs`](fastlive_engine::vfs::StdVfs)).
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// Turns end-to-end telemetry on (or back off): a fresh
    /// [`Telemetry`] hub is installed and every layer — query dispatch,
    /// the batch planner, engine tier probes, persistence-tier I/O —
    /// records into it. Read the result with [`Fastlive::telemetry`]
    /// and the enriched [`Fastlive::health`]. Off by default, and off
    /// means *off*: the hot paths skip even the clock reads
    /// (`BENCH_obs.json` pins the no-op overhead at ≈1.0×).
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.recorder = enabled.then(|| Arc::new(Telemetry::new()) as Arc<dyn Recorder>);
        self
    }

    /// Installs a custom [`Recorder`] — the export seam for external
    /// metrics pipelines. Instrumentation is live wherever
    /// `recorder.enabled()` says so; a disabled recorder costs the
    /// same nothing as the default.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Validates the configuration and builds the facade. The build
    /// itself is cheap — precomputation happens per analyzed module.
    pub fn build(self) -> Result<Fastlive, BuildError> {
        if let Some(dir) = &self.config.persist_dir {
            if dir.exists() && !dir.is_dir() {
                return Err(BuildError::PersistDirNotADirectory(dir.clone()));
            }
        }
        if self.gc.is_some() && self.config.persist_dir.is_none() {
            return Err(BuildError::GcWithoutPersistDir);
        }
        let recorder: Arc<dyn Recorder> = self.recorder.unwrap_or_else(|| Arc::new(NoopRecorder));
        let engine =
            AnalysisEngine::with_instrumentation(self.config, self.vfs, Arc::clone(&recorder));
        if let Some(policy) = self.gc {
            engine.gc_persist(policy.max_entries, policy.max_age);
        }
        Ok(Fastlive {
            engine,
            gc: self.gc,
            recorder,
        })
    }
}

/// The unified facade: one configured stack — engine, caches,
/// persistence, GC policy — handing out query sessions over any
/// module.
///
/// Most code needs exactly three lines: build once, open a session per
/// module, ask typed [`Query`]s (or use the named conveniences on
/// [`FastliveSession`]). The underlying layers stay reachable —
/// [`engine()`](Self::engine) for cache statistics, and the entry-point
/// types re-exported at the crate root — but nothing requires them.
pub struct Fastlive {
    engine: AnalysisEngine,
    gc: Option<GcPolicy>,
    recorder: Arc<dyn Recorder>,
}

impl std::fmt::Debug for Fastlive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fastlive")
            .field("config", self.engine.config())
            .field("gc", &self.gc)
            .field("telemetry", &self.recorder.enabled())
            .finish()
    }
}

impl Fastlive {
    /// Starts a builder with the default configuration.
    pub fn builder() -> FastliveBuilder {
        FastliveBuilder::default()
    }

    /// A facade with the default configuration (auto threads, a
    /// 256-entry cache, no persistence, session backend).
    pub fn with_defaults() -> Self {
        Self::builder()
            .build()
            .expect("the default configuration is always valid")
    }

    /// The underlying analysis engine (cache statistics, manual
    /// analysis).
    pub fn engine(&self) -> &AnalysisEngine {
        &self.engine
    }

    /// The engine configuration the builder produced.
    pub fn config(&self) -> &EngineConfig {
        self.engine.config()
    }

    /// A point-in-time health snapshot of the stack: the disk tier's
    /// circuit-breaker state and counters, the quarantine population,
    /// and the aggregated cache statistics. Cheap enough to poll; see
    /// [`HealthReport`].
    pub fn health(&self) -> HealthReport {
        self.engine.health()
    }

    /// A point-in-time snapshot of the telemetry hub: per-kind query
    /// latency histograms, tier outcome counters with durations,
    /// persistence-tier I/O stats, planner counters and the recent
    /// structured events. A plain comparable value — render it with
    /// [`TelemetrySnapshot::to_json`],
    /// [`TelemetrySnapshot::to_prometheus`] or `Display`. Returns the
    /// all-zero default when instrumentation is off (the default
    /// no-op recorder has no state to snapshot).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.recorder.snapshot().unwrap_or_default()
    }

    /// Sweeps the persistence tier with the builder's GC policy (or
    /// the given override). Returns `None` when no persistence tier —
    /// or, without an override, no policy — is configured. Always safe:
    /// a gc'd entry recomputes on its next probe.
    pub fn gc_persist(&self, policy: Option<GcPolicy>) -> Option<GcStats> {
        let policy = policy.or(self.gc)?;
        self.engine.gc_persist(policy.max_entries, policy.max_age)
    }

    /// Opens a query session over `module` on the engine backend
    /// ([`BackendKind::Session`]).
    ///
    /// This analyzes the whole module up front (in parallel, through
    /// the caches); [`session_with`](Self::session_with) opens the
    /// oracle, which defers all work to query time. The module is
    /// **not** borrowed — it is passed by reference to every query, so
    /// it stays freely editable between queries and the session
    /// revalidates against its current state.
    pub fn session(&self, module: &Module) -> FastliveSession<'_> {
        self.session_with(module, BackendKind::Session)
    }

    /// Opens a query session on an explicit backend — the handle for
    /// differential setups that hold, say, a [`BackendKind::Session`]
    /// and a [`BackendKind::Oracle`] session side by side.
    pub fn session_with(&self, module: &Module, kind: BackendKind) -> FastliveSession<'_> {
        let backend = match kind {
            BackendKind::Session => Backend::Session(self.engine.analyze(module)),
            BackendKind::Oracle => Backend::Oracle,
        };
        FastliveSession {
            backend,
            recorder: Arc::clone(&self.recorder),
        }
    }
}

/// A query session handed out by [`Fastlive::session`]: the typed
/// query layer ([`query`](Self::query) /
/// [`run_queries`](Self::run_queries)) plus named conveniences that
/// wrap the common queries.
///
/// Sessions borrow only the [`Fastlive`] they came from; the module is
/// taken by reference per call and may be edited freely between calls
/// (the session backend revalidates, the oracle recomputes).
pub struct FastliveSession<'fl> {
    backend: Backend<'fl>,
    recorder: Arc<dyn Recorder>,
}

impl<'fl> FastliveSession<'fl> {
    /// Answers one typed query. With telemetry enabled, the dispatch
    /// is timed into the per-kind, per-backend latency histograms;
    /// answers never depend on it.
    pub fn query(&mut self, module: &Module, query: &Query) -> Result<Response, QueryError> {
        let t0 = self.recorder.enabled().then(Instant::now);
        let result = self.backend.query(module, query);
        if let Some(t0) = t0 {
            self.recorder.query(
                class_of(query),
                self.backend.backend_name(),
                t0.elapsed().as_nanos() as u64,
            );
        }
        result
    }

    /// Plan-and-run batch execution in input order: each function's
    /// state is resolved at its first query (with one
    /// [`BatchLiveness`](fastlive_core::BatchLiveness) row snapshot when
    /// its block probes pay for it) and dropped after its last. One
    /// result per query, identical to one-at-a-time
    /// [`query`](Self::query) calls — only faster (`BENCH_facade.json`).
    /// With telemetry enabled, the planner records the batch size, the
    /// batch-row vs scalar split of its functions and the latency.
    pub fn run_queries(
        &mut self,
        module: &Module,
        queries: &[Query],
    ) -> Vec<Result<Response, QueryError>> {
        run_planned(&mut self.backend, module, queries, &*self.recorder)
    }

    /// The backend's short name (`"session"` / `"oracle"`).
    pub fn backend_name(&self) -> &'static str {
        self.backend.backend_name()
    }

    /// The underlying [`EngineSession`] when this session runs on the
    /// engine backend (epoch and recomputation accounting) — `None`
    /// on the oracle.
    pub fn engine_session(&self) -> Option<&EngineSession<'fl>> {
        match &self.backend {
            Backend::Session(s) => Some(s),
            Backend::Oracle => None,
        }
    }

    /// [`Query::LiveIn`], unwrapped: is `value` live-in at `block`?
    pub fn is_live_in(
        &mut self,
        module: &Module,
        func: impl Into<FuncRef>,
        value: impl Into<ValueRef>,
        block: impl Into<BlockRef>,
    ) -> Result<bool, QueryError> {
        match self.query(module, &Query::live_in(func, value, block))? {
            Response::Live(b) => Ok(b),
            _ => unreachable!("LiveIn answers Live"),
        }
    }

    /// [`Query::LiveOut`], unwrapped: is `value` live-out at `block`?
    pub fn is_live_out(
        &mut self,
        module: &Module,
        func: impl Into<FuncRef>,
        value: impl Into<ValueRef>,
        block: impl Into<BlockRef>,
    ) -> Result<bool, QueryError> {
        match self.query(module, &Query::live_out(func, value, block))? {
            Response::Live(b) => Ok(b),
            _ => unreachable!("LiveOut answers Live"),
        }
    }

    /// [`Query::LiveAt`], unwrapped: is `value` live at `point`?
    pub fn is_live_at(
        &mut self,
        module: &Module,
        func: impl Into<FuncRef>,
        value: impl Into<ValueRef>,
        point: PointRef,
    ) -> Result<bool, QueryError> {
        match self.query(module, &Query::live_at(func, value, point))? {
            Response::Live(b) => Ok(b),
            _ => unreachable!("LiveAt answers Live"),
        }
    }

    /// [`Query::LiveSets`], unwrapped: whole-function live-in/live-out
    /// sets.
    pub fn live_sets(
        &mut self,
        module: &Module,
        func: impl Into<FuncRef>,
    ) -> Result<LiveSets, QueryError> {
        match self.query(module, &Query::live_sets(func))? {
            Response::Sets(sets) => Ok(sets),
            _ => unreachable!("LiveSets answers Sets"),
        }
    }

    /// [`Query::Nullness`], unwrapped: the nullness fact for `value`
    /// at its definition.
    pub fn nullness_of(
        &mut self,
        module: &Module,
        func: impl Into<FuncRef>,
        value: impl Into<ValueRef>,
    ) -> Result<Nullness, QueryError> {
        match self.query(module, &Query::nullness(func, value))? {
            Response::Nullness(fact) => Ok(fact),
            _ => unreachable!("Nullness answers Nullness"),
        }
    }

    /// [`Query::DefiniteInit`], unwrapped: is `value` definitely
    /// initialized on every path reaching the entry of `block`?
    pub fn is_definitely_init(
        &mut self,
        module: &Module,
        func: impl Into<FuncRef>,
        value: impl Into<ValueRef>,
        block: impl Into<BlockRef>,
    ) -> Result<bool, QueryError> {
        match self.query(module, &Query::definitely_init(func, value, block))? {
            Response::Init(b) => Ok(b),
            _ => unreachable!("DefiniteInit answers Init"),
        }
    }

    /// [`Query::Interfere`], unwrapped: do `a` and `b` interfere (the
    /// Budimlić test the SSA-destruction pass runs, §6.2)?
    pub fn values_interfere(
        &mut self,
        module: &Module,
        func: impl Into<FuncRef>,
        a: impl Into<ValueRef>,
        b: impl Into<ValueRef>,
    ) -> Result<bool, QueryError> {
        match self.query(module, &Query::interfere(func, a, b))? {
            Response::Interference(b) => Ok(b),
            _ => unreachable!("Interfere answers Interference"),
        }
    }
}
