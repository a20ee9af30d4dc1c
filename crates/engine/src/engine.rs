//! [`AnalysisEngine`]: parallel precomputation over a [`Module`] with
//! the two-tier (striped in-memory + optional on-disk) fingerprint
//! cache in front of it.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use fastlive_core::{AnalysisError, FunctionLiveness, NullnessArtifact};
use fastlive_ir::{FuncId, Function, Module};
use fastlive_telemetry::{EventKind, NoopRecorder, Recorder, TelemetrySnapshot, Tier};

use crate::artifact::{AnalysisArtifact, AnalysisKind, ArtifactHandle};
use crate::breaker::{BreakerConfig, DiskBreaker, HealthReport, Quarantine};
use crate::cache::{ArtifactKey, CacheStats, FingerprintCache};
use crate::fingerprint::CfgShape;
use crate::persist::{GcStats, LoadOutcome, PersistStore};
use crate::session::EngineSession;
use crate::vfs::{lock_recover, MeteredVfs, StdVfs, Vfs};

/// Tuning knobs of an [`AnalysisEngine`].
///
/// `EngineConfig` is `Clone` + `Default` but — deliberately — not
/// `Copy`: `persist_dir` owns a [`PathBuf`], so the `Copy` the
/// pre-persistence config accidentally had is gone for good. Struct
/// literals with `..EngineConfig::default()` keep working; code that
/// relied on implicit copies should clone, or better, stop building
/// configs by hand: the [`fastlive` facade](https://docs.rs/fastlive)
/// builder (`Fastlive::builder()`) is the preferred front door — it
/// subsumes every field here and validates the combination at
/// `build()` time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for [`AnalysisEngine::analyze`]. `0` means "one
    /// per available CPU"; `1` runs inline on the calling thread.
    pub threads: usize,
    /// Bound on precomputations retained by the CFG-fingerprint cache.
    /// `0` disables in-memory caching (every analysis probes the disk
    /// tier, if configured, or recomputes). The bound is distributed
    /// over the stripes — each holds up to `⌈capacity / stripes⌉`
    /// entries (at least 1) — so the effective engine-wide bound is
    /// `stripes × ⌈capacity / stripes⌉`: rounded **up** to keep every
    /// stripe functional, never below the configured value, and at
    /// most `stripes - 1` above it. Size memory-critical deployments
    /// by the effective bound (or set `stripes: 1` for an exact one).
    pub cache_capacity: usize,
    /// Lock stripes of the in-memory cache. Fingerprints are spread
    /// over `stripes` independently locked segments by hash, so
    /// concurrent workers probing *different* shapes no longer
    /// serialize on one mutex (probing the *same* shape still
    /// deduplicates to one precomputation — the in-flight table is
    /// per-stripe, and a shape maps to exactly one stripe). `0` picks
    /// the default (8).
    pub stripes: usize,
    /// Directory of the cross-process persistence tier
    /// ([`PersistStore`]); `None` (the default) disables it. When set,
    /// every in-memory miss probes the directory for a serialized
    /// precomputation before computing, and every computed (or
    /// corrupt-and-recomputed) entry is written through — so a second
    /// process, or tomorrow's build, pays a file read instead of the
    /// §5.2 precomputation. See [`persist`](crate::persist) for the
    /// format and corruption guarantees.
    pub persist_dir: Option<PathBuf>,
    /// Degradation policy of the disk tier: the circuit breaker that
    /// trips the tier open after consecutive I/O errors (and the
    /// per-shape reject quarantine riding along). Irrelevant unless
    /// [`persist_dir`](Self::persist_dir) is set. See
    /// [`BreakerConfig`] and [`breaker`](crate::breaker) for the state
    /// machine; observe it through
    /// [`AnalysisEngine::health`](crate::AnalysisEngine::health).
    pub disk_breaker: BreakerConfig,
}

/// The default is a non-zero configuration (auto threads, a 256-entry
/// cache over 8 stripes, no persistence), so `Default` stays a manual
/// impl rather than a derive — `#[derive(Default)]` would silently
/// disable caching.
impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            cache_capacity: 256,
            stripes: 0,
            persist_dir: None,
            disk_breaker: BreakerConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Stripe count used when [`stripes`](Self::stripes) is 0 — public
    /// so front ends (the facade builder) can resolve the auto value
    /// the same way the engine will.
    pub const DEFAULT_STRIPES: usize = 8;
}

/// A module-level liveness analysis engine.
///
/// The engine owns one shared [CFG-fingerprint cache](CfgShape) and
/// fans the per-function precomputation
/// ([`FunctionLiveness::compute`]) out over a scoped worker pool.
/// Workers self-schedule from a shared function queue (an atomic
/// cursor), so a module whose function sizes are skewed — the common
/// case — still balances: whichever worker finishes its current
/// function first steals the next one from the queue.
///
/// Precomputations are cached and shared by CFG shape: analyzing two
/// functions with identical CFGs, or re-analyzing a recompiled function
/// whose CFG survived (the paper's §1 JIT scenario), costs one cache
/// probe instead of a §5.2 precomputation. The in-memory tier is
/// **lock-striped** ([`EngineConfig::stripes`]): different shapes may
/// probe concurrently, while two workers that miss on the *same* shape
/// are deduplicated — the first resolves, the rest block on the
/// in-flight slot and adopt its result — so `misses` counts exactly
/// one resolution per distinct shape under any interleaving. With
/// [`EngineConfig::persist_dir`] set, misses consult a cross-process
/// on-disk tier before computing and write through after
/// ([`persist`](crate::persist)). Hits, misses, evictions, dedup hits
/// and disk-tier outcomes are observable through
/// [`cache_stats`](Self::cache_stats) and, per stripe,
/// [`stripe_stats`](Self::stripe_stats).
///
/// # Examples
///
/// ```
/// use fastlive_engine::{AnalysisEngine, EngineConfig};
/// use fastlive_ir::parse_module;
///
/// let module = parse_module(
///     "function %a { block0(v0): v1 = ineg v0  return v1 }
///      function %b { block0(v0): v1 = bnot v0  return v1 }",
/// )?;
/// // threads: 1 resolves the shared shape as a plain cache hit; with
/// // more workers a concurrent probe may land in `dedup_hits`
/// // instead — never in a second precomputation.
/// let engine = AnalysisEngine::new(EngineConfig { threads: 1, ..EngineConfig::default() });
/// let mut session = engine.analyze(&module);
///
/// let a = module.by_name("a").unwrap();
/// let v0 = module.func(a).params()[0];
/// let entry = module.func(a).entry_block();
/// assert!(!session.is_live_in(&module, a, v0, entry)?);
///
/// // %a and %b are CFG-identical: one precomputation served both.
/// assert_eq!(engine.cache_stats().hits, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct AnalysisEngine {
    config: EngineConfig,
    /// Lock-striped cache segments: a fingerprint hashes to exactly one
    /// stripe, so same-shape probes still meet (and deduplicate) while
    /// different-shape probes proceed in parallel.
    stripes: Vec<Mutex<StripeState>>,
    /// The optional cross-process disk tier.
    store: Option<PersistStore>,
    /// Circuit breaker over the disk tier: consecutive I/O errors trip
    /// it open and the engine runs memory-only until a half-open probe
    /// finds the disk recovered.
    breaker: DiskBreaker,
    /// Per-entry reject streaks, keyed by the kind-salted shape hash:
    /// entries that keep failing validation stop being probed.
    quarantine: Quarantine,
    /// Fault-injection hook: when set, runs at the top of every §5.2
    /// precomputation (after both cache tiers missed). A panicking
    /// hook exercises the abandon/retry machinery exactly like a
    /// panicking precomputation would.
    compute_fault: Mutex<Option<ComputeFaultHook>>,
    /// The telemetry seam. [`NoopRecorder`] unless the engine was
    /// built with [`with_instrumentation`](Self::with_instrumentation);
    /// hot paths guard clock reads on `recorder.enabled()`, and
    /// **answers never depend on recorder state** (a workspace
    /// standing invariant).
    recorder: Arc<dyn Recorder>,
    /// Outcome of the most recent [`gc_persist`](Self::gc_persist)
    /// sweep, surfaced through [`health`](Self::health).
    last_gc: Mutex<Option<GcStats>>,
}

/// The test-only compute-fault callback (see
/// [`AnalysisEngine::set_compute_fault`]).
pub type ComputeFaultHook = Box<dyn Fn(&CfgShape) + Send + Sync>;

/// One stripe: cache segment plus the in-flight table, guarded by one
/// mutex so a probe and its in-flight registration are atomic. Both
/// maps are keyed per `(fingerprint, analysis)`: the same shape being
/// resolved for two analyses is two independent in-flight slots.
struct StripeState {
    cache: FingerprintCache,
    in_flight: HashMap<ArtifactKey, Arc<InFlightSlot>>,
}

/// One `(shape, analysis)` currently being precomputed by some worker.
/// Waiters block on the condvar; the computing worker publishes the
/// result (or `Abandoned`, if it unwound) and notifies.
#[derive(Default)]
struct InFlightSlot {
    state: Mutex<SlotState>,
    cond: Condvar,
}

#[derive(Default)]
enum SlotState {
    #[default]
    Pending,
    Done(ArtifactHandle),
    /// The computing worker unwound without a result; waiters retry
    /// from the top (one of them becomes the new computer).
    Abandoned,
}

/// Drop guard: if the computing worker unwinds mid-precomputation, the
/// slot is abandoned and waiters are released instead of deadlocking.
struct ComputeGuard<'a> {
    engine: &'a AnalysisEngine,
    stripe: usize,
    key: ArtifactKey,
    slot: Arc<InFlightSlot>,
    completed: bool,
}

impl Drop for ComputeGuard<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        let mut st = lock_recover(&self.engine.stripes[self.stripe]);
        st.in_flight.remove(&self.key);
        drop(st);
        *lock_recover(&self.slot.state) = SlotState::Abandoned;
        self.slot.cond.notify_all();
    }
}

/// What the disk tier contributed to one in-memory miss (recorded into
/// the owning stripe's stats after the result is ready).
enum DiskOutcome {
    /// Persistence disabled: no counter moves.
    Disabled,
    Hit,
    Miss,
    Reject,
    /// The probe's I/O failed (EACCES/EIO/…): counted as
    /// `disk_errors`, fed to the breaker, served memory-only.
    Error,
    /// The probe never touched the disk — breaker open or shape
    /// quarantined. No `CacheStats` counter moves (the breaker's own
    /// `probes_skipped` tracks it); the result was computed in memory.
    Skipped,
}

impl AnalysisEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self::build(config, None, Arc::new(NoopRecorder))
    }

    /// Like [`new`](Self::new), but the persistence tier performs all
    /// of its I/O through `vfs` — the fault-injection seam (see
    /// [`vfs`](crate::vfs)). No effect unless
    /// [`EngineConfig::persist_dir`] is set.
    pub fn with_vfs(config: EngineConfig, vfs: Arc<dyn Vfs>) -> Self {
        Self::build(config, Some(vfs), Arc::new(NoopRecorder))
    }

    /// The fully-general constructor: optional VFS seam plus a
    /// [`Recorder`] every layer of this engine reports through. When
    /// the recorder is enabled and persistence is configured, the
    /// store's VFS (given or [`StdVfs`]) is wrapped in a
    /// [`MeteredVfs`] so disk I/O latency and byte counts land in the
    /// same recorder. Pass [`NoopRecorder`] to get exactly
    /// [`with_vfs`](Self::with_vfs) / [`new`](Self::new) behavior.
    pub fn with_instrumentation(
        config: EngineConfig,
        vfs: Option<Arc<dyn Vfs>>,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        Self::build(config, vfs, recorder)
    }

    fn build(config: EngineConfig, vfs: Option<Arc<dyn Vfs>>, recorder: Arc<dyn Recorder>) -> Self {
        let nstripes = if config.stripes == 0 {
            EngineConfig::DEFAULT_STRIPES
        } else {
            config.stripes
        };
        // Distribute the capacity bound: ⌈capacity / stripes⌉ per
        // stripe (0 stays 0 — caching disabled everywhere).
        let per_stripe = if config.cache_capacity == 0 {
            0
        } else {
            config.cache_capacity.div_ceil(nstripes).max(1)
        };
        let stripes = (0..nstripes)
            .map(|_| {
                Mutex::new(StripeState {
                    cache: FingerprintCache::new(per_stripe),
                    in_flight: HashMap::new(),
                })
            })
            .collect();
        let store = config.persist_dir.as_ref().map(|dir| {
            if recorder.enabled() {
                // Metering wraps whatever VFS the disk tier would have
                // used (the given seam or the real filesystem), so
                // telemetry observes exactly what the store does —
                // injected faults included.
                let inner = vfs.clone().unwrap_or_else(|| Arc::new(StdVfs));
                let metered: Arc<dyn Vfs> = Arc::new(MeteredVfs::new(inner, Arc::clone(&recorder)));
                PersistStore::with_vfs(dir, metered)
            } else {
                match &vfs {
                    Some(v) => PersistStore::with_vfs(dir, Arc::clone(v)),
                    None => PersistStore::new(dir),
                }
            }
        });
        let breaker = DiskBreaker::new(config.disk_breaker.clone());
        let quarantine = Quarantine::new(config.disk_breaker.quarantine_threshold);
        AnalysisEngine {
            stripes,
            store,
            breaker,
            quarantine,
            compute_fault: Mutex::new(None),
            recorder,
            last_gc: Mutex::new(None),
            config,
        }
    }

    /// An engine with [`EngineConfig::default`] (auto thread count,
    /// 256-entry cache over 8 stripes, no persistence).
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The stripe owning `(shape, kind)` — pure hash dispatch over the
    /// kind-salted shape hash, stable for the life of the engine. The
    /// salt spreads a shape's analyses over (usually) different
    /// stripes, so resolving liveness and nullness for one hot shape
    /// does not serialize on one mutex.
    fn stripe_of(&self, shape: &CfgShape, kind: AnalysisKind) -> usize {
        ((shape.hash64() ^ kind.salt()) % self.stripes.len() as u64) as usize
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Precomputes liveness for every function of `module` — in
    /// parallel when the config allows — and returns a query session
    /// over the results. Functions are analyzed through the fingerprint
    /// cache, so CFG-identical functions (within this module or from
    /// any earlier analysis) share one precomputation.
    ///
    /// A function whose precomputation panics does not abort the run:
    /// its slot carries the [`AnalysisError`] (surfaced by the
    /// session's queries for that function), every other function
    /// analyzes normally.
    pub fn analyze(&self, module: &Module) -> EngineSession<'_> {
        let n = module.len();
        let workers = self.worker_count(n);
        let meter_queue = workers > 1 && self.recorder.enabled();
        let slots = fan_out(workers, n, |i| {
            if meter_queue {
                // Unclaimed functions at claim time, including the one
                // just taken.
                self.recorder.queue_depth((n - i) as u64);
            }
            let shape = CfgShape::of(&module.functions()[i]);
            let live = self.resolve(&shape);
            (shape, live)
        });
        EngineSession::new(
            self,
            module,
            slots
                .into_iter()
                .zip(module.functions())
                .map(|(s, f)| {
                    // A worker that died outside the per-function
                    // catch_unwind (out of memory, a bug in the queue)
                    // lost its claimed slots; those degrade to typed
                    // errors instead of aborting the session.
                    s.unwrap_or_else(|| {
                        let lost = AnalysisError::ComputePanicked {
                            message: "analysis worker terminated before publishing".into(),
                        };
                        (CfgShape::of(f), Err(lost))
                    })
                })
                .collect(),
        )
    }

    /// Analysis for a single function, through the cache: a probe by
    /// CFG shape, computing and inserting on a miss. The returned
    /// handle may be shared with every other CFG-identical function.
    ///
    /// Errs (instead of unwinding) when the precomputation panics —
    /// see [`AnalysisError::ComputePanicked`].
    pub fn analysis_for(&self, func: &Function) -> Result<Arc<FunctionLiveness>, AnalysisError> {
        self.resolve(&CfgShape::of(func))
    }

    /// Dominance-based nullness / definite-initialization artifact for
    /// a single function, through the same `(fingerprint, analysis)`
    /// cache, dedup, persist and degradation tiers as liveness. The
    /// artifact is shape-level (dominator tree + frontier matrix);
    /// callers run the sparse per-function solve
    /// ([`NullnessArtifact::solve`]) over it.
    pub fn nullness_for(&self, func: &Function) -> Result<Arc<NullnessArtifact>, AnalysisError> {
        self.resolve(&CfgShape::of(func))
    }

    /// [`resolve`](Self::resolve) for a kind known only at runtime —
    /// how sessions re-resolve every resident slot of a function under
    /// one fingerprint, and how [`prefetch`](Self::prefetch) warms a
    /// mixed batch.
    pub(crate) fn resolve_kind(
        &self,
        shape: &CfgShape,
        kind: AnalysisKind,
    ) -> Result<ArtifactHandle, AnalysisError> {
        match kind {
            AnalysisKind::Liveness => self.resolve(shape).map(ArtifactHandle::Liveness),
            AnalysisKind::Nullness => self.resolve(shape).map(ArtifactHandle::Nullness),
        }
    }

    /// Warms the cache for a batch of `(function, analysis)` requests
    /// using the same self-scheduling worker pool as
    /// [`analyze`](Self::analyze): workers claim requests off a shared
    /// atomic cursor, so a batch that mixes analyses and function
    /// sizes still balances. Results land in the striped cache (and
    /// the persist tier, when configured) — the point is that later
    /// per-function queries become memory hits. Out-of-range ids and
    /// per-function failures are skipped: prefetching is advisory, the
    /// query path reports its own errors.
    pub fn prefetch(&self, module: &Module, requests: &[(FuncId, AnalysisKind)]) {
        let n = requests.len();
        fan_out(self.worker_count(n), n, |i| {
            let (id, kind) = requests[i];
            if id < module.len() {
                let _ = self.resolve_kind(&CfgShape::of(module.func(id)), kind);
            }
        });
    }

    /// The generic resolution path every analysis rides: a probe by
    /// `(CFG shape, analysis kind)`, computing and inserting on a
    /// miss. Takes the already-computed fingerprint, so a caller that
    /// keeps one (a session entry) never re-fingerprints the CFG.
    ///
    /// Cache misses are deduplicated per key: the first prober
    /// registers an in-flight slot in the key's stripe and resolves
    /// the miss **outside the stripe lock** — first against the disk
    /// tier (if configured), then by computing over the shape's
    /// canonical graph; concurrent probers of the same key block on
    /// the slot and adopt the result, counted as `dedup_hits`.
    /// Capacity 0 disables *caching* but not dedup — even then,
    /// concurrent same-key probes share one computation.
    ///
    /// The resolution itself runs under `catch_unwind`: a panicking
    /// precomputation abandons the in-flight slot (waiters retry and
    /// get their own error, or succeed if the panic was transient) and
    /// surfaces as [`AnalysisError::ComputePanicked`] — it never
    /// crosses the engine boundary as an unwind, and with every lock
    /// acquisition poison-recovering, it never wedges other stripes.
    pub(crate) fn resolve<A: AnalysisArtifact>(
        &self,
        shape: &CfgShape,
    ) -> Result<Arc<A>, AnalysisError> {
        enum Role {
            Wait(Arc<InFlightSlot>),
            Compute(Arc<InFlightSlot>),
        }
        // The key's kind always matches `A`, so a cached or adopted
        // handle downcasts infallibly — the expect documents the
        // invariant rather than guarding a reachable state.
        let unwrap_handle = |handle: &ArtifactHandle| {
            Arc::clone(A::from_handle(handle).expect("cache entry kind matches its key"))
        };
        let key = (shape.clone(), A::KIND);
        let si = self.stripe_of(shape, A::KIND);
        let metered = self.recorder.enabled();
        loop {
            // One span per loop iteration: a retry after an abandoned
            // slot records its own (accurate) wait or hit.
            let t0 = metered.then(Instant::now);
            let role = {
                let mut st = lock_recover(&self.stripes[si]);
                if let Some(handle) = st.cache.probe(&key) {
                    if let Some(t0) = t0 {
                        self.recorder
                            .tier(Tier::MemoryHit, t0.elapsed().as_nanos() as u64);
                    }
                    return Ok(unwrap_handle(&handle));
                }
                if let Some(slot) = st.in_flight.get(&key).map(Arc::clone) {
                    // The dedup hit is counted on *adoption*, not here:
                    // if the computing worker unwinds and abandons the
                    // slot, this prober retries from the top and must
                    // not have been counted twice.
                    Role::Wait(slot)
                } else {
                    st.cache.note_miss();
                    let slot = Arc::new(InFlightSlot::default());
                    st.in_flight.insert(key.clone(), Arc::clone(&slot));
                    Role::Compute(slot)
                }
            };
            match role {
                // Another worker is resolving this key: wait for its
                // result instead of duplicating the work.
                Role::Wait(slot) => {
                    let adopted = {
                        let mut state = lock_recover(&slot.state);
                        loop {
                            match &*state {
                                SlotState::Pending => {
                                    state = slot
                                        .cond
                                        .wait(state)
                                        .unwrap_or_else(PoisonError::into_inner);
                                }
                                SlotState::Done(handle) => break Some(handle.clone()),
                                SlotState::Abandoned => break None, // retry from the top
                            }
                        }
                    };
                    if let Some(handle) = adopted {
                        lock_recover(&self.stripes[si]).cache.note_dedup_hit();
                        if let Some(t0) = t0 {
                            self.recorder
                                .tier(Tier::DedupWait, t0.elapsed().as_nanos() as u64);
                        }
                        return Ok(unwrap_handle(&handle));
                    }
                }
                // This worker owns the miss; the guard releases waiters
                // if the load-or-compute unwinds.
                Role::Compute(slot) => {
                    let guard = ComputeGuard {
                        engine: self,
                        stripe: si,
                        key: key.clone(),
                        slot: Arc::clone(&slot),
                        completed: false,
                    };
                    // AssertUnwindSafe: on unwind, `guard` publishes
                    // `Abandoned` and nothing partial survives — the
                    // caches only ever see completed values.
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        self.load_or_compute::<A>(shape)
                    }));
                    let (art, disk) = match outcome {
                        Ok(resolved) => resolved,
                        Err(payload) => {
                            // Dropping the guard abandons the slot and
                            // releases waiters; the panic becomes a
                            // typed per-function error.
                            drop(guard);
                            let message = panic_message(payload.as_ref());
                            if metered {
                                self.recorder.event(EventKind::ComputePanicked, &message);
                            }
                            return Err(AnalysisError::ComputePanicked { message });
                        }
                    };
                    let handle = A::into_handle(Arc::clone(&art));
                    let mut guard = guard;
                    {
                        let mut st = lock_recover(&self.stripes[si]);
                        match disk {
                            DiskOutcome::Disabled | DiskOutcome::Skipped => {}
                            DiskOutcome::Hit => st.cache.note_disk_hit(),
                            DiskOutcome::Miss => st.cache.note_disk_miss(),
                            DiskOutcome::Reject => st.cache.note_disk_reject(),
                            DiskOutcome::Error => st.cache.note_disk_error(),
                        }
                        st.cache.insert(key.clone(), handle.clone());
                        st.in_flight.remove(&key);
                    }
                    *lock_recover(&slot.state) = SlotState::Done(handle);
                    slot.cond.notify_all();
                    guard.completed = true;
                    // Write-through happens *after* waiters are
                    // released — disk I/O never extends the dedup
                    // critical path. A valid entry that was just read
                    // back is not rewritten; a rejected one is
                    // overwritten with the recomputation. A *failed*
                    // write never disturbs the computed result — it
                    // only feeds `disk_errors` and the breaker.
                    if let (Some(store), DiskOutcome::Miss | DiskOutcome::Reject) =
                        (&self.store, &disk)
                    {
                        match store.save_artifact(shape, &*art) {
                            Ok(()) => {
                                self.disk_success();
                                // A fresh valid entry is on disk: any
                                // reject streak for this key is over.
                                self.quarantine.note_good(shape.hash64() ^ A::KIND.salt());
                            }
                            Err(_) => {
                                self.disk_failure();
                                lock_recover(&self.stripes[si]).cache.note_disk_error();
                            }
                        }
                    }
                    return Ok(art);
                }
            }
        }
    }

    /// Resolves one in-memory miss: probe the disk tier, falling back
    /// to the shape-level precomputation. Both paths build the
    /// artifact over the shape's **canonical graph** (sorted successor
    /// lists), which pins one dominance-preorder numbering per shape —
    /// the contract that makes serialized matrices exact for every
    /// shape-identical function in any process (see
    /// [`persist`](crate::persist)).
    ///
    /// The breaker is shared across analyses (it tracks the *device*),
    /// while quarantine entries are keyed by the kind-salted hash —
    /// exactly the unit that keeps rejecting on disk.
    fn load_or_compute<A: AnalysisArtifact>(&self, shape: &CfgShape) -> (Arc<A>, DiskOutcome) {
        let metered = self.recorder.enabled();
        let span = |tier: Tier, t0: Option<Instant>| {
            if let Some(t0) = t0 {
                self.recorder.tier(tier, t0.elapsed().as_nanos() as u64);
            }
        };
        let compute = |outcome: DiskOutcome| {
            self.fire_compute_fault(shape);
            let t0 = metered.then(Instant::now);
            let art = A::compute(shape);
            span(Tier::Compute, t0);
            (Arc::new(art), outcome)
        };
        let Some(store) = &self.store else {
            return compute(DiskOutcome::Disabled);
        };
        let salted = shape.hash64() ^ A::KIND.salt();
        // Degradation gates, cheapest first: a quarantined entry (it
        // kept rejecting) and a tripped breaker (the device kept
        // erroring) both skip the disk and compute memory-only. The
        // skip span is 0 ns by definition — the count is the signal.
        if self.quarantine.is_quarantined(salted) || !self.breaker.allow_at(Instant::now()) {
            if metered {
                self.recorder.tier(Tier::DiskSkipped, 0);
            }
            return compute(DiskOutcome::Skipped);
        }
        let t0 = metered.then(Instant::now);
        match store.load_artifact::<A>(shape) {
            // The store decodes *and* revives under the entry's
            // analysis tag: a hit is a fully validated artifact, and a
            // dimensionally-wrong or tag-mismatched entry surfaced as
            // `Reject` below rather than a partial value here.
            LoadOutcome::Hit(art) => {
                self.disk_success();
                self.quarantine.note_good(salted);
                // The hit span covers read + decode + revive — the
                // full cost of being served from disk.
                span(Tier::DiskHit, t0);
                (Arc::new(art), DiskOutcome::Hit)
            }
            LoadOutcome::Absent => {
                // The disk answered (even if with "nothing there"):
                // the device is healthy.
                self.disk_success();
                span(Tier::DiskMiss, t0);
                compute(DiskOutcome::Miss)
            }
            LoadOutcome::Reject => {
                self.disk_success();
                self.shape_reject(salted);
                span(Tier::DiskReject, t0);
                compute(DiskOutcome::Reject)
            }
            LoadOutcome::Error(_) => {
                self.disk_failure();
                span(Tier::DiskError, t0);
                compute(DiskOutcome::Error)
            }
        }
    }

    /// Feeds a disk success to the breaker; a closed-edge transition
    /// becomes a `breaker_restored` event.
    fn disk_success(&self) {
        if self.breaker.record_success_at(Instant::now()) && self.recorder.enabled() {
            self.recorder.event(
                EventKind::BreakerRestored,
                "probe succeeded; disk tier back",
            );
        }
    }

    /// Feeds a disk I/O failure to the breaker; an open-edge transition
    /// becomes a `breaker_tripped` event.
    fn disk_failure(&self) {
        if self.breaker.record_failure_at(Instant::now()) && self.recorder.enabled() {
            let (_, trips, _, _, streak) = self.breaker.snapshot();
            let detail = format!("trips={trips} streak={streak}");
            self.recorder.event(EventKind::BreakerTripped, &detail);
        }
    }

    /// Feeds a per-shape reject to the quarantine; crossing the
    /// threshold becomes a `shape_quarantined` event.
    fn shape_reject(&self, hash: u64) {
        if self.quarantine.note_reject(hash) && self.recorder.enabled() {
            let detail = format!("shape={hash:016x}");
            self.recorder.event(EventKind::ShapeQuarantined, &detail);
        }
    }

    /// Installs (or clears, with `None`) the compute-fault hook: a
    /// callback invoked at the top of every §5.2 precomputation, i.e.
    /// only after both cache tiers missed. **A fault-injection seam
    /// for tests** — a hook that panics for selected shapes exercises
    /// the panic-isolation path (slot abandonment, waiter retry, typed
    /// [`AnalysisError`]s) exactly as a real panicking precompute
    /// would. Production code has no reason to call this.
    pub fn set_compute_fault(&self, hook: Option<ComputeFaultHook>) {
        *lock_recover(&self.compute_fault) = hook;
    }

    fn fire_compute_fault(&self, shape: &CfgShape) {
        // The guard is held across the call: if the hook panics the
        // mutex poisons, which every other acquisition recovers from.
        let hook = lock_recover(&self.compute_fault);
        if let Some(hook) = hook.as_ref() {
            hook(shape);
        }
    }

    /// A point-in-time health snapshot: breaker state and counters,
    /// quarantine size, and the cumulative [`CacheStats`] (including
    /// `disk_errors`). This is the observability surface of graceful
    /// degradation — a long-running host polls it to notice the disk
    /// tier tripping open and restoring.
    pub fn health(&self) -> HealthReport {
        let (state, trips, restores, skipped, streak) = self.breaker.snapshot();
        let stripes = self.stripe_stats();
        let cache = stripes
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.add(s));
        HealthReport {
            persist_configured: self.store.is_some(),
            disk_state: state,
            disk_trips: trips,
            disk_restores: restores,
            disk_probes_skipped: skipped,
            consecutive_disk_failures: streak,
            quarantined_shapes: self.quarantine.len(),
            cache,
            stripes,
            last_gc: *lock_recover(&self.last_gc),
            recent_events: self.recorder.recent_events(),
        }
    }

    /// Everything the engine's [`Recorder`] accumulated, as a plain
    /// comparable snapshot — `None` when the engine runs on the no-op
    /// recorder (built via [`new`](Self::new) / [`with_vfs`](Self::with_vfs)).
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        self.recorder.snapshot()
    }

    /// The engine's recorder (sessions report revalidations through
    /// it).
    pub(crate) fn recorder(&self) -> &dyn Recorder {
        &*self.recorder
    }

    /// Cumulative cache statistics (hits / misses / evictions / dedup
    /// hits / disk tier), summed over all stripes.
    pub fn cache_stats(&self) -> CacheStats {
        self.stripe_stats()
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.add(s))
    }

    /// Per-stripe cache statistics, in stripe order. Always sums
    /// (field-wise) to [`cache_stats`](Self::cache_stats) — a probe is
    /// accounted in exactly one stripe.
    pub fn stripe_stats(&self) -> Vec<CacheStats> {
        self.stripes
            .iter()
            .map(|s| lock_recover(s).cache.stats())
            .collect()
    }

    /// Runs a GC sweep over the persistence tier
    /// ([`PersistStore::gc`]): entries older than `max_age` (when
    /// given) are deleted, then the oldest survivors until at most
    /// `max_entries` remain. Returns `None` when the engine has no
    /// [`EngineConfig::persist_dir`] configured.
    ///
    /// Always safe at any time: a gc'd entry degrades to one clean
    /// `disk_misses` recomputation (which writes the entry back). The
    /// in-memory tier is untouched — it has its own LRU bound.
    pub fn gc_persist(
        &self,
        max_entries: usize,
        max_age: Option<std::time::Duration>,
    ) -> Option<crate::persist::GcStats> {
        let stats = self.store.as_ref().map(|s| s.gc(max_entries, max_age));
        if let Some(stats) = stats {
            *lock_recover(&self.last_gc) = Some(stats);
            if self.recorder.enabled() {
                let detail = format!("retained={} removed={}", stats.retained, stats.removed);
                self.recorder.event(EventKind::GcRun, &detail);
            }
        }
        stats
    }

    /// Number of precomputations currently cached, over all stripes.
    pub fn cache_len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| lock_recover(s).cache.len())
            .sum()
    }

    /// Resolved worker count for a module of `n` functions (shared
    /// with the module-destruction driver, which also reuses
    /// [`panic_message`] for its own catch_unwind).
    pub(crate) fn worker_count(&self, n: usize) -> usize {
        let configured = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.config.threads
        };
        configured.clamp(1, n.max(1))
    }
}

/// Runs `job(i)` for every `i < n` on `workers` self-scheduling
/// threads and returns the results in index order: each worker claims
/// the next unclaimed index off a shared atomic cursor, so skewed job
/// sizes still balance. With one worker everything runs inline on the
/// calling thread, spawning nothing. A worker that dies (a panic that
/// escapes `job`) loses every index it claimed: those slots come back
/// `None`, and the caller picks the fallback.
pub(crate) fn fan_out<T: Send>(
    workers: usize,
    n: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<Option<T>> {
    if workers <= 1 {
        return (0..n).map(|i| Some(job(i))).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, job(i)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            if let Ok(done) = handle.join() {
                for (i, result) in done {
                    slots[i] = Some(result);
                }
            }
        }
    });
    slots
}

/// Stringifies a `catch_unwind` payload: `&str` and `String` payloads
/// (what `panic!` produces) come through verbatim, anything else
/// becomes a placeholder.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_ir::parse_module;

    fn small_module() -> Module {
        parse_module(
            "function %a { block0(v0): v1 = ineg v0  return v1 }
             function %b { block0(v0): v1 = bnot v0  return v1 }
             function %c { block0(v0): jump block1 block1: return v0 }",
        )
        .expect("parses")
    }

    #[test]
    fn identical_shapes_share_one_precomputation() {
        let module = small_module();
        let engine = AnalysisEngine::new(EngineConfig {
            threads: 1,
            cache_capacity: 16,
            ..EngineConfig::default()
        });
        let mut session = engine.analyze(&module);
        let stats = engine.cache_stats();
        // %a and %b share a shape; %c differs.
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(engine.cache_len(), 2);
        // The shared precomputation still answers per-function questions
        // from each function's own def-use chains.
        let c = module.by_name("c").unwrap();
        let v0 = module.func(c).params()[0];
        let b1 = module.func(c).block_by_index(1);
        assert!(session.is_live_in(&module, c, v0, b1).unwrap());
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let module = small_module();
        for threads in [1usize, 2, 4, 8] {
            let engine = AnalysisEngine::new(EngineConfig {
                threads,
                cache_capacity: 0,
                ..EngineConfig::default()
            });
            let mut session = engine.analyze(&module);
            for (id, func) in module.iter() {
                for v in func.values() {
                    for b in func.blocks() {
                        let expect = FunctionLiveness::compute(func).is_live_in(func, v, b);
                        assert_eq!(
                            session.is_live_in(&module, id, v, b).unwrap(),
                            expect,
                            "threads={threads} {} {v} {b}",
                            func.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_module_analyzes_to_an_empty_session() {
        let engine = AnalysisEngine::with_defaults();
        let session = engine.analyze(&Module::new());
        assert_eq!(session.num_functions(), 0);
    }

    #[test]
    fn concurrent_same_shape_probes_compute_exactly_once() {
        // ROADMAP PR-2 follow-up: per-fingerprint in-flight dedup. A
        // barrier releases N threads onto the same (uncached) shape at
        // once; exactly one may pay the precomputation, the rest must
        // adopt its in-flight result.
        use std::sync::Barrier;
        let func = fastlive_ir::parse_function(
            "function %f { block0(v0): jump block1 block1: return v0 }",
        )
        .expect("parses");
        const N: usize = 8;
        let engine = AnalysisEngine::new(EngineConfig {
            threads: 1,
            cache_capacity: 16,
            ..EngineConfig::default()
        });
        let barrier = Barrier::new(N);
        let handles: Vec<Arc<FunctionLiveness>> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..N)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        engine.analysis_for(&func).expect("no injected faults")
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("prober panicked"))
                .collect()
        });
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "one precomputation under any interleaving");
        assert_eq!(
            stats.hits + stats.dedup_hits,
            (N - 1) as u64,
            "everyone else reused it: {stats:?}"
        );
        // All N handles share the single precomputation.
        for h in &handles[1..] {
            assert!(Arc::ptr_eq(&handles[0], h));
        }
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn dedup_applies_even_with_caching_disabled() {
        // Capacity 0 drops inserts, but simultaneous probes of one
        // shape still share the in-flight computation.
        use std::sync::Barrier;
        let func =
            fastlive_ir::parse_function("function %f { block0(v0): return v0 }").expect("parses");
        const N: usize = 4;
        let engine = AnalysisEngine::new(EngineConfig {
            threads: 1,
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        let barrier = Barrier::new(N);
        std::thread::scope(|scope| {
            for _ in 0..N {
                scope.spawn(|| {
                    barrier.wait();
                    engine.analysis_for(&func).expect("no injected faults")
                });
            }
        });
        let stats = engine.cache_stats();
        assert_eq!(
            stats.misses + stats.dedup_hits,
            N as u64,
            "every probe accounted for: {stats:?}"
        );
        assert!(
            stats.misses >= 1 && stats.misses + stats.hits <= N as u64,
            "{stats:?}"
        );
        assert_eq!(engine.cache_len(), 0, "capacity 0 retains nothing");
    }
}
