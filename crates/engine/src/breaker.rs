//! Graceful degradation of the disk tier: a circuit breaker over
//! [`PersistStore`](crate::PersistStore) I/O plus a per-shape
//! quarantine for entries that reject repeatedly.
//!
//! The disk tier is an accelerator. When the device under it fails —
//! ENOSPC, a permission flip, a dying controller — the correct
//! behavior is not to hammer it on every cache miss (each probe costs
//! a syscall timeout and log spam) but to *trip open*: skip the disk,
//! run memory-only, and probe occasionally until the device recovers.
//! That is a classic circuit breaker:
//!
//! ```text
//!            N consecutive I/O errors
//!   Closed ────────────────────────────▶ Open
//!     ▲                                   │ backoff elapses
//!     │ probe succeeds                    ▼
//!     └──────────────────────────────  HalfOpen
//!                │ probe fails: back to Open,
//!                ▼ backoff doubles (capped)
//! ```
//!
//! - **Closed** — healthy; every miss probes the disk.
//! - **Open** — tripped; every miss computes in memory without
//!   touching the disk (`probes_skipped`). After the current backoff
//!   elapses the next miss is promoted to a half-open probe.
//! - **HalfOpen** — exactly one probe is in flight against the disk.
//!   Success restores **Closed** (and resets the backoff); failure
//!   returns to **Open** with the backoff doubled, up to
//!   [`BreakerConfig::max_backoff`].
//!
//! Orthogonally, a *quarantine* tracks per-shape reject streaks: an
//! entry that decodes invalid over and over (a wedged file on an
//! otherwise healthy disk) stops being probed after
//! [`BreakerConfig::quarantine_threshold`] consecutive rejects — the
//! breaker handles sick *devices*, the quarantine sick *files*.
//!
//! Everything here is time-explicit (`*_at(now)`) so unit tests drive
//! the state machine with synthetic clocks; the engine passes
//! `Instant::now()`.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::cache::CacheStats;
use crate::persist::GcStats;
use crate::vfs::lock_recover;
use fastlive_telemetry::{Event, Json};

/// Tuning knobs of the disk circuit breaker (and the per-shape reject
/// quarantine riding along with it). See the [module docs](self) for
/// the state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive disk I/O errors that trip the breaker open.
    /// `0` disables tripping entirely (every miss keeps probing the
    /// disk, errors are still counted in `disk_errors`).
    pub trip_threshold: u32,
    /// Backoff before the first half-open probe after a trip.
    pub initial_backoff: Duration,
    /// Backoff ceiling: doubling stops here.
    pub max_backoff: Duration,
    /// Consecutive *rejects* of one shape's entry before that shape is
    /// quarantined (its probes skip the disk for the life of the
    /// engine, or until a probe sees a valid entry). `0` disables
    /// quarantining.
    pub quarantine_threshold: u32,
}

/// Defaults: trip after 5 consecutive errors, back off 100ms doubling
/// to 30s, quarantine a shape after 3 consecutive rejects.
impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_threshold: 5,
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(30),
            quarantine_threshold: 3,
        }
    }
}

/// Where the breaker's state machine currently sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: disk probes flow.
    Closed,
    /// Tripped: disk probes are skipped until the backoff elapses.
    Open,
    /// One recovery probe is in flight; everyone else still skips.
    HalfOpen,
}

impl BreakerState {
    /// Stable snake_case label (used by the `HealthReport` renderings).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// A point-in-time snapshot of the engine's degradation machinery —
/// returned by `AnalysisEngine::health()` and surfaced through the
/// facade as `Fastlive::health()`.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Whether a persistence directory is configured at all. When
    /// `false` the breaker fields are inert (state stays `Closed`).
    pub persist_configured: bool,
    /// Current breaker state.
    pub disk_state: BreakerState,
    /// Transitions into [`BreakerState::Open`] — both initial trips
    /// and failed half-open probes re-opening.
    pub disk_trips: u64,
    /// Successful half-open probes that restored
    /// [`BreakerState::Closed`].
    pub disk_restores: u64,
    /// Disk probes skipped because the breaker was open (each one was
    /// served memory-only instead).
    pub disk_probes_skipped: u64,
    /// Current run of consecutive disk I/O errors (resets on any
    /// successful disk operation).
    pub consecutive_disk_failures: u32,
    /// Shapes currently quarantined for repeated rejects.
    pub quarantined_shapes: usize,
    /// Cumulative cache counters, including `disk_errors`, summed over
    /// all stripes.
    pub cache: CacheStats,
    /// Per-stripe cache counters, in stripe order; always sums
    /// field-wise to [`cache`](Self::cache).
    pub stripes: Vec<CacheStats>,
    /// Outcome of the most recent persistence-tier GC sweep run by
    /// this engine, if any.
    pub last_gc: Option<GcStats>,
    /// Recent telemetry events (breaker trips/restores, quarantines,
    /// compute panics, gc runs, session revalidations), oldest first.
    /// Empty when telemetry is disabled — the counters above are
    /// always live regardless.
    pub recent_events: Vec<Event>,
}

impl HealthReport {
    /// The report as one JSON object (stable key order; the same
    /// writer as
    /// [`TelemetrySnapshot::to_json`](fastlive_telemetry::TelemetrySnapshot::to_json)).
    pub fn to_json(&self) -> Json {
        let last_gc = match &self.last_gc {
            Some(gc) => Json::obj()
                .field("retained", gc.retained)
                .field("removed", gc.removed),
            None => Json::Null,
        };
        Json::obj()
            .field("persist_configured", self.persist_configured)
            .field("disk_state", self.disk_state.name())
            .field("disk_trips", self.disk_trips)
            .field("disk_restores", self.disk_restores)
            .field("disk_probes_skipped", self.disk_probes_skipped)
            .field("consecutive_disk_failures", self.consecutive_disk_failures)
            .field("quarantined_shapes", self.quarantined_shapes)
            .field("cache", self.cache.to_json())
            .field(
                "stripes",
                self.stripes
                    .iter()
                    .map(CacheStats::to_json)
                    .collect::<Json>(),
            )
            .field("last_gc", last_gc)
            .field(
                "recent_events",
                self.recent_events
                    .iter()
                    .map(Event::to_json)
                    .collect::<Json>(),
            )
    }
}

/// Compact operator summary: one header line, one line per stripe with
/// activity, recent events last.
impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "health: disk={} trips={} restores={} skipped={} streak={} quarantined={} persist={}",
            self.disk_state.name(),
            self.disk_trips,
            self.disk_restores,
            self.disk_probes_skipped,
            self.consecutive_disk_failures,
            self.quarantined_shapes,
            self.persist_configured
        )?;
        write!(f, "\n  cache: {}", self.cache)?;
        for (i, s) in self.stripes.iter().enumerate() {
            if *s != CacheStats::default() {
                write!(f, "\n  stripe[{i}]: {s}")?;
            }
        }
        if let Some(gc) = &self.last_gc {
            write!(f, "\n  gc: retained={} removed={}", gc.retained, gc.removed)?;
        }
        for e in &self.recent_events {
            write!(f, "\n  event[{}] {}: {}", e.seq, e.kind.name(), e.detail)?;
        }
        Ok(())
    }
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    /// Backoff applied at the *next* (re-)open.
    backoff: Duration,
    /// In `Open`: when the next half-open probe may start. In
    /// `HalfOpen`: the probe's lease deadline — if the prober vanished
    /// (panicked between `allow` and `record_*`), a later caller may
    /// take over rather than wedging the tier open forever.
    deadline: Option<Instant>,
    trips: u64,
    restores: u64,
    probes_skipped: u64,
}

/// The engine's disk circuit breaker. All methods are time-explicit;
/// thread-safe behind one small mutex (taken only on disk-tier
/// decisions, never on in-memory hits).
pub(crate) struct DiskBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl DiskBreaker {
    pub(crate) fn new(config: BreakerConfig) -> Self {
        let backoff = config.initial_backoff;
        DiskBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                backoff,
                deadline: None,
                trips: 0,
                restores: 0,
                probes_skipped: 0,
            }),
        }
    }

    /// May this miss probe the disk right now? `false` means "skip the
    /// disk, compute memory-only" (counted in `probes_skipped`). A
    /// `true` from an `Open` state promotes the caller to *the*
    /// half-open probe — it must report back via
    /// [`record_success_at`](Self::record_success_at) or
    /// [`record_failure_at`](Self::record_failure_at).
    pub(crate) fn allow_at(&self, now: Instant) -> bool {
        let mut inner = lock_recover(&self.inner);
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if inner.deadline.is_some_and(|d| now >= d) {
                    inner.state = BreakerState::HalfOpen;
                    // Probe lease: if this prober never reports back,
                    // the tier un-wedges after one more backoff.
                    inner.deadline = Some(now + inner.backoff);
                    true
                } else {
                    inner.probes_skipped += 1;
                    false
                }
            }
            BreakerState::HalfOpen => {
                if inner.deadline.is_some_and(|d| now >= d) {
                    // The previous probe's lease expired without a
                    // verdict; take over.
                    inner.deadline = Some(now + inner.backoff);
                    true
                } else {
                    inner.probes_skipped += 1;
                    false
                }
            }
        }
    }

    /// A disk operation succeeded: any non-closed state restores to
    /// `Closed`, the failure streak and backoff reset. Returns `true`
    /// when this call *transitioned* the breaker back to `Closed` —
    /// the edge telemetry turns into a `breaker_restored` event.
    pub(crate) fn record_success_at(&self, _now: Instant) -> bool {
        let mut inner = lock_recover(&self.inner);
        inner.consecutive_failures = 0;
        let restored = inner.state != BreakerState::Closed;
        if restored {
            inner.state = BreakerState::Closed;
            inner.restores += 1;
        }
        inner.backoff = self.config.initial_backoff;
        inner.deadline = None;
        restored
    }

    /// A disk operation failed with an I/O error. In `Closed`, the
    /// streak grows and trips the breaker at the threshold; in
    /// `HalfOpen`, the probe failed — re-open with the backoff doubled
    /// (capped at [`BreakerConfig::max_backoff`]). Returns `true` when
    /// this call transitioned the breaker into `Open` — the edge
    /// telemetry turns into a `breaker_tripped` event.
    pub(crate) fn record_failure_at(&self, now: Instant) -> bool {
        let mut inner = lock_recover(&self.inner);
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        match inner.state {
            BreakerState::Closed => {
                if self.config.trip_threshold > 0
                    && inner.consecutive_failures >= self.config.trip_threshold
                {
                    inner.state = BreakerState::Open;
                    inner.trips += 1;
                    inner.deadline = Some(now + inner.backoff);
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.trips += 1;
                inner.backoff = (inner.backoff * 2).min(self.config.max_backoff);
                inner.deadline = Some(now + inner.backoff);
                true
            }
            // Shouldn't happen (Open probes are skipped), but harmless:
            // the streak grew, the deadline stands.
            BreakerState::Open => false,
        }
    }

    #[cfg(test)]
    pub(crate) fn state(&self) -> BreakerState {
        lock_recover(&self.inner).state
    }

    /// (state, trips, restores, probes_skipped, consecutive_failures).
    pub(crate) fn snapshot(&self) -> (BreakerState, u64, u64, u64, u32) {
        let inner = lock_recover(&self.inner);
        (
            inner.state,
            inner.trips,
            inner.restores,
            inner.probes_skipped,
            inner.consecutive_failures,
        )
    }
}

/// Per-shape reject streaks: shapes whose on-disk entry keeps failing
/// validation stop being probed (the breaker handles sick devices;
/// this handles sick files on healthy devices). Keyed by the shape's
/// 64-bit fingerprint hash — a collision merely merges two streaks,
/// which can only cost an extra recomputation, never a wrong answer.
pub(crate) struct Quarantine {
    threshold: u32,
    counts: Mutex<HashMap<u64, u32>>,
}

impl Quarantine {
    pub(crate) fn new(threshold: u32) -> Self {
        Quarantine {
            threshold,
            counts: Mutex::new(HashMap::new()),
        }
    }

    /// Is this shape's disk entry quarantined (skip the probe)?
    pub(crate) fn is_quarantined(&self, hash: u64) -> bool {
        self.threshold > 0
            && lock_recover(&self.counts)
                .get(&hash)
                .is_some_and(|&c| c >= self.threshold)
    }

    /// The shape's entry failed validation again. Returns `true` when
    /// this reject *crossed* the threshold — the shape is newly
    /// quarantined (the edge telemetry turns into a
    /// `shape_quarantined` event; further rejects return `false`).
    pub(crate) fn note_reject(&self, hash: u64) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let mut counts = lock_recover(&self.counts);
        let c = counts.entry(hash).or_insert(0);
        *c = c.saturating_add(1);
        *c == self.threshold
    }

    /// The shape's entry validated (or was overwritten with a fresh
    /// one): the streak resets.
    pub(crate) fn note_good(&self, hash: u64) {
        lock_recover(&self.counts).remove(&hash);
    }

    /// Shapes currently at or above the quarantine threshold.
    pub(crate) fn len(&self) -> usize {
        let counts = lock_recover(&self.counts);
        if self.threshold == 0 {
            return 0;
        }
        counts.values().filter(|&&c| c >= self.threshold).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            trip_threshold: 3,
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
            quarantine_threshold: 2,
        }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let b = DiskBreaker::new(cfg());
        let t0 = Instant::now();
        assert!(b.allow_at(t0));
        b.record_failure_at(t0);
        b.record_failure_at(t0);
        assert_eq!(b.state(), BreakerState::Closed, "streak of 2 < 3");
        // A success resets the streak entirely.
        b.record_success_at(t0);
        b.record_failure_at(t0);
        b.record_failure_at(t0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure_at(t0);
        assert_eq!(b.state(), BreakerState::Open);
        let (_, trips, _, _, streak) = b.snapshot();
        assert_eq!(trips, 1);
        assert_eq!(streak, 3);
    }

    #[test]
    fn open_skips_until_backoff_then_half_open_probe() {
        let b = DiskBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure_at(t0);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Inside the backoff window: skipped.
        assert!(!b.allow_at(t0 + Duration::from_millis(50)));
        assert!(!b.allow_at(t0 + Duration::from_millis(99)));
        // Past it: exactly one caller becomes the half-open probe.
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.allow_at(t1));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow_at(t1), "second caller is not a probe");
        let (_, _, _, skipped, _) = b.snapshot();
        assert_eq!(skipped, 3);
    }

    #[test]
    fn probe_success_restores_and_resets_backoff() {
        let b = DiskBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure_at(t0);
        }
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.allow_at(t1));
        b.record_success_at(t1);
        assert_eq!(b.state(), BreakerState::Closed);
        let (_, trips, restores, _, streak) = b.snapshot();
        assert_eq!((trips, restores, streak), (1, 1, 0));
        // Re-trip: the backoff starts over at initial, not doubled.
        for _ in 0..3 {
            b.record_failure_at(t1);
        }
        assert!(!b.allow_at(t1 + Duration::from_millis(99)));
        assert!(b.allow_at(t1 + Duration::from_millis(100)));
    }

    #[test]
    fn probe_failure_doubles_backoff_up_to_the_cap() {
        let b = DiskBreaker::new(cfg());
        let mut now = Instant::now();
        for _ in 0..3 {
            b.record_failure_at(now);
        }
        // Each failed probe doubles: 100 → 200 → 400 → 400 (capped).
        for expect_ms in [200u64, 400, 400] {
            now += Duration::from_millis(1_000); // well past any backoff
            assert!(b.allow_at(now), "promoted to probe");
            b.record_failure_at(now);
            assert_eq!(b.state(), BreakerState::Open);
            assert!(!b.allow_at(now + Duration::from_millis(expect_ms - 1)));
            assert!(b.allow_at(now + Duration::from_millis(expect_ms)));
            // Un-take the probe we just claimed for the assertion by
            // failing it; the loop's `now` jump re-syncs the clock.
            b.record_failure_at(now + Duration::from_millis(expect_ms));
        }
    }

    #[test]
    fn vanished_probe_lease_expires() {
        let b = DiskBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure_at(t0);
        }
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.allow_at(t1));
        // The prober never reports back (it panicked). After one more
        // backoff a new caller takes over instead of wedging forever.
        assert!(!b.allow_at(t1 + Duration::from_millis(99)));
        assert!(b.allow_at(t1 + Duration::from_millis(100)));
    }

    #[test]
    fn zero_threshold_never_trips() {
        let b = DiskBreaker::new(BreakerConfig {
            trip_threshold: 0,
            ..cfg()
        });
        let t0 = Instant::now();
        for _ in 0..100 {
            b.record_failure_at(t0);
            assert!(b.allow_at(t0));
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn record_calls_flag_only_the_transition_edges() {
        let b = DiskBreaker::new(cfg());
        let t0 = Instant::now();
        assert!(!b.record_failure_at(t0));
        assert!(!b.record_failure_at(t0));
        assert!(b.record_failure_at(t0), "third failure trips");
        assert!(!b.record_failure_at(t0), "already open: no edge");
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.allow_at(t1));
        assert!(b.record_success_at(t1), "probe success restores");
        assert!(!b.record_success_at(t1), "already closed: no edge");
    }

    #[test]
    fn note_reject_flags_only_the_threshold_crossing() {
        let q = Quarantine::new(2);
        assert!(!q.note_reject(9));
        assert!(q.note_reject(9), "second reject crosses");
        assert!(!q.note_reject(9), "already quarantined: no edge");
        q.note_good(9);
        assert!(!q.note_reject(9));
        assert!(q.note_reject(9), "healing and re-crossing flags again");
        assert!(!Quarantine::new(0).note_reject(1), "disabled never flags");
    }

    #[test]
    fn health_report_renders_stably() {
        use fastlive_telemetry::EventKind;
        let report = HealthReport {
            persist_configured: true,
            disk_state: BreakerState::HalfOpen,
            disk_trips: 2,
            disk_restores: 1,
            disk_probes_skipped: 7,
            consecutive_disk_failures: 3,
            quarantined_shapes: 1,
            cache: CacheStats {
                hits: 5,
                misses: 2,
                ..CacheStats::default()
            },
            stripes: vec![
                CacheStats {
                    hits: 5,
                    misses: 2,
                    ..CacheStats::default()
                },
                CacheStats::default(),
            ],
            last_gc: Some(GcStats {
                retained: 4,
                removed: 1,
            }),
            recent_events: vec![Event {
                seq: 0,
                kind: EventKind::BreakerTripped,
                detail: "streak=3".into(),
            }],
        };
        let json = report.to_json().to_string();
        for key in [
            "\"disk_state\": \"half_open\"",
            "\"cache\": {\"hits\": 5",
            "\"stripes\": [{",
            "\"last_gc\": {\"retained\": 4, \"removed\": 1}",
            "\"kind\": \"breaker_tripped\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = report.to_string();
        assert!(text.contains("disk=half_open"));
        assert!(text.contains("stripe[0]"));
        assert!(!text.contains("stripe[1]"), "idle stripes are elided");
        assert!(text.contains("breaker_tripped: streak=3"));

        let none = HealthReport {
            last_gc: None,
            recent_events: Vec::new(),
            ..report
        };
        assert!(none.to_json().to_string().contains("\"last_gc\": null"));
    }

    #[test]
    fn quarantine_trips_per_shape_and_heals_on_good() {
        let q = Quarantine::new(2);
        assert!(!q.is_quarantined(7));
        q.note_reject(7);
        assert!(!q.is_quarantined(7), "streak of 1 < 2");
        q.note_reject(7);
        assert!(q.is_quarantined(7));
        assert!(!q.is_quarantined(8), "streaks are per shape");
        assert_eq!(q.len(), 1);
        q.note_good(7);
        assert!(!q.is_quarantined(7));
        assert_eq!(q.len(), 0);
        // Threshold 0 disables quarantining.
        let q0 = Quarantine::new(0);
        q0.note_reject(7);
        q0.note_reject(7);
        assert!(!q0.is_quarantined(7));
        assert_eq!(q0.len(), 0);
    }
}
