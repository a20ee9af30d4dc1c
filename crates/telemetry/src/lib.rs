//! `fastlive-telemetry` — the zero-dependency metrics core of the
//! fastlive stack.
//!
//! Everything the query plane wants to *measure* lives here, and
//! nothing the query plane wants to *answer* does: answers never
//! depend on telemetry state (a workspace standing invariant), so
//! this crate exports only write-mostly atomic primitives and one
//! read-side snapshot type.
//!
//! The pieces:
//!
//! * [`Counter`] — a relaxed atomic `u64`.
//! * [`Histogram`] — a fixed-boundary log₂-bucketed latency histogram
//!   (65 buckets cover the full `u64` nanosecond range). Each record
//!   is one `fetch_add` into exactly one bucket plus a sum/max update,
//!   so bucket totals are **exact under any contention** — the
//!   multi-thread exactness the barrier-storm tests pin.
//! * [`EventLog`] — a bounded ring buffer of structured [`Event`]s
//!   (breaker trips/restores, quarantines, compute panics, gc runs,
//!   session revalidations). Events are rare; the log is behind one
//!   mutex.
//! * [`Recorder`] — the instrumentation seam. Every method has a
//!   no-op default and [`Recorder::enabled`] defaults to `false`, so
//!   hot paths guard their clock reads on `enabled()` and a
//!   [`NoopRecorder`] compiles instrumentation down to one predictable
//!   branch (`BENCH_obs.json` records the ≈1.0× budget).
//! * [`Telemetry`] — the real recorder: per-query-kind, per-tier and
//!   per-VFS-op histograms, planner counters, queue-depth
//!   distribution, and the event log, snapshotted into a plain
//!   comparable [`TelemetrySnapshot`] with JSON / Prometheus-text /
//!   `Display` renderings (no serde — the same discipline as the
//!   persist codec).
//! * [`Json`] — the one JSON writer: the benchmark and fuzz report
//!   files and every `to_json` rendering are built, checked and
//!   rendered with it.
//!
//! # Examples
//!
//! ```
//! use fastlive_telemetry::{QueryClass, Recorder, Telemetry};
//! use std::sync::Arc;
//!
//! let hub = Arc::new(Telemetry::new());
//! hub.query(QueryClass::LiveIn, "session", 1_250);
//! hub.query(QueryClass::LiveIn, "session", 840);
//!
//! let snap = hub.snapshot().expect("a real recorder snapshots");
//! let live_in = &snap.queries[QueryClass::LiveIn as usize].hist;
//! assert_eq!(live_in.count, 2);
//! assert_eq!(live_in.sum, 2_090);
//! assert_eq!(snap.to_json().get("events_dropped"), Some(&0u64.into()));
//! assert!(snap.to_prometheus().contains("fastlive_query_latency_ns"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod hist;
mod hub;
mod json;
mod snapshot;

pub use events::{Event, EventKind, EventLog};
pub use hist::{Counter, Histogram, HistogramSnapshot, BUCKETS};
pub use hub::{QueryClass, Telemetry, Tier, VfsOp};
pub use json::Json;
pub use snapshot::{NamedCount, NamedHistogram, PlanSnapshot, TelemetrySnapshot, VfsOpSnapshot};

/// The instrumentation seam every fastlive layer records through.
///
/// All methods default to no-ops and [`enabled`](Self::enabled)
/// defaults to `false`; instrumentation sites are written as
///
/// ```ignore
/// let t0 = recorder.enabled().then(Instant::now);
/// let out = hot_path();
/// if let Some(t0) = t0 {
///     recorder.tier(Tier::MemoryHit, t0.elapsed().as_nanos() as u64);
/// }
/// ```
///
/// so a disabled recorder never pays a clock read, a format, or an
/// allocation — only the `enabled()` branch. Implementations must be
/// `Send + Sync`: one recorder is shared by every worker thread.
///
/// The trait is deliberately analysis-agnostic (durations, byte
/// counts, opaque labels): the ROADMAP's sparse-dataflow
/// generalization reuses it unchanged.
pub trait Recorder: Send + Sync {
    /// Should instrumentation sites measure at all? `false` (the
    /// default) lets hot paths skip clock reads and detail formatting
    /// entirely.
    fn enabled(&self) -> bool {
        false
    }

    /// One facade query answered: its kind, the backend that served
    /// it, and the end-to-end dispatch latency in nanoseconds.
    fn query(&self, _class: QueryClass, _backend: &'static str, _ns: u64) {}

    /// One planned `run_queries` batch finished: how many queries it
    /// carried, how many per-function groups took the grouped
    /// (batch-row) vs the scalar path, and the whole-batch latency.
    fn plan(&self, _queries: u64, _grouped_groups: u64, _scalar_groups: u64, _ns: u64) {}

    /// One engine cache-tier outcome with its duration: a memory hit,
    /// a dedup wait, a disk probe (classified), or a cold compute.
    fn tier(&self, _tier: Tier, _ns: u64) {}

    /// One persistence-tier filesystem operation: kind, latency,
    /// payload bytes (read or written; 0 for metadata-only ops) and
    /// whether it succeeded.
    fn vfs_op(&self, _op: VfsOp, _ns: u64, _bytes: u64, _ok: bool) {}

    /// Worker-pool queue depth observed when a worker claimed its next
    /// function (the number of functions still unclaimed, including
    /// the one just taken).
    fn queue_depth(&self, _depth: u64) {}

    /// A rare structured event (breaker trip/restore, quarantine,
    /// compute panic, gc run, session revalidation). Call sites guard
    /// on [`enabled`](Self::enabled) before formatting `detail`.
    fn event(&self, _kind: EventKind, _detail: &str) {}

    /// A point-in-time snapshot of everything recorded, or `None` for
    /// recorders that keep no state (the no-op).
    fn snapshot(&self) -> Option<TelemetrySnapshot> {
        None
    }

    /// The most recent events, oldest first — what `HealthReport`
    /// folds in. Empty for stateless recorders.
    fn recent_events(&self) -> Vec<Event> {
        Vec::new()
    }
}

/// The do-nothing [`Recorder`]: every default method body, state-free.
/// This is what uninstrumented stacks run on — one `enabled()` branch
/// per site and nothing else.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn noop_recorder_is_disabled_and_stateless() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        r.query(QueryClass::LiveIn, "session", 1);
        r.tier(Tier::Compute, 1);
        r.event(EventKind::GcRun, "retained=1");
        assert_eq!(r.snapshot(), None);
        assert!(r.recent_events().is_empty());
    }

    #[test]
    fn recorder_objects_are_shareable() {
        // The engine holds `Arc<dyn Recorder>`; both impls must coerce.
        let noop: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        let real: Arc<dyn Recorder> = Arc::new(Telemetry::new());
        assert!(!noop.enabled());
        assert!(real.enabled());
    }
}
