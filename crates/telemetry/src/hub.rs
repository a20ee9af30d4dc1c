//! [`Telemetry`]: the real [`Recorder`] — one hub of atomic metric
//! families shared (behind an `Arc`) by every layer of a fastlive
//! stack.

use crate::events::{EventKind, EventLog};
use crate::hist::{Counter, Histogram};
use crate::snapshot::{NamedCount, NamedHistogram, PlanSnapshot, TelemetrySnapshot, VfsOpSnapshot};
use crate::Recorder;

/// The facade query kinds, as telemetry labels. Mirrors the facade's
/// `Query` enum without depending on it — this crate sits *below*
/// every other fastlive crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryClass {
    /// Block live-in probe.
    LiveIn,
    /// Block live-out probe.
    LiveOut,
    /// Program-point liveness probe.
    LiveAt,
    /// Whole-function live sets.
    LiveSets,
    /// Value-interference test.
    Interfere,
    /// Nullness fact probe (dominance-based sparse analysis).
    Nullness,
    /// Definite-initialization probe.
    DefiniteInit,
}

impl QueryClass {
    /// Every class, in label order (snapshot vectors use this order).
    pub const ALL: [QueryClass; 7] = [
        QueryClass::LiveIn,
        QueryClass::LiveOut,
        QueryClass::LiveAt,
        QueryClass::LiveSets,
        QueryClass::Interfere,
        QueryClass::Nullness,
        QueryClass::DefiniteInit,
    ];

    /// Stable snake_case label.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::LiveIn => "live_in",
            QueryClass::LiveOut => "live_out",
            QueryClass::LiveAt => "live_at",
            QueryClass::LiveSets => "live_sets",
            QueryClass::Interfere => "interfere",
            QueryClass::Nullness => "nullness",
            QueryClass::DefiniteInit => "definite_init",
        }
    }
}

/// Which cache tier resolved (or contributed to) one engine analysis
/// probe, with a duration attached. One `AnalysisEngine::resolve` call
/// records exactly one of `MemoryHit` / `DedupWait` / `Compute`; when
/// the disk tier is consulted, one additional `Disk*` span rides along.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The in-memory cache answered (span: lock + probe).
    MemoryHit,
    /// Another worker was computing the same shape; this probe waited
    /// and adopted its result (span: the full wait).
    DedupWait,
    /// The disk probe decoded a valid entry (span: read + decode +
    /// revive).
    DiskHit,
    /// The disk probe found nothing (span: the probe I/O).
    DiskMiss,
    /// The disk probe found an invalid entry (span: read + failed
    /// validation).
    DiskReject,
    /// The disk probe's I/O failed (span: the failing I/O).
    DiskError,
    /// The disk was skipped — breaker open or shape quarantined
    /// (span: 0; the count is the signal).
    DiskSkipped,
    /// The §5.2 precomputation ran (span: the compute itself).
    Compute,
}

impl Tier {
    /// Every tier, in label order.
    pub const ALL: [Tier; 8] = [
        Tier::MemoryHit,
        Tier::DedupWait,
        Tier::DiskHit,
        Tier::DiskMiss,
        Tier::DiskReject,
        Tier::DiskError,
        Tier::DiskSkipped,
        Tier::Compute,
    ];

    /// Stable snake_case label.
    pub fn name(self) -> &'static str {
        match self {
            Tier::MemoryHit => "memory_hit",
            Tier::DedupWait => "dedup_wait",
            Tier::DiskHit => "disk_hit",
            Tier::DiskMiss => "disk_miss",
            Tier::DiskReject => "disk_reject",
            Tier::DiskError => "disk_error",
            Tier::DiskSkipped => "disk_skipped",
            Tier::Compute => "compute",
        }
    }
}

/// Persistence-tier filesystem operation kinds — mirrors the engine's
/// `vfs::OpKind` (minus its `Any` matcher) without the dependency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VfsOp {
    /// Whole-file read.
    Read,
    /// Whole-file write.
    Write,
    /// Atomic rename.
    Rename,
    /// File deletion.
    Remove,
    /// Stat.
    Metadata,
    /// Directory listing.
    ReadDir,
    /// Recursive directory creation.
    CreateDir,
}

impl VfsOp {
    /// Every op, in label order.
    pub const ALL: [VfsOp; 7] = [
        VfsOp::Read,
        VfsOp::Write,
        VfsOp::Rename,
        VfsOp::Remove,
        VfsOp::Metadata,
        VfsOp::ReadDir,
        VfsOp::CreateDir,
    ];

    /// Stable snake_case label.
    pub fn name(self) -> &'static str {
        match self {
            VfsOp::Read => "read",
            VfsOp::Write => "write",
            VfsOp::Rename => "rename",
            VfsOp::Remove => "remove",
            VfsOp::Metadata => "metadata",
            VfsOp::ReadDir => "read_dir",
            VfsOp::CreateDir => "create_dir",
        }
    }
}

/// Per-backend query counters: the two stock backends plus a bucket
/// for any external `QueryEngine` implementation.
const BACKENDS: [&str; 3] = ["session", "oracle", "other"];

fn backend_slot(name: &str) -> usize {
    BACKENDS
        .iter()
        .position(|&b| b == name)
        .unwrap_or(BACKENDS.len() - 1)
}

/// The real [`Recorder`]: atomic histogram/counter families for every
/// instrumented site, plus the event ring log. Shared as
/// `Arc<Telemetry>` between the facade (which also keeps it for
/// [`snapshot`](Telemetry::snapshot)) and the engine it built.
///
/// All record paths are lock-free (the event log's mutex is touched
/// only by rare events), so the enabled-recorder overhead on the query
/// hot path stays within the few-percent budget `BENCH_obs.json`
/// proves.
#[derive(Debug, Default)]
pub struct Telemetry {
    queries: [Histogram; QueryClass::ALL.len()],
    backend_queries: [Counter; BACKENDS.len()],
    tiers: [Histogram; Tier::ALL.len()],
    vfs_ns: [Histogram; VfsOp::ALL.len()],
    vfs_bytes: [Counter; VfsOp::ALL.len()],
    vfs_errors: [Counter; VfsOp::ALL.len()],
    plan_batches: Counter,
    plan_queries: Counter,
    plan_grouped_groups: Counter,
    plan_scalar_groups: Counter,
    plan_batch_size: Histogram,
    plan_batch_ns: Histogram,
    queue_depth: Histogram,
    events: EventLog,
}

impl Telemetry {
    /// A fresh hub with the default event capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the comparable snapshot (also reachable through
    /// [`Recorder::snapshot`], which wraps it in `Some`).
    pub fn snapshot_now(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            queries: QueryClass::ALL
                .iter()
                .map(|&c| NamedHistogram {
                    name: c.name(),
                    hist: self.queries[c as usize].snapshot(),
                })
                .collect(),
            backend_queries: BACKENDS
                .iter()
                .zip(&self.backend_queries)
                .map(|(&name, c)| NamedCount {
                    name,
                    count: c.get(),
                })
                .collect(),
            tiers: Tier::ALL
                .iter()
                .map(|&t| NamedHistogram {
                    name: t.name(),
                    hist: self.tiers[t as usize].snapshot(),
                })
                .collect(),
            vfs_ops: VfsOp::ALL
                .iter()
                .map(|&op| VfsOpSnapshot {
                    name: op.name(),
                    latency: self.vfs_ns[op as usize].snapshot(),
                    bytes: self.vfs_bytes[op as usize].get(),
                    errors: self.vfs_errors[op as usize].get(),
                })
                .collect(),
            plan: PlanSnapshot {
                batches: self.plan_batches.get(),
                queries: self.plan_queries.get(),
                grouped_groups: self.plan_grouped_groups.get(),
                scalar_groups: self.plan_scalar_groups.get(),
                batch_size: self.plan_batch_size.snapshot(),
                batch_ns: self.plan_batch_ns.snapshot(),
            },
            queue_depth: self.queue_depth.snapshot(),
            events: self.events.snapshot(),
            events_dropped: self.events.dropped(),
        }
    }
}

impl Recorder for Telemetry {
    fn enabled(&self) -> bool {
        true
    }

    fn query(&self, class: QueryClass, backend: &'static str, ns: u64) {
        self.queries[class as usize].record(ns);
        self.backend_queries[backend_slot(backend)].inc();
    }

    fn plan(&self, queries: u64, grouped_groups: u64, scalar_groups: u64, ns: u64) {
        self.plan_batches.inc();
        self.plan_queries.add(queries);
        self.plan_grouped_groups.add(grouped_groups);
        self.plan_scalar_groups.add(scalar_groups);
        self.plan_batch_size.record(queries);
        self.plan_batch_ns.record(ns);
    }

    fn tier(&self, tier: Tier, ns: u64) {
        self.tiers[tier as usize].record(ns);
    }

    fn vfs_op(&self, op: VfsOp, ns: u64, bytes: u64, ok: bool) {
        self.vfs_ns[op as usize].record(ns);
        self.vfs_bytes[op as usize].add(bytes);
        if !ok {
            self.vfs_errors[op as usize].inc();
        }
    }

    fn queue_depth(&self, depth: u64) {
        self.queue_depth.record(depth);
    }

    fn event(&self, kind: EventKind, detail: &str) {
        self.events.record(kind, detail);
    }

    fn snapshot(&self) -> Option<TelemetrySnapshot> {
        Some(self.snapshot_now())
    }

    fn recent_events(&self) -> Vec<crate::Event> {
        self.events.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_site_lands_in_the_snapshot() {
        let hub = Telemetry::new();
        hub.query(QueryClass::LiveAt, "session", 500);
        hub.query(QueryClass::LiveAt, "unknown-backend", 700);
        hub.plan(10, 2, 1, 40_000);
        hub.tier(Tier::Compute, 90_000);
        hub.vfs_op(VfsOp::Write, 3_000, 128, false);
        hub.queue_depth(4);
        hub.event(EventKind::GcRun, "retained=1 removed=0");

        let s = hub.snapshot_now();
        assert_eq!(s.queries[QueryClass::LiveAt as usize].hist.count, 2);
        assert_eq!(s.backend_queries[0].count, 1, "session");
        assert_eq!(s.backend_queries[2].count, 1, "unknown folds into other");
        assert_eq!(s.plan.batches, 1);
        assert_eq!(s.plan.queries, 10);
        assert_eq!(s.plan.grouped_groups, 2);
        assert_eq!(s.plan.scalar_groups, 1);
        assert_eq!(s.tiers[Tier::Compute as usize].hist.count, 1);
        let write = &s.vfs_ops[VfsOp::Write as usize];
        assert_eq!(
            (write.bytes, write.errors, write.latency.count),
            (128, 1, 1)
        );
        assert_eq!(s.queue_depth.count, 1);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events_dropped, 0);
    }

    #[test]
    fn snapshots_of_equal_state_compare_equal() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        for hub in [&a, &b] {
            hub.query(QueryClass::LiveIn, "session", 64);
            hub.tier(Tier::MemoryHit, 32);
        }
        assert_eq!(a.snapshot_now(), b.snapshot_now());
        a.queue_depth(1);
        assert_ne!(a.snapshot_now(), b.snapshot_now());
    }
}
