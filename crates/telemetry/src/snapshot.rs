//! [`TelemetrySnapshot`]: the plain, comparable export value, with
//! hand-rolled JSON and Prometheus-text renderings.
//!
//! No serde anywhere — the renderings are built with `std::fmt::Write`
//! exactly like the persist codec builds bytes, so the exposition
//! formats are auditable in one file and cost nothing at build time.

use std::fmt::Write as _;

use crate::events::Event;
use crate::hist::HistogramSnapshot;

/// Escapes `s` for embedding in a JSON string literal (quotes,
/// backslashes and control characters; everything else passes
/// through). Shared by every `to_json` in the workspace.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl HistogramSnapshot {
    /// JSON object: count/sum/max, the three stock quantiles, and the
    /// non-empty buckets as `[upper_bound, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.max,
            self.p50(),
            self.p90(),
            self.p99()
        );
        for (i, (upper, n)) in self.nonzero_buckets().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{upper},{n}]");
        }
        out.push_str("]}");
        out
    }
}

impl Event {
    /// JSON object: `{"seq":…,"kind":"…","detail":"…"}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            self.seq,
            self.kind.name(),
            json_escape(&self.detail)
        )
    }
}

/// A labelled histogram snapshot (`name` is a stable snake_case label
/// from [`QueryClass`](crate::QueryClass) / [`Tier`](crate::Tier)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NamedHistogram {
    /// The metric label.
    pub name: &'static str,
    /// The distribution.
    pub hist: HistogramSnapshot,
}

/// A labelled counter value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NamedCount {
    /// The metric label.
    pub name: &'static str,
    /// The count.
    pub count: u64,
}

/// One VFS op kind's recorded I/O: latency distribution, cumulative
/// payload bytes, and failed-operation count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VfsOpSnapshot {
    /// The op label (`"read"`, `"write"`, …).
    pub name: &'static str,
    /// Per-operation latency.
    pub latency: HistogramSnapshot,
    /// Total payload bytes moved (read: bytes returned; write: bytes
    /// submitted; 0 for metadata-only ops).
    pub bytes: u64,
    /// Operations that returned an error.
    pub errors: u64,
}

/// What the `run_queries` planner did across all batches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanSnapshot {
    /// Planned batches executed.
    pub batches: u64,
    /// Queries carried by those batches.
    pub queries: u64,
    /// Per-function groups that took the grouped (batch-row) path.
    pub grouped_groups: u64,
    /// Per-function groups answered query-by-query (scalar path).
    pub scalar_groups: u64,
    /// Distribution of batch sizes (queries per `run_queries` call).
    pub batch_size: HistogramSnapshot,
    /// Distribution of whole-batch latencies, nanoseconds.
    pub batch_ns: HistogramSnapshot,
}

/// A point-in-time copy of everything a [`Telemetry`](crate::Telemetry)
/// hub recorded — a plain value: `Clone`, comparable, no locks, no
/// atomics. Render it with [`to_json`](Self::to_json),
/// [`to_prometheus`](Self::to_prometheus) or `Display`.
///
/// The default value is the "telemetry disabled" snapshot: every
/// vector empty, every counter zero — what `Fastlive::telemetry()`
/// returns on an uninstrumented stack.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Per-query-kind dispatch latency, in
    /// [`QueryClass::ALL`](crate::QueryClass::ALL) order.
    pub queries: Vec<NamedHistogram>,
    /// Queries served per backend (`session` / `oracle` / `other`).
    pub backend_queries: Vec<NamedCount>,
    /// Per-tier outcome durations, in [`Tier::ALL`](crate::Tier::ALL)
    /// order.
    pub tiers: Vec<NamedHistogram>,
    /// Per-VFS-op I/O, in [`VfsOp::ALL`](crate::VfsOp::ALL) order.
    pub vfs_ops: Vec<VfsOpSnapshot>,
    /// Planner activity.
    pub plan: PlanSnapshot,
    /// Worker-pool queue depths observed at claim time.
    pub queue_depth: HistogramSnapshot,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted by the ring bound.
    pub events_dropped: u64,
}

impl TelemetrySnapshot {
    /// Total queries recorded across all kinds.
    pub fn total_queries(&self) -> u64 {
        self.queries.iter().map(|q| q.hist.count).sum()
    }

    /// Total tier outcomes recorded across all tiers.
    pub fn total_tier_records(&self) -> u64 {
        self.tiers.iter().map(|t| t.hist.count).sum()
    }

    /// The named tier's distribution, if present.
    pub fn tier(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.tiers.iter().find(|t| t.name == name).map(|t| &t.hist)
    }

    /// The named query kind's distribution, if present.
    pub fn query_kind(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.queries
            .iter()
            .find(|q| q.name == name)
            .map(|q| &q.hist)
    }

    /// The whole snapshot as one JSON object (stable key order; see
    /// the README's "Observability" section for the schema).
    pub fn to_json(&self) -> String {
        let named_hists = |out: &mut String, items: &[NamedHistogram]| {
            for (i, nh) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", nh.name, nh.hist.to_json());
            }
        };
        let mut out = String::from("{\"queries\":{");
        named_hists(&mut out, &self.queries);
        out.push_str("},\"backend_queries\":{");
        for (i, nc) in self.backend_queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", nc.name, nc.count);
        }
        out.push_str("},\"tiers\":{");
        named_hists(&mut out, &self.tiers);
        out.push_str("},\"vfs\":{");
        for (i, op) in self.vfs_ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"latency\":{},\"bytes\":{},\"errors\":{}}}",
                op.name,
                op.latency.to_json(),
                op.bytes,
                op.errors
            );
        }
        let _ = write!(
            out,
            "}},\"plan\":{{\"batches\":{},\"queries\":{},\"grouped_groups\":{},\
             \"scalar_groups\":{},\"batch_size\":{},\"batch_ns\":{}}}",
            self.plan.batches,
            self.plan.queries,
            self.plan.grouped_groups,
            self.plan.scalar_groups,
            self.plan.batch_size.to_json(),
            self.plan.batch_ns.to_json()
        );
        let _ = write!(out, ",\"queue_depth\":{}", self.queue_depth.to_json());
        out.push_str(",\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        let _ = write!(out, "],\"events_dropped\":{}}}", self.events_dropped);
        out
    }

    /// Prometheus text exposition (version 0.0.4): proper `histogram`
    /// families with cumulative `le` buckets, `counter` families for
    /// the scalars, and an `fastlive_events_total` counter per event
    /// kind.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let hist_family =
            |out: &mut String, metric: &str, label: &str, items: &[(&str, &HistogramSnapshot)]| {
                let _ = writeln!(out, "# TYPE {metric} histogram");
                for (name, h) in items {
                    let mut cumulative = 0u64;
                    for (upper, n) in h.nonzero_buckets() {
                        cumulative += n;
                        let _ = writeln!(
                            out,
                            "{metric}_bucket{{{label}=\"{name}\",le=\"{upper}\"}} {cumulative}"
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{metric}_bucket{{{label}=\"{name}\",le=\"+Inf\"}} {}",
                        h.count
                    );
                    let _ = writeln!(out, "{metric}_sum{{{label}=\"{name}\"}} {}", h.sum);
                    let _ = writeln!(out, "{metric}_count{{{label}=\"{name}\"}} {}", h.count);
                }
            };
        hist_family(
            &mut out,
            "fastlive_query_latency_ns",
            "kind",
            &self
                .queries
                .iter()
                .map(|q| (q.name, &q.hist))
                .collect::<Vec<_>>(),
        );
        let _ = writeln!(out, "# TYPE fastlive_backend_queries_total counter");
        for nc in &self.backend_queries {
            let _ = writeln!(
                out,
                "fastlive_backend_queries_total{{backend=\"{}\"}} {}",
                nc.name, nc.count
            );
        }
        hist_family(
            &mut out,
            "fastlive_tier_latency_ns",
            "tier",
            &self
                .tiers
                .iter()
                .map(|t| (t.name, &t.hist))
                .collect::<Vec<_>>(),
        );
        hist_family(
            &mut out,
            "fastlive_vfs_latency_ns",
            "op",
            &self
                .vfs_ops
                .iter()
                .map(|v| (v.name, &v.latency))
                .collect::<Vec<_>>(),
        );
        let _ = writeln!(out, "# TYPE fastlive_vfs_bytes_total counter");
        for v in &self.vfs_ops {
            let _ = writeln!(
                out,
                "fastlive_vfs_bytes_total{{op=\"{}\"}} {}",
                v.name, v.bytes
            );
        }
        let _ = writeln!(out, "# TYPE fastlive_vfs_errors_total counter");
        for v in &self.vfs_ops {
            let _ = writeln!(
                out,
                "fastlive_vfs_errors_total{{op=\"{}\"}} {}",
                v.name, v.errors
            );
        }
        let _ = writeln!(out, "# TYPE fastlive_plan_batches_total counter");
        let _ = writeln!(out, "fastlive_plan_batches_total {}", self.plan.batches);
        let _ = writeln!(out, "# TYPE fastlive_plan_queries_total counter");
        let _ = writeln!(out, "fastlive_plan_queries_total {}", self.plan.queries);
        let _ = writeln!(out, "# TYPE fastlive_plan_groups_total counter");
        let _ = writeln!(
            out,
            "fastlive_plan_groups_total{{path=\"grouped\"}} {}",
            self.plan.grouped_groups
        );
        let _ = writeln!(
            out,
            "fastlive_plan_groups_total{{path=\"scalar\"}} {}",
            self.plan.scalar_groups
        );
        hist_family(
            &mut out,
            "fastlive_queue_depth",
            "pool",
            &[("analyze", &self.queue_depth)],
        );
        let _ = writeln!(out, "# TYPE fastlive_events_total counter");
        for kind in crate::EventKind::ALL {
            let n = self.events.iter().filter(|e| e.kind == kind).count();
            let _ = writeln!(out, "fastlive_events_total{{kind=\"{}\"}} {n}", kind.name());
        }
        out
    }
}

/// One summary line per non-empty metric family — the operator-log
/// rendering (`log::info!("{snapshot}")`-shaped, minus the logger).
impl std::fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "telemetry: {} queries", self.total_queries())?;
        for q in self.queries.iter().filter(|q| q.hist.count > 0) {
            writeln!(
                f,
                "  query {:<10} n={:<8} p50={}ns p90={}ns p99={}ns max={}ns",
                q.name,
                q.hist.count,
                q.hist.p50(),
                q.hist.p90(),
                q.hist.p99(),
                q.hist.max
            )?;
        }
        for t in self.tiers.iter().filter(|t| t.hist.count > 0) {
            writeln!(
                f,
                "  tier  {:<12} n={:<8} p50={}ns p99={}ns",
                t.name,
                t.hist.count,
                t.hist.p50(),
                t.hist.p99()
            )?;
        }
        for v in self.vfs_ops.iter().filter(|v| v.latency.count > 0) {
            writeln!(
                f,
                "  vfs   {:<10} n={:<8} bytes={} errors={} p99={}ns",
                v.name,
                v.latency.count,
                v.bytes,
                v.errors,
                v.latency.p99()
            )?;
        }
        if self.plan.batches > 0 {
            writeln!(
                f,
                "  plan  batches={} queries={} grouped={} scalar={}",
                self.plan.batches,
                self.plan.queries,
                self.plan.grouped_groups,
                self.plan.scalar_groups
            )?;
        }
        if self.queue_depth.count > 0 {
            writeln!(
                f,
                "  queue depth n={} p50={} max={}",
                self.queue_depth.count,
                self.queue_depth.p50(),
                self.queue_depth.max
            )?;
        }
        write!(
            f,
            "  events retained={} dropped={}",
            self.events.len(),
            self.events_dropped
        )?;
        for e in &self.events {
            write!(f, "\n    [{}] {}: {}", e.seq, e.kind.name(), e.detail)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, QueryClass, Recorder, Telemetry, Tier, VfsOp};

    fn sample() -> TelemetrySnapshot {
        let hub = Telemetry::new();
        hub.query(QueryClass::LiveIn, "session", 100);
        hub.query(QueryClass::Interfere, "oracle", 9_000);
        hub.plan(3, 1, 0, 12_000);
        hub.tier(Tier::MemoryHit, 40);
        hub.tier(Tier::Compute, 80_000);
        hub.vfs_op(VfsOp::Read, 2_000, 512, true);
        hub.queue_depth(2);
        hub.event(EventKind::BreakerTripped, "streak=5 \"quoted\"\n");
        hub.snapshot_now()
    }

    /// A tiny structural JSON validator: brace/bracket balance with
    /// string-literal awareness — enough to catch every class of
    /// hand-rolling mistake (unescaped quotes, trailing commas are
    /// caught by the balance going wrong at the comma's container).
    fn assert_balanced_json(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in {s}");
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string in {s}");
        assert_eq!(depth, 0, "unbalanced braces in {s}");
    }

    #[test]
    fn json_is_balanced_and_carries_every_family() {
        let json = sample().to_json();
        assert_balanced_json(&json);
        for key in [
            "\"queries\"",
            "\"backend_queries\"",
            "\"tiers\"",
            "\"vfs\"",
            "\"plan\"",
            "\"queue_depth\"",
            "\"events\"",
            "\"events_dropped\"",
            "\"live_in\"",
            "\"memory_hit\"",
            "\"breaker_tripped\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn json_escapes_event_details() {
        let json = sample().to_json();
        assert!(json.contains("streak=5 \\\"quoted\\\"\\n"));
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn prometheus_exposition_is_structurally_sound() {
        let prom = sample().to_prometheus();
        for needle in [
            "# TYPE fastlive_query_latency_ns histogram",
            "fastlive_query_latency_ns_bucket{kind=\"live_in\",le=\"+Inf\"} 1",
            "fastlive_query_latency_ns_count{kind=\"live_in\"} 1",
            "fastlive_backend_queries_total{backend=\"session\"} 1",
            "fastlive_tier_latency_ns_count{tier=\"compute\"} 1",
            "fastlive_vfs_bytes_total{op=\"read\"} 512",
            "fastlive_plan_batches_total 1",
            "fastlive_events_total{kind=\"breaker_tripped\"} 1",
        ] {
            assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
        }
        // Cumulative le buckets never decrease within a series.
        let mut last: Option<(String, u64)> = None;
        for line in prom.lines().filter(|l| l.contains("_bucket{")) {
            let series = line.split(",le=").next().unwrap().to_string();
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            if let Some((prev_series, prev)) = &last {
                if *prev_series == series {
                    assert!(value >= *prev, "non-monotone bucket: {line}");
                }
            }
            last = Some((series, value));
        }
    }

    #[test]
    fn display_summarizes_nonempty_families_only() {
        let text = sample().to_string();
        assert!(text.contains("query live_in"));
        assert!(text.contains("tier  compute"));
        assert!(text.contains("plan  batches=1"));
        assert!(text.contains("breaker_tripped"));
        assert!(!text.contains("live_out"), "empty families are elided");

        let empty = TelemetrySnapshot::default().to_string();
        assert!(empty.contains("0 queries"));
    }

    #[test]
    fn default_snapshot_is_the_disabled_rendering() {
        let d = TelemetrySnapshot::default();
        assert_eq!(d.total_queries(), 0);
        assert_balanced_json(&d.to_json());
        assert!(d.to_prometheus().contains("fastlive_plan_batches_total 0"));
    }
}
