//! Spans around the benchmark's own calls into each layer.
//!
//! A span records a name, start, end, its parent span and the op it
//! belongs to. Each op has one root span named [`OP`]; the facade and
//! IR calls the op makes are its children. After the root closes, the
//! benchmark replays the op's inputs one layer down (engine session,
//! `FunctionLiveness`, `LivenessChecker`, the bitset kernel, ...) under
//! further root spans of the same op: those measure the layers the
//! facade calls internally without instrumenting the program.
//!
//! Spans stay in memory. Per-name totals are kept for the whole run;
//! the spans themselves are kept for the first [`LOG_SPANS`] and
//! written out at exit. Disabled, a tracer reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Name of every op's root span.
pub const OP: &str = "op";

/// Spans kept for export; later ops only feed the per-name totals.
pub const LOG_SPANS: usize = 50_000;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was called, `layer.detail`.
    pub name: &'static str,
    /// Clock read just before the call.
    pub start_ns: u64,
    /// Clock read just after the call.
    pub end_ns: u64,
    /// Index of the enclosing span within the same op, if any.
    pub parent: Option<u32>,
    /// The op the span belongs to.
    pub op: u64,
    /// Calls the span covers (a replay loop times many calls at once).
    pub items: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Whole-run totals of the spans sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStat {
    /// Spans recorded.
    pub spans: u64,
    /// Calls those spans covered.
    pub items: u64,
    /// Summed span time.
    pub total_ns: u64,
}

impl SpanStat {
    /// Mean time per covered call, less what the spans' own clock reads
    /// added (`span_cost_ns` per span, see [`Tracer::span_cost_ns`]).
    pub fn ns_per_item(&self, span_cost_ns: f64) -> f64 {
        let net = (self.total_ns as f64 - self.spans as f64 * span_cost_ns).max(0.0);
        crate::stats::ratio(net, self.items as f64)
    }
}

/// Handle of an open span (`None` while tracing is off).
pub type SpanId = Option<u32>;

/// The layer a span name belongs to: the text before the first `.`,
/// with the op root attributed to the benchmark itself.
pub fn layer_of(name: &str) -> &str {
    match name {
        OP => "bench",
        _ => name.split('.').next().unwrap_or(name),
    }
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    cur: Vec<Span>,
    stack: Vec<u32>,
    log: Vec<Span>,
    stats: BTreeMap<&'static str, SpanStat>,
    self_by_layer: BTreeMap<String, u64>,
    op_ns: Vec<u64>,
    op_child_spans: u64,
    unbalanced: u64,
    span_cost_ns: f64,
}

impl Tracer {
    /// A tracer, recording from the start when `on`.
    pub fn new(on: bool) -> Self {
        let mut t = Tracer {
            on: true,
            epoch: Instant::now(),
            op: 0,
            cur: Vec::new(),
            stack: Vec::new(),
            log: Vec::new(),
            stats: BTreeMap::new(),
            self_by_layer: BTreeMap::new(),
            op_ns: Vec::new(),
            op_child_spans: 0,
            unbalanced: 0,
            span_cost_ns: 0.0,
        };
        t.calibrate();
        t.on = on;
        t
    }

    /// The time an empty span reads: what one traced call adds to its
    /// own span. Per-call facade spans are corrected by it.
    fn calibrate(&mut self) {
        const N: usize = 4096;
        for _ in 0..N {
            let s = self.begin("calibrate");
            self.end(s, 1);
        }
        let total: u64 = self.cur.iter().map(Span::dur).sum();
        self.span_cost_ns = total as f64 / N as f64;
        self.cur.clear();
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts or stops recording (between ops).
    pub fn set_on(&mut self, on: bool) {
        self.flush();
        self.on = on;
    }

    /// Measured cost of one empty span, in nanoseconds.
    pub fn span_cost_ns(&self) -> f64 {
        self.span_cost_ns
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. The clock is read
    /// last, so the bookkeeping stays outside the measured call.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let idx = self.cur.len() as u32;
        self.cur.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            items: 1,
        });
        self.stack.push(idx);
        let t = self.now();
        self.cur[idx as usize].start_ns = t;
        Some(idx)
    }

    /// Closes span `id`, which covered `items` calls, and returns its
    /// duration (0 while tracing is off).
    pub fn end(&mut self, id: SpanId, items: u64) -> u64 {
        let Some(idx) = id else { return 0 };
        let t = self.now();
        let span = &mut self.cur[idx as usize];
        span.end_ns = t;
        span.items = items;
        let dur = span.dur();
        if self.stack.pop() != Some(idx) {
            self.unbalanced += 1;
        }
        dur
    }

    /// Closes span `id` like [`end`](Self::end) and returns its duration
    /// less the cost of an empty span: what the covered calls took.
    pub fn end_net(&mut self, id: SpanId, items: u64) -> f64 {
        self.end(id, items) as f64 - self.span_cost_ns
    }

    /// Starts op `op`: settles the previous op's spans and opens the
    /// new op's root span.
    pub fn begin_op(&mut self, op: u64) -> SpanId {
        self.flush();
        self.op = op;
        self.begin(OP)
    }

    /// Folds the current op's spans into the run totals: per-name
    /// stats for every span, and for the op tree (the root and its
    /// descendants) self time per layer, where self time is a span's
    /// duration minus the durations of its children.
    pub fn flush(&mut self) {
        if self.cur.is_empty() {
            return;
        }
        if !self.stack.is_empty() {
            self.unbalanced += self.stack.len() as u64;
            self.stack.clear();
        }
        let mut child_ns = vec![0u64; self.cur.len()];
        for s in &self.cur {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur();
            }
        }
        // Spans are pushed in start order, so a parent always precedes
        // its children: one forward pass finds the op tree.
        let mut in_tree = vec![false; self.cur.len()];
        for (i, s) in self.cur.iter().enumerate() {
            in_tree[i] = match s.parent {
                None => s.name == OP,
                Some(p) => in_tree[p as usize],
            };
            let stat = self.stats.entry(s.name).or_default();
            stat.spans += 1;
            stat.items += s.items;
            stat.total_ns += s.dur();
            if in_tree[i] {
                let own = s.dur().saturating_sub(child_ns[i]);
                *self
                    .self_by_layer
                    .entry(layer_of(s.name).to_string())
                    .or_default() += own;
            }
            if s.parent.is_none() && s.name == OP {
                self.op_ns.push(s.dur());
            } else if in_tree[i] {
                self.op_child_spans += 1;
            }
        }
        if self.log.len() + self.cur.len() <= LOG_SPANS {
            self.log.extend_from_slice(&self.cur);
        }
        self.cur.clear();
    }

    /// Whole-run totals of spans named `name`.
    pub fn stat(&self, name: &str) -> SpanStat {
        self.stats.get(name).copied().unwrap_or_default()
    }

    /// Durations of the traced ops' root spans.
    pub fn op_ns(&self) -> &[u64] {
        &self.op_ns
    }

    /// Spans inside the traced ops' root spans: each added one empty
    /// span's cost to its root.
    pub fn op_child_spans(&self) -> u64 {
        self.op_child_spans
    }

    /// Self time of the op trees per layer, summed over the run.
    pub fn self_by_layer(&self) -> &BTreeMap<String, u64> {
        &self.self_by_layer
    }

    /// Spans left open or closed out of order.
    pub fn unbalanced(&self) -> u64 {
        self.unbalanced
    }

    /// The per-name totals and the per-layer self times as JSON.
    pub fn summary(&self) -> Json {
        let mut names = Json::obj();
        for (name, s) in &self.stats {
            let mut o = Json::obj();
            o.set("spans", s.spans)
                .set("items", s.items)
                .set("total_ns", s.total_ns)
                .set("ns_per_item", s.ns_per_item(self.span_cost_ns));
            names.set(*name, o);
        }
        let mut layers = Json::obj();
        for (layer, ns) in &self.self_by_layer {
            layers.set(layer.clone(), *ns);
        }
        let mut o = Json::obj();
        o.set("spans_by_name", names)
            .set("op_tree_self_ns_by_layer", layers)
            .set("unbalanced_spans", self.unbalanced)
            .set("span_cost_ns", self.span_cost_ns);
        o
    }

    /// The logged spans, one JSON array per span:
    /// `[name, start_ns, end_ns, parent, op, items]`.
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.log
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        s.name.into(),
                        s.start_ns.into(),
                        s.end_ns.into(),
                        s.parent.map_or(Json::Null, Json::from),
                        s.op.into(),
                        s.items.into(),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_op() {
        let mut t = Tracer::new(true);
        for op in 0..3 {
            let root = t.begin_op(op);
            let a = t.begin("facade.query.live_in");
            let b = t.begin("ir.edit.insert");
            t.end(b, 1);
            t.end(a, 1);
            t.end(root, 1);
            let r = t.begin("core.query.live_in");
            t.end(r, 4);
        }
        t.flush();
        assert_eq!(t.op_ns().len(), 3);
        assert_eq!(t.op_child_spans(), 6, "replays sit outside the op tree");
        assert_eq!(t.stat("core.query.live_in").items, 12);
        assert_eq!(t.unbalanced(), 0);
        let layers: Vec<_> = t.self_by_layer().keys().cloned().collect();
        assert_eq!(layers, ["bench", "facade", "ir"]);
    }

    #[test]
    fn an_unclosed_span_is_counted() {
        let mut t = Tracer::new(true);
        let root = t.begin_op(0);
        let _left_open = t.begin("facade.run_queries");
        t.end(root, 1);
        t.flush();
        assert!(t.unbalanced() >= 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin_op(0);
        assert!(s.is_none());
        t.end(s, 1);
        t.flush();
        assert!(t.op_ns().is_empty());
        assert!(t.span_cost_ns() > 0.0);
    }
}
