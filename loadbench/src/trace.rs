//! The traced pass's bookkeeping.
//!
//! Stage times come from the program's own stage trace: the engine's
//! [`TraceSnapshot`] on the analysis workloads, deltas of the daemon's
//! `/metrics` on `serve_mixed`.  The benchmark records spans only where the
//! program records nothing: one root span per op (its duration is the op's
//! busy time on a single-threaded op) and, on `serve_mixed`, the HTTP
//! client phases and the health and metrics probes.  Spans are kept in
//! memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use vhdl1_infoflow::{SpanRecord, TraceSnapshot};

/// Engine stage → the layer it belongs to, and that layer's `ms_per_op`
/// metric.
pub const STAGE_LAYERS: [(&str, &str, &str); 9] = [
    ("frontend", "syntax", "syntax.ms_per_op"),
    ("rd", "dataflow.rd", "dataflow.rd.ms_per_op"),
    ("local", "infoflow.local", "infoflow.local.ms_per_op"),
    (
        "specialized",
        "infoflow.specialized",
        "infoflow.specialized.ms_per_op",
    ),
    (
        "improved",
        "infoflow.improved",
        "infoflow.improved.ms_per_op",
    ),
    ("global", "infoflow.global", "infoflow.global.ms_per_op"),
    ("flow_graph", "infoflow.graph", "infoflow.graph.ms_per_op"),
    (
        "kemmerer",
        "infoflow.kemmerer",
        "infoflow.kemmerer.ms_per_op",
    ),
    ("dynamic_flows", "dynflow", "dynflow.ms_per_op"),
];

/// A position in the span tree: the op and the span new children hang off.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    op: u64,
    id: u64,
}

/// One finished benchmark span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span wraps.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Unique span id (`1..`).
    pub id: u64,
    /// Parent span id, `0` for a root.
    pub parent: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span collector, shared by every thread of a traced pass.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn record<R>(&self, name: &'static str, op: u64, parent: u64, f: impl FnOnce(Ctx) -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let result = f(Ctx { op, id });
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer poisoned").push(Span {
            name,
            op,
            id,
            parent,
            start_ns,
            end_ns,
        });
        result
    }

    /// Runs `f` under a new root span of op `op`.
    pub fn root<R>(&self, name: &'static str, op: u64, f: impl FnOnce(Ctx) -> R) -> R {
        self.record(name, op, 0, f)
    }

    /// Runs `f` under a new child span of `parent`.
    pub fn span<R>(&self, name: &'static str, parent: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        self.record(name, parent.op, parent.id, f)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Runs `f` under a child span when tracing, plainly otherwise — the one
/// code path both passes share.
pub fn maybe<R>(trace: Option<(&Tracer, Ctx)>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some((tracer, parent)) => tracer.span(name, parent, |_| f()),
        None => f(),
    }
}

/// Durations of every span called `name`, in ms.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Total duration of the root spans: the busy time of ops that run on one
/// thread each.
pub fn roots_ms(spans: &[Span]) -> f64 {
    spans.iter().filter(|s| s.parent == 0).map(Span::ms).sum()
}

/// Per-stage totals of the engine's trace, summed over the traced ops.
#[derive(Debug, Default, Clone)]
pub struct Stages {
    /// Computed spans, self time (ns), work and items, per stage.
    totals: BTreeMap<&'static str, [u64; 4]>,
}

impl Stages {
    /// Adds a snapshot's per-stage totals.
    pub fn add(&mut self, snapshot: &TraceSnapshot) {
        for agg in snapshot.stage_totals() {
            let t = self.totals.entry(agg.stage).or_default();
            for (slot, v) in t
                .iter_mut()
                .zip([agg.count, agg.self_ns, agg.work, agg.items])
            {
                *slot += v;
            }
        }
    }

    /// What `after` recorded beyond `before`, two snapshots of one sink.
    pub fn since(after: &TraceSnapshot, before: &TraceSnapshot) -> Stages {
        let (mut a, mut b) = (Stages::default(), Stages::default());
        a.add(after);
        b.add(before);
        for (stage, t) in &mut a.totals {
            let old = b.totals.get(stage).copied().unwrap_or_default();
            for (slot, v) in t.iter_mut().zip(old) {
                *slot = slot.saturating_sub(v);
            }
        }
        a
    }

    /// Adds one stage's counters: computed spans, self time, work, items.
    pub fn add_stage(
        &mut self,
        stage: &'static str,
        count: u64,
        self_ns: u64,
        work: u64,
        items: u64,
    ) {
        let t = self.totals.entry(stage).or_default();
        for (slot, v) in t.iter_mut().zip([count, self_ns, work, items]) {
            *slot += v;
        }
    }

    fn get(&self, stage: &str) -> Option<[u64; 4]> {
        self.totals.get(stage).copied().filter(|t| t[0] > 0)
    }

    /// Self time of a stage in ms, when it ran.
    pub fn self_ms(&self, stage: &str) -> Option<f64> {
        self.get(stage).map(|t| t[1] as f64 / 1e6)
    }

    /// Summed work counter of a stage, when it ran.
    pub fn work(&self, stage: &str) -> Option<u64> {
        self.get(stage).map(|t| t[2])
    }

    /// Self time per layer of every stage that ran, in ms.
    pub fn layer_ms(&self) -> BTreeMap<&'static str, f64> {
        STAGE_LAYERS
            .iter()
            .filter_map(|(stage, layer, _)| self.self_ms(stage).map(|ms| (*layer, ms)))
            .collect()
    }
}

/// A finished traced pass.
#[derive(Default)]
pub struct Replay {
    /// Ops replayed.
    pub ops: usize,
    /// Benchmark spans, in start order.
    pub spans: Vec<Span>,
    /// Engine spans, with the op they belong to when the op had an engine
    /// of its own.
    pub engine_spans: Vec<(Option<u64>, SpanRecord)>,
    /// Self time per layer measured inside the ops, in ms.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Time the ops kept a thread busy, in ms: the time no layer accounts
    /// for is `busy_ms` minus the sum of `layer_ms`.
    pub busy_ms: f64,
    /// What the unaccounted time consists of.
    pub glue: &'static str,
    /// Wall time of the replayed ops, in s.
    pub wall_s: f64,
}

impl Replay {
    /// Hands the pass's per-layer metrics — with tracing overhead against
    /// the untraced phase and layer coverage — and its spans to the run's
    /// outcome.
    pub fn into_outcome(
        self,
        out: &mut crate::Outcome,
        mut layers: crate::measure::Metrics,
        untraced_s: f64,
    ) {
        layers.insert(
            "bench.trace_overhead_pct",
            100.0 * (self.wall_s / untraced_s - 1.0),
        );
        layers.insert("bench.span_coverage_pct", self.coverage_pct());
        out.notes.push(format!(
            "traced ops {:.3} s against untraced {untraced_s:.3} s",
            self.wall_s
        ));
        out.layers = layers;
        out.trace = Some(self);
    }

    /// Share (percent) of busy time that a layer accounts for.
    pub fn coverage_pct(&self) -> f64 {
        100.0 * self.layer_ms.values().sum::<f64>() / self.busy_ms
    }

    /// The per-layer self-time table: total, per op and share of busy time,
    /// with the unaccounted rest as its own row.
    pub fn self_time_table(&self, workload: &str) -> String {
        let mut rows: Vec<(&str, f64)> = self.layer_ms.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows.push((
            "(no layer)",
            self.busy_ms - self.layer_ms.values().sum::<f64>(),
        ));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "self time by layer, workload {workload}, {} traced ops, busy {:.1} ms",
            self.ops, self.busy_ms
        );
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>8}",
            "layer", "self ms", "ms/op", "share"
        );
        for (name, total) in rows {
            let _ = writeln!(
                out,
                "{:<24} {:>12.3} {:>12.4} {:>7.2}%",
                name,
                total,
                total / self.ops.max(1) as f64,
                100.0 * total / self.busy_ms
            );
        }
        let _ = writeln!(out, "(no layer) is {}", self.glue);
        let _ = writeln!(
            out,
            "layer coverage of busy time: {:.2}%",
            self.coverage_pct()
        );
        out
    }

    /// The span file: one JSON object per line, benchmark spans first.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::with_capacity((self.spans.len() + self.engine_spans.len()) * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"kind\":\"bench\",\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.id, s.parent, s.start_ns, s.end_ns
            );
        }
        for (op, s) in &self.engine_spans {
            let op = op.map_or("null".to_string(), |op| op.to_string());
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = writeln!(
                out,
                "{{\"kind\":\"engine\",\"stage\":\"{}\",\"op\":{op},\"design\":{:?},\"parent\":{parent},\"wall_ns\":{},\"work\":{},\"items\":{}}}",
                s.stage, s.design, s.wall_ns, s.work, s.items
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_links_children_to_parents() {
        let tracer = Tracer::default();
        tracer.root("op", 7, |op| tracer.span("a", op, |_| ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "op").unwrap();
        let child = spans.iter().find(|s| s.name == "a").unwrap();
        assert_eq!((root.parent, child.parent, child.op), (0, root.id, 7));
        assert!(roots_ms(&spans) >= durations_ms(&spans, "a")[0]);
    }

    #[test]
    fn stages_that_did_not_run_are_absent() {
        let mut stages = Stages::default();
        stages.add_stage("rd", 2, 3_000_000, 10, 10);
        stages.add_stage("local", 0, 0, 0, 0);
        assert_eq!(stages.self_ms("rd"), Some(3.0));
        assert_eq!(stages.work("rd"), Some(10));
        assert_eq!(stages.self_ms("local"), None);
        assert_eq!(stages.self_ms("frontend"), None);
        assert_eq!(stages.layer_ms(), BTreeMap::from([("dataflow.rd", 3.0)]));
    }
}
