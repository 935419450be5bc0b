//! Per-layer metrics shared by the analysis workloads.  Stage times and
//! artifact sizes come from the engine's own trace; the two layers the
//! engine does not record on the default path are timed directly through
//! public calls, outside the traced ops: the report step, and the Table 8
//! closure that ROADMAP compares the improved closure against.

use crate::measure::{median, ms, ratio, Metrics};
use crate::trace::{durations_ms, roots_ms, Replay, Stages, Tracer, STAGE_LAYERS};
use std::time::Instant;
use vhdl1_cli::{run_batch_on, run_batch_traced, BatchOptions, Job};
use vhdl1_infoflow::{fnv1a64, AnalysisOptions, CachePolicy, Engine, EngineConfig};

/// Engine stage → the metric of its work counter, per op.
const STAGE_WORK: [(&str, &str); 4] = [
    ("rd", "dataflow.rd.labels_per_op"),
    ("local", "infoflow.local.entries_per_op"),
    ("specialized", "infoflow.specialized.facts_per_op"),
    ("improved", "infoflow.improved.entries_per_op"),
];

/// The span around `BatchReport::to_json` inside an op: the part of the
/// report step that runs on the op's own thread.
pub const RENDER: &str = "cli.report.render";

/// Timings per input of the report step; their median is kept.
const REPORT_REPS: usize = 5;

/// The metrics of every stage that ran: self time and work per op, and
/// front-end throughput (the front end's work counter is source bytes).
/// A stage that did not run yields no metric, so a stage missing from the
/// trace fails the run rather than reading 0.
pub fn stage_metrics(stages: &Stages, ops: usize) -> Metrics {
    let per = |x: f64| x / ops as f64;
    let mut m = Metrics::new();
    for (stage, _, metric) in STAGE_LAYERS {
        if let Some(ms) = stages.self_ms(stage) {
            m.insert(metric, per(ms));
        }
    }
    for (stage, metric) in STAGE_WORK {
        if let Some(work) = stages.work(stage) {
            m.insert(metric, per(work as f64));
        }
    }
    if let (Some(bytes), Some(ms)) = (stages.work("frontend"), stages.self_ms("frontend")) {
        if ms > 0.0 {
            m.insert("syntax.mb_per_s", bytes as f64 / 1e3 / ms);
        }
    }
    m
}

/// The report step timed directly: `run_batch_on` over each input on an
/// engine that already holds every stage of it, then `to_json` — memo
/// lookups, report assembly, the policy audit and rendering, none of which
/// the engine's trace records.  Mean over `inputs` of each input's median
/// of [`REPORT_REPS`] timings, in ms.
pub fn report_ms(config: &EngineConfig, inputs: &[&[Job]], opts: &BatchOptions) -> f64 {
    let engine = Engine::new(config.clone());
    let per_input: Vec<f64> = inputs
        .iter()
        .map(|jobs| {
            std::hint::black_box(run_batch_on(&engine, jobs, opts));
            let times: Vec<f64> = (0..REPORT_REPS)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(run_batch_on(&engine, jobs, opts).to_json());
                    ms(t.elapsed())
                })
                .collect();
            median(&times)
        })
        .collect();
    per_input.iter().sum::<f64>() / per_input.len() as f64
}

/// The Table 8 base closure of each job, off the default path: a fresh
/// traced engine analyses the jobs and forces `global()`.  Returns the
/// closure's self time in ms, as the engine's trace records it.
pub fn yardstick_ms(mut options: AnalysisOptions, jobs: &[Job]) -> Result<f64, String> {
    options.trace = true;
    let engine = Engine::new(EngineConfig {
        options,
        cache: CachePolicy::Unbounded,
    });
    for job in jobs {
        engine
            .analyze_source(&job.source)
            .and_then(|a| a.global().map(|_| ()))
            .map_err(|e| format!("Table 8 closure of {} failed: {e}", job.name))?;
    }
    let sink = engine.trace_sink().expect("tracing was switched on");
    let mut stages = Stages::default();
    stages.add(&sink.snapshot());
    stages
        .self_ms("global")
        .ok_or_else(|| "the engine's trace recorded no Table 8 closure".to_string())
}

/// What the traced pass of a batch workload measured.
pub struct BatchReplay {
    /// Spans, layer self times and busy time of the replayed ops.
    pub replay: Replay,
    /// Per-layer metrics, the report step excepted.
    pub metrics: Metrics,
    /// Replayed ops whose report bytes differ from the untraced pass.
    pub mismatches: u64,
}

/// The traced pass of a batch workload.  Op `i` is `run_batch_traced` over
/// `input(i)` with profiling on — the engine's stage trace and the pool's
/// timing — and the report rendered, under one root span.  Its bytes must
/// equal `expected(i)`, the untraced op's.  After each op, outside it, the
/// Table 8 yardstick runs over the same jobs.
pub fn batch_replay<'a>(
    ops: usize,
    input: impl Fn(usize) -> &'a [Job],
    opts: &BatchOptions,
    expected: impl Fn(usize) -> u64,
) -> Result<BatchReplay, String> {
    let profiled = BatchOptions {
        profile: true,
        ..opts.clone()
    };
    let tracer = Tracer::default();
    let mut stages = Stages::default();
    let mut engine_spans = Vec::new();
    let mut mismatches = 0;
    // Pool: worker busy, worker capacity (wall × workers), queue wait, in
    // ns; items and steals.
    let (mut busy_ns, mut cap_ns, mut wait_ns, mut items, mut steals) = (0u64, 0u64, 0u64, 0, 0);
    let mut pool_wall_ms = 0.0;
    let (mut hits, mut lookups, mut edges) = (0u64, 0u64, 0usize);
    // Dynamic oracle: witnessed flows, covered and checked static edges,
    // soundness violations.
    let mut dynflow = [0usize; 4];
    let mut yard_ms = 0.0;
    for i in 0..ops {
        let jobs = input(i);
        let (batch, telemetry, json) = tracer.root("op", i as u64, |op| {
            let (batch, telemetry) = run_batch_traced(jobs, &profiled);
            let json = tracer.span(RENDER, op, |_| batch.to_json());
            (batch, telemetry, json)
        });
        if fnv1a64(json.as_bytes()) != expected(i) {
            mismatches += 1;
        }
        let trace = telemetry
            .trace
            .ok_or("run_batch_traced returned no engine trace under profile")?;
        let pool = telemetry
            .pool
            .ok_or("run_batch_traced returned no pool telemetry under profile")?;
        stages.add(&trace);
        engine_spans.extend(trace.spans.into_iter().map(|s| (Some(i as u64), s)));
        busy_ns += pool.busy_ns.iter().sum::<u64>();
        cap_ns += pool.wall_ns * pool.busy_ns.len() as u64;
        wait_ns += pool.queue_wait_ns;
        items += pool.items;
        steals += pool.steals;
        pool_wall_ms += pool.wall_ns as f64 / 1e6;
        hits += telemetry.stats.cache_hits;
        lookups += telemetry.stats.cache_hits + telemetry.stats.cache_misses;
        for d in &batch.designs {
            edges += d.edges.len();
            if let Some(s) = &d.dynflow {
                dynflow[0] += s.witnessed.len();
                dynflow[1] += s.covered_edges;
                dynflow[2] += s.static_edges;
                dynflow[3] += s.soundness_violations.len();
            }
        }
        yard_ms += yardstick_ms(opts.analysis, jobs)?;
    }
    let spans = tracer.spans();
    let ops_ms = roots_ms(&spans);
    let mut layer_ms = stages.layer_ms();
    layer_ms.insert(RENDER, durations_ms(&spans, RENDER).iter().sum());
    let per = |x: f64| x / ops as f64;
    let mut m = stage_metrics(&stages, ops);
    m.insert("infoflow.global.ms_per_op", per(yard_ms));
    m.insert("infoflow.graph.edges_per_op", per(edges as f64));
    if let Some(u) = ratio(busy_ns as f64, cap_ns as f64) {
        m.insert("cli.pool.utilization", u);
    }
    if let Some(w) = ratio(wait_ns as f64 / 1e6, items as f64) {
        m.insert("cli.pool.wait_ms_mean", w);
    }
    m.insert("cli.pool.steals", per(steals as f64));
    if let Some(r) = ratio(hits as f64, lookups as f64) {
        m.insert("infoflow.engine.memo_hit_ratio", r);
    }
    if opts.verify.is_some() {
        m.insert("dynflow.witnessed_per_op", per(dynflow[0] as f64));
        if let Some(c) = ratio(dynflow[1] as f64, dynflow[2] as f64) {
            m.insert("dynflow.coverage_pct", 100.0 * c);
        }
        m.insert("dynflow.violations", dynflow[3] as f64);
    }
    let replay = Replay {
        ops,
        spans,
        engine_spans,
        layer_ms,
        // The pool's workers, plus the op's own thread outside the pool.
        busy_ms: busy_ns as f64 / 1e6 + (ops_ms - pool_wall_ms),
        glue: "the batch path's work outside the engine's stages and rendering: memo \
               lookups, report assembly and the policy audit (cli.report.ms_per_op times the \
               whole report step apart), engine set-up and teardown, dedup and pool hand-off",
        wall_s: ops_ms / 1e3,
    };
    Ok(BatchReplay {
        replay,
        metrics: m,
        mismatches,
    })
}
