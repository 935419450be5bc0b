//! `edit_stream`: incremental re-analysis, the `POST /update` seam.  An op
//! is one revision of a 32-process `vhdl1_corpus::edit_stream`, analysed by
//! `run_edit_stream_on` on one long-lived engine.  A stream holds at most
//! 64 edits (two fresh operators per process), so the op sequence moves on
//! to a new seeded stream — base first — when one runs out.

use crate::layers::{report_ms, stage_metrics, yardstick_ms, RENDER};
use crate::measure::{closed_loop, end_to_end, median, ms, ratio, repeated_setup};
use crate::trace::{durations_ms, roots_ms, Replay, Stages, Tracer};
use crate::{seed_for, Config, Outcome};
use std::time::Instant;
use vhdl1_cli::{pool, run_batch, run_edit_stream_on, BatchOptions, Job};
use vhdl1_corpus::{edit_stream, EditStream};
use vhdl1_infoflow::{fnv1a64, CachePolicy, Engine, EngineConfig};

/// Processes per design.  ROADMAP's 64-process stream takes about 320 ms
/// per revision, too few ops per run for a steady median; 32 keeps the
/// improved closure dominant at about 45 ms.
const PROCESSES: usize = 32;
/// Edits per stream: the most a 32-process stream can express.
const EDITS: usize = 2 * PROCESSES;
/// Ops after which peak memory is read: two streams.  The engine keeps
/// every revision up to its memo cap, so memory grows with ops.
const MEM_OPS: usize = 2 * (EDITS + 1);
/// Revisions the report step is timed on.
const REPORT_REVISIONS: usize = 8;

/// The seeded revision sequence.  Position 0 is the first stream's base,
/// analysed at set-up; op `i` is position `i + 1`.
struct Revisions {
    seed: u64,
    streams: Vec<EditStream>,
}

impl Revisions {
    fn new(seed: u64) -> Revisions {
        let mut r = Revisions {
            seed,
            streams: Vec::new(),
        };
        r.job(0);
        r
    }

    /// The job at a position, generating streams as the sequence reaches
    /// them.
    fn job(&mut self, pos: usize) -> Job {
        let (s, j) = (pos / (EDITS + 1), pos % (EDITS + 1));
        while self.streams.len() <= s {
            let n = self.streams.len() as u64;
            self.streams.push(edit_stream(
                seed_for(self.seed, "edit_stream", n),
                PROCESSES,
                EDITS,
            ));
        }
        let stream = &self.streams[s];
        let source = if j == 0 {
            &stream.base
        } else {
            &stream.revisions[j - 1].source
        };
        Job::from_source(stream.name.clone(), source.clone())
    }
}

fn engine(trace: bool) -> Engine {
    let mut options = BatchOptions::default().analysis;
    options.trace = trace;
    Engine::new(EngineConfig {
        options,
        cache: BatchOptions::default().cache,
    })
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let opts = BatchOptions::default();
    let (setup, (eng, mut revs)) = repeated_setup(cfg.setup_reps, || {
        let eng = engine(false);
        let mut revs = Revisions::new(cfg.seed);
        // Pre-warm: the base revision gives the workspace its predecessor.
        std::hint::black_box(run_edit_stream_on(&eng, &[revs.job(0)], &opts).to_json());
        (eng, revs)
    });

    let mut first_json = String::new();
    let timed = closed_loop(cfg.seconds, cfg.min_ops, cfg.mem_ops(MEM_OPS), |i| {
        let job = revs.job(i + 1);
        let json = run_edit_stream_on(&eng, &[job], &opts).to_json();
        let hash = fnv1a64(json.as_bytes());
        if i == 0 {
            first_json = json;
        }
        hash
    });
    drop(eng);
    let ops = timed.outputs.len();
    let jobs: Vec<Job> = (0..ops).map(|i| revs.job(i + 1)).collect();

    // Oracle: every revision's bytes equal a fresh analysis of the
    // same source with the memo table disabled.
    let fresh = BatchOptions {
        cache: CachePolicy::Disabled,
        ..BatchOptions::default()
    };
    let expected: Vec<u64> = pool::run(&jobs, cfg.nproc, |_, job: &Job| {
        fnv1a64(
            run_batch(std::slice::from_ref(job), &fresh)
                .to_json()
                .as_bytes(),
        )
    })
    .into_iter()
    .map(|r| r.unwrap_or(0))
    .collect();
    let mut failed = (0..ops)
        .filter(|&i| timed.outputs[i] != expected[i])
        .count() as u64;

    // Oracle self-check: one flipped byte must be a mismatch.
    let mut corrupt = first_json.into_bytes();
    corrupt[0] ^= 1;
    assert_ne!(
        fnv1a64(&corrupt),
        expected[0],
        "edit_stream oracle accepted corrupted bytes"
    );

    let mut out = Outcome {
        attempted: ops as u64,
        end_to_end: end_to_end(
            &setup,
            &timed.latencies_ms,
            ops as f64,
            timed.wall_s,
            timed.cpu_s,
            timed.peak_rss_mb,
        ),
        ..Outcome::default()
    };
    out.notes.push(format!(
        "{ops} revisions over {} streams of {PROCESSES} processes",
        revs.streams.len()
    ));

    if cfg.trace {
        // The same revisions through `run_edit_stream_on` on an engine
        // with its stage trace on; the base revision is analysed first,
        // outside the ops, as at set-up.
        let eng = engine(true);
        let sink = eng.trace_sink().expect("tracing was switched on");
        std::hint::black_box(run_edit_stream_on(&eng, &[revs.job(0)], &opts));
        let (before, stats0) = (sink.snapshot(), eng.stats());
        let tracer = Tracer::default();
        let (mut edges, mut yard_ms) = (0usize, 0.0);
        for (i, job) in jobs.iter().enumerate() {
            let batch = tracer.root("op", i as u64, |op| {
                let batch = run_edit_stream_on(&eng, std::slice::from_ref(job), &opts);
                let json = tracer.span(RENDER, op, |_| batch.to_json());
                (fnv1a64(json.as_bytes()) == expected[i]).then_some(batch)
            });
            match batch {
                Some(batch) => edges += batch.designs.iter().map(|d| d.edges.len()).sum::<usize>(),
                None => failed += 1,
            }
            yard_ms += yardstick_ms(opts.analysis, std::slice::from_ref(job))?;
        }
        out.attempted += ops as u64;
        let after = sink.snapshot();
        let stats = eng.stats();
        let stages = Stages::since(&after, &before);
        let spans = tracer.spans();
        let ops_ms = roots_ms(&spans);
        let mut layer_ms = stages.layer_ms();
        layer_ms.insert(RENDER, durations_ms(&spans, RENDER).iter().sum());
        let per = |x: f64| x / ops as f64;
        let mut m = stage_metrics(&stages, ops);
        m.insert("infoflow.global.ms_per_op", per(yard_ms));
        m.insert("infoflow.graph.edges_per_op", per(edges as f64));
        let reused = (stats.units_reused - stats0.units_reused) as f64;
        let recomputed = (stats.units_recomputed - stats0.units_recomputed) as f64;
        if let Some(r) = ratio(reused, reused + recomputed) {
            m.insert("infoflow.workspace.reuse_ratio", r);
        }
        m.insert("infoflow.workspace.recomputed_per_op", per(recomputed));
        m.insert(
            "infoflow.workspace.update_ms_p50",
            median(&update_ms(&revs.job(0), &jobs)),
        );
        let config = EngineConfig {
            options: opts.analysis,
            cache: opts.cache.clone(),
        };
        let probes: Vec<&[Job]> = jobs
            .iter()
            .take(REPORT_REVISIONS)
            .map(std::slice::from_ref)
            .collect();
        m.insert("cli.report.ms_per_op", report_ms(&config, &probes, &opts));
        let replay = Replay {
            ops,
            spans,
            // One engine serves every revision, so its spans carry no op;
            // the base revision's are among them.
            engine_spans: after.spans.into_iter().map(|s| (None, s)).collect(),
            layer_ms,
            busy_ms: ops_ms,
            glue: "Workspace::update outside the engine's stages (fingerprints, per-process \
                   reuse or recompute; infoflow.workspace.update_ms_p50 times the whole call), \
                   memo lookups, report assembly and the policy audit (cli.report.ms_per_op \
                   times the whole report step apart)",
            wall_s: ops_ms / 1e3,
        };
        replay.into_outcome(&mut out, m, timed.wall_s);
    }
    out.failed = failed;
    Ok(out)
}

/// `Workspace::update` timed directly, revision by revision, on a fresh
/// engine whose workspace has seen `base`: the front end, per-process
/// fingerprinting and reuse or recompute, and the global RD and Table 6
/// assembly.  Returns each update's time in ms.
fn update_ms(base: &Job, jobs: &[Job]) -> Vec<f64> {
    let eng = engine(false);
    let ws = eng.workspace();
    std::hint::black_box(ws.update(&base.source).is_ok());
    jobs.iter()
        .map(|job| {
            let t = Instant::now();
            std::hint::black_box(ws.update(&job.source).is_ok());
            ms(t.elapsed())
        })
        .collect()
}
