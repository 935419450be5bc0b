//! `corpus_verify`: `vhdl1c verify` on a CI corpus.  An op is one
//! `run_batch` with the dynamic flow oracle on, `nproc` workers, over a
//! seeded draw of 25 designs from the four default families.

use crate::layers::{batch_replay, report_ms};
use crate::measure::{closed_loop, end_to_end, repeated_setup};
use crate::{seed_for, Config, Outcome};
use vhdl1_cli::{run_batch, BatchOptions, BatchReport, Job, VerifyOptions};
use vhdl1_corpus::{generate, CorpusSpec};
use vhdl1_infoflow::{fnv1a64, EngineConfig};

/// Designs per op.
const DRAW: usize = 25;
/// Distinct draws made at set-up; op `i` runs draw `i % DRAWS`.  Every op
/// builds its own engine (as `run_batch` does), so a repeated draw costs
/// exactly what a fresh one does.
const DRAWS: usize = 64;
/// Ops after which peak memory is read.  Early, because later in a run
/// the process's resident memory creeps up by about 0.6 MB per 100 ops and
/// at times jumps by 2.5-4 MB at an op that differs from run to run of one
/// seed; read after 64 ops, three runs in ten landed in that upper mode.
const MEM_OPS: usize = 16;
/// Draws the report step is timed on.
const REPORT_DRAWS: usize = 4;

/// One design's verdict as the oracle needs it.
#[derive(Clone)]
struct Verdict {
    name: String,
    violations: Vec<(String, String)>,
    truth_ok: Option<bool>,
    soundness: usize,
    has_dynflow: bool,
}

/// What the oracle keeps of one op's report.
#[derive(Clone)]
struct OpOutput {
    designs: Vec<Verdict>,
    errors: usize,
    degraded: usize,
    check_ok: bool,
    json_hash: u64,
}

fn summarize(batch: &BatchReport, json: &str) -> OpOutput {
    OpOutput {
        designs: batch
            .designs
            .iter()
            .map(|d| {
                let mut violations: Vec<(String, String)> = d
                    .violations
                    .iter()
                    .map(|v| (v.from.clone(), v.to.clone()))
                    .collect();
                violations.sort();
                Verdict {
                    name: d.name.clone(),
                    violations,
                    truth_ok: d.ground_truth_ok,
                    soundness: d
                        .dynflow
                        .as_ref()
                        .map_or(0, |s| s.soundness_violations.len()),
                    has_dynflow: d.dynflow.is_some(),
                }
            })
            .collect(),
        errors: batch.errors.len(),
        degraded: batch.degraded.len(),
        check_ok: batch.check_ok(),
        json_hash: fnv1a64(json.as_bytes()),
    }
}

/// The oracle: every design reported, `check_ok()`, zero dynamic soundness
/// violations, and each design's violations equal to the generator's
/// embedded ground truth, compared here rather than trusted from the
/// report's own `ground_truth_ok`.
fn verdict_ok(draw: &[Job], out: &OpOutput) -> bool {
    out.check_ok
        && out.errors == 0
        && out.degraded == 0
        && out.designs.len() == draw.len()
        && draw.iter().zip(&out.designs).all(|(job, d)| {
            let mut expected = job
                .truth
                .as_ref()
                .map(|t| t.expected_violations.clone())
                .unwrap_or_default();
            expected.sort();
            d.name == job.name
                && d.violations == expected
                && d.truth_ok == Some(true)
                && d.has_dynflow
                && d.soundness == 0
        })
}

fn draw(seed: u64, i: usize) -> Vec<Job> {
    let spec = CorpusSpec::new(seed_for(seed, "corpus_verify", i as u64), DRAW);
    generate(&spec)
        .into_iter()
        .map(Job::from_generated)
        .collect()
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let opts = BatchOptions {
        jobs: cfg.nproc,
        verify: Some(VerifyOptions::default()),
        ..BatchOptions::default()
    };
    let n_draws = if cfg.smoke { 2 } else { DRAWS };
    let (setup, draws) = repeated_setup(cfg.setup_reps, || {
        let draws: Vec<Vec<Job>> = (0..n_draws).map(|i| draw(cfg.seed, i)).collect();
        // Pre-warm: one untimed batch pages in code and fills allocator pools.
        std::hint::black_box(run_batch(&draws[0], &opts).to_json());
        draws
    });
    let of = |i: usize| &draws[i % draws.len()];

    let timed = closed_loop(cfg.seconds, cfg.min_ops, cfg.mem_ops(MEM_OPS), |i| {
        let batch = run_batch(of(i), &opts);
        let json = batch.to_json();
        summarize(&batch, &json)
    });
    let ops = timed.outputs.len();
    let mut failed = (0..ops)
        .filter(|&i| !verdict_ok(of(i), &timed.outputs[i]))
        .count() as u64;

    // Oracle self-check: a corrupted verdict must count as a failure.
    let mut corrupt = timed.outputs[0].clone();
    corrupt.designs[0]
        .violations
        .push(("key".into(), "corrupted".into()));
    assert!(
        !verdict_ok(of(0), &corrupt),
        "corpus_verify oracle accepted a corrupted verdict"
    );

    let mut out = Outcome {
        attempted: ops as u64,
        end_to_end: end_to_end(
            &setup,
            &timed.latencies_ms,
            (ops * DRAW) as f64,
            timed.wall_s,
            timed.cpu_s,
            timed.peak_rss_mb,
        ),
        ..Outcome::default()
    };
    out.notes.push(format!(
        "{ops} ops of {DRAW} designs, {} distinct draws, {} workers",
        draws.len(),
        cfg.nproc
    ));

    if cfg.trace {
        let traced = batch_replay(
            ops,
            |i| of(i).as_slice(),
            &opts,
            |i| timed.outputs[i].json_hash,
        )?;
        failed += traced.mismatches;
        out.attempted += ops as u64;
        let mut m = traced.metrics;
        let config = EngineConfig {
            options: opts.analysis,
            cache: opts.cache.clone(),
        };
        let probes: Vec<&[Job]> = (0..REPORT_DRAWS.min(draws.len()))
            .map(|i| draws[i].as_slice())
            .collect();
        m.insert("cli.report.ms_per_op", report_ms(&config, &probes, &opts));
        traced.replay.into_outcome(&mut out, m, timed.wall_s);
    }
    out.failed = failed;
    Ok(out)
}
