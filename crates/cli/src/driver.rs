//! Batch orchestration: jobs in, [`BatchReport`] out.
//!
//! Every job (a design source plus optional corpus ground truth) goes
//! through parse → elaborate → RD dataflow → closure → flow graph → policy
//! audit on a worker of the [`crate::pool`].  All workers share one
//! [`vhdl1_infoflow::Engine`] — the analysis memo table lives in the
//! library, keyed by the engine's content hash; the driver adds its own
//! *report-level* dedup on top: two jobs with identical source and
//! identical effective policy share one [`DesignReport`] (per-job
//! ground-truth bookkeeping is re-derived, never copied across the cache),
//! grouped up front so every report byte is independent of worker count.

use crate::pool::{self, PoolStats};
use crate::report::{
    analysis_report, BatchError, BatchReport, DegradedEntry, DesignReport, DynFlowSection,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vhdl1_corpus::GeneratedDesign;
use vhdl1_infoflow::{
    fnv1a64, Analysis, AnalysisOptions, CachePolicy, CancelFlag, Engine, EngineConfig, EngineError,
    EngineStats, Policy, TraceSnapshot,
};

/// Output formats of `vhdl1c analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Machine-readable JSON report.
    Json,
    /// Concatenated Graphviz DOT flow graphs.
    Dot,
    /// Human-readable security report.
    Text,
}

impl Format {
    /// Parses a `--format` argument.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Format> {
        match s {
            "json" => Some(Format::Json),
            "dot" => Some(Format::Dot),
            "text" => Some(Format::Text),
            _ => None,
        }
    }
}

/// Ground truth attached to a job by the corpus generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTruth {
    /// Corpus family name.
    pub family: String,
    /// Whether the generator marked the design leaky.
    pub leaky: bool,
    /// Secret inputs (security level 1 in the derived policy).
    pub secret_inputs: Vec<String>,
    /// Public outputs (security level 0).
    pub public_outputs: Vec<String>,
    /// Intended (declassified) flows.
    pub allowed_flows: Vec<(String, String)>,
    /// Flow edges the audit must report.
    pub expected_violations: Vec<(String, String)>,
    /// Whether the generator *expects* the front end to reject this design
    /// (hostile truncated/garbage sources).  Such a rejection is recorded
    /// as an expected error; a successful analysis is a ground-truth
    /// mismatch.
    pub expect_error: bool,
}

impl JobTruth {
    /// The policy implied by the ground truth: secrets at level 1, public
    /// sinks at level 0, intended flows declassified.
    pub fn derived_policy(&self) -> Policy {
        let mut policy = Policy::new();
        for s in &self.secret_inputs {
            policy.levels.insert(s.clone(), 1);
        }
        for p in &self.public_outputs {
            policy.levels.insert(p.clone(), 0);
        }
        for (from, to) in &self.allowed_flows {
            policy.allowed.insert((from.clone(), to.clone()));
        }
        policy
    }
}

/// One unit of batch work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Display name (design name for corpus entries, file stem for files).
    pub name: String,
    /// VHDL1 source text.
    pub source: String,
    /// Corpus ground truth, when the job came from a manifest.
    pub truth: Option<JobTruth>,
}

impl Job {
    /// A job from a plain source file (no ground truth).
    pub fn from_source(name: impl Into<String>, source: impl Into<String>) -> Job {
        Job {
            name: name.into(),
            source: source.into(),
            truth: None,
        }
    }

    /// A job from a generated corpus design.
    pub fn from_generated(d: GeneratedDesign) -> Job {
        Job {
            name: d.name,
            source: d.source,
            truth: Some(JobTruth {
                family: d.family.as_str().to_string(),
                leaky: d.leaky,
                secret_inputs: d.secret_inputs,
                public_outputs: d.public_outputs,
                allowed_flows: d.allowed_flows,
                expected_violations: d.expected_violations,
                expect_error: d.expect_error,
            }),
        }
    }
}

/// Configuration of a batch run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker count (`<= 1` runs inline).
    pub jobs: usize,
    /// Output format; DOT renderings are only produced when selected.
    pub format: Format,
    /// Overrides every job's derived policy when set (`--policy`).
    pub policy: Option<Policy>,
    /// Record per-design and batch wall-clock times (non-deterministic
    /// output; off by default so reports are byte-reproducible).
    pub timing: bool,
    /// Smoke-simulate every design to quiescence.
    pub smoke: bool,
    /// Witness dynamic flows by differential simulation and cross-check
    /// them against the static flow graph (`vhdl1c verify`).
    pub verify: Option<VerifyOptions>,
    /// Collect batch telemetry — engine trace spans, pool timing, watchdog
    /// events — surfaced by [`run_batch_traced`] (`vhdl1c --profile`).
    /// Never touches the [`BatchReport`] itself: report bytes are identical
    /// with profiling on or off.
    pub profile: bool,
    /// Per-design wall-clock deadline, enforced by a watchdog thread that
    /// trips each design's cooperative [`CancelFlag`] — the design lands in
    /// the report's `degraded` section (stage `deadline`) while the batch
    /// completes.  Wall-clock by nature, so reports stop being
    /// byte-reproducible; pure counter budgets (in
    /// [`BatchOptions::analysis`]) keep determinism.
    pub deadline_ms: Option<u64>,
    /// Options of the underlying analysis.
    pub analysis: AnalysisOptions,
    /// Memo-table policy of the shared analysis engine (the library-side
    /// cache; report-level dedup is always on).  The default caps the table
    /// rather than keeping every unique design's stage artifacts alive for
    /// the whole batch: identical jobs are already shared by the report
    /// dedup, so the engine cache only needs to cover the
    /// same-source-different-policy working set.
    pub cache: CachePolicy,
}

/// Default retention of the batch engine's memo table — bounds peak memory
/// on huge corpora while still covering realistic duplicate working sets.
pub const DEFAULT_ENGINE_CACHE: CachePolicy = CachePolicy::Capped(512);

/// Default artifact cap of a persistent cache directory (`--cache-dir`,
/// `vhdl1d`): disk artifacts are small (a few KiB), so the disk cap is an
/// order of magnitude looser than the in-memory default.
pub const DEFAULT_PERSISTENT_CACHE_CAP: usize = 4096;

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            jobs: 1,
            format: Format::Json,
            policy: None,
            timing: false,
            smoke: false,
            verify: None,
            profile: false,
            deadline_ms: None,
            analysis: AnalysisOptions::default(),
            cache: DEFAULT_ENGINE_CACHE,
        }
    }
}

/// Parameters of the dynamic flow-witness pass (`vhdl1c verify`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Stimulus rounds per perturbation source.
    pub rounds: u64,
    /// Stimulus seed.
    pub seed: u64,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            rounds: 16,
            seed: 1,
        }
    }
}

/// Runs the batch: analyzes every job `opts.jobs`-way parallel and collects
/// the aggregate report.  Job order is preserved in the output.
///
/// Jobs are deduplicated up front by content hash of `(source, effective
/// policy)`: only one representative per group is analyzed (in the worker
/// pool); the others reuse its result and are marked `cached`.  Grouping
/// before the pool runs keeps `cached`/`cache_hits` — and therefore every
/// report byte — independent of worker count and scheduling.
pub fn run_batch(jobs: &[Job], opts: &BatchOptions) -> BatchReport {
    run_batch_inner(jobs, opts, false).0
}

/// Batch telemetry collected alongside — never inside — a [`BatchReport`].
///
/// Engine stage counts and cache hit/miss counters are deterministic for a
/// fixed corpus and options (report-level dedup picks representatives
/// before the pool runs); everything wall-clock ([`BatchTelemetry::pool`],
/// span times inside [`BatchTelemetry::trace`], `wall_ns`) is not.
#[derive(Debug, Clone)]
pub struct BatchTelemetry {
    /// Stage-computation and source-cache counters of the shared engine.
    pub stats: EngineStats,
    /// Merged trace spans and events, when [`BatchOptions::profile`] was
    /// set.
    pub trace: Option<TraceSnapshot>,
    /// Worker-pool timing, when [`BatchOptions::profile`] was set and the
    /// batch was non-empty.
    pub pool: Option<PoolStats>,
    /// Designs whose cooperative cancel flag the watchdog tripped.
    pub watchdog_cancels: u64,
    /// Total jobs submitted.
    pub jobs: usize,
    /// Unique jobs after report-level dedup (the ones actually analyzed).
    pub unique_jobs: usize,
    /// Wall-clock duration of the whole batch.
    pub wall_ns: u64,
}

/// [`run_batch`] plus [`BatchTelemetry`] — the entry point of
/// `vhdl1c --stats`/`--profile`.  The report is byte-identical to what
/// [`run_batch`] produces for the same inputs; trace spans and pool timing
/// are only collected when [`BatchOptions::profile`] is set (engine stats
/// and watchdog counts are always returned — they are free).
pub fn run_batch_traced(jobs: &[Job], opts: &BatchOptions) -> (BatchReport, BatchTelemetry) {
    let (report, telemetry) = run_batch_inner(jobs, opts, true);
    (
        report,
        telemetry.expect("traced batch always yields telemetry"),
    )
}

/// Runs a batch on a **caller-supplied** engine — the serving seam: the
/// `vhdl1d` daemon routes every request through its long-lived worker
/// engines this way.  Report bytes are identical to [`run_batch`] over the
/// same jobs and options: dedup picks representatives before the pool runs,
/// and engine memo or disk-artifact hits never alter a report byte — which
/// is what lets a warm daemon answer `cmp`-identically to a cold CLI run.
///
/// The engine's own options govern the analysis; [`BatchOptions::analysis`],
/// [`BatchOptions::cache`] and [`BatchOptions::profile`] are ignored here
/// (they only shape the engine [`run_batch`] builds internally).
pub fn run_batch_on(engine: &Engine, jobs: &[Job], opts: &BatchOptions) -> BatchReport {
    run_batch_core(engine, jobs, opts).0
}

/// Replays an edit stream: every job is a successive revision of one
/// design, analyzed **in input order** through a single
/// [`vhdl1_infoflow::Workspace`].  A revision seen before is a memo hit;
/// the `units_reused` / `units_recomputed` counters of the returned
/// telemetry count the processes of served and analyzed revisions.  Report
/// bytes are identical to [`run_batch`] over the same jobs.
pub fn run_edit_stream(jobs: &[Job], opts: &BatchOptions) -> (BatchReport, BatchTelemetry) {
    let start = Instant::now();
    let mut analysis = opts.analysis;
    if opts.profile {
        analysis.trace = true;
    }
    let engine = Engine::new(EngineConfig {
        options: analysis,
        cache: opts.cache.clone(),
    });
    let batch = run_edit_stream_on(&engine, jobs, opts);
    let telemetry = BatchTelemetry {
        stats: engine.stats(),
        trace: engine.trace_sink().map(|sink| sink.snapshot()),
        pool: None,
        watchdog_cancels: 0,
        jobs: jobs.len(),
        unique_jobs: jobs.len(),
        wall_ns: start.elapsed().as_nanos() as u64,
    };
    (batch, telemetry)
}

/// [`run_edit_stream`] on a caller-supplied engine.  Sequential: the
/// revisions are analyzed in input order, so there is no pool and
/// [`BatchOptions::jobs`] is ignored, and neither is there a watchdog
/// ([`BatchOptions::deadline_ms`] is ignored too).
pub fn run_edit_stream_on(engine: &Engine, jobs: &[Job], opts: &BatchOptions) -> BatchReport {
    let start = Instant::now();
    let workspace = engine.workspace();
    let mut batch = BatchReport::default();
    for job in jobs {
        let policy = effective_policy(job, opts);
        let started = Instant::now();
        let outcome = match workspace.update(&job.source) {
            Ok(analysis) => finish_job(analysis, job, &policy, opts, None, started),
            Err(e) => JobOutcome::from_engine_error(&e),
        };
        push_outcome(&mut batch, job, outcome, false);
    }
    if opts.timing {
        batch.wall_ms = Some(start.elapsed().as_secs_f64() * 1e3);
    }
    batch
}

/// Non-deterministic (wall-clock) byproducts of [`run_batch_core`], folded
/// into [`BatchTelemetry`] by the owning-engine entry points.
struct CoreStats {
    pool: Option<PoolStats>,
    watchdog_cancels: u64,
    unique_jobs: usize,
}

fn run_batch_inner(
    jobs: &[Job],
    opts: &BatchOptions,
    collect: bool,
) -> (BatchReport, Option<BatchTelemetry>) {
    let start = Instant::now();

    // One analysis session for the whole batch, shared by every worker.
    // `--profile` turns the engine's span collection on; the toggle changes
    // no analysis artifact, only whether the sink exists.
    let mut analysis = opts.analysis;
    if opts.profile {
        analysis.trace = true;
    }
    let engine = Engine::new(EngineConfig {
        options: analysis,
        cache: opts.cache.clone(),
    });
    let (batch, core) = run_batch_core(&engine, jobs, opts);
    let telemetry = (collect || opts.profile).then(|| BatchTelemetry {
        stats: engine.stats(),
        trace: engine.trace_sink().map(|sink| sink.snapshot()),
        pool: core.pool,
        watchdog_cancels: core.watchdog_cancels,
        jobs: jobs.len(),
        unique_jobs: core.unique_jobs,
        wall_ns: start.elapsed().as_nanos() as u64,
    });
    (batch, telemetry)
}

fn run_batch_core(engine: &Engine, jobs: &[Job], opts: &BatchOptions) -> (BatchReport, CoreStats) {
    let start = Instant::now();

    // One watchdog thread for the whole batch, when a deadline is set.
    // Joined (via Drop) before the batch returns.
    let watchdog = opts
        .deadline_ms
        .map(|ms| Watchdog::spawn(Duration::from_millis(ms)));

    // Group by cache key; compute each job's effective policy exactly once.
    let mut first_of_key: HashMap<u64, usize> = HashMap::new();
    let mut rep: Vec<usize> = Vec::with_capacity(jobs.len());
    let mut policies: Vec<Policy> = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let policy = effective_policy(job, opts);
        let key =
            fnv1a64(job.source.as_bytes()) ^ fnv1a64(policy.to_text().as_bytes()).rotate_left(1);
        rep.push(*first_of_key.entry(key).or_insert(i));
        policies.push(policy);
    }

    // Analyze one representative per group, in parallel.  The pool isolates
    // panics: a crashing item becomes `Err(message)` while the rest of the
    // batch completes.
    let unique: Vec<usize> = (0..jobs.len()).filter(|&i| rep[i] == i).collect();
    let worker =
        |_: usize, &i: &usize| analyze_job(engine, &jobs[i], &policies[i], opts, watchdog.as_ref());
    // Pool timing reads the clock per item; only pay for it under
    // `--profile` so the plain batch path is untouched.
    let (unique_outcomes, pool_stats) = if opts.profile {
        let (outcomes, stats) = pool::run_timed(&unique, opts.jobs, worker);
        (outcomes, Some(stats))
    } else {
        (pool::run(&unique, opts.jobs, worker), None)
    };
    let unique_count = unique.len();
    let outcome_of: HashMap<usize, JobOutcome> = unique
        .into_iter()
        .zip(unique_outcomes)
        .map(|(i, r)| (i, r.unwrap_or_else(JobOutcome::panicked)))
        .collect();

    // Reassemble in input order.  Ground-truth bookkeeping is re-derived per
    // job (not copied from the representative): two jobs may share source
    // and policy yet differ in attached ground truth — e.g. a plain `.vhd`
    // file next to the identical corpus entry under a `--policy` override.
    let mut batch = BatchReport::default();
    for (i, job) in jobs.iter().enumerate() {
        let outcome = outcome_of.get(&rep[i]).cloned().unwrap_or_else(|| {
            // Unreachable by construction (every representative was queued);
            // degrade to a structured error rather than crashing the batch.
            JobOutcome::from_error(BatchError {
                error: "internal: representative outcome missing".to_string(),
                ..BatchError::default()
            })
        });
        push_outcome(&mut batch, job, outcome, rep[i] != i);
    }
    if opts.timing {
        batch.wall_ms = Some(start.elapsed().as_secs_f64() * 1e3);
    }
    let core = CoreStats {
        pool: pool_stats,
        watchdog_cancels: watchdog.as_ref().map_or(0, Watchdog::cancel_count),
        unique_jobs: unique_count,
    };
    (batch, core)
}

/// Everything one job can produce: at most one report (possibly with an
/// attached degradation, e.g. smoke budget exhaustion on an otherwise
/// complete analysis), or an error, or a pure degradation.
#[derive(Debug, Clone, Default)]
struct JobOutcome {
    report: Option<DesignReport>,
    error: Option<BatchError>,
    degraded: Option<DegradedEntry>,
}

impl JobOutcome {
    fn from_error(error: BatchError) -> JobOutcome {
        JobOutcome {
            error: Some(error),
            ..JobOutcome::default()
        }
    }

    /// Classifies an engine error: budget exhaustion degrades the design
    /// (the analyzer answered within its contract); anything else is a
    /// genuine per-design error.
    fn from_engine_error(e: &EngineError) -> JobOutcome {
        if let EngineError::ResourceExhausted {
            stage,
            limit,
            consumed,
            ..
        } = e
        {
            JobOutcome {
                degraded: Some(DegradedEntry {
                    name: String::new(), // stamped during reassembly
                    stage: stage.as_str().to_string(),
                    limit: *limit,
                    consumed: *consumed,
                    line: e.line_col().map(|(l, _)| l),
                    col: e.line_col().map(|(_, c)| c),
                    message: e.to_string(),
                }),
                ..JobOutcome::default()
            }
        } else {
            JobOutcome::from_error(BatchError {
                name: String::new(), // stamped during reassembly
                phase: e.phase().map(|p| p.to_string()),
                line: e.line_col().map(|(l, _)| l),
                col: e.line_col().map(|(_, c)| c),
                error: e.to_string(),
                expected: false,
            })
        }
    }

    /// The outcome of a work item the pool caught panicking.
    fn panicked(message: String) -> JobOutcome {
        JobOutcome::from_error(BatchError {
            phase: Some("panic".to_string()),
            error: format!("panicked: {message}"),
            ..BatchError::default()
        })
    }
}

/// The per-batch deadline enforcer: one thread polling every in-flight
/// design's start time, tripping its cooperative [`CancelFlag`] once the
/// deadline passes.  The analysis observes the flag at its next stage
/// boundary and surfaces as `ResourceExhausted` (stage `deadline`) — no
/// threads are killed, no state is torn down mid-stage.
struct Watchdog {
    entries: Arc<Mutex<Vec<(Instant, CancelFlag)>>>,
    stop: Arc<AtomicBool>,
    cancels: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn spawn(deadline: Duration) -> Watchdog {
        let entries: Arc<Mutex<Vec<(Instant, CancelFlag)>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let cancels = Arc::new(AtomicU64::new(0));
        let poll_entries = Arc::clone(&entries);
        let poll_stop = Arc::clone(&stop);
        let poll_cancels = Arc::clone(&cancels);
        let handle = std::thread::spawn(move || {
            while !poll_stop.load(Ordering::Relaxed) {
                {
                    let mut entries = poll_entries
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    entries.retain(|(started, flag)| {
                        if started.elapsed() >= deadline {
                            flag.cancel();
                            poll_cancels.fetch_add(1, Ordering::Relaxed);
                            return false;
                        }
                        true
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        Watchdog {
            entries,
            stop,
            cancels,
            handle: Some(handle),
        }
    }

    /// Designs whose cancel flag this watchdog has tripped so far.
    fn cancel_count(&self) -> u64 {
        self.cancels.load(Ordering::Relaxed)
    }

    /// Starts the clock for one design; the returned flag trips once the
    /// deadline elapses.
    fn register(&self) -> CancelFlag {
        let flag = CancelFlag::new();
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push((Instant::now(), flag.clone()));
        flag
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Stamps one job's outcome into the batch, in input order: name and
/// ground-truth bookkeeping are always the job's own, and a `cached`
/// duplicate additionally drops its timing and retitles its DOT graph.
fn push_outcome(batch: &mut BatchReport, job: &Job, outcome: JobOutcome, cached: bool) {
    if cached {
        batch.cache_hits += 1;
    }
    let JobOutcome {
        report,
        error,
        degraded,
    } = outcome;
    if let Some(mut report) = report {
        report.name = job.name.clone();
        report.cached = cached;
        if cached {
            // The duplicate did not spend analysis time itself, and
            // its DOT graph (if any) must carry its own title.
            report.millis = None;
            if let Some(dot) = &mut report.dot {
                if let Some(eol) = dot.find('\n') {
                    *dot = format!("digraph \"{}\" {{{}", job.name, &dot[eol..]);
                }
            }
        }
        apply_truth(&mut report, job);
        batch.designs.push(report);
    }
    if let Some(mut err) = error {
        err.name = job.name.clone();
        err.expected = job.truth.as_ref().is_some_and(|t| t.expect_error);
        batch.errors.push(err);
    }
    if let Some(mut deg) = degraded {
        deg.name = job.name.clone();
        batch.degraded.push(deg);
    }
}

fn effective_policy(job: &Job, opts: &BatchOptions) -> Policy {
    match (&opts.policy, &job.truth) {
        (Some(p), _) => p.clone(),
        (None, Some(truth)) => truth.derived_policy(),
        (None, None) => Policy::new(),
    }
}

/// Stamps (or clears) the job's ground-truth bookkeeping on a report whose
/// analysis fields are already filled in.
fn apply_truth(report: &mut DesignReport, job: &Job) {
    match &job.truth {
        Some(truth) => {
            report.family = Some(truth.family.clone());
            report.leaky = Some(truth.leaky);
            report.expected_violations = truth.expected_violations.clone();
            if truth.expect_error {
                // The front end was supposed to reject this design; an
                // analysis that went through is a wrong answer.
                report.ground_truth_ok = Some(false);
                return;
            }
            let mut actual: Vec<(String, String)> = report
                .violations
                .iter()
                .map(|v| (v.from.clone(), v.to.clone()))
                .collect();
            actual.sort();
            let mut expected = truth.expected_violations.clone();
            expected.sort();
            report.ground_truth_ok = Some(actual == expected);
        }
        None => {
            report.family = None;
            report.leaky = None;
            report.expected_violations = Vec::new();
            report.ground_truth_ok = None;
        }
    }
}

fn analyze_job(
    engine: &Engine,
    job: &Job,
    policy: &Policy,
    opts: &BatchOptions,
    watchdog: Option<&Watchdog>,
) -> JobOutcome {
    let started = Instant::now();
    let analysis = match engine.analyze_source(&job.source) {
        Ok(analysis) => analysis,
        Err(e) => return JobOutcome::from_engine_error(&e),
    };
    finish_job(analysis, job, policy, opts, watchdog, started)
}

/// The post-front-end half of a job: report assembly, optional DOT, smoke
/// and dynamic-flow passes.  Shared by the batch path ([`analyze_job`])
/// and the edit-stream path, which obtains its [`Analysis`] from
/// [`vhdl1_infoflow::Workspace::update`] instead.
fn finish_job(
    analysis: Analysis<'_>,
    job: &Job,
    policy: &Policy,
    opts: &BatchOptions,
    watchdog: Option<&Watchdog>,
    started: Instant,
) -> JobOutcome {
    let analysis = match watchdog {
        Some(watchdog) => analysis.with_cancel_flag(watchdog.register()),
        None => analysis,
    };
    let mut report = match analysis_report(&analysis, policy) {
        Ok(report) => report,
        Err(e) => return JobOutcome::from_engine_error(&e),
    };
    report.name = job.name.clone();
    report.source_hash = format!("fnv1a:{:016x}", fnv1a64(job.source.as_bytes()));
    if opts.format == Format::Dot {
        // `graph_labels()` is served from the persisted artifact on a warm
        // store, so DOT rendering does no front-end work there.
        match analysis.flow_graph() {
            Ok(graph) => {
                report.dot = Some(graph.to_dot_with(&job.name, analysis.graph_labels()));
            }
            Err(e) => return JobOutcome::from_engine_error(&e),
        }
    }
    let mut degraded = None;
    if opts.smoke {
        // The engine memoizes the simulation per design, so duplicate
        // sources in one batch smoke exactly once; simulator errors render
        // `line:col` exactly like analysis errors.  Budget exhaustion
        // degrades the design (the audit verdict above still stands) and
        // does not count as a smoke *failure*.
        match analysis.smoke(SMOKE_MAX_DELTAS) {
            Ok(smoke) => report.smoke_deltas = Some(smoke.deltas),
            Err(e) if e.is_resource_exhausted() => {
                degraded = JobOutcome::from_engine_error(&e).degraded;
            }
            Err(e) => report.smoke_error = Some(e.to_string()),
        }
    }
    if let Some(verify) = &opts.verify {
        // Memoized per (rounds, seed) like smoke; budget exhaustion degrades
        // the design, any other simulator failure is a verify failure the
        // `--check` gate counts.
        match analysis.dynamic_flows(verify.rounds, verify.seed) {
            Ok(dynflow) => report.dynflow = Some(DynFlowSection::from_report(&dynflow)),
            Err(e) if e.is_resource_exhausted() => {
                degraded = JobOutcome::from_engine_error(&e).degraded;
            }
            Err(e) => report.dynflow_error = Some(e.to_string()),
        }
    }
    if opts.timing {
        report.millis = Some(started.elapsed().as_secs_f64() * 1e3);
    }
    JobOutcome {
        report: Some(report),
        error: None,
        degraded,
    }
}

/// Delta-cycle bound of `--smoke` simulations.
const SMOKE_MAX_DELTAS: u64 = 10_000;

#[cfg(test)]
mod tests {
    use super::*;
    use vhdl1_corpus::{generate, CorpusSpec};

    fn corpus_jobs(seed: u64, count: usize) -> Vec<Job> {
        generate(&CorpusSpec::new(seed, count))
            .into_iter()
            .map(Job::from_generated)
            .collect()
    }

    #[test]
    fn ground_truth_is_reproduced_across_all_families() {
        let jobs = corpus_jobs(7, 16); // two clean + two leaky per family
        let batch = run_batch(&jobs, &BatchOptions::default());
        assert!(batch.errors.is_empty(), "errors: {:?}", batch.errors);
        for d in &batch.designs {
            assert_eq!(
                d.ground_truth_ok,
                Some(true),
                "{} ({:?} leaky={:?}): expected {:?}, audit found {:?}",
                d.name,
                d.family,
                d.leaky,
                d.expected_violations,
                d.violations
            );
            assert_eq!(d.leaky, Some(!d.violations.is_empty()));
        }
        assert!(batch.check_ok());
    }

    #[test]
    fn parallel_and_sequential_batches_agree() {
        let jobs = corpus_jobs(11, 12);
        let seq = run_batch(&jobs, &BatchOptions::default());
        let par = run_batch(
            &jobs,
            &BatchOptions {
                jobs: 8,
                ..BatchOptions::default()
            },
        );
        assert_eq!(seq.designs, par.designs);
        assert_eq!(seq.to_json(), par.to_json());
    }

    #[test]
    fn duplicate_sources_hit_the_cache() {
        let mut jobs = corpus_jobs(3, 4);
        let mut dup = jobs[0].clone();
        dup.name = "duplicate".into();
        jobs.push(dup);
        let batch = run_batch(&jobs, &BatchOptions::default());
        assert_eq!(batch.cache_hits, 1);
        let last = batch.designs.last().unwrap();
        assert!(last.cached);
        assert_eq!(last.name, "duplicate");
        // Cached record carries the same analysis results.
        assert_eq!(last.edges, batch.designs[0].edges);
    }

    #[test]
    fn cache_hits_keep_per_job_ground_truth() {
        // Regression: a plain file and a corpus entry with the *identical
        // source* share a cache group under a `--policy` override, but must
        // keep their own ground-truth bookkeeping — the corpus entry's
        // check must run, and the plain file must not inherit corpus
        // metadata.  Exercised in both input orders.
        let corpus_job = corpus_jobs(3, 8).remove(4); // a leaky design
        let plain_job = Job::from_source("plain_copy", corpus_job.source.clone());
        let opts = BatchOptions {
            policy: Some(Policy::new()), // permissive: leaky check must fail
            ..BatchOptions::default()
        };
        for jobs in [
            vec![plain_job.clone(), corpus_job.clone()],
            vec![corpus_job.clone(), plain_job.clone()],
        ] {
            let batch = run_batch(&jobs, &opts);
            assert_eq!(batch.cache_hits, 1);
            let plain = batch
                .designs
                .iter()
                .find(|d| d.name == "plain_copy")
                .unwrap();
            assert_eq!(plain.family, None);
            assert_eq!(plain.leaky, None);
            assert_eq!(plain.ground_truth_ok, None);
            assert!(plain.expected_violations.is_empty());
            let corpus = batch
                .designs
                .iter()
                .find(|d| d.name != "plain_copy")
                .unwrap();
            assert_eq!(corpus.leaky, Some(true));
            assert_eq!(
                corpus.ground_truth_ok,
                Some(false),
                "permissive override hides the leak, so the check must fail"
            );
        }
    }

    #[test]
    fn cache_fields_are_worker_count_independent_with_duplicates() {
        let mut jobs = corpus_jobs(9, 6);
        let mut dup = jobs[2].clone();
        dup.name = "dup".into();
        jobs.insert(3, dup);
        let seq = run_batch(&jobs, &BatchOptions::default());
        let par = run_batch(
            &jobs,
            &BatchOptions {
                jobs: 8,
                ..BatchOptions::default()
            },
        );
        assert_eq!(seq.cache_hits, 1);
        assert_eq!(seq.to_json(), par.to_json());
        // The duplicate — not the representative — carries the cached mark,
        // regardless of scheduling.
        assert!(seq.designs[3].cached);
        assert!(!seq.designs[2].cached);
    }

    #[test]
    fn policy_override_replaces_derived_policies() {
        let jobs = corpus_jobs(5, 8); // includes the leaky second cycle
        let permissive = run_batch(
            &jobs,
            &BatchOptions {
                policy: Some(Policy::new()),
                ..BatchOptions::default()
            },
        );
        assert_eq!(permissive.total_violations(), 0);
        // With an override the ground-truth comparison still runs and now
        // reports the discrepancy on leaky designs.
        assert!(permissive.ground_truth_mismatches() > 0);
    }

    #[test]
    fn smoke_simulation_reaches_quiescence_on_the_corpus() {
        let jobs = corpus_jobs(13, 8);
        let batch = run_batch(
            &jobs,
            &BatchOptions {
                smoke: true,
                ..BatchOptions::default()
            },
        );
        assert_eq!(batch.smoke_failures(), 0, "{:?}", batch.designs);
        assert!(batch.designs.iter().all(|d| d.smoke_deltas.is_some()));
    }

    #[test]
    fn smoke_reports_are_byte_identical_across_runs_and_worker_counts() {
        let jobs = corpus_jobs(17, 10);
        let opts = |workers: usize| BatchOptions {
            smoke: true,
            jobs: workers,
            ..BatchOptions::default()
        };
        let first = run_batch(&jobs, &opts(1)).to_json();
        let second = run_batch(&jobs, &opts(1)).to_json();
        assert_eq!(first, second, "same design must smoke byte-identically");
        let parallel = run_batch(&jobs, &opts(8)).to_json();
        assert_eq!(first, parallel, "smoke deltas are worker-count independent");
    }

    #[test]
    fn smoke_failures_render_source_positions() {
        // Elaboration accepts the out-of-range slice; the simulator rejects
        // it at compile time with `line:col`, exactly like analysis errors.
        let src =
            "entity e is port(a : in std_logic_vector(3 downto 0); b : out std_logic); end e;\n\
                   architecture rtl of e is begin\n\
                   p : process begin\n\
                   b <= a(9 downto 8);\n\
                   wait on a;\n\
                   end process;\n\
                   end rtl;";
        let jobs = vec![Job::from_source("bad_slice", src)];
        let batch = run_batch(
            &jobs,
            &BatchOptions {
                smoke: true,
                ..BatchOptions::default()
            },
        );
        assert_eq!(batch.smoke_failures(), 1);
        let err = batch.designs[0]
            .smoke_error
            .as_deref()
            .expect("smoke must fail");
        assert!(err.contains("slice out of range"), "{err}");
        assert!(err.contains("at 4:"), "smoke errors carry line:col: {err}");
    }

    #[test]
    fn broken_sources_become_errors_not_panics() {
        let jobs = vec![
            Job::from_source("ok", "entity e is port(a : in std_logic; b : out std_logic); end e; architecture rtl of e is begin p : process begin b <= a; wait on a; end process p; end rtl;"),
            Job::from_source("broken", "entity oops"),
        ];
        let batch = run_batch(&jobs, &BatchOptions::default());
        assert_eq!(batch.designs.len(), 1);
        assert_eq!(batch.errors.len(), 1);
        assert_eq!(batch.errors[0].name, "broken");
        assert!(!batch.check_ok());
    }

    #[test]
    fn frontend_errors_carry_phase_and_position_into_reports() {
        let jobs = vec![
            Job::from_source("bad_parse", "entity oops"),
            Job::from_source(
                "bad_elab",
                "entity e is port(a : in std_logic; b : out std_logic); end e;\n\
                 architecture rtl of e is begin\n\
                 p : process begin b <= ghost; wait on a; end process;\n\
                 end rtl;",
            ),
        ];
        let batch = run_batch(&jobs, &BatchOptions::default());
        assert_eq!(batch.errors.len(), 2);
        let parse = &batch.errors[0];
        assert_eq!(parse.phase.as_deref(), Some("parse"));
        assert!(parse.line.is_some() && parse.col.is_some());
        let elab = &batch.errors[1];
        assert_eq!(elab.phase.as_deref(), Some("elaborate"));
        assert_eq!((elab.line, elab.col), (Some(3), Some(24)));
        assert!(
            elab.error.contains("at 3:24"),
            "text rendering must include line:col: {}",
            elab.error
        );
        let json = batch.to_json();
        assert!(json.contains("\"phase\": \"elaborate\""));
        assert!(json.contains("\"line\": 3"));
        assert!(json.contains("\"col\": 24"));
        let text = batch.to_text();
        assert!(text.contains("error bad_elab: elaborate error at 3:24"));
    }

    fn hostile_jobs(seed: u64, count: usize) -> Vec<Job> {
        let spec = CorpusSpec::new(seed, count).with_families(vec![vhdl1_corpus::Family::Hostile]);
        generate(&spec)
            .into_iter()
            .map(Job::from_generated)
            .collect()
    }

    fn tight_opts(workers: usize) -> BatchOptions {
        let mut opts = BatchOptions {
            jobs: workers,
            ..BatchOptions::default()
        };
        opts.analysis.budget = vhdl1_infoflow::Budget::tight();
        opts
    }

    #[test]
    fn hostile_batch_with_tight_budget_is_deterministic_and_clean() {
        // Satellite: same source + same budget => byte-identical report,
        // across repeated runs and across worker counts.  Pure counter
        // budgets (no wall-clock deadline, no timing) keep determinism.
        let jobs = hostile_jobs(3, 12);
        let first = run_batch(&jobs, &tight_opts(1));
        let second = run_batch(&jobs, &tight_opts(1));
        assert_eq!(first.to_json(), second.to_json());
        let parallel = run_batch(&jobs, &tight_opts(8));
        assert_eq!(first.to_json(), parallel.to_json());

        // Every job is accounted for exactly once (no smoke => a report and
        // a degradation never co-occur).
        assert_eq!(
            first.designs.len() + first.errors.len() + first.degraded.len(),
            jobs.len()
        );
        // The tight budget must actually bite on hostile designs, naming
        // the exhausted stage.
        assert!(!first.degraded.is_empty(), "tight budget never tripped");
        for d in &first.degraded {
            assert!(!d.stage.is_empty() && d.limit > 0 && d.consumed > d.limit - 1);
            assert!(d.message.contains("budget exhausted"), "{}", d.message);
        }
        // Degradation and expected rejections are not wrong answers.
        assert!(
            first.errors.iter().all(|e| e.expected),
            "{:?}",
            first.errors
        );
        assert!(first.check_ok());
    }

    #[test]
    fn hostile_garbage_designs_are_expected_errors() {
        // Across a few seeds the hostile family always emits some
        // truncated/garbage designs; their rejections are *expected* and
        // keep the batch clean, and none of them produce a report.
        let jobs = hostile_jobs(42, 10);
        let batch = run_batch(&jobs, &BatchOptions::default());
        assert!(!batch.errors.is_empty(), "no garbage design in seed 42");
        for e in &batch.errors {
            assert!(e.expected, "{}: hostile rejection must be expected", e.name);
            assert!(e.phase.is_some());
        }
        assert_eq!(batch.unexpected_errors(), 0);
        // Under the default (unlimited) budget nothing degrades and every
        // analyzable design reproduces its ground truth — the whole hostile
        // batch checks green, which is what CI's exit-0 leg relies on.
        assert!(batch.degraded.is_empty());
        assert!(
            batch.check_ok(),
            "hostile batch under default budget must check green"
        );
    }

    #[test]
    fn surviving_an_expected_rejection_is_a_mismatch() {
        // A design whose ground truth says "the front end must reject this"
        // but which analyzes fine is a wrong answer, not a success.
        let mut job = corpus_jobs(1, 1).remove(0);
        job.truth.as_mut().unwrap().expect_error = true;
        let batch = run_batch(&[job], &BatchOptions::default());
        assert_eq!(batch.designs[0].ground_truth_ok, Some(false));
        assert!(!batch.check_ok());
    }

    #[test]
    fn zero_deadline_degrades_every_design_via_the_engine_gate() {
        // The engine checks its own wall clock at stage boundaries: an
        // already-expired deadline trips deterministically before the first
        // stage runs, so every design degrades with the `deadline` stage.
        let jobs = corpus_jobs(7, 4);
        let mut opts = BatchOptions::default();
        opts.analysis.budget.deadline_ms = Some(0);
        let batch = run_batch(&jobs, &opts);
        assert!(batch.designs.is_empty());
        assert_eq!(batch.degraded.len(), jobs.len());
        assert!(batch.degraded.iter().all(|d| d.stage == "deadline"));
        assert!(batch.check_ok(), "deadline degradation is not failure");
    }

    #[test]
    fn short_deadline_bites_between_stages_on_hostile_designs() {
        // The hostile family's ~200-process chains take far longer than
        // 5 ms from Reaching Definitions to the flow graph.  The engine's
        // gate runs after each stage's upstream stages, so the watchdog's
        // cancel lands at the next stage boundary instead of after the
        // whole pipeline.
        let jobs = hostile_jobs(3, 12);
        let opts = BatchOptions {
            deadline_ms: Some(5),
            jobs: 4,
            ..BatchOptions::default()
        };
        let batch = run_batch(&jobs, &opts);
        assert!(
            batch.degraded.iter().any(|d| d.stage == "deadline"),
            "{:?}",
            batch.degraded
        );
        assert!(batch.check_ok(), "deadline degradation is not failure");
    }

    #[test]
    fn watchdog_cancels_expired_flags() {
        let watchdog = Watchdog::spawn(Duration::from_millis(0));
        let flag = watchdog.register();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !flag.is_cancelled() {
            assert!(Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn generous_deadline_leaves_the_batch_untouched() {
        // End-to-end through the watchdog thread: a deadline no design
        // comes near must not perturb results (and the watchdog must shut
        // down cleanly when run_batch returns).
        let jobs = corpus_jobs(5, 6);
        let with_deadline = run_batch(
            &jobs,
            &BatchOptions {
                deadline_ms: Some(60_000),
                jobs: 4,
                ..BatchOptions::default()
            },
        );
        let without = run_batch(&jobs, &BatchOptions::default());
        assert_eq!(with_deadline.to_json(), without.to_json());
        assert!(with_deadline.degraded.is_empty());
    }

    #[test]
    fn panic_outcomes_surface_as_batch_errors() {
        let outcome = JobOutcome::panicked("stack blew up".to_string());
        let err = outcome.error.unwrap();
        assert_eq!(err.phase.as_deref(), Some("panic"));
        assert_eq!(err.error, "panicked: stack blew up");
        assert!(!err.expected);
    }

    #[test]
    fn fnv_hash_is_stable() {
        // Pinned: the cache key and the report's source_hash field must not
        // drift silently between releases.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"vhdl"), fnv1a64(b"vhdl"));
        assert_ne!(fnv1a64(b"vhdl"), fnv1a64(b"vhdk"));
    }
}
