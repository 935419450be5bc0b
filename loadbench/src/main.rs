//! The repository benchmark: four workloads driven through the public
//! library APIs of `vhdl1-cli`, `vhdl1-infoflow`, `vhdl1-daemon`,
//! `vhdl1-corpus` and `aes-vhdl`, measured end to end (untraced) and per
//! layer (a traced replay of the same inputs).  See `README.md` beside this
//! package for why each workload and metric was chosen.
//!
//! ```text
//! vhdl1-loadbench --workload NAME --seed N --seconds S --trace 0|1
//! vhdl1-loadbench --smoke [--seed N]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod aes_round;
mod corpus_verify;
mod edit_stream;
mod http;
mod layers;
mod measure;
mod serve_mixed;
mod trace;

use measure::Metrics;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Replay;

const CV: &str = "corpus_verify";
const AES: &str = "aes_round";
const EDIT: &str = "edit_stream";
const SERVE: &str = "serve_mixed";
const WORKLOADS: [&str; 4] = [CV, AES, EDIT, SERVE];
const ALL: &[&str] = &WORKLOADS;

/// The end-to-end metrics, reported on every workload: `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics: `(name, unit, workloads whose traced run must
/// measure it)`.  Elsewhere the layer does not run and the metric reads 0.
const PER_LAYER: [(&str, &str, &[&str]); 37] = [
    ("syntax.ms_per_op", "ms", ALL),
    ("syntax.mb_per_s", "MB/s", ALL),
    ("dataflow.rd.ms_per_op", "ms", ALL),
    ("dataflow.rd.labels_per_op", "count", ALL),
    ("infoflow.local.ms_per_op", "ms", ALL),
    ("infoflow.local.entries_per_op", "count", ALL),
    ("infoflow.specialized.ms_per_op", "ms", ALL),
    ("infoflow.specialized.facts_per_op", "count", ALL),
    ("infoflow.improved.ms_per_op", "ms", ALL),
    ("infoflow.improved.entries_per_op", "count", ALL),
    ("infoflow.global.ms_per_op", "ms", &[CV, AES, EDIT]),
    ("infoflow.graph.ms_per_op", "ms", ALL),
    ("infoflow.graph.edges_per_op", "count", ALL),
    ("infoflow.kemmerer.ms_per_op", "ms", &[CV]),
    ("dynflow.ms_per_op", "ms", &[CV]),
    ("dynflow.witnessed_per_op", "count", &[CV]),
    ("dynflow.coverage_pct", "%", &[CV]),
    ("dynflow.violations", "count", &[CV]),
    ("cli.report.ms_per_op", "ms", ALL),
    ("cli.pool.utilization", "ratio", &[CV]),
    ("cli.pool.wait_ms_mean", "ms", &[CV]),
    ("cli.pool.steals", "count", &[CV]),
    ("infoflow.workspace.update_ms_p50", "ms", &[EDIT]),
    ("infoflow.workspace.reuse_ratio", "ratio", &[EDIT]),
    ("infoflow.workspace.recomputed_per_op", "count", &[EDIT]),
    ("infoflow.engine.memo_hit_ratio", "ratio", &[CV, SERVE]),
    ("infoflow.store.hit_ratio", "ratio", &[SERVE]),
    ("infoflow.store.load_ms_p50", "ms", &[SERVE]),
    ("infoflow.store.save_ms_p50", "ms", &[SERVE]),
    ("daemon.connect_ms_p50", "ms", &[SERVE]),
    ("daemon.ttfb_ms_p50", "ms", &[SERVE]),
    ("daemon.healthz_ms_p50", "ms", &[SERVE]),
    ("daemon.metrics_scrape_ms", "ms", &[SERVE]),
    ("daemon.metrics_bytes", "bytes", &[SERVE]),
    ("daemon.rss_growth_mb", "MB", &[SERVE]),
    ("bench.trace_overhead_pct", "%", ALL),
    ("bench.span_coverage_pct", "%", ALL),
];

/// How one run is made.
pub struct Config {
    /// Derives every input of the run.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Replay the inputs traced and report per-layer metrics.
    pub trace: bool,
    /// Worker threads, client threads and daemon engines.
    pub nproc: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Fewest ops a timed phase runs, however short.
    pub min_ops: usize,
    /// Minimal inputs (smoke mode).
    pub smoke: bool,
    /// Where span files, self-time tables and temporary artifact stores go.
    pub out_dir: PathBuf,
}

impl Config {
    /// The op count after which a workload reads peak memory: `n`, or the
    /// minimal run's op count in smoke mode.
    pub fn mem_ops(&self, n: usize) -> usize {
        if self.smoke {
            self.min_ops
        } else {
            n
        }
    }
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted, both passes.
    pub attempted: u64,
    /// Ops whose output the oracle rejected, both passes.
    pub failed: u64,
    /// End-to-end metrics of the untraced pass.
    pub end_to_end: Metrics,
    /// Per-layer metrics of the traced pass.
    pub layers: Metrics,
    /// The traced replay, when traced.
    pub trace: Option<Replay>,
    /// Human-readable facts about the run (sample counts and the like).
    pub notes: Vec<String>,
}

/// A child seed for `(tag, index)`, so each workload and each input of it
/// draws from its own stream of the run's one seed.
pub fn seed_for(seed: u64, tag: &str, index: u64) -> u64 {
    vhdl1_corpus::Rng::new(seed ^ vhdl1_infoflow::fnv1a64(tag.as_bytes()))
        .derive(index)
        .next_u64()
}

fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        CV => corpus_verify::run(cfg),
        AES => aes_round::run(cfg),
        EDIT => edit_stream::run(cfg),
        SERVE => serve_mixed::run(cfg),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// Checks and completes a run's metrics.  Every declared metric must be
/// present and finite, and in a traced run every layer that runs on the
/// workload must have been measured; the metrics of layers that do not run
/// on it read 0.  Errors name the workload and the metric.
fn finish(workload: &str, trace: bool, out: &mut Outcome) -> Result<Vec<&'static str>, String> {
    let mut absent = Vec::new();
    if trace {
        for (name, _, runs_on) in PER_LAYER {
            if !out.layers.contains_key(name) {
                if runs_on.contains(&workload) {
                    return Err(format!(
                        "workload {workload}: per-layer metric {name} was not measured"
                    ));
                }
                out.layers.insert(name, 0.0);
                absent.push(name);
            }
        }
    }
    let (metrics, names): (&Metrics, Vec<&str>) = if trace {
        (&out.layers, PER_LAYER.iter().map(|m| m.0).collect())
    } else {
        (&out.end_to_end, END_TO_END.iter().map(|m| m.0).collect())
    };
    for name in names {
        match metrics.get(name) {
            None => return Err(format!("workload {workload}: metric {name} is missing")),
            Some(v) if !v.is_finite() => {
                return Err(format!(
                    "workload {workload}: metric {name} is not finite ({v})"
                ))
            }
            Some(_) => {}
        }
    }
    Ok(absent)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome, trace: bool) -> String {
    let (metrics, units): (&Metrics, Vec<(&str, &str)>) = if trace {
        (&out.layers, PER_LAYER.iter().map(|m| (m.0, m.1)).collect())
    } else {
        (&out.end_to_end, END_TO_END.to_vec())
    };
    let fields: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                metrics[name]
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    )
}

/// The human-readable report printed ahead of the result line.
fn summary(workload: &str, cfg: &Config, out: &Outcome, absent: &[&str]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# workload {workload}, seed {}, {} s, trace {}, {} cores",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.nproc
    );
    for note in &out.notes {
        let _ = writeln!(s, "# {note}");
    }
    for (name, unit) in END_TO_END {
        if let Some(v) = out.end_to_end.get(name) {
            let _ = writeln!(s, "# {name:<36} {v:>14.4} {unit}");
        }
    }
    let share = out.failed as f64 / out.attempted as f64;
    let _ = writeln!(
        s,
        "# {:<36} {share:>14.4} share ({} of {} ops)",
        "failed_share", out.failed, out.attempted
    );
    if cfg.trace {
        for (name, unit, _) in PER_LAYER {
            let v = out.layers[name];
            let mark = if absent.contains(&name) {
                "  (layer not run here)"
            } else {
                ""
            };
            let _ = writeln!(s, "# {name:<36} {v:>14.4} {unit}{mark}");
        }
    }
    s
}

/// Writes the span file and self-time table of a traced run; returns the
/// table.
fn write_trace(workload: &str, cfg: &Config, out: &Outcome) -> std::io::Result<String> {
    let Some(replay) = &out.trace else {
        return Ok(String::new());
    };
    let stem = cfg.out_dir.join(format!("{workload}-seed{}", cfg.seed));
    let table = replay.self_time_table(workload);
    std::fs::write(stem.with_extension("spans.jsonl"), replay.spans_jsonl())?;
    std::fs::write(stem.with_extension("selftime.txt"), &table)?;
    Ok(table)
}

/// Smoke mode: every workload at minimal size, untraced and traced; fails
/// loud, naming the workload and metric, on a missing or non-finite metric
/// or a failed op.
fn smoke(base: &Config) -> Result<(), String> {
    check_declaration()?;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                seed: base.seed,
                seconds: 0.0,
                trace,
                setup_reps: 1,
                min_ops: 2,
                smoke: true,
                out_dir: base.out_dir.clone(),
                nproc: base.nproc,
            };
            let mut out = run_workload(workload, &cfg)?;
            finish(workload, trace, &mut out)?;
            if out.failed > 0 {
                return Err(format!(
                    "workload {workload}: {} of {} ops failed",
                    out.failed, out.attempted
                ));
            }
            println!(
                "smoke ok: {workload} trace={} ({} ops)",
                u8::from(trace),
                out.attempted
            );
        }
    }
    Ok(())
}

/// When run from the repository root, checks that `BENCHMARK.json` names
/// exactly the workloads and metrics this binary reports.
fn check_declaration() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let mut declared: Vec<&str> = text
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1))
        .collect();
    let mut known: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    declared.sort_unstable();
    known.sort_unstable();
    if declared != known {
        return Err(format!(
            "BENCHMARK.json names differ from the benchmark's: declared {declared:?}, reported {known:?}"
        ));
    }
    Ok(())
}

const USAGE: &str =
    "usage: vhdl1-loadbench --workload corpus_verify|aes_round|edit_stream|serve_mixed \
--seed N --seconds S --trace 0|1\n       vhdl1-loadbench --smoke [--seed N]";

fn parse(args: &[String]) -> Result<(Option<String>, Config), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                workload = Some(w.clone());
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let cfg = Config {
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(0.0),
        trace: trace.unwrap_or(false),
        nproc: std::thread::available_parallelism().map_or(2, |n| n.get()),
        setup_reps: 5,
        min_ops: 3,
        smoke,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    if smoke {
        return Ok((None, cfg));
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(_), Some(_), Some(_)) => Ok((Some(w), cfg)),
        _ => Err("--workload, --seed, --seconds and --trace are all required".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("vhdl1-loadbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!(
            "vhdl1-loadbench: cannot create {}: {e}",
            cfg.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let Some(workload) = workload else {
        return match smoke(&cfg) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("vhdl1-loadbench smoke: {e}");
                ExitCode::from(3)
            }
        };
    };
    let mut out = match run_workload(&workload, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("vhdl1-loadbench: {e}");
            return ExitCode::from(3);
        }
    };
    let absent = match finish(&workload, cfg.trace, &mut out) {
        Ok(absent) => absent,
        Err(e) => {
            eprintln!("vhdl1-loadbench: {e}");
            return ExitCode::from(3);
        }
    };
    print!("{}", summary(&workload, &cfg, &out, &absent));
    match write_trace(&workload, &cfg, &out) {
        Ok(table) => print!(
            "{}",
            table
                .lines()
                .map(|l| format!("# {l}\n"))
                .collect::<String>()
        ),
        Err(e) => {
            eprintln!("vhdl1-loadbench: cannot write the trace files: {e}");
            return ExitCode::from(3);
        }
    }
    println!("{}", result_json(&out, cfg.trace));
    ExitCode::SUCCESS
}
