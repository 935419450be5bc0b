//! `cargo run -p xtask -- <task>` — repository automation.
//!
//! ## `bench-gate`
//!
//! The CI perf-regression gate: compares a freshly produced
//! `BENCH_alfp.json` (written by `cargo bench -p bench --bench scaling`)
//! against the committed `BENCH_baseline.json` and fails when any workload
//! series regressed beyond the tolerance.
//!
//! ```console
//! $ cargo run -p xtask -- bench-gate \
//!       --baseline BENCH_baseline.json --current BENCH_alfp.json \
//!       --tolerance 25
//! ```
//!
//! CI runners and developer machines differ wildly in absolute speed, so a
//! committed nanosecond baseline cannot be compared directly.  The gate
//! therefore **rescales by machine speed** before judging: it computes the
//! per-point ratio `current / baseline` for every `(workload, size)` pair,
//! takes the median ratio across *all* points as the machine-speed factor,
//! and flags a series only when its own median ratio exceeds
//! `factor * (1 + tolerance)`.  A uniform 2× slower runner passes; one
//! series slowing down while the rest hold steady fails.  Pass
//! `--no-rescale` to compare absolute medians (useful when baseline and
//! current come from the same machine).
//!
//! **Re-baselining** (after an intentional perf change): run the bench and
//! copy the fresh summary over the committed baseline —
//! `cargo bench -p bench --bench scaling && cp BENCH_alfp.json
//! BENCH_baseline.json` — and commit it together with the change that
//! shifted the numbers.
//!
//! Series present only in the current summary are reported as informational
//! (new workloads need no baseline); series that *disappear* from the
//! current summary fail the gate, so a bench refactor cannot silently drop
//! coverage.
//!
//! ## `dynflow-series`
//!
//! Folds a `vhdl1c verify` JSON report into the bench summary as a
//! `dynflow_coverage` series point:
//!
//! ```console
//! $ cargo run -p xtask -- dynflow-series \
//!       --report verify_report.json --out BENCH_alfp.json
//! ```
//!
//! The point records the corpus size, the dynamically covered / total static
//! flow-graph edge counts, and the coverage in permille.  Its `median_ns`
//! field is the *uncovered* edge count plus one, which makes the ordinary
//! `bench-gate` machinery double as a coverage-regression gate: dynamic
//! coverage decaying between a committed baseline and a fresh nightly run
//! shows up as a "regressed" series, exactly like a slow benchmark.
//!
//! ## `profile-series`
//!
//! Folds the deterministic counters of a `vhdl1c analyze --profile=FILE`
//! profile document into the bench summary:
//!
//! ```console
//! $ cargo run -p xtask -- profile-series \
//!       --profile profile.json --out BENCH_alfp.json
//! ```
//!
//! Three series are appended, each encoding its counter (plus one) as
//! `median_ns` so `bench-gate` flags *increases* as regressions:
//!
//! * `profile_stage_runs` — total stage computations across the batch: a
//!   rise at a fixed corpus means memoization or dedup got less effective;
//! * `profile_cache_misses` — engine source-cache misses (cache
//!   effectiveness);
//! * `profile_graph_edges` — flow-graph edges built (`items` of the
//!   `flow_graph` stage): a proxy for analysis work and precision drift.
//!
//! Only the profile's single-line `"deterministic"` section is read; every
//! wall-clock field is ignored by construction.

use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-gate") => bench_gate(&args[1..]),
        Some("dynflow-series") => dynflow_series(&args[1..]),
        Some("profile-series") => profile_series(&args[1..]),
        Some("store-series") => store_series(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:\n  cargo run -p xtask -- bench-gate --baseline <file> --current <file> \\\n      [--tolerance <percent>] [--no-rescale]\n  cargo run -p xtask -- dynflow-series --report <verify.json> --out <file>\n  cargo run -p xtask -- profile-series --profile <profile.json> --out <file>\n  cargo run -p xtask -- store-series --warm <profile.json> --out <file>";

fn bench_gate(args: &[String]) -> ExitCode {
    let mut baseline_path = None;
    let mut current_path = None;
    let mut tolerance = 25.0f64;
    let mut rescale = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = it.next().cloned(),
            "--current" => current_path = it.next().cloned(),
            "--tolerance" => {
                tolerance = match it.next().and_then(|t| t.parse().ok()) {
                    Some(t) => t,
                    None => {
                        eprintln!("--tolerance needs a number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--no-rescale" => rescale = false,
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(baseline_path), Some(current_path)) = (baseline_path, current_path) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let load = |path: &str| -> Result<Vec<BenchPoint>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_points(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = match load(&baseline_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let current = match load(&current_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = compare(&baseline, &current, tolerance, rescale);
    print!("{}", outcome.render());
    if outcome.failed_series.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dynflow_series(args: &[String]) -> ExitCode {
    let mut report_path = None;
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => report_path = it.next().cloned(),
            "--out" => out_path = it.next().cloned(),
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(report_path), Some(out_path)) = (report_path, out_path) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let report = match std::fs::read_to_string(&report_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {report_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let point = match coverage_point(&report) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {report_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    let merged = append_point(&existing, &point);
    if let Err(e) = std::fs::write(&out_path, &merged) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("dynflow-series: appended to {out_path}: {point}");
    ExitCode::SUCCESS
}

fn profile_series(args: &[String]) -> ExitCode {
    let mut profile_path = None;
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => profile_path = it.next().cloned(),
            "--out" => out_path = it.next().cloned(),
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(profile_path), Some(out_path)) = (profile_path, out_path) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let profile = match std::fs::read_to_string(&profile_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {profile_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let points = match profile_points(&profile) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {profile_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut merged = std::fs::read_to_string(&out_path).unwrap_or_default();
    for point in &points {
        merged = append_point(&merged, point);
        println!("profile-series: appended to {out_path}: {point}");
    }
    if let Err(e) = std::fs::write(&out_path, &merged) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn store_series(args: &[String]) -> ExitCode {
    let mut warm_path = None;
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--warm" => warm_path = it.next().cloned(),
            "--out" => out_path = it.next().cloned(),
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(warm_path), Some(out_path)) = (warm_path, out_path) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let warm = match std::fs::read_to_string(&warm_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {warm_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let point = match store_point(&warm) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {warm_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    let merged = append_point(&existing, &point);
    if let Err(e) = std::fs::write(&out_path, &merged) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("store-series: appended to {out_path}: {point}");
    ExitCode::SUCCESS
}

/// Builds the `persistent_warm_cold` bench point from the profile of a
/// **warm** `--cache-dir` rerun.  The point's value is the number of
/// engine stage computations the warm run still performed — zero when the
/// artifact store serves every design — so any recomputation creep trips
/// `bench-gate` once baselined.  Rejects profiles that never touched the
/// store (`store_hits == 0`): those would gate nothing.
fn store_point(profile: &str) -> Result<String, String> {
    let engine_line = profile
        .lines()
        .find(|l| l.trim_start().starts_with("\"engine\""))
        .ok_or("missing engine section")?;
    let field = |name: &str| field_after(engine_line, "\"engine\"", name);
    let hits = field("store_hits")?;
    if hits == 0 {
        return Err("warm profile has no store hits; was --cache-dir set on both runs?".into());
    }
    let recomputed = field("frontend")?
        + field("rd")?
        + field("local")?
        + field("specialized")?
        + field("global")?
        + field("improved")?
        + field("flow_graph")?
        + field("kemmerer")?;
    let det_line = profile
        .lines()
        .find(|l| l.trim_start().starts_with("\"deterministic\""))
        .ok_or("missing deterministic section")?;
    let jobs = field_after(det_line, "\"deterministic\"", "jobs")?;
    Ok(format!(
        "{{\"workload\": \"persistent_warm_cold\", \"size\": {jobs}, \
         \"value\": {recomputed}, \"median_ns\": {}}}",
        recomputed + 1
    ))
}

/// Extracts a named `"field": <integer>` occurring after `anchor` in
/// `text`.
fn field_after(text: &str, anchor: &str, name: &str) -> Result<u64, String> {
    let scoped = text
        .find(anchor)
        .map(|at| &text[at..])
        .ok_or_else(|| format!("missing `{anchor}`"))?;
    let at = scoped
        .find(&format!("\"{name}\""))
        .ok_or_else(|| format!("missing field `{name}` after `{anchor}`"))?;
    scoped[at..]
        .split_once(':')
        .and_then(|(_, rest)| {
            rest.trim_start()
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .ok_or_else(|| format!("field `{name}` after `{anchor}` is not an integer"))
}

/// Builds the deterministic bench points of a profile document.  Reads only
/// the single-line `"deterministic"` section; each counter is encoded as
/// `median_ns` (plus one, so a zero counter still yields a valid point) and
/// an increase therefore registers as a regression in `bench-gate`.
fn profile_points(profile: &str) -> Result<Vec<String>, String> {
    let det_line = profile
        .lines()
        .find(|l| l.trim_start().starts_with("\"deterministic\""))
        .ok_or("missing deterministic section")?;
    let jobs = field_after(det_line, "\"deterministic\"", "jobs")?;
    let misses = field_after(det_line, "\"deterministic\"", "cache_misses")?;
    let stages = det_line
        .find("\"stages\"")
        .map(|at| &det_line[at..])
        .ok_or("deterministic section carries no stages (profile collected without spans?)")?;
    let mut runs = 0u64;
    let mut rest = stages;
    while let Some(at) = rest.find("\"runs\"") {
        rest = &rest[at..];
        runs += field_after(rest, "\"runs\"", "runs")?;
        rest = &rest["\"runs\"".len()..];
    }
    let edges = field_after(stages, "\"flow_graph\"", "items")?;
    let point = |workload: &str, value: u64| {
        format!(
            "{{\"workload\": \"{workload}\", \"size\": {jobs}, \
             \"value\": {value}, \"median_ns\": {}}}",
            value + 1
        )
    };
    Ok(vec![
        point("profile_stage_runs", runs),
        point("profile_cache_misses", misses),
        point("profile_graph_edges", edges),
    ])
}

/// Extracts a named `"field": <integer>` from the summary of a `vhdl1c`
/// verify report.  Searches after the `"summary"` key: the report also has
/// a top-level `"designs"` *array*, which must not shadow the count.
fn summary_field(report: &str, name: &str) -> Result<u64, String> {
    let summary = report
        .find("\"summary\"")
        .map(|at| &report[at..])
        .ok_or("missing summary object")?;
    let at = summary
        .find(&format!("\"{name}\""))
        .ok_or_else(|| format!("missing summary field `{name}`"))?;
    summary[at..]
        .split_once(':')
        .and_then(|(_, rest)| {
            rest.trim_start()
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .ok_or_else(|| format!("summary field `{name}` is not an integer"))
}

/// Builds the `dynflow_coverage` bench point from a verify report.  The
/// `median_ns` field encodes uncovered edges + 1 so `bench-gate` flags
/// coverage decay as a regression.
fn coverage_point(report: &str) -> Result<String, String> {
    let designs = summary_field(report, "designs")?;
    let covered = summary_field(report, "dynflow_covered_edges")?;
    let total = summary_field(report, "dynflow_static_edges")?;
    if covered > total {
        return Err(format!("covered {covered} exceeds total {total}"));
    }
    let permille = (covered * 1000).checked_div(total).unwrap_or(1000);
    Ok(format!(
        "{{\"workload\": \"dynflow_coverage\", \"size\": {designs}, \
         \"covered_edges\": {covered}, \"static_edges\": {total}, \
         \"coverage_permille\": {permille}, \"median_ns\": {}}}",
        total - covered + 1
    ))
}

/// Appends a point object to a flat JSON array document, creating the array
/// when `existing` is empty.
fn append_point(existing: &str, point: &str) -> String {
    let body = existing.trim();
    let Some(stripped) = body.strip_suffix(']') else {
        return format!("[\n  {point}\n]\n");
    };
    let inner = stripped.trim_end();
    let sep = if inner.ends_with('[') { "" } else { "," };
    format!("{inner}{sep}\n  {point}\n]\n")
}

/// One `(workload, size)` measurement of a bench summary.
#[derive(Debug, Clone, PartialEq)]
struct BenchPoint {
    workload: String,
    size: u64,
    median_ns: u128,
}

/// Parses the flat-object array `scaling` writes (`BENCH_alfp.json`).
/// Deliberately minimal: the format is produced by this repository's own
/// bench, not by arbitrary tools.
fn parse_points(text: &str) -> Result<Vec<BenchPoint>, String> {
    let mut points = Vec::new();
    for (i, obj) in text.split('{').skip(1).enumerate() {
        let obj = obj
            .split('}')
            .next()
            .ok_or_else(|| format!("object {i}: unterminated"))?;
        let field = |name: &str| -> Option<&str> {
            let at = obj.find(&format!("\"{name}\""))?;
            let rest = obj[at..].split_once(':')?.1;
            Some(rest.split(',').next().unwrap_or(rest).trim())
        };
        let workload = field("workload")
            .ok_or_else(|| format!("object {i}: missing workload"))?
            .trim_matches('"')
            .to_string();
        let size: u64 = field("size")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("object {i}: bad size"))?;
        let median_ns: u128 = field("median_ns")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("object {i}: bad median_ns"))?;
        points.push(BenchPoint {
            workload,
            size,
            median_ns,
        });
    }
    if points.is_empty() {
        return Err("no bench points found".into());
    }
    Ok(points)
}

#[derive(Debug, Default)]
struct GateOutcome {
    /// Per-series verdict lines, in workload order.
    lines: Vec<String>,
    /// Workloads that regressed beyond tolerance or went missing.
    failed_series: Vec<String>,
    machine_factor: f64,
    tolerance: f64,
}

impl GateOutcome {
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench gate: machine-speed factor {:.3}, tolerance {:.0}%\n",
            self.machine_factor, self.tolerance
        ));
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        if self.failed_series.is_empty() {
            out.push_str("bench gate: OK\n");
        } else {
            out.push_str(&format!(
                "bench gate: FAILED ({})\n",
                self.failed_series.join(", ")
            ));
        }
        out
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN ratios"));
    values[values.len() / 2]
}

/// Judges `current` against `baseline`: per-point ratios, optional global
/// machine-speed rescale, per-series median compared against the tolerance.
fn compare(
    baseline: &[BenchPoint],
    current: &[BenchPoint],
    tolerance_pct: f64,
    rescale: bool,
) -> GateOutcome {
    let current_by_key: BTreeMap<(&str, u64), u128> = current
        .iter()
        .map(|p| ((p.workload.as_str(), p.size), p.median_ns))
        .collect();

    // Per-series point ratios (baseline order preserved).
    let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut missing: Vec<String> = Vec::new();
    let mut all_ratios: Vec<f64> = Vec::new();
    for p in baseline {
        match current_by_key.get(&(p.workload.as_str(), p.size)) {
            Some(&cur) => {
                let ratio = cur as f64 / (p.median_ns.max(1)) as f64;
                series.entry(&p.workload).or_default().push(ratio);
                all_ratios.push(ratio);
            }
            None => {
                if !missing.contains(&p.workload) {
                    missing.push(p.workload.clone());
                }
            }
        }
    }

    let machine_factor = if rescale && !all_ratios.is_empty() {
        median(&mut all_ratios.clone())
    } else {
        1.0
    };
    let allowed = machine_factor * (1.0 + tolerance_pct / 100.0);

    let mut outcome = GateOutcome {
        machine_factor,
        tolerance: tolerance_pct,
        ..GateOutcome::default()
    };
    for (workload, ratios) in &series {
        let r = median(&mut ratios.clone());
        let verdict = if r > allowed { "REGRESSED" } else { "ok" };
        outcome.lines.push(format!(
            "  {workload:<26} median ratio {r:>7.3} (allowed {allowed:.3})  {verdict}"
        ));
        if r > allowed {
            outcome.failed_series.push((*workload).to_string());
        }
    }
    for workload in missing {
        outcome
            .lines
            .push(format!("  {workload:<26} MISSING from current summary"));
        outcome.failed_series.push(workload);
    }
    // Purely informational: new series have no baseline yet.
    let baseline_workloads: Vec<&str> = baseline.iter().map(|p| p.workload.as_str()).collect();
    let mut seen_new: Vec<&str> = Vec::new();
    for p in current {
        if !baseline_workloads.contains(&p.workload.as_str())
            && !seen_new.contains(&p.workload.as_str())
        {
            seen_new.push(&p.workload);
            outcome
                .lines
                .push(format!("  {:<26} new series (no baseline)", p.workload));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[(&str, u64, u128)]) -> Vec<BenchPoint> {
        raw.iter()
            .map(|(w, s, m)| BenchPoint {
                workload: w.to_string(),
                size: *s,
                median_ns: *m,
            })
            .collect()
    }

    #[test]
    fn parses_the_scaling_summary_format() {
        let text = r#"[
  {"workload": "chain_tc", "size": 32, "tuples": 561, "median_ns": 181632},
  {"workload": "rd_dense", "size": 1, "tuples": 519, "median_ns": 2740}
]
"#;
        let points = parse_points(text).unwrap();
        assert_eq!(
            points,
            pts(&[("chain_tc", 32, 181632), ("rd_dense", 1, 2740)])
        );
        assert!(parse_points("[]").is_err());
        assert!(parse_points(r#"[{"workload": "x", "size": 1}]"#).is_err());
    }

    #[test]
    fn identical_summaries_pass() {
        let b = pts(&[("a", 1, 1000), ("a", 2, 2000), ("b", 1, 500)]);
        let out = compare(&b, &b, 25.0, true);
        assert!(out.failed_series.is_empty(), "{}", out.render());
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let b = pts(&[("a", 1, 1000), ("a", 2, 2000), ("b", 1, 500), ("c", 3, 900)]);
        // Series `b` regressed 2x; the others hold, so rescaling cannot
        // hide it.
        let c = pts(&[
            ("a", 1, 1000),
            ("a", 2, 2000),
            ("b", 1, 1000),
            ("c", 3, 900),
        ]);
        let out = compare(&b, &c, 25.0, true);
        assert_eq!(out.failed_series, vec!["b".to_string()], "{}", out.render());
        // Within tolerance passes.
        let c = pts(&[("a", 1, 1000), ("a", 2, 2000), ("b", 1, 600), ("c", 3, 900)]);
        let out = compare(&b, &c, 25.0, true);
        assert!(out.failed_series.is_empty(), "{}", out.render());
    }

    #[test]
    fn uniformly_slower_machines_pass_with_rescale_and_fail_without() {
        let b = pts(&[("a", 1, 1000), ("b", 1, 500), ("c", 3, 900)]);
        let c = pts(&[("a", 1, 3000), ("b", 1, 1500), ("c", 3, 2700)]);
        let rescaled = compare(&b, &c, 25.0, true);
        assert!(rescaled.failed_series.is_empty(), "{}", rescaled.render());
        let absolute = compare(&b, &c, 25.0, false);
        assert_eq!(absolute.failed_series.len(), 3, "{}", absolute.render());
    }

    #[test]
    fn coverage_point_encodes_uncovered_edges_as_median() {
        let report = r#"{
  "summary": {
    "designs": 200,
    "dynflow_covered_edges": 2700,
    "dynflow_static_edges": 2774,
    "cache_hits": 0
  }
}"#;
        let point = coverage_point(report).unwrap();
        assert!(point.contains("\"workload\": \"dynflow_coverage\""));
        assert!(point.contains("\"size\": 200"));
        assert!(point.contains("\"covered_edges\": 2700"));
        assert!(point.contains("\"coverage_permille\": 973"));
        // 74 uncovered edges + 1.
        assert!(point.contains("\"median_ns\": 75"));
        // The emitted point round-trips through the gate's own parser.
        let parsed = parse_points(&format!("[{point}]")).unwrap();
        assert_eq!(parsed, pts(&[("dynflow_coverage", 200, 75)]));
        // Edgeless reports count as fully covered; inconsistent ones error.
        let empty = coverage_point(
            "{\"summary\": {\"designs\": 1, \"dynflow_covered_edges\": 0, \
             \"dynflow_static_edges\": 0}}",
        )
        .unwrap();
        assert!(empty.contains("\"coverage_permille\": 1000"));
        assert!(coverage_point(
            "{\"summary\": {\"designs\": 1, \"dynflow_covered_edges\": 2, \
             \"dynflow_static_edges\": 1}}"
        )
        .is_err());
        assert!(coverage_point("{}").is_err());
    }

    #[test]
    fn profile_points_read_only_the_deterministic_line() {
        let profile = r#"{
  "tool": "vhdl1c-profile",
  "schema": 1,
  "deterministic": {"jobs": 25, "unique_jobs": 25, "cache_hits": 0, "cache_misses": 25, "stages": {"frontend": {"runs": 25, "memo_hits": 0, "work": 100, "items": 50}, "rd": {"runs": 25, "memo_hits": 3, "work": 7, "items": 7}, "flow_graph": {"runs": 25, "memo_hits": 0, "work": 40, "items": 123}}},
  "wall_ns": 99999,
  "stages": [
    {"stage": "frontend", "runs": 7777, "wall_ns": 1}
  ]
}"#;
        let points = profile_points(profile).unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[0].contains("\"workload\": \"profile_stage_runs\""));
        assert!(points[0].contains("\"size\": 25"));
        // 25 + 25 + 25 runs from the deterministic line — the wall-clock
        // `"stages"` array below it (with its decoy 7777) is never read.
        assert!(points[0].contains("\"value\": 75"), "{}", points[0]);
        assert!(points[0].contains("\"median_ns\": 76"));
        assert!(points[1].contains("\"workload\": \"profile_cache_misses\""));
        assert!(points[1].contains("\"median_ns\": 26"));
        assert!(points[2].contains("\"workload\": \"profile_graph_edges\""));
        assert!(points[2].contains("\"value\": 123"));
        // The emitted points round-trip through the gate's parser.
        let all = format!("[{}]", points.join(", "));
        assert_eq!(
            parse_points(&all).unwrap(),
            pts(&[
                ("profile_stage_runs", 25, 76),
                ("profile_cache_misses", 25, 26),
                ("profile_graph_edges", 25, 124),
            ])
        );
        assert!(profile_points("{}").is_err());
        assert!(
            profile_points("{\n  \"deterministic\": {\"jobs\": 1, \"cache_misses\": 0}\n}")
                .is_err(),
            "a stage-less profile must be rejected, not silently zeroed"
        );
    }

    #[test]
    fn store_point_measures_warm_recomputation() {
        let warm = r#"{
  "tool": "vhdl1c-profile",
  "deterministic": {"jobs": 25, "unique_jobs": 25, "cache_hits": 0, "cache_misses": 25},
  "engine": {"frontend": 0, "rd": 0, "local": 0, "specialized": 0, "global": 0, "improved": 0, "flow_graph": 0, "kemmerer": 0, "smoke": 0, "dynamic_flows": 0, "cache_hits": 0, "cache_misses": 25, "store_hits": 25, "store_misses": 0, "store_writes": 0},
  "wall_ns": 1
}"#;
        let point = store_point(warm).unwrap();
        assert!(point.contains("\"workload\": \"persistent_warm_cold\""));
        assert!(point.contains("\"size\": 25"));
        assert!(point.contains("\"value\": 0"));
        assert!(point.contains("\"median_ns\": 1"));
        assert_eq!(
            parse_points(&format!("[{point}]")).unwrap(),
            pts(&[("persistent_warm_cold", 25, 1)])
        );
        // A warm run that still recomputed registers a non-zero value...
        let leaky = warm.replace("\"frontend\": 0, \"rd\": 0", "\"frontend\": 3, \"rd\": 2");
        assert!(store_point(&leaky).unwrap().contains("\"value\": 5"));
        // ...and a run that never hit the store gates nothing: reject it.
        let cold = warm.replace("\"store_hits\": 25", "\"store_hits\": 0");
        assert!(store_point(&cold).is_err());
        assert!(store_point("{}").is_err());
    }

    #[test]
    fn append_point_grows_an_array_in_place() {
        let fresh = append_point("", "{\"workload\": \"x\", \"size\": 1, \"median_ns\": 2}");
        assert_eq!(
            fresh,
            "[\n  {\"workload\": \"x\", \"size\": 1, \"median_ns\": 2}\n]\n"
        );
        let grown = append_point(
            &fresh,
            "{\"workload\": \"y\", \"size\": 2, \"median_ns\": 3}",
        );
        assert_eq!(
            parse_points(&grown).unwrap(),
            pts(&[("x", 1, 2), ("y", 2, 3)])
        );
        // Appending to an empty array does not leave a leading comma.
        let from_empty = append_point("[]", "{\"workload\": \"z\", \"size\": 1, \"median_ns\": 1}");
        assert_eq!(parse_points(&from_empty).unwrap(), pts(&[("z", 1, 1)]));
    }

    #[test]
    fn missing_series_fail_and_new_series_inform() {
        let b = pts(&[("a", 1, 1000), ("gone", 1, 10)]);
        let c = pts(&[("a", 1, 1000), ("fresh", 1, 10)]);
        let out = compare(&b, &c, 25.0, true);
        assert_eq!(out.failed_series, vec!["gone".to_string()]);
        assert!(out.render().contains("fresh"), "{}", out.render());
        assert!(out.render().contains("new series"), "{}", out.render());
    }
}
