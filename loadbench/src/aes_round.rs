//! `aes_round`: `vhdl1c analyze aes_round.vhd`.  An op is one cold
//! `run_batch` over one fully unrolled AES round (about 245 KB of source),
//! the one input where Reaching Definitions and Tables 6–7 dominate.

use crate::layers::{batch_replay, report_ms};
use crate::measure::{closed_loop, end_to_end, repeated_setup};
use crate::{Config, Outcome};
use std::collections::{BTreeMap, BTreeSet};
use vhdl1_cli::{run_batch, BatchOptions, Job};
use vhdl1_infoflow::{fnv1a64, EngineConfig};

/// The flow-graph edges the analysis reported for this round when the
/// benchmark was written, one `from to` pair per line.  The analysis is
/// sound but not exact here: through the shared `temp`, `s_*`, `t_*` and
/// `x_*` signals every input reaches every output byte, 512 input → output
/// pairs where the round implies 80.  A report may drop edges (a more
/// precise analysis) but not add one.
const PINNED_EDGES: &str = include_str!("../data/aes_round.edges");

/// Ops after which peak memory is read.
const MEM_OPS: usize = 4;

/// Every `(input, output)` dependence one AES round implies, derived from
/// the round's definition rather than from the analyzer.  State byte
/// `4c + r` sits in row `r`, column `c`.  ShiftRows moves row `r'` of
/// column `(c + r') % 4` into column `c`, MixColumns mixes the four bytes of
/// that column into each of its outputs, and AddRoundKey adds key byte
/// `4c + r`.
pub fn round_dependences() -> Vec<(String, String)> {
    let mut deps = Vec::new();
    for c in 0..4 {
        for r in 0..4 {
            let out = format!("b_{}", 4 * c + r);
            deps.push((format!("k_{}", 4 * c + r), out.clone()));
            for r2 in 0..4 {
                deps.push((format!("a_{}", 4 * ((c + r2) % 4) + r2), out.clone()));
            }
        }
    }
    deps
}

/// Every node reachable from each node, over `edges`.
fn reachable(edges: &[(String, String)]) -> BTreeMap<&str, BTreeSet<&str>> {
    let mut succ: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges {
        succ.entry(from).or_default().push(to);
    }
    succ.keys()
        .map(|&from| {
            let mut seen = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(n) = stack.pop() {
                for &m in succ.get(n).map(Vec::as_slice).unwrap_or(&[]) {
                    if seen.insert(m) {
                        stack.push(m);
                    }
                }
            }
            (from, seen)
        })
        .collect()
}

/// The dependences with no path in `edges`.
fn missing(edges: &[(String, String)], deps: &[(String, String)]) -> usize {
    let reach = reachable(edges);
    deps.iter()
        .filter(|(from, to)| {
            !reach
                .get(from.as_str())
                .is_some_and(|r| r.contains(to.as_str()))
        })
        .count()
}

/// The `(input, output)` pairs joined by a path: an `a_*` or `k_*` input
/// reaching a `b_*` output byte.
fn input_output_pairs(edges: &[(String, String)]) -> usize {
    reachable(edges)
        .iter()
        .filter(|(from, _)| from.starts_with("a_") || from.starts_with("k_"))
        .map(|(_, to)| to.iter().filter(|n| n.starts_with("b_")).count())
        .sum()
}

/// The edges not among the pinned ones: flows a less precise analysis
/// added.
fn extra(edges: &[(String, String)]) -> usize {
    let pinned: BTreeSet<(&str, &str)> = PINNED_EDGES
        .lines()
        .filter_map(|line| line.split_once(' '))
        .collect();
    edges
        .iter()
        .filter(|(from, to)| !pinned.contains(&(from.as_str(), to.as_str())))
        .count()
}

/// The oracle: every dependence the round implies has a path, and no edge
/// lies outside the pinned set.
fn edges_ok(edges: &[(String, String)], deps: &[(String, String)]) -> bool {
    missing(edges, deps) == 0 && extra(edges) == 0
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let opts = BatchOptions {
        jobs: cfg.nproc,
        ..BatchOptions::default()
    };
    let (setup, job) = repeated_setup(cfg.setup_reps, || {
        let job = Job::from_source("aes_round", aes_vhdl::aes_round_vhdl());
        // Pre-warm with one untimed cold analysis.
        std::hint::black_box(run_batch(std::slice::from_ref(&job), &opts).to_json());
        job
    });
    let jobs = std::slice::from_ref(&job);
    let deps = round_dependences();

    // Every op analyses the same source, so every report must be the same
    // bytes; the first report's edges carry the dependence check for all.
    let mut first_edges = None;
    let timed = closed_loop(cfg.seconds, cfg.min_ops, cfg.mem_ops(MEM_OPS), |i| {
        let batch = run_batch(jobs, &opts);
        let json = batch.to_json();
        if i == 0 {
            first_edges = batch.designs.first().map(|d| d.edges.clone());
        }
        (
            fnv1a64(json.as_bytes()),
            batch.designs.len() == 1 && batch.errors.is_empty() && batch.degraded.is_empty(),
        )
    });
    let ops = timed.outputs.len();
    let edges = first_edges.unwrap_or_default();
    let first_ok = edges_ok(&edges, &deps);
    let reference = timed.outputs[0].0;
    let op_ok = |(hash, whole): &(u64, bool)| *whole && *hash == reference && first_ok;
    let mut failed = timed.outputs.iter().filter(|o| !op_ok(o)).count() as u64;

    // Oracle self-checks: a report that lost the edges into one output byte
    // misses dependences, and one with a flow the pinned report lacks (key
    // byte 1 into output byte 0) is less precise.
    let lost: Vec<(String, String)> = edges
        .iter()
        .filter(|(_, to)| to != "b_0")
        .cloned()
        .collect();
    assert!(
        !edges_ok(&lost, &deps),
        "aes_round oracle accepted a report missing dependences"
    );
    let mut widened = edges.clone();
    widened.push(("k_1".to_string(), "b_0".to_string()));
    assert!(
        !edges_ok(&widened, &deps),
        "aes_round oracle accepted a report with an extra flow"
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
        "{ops} ops; {} of {} round dependences have a path in the report; {} edges, {} outside \
         the pinned set; {} input -> output pairs joined by a path",
        deps.len() - missing(&edges, &deps),
        deps.len(),
        edges.len(),
        extra(&edges),
        input_output_pairs(&edges)
    ));

    if cfg.trace {
        let traced = batch_replay(ops, |_| jobs, &opts, |_| reference)?;
        failed += traced.mismatches;
        out.attempted += ops as u64;
        let mut m = traced.metrics;
        let config = EngineConfig {
            options: opts.analysis,
            cache: opts.cache.clone(),
        };
        m.insert("cli.report.ms_per_op", report_ms(&config, &[jobs], &opts));
        traced.replay.into_outcome(&mut out, m, timed.wall_s);
    }
    out.failed = failed;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_output_byte_has_five_dependences() {
        let deps = round_dependences();
        assert_eq!(deps.len(), 16 * 5);
        // Output byte 5 is row 1, column 1: key byte 5, and after
        // ShiftRows the column holds a_4 (row 0), a_9, a_14 and a_3.
        let into5: BTreeSet<&str> = deps
            .iter()
            .filter(|(_, to)| to == "b_5")
            .map(|(from, _)| from.as_str())
            .collect();
        assert_eq!(into5, BTreeSet::from(["k_5", "a_4", "a_9", "a_14", "a_3"]));
    }

    #[test]
    fn the_pinned_report_is_sound_and_over_approximates() {
        let pinned: Vec<(String, String)> = PINNED_EDGES
            .lines()
            .filter_map(|line| line.split_once(' '))
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        assert!(edges_ok(&pinned, &round_dependences()));
        assert_eq!(input_output_pairs(&pinned), 32 * 16);
    }

    #[test]
    fn paths_may_run_through_intermediate_nodes() {
        let edges = vec![
            ("a".to_string(), "t".to_string()),
            ("t".to_string(), "b".to_string()),
        ];
        assert_eq!(missing(&edges, &[("a".into(), "b".into())]), 0);
        assert_eq!(missing(&edges, &[("b".into(), "a".into())]), 1);
    }
}
