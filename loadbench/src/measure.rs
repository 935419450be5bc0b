//! Measurement helpers: quantiles, process CPU and memory from `/proc`,
//! the repeated set-up, the closed timed loop, and the end-to-end metric
//! set every workload reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Metric name → value.  Units live in the metric tables of `main.rs`.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat`.  `USER_HZ` is 100 on every mainstream Linux ABI.
const USER_HZ: f64 = 100.0;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// NaN for an empty slice, which fails the run's finiteness check.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or `None` when nothing was counted: a ratio of nothing is
/// not a measurement.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// Process CPU time (user + system, all threads, live and exited) in
/// seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 11 and 12 after the name.
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric tick field") };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// A `kB` field of `/proc/self/status`, in MB; NaN when absent, which
/// fails the run's finiteness check.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident memory of this process, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Runs `setup` `reps` times and keeps the last result: set-up time is
/// reported as the median of the repetitions, so one slow repetition on a
/// shared host does not decide it.  Earlier results are dropped (their
/// teardown is not timed) before the next repetition starts.
pub fn repeated_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (Vec<f64>, S) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let state = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(state);
    }
    (times, last.expect("at least one set-up repetition"))
}

/// What one closed-loop timed phase measured.
pub struct Timed<O> {
    /// Per-op latency, submit to verdict.
    pub latencies_ms: Vec<f64>,
    /// Per-op output, checked by the workload's oracle after the phase.
    pub outputs: Vec<O>,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Process CPU time spent during the phase.
    pub cpu_s: f64,
    /// Peak resident memory once `mem_ops` ops had answered.
    pub peak_rss_mb: f64,
}

/// One client, closed loop: issues op `i` only after op `i - 1` answered,
/// until `seconds` have passed and at least `min_ops` ops ran.
///
/// Memory is read after a fixed number of ops, `mem_ops` (the loop runs at
/// least that many), not at the end: engines that keep every design they
/// saw grow with the ops a run completes, and a faster program must not
/// read as a larger one.
pub fn closed_loop<O>(
    seconds: f64,
    min_ops: usize,
    mem_ops: usize,
    mut op: impl FnMut(usize) -> O,
) -> Timed<O> {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut latencies_ms = Vec::new();
    let mut outputs = Vec::new();
    let mut peak = 0.0;
    while outputs.len() < min_ops.max(mem_ops) || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = op(outputs.len());
        latencies_ms.push(ms(t.elapsed()));
        outputs.push(out);
        if outputs.len() == mem_ops.max(1) {
            peak = peak_rss_mb();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    Timed {
        latencies_ms,
        outputs,
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
        peak_rss_mb: peak,
    }
}

/// The end-to-end metric set.  `verdicts` counts designs given a verdict
/// during the phase (a corpus batch gives one per design).
pub fn end_to_end(
    setup_s: &[f64],
    lat_ms: &[f64],
    verdicts: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
) -> Metrics {
    let ops = lat_ms.len().max(1) as f64;
    Metrics::from([
        ("setup_s", median(setup_s)),
        ("throughput_per_s", verdicts / wall_s),
        ("latency_ms_p50", quantile(lat_ms, 0.5)),
        ("latency_ms_p90", quantile(lat_ms, 0.9)),
        ("cpu_ms_per_op", cpu_s * 1e3 / ops),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0);
    }
}
