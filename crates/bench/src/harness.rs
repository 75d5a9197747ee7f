//! Minimal `std::time::Instant` micro-benchmark harness for the
//! `benches/` targets (all declared `harness = false`), replacing the
//! Criterion dependency.
//!
//! Methodology: one warm-up call, then the iteration count is calibrated
//! so a batch runs ≳ `TARGET_BATCH`; each sample times a whole batch
//! and divides by the count, and the reported figure is the median over
//! `default_samples` samples (robust to scheduler noise, like
//! Criterion's default estimator). Set `RPAS_BENCH_SAMPLES` to trade
//! precision for wall-clock.

#![expect(clippy::disallowed_types, reason = "the timing harness: Instant is what it measures with")]

use rpas_obs::catalog;
use std::time::{Duration, Instant};

/// Minimum measured batch duration; batches much shorter than this are
/// dominated by timer resolution.
const TARGET_BATCH: Duration = Duration::from_millis(5);

/// Samples per benchmark (`RPAS_BENCH_SAMPLES` override, default 20).
pub(crate) fn default_samples() -> usize {
    std::env::var("RPAS_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(20)
}

/// Timing summary of one benchmark, in seconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Median per-iteration time across samples.
    pub median: f64,
    /// Fastest sample.
    pub min: f64,
    /// Mean across samples.
    pub mean: f64,
    /// Iterations per timed batch (after calibration).
    pub iters_per_sample: u64,
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// Measure one closure: warm up, calibrate the batch size, sample, and
/// summarise.
#[expect(clippy::expect_used, reason = "timings are finite; a NaN here means the harness is broken")]
pub(crate) fn measure<T>(mut f: impl FnMut() -> T) -> Stats {
    // Warm-up + calibration: grow the batch until it clears TARGET_BATCH.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = t0.elapsed();
        if elapsed >= TARGET_BATCH || iters >= 1 << 30 {
            break;
        }
        // Aim past the target with headroom; at least double.
        let scale = (TARGET_BATCH.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).ceil() as u64;
        iters = (iters * scale.max(2)).min(1 << 30);
    }

    let samples = default_samples();
    let mut per_iter = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        per_iter.push(t0.elapsed().as_secs_f64() / iters as f64);
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    Stats {
        median: per_iter[per_iter.len() / 2],
        min: per_iter[0],
        mean: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
        iters_per_sample: iters,
    }
}

/// A named group of benchmarks printed as one table, mirroring the shape
/// of the Criterion groups it replaced. Each measurement also lands on
/// the [`crate::bench_obs`] handle as a `bench/measurement` debug event
/// (timing fields in `*_us` slots), and the whole group is bracketed by a
/// `bench` phase timer, so `RPAS_TRACE_OUT` captures a machine-readable
/// copy of every figure the table prints.
pub struct BenchGroup {
    name: String,
    rows: Vec<(String, Stats)>,
    started: Instant,
}

#[expect(clippy::print_stdout, reason = "the printed table is a benches/ target's product")]
impl BenchGroup {
    /// New empty group.
    pub fn new(name: &str) -> Self {
        Self { name: name.to_string(), rows: Vec::new(), started: Instant::now() }
    }

    /// Run and record one benchmark.
    pub fn bench<T>(&mut self, label: &str, f: impl FnMut() -> T) {
        let stats = measure(f);
        println!(
            "{}/{label}: median {} (min {}, {} iters/sample)",
            self.name,
            fmt_time(stats.median),
            fmt_time(stats.min),
            stats.iters_per_sample
        );
        crate::bench_obs().emit(catalog::BENCH_MEASUREMENT, |e| {
            e.field("group", self.name.clone())
                .field("name", label.to_string())
                .field("iters", stats.iters_per_sample)
                .field("median_us", stats.median * 1e6)
                .field("min_us", stats.min * 1e6)
                .field("mean_us", stats.mean * 1e6);
        });
        self.rows.push((label.to_string(), stats));
    }

    /// Print the summary table and return the rows for further use.
    pub fn finish(self) -> Vec<(String, Stats)> {
        crate::bench_obs().emit(catalog::BENCH_SPAN_CLOSE, |e| {
            e.field("phase", self.name.clone()).field("benchmarks", self.rows.len());
            e.wall_us = Some(self.started.elapsed().as_micros() as u64);
        });
        let width = self.rows.iter().map(|(l, _)| l.len()).max().unwrap_or(4).max(4);
        println!("\n== {} ==", self.name);
        println!("{:width$}  {:>12}  {:>12}  {:>12}", "name", "median", "min", "mean");
        for (label, s) in &self.rows {
            println!(
                "{label:width$}  {:>12}  {:>12}  {:>12}",
                fmt_time(s.median),
                fmt_time(s.min),
                fmt_time(s.mean)
            );
        }
        println!();
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_sane_stats() {
        std::env::set_var("RPAS_BENCH_SAMPLES", "3");
        let s = measure(|| std::hint::black_box(1u64 + 2));
        std::env::remove_var("RPAS_BENCH_SAMPLES");
        assert!(s.median > 0.0 && s.median.is_finite());
        assert!(s.min <= s.median);
        assert!(s.iters_per_sample >= 1);
    }

    #[test]
    fn fmt_time_picks_units() {
        assert!(fmt_time(2e-9).ends_with("ns"));
        assert!(fmt_time(2e-6).ends_with("µs"));
        assert!(fmt_time(2e-3).ends_with("ms"));
        assert!(fmt_time(2.0).ends_with('s'));
    }
}
