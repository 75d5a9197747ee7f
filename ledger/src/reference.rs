//! The host-slowdown reference.
//!
//! This benchmark's host is a shared two-vCPU microVM. Its neighbours
//! slow it down by 5–90 % for seconds to minutes at a time — long enough
//! to cover a whole run, so no statistic over a run's own samples can
//! see through it: ten runs of one binary spread 0.2–0.37 (IQR ÷ median)
//! on wall-clock latency in four of six sets, the whole of every
//! regression bound. What does see through it is a fixed piece of work
//! whose cost is known: the reference kernel below runs between ops,
//! every [`SAMPLE_EVERY_NS`], outside every timed span, and its time ÷
//! [`NOMINAL_MS`] is the host's slowdown at that moment. Timing metrics
//! are divided by it (README, "Slowdown compensation").
//!
//! The kernel lives here, in the ledger's own code, so no change to a
//! layer can move it; it is small (18 KB of data, L1-resident) so it does
//! not evict what the next op needs; and it is throughput-bound
//! floating-point work like the forecasters' kernels, which is what the
//! neighbours' load slows (a latency-bound integer chain barely notices).

use crate::clock::now_ns;
use crate::stats::median;
use std::hint::black_box;

/// The kernel's time on a quiet host of the kind the first baseline was
/// recorded on. A different host reads every compensated time off by one
/// constant factor, the same for parent and change.
pub const NOMINAL_MS: f64 = 1.60;
/// Minimum gap between two samples (the kernel costs ~2.5 % of it).
pub const SAMPLE_EVERY_NS: u64 = 100_000_000;

const DIM: usize = 48;
const PRODUCTS: usize = 2000;

/// Samples of the reference kernel over a run.
pub struct Reference {
    matrix: Vec<f64>,
    vector: Vec<f64>,
    /// `(clock reading, kernel milliseconds)`, chronological.
    samples: Vec<(u64, f64)>,
    /// Nanoseconds spent in the kernel so far.
    spent_ns: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self {
            matrix: (0..DIM * DIM).map(|i| (i % 7) as f64 * 0.1).collect(),
            vector: vec![0.5; DIM],
            samples: Vec::new(),
            spent_ns: 0,
        }
    }
}

impl Reference {
    /// [`PRODUCTS`] dense [`DIM`]×[`DIM`] matrix–vector products.
    fn kernel(&self) -> f64 {
        let mut out = [0.0; DIM];
        for _ in 0..PRODUCTS {
            for (row, o) in self.matrix.chunks_exact(DIM).zip(out.iter_mut()) {
                *o = row.iter().zip(&self.vector).map(|(a, b)| a * b).sum();
            }
            black_box(&mut out);
        }
        out[0]
    }

    /// Time the kernel now; returns the slowdown it read.
    pub fn sample(&mut self) -> f64 {
        let t0 = now_ns();
        black_box(self.kernel());
        let t1 = now_ns();
        let ms = (t1 - t0) as f64 / 1e6;
        self.samples.push((t1, ms));
        self.spent_ns += t1 - t0;
        ms / NOMINAL_MS
    }

    /// Nanoseconds spent in the kernel so far, for callers whose timed
    /// stretch spans samples.
    pub fn spent_ns(&self) -> u64 {
        self.spent_ns
    }

    /// The fastest sample so far (ms): what [`NOMINAL_MS`] should read
    /// on this host.
    pub fn fastest_ms(&self) -> f64 {
        self.samples.iter().map(|&(_, ms)| ms).fold(f64::INFINITY, f64::min)
    }

    /// Time the kernel if [`SAMPLE_EVERY_NS`] passed since the last sample.
    pub fn sample_if_due(&mut self) {
        if self.samples.last().is_none_or(|&(t, _)| now_ns() - t >= SAMPLE_EVERY_NS) {
            self.sample();
        }
    }

    /// The host's slowdown over the clock interval `[from, to]`: the
    /// median sample inside it ÷ [`NOMINAL_MS`]; the sample nearest to
    /// the interval when none falls inside. 1 when nothing was sampled.
    pub fn slowdown(&self, from: u64, to: u64) -> f64 {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(t, _)| from <= t && t <= to)
            .map(|&(_, ms)| ms)
            .collect();
        if !inside.is_empty() {
            return median(&inside) / NOMINAL_MS;
        }
        let gap = |t: u64| if t < from { from - t } else { t.saturating_sub(to) };
        self.samples.iter().min_by_key(|&&(t, _)| gap(t)).map_or(1.0, |&(_, ms)| ms / NOMINAL_MS)
    }

    /// Slowdown over the whole run so far.
    pub fn overall(&self) -> f64 {
        self.slowdown(0, u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_samples(samples: &[(u64, f64)]) -> Reference {
        Reference { samples: samples.to_vec(), ..Reference::default() }
    }

    #[test]
    fn slowdown_is_the_median_sample_inside_the_interval() {
        let r = with_samples(&[
            (10, NOMINAL_MS),
            (20, 2.0 * NOMINAL_MS),
            (30, 3.0 * NOMINAL_MS),
            (90, 9.0 * NOMINAL_MS),
        ]);
        assert_eq!(r.slowdown(15, 35), 2.0);
        assert_eq!(r.slowdown(0, 100), 2.0);
        assert_eq!(r.overall(), 2.0);
    }

    #[test]
    fn an_empty_interval_takes_the_nearest_sample() {
        let r = with_samples(&[(10, NOMINAL_MS), (50, 4.0 * NOMINAL_MS)]);
        assert_eq!(r.slowdown(12, 20), 1.0);
        assert_eq!(r.slowdown(40, 45), 4.0);
        assert_eq!(r.slowdown(60, 70), 4.0);
        assert_eq!(with_samples(&[]).slowdown(0, 10), 1.0);
    }

    #[test]
    fn the_kernel_does_its_work_and_is_sampled_on_schedule() {
        let mut r = Reference::default();
        // Row 0 of the matrix is (0, .1, .2, …, .6) repeating; times 0.5.
        let row0: f64 = (0..DIM).map(|i| (i % 7) as f64 * 0.1 * 0.5).sum();
        assert!((r.kernel() - row0).abs() < 1e-12);
        r.sample_if_due();
        r.sample_if_due();
        assert_eq!(r.samples.len(), 1, "the second call is not due yet");
        assert!(r.samples[0].1 > 0.0);
    }
}
