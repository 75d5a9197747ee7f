//! Order statistics, block aggregates and the output digest.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy (total order, so a stray NaN cannot panic the sort).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median (always one of the samples).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).min(n)
}

/// The highest of p99.5 / p99 / p95 / p90 that leaves at least ten
/// samples beyond it in a block of `block_len` samples; p75 when none does. Each
/// workload's tail percentile in `config.rs` is this rule at its design
/// sample count, then held fixed so the metric means the same thing on
/// every run; the info line prints what the rule picks at the run's
/// actual count, so drift between the two is visible.
pub fn tail_percentile_for(block_len: usize) -> f64 {
    [99.5, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| samples_beyond(block_len, p) >= 10)
        .unwrap_or(75.0)
}

/// Split `len` items into `blocks` contiguous ranges whose sizes differ
/// by at most one (fewer ranges when `len < blocks`).
pub fn block_ranges(len: usize, blocks: usize) -> Vec<std::ops::Range<usize>> {
    let blocks = blocks.min(len).max(1);
    (0..blocks).map(|b| (b * len / blocks)..((b + 1) * len / blocks)).collect()
}

/// Number of chronological blocks the timed phase is cut into.
pub const BLOCKS: usize = 10;

/// One value per chronological block of `items`.
pub fn per_block<T>(items: &[T], f: impl Fn(&[T]) -> f64) -> Vec<f64> {
    block_ranges(items.len(), BLOCKS).into_iter().map(|r| f(&items[r])).collect()
}

/// The quiet-host value of a timing from its per-block `values` and the
/// per-block host `slowdowns` (`reference.rs`): the best block's value —
/// smallest, or largest when `higher_is_better` — compensated by the
/// lower-quartile slowdown.
///
/// A shared host slows down by 5–90 % for seconds to minutes at a time;
/// the slow blocks measure the neighbours, not this code, and they only
/// ever push one way, so the best block is the one to read. A run with a
/// quiet quarter has a lower-quartile slowdown of 1.00 and reports plain
/// wall-clock values; only a run slowed almost throughout is divided by
/// what the reference kernel says the host cost it. On raw samples of 20
/// runs × 5 workloads this repeated 2–4× more tightly than the plain
/// best block, 4–8× more tightly than whole-run medians (README,
/// "Slowdown compensation"). A change to the code moves every block and not
/// the reference kernel, so it still shows in full.
pub fn quiet_estimate(values: &[f64], slowdowns: &[f64], higher_is_better: bool) -> f64 {
    let slowdown = percentile(&sorted(slowdowns), 25.0);
    if higher_is_better {
        values.iter().copied().fold(0.0, f64::max) * slowdown
    } else {
        values.iter().copied().fold(f64::INFINITY, f64::min) / slowdown
    }
}

/// 64-bit FNV-1a over the bytes a workload's outputs are made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold an integer (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold a float by its bit pattern, so `-0.0` and `0.0` differ and
    /// NaN payloads count.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Fold a string, length-prefixed so `("ab","c")` ≠ `("a","bc")`.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 75.0), 8.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 99.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn tail_selection_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile_for(1000), 99.0);
        // 2000 samples: p99.5 leaves exactly 10 beyond.
        assert_eq!(tail_percentile_for(2000), 99.5);
        assert_eq!(tail_percentile_for(1999), 99.0);
        // 999 samples: p99 leaves 9, p95 leaves 49.
        assert_eq!(tail_percentile_for(999), 95.0);
        assert_eq!(tail_percentile_for(200), 95.0);
        assert_eq!(tail_percentile_for(199), 90.0);
        assert_eq!(tail_percentile_for(100), 90.0);
        assert_eq!(tail_percentile_for(99), 75.0);
        // Too few samples for any candidate: the floor.
        assert_eq!(tail_percentile_for(8), 75.0);
        assert_eq!(tail_percentile_for(0), 75.0);
    }

    #[test]
    fn block_ranges_tile_the_input() {
        let r = block_ranges(12, 5);
        assert_eq!(r.len(), 5);
        assert_eq!(r.first().map(|r| r.start), Some(0));
        assert_eq!(r.last().map(|r| r.end), Some(12));
        assert!(r.windows(2).all(|w| w[0].end == w[1].start));
        assert!(r.iter().all(|r| (2..=3).contains(&r.len())));
        assert_eq!(block_ranges(3, 5).len(), 3);
    }

    #[test]
    fn quiet_estimate_reads_the_best_block() {
        // Ten blocks; seven run 2x slow, and the reference says so.
        let values = [70.0, 72.0, 71.0, 35.0, 70.0, 73.0, 70.0, 36.0, 70.0, 37.0];
        let mut slow = [2.0; 10];
        slow[3] = 1.0;
        slow[7] = 1.0;
        slow[9] = 1.0;
        // A quiet quarter exists: the plain wall-clock value of the best block.
        assert_eq!(quiet_estimate(&values, &slow, false), 35.0);
        let rates: Vec<f64> = values.iter().map(|v| 1000.0 / v).collect();
        assert_eq!(quiet_estimate(&rates, &slow, true), 1000.0 / 35.0);
        // A change that slows every block still shows in full.
        let slower: Vec<f64> = values.iter().map(|v| v * 1.5).collect();
        assert_eq!(quiet_estimate(&slower, &slow, false), 52.5);
    }

    #[test]
    fn quiet_estimate_compensates_a_run_slowed_throughout() {
        let values = [70.0, 72.0, 71.0, 69.0];
        let slow = [2.0, 2.1, 1.9, 2.0];
        // Lower-quartile slowdown 1.9 (nearest rank): 69 / 1.9.
        assert_eq!(quiet_estimate(&values, &slow, false), 69.0 / 1.9);
        assert_eq!(quiet_estimate(&[10.0, 12.0], &slow, true), 12.0 * 1.9);
        // No reference samples at all: slowdown 1, plain values.
        assert_eq!(quiet_estimate(&values, &[1.0], false), 69.0);
    }

    #[test]
    fn fnv_digest_is_stable() {
        // Published FNV-1a test vectors.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::default().bytes(b"foobar").finish(), 0x8594_4171_f739_67e8);
        // Framing: field boundaries and float signs are part of the digest.
        assert_ne!(
            Fnv::default().str("ab").str("c").finish(),
            Fnv::default().str("a").str("bc").finish()
        );
        assert_ne!(Fnv::default().f64(0.0).finish(), Fnv::default().f64(-0.0).finish());
        assert_eq!(
            Fnv::default().u64(7).f64(1.5).finish(),
            Fnv::default().u64(7).f64(1.5).finish()
        );
    }
}
