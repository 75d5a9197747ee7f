//! Fixed-bucket histograms: cheap to record (one binary search per
//! sample), deterministic to serialize, and summarizable into percentile
//! estimates without retaining samples.
//!
//! Serialization: [`Histogram::encode`] renders the bucket state as one
//! flat string, `le=<bound>:<count>;...;inf:<count>`, which is what the
//! metric exposition prints; [`Histogram::from_parts`] is the lossless
//! inverse of the accessors, for checkpoint restore.

/// A histogram over fixed, strictly increasing bucket upper bounds, plus
/// an implicit `+inf` overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

fn finite_and_increasing(bounds: &[f64]) -> bool {
    bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite())
}

impl Histogram {
    /// New histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    /// Panics on an empty or non-increasing bound list.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            finite_and_increasing(&bounds),
            "histogram bounds must be finite and strictly increasing"
        );
        let n = bounds.len() + 1;
        Self { bounds, counts: vec![0; n], count: 0, sum: 0.0 }
    }

    /// Ready-made bounds for sub-second latencies in microseconds
    /// (1µs … 10s, one bucket per decade third).
    pub fn latency_us() -> Self {
        let mut bounds = Vec::new();
        let mut b = 1.0;
        while b <= 1e7 {
            bounds.push(b);
            bounds.push(b * 2.0);
            bounds.push(b * 5.0);
            b *= 10.0;
        }
        Self::new(bounds)
    }

    /// Record one sample (NaN samples are counted in the overflow bucket
    /// so they stay visible rather than vanishing).
    pub fn record(&mut self, v: f64) {
        let idx = if v.is_nan() {
            self.bounds.len()
        } else {
            self.bounds.partition_point(|&b| b < v)
        };
        self.counts[idx] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The configured inclusive upper bounds (excluding the implicit
    /// `+inf` overflow bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts, one per bound plus the trailing `+inf` overflow
    /// bucket (so `counts().len() == bounds().len() + 1`).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Running sum of the finite samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Reassemble a histogram from previously captured state — the exact
    /// inverse of reading [`Histogram::bounds`]/[`Histogram::counts`]/
    /// [`Histogram::sum`], for checkpoint restore paths that must be
    /// lossless (the flat-string [`Histogram::encode`] drops the sum).
    ///
    /// # Errors
    /// The parts come from a file, so a shape [`Histogram::new`] would
    /// panic on is an `Err` here: empty, non-finite or non-increasing
    /// bounds, `counts` not one longer than `bounds`, or a total count
    /// beyond `u64`.
    pub fn from_parts(bounds: Vec<f64>, counts: Vec<u64>, sum: f64) -> Result<Self, String> {
        if bounds.is_empty() || !finite_and_increasing(&bounds) {
            return Err("histogram bounds must be non-empty, finite and strictly increasing".into());
        }
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "histogram has {} counts for {} bounds plus overflow",
                counts.len(),
                bounds.len()
            ));
        }
        let count = counts
            .iter()
            .try_fold(0u64, |total, &c| total.checked_add(c))
            .ok_or("histogram counts overflow u64")?;
        Ok(Self { bounds, counts, count, sum })
    }

    /// Mean of the finite samples (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile from bucket counts: the upper bound of
    /// the bucket containing the target rank (the conventional
    /// fixed-bucket estimator; +inf bucket reports the largest bound).
    ///
    /// # Panics
    /// Panics unless `q ∈ [0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    *self.bounds.last().expect("non-empty bounds")
                };
            }
        }
        *self.bounds.last().expect("non-empty bounds")
    }

    /// Canonical flat-string encoding (`le=10:4;le=100:9;inf:2`).
    pub fn encode(&self) -> String {
        let mut parts: Vec<String> = self
            .bounds
            .iter()
            .zip(&self.counts)
            .map(|(b, c)| format!("le={b}:{c}"))
            .collect();
        parts.push(format!("inf:{}", self.counts[self.bounds.len()]));
        parts.join(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_buckets() {
        let mut h = Histogram::new(vec![10.0, 100.0]);
        for v in [1.0, 10.0, 11.0, 1000.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.encode(), "le=10:2;le=100:1;inf:1");
    }

    #[test]
    fn percentiles_report_bucket_bounds() {
        let mut h = Histogram::new(vec![1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 1.5, 1.6, 3.0, 3.5, 3.9, 5.0, 6.0] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(0.5), 4.0);
        assert_eq!(h.percentile(1.0), 8.0);
        assert!(Histogram::new(vec![1.0]).percentile(0.5).is_nan());
    }

    #[test]
    fn nan_lands_in_overflow() {
        let mut h = Histogram::new(vec![1.0]);
        h.record(f64::NAN);
        assert_eq!(h.encode(), "le=1:0;inf:1");
    }

    #[test]
    fn value_exactly_on_bucket_edge_lands_in_that_bucket() {
        // Bounds are *inclusive* upper bounds: record() places v with
        // partition_point(b < v), so v == bound stays in bound's bucket.
        let mut h = Histogram::new(vec![10.0, 100.0]);
        h.record(10.0);
        h.record(100.0);
        assert_eq!(h.encode(), "le=10:1;le=100:1;inf:0");
        // The next representable value above the edge overflows to the
        // following bucket.
        let mut h2 = Histogram::new(vec![10.0, 100.0]);
        h2.record(10.0_f64.next_up());
        assert_eq!(h2.encode(), "le=10:0;le=100:1;inf:0");
    }

    #[test]
    fn infinities_land_in_overflow_bucket() {
        let mut h = Histogram::new(vec![10.0, 100.0]);
        h.record(f64::INFINITY);
        assert_eq!(h.encode(), "le=10:0;le=100:0;inf:1");
        // -inf is below every bound, so it stays in the first bucket —
        // and, being non-finite, it is excluded from the mean.
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.encode(), "le=10:1;le=100:0;inf:1");
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn overflow_only_percentiles_saturate_at_largest_bound() {
        // When every sample overflows, the estimator can only report the
        // largest configured bound — pinned here so dashboards reading
        // p99 of an overflowing histogram know the value is a floor.
        let mut h = Histogram::new(vec![10.0, 100.0]);
        h.record(1e9);
        h.record(f64::INFINITY);
        assert_eq!(h.percentile(0.0), 100.0);
        assert_eq!(h.percentile(0.99), 100.0);
        assert_eq!(h.percentile(1.0), 100.0);
    }

    #[test]
    fn empty_histogram_quantiles_and_mean_are_nan() {
        let h = Histogram::new(vec![1.0, 2.0]);
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert!(h.percentile(q).is_nan());
        }
        assert!(h.mean().is_nan());
        assert_eq!(h.encode(), "le=1:0;le=2:0;inf:0");
    }

    #[test]
    fn from_parts_roundtrips_exactly_including_sum() {
        let mut h = Histogram::new(vec![10.0, 100.0]);
        for v in [5.0, 50.0, 500.0, 0.125] {
            h.record(v);
        }
        let back =
            Histogram::from_parts(h.bounds().to_vec(), h.counts().to_vec(), h.sum()).unwrap();
        assert_eq!(back, h, "from_parts is the exact inverse of the accessors");
        assert_eq!(back.sum().to_bits(), h.sum().to_bits());
        assert_eq!(back.mean().to_bits(), h.mean().to_bits());
    }

    #[test]
    fn from_parts_refuses_what_new_would_panic_on() {
        for (bounds, counts, why) in [
            (vec![], vec![0], "bounds"),
            (vec![1.0, 1.0], vec![0, 0, 0], "bounds"),
            (vec![2.0, 1.0], vec![0, 0, 0], "bounds"),
            (vec![f64::INFINITY], vec![0, 0], "bounds"),
            (vec![f64::NAN, 1.0], vec![0, 0, 0], "bounds"),
            (vec![1.0, 2.0], vec![0, 0], "2 counts for 2 bounds"),
            (vec![1.0, 2.0], vec![0, 0, 0, 0], "4 counts for 2 bounds"),
            (vec![1.0], vec![u64::MAX, 1], "overflow"),
        ] {
            let err = Histogram::from_parts(bounds, counts, 0.0).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn bounds_accessor_exposes_configured_bounds() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        assert_eq!(h.bounds(), &[1.0, 2.0, 4.0]);
    }
}
