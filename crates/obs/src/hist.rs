//! Fixed-bucket histograms: cheap to record (one binary search per
//! sample) and deterministic to serialize, without retaining samples.
//!
//! Serialization: [`Histogram::encode_into`] renders the bucket state as
//! one flat string, `le=<bound>:<count>;...;inf:<count>`, which is what the
//! metric exposition prints.

use crate::json::{write_f64, write_u64};

/// A histogram over fixed, strictly increasing bucket upper bounds, plus
/// an implicit `+inf` overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// New histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    /// Panics on an empty or non-increasing bound list.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        let n = bounds.len() + 1;
        Self { bounds, counts: vec![0; n], count: 0, sum: 0.0 }
    }

    /// Record one sample (NaN samples are counted in the overflow bucket
    /// so they stay visible rather than vanishing).
    pub fn record(&mut self, v: f64) {
        let idx = if v.is_nan() {
            self.bounds.len()
        } else {
            self.bounds.partition_point(|&b| b < v)
        };
        // Wrapping, as counters do.
        self.counts[idx] = self.counts[idx].wrapping_add(1);
        self.count = self.count.wrapping_add(1);
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

    /// Running sum of the finite samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Append the canonical flat-string encoding
    /// (`le=10:4;le=100:9;inf:2`).
    pub fn encode_into(&self, out: &mut String) {
        for (b, c) in self.bounds.iter().zip(&self.counts) {
            out.push_str("le=");
            write_f64(out, *b);
            out.push(':');
            write_u64(out, *c);
            out.push(';');
        }
        out.push_str("inf:");
        write_u64(out, self.counts[self.bounds.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(h: &Histogram) -> String {
        let mut out = String::new();
        h.encode_into(&mut out);
        out
    }

    #[test]
    fn records_into_correct_buckets() {
        let mut h = Histogram::new(vec![10.0, 100.0]);
        for v in [1.0, 10.0, 11.0, 1000.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(encode(&h), "le=10:2;le=100:1;inf:1");
    }

    #[test]
    fn nan_lands_in_overflow() {
        let mut h = Histogram::new(vec![1.0]);
        h.record(f64::NAN);
        assert_eq!(encode(&h), "le=1:0;inf:1");
    }

    #[test]
    fn value_exactly_on_bucket_edge_lands_in_that_bucket() {
        // Bounds are *inclusive* upper bounds: record() places v with
        // partition_point(b < v), so v == bound stays in bound's bucket.
        let mut h = Histogram::new(vec![10.0, 100.0]);
        h.record(10.0);
        h.record(100.0);
        assert_eq!(encode(&h), "le=10:1;le=100:1;inf:0");
        // The next representable value above the edge overflows to the
        // following bucket.
        let mut h2 = Histogram::new(vec![10.0, 100.0]);
        h2.record(10.0_f64.next_up());
        assert_eq!(encode(&h2), "le=10:0;le=100:1;inf:0");
    }

    #[test]
    fn infinities_land_in_overflow_bucket() {
        let mut h = Histogram::new(vec![10.0, 100.0]);
        h.record(f64::INFINITY);
        assert_eq!(encode(&h), "le=10:0;le=100:0;inf:1");
        // -inf is below every bound, so it stays in the first bucket —
        // and, being non-finite, it is excluded from the sum.
        h.record(f64::NEG_INFINITY);
        assert_eq!(encode(&h), "le=10:1;le=100:0;inf:1");
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn bounds_accessor_exposes_configured_bounds() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        assert_eq!(h.bounds(), &[1.0, 2.0, 4.0]);
    }
}
