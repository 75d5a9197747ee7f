//! Fixed-bucket histograms: cheap to record (one binary search per
//! sample) and deterministic to serialize, without retaining samples.
//!
//! Serialization: [`Histogram::encode_into`] renders the bucket state as
//! one flat string, `le=<bound>:<count>;...;inf:<count>`, which is what the
//! metric exposition prints; [`Histogram::from_parts`] is the lossless
//! inverse of the accessors, for checkpoint restore.

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

    /// Record one sample (NaN samples are counted in the overflow bucket
    /// so they stay visible rather than vanishing).
    pub fn record(&mut self, v: f64) {
        let idx = if v.is_nan() {
            self.bounds.len()
        } else {
            self.bounds.partition_point(|&b| b < v)
        };
        // Wrapping, as counters do: a restored count may sit at the top.
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
    /// lossless (the flat-string [`Histogram::encode_into`] drops the sum).
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
    fn from_parts_roundtrips_exactly_including_sum() {
        let mut h = Histogram::new(vec![10.0, 100.0]);
        for v in [5.0, 50.0, 500.0, 0.125] {
            h.record(v);
        }
        let back =
            Histogram::from_parts(h.bounds().to_vec(), h.counts().to_vec(), h.sum()).unwrap();
        assert_eq!(back, h, "from_parts is the exact inverse of the accessors");
        assert_eq!(back.sum().to_bits(), h.sum().to_bits());
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
