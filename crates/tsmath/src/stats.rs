//! Descriptive statistics and time-series helpers: moments, empirical
//! quantiles, autocorrelation, differencing, and standardisation. Shared by
//! the ARIMA fitter, the trace generators, and the evaluation metrics.

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (denominator `n − 1`). Returns `NaN` when
/// `xs.len() < 2`.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Empirical quantile at level `p ∈ [0, 1]` with linear interpolation
/// between order statistics (R's "type 7", the default in NumPy/Pandas).
///
/// # Panics
/// Panics on an empty slice or `p` outside `[0, 1]`.
#[expect(clippy::expect_used, reason = "# Panics contract: a NaN has no rank")]
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("quantile: NaN in data"));
    quantile_sorted(&v, p)
}

/// [`quantile`] of data already in ascending order: no copy, no sort, so
/// many levels can be read off one sorted buffer.
///
/// # Panics
/// Panics on an empty slice or `p` outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&p), "quantile level must be in [0,1], got {p}");
    let h = p * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Median (the 0.5 quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Sample autocovariance at lag `k` (biased, denominator `n`, the standard
/// convention for Yule–Walker estimation).
pub(crate) fn autocovariance(xs: &[f64], k: usize) -> f64 {
    assert!(k < xs.len(), "autocovariance lag out of range");
    let m = mean(xs);
    let n = xs.len();
    (0..n - k).map(|t| (xs[t] - m) * (xs[t + k] - m)).sum::<f64>() / n as f64
}

/// Sample autocorrelation at lag `k`.
pub fn autocorrelation(xs: &[f64], k: usize) -> f64 {
    let c0 = autocovariance(xs, 0);
    // A numerically-constant series does not give exactly zero variance in
    // general: mean subtraction leaves O(ε·(1+|m|)) rounding residuals per
    // sample. Compare against the variance of that rounding floor instead
    // of `== 0.0`, so near-constant series don't amplify noise into fake
    // autocorrelation structure.
    let floor = f64::EPSILON * (1.0 + mean(xs).abs());
    if c0 <= floor * floor {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    autocovariance(xs, k) / c0
}

/// First-difference a series `d` times: `y_t = x_t − x_{t−1}` applied
/// repeatedly. Output length is `xs.len() − d`.
pub fn difference(xs: &[f64], d: usize) -> Vec<f64> {
    assert!(xs.len() > d, "difference: series shorter than order");
    let mut v = xs.to_vec();
    for _ in 0..d {
        v = v.windows(2).map(|w| w[1] - w[0]).collect();
    }
    v
}

/// Invert `d` rounds of first-differencing given the last `d` pre-forecast
/// values of the *original* (and successively differenced) series.
///
/// `heads[j]` must hold the final value of the series differenced `j` times
/// (so `heads[0]` is the last observed original value, `heads[1]` the last
/// first-difference, ...). Returns the undifferenced forecast path.
pub fn undifference(forecast_diffs: &[f64], heads: &[f64]) -> Vec<f64> {
    let d = heads.len();
    let mut v = forecast_diffs.to_vec();
    // Integrate from the innermost difference outward.
    for j in (0..d).rev() {
        let mut acc = heads[j];
        for x in v.iter_mut() {
            acc += *x;
            *x = acc;
        }
    }
    v
}

/// Running first/second moments (count, sum, sum of squares): O(1)
/// append, O(1) mean/variance readout.
///
/// The variance uses the one-pass identity
/// `Var = (Σx² − (Σx)²/n) / (n − 1)`, clamped at zero (the identity can
/// go slightly negative under rounding). This is the formula an
/// *incremental* estimator can maintain exactly, so batch fits that want
/// bit-equality with an observation-by-observation update (the
/// seasonal-naive sigma) fold their samples through this type instead of
/// the two-pass [`variance`]. Pushing the same samples in the same order
/// always yields bit-identical moments — the accumulation order *is* the
/// state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMoments {
    n: u64,
    sum: f64,
    sumsq: f64,
}

impl RunningMoments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one sample. O(1).
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sumsq += x * x;
    }

    /// Samples accumulated.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Unbiased sample variance (denominator `n − 1`), clamped at zero;
    /// `NaN` when `count() < 2`.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return f64::NAN;
        }
        let n = self.n as f64;
        let var = (self.sumsq - self.sum * self.sum / n) / (n - 1.0);
        var.max(0.0)
    }

    /// Sample standard deviation (square root of [`RunningMoments::variance`]).
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Standardisation parameters learned from training data, applied to both
/// train and test series (forecasting models train on z-scored data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Standardizer {
    /// Training mean.
    pub mean: f64,
    /// Training standard deviation (floored to avoid division blow-ups).
    pub std: f64,
}

impl Standardizer {
    /// Fit to a training series. The std is floored at `1e-9` so constant
    /// series remain transformable.
    pub fn fit(xs: &[f64]) -> Self {
        let m = mean(xs);
        let s = std_dev(xs);
        let s = if s.is_nan() || s < 1e-9 { 1e-9 } else { s };
        Self { mean: m, std: s }
    }

    /// z-score a value.
    #[inline]
    pub fn transform(&self, x: f64) -> f64 {
        (x - self.mean) / self.std
    }

    /// Invert the z-score.
    #[inline]
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }

    /// z-score a whole slice into a new vector.
    pub fn transform_vec(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.transform(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_edge_cases() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
    }

    #[test]
    fn quantile_type7_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
        // Unsorted input goes through the same rule as a presorted buffer.
        let shuffled = [3.0, 1.0, 4.0, 2.0];
        for p in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(quantile(&shuffled, p).to_bits(), quantile_sorted(&xs, p).to_bits());
        }
    }

    #[test]
    fn median_odd_length() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn autocorrelation_lag0_is_one() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0];
        assert!((autocorrelation(&xs, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_alternating_series_is_negative() {
        let xs: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
    }

    #[test]
    fn autocorrelation_constant_series() {
        let xs = [2.0; 10];
        assert_eq!(autocorrelation(&xs, 1), 0.0);
        assert_eq!(autocorrelation(&xs, 0), 1.0);
    }

    #[test]
    fn difference_then_undifference_roundtrip() {
        let xs = [1.0, 4.0, 9.0, 16.0, 25.0, 36.0];
        for d in 1..=2usize {
            // Treat xs[..d] as history and the d-th differences of the whole
            // series as the "forecast" path; reconstruction must give xs[d..].
            let diffs = difference(&xs, d);
            assert_eq!(diffs.len(), xs.len() - d);
            // heads[j] = last value of the j-times-differenced history.
            let heads: Vec<f64> =
                (0..d).map(|j| *difference(&xs[..d], j).last().unwrap()).collect();
            let rec = undifference(&diffs, &heads);
            for (r, x) in rec.iter().zip(&xs[d..]) {
                assert!((r - x).abs() < 1e-9, "d={d} rec={rec:?}");
            }
        }
    }

    #[test]
    fn running_moments_track_the_two_pass_statistics() {
        let xs: Vec<f64> = (0..57).map(|i| ((i * 37 % 101) as f64).sin() * 40.0 + 55.0).collect();
        let mut inc = RunningMoments::new();
        for &x in &xs {
            inc.push(x);
        }
        assert_eq!(inc.count(), 57);
        // Near the two-pass answer (one-pass loses a little precision but
        // must stay a faithful variance estimate).
        assert!((inc.variance() - variance(&xs)).abs() < 1e-9 * variance(&xs).max(1.0));
        assert!(RunningMoments::new().variance().is_nan());
        let mut one = RunningMoments::new();
        one.push(1.0);
        assert!(one.variance().is_nan());
    }

    #[test]
    fn standardizer_roundtrip_and_constant_series() {
        let xs = [10.0, 12.0, 14.0, 16.0];
        let s = Standardizer::fit(&xs);
        for &x in &xs {
            assert!((s.inverse(s.transform(x)) - x).abs() < 1e-9);
        }
        let z = s.transform_vec(&xs);
        assert!((mean(&z)).abs() < 1e-12);
        assert!((std_dev(&z) - 1.0).abs() < 1e-9);

        let c = Standardizer::fit(&[5.0; 4]);
        assert!(c.transform(5.0).abs() < 1e-6);
        assert!((c.inverse(c.transform(5.0)) - 5.0).abs() < 1e-6);
    }
}
