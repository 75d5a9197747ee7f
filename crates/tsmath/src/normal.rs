//! Gaussian distribution `N(μ, σ²)`.

use crate::special::{norm_cdf, norm_quantile};
use crate::{rng, Distribution};

/// Normal (Gaussian) distribution with mean `mu` and standard deviation
/// `sigma > 0`. The classic output head for "learn parametric distributions"
/// probabilistic forecasters (§III-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Location parameter (mean).
    pub mu: f64,
    /// Scale parameter (standard deviation), strictly positive.
    pub sigma: f64,
}

impl Normal {
    /// Create a new normal distribution.
    ///
    /// # Panics
    /// Panics if `sigma` is not strictly positive or parameters are non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite(), "Normal: non-finite parameters");
        assert!(sigma > 0.0, "Normal: sigma must be > 0, got {sigma}");
        Self { mu, sigma }
    }
}

impl Distribution for Normal {
    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        -0.5 * z * z - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        norm_cdf((x - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * norm_quantile(p)
    }

    fn sample(&self, r: &mut dyn crate::rng::RngCore) -> f64 {
        self.mu + self.sigma * rng::standard_normal(r)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn pdf_peak_at_mean() {
        let n = Normal::new(2.0, 0.5);
        let peak = n.pdf(2.0);
        assert!(peak > n.pdf(1.5));
        assert!(peak > n.pdf(2.5));
        // Peak height 1/(σ√(2π)).
        let expect = 1.0 / (0.5 * (2.0 * std::f64::consts::PI).sqrt());
        assert!((peak - expect).abs() < 1e-12);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let n = Normal::new(-1.0, 3.0);
        for &p in &[0.01, 0.2, 0.5, 0.8, 0.99] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn median_is_mean() {
        let n = Normal::new(7.0, 2.0);
        assert!((n.quantile(0.5) - 7.0).abs() < 1e-10);
    }

    #[test]
    fn sample_moments() {
        let n = Normal::new(5.0, 2.0);
        let mut r = seeded(11);
        let xs: Vec<f64> = (0..20_000).map(|_| n.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((mean - 5.0).abs() < 0.06, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    #[should_panic(expected = "sigma must be > 0")]
    fn rejects_nonpositive_sigma() {
        Normal::new(0.0, 0.0);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "std oracle")]
    fn ln_pdf_matches_pdf() {
        let n = Normal::new(0.0, 1.0);
        for &x in &[-2.0, 0.0, 1.3] {
            assert!((n.ln_pdf(x).exp() - n.pdf(x)).abs() < 1e-15);
        }
    }
}
