//! Location-scale Student-t distribution.
//!
//! The paper's parametric-distribution forecaster uses the Student-t output
//! head "because it has longer tails and a larger variance, allowing it to
//! better handle outliers and noise" (§III-B). This module provides the full
//! pdf / cdf / quantile / sampling surface for a location-scale t with `ν`
//! degrees of freedom.

use crate::special::{beta_inc, ln_gamma};
use crate::{rng, Distribution};

/// Student-t distribution with location `mu`, scale `sigma > 0`, and degrees
/// of freedom `nu > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    /// Location parameter.
    pub mu: f64,
    /// Scale parameter, strictly positive. Not the standard deviation: the
    /// variance is `sigma² ν/(ν−2)` for `ν > 2`.
    pub sigma: f64,
    /// Degrees of freedom, strictly positive.
    pub nu: f64,
}

impl StudentT {
    /// Create a new location-scale Student-t distribution.
    ///
    /// # Panics
    /// Panics on non-finite parameters or `sigma <= 0` / `nu <= 0`.
    pub fn new(mu: f64, sigma: f64, nu: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && nu.is_finite(),
            "StudentT: non-finite parameters"
        );
        assert!(sigma > 0.0, "StudentT: sigma must be > 0, got {sigma}");
        assert!(nu > 0.0, "StudentT: nu must be > 0, got {nu}");
        Self { mu, sigma, nu }
    }

    /// CDF of the *standard* t distribution (μ=0, σ=1) with `nu` dof.
    fn std_cdf(nu: f64, t: f64) -> f64 {
        // exact symmetry-point shortcut; the CDF is continuous here so nearby t takes the general path correctly
        if t == 0.0 {
            return 0.5;
        }
        let x = nu / (nu + t * t);
        let tail = 0.5 * beta_inc(nu / 2.0, 0.5, x);
        if t > 0.0 {
            1.0 - tail
        } else {
            tail
        }
    }

    /// Quantile of the standard t distribution via bisection on the CDF.
    /// The CDF is monotone so bisection is robust for any `nu`.
    fn std_quantile(nu: f64, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "StudentT quantile requires p in (0,1), got {p}");
        if (p - 0.5).abs() < 1e-15 {
            return 0.0;
        }
        // Bracket the root: expand until cdf crosses p.
        let mut lo = -1.0;
        let mut hi = 1.0;
        while Self::std_cdf(nu, lo) > p {
            lo *= 2.0;
            if lo < -1e12 {
                break;
            }
        }
        while Self::std_cdf(nu, hi) < p {
            hi *= 2.0;
            if hi > 1e12 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if Self::std_cdf(nu, mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * (1.0 + hi.abs()) {
                break;
            }
        }
        0.5 * (lo + hi)
    }
}

impl Distribution for StudentT {
    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        let nu = self.nu;
        ln_gamma((nu + 1.0) / 2.0)
            - ln_gamma(nu / 2.0)
            - 0.5 * (nu * std::f64::consts::PI).ln()
            - self.sigma.ln()
            - (nu + 1.0) / 2.0 * (1.0 + z * z / nu).ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        Self::std_cdf(self.nu, (x - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * Self::std_quantile(self.nu, p)
    }

    fn sample(&self, r: &mut dyn crate::rng::RngCore) -> f64 {
        // t = Z / sqrt(V/ν) with Z ~ N(0,1), V ~ χ²(ν).
        let z = rng::standard_normal(r);
        let v = rng::chi_squared(r, self.nu);
        self.mu + self.sigma * z / (v / self.nu).sqrt()
    }

    fn mean(&self) -> f64 {
        // Defined for ν > 1; we return the location (median) otherwise,
        // which is the value forecasters actually want as a point estimate.
        self.mu
    }

    fn variance(&self) -> f64 {
        if self.nu > 2.0 {
            self.sigma * self.sigma * self.nu / (self.nu - 2.0)
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::Normal;

    #[test]
    fn pdf_integrates_to_one() {
        // Trapezoidal integration over a wide range.
        let t = StudentT::new(0.0, 1.0, 4.0);
        let (a, b, n) = (-60.0, 60.0, 120_000);
        let h = (b - a) / n as f64;
        let mut s = 0.5 * (t.pdf(a) + t.pdf(b));
        for i in 1..n {
            s += t.pdf(a + i as f64 * h);
        }
        s *= h;
        assert!((s - 1.0).abs() < 1e-4, "integral {s}");
    }

    #[test]
    fn cdf_median_is_half() {
        let t = StudentT::new(3.0, 2.0, 5.0);
        assert!((t.cdf(3.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let t = StudentT::new(-2.0, 1.5, 3.0);
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = t.quantile(p);
            assert!((t.cdf(x) - p).abs() < 1e-8, "p={p}, x={x}");
        }
    }

    #[test]
    fn known_critical_values() {
        // t(ν=10) 97.5th percentile = 2.228 (standard tables).
        let t = StudentT::new(0.0, 1.0, 10.0);
        assert!((t.quantile(0.975) - 2.228_138_8).abs() < 1e-4);
        // t(ν=1) (Cauchy) 75th percentile = 1.
        let c = StudentT::new(0.0, 1.0, 1.0);
        assert!((c.quantile(0.75) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn heavier_tails_than_normal() {
        let t = StudentT::new(0.0, 1.0, 3.0);
        let n = Normal::new(0.0, 1.0);
        // At 4 sigma out, t density should dominate.
        assert!(t.pdf(4.0) > n.pdf(4.0));
        // And the extreme quantiles should be further out.
        assert!(t.quantile(0.99) > n.quantile(0.99));
    }

    #[test]
    fn converges_to_normal_for_large_nu() {
        let t = StudentT::new(0.0, 1.0, 1e6);
        let n = Normal::new(0.0, 1.0);
        for &p in &[0.1, 0.5, 0.9, 0.975] {
            assert!((t.quantile(p) - n.quantile(p)).abs() < 1e-3, "p={p}");
        }
    }

    #[test]
    fn sample_location_and_spread() {
        let t = StudentT::new(10.0, 2.0, 8.0);
        let mut r = seeded(21);
        let mut xs: Vec<f64> = (0..30_000).map(|_| t.sample(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 10.0).abs() < 0.1, "median {median}");
        // Empirical 90th percentile vs analytic.
        let q90_emp = xs[(0.9 * xs.len() as f64) as usize];
        let q90 = t.quantile(0.9);
        assert!((q90_emp - q90).abs() < 0.15, "emp {q90_emp} vs {q90}");
    }

    #[test]
    fn variance_rules() {
        let t = StudentT::new(0.0, 2.0, 6.0);
        assert!((t.variance() - 4.0 * 6.0 / 4.0).abs() < 1e-12);
        let t2 = StudentT::new(0.0, 1.0, 2.0);
        assert!(t2.variance().is_infinite());
    }

    #[test]
    #[should_panic(expected = "nu must be > 0")]
    fn rejects_nonpositive_nu() {
        StudentT::new(0.0, 1.0, 0.0);
    }
}
