//! Loss functions with analytic gradients w.r.t. the *raw* (unconstrained)
//! network outputs.
//!
//! The probabilistic heads follow the paper's two methodologies (§III-B):
//!
//! * **Parametric distributions** — the network emits raw `(μ, σ_raw)` or
//!   `(μ, σ_raw, ν_raw)`; softplus maps the raw scale/dof outputs to their
//!   constrained domains, and the negative log-likelihood is differentiated
//!   through that mapping.
//! * **Pre-specified quantile grid** — the network emits one value per
//!   quantile level and is trained with the pinball (quantile) loss of
//!   Eq. (1)/(2).

use rpas_tsmath::elementary::sigmoid;
use rpas_tsmath::special::{digamma, ln_gamma, softplus};

/// Floor applied to σ after softplus so likelihoods stay finite.
pub const SIGMA_FLOOR: f64 = 1e-4;

/// Offset added to softplus(ν_raw) so the Student-t always has ν > 2
/// (finite variance), matching common DeepAR practice.
pub const NU_OFFSET: f64 = 2.0;

/// Mean squared error over a slice: `(Σ (p − y)²)/n` and `d/dp`.
pub fn mse(pred: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
    assert_eq!(pred.len(), target.len(), "mse: length mismatch");
    let n = pred.len().max(1) as f64;
    let mut loss = 0.0;
    let mut grad = vec![0.0; pred.len()];
    for i in 0..pred.len() {
        let e = pred[i] - target[i];
        loss += e * e;
        grad[i] = 2.0 * e / n;
    }
    (loss / n, grad)
}

/// Gaussian negative log-likelihood of observation `y` under
/// `N(mu, softplus(sigma_raw) + floor)`.
///
/// Returns `(nll, d_mu, d_sigma_raw)`.
pub fn gaussian_nll(mu: f64, sigma_raw: f64, y: f64) -> (f64, f64, f64) {
    let sigma = softplus(sigma_raw) + SIGMA_FLOOR;
    let z = (y - mu) / sigma;
    let nll = 0.5 * (2.0 * std::f64::consts::PI).ln() + sigma.ln() + 0.5 * z * z;
    let d_mu = -z / sigma;
    let d_sigma = (1.0 - z * z) / sigma;
    (nll, d_mu, d_sigma * sigmoid(sigma_raw))
}

/// Student-t negative log-likelihood of `y` under the location-scale t with
/// `mu`, `σ = softplus(sigma_raw) + floor`, `ν = 2 + softplus(nu_raw)`.
///
/// Returns `(nll, d_mu, d_sigma_raw, d_nu_raw)`.
pub fn student_t_nll(mu: f64, sigma_raw: f64, nu_raw: f64, y: f64) -> (f64, f64, f64, f64) {
    let sigma = softplus(sigma_raw) + SIGMA_FLOOR;
    let nu = NU_OFFSET + softplus(nu_raw);
    let z = (y - mu) / sigma;
    let a = 1.0 + z * z / nu;

    let nll = -(ln_gamma((nu + 1.0) / 2.0)
        - ln_gamma(nu / 2.0)
        - 0.5 * (nu * std::f64::consts::PI).ln()
        - sigma.ln()
        - (nu + 1.0) / 2.0 * a.ln());

    let d_mu = -(nu + 1.0) * z / (nu * a * sigma);
    let d_sigma = 1.0 / sigma - (nu + 1.0) * z * z / (nu * a * sigma);
    let d_nu = -0.5 * digamma((nu + 1.0) / 2.0) + 0.5 * digamma(nu / 2.0) + 0.5 / nu
        + 0.5 * a.ln()
        - (nu + 1.0) * z * z / (2.0 * nu * nu * a);

    (nll, d_mu, d_sigma * sigmoid(sigma_raw), d_nu * sigmoid(nu_raw))
}

/// Pinball (quantile) loss of Eq. (1):
/// `ρ_τ(y, ŷ) = max(τ (y − ŷ), (τ − 1)(y − ŷ))`, with `d/dŷ`.
pub fn pinball(pred: f64, target: f64, tau: f64) -> (f64, f64) {
    debug_assert!((0.0..=1.0).contains(&tau), "quantile level out of range");
    let diff = target - pred;
    if diff >= 0.0 {
        (tau * diff, -tau)
    } else {
        ((tau - 1.0) * diff, 1.0 - tau)
    }
}

/// Summed pinball loss over a quantile grid (Eq. (2) for one time step):
/// `preds[i]` is the prediction for `taus[i]`. Returns `(loss, d_preds)`.
pub fn pinball_grid(preds: &[f64], target: f64, taus: &[f64]) -> (f64, Vec<f64>) {
    assert_eq!(preds.len(), taus.len(), "pinball_grid: length mismatch");
    let mut loss = 0.0;
    let mut grads = vec![0.0; preds.len()];
    for i in 0..preds.len() {
        let (l, g) = pinball(preds[i], target, taus[i]);
        loss += l;
        grads[i] = g;
    }
    (loss, grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_fn;
    use rpas_tsmath::{Distribution, Normal, StudentT};

    #[test]
    fn mse_zero_at_target() {
        let (l, g) = mse(&[1.0, 2.0], &[1.0, 2.0]);
        assert_eq!(l, 0.0);
        assert_eq!(g, vec![0.0, 0.0]);
        let (l, _) = mse(&[3.0], &[1.0]);
        assert_eq!(l, 4.0);
    }

    #[test]
    fn mse_gradient_check() {
        let target = [0.3, -1.0, 2.0];
        let err = check_fn(|x| mse(x, &target), &[1.0, 0.0, -0.5]);
        assert!(err < 1e-8);
    }

    #[test]
    fn gaussian_nll_matches_distribution_ln_pdf() {
        let (mu, sraw, y) = (1.5, 0.3, 2.2);
        let sigma = softplus(sraw) + SIGMA_FLOOR;
        let (nll, _, _) = gaussian_nll(mu, sraw, y);
        let expect = -Normal::new(mu, sigma).ln_pdf(y);
        assert!((nll - expect).abs() < 1e-12);
    }

    #[test]
    fn gaussian_nll_gradient_check() {
        let y = 0.7;
        let err = check_fn(
            |x| {
                let (l, dmu, dsr) = gaussian_nll(x[0], x[1], y);
                (l, vec![dmu, dsr])
            },
            &[0.2, -0.5],
        );
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn gaussian_nll_minimised_at_observation() {
        let (_, dmu, _) = gaussian_nll(3.0, 0.0, 3.0);
        assert!(dmu.abs() < 1e-12);
        let (_, dmu_lo, _) = gaussian_nll(2.0, 0.0, 3.0);
        assert!(dmu_lo < 0.0, "should push mu upward");
    }

    #[test]
    fn student_t_nll_matches_distribution_ln_pdf() {
        let (mu, sraw, nraw, y) = (0.5, 0.2, 0.8, -1.0);
        let sigma = softplus(sraw) + SIGMA_FLOOR;
        let nu = NU_OFFSET + softplus(nraw);
        let (nll, _, _, _) = student_t_nll(mu, sraw, nraw, y);
        let expect = -StudentT::new(mu, sigma, nu).ln_pdf(y);
        assert!((nll - expect).abs() < 1e-10);
    }

    #[test]
    fn student_t_nll_gradient_check() {
        for &(mu, sraw, nraw, y) in
            &[(0.0, 0.0, 0.0, 1.0), (2.0, -1.0, 1.5, 1.2), (-0.5, 0.7, -0.8, -2.0)]
        {
            let err = check_fn(
                |x| {
                    let (l, dmu, dsr, dnr) = student_t_nll(x[0], x[1], x[2], y);
                    (l, vec![dmu, dsr, dnr])
                },
                &[mu, sraw, nraw],
            );
            assert!(err < 1e-5, "err {err} at ({mu},{sraw},{nraw},{y})");
        }
    }

    #[test]
    fn pinball_asymmetry() {
        // τ = 0.9 punishes under-prediction 9× more than over-prediction.
        let (under, _) = pinball(0.0, 1.0, 0.9);
        let (over, _) = pinball(1.0, 0.0, 0.9);
        assert!((under - 0.9).abs() < 1e-12);
        assert!((over - 0.1).abs() < 1e-12);
    }

    #[test]
    fn pinball_median_is_mae_half() {
        let (l1, _) = pinball(0.0, 2.0, 0.5);
        let (l2, _) = pinball(2.0, 0.0, 0.5);
        assert_eq!(l1, 1.0);
        assert_eq!(l2, 1.0);
    }

    #[test]
    fn pinball_gradient_check_away_from_kink() {
        for &(p, y, tau) in &[(0.0, 1.0, 0.9), (1.0, 0.0, 0.3), (-2.0, 3.0, 0.5)] {
            let err = check_fn(
                |x| {
                    let (l, g) = pinball(x[0], y, tau);
                    (l, vec![g])
                },
                &[p],
            );
            assert!(err < 1e-8, "err {err}");
        }
    }

    #[test]
    fn pinball_grid_sums_components() {
        let taus = [0.1, 0.5, 0.9];
        let preds = [0.5, 1.0, 2.0];
        let (l, g) = pinball_grid(&preds, 1.2, &taus);
        let mut expect = 0.0;
        for i in 0..3 {
            expect += pinball(preds[i], 1.2, taus[i]).0;
        }
        assert!((l - expect).abs() < 1e-12);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn pinball_grid_minimised_at_empirical_quantiles() {
        // For repeated draws from data, the τ-quantile minimises expected
        // pinball loss: check the gradient sign flips around the quantile.
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let tau = 0.8;
        let grad_at = |p: f64| data.iter().map(|&y| pinball(p, y, tau).1).sum::<f64>();
        assert!(grad_at(5.0) < 0.0); // push up
        assert!(grad_at(9.5) > 0.0); // push down
    }
}
