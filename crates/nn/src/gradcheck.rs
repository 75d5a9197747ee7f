//! Finite-difference gradient checking.
//!
//! Since this substrate has no autograd, every layer's hand-written backward
//! pass is validated against central differences: [`check_layer`] runs in
//! this crate's unit tests for each layer and in `rpas-forecast`'s for a
//! whole model (any [`Layer`], e.g. TFT's full parameter vector).

use crate::Layer;

const H: f64 = 1e-5;

/// Relative-ish error between an analytic and a numeric derivative.
fn rel_err(analytic: f64, numeric: f64) -> f64 {
    (analytic - numeric).abs() / (1.0 + analytic.abs().max(numeric.abs()))
}

/// Add `delta` to the `elem`-th element of the `param_idx`-th parameter.
fn perturb<L: Layer + ?Sized>(layer: &mut L, param_idx: usize, elem: usize, delta: f64) {
    let mut i = 0;
    layer.visit_params(&mut |p| {
        if i == param_idx {
            p.data[elem] += delta;
        }
        i += 1;
    });
}

/// Gradient-check a layer.
///
/// `run` must: perform a full forward pass from `input`, compute a scalar
/// loss, perform the matching backward pass (accumulating parameter
/// gradients), and return `(loss, d_loss/d_input)`.
///
/// Checks every parameter element *and* the input gradient against central
/// finite differences, returning the maximum relative error observed.
#[expect(clippy::needless_range_loop, reason = "the index perturbs one element and reads its gradient twin")]
pub fn check_layer<L, F>(layer: &mut L, input: &[f64], run: F) -> f64
where
    L: Layer + ?Sized,
    F: Fn(&mut L, &[f64]) -> (f64, Vec<f64>),
{
    layer.zero_grad();
    layer.clear_cache();
    let (_, dx) = run(layer, input);

    let mut analytic: Vec<Vec<f64>> = Vec::new();
    layer.visit_params(&mut |p| analytic.push(p.grad.clone()));

    let mut max_err: f64 = 0.0;
    let sizes: Vec<usize> = analytic.iter().map(|g| g.len()).collect();

    for (pi, &sz) in sizes.iter().enumerate() {
        for ei in 0..sz {
            perturb(layer, pi, ei, H);
            layer.zero_grad();
            layer.clear_cache();
            let (l_plus, _) = run(layer, input);
            perturb(layer, pi, ei, -2.0 * H);
            layer.zero_grad();
            layer.clear_cache();
            let (l_minus, _) = run(layer, input);
            perturb(layer, pi, ei, H); // restore
            let numeric = (l_plus - l_minus) / (2.0 * H);
            max_err = max_err.max(rel_err(analytic[pi][ei], numeric));
        }
    }

    // Input gradient.
    let mut x = input.to_vec();
    for i in 0..x.len() {
        x[i] += H;
        layer.zero_grad();
        layer.clear_cache();
        let (l_plus, _) = run(layer, &x);
        x[i] -= 2.0 * H;
        layer.zero_grad();
        layer.clear_cache();
        let (l_minus, _) = run(layer, &x);
        x[i] += H;
        let numeric = (l_plus - l_minus) / (2.0 * H);
        max_err = max_err.max(rel_err(dx[i], numeric));
    }

    layer.zero_grad();
    layer.clear_cache();
    max_err
}

/// Gradient-check a pure function `x ↦ (loss, dloss/dx)` (used for the loss
/// functions, which are not layers).
#[cfg(test)]
pub(crate) fn check_fn<F>(f: F, x: &[f64]) -> f64
where
    F: Fn(&[f64]) -> (f64, Vec<f64>),
{
    let (_, g) = f(x);
    let mut xs = x.to_vec();
    let mut max_err: f64 = 0.0;
    for i in 0..xs.len() {
        xs[i] += H;
        let (lp, _) = f(&xs);
        xs[i] -= 2.0 * H;
        let (lm, _) = f(&xs);
        xs[i] += H;
        let numeric = (lp - lm) / (2.0 * H);
        max_err = max_err.max(rel_err(g[i], numeric));
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_fn_flags_wrong_gradient() {
        // f(x) = x², correct grad 2x; lie and report 3x.
        let bad = |x: &[f64]| (x[0] * x[0], vec![3.0 * x[0]]);
        let good = |x: &[f64]| (x[0] * x[0], vec![2.0 * x[0]]);
        assert!(check_fn(bad, &[1.5]) > 1e-2);
        assert!(check_fn(good, &[1.5]) < 1e-8);
    }

    #[test]
    fn check_fn_multivariate() {
        // f(x) = x0·x1 + sin(x2).
        let f = |x: &[f64]| {
            (x[0] * x[1] + x[2].sin(), vec![x[1], x[0], x[2].cos()])
        };
        assert!(check_fn(f, &[0.3, -1.2, 0.8]) < 1e-8);
    }
}
