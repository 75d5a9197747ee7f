//! Element-wise activation functions and a stack-caching activation layer.

use crate::{Layer, Param};
use rpas_tsmath::elementary::{exp, sigmoid, tanh};
use rpas_tsmath::special::softplus;

/// Supported element-wise activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// `ln(1 + eˣ)` — used to constrain scale outputs to be positive.
    Softplus,
    /// Exponential linear unit (α = 1), used inside TFT's GRN blocks.
    Elu,
    /// Pass-through.
    Identity,
}

impl Activation {
    /// Apply the activation to a scalar.
    #[inline]
    pub(crate) fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => tanh(x),
            Activation::Sigmoid => sigmoid(x),
            Activation::Softplus => softplus(x),
            Activation::Elu => {
                if x >= 0.0 {
                    x
                } else {
                    exp(x) - 1.0
                }
            }
            Activation::Identity => x,
        }
    }

    /// Derivative, expressed in terms of the *input* `x`.
    #[inline]
    pub(crate) fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = tanh(x);
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
            Activation::Softplus => sigmoid(x),
            Activation::Elu => {
                if x >= 0.0 {
                    1.0
                } else {
                    exp(x)
                }
            }
            Activation::Identity => 1.0,
        }
    }

    /// Apply to a slice into a new vector.
    pub(crate) fn apply_vec(self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.apply(x)).collect()
    }
}

/// An activation as a layer with a cache stack so it can sit inside
/// unrolled sequence models.
#[derive(Debug, Clone)]
pub(crate) struct ActLayer {
    /// The activation function applied element-wise.
    pub act: Activation,
    cache: Vec<Vec<f64>>,
}

impl ActLayer {
    /// New activation layer.
    pub(crate) fn new(act: Activation) -> Self {
        Self { act, cache: Vec::new() }
    }

    /// Forward pass; caches the pre-activation input.
    pub(crate) fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        self.cache.push(x.to_vec());
        self.act.apply_vec(x)
    }

    /// Backward pass; pops the most recent cached input.
    ///
    /// # Panics
    /// Panics if called more times than `forward`.
    #[expect(clippy::expect_used, reason = "# Panics contract: backward without forward is a training-loop bug")]
    pub(crate) fn backward(&mut self, dy: &[f64]) -> Vec<f64> {
        let x = self.cache.pop().expect("ActLayer::backward without forward");
        assert_eq!(x.len(), dy.len(), "ActLayer::backward shape mismatch");
        x.iter().zip(dy).map(|(&xi, &d)| d * self.act.derivative(xi)).collect()
    }
}

impl Layer for ActLayer {
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_stability_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!(sigmoid(800.0) <= 1.0);
        assert!(sigmoid(-800.0) >= 0.0);
        for &x in &[-3.0, -0.5, 2.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Softplus,
            Activation::Elu,
            Activation::Identity,
        ] {
            for &x in &[-2.0, -0.3, 0.4, 1.7] {
                let num = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let ana = act.derivative(x);
                assert!((num - ana).abs() < 1e-5, "{act:?} at {x}: {num} vs {ana}");
            }
        }
    }

    #[test]
    fn relu_kink_behaviour() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "std oracle")]
    fn act_layer_stack_semantics() {
        let mut l = ActLayer::new(Activation::Tanh);
        let y1 = l.forward(&[0.5]);
        let y2 = l.forward(&[1.0]);
        assert!((y1[0] - 0.5f64.tanh()).abs() < 1e-15);
        assert!((y2[0] - 1.0f64.tanh()).abs() < 1e-15);
        // LIFO: the first backward consumes the *second* forward's cache.
        let d2 = l.backward(&[1.0]);
        assert!((d2[0] - Activation::Tanh.derivative(1.0)).abs() < 1e-15);
        let d1 = l.backward(&[1.0]);
        assert!((d1[0] - Activation::Tanh.derivative(0.5)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_unbalanced_panics() {
        let mut l = ActLayer::new(Activation::Relu);
        let _ = l.backward(&[1.0]);
    }
}
