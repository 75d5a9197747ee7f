//! A plain multilayer perceptron container: alternating dense layers and a
//! shared hidden activation, linear output.

use crate::activation::{ActLayer, Activation};
use crate::linear::Dense;
use crate::{Layer, Param};
use rpas_tsmath::rng::RngCore;

/// Feed-forward network `dense → act → dense → act → … → dense` with a
/// linear final layer.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    acts: Vec<ActLayer>,
}

impl Mlp {
    /// Build from layer widths, e.g. `&[72, 64, 64, 8]`, with the given
    /// hidden activation.
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], hidden_act: Activation, rng: &mut dyn RngCore) -> Self {
        assert!(widths.len() >= 2, "Mlp needs at least input and output widths");
        let mut layers = Vec::new();
        let mut acts = Vec::new();
        for w in widths.windows(2) {
            layers.push(Dense::new(w[0], w[1], rng));
        }
        for _ in 0..layers.len() - 1 {
            acts.push(ActLayer::new(hidden_act));
        }
        Self { layers, acts }
    }

    /// Forward pass with caching.
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        let mut h = x.to_vec();
        for i in 0..self.layers.len() {
            h = self.layers[i].forward(&h);
            if i < self.acts.len() {
                h = self.acts[i].forward(&h);
            }
        }
        h
    }

    /// Inference-only forward (no cache growth).
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut h = x.to_vec();
        for i in 0..self.layers.len() {
            h = self.layers[i].apply(&h);
            if i < self.acts.len() {
                h = self.acts[i].act.apply_vec(&h);
            }
        }
        h
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, dy: &[f64]) -> Vec<f64> {
        let mut d = dy.to_vec();
        for i in (0..self.layers.len()).rev() {
            if i < self.acts.len() {
                d = self.acts[i].backward(&d);
            }
            d = self.layers[i].backward(&d);
        }
        d
    }
}

impl Layer for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    fn clear_cache(&mut self) {
        for l in &mut self.layers {
            l.clear_cache();
        }
        for a in &mut self.acts {
            a.clear_cache();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Adam;
    use crate::gradcheck;
    use crate::loss::mse;
    use rpas_tsmath::rng::seeded;

    #[test]
    fn shapes() {
        let mut r = seeded(1);
        let mut m = Mlp::new(&[3, 8, 5, 2], Activation::Relu, &mut r);
        let y = m.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(y.len(), 2);
    }

    #[test]
    fn apply_matches_forward() {
        let mut r = seeded(2);
        let mut m = Mlp::new(&[2, 6, 1], Activation::Tanh, &mut r);
        let x = [0.4, -0.6];
        assert_eq!(m.apply(&x), m.forward(&x));
        m.clear_cache();
    }

    #[test]
    fn gradcheck_mlp() {
        let mut r = seeded(3);
        let mut m = Mlp::new(&[2, 4, 3], Activation::Tanh, &mut r);
        let x = vec![0.7, -0.3];
        let err = gradcheck::check_layer(&mut m, &x, |net, input| {
            let y = net.forward(input);
            let target = [0.1, -0.2, 0.4];
            let (l, dy) = mse(&y, &target);
            let dx = net.backward(&dy);
            (l, dx)
        });
        assert!(err < 1e-6, "mlp gradcheck err {err}");
    }

    #[test]
    fn learns_xor_like_function() {
        // y = x0 * x1 is not linearly separable; a small MLP must fit it.
        let mut r = seeded(4);
        let mut m = Mlp::new(&[2, 16, 1], Activation::Tanh, &mut r);
        let mut opt = Adam::new(0.01);
        let data: Vec<([f64; 2], f64)> = vec![
            ([-1.0, -1.0], 1.0),
            ([-1.0, 1.0], -1.0),
            ([1.0, -1.0], -1.0),
            ([1.0, 1.0], 1.0),
        ];
        let mut last = f64::INFINITY;
        for _ in 0..800 {
            let mut total = 0.0;
            for (x, t) in &data {
                let y = m.forward(x);
                let (l, dy) = mse(&y, &[*t]);
                total += l;
                let _ = m.backward(&dy);
            }
            opt.step_layer(&mut m);
            last = total;
        }
        assert!(last < 0.05, "failed to fit XOR, loss {last}");
    }
}
