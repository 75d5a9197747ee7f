//! Fully-connected (dense) layer with a cache stack for sequence unrolling.

use crate::kmajor::KMajorDense;
use crate::{Layer, Param};
use rpas_tsmath::rng::RngCore;
use rpas_tsmath::vector;

/// Dense layer `y = W x + b` with `W` stored row-major as `out × in`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix, flat row-major `out_dim × in_dim`.
    pub w: Param,
    /// Bias vector of length `out_dim`.
    pub b: Param,
    in_dim: usize,
    out_dim: usize,
    cache: Vec<Vec<f64>>,
}

impl Dense {
    /// New dense layer with Xavier-uniform weights and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut dyn RngCore) -> Self {
        Self {
            w: Param::xavier(in_dim * out_dim, in_dim, out_dim, rng),
            b: Param::zeros(out_dim),
            in_dim,
            out_dim,
            cache: Vec::new(),
        }
    }

    /// Output dimension.
    pub(crate) fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The layer with its weights in k-major order, for inference paths
    /// that apply it many times per call.
    pub(crate) fn kmajor(&self) -> KMajorDense<'_> {
        KMajorDense::new(&self.w, &self.b, self.in_dim, self.out_dim)
    }

    /// Forward pass for a single input vector; caches the input for backward.
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "Dense::forward: input dim mismatch");
        self.cache.push(x.to_vec());
        self.apply(x)
    }

    /// Inference-only forward that does not grow the cache.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.out_dim];
        self.apply_into(x, &mut y);
        y
    }

    /// [`Dense::apply`] into a caller-owned buffer of length `out_dim`.
    pub fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim, "Dense::apply: input dim mismatch");
        y.copy_from_slice(&self.b.data);
        for (o, yo) in y.iter_mut().enumerate() {
            let row = &self.w.data[o * self.in_dim..(o + 1) * self.in_dim];
            *yo += vector::dot(row, x);
        }
    }

    /// Backward pass: accumulate `dW`, `db` and return `dx`.
    ///
    /// # Panics
    /// Panics if called without a matching `forward`.
    #[expect(clippy::expect_used, reason = "backward without forward is a training-loop bug")]
    pub fn backward(&mut self, dy: &[f64]) -> Vec<f64> {
        assert_eq!(dy.len(), self.out_dim, "Dense::backward: grad dim mismatch");
        let x = self.cache.pop().expect("Dense::backward without forward");
        let mut dx = vec![0.0; self.in_dim];
        for (o, &d) in dy.iter().enumerate() {
            self.b.grad[o] += d;
            let wrow = &self.w.data[o * self.in_dim..(o + 1) * self.in_dim];
            vector::axpy(d, wrow, &mut dx);
            let grow = &mut self.w.grad[o * self.in_dim..(o + 1) * self.in_dim];
            vector::axpy(d, &x, grow);
        }
        dx
    }
}

impl Layer for Dense {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use rpas_tsmath::rng::seeded;

    #[test]
    fn forward_known_weights() {
        let mut r = seeded(1);
        let mut d = Dense::new(2, 2, &mut r);
        d.w.data = vec![1.0, 2.0, 3.0, 4.0]; // rows: [1,2], [3,4]
        d.b.data = vec![0.5, -0.5];
        let y = d.forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn apply_matches_forward_without_caching() {
        let mut r = seeded(2);
        let mut d = Dense::new(3, 4, &mut r);
        let x = [0.1, -0.2, 0.3];
        let y1 = d.apply(&x);
        let y2 = d.forward(&x);
        assert_eq!(y1, y2);
        // forward cached once, apply didn't.
        let _ = d.backward(&[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn gradcheck_weights_bias_input() {
        let mut r = seeded(3);
        let mut d = Dense::new(3, 2, &mut r);
        let x = vec![0.4, -0.7, 0.9];
        // Loss = sum(y²)/2 so dy = y.
        let max_err = gradcheck::check_layer(
            &mut d,
            &x,
            |layer, input| {
                let y = layer.forward(input);
                let loss = 0.5 * y.iter().map(|v| v * v).sum::<f64>();
                let dy: Vec<f64> = y.clone();
                let dx = layer.backward(&dy);
                (loss, dx)
            },
        );
        assert!(max_err < 1e-6, "max grad err {max_err}");
    }

    #[test]
    fn lifo_cache_for_weight_sharing() {
        let mut r = seeded(5);
        let mut d = Dense::new(1, 1, &mut r);
        d.w.data = vec![2.0];
        d.b.data = vec![0.0];
        let _ = d.forward(&[1.0]);
        let _ = d.forward(&[10.0]);
        let _ = d.backward(&[1.0]); // consumes x=10
        assert_eq!(d.w.grad, vec![10.0]);
        let _ = d.backward(&[1.0]); // consumes x=1, accumulates
        assert_eq!(d.w.grad, vec![11.0]);
    }
}
