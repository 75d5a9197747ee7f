//! Trainable parameter: value + accumulated gradient + Adam moment buffers.

use rpas_tsmath::rng::RngCore;
use rpas_tsmath::rng;

/// A flat trainable parameter tensor.
///
/// Layers interpret the flat buffer with their own shape conventions (e.g. a
/// dense layer stores its weight row-major `out × in`). The Adam moment
/// buffers (`m`, `v`) live with the parameter, so optimizer state survives
/// however the caller organises layers.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter values.
    pub data: Vec<f64>,
    /// Accumulated gradient (same length as `data`).
    pub grad: Vec<f64>,
    /// Adam first-moment buffer.
    pub(crate) m: Vec<f64>,
    /// Adam second-moment buffer.
    pub(crate) v: Vec<f64>,
}

impl Param {
    /// All-zero parameter of length `n` (typical for biases).
    pub(crate) fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n], grad: vec![0.0; n], m: vec![0.0; n], v: vec![0.0; n] }
    }

    /// Parameter initialised with Xavier/Glorot-uniform entries for a layer
    /// with the given fan-in and fan-out. `n` is the total element count.
    pub(crate) fn xavier(n: usize, fan_in: usize, fan_out: usize, rng: &mut dyn RngCore) -> Self {
        let limit = (6.0 / (fan_in + fan_out).max(1) as f64).sqrt();
        let data = (0..n).map(|_| (rng::uniform_open(rng) * 2.0 - 1.0) * limit).collect();
        Self { data, grad: vec![0.0; n], m: vec![0.0; n], v: vec![0.0; n] }
    }

    /// Parameter wrapping explicit values (mostly for tests).
    pub fn from_vec(data: Vec<f64>) -> Self {
        let n = data.len();
        Self { data, grad: vec![0.0; n], m: vec![0.0; n], v: vec![0.0; n] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::rng::seeded;

    #[test]
    fn zeros_shape() {
        let p = Param::zeros(4);
        assert_eq!(p.data.len(), 4);
        // zeros() promises bitwise +0.0 initialisation; an epsilon would weaken the contract under test
        assert!(p.data.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn xavier_within_limit() {
        let mut r = seeded(3);
        let p = Param::xavier(1000, 10, 30, &mut r);
        let limit = (6.0f64 / 40.0).sqrt();
        assert!(p.data.iter().all(|x| x.abs() <= limit));
        // Should actually use the range, not collapse to zero.
        let max = p.data.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        assert!(max > 0.5 * limit);
    }
}
