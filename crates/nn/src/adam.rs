//! The optimizer: Adam, the workhorse for every forecaster.

use crate::param::Param;

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
///
/// Moment buffers live inside each [`Param`]; this struct only holds the
/// hyperparameters and the global step counter, so one optimizer instance
/// can drive any number of layers.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (the paper fixes 1e-3 for all neural models).
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    /// L2 weight decay (0 disables).
    pub weight_decay: f64,
    t: u64,
}

impl Adam {
    /// Adam with the conventional defaults and the given learning rate.
    pub fn new(lr: f64) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, t: 0 }
    }

    /// Advance the step counter. Call once per optimisation step, before
    /// [`Adam::update`]-ing the parameters of that step.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Apply one Adam update to a single parameter using its accumulated
    /// gradient. Gradients are *not* zeroed here.
    pub fn update(&self, p: &mut Param) {
        assert!(self.t > 0, "call begin_step before update");
        let t = self.t as i32;
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        for i in 0..p.data.len() {
            let mut g = p.grad[i];
            if self.weight_decay > 0.0 {
                g += self.weight_decay * p.data[i];
            }
            p.m[i] = self.beta1 * p.m[i] + (1.0 - self.beta1) * g;
            p.v[i] = self.beta2 * p.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = p.m[i] / bc1;
            let v_hat = p.v[i] / bc2;
            p.data[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Convenience: step a whole layer (anything implementing
    /// [`crate::Layer`]) and zero its gradients afterwards.
    pub fn step_layer<L: crate::Layer + ?Sized>(&mut self, layer: &mut L) {
        self.begin_step();
        layer.visit_params(&mut |p| self.update(p));
        layer.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gradient of f(x) = (x − 3)².
    fn quadratic_grad(p: &Param) -> Vec<f64> {
        p.data.iter().map(|x| 2.0 * (x - 3.0)).collect()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Param::from_vec(vec![-5.0]);
        let mut opt = Adam::new(0.1);
        for _ in 0..2000 {
            p.grad = quadratic_grad(&p);
            opt.begin_step();
            opt.update(&mut p);
        }
        assert!((p.data[0] - 3.0).abs() < 1e-3, "got {}", p.data[0]);
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // After one step from zero moments the update magnitude is ~lr,
        // independent of gradient scale (signature Adam behaviour).
        for &g in &[1e-4, 1.0, 1e4] {
            let mut p = Param::from_vec(vec![0.0]);
            p.grad = vec![g];
            let mut opt = Adam::new(0.01);
            opt.begin_step();
            opt.update(&mut p);
            assert!((p.data[0].abs() - 0.01).abs() < 1e-6, "g={g} -> {}", p.data[0]);
        }
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut p = Param::from_vec(vec![1.0]);
        p.grad = vec![0.0];
        let mut opt = Adam::new(0.01);
        opt.weight_decay = 0.1;
        opt.begin_step();
        opt.update(&mut p);
        assert!(p.data[0] < 1.0);
    }
}
