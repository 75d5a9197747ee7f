//! GRU recurrent cell with hand-written backpropagation-through-time.
//!
//! DeepAR-style forecasters unroll one shared cell across the sequence; the
//! cell keeps a LIFO cache so `backward` calls in reverse order implement
//! truncated BPTT with weight sharing.

use crate::kmajor::GateKMajor;
use crate::{Layer, Param};
use rpas_tsmath::elementary::{sigmoid, sigmoid_in_place, tanh, tanh_in_place};
use rpas_tsmath::rng::RngCore;
use rpas_tsmath::vector;

/// Per-timestep cache of the quantities the backward pass needs.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    z: Vec<f64>,
    r: Vec<f64>,
    h_tilde: Vec<f64>,
}

/// Gated Recurrent Unit cell:
///
/// ```text
/// z = σ(W_z x + U_z h + b_z)          (update gate)
/// r = σ(W_r x + U_r h + b_r)          (reset gate)
/// h̃ = tanh(W_h x + U_h (r ∘ h) + b_h) (candidate)
/// h' = (1 − z) ∘ h + z ∘ h̃
/// ```
#[derive(Debug, Clone)]
pub struct GruCell {
    /// Input→gate weights, each flat `hidden × input`.
    pub wz: Param,
    /// Hidden→gate weights, each flat `hidden × hidden`.
    pub uz: Param,
    /// Update-gate bias.
    pub bz: Param,
    /// Reset-gate input weights.
    pub wr: Param,
    /// Reset-gate hidden weights.
    pub ur: Param,
    /// Reset-gate bias.
    pub br: Param,
    /// Candidate input weights.
    pub wh: Param,
    /// Candidate hidden weights.
    pub uh: Param,
    /// Candidate bias.
    pub bh: Param,
    input_dim: usize,
    hidden_dim: usize,
    cache: Vec<StepCache>,
}

/// `y += M x` for a flat row-major `rows × cols` matrix.
fn mat_acc(m: &[f64], x: &[f64], y: &mut [f64]) {
    let cols = x.len();
    for (r, yr) in y.iter_mut().enumerate() {
        *yr += vector::dot(&m[r * cols..(r + 1) * cols], x);
    }
}

/// `dx += Mᵀ dy` and `dM += dy ⊗ x` for a flat row-major matrix.
fn mat_back(m: &[f64], dm: &mut [f64], x: &[f64], dy: &[f64], dx: &mut [f64]) {
    let cols = x.len();
    for (r, &d) in dy.iter().enumerate() {
        // exact-zero gradient skip: the axpy below is a no-op for d == ±0, an epsilon would alter training numerics
        if d == 0.0 {
            continue;
        }
        vector::axpy(d, &m[r * cols..(r + 1) * cols], dx);
        vector::axpy(d, x, &mut dm[r * cols..(r + 1) * cols]);
    }
}

impl GruCell {
    /// New GRU cell with Xavier-initialised weights and zero biases.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut dyn RngCore) -> Self {
        let wi = |rng: &mut dyn RngCore| {
            Param::xavier(hidden_dim * input_dim, input_dim, hidden_dim, rng)
        };
        let wh = |rng: &mut dyn RngCore| {
            Param::xavier(hidden_dim * hidden_dim, hidden_dim, hidden_dim, rng)
        };
        Self {
            wz: wi(rng),
            uz: wh(rng),
            bz: Param::zeros(hidden_dim),
            wr: wi(rng),
            ur: wh(rng),
            br: Param::zeros(hidden_dim),
            wh: wi(rng),
            uh: wh(rng),
            bh: Param::zeros(hidden_dim),
            input_dim,
            hidden_dim,
            cache: Vec::new(),
        }
    }

    /// Fresh all-zero hidden state.
    pub fn init_state(&self) -> Vec<f64> {
        vec![0.0; self.hidden_dim]
    }

    /// One recurrent step; caches everything backward needs.
    pub fn forward(&mut self, x: &[f64], h_prev: &[f64]) -> Vec<f64> {
        let (h, z, r, h_tilde) = self.compute(x, h_prev);
        self.cache.push(StepCache { x: x.to_vec(), h_prev: h_prev.to_vec(), z, r, h_tilde });
        h
    }

    /// Inference-only step (no cache growth). This is the plain reference
    /// form; [`GruStepper`] is the fast path and is pinned against it bit
    /// for bit.
    pub fn apply(&self, x: &[f64], h_prev: &[f64]) -> Vec<f64> {
        self.compute(x, h_prev).0
    }

    /// The cell's weights in k-major order: built once per fitted model
    /// (when it is fitted or imported) and borrowed by every
    /// [`GruKMajor::stepper`] after, so no predict transposes a weight.
    /// A copy, not a view: after the cell's weights change, build it again.
    pub fn kmajor(&self) -> GruKMajor {
        let gate = |w, u, b| GateKMajor::new(w, u, b, self.input_dim, self.hidden_dim);
        GruKMajor {
            update: gate(&self.wz, &self.uz, &self.bz),
            reset: gate(&self.wr, &self.ur, &self.br),
            candidate: gate(&self.wh, &self.uh, &self.bh),
            input_dim: self.input_dim,
            hidden_dim: self.hidden_dim,
        }
    }

    /// `(h', z, r, h̃)` of one step.
    fn compute(&self, x: &[f64], h_prev: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        assert_eq!(x.len(), self.input_dim, "GruCell: input dim mismatch");
        assert_eq!(h_prev.len(), self.hidden_dim, "GruCell: hidden dim mismatch");
        let n = self.hidden_dim;

        let mut az = self.bz.data.clone();
        mat_acc(&self.wz.data, x, &mut az);
        mat_acc(&self.uz.data, h_prev, &mut az);
        let z: Vec<f64> = az.iter().map(|&a| sigmoid(a)).collect();

        let mut ar = self.br.data.clone();
        mat_acc(&self.wr.data, x, &mut ar);
        mat_acc(&self.ur.data, h_prev, &mut ar);
        let r: Vec<f64> = ar.iter().map(|&a| sigmoid(a)).collect();

        let rh = vector::hadamard(&r, h_prev);
        let mut ah = self.bh.data.clone();
        mat_acc(&self.wh.data, x, &mut ah);
        mat_acc(&self.uh.data, &rh, &mut ah);
        let h_tilde: Vec<f64> = ah.iter().map(|&a| tanh(a)).collect();

        let mut h = vec![0.0; n];
        for i in 0..n {
            h[i] = (1.0 - z[i]) * h_prev[i] + z[i] * h_tilde[i];
        }
        (h, z, r, h_tilde)
    }

    /// One BPTT step in reverse order. `dh` is the gradient flowing into the
    /// *output* hidden state of the matching `forward` call. Returns
    /// `(dx, dh_prev)`.
    #[expect(clippy::expect_used, reason = "backward without forward is a training-loop bug")]
    pub fn backward(&mut self, dh: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let s = self.cache.pop().expect("GruCell::backward without forward");
        let n = self.hidden_dim;
        assert_eq!(dh.len(), n, "GruCell::backward grad dim mismatch");

        let mut dx = vec![0.0; self.input_dim];
        let mut dh_prev = vec![0.0; n];

        // h' = (1−z)h + z h̃
        let mut dz = vec![0.0; n];
        let mut dht = vec![0.0; n];
        for i in 0..n {
            dz[i] = dh[i] * (s.h_tilde[i] - s.h_prev[i]);
            dht[i] = dh[i] * s.z[i];
            dh_prev[i] += dh[i] * (1.0 - s.z[i]);
        }

        // Candidate: h̃ = tanh(a_h), a_h = W_h x + U_h (r∘h) + b_h.
        let dah: Vec<f64> =
            (0..n).map(|i| dht[i] * (1.0 - s.h_tilde[i] * s.h_tilde[i])).collect();
        let rh = vector::hadamard(&s.r, &s.h_prev);
        let mut drh = vec![0.0; n];
        mat_back(&self.wh.data, &mut self.wh.grad, &s.x, &dah, &mut dx);
        mat_back(&self.uh.data, &mut self.uh.grad, &rh, &dah, &mut drh);
        vector::axpy(1.0, &dah, &mut self.bh.grad);

        let mut dr = vec![0.0; n];
        for i in 0..n {
            dr[i] = drh[i] * s.h_prev[i];
            dh_prev[i] += drh[i] * s.r[i];
        }

        // Update gate: z = σ(a_z).
        let daz: Vec<f64> = (0..n).map(|i| dz[i] * s.z[i] * (1.0 - s.z[i])).collect();
        mat_back(&self.wz.data, &mut self.wz.grad, &s.x, &daz, &mut dx);
        mat_back(&self.uz.data, &mut self.uz.grad, &s.h_prev, &daz, &mut dh_prev);
        vector::axpy(1.0, &daz, &mut self.bz.grad);

        // Reset gate: r = σ(a_r).
        let dar: Vec<f64> = (0..n).map(|i| dr[i] * s.r[i] * (1.0 - s.r[i])).collect();
        mat_back(&self.wr.data, &mut self.wr.grad, &s.x, &dar, &mut dx);
        mat_back(&self.ur.data, &mut self.ur.grad, &s.h_prev, &dar, &mut dh_prev);
        vector::axpy(1.0, &dar, &mut self.br.grad);

        (dx, dh_prev)
    }
}

/// A [`GruCell`]'s weights in k-major order, built by
/// [`GruCell::kmajor`]: the immutable inference form a fitted model keeps
/// beside the cell.
#[derive(Debug)]
pub struct GruKMajor {
    update: GateKMajor,
    reset: GateKMajor,
    candidate: GateKMajor,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruKMajor {
    /// An inference stepper in the zero state: the same values as repeated
    /// [`GruCell::apply`], bit for bit, without per-step allocation. Build
    /// one per inference call and reuse it across steps.
    pub fn stepper(&self) -> GruStepper<'_> {
        let n = self.hidden_dim;
        GruStepper {
            cell: self,
            h: vec![0.0; n],
            z: vec![0.0; n],
            r: vec![0.0; n],
            rh: vec![0.0; n],
            ah: vec![0.0; n],
        }
    }
}

/// Inference-only GRU stepper: owns the hidden state and every scratch
/// buffer, so [`GruStepper::step`] does not allocate. Created by
/// [`GruKMajor::stepper`]; borrows the k-major form, so the weights cannot
/// change under it.
#[derive(Debug)]
pub struct GruStepper<'a> {
    cell: &'a GruKMajor,
    h: Vec<f64>,
    z: Vec<f64>,
    r: Vec<f64>,
    rh: Vec<f64>,
    /// Candidate pre-activation `a_h`, then (in place) `h̃ = tanh(a_h)`.
    ah: Vec<f64>,
}

impl GruStepper<'_> {
    /// Current hidden state (all zeros until set or stepped).
    pub fn state(&self) -> &[f64] {
        &self.h
    }

    /// Overwrite the hidden state.
    ///
    /// # Panics
    /// Panics if `h` is not `hidden_dim` long.
    pub fn set_state(&mut self, h: &[f64]) {
        self.h.copy_from_slice(h);
    }

    /// Advance the hidden state by one step on input `x` and return it.
    ///
    /// # Panics
    /// Panics if `x` is not `input_dim` long.
    pub fn step(&mut self, x: &[f64]) -> &[f64] {
        let cell = self.cell;
        assert_eq!(x.len(), cell.input_dim, "GruStepper: input dim mismatch");
        cell.update.pre_activation(x, &self.h, &mut self.z);
        sigmoid_in_place(&mut self.z);
        cell.reset.pre_activation(x, &self.h, &mut self.r);
        sigmoid_in_place(&mut self.r);
        for ((rh, &r), &h) in self.rh.iter_mut().zip(&self.r).zip(&self.h) {
            *rh = r * h;
        }
        cell.candidate.pre_activation(x, &self.rh, &mut self.ah);
        tanh_in_place(&mut self.ah);
        for ((h, &z), &h_tilde) in self.h.iter_mut().zip(&self.z).zip(&self.ah) {
            *h = (1.0 - z) * *h + z * h_tilde;
        }
        &self.h
    }
}

impl Layer for GruCell {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in [
            &mut self.wz,
            &mut self.uz,
            &mut self.bz,
            &mut self.wr,
            &mut self.ur,
            &mut self.br,
            &mut self.wh,
            &mut self.uh,
            &mut self.bh,
        ] {
            f(p);
        }
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
    fn state_dims_and_bounds() {
        let mut r = seeded(1);
        let mut g = GruCell::new(3, 5, &mut r);
        let h0 = g.init_state();
        assert_eq!(h0.len(), 5);
        let h1 = g.forward(&[0.2, -0.4, 1.0], &h0);
        assert_eq!(h1.len(), 5);
        // GRU hidden state is a convex combo of h_prev (0) and tanh output.
        assert!(h1.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn apply_matches_forward() {
        let mut r = seeded(2);
        let mut g = GruCell::new(2, 3, &mut r);
        let h0 = vec![0.1, -0.2, 0.3];
        let x = [0.5, -1.0];
        assert_eq!(g.apply(&x, &h0), g.forward(&x, &h0));
        g.clear_cache();
    }

    #[test]
    fn gradcheck_single_step() {
        let mut r = seeded(3);
        let mut g = GruCell::new(2, 3, &mut r);
        let x = vec![0.7, -0.4];
        let err = gradcheck::check_layer(&mut g, &x, |cell, input| {
            let h0 = vec![0.1, 0.2, -0.3];
            let h1 = cell.forward(input, &h0);
            let loss = 0.5 * h1.iter().map(|v| v * v).sum::<f64>();
            let (dx, _dh0) = cell.backward(&h1);
            (loss, dx)
        });
        assert!(err < 1e-5, "gradcheck err {err}");
    }

    #[test]
    fn gradcheck_two_step_bptt() {
        // Unroll the same cell twice; gradients flow through the hidden
        // state. The input feeds only step 1 so d/d_input still covers the
        // recurrent path through step 2.
        let mut r = seeded(4);
        let mut g = GruCell::new(2, 2, &mut r);
        let x = vec![0.3, -0.8];
        let err = gradcheck::check_layer(&mut g, &x, |cell, input| {
            let h0 = cell.init_state();
            let h1 = cell.forward(input, &h0);
            let x2 = vec![0.5, 0.5];
            let h2 = cell.forward(&x2, &h1);
            let loss = h2.iter().sum::<f64>();
            let dh2 = vec![1.0; 2];
            let (_dx2, dh1) = cell.backward(&dh2);
            let (dx1, _dh0) = cell.backward(&dh1);
            (loss, dx1)
        });
        assert!(err < 1e-5, "bptt gradcheck err {err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = seeded(9);
        let mut r2 = seeded(9);
        let g1 = GruCell::new(4, 4, &mut r1);
        let g2 = GruCell::new(4, 4, &mut r2);
        assert_eq!(g1.wz.data, g2.wz.data);
        assert_eq!(g1.uh.data, g2.uh.data);
    }

    #[test]
    fn zero_update_gate_keeps_state() {
        // Force z ≈ 0 via a huge negative update bias: h' ≈ h_prev.
        let mut r = seeded(5);
        let mut g = GruCell::new(1, 2, &mut r);
        g.bz.data = vec![-50.0; 2];
        let h_prev = vec![0.42, -0.17];
        let h = g.apply(&[1.0], &h_prev);
        for (a, b) in h.iter().zip(&h_prev) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
