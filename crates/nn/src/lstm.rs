//! LSTM recurrent cell with hand-written BPTT.
//!
//! Used by the QB5000 hybrid forecaster (its neural component is an LSTM,
//! following Ma et al., SIGMOD 2018) and by the TFT-style encoder.

use crate::kmajor::GateKMajor;
use crate::{Layer, Param};
use rpas_tsmath::elementary::{sigmoid, sigmoid_in_place, tanh, tanh_in_place};
use rpas_tsmath::rng::RngCore;
use rpas_tsmath::vector;

#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    o: Vec<f64>,
    g: Vec<f64>,
    c: Vec<f64>,
}

/// Long Short-Term Memory cell:
///
/// ```text
/// i = σ(W_i x + U_i h + b_i)    f = σ(W_f x + U_f h + b_f)
/// o = σ(W_o x + U_o h + b_o)    g = tanh(W_g x + U_g h + b_g)
/// c' = f ∘ c + i ∘ g            h' = o ∘ tanh(c')
/// ```
///
/// The forget-gate bias is initialised to 1 (standard trick for gradient
/// flow early in training).
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// Gate parameters in order `i, f, o, g`; input weights flat `hidden × input`.
    pub wi: Param,
    /// Input-gate hidden weights.
    pub ui: Param,
    /// Input-gate bias.
    pub bi: Param,
    /// Forget-gate input weights.
    pub wf: Param,
    /// Forget-gate hidden weights.
    pub uf: Param,
    /// Forget-gate bias (init 1.0).
    pub bf: Param,
    /// Output-gate input weights.
    pub wo: Param,
    /// Output-gate hidden weights.
    pub uo: Param,
    /// Output-gate bias.
    pub bo: Param,
    /// Candidate input weights.
    pub wg: Param,
    /// Candidate hidden weights.
    pub ug: Param,
    /// Candidate bias.
    pub bg: Param,
    input_dim: usize,
    hidden_dim: usize,
    cache: Vec<StepCache>,
}

/// Hidden + cell state pair.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden state `h`.
    pub h: Vec<f64>,
    /// Cell state `c`.
    pub c: Vec<f64>,
}

fn mat_acc(m: &[f64], x: &[f64], y: &mut [f64]) {
    let cols = x.len();
    for (r, yr) in y.iter_mut().enumerate() {
        *yr += vector::dot(&m[r * cols..(r + 1) * cols], x);
    }
}

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

impl LstmCell {
    /// New LSTM cell with Xavier weights, zero biases, forget bias 1.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut dyn RngCore) -> Self {
        let wi_ = |rng: &mut dyn RngCore| {
            Param::xavier(hidden_dim * input_dim, input_dim, hidden_dim, rng)
        };
        let uh_ = |rng: &mut dyn RngCore| {
            Param::xavier(hidden_dim * hidden_dim, hidden_dim, hidden_dim, rng)
        };
        let mut bf = Param::zeros(hidden_dim);
        bf.data.iter_mut().for_each(|b| *b = 1.0);
        Self {
            wi: wi_(rng),
            ui: uh_(rng),
            bi: Param::zeros(hidden_dim),
            wf: wi_(rng),
            uf: uh_(rng),
            bf,
            wo: wi_(rng),
            uo: uh_(rng),
            bo: Param::zeros(hidden_dim),
            wg: wi_(rng),
            ug: uh_(rng),
            bg: Param::zeros(hidden_dim),
            input_dim,
            hidden_dim,
            cache: Vec::new(),
        }
    }

    /// Fresh all-zero state.
    pub fn init_state(&self) -> LstmState {
        LstmState { h: vec![0.0; self.hidden_dim], c: vec![0.0; self.hidden_dim] }
    }

    /// One recurrent step; caches for BPTT.
    pub fn forward(&mut self, x: &[f64], state: &LstmState) -> LstmState {
        let (next, [i, f, o, g]) = self.compute(x, state);
        self.cache.push(StepCache {
            x: x.to_vec(),
            h_prev: state.h.clone(),
            c_prev: state.c.clone(),
            i,
            f,
            o,
            g,
            c: next.c.clone(),
        });
        next
    }

    /// Inference-only step (no cache growth). This is the plain reference
    /// form; [`LstmStepper`] is the fast path and is pinned against it bit
    /// for bit.
    pub fn apply(&self, x: &[f64], state: &LstmState) -> LstmState {
        self.compute(x, state).0
    }

    /// The cell's weights in k-major order: built once per fitted model
    /// (when it is fitted or imported) and borrowed by every
    /// [`LstmKMajor::stepper`] after, so no predict transposes a weight.
    /// A copy, not a view: after the cell's weights change, build it again.
    pub fn kmajor(&self) -> LstmKMajor {
        let gate = |w, u, b| GateKMajor::new(w, u, b, self.input_dim, self.hidden_dim);
        LstmKMajor {
            gates: [
                gate(&self.wi, &self.ui, &self.bi),
                gate(&self.wf, &self.uf, &self.bf),
                gate(&self.wo, &self.uo, &self.bo),
                gate(&self.wg, &self.ug, &self.bg),
            ],
            input_dim: self.input_dim,
            hidden_dim: self.hidden_dim,
        }
    }

    /// `(next state, [i, f, o, g])` of one step.
    fn compute(&self, x: &[f64], state: &LstmState) -> (LstmState, [Vec<f64>; 4]) {
        assert_eq!(x.len(), self.input_dim, "LstmCell: input dim mismatch");
        assert_eq!(state.h.len(), self.hidden_dim, "LstmCell: hidden dim mismatch");
        let n = self.hidden_dim;
        let gate = |w: &Param, u: &Param, b: &Param| {
            let mut a = b.data.clone();
            mat_acc(&w.data, x, &mut a);
            mat_acc(&u.data, &state.h, &mut a);
            a
        };
        let i: Vec<f64> = gate(&self.wi, &self.ui, &self.bi).iter().map(|&a| sigmoid(a)).collect();
        let f: Vec<f64> = gate(&self.wf, &self.uf, &self.bf).iter().map(|&a| sigmoid(a)).collect();
        let o: Vec<f64> = gate(&self.wo, &self.uo, &self.bo).iter().map(|&a| sigmoid(a)).collect();
        let g: Vec<f64> = gate(&self.wg, &self.ug, &self.bg).iter().map(|&a| tanh(a)).collect();

        let mut c = vec![0.0; n];
        let mut h = vec![0.0; n];
        for k in 0..n {
            c[k] = f[k] * state.c[k] + i[k] * g[k];
            h[k] = o[k] * tanh(c[k]);
        }
        (LstmState { h, c }, [i, f, o, g])
    }

    /// One BPTT step in reverse order. `dh`/`dc` are gradients into the
    /// output hidden and cell state. Returns `(dx, d_state_prev)`.
    #[expect(clippy::expect_used, reason = "backward without forward is a training-loop bug")]
    pub fn backward(&mut self, dh: &[f64], dc_in: &[f64]) -> (Vec<f64>, LstmState) {
        let s = self.cache.pop().expect("LstmCell::backward without forward");
        let n = self.hidden_dim;
        assert_eq!(dh.len(), n);
        assert_eq!(dc_in.len(), n);

        let mut dx = vec![0.0; self.input_dim];
        let mut dh_prev = vec![0.0; n];
        let mut dc_prev = vec![0.0; n];

        // h = o ∘ tanh(c); c carries dc_in plus the path through h.
        let mut do_ = vec![0.0; n];
        let mut dc = dc_in.to_vec();
        for k in 0..n {
            let tc = tanh(s.c[k]);
            do_[k] = dh[k] * tc;
            dc[k] += dh[k] * s.o[k] * (1.0 - tc * tc);
        }

        // c = f ∘ c_prev + i ∘ g.
        let mut di = vec![0.0; n];
        let mut df = vec![0.0; n];
        let mut dg = vec![0.0; n];
        for k in 0..n {
            df[k] = dc[k] * s.c_prev[k];
            di[k] = dc[k] * s.g[k];
            dg[k] = dc[k] * s.i[k];
            dc_prev[k] = dc[k] * s.f[k];
        }

        // Pre-activation gradients.
        let dai: Vec<f64> = (0..n).map(|k| di[k] * s.i[k] * (1.0 - s.i[k])).collect();
        let daf: Vec<f64> = (0..n).map(|k| df[k] * s.f[k] * (1.0 - s.f[k])).collect();
        let dao: Vec<f64> = (0..n).map(|k| do_[k] * s.o[k] * (1.0 - s.o[k])).collect();
        let dag: Vec<f64> = (0..n).map(|k| dg[k] * (1.0 - s.g[k] * s.g[k])).collect();

        mat_back(&self.wi.data, &mut self.wi.grad, &s.x, &dai, &mut dx);
        mat_back(&self.ui.data, &mut self.ui.grad, &s.h_prev, &dai, &mut dh_prev);
        vector::axpy(1.0, &dai, &mut self.bi.grad);

        mat_back(&self.wf.data, &mut self.wf.grad, &s.x, &daf, &mut dx);
        mat_back(&self.uf.data, &mut self.uf.grad, &s.h_prev, &daf, &mut dh_prev);
        vector::axpy(1.0, &daf, &mut self.bf.grad);

        mat_back(&self.wo.data, &mut self.wo.grad, &s.x, &dao, &mut dx);
        mat_back(&self.uo.data, &mut self.uo.grad, &s.h_prev, &dao, &mut dh_prev);
        vector::axpy(1.0, &dao, &mut self.bo.grad);

        mat_back(&self.wg.data, &mut self.wg.grad, &s.x, &dag, &mut dx);
        mat_back(&self.ug.data, &mut self.ug.grad, &s.h_prev, &dag, &mut dh_prev);
        vector::axpy(1.0, &dag, &mut self.bg.grad);

        (dx, LstmState { h: dh_prev, c: dc_prev })
    }
}

/// An [`LstmCell`]'s weights in k-major order, built by
/// [`LstmCell::kmajor`]: the immutable inference form a fitted model keeps
/// beside the cell.
#[derive(Debug)]
pub struct LstmKMajor {
    /// Gates `i, f, o, g`.
    gates: [GateKMajor; 4],
    input_dim: usize,
    hidden_dim: usize,
}

impl LstmKMajor {
    /// An inference stepper in the zero state: the same values as repeated
    /// [`LstmCell::apply`] from [`LstmCell::init_state`], bit for bit. It
    /// owns the state and its scratch, sized for `pass_rows` positions per
    /// multi-row pass of [`LstmStepper::run`], and allocates nothing after.
    ///
    /// # Panics
    /// Panics if `pass_rows` is zero.
    pub fn stepper(&self, pass_rows: usize) -> LstmStepper<'_> {
        assert!(pass_rows > 0, "LstmKMajor::stepper: a pass takes at least one row");
        let n = self.hidden_dim;
        LstmStepper {
            cell: self,
            pass_rows,
            h: vec![0.0; n],
            c: vec![0.0; n],
            pre: vec![0.0; 4 * pass_rows * n],
        }
    }
}

/// Inference-only LSTM stepper, created by [`LstmKMajor::stepper`]: owns
/// the state and every scratch buffer, so neither [`LstmStepper::step`]
/// nor [`LstmStepper::run`] allocates. Borrows the k-major form, so the
/// weights cannot change under it.
#[derive(Debug)]
pub struct LstmStepper<'a> {
    cell: &'a LstmKMajor,
    pass_rows: usize,
    h: Vec<f64>,
    c: Vec<f64>,
    /// Per gate (`i, f, o, g`), `pass_rows` rows of pre-activations
    /// `b + W x`, then (in place, one row per step) `+ U h` and the gate.
    pre: Vec<f64>,
}

impl LstmStepper<'_> {
    /// Current hidden state `h`.
    pub fn hidden(&self) -> &[f64] {
        &self.h
    }

    /// Advance the state by one step on input `x` and return the new hidden
    /// state.
    ///
    /// # Panics
    /// Panics if `x` is not `input_dim` long.
    pub fn step(&mut self, x: &[f64]) -> &[f64] {
        assert_eq!(x.len(), self.cell.input_dim, "LstmStepper: input dim mismatch");
        let n = self.cell.hidden_dim;
        let gate_rows = self.pass_rows * n;
        for (gate, pre) in self.cell.gates.iter().zip(self.pre.chunks_exact_mut(gate_rows)) {
            gate.input.apply_into(x, &mut pre[..n]);
        }
        self.advance(0);
        &self.h
    }

    /// Advance the state over every row of the row-major `xs` (`steps ×
    /// input_dim`), writing each step's hidden state into the matching
    /// row of `hs` (`steps × hidden_dim`): the values of as many
    /// [`LstmStepper::step`]s, bit for bit.
    ///
    /// Only `U h` is recurrent, so each gate's `b + W x` of up to
    /// `pass_rows` positions is one multi-row pass before the steps that
    /// read it; each step then adds `U h` to its row — the reference cell's
    /// `(b + W x) + U h`.
    ///
    /// # Panics
    /// Panics unless `xs` and `hs` hold the same whole number of rows.
    pub fn run(&mut self, xs: &[f64], hs: &mut [f64]) {
        let (input, n) = (self.cell.input_dim, self.cell.hidden_dim);
        assert!(
            xs.len().is_multiple_of(input) && xs.len() / input * n == hs.len(),
            "LstmStepper::run: {} inputs for {} hidden values",
            xs.len(),
            hs.len()
        );
        let gate_rows = self.pass_rows * n;
        let passes = xs.chunks(self.pass_rows * input).zip(hs.chunks_mut(gate_rows));
        for (xb, hb) in passes {
            for (gate, pre) in self.cell.gates.iter().zip(self.pre.chunks_exact_mut(gate_rows)) {
                gate.input.apply_rows(xb, &mut pre[..hb.len()]);
            }
            for (t, h) in hb.chunks_exact_mut(n).enumerate() {
                self.advance(t);
                h.copy_from_slice(&self.h);
            }
        }
    }

    /// One step from the `b + W x` rows at position `t` of the pass.
    fn advance(&mut self, t: usize) {
        let n = self.cell.hidden_dim;
        let gate_rows = self.pass_rows * n;
        let (i, rest) = self.pre.split_at_mut(gate_rows);
        let (f, rest) = rest.split_at_mut(gate_rows);
        let (o, g) = rest.split_at_mut(gate_rows);
        let row = t * n..(t + 1) * n;
        let (i, f, o, g) =
            (&mut i[row.clone()], &mut f[row.clone()], &mut o[row.clone()], &mut g[row]);
        for (gate, a) in self.cell.gates.iter().zip([&mut *i, &mut *f, &mut *o, &mut *g]) {
            gate.hidden.acc_into(&self.h, a);
        }
        // One whole-row pass per nonlinearity (DESIGN.md §13), then the
        // cell state, then `h = o ∘ tanh(c)` as a tanh pass over a copy of
        // `c` and a multiply: IEEE multiplication commutes, so each `h` is
        // the reference cell's bits.
        for gate in [&mut *i, &mut *f, &mut *o] {
            sigmoid_in_place(gate);
        }
        tanh_in_place(g);
        let gates = i.iter().zip(f.iter()).zip(g.iter());
        for (c, ((&i, &f), &g)) in self.c.iter_mut().zip(gates) {
            *c = f * *c + i * g;
        }
        self.h.copy_from_slice(&self.c);
        tanh_in_place(&mut self.h);
        for (h, &o) in self.h.iter_mut().zip(o.iter()) {
            *h *= o;
        }
    }
}

impl Layer for LstmCell {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in [
            &mut self.wi,
            &mut self.ui,
            &mut self.bi,
            &mut self.wf,
            &mut self.uf,
            &mut self.bf,
            &mut self.wo,
            &mut self.uo,
            &mut self.bo,
            &mut self.wg,
            &mut self.ug,
            &mut self.bg,
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
    fn forward_shapes_and_forget_bias() {
        let mut r = seeded(1);
        let mut l = LstmCell::new(3, 4, &mut r);
        assert_eq!(l.bf.data, vec![1.0; 4]);
        let s0 = l.init_state();
        let s1 = l.forward(&[0.1, 0.2, 0.3], &s0);
        assert_eq!(s1.h.len(), 4);
        assert_eq!(s1.c.len(), 4);
        assert!(s1.h.iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn apply_matches_forward() {
        let mut r = seeded(2);
        let mut l = LstmCell::new(2, 3, &mut r);
        let s0 = l.init_state();
        let x = [0.4, -0.9];
        assert_eq!(l.apply(&x, &s0), l.forward(&x, &s0));
    }

    #[test]
    fn gradcheck_single_step() {
        let mut r = seeded(3);
        let mut l = LstmCell::new(2, 3, &mut r);
        let x = vec![0.6, -0.2];
        let err = gradcheck::check_layer(&mut l, &x, |cell, input| {
            let s0 = LstmState { h: vec![0.1, -0.1, 0.2], c: vec![0.05, 0.0, -0.3] };
            let s1 = cell.forward(input, &s0);
            let loss = 0.5 * s1.h.iter().map(|v| v * v).sum::<f64>()
                + 0.5 * s1.c.iter().map(|v| v * v).sum::<f64>();
            let (dx, _) = cell.backward(&s1.h, &s1.c);
            (loss, dx)
        });
        assert!(err < 1e-5, "gradcheck err {err}");
    }

    #[test]
    fn gradcheck_two_step_bptt() {
        let mut r = seeded(4);
        let mut l = LstmCell::new(1, 2, &mut r);
        let x = vec![0.9];
        let err = gradcheck::check_layer(&mut l, &x, |cell, input| {
            let s0 = cell.init_state();
            let s1 = cell.forward(input, &s0);
            let s2 = cell.forward(&[0.2], &s1);
            let loss = s2.h.iter().sum::<f64>();
            let (_dx2, ds1) = cell.backward(&[1.0; 2], &[0.0; 2]);
            let (dx1, _ds0) = cell.backward(&ds1.h, &ds1.c);
            (loss, dx1)
        });
        assert!(err < 1e-5, "bptt gradcheck err {err}");
    }

    #[test]
    fn saturated_forget_gate_preserves_cell() {
        let mut r = seeded(5);
        let mut l = LstmCell::new(1, 2, &mut r);
        l.bf.data = vec![50.0; 2]; // f ≈ 1
        l.bi.data = vec![-50.0; 2]; // i ≈ 0
        let s = LstmState { h: vec![0.0; 2], c: vec![0.7, -0.4] };
        let s1 = l.apply(&[0.3], &s);
        for (a, b) in s1.c.iter().zip(&s.c) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
