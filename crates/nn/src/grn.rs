//! Layer normalisation and the Gated Residual Network (GRN) block from the
//! Temporal Fusion Transformer (Lim et al., 2021), both with hand-written
//! backward passes.

use crate::activation::{ActLayer, Activation};
use crate::kmajor::KMajorDense;
use crate::linear::Dense;
use crate::{Layer, Param};
use rpas_tsmath::elementary::{sigmoid, sigmoid_in_place};
use rpas_tsmath::rng::RngCore;

/// Layer normalisation with learned gain `γ` and bias `β`.
#[derive(Debug, Clone)]
pub(crate) struct LayerNorm {
    /// Learned per-feature gain, initialised to 1.
    pub gamma: Param,
    /// Learned per-feature bias, initialised to 0.
    pub beta: Param,
    eps: f64,
    cache: Vec<(Vec<f64>, f64)>, // (normalised x̂, 1/std)
}

impl LayerNorm {
    /// New layer norm over `dim` features.
    pub(crate) fn new(dim: usize) -> Self {
        let mut gamma = Param::zeros(dim);
        gamma.data.iter_mut().for_each(|g| *g = 1.0);
        Self { gamma, beta: Param::zeros(dim), eps: 1e-6, cache: Vec::new() }
    }

    /// Forward pass.
    pub(crate) fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        let n = x.len();
        assert_eq!(n, self.gamma.data.len(), "LayerNorm: dim mismatch");
        let mu = x.iter().sum::<f64>() / n as f64;
        let var = x.iter().map(|v| (v - mu).powi(2)).sum::<f64>() / n as f64;
        let inv_std = 1.0 / (var + self.eps).sqrt();
        let xhat: Vec<f64> = x.iter().map(|v| (v - mu) * inv_std).collect();
        let y: Vec<f64> =
            xhat.iter().zip(&self.gamma.data).zip(&self.beta.data).map(|((xh, g), b)| xh * g + b).collect();
        self.cache.push((xhat, inv_std));
        y
    }

    /// Inference-only forward into a caller-owned buffer of length `dim`:
    /// the same values as [`LayerNorm::forward`], bit for bit, without the
    /// cache.
    pub(crate) fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        assert_eq!(n, self.gamma.data.len(), "LayerNorm: dim mismatch");
        assert_eq!(y.len(), n, "LayerNorm: output dim mismatch");
        let mu = x.iter().sum::<f64>() / n as f64;
        let var = x.iter().map(|v| (v - mu).powi(2)).sum::<f64>() / n as f64;
        let inv_std = 1.0 / (var + self.eps).sqrt();
        for (((yi, v), g), b) in y.iter_mut().zip(x).zip(&self.gamma.data).zip(&self.beta.data) {
            *yi = (v - mu) * inv_std * g + b;
        }
    }

    /// Backward pass; returns `dx`.
    #[expect(clippy::expect_used, reason = "backward without forward is a training-loop bug")]
    pub(crate) fn backward(&mut self, dy: &[f64]) -> Vec<f64> {
        let (xhat, inv_std) = self.cache.pop().expect("LayerNorm::backward without forward");
        let n = xhat.len() as f64;
        let mut dxhat = vec![0.0; xhat.len()];
        for i in 0..xhat.len() {
            self.beta.grad[i] += dy[i];
            self.gamma.grad[i] += dy[i] * xhat[i];
            dxhat[i] = dy[i] * self.gamma.data[i];
        }
        let mean_dxhat = dxhat.iter().sum::<f64>() / n;
        let mean_dxhat_xhat =
            dxhat.iter().zip(&xhat).map(|(d, xh)| d * xh).sum::<f64>() / n;
        xhat.iter()
            .zip(&dxhat)
            .map(|(xh, d)| inv_std * (d - mean_dxhat - xh * mean_dxhat_xhat))
            .collect()
    }
}

impl Layer for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

/// Gated Residual Network:
///
/// ```text
/// h  = ELU(W_fc1 x + b_fc1)
/// u  = W_fc2 h + b_fc2
/// g  = σ(W_gate u + b_gate) ∘ (W_lin u + b_lin)   (GLU)
/// y  = LayerNorm(skip(x) + g)
/// ```
///
/// where `skip` is the identity when `in_dim == out_dim` and a learned
/// projection otherwise.
#[derive(Debug, Clone)]
pub struct GatedResidualNetwork {
    fc1: Dense,
    elu: ActLayer,
    fc2: Dense,
    gate: Dense,
    lin: Dense,
    skip: Option<Dense>,
    norm: LayerNorm,
    glu_cache: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)>, // (gate pre-act, sigmoid(gate), lin out)
    in_dim: usize,
    out_dim: usize,
}

impl GatedResidualNetwork {
    /// New GRN with the given input, hidden, and output widths.
    pub fn new(in_dim: usize, hidden_dim: usize, out_dim: usize, rng: &mut dyn RngCore) -> Self {
        Self {
            fc1: Dense::new(in_dim, hidden_dim, rng),
            elu: ActLayer::new(Activation::Elu),
            fc2: Dense::new(hidden_dim, out_dim, rng),
            gate: Dense::new(out_dim, out_dim, rng),
            lin: Dense::new(out_dim, out_dim, rng),
            skip: (in_dim != out_dim).then(|| Dense::new(in_dim, out_dim, rng)),
            norm: LayerNorm::new(out_dim),
            glu_cache: Vec::new(),
            in_dim,
            out_dim,
        }
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "GRN: input dim mismatch");
        let h = self.elu.forward(&self.fc1.forward(x));
        let u = self.fc2.forward(&h);
        let gate_pre = self.gate.forward(&u);
        let sg: Vec<f64> = gate_pre.iter().map(|&a| sigmoid(a)).collect();
        let lv = self.lin.forward(&u);
        let g: Vec<f64> = sg.iter().zip(&lv).map(|(s, l)| s * l).collect();
        let residual = match &mut self.skip {
            Some(d) => d.forward(x),
            None => x.to_vec(),
        };
        let summed: Vec<f64> = residual.iter().zip(&g).map(|(r, gi)| r + gi).collect();
        self.glu_cache.push((gate_pre, sg, lv));
        self.norm.forward(&summed)
    }

    /// Inference view over this GRN's current weights: k-major copies of
    /// fc1, fc2, gate, lin and skip plus one scratch set, built once per
    /// inference call (as [`crate::LstmCell::stepper`] is) and applied at
    /// every position of it.
    pub fn view(&self) -> GrnView<'_> {
        let hidden = self.fc1.out_dim();
        GrnView {
            fc1: self.fc1.kmajor(),
            fc2: self.fc2.kmajor(),
            gate: self.gate.kmajor(),
            lin: self.lin.kmajor(),
            skip: self.skip.as_ref().map(Dense::kmajor),
            elu: self.elu.act,
            norm: &self.norm,
            in_dim: self.in_dim,
            hidden,
            out_dim: self.out_dim,
            scratch: vec![0.0; hidden + 3 * self.out_dim],
        }
    }

    /// Backward pass; returns `dx`.
    #[expect(clippy::expect_used, reason = "backward without forward is a training-loop bug")]
    pub fn backward(&mut self, dy: &[f64]) -> Vec<f64> {
        let (gate_pre, sg, lv) = self.glu_cache.pop().expect("GRN::backward without forward");
        let dsum = self.norm.backward(dy);
        // Residual branch.
        let mut dx = match &mut self.skip {
            Some(d) => d.backward(&dsum),
            None => dsum.clone(),
        };
        // GLU branch: g = σ(a) ∘ l.
        let dlv: Vec<f64> = dsum.iter().zip(&sg).map(|(d, s)| d * s).collect();
        let dgate_pre: Vec<f64> = dsum
            .iter()
            .zip(&sg)
            .zip(&lv)
            .zip(&gate_pre)
            .map(|(((d, s), l), _a)| d * l * s * (1.0 - s))
            .collect();
        let du_lin = self.lin.backward(&dlv);
        let du_gate = self.gate.backward(&dgate_pre);
        let du: Vec<f64> = du_lin.iter().zip(&du_gate).map(|(a, b)| a + b).collect();
        let dh = self.fc2.backward(&du);
        let dh_pre = self.elu.backward(&dh);
        let dx1 = self.fc1.backward(&dh_pre);
        for (a, b) in dx.iter_mut().zip(&dx1) {
            *a += b;
        }
        dx
    }
}

/// Inference-only GRN, created by [`GatedResidualNetwork::view`]: the five
/// projections on the k-major kernel (`crate::kmajor`) and every scratch
/// buffer owned, so [`GrnView::apply_into`] neither caches nor allocates.
/// Borrows the GRN, so the weights cannot change under it.
#[derive(Debug)]
pub struct GrnView<'a> {
    fc1: KMajorDense<'a>,
    fc2: KMajorDense<'a>,
    gate: KMajorDense<'a>,
    lin: KMajorDense<'a>,
    skip: Option<KMajorDense<'a>>,
    elu: Activation,
    norm: &'a LayerNorm,
    in_dim: usize,
    hidden: usize,
    out_dim: usize,
    /// `h`, `u`, `g`, `l` of the forward pass.
    scratch: Vec<f64>,
}

impl GrnView<'_> {
    /// The GRN's output for `x` into a buffer of length `out_dim`: the same
    /// values as [`GatedResidualNetwork::forward`], bit for bit.
    ///
    /// # Panics
    /// Panics on an input or output dim mismatch.
    pub fn apply_into(&mut self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim, "GRN: input dim mismatch");
        let (h, rest) = self.scratch.split_at_mut(self.hidden);
        let (u, rest) = rest.split_at_mut(self.out_dim);
        let (g, l) = rest.split_at_mut(self.out_dim);

        self.fc1.apply_into(x, h);
        h.iter_mut().for_each(|a| *a = self.elu.apply(*a));
        self.fc2.apply_into(h, u);
        self.gate.apply_into(u, g);
        self.lin.apply_into(u, l);
        sigmoid_in_place(g);
        for (gi, li) in g.iter_mut().zip(l.iter()) {
            *gi *= li;
        }
        // `l` and `u` are free again: the projected residual and the sum.
        let residual = match &self.skip {
            Some(d) => {
                d.apply_into(x, l);
                &*l
            }
            None => x,
        };
        for ((ui, r), gi) in u.iter_mut().zip(residual).zip(g.iter()) {
            *ui = r + gi;
        }
        self.norm.apply_into(u, y);
    }
}

impl Layer for GatedResidualNetwork {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
        self.gate.visit_params(f);
        self.lin.visit_params(f);
        if let Some(s) = &mut self.skip {
            s.visit_params(f);
        }
        self.norm.visit_params(f);
    }

    fn clear_cache(&mut self) {
        self.fc1.clear_cache();
        self.elu.clear_cache();
        self.fc2.clear_cache();
        self.gate.clear_cache();
        self.lin.clear_cache();
        if let Some(s) = &mut self.skip {
            s.clear_cache();
        }
        self.norm.clear_cache();
        self.glu_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use rpas_tsmath::rng::seeded;

    #[test]
    fn layernorm_normalises() {
        let mut ln = LayerNorm::new(4);
        let y = ln.forward(&[1.0, 2.0, 3.0, 4.0]);
        let mu = y.iter().sum::<f64>() / 4.0;
        let var = y.iter().map(|v| (v - mu).powi(2)).sum::<f64>() / 4.0;
        assert!(mu.abs() < 1e-10);
        assert!((var - 1.0).abs() < 1e-5);
    }

    #[test]
    fn layernorm_gamma_beta_applied() {
        let mut ln = LayerNorm::new(2);
        ln.gamma.data = vec![2.0, 2.0];
        ln.beta.data = vec![1.0, 1.0];
        let y = ln.forward(&[-1.0, 1.0]);
        // x̂ = [-1, 1] (std=1): y = 2x̂+1 = [-1, 3].
        assert!((y[0] + 1.0).abs() < 1e-5);
        assert!((y[1] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn gradcheck_layernorm() {
        let mut ln = LayerNorm::new(3);
        let x = vec![0.5, -1.2, 2.0];
        let err = gradcheck::check_layer(&mut ln, &x, |layer, input| {
            let y = layer.forward(input);
            let loss = 0.5 * y.iter().map(|v| v * v).sum::<f64>();
            let dx = layer.backward(&y);
            (loss, dx)
        });
        assert!(err < 1e-5, "layernorm gradcheck err {err}");
    }

    #[test]
    fn grn_output_shape_same_dim() {
        let mut r = seeded(1);
        let mut grn = GatedResidualNetwork::new(4, 8, 4, &mut r);
        let y = grn.forward(&[0.1, -0.2, 0.3, 0.4]);
        assert_eq!(y.len(), 4);
        assert!(grn.skip.is_none());
    }

    #[test]
    fn grn_projects_when_dims_differ() {
        let mut r = seeded(2);
        let mut grn = GatedResidualNetwork::new(3, 8, 5, &mut r);
        let y = grn.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(y.len(), 5);
        assert!(grn.skip.is_some());
    }

    #[test]
    fn gradcheck_grn_identity_skip() {
        let mut r = seeded(3);
        let mut grn = GatedResidualNetwork::new(3, 4, 3, &mut r);
        let x = vec![0.6, -0.4, 0.9];
        let err = gradcheck::check_layer(&mut grn, &x, |layer, input| {
            let y = layer.forward(input);
            let loss = 0.5 * y.iter().map(|v| v * v).sum::<f64>();
            let dx = layer.backward(&y);
            (loss, dx)
        });
        assert!(err < 1e-5, "GRN gradcheck err {err}");
    }

    #[test]
    fn gradcheck_grn_projected_skip() {
        let mut r = seeded(4);
        let mut grn = GatedResidualNetwork::new(2, 4, 3, &mut r);
        let x = vec![0.7, -0.1];
        let err = gradcheck::check_layer(&mut grn, &x, |layer, input| {
            let y = layer.forward(input);
            let loss = y.iter().sum::<f64>();
            let dx = layer.backward(&[1.0; 3]);
            (loss, dx)
        });
        assert!(err < 1e-5, "GRN projected gradcheck err {err}");
    }
}
