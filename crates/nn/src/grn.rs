//! Layer normalisation and the Gated Residual Network (GRN) block from the
//! Temporal Fusion Transformer (Lim et al., 2021), both with hand-written
//! backward passes.

use crate::activation::{ActLayer, Activation};
use crate::kmajor::DenseKMajor;
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

/// [`LayerNorm::forward`]'s output for `x` with gain `gamma` and bias
/// `beta`, bit for bit, into a buffer of the same length, without the
/// cache.
fn normalize_into(x: &[f64], gamma: &[f64], beta: &[f64], eps: f64, y: &mut [f64]) {
    let n = x.len();
    assert_eq!(n, gamma.len(), "LayerNorm: dim mismatch");
    assert_eq!(y.len(), n, "LayerNorm: output dim mismatch");
    let mu = x.iter().sum::<f64>() / n as f64;
    let var = x.iter().map(|v| (v - mu).powi(2)).sum::<f64>() / n as f64;
    let inv_std = 1.0 / (var + eps).sqrt();
    for (((yi, v), g), b) in y.iter_mut().zip(x).zip(gamma).zip(beta) {
        *yi = (v - mu) * inv_std * g + b;
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

    /// The GRN's weights in k-major order: built once per fitted model
    /// (when it is fitted or imported) and borrowed by every
    /// [`GrnKMajor::view`] after, so no predict transposes a weight. A
    /// copy, not a view: after the GRN's weights change, build it again.
    pub fn kmajor(&self) -> GrnKMajor {
        GrnKMajor {
            fc1: self.fc1.kmajor(),
            fc2: self.fc2.kmajor(),
            gate: self.gate.kmajor(),
            lin: self.lin.kmajor(),
            skip: self.skip.as_ref().map(Dense::kmajor),
            elu: self.elu.act,
            gamma: self.norm.gamma.data.clone(),
            beta: self.norm.beta.data.clone(),
            eps: self.norm.eps,
            in_dim: self.in_dim,
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

/// A [`GatedResidualNetwork`]'s weights in k-major order, built by
/// [`GatedResidualNetwork::kmajor`]: the immutable inference form a fitted
/// model keeps beside the GRN.
#[derive(Debug)]
pub struct GrnKMajor {
    fc1: DenseKMajor,
    fc2: DenseKMajor,
    gate: DenseKMajor,
    lin: DenseKMajor,
    skip: Option<DenseKMajor>,
    elu: Activation,
    gamma: Vec<f64>,
    beta: Vec<f64>,
    eps: f64,
    in_dim: usize,
}

impl GrnKMajor {
    /// An inference view with scratch for `pass_rows` rows per multi-row
    /// pass of [`GrnView::apply_rows`]; it allocates nothing after.
    ///
    /// # Panics
    /// Panics if `pass_rows` is zero.
    pub fn view(&self, pass_rows: usize) -> GrnView<'_> {
        assert!(pass_rows > 0, "GrnKMajor::view: a pass takes at least one row");
        let width = self.fc1.output() + 3 * self.fc2.output();
        GrnView { grn: self, pass_rows, scratch: vec![0.0; pass_rows * width] }
    }
}

/// Inference-only GRN, created by [`GrnKMajor::view`]: owns every scratch
/// buffer, so [`GrnView::apply_rows`] neither caches nor allocates. Borrows
/// the k-major form, so the weights cannot change under it.
#[derive(Debug)]
pub struct GrnView<'a> {
    grn: &'a GrnKMajor,
    pass_rows: usize,
    /// `h`, `u`, `g`, `l` of the forward pass, `pass_rows` rows each.
    scratch: Vec<f64>,
}

impl GrnView<'_> {
    /// The GRN's output for every row of the row-major `xs` into the
    /// matching row of `ys`: per row the values of
    /// [`GatedResidualNetwork::forward`], bit for bit.
    ///
    /// Up to `pass_rows` rows go through each projection as one multi-row
    /// pass (fc1 → ELU → fc2 → gate / lin → `σ(gate) · lin` → residual),
    /// then LayerNorm normalises row by row.
    ///
    /// # Panics
    /// Panics unless `xs` and `ys` hold the same whole number of rows.
    pub fn apply_rows(&mut self, xs: &[f64], ys: &mut [f64]) {
        let grn = self.grn;
        let (in_dim, hidden, out_dim) = (grn.in_dim, grn.fc1.output(), grn.fc2.output());
        assert!(
            xs.len().is_multiple_of(in_dim) && xs.len() / in_dim * out_dim == ys.len(),
            "GRN: {} inputs for {} outputs",
            xs.len(),
            ys.len()
        );
        let passes =
            xs.chunks(self.pass_rows * in_dim).zip(ys.chunks_mut(self.pass_rows * out_dim));
        for (xb, yb) in passes {
            let rows = yb.len() / out_dim;
            let (h, rest) = self.scratch.split_at_mut(self.pass_rows * hidden);
            let (u, rest) = rest.split_at_mut(self.pass_rows * out_dim);
            let (g, l) = rest.split_at_mut(self.pass_rows * out_dim);
            let (h, u) = (&mut h[..rows * hidden], &mut u[..rows * out_dim]);
            let (g, l) = (&mut g[..rows * out_dim], &mut l[..rows * out_dim]);

            grn.fc1.apply_rows(xb, h);
            h.iter_mut().for_each(|a| *a = grn.elu.apply(*a));
            grn.fc2.apply_rows(h, u);
            grn.gate.apply_rows(u, g);
            grn.lin.apply_rows(u, l);
            sigmoid_in_place(g);
            for (gi, li) in g.iter_mut().zip(l.iter()) {
                *gi *= li;
            }
            // `l` and `u` are free again: the projected residual and the sum.
            let residual = match &grn.skip {
                Some(d) => {
                    d.apply_rows(xb, l);
                    &*l
                }
                None => xb,
            };
            for ((ui, r), gi) in u.iter_mut().zip(residual).zip(g.iter()) {
                *ui = r + gi;
            }
            for (ur, yr) in u.chunks_exact(out_dim).zip(yb.chunks_exact_mut(out_dim)) {
                normalize_into(ur, &grn.gamma, &grn.beta, grn.eps, yr);
            }
        }
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
