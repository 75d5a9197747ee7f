//! Multi-head scaled dot-product self-attention with hand-written backward.
//!
//! The TFT-style forecaster applies (optionally causal) self-attention over
//! the LSTM-encoded context to let each forecast position attend to the
//! whole history — the "interpretable multi-head attention" block of Lim et
//! al., simplified to shared value/output projections per head being plain
//! slices of one projection.

use crate::{Layer, Param};
use rpas_tsmath::rng::RngCore;
use rpas_tsmath::Matrix;

#[derive(Debug, Clone)]
struct AttnCache {
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head attention weights, each `T × T`.
    a: Vec<Matrix>,
    /// Concatenated head outputs `T × d_model` (pre output-projection).
    o: Matrix,
}

/// Multi-head self-attention layer (no biases, as in the original
/// Transformer formulation).
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Query projection, flat row-major `d_model × d_model`.
    pub wq: Param,
    /// Key projection.
    pub wk: Param,
    /// Value projection.
    pub wv: Param,
    /// Output projection.
    pub wo: Param,
    n_heads: usize,
    d_model: usize,
    causal: bool,
    cache: Vec<AttnCache>,
}

/// Row-wise softmax, in place.
fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Project `x (T × d)` by a flat row-major `d × d` weight: `x Wᵀ`.
fn project(x: &Matrix, w: &[f64], d: usize) -> Matrix {
    let t = x.rows();
    let mut out = Matrix::zeros(t, d);
    for r in 0..t {
        let xr = x.row(r);
        for o in 0..d {
            out[(r, o)] = rpas_tsmath::vector::dot(&w[o * d..(o + 1) * d], xr);
        }
    }
    out
}

/// Backward of [`project`]: given `dY`, accumulate `dW += Σ_r dy_r ⊗ x_r`
/// and return `dX = dY W`.
fn project_back(x: &Matrix, w: &[f64], dw: &mut [f64], dy: &Matrix, d: usize) -> Matrix {
    let t = x.rows();
    let mut dx = Matrix::zeros(t, d);
    for r in 0..t {
        let xr = x.row(r);
        let dyr = dy.row(r);
        for o in 0..d {
            let g = dyr[o];
            // exact-zero gradient skip: the axpy below is a no-op for g == ±0, an epsilon would alter training numerics
            if g == 0.0 {
                continue;
            }
            rpas_tsmath::vector::axpy(g, &w[o * d..(o + 1) * d], dx.row_mut(r));
            rpas_tsmath::vector::axpy(g, xr, &mut dw[o * d..(o + 1) * d]);
        }
    }
    dx
}

impl MultiHeadAttention {
    /// New attention layer.
    ///
    /// # Panics
    /// Panics unless `d_model` is divisible by `n_heads`.
    pub fn new(d_model: usize, n_heads: usize, causal: bool, rng: &mut dyn RngCore) -> Self {
        assert!(n_heads > 0 && d_model.is_multiple_of(n_heads), "d_model must divide into heads");
        let mk = |rng: &mut dyn RngCore| Param::xavier(d_model * d_model, d_model, d_model, rng);
        Self {
            wq: mk(rng),
            wk: mk(rng),
            wv: mk(rng),
            wo: mk(rng),
            n_heads,
            d_model,
            causal,
            cache: Vec::new(),
        }
    }

    /// Self-attention over a `T × d_model` sequence; returns `T × d_model`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.d_model, "MultiHeadAttention: input dim mismatch");
        let d = self.d_model;
        let t = x.rows();
        let dk = d / self.n_heads;
        let scale = 1.0 / (dk as f64).sqrt();

        let q = project(x, &self.wq.data, d);
        let k = project(x, &self.wk.data, d);
        let v = project(x, &self.wv.data, d);

        let mut o = Matrix::zeros(t, d);
        let mut heads = Vec::with_capacity(self.n_heads);
        for h in 0..self.n_heads {
            let lo = h * dk;
            let mut scores = Matrix::zeros(t, t);
            for i in 0..t {
                for j in 0..t {
                    if self.causal && j > i {
                        scores[(i, j)] = f64::NEG_INFINITY;
                    } else {
                        let mut s = 0.0;
                        for c in 0..dk {
                            s += q[(i, lo + c)] * k[(j, lo + c)];
                        }
                        scores[(i, j)] = s * scale;
                    }
                }
            }
            softmax_rows(&mut scores);
            for i in 0..t {
                for j in 0..t {
                    let a = scores[(i, j)];
                    // exact-zero attention-weight skip: a zero weight contributes nothing, an epsilon would alter training numerics
                    if a == 0.0 {
                        continue;
                    }
                    for c in 0..dk {
                        o[(i, lo + c)] += a * v[(j, lo + c)];
                    }
                }
            }
            heads.push(scores);
        }

        let y = project(&o, &self.wo.data, d);
        self.cache.push(AttnCache { x: x.clone(), q, k, v, a: heads, o });
        y
    }

    /// Inference-only attention output for the last position: row `T − 1`
    /// of [`MultiHeadAttention::forward`], bit for bit, without the cache
    /// and without the other `T − 1` query rows. The last row attends to
    /// every position with or without the causal mask, so the mask does
    /// not appear here.
    ///
    /// # Panics
    /// Panics on an empty sequence or an input dim mismatch.
    pub fn attend_last(&self, x: &Matrix) -> Vec<f64> {
        assert_eq!(x.cols(), self.d_model, "MultiHeadAttention: input dim mismatch");
        assert!(x.rows() > 0, "MultiHeadAttention: empty sequence");
        let d = self.d_model;
        let t = x.rows();
        let dk = d / self.n_heads;
        let scale = 1.0 / (dk as f64).sqrt();

        // One row of `project` at a time: K and V are consumed row by row,
        // so neither is materialised.
        let project_row = |w: &[f64], v: &[f64], out: &mut [f64]| {
            for (o, wr) in out.iter_mut().zip(w.chunks_exact(d)) {
                *o = rpas_tsmath::vector::dot(wr, v);
            }
        };
        let mut q = vec![0.0; d];
        project_row(&self.wq.data, x.row(t - 1), &mut q);

        // Row `h` holds head `h`'s scores, then its attention weights.
        let mut row = vec![0.0; d];
        let mut scores = Matrix::zeros(self.n_heads, t);
        for j in 0..t {
            project_row(&self.wk.data, x.row(j), &mut row);
            for (h, (qh, kh)) in q.chunks_exact(dk).zip(row.chunks_exact(dk)).enumerate() {
                let mut s = 0.0;
                for (qc, kc) in qh.iter().zip(kh) {
                    s += qc * kc;
                }
                scores[(h, j)] = s * scale;
            }
        }
        softmax_rows(&mut scores);

        let mut o = vec![0.0; d];
        for j in 0..t {
            project_row(&self.wv.data, x.row(j), &mut row);
            for (h, (oh, vh)) in o.chunks_exact_mut(dk).zip(row.chunks_exact(dk)).enumerate() {
                let a = scores[(h, j)];
                // exact-zero attention-weight skip, as in forward: attend_last is pinned to it bit for bit
                if a == 0.0 {
                    continue;
                }
                for (oc, vc) in oh.iter_mut().zip(vh) {
                    *oc += a * vc;
                }
            }
        }
        let mut y = vec![0.0; d];
        project_row(&self.wo.data, &o, &mut y);
        y
    }

    /// Backward pass; returns `dX`.
    #[expect(clippy::expect_used, reason = "backward without forward is a training-loop bug")]
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let s = self.cache.pop().expect("MultiHeadAttention::backward without forward");
        let d = self.d_model;
        let t = s.x.rows();
        let dk = d / self.n_heads;
        let scale = 1.0 / (dk as f64).sqrt();

        // Output projection.
        let do_ = project_back(&s.o, &self.wo.data, &mut self.wo.grad, dy, d);

        let mut dq = Matrix::zeros(t, d);
        let mut dkm = Matrix::zeros(t, d);
        let mut dv = Matrix::zeros(t, d);

        for h in 0..self.n_heads {
            let lo = h * dk;
            let a = &s.a[h];
            // dA[i][j] = do_i · v_j (head slice); dV_j += Σ_i A[i][j] do_i.
            let mut da = Matrix::zeros(t, t);
            for i in 0..t {
                for j in 0..t {
                    let aij = a[(i, j)];
                    let mut dot = 0.0;
                    for c in 0..dk {
                        dot += do_[(i, lo + c)] * s.v[(j, lo + c)];
                        dv[(j, lo + c)] += aij * do_[(i, lo + c)];
                    }
                    da[(i, j)] = dot;
                }
            }
            // Softmax backward per row: ds = A ∘ (dA − Σ_j A∘dA).
            for i in 0..t {
                let mut inner = 0.0;
                for j in 0..t {
                    inner += a[(i, j)] * da[(i, j)];
                }
                for j in 0..t {
                    let ds = a[(i, j)] * (da[(i, j)] - inner) * scale;
                    // exact-zero score-gradient skip: the axpy below is a no-op for ds == ±0, an epsilon would alter training numerics
                    if ds == 0.0 {
                        continue;
                    }
                    for c in 0..dk {
                        dq[(i, lo + c)] += ds * s.k[(j, lo + c)];
                        dkm[(j, lo + c)] += ds * s.q[(i, lo + c)];
                    }
                }
            }
        }

        let mut dx = project_back(&s.x, &self.wq.data, &mut self.wq.grad, &dq, d);
        let dx_k = project_back(&s.x, &self.wk.data, &mut self.wk.grad, &dkm, d);
        let dx_v = project_back(&s.x, &self.wv.data, &mut self.wv.grad, &dv, d);
        for i in 0..t {
            for c in 0..d {
                dx[(i, c)] += dx_k[(i, c)] + dx_v[(i, c)];
            }
        }
        dx
    }
}

impl Layer for MultiHeadAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo] {
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

    fn seq(t: usize, d: usize, seed: u64) -> Matrix {
        let mut r = seeded(seed);
        let data: Vec<f64> =
            (0..t * d).map(|_| rpas_tsmath::rng::standard_normal(&mut r) * 0.5).collect();
        Matrix::from_vec(t, d, data)
    }

    #[test]
    fn output_shape() {
        let mut r = seeded(1);
        let mut attn = MultiHeadAttention::new(4, 2, false, &mut r);
        let x = seq(5, 4, 2);
        let y = attn.forward(&x);
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 4);
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, 0.0, 0.0]]);
        softmax_rows(&mut m);
        for r in 0..2 {
            let s: f64 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        // Uniform input -> uniform weights.
        assert!((m[(1, 0)] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut r = seeded(3);
        let mut attn = MultiHeadAttention::new(4, 1, true, &mut r);
        let x = seq(4, 4, 4);
        let _ = attn.forward(&x);
        let a = &attn.cache.last().unwrap().a[0];
        for i in 0..4 {
            for j in i + 1..4 {
                assert_eq!(a[(i, j)], 0.0, "future leak at ({i},{j})");
            }
        }
    }

    #[test]
    fn first_position_causal_output_ignores_rest() {
        // With a causal mask, position 0 attends only to itself, so
        // changing later positions must not change y[0].
        let mut r = seeded(5);
        let mut attn = MultiHeadAttention::new(4, 2, true, &mut r);
        let x1 = seq(3, 4, 6);
        let mut x2 = x1.clone();
        for c in 0..4 {
            x2[(2, c)] += 1.0;
        }
        let y1 = attn.forward(&x1);
        let y2 = attn.forward(&x2);
        for c in 0..4 {
            assert!((y1[(0, c)] - y2[(0, c)]).abs() < 1e-12);
        }
        attn.clear_cache();
    }

    #[test]
    fn gradcheck_attention() {
        let mut r = seeded(7);
        let mut attn = MultiHeadAttention::new(4, 2, false, &mut r);
        let x = seq(3, 4, 8);
        let flat: Vec<f64> = x.data().to_vec();
        let err = gradcheck::check_layer(&mut attn, &flat, |layer, input| {
            let xm = Matrix::from_vec(3, 4, input.to_vec());
            let y = layer.forward(&xm);
            let loss = 0.5 * y.data().iter().map(|v| v * v).sum::<f64>();
            let dy = y.clone();
            let dx = layer.backward(&dy);
            (loss, dx.data().to_vec())
        });
        assert!(err < 1e-5, "attention gradcheck err {err}");
    }

    #[test]
    fn gradcheck_causal_attention() {
        let mut r = seeded(9);
        let mut attn = MultiHeadAttention::new(2, 1, true, &mut r);
        let x = seq(3, 2, 10);
        let flat: Vec<f64> = x.data().to_vec();
        let err = gradcheck::check_layer(&mut attn, &flat, |layer, input| {
            let xm = Matrix::from_vec(3, 2, input.to_vec());
            let y = layer.forward(&xm);
            let loss = y.data().iter().sum::<f64>();
            let dy = Matrix::filled(3, 2, 1.0);
            let dx = layer.backward(&dy);
            (loss, dx.data().to_vec())
        });
        assert!(err < 1e-5, "causal attention gradcheck err {err}");
    }
}
