//! Multi-head scaled dot-product self-attention with hand-written backward.
//!
//! The TFT-style forecaster applies (optionally causal) self-attention over
//! the LSTM-encoded context to let each forecast position attend to the
//! whole history — the "interpretable multi-head attention" block of Lim et
//! al., simplified to shared value/output projections per head being plain
//! slices of one projection.
//!
//! Its head reads one position, so the layer trains and predicts on row
//! `T − 1` alone: [`MultiHeadAttention::forward_last`] /
//! [`MultiHeadAttention::backward_last`] and, on the k-major form a fitted
//! model keeps, [`AttentionKMajor::attend_last`] share the last-row
//! routines, and [`MultiHeadAttention::forward`] (all `T` rows, no cache)
//! is the reference they are pinned against bit for bit.

use crate::kmajor::KMajor;
use crate::{Layer, Param};
use rpas_tsmath::elementary::exp;
use rpas_tsmath::rng::RngCore;
use rpas_tsmath::vector::{axpy, dot};
use rpas_tsmath::Matrix;

/// What [`MultiHeadAttention::backward_last`] needs from
/// [`MultiHeadAttention::forward_last`].
#[derive(Debug, Clone)]
struct LastRowCache {
    x: Matrix,
    /// Query row `T − 1`.
    q: Vec<f64>,
    k: Matrix,
    v: Matrix,
    /// Row `h` holds head `h`'s attention weights of row `T − 1`.
    a: Matrix,
    /// Concatenated head outputs of row `T − 1` (pre output-projection).
    o: Vec<f64>,
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
    cache: Vec<LastRowCache>,
}

/// Row-wise softmax, in place.
fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = exp(*v - max);
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// `out = W x` for a flat row-major `d × d` weight, one `vector::dot` per
/// output (the single-row projections).
fn project_row(w: &[f64], x: &[f64], out: &mut [f64]) {
    for (o, wr) in out.iter_mut().zip(w.chunks_exact(x.len())) {
        *o = dot(wr, x);
    }
}

/// `out = W x` on the k-major kernel: the same bits as [`project_row`],
/// since `-0.0` is where `vector::dot`'s sum starts.
fn project_row_kmajor(w: &KMajor, x: &[f64], out: &mut [f64]) {
    out.fill(-0.0);
    w.acc_into(x, out);
}

/// Project `x (T × d)` by a `d × d` weight: `x Wᵀ`, every row one
/// [`project_row_kmajor`], all `T` as one multi-row pass.
fn project(x: &Matrix, w: &KMajor) -> Matrix {
    let mut out = vec![-0.0; x.rows() * x.cols()];
    w.acc_rows_into(x.data(), &mut out);
    Matrix::from_vec(x.rows(), x.cols(), out)
}

/// Head width and the score scale `1 / √d_k`.
fn head_dim(d_model: usize, n_heads: usize) -> (usize, f64) {
    let dk = d_model / n_heads;
    (dk, 1.0 / (dk as f64).sqrt())
}

/// The `heads × T` attention weights of the last query row `q` over the
/// key rows `k` (`T × d`): per head the score dot from `+0.0` over the
/// head's columns, then `softmax_rows` — `forward`'s sums in `forward`'s
/// order. The last row attends to every position with or without the
/// causal mask, so the mask does not appear here.
fn last_row_weights(q: &[f64], k: &Matrix, n_heads: usize) -> Matrix {
    let (dk, scale) = head_dim(q.len(), n_heads);
    let mut a = Matrix::zeros(n_heads, k.rows());
    for j in 0..k.rows() {
        for (h, (qh, kh)) in q.chunks_exact(dk).zip(k.row(j).chunks_exact(dk)).enumerate() {
            let mut s = 0.0;
            for (qc, kc) in qh.iter().zip(kh) {
                s += qc * kc;
            }
            a[(h, j)] = s * scale;
        }
    }
    softmax_rows(&mut a);
    a
}

/// The last row's concatenated head outputs from its weights `a` and the
/// value rows `v` (`T × d`): `o += a·v` for `j` ascending with `forward`'s
/// exact-zero skip.
fn last_row_values(a: &Matrix, v: &Matrix) -> Vec<f64> {
    let dk = v.cols() / a.rows();
    let mut o = vec![0.0; v.cols()];
    for j in 0..v.rows() {
        for (h, (oh, vh)) in o.chunks_exact_mut(dk).zip(v.row(j).chunks_exact(dk)).enumerate() {
            let w = a[(h, j)];
            // exact-zero attention-weight skip, as in forward: the last-row paths are pinned to it bit for bit
            if w == 0.0 {
                continue;
            }
            for (oc, vc) in oh.iter_mut().zip(vh) {
                *oc += w * vc;
            }
        }
    }
    o
}

/// Backward of one row of [`project`]: `dW += dy ⊗ x`, `dx += dy W`.
fn project_back_row(x: &[f64], w: &[f64], dw: &mut [f64], dy: &[f64], dx: &mut [f64]) {
    let d = x.len();
    for (o, &g) in dy.iter().enumerate() {
        // exact-zero gradient skip: the axpy below is a no-op for g == ±0, an epsilon would alter training numerics
        if g == 0.0 {
            continue;
        }
        axpy(g, &w[o * d..(o + 1) * d], dx);
        axpy(g, x, &mut dw[o * d..(o + 1) * d]);
    }
}

/// Backward of [`project`]: given `dY`, accumulate `dW += Σ_r dy_r ⊗ x_r`
/// and return `dX = dY W`.
fn project_back(x: &Matrix, w: &[f64], dw: &mut [f64], dy: &Matrix) -> Matrix {
    let mut dx = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        project_back_row(x.row(r), w, dw, dy.row(r), dx.row_mut(r));
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

    /// A weight's k-major copy (see `crate::kmajor`).
    fn transposed(&self, w: &Param) -> KMajor {
        KMajor::new(&w.data, self.d_model, self.d_model)
    }

    /// The layer's weights in k-major order: built once per fitted model
    /// (when it is fitted or imported) and borrowed by every
    /// [`AttentionKMajor::attend_last`] after, so no predict transposes a
    /// weight. A copy, not a view: after the weights change, build it
    /// again.
    pub fn kmajor(&self) -> AttentionKMajor {
        AttentionKMajor {
            wq: self.transposed(&self.wq),
            wk: self.transposed(&self.wk),
            wv: self.transposed(&self.wv),
            wo: self.transposed(&self.wo),
            n_heads: self.n_heads,
            d_model: self.d_model,
        }
    }

    /// Self-attention over a `T × d_model` sequence; returns `T × d_model`.
    /// All `T` query rows, nothing cached: the reference the last-row
    /// paths are pinned against.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.d_model, "MultiHeadAttention: input dim mismatch");
        let d = self.d_model;
        let t = x.rows();
        let (dk, scale) = head_dim(d, self.n_heads);

        let q = project(x, &self.transposed(&self.wq));
        let k = project(x, &self.transposed(&self.wk));
        let v = project(x, &self.transposed(&self.wv));

        let mut o = Matrix::zeros(t, d);
        let mut scores = Matrix::zeros(t, t);
        for h in 0..self.n_heads {
            let lo = h * dk;
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
        }
        project(&o, &self.transposed(&self.wo))
    }

    /// Training forward for a loss that reads position `T − 1` only: row
    /// `T − 1` of [`MultiHeadAttention::forward`], bit for bit. Caches `x`,
    /// the last query, K, V, the `heads × T` weights and the last head
    /// outputs for [`MultiHeadAttention::backward_last`].
    ///
    /// # Panics
    /// Panics on an empty sequence or an input dim mismatch.
    pub fn forward_last(&mut self, x: &Matrix) -> Vec<f64> {
        assert_eq!(x.cols(), self.d_model, "MultiHeadAttention: input dim mismatch");
        assert!(x.rows() > 0, "MultiHeadAttention: empty sequence");
        let d = self.d_model;
        let mut q = vec![0.0; d];
        project_row(&self.wq.data, x.row(x.rows() - 1), &mut q);
        let k = project(x, &self.transposed(&self.wk));
        let v = project(x, &self.transposed(&self.wv));
        let a = last_row_weights(&q, &k, self.n_heads);
        let o = last_row_values(&a, &v);
        let mut y = vec![0.0; d];
        project_row(&self.wo.data, &o, &mut y);
        self.cache.push(LastRowCache { x: x.clone(), q, k, v, a, o });
        y
    }

    /// Backward of [`MultiHeadAttention::forward_last`] given `dy_last`,
    /// the loss gradient of row `T − 1`; accumulates the four weight
    /// gradients and returns `dX` (`T × d_model`).
    ///
    /// This is the all-rows backward of [`MultiHeadAttention::forward`]
    /// restricted to a `dY` that is zero outside row `T − 1`, in the same
    /// order — output-projection row; `dA` / `dV` per head over `j`; the one
    /// softmax row with its exact-zero `ds` skip; `dq` of row `T − 1` and
    /// `dK` of every row; `wq` / `wk` / `wv` back-projections and
    /// `dx = dx_q + (dx_k + dx_v)` over a zero matrix — so it is bit for bit
    /// the same: for finite values, each term rows `< T − 1` would add is an
    /// exact `+0.0` into a `+0.0` accumulator or is skipped by a `g == 0` /
    /// `ds == 0` test.
    #[expect(clippy::expect_used, reason = "backward without forward is a training-loop bug")]
    pub fn backward_last(&mut self, dy_last: &[f64]) -> Matrix {
        let s = self.cache.pop().expect("MultiHeadAttention::backward_last without forward_last");
        let d = self.d_model;
        let t = s.x.rows();
        let (dk, scale) = head_dim(d, self.n_heads);

        // Output projection.
        let mut do_ = vec![0.0; d];
        project_back_row(&s.o, &self.wo.data, &mut self.wo.grad, dy_last, &mut do_);

        let mut dq = vec![0.0; d];
        let mut dkm = Matrix::zeros(t, d);
        let mut dv = Matrix::zeros(t, d);
        let mut da = vec![0.0; t];
        for h in 0..self.n_heads {
            let (lo, hi) = (h * dk, (h + 1) * dk);
            let a = s.a.row(h);
            let (do_h, q_h) = (&do_[lo..hi], &s.q[lo..hi]);
            // dA_j = do · v_j (head slice); dV_j += A_j do.
            for (j, (daj, &aj)) in da.iter_mut().zip(a).enumerate() {
                let mut dot = 0.0;
                let dvj = &mut dv.row_mut(j)[lo..hi];
                for ((&doc, vc), dvc) in do_h.iter().zip(&s.v.row(j)[lo..hi]).zip(dvj) {
                    dot += doc * vc;
                    *dvc += aj * doc;
                }
                *daj = dot;
            }
            // Softmax backward of the one row: ds = A ∘ (dA − Σ_j A∘dA).
            let mut inner = 0.0;
            for (aj, daj) in a.iter().zip(&da) {
                inner += aj * daj;
            }
            for (j, (&aj, &daj)) in a.iter().zip(&da).enumerate() {
                let ds = aj * (daj - inner) * scale;
                // exact-zero score-gradient skip: the axpys below are no-ops for ds == ±0, an epsilon would alter training numerics
                if ds == 0.0 {
                    continue;
                }
                axpy(ds, &s.k.row(j)[lo..hi], &mut dq[lo..hi]);
                axpy(ds, q_h, &mut dkm.row_mut(j)[lo..hi]);
            }
        }

        let mut dx = Matrix::zeros(t, d);
        project_back_row(s.x.row(t - 1), &self.wq.data, &mut self.wq.grad, &dq, dx.row_mut(t - 1));
        let dx_k = project_back(&s.x, &self.wk.data, &mut self.wk.grad, &dkm);
        let dx_v = project_back(&s.x, &self.wv.data, &mut self.wv.grad, &dv);
        for i in 0..t {
            for ((x, k), v) in dx.row_mut(i).iter_mut().zip(dx_k.row(i)).zip(dx_v.row(i)) {
                *x += k + v;
            }
        }
        dx
    }
}

/// A [`MultiHeadAttention`]'s weights in k-major order, built by
/// [`MultiHeadAttention::kmajor`]: the immutable inference form a fitted
/// model keeps beside the layer.
#[derive(Debug)]
pub struct AttentionKMajor {
    wq: KMajor,
    wk: KMajor,
    wv: KMajor,
    wo: KMajor,
    n_heads: usize,
    d_model: usize,
}

impl AttentionKMajor {
    /// Inference-only attention output for the last position: row `T − 1`
    /// of [`MultiHeadAttention::forward`], bit for bit, without the cache
    /// and without the other `T − 1` query rows. Q and the output
    /// projection are one row each; K and V are each one multi-row pass
    /// over all `T` positions.
    ///
    /// # Panics
    /// Panics on an empty sequence or an input dim mismatch.
    pub fn attend_last(&self, x: &Matrix) -> Vec<f64> {
        assert_eq!(x.cols(), self.d_model, "MultiHeadAttention: input dim mismatch");
        assert!(x.rows() > 0, "MultiHeadAttention: empty sequence");
        let mut q = vec![0.0; self.d_model];
        project_row_kmajor(&self.wq, x.row(x.rows() - 1), &mut q);
        let a = last_row_weights(&q, &project(x, &self.wk), self.n_heads);
        let o = last_row_values(&a, &project(x, &self.wv));
        let mut y = vec![0.0; self.d_model];
        project_row_kmajor(&self.wo, &o, &mut y);
        y
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
        assert_eq!(attn.forward_last(&x).len(), 4);
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
        // With a causal mask, position i attends to positions ≤ i only, so
        // changing a later position leaves y[i] unchanged, bit for bit.
        let mut r = seeded(5);
        let mut attn = MultiHeadAttention::new(4, 2, true, &mut r);
        let x1 = seq(4, 4, 6);
        let y1 = attn.forward(&x1);
        for j in 1..4 {
            let mut x2 = x1.clone();
            x2.row_mut(j).iter_mut().for_each(|v| *v += 1.0);
            let y2 = attn.forward(&x2);
            for i in 0..j {
                assert_eq!(y1.row(i), y2.row(i), "future leak: row {j} moved row {i}");
            }
        }
    }

    #[test]
    fn forward_caches_nothing() {
        let mut r = seeded(3);
        let mut attn = MultiHeadAttention::new(4, 1, true, &mut r);
        let _ = attn.forward(&seq(4, 4, 4));
        assert!(attn.cache.is_empty());
        let _ = attn.forward_last(&seq(4, 4, 4));
        assert_eq!(attn.cache.len(), 1);
    }

    #[test]
    fn saturated_rows_have_exact_zero_weights() {
        // What the exact-zero skips are for: large inputs drive some
        // softmax weights of the last row to exactly +0.0.
        let mut r = seeded(11);
        let mut attn = MultiHeadAttention::new(8, 2, true, &mut r);
        let x = Matrix::from_vec(
            6,
            8,
            (0..48).map(|i| 40.0 * ((i * 7 % 11) as f64 / 5.0 - 1.0)).collect(),
        );
        let _ = attn.forward_last(&x);
        let a = &attn.cache[0].a;
        assert!(a.data().iter().any(|w| w.to_bits() == 0), "no weight underflowed: {a:?}");
    }

    #[test]
    fn gradcheck_attention() {
        let mut r = seeded(7);
        let mut attn = MultiHeadAttention::new(4, 2, false, &mut r);
        let x = seq(3, 4, 8);
        let flat: Vec<f64> = x.data().to_vec();
        let err = gradcheck::check_layer(&mut attn, &flat, |layer, input| {
            let xm = Matrix::from_vec(3, 4, input.to_vec());
            let y = layer.forward_last(&xm);
            let loss = 0.5 * y.iter().map(|v| v * v).sum::<f64>();
            let dx = layer.backward_last(&y);
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
            let y = layer.forward_last(&xm);
            let loss = y.iter().sum::<f64>();
            let dx = layer.backward_last(&[1.0; 2]);
            (loss, dx.data().to_vec())
        });
        assert!(err < 1e-5, "causal attention gradcheck err {err}");
    }
}
