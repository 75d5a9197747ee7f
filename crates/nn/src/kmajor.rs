//! The k-major matrix–vector kernel under the inference paths
//! ([`crate::GruStepper`], [`crate::LstmStepper`], [`crate::GrnView`],
//! `MultiHeadAttention`'s projections).
//!
//! A layer computes each output row as `b[r] + vector::dot(W[r], x)` — a
//! serial add chain per row. Here the weights are stored transposed
//! (k-major) so that the same sums, in the same order, advance a block of
//! rows at a time.

use crate::Param;

/// Rows accumulated together by [`KMajor::acc_into`]: 8 `f64` accumulators
/// are four SSE2 registers, which leaves room for the broadcast operand and
/// the loaded weights on the baseline x86-64 target.
const ROW_BLOCK: usize = 8;

/// An owned k-major copy of a flat row-major `rows × cols` matrix `M`:
/// `t[k * rows + r] = M[r][k]`.
#[derive(Debug)]
pub(crate) struct KMajor {
    t: Vec<f64>,
    rows: usize,
}

impl KMajor {
    /// Transpose the row-major `m` (`rows × cols`).
    pub(crate) fn new(m: &[f64], rows: usize, cols: usize) -> Self {
        debug_assert_eq!(m.len(), rows * cols, "KMajor: shape mismatch");
        let mut t = vec![0.0; m.len()];
        for (r, row) in m.chunks_exact(cols).enumerate() {
            for (col, &v) in t.chunks_exact_mut(rows).zip(row) {
                col[r] = v;
            }
        }
        Self { t, rows }
    }

    /// `y += M x`.
    ///
    /// Bit-identical to `y[r] += vector::dot(M[r], x)` on the row-major `M`:
    /// every row's sum starts at `-0.0` (the identity `Sum for f64` folds
    /// from) and adds its products in ascending `k`, exactly as
    /// `vector::dot` does. Only the loop nest is turned inside out, so the
    /// independent rows of a block advance together and fill SIMD lanes
    /// instead of each being one serial add chain. A bias-free projection
    /// (`y = M x`, no `+ b`) fills `y` with `-0.0` first.
    pub(crate) fn acc_into(&self, x: &[f64], y: &mut [f64]) {
        let rows = self.rows;
        debug_assert_eq!(y.len(), rows, "KMajor: output dim mismatch");
        debug_assert_eq!(self.t.len(), rows * x.len(), "KMajor: input dim mismatch");
        let mut r0 = 0;
        while r0 + ROW_BLOCK <= rows {
            let mut acc = [-0.0f64; ROW_BLOCK];
            for (col, &xk) in self.t.chunks_exact(rows).zip(x) {
                for (a, &m) in acc.iter_mut().zip(&col[r0..r0 + ROW_BLOCK]) {
                    *a += m * xk;
                }
            }
            for (yr, a) in y[r0..r0 + ROW_BLOCK].iter_mut().zip(acc) {
                *yr += a;
            }
            r0 += ROW_BLOCK;
        }
        for (r, yr) in y.iter_mut().enumerate().skip(r0) {
            let mut a = -0.0f64;
            for (col, &xk) in self.t.chunks_exact(rows).zip(x) {
                a += col[r] * xk;
            }
            *yr += a;
        }
    }
}

/// A dense layer `y = b + W x` with `W` k-major (see
/// [`crate::Dense::kmajor`]): the same values as `Dense::apply_into`.
#[derive(Debug)]
pub(crate) struct KMajorDense<'a> {
    w: KMajor,
    b: &'a [f64],
}

impl<'a> KMajorDense<'a> {
    pub(crate) fn new(w: &Param, b: &'a Param, input: usize, output: usize) -> Self {
        Self { w: KMajor::new(&w.data, output, input), b: &b.data }
    }

    /// `y = b + W x` into a buffer of length `output`.
    pub(crate) fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(self.b);
        self.w.acc_into(x, y);
    }
}

/// One recurrent gate's weights in k-major order.
#[derive(Debug)]
pub(crate) struct KMajorGate<'a> {
    /// Input→gate weights, `hidden × input`.
    w: KMajor,
    /// Hidden→gate weights, `hidden × hidden`.
    u: KMajor,
    b: &'a [f64],
}

impl<'a> KMajorGate<'a> {
    pub(crate) fn new(w: &Param, u: &Param, b: &'a Param, input: usize, hidden: usize) -> Self {
        Self {
            w: KMajor::new(&w.data, hidden, input),
            u: KMajor::new(&u.data, hidden, hidden),
            b: &b.data,
        }
    }

    /// `out = (b + W x) + U h`, the association the reference cells use.
    pub(crate) fn pre_activation(&self, x: &[f64], h: &[f64], out: &mut [f64]) {
        out.copy_from_slice(self.b);
        self.w.acc_into(x, out);
        self.u.acc_into(h, out);
    }
}
