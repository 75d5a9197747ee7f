//! The k-major matrix–vector kernel under the inference steppers
//! ([`crate::GruStepper`], [`crate::LstmStepper`]).
//!
//! A recurrent gate is `(b + W x) + U h`. The reference cells compute each
//! row of `W x` and `U h` as one `vector::dot` — a serial add chain per
//! row. Here the weights are stored transposed (k-major) so that the same
//! sums, in the same order, advance a block of rows at a time.

use crate::Param;

/// Rows accumulated together by [`mat_acc_kmajor`]: 8 `f64` accumulators
/// are four SSE2 registers, which leaves room for the broadcast operand and
/// the loaded weights on the baseline x86-64 target.
const ROW_BLOCK: usize = 8;

/// `y += M x` where `mt` is `M` stored k-major (`mt[k * rows + r] = M[r][k]`).
///
/// Bit-identical to `y[r] += vector::dot(M[r], x)` on the row-major `M`:
/// every row's sum starts at `-0.0` (the identity `Sum for f64` folds from)
/// and adds its products in ascending `k`, exactly as `vector::dot` does.
/// Only the loop nest is turned inside out, so the independent rows of a
/// block advance together and fill SIMD lanes instead of each being one
/// serial add chain.
fn mat_acc_kmajor(mt: &[f64], x: &[f64], y: &mut [f64]) {
    let rows = y.len();
    debug_assert_eq!(mt.len(), rows * x.len(), "mat_acc_kmajor: shape mismatch");
    let mut r0 = 0;
    while r0 + ROW_BLOCK <= rows {
        let mut acc = [-0.0f64; ROW_BLOCK];
        for (col, &xk) in mt.chunks_exact(rows).zip(x) {
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
        for (col, &xk) in mt.chunks_exact(rows).zip(x) {
            a += col[r] * xk;
        }
        *yr += a;
    }
}

/// A flat row-major `rows × cols` matrix in k-major order:
/// `out[k * rows + r] = m[r * cols + k]`.
fn k_major(m: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    debug_assert_eq!(m.len(), rows * cols, "k_major: shape mismatch");
    let mut out = vec![0.0; m.len()];
    for (r, row) in m.chunks_exact(cols).enumerate() {
        for (col, &v) in out.chunks_exact_mut(rows).zip(row) {
            col[r] = v;
        }
    }
    out
}

/// One recurrent gate's weights in k-major order (see [`mat_acc_kmajor`]).
#[derive(Debug)]
pub(crate) struct KMajorGate<'a> {
    /// Input→gate weights, `input × hidden`.
    wt: Vec<f64>,
    /// Hidden→gate weights, `hidden × hidden`.
    ut: Vec<f64>,
    b: &'a [f64],
}

impl<'a> KMajorGate<'a> {
    pub(crate) fn new(w: &Param, u: &Param, b: &'a Param, input: usize, hidden: usize) -> Self {
        Self {
            wt: k_major(&w.data, hidden, input),
            ut: k_major(&u.data, hidden, hidden),
            b: &b.data,
        }
    }

    /// `out = (b + W x) + U h`, the association the reference cells use.
    pub(crate) fn pre_activation(&self, x: &[f64], h: &[f64], out: &mut [f64]) {
        out.copy_from_slice(self.b);
        mat_acc_kmajor(&self.wt, x, out);
        mat_acc_kmajor(&self.ut, h, out);
    }
}
