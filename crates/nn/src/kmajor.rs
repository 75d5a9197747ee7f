//! The k-major matrix–vector kernel under the inference paths
//! ([`crate::GruStepper`], [`crate::LstmStepper`], [`crate::GrnView`],
//! `MultiHeadAttention`'s projections).
//!
//! A layer computes each output row as `b[r] + vector::dot(W[r], x)` — a
//! serial add chain per row. Here the weights are stored transposed
//! (k-major) so that the same sums, in the same order, advance a block of
//! rows at a time.

use crate::Param;

/// Rows accumulated together by the portable kernel: 8 `f64` accumulators
/// are four SSE2 registers, which leaves room for the broadcast operand and
/// the loaded weights on the baseline x86-64 target.
const ROW_BLOCK: usize = 8;

/// Rows accumulated together by the AVX2 instance: 16 accumulators are
/// four 256-bit registers. A wider block spills (48 rows ran slower than 8).
#[cfg(target_arch = "x86_64")]
const AVX2_ROW_BLOCK: usize = 16;

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
    ///
    /// On an AVX2 host the same loop runs compiled for AVX2 with a wider
    /// block. AVX2 brings no FMA and rustc never contracts `a * b + c`, so
    /// every product and sum is the same IEEE operation in the same order:
    /// the bits do not depend on the instance.
    pub(crate) fn acc_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(y.len(), self.rows, "KMajor: output dim mismatch");
        debug_assert_eq!(self.t.len(), self.rows * x.len(), "KMajor: input dim mismatch");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host has just reported AVX2.
            unsafe { acc_avx2(&self.t, self.rows, x, y) };
            return;
        }
        acc::<ROW_BLOCK>(&self.t, self.rows, x, y);
    }
}

/// [`acc`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn acc_avx2(t: &[f64], rows: usize, x: &[f64], y: &mut [f64]) {
    acc::<AVX2_ROW_BLOCK>(t, rows, x, y);
}

/// The kernel of [`KMajor::acc_into`] on the k-major `t` of `rows` rows:
/// blocks of `B` rows, then of [`ROW_BLOCK`], then the rows left one at a
/// time.
#[inline(always)]
fn acc<const B: usize>(t: &[f64], rows: usize, x: &[f64], y: &mut [f64]) {
    let mut r0 = acc_blocks::<B>(t, rows, x, y, 0);
    if B > ROW_BLOCK {
        r0 = acc_blocks::<ROW_BLOCK>(t, rows, x, y, r0);
    }
    for (r, yr) in y.iter_mut().enumerate().skip(r0) {
        let mut a = -0.0f64;
        for (col, &xk) in t.chunks_exact(rows).zip(x) {
            a += col[r] * xk;
        }
        *yr += a;
    }
}

/// Whole blocks of `B` rows from row `r0` on; returns the first row left.
#[inline(always)]
fn acc_blocks<const B: usize>(
    t: &[f64],
    rows: usize,
    x: &[f64],
    y: &mut [f64],
    mut r0: usize,
) -> usize {
    while r0 + B <= rows {
        let mut acc = [-0.0f64; B];
        for (col, &xk) in t.chunks_exact(rows).zip(x) {
            for (a, &m) in acc.iter_mut().zip(&col[r0..r0 + B]) {
                *a += m * xk;
            }
        }
        for (yr, a) in y[r0..r0 + B].iter_mut().zip(acc) {
            *yr += a;
        }
        r0 += B;
    }
    r0
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

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::prop_assert;
    use rpas_tsmath::propcheck::{forall, Gen};

    /// Uniform in `[lo, hi)`, or a signed zero one time in eight.
    fn value(g: &mut Gen, lo: f64, hi: f64) -> f64 {
        match g.u8() {
            0..16 => 0.0,
            16..32 => -0.0,
            _ => g.f64_in(lo, hi),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_and_avx2_instances_agree_bit_for_bit() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // Both blocks' edges, then any shape.
        const ROWS: [usize; 6] = [8, 15, 16, 17, 33, 48];
        forall("portable_and_avx2_instances_agree_bit_for_bit", 512, |g| {
            let rows =
                if g.u8() < 128 { ROWS[g.usize_in(0, ROWS.len())] } else { g.usize_in(1, 68) };
            let cols = g.usize_in(1, 49);
            let t: Vec<f64> = (0..rows * cols).map(|_| value(g, -2.0, 2.0)).collect();
            let x: Vec<f64> = (0..cols).map(|_| value(g, -3.0, 3.0)).collect();
            let y: Vec<f64> = (0..rows).map(|_| value(g, -1.0, 1.0)).collect();
            let (mut portable, mut wide) = (y.clone(), y.clone());
            acc::<ROW_BLOCK>(&t, rows, &x, &mut portable);
            // SAFETY: the host has just reported AVX2.
            unsafe { acc_avx2(&t, rows, &x, &mut wide) };
            for (r, ((&p, &w), &y0)) in portable.iter().zip(&wide).zip(&y).enumerate() {
                // The row's own sum, as `vector::dot` folds it.
                let a = (0..cols).fold(-0.0, |a, k| a + t[k * rows + r] * x[k]);
                let want = y0 + a;
                prop_assert!(
                    p.to_bits() == want.to_bits() && w.to_bits() == want.to_bits(),
                    "{rows} × {cols}, row {r}: portable {p:e}, avx2 {w:e}, reference {want:e}"
                );
            }
            Ok(())
        });
    }
}
