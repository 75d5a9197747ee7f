//! The k-major matrix–vector kernels under the inference paths. A fitted
//! model builds its k-major form once ([`crate::LstmKMajor`],
//! [`crate::GruKMajor`], [`crate::GrnKMajor`], [`crate::AttentionKMajor`])
//! and every predict borrows it.
//!
//! A layer computes each output row as `b[r] + vector::dot(W[r], x)` — a
//! serial add chain per row. Here the weights are stored transposed
//! (k-major) so that the same sums, in the same order, advance a block of
//! rows at a time; [`KMajor::acc_rows_into`] also advances a block of
//! input rows beside it, so each weight column loaded serves several
//! positions of a sequence.

use crate::Param;

/// Rows accumulated together by the portable kernel: 8 `f64` accumulators
/// are four SSE2 registers, which leaves room for the broadcast operand and
/// the loaded weights on the baseline x86-64 target.
const ROW_BLOCK: usize = 8;

/// Rows accumulated together by the AVX2 instance: 16 accumulators are
/// four 256-bit registers. A wider block spills (48 rows ran slower than 8).
#[cfg(target_arch = "x86_64")]
const AVX2_ROW_BLOCK: usize = 16;

/// Input rows [`KMajor::acc_rows_into`] advances beside one block of output
/// rows: two inputs × one row block of accumulators, the weight block and
/// the broadcast operand fill 13 of the 16 registers in either instance.
const INPUT_BLOCK: usize = 2;

/// An owned k-major copy of a flat row-major `rows × cols` matrix `M`:
/// `t[k * rows + r] = M[r][k]`.
#[derive(Debug)]
pub(crate) struct KMajor {
    t: Vec<f64>,
    rows: usize,
    cols: usize,
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
        Self { t, rows, cols }
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
        debug_assert_eq!(x.len(), self.cols, "KMajor: input dim mismatch");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host has just reported AVX2.
            unsafe { acc_avx2(&self.t, self.rows, x, y) };
            return;
        }
        acc::<ROW_BLOCK>(&self.t, self.rows, x, y);
    }

    /// `ys[i] += M xs[i]` for every row `i` of the row-major `n × cols`
    /// inputs `xs` into the row-major `n × rows` outputs `ys`.
    ///
    /// Every output is the bits of [`KMajor::acc_into`] on its own input
    /// row: a sum from `-0.0` over ascending `k`, no FMA, then one add into
    /// `ys`. The loop nest holds [`INPUT_BLOCK`] input rows beside each
    /// block of output rows, so a weight column is loaded once per input
    /// block instead of once per input; inputs past the last whole block
    /// go through the one-row kernel.
    pub(crate) fn acc_rows_into(&self, xs: &[f64], ys: &mut [f64]) {
        debug_assert_eq!(xs.len() % self.cols.max(1), 0, "KMajor: ragged input rows");
        debug_assert_eq!(
            xs.len() / self.cols.max(1) * self.rows,
            ys.len(),
            "KMajor: input and output row counts differ"
        );
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host has just reported AVX2.
            unsafe { acc_rows_avx2(&self.t, self.rows, self.cols, xs, ys) };
            return;
        }
        acc_rows::<ROW_BLOCK>(&self.t, self.rows, self.cols, xs, ys);
    }
}

/// [`acc`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn acc_avx2(t: &[f64], rows: usize, x: &[f64], y: &mut [f64]) {
    acc::<AVX2_ROW_BLOCK>(t, rows, x, y);
}

/// [`acc_rows`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn acc_rows_avx2(t: &[f64], rows: usize, cols: usize, xs: &[f64], ys: &mut [f64]) {
    acc_rows::<AVX2_ROW_BLOCK>(t, rows, cols, xs, ys);
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
        *yr += row_sum(t, rows, x, r);
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

/// The kernel of [`KMajor::acc_rows_into`]: whole blocks of
/// [`INPUT_BLOCK`] inputs through [`acc_rows_blocks`], then each input left
/// through [`acc`].
#[inline(always)]
fn acc_rows<const B: usize>(t: &[f64], rows: usize, cols: usize, xs: &[f64], ys: &mut [f64]) {
    let mut inputs = xs.chunks_exact(INPUT_BLOCK * cols);
    let mut outputs = ys.chunks_exact_mut(INPUT_BLOCK * rows);
    for (xb, yb) in (&mut inputs).zip(&mut outputs) {
        let mut r0 = acc_rows_blocks::<B>(t, rows, xb, yb, 0);
        if B > ROW_BLOCK {
            r0 = acc_rows_blocks::<ROW_BLOCK>(t, rows, xb, yb, r0);
        }
        for (x, y) in xb.chunks_exact(cols).zip(yb.chunks_exact_mut(rows)) {
            for (r, yr) in y.iter_mut().enumerate().skip(r0) {
                *yr += row_sum(t, rows, x, r);
            }
        }
    }
    let rest = inputs.remainder().chunks_exact(cols);
    for (x, y) in rest.zip(outputs.into_remainder().chunks_exact_mut(rows)) {
        acc::<B>(t, rows, x, y);
    }
}

/// Row `r`'s sum `Σ_k M[r][k] x[k]` from `-0.0`, one product at a time.
#[inline(always)]
fn row_sum(t: &[f64], rows: usize, x: &[f64], r: usize) -> f64 {
    let mut a = -0.0f64;
    for (col, &xk) in t.chunks_exact(rows).zip(x) {
        a += col[r] * xk;
    }
    a
}

/// [`acc_blocks`] for the [`INPUT_BLOCK`] inputs of the row-major `xs`
/// (`INPUT_BLOCK × cols`) into the row-major `ys` (`INPUT_BLOCK × rows`):
/// each weight block loaded once serves every input.
#[inline(always)]
fn acc_rows_blocks<const B: usize>(
    t: &[f64],
    rows: usize,
    xs: &[f64],
    ys: &mut [f64],
    mut r0: usize,
) -> usize {
    let cols = xs.len() / INPUT_BLOCK;
    while r0 + B <= rows {
        let mut acc = [[-0.0f64; B]; INPUT_BLOCK];
        for (k, col) in t.chunks_exact(rows).enumerate() {
            let col = &col[r0..r0 + B];
            for (p, ap) in acc.iter_mut().enumerate() {
                let xk = xs[p * cols + k];
                for (a, &m) in ap.iter_mut().zip(col) {
                    *a += m * xk;
                }
            }
        }
        for (y, ap) in ys.chunks_exact_mut(rows).zip(acc) {
            for (yr, a) in y[r0..r0 + B].iter_mut().zip(ap) {
                *yr += a;
            }
        }
        r0 += B;
    }
    r0
}

/// A dense layer `y = b + W x` with `W` in k-major order, built by
/// `Dense::kmajor` as part of a fitted model's inference form: the values
/// of `Dense::apply_into`.
#[derive(Debug)]
pub(crate) struct DenseKMajor {
    w: KMajor,
    b: Vec<f64>,
}

impl DenseKMajor {
    pub(crate) fn new(w: &Param, b: &Param, input: usize, output: usize) -> Self {
        Self { w: KMajor::new(&w.data, output, input), b: b.data.clone() }
    }

    /// Output width.
    pub(crate) fn output(&self) -> usize {
        self.b.len()
    }

    /// `y = b + W x` into a buffer of length `output`.
    pub(crate) fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(&self.b);
        self.w.acc_into(x, y);
    }

    /// [`DenseKMajor::apply_into`] for every row of the row-major `xs`
    /// into the matching row of `ys`, as one multi-row pass.
    pub(crate) fn apply_rows(&self, xs: &[f64], ys: &mut [f64]) {
        for y in ys.chunks_exact_mut(self.b.len()) {
            y.copy_from_slice(&self.b);
        }
        self.w.acc_rows_into(xs, ys);
    }
}

/// One recurrent gate's weights in k-major order: `input` is `b + W x`
/// (`hidden × input`), `hidden` the recurrent `U` (`hidden × hidden`).
#[derive(Debug)]
pub(crate) struct GateKMajor {
    pub(crate) input: DenseKMajor,
    pub(crate) hidden: KMajor,
}

impl GateKMajor {
    pub(crate) fn new(w: &Param, u: &Param, b: &Param, input: usize, hidden: usize) -> Self {
        Self {
            input: DenseKMajor::new(w, b, input, hidden),
            hidden: KMajor::new(&u.data, hidden, hidden),
        }
    }

    /// `out = (b + W x) + U h`, the association the reference cells use.
    pub(crate) fn pre_activation(&self, x: &[f64], h: &[f64], out: &mut [f64]) {
        self.input.apply_into(x, out);
        self.hidden.acc_into(h, out);
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

    /// `y0 + Σ_k M[r][k] x[k]`, the sum folded as `vector::dot` folds it.
    fn reference(t: &[f64], rows: usize, x: &[f64], r: usize, y0: f64) -> f64 {
        y0 + x.iter().enumerate().fold(-0.0, |a, (k, &xk)| a + t[k * rows + r] * xk)
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
                let want = reference(&t, rows, &x, r, y0);
                prop_assert!(
                    p.to_bits() == want.to_bits() && w.to_bits() == want.to_bits(),
                    "{rows} × {cols}, row {r}: portable {p:e}, avx2 {w:e}, reference {want:e}"
                );
            }
            Ok(())
        });
    }

    #[test]
    fn multi_row_instances_agree_with_the_dot_order_reference() {
        // Row counts at both row blocks' edges and the head's width class,
        // input counts from one to past a 72-position context, whole input
        // blocks and a block left short.
        const ROWS: [usize; 7] = [8, 15, 16, 17, 33, 48, 128];
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        forall("multi_row_instances_agree_with_the_dot_order_reference", 256, |g| {
            let rows =
                if g.u8() < 160 { ROWS[g.usize_in(0, ROWS.len())] } else { g.usize_in(1, 68) };
            let cols = g.usize_in(1, 41);
            let n = g.usize_in(1, 81);
            let km = KMajor::new(
                &(0..rows * cols).map(|_| value(g, -2.0, 2.0)).collect::<Vec<_>>(),
                rows,
                cols,
            );
            let xs: Vec<f64> = (0..n * cols).map(|_| value(g, -3.0, 3.0)).collect();
            let ys: Vec<f64> = (0..n * rows).map(|_| value(g, -1.0, 1.0)).collect();
            let mut instances = vec![("portable", ys.clone())];
            acc_rows::<ROW_BLOCK>(&km.t, rows, cols, &xs, &mut instances[0].1);
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                let mut wide = ys.clone();
                // SAFETY: the host has just reported AVX2.
                unsafe { acc_rows_avx2(&km.t, rows, cols, &xs, &mut wide) };
                instances.push(("avx2", wide));
            }
            let mut dispatched = ys.clone();
            km.acc_rows_into(&xs, &mut dispatched);
            instances.push(("dispatched", dispatched));
            for (i, x) in xs.chunks_exact(cols).enumerate() {
                for r in 0..rows {
                    let want = reference(&km.t, rows, x, r, ys[i * rows + r]);
                    for (name, got) in &instances {
                        let got = got[i * rows + r];
                        prop_assert!(
                            got.to_bits() == want.to_bits(),
                            "{rows} × {cols}, {n} inputs, input {i} row {r}: \
                             {name} {got:e}, reference {want:e}"
                        );
                    }
                }
            }
            Ok(())
        });
    }
}
