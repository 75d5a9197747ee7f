//! `exp`, `tanh` and the logistic `sigmoid`, built only from IEEE `+ − × ÷`,
//! `abs` / `copysign`, comparisons and `to_bits` / `from_bits`: no libm, no
//! FMA, no lookup table. Every step is one correctly rounded IEEE operation
//! in a fixed order, so a result is the same bits on every IEEE-754 target,
//! and the golden pins of the neural forecasters stop depending on the
//! host's libm (which differs across glibc versions, musl and macOS).
//!
//! Measured against the host's libm over ~2 M arguments each
//! (`tests/elementary.rs`): `exp` within 1 ULP, `tanh` within 2 and
//! `sigmoid` within 2. The same test holds the bits of 72 fixed arguments,
//! which is what a port to another target checks.
//!
//! [`sigmoid_in_place`] and [`tanh_in_place`] are the row forms the
//! inference paths of `rpas-nn` call: the scalar functions' bits, element
//! for element, from a loop with no branch in it when the whole row is on
//! the fast path, so independent elements share SIMD lanes.

/// ln 2 as `LN2_HI + LN2_LO`; the low 32 bits of `LN2_HI` are zero, so
/// `k · LN2_HI` is exact for every `k` that [`exp`] reaches.
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// 1.5 · 2⁵²: `(v + ROUND) − ROUND` is `v` rounded to the nearest integer
/// (ties to even) for |v| < 2⁵¹.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// fdlibm's Remez fit of `R(r²) = r (eʳ + 1) / (eʳ − 1)` as
/// `2 + P1 r² + … + P5 r¹⁰` on |r| ≤ ln 2 / 2.
const P1: f64 = 0.166_666_666_666_666_02;
const P2: f64 = -2.777_777_777_701_559_3e-3;
const P3: f64 = 6.613_756_321_437_934e-5;
const P4: f64 = -1.653_390_220_546_525_2e-6;
const P5: f64 = 4.138_136_797_057_238_5e-8;
/// Largest `x` with a finite `eˣ`, and smallest with a nonzero one.
const EXP_MAX: f64 = 709.782_712_893_384;
const EXP_MIN: f64 = -745.133_219_101_941_1;
/// Cephes' rational fit of `(tanh z − z) / z³ = P(z²) / Q(z²)` on
/// |z| < 0.625 (`Q` monic).
const TANH_P: [f64; 3] =
    [-0.964_399_179_425_052_3, -99.287_723_100_191_85, -1_614.687_684_417_084_5];
const TANH_Q: [f64; 3] = [112.811_678_491_632_93, 2_235.488_390_601_004_5, 4_844.063_053_251_255];

/// `eˣ`, within 1 ULP: fdlibm's algorithm. `x = k ln 2 + r` with
/// |r| ≤ ln 2 / 2 (Cody–Waite: `k ln 2` in two parts, `r` carried as
/// `hi − lo`), then `eʳ = 1 + r + r c / (2 − c)` with `c = r − r² P(r²)`,
/// scaled by 2ᵏ. Overflows to `+∞` above 709.78, is subnormal below −708.4
/// and 0 below −745.13; NaN in, NaN out.
#[inline]
pub fn exp(x: f64) -> f64 {
    // k ∈ [−1022, 1022] here, so eʳ · 2ᵏ is normal and one factor is exact.
    if x.abs() < 708.0 {
        exp_fast(x)
    } else {
        exp_edge(x)
    }
}

/// [`exp`] off its fast path: overflow, the subnormal range, underflow and
/// NaN. Out of line, so the inlined fast path stays small.
#[cold]
#[inline(never)]
fn exp_edge(x: f64) -> f64 {
    if x > EXP_MAX {
        return f64::INFINITY;
    }
    if x < EXP_MIN {
        return 0.0;
    }
    if x.is_nan() {
        return x;
    }
    let (er, k) = exp_reduced(x);
    // k ∈ [−1075, 1024]: 2ᵏ as two factors, neither leaving the normal
    // range, so the one rounding is the product's.
    er * pow2(k >> 1) * pow2(k - (k >> 1))
}

/// [`exp`]'s fast path, for |x| < 708.
#[inline(always)]
fn exp_fast(x: f64) -> f64 {
    let (er, k) = exp_reduced(x);
    er * pow2(k)
}

/// `(eʳ, k)` for finite `x` in `exp`'s domain, `x = k ln 2 + r`.
#[inline(always)]
fn exp_reduced(x: f64) -> (f64, i64) {
    let kd = x * std::f64::consts::LOG2_E + ROUND;
    // ROUND's ulp is 1, so kd's bits are ROUND's plus k: no float-to-int
    // conversion on the path.
    let k = kd.to_bits() as i64 - ROUND.to_bits() as i64;
    let kf = kd - ROUND;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let r2 = r * r;
    let c = r - r2 * (P1 + r2 * (P2 + r2 * (P3 + r2 * (P4 + r2 * P5))));
    (1.0 - ((lo - (r * c) / (2.0 - c)) - hi), k)
}

/// 2ᵏ for `k` in the normal exponent range.
#[inline(always)]
fn pow2(k: i64) -> f64 {
    f64::from_bits(((0x3ff + k) as u64) << 52)
}

/// `tanh x`, within 2 ULP and odd to the bit (`tanh(−0) = −0`). Below
/// |x| = 0.625 a rational fit in x² (no cancellation near 0); above it
/// `1 − 2 / (e^{2|x|} + 1)`, where the subtraction loses under one bit.
#[inline]
pub fn tanh(x: f64) -> f64 {
    let z = x.abs();
    let t = if z < 0.625 { tanh_near(z) } else { tanh_far(exp(2.0 * z)) };
    t.copysign(x)
}

/// `tanh z` for `0 ≤ z < 0.625`: the rational fit.
#[inline(always)]
fn tanh_near(z: f64) -> f64 {
    let s = z * z;
    let p = (TANH_P[0] * s + TANH_P[1]) * s + TANH_P[2];
    let q = ((s + TANH_Q[0]) * s + TANH_Q[1]) * s + TANH_Q[2];
    z + z * s * (p / q)
}

/// `tanh z` for `z ≥ 0.625` from `e = e^{2z}`.
#[inline(always)]
fn tanh_far(e: f64) -> f64 {
    1.0 - 2.0 / (e + 1.0)
}

/// Logistic `1 / (1 + e⁻ˣ)`, within 2 ULP. It takes `e = e^{−|x|} ≤ 1` and
/// selects the numerator (`1`, or `e` for negative `x`) instead of
/// branching, so it never overflows and keeps full relative precision in
/// the left tail down to the subnormals.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    logistic(x, exp(-x.abs()))
}

/// The logistic of `x` from `e = e^{−|x|}`.
#[inline(always)]
fn logistic(x: f64, e: f64) -> f64 {
    let num = if x < 0.0 { e } else { 1.0 };
    num / (1.0 + e)
}

/// [`sigmoid`] of every element, in place: the same bits. When every
/// element is on `exp`'s fast path (|x| < 708, which NaN is not) the row
/// runs as one branch-free loop, compiled for AVX2 on a host that has it;
/// any other row goes element by element.
pub fn sigmoid_in_place(xs: &mut [f64]) {
    if xs.iter().all(|x| x.abs() < 708.0) {
        fast_row(Row::Sigmoid, xs);
    } else {
        xs.iter_mut().for_each(|x| *x = sigmoid(*x));
    }
}

/// [`tanh`] of every element, in place: the same bits. When every element
/// has |x| < 354 (its `exp` argument `2|x|` on the fast path; NaN is not)
/// the row runs as one branch-free loop, compiled for AVX2 on a host that
/// has it; any other row goes element by element.
pub fn tanh_in_place(xs: &mut [f64]) {
    if xs.iter().all(|x| x.abs() < 354.0) {
        fast_row(Row::Tanh, xs);
    } else {
        xs.iter_mut().for_each(|x| *x = tanh(*x));
    }
}

/// Which function a [`fast_row`] computes.
#[derive(Clone, Copy)]
enum Row {
    Sigmoid,
    Tanh,
}

/// `row` of every element of `xs`, all on `exp`'s fast path, compiled for
/// AVX2 on a host that has it. AVX2 brings no FMA and rustc never contracts
/// `a * b + c`, so both instances do the same IEEE operations in the same
/// order: the bits do not depend on the host.
fn fast_row(row: Row, xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host has just reported AVX2.
        unsafe { fast_row_avx2(row, xs) };
        return;
    }
    fast_row_loop(row, xs);
}

/// [`fast_row_loop`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fast_row_avx2(row: Row, xs: &mut [f64]) {
    fast_row_loop(row, xs);
}

/// The loops of [`fast_row`]. Neither branches per element: `sigmoid`
/// selects its numerator, and `tanh` computes both of its regimes and
/// selects one. Written as one loop over elements, LLVM's cost model keeps
/// `tanh` scalar; over pairs of lanes, it packs them.
#[inline(always)]
fn fast_row_loop(row: Row, xs: &mut [f64]) {
    match row {
        Row::Sigmoid => xs.iter_mut().for_each(|x| *x = logistic(*x, exp_fast(-x.abs()))),
        Row::Tanh => {
            let (pairs, rest) = xs.as_chunks_mut::<2>();
            for pair in pairs {
                let z = pair.map(f64::abs);
                let near = z.map(tanh_near);
                let far = z.map(|z| tanh_far(exp_fast(2.0 * z)));
                for (x, ((z, near), far)) in pair.iter_mut().zip(z.iter().zip(near).zip(far)) {
                    *x = if *z < 0.625 { near } else { far }.copysign(*x);
                }
            }
            rest.iter_mut().for_each(|x| *x = tanh(*x));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop_assert;
    use crate::propcheck::forall;

    /// Each instance of the fast loops, whichever the host would pick,
    /// against the scalar functions on rows inside the fast path.
    #[test]
    fn every_fast_row_instance_matches_the_scalar_functions() {
        type Unary = fn(f64) -> f64;
        // Each function with a bound inside its fast path.
        const FORMS: [(Row, Unary, f64); 2] =
            [(Row::Sigmoid, sigmoid, 707.0), (Row::Tanh, tanh, 353.0)];
        forall("every_fast_row_instance_matches_the_scalar_functions", 256, |g| {
            for (row, scalar, bound) in FORMS {
                let n = g.usize_in(0, 68);
                let (lo, hi) = if g.u8() < 128 { (-8.0, 8.0) } else { (-bound, bound) };
                let xs = g.vec_f64(lo, hi, n, n + 1);
                let mut portable = xs.clone();
                fast_row_loop(row, &mut portable);
                let mut instances = vec![portable];
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut wide = xs.clone();
                    // SAFETY: the host has just reported AVX2.
                    unsafe { fast_row_avx2(row, &mut wide) };
                    instances.push(wide);
                }
                for ys in instances {
                    for (&x, &y) in xs.iter().zip(&ys) {
                        let want = scalar(x);
                        let (got, want) = (y.to_bits(), want.to_bits());
                        prop_assert!(got == want, "at {x:e}: {got:#x}, scalar {want:#x}");
                    }
                }
            }
            Ok(())
        });
    }
}
