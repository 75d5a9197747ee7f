//! Special functions: log-gamma, error function, regularised incomplete
//! beta, and the inverse standard-normal CDF. These power the Student-t and
//! Gaussian distributions used by the probabilistic forecasters.
//!
//! Implementations follow the classic Lanczos / continued-fraction /
//! Acklam formulations with accuracy well beyond what the forecasting
//! stack requires (~1e-10 absolute over the ranges exercised).

use crate::elementary::exp;

/// Natural log of the gamma function via the Lanczos approximation (g = 7).
///
/// Valid for `x > 0`.
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7, n = 9.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Where [`erfc`] switches from the series to the continued fraction.
const ERFC_TAIL: f64 = 2.5;

/// Complementary error function `1 − erf(x)`: the series in the bulk, the
/// continued fraction in the tails (relative error ~1e-15 there).
pub(crate) fn erfc(x: f64) -> f64 {
    if x.abs() < ERFC_TAIL {
        1.0 - erf_series(x)
    } else if x > 0.0 {
        erfc_tail(x)
    } else {
        2.0 - erfc_tail(-x)
    }
}

/// Non-alternating series for erf; every term is positive so there is no
/// cancellation. Converges quickly for |x| ≲ 3.
fn erf_series(x: f64) -> f64 {
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    let mut n = 1.0f64;
    while n < 200.0 {
        term *= 2.0 * x2 / (2.0 * n + 1.0);
        sum += term;
        if term.abs() < 1e-17 * sum.abs() {
            break;
        }
        n += 1.0;
    }
    2.0 / std::f64::consts::PI.sqrt() * exp(-x2) * sum
}

/// `erfc x` for `x ≥ ERFC_TAIL` from Laplace's continued fraction
/// `e^{−x²} / √π · 1 / (x + (1/2) / (x + 1 / (x + (3/2) / (x + …))))`,
/// evaluated bottom-up from a fixed depth that has converged to the last
/// bit by x = 2.5. `e^{−x²}` is taken as `e^{−s²} e^{(s − x)(s + x)}` with
/// `s` the upper half of `x`'s bits, so `s²` is exact and `x²`'s rounding
/// does not reach the result.
fn erfc_tail(x: f64) -> f64 {
    debug_assert!(x >= ERFC_TAIL);
    // erfc underflows to 0 from x ≈ 27.3; returning it here keeps x = ∞ off
    // `∞ − ∞` below.
    if x > 27.5 {
        return 0.0;
    }
    const DEPTH: u32 = 50;
    let mut t = x;
    for n in (1..=DEPTH).rev() {
        t = x + 0.5 * f64::from(n) / t;
    }
    let s = f64::from_bits(x.to_bits() & 0xffff_ffff_0000_0000);
    exp(-s * s) * exp((s - x) * (s + x)) / (std::f64::consts::PI.sqrt() * t)
}

/// Standard normal CDF.
pub(crate) fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Inverse standard-normal CDF via Peter Acklam's rational approximation,
/// polished with one Halley step (absolute error < 1e-13 on (0, 1); under
/// 1e-14 against AS241 at p = 1e-4, 1e-6, 1e-9 and 1e-12).
///
/// # Panics
/// Panics if `p` is outside `(0, 1)`.
pub fn norm_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "norm_quantile requires p in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the true CDF. Where erfc is in its
    // upper tail, F(x) = 1 − Q(x) rounds by up to 1e-16, more than the error
    // being corrected, so `F(x) − p` is taken as `(1 − p) − Q(x)` there:
    // both terms small, `1 − p` exact. (Below the tail the direct form is
    // kept, which leaves the bits at the planning levels 0.5–0.99 alone.)
    let z = x / std::f64::consts::SQRT_2;
    let e = if z > ERFC_TAIL { (1.0 - p) - 0.5 * erfc(z) } else { norm_cdf(x) - p };
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * exp(x * x / 2.0);
    x - u / (1.0 + x * u / 2.0)
}

/// Regularised incomplete beta function `I_x(a, b)` via the continued
/// fraction expansion (Numerical Recipes `betai`/`betacf`).
///
/// # Panics
/// Panics if `x` is outside `[0, 1]` or `a, b ≤ 0`.
#[expect(clippy::float_cmp, reason = "exact domain boundary: (1 - x).ln() diverges only at exactly 1")]
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!((0.0..=1.0).contains(&x), "beta_inc requires x in [0,1], got {x}");
    assert!(a > 0.0 && b > 0.0, "beta_inc requires a,b > 0");
    // exact domain boundaries: x.ln()/(1-x).ln() below diverge only at exactly 0 and 1
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = exp(ln_front);
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta function (modified Lentz).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const TINY: f64 = 1e-300;
    const EPS: f64 = 3e-15;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`, via the recurrence
/// `ψ(x) = ψ(x+1) − 1/x` and the asymptotic series for large arguments.
/// Needed for the gradient of the Student-t NLL with learned ν.
pub fn digamma(x: f64) -> f64 {
    assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut result = 0.0;
    let mut x = x;
    while x < 8.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)))
}

/// Softplus `ln(1 + e^x)`, computed stably for large |x|. Used to map
/// unconstrained network outputs to positive scale parameters (σ, ν); its
/// derivative is [`crate::elementary::sigmoid`].
#[inline]
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        exp(x)
    } else {
        exp(x).ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)!
        let facts: [f64; 7] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, f) in facts.iter().enumerate() {
            let x = (i + 1) as f64;
            assert!((ln_gamma(x) - f.ln()).abs() < 1e-10, "Γ({x})");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn erf_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-15);
        assert!((erfc(1.0) - (1.0 - 0.842_700_792_949_714_9)).abs() < 1e-13);
        assert!((erfc(-1.0) - (1.0 + 0.842_700_792_949_714_9)).abs() < 1e-13);
        assert!((erfc(3.0) - (1.0 - 0.999_977_909_503_001_4)).abs() < 1e-10);
        assert!((erfc(2.0) - 0.004_677_734_981_063_127).abs() < 1e-13);
    }

    #[test]
    fn erfc_tail_is_accurate_to_the_last_digits() {
        // Correctly rounded values (40-digit arithmetic).
        let reference = [
            (2.5, 4.069_520_174_449_589e-4),
            (3.0, 2.209_049_699_858_544e-5),
            (4.0, 1.541_725_790_028_002e-8),
            (5.0, 1.537_459_794_428_035e-12),
            (10.0, 2.088_487_583_762_545e-45),
            (20.0, 5.395_865_611_607_901e-176),
            (26.0, 5.663_192_408_856_143e-296),
        ];
        for (x, want) in reference {
            assert!((erfc(x) / want - 1.0).abs() < 1e-15, "erfc({x}) = {:e}", erfc(x));
            assert!((erfc(-x) - (2.0 - want)).abs() < 1e-15, "erfc(-{x})");
        }
        assert_eq!(erfc(30.0), 0.0);
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
    }

    #[test]
    fn norm_cdf_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.0, 3.5] {
            assert!((norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-12, "x={x}");
        }
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn norm_quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999] {
            let x = norm_quantile(p);
            assert!((norm_cdf(x) - p).abs() < 1e-9, "p={p} x={x}");
        }
    }

    #[test]
    fn norm_quantile_known_points() {
        assert!(norm_quantile(0.5).abs() < 1e-12);
        assert!((norm_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-8);
        assert!((norm_quantile(0.841_344_746_068_543) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn norm_quantile_tails_match_as241() {
        // AS241 (Python's `statistics.NormalDist().inv_cdf`) at p and at the
        // double nearest 1 − p, whose quantile is not −x(p): 1 − 1e-9 is
        // 2.8e-17 off, which moves x by 4.6e-9.
        let reference = [
            (1e-4, -3.719_016_485_455_68, 3.719_016_485_455_708_4),
            (1e-6, -4.753_424_308_822_899, 4.753_424_308_817_089),
            (1e-9, -5.997_807_015_007_686_5, 5.997_807_019_601_638),
        ];
        for (p, lower, upper) in reference {
            assert!((norm_quantile(p) - lower).abs() <= 1e-12, "p = {p:e}: {}", norm_quantile(p));
            let q = 1.0 - p;
            assert!((norm_quantile(q) - upper).abs() <= 1e-12, "p = {q}: {}", norm_quantile(q));
        }
    }

    #[test]
    #[should_panic(expected = "requires p in (0,1)")]
    fn norm_quantile_rejects_boundary() {
        norm_quantile(1.0);
    }

    #[test]
    fn beta_inc_boundaries() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn beta_inc_uniform_case() {
        // I_x(1,1) = x.
        for &x in &[0.1, 0.3, 0.7, 0.95] {
            assert!((beta_inc(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_inc_symmetry() {
        // I_x(a,b) = 1 − I_{1−x}(b,a).
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (4.0, 1.5, 0.2)] {
            let lhs = beta_inc(a, b, x);
            let rhs = 1.0 - beta_inc(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-10, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn beta_inc_half_half() {
        // I_x(1/2, 1/2) = (2/π) asin(√x).
        for &x in &[0.1f64, 0.4, 0.8] {
            let expect = 2.0 / std::f64::consts::PI * x.sqrt().asin();
            assert!((beta_inc(0.5, 0.5, x) - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn digamma_reference_values() {
        // ψ(1) = −γ (Euler–Mascheroni).
        assert!((digamma(1.0) + 0.577_215_664_901_532_9).abs() < 1e-10);
        // ψ(1/2) = −γ − 2 ln 2.
        assert!((digamma(0.5) + 0.577_215_664_901_532_9 + 2.0 * 2f64.ln()).abs() < 1e-10);
        // Recurrence ψ(x+1) = ψ(x) + 1/x.
        for &x in &[0.3, 1.7, 4.2] {
            assert!((digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-10);
        }
        // Matches d/dx ln Γ numerically.
        let h = 1e-6;
        for &x in &[0.8, 2.5, 10.0] {
            let num = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h);
            assert!((num - digamma(x)).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn softplus_stable_and_accurate() {
        assert!((softplus(0.0) - 2f64.ln()).abs() < 1e-12);
        assert!((softplus(100.0) - 100.0).abs() < 1e-12);
        assert!(softplus(-100.0) > 0.0);
        assert!(softplus(-100.0) < 1e-40);
        // Derivative check via finite differences.
        for &x in &[-2.0, 0.0, 1.5] {
            let h = 1e-6;
            let num = (softplus(x + h) - softplus(x - h)) / (2.0 * h);
            assert!((num - crate::elementary::sigmoid(x)).abs() < 1e-6);
        }
    }
}
