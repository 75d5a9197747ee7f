//! Seeded randomness for the whole workspace — implemented from scratch so
//! the build needs no external crates and every bit of randomness is
//! reproducible from a `u64` seed.
//!
//! All stochastic components of the reproduction (trace generation, weight
//! init, Monte-Carlo forecast sampling) route through explicit `u64` seeds so
//! every experiment is deterministic. The raw bit stream is xoshiro256++
//! (Blackman–Vigna) seeded through SplitMix64; the samplers on top are
//! implemented from first principles (Box–Muller, Marsaglia–Tsang,
//! inversion).

/// Source of uniform random 64-bit words. This is the workspace's only RNG
/// abstraction: samplers and layer initialisers take `&mut dyn RngCore` so
/// tests can substitute counting or constant streams.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53-bit resolution.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The workspace-standard generator: **xoshiro256++**. Fast, 256-bit state,
/// passes BigCrush; more than adequate for Monte-Carlo sampling and
/// weight init. Not cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Construct from a `u64` seed. The 256-bit state is expanded with
    /// SplitMix64 (the seeding procedure recommended by the xoshiro
    /// authors), so nearby seeds still yield uncorrelated streams.
    pub(crate) fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // SplitMix64 never returns four zeros, so the xoshiro state is valid.
        Self { s: [next(), next(), next(), next()] }
    }
}

impl RngCore for Rng64 {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Construct the workspace-standard RNG from a `u64` seed.
pub fn seeded(seed: u64) -> Rng64 {
    Rng64::new(seed)
}

/// Derive a child seed from a parent seed and a stream index using
/// SplitMix64, so independent components can share one experiment seed
/// without correlated streams.
pub fn child_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform sample in `[0, 1)`.
pub fn uniform(rng: &mut dyn RngCore) -> f64 {
    rng.next_f64()
}

/// Uniform sample in `(0, 1)` — open on both ends so it is safe to feed into
/// quantile functions and logs.
pub fn uniform_open(rng: &mut dyn RngCore) -> f64 {
    loop {
        let u = rng.next_f64();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

/// Uniform sample in `[0, n)` without modulo bias (Lemire rejection on the
/// widening multiply) — index selection for mini-batch window sampling.
///
/// # Panics
/// Panics if `n == 0`.
pub fn uniform_index(rng: &mut dyn RngCore, n: usize) -> usize {
    assert!(n > 0, "uniform_index requires n > 0");
    let n = n as u64;
    loop {
        let x = rng.next_u64();
        let (hi, lo) = {
            let wide = (x as u128) * (n as u128);
            ((wide >> 64) as u64, wide as u64)
        };
        // Reject the partial final stripe to keep every index equally likely.
        if lo >= n.wrapping_neg() % n {
            return hi as usize;
        }
    }
}

/// Standard-normal sample via the Box–Muller transform.
pub fn standard_normal(rng: &mut dyn RngCore) -> f64 {
    let u1 = uniform_open(rng);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Gamma(shape, scale = 1) sample via Marsaglia–Tsang, with the shape < 1
/// boost `Gamma(a) = Gamma(a+1) · U^{1/a}`.
///
/// # Panics
/// Panics if `shape <= 0`.
pub(crate) fn gamma(rng: &mut dyn RngCore, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma requires shape > 0, got {shape}");
    if shape < 1.0 {
        let u = uniform_open(rng);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u = uniform_open(rng);
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Chi-squared sample with `nu` degrees of freedom.
pub(crate) fn chi_squared(rng: &mut dyn RngCore, nu: f64) -> f64 {
    2.0 * gamma(rng, nu / 2.0)
}

/// Pareto(scale `x_m`, shape `alpha`) sample by inversion — heavy-tailed
/// spike magnitudes in the trace generators.
pub fn pareto(rng: &mut dyn RngCore, x_m: f64, alpha: f64) -> f64 {
    assert!(x_m > 0.0 && alpha > 0.0, "pareto requires positive parameters");
    x_m / uniform_open(rng).powf(1.0 / alpha)
}

/// Poisson(lambda) sample. Uses Knuth multiplication for small λ and a
/// normal approximation (rounded, clamped at 0) for large λ.
pub fn poisson(rng: &mut dyn RngCore, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "poisson requires lambda >= 0");
    // exact degenerate-rate short-circuit; the Knuth loop below is correct for any lambda > 0
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = crate::elementary::exp(-lambda);
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= uniform_open(rng);
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
    let x = lambda + lambda.sqrt() * standard_normal(rng);
    x.round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = seeded(13);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_index_is_unbiased_and_in_range() {
        let mut rng = seeded(17);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            let i = uniform_index(&mut rng, 5);
            counts[i] += 1;
        }
        for &c in &counts {
            // Expect 10_000 per bucket; 4 sigma ≈ 360.
            assert!((c as i64 - 10_000).abs() < 500, "counts {counts:?}");
        }
    }

    #[test]
    fn child_seeds_differ_per_stream() {
        let s0 = child_seed(7, 0);
        let s1 = child_seed(7, 1);
        let s2 = child_seed(8, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // Deterministic.
        assert_eq!(child_seed(7, 0), s0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(1);
        let xs: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        let (m, v) = moments(&xs);
        assert!(m.abs() < 0.03, "mean {m}");
        assert!((v - 1.0).abs() < 0.05, "var {v}");
    }

    #[test]
    fn gamma_moments() {
        let mut rng = seeded(2);
        for &shape in &[0.5, 1.0, 3.0, 9.0] {
            let xs: Vec<f64> = (0..20_000).map(|_| gamma(&mut rng, shape)).collect();
            let (m, v) = moments(&xs);
            assert!((m - shape).abs() < 0.1 * shape.max(1.0), "shape {shape} mean {m}");
            assert!((v - shape).abs() < 0.2 * shape.max(1.0), "shape {shape} var {v}");
            assert!(xs.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn chi_squared_mean_is_nu() {
        let mut rng = seeded(3);
        let xs: Vec<f64> = (0..20_000).map(|_| chi_squared(&mut rng, 5.0)).collect();
        let (m, _) = moments(&xs);
        assert!((m - 5.0).abs() < 0.15, "mean {m}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = seeded(5);
        let xs: Vec<f64> = (0..5_000).map(|_| pareto(&mut rng, 2.0, 3.0)).collect();
        assert!(xs.iter().all(|&x| x >= 2.0));
        let (m, _) = moments(&xs);
        // E = alpha x_m / (alpha-1) = 3.
        assert!((m - 3.0).abs() < 0.2, "mean {m}");
    }

    #[test]
    fn poisson_small_and_large_lambda() {
        let mut rng = seeded(6);
        for &lam in &[0.5, 4.0, 100.0] {
            let xs: Vec<f64> = (0..20_000).map(|_| poisson(&mut rng, lam) as f64).collect();
            let (m, _) = moments(&xs);
            assert!((m - lam).abs() < 0.05 * lam.max(2.0), "lambda {lam} mean {m}");
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn uniform_open_never_hits_bounds() {
        let mut rng = seeded(7);
        for _ in 0..10_000 {
            let u = uniform_open(&mut rng);
            assert!(u > 0.0 && u < 1.0);
        }
    }
}
