//! Signal components composed by the trace generator: seasonality, trend,
//! autocorrelated noise, heavy-tailed spikes, and level shifts.

use rpas_tsmath::rng::RngCore;
use rpas_tsmath::rng;

/// Daily seasonal component: a fundamental sinusoid plus a second harmonic,
/// peaking at `peak_frac` of the day (e.g. 0.58 ≈ 2 pm for business load).
///
/// `t` is the step index, `steps_per_day` the number of samples per day.
pub(crate) fn diurnal(t: usize, steps_per_day: usize, amplitude: f64, peak_frac: f64) -> f64 {
    let phase = 2.0 * std::f64::consts::PI * (t % steps_per_day) as f64 / steps_per_day as f64;
    let peak = 2.0 * std::f64::consts::PI * peak_frac;
    amplitude * ((phase - peak).cos() + 0.25 * (2.0 * (phase - peak)).cos())
}

/// Weekly modulation: scales weekday load up and weekend load down.
/// Returns a multiplicative factor around 1.0.
pub(crate) fn weekly(t: usize, steps_per_day: usize, weekend_dip: f64) -> f64 {
    let day = (t / steps_per_day) % 7;
    if day >= 5 {
        1.0 - weekend_dip
    } else {
        1.0 + weekend_dip * 2.0 / 5.0 // conserve the weekly mean
    }
}

/// Linear trend in units per day.
pub(crate) fn trend(t: usize, steps_per_day: usize, per_day: f64) -> f64 {
    per_day * t as f64 / steps_per_day as f64
}

/// Stateful AR(1) noise process `n_t = φ n_{t−1} + ε_t`,
/// `ε ~ N(0, σ²(1−φ²))` so the marginal std is `σ`.
#[derive(Debug)]
pub(crate) struct Ar1Noise {
    phi: f64,
    innovation_std: f64,
    state: f64,
}

impl Ar1Noise {
    /// New AR(1) process with autocorrelation `phi ∈ (−1, 1)` and marginal
    /// standard deviation `sigma`.
    pub(crate) fn new(phi: f64, sigma: f64) -> Self {
        assert!(phi.abs() < 1.0, "AR(1) requires |phi| < 1");
        assert!(sigma >= 0.0, "noise std must be non-negative");
        Self { phi, innovation_std: sigma * (1.0 - phi * phi).sqrt(), state: 0.0 }
    }

    /// Advance one step with the innovation scaled by `scale` — the hook
    /// for conditional heteroskedasticity (busy or bursty periods are
    /// noisier in real cluster traces).
    pub(crate) fn step_scaled(&mut self, rng_core: &mut dyn RngCore, scale: f64) -> f64 {
        debug_assert!(scale >= 0.0);
        self.state = self.phi * self.state
            + self.innovation_std * scale * rng::standard_normal(rng_core);
        self.state
    }
}

/// Stateful spike process: spikes arrive as a Poisson process
/// (`rate_per_step`), each with a Pareto-distributed magnitude
/// (heavy-tailed, shape `alpha`) that decays geometrically with factor
/// `decay` per step. Multiple overlapping spikes accumulate.
#[derive(Debug)]
pub(crate) struct SpikeProcess {
    rate_per_step: f64,
    magnitude_scale: f64,
    alpha: f64,
    decay: f64,
    /// Per-arrival magnitude cap (truncated Pareto): physical capacity
    /// bounds how much load one burst can add. `f64::INFINITY` disables.
    cap: f64,
    current: f64,
}

impl SpikeProcess {
    /// New spike process whose individual arrivals are capped (truncated
    /// Pareto) at `cap` workload units.
    pub(crate) fn capped(
        rate_per_step: f64,
        magnitude_scale: f64,
        alpha: f64,
        decay: f64,
        cap: f64,
    ) -> Self {
        assert!(rate_per_step >= 0.0 && magnitude_scale >= 0.0);
        assert!(alpha > 0.0, "Pareto shape must be positive");
        assert!((0.0..1.0).contains(&decay), "decay must be in [0,1)");
        assert!(cap > 0.0, "cap must be positive");
        Self { rate_per_step, magnitude_scale, alpha, decay, cap, current: 0.0 }
    }

    /// Advance one step and return the total spike contribution.
    pub(crate) fn step(&mut self, rng_core: &mut dyn RngCore) -> f64 {
        self.current *= self.decay;
        let arrivals = rng::poisson(rng_core, self.rate_per_step);
        for _ in 0..arrivals {
            let magnitude =
                self.magnitude_scale * (rng::pareto(rng_core, 1.0, self.alpha) - 1.0);
            self.current += magnitude.min(self.cap);
        }
        self.current
    }
}

/// Stateful level-shift process: with probability `rate_per_step` per step
/// the baseline jumps by `N(0, shift_std²)` and stays there — modelling
/// tenant arrivals/departures in a shared cluster.
#[derive(Debug)]
pub(crate) struct LevelShift {
    rate_per_step: f64,
    shift_std: f64,
    level: f64,
}

impl LevelShift {
    /// New level-shift process.
    pub(crate) fn new(rate_per_step: f64, shift_std: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate_per_step));
        Self { rate_per_step, shift_std, level: 0.0 }
    }

    /// Advance one step and return the current level offset.
    pub(crate) fn step(&mut self, rng_core: &mut dyn RngCore) -> f64 {
        if rng::uniform_open(rng_core) < self.rate_per_step {
            self.level += rng::standard_normal(rng_core) * self.shift_std;
        }
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::rng::seeded;
    use rpas_tsmath::stats;

    #[test]
    fn diurnal_is_periodic() {
        for t in 0..144 {
            let a = diurnal(t, 144, 10.0, 0.58);
            let b = diurnal(t + 144, 144, 10.0, 0.58);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn diurnal_peak_near_requested_time() {
        let vals: Vec<f64> = (0..144).map(|t| diurnal(t, 144, 10.0, 0.5)).collect();
        let peak_idx = rpas_tsmath::vector::argmax(&vals).unwrap();
        // Peak should land within ±5 steps of mid-day.
        assert!((peak_idx as i64 - 72).abs() <= 5, "peak at {peak_idx}");
    }

    #[test]
    fn weekly_weekend_lower_than_weekday() {
        let wk = weekly(0, 144, 0.3); // day 0 (weekday)
        let we = weekly(5 * 144, 144, 0.3); // day 5 (weekend)
        assert!(wk > 1.0);
        assert!(we < 1.0);
        // Weekly mean conserved: 5·wk + 2·we = 7.
        assert!((5.0 * wk + 2.0 * we - 7.0).abs() < 1e-12);
    }

    #[test]
    fn trend_linear_in_days() {
        assert_eq!(trend(0, 144, 2.0), 0.0);
        assert!((trend(144, 144, 2.0) - 2.0).abs() < 1e-12);
        assert!((trend(288, 144, 2.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ar1_marginal_std_and_autocorrelation() {
        let mut rng = seeded(1);
        let mut p = Ar1Noise::new(0.7, 2.0);
        // Burn in, then sample.
        for _ in 0..100 {
            p.step_scaled(&mut rng, 1.0);
        }
        let xs: Vec<f64> = (0..50_000).map(|_| p.step_scaled(&mut rng, 1.0)).collect();
        assert!((stats::std_dev(&xs) - 2.0).abs() < 0.1);
        assert!((stats::autocorrelation(&xs, 1) - 0.7).abs() < 0.05);
    }

    #[test]
    fn spikes_are_nonnegative_and_decay() {
        let mut rng = seeded(2);
        let mut s = SpikeProcess::capped(0.05, 5.0, 1.5, 0.6, f64::INFINITY);
        let xs: Vec<f64> = (0..5000).map(|_| s.step(&mut rng)).collect();
        assert!(xs.iter().all(|&x| x >= 0.0));
        // With rate 0.05 most steps see no arrival; check decay between
        // arrivals: find a big spike and verify the next step shrank when
        // no new arrival pushed it back up.
        assert!(stats::max(&xs).unwrap() > 0.0, "no spikes generated");
    }

    #[test]
    fn capped_spikes_never_exceed_bound() {
        let mut rng = seeded(9);
        let mut s = SpikeProcess::capped(0.5, 50.0, 1.1, 0.0, 40.0);
        for _ in 0..5000 {
            // With decay 0 each step shows only fresh arrivals; a single
            // arrival is capped at 40, so even multi-arrival steps stay
            // within arrivals × cap (checked loosely via a high bound).
            let v = s.step(&mut rng);
            assert!(v <= 40.0 * 10.0, "spike {v} blew through the cap");
        }
    }

    #[test]
    fn zero_rate_spike_process_is_silent() {
        let mut rng = seeded(3);
        let mut s = SpikeProcess::capped(0.0, 5.0, 1.5, 0.6, f64::INFINITY);
        for _ in 0..100 {
            assert_eq!(s.step(&mut rng), 0.0);
        }
    }

    #[test]
    fn level_shift_is_a_step_function() {
        let mut rng = seeded(4);
        let mut l = LevelShift::new(0.01, 3.0);
        let xs: Vec<f64> = (0..2000).map(|_| l.step(&mut rng)).collect();
        // Mostly flat: consecutive differences are 0 at the no-shift steps.
        let zero_diffs = xs.windows(2).filter(|w| w[1] == w[0]).count();
        assert!(zero_diffs > 1800, "only {zero_diffs} flat steps");
        // But some shifts happened.
        assert!(zero_diffs < 1999, "no shifts at all");
    }
}
