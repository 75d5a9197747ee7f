//! Configurable synthetic workload-trace generator.

use crate::components::{diurnal, trend, weekly, Ar1Noise, LevelShift, SpikeProcess};
use crate::trace::Trace;
use crate::{INTERVAL_SECS, STEPS_PER_DAY};
use rpas_tsmath::rng;

/// Everything that shapes a synthetic trace. All stochastic components are
/// driven by `seed`, so equal configs produce identical traces.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TraceGeneratorConfig {
    /// Trace name.
    pub name: String,
    /// Number of samples to generate.
    pub steps: usize,
    /// Sampling interval (seconds). Default: the paper's 600 s.
    pub interval_secs: u64,
    /// Samples per day. Default 144 (10-minute sampling).
    pub steps_per_day: usize,
    /// Baseline workload level.
    pub base_level: f64,
    /// Amplitude of the daily cycle.
    pub daily_amplitude: f64,
    /// Fraction of the day at which the daily cycle peaks.
    pub daily_peak_frac: f64,
    /// Weekend dip as a fraction of the weekday level (0 disables).
    pub weekend_dip: f64,
    /// Linear trend, in workload units per day.
    pub trend_per_day: f64,
    /// Marginal standard deviation of the AR(1) noise.
    pub noise_sigma: f64,
    /// AR(1) autocorrelation coefficient.
    pub noise_phi: f64,
    /// Expected spikes per day (Poisson arrivals).
    pub spikes_per_day: f64,
    /// Spike magnitude scale (multiplies `Pareto(1, alpha) − 1`).
    pub spike_magnitude: f64,
    /// Pareto tail index for spike magnitudes (lower = heavier tail).
    pub spike_alpha: f64,
    /// Cap on a single spike arrival's magnitude (truncated Pareto;
    /// `f64::INFINITY` disables). Physical machines bound burst size.
    pub spike_cap: f64,
    /// Per-step geometric decay of active spikes.
    pub spike_decay: f64,
    /// Conditional heteroskedasticity: how strongly the AR(1) innovation
    /// scales with the diurnal load level (0 = homoskedastic). A value of
    /// `k` makes the noise std `1 + k·(level/base − 1)` times the nominal.
    pub level_noise_coupling: f64,
    /// Conditional heteroskedasticity: how strongly active spikes inflate
    /// the noise (0 disables). Scales the noise std by
    /// `1 + k·(spike/spike_magnitude)`.
    pub spike_noise_coupling: f64,
    /// Expected level shifts per day.
    pub level_shifts_per_day: f64,
    /// Standard deviation of each level shift.
    pub level_shift_std: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceGeneratorConfig {
    fn default() -> Self {
        Self {
            name: "synthetic".into(),
            steps: 30 * STEPS_PER_DAY,
            interval_secs: INTERVAL_SECS,
            steps_per_day: STEPS_PER_DAY,
            base_level: 100.0,
            daily_amplitude: 25.0,
            daily_peak_frac: 0.58,
            weekend_dip: 0.15,
            trend_per_day: 0.0,
            noise_sigma: 4.0,
            noise_phi: 0.6,
            spikes_per_day: 1.0,
            spike_magnitude: 10.0,
            spike_alpha: 2.0,
            spike_cap: f64::INFINITY,
            spike_decay: 0.5,
            level_noise_coupling: 0.0,
            spike_noise_coupling: 0.0,
            level_shifts_per_day: 0.0,
            level_shift_std: 0.0,
            seed: 0,
        }
    }
}

/// Synthetic trace generator; see [`TraceGeneratorConfig`] for the knobs.
#[derive(Debug, Clone)]
pub(crate) struct TraceGenerator {
    cfg: TraceGeneratorConfig,
}

impl TraceGenerator {
    /// New generator for the given config.
    ///
    /// # Panics
    /// Panics on degenerate configs (zero steps/day, non-positive base).
    pub(crate) fn new(cfg: TraceGeneratorConfig) -> Self {
        assert!(cfg.steps_per_day > 0, "steps_per_day must be positive");
        assert!(cfg.base_level > 0.0, "base level must be positive");
        Self { cfg }
    }

    /// Generate the trace. Deterministic in the config (incl. seed);
    /// workload values are clamped non-negative.
    pub(crate) fn generate(&self) -> Trace {
        let c = &self.cfg;
        let mut r = rng::seeded(c.seed);
        let mut noise = Ar1Noise::new(c.noise_phi, c.noise_sigma);
        let mut spikes = SpikeProcess::capped(
            c.spikes_per_day / c.steps_per_day as f64,
            c.spike_magnitude,
            c.spike_alpha,
            c.spike_decay,
            c.spike_cap,
        );
        let mut shifts =
            LevelShift::new(c.level_shifts_per_day / c.steps_per_day as f64, c.level_shift_std);

        let mut values = Vec::with_capacity(c.steps);
        for t in 0..c.steps {
            let seasonal = c.base_level + diurnal(t, c.steps_per_day, c.daily_amplitude, c.daily_peak_frac);
            let weekly_factor = if c.weekend_dip > 0.0 {
                weekly(t, c.steps_per_day, c.weekend_dip)
            } else {
                1.0
            };
            let spike = spikes.step(&mut r);
            let level_ratio = seasonal * weekly_factor / c.base_level;
            let noise_scale = (1.0
                + c.level_noise_coupling * (level_ratio - 1.0)
                + c.spike_noise_coupling * (spike / c.spike_magnitude.max(1e-9)))
            .max(0.1);
            let v = seasonal * weekly_factor
                + trend(t, c.steps_per_day, c.trend_per_day)
                + noise.step_scaled(&mut r, noise_scale)
                + spike
                + shifts.step(&mut r);
            values.push(v.max(0.0));
        }
        Trace::new(c.name.clone(), c.interval_secs, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::stats;

    fn quick_cfg() -> TraceGeneratorConfig {
        TraceGeneratorConfig { steps: 7 * STEPS_PER_DAY, ..Default::default() }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = TraceGenerator::new(quick_cfg()).generate();
        let b = TraceGenerator::new(quick_cfg()).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceGenerator::new(quick_cfg()).generate();
        let b = TraceGenerator::new(TraceGeneratorConfig { seed: 1, ..quick_cfg() }).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn values_non_negative_and_finite() {
        let t = TraceGenerator::new(quick_cfg()).generate();
        assert!(t.values.iter().all(|&v| v >= 0.0 && v.is_finite()));
        assert_eq!(t.len(), 7 * STEPS_PER_DAY);
    }

    #[test]
    fn mean_near_base_level() {
        let t = TraceGenerator::new(TraceGeneratorConfig {
            spikes_per_day: 0.0,
            trend_per_day: 0.0,
            steps: 14 * STEPS_PER_DAY,
            ..Default::default()
        })
        .generate();
        let m = stats::mean(&t.values);
        assert!((m - 100.0).abs() < 5.0, "mean {m}");
    }

    #[test]
    fn daily_cycle_visible_in_autocorrelation() {
        let t = TraceGenerator::new(quick_cfg()).generate();
        // Strong positive autocorrelation at one day lag.
        let ac = stats::autocorrelation(&t.values, STEPS_PER_DAY);
        assert!(ac > 0.5, "daily autocorrelation {ac}");
    }

    #[test]
    fn trend_raises_later_values() {
        let t = TraceGenerator::new(TraceGeneratorConfig {
            trend_per_day: 5.0,
            noise_sigma: 0.5,
            spikes_per_day: 0.0,
            steps: 14 * STEPS_PER_DAY,
            ..Default::default()
        })
        .generate();
        let first_week = stats::mean(&t.values[..7 * STEPS_PER_DAY]);
        let second_week = stats::mean(&t.values[7 * STEPS_PER_DAY..]);
        assert!(second_week - first_week > 20.0);
    }

    #[test]
    fn spikier_config_has_heavier_tail() {
        let calm = TraceGenerator::new(TraceGeneratorConfig {
            spikes_per_day: 0.0,
            ..quick_cfg()
        })
        .generate();
        let spiky = TraceGenerator::new(TraceGeneratorConfig {
            spikes_per_day: 20.0,
            spike_magnitude: 40.0,
            spike_alpha: 1.3,
            ..quick_cfg()
        })
        .generate();
        let calm_p99 = stats::quantile(&calm.values, 0.99) / stats::median(&calm.values);
        let spiky_p99 = stats::quantile(&spiky.values, 0.99) / stats::median(&spiky.values);
        assert!(spiky_p99 > calm_p99, "{spiky_p99} vs {calm_p99}");
    }
}

#[cfg(test)]
mod heteroskedasticity_tests {
    use super::*;
    use rpas_tsmath::stats;

    #[test]
    fn level_coupling_makes_peak_hours_noisier() {
        let base = TraceGeneratorConfig {
            steps: 28 * STEPS_PER_DAY,
            spikes_per_day: 0.0,
            weekend_dip: 0.0,
            noise_sigma: 6.0,
            level_noise_coupling: 2.0,
            ..Default::default()
        };
        let t = TraceGenerator::new(base).generate();
        // Residual = value − deterministic seasonal component.
        let resid: Vec<f64> = t
            .values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v - (100.0 + crate::components::diurnal(i, STEPS_PER_DAY, 25.0, 0.58))
            })
            .collect();
        // Split residuals into peak (top-quarter seasonal) vs trough hours.
        let mut peak = Vec::new();
        let mut trough = Vec::new();
        for (i, r) in resid.iter().enumerate() {
            let season = crate::components::diurnal(i, STEPS_PER_DAY, 25.0, 0.58);
            if season > 12.0 {
                peak.push(*r);
            } else if season < -12.0 {
                trough.push(*r);
            }
        }
        let sd_peak = stats::std_dev(&peak);
        let sd_trough = stats::std_dev(&trough);
        assert!(
            sd_peak > 1.3 * sd_trough,
            "peak noise {sd_peak} should exceed trough noise {sd_trough}"
        );
    }

    #[test]
    fn zero_coupling_is_homoskedastic() {
        let cfg = TraceGeneratorConfig {
            steps: 28 * STEPS_PER_DAY,
            spikes_per_day: 0.0,
            weekend_dip: 0.0,
            level_noise_coupling: 0.0,
            ..Default::default()
        };
        let t = TraceGenerator::new(cfg).generate();
        let resid: Vec<f64> = t
            .values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v - (100.0 + crate::components::diurnal(i, STEPS_PER_DAY, 25.0, 0.58))
            })
            .collect();
        let mut peak = Vec::new();
        let mut trough = Vec::new();
        for (i, r) in resid.iter().enumerate() {
            let season = crate::components::diurnal(i, STEPS_PER_DAY, 25.0, 0.58);
            if season > 12.0 {
                peak.push(*r);
            } else if season < -12.0 {
                trough.push(*r);
            }
        }
        let ratio = stats::std_dev(&peak) / stats::std_dev(&trough);
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio} should be ≈ 1");
    }
}
