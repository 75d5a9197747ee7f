//! Preset configurations mimicking the two evaluation datasets.
//!
//! The paper constructs resource-usage traces by "sampling a subset of
//! machines/tasks and aggregating the resource usage", at 10-minute
//! intervals:
//!
//! * **Alibaba-like** — aggregate usage of a machine subset from the Alibaba
//!   cluster trace. Production e-commerce load: strong, regular diurnal
//!   cycle, weekday/weekend structure, moderate noise, occasional bursts.
//!   Relative variability is low (Table I reports wQL in the 0.004–0.07
//!   range for the neural models).
//! * **Google-like** — aggregate usage of a task subset from the Google
//!   cluster trace. Batch-heavy, much burstier: weaker seasonality, heavy
//!   spikes, level shifts from jobs arriving/finishing. Relative
//!   variability is an order of magnitude higher (Table I wQL 0.016–0.54).

use crate::generator::{TraceGenerator, TraceGeneratorConfig};
use crate::trace::{ResourceKind, Trace};
use crate::STEPS_PER_DAY;
use rpas_tsmath::rng::child_seed;

/// A multi-resource cluster trace (one [`Trace`] per resource kind).
#[derive(Debug, Clone)]
pub struct ClusterTrace {
    /// Dataset name (`"alibaba"` / `"google"`).
    pub name: String,
    /// Per-resource traces.
    pub resources: Vec<(ResourceKind, Trace)>,
}

impl ClusterTrace {
    /// Get the trace for one resource kind.
    pub fn get(&self, kind: ResourceKind) -> Option<&Trace> {
        self.resources.iter().find(|(k, _)| *k == kind).map(|(_, t)| t)
    }

    /// CPU trace — the paper's scaling metric (§IV-C).
    ///
    /// # Panics
    /// Panics if the preset lacks a CPU channel (never for built-ins).
    #[expect(clippy::expect_used, reason = "# Panics contract: every built-in preset has a CPU channel")]
    pub fn cpu(&self) -> &Trace {
        self.get(ResourceKind::Cpu).expect("preset without CPU channel")
    }
}

/// Alibaba-cluster-like trace (CPU/memory/disk), `days` long.
pub fn alibaba_like(seed: u64, days: usize) -> ClusterTrace {
    let cpu = alibaba_cpu_config(seed, days);
    let mem = TraceGeneratorConfig {
        name: "alibaba-memory".into(),
        base_level: 200.0,
        daily_amplitude: 30.0,
        noise_sigma: 3.0,
        noise_phi: 0.7,
        spikes_per_day: 0.5,
        spike_magnitude: 8.0,
        seed: child_seed(seed, 1),
        ..cpu.clone()
    };
    let disk = TraceGeneratorConfig {
        name: "alibaba-disk".into(),
        base_level: 80.0,
        daily_amplitude: 15.0,
        noise_sigma: 6.0,
        noise_phi: 0.4,
        spikes_per_day: 3.0,
        spike_magnitude: 15.0,
        spike_alpha: 1.8,
        seed: child_seed(seed, 2),
        ..cpu.clone()
    };
    ClusterTrace {
        name: "alibaba".into(),
        resources: vec![
            (ResourceKind::Cpu, TraceGenerator::new(cpu).generate()),
            (ResourceKind::Memory, TraceGenerator::new(mem).generate()),
            (ResourceKind::Disk, TraceGenerator::new(disk).generate()),
        ],
    }
}

/// The CPU channel of [`alibaba_like`] alone, the same values: each
/// channel draws from its own child seed.
pub fn alibaba_like_cpu(seed: u64, days: usize) -> Trace {
    TraceGenerator::new(alibaba_cpu_config(seed, days)).generate()
}

fn alibaba_cpu_config(seed: u64, days: usize) -> TraceGeneratorConfig {
    TraceGeneratorConfig {
        name: "alibaba-cpu".into(),
        steps: days * STEPS_PER_DAY,
        base_level: 120.0,
        daily_amplitude: 35.0,
        daily_peak_frac: 0.58,
        weekend_dip: 0.12,
        trend_per_day: 0.15,
        noise_sigma: 4.5,
        noise_phi: 0.55,
        spikes_per_day: 1.5,
        spike_magnitude: 12.0,
        spike_alpha: 2.2,
        spike_cap: 80.0,
        spike_decay: 0.55,
        level_noise_coupling: 1.5,
        spike_noise_coupling: 0.5,
        level_shifts_per_day: 0.0,
        level_shift_std: 0.0,
        seed: child_seed(seed, 0),
        ..Default::default()
    }
}

/// Google-cluster-like trace (CPU/memory), `days` long. Much burstier than
/// the Alibaba-like preset: weaker seasonality, heavy-tailed spikes, and
/// level shifts as jobs arrive and finish.
pub fn google_like(seed: u64, days: usize) -> ClusterTrace {
    let cpu = google_cpu_config(seed, days);
    let mem = TraceGeneratorConfig {
        name: "google-memory".into(),
        base_level: 90.0,
        daily_amplitude: 8.0,
        noise_sigma: 6.0,
        spikes_per_day: 4.0,
        spike_magnitude: 18.0,
        seed: child_seed(seed, 11),
        ..cpu.clone()
    };
    ClusterTrace {
        name: "google".into(),
        resources: vec![
            (ResourceKind::Cpu, TraceGenerator::new(cpu).generate()),
            (ResourceKind::Memory, TraceGenerator::new(mem).generate()),
        ],
    }
}

/// The CPU channel of [`google_like`] alone, the same values.
pub fn google_like_cpu(seed: u64, days: usize) -> Trace {
    TraceGenerator::new(google_cpu_config(seed, days)).generate()
}

fn google_cpu_config(seed: u64, days: usize) -> TraceGeneratorConfig {
    TraceGeneratorConfig {
        name: "google-cpu".into(),
        steps: days * STEPS_PER_DAY,
        base_level: 60.0,
        daily_amplitude: 10.0,
        daily_peak_frac: 0.5,
        weekend_dip: 0.05,
        trend_per_day: 0.0,
        noise_sigma: 8.0,
        noise_phi: 0.75,
        spikes_per_day: 8.0,
        spike_magnitude: 25.0,
        spike_alpha: 1.4,
        spike_cap: 180.0,
        spike_decay: 0.7,
        level_noise_coupling: 1.0,
        spike_noise_coupling: 1.5,
        level_shifts_per_day: 0.35,
        level_shift_std: 6.0,
        seed: child_seed(seed, 10),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::stats;

    #[test]
    fn presets_have_expected_channels() {
        let a = alibaba_like(7, 7);
        assert!(a.get(ResourceKind::Cpu).is_some());
        assert!(a.get(ResourceKind::Memory).is_some());
        assert!(a.get(ResourceKind::Disk).is_some());
        let g = google_like(7, 7);
        assert!(g.get(ResourceKind::Cpu).is_some());
        assert!(g.get(ResourceKind::Memory).is_some());
        assert!(g.get(ResourceKind::Disk).is_none());
    }

    #[test]
    fn cpu_lengths_match_days() {
        let a = alibaba_like(1, 10);
        assert_eq!(a.cpu().len(), 10 * STEPS_PER_DAY);
    }

    #[test]
    fn google_is_relatively_burstier_than_alibaba() {
        // The defining contrast from Table I: relative variability of the
        // Google trace is much higher (coefficient of variation).
        let a = alibaba_like(3, 21);
        let g = google_like(3, 21);
        let cv = |t: &crate::Trace| stats::std_dev(&t.values) / stats::mean(&t.values);
        let (cva, cvg) = (cv(a.cpu()), cv(g.cpu()));
        assert!(cvg > cva, "google CV {cvg} should exceed alibaba CV {cva}");
    }

    #[test]
    fn alibaba_has_stronger_daily_seasonality() {
        let a = alibaba_like(4, 14);
        let g = google_like(4, 14);
        let ac_a = stats::autocorrelation(&a.cpu().values, STEPS_PER_DAY);
        let ac_g = stats::autocorrelation(&g.cpu().values, STEPS_PER_DAY);
        assert!(ac_a > ac_g, "alibaba daily AC {ac_a} vs google {ac_g}");
    }

    #[test]
    fn deterministic_presets() {
        assert_eq!(alibaba_like(9, 3).cpu().values, alibaba_like(9, 3).cpu().values);
        assert_eq!(google_like(9, 3).cpu().values, google_like(9, 3).cpu().values);
    }

    #[test]
    fn a_cpu_channel_alone_is_the_presets_cpu_channel() {
        for (seed, days) in [(9, 3), (1, 1), (42, 4)] {
            assert_eq!(&alibaba_like_cpu(seed, days), alibaba_like(seed, days).cpu());
            assert_eq!(&google_like_cpu(seed, days), google_like(seed, days).cpu());
        }
    }
}
