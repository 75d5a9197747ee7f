//! Reactive scalers: the Autopilot/HPA-family baselines of §IV-A. Both
//! observe a moving window of *realised* workload and size the cluster for
//! it — which is exactly why they lag demand (Fig. 9's "inherent lag in
//! reactive scaling").

use rpas_metrics::provisioning::required_nodes;
use rpas_simdb::{Observation, ScalingPolicy};

/// Scales for the **maximum** workload seen in the recent window
/// (Reactive-Max in the paper).
#[derive(Debug, Clone, Copy)]
pub struct ReactiveMax {
    window: usize,
}

impl ReactiveMax {
    /// New scaler over the last `window` intervals.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self { window }
    }
}

impl ScalingPolicy for ReactiveMax {
    fn name(&self) -> &'static str {
        "reactive-max"
    }

    fn decide(&mut self, obs: &Observation<'_>) -> u32 {
        let h = obs.history;
        if h.is_empty() {
            return obs.min_nodes;
        }
        let start = h.len().saturating_sub(self.window);
        let peak = h[start..].iter().cloned().fold(0.0f64, f64::max);
        required_nodes(peak, obs.theta, obs.min_nodes)
    }
}

/// Scales for the **exponentially-weighted average** workload in the
/// recent window (Reactive-Avg). The paper sets the half-life to 6
/// intervals: weights halve every 6 steps into the past.
#[derive(Debug, Clone, Copy)]
pub struct ReactiveAvg {
    window: usize,
    half_life: f64,
}

impl ReactiveAvg {
    /// New scaler over the last `window` intervals with the given
    /// half-life (in intervals).
    ///
    /// # Panics
    /// Panics on zero window or non-positive half-life.
    pub(crate) fn new(window: usize, half_life: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(half_life > 0.0, "half-life must be positive");
        Self { window, half_life }
    }

    /// The paper's configuration: window 6, half-life 6.
    pub fn paper_default() -> Self {
        Self::new(6, 6.0)
    }

    fn weighted_average(&self, recent: &[f64]) -> f64 {
        // recent[len-1] is the most recent sample (age 0).
        let decay = 0.5f64.powf(1.0 / self.half_life);
        let mut num = 0.0;
        let mut den = 0.0;
        let n = recent.len();
        for (i, &w) in recent.iter().enumerate() {
            let age = (n - 1 - i) as f64;
            let weight = decay.powf(age);
            num += weight * w;
            den += weight;
        }
        num / den
    }
}

impl ScalingPolicy for ReactiveAvg {
    fn name(&self) -> &'static str {
        "reactive-avg"
    }

    fn decide(&mut self, obs: &Observation<'_>) -> u32 {
        let h = obs.history;
        if h.is_empty() {
            return obs.min_nodes;
        }
        let start = h.len().saturating_sub(self.window);
        let avg = self.weighted_average(&h[start..]);
        required_nodes(avg, obs.theta, obs.min_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs<'a>(history: &'a [f64]) -> Observation<'a> {
        Observation::new(history.len(), history, 1, 60.0, 1)
    }

    #[test]
    fn max_uses_window_peak() {
        let mut p = ReactiveMax::new(3);
        let h = [300.0, 60.0, 100.0, 50.0];
        // Window = last 3: peak 100 ⇒ 2 nodes (θ=60).
        assert_eq!(p.decide(&obs(&h)), 2);
    }

    #[test]
    fn max_with_empty_history_returns_min() {
        let mut p = ReactiveMax::new(3);
        assert_eq!(p.decide(&obs(&[])), 1);
    }

    #[test]
    fn avg_weights_recent_samples_more() {
        let mut p = ReactiveAvg::new(6, 6.0);
        // Old high, recent low: estimate must sit below the plain mean.
        let h = [300.0, 300.0, 300.0, 10.0, 10.0, 10.0];
        let plain_mean = 155.0;
        let est = p.weighted_average(&h);
        assert!(est < plain_mean, "ewma {est}");
        let _ = p.decide(&obs(&h));
    }

    #[test]
    fn avg_half_life_exact() {
        let p = ReactiveAvg::new(2, 6.0);
        // Two samples, ages 1 and 0: weight ratio = 2^{-1/6}.
        let w_ratio = 0.5f64.powf(1.0 / 6.0);
        let est = p.weighted_average(&[0.0, 1.0]);
        let expect = 1.0 / (1.0 + w_ratio);
        assert!((est - expect).abs() < 1e-12);
    }

    #[test]
    fn reactive_lags_demand_spike() {
        // Demand jumps at t=5; reactive policies only see history, so the
        // allocation at the spike step is still sized for the quiet past.
        let mut p = ReactiveMax::new(6);
        let quiet = [30.0; 5];
        let alloc_at_spike = p.decide(&obs(&quiet));
        assert_eq!(alloc_at_spike, 1);
        // Actual spike workload would need 5 nodes: under-provisioned.
        assert!(alloc_at_spike < 5);
    }

    #[test]
    fn paper_default_configuration() {
        let p = ReactiveAvg::paper_default();
        assert_eq!(p.window, 6);
        assert_eq!(p.half_life, 6.0);
    }
}
