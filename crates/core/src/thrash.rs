//! Thrash (flapping) control — §V-A: restrict how many nodes may be added
//! or removed per step and impose a cooldown between direction changes,
//! "promoting a smoother auto-scaling process".

use rpas_simdb::{Observation, ScalingPolicy};

/// Thrash-limiting parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThrashConfig {
    /// Maximum nodes added or removed per step.
    pub max_step_delta: u32,
    /// Minimum steps between a scale-out and a subsequent scale-in (and
    /// vice versa). 0 disables the cooldown.
    pub direction_cooldown: usize,
}

impl Default for ThrashConfig {
    fn default() -> Self {
        Self { max_step_delta: 2, direction_cooldown: 3 }
    }
}

/// Move from `prev` toward `want`, by at most `max_delta` nodes. The shared
/// step-clamp primitive behind [`ThrashLimited`] and the resilience
/// guardrails ([`crate::resilient::ResilientManager`]).
pub(crate) fn clamp_step(prev: u32, want: u32, max_delta: u32) -> u32 {
    if want > prev {
        prev + (want - prev).min(max_delta)
    } else {
        prev - (prev - want).min(max_delta)
    }
}

/// Policy decorator applying delta limits and a direction cooldown to any
/// inner [`ScalingPolicy`].
#[derive(Debug, Clone)]
pub struct ThrashLimited<P> {
    inner: P,
    cfg: ThrashConfig,
    last_target: Option<u32>,
    last_direction: i8, // −1 down, 0 none, +1 up
    steps_since_change: usize,
}

impl<P: ScalingPolicy> ThrashLimited<P> {
    /// Wrap a policy.
    pub fn new(inner: P, cfg: ThrashConfig) -> Self {
        Self { inner, cfg, last_target: None, last_direction: 0, steps_since_change: usize::MAX }
    }
}

impl<P: ScalingPolicy> ScalingPolicy for ThrashLimited<P> {
    fn name(&self) -> &'static str {
        "thrash-limited"
    }

    #[expect(clippy::expect_used, reason = "assigned on the line above")]
    fn decide(&mut self, obs: &Observation<'_>) -> u32 {
        let want = self.inner.decide(obs);
        let prev = self.last_target.unwrap_or(obs.current_nodes);

        let mut next = clamp_step(prev, want, self.cfg.max_step_delta);

        // Direction cooldown: refuse to reverse direction too quickly.
        let dir: i8 = match next.cmp(&prev) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
        };
        if dir != 0
            && self.last_direction != 0
            && dir != self.last_direction
            && self.steps_since_change < self.cfg.direction_cooldown
        {
            next = prev;
        }

        if next != prev {
            self.last_direction = if next > prev { 1 } else { -1 };
            self.steps_since_change = 0;
        } else {
            self.steps_since_change = self.steps_since_change.saturating_add(1);
        }
        self.last_target = Some(next.max(obs.min_nodes));
        self.last_target.expect("just set")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_simdb::FixedPolicy;

    #[test]
    fn limiter_caps_step_delta() {
        struct Swing;
        impl ScalingPolicy for Swing {
            fn name(&self) -> &'static str {
                "swing"
            }
            fn decide(&mut self, obs: &Observation<'_>) -> u32 {
                if obs.step.is_multiple_of(2) {
                    10
                } else {
                    1
                }
            }
        }
        let mut p = ThrashLimited::new(
            Swing,
            ThrashConfig { max_step_delta: 2, direction_cooldown: 0 },
        );
        let mk = |step, current| Observation::new(step, &[], current, 60.0, 1);
        let a = p.decide(&mk(0, 1)); // wants 10, clamp to 3
        assert_eq!(a, 3);
        let b = p.decide(&mk(1, a)); // wants 1, clamp to 1 step of −2
        assert_eq!(b, 1);
    }

    #[test]
    fn cooldown_blocks_rapid_reversal() {
        struct UpThenDown;
        impl ScalingPolicy for UpThenDown {
            fn name(&self) -> &'static str {
                "upx"
            }
            fn decide(&mut self, obs: &Observation<'_>) -> u32 {
                if obs.step == 0 {
                    5
                } else {
                    1
                }
            }
        }
        let mut p = ThrashLimited::new(
            UpThenDown,
            ThrashConfig { max_step_delta: 10, direction_cooldown: 2 },
        );
        let mk = |step, current| Observation::new(step, &[], current, 60.0, 1);
        let a = p.decide(&mk(0, 1));
        assert_eq!(a, 5); // scale out
        let b = p.decide(&mk(1, a));
        assert_eq!(b, 5); // reversal blocked by cooldown
        let c = p.decide(&mk(2, b));
        assert_eq!(c, 5); // still inside cooldown
        let d = p.decide(&mk(3, c));
        assert_eq!(d, 1); // cooldown expired: scale in allowed
    }

    #[test]
    fn zero_cooldown_allows_immediate_reversal() {
        struct UpThenDown;
        impl ScalingPolicy for UpThenDown {
            fn name(&self) -> &'static str {
                "upx"
            }
            fn decide(&mut self, obs: &Observation<'_>) -> u32 {
                if obs.step == 0 {
                    5
                } else {
                    1
                }
            }
        }
        let mut p = ThrashLimited::new(
            UpThenDown,
            ThrashConfig { max_step_delta: 10, direction_cooldown: 0 },
        );
        let mk = |step, current| Observation::new(step, &[], current, 60.0, 1);
        assert_eq!(p.decide(&mk(0, 1)), 5);
        assert_eq!(p.decide(&mk(1, 5)), 1); // no cooldown: reverse at once
    }

    #[test]
    fn clamp_step_moves_toward_target_bounded() {
        assert_eq!(clamp_step(3, 10, 2), 5);
        assert_eq!(clamp_step(10, 3, 2), 8);
        assert_eq!(clamp_step(4, 4, 2), 4);
        assert_eq!(clamp_step(0, 100, u32::MAX), 100);
        assert_eq!(clamp_step(7, 1, 0), 7);
    }

    #[test]
    fn steady_inner_policy_passes_through() {
        let mut p = ThrashLimited::new(FixedPolicy(4), ThrashConfig::default());
        let o = Observation::new(0, &[], 4, 60.0, 1);
        assert_eq!(p.decide(&o), 4);
        assert_eq!(p.decide(&o), 4);
    }
}
