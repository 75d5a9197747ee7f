//! Compute nodes of the disaggregated database.

/// Lifecycle state of a compute node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum NodeState {
    /// Rebuilding in-memory components from the shared-storage checkpoint;
    /// cannot serve yet.
    WarmingUp {
        /// Seconds of warm-up remaining.
        remaining_secs: f64,
    },
    /// Serving traffic.
    Active,
}

/// A stateless compute node over shared storage.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ComputeNode {
    /// Current lifecycle state.
    pub state: NodeState,
    /// Simulation step at which the node was launched.
    pub launched_at_step: usize,
}

impl ComputeNode {
    /// A node starting its warm-up.
    pub(crate) fn warming(warmup_secs: f64, step: usize) -> Self {
        let state = if warmup_secs <= 0.0 {
            NodeState::Active
        } else {
            NodeState::WarmingUp { remaining_secs: warmup_secs }
        };
        Self { state, launched_at_step: step }
    }

    /// A node that is already serving (cluster bootstrap).
    pub(crate) fn active(step: usize) -> Self {
        Self { state: NodeState::Active, launched_at_step: step }
    }

    /// Whether the node can serve traffic right now.
    pub(crate) fn is_active(&self) -> bool {
        matches!(self.state, NodeState::Active)
    }

    /// Advance time by `dt` seconds, returning the fraction of the
    /// interval during which the node was able to serve (1.0 for an active
    /// node, partial when warm-up completes mid-interval, 0.0 otherwise).
    pub(crate) fn tick(&mut self, dt_secs: f64) -> f64 {
        debug_assert!(dt_secs > 0.0);
        match self.state {
            NodeState::Active => 1.0,
            NodeState::WarmingUp { remaining_secs } => {
                if remaining_secs <= dt_secs {
                    self.state = NodeState::Active;
                    (dt_secs - remaining_secs) / dt_secs
                } else {
                    self.state = NodeState::WarmingUp { remaining_secs: remaining_secs - dt_secs };
                    0.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_node_serves_full_interval() {
        let mut n = ComputeNode::active(0);
        assert!(n.is_active());
        assert_eq!(n.tick(600.0), 1.0);
    }

    #[test]
    fn warming_node_becomes_active_with_partial_service() {
        let mut n = ComputeNode::warming(60.0, 0);
        assert!(!n.is_active());
        // 600 s interval, 60 s warm-up: serves 90% of the interval.
        let frac = n.tick(600.0);
        assert!((frac - 0.9).abs() < 1e-12);
        assert!(n.is_active());
        assert_eq!(n.tick(600.0), 1.0);
    }

    #[test]
    fn long_warmup_spans_intervals() {
        let mut n = ComputeNode::warming(900.0, 0);
        assert_eq!(n.tick(600.0), 0.0);
        assert!(!n.is_active());
        let frac = n.tick(600.0);
        assert!((frac - 0.5).abs() < 1e-12);
        assert!(n.is_active());
    }

    #[test]
    fn zero_warmup_is_immediately_active() {
        let n = ComputeNode::warming(0.0, 2);
        assert!(n.is_active());
    }
}
