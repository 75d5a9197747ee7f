//! The compute-node pool: scale-out/scale-in mechanics over shared
//! (disaggregated) storage. In the disaggregated architecture (Fig. 4 of
//! the paper) every compute node attaches to one storage pool, so scaling
//! out never migrates data: a new node only reads a checkpoint.

use crate::node::ComputeNode;
use crate::warmup::WarmupModel;

/// A pool of compute nodes attached to one shared storage.
#[derive(Debug)]
pub(crate) struct Cluster {
    nodes: Vec<ComputeNode>,
    warmup: WarmupModel,
    /// Size of the checkpoint a new node rebuilds from (GB).
    checkpoint_gb: f64,
    /// Checkpoint reads from the shared storage (one per node launched),
    /// wrapping at `u64::MAX`.
    checkpoint_reads: u64,
    scale_out_events: usize,
    scale_in_events: usize,
}

impl Cluster {
    /// New cluster bootstrapped with `initial_nodes` already-active nodes,
    /// whose new nodes rebuild from a `checkpoint_gb` checkpoint.
    pub(crate) fn new(initial_nodes: u32, warmup: WarmupModel, checkpoint_gb: f64) -> Self {
        let nodes = (0..initial_nodes).map(|_| ComputeNode::active(0)).collect::<Vec<_>>();
        Self {
            nodes,
            warmup,
            checkpoint_gb,
            checkpoint_reads: 0,
            scale_out_events: 0,
            scale_in_events: 0,
        }
    }

    /// Total nodes (active + warming).
    pub(crate) fn size(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Nodes currently able to serve.
    #[cfg(test)]
    pub(crate) fn active_count(&self) -> u32 {
        self.nodes.iter().filter(|n| n.is_active()).count() as u32
    }

    /// Borrow the node list.
    #[cfg(test)]
    pub(crate) fn nodes(&self) -> &[ComputeNode] {
        &self.nodes
    }

    /// Checkpoint reads so far.
    pub(crate) fn checkpoint_reads(&self) -> u64 {
        self.checkpoint_reads
    }

    /// Scale-out operations performed so far.
    pub(crate) fn scale_out_events(&self) -> usize {
        self.scale_out_events
    }

    /// Scale-in operations performed so far.
    pub(crate) fn scale_in_events(&self) -> usize {
        self.scale_in_events
    }

    /// [`Cluster::scale_to_delayed`] with no provisioning delay.
    #[cfg(test)]
    pub(crate) fn scale_to(&mut self, target: u32, step: usize) {
        self.scale_to_delayed(target, step, 0.0);
    }

    /// Adjust the pool to `target` nodes at simulation step `step`.
    ///
    /// Scale-out launches warming nodes (each reads a checkpoint from
    /// shared storage). Scale-in removes warming nodes first (cheapest to
    /// cancel), then active ones; removal is immediate — in a disaggregated
    /// architecture a compute node holds no exclusive state.
    ///
    /// `extra_warmup_secs` of provisioning delay is added to every node
    /// launched by this call — the mechanism behind the fault injector's
    /// delayed-provisioning class. Scale-in and no-op paths ignore it.
    #[expect(clippy::expect_used, reason = "to_remove <= node count, so a victim exists")]
    pub(crate) fn scale_to_delayed(&mut self, target: u32, step: usize, extra_warmup_secs: f64) {
        let current = self.size();
        if target > current {
            self.scale_out_events += 1;
            for _ in 0..(target - current) {
                self.checkpoint_reads = self.checkpoint_reads.wrapping_add(1);
                let w = self.warmup.warmup_secs(self.checkpoint_gb) + extra_warmup_secs.max(0.0);
                self.nodes.push(ComputeNode::warming(w, step));
            }
        } else if target < current {
            self.scale_in_events += 1;
            let mut to_remove = (current - target) as usize;
            // Remove warming nodes first.
            let mut i = 0;
            while i < self.nodes.len() && to_remove > 0 {
                if !self.nodes[i].is_active() {
                    self.nodes.remove(i);
                    to_remove -= 1;
                } else {
                    i += 1;
                }
            }
            // Then most-recently-launched active nodes.
            while to_remove > 0 {
                let idx = self
                    .nodes
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, n)| n.launched_at_step)
                    .map(|(i, _)| i)
                    .expect("removing from non-empty pool");
                self.nodes.remove(idx);
                to_remove -= 1;
            }
        }
    }

    /// Crash one node: the most recently launched dies (it is the least
    /// warmed-in), but the pool never drops below one node — a cluster
    /// with every node gone is a total outage, outside this simulator's
    /// scope. Returns whether a node went down. Crashes are not scale-in
    /// events: they read no checkpoints and count separately.
    pub(crate) fn crash(&mut self) -> bool {
        if self.nodes.len() < 2 {
            return false;
        }
        let newest = self.nodes.iter().enumerate().max_by_key(|(_, n)| n.launched_at_step);
        if let Some((idx, _)) = newest {
            self.nodes.remove(idx);
        }
        true
    }

    /// Advance one interval of `dt_secs`; returns the pool's effective
    /// serving capacity over the interval, in node-units (active nodes
    /// count 1.0, nodes finishing warm-up count their serving fraction).
    pub(crate) fn tick(&mut self, dt_secs: f64) -> f64 {
        self.nodes.iter_mut().map(|n| n.tick(dt_secs)).sum()
    }

    /// Seconds of warm-up remaining across the pool (0 when all active).
    #[cfg(test)]
    pub(crate) fn pending_warmup_secs(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| match n.state {
                crate::node::NodeState::WarmingUp { remaining_secs } => remaining_secs,
                crate::node::NodeState::Active => 0.0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: u32) -> Cluster {
        let warmup = WarmupModel { attach_latency_secs: 1.0, rebuild_gb_per_sec: 2.0 };
        Cluster::new(n, warmup, 4.0)
    }

    #[test]
    fn bootstrap_all_active() {
        let c = cluster(3);
        assert_eq!(c.size(), 3);
        assert_eq!(c.active_count(), 3);
        assert_eq!(c.pending_warmup_secs(), 0.0);
    }

    #[test]
    fn scale_out_adds_warming_nodes_and_reads_checkpoints() {
        let mut c = cluster(2);
        c.scale_to(5, 1);
        assert_eq!(c.size(), 5);
        assert_eq!(c.active_count(), 2);
        assert_eq!(c.checkpoint_reads(), 3);
        assert_eq!(c.scale_out_events(), 1);
        // Warm-up = 1 + 4/2 = 3 s each.
        assert!((c.pending_warmup_secs() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn tick_activates_and_reports_capacity() {
        let mut c = cluster(2);
        c.scale_to(3, 0);
        // One warming node (3 s), interval 600 s: capacity ≈ 2 + 597/600.
        let cap = c.tick(600.0);
        assert!((cap - (2.0 + 597.0 / 600.0)).abs() < 1e-9);
        assert_eq!(c.active_count(), 3);
    }

    #[test]
    fn scale_in_prefers_warming_nodes() {
        let mut c = cluster(2);
        c.scale_to(4, 0); // 2 active + 2 warming
        c.scale_to(2, 0); // remove the 2 warming ones
        assert_eq!(c.size(), 2);
        assert_eq!(c.active_count(), 2);
        assert_eq!(c.scale_in_events(), 1);
    }

    #[test]
    fn scale_in_removes_newest_active() {
        let mut c = cluster(1);
        c.scale_to(2, 5);
        c.tick(600.0); // activate the new node
        c.scale_to(1, 6);
        assert_eq!(c.size(), 1);
        // The surviving node is the original (launched at step 0).
        assert_eq!(c.nodes()[0].launched_at_step, 0);
    }

    #[test]
    fn noop_scale_keeps_events_unchanged() {
        let mut c = cluster(2);
        c.scale_to(2, 0);
        assert_eq!(c.scale_out_events() + c.scale_in_events(), 0);
    }

    #[test]
    fn delayed_scale_out_extends_warmup() {
        let mut fast = cluster(1);
        fast.scale_to(2, 0);
        let mut slow = cluster(1);
        slow.scale_to_delayed(2, 0, 600.0);
        assert!((slow.pending_warmup_secs() - fast.pending_warmup_secs() - 600.0).abs() < 1e-9);
        // Zero delay is identical to the plain path.
        let mut zero = cluster(1);
        zero.scale_to_delayed(2, 0, 0.0);
        assert_eq!(zero.pending_warmup_secs(), fast.pending_warmup_secs());
    }

    #[test]
    fn crash_removes_newest_but_never_empties_the_pool() {
        let mut c = cluster(1);
        c.scale_to(3, 5);
        c.tick(600.0); // everyone active
        assert!(c.crash());
        assert_eq!(c.size(), 2);
        // Survivors are the oldest nodes.
        assert!(c.nodes().iter().all(|n| n.launched_at_step <= 5));
        // The last node always stands.
        assert!(c.crash());
        assert_eq!(c.size(), 1);
        assert!(!c.crash());
        assert_eq!(c.size(), 1);
        // Crashes are not scale events and read no checkpoints.
        assert_eq!(c.scale_in_events(), 0);
    }
}
