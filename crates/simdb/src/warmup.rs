//! Scale-out warm-up model: how long a fresh compute node takes before it
//! can serve traffic.
//!
//! In a storage-disaggregated database a new node attaches to the shared
//! storage and rebuilds its in-memory components (buffer pool, catalogs,
//! lock tables) from a checkpoint. Fig. 5 of the paper (data from Alibaba
//! Cloud) shows this takes only a few seconds; we model it as
//!
//! ```text
//! warmup = attach_latency + checkpoint_size / rebuild_bandwidth
//! ```


/// Linear checkpoint-loading warm-up model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmupModel {
    /// Fixed cost of attaching to shared storage and joining the cluster
    /// (seconds).
    pub attach_latency_secs: f64,
    /// In-memory component rebuild bandwidth (GB/s) from shared storage.
    pub rebuild_gb_per_sec: f64,
}

impl Default for WarmupModel {
    /// Defaults tuned to land in the "few seconds" regime of Fig. 5:
    /// ~1 s attach plus 2 GB/s rebuild.
    fn default() -> Self {
        Self { attach_latency_secs: 1.0, rebuild_gb_per_sec: 2.0 }
    }
}

impl WarmupModel {
    /// Warm-up time in seconds for a checkpoint of the given size.
    pub fn warmup_secs(&self, checkpoint_gb: f64) -> f64 {
        assert!(checkpoint_gb >= 0.0, "checkpoint size must be non-negative");
        self.attach_latency_secs + checkpoint_gb / self.rebuild_gb_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_in_checkpoint_size() {
        let m = WarmupModel { attach_latency_secs: 1.0, rebuild_gb_per_sec: 2.0 };
        assert_eq!(m.warmup_secs(0.0), 1.0);
        assert_eq!(m.warmup_secs(4.0), 3.0);
        assert_eq!(m.warmup_secs(8.0), 5.0);
    }

    #[test]
    fn defaults_land_in_seconds_regime() {
        // Fig. 5's message: even tens-of-GB buffer pools warm up in seconds,
        // which is negligible against 10-minute scaling intervals.
        let m = WarmupModel::default();
        for gb in [1.0, 8.0, 16.0, 32.0] {
            let w = m.warmup_secs(gb);
            assert!(w < 30.0, "warmup {w}s for {gb}GB");
            assert!(w < 600.0 * 0.05, "must be negligible vs the 10-min interval");
        }
    }
}
