//! Shared (disaggregated) storage layer.
//!
//! In the disaggregated architecture (Fig. 4 of the paper) all compute
//! nodes attach to one storage pool; scaling out never migrates data, it
//! only reads a checkpoint. The storage type is internally synchronised
//! (`std::sync::Mutex`) so a cluster handle can be shared across threads
//! in embedding applications and the bench harness.

use std::sync::Mutex;

/// Counters describing checkpoint activity on the shared storage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct StorageStats {
    /// Number of checkpoint reads (one per node warm-up), wrapping at
    /// `u64::MAX`.
    pub checkpoint_reads: u64,
    /// Total gigabytes served for warm-ups.
    pub gb_read: f64,
}

/// The shared storage pool under the compute layer.
#[derive(Debug)]
pub(crate) struct SharedStorage {
    checkpoint_gb: f64,
    stats: Mutex<StorageStats>,
}

#[expect(clippy::expect_used, reason = "poisoned: a simulator thread panicked mid-step")]
impl SharedStorage {
    /// New storage with the given checkpoint (in-memory state) size.
    ///
    /// # Panics
    /// Panics on negative size.
    pub(crate) fn new(checkpoint_gb: f64) -> Self {
        assert!(checkpoint_gb >= 0.0, "checkpoint size must be non-negative");
        Self { checkpoint_gb, stats: Mutex::new(StorageStats::default()) }
    }

    /// Record a checkpoint read for a node warm-up and return its size.
    pub(crate) fn load_checkpoint(&self) -> f64 {
        let mut s = self.stats.lock().expect("storage stats mutex poisoned");
        s.checkpoint_reads = s.checkpoint_reads.wrapping_add(1);
        s.gb_read += self.checkpoint_gb;
        self.checkpoint_gb
    }

    /// Snapshot the counters.
    pub(crate) fn stats(&self) -> StorageStats {
        *self.stats.lock().expect("storage stats mutex poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_checkpoint_reads() {
        let s = SharedStorage::new(4.0);
        assert_eq!(s.load_checkpoint(), 4.0);
        assert_eq!(s.load_checkpoint(), 4.0);
        let st = s.stats();
        assert_eq!(st.checkpoint_reads, 2);
        assert_eq!(st.gb_read, 8.0);
    }

    #[test]
    fn shareable_across_threads() {
        let s = std::sync::Arc::new(SharedStorage::new(1.0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    s.load_checkpoint();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.stats().checkpoint_reads, 400);
    }
}
