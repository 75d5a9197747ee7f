//! The ledger's only clock. Every latency in the benchmark is a
//! difference of two [`now_ns`] readings; digests and verified outputs
//! never depend on it.
// rpas-lint: allow-file(D2, reason = "the ledger is a timing harness: Instant feeds latency metrics only, never a digest or a verified output")

use std::sync::OnceLock;
use std::time::Instant;

static START: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first reading in this process.
pub fn now_ns() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` and return its result with the nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = now_ns();
    let out = f();
    (out, now_ns() - t0)
}
