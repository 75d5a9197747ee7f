//! What a workload hands back to `main`, and the pieces all workloads
//! share: the measuring budget and the reference-digest bookkeeping.

use crate::clock::now_ns;
use crate::config;
use crate::reference::Reference;
use crate::stats::{self, Fnv};

/// How a run was asked to measure.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// The `--seed` every input derives from.
    pub seed: u64,
    /// Wall seconds of the measuring phase.
    pub seconds: f64,
    /// Traced run: ops alternate between tracer-on and tracer-off rounds.
    pub traced: bool,
    /// Lower bound on set-up repeats (`setup_s` is the median); see
    /// [`Budget::setup_again`].
    pub setup_repeats: usize,
}

impl Budget {
    /// Whether to set up once more after `done` repeats that took
    /// `spent_s` seconds in all: at least `setup_repeats` times, and
    /// cheap set-ups (a fleet builds in 0.1 s) until they add up to
    /// [`config::SETUP_MIN_SECONDS`], so their median is as steady as an
    /// expensive one's.
    pub fn setup_again(&self, done: usize, spent_s: f64) -> bool {
        done < self.setup_repeats
            || (self.setup_repeats > 1
                && spent_s < config::SETUP_MIN_SECONDS
                && done < config::SETUP_MAX_REPEATS)
    }

    /// The clock reading at which a measuring phase starting now ends.
    pub fn deadline_ns(&self) -> u64 {
        now_ns() + (self.seconds * 1e9) as u64
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The workload's own forecaster, as a layer.
#[derive(Debug, Clone, Copy)]
pub struct ForecastLayer {
    /// `Forecaster::fit` wall time of the last set-up.
    pub fit_s: f64,
    /// Allocator calls of one `forecast_quantiles`.
    pub allocs_per_predict: f64,
    /// Bytes requested by one `forecast_quantiles`.
    pub bytes_per_predict: f64,
}

/// One untraced timed stretch: an op of the cycle and checkpoint
/// workloads, a whole fleet (tick loop and `finish`) of the fleet ones.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Clock reading when the stretch ended.
    pub end_ns: u64,
    /// Timed seconds (reference-kernel samples taken inside excluded).
    pub secs: f64,
    /// Work units completed.
    pub work: f64,
}

/// One workload run, before aggregation.
#[derive(Default)]
pub struct Outcome {
    /// `(wall seconds, host slowdown)` of each repeated set-up.
    pub setup: Vec<(f64, f64)>,
    /// Untraced op latencies (ms), chronological ...
    pub lat_ms: Vec<f64>,
    /// ... and the clock reading at which each ended.
    pub lat_end_ns: Vec<u64>,
    /// Traced op latencies (ms), chronological (traced runs only).
    pub lat_traced_ms: Vec<f64>,
    /// Untraced timed stretches, chronological.
    pub segments: Vec<Segment>,
    /// The host-slowdown reference, sampled between ops.
    pub reference: Reference,
    /// Ops attempted (traced and untraced).
    pub attempted: u64,
    /// Ops that errored or failed verification.
    pub failed: u64,
    /// The same input produced two different outputs within this run.
    pub determinism_broken: bool,
    /// Why ops failed (first few), for the info line.
    pub failures: Vec<String>,
    /// `VmHWM` (MB) when the timed phase ended; the verification-only
    /// reruns after it are not counted.
    pub peak_rss_mb: f64,
    /// FNV-1a digest of the verified outputs.
    pub digest: u64,
    /// The workload's own forecaster, where it has a neural one.
    pub forecast: Option<ForecastLayer>,
}

impl Outcome {
    /// Run `setup` repeatedly per [`Budget::setup_again`], the reference
    /// kernel before and after each repeat; returns what the last repeat
    /// built.
    pub fn set_up<T>(
        &mut self,
        budget: &Budget,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut before = self.reference.sample();
        loop {
            let t0 = now_ns();
            let built = setup();
            let secs = (now_ns() - t0) as f64 / 1e9;
            let after = self.reference.sample();
            self.setup.push((secs, (before + after) / 2.0));
            before = after;
            let built = built?;
            let spent: f64 = self.setup.iter().map(|(secs, _)| secs).sum();
            if !budget.setup_again(self.setup.len(), spent) {
                return Ok(built);
            }
        }
    }

    /// Record the latency of the op that ran over `[t0, t1]` on the
    /// clock, then sample the reference kernel if it is due.
    pub fn record_latency(&mut self, traced: bool, t0: u64, t1: u64) {
        let ms = (t1 - t0) as f64 / 1e6;
        if traced {
            self.lat_traced_ms.push(ms);
        } else {
            self.lat_ms.push(ms);
            self.lat_end_ns.push(t1);
        }
        self.reference.sample_if_due();
    }

    /// Record an op that is its own timed stretch and one work unit
    /// (a decision, a round trip).
    pub fn record_op(&mut self, traced: bool, t0: u64, t1: u64) {
        self.attempted += 1;
        if !traced {
            self.segments.push(Segment { end_ns: t1, secs: (t1 - t0) as f64 / 1e9, work: 1.0 });
        }
        self.record_latency(traced, t0, t1);
    }

    /// Book the verified output of input `k`: `result` is its digest, or
    /// why it failed verification. A digest that differs from the input's
    /// first visit breaks determinism.
    pub fn settle(
        &mut self,
        refs: &mut References,
        k: usize,
        what: &str,
        result: Result<u64, String>,
    ) {
        match result {
            Ok(digest) if refs.check(k, digest) => {}
            Ok(_) => {
                self.determinism_broken = true;
                self.fail(format!("{what} {k}: output differs from its first visit"));
            }
            Err(why) => self.fail(format!("{what} {k}: {why}")),
        }
    }

    /// Close the timed phase: read the peak resident set.
    pub fn end_timed_phase(&mut self) -> Result<(), String> {
        self.peak_rss_mb = peak_rss_mb()?;
        Ok(())
    }

    /// Count one failed op, keeping the first few reasons.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// Host slowdown of each of the ten chronological blocks of `ends`
    /// (clock readings of consecutive timed items).
    fn block_slowdowns(&self, ends: &[u64]) -> Vec<f64> {
        stats::per_block(ends, |b| self.reference.slowdown(b[0], b[b.len() - 1]))
    }

    /// The timed-phase metrics, compensated (`stats::quiet_estimate`) and
    /// as plain wall-clock best-block values.
    pub fn timings(&self, tail_percentile: f64) -> Result<Timings, String> {
        if self.lat_ms.is_empty() || self.segments.is_empty() || self.setup.is_empty() {
            return Err("no op completed inside the measuring phase".into());
        }
        let p50 = stats::per_block(&self.lat_ms, stats::median);
        let tail = stats::per_block(&self.lat_ms, |b| {
            stats::percentile(&stats::sorted(b), tail_percentile)
        });
        let rate = stats::per_block(&self.segments, |b| {
            b.iter().map(|s| s.work).sum::<f64>() / b.iter().map(|s| s.secs).sum::<f64>()
        });
        let seg_ends: Vec<u64> = self.segments.iter().map(|s| s.end_ns).collect();
        let lat_slow = self.block_slowdowns(&self.lat_end_ns);
        let seg_slow = self.block_slowdowns(&seg_ends);
        // `compensate` off: every slowdown reads 1.
        let estimate = |compensate: bool| {
            let slow = |s: &[f64]| if compensate { s.to_vec() } else { vec![1.0] };
            let setups: Vec<f64> = self
                .setup
                .iter()
                .map(|&(secs, slowdown)| if compensate { secs / slowdown } else { secs })
                .collect();
            Timing {
                setup_s: stats::median(&setups),
                op_p50_ms: stats::quiet_estimate(&p50, &slow(&lat_slow), false),
                op_tail_ms: stats::quiet_estimate(&tail, &slow(&lat_slow), false),
                ops_per_s: stats::quiet_estimate(&rate, &slow(&seg_slow), true),
            }
        };
        let (compensated, wall_clock) = (estimate(true), estimate(false));
        Ok(Timings { compensated, wall_clock, block_p50_ms: p50, block_slowdown: lat_slow })
    }
}

/// The four timing metrics.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median set-up time.
    pub setup_s: f64,
    /// Median op latency of the quietest block.
    pub op_p50_ms: f64,
    /// Tail op latency of the quietest block.
    pub op_tail_ms: f64,
    /// Throughput of the quietest block.
    pub ops_per_s: f64,
}

/// The timing metrics of one run.
pub struct Timings {
    /// What the result line reports: divided by the host's slowdown.
    pub compensated: Timing,
    /// The same as plain wall-clock values, for the info line.
    pub wall_clock: Timing,
    /// Median wall-clock latency of each block, for the info line.
    pub block_p50_ms: Vec<f64>,
    /// Host slowdown of each block, for the info line.
    pub block_slowdown: Vec<f64>,
}

/// Reference digests of a fixed set of inputs that ops cycle through.
/// The first visit of an input records its output digest; every later
/// visit must reproduce it. The workload digest folds the references in
/// input order, so it does not depend on how many ops a run got through
/// (as long as every input was visited once).
#[derive(Debug)]
pub struct References(Vec<Option<u64>>);

impl References {
    /// `inputs` distinct inputs, none visited yet.
    pub fn new(inputs: usize) -> Self {
        Self(vec![None; inputs])
    }

    /// Record or compare the output digest of input `k`. `false` means
    /// the same input produced a different output than before.
    pub fn check(&mut self, k: usize, digest: u64) -> bool {
        *self.0[k].get_or_insert(digest) == digest
    }

    /// The recorded reference of input `k`.
    pub fn get(&self, k: usize) -> Option<u64> {
        self.0[k]
    }

    /// Fold the visited references, in input order.
    pub fn digest(&self) -> u64 {
        let mut f = Fnv::default();
        for d in self.0.iter().flatten() {
            f.u64(*d);
        }
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_pin_first_visit_and_fold_in_input_order() {
        let mut a = References::new(3);
        assert!(a.check(2, 30) && a.check(0, 10) && a.check(1, 20));
        assert!(a.check(0, 10), "same output again is fine");
        assert!(!a.check(0, 11), "a different output for the same input is not");
        assert_eq!(a.get(0), Some(10), "the first visit stays the reference");
        let mut b = References::new(3);
        assert!(b.check(0, 10) && b.check(1, 20) && b.check(2, 30));
        assert_eq!(a.digest(), b.digest(), "visit order does not matter");
    }
}
