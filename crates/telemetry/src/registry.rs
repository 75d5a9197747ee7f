//! Sharded metric registry with cheap, cloneable recording handles.
//!
//! Layout: a fixed array of shards, each a `Mutex<BTreeMap<Key, Cell>>`.
//! Handle *acquisition* locks one shard briefly; *recording* never takes
//! a shard lock (counters are atomics, each histogram has its own
//! mutex), so fleet workers on different metrics do not contend.
//! Shard choice hashes the key with FNV-1a — a fixed algorithm, so the
//! shard layout itself is deterministic (and irrelevant to output:
//! snapshots re-sort all shards into one canonical order).
//!
//! Determinism: counter increments and histogram bucket counts are
//! order-independent sums, so snapshots are byte-identical for any
//! thread interleaving.

use rpas_obs::catalog::{self, EventName};
use rpas_obs::json::{escape_str, write_u64};
use rpas_obs::{Event, Histogram, Obs};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const SHARDS: usize = 16;

/// Canonical metric identity: name plus sorted, key-deduplicated labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Key {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':' | '-')),
            "metric name {name:?} must be non-empty [A-Za-z0-9_.:-]"
        );
        // Sorted by key, last write wins on duplicates — the same rule
        // Event::field applies, so exposition lines can't carry dupes.
        let mut map: BTreeMap<&str, &str> = BTreeMap::new();
        for (k, v) in labels {
            map.insert(k, v);
        }
        Key {
            name: name.to_string(),
            labels: map.into_iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        }
    }

    fn fnv1a(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
        };
        eat(self.name.as_bytes());
        for (k, v) in &self.labels {
            eat(&[0xff]);
            eat(k.as_bytes());
            eat(&[0xfe]);
            eat(v.as_bytes());
        }
        h
    }

    /// `name{k="v",…}` (or bare `name` without labels).
    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_str(v))).collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }
}

/// One registered metric cell. Recording goes through the `Arc` held by
/// handles; the registry keeps a second `Arc` for snapshotting.
#[derive(Clone)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Hist(Arc<Mutex<Histogram>>),
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().map(|x| x.to_bits()).eq(b.iter().map(|x| x.to_bits()))
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Hist(_) => "histogram",
        }
    }
}

/// A monotonically increasing counter handle (detached, recording
/// nothing, by default — what a dark [`Telemetry`] hands out).
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add `n`. Single branch when dark.
    #[inline]
    pub fn inc(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// A fixed-bucket histogram handle (buckets from [`rpas_obs::Histogram`]).
#[derive(Clone, Default)]
pub struct HistogramHandle(Option<Arc<Mutex<Histogram>>>);

impl HistogramHandle {
    /// Record one observation. Single branch when dark.
    #[inline]
    #[expect(clippy::expect_used, reason = "poisoned: a recording thread panicked, the stream is already corrupt")]
    pub fn record(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.lock().expect("histogram mutex poisoned").record(v);
        }
    }
}

/// The sharded registry. Usually reached through [`Telemetry`].
pub(crate) struct MetricRegistry {
    shards: Vec<Mutex<BTreeMap<Key, Cell>>>,
}

impl Default for MetricRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[expect(clippy::panic, reason = "# Panics contract: a kind mismatch is a static wiring bug")]
#[expect(clippy::expect_used, reason = "poisoned: a recording thread panicked, the stream is already corrupt")]
impl MetricRegistry {
    /// Empty registry with a fixed shard count.
    pub(crate) fn new() -> MetricRegistry {
        MetricRegistry { shards: (0..SHARDS).map(|_| Mutex::new(BTreeMap::new())).collect() }
    }

    fn cell(&self, key: Key, make: impl FnOnce() -> Cell) -> Cell {
        let idx = (key.fnv1a() % SHARDS as u64) as usize;
        let mut shard = self.shards[idx].lock().expect("registry shard poisoned");
        let cell = shard.entry(key.clone()).or_insert_with(make).clone();
        drop(shard);
        cell
    }

    /// Counter handle for `name{labels}` (registered on first use).
    ///
    /// # Panics
    /// Panics if the key is already registered as a different kind.
    pub(crate) fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = Key::new(name, labels);
        match self.cell(key, || Cell::Counter(Arc::new(AtomicU64::new(0)))) {
            Cell::Counter(c) => Counter(Some(c)),
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Histogram handle for `name{labels}` with the given inclusive
    /// upper bounds (used on first registration; later calls must pass
    /// identical bounds).
    ///
    /// # Panics
    /// Panics on kind or bound mismatch with an earlier registration.
    pub(crate) fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> HistogramHandle {
        let key = Key::new(name, labels);
        match self.cell(key, || Cell::Hist(Arc::new(Mutex::new(Histogram::new(bounds.to_vec()))))) {
            Cell::Hist(h) => {
                {
                    // Bit-level identity, not numeric tolerance: bounds
                    // are a schema, re-registration must not drift them.
                    let cur = h.lock().expect("histogram mutex poisoned");
                    assert!(
                        same_bits(cur.bounds(), bounds),
                        "metric {name:?} re-registered with different bounds"
                    );
                }
                HistogramHandle(Some(h))
            }
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Point-in-time snapshot of every registered metric, in one
    /// canonical sorted order (shard layout is invisible).
    pub(crate) fn snapshot(&self) -> Snapshot {
        let mut merged: BTreeMap<Key, SnapshotValue> = BTreeMap::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("registry shard poisoned");
            for (key, cell) in shard.iter() {
                let value = match cell {
                    Cell::Counter(c) => SnapshotValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Hist(h) => SnapshotValue::Histogram(
                        h.lock().expect("histogram mutex poisoned").clone(),
                    ),
                };
                merged.insert(key.clone(), value);
            }
        }
        Snapshot {
            entries: merged
                .into_iter()
                .map(|(key, value)| SnapshotEntry { name: key.render(), value })
                .collect(),
        }
    }
}

/// Snapshotted value of one metric.
#[derive(Debug, Clone)]
pub enum SnapshotValue {
    /// Monotonic count.
    Counter(u64),
    /// Full bucket state.
    Histogram(Histogram),
}

/// One `name{labels}` entry of a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// Rendered key, e.g. `sim.violations{tenant="t0003"}`.
    pub name: String,
    /// The value at snapshot time.
    pub value: SnapshotValue,
}

/// A canonical, sorted snapshot of a `MetricRegistry`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Entries sorted by rendered key.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Canonical text exposition: one `key kind value` line per metric,
    /// sorted, newline-terminated. Byte-identical across reruns and
    /// thread counts.
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.name);
            match &e.value {
                SnapshotValue::Counter(v) => {
                    out.push_str(" counter ");
                    write_u64(&mut out, *v);
                }
                SnapshotValue::Histogram(h) => {
                    out.push_str(" histogram count=");
                    write_u64(&mut out, h.count());
                    out.push(' ');
                    h.encode_into(&mut out);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Counter value by rendered key (`None` if absent or not a counter).
    pub fn counter_value(&self, rendered: &str) -> Option<u64> {
        self.entries.iter().find(|e| e.name == rendered).and_then(|e| match &e.value {
            SnapshotValue::Counter(v) => Some(*v),
            _ => None,
        })
    }
}

/// The cheap front handle: `Option<Arc<MetricRegistry>>`, cloned freely.
/// Dark handles hand out detached [`Counter`]/[`HistogramHandle`]s whose
/// recording cost is a single branch.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<MetricRegistry>>,
}

impl Telemetry {
    /// Dark handle: records nothing, snapshots are empty.
    pub fn noop() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Live handle over a fresh registry.
    pub fn live() -> Telemetry {
        Telemetry { inner: Some(Arc::new(MetricRegistry::new())) }
    }

    /// Counter handle (detached when dark).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.inner {
            Some(r) => r.counter(name, labels),
            None => Counter::default(),
        }
    }

    /// Histogram handle (detached when dark).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> HistogramHandle {
        match &self.inner {
            Some(r) => r.histogram(name, labels, bounds),
            None => HistogramHandle::default(),
        }
    }

    /// Snapshot (empty when dark).
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(r) => r.snapshot(),
            None => Snapshot::default(),
        }
    }
}

/// An [`Obs`] handle plus the counters its events declare in
/// [`catalog`] (`counts "<metric>"`), resolved once and found by
/// [`EventName::counter_slot`]: one [`Recorder::emit`] records both.
/// The default is dark.
#[derive(Clone, Default)]
pub struct Recorder {
    obs: Obs,
    counters: [Counter; catalog::COUNTED],
}

impl Recorder {
    /// Replace the obs handle; the counters stay.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Resolve, under `labels`, the counter of every entry in `spans`
    /// that declares one (entries sharing a metric share its cell), so
    /// each registers at zero before its first event.
    pub fn resolve(&mut self, tel: &Telemetry, labels: &[(&str, &str)], spans: &[&str]) {
        for name in catalog::ALL.iter().filter(|n| spans.contains(&n.span())) {
            if let (Some(slot), Some(metric)) = (name.counter_slot(), name.counter()) {
                self.counters[slot] = tel.counter(metric, labels);
            }
        }
    }

    /// The obs handle events go to.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Increment `name`'s counter, if it declares one, then emit `name`.
    /// The counter counts on a dark handle too; `build` runs only when a
    /// sink listens.
    #[inline]
    pub fn emit(&self, name: EventName, build: impl FnOnce(&mut Event)) {
        if let Some(slot) = name.counter_slot() {
            self.counters[slot].inc(1);
        }
        self.obs.emit(name, build);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let tel = Telemetry::live();
        let b = tel.counter("zeta.total", &[]);
        let a = tel.counter("alpha.total", &[("tenant", "t0001")]);
        a.inc(2);
        a.inc(3);
        b.inc(7);
        let snap = tel.snapshot();
        assert_eq!(
            snap.exposition(),
            "alpha.total{tenant=\"t0001\"} counter 5\nzeta.total counter 7\n"
        );
        assert_eq!(snap.counter_value("zeta.total"), Some(7));
    }

    #[test]
    fn labels_are_sorted_and_deduplicated_last_wins() {
        let tel = Telemetry::live();
        let c = tel.counter("m", &[("b", "2"), ("a", "1"), ("b", "3")]);
        c.inc(1);
        assert_eq!(tel.snapshot().exposition(), "m{a=\"1\",b=\"3\"} counter 1\n");
    }

    #[test]
    fn same_key_shares_a_cell_across_handles() {
        let tel = Telemetry::live();
        tel.counter("hits", &[("t", "x")]).inc(1);
        tel.counter("hits", &[("t", "x")]).inc(1);
        assert_eq!(tel.snapshot().counter_value("hits{t=\"x\"}"), Some(2));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let tel = Telemetry::live();
        tel.counter("m", &[]).inc(1);
        let _ = tel.histogram("m", &[], &[1.0]);
    }

    #[test]
    fn histogram_buckets() {
        let tel = Telemetry::live();
        let h = tel.histogram("lat", &[], &[1.0, 10.0]);
        h.record(1.0);
        h.record(5.0);
        h.record(100.0);
        let exp = tel.snapshot().exposition();
        assert_eq!(exp, "lat histogram count=3 le=1:1;le=10:1;inf:1\n");
    }

    #[test]
    fn noop_handles_record_nothing() {
        let tel = Telemetry::noop();
        let c = tel.counter("x", &[]);
        c.inc(5);
        assert!(tel.snapshot().entries.is_empty());
        assert_eq!(tel.snapshot().exposition(), "");
    }

    #[test]
    fn parallel_counter_increments_are_exact() {
        let tel = Telemetry::live();
        let c = tel.counter("par.total", &[]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc(1);
                    }
                });
            }
        });
        assert_eq!(tel.snapshot().counter_value("par.total"), Some(4000));
    }
}
