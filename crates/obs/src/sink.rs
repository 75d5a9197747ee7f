//! Sinks and the cheap [`Obs`] handle the rest of the workspace threads
//! through its APIs.
//!
//! Design: the no-op handle is `Obs { inner: None }`, so the hot-path
//! check is a single pointer-sized branch and the *event-building closure
//! is never invoked* when nothing is listening — disabled instrumentation
//! costs neither allocations nor field formatting. Enabled handles hold an
//! `Arc`, making `Obs` `Clone + Send + Sync` and trivially shareable with
//! worker threads and policy objects.

#![expect(clippy::disallowed_types, reason = "the workspace's clock: read here, only into ts_us / wall_us")]

use crate::catalog::{self, EventName};
use crate::event::{Event, Level, Value};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Where events go. Sinks are shown fully-built events by reference and
/// must be callable from any thread.
pub trait Sink: Send + Sync {
    /// Most verbose level this sink wants (events below are skipped).
    fn max_level(&self) -> Level;

    /// Consume one event.
    fn emit(&self, event: &Event);

    /// Flush buffered output (JSONL file sink); default no-op.
    fn flush(&self) {}

    /// Whether the sink reads an event's `ts_us`. A handle reads the
    /// clock only when one of its sinks does; otherwise every event
    /// keeps `ts_us` 0.
    fn reads_clock(&self) -> bool {
        true
    }
}

/// Human-readable stderr sink (the `RPAS_LOG` target). This is the one
/// place in the workspace allowed to write to stderr directly — the
/// `scripts/verify.sh` grep guard enforces that every other crate routes
/// diagnostics through an [`Obs`] handle.
pub struct StderrSink {
    max_level: Level,
}

impl StderrSink {
    /// New sink showing events at or above `max_level` severity.
    pub fn new(max_level: Level) -> Self {
        Self { max_level }
    }
}

#[expect(clippy::print_stderr, reason = "the stderr sink is where an event becomes a stderr line")]
impl Sink for StderrSink {
    fn max_level(&self) -> Level {
        self.max_level
    }

    /// The level, the names, then each field as `key=value`, a string
    /// unquoted.
    fn emit(&self, event: &Event) {
        let record = event.record();
        let mut line = format!("[{:5}] {}/{}", record.level.as_str(), record.span, record.name);
        for (k, v) in record {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            match v {
                Value::Str(s) => line.push_str(&s),
                v => v.write_json(&mut line),
            }
        }
        if let Some(w) = event.wall_us {
            line.push_str(&format!(" ({})", fmt_us(w)));
        }
        eprintln!("{line}");
    }
}

/// A duration in micros for a person to read: `850µs`, `12.5ms`, `3.25s`.
pub fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{:.2}s", us as f64 / 1e6)
    }
}

/// JSONL file sink writing one schema-v1 line per event (the
/// `--trace-out` / `RPAS_TRACE_OUT` target). Captures every level: a
/// trace file is for post-hoc analysis, so verbosity costs only disk.
pub struct JsonlSink {
    /// The file and the buffer every line is rendered into.
    out: Mutex<(std::io::BufWriter<std::fs::File>, String)>,
}

impl JsonlSink {
    /// Create (truncating) the trace file.
    ///
    /// # Errors
    /// Propagates file-creation errors.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self { out: Mutex::new((std::io::BufWriter::new(file), String::new())) })
    }
}

#[expect(clippy::expect_used, reason = "poisoned: an emitter panicked mid-line, the trace is already lost")]
impl Sink for JsonlSink {
    fn max_level(&self) -> Level {
        Level::Debug
    }

    fn emit(&self, event: &Event) {
        let mut out = self.out.lock().expect("trace file poisoned");
        let (file, line) = &mut *out;
        line.clear();
        event.write_json(line);
        line.push('\n');
        let _ = file.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("trace file poisoned").0.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// In-memory sink: what tests and probes read events back from. Keeps a
/// copy of every event's record; a clone of the handle reads them after
/// the instrumented code ran. (A fleet captures each tenant's trace in
/// its own type, `rpas_core::Capture`, which appends each record to a
/// [`crate::Tape`] and keeps nothing of the event.)
#[derive(Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` on the captured events under the sink's lock.
    #[expect(clippy::expect_used, reason = "poisoned: a push panicked while holding the buffer")]
    fn with_events<R>(&self, f: impl FnOnce(&mut Vec<Event>) -> R) -> R {
        f(&mut self.events.lock().expect("memory sink poisoned"))
    }

    /// Snapshot of everything captured so far.
    pub fn events(&self) -> Vec<Event> {
        self.with_events(|events| events.clone())
    }

    /// Take everything captured so far, leaving the sink empty — no
    /// per-event clone, so consumers that own the capture (the fleet
    /// engine drains one sink per tenant) pay only a pointer swap.
    pub fn drain(&self) -> Vec<Event> {
        self.with_events(std::mem::take)
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.with_events(|events| events.len())
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn max_level(&self) -> Level {
        Level::Debug
    }

    fn emit(&self, event: &Event) {
        let event = event.clone();
        self.with_events(|events| events.push(event));
    }
}

struct Inner {
    sinks: Vec<Box<dyn Sink>>,
    /// Most verbose level any sink wants; pre-computed gate for `enabled`.
    max_level: Level,
    /// Whether any sink reads `ts_us` (see [`Sink::reads_clock`]).
    clock: bool,
    seq: AtomicU64,
}

/// The observability handle: either a no-op (`Obs::noop`) or a shared
/// bundle of sinks. Cheap to clone, free to carry, safe to share across
/// threads. APIs across the workspace accept one of these; passing
/// `Obs::noop()` (the `Default`) keeps them exactly as fast as before the
/// instrumentation existed.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Obs::noop"),
            Some(i) => write!(f, "Obs({} sinks, ≤{})", i.sinks.len(), i.max_level.as_str()),
        }
    }
}

impl Obs {
    /// The disabled handle: every `emit` is a single branch, no closure
    /// call, no allocation.
    pub fn noop() -> Self {
        Self { inner: None }
    }

    /// Handle over one sink.
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        Self::multi(vec![sink])
    }

    /// Handle fanning out to several sinks (each filtered by its own
    /// `max_level`). An empty sink list degenerates to `noop`.
    pub fn multi(sinks: Vec<Box<dyn Sink>>) -> Self {
        let Some(max_level) = sinks.iter().map(|s| s.max_level()).max() else {
            return Self::noop();
        };
        let clock = sinks.iter().any(|s| s.reads_clock());
        Self { inner: Some(Arc::new(Inner { sinks, max_level, clock, seq: AtomicU64::new(0) })) }
    }

    /// Build from the environment:
    ///
    /// * `RPAS_LOG=error|warn|info|debug|off` — stderr verbosity
    ///   (default `info`; `off` silences stderr entirely);
    /// * `RPAS_TRACE_OUT=path` — additionally write every event as
    ///   schema-v1 JSONL to `path`.
    ///
    /// An unwritable trace path falls back to stderr-only with a warning
    /// event rather than failing the run.
    pub fn from_env() -> Self {
        Self::from_env_with_trace(std::env::var("RPAS_TRACE_OUT").ok().as_deref())
    }

    /// As [`Obs::from_env`], but with the trace path supplied explicitly
    /// (CLI `--trace-out` overrides `RPAS_TRACE_OUT`).
    #[expect(clippy::print_stderr, reason = "bootstrap: no sink exists yet to carry this warning")]
    pub fn from_env_with_trace(trace_out: Option<&str>) -> Self {
        let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
        let level = match std::env::var("RPAS_LOG").ok().as_deref() {
            None => Some(Level::Info),
            Some("off") => None,
            Some(s) => match Level::parse(s) {
                Some(l) => Some(l),
                None => {
                    // Bootstrapping problem: no sink exists yet, so this
                    // warning has nowhere else to go.
                    eprintln!("[warn ] obs/env bad RPAS_LOG value {s:?}; using info");
                    Some(Level::Info)
                }
            },
        };
        if let Some(l) = level {
            sinks.push(Box::new(StderrSink::new(l)));
        }
        let mut trace_err = None;
        if let Some(path) = trace_out {
            match JsonlSink::create(std::path::Path::new(path)) {
                Ok(s) => sinks.push(Box::new(s)),
                Err(e) => trace_err = Some((path.to_string(), e)),
            }
        }
        let obs = Self::multi(sinks);
        if let Some((path, e)) = trace_err {
            obs.emit(catalog::OBS_TRACE_OPEN_FAILED, |ev| {
                ev.field("path", path).field("error", e.to_string());
            });
        }
        obs
    }

    /// Whether any sink listens at `level`. Use to skip *computation* that
    /// exists only to feed an event; `emit` already does this internally.
    pub fn enabled(&self, level: Level) -> bool {
        match &self.inner {
            None => false,
            Some(i) => level <= i.max_level,
        }
    }

    /// Emit one catalogued event: the closure builds fields onto a fresh
    /// [`Event`] and runs only if some sink listens at the event's level.
    /// A debug build checks that every key it set is one the event's
    /// catalogue entry declares.
    #[inline]
    pub fn emit(&self, name: EventName, build: impl FnOnce(&mut Event)) {
        self.emit_also(name, None, build);
    }

    /// As [`Obs::emit`], and show the same build to `also`, which need not
    /// be one of the handle's sinks: the event is built when either
    /// listens. A fleet tenant's supervision facts go to the fleet's
    /// handle and the tenant's capture this way.
    #[inline]
    pub fn emit_also(
        &self,
        name: EventName,
        also: Option<&dyn Sink>,
        build: impl FnOnce(&mut Event),
    ) {
        self.emit_raw(name.level(), also, || Event::of(name), |event| {
            build(event);
            if cfg!(debug_assertions) {
                for (key, _) in event.record() {
                    assert!(
                        name.keys().contains(&key),
                        "`{name}` set field {key:?}, which its catalogue entry does not declare"
                    );
                }
            }
        });
    }

    /// Emit an info-level event named by strings. The escape hatch from
    /// [`catalog`]: it exists, with [`Event::new`], because the frozen
    /// benchmark under `ledger/` calls exactly these two signatures;
    /// workspace code uses [`Obs::emit`] (rule E1, `clippy.toml`), and the next
    /// `benchmark` PR can move the ledger over and make both private.
    pub fn info(&self, span: &'static str, name: &'static str, build: impl FnOnce(&mut Event)) {
        self.emit_raw(Level::Info, None, || Event::new(Level::Info, span, name), build);
    }

    /// The dark path is this branch and nothing else: building the event
    /// (`shell`, then `build`) and showing it to the sinks is kept out of
    /// line so the check inlines into every emit site.
    #[inline]
    fn emit_raw(
        &self,
        level: Level,
        also: Option<&dyn Sink>,
        shell: impl FnOnce() -> Event,
        build: impl FnOnce(&mut Event),
    ) {
        #[inline(never)]
        fn lit(
            level: Level,
            inner: Option<&Inner>,
            also: Option<&dyn Sink>,
            shell: impl FnOnce() -> Event,
            build: impl FnOnce(&mut Event),
        ) {
            let mut event = shell();
            build(&mut event);
            if let Some(inner) = inner {
                event.seq = inner.seq.fetch_add(1, Ordering::Relaxed);
                if inner.clock {
                    event.ts_us = SystemTime::now()
                        .duration_since(UNIX_EPOCH)
                        .map(|d| d.as_micros() as u64)
                        .unwrap_or(0);
                }
                for sink in inner.sinks.iter().filter(|s| level <= s.max_level()) {
                    sink.emit(&event);
                }
            }
            if let Some(sink) = also.filter(|s| level <= s.max_level()) {
                sink.emit(&event);
            }
        }
        let inner = self.inner.as_deref().filter(|i| level <= i.max_level);
        if inner.is_some() || also.is_some() {
            lit(level, inner, also, shell, build);
        }
    }

    /// Start a wall-clock timer for one `phase` of a span; the returned
    /// guard emits `name` (a `*_SPAN_CLOSE` entry) with a `phase` field
    /// and `wall_us` when dropped (or via [`SpanTimer::finish`] to attach
    /// extra fields).
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: EventName, phase: &'static str) -> SpanTimer {
        SpanTimer {
            obs: self.clone(),
            name,
            phase,
            start: Instant::now(),
            armed: self.enabled(name.level()),
        }
    }

    /// Flush every sink (call before process exit so JSONL buffers land).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in &inner.sinks {
                sink.flush();
            }
        }
    }
}

/// RAII wall-clock timer for a phase; see [`Obs::span`].
pub struct SpanTimer {
    obs: Obs,
    name: EventName,
    phase: &'static str,
    start: Instant,
    armed: bool,
}

impl SpanTimer {
    /// Elapsed wall-clock so far.
    pub(crate) fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Close the span now, attaching extra fields to the close event.
    pub fn finish(mut self, build: impl FnOnce(&mut Event)) {
        self.close(build);
    }

    fn close(&mut self, build: impl FnOnce(&mut Event)) {
        if !self.armed {
            return;
        }
        self.armed = false;
        let wall = self.elapsed_us();
        self.obs.emit(self.name, |e| {
            e.field("phase", self.phase);
            e.wall_us = Some(wall);
            build(e);
        });
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.close(|_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// That the dark handle also allocates nothing — emit, span open and
    /// span close — is counted in `crates/bench/tests/alloc_emit.rs`: the
    /// counting allocator lives in `rpas-bench`, which depends on this
    /// crate.
    #[test]
    fn noop_never_invokes_builder() {
        let obs = Obs::noop();
        let mut built = 0;
        obs.emit(catalog::CLI_FATAL, |_| built += 1);
        obs.info("x", "y", |_| built += 1);
        obs.span(catalog::BACKTEST_SPAN_CLOSE, "fit").finish(|_| built += 1);
        drop(obs.span(catalog::BACKTEST_SPAN_CLOSE, "rolling"));
        assert_eq!(built, 0);
        assert!(!obs.enabled(Level::Error));
    }

    /// A key the event's catalogue entry does not list fails the emit in
    /// a debug build; the string-named escape hatch is not checked.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "`sim/step` set field \"policy\", which its catalogue entry does not declare")]
    fn an_undeclared_key_fails_a_debug_emit() {
        let obs = Obs::with_sink(Box::new(MemorySink::new()));
        obs.info("x", "y", |e| {
            e.field("anything", 1u64);
        });
        obs.emit(catalog::SIM_STEP, |e| {
            e.field("step", 1u64).field("policy", "hold");
        });
    }

    /// Every sink listening at an event's level is shown it, and so is a
    /// sink given to `emit_also`, also when the handle itself is dark.
    #[test]
    fn each_listening_sink_is_shown_the_event_once() {
        struct Counting(Arc<AtomicU64>, Level);
        impl Sink for Counting {
            fn max_level(&self) -> Level {
                self.1
            }
            fn emit(&self, _: &Event) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let tally = || Arc::new(AtomicU64::new(0));
        let (debug, info, also) = (tally(), tally(), tally());
        let obs = Obs::multi(vec![
            Box::new(Counting(Arc::clone(&debug), Level::Debug)),
            Box::new(Counting(Arc::clone(&info), Level::Info)),
        ]);
        obs.emit(catalog::PLAN_SUMMARY, |_| {});
        obs.emit(catalog::PLAN_DECISION, |_| {});
        let extra = Counting(Arc::clone(&also), Level::Debug);
        obs.emit_also(catalog::PLAN_DECISION, Some(&extra), |_| {});
        Obs::noop().emit_also(catalog::PLAN_DECISION, Some(&extra), |_| {});
        let read = |t: &AtomicU64| t.load(Ordering::Relaxed);
        assert_eq!((read(&debug), read(&info), read(&also)), (3, 1, 2));
    }

    /// The clock is read for an event when some sink of the handle reads
    /// `ts_us`, and never for a handle whose sinks all ignore it.
    #[test]
    fn the_clock_is_read_only_for_a_sink_that_reads_it() {
        struct Untimed(MemorySink);
        impl Sink for Untimed {
            fn max_level(&self) -> Level {
                Level::Debug
            }
            fn emit(&self, e: &Event) {
                self.0.emit(e);
            }
            fn reads_clock(&self) -> bool {
                false
            }
        }
        let (untimed, timed) = (MemorySink::new(), MemorySink::new());
        Obs::with_sink(Box::new(Untimed(untimed.clone()))).emit(catalog::PLAN_DECISION, |_| {});
        assert_eq!(untimed.events()[0].ts_us, 0);
        let both = Obs::multi(vec![Box::new(Untimed(untimed.clone())), Box::new(timed.clone())]);
        both.emit(catalog::PLAN_DECISION, |_| {});
        assert!(untimed.events()[1].ts_us > 0 && timed.events()[0].ts_us > 0);
    }

    #[test]
    fn memory_sink_drain_takes_and_empties() {
        let mem = MemorySink::new();
        let obs = Obs::with_sink(Box::new(mem.clone()));
        obs.info("s", "a", |_| {});
        obs.info("s", "b", |_| {});
        let drained = mem.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[1].name(), "b");
        assert!(mem.is_empty());
        assert!(mem.drain().is_empty());
        // The sink stays usable after a drain.
        obs.info("s", "c", |_| {});
        assert_eq!(mem.len(), 1);
    }

    #[test]
    fn memory_sink_captures_in_order_with_seq() {
        let mem = MemorySink::new();
        let obs = Obs::with_sink(Box::new(mem.clone()));
        obs.emit(catalog::PLAN_SUMMARY, |e| {
            e.field("horizon", 1u64);
        });
        obs.emit(catalog::PLAN_DECISION, |_| {});
        let ev = mem.events();
        assert_eq!(ev.len(), 2);
        assert!(ev[0].is(catalog::PLAN_SUMMARY));
        assert!(ev[1].is(catalog::PLAN_DECISION));
        assert_eq!((ev[0].level(), ev[1].level()), (Level::Info, Level::Debug));
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[1].seq, 1);
    }

    #[test]
    fn sink_level_filters() {
        struct Quiet(MemorySink);
        impl Sink for Quiet {
            fn max_level(&self) -> Level {
                Level::Warn
            }
            fn emit(&self, e: &Event) {
                self.0.emit(e);
            }
        }
        let mem = MemorySink::new();
        let obs = Obs::with_sink(Box::new(Quiet(mem.clone())));
        obs.emit(catalog::SIM_REPORT, |_| {});
        obs.emit(catalog::SIM_ZERO_WORKLOAD, |_| {});
        assert!(obs.enabled(Level::Warn));
        assert!(!obs.enabled(Level::Info));
        let ev = mem.events();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].is(catalog::SIM_ZERO_WORKLOAD));
    }

    #[test]
    fn span_timer_emits_wall_time() {
        let mem = MemorySink::new();
        let obs = Obs::with_sink(Box::new(mem.clone()));
        {
            let t = obs.span(catalog::BACKTEST_SPAN_CLOSE, "fit");
            t.finish(|e| {
                e.field("model", "tft");
            });
        }
        let ev = mem.events();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].is(catalog::BACKTEST_SPAN_CLOSE));
        assert_eq!(ev[0].get("phase"), Some(crate::Value::Str("fit".into())));
        assert!(ev[0].wall_us.is_some());
        assert_eq!(ev[0].get("model"), Some(crate::Value::Str("tft".into())));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!("rpas_obs_test_{}.jsonl", std::process::id()));
        {
            let obs =
                Obs::with_sink(Box::new(JsonlSink::create(&path).expect("create trace file")));
            obs.emit(catalog::PLAN_SUMMARY, |e| {
                e.field("horizon", 42u64);
            });
            obs.flush();
        }
        let text = std::fs::read_to_string(&path).expect("read trace back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        crate::schema::validate_line(lines[0]).expect("schema-valid line");
        std::fs::remove_file(&path).ok();
    }
}
