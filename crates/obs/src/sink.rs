//! Sinks and the cheap [`Obs`] handle the rest of the workspace threads
//! through its APIs.
//!
//! Design: the no-op handle is `Obs { inner: None }`, so the hot-path
//! check is a single pointer-sized branch and the *event-building closure
//! is never invoked* when nothing is listening — disabled instrumentation
//! costs neither allocations nor field formatting. Enabled handles hold an
//! `Arc`, making `Obs` `Clone + Send + Sync` and trivially shareable with
//! worker threads and policy objects. Behind it is the one tape every
//! record is built on, under a lock: a capture's, which keeps the
//! records, or a scratch one the sinks read each record from.

#![expect(clippy::disallowed_types, reason = "the workspace's clock: read here, only into ts_us / wall_us")]

use crate::catalog::{self, EventName};
use crate::event::{Event, Head, Level, Value};
use crate::tape::Tape;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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
/// copy of every record it is shown, on a tape of its own, with the
/// event's stamps, and makes events of them when read; a clone of the
/// handle reads them after the instrumented code ran. (A fleet tenant's
/// trace is a capture, [`Obs::capture`], whose records stay where they
/// are built.)
#[derive(Clone, Default)]
pub struct MemorySink {
    kept: Arc<Mutex<Kept>>,
}

/// A memory sink's log: a copy of each record it was shown, closed onto
/// the tape, and its `seq`, `ts_us` and `wall_us`.
#[derive(Default)]
struct Kept {
    tape: Tape,
    stamps: Vec<(u64, u64, Option<u64>)>,
}

impl Kept {
    /// Every record kept, as an event of its own.
    fn events(&self) -> Vec<Event> {
        let (mut at, mut byte) = (0, 0);
        let event = |&(seq, ts_us, wall_us): &(u64, u64, Option<u64>)| {
            let mut event = Event::on(Tape::default());
            (at, byte) = event.tape.copy_record(self.tape.cursor(byte), at);
            (event.seq, event.ts_us, event.wall_us) = (seq, ts_us, wall_us);
            event
        };
        self.stamps.iter().map(event).collect()
    }
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` on the kept records under the sink's lock.
    #[expect(clippy::expect_used, reason = "poisoned: a copy panicked while holding the tape")]
    fn with_kept<R>(&self, f: impl FnOnce(&mut Kept) -> R) -> R {
        f(&mut self.kept.lock().expect("memory sink poisoned"))
    }

    /// Snapshot of everything captured so far.
    pub fn events(&self) -> Vec<Event> {
        self.with_kept(|kept| kept.events())
    }

    /// Take everything captured so far, leaving the sink empty (the room
    /// its records took is kept for the next ones).
    pub fn drain(&self) -> Vec<Event> {
        self.with_kept(|kept| {
            let events = kept.events();
            kept.tape.clear();
            kept.stamps.clear();
            events
        })
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.with_kept(|kept| kept.stamps.len())
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

    /// A copy of the record closed onto the sink's log, and the stamps.
    fn emit(&self, event: &Event) {
        self.with_kept(|kept| {
            kept.tape.copy_open(&event.tape);
            kept.tape.close();
            kept.stamps.push((event.seq, event.ts_us, event.wall_us));
        });
    }
}

/// A live handle's shared state. What an emit touches — the level gate,
/// the holder, the lock and the event's stamps and tape ends — is its
/// first 128 bytes, on two cache lines of their own: a fleet tick reaches
/// each tenant's capture cold, so every line an emit spans is a miss.
#[repr(C, align(64))]
struct Inner {
    /// Most verbose level any sink wants; pre-computed gate for `enabled`.
    max_level: Level,
    /// Whether records stay on the tape: a capture's handle, which has no
    /// sinks.
    keeps: bool,
    /// The [`thread_token`] of the thread holding `event`, 0 when none:
    /// an emit that finds its own thread here is nested in a build (or a
    /// sink) on this handle, and is refused ([`Inner::hold`]).
    holder: AtomicUsize,
    /// The event every record is built in, on a capture's tape or on a
    /// scratch tape the sinks read each record from, emptied after.
    event: Mutex<Event>,
    sinks: Vec<Box<dyn Sink>>,
    seq: AtomicU64,
}

/// A handle's event, locked, with this thread its holder until dropped.
struct Held<'a> {
    inner: &'a Inner,
    event: MutexGuard<'a, Event>,
}

impl Drop for Held<'_> {
    #[inline]
    fn drop(&mut self) {
        self.inner.holder.store(0, Ordering::Relaxed);
    }
}

/// A token of the calling thread, never 0: the address of a
/// thread-local. It only tells a nested emit from another thread's.
#[inline]
fn thread_token() -> usize {
    thread_local!(static TOKEN: u8 = const { 0 });
    TOKEN.with(|token| std::ptr::from_ref(token).addr())
}

impl Inner {
    /// Lock the event, this thread its holder. A build that panicked
    /// left its record open, and the next [`Event::open`] drops it.
    ///
    /// # Panics
    /// If this thread holds it already, in a build or a sink on this
    /// handle: it would wait for ever on its own lock.
    #[inline]
    #[expect(clippy::panic, reason = "the alternative is a thread waiting on its own lock for ever")]
    fn hold(&self) -> Held<'_> {
        if self.held_here() {
            panic!(
                "rpas-obs: an emit inside a build or a sink on the same `Obs` handle; this \
                 thread holds the handle's lock, so the emit would deadlock"
            );
        }
        let event = self.event.lock().unwrap_or_else(PoisonError::into_inner);
        self.holder.store(thread_token(), Ordering::Relaxed);
        Held { inner: self, event }
    }

    /// Whether the calling thread holds the event.
    #[inline]
    fn held_here(&self) -> bool {
        self.holder.load(Ordering::Relaxed) == thread_token()
    }
}

/// The observability handle: a no-op (`Obs::noop`), a shared bundle of
/// sinks, or a capture ([`Obs::capture`]). Cheap to clone, free to
/// carry, safe to share across threads. APIs across the workspace accept one of these; passing
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
            Some(i) if i.keeps => write!(f, "Obs::capture"),
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
        Self::over(sinks, max_level, Tape::default())
    }

    /// A capture: a handle that keeps every event, at every level, where
    /// its emit builds it, on the handle's own tape, until
    /// [`Obs::append_captured`] renders them as lines labelled `tenant:
    /// label` (a fleet tenant's trace). It reads no clock: a line's
    /// `ts_us` is 0.
    pub fn capture(label: String) -> Self {
        Self::over(Vec::new(), Level::Debug, Tape::labelled(label))
    }

    fn over(sinks: Vec<Box<dyn Sink>>, max_level: Level, tape: Tape) -> Self {
        let inner = Inner {
            keeps: sinks.is_empty(),
            sinks,
            max_level,
            seq: AtomicU64::new(0),
            event: Mutex::new(Event::on(tape)),
            holder: AtomicUsize::new(0),
        };
        Self { inner: Some(Arc::new(inner)) }
    }

    /// Events a capture holds (0 for any other handle).
    pub fn captured(&self) -> usize {
        self.capture_tape(|tape| tape.len()).unwrap_or(0)
    }

    /// Move every event a capture holds into `lines` as its line, numbered
    /// by its position there, timings and its own `tenant` dropped, the
    /// capture's label in its sorted place, `ts_us` 0, each allocated at
    /// its exact size. The capture is left empty; any other handle adds
    /// nothing.
    pub fn append_captured(&self, lines: &mut Vec<String>) {
        self.capture_tape(|tape| tape.append_lines(lines));
    }

    /// `f` on a capture's tape, if this is a capture.
    pub(crate) fn capture_tape<R>(&self, f: impl FnOnce(&mut Tape) -> R) -> Option<R> {
        let inner = self.inner.as_deref().filter(|i| i.keeps)?;
        Some(f(&mut inner.hold().event.tape))
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

    /// Emit one catalogued event: the closure builds its fields in place
    /// on the handle's tape ([`Event`]) and runs only if some sink listens
    /// at the event's level. A debug build checks that every key it set is
    /// one the event's catalogue entry declares.
    ///
    /// # Panics
    /// If called from inside a build (or a sink) on this same handle:
    /// the build holds the handle's lock, so the emit would deadlock. An
    /// emit on another handle from inside a build is fine.
    #[inline]
    pub fn emit(&self, name: EventName, build: impl FnOnce(&mut Event)) {
        self.emit_raw(name.level(), || Head::Entry(name), |event| {
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
        self.emit_raw(Level::Info, || Head::Named(Level::Info, span, name), build);
    }

    /// The dark path is this branch and nothing else: building the record
    /// and delivering it are kept out of line so the check inlines into
    /// every emit site.
    #[inline]
    pub(crate) fn emit_raw(
        &self,
        level: Level,
        head: impl FnOnce() -> Head,
        build: impl FnOnce(&mut Event),
    ) {
        if let Some(inner) = self.inner.as_deref().filter(|i| level <= i.max_level) {
            lit(head, inner, build);
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

/// The lit path of an emit site: its record's head, and its build
/// handed on as `dyn`.
#[inline(never)]
fn lit(head: impl FnOnce() -> Head, inner: &Inner, build: impl FnOnce(&mut Event)) {
    let mut build = Some(build);
    let build = &mut |event: &mut Event| build.take().map_or((), |build| build(event));
    build_and_deliver(&head(), inner, build);
}

/// Build the record on the handle's tape, then close it where it stays
/// (a capture), or stamp it, show it to every sink listening at its level
/// and empty the scratch tape: one instance for every emit site.
fn build_and_deliver(head: &Head, inner: &Inner, build: &mut dyn FnMut(&mut Event)) {
    let mut held = inner.hold();
    let event = &mut *held.event;
    event.open(head);
    build(event);
    if inner.keeps {
        return event.tape.close();
    }
    event.seq = inner.seq.fetch_add(1, Ordering::Relaxed);
    event.ts_us =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0);
    for sink in inner.sinks.iter().filter(|s| head.level() <= s.max_level()) {
        sink.emit(event);
    }
    event.tape.clear();
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

    /// Every sink listening at an event's level is shown it.
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
        let (debug, info) = (tally(), tally());
        let obs = Obs::multi(vec![
            Box::new(Counting(Arc::clone(&debug), Level::Debug)),
            Box::new(Counting(Arc::clone(&info), Level::Info)),
        ]);
        obs.emit(catalog::PLAN_SUMMARY, |_| {});
        obs.emit(catalog::PLAN_DECISION, |_| {});
        let read = |t: &AtomicU64| t.load(Ordering::Relaxed);
        assert_eq!((read(&debug), read(&info)), (2, 1));
    }

    /// The events a capture rendered, by their field `key`, in order.
    fn rendered(capture: &Obs, key: &str) -> Vec<f64> {
        let mut lines = Vec::new();
        capture.append_captured(&mut lines);
        let read = |l: &String| crate::schema::validate_line(l).ok()?.fields.get(key)?.as_num();
        lines.iter().map(|l| read(l).expect("a line with the key")).collect()
    }

    /// Run `f`, which must be refused as an emit nested on its own handle.
    fn refused(f: impl FnOnce()) {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("a nested emit is refused");
        let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("so the emit would deadlock"), "{message:?}");
    }

    /// A sink that, shown a `plan/summary`, emits on its own handle.
    struct Echo(Arc<std::sync::OnceLock<Obs>>);

    impl Sink for Echo {
        fn max_level(&self) -> Level {
            Level::Debug
        }
        fn emit(&self, event: &Event) {
            if let Some(obs) = self.0.get().filter(|_| event.is(catalog::PLAN_SUMMARY)) {
                obs.emit(catalog::PLAN_DECISION, |_| {});
            }
        }
    }

    /// An emit inside a build (or a sink) on its own handle would wait on
    /// the lock its own thread holds, so it panics, and the handle keeps
    /// working: a capture renders only whole records, a sink handle's
    /// `seq` goes on. An emit on another handle inside a build lands.
    #[test]
    fn an_emit_nested_in_a_build_on_its_own_handle_is_refused() {
        let step = |obs: &Obs, step: u64| {
            obs.emit(catalog::SIM_STEP, |e| {
                e.field("step", step);
            });
        };
        let nest = |obs: &Obs| {
            step(obs, 0);
            refused(|| {
                obs.emit(catalog::SIM_STEP, |outer| {
                    outer.field("step", 1u64);
                    step(obs, 2);
                });
            });
            step(obs, 3);
        };
        let capture = Obs::capture("t0007".into());
        nest(&capture);
        assert_eq!(rendered(&capture, "step"), [0.0, 3.0]);

        let mem = MemorySink::new();
        let lit = Obs::with_sink(Box::new(mem.clone()));
        nest(&lit);
        let shown = mem.drain();
        let steps: Vec<_> = shown.iter().map(|e| (e.seq, e.get("step"))).collect();
        assert_eq!(steps, [(0, Some(Value::U64(0))), (1, Some(Value::U64(3)))]);

        let handle = Arc::new(std::sync::OnceLock::new());
        let echoing = Obs::multi(vec![Box::new(mem.clone()), Box::new(Echo(Arc::clone(&handle)))]);
        handle.set(echoing.clone()).expect("set once");
        refused(|| echoing.emit(catalog::PLAN_SUMMARY, |_| {}));
        step(&echoing, 3);
        let shown: Vec<_> = mem.drain().iter().map(|e| (e.seq, e.is(catalog::SIM_STEP))).collect();
        assert_eq!(shown, [(0, false), (1, true)]);

        capture.emit(catalog::SIM_STEP, |e| {
            e.field("step", 4u64);
            step(&lit, 5);
        });
        assert_eq!(rendered(&capture, "step"), [4.0]);
        assert_eq!(mem.drain().iter().map(|e| e.seq).collect::<Vec<_>>(), [2]);
    }

    /// A build that panics leaves its record open; the capture's lock is
    /// taken back from the poison and the next emit drops that record, so
    /// the lines before and after are whole.
    #[test]
    fn a_build_that_panics_costs_only_its_own_event() {
        let capture = Obs::capture("t0003".into());
        let panic_at = |tick: u64| {
            capture.emit(catalog::SUPERVISOR_PANIC, |e| {
                e.field("error", format!("boom at {tick}")).field("tick", tick);
            });
        };
        panic_at(1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            capture.emit(catalog::SUPERVISOR_PANIC, |e| {
                e.field("error", "half-built".to_string()).field("tick", 2u64);
                panic!("build failed");
            });
        }));
        assert!(panicked.is_err());
        panic_at(3);
        assert_eq!(capture.captured(), 2);
        let mut lines = Vec::new();
        capture.append_captured(&mut lines);
        assert!(lines[1].contains("{\"error\":\"boom at 3\",\"tenant\":\"t0003\",\"tick\":3}"));
        assert!(lines[0].contains("\"boom at 1\""), "{}", lines[0]);
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
        assert!(ev[0].ts_us > 0, "a lit handle stamps the clock");
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
