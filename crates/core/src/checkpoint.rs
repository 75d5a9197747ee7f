//! Deterministic fleet checkpoint by replay (schema v3).
//!
//! A supervised fleet is a pure function of its [`FleetConfig`], its
//! [`SupervisorConfig`] and the tick it has reached: traces, fault plans
//! and fits come from child seeds, and no fleet result reads the clock.
//! So a checkpoint is that header plus a digest of the fleet's state, and
//! [`load`] rebuilds the fleet and replays it to the tick. A run killed
//! mid-flight and resumed from its checkpoint reports, traces and
//! exposes **byte-identically** to the uninterrupted run, at any
//! `RPAS_THREADS`.
//!
//! ```text
//! {"kind":"header","schema":"rpas-fleet-checkpoint","version":3,"tick":"u:57",...}
//! {"kind":"digest","fnv1a":"<16 hex digits>"}
//! ```
//!
//! Header numbers travel as tagged strings, because a JSON number is a
//! lossy `f64` in this workspace's parser: `"u:<dec>"` for integers
//! (seeds use the full 64-bit range), `"f:<16-hex>"` for a double's
//! IEEE-754 bits. Each type has one private `Codec` with both directions
//! side by side. The digest is FNV-1a over every tenant's replay-visible
//! state and the metric exposition (`digest`); `load` recomputes it
//! after the replay and refuses a mismatch — another build, host libm or
//! configuration, or an edited file.
//!
//! Reading: `schema` and `version` are checked before anything else is
//! decoded. Within an object, member order is free; unknown members are
//! validated as JSON and skipped (a change in meaning bumps `version`);
//! a repeated member keeps its last value, except a tag (`kind`, and the
//! header's `schema` and `version`), which is read by look-ahead from its
//! first occurrence, so a second one is a `duplicate member` error. What
//! the text gets wrong is always an `Err`, never a panic.

use crate::autoscaler::ReplanSchedule;
use crate::fleet::{FleetConfig, FleetEngine, TenantPolicy, TenantPolicyKind, TracePreset};
use crate::resilient::ResilienceConfig;
use crate::supervisor::{FleetSupervisor, SupervisorConfig, TenantHealth};
use rpas_obs::json::{escape_into, write_u64, Kind, Reader};
use rpas_obs::Obs;
use rpas_simdb::FaultConfig;
use rpas_telemetry::{BurnRule, SloSpec, Telemetry};
use std::borrow::Cow;
use std::fmt::Write;

/// Schema identifier in the header line.
pub(crate) const SCHEMA: &str = "rpas-fleet-checkpoint";
/// Current schema version, as the header writes it.
pub(crate) const VERSION: &str = "3";

/// The wire format of one type, both directions side by side: `enc`
/// appends the value's JSON text, `dec` reads it back from the reader's
/// position (`what` names the value in error messages).
trait Codec: Sized {
    fn enc(&self, out: &mut String);
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String>;
}

fn obj(r: &mut Reader<'_>, what: &str) -> Result<(), String> {
    match r.peek()? {
        Kind::Obj => r.begin_object(),
        _ => Err(format!("{what}: expected object")),
    }
}

/// A string value, borrowed from the line unless it holds an escape;
/// anything else is an `Err` saying `what` should have been `expected`.
fn text<'a>(r: &mut Reader<'a>, what: &str, expected: &str) -> Result<Cow<'a, str>, String> {
    match r.peek()? {
        Kind::Str => r.string(),
        _ => Err(format!("{what}: expected {expected}")),
    }
}

/// Walk the members of the object at `$r` in file order (the module doc
/// has the rules). Each `"key" => slot` row is decoded by [`Codec::dec`]
/// and bound as `slot`; the keys under `once` are those the caller has
/// read by look-ahead.
macro_rules! members {
    ($r:ident, $what:expr $(, once($($tag:literal),+))? => {
        $($key:literal => $slot:ident $(: $ty:ty)?),* $(,)?
    }) => {
        $(let mut $slot $(: Option<$ty>)? = None;)*
        let mut seen = 0u32;
        obj($r, $what)?;
        while let Some(key) = $r.next_key()? {
            match &*key {
                $($key => $slot = Some(Codec::dec($r, $key)?),)*
                other => pass($r, other, &[$($($tag),+)?], &mut seen, $what)?,
            }
        }
        $(let $slot = $slot.ok_or_else(|| format!("{}: missing key {:?}", $what, $key))?;)*
    };
}

/// Step over a member [`members!`] has no row for; `seen` marks which of
/// the `once` keys have gone by.
fn pass(
    r: &mut Reader<'_>,
    key: &str,
    once: &[&str],
    seen: &mut u32,
    what: &str,
) -> Result<(), String> {
    if let Some(i) = once.iter().position(|k| *k == key) {
        if *seen & (1 << i) != 0 {
            return Err(format!("{what}: duplicate member {key:?}"));
        }
        *seen |= 1 << i;
    }
    r.skip_value()
}

/// Look ahead, on a copy of the cursor, for member `key` of the object at
/// `r`: a reader in front of its value. A tag is the first member in
/// every file `save` writes; anywhere else costs the skip to get there.
fn find<'a>(mut r: Reader<'a>, key: &str, what: &str) -> Result<Option<Reader<'a>>, String> {
    obj(&mut r, what)?;
    while let Some(k) = r.next_key()? {
        if k == key {
            return Ok(Some(r));
        }
        r.skip_value()?;
    }
    Ok(None)
}

/// The string tag under `key` of the object at `r`, by look-ahead.
fn tag<'a>(r: &Reader<'a>, key: &str, what: &str) -> Result<Cow<'a, str>, String> {
    let mut at = find(*r, key, what)?.ok_or_else(|| format!("{what}: missing key {key:?}"))?;
    text(&mut at, key, "string")
}

/// Append `lead` (punctuation plus a quoted key) and then `v`.
fn row<T: Codec>(out: &mut String, lead: &str, v: &T) {
    out.push_str(lead);
    v.enc(out);
}

/// The text behind `tag` in the tagged-string scalar `s`.
fn untag<'s>(s: &'s str, tag: &str, what: &str) -> Result<&'s str, String> {
    s.strip_prefix(tag).ok_or_else(|| format!("{what}: expected {tag:?} tag, got {s:?}"))
}

fn enc_str(s: &str, out: &mut String) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append the 16 lowercase hex digits of `bits`.
fn push_hex(out: &mut String, bits: u64) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{bits:016x}");
}

// ---------------------------------------------------------------------
// scalars, containers, label enums
// ---------------------------------------------------------------------

/// `"u:<digits>"`: the bytes `format!` would write, without `core::fmt`.
impl Codec for u64 {
    fn enc(&self, out: &mut String) {
        out.push_str("\"u:");
        write_u64(out, *self);
        out.push('"');
    }
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        let s = text(r, what, "a \"u:\"-tagged string")?;
        let rest = untag(&s, "u:", what)?;
        rest.parse().map_err(|e| format!("{what}: bad u64 {rest:?}: {e}"))
    }
}

/// Narrower unsigned integers travel as `u64` and are range-checked on
/// the way back.
macro_rules! narrow_uint {
    ($($t:ty),+) => {$(
        impl Codec for $t {
            fn enc(&self, out: &mut String) {
                (*self as u64).enc(out);
            }
            fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
                let v = u64::dec(r, what)?;
                <$t>::try_from(v)
                    .map_err(|_| format!("{what}: {v} out of {} range", stringify!($t)))
            }
        }
    )+};
}
narrow_uint!(u32, usize);

/// `"f:<bits>"`: lossless for every value, -0.0, NaN and infinities
/// included.
impl Codec for f64 {
    fn enc(&self, out: &mut String) {
        out.push_str("\"f:");
        push_hex(out, self.to_bits());
        out.push('"');
    }
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        let s = text(r, what, "a \"f:\"-tagged string")?;
        let rest = untag(&s, "f:", what)?;
        let bits = u64::from_str_radix(rest, 16)
            .map_err(|e| format!("{what}: bad f64 bits {rest:?}: {e}"))?;
        Ok(f64::from_bits(bits))
    }
}

impl Codec for bool {
    fn enc(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        match r.peek()? {
            Kind::Bool => r.bool(),
            _ => Err(format!("{what}: expected bool")),
        }
    }
}

impl Codec for String {
    fn enc(&self, out: &mut String) {
        enc_str(self, out);
    }
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        text(r, what, "string").map(Cow::into_owned)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn enc(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.enc(out),
        }
    }
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        match r.peek()? {
            Kind::Null => r.null().map(|()| None),
            _ => T::dec(r, what).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn enc(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            row(out, if i > 0 { "," } else { "" }, v);
        }
        out.push(']');
    }
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        let mut items = Vec::new();
        match r.peek()? {
            Kind::Arr => r.begin_array()?,
            _ => return Err(format!("{what}: expected array")),
        }
        while r.next_element()? {
            items.push(T::dec(r, what)?);
        }
        Ok(items)
    }
}

/// Enums that travel as their label.
macro_rules! label_codec {
    ($($t:ty),+) => {$(
        impl Codec for $t {
            fn enc(&self, out: &mut String) {
                enc_str(self.name(), out);
            }
            fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
                let s = text(r, what, "string")?;
                <$t>::parse(&s).ok_or_else(|| format!("{what}: unknown label {s:?}"))
            }
        }
    )+};
}
label_codec!(TenantPolicyKind, TracePreset);

/// A struct that travels as a JSON object, both directions derived from
/// one `"key" => field` table: the writer walks the rows in order, the
/// reader fills one slot per row ([`members!`]) and builds the struct
/// *literal* from the slots, so a field without a row does not compile
/// and the two cannot drift.
macro_rules! record {
    ($ty:ident { $key0:literal => $field0:ident $(, $key:literal => $field:ident)* $(,)? }) => {
        impl Codec for $ty {
            fn enc(&self, out: &mut String) {
                row(out, concat!("{\"", $key0, "\":"), &self.$field0);
                $(row(out, concat!(",\"", $key, "\":"), &self.$field);)*
                out.push('}');
            }
            fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
                members!(r, what => { $key0 => $field0 $(, $key => $field)* });
                Ok($ty { $field0 $(, $field)* })
            }
        }
    };
}

record!(ReplanSchedule { "context" => context, "horizon" => horizon });
record!(FleetConfig {
    "tenants" => tenants,
    "seed" => seed,
    "days" => days,
    "theta" => theta,
    "min_nodes" => min_nodes,
    "tau" => tau,
    "schedule" => schedule,
    "policies" => policies,
    "presets" => presets,
    "resilience" => resilience,
    "faults" => faults,
    "capture_events" => capture_events,
    "slo" => slo,
});
record!(ResilienceConfig {
    "max_nodes" => max_nodes,
    "max_step_delta" => max_step_delta,
    "max_retries" => max_retries,
    "retry_backoff_steps" => retry_backoff_steps,
    "probation_steps" => probation_steps,
    "naive_period" => naive_period,
    "naive_horizon" => naive_horizon,
    "backstop_window" => backstop_window,
});
record!(FaultConfig {
    "scale_fail_prob" => scale_fail_prob,
    "provision_delay_prob" => provision_delay_prob,
    "provision_delay_max_steps" => provision_delay_max_steps,
    "node_crash_prob" => node_crash_prob,
    "metric_dropout_prob" => metric_dropout_prob,
    "anomaly_start_prob" => anomaly_start_prob,
    "anomaly_max_steps" => anomaly_max_steps,
    "anomaly_max_mult" => anomaly_max_mult,
});
record!(BurnRule { "long" => long, "short" => short, "factor" => factor });
record!(SloSpec { "name" => name, "objective" => objective, "burn" => burn });
record!(SupervisorConfig {
    "failure_threshold" => failure_threshold,
    "failure_window" => failure_window,
    "base_backoff_ticks" => base_backoff_ticks,
    "max_backoff_ticks" => max_backoff_ticks,
    "probation_ticks" => probation_ticks,
});

// ---------------------------------------------------------------------
// the digest
// ---------------------------------------------------------------------

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

/// What a replay must reproduce, hashed: the tick and tenant count, then
/// per tenant its session cursor, pool size, violation, fault and scale
/// counters, plan cursors (and a resilient tenant's tier), circuit
/// breaker and captured-event count, then the metric exposition of
/// `tel`. Captures are counted, not rendered, so neither side pays for
/// the trace.
///
/// # Errors
/// Fails when a tenant runs an injected custom policy (see
/// [`FleetEngine::set_policy`]): no header rebuilds it.
fn digest(sup: &FleetSupervisor, tel: &Telemetry) -> Result<u64, String> {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(sup.tick).u64(sup.engine.runs.len() as u64);
    for run in &sup.engine.runs {
        let records = run.session.records();
        let violations = records.iter().filter(|s| s.violation).count();
        let pool = records.last().map_or(0, |s| s.pool_nodes);
        let faults = run.session.fault_counts();
        let (scale_out, scale_in) = run.session.scale_events();
        h.u64(records.len() as u64).u64(u64::from(pool)).u64(violations as u64);
        h.u64(faults.scale_fail).u64(faults.provision_delay).u64(faults.node_crash);
        h.u64(faults.metric_dropout).u64(faults.anomaly_steps);
        h.u64(scale_out as u64).u64(scale_in as u64);
        match &run.policy {
            TenantPolicy::ReactiveMax(_) => {}
            TenantPolicy::Predictive(p) => {
                h.u64(p.plan_start() as u64);
            }
            TenantPolicy::Resilient(m) => {
                let (tier, fallback_start) = m.ladder();
                h.bytes(tier.label().as_bytes()).u64(m.primary().plan_start() as u64);
                h.u64(fallback_start.map_or(u64::MAX, |start| start as u64));
            }
            TenantPolicy::Custom(_) => {
                return Err("a fleet with an injected custom policy cannot be checkpointed".to_string())
            }
        }
        let guard = &run.guard;
        match guard.health {
            TenantHealth::Healthy => h.u64(0),
            TenantHealth::Quarantined { until_tick, .. } => h.u64(1).u64(until_tick),
            TenantHealth::Probation { clean_ticks } => h.u64(2).u64(clean_ticks),
        };
        let lost = guard.outage.iter().filter(|&&lost| lost).count();
        h.u64(u64::from(guard.strikes)).u64(guard.failures.len() as u64);
        h.u64(guard.outage.len() as u64).u64(lost as u64);
        h.u64(run.capture.as_ref().map_or(0, Obs::captured) as u64);
    }
    h.bytes(tel.snapshot().exposition().as_bytes());
    Ok(h.0)
}

// ---------------------------------------------------------------------
// save / load
// ---------------------------------------------------------------------

/// Write the schema-v3 checkpoint of a supervised fleet: its header and
/// its digest. `cfg` must be the configuration the fleet was built
/// from (the engine does not retain it); `tel` is the fleet's telemetry
/// registry (pass [`Telemetry::noop`] when running dark, and load into a
/// dark one).
///
/// # Errors
/// Fails when `cfg` describes another number of tenants, and when a
/// tenant runs an injected custom policy (see [`FleetEngine::set_policy`])
/// — such a policy has no spec to rebuild from.
pub fn save(sup: &FleetSupervisor, cfg: &FleetConfig, tel: &Telemetry) -> Result<String, String> {
    let tenants = sup.engine.runs.len();
    if cfg.tenants != tenants {
        return Err(format!("config describes {} tenants but the fleet has {tenants}", cfg.tenants));
    }
    let digest = digest(sup, tel)?;
    let mut out = String::from("{\"kind\":\"header\",\"schema\":\"");
    out.push_str(SCHEMA);
    out.push_str("\",\"version\":");
    out.push_str(VERSION);
    row(&mut out, ",\"tick\":", &sup.tick);
    row(&mut out, ",\"total_ticks\":", &sup.total_ticks);
    row(&mut out, ",\"config\":", cfg);
    row(&mut out, ",\"supervisor\":", &sup.cfg);
    out.push_str("}\n{\"kind\":\"digest\",\"fnv1a\":\"");
    push_hex(&mut out, digest);
    out.push_str("\"}\n");
    Ok(out)
}

/// The header line: `(tick, total_ticks, config, supervisor)`. `kind`,
/// `schema` and `version` are read by look-ahead and checked *before*
/// anything whose shape a version may change is decoded, so a v2 file
/// answers "unsupported version", not a complaint about a member that
/// version shapes differently. The line (about a kilobyte) is validated
/// whole first, so a malformed header says so whatever the look-aheads
/// would have met.
fn read_header(line: &str) -> Result<(u64, u64, FleetConfig, SupervisorConfig), String> {
    let r = &mut Reader::new(line);
    let mut whole = *r;
    whole.skip_value().and_then(|()| whole.end()).map_err(|e| format!("header: {e}"))?;

    let kind = tag(r, "kind", "header")?;
    if kind != "header" {
        return Err(format!("first line must be the header, got kind {kind:?}"));
    }
    let schema = tag(r, "schema", "header")?;
    if schema != SCHEMA {
        return Err(format!("unknown checkpoint schema {schema:?}"));
    }
    // Any token but the one `save` writes is another format.
    let mut at = find(*r, "version", "header")?.ok_or("header: missing key \"version\"")?;
    at.peek()?;
    let start = at.offset();
    at.skip_value()?;
    let version = line.get(start..at.offset()).unwrap_or_default();
    if version != VERSION {
        return Err(format!(
            "unsupported checkpoint version {version}: this build reads version {VERSION} only; \
             re-run the fleet to write one"
        ));
    }

    members!(r, "header", once("kind", "schema", "version") => {
        "tick" => tick,
        "total_ticks" => total_ticks,
        "config" => cfg,
        "supervisor" => sup_cfg,
    });
    Ok((tick, total_ticks, cfg, sup_cfg))
}

/// The digest line: the hex digits under `fnv1a`, as written.
fn read_digest(line: &str) -> Result<String, String> {
    let r = &mut Reader::new(line);
    let kind = tag(r, "kind", "digest")?;
    if kind != "digest" {
        return Err(format!("expected the digest line, got kind {kind:?}"));
    }
    members!(r, "digest", once("kind") => { "fnv1a" => fnv1a: String });
    r.end()?;
    Ok(fnv1a)
}

/// Rebuild a supervised fleet from checkpoint text: build every tenant
/// from the header's configuration, replay the fleet to the header's
/// tick (tenant-major, one pool fan-out), and check the result against
/// the digest. `tel` records the replay, so pass a fresh registry, live
/// when the fleet that was saved recorded into a live one; `obs` becomes
/// the fleet-level handle once the replay is done (the replayed ticks
/// emit no fleet-level events). Returns the supervisor plus the header's
/// [`FleetConfig`].
///
/// # Errors
/// Malformed or truncated text, a wrong schema or version, a header
/// `tick` past `total_ticks`, a configuration no fleet can be built from,
/// a missing or repeated digest line or data after it, and a replay whose
/// digest is not the file's.
pub fn load(text: &str, tel: &Telemetry, obs: Obs) -> Result<(FleetSupervisor, FleetConfig), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty checkpoint")?;
    let (tick, total_ticks, cfg, sup_cfg) = read_header(header)?;
    if tick > total_ticks {
        return Err(format!("header: tick {tick} is past total_ticks {total_ticks}"));
    }
    cfg.validate().map_err(|why| format!("header.config: {why}"))?;
    sup_cfg.validate().map_err(|why| format!("header.supervisor: {why}"))?;
    let want = read_digest(lines.next().ok_or("truncated checkpoint: missing digest line")?)
        .map_err(|e| format!("line 2: {e}"))?;
    if lines.next().is_some() {
        return Err("line 3: data after the digest line".to_string());
    }

    let engine = FleetEngine::with_telemetry(&cfg, tel);
    let mut sup = FleetSupervisor::wrap_with(engine, sup_cfg, tel);
    if sup.total_ticks != total_ticks {
        return Err(format!(
            "rebuilt fleet has {} total ticks, checkpoint says {total_ticks}",
            sup.total_ticks
        ));
    }
    sup.run_range(0, tick);
    sup.tick = tick;
    let mut got = String::with_capacity(16);
    push_hex(&mut got, digest(&sup, tel)?);
    if got != want {
        return Err(format!(
            "digest mismatch: the checkpoint says {want:?}, its header replayed to tick {tick} \
             gives {got:?} (written by another build or host, from another registry, or edited); \
             re-run the fleet"
        ));
    }
    sup.set_obs(obs);
    Ok((sup, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_simdb::FaultConfig;

    fn chaotic_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::new(6, 23);
        cfg.days = 2;
        cfg.schedule = ReplanSchedule { context: 48, horizon: 24 };
        cfg.capture_events = true;
        cfg.faults = Some(FaultConfig::heavy());
        cfg.slo = Some(SloSpec::violation_rate_default());
        cfg
    }

    fn supervised(cfg: &FleetConfig, tel: &Telemetry) -> FleetSupervisor {
        FleetSupervisor::wrap_with(FleetEngine::with_telemetry(cfg, tel), SupervisorConfig::default(), tel)
    }

    fn run_report(cfg: &FleetConfig) -> (crate::fleet::FleetReport, String) {
        let tel = Telemetry::live();
        let mut sup = supervised(cfg, &tel);
        sup.run_to_completion();
        let expo = tel.snapshot().exposition();
        (sup.finish(), expo)
    }

    /// The chaotic fleet, live, saved after `ticks` supervised ticks.
    fn saved_at(cfg: &FleetConfig, ticks: u64) -> String {
        let tel = Telemetry::live();
        let mut sup = supervised(cfg, &tel);
        for _ in 0..ticks {
            sup.tick();
        }
        save(&sup, cfg, &tel).expect("checkpointable fleet")
    }

    #[test]
    fn save_load_roundtrips_mid_run_and_reproduces_the_full_run() {
        let cfg = chaotic_cfg();
        let (reference, reference_expo) = run_report(&cfg);
        let text = saved_at(&cfg, 97);
        assert!(text.len() < 2048 && text.lines().count() == 2, "{text}");

        let tel2 = Telemetry::live();
        let (mut resumed, cfg2) = load(&text, &tel2, Obs::noop()).expect("valid checkpoint");
        assert_eq!(cfg2.seed, cfg.seed);
        assert_eq!(resumed.ticks_done(), 97);
        resumed.run_to_completion();
        let report = resumed.finish();
        assert_eq!(report, reference);
        assert_eq!(tel2.snapshot().exposition(), reference_expo);
    }

    #[test]
    fn save_is_identical_no_matter_when_taken() {
        // Checkpoint text is a pure function of fleet state: saving at
        // tick k, resuming, and saving again at tick k must agree.
        let cfg = chaotic_cfg();
        let a = saved_at(&cfg, 31);
        let tel2 = Telemetry::live();
        let (resumed, _) = load(&a, &tel2, Obs::noop()).unwrap();
        let b = save(&resumed, &cfg, &tel2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn custom_policies_are_rejected_at_save() {
        let cfg = chaotic_cfg();
        let tel = Telemetry::live();
        let mut engine = FleetEngine::with_telemetry(&cfg, &tel);
        engine.set_policy(0, Box::new(rpas_simdb::FixedPolicy(3)));
        let sup = FleetSupervisor::wrap_with(engine, SupervisorConfig::default(), &tel);
        let err = save(&sup, &cfg, &tel).unwrap_err();
        assert!(err.contains("custom policy"), "{err}");
    }

    /// One tick of replay moves the digest: a checkpoint whose header is a
    /// tick short of the fleet it was taken from cannot pass.
    #[test]
    fn a_replay_one_tick_short_has_another_digest() {
        let cfg = chaotic_cfg();
        let tel = Telemetry::live();
        let mut sup = supervised(&cfg, &tel);
        let mut digests = Vec::new();
        for _ in 0..60 {
            digests.push(digest(&sup, &tel).unwrap());
            sup.tick();
        }
        let mut distinct = digests.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), digests.len(), "two ticks share a digest");
        // Without the telemetry the tenants' own state still moves it.
        let dark = Telemetry::noop();
        let mut sup = supervised(&cfg, &dark);
        for _ in 0..59 {
            sup.tick();
        }
        let short = digest(&sup, &dark).unwrap();
        sup.tick();
        assert_ne!(short, digest(&sup, &dark).unwrap());
    }

    /// Well-formed text that does not describe the fleet it replays to is
    /// an `Err` naming the digest, never a panic and never a resumed run.
    #[test]
    fn planted_divergence_is_refused() {
        let cfg = chaotic_cfg();
        let text = saved_at(&cfg, 60);
        let edit = |from: &str, to: &str| {
            let edited = text.replacen(from, to, 1);
            assert_ne!(edited, text, "{from} not found");
            edited
        };
        let (header, digest_line) = text.trim_end().split_once('\n').unwrap();
        let crash = cfg.faults.unwrap().node_crash_prob;
        let hex = |x: f64| format!("f:{:016x}", x.to_bits());
        let at = digest_line.find("\"fnv1a\":\"").unwrap() + "\"fnv1a\":\"".len();
        let mut flipped = digest_line.to_string();
        let digit = if &flipped[at..=at] == "0" { "1" } else { "0" };
        flipped.replace_range(at..=at, digit);
        for (what, hostile) in [
            ("the tick minus one", edit("\"tick\":\"u:60\"", "\"tick\":\"u:59\"")),
            ("one tenant fewer", edit("\"tenants\":\"u:6\"", "\"tenants\":\"u:5\"")),
            ("a flipped seed", edit("\"seed\":\"u:23\"", "\"seed\":\"u:22\"")),
            ("a nudged fault probability", edit(&hex(crash), &hex(crash + 0.05))),
            ("a flipped digest digit", format!("{header}\n{flipped}\n")),
        ] {
            let err = load(&hostile, &Telemetry::live(), Obs::noop()).err().unwrap();
            assert!(err.starts_with("digest mismatch: "), "{what}: {err}");
        }
        // Saved live, loaded dark: the exposition is part of the digest.
        let err = load(&text, &Telemetry::noop(), Obs::noop()).err().unwrap();
        assert!(err.starts_with("digest mismatch: "), "{err}");

        for (hostile, why) in [
            (format!("{header}\n"), "truncated checkpoint: missing digest line"),
            (header.to_string(), "truncated checkpoint: missing digest line"),
            (format!("{text}{digest_line}\n"), "line 3: data after the digest line"),
            (format!("{text}{{}}\n"), "line 3: data after the digest line"),
            (format!("{text}\n"), "line 3: data after the digest line"),
            (format!("{header}\n{header}\n"), "line 2: expected the digest line, got kind \"header\""),
            (edit("\"fnv1a\":", "\"fnv\":"), "line 2: digest: missing key \"fnv1a\""),
            (edit("\"kind\":\"digest\"", "\"kind\":\"digest\",\"kind\":\"digest\""), "duplicate member"),
        ] {
            let err = load(&hostile, &Telemetry::live(), Obs::noop()).err().unwrap();
            assert!(err.contains(why), "{why}: {err}");
        }
    }

    #[test]
    fn corrupted_headers_are_rejected() {
        let cfg = chaotic_cfg();
        let text = saved_at(&cfg, 0);
        let edit = |from: &str, to: &str| {
            let edited = text.replacen(from, to, 1);
            assert_ne!(edited, text, "{from} not found");
            edited
        };
        assert_eq!(load("", &Telemetry::noop(), Obs::noop()).err().unwrap(), "empty checkpoint");

        // Another version is refused rather than misread, v2 included,
        // whose state lines this build no longer reads; the version is
        // the token `save` writes, not a number that rounds or parses to
        // it.
        for version in ["1", "2", "4", "3.0", "3e0", "\"u:3\""] {
            let other = edit("\"version\":3", &format!("\"version\":{version}"));
            let err = load(&other, &Telemetry::noop(), Obs::noop()).err().unwrap();
            assert!(err.starts_with(&format!("unsupported checkpoint version {version}: ")), "{err}");
            assert!(err.contains("version 3") && err.contains("re-run the fleet"), "{err}");
        }

        // A foreign schema string is refused.
        let alien = edit(SCHEMA, "someone-elses-format");
        let err = load(&alien, &Telemetry::noop(), Obs::noop()).err().unwrap();
        assert!(err.contains("unknown checkpoint schema"), "{err}");

        // A well-formed header whose nested config is degenerate is an
        // `Err` at load time — not a panic in a constructor, and not a
        // panic later in `finish()`.
        for (key, was, zero, why) in [
            ("max_nodes", "u:64", "u:0", "resilience: max_nodes"),
            ("naive_period", "u:144", "u:0", "resilience: naive_period"),
            ("naive_horizon", "u:12", "u:0", "resilience: naive_horizon"),
            ("backstop_window", "u:6", "u:0", "resilience: backstop_window"),
            ("anomaly_max_steps", "u:12", "u:0", "faults: anomaly"),
            ("objective", "f:3f847ae147ae147b", "f:0000000000000000", "slo: objective"),
            ("short", "u:6", "u:0", "slo: burn rule"),
        ] {
            let hostile = edit(&format!("\"{key}\":\"{was}\""), &format!("\"{key}\":\"{zero}\""));
            let err = load(&hostile, &Telemetry::noop(), Obs::noop()).err().unwrap();
            assert!(err.starts_with("header.config: ") && err.contains(why), "{key}: {err}");
        }

        // Wrong types and unknown labels name the member.
        for (hostile, why) in [
            (edit("\"tick\":\"u:0\"", "\"tick\":0"), "tick: expected a \"u:\"-tagged string"),
            (edit("\"theta\":\"f:", "\"theta\":\"u:"), "theta: expected \"f:\" tag"),
            (edit("\"predictive\"", "\"psychic\""), "policies: unknown label \"psychic\""),
            (edit("\"min_nodes\":\"u:1\"", "\"min_nodes\":\"u:4294967296\""), "out of u32 range"),
            (edit(",\"supervisor\":", ",\"supervisor_was\":"), "header: missing key \"supervisor\""),
        ] {
            let err = load(&hostile, &Telemetry::noop(), Obs::noop()).err().unwrap();
            assert!(err.contains(why), "{why}: {err}");
        }

        // A fleet saved mid-run cannot be past the end of its own run.
        let past_the_end = edit("\"tick\":\"u:0\"", "\"tick\":\"u:289\"");
        let err = load(&past_the_end, &Telemetry::live(), Obs::noop()).err().unwrap();
        assert_eq!(err, "header: tick 289 is past total_ticks 288");

        // 100 KB of `[` is an `Err`, not a stack overflow: the reader's
        // nesting bound refuses it wherever it sits, and a typed decoder
        // the first level it did not expect.
        let bomb = "[".repeat(100_000);
        for hostile in [
            edit("\"config\":", &format!("\"later\":{bomb},\"config\":")),
            edit("\"config\":", &format!("\"config\":{bomb}")),
            edit("\"fnv1a\":", &format!("\"later\":{bomb},\"fnv1a\":")),
        ] {
            let err = load(&hostile, &Telemetry::noop(), Obs::noop()).err().unwrap();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    }

    /// The tagged-scalar writers against `core::fmt`: a `u:` body is `{}`,
    /// an `f:` body `{:016x}` of the bits.
    #[test]
    fn scalar_writers_write_the_bytes_of_core_fmt() {
        use rpas_tsmath::prop_assert;
        use rpas_tsmath::propcheck::forall;
        let agrees = |n: u64| {
            let mut out = String::from("kept|");
            n.enc(&mut out);
            f64::from_bits(n).enc(&mut out);
            let want = format!("kept|\"u:{n}\"\"f:{n:016x}\"");
            prop_assert!(out == want, "{n:#x}: wrote {out:?}, want {want:?}");
            Ok(())
        };
        for n in [0, 1, 9, 10, u64::MAX, i64::MIN as u64, i64::MAX as u64, 0xf, 1 << 60] {
            agrees(n).unwrap();
        }
        forall("checkpoint_scalars_vs_fmt", 20_000, |g| agrees(g.u64() >> g.usize_in(0, 64)));
    }
}
