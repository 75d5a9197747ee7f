//! Deterministic fleet checkpoint/restore (schema v1).
//!
//! A checkpoint captures the *entire* mutable state of a supervised
//! fleet — per-tenant session cursors, policy/forecaster state,
//! resilience ladders, captured obs events, circuit-breaker guards, and
//! the telemetry registry — such that a run killed mid-flight and
//! resumed from the checkpoint produces **byte-identical** reports,
//! traces and metric expositions to the uninterrupted run, at any
//! `RPAS_THREADS`.
//!
//! Everything *immutable* is rebuilt from the embedded [`FleetConfig`]
//! rather than serialized: traces, fault plans and fitted primary
//! forecasters are pure functions of seeds, and the RNG streams behind
//! them are consumed entirely at build time — so restore is
//! "rebuild-from-spec, then overwrite the mutable state".
//!
//! ## Format
//!
//! JSONL written and read through one private `Codec` per type (no serde
//! in this workspace): plain structs are a `"key" => field` row table
//! that drives both directions, the irregular shapes one hand-written
//! impl with both directions side by side. The text is parsed back with
//! `rpas-obs`'s JSON parser. One object per line:
//!
//! ```text
//! {"kind":"header","schema":"rpas-fleet-checkpoint","version":1,...}
//! {"kind":"tenant","id":"u:0",...}          # one per tenant, in order
//! {"kind":"telemetry","cells":[...]}
//! {"kind":"end","tenants":"u:N"}
//! ```
//!
//! Numbers travel as *tagged strings* because a JSON number is a lossy
//! `f64` in this workspace's parser: `"u:<dec>"` / `"i:<dec>"` for
//! integers (seeds use the full 64-bit range), `"f:<16-hex>"` for the
//! IEEE-754 bits of a double (lossless for every value including -0.0,
//! NaN and infinities). Captured event fields use the same tags plus
//! `"s:<text>"` / `"b:0|1"` so [`rpas_obs::Value`] variants round-trip
//! exactly.
//!
//! ## Forward compatibility
//!
//! The header carries `schema` and `version`; readers reject unknown
//! values instead of guessing. Unknown object keys are *ignored* on
//! read, so a future v1.x writer may add fields without breaking v1
//! readers; anything that changes the meaning of existing fields must
//! bump `version`.

use crate::autoscaler::{QuantilePredictivePolicy, ReplanSchedule};
use crate::fleet::{FleetConfig, FleetEngine, TenantPolicy, TenantPolicyKind, TracePreset};
use crate::resilient::{NaiveSnapshot, ResilienceConfig, ResilientSnapshot, Tier};
use crate::supervisor::{FleetSupervisor, SupervisorConfig, TenantGuard, TenantHealth};
use rpas_forecast::SeasonalNaive;
use rpas_obs::json::{escape_str, parse};
use rpas_obs::{Event, Json, Level, MemorySink, Obs, Sink, Value};
use rpas_simdb::{
    ClusterSnapshot, FaultConfig, FaultCounts, NodeSnapshot, ScaleOutcome, SessionSnapshot,
    StepRecord, StorageStats,
};
use rpas_telemetry::{BurnRule, CellDump, CellValue, SloSpec, Telemetry};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Schema identifier in the header line.
pub const SCHEMA: &str = "rpas-fleet-checkpoint";
/// Current schema version.
pub const VERSION: u64 = 1;

type Map = BTreeMap<String, Json>;

/// The wire format of one type, both directions side by side: `enc`
/// appends the value's JSON text, `dec` reads it back (`what` names the
/// value in error messages).
trait Codec: Sized {
    fn enc(&self, out: &mut String);
    fn dec(j: &Json, what: &str) -> Result<Self, String>;
}

fn obj<'a>(j: &'a Json, what: &str) -> Result<&'a Map, String> {
    j.as_obj().ok_or_else(|| format!("{what}: expected object"))
}

fn arr<'a>(j: &'a Json, what: &str) -> Result<&'a [Json], String> {
    match j {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("{what}: expected array")),
    }
}

fn get<'a>(m: &'a Map, key: &str, what: &str) -> Result<&'a Json, String> {
    m.get(key).ok_or_else(|| format!("{what}: missing key {key:?}"))
}

/// Decode the member `key` of object `m`.
fn field<T: Codec>(m: &Map, key: &str, what: &str) -> Result<T, String> {
    T::dec(get(m, key, what)?, key)
}

/// Append `lead` (punctuation plus a quoted key) and then `v`.
fn row<T: Codec>(out: &mut String, lead: &str, v: &T) {
    out.push_str(lead);
    v.enc(out);
}

/// The text behind `tag` in a tagged-string scalar.
fn tagged<'a>(j: &'a Json, tag: &str, what: &str) -> Result<&'a str, String> {
    let s = j.as_str().ok_or_else(|| format!("{what}: expected a {tag:?}-tagged string"))?;
    s.strip_prefix(tag).ok_or_else(|| format!("{what}: expected {tag:?} tag, got {s:?}"))
}

fn enc_str(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&escape_str(s));
    out.push('"');
}

// ---------------------------------------------------------------------
// scalars, containers, label enums
// ---------------------------------------------------------------------

impl Codec for u64 {
    fn enc(&self, out: &mut String) {
        let _ = write!(out, "\"u:{self}\"");
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        let rest = tagged(j, "u:", what)?;
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
            fn dec(j: &Json, what: &str) -> Result<Self, String> {
                let v = u64::dec(j, what)?;
                <$t>::try_from(v)
                    .map_err(|_| format!("{what}: {v} out of {} range", stringify!($t)))
            }
        }
    )+};
}
narrow_uint!(u32, usize);

impl Codec for f64 {
    fn enc(&self, out: &mut String) {
        let _ = write!(out, "\"f:{:016x}\"", self.to_bits());
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        let rest = tagged(j, "f:", what)?;
        let bits = u64::from_str_radix(rest, 16)
            .map_err(|e| format!("{what}: bad f64 bits {rest:?}: {e}"))?;
        Ok(f64::from_bits(bits))
    }
}

impl Codec for bool {
    fn enc(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        match j {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{what}: expected bool")),
        }
    }
}

impl Codec for String {
    fn enc(&self, out: &mut String) {
        enc_str(self, out);
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        j.as_str().map(str::to_string).ok_or_else(|| format!("{what}: expected string"))
    }
}

impl Codec for Arc<str> {
    fn enc(&self, out: &mut String) {
        enc_str(self, out);
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        String::dec(j, what).map(Arc::from)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn enc(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.enc(out),
        }
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        match j {
            Json::Null => Ok(None),
            other => T::dec(other, what).map(Some),
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
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        arr(j, what)?.iter().map(|x| T::dec(x, what)).collect()
    }
}

/// Tuples travel as fixed-length arrays; the reader's slice pattern
/// makes a wrong length an `Err`.
macro_rules! tuple_codec {
    ($(($T:ident, $t:ident, $i:tt)),+) => {
        impl<$($T: Codec),+> Codec for ($($T,)+) {
            fn enc(&self, out: &mut String) {
                $(row(out, if $i == 0 { "[" } else { "," }, &self.$i);)+
                out.push(']');
            }
            fn dec(j: &Json, what: &str) -> Result<Self, String> {
                match arr(j, what)? {
                    [$($t),+] => Ok(($($T::dec($t, what)?,)+)),
                    _ => Err(format!("{what}: expected [{}]", stringify!($($t),+))),
                }
            }
        }
    };
}
tuple_codec!((A, a, 0), (B, b, 1));
tuple_codec!((A, a, 0), (B, b, 1), (C, c, 2));

/// Enums that travel as their label.
macro_rules! label_codec {
    ($($t:ty: $label:ident),+) => {$(
        impl Codec for $t {
            fn enc(&self, out: &mut String) {
                enc_str(self.$label(), out);
            }
            fn dec(j: &Json, what: &str) -> Result<Self, String> {
                let s = j.as_str().ok_or_else(|| format!("{what}: expected string"))?;
                <$t>::parse(s).ok_or_else(|| format!("{what}: unknown label {s:?}"))
            }
        }
    )+};
}
label_codec!(TenantPolicyKind: name, TracePreset: name, ScaleOutcome: label, Tier: label);
label_codec!(Level: as_str);

// ---------------------------------------------------------------------
// table-driven structs
// ---------------------------------------------------------------------

/// A struct that travels as a JSON object. [`record!`] derives both
/// directions from one `"key" => field` table: the writer walks the rows
/// in order and the reader builds the struct *literal* from them, so a
/// field without a row does not compile and the two cannot drift.
/// Unknown keys are ignored on read. The rows are exposed without their
/// braces so that a tagged union can splice them into its own object.
trait Record: Sized {
    fn enc_rows(&self, out: &mut String);
    fn dec_rows(m: &Map, what: &str) -> Result<Self, String>;
}

impl<T: Record> Codec for T {
    fn enc(&self, out: &mut String) {
        out.push('{');
        self.enc_rows(out);
        out.push('}');
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        Self::dec_rows(obj(j, what)?, what)
    }
}

macro_rules! record {
    ($ty:ident { $key0:literal => $field0:ident $(, $key:literal => $field:ident)* $(,)? }) => {
        impl Record for $ty {
            fn enc_rows(&self, out: &mut String) {
                row(out, concat!("\"", $key0, "\":"), &self.$field0);
                $(row(out, concat!(",\"", $key, "\":"), &self.$field);)*
            }
            fn dec_rows(m: &Map, what: &str) -> Result<Self, String> {
                Ok($ty {
                    $field0: field(m, $key0, what)?,
                    $($field: field(m, $key, what)?,)*
                })
            }
        }
    };
}

/// A struct that travels as a fixed-length JSON array of its fields, in
/// table order. The reader takes the array apart with a slice pattern,
/// so a wrong length is an `Err` and nothing is indexed.
macro_rules! array_record {
    ($ty:ident [$field0:ident $(, $field:ident)* $(,)?]) => {
        impl Codec for $ty {
            fn enc(&self, out: &mut String) {
                row(out, "[", &self.$field0);
                $(row(out, ",", &self.$field);)*
                out.push(']');
            }
            fn dec(j: &Json, what: &str) -> Result<Self, String> {
                match arr(j, what)? {
                    [$field0 $(, $field)*] => Ok($ty {
                        $field0: Codec::dec($field0, stringify!($field0))?,
                        $($field: Codec::dec($field, stringify!($field))?,)*
                    }),
                    _ => Err(format!(
                        "{what}: expected [{}]",
                        stringify!($field0 $(, $field)*)
                    )),
                }
            }
        }
    };
}

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
record!(FaultCounts {
    "scale_fail" => scale_fail,
    "provision_delay" => provision_delay,
    "node_crash" => node_crash,
    "metric_dropout" => metric_dropout,
    "anomaly_steps" => anomaly_steps,
});
record!(StorageStats { "checkpoint_reads" => checkpoint_reads, "gb_read" => gb_read });
array_record!(NodeSnapshot [id, launched_at_step, warming_remaining_secs]);
record!(ClusterSnapshot {
    "next_id" => next_id,
    "scale_out" => scale_out_events,
    "scale_in" => scale_in_events,
    "storage" => storage,
    "nodes" => nodes,
});
array_record!(StepRecord [
    step, workload, target_nodes, pool_nodes, effective_capacity, utilization, violation,
]);
record!(SessionSnapshot {
    "t" => t,
    "visible" => visible,
    "last_scale" => last_scale,
    "counts" => counts,
    "cluster" => cluster,
    "steps" => steps,
});
// The one plan-state record: the rolling-plan cursor and fitted sigma of
// a seasonal-naive predictive policy, whether it runs as a `predictive`
// tenant, as a resilient tenant's primary, or as its fallback.
record!(NaiveSnapshot {
    "plan" => plan,
    "plan_start" => plan_start,
    "degraded" => degraded,
    "sigma" => sigma,
});
record!(ResilientSnapshot {
    "tier" => tier,
    "last_target" => last_target,
    "probation" => probation,
    "retry" => retry,
    "naive" => naive,
});

// ---------------------------------------------------------------------
// irregular shapes, written by hand
// ---------------------------------------------------------------------

/// Schema v1 flattens `schedule` into `context` / `horizon` members.
impl Codec for FleetConfig {
    fn enc(&self, out: &mut String) {
        row(out, "{\"tenants\":", &self.tenants);
        row(out, ",\"seed\":", &self.seed);
        row(out, ",\"days\":", &self.days);
        row(out, ",\"theta\":", &self.theta);
        row(out, ",\"min_nodes\":", &self.min_nodes);
        row(out, ",\"tau\":", &self.tau);
        row(out, ",\"context\":", &self.schedule.context);
        row(out, ",\"horizon\":", &self.schedule.horizon);
        row(out, ",\"policies\":", &self.policies);
        row(out, ",\"presets\":", &self.presets);
        row(out, ",\"resilience\":", &self.resilience);
        row(out, ",\"faults\":", &self.faults);
        row(out, ",\"capture_events\":", &self.capture_events);
        row(out, ",\"slo\":", &self.slo);
        out.push('}');
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        let m = obj(j, what)?;
        Ok(FleetConfig {
            tenants: field(m, "tenants", what)?,
            seed: field(m, "seed", what)?,
            days: field(m, "days", what)?,
            theta: field(m, "theta", what)?,
            min_nodes: field(m, "min_nodes", what)?,
            tau: field(m, "tau", what)?,
            schedule: ReplanSchedule {
                context: field(m, "context", what)?,
                horizon: field(m, "horizon", what)?,
            },
            policies: field(m, "policies", what)?,
            presets: field(m, "presets", what)?,
            resilience: field(m, "resilience", what)?,
            faults: field(m, "faults", what)?,
            capture_events: field(m, "capture_events", what)?,
            slo: field(m, "slo", what)?,
        })
    }
}

/// Captured event fields keep their [`Value`] variant through a tag:
/// `u:` / `f:` as everywhere else, plus `i:<dec>`, `s:<text>`, `b:0|1`.
impl Codec for Value {
    fn enc(&self, out: &mut String) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "\"b:1\"" } else { "\"b:0\"" }),
            Value::I64(i) => {
                let _ = write!(out, "\"i:{i}\"");
            }
            Value::U64(u) => u.enc(out),
            Value::F64(x) => x.enc(out),
            Value::Str(s) => {
                out.push_str("\"s:");
                out.push_str(&escape_str(s));
                out.push('"');
            }
        }
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        let s = j.as_str().ok_or_else(|| format!("{what}: expected a tagged string"))?;
        match (s.get(..2).unwrap_or(s), s.get(2..).unwrap_or("")) {
            ("s:", text) => Ok(Value::Str(text.to_string())),
            ("i:", dec) => {
                dec.parse().map(Value::I64).map_err(|e| format!("{what}: bad i64 {dec:?}: {e}"))
            }
            ("u:", _) => u64::dec(j, what).map(Value::U64),
            ("f:", _) => f64::dec(j, what).map(Value::F64),
            ("b:", "1") => Ok(Value::Bool(true)),
            ("b:", "0") => Ok(Value::Bool(false)),
            _ => Err(format!("{what}: unknown value tag {s:?}")),
        }
    }
}

/// A captured event minus what is not state: `seq` / `ts_us` are
/// re-stamped on re-emit and `*_us` fields are wall-clock timings.
impl Codec for Event {
    fn enc(&self, out: &mut String) {
        row(out, "{\"l\":", &self.level);
        row(out, ",\"s\":", &self.span);
        row(out, ",\"n\":", &self.name);
        out.push_str(",\"f\":{");
        let fields = self.fields.iter().filter(|(k, _)| !k.ends_with("_us"));
        for (i, (k, v)) in fields.enumerate() {
            row(out, if i > 0 { "," } else { "" }, k);
            row(out, ":", v);
        }
        out.push_str("}}");
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        let m = obj(j, what)?;
        let (span, name): (String, String) = (field(m, "s", what)?, field(m, "n", what)?);
        let mut ev = Event::new(field(m, "l", what)?, &span, &name);
        for (k, v) in obj(get(m, "f", what)?, "event.f")? {
            ev.fields.insert(k.clone(), Value::dec(v, k)?);
        }
        Ok(ev)
    }
}

impl Codec for TenantHealth {
    fn enc(&self, out: &mut String) {
        match self {
            TenantHealth::Healthy => out.push_str("{\"state\":\"healthy\""),
            TenantHealth::Quarantined { until_tick, reason } => {
                row(out, "{\"state\":\"quarantined\",\"until\":", until_tick);
                row(out, ",\"reason\":", reason);
            }
            TenantHealth::Probation { clean_ticks } => {
                row(out, "{\"state\":\"probation\",\"clean\":", clean_ticks);
            }
        }
        out.push('}');
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        let m = obj(j, what)?;
        match field::<String>(m, "state", what)?.as_str() {
            "healthy" => Ok(TenantHealth::Healthy),
            "quarantined" => Ok(TenantHealth::Quarantined {
                until_tick: field(m, "until", what)?,
                reason: field(m, "reason", what)?,
            }),
            "probation" => Ok(TenantHealth::Probation { clean_ticks: field(m, "clean", what)? }),
            other => Err(format!("{what}: unknown health state {other:?}")),
        }
    }
}

/// The outage series travels as a `"0110…"` bit string (one flag per
/// supervised tick would otherwise dominate a long run's checkpoint).
impl Codec for TenantGuard {
    fn enc(&self, out: &mut String) {
        row(out, "{\"health\":", &self.health);
        row(out, ",\"failures\":", &self.failures);
        row(out, ",\"strikes\":", &self.strikes);
        row(out, ",\"last_error\":", &self.last_error);
        out.push_str(",\"outage\":\"");
        out.extend(self.outage.iter().map(|&lost| if lost { '1' } else { '0' }));
        out.push_str("\"}");
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        let m = obj(j, what)?;
        let outage = field::<String>(m, "outage", what)?
            .chars()
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                other => Err(format!("{what}: bad outage flag {other:?}")),
            })
            .collect::<Result<_, _>>()?;
        Ok(TenantGuard {
            health: field(m, "health", what)?,
            failures: field(m, "failures", what)?,
            strikes: field(m, "strikes", what)?,
            last_error: field(m, "last_error", what)?,
            outage,
        })
    }
}

/// The [`CellValue`] variant is the member key it travels under.
impl Codec for CellDump {
    fn enc(&self, out: &mut String) {
        row(out, "{\"name\":", &self.name);
        row(out, ",\"labels\":", &self.labels);
        match &self.value {
            CellValue::Counter(v) => row(out, ",\"counter\":", v),
            CellValue::GaugeBits(bits) => row(out, ",\"gauge_bits\":", bits),
            CellValue::Hist { bounds, counts, sum } => {
                row(out, ",\"hist\":{\"bounds\":", bounds);
                row(out, ",\"counts\":", counts);
                row(out, ",\"sum\":", sum);
                out.push('}');
            }
        }
        out.push('}');
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        let m = obj(j, what)?;
        let value = if let Some(v) = m.get("counter") {
            CellValue::Counter(u64::dec(v, "counter")?)
        } else if let Some(v) = m.get("gauge_bits") {
            CellValue::GaugeBits(u64::dec(v, "gauge_bits")?)
        } else if let Some(v) = m.get("hist") {
            let h = obj(v, "hist")?;
            CellValue::Hist {
                bounds: field(h, "bounds", "hist")?,
                counts: field(h, "counts", "hist")?,
                sum: field(h, "sum", "hist")?,
            }
        } else {
            return Err(format!("{what}: expected counter, gauge_bits or hist"));
        };
        Ok(CellDump { name: field(m, "name", what)?, labels: field(m, "labels", what)?, value })
    }
}

/// The mutable state of a checkpointable [`TenantPolicy`], tagged by
/// `kind`; everything else about the policy is rebuilt from the spec.
enum PolicyState {
    ReactiveMax,
    Predictive(NaiveSnapshot),
    Resilient { ladder: ResilientSnapshot, primary: NaiveSnapshot },
}

impl Codec for PolicyState {
    fn enc(&self, out: &mut String) {
        match self {
            PolicyState::ReactiveMax => out.push_str("{\"kind\":\"reactive-max\""),
            PolicyState::Predictive(state) => {
                row(out, "{\"kind\":\"predictive\",\"state\":", state)
            }
            PolicyState::Resilient { ladder, primary } => {
                out.push_str("{\"kind\":\"resilient\",");
                ladder.enc_rows(out);
                row(out, ",\"primary\":", primary);
            }
        }
        out.push('}');
    }
    fn dec(j: &Json, what: &str) -> Result<Self, String> {
        let m = obj(j, what)?;
        match field::<String>(m, "kind", what)?.as_str() {
            "reactive-max" => Ok(PolicyState::ReactiveMax),
            "predictive" => Ok(PolicyState::Predictive(field(m, "state", what)?)),
            "resilient" => Ok(PolicyState::Resilient {
                ladder: ResilientSnapshot::dec_rows(m, what)?,
                primary: field(m, "primary", what)?,
            }),
            other => Err(format!("{what}: unknown policy kind {other:?}")),
        }
    }
}

type Predictive = QuantilePredictivePolicy<SeasonalNaive>;

fn plan_state(policy: &Predictive) -> NaiveSnapshot {
    let (plan, plan_start, degraded) = policy.plan_state();
    NaiveSnapshot { sigma: policy.forecaster().sigma(), plan: plan.to_vec(), plan_start, degraded }
}

#[deny(unused_variables)]
fn restore_plan_state(policy: &mut Predictive, state: NaiveSnapshot) {
    let NaiveSnapshot { sigma, plan, plan_start, degraded } = state;
    policy.restore_plan_state(plan, plan_start, degraded);
    policy.forecaster_mut().restore_sigma(sigma);
}

impl PolicyState {
    fn of(policy: &TenantPolicy) -> Result<Self, String> {
        match policy {
            TenantPolicy::ReactiveMax(_) => Ok(PolicyState::ReactiveMax),
            TenantPolicy::Predictive(p) => Ok(PolicyState::Predictive(plan_state(p))),
            TenantPolicy::Resilient(m) => Ok(PolicyState::Resilient {
                ladder: m.snapshot_state(),
                primary: plan_state(m.primary()),
            }),
            TenantPolicy::Custom(_) => {
                Err("a fleet with an injected custom policy cannot be checkpointed".to_string())
            }
        }
    }

    /// Overwrite the state of the rebuilt `policy`; `theta` / `min_nodes`
    /// parameterise a resilient tenant's fallback planner.
    fn restore(self, policy: &mut TenantPolicy, theta: f64, min_nodes: u32) -> Result<(), String> {
        match (policy, self) {
            (TenantPolicy::ReactiveMax(_), PolicyState::ReactiveMax) => {}
            (TenantPolicy::Predictive(p), PolicyState::Predictive(state)) => {
                restore_plan_state(p, state);
            }
            (TenantPolicy::Resilient(m), PolicyState::Resilient { ladder, primary }) => {
                m.restore_state(&ladder, theta, min_nodes);
                restore_plan_state(m.primary_mut(), primary);
            }
            (policy, _) => {
                return Err(format!(
                    "checkpoint policy kind does not match the rebuilt {} tenant",
                    policy.name()
                ))
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// save / load
// ---------------------------------------------------------------------

/// Serialize a supervised fleet into the schema-v1 checkpoint text.
/// `cfg` must be the configuration the fleet was built from (the engine
/// does not retain it); `tel` is the fleet's telemetry registry (pass
/// [`Telemetry::noop`] when running dark).
///
/// # Errors
/// Fails when a tenant runs an injected custom policy (see
/// [`FleetEngine::set_policy`]) — such state has no spec to rebuild
/// from.
pub fn save(sup: &FleetSupervisor, cfg: &FleetConfig, tel: &Telemetry) -> Result<String, String> {
    let runs = sup.engine.runs();
    if cfg.tenants != runs.len() {
        return Err(format!(
            "config describes {} tenants but the fleet has {}",
            cfg.tenants,
            runs.len()
        ));
    }
    let mut out = String::new();
    let _ = write!(out, "{{\"kind\":\"header\",\"schema\":\"{SCHEMA}\",\"version\":{VERSION}");
    row(&mut out, ",\"tick\":", &sup.tick);
    row(&mut out, ",\"total_ticks\":", &sup.total_ticks);
    row(&mut out, ",\"config\":", cfg);
    row(&mut out, ",\"supervisor\":", &sup.cfg);
    out.push_str("}\n");

    for (i, (run, guard)) in runs.iter().zip(&sup.guards).enumerate() {
        row(&mut out, "{\"kind\":\"tenant\",\"id\":", &i);
        row(&mut out, ",\"policy\":", &PolicyState::of(&run.policy)?);
        row(&mut out, ",\"session\":", &run.session.snapshot());
        row(&mut out, ",\"guard\":", guard);
        row(
            &mut out,
            ",\"events\":",
            &run.capture.as_ref().map_or_else(Vec::new, MemorySink::events),
        );
        out.push_str("}\n");
    }

    row(&mut out, "{\"kind\":\"telemetry\",\"cells\":", &tel.dump());
    out.push_str("}\n");
    row(&mut out, "{\"kind\":\"end\",\"tenants\":", &runs.len());
    out.push_str("}\n");
    Ok(out)
}

/// Rebuild a supervised fleet from checkpoint text: reconstruct every
/// tenant from the embedded config (traces, fault plans and fitted
/// forecasters are re-derived from seeds), then overwrite all mutable
/// state. `tel` receives the restored metric cells **absolutely** (store,
/// not add) and `obs` becomes the fleet-level handle. Returns the
/// supervisor plus the embedded [`FleetConfig`].
pub fn load(text: &str, tel: &Telemetry, obs: Obs) -> Result<(FleetSupervisor, FleetConfig), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty checkpoint")?;
    let header_json = parse(header_line).map_err(|e| format!("header: {e}"))?;
    let header = obj(&header_json, "header")?;
    let kind: String = field(header, "kind", "header")?;
    if kind != "header" {
        return Err(format!("first line must be the header, got kind {kind:?}"));
    }
    let schema: String = field(header, "schema", "header")?;
    if schema != SCHEMA {
        return Err(format!("unknown checkpoint schema {schema:?}"));
    }
    let version = match get(header, "version", "header")? {
        Json::Num(v) if v.fract().abs() > 0.0 || !(0.0..=f64::from(u32::MAX)).contains(v) => {
            return Err(format!("header.version: {v} is not an integral version number"))
        }
        Json::Num(v) => *v as u64,
        other => u64::dec(other, "header.version")?,
    };
    if version != VERSION {
        return Err(format!("unsupported checkpoint version {version} (reader supports {VERSION})"));
    }
    let total_ticks: u64 = field(header, "total_ticks", "header")?;
    let cfg: FleetConfig = field(header, "config", "header")?;
    let sup_cfg: SupervisorConfig = field(header, "supervisor", "header")?;
    cfg.validate().map_err(|why| format!("header.config: {why}"))?;
    sup_cfg.validate().map_err(|why| format!("header.supervisor: {why}"))?;

    let engine = FleetEngine::with_telemetry(&cfg, tel).with_obs(obs);
    let mut sup = FleetSupervisor::wrap_with(engine, sup_cfg, tel);
    if sup.total_ticks != total_ticks {
        return Err(format!(
            "rebuilt fleet has {} total ticks, checkpoint says {total_ticks}",
            sup.total_ticks
        ));
    }
    sup.tick = field(header, "tick", "header")?;

    let tenants = sup.engine.runs.len();
    let mut seen = 0usize;
    let mut closed = false;
    for line in lines {
        if closed {
            return Err("data after the end line".to_string());
        }
        let j = parse(line).map_err(|e| format!("line {}: {e}", seen + 2))?;
        let m = obj(&j, "line")?;
        match field::<String>(m, "kind", "line")?.as_str() {
            "tenant" => {
                let id: usize = field(m, "id", "tenant")?;
                if id != seen {
                    return Err(format!("tenant lines out of order: expected {seen}, got {id}"));
                }
                let (Some(run), Some(guard)) =
                    (sup.engine.runs.get_mut(id), sup.guards.get_mut(id))
                else {
                    return Err(format!("tenant {id} beyond fleet size {tenants}"));
                };
                run.session.restore(&field(m, "session", "tenant")?);
                let (theta, min_nodes) = (run.spec.theta, run.spec.min_nodes);
                field::<PolicyState>(m, "policy", "tenant")?.restore(
                    &mut run.policy,
                    theta,
                    min_nodes,
                )?;
                let events: Vec<Event> = field(m, "events", "tenant")?;
                if let Some(mem) = &run.capture {
                    // Discard the rebuild's build-time events; the
                    // checkpoint's buffer already contains them.
                    let _ = mem.drain();
                    for ev in &events {
                        mem.emit(ev);
                    }
                } else if !events.is_empty() {
                    return Err(format!(
                        "tenant {id} has captured events but the config disables capture"
                    ));
                }
                *guard = field(m, "guard", "tenant")?;
                seen += 1;
            }
            "telemetry" => tel.restore(&field::<Vec<CellDump>>(m, "cells", "telemetry")?),
            "end" => {
                let n: usize = field(m, "tenants", "end")?;
                if n != seen {
                    return Err(format!("end line says {n} tenants, saw {seen}"));
                }
                closed = true;
            }
            other => return Err(format!("unknown line kind {other:?}")),
        }
    }
    if !closed {
        return Err("truncated checkpoint: missing end line".to_string());
    }
    if seen != tenants {
        return Err(format!("checkpoint has {seen} tenants, rebuilt fleet has {tenants}"));
    }
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

    fn run_report(cfg: &FleetConfig) -> (crate::fleet::FleetReport, String) {
        let tel = Telemetry::live();
        let mut sup =
            FleetSupervisor::wrap_with(FleetEngine::with_telemetry(cfg, &tel), SupervisorConfig::default(), &tel);
        sup.run_to_completion();
        let expo = tel.snapshot().exposition();
        (sup.finish(), expo)
    }

    #[test]
    fn save_load_roundtrips_mid_run_and_reproduces_the_full_run() {
        let cfg = chaotic_cfg();
        let (reference, reference_expo) = run_report(&cfg);

        let tel = Telemetry::live();
        let mut sup = FleetSupervisor::wrap_with(
            FleetEngine::with_telemetry(&cfg, &tel),
            SupervisorConfig::default(),
            &tel,
        );
        for _ in 0..97 {
            sup.tick();
        }
        let text = save(&sup, &cfg, &tel).expect("checkpointable fleet");

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
        let tel = Telemetry::live();
        let mut sup = FleetSupervisor::wrap_with(
            FleetEngine::with_telemetry(&cfg, &tel),
            SupervisorConfig::default(),
            &tel,
        );
        for _ in 0..31 {
            sup.tick();
        }
        let a = save(&sup, &cfg, &tel).unwrap();
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

    #[test]
    fn corrupted_checkpoints_are_rejected() {
        let cfg = chaotic_cfg();
        let tel = Telemetry::live();
        let sup = FleetSupervisor::wrap_with(
            FleetEngine::with_telemetry(&cfg, &tel),
            SupervisorConfig::default(),
            &tel,
        );
        let text = save(&sup, &cfg, &tel).unwrap();

        // Truncation (no end line) is detected.
        let truncated: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(load(&truncated, &Telemetry::noop(), Obs::noop())
            .err()
            .unwrap()
            .contains("truncated"));

        // A future version is refused rather than misread.
        let bumped = text.replacen("\"version\":1", "\"version\":2", 1);
        assert!(load(&bumped, &Telemetry::noop(), Obs::noop())
            .err()
            .unwrap()
            .contains("unsupported checkpoint version"));

        // A foreign schema string is refused.
        let alien = text.replacen(SCHEMA, "someone-elses-format", 1);
        assert!(load(&alien, &Telemetry::noop(), Obs::noop())
            .err()
            .unwrap()
            .contains("unknown checkpoint schema"));

        // A fractional bare-number version is not truncated into a valid one.
        let fractional = text.replacen("\"version\":1", "\"version\":1.5", 1);
        assert!(load(&fractional, &Telemetry::noop(), Obs::noop())
            .err()
            .unwrap()
            .contains("not an integral version"));

        // `end` closes the file: an early one that matches the running
        // count must not hide a missing tail, and nothing may follow the
        // real one.
        let end_line = text.lines().last().unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let early_end = "{\"kind\":\"end\",\"tenants\":\"u:2\"}";
        lines.insert(3, early_end);
        let early = lines.join("\n");
        let trailing = format!("{text}{end_line}\n");
        for bad in [&early, &trailing] {
            assert!(load(bad, &Telemetry::noop(), Obs::noop())
                .err()
                .unwrap()
                .contains("after the end line"));
        }

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
            let hostile =
                text.replacen(&format!("\"{key}\":\"{was}\""), &format!("\"{key}\":\"{zero}\""), 1);
            assert_ne!(hostile, text, "{key}={was} not found in the header");
            let err = load(&hostile, &Telemetry::noop(), Obs::noop()).err().unwrap();
            assert!(err.starts_with("header.config: ") && err.contains(why), "{key}: {err}");
        }
    }

    #[test]
    fn tagged_values_roundtrip_exactly() {
        for v in [
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(-42),
            Value::U64(u64::MAX),
            Value::F64(0.1 + 0.2),
            Value::F64(-0.0),
            Value::F64(f64::INFINITY),
            Value::Str("hello \"world\"\nu:not-a-tag".to_string()),
        ] {
            let mut enc = String::new();
            v.enc(&mut enc);
            let parsed = parse(&enc).unwrap();
            assert_eq!(Value::dec(&parsed, "value").unwrap(), v, "roundtrip of {v:?}");
        }
        // NaN: bitwise equality (PartialEq fails on NaN by design).
        let mut enc = String::new();
        Value::F64(f64::NAN).enc(&mut enc);
        let parsed = parse(&enc).unwrap();
        match Value::dec(&parsed, "value").unwrap() {
            Value::F64(x) => assert_eq!(x.to_bits(), f64::NAN.to_bits()),
            other => panic!("expected F64, got {other:?}"),
        }
    }
}
