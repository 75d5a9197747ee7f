//! Deterministic fleet checkpoint/restore (schema v2).
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
//! impl with both directions side by side. Each line is decoded in one
//! pass straight off `rpas-obs`'s borrowed JSON [`Reader`], with no tree
//! in between. One object per line:
//!
//! ```text
//! {"kind":"header","schema":"rpas-fleet-checkpoint","version":2,...}
//! {"kind":"tenant","id":"u:0",...}          # one per tenant, in order
//! {"kind":"telemetry","cells":[...]}
//! {"kind":"end","tenants":"u:N"}
//! ```
//!
//! State numbers travel as *tagged strings* because a JSON number is a
//! lossy `f64` in this workspace's parser: `"u:<dec>"` for integers
//! (seeds use the full 64-bit range), `"f:<16-hex>"` for the IEEE-754
//! bits of a double (lossless for every value including -0.0, NaN and
//! infinities). A tenant's captured events are the bodies its
//! [`crate::Capture`] rendered, each a trace line less `"v":1,"seq":N,`,
//! which `save` copies out and `load` checks (`body`) and copies back.
//!
//! ## Reading, and forward compatibility
//!
//! The header carries `schema` and `version`; readers reject unknown
//! values instead of guessing, and before they decode anything else.
//! Within any object of the file:
//!
//! * *Member order is free.* A reader walks the members as they come and
//!   fills one slot per member it knows; a slot left empty is a
//!   `missing key` error.
//! * *Unknown keys are ignored* — validated as JSON and skipped — so a
//!   future v2.x writer may add fields without breaking v2 readers;
//!   anything that changes the meaning of existing fields must bump
//!   `version`.
//! * *A repeated key* (no writer emits one): every occurrence is decoded
//!   and the last one kept. The exception is a member that selects what
//!   the rest of the object means — a union's tag (`kind`, `state`), the
//!   `counter` / `gauge_bits` / `hist` member of a metric cell, the
//!   header's `schema` and `version`. Those are read by look-ahead before
//!   the walk, from their first occurrence, so a second one is refused
//!   (`duplicate member`) rather than guessed at.
//!
//! What the text gets wrong is always an `Err`, never a panic, and past
//! the header the error names its line.

use crate::autoscaler::{QuantilePredictivePolicy, ReplanSchedule};
use crate::fleet::{
    FleetConfig, FleetEngine, TenantId, TenantPolicy, TenantPolicyKind, TracePreset, MIN_BODY,
};
use crate::resilient::{NaiveSnapshot, ResilienceConfig, ResilientSnapshot, Tier};
use crate::supervisor::{FleetSupervisor, SupervisorConfig, TenantGuard, TenantHealth};
use rpas_forecast::SeasonalNaive;
use rpas_obs::json::{escape_into, f64_string, write_u64, Kind, Reader};
use rpas_obs::{Level, Obs};
use rpas_simdb::{
    ClusterSnapshot, FaultConfig, FaultCounts, NodeSnapshot, ScaleOutcome, SessionSnapshot,
    StepRecord, StorageStats,
};
use rpas_telemetry::{BurnRule, CellDump, CellValue, SloSpec, Telemetry};
use std::borrow::Cow;
use std::sync::Arc;

/// Schema identifier in the header line.
pub(crate) const SCHEMA: &str = "rpas-fleet-checkpoint";
/// Current schema version, as the header writes it.
pub(crate) const VERSION: &str = "2";

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

fn arr(r: &mut Reader<'_>, what: &str) -> Result<(), String> {
    match r.peek()? {
        Kind::Arr => r.begin_array(),
        _ => Err(format!("{what}: expected array")),
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
/// has the rules). Each `"key" => slot` row is decoded — by
/// [`Codec::dec`], or by the expression after `=` — and bound as `slot`;
/// the keys under `once` are those the caller has read by look-ahead.
macro_rules! members {
    ($r:ident, $what:expr $(, once($($tag:literal),+))? => {
        $($key:literal => $slot:ident $(: $ty:ty)? $(= $with:expr)?),* $(,)?
    }) => {
        $(let mut $slot $(: Option<$ty>)? = None;)*
        let mut seen = 0u32;
        obj($r, $what)?;
        while let Some(key) = $r.next_key()? {
            match &*key {
                $($key => $slot = Some(members!(@value $r, $key $(, $with)?)),)*
                other => pass($r, other, &[$($($tag),+)?], &mut seen, $what)?,
            }
        }
        $(let $slot = $slot.ok_or_else(|| format!("{}: missing key {:?}", $what, $key))?;)*
    };
    (@value $r:ident, $key:literal) => { Codec::dec($r, $key)? };
    (@value $r:ident, $key:literal, $with:expr) => { $with };
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

/// The text of the value at `r` as written (`src` is `r`'s source),
/// validated and stepped over.
fn token<'s>(r: &mut Reader<'_>, src: &'s str) -> Result<&'s str, String> {
    r.peek()?;
    let start = r.offset();
    r.skip_value()?;
    Ok(src.get(start..r.offset()).unwrap_or_default())
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

/// Append `"f:<bits>"`: the 16 lowercase hex nibbles of `bits`, high
/// first, as `{:016x}` writes them, two per push from [`HEX_PAIRS`].
fn enc_f64_bits(out: &mut String, bits: u64) {
    out.push_str("\"f:");
    for byte in bits.to_be_bytes() {
        let at = 2 * byte as usize;
        out.push_str(HEX_PAIRS.get(at..at + 2).unwrap_or_default());
    }
    out.push('"');
}

/// `"000102…feff"`: the two hex digits of every byte, in order, derived
/// at compile time (a slice of it needs no UTF-8 check at run time).
const HEX_PAIRS: &str = {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    const BYTES: [u8; 512] = {
        let mut b = [0u8; 512];
        let mut i = 0;
        while i < 256 {
            b[2 * i] = HEX[i >> 4];
            b[2 * i + 1] = HEX[i & 0xf];
            i += 1;
        }
        b
    };
    match std::str::from_utf8(&BYTES) {
        Ok(s) => s,
        Err(_) => "",
    }
};

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

impl Codec for f64 {
    fn enc(&self, out: &mut String) {
        enc_f64_bits(out, self.to_bits());
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

impl Codec for Arc<str> {
    fn enc(&self, out: &mut String) {
        enc_str(self, out);
    }
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        text(r, what, "string").map(Arc::from)
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
        arr(r, what)?;
        while r.next_element()? {
            items.push(T::dec(r, what)?);
        }
        Ok(items)
    }
}

/// Step within a fixed-length array: to its next element or, with `more`
/// off, past its end. An array longer or shorter than the elements
/// `shape` lists is an `Err`.
fn step(r: &mut Reader<'_>, more: bool, what: &str, shape: &str) -> Result<(), String> {
    if r.next_element()? == more {
        Ok(())
    } else {
        Err(format!("{what}: expected [{shape}]"))
    }
}

/// Tuples travel as fixed-length arrays; a wrong length is an `Err`.
macro_rules! tuple_codec {
    ($(($T:ident, $t:ident, $i:tt)),+) => {
        impl<$($T: Codec),+> Codec for ($($T,)+) {
            fn enc(&self, out: &mut String) {
                $(row(out, if $i == 0 { "[" } else { "," }, &self.$i);)+
                out.push(']');
            }
            fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
                let shape = stringify!($($t),+);
                arr(r, what)?;
                let items = ($({
                    step(r, true, what, shape)?;
                    $T::dec(r, what)?
                },)+);
                step(r, false, what, shape)?;
                Ok(items)
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
            fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
                let s = text(r, what, "string")?;
                <$t>::parse(&s).ok_or_else(|| format!("{what}: unknown label {s:?}"))
            }
        }
    )+};
}
label_codec!(TenantPolicyKind: name, TracePreset: name, ScaleOutcome: label, Tier: label);

// ---------------------------------------------------------------------
// table-driven structs
// ---------------------------------------------------------------------

/// A struct that travels as a JSON object, both directions derived from
/// one `"key" => field` table: the writer walks the rows in order, the
/// reader fills one slot per row ([`members!`]) and builds the struct
/// *literal* from the slots, so a field without a row does not compile
/// and the two cannot drift.
macro_rules! record {
    ($ty:ident { $key0:literal => $field0:ident $(, $key:literal => $field:ident)* $(,)? }
        $(check $check:path)?) => {
        impl Codec for $ty {
            fn enc(&self, out: &mut String) {
                row(out, concat!("{\"", $key0, "\":"), &self.$field0);
                $(row(out, concat!(",\"", $key, "\":"), &self.$field);)*
                out.push('}');
            }
            fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
                members!(r, what => { $key0 => $field0 $(, $key => $field)* });
                let v = $ty { $field0 $(, $field)* };
                $($check(&v).map_err(|why| format!("{what}: {why}"))?;)?
                Ok(v)
            }
        }
    };
}

/// A struct that travels as a fixed-length JSON array of its fields, in
/// table order; a wrong length is an `Err`.
macro_rules! array_record {
    ($ty:ident [$field0:ident $(, $field:ident)* $(,)?]) => {
        impl Codec for $ty {
            fn enc(&self, out: &mut String) {
                row(out, "[", &self.$field0);
                $(row(out, ",", &self.$field);)*
                out.push(']');
            }
            fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
                let shape = stringify!($field0 $(, $field)*);
                arr(r, what)?;
                let v = $ty {
                    $field0: {
                        step(r, true, what, shape)?;
                        Codec::dec(r, stringify!($field0))?
                    },
                    $($field: {
                        step(r, true, what, shape)?;
                        Codec::dec(r, stringify!($field))?
                    },)*
                };
                step(r, false, what, shape)?;
                Ok(v)
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
} check once_per_step);

/// A counter that moves at most once per step cannot pass the step
/// cursor; one that did would overflow where no run can.
fn once_per_step(s: &SessionSnapshot) -> Result<(), String> {
    let (c, cluster) = (&s.counts, &s.cluster);
    let counters = [
        ("counts.scale_fail", c.scale_fail),
        ("counts.provision_delay", c.provision_delay),
        ("counts.node_crash", c.node_crash),
        ("counts.metric_dropout", c.metric_dropout),
        ("counts.anomaly_steps", c.anomaly_steps),
        ("cluster.scale_out", cluster.scale_out_events as u64),
        ("cluster.scale_in", cluster.scale_in_events as u64),
    ];
    match counters.into_iter().find(|&(_, n)| n > s.t as u64) {
        Some((name, n)) => Err(format!("{name} {n} exceeds the step cursor {}", s.t)),
        None => Ok(()),
    }
}

// The one plan-state record: the rolling-plan cursor and fitted sigma of
// a seasonal-naive predictive policy, whether it runs as a `predictive`
// tenant, as a resilient tenant's primary, or as its fallback.
record!(NaiveSnapshot {
    "plan" => plan,
    "plan_start" => plan_start,
    "degraded" => degraded,
    "sigma" => sigma,
} check naive_state);

/// A fit leaves a finite sigma ≥ 1e-9 (or none); any other value would
/// turn every forecast cell of the tenant into NaN. A plan is empty only
/// before the first replan, whose cursor is still 0 (a replan writes a
/// whole horizon, and a failed one keeps the plan it had).
fn naive_state(state: &NaiveSnapshot) -> Result<(), String> {
    match (state.sigma, state.plan.is_empty(), state.plan_start) {
        (Some(sigma), _, _) if !(sigma.is_finite() && sigma > 0.0) => {
            Err(format!("sigma {} is not a finite positive spread", f64_string(sigma)))
        }
        (_, true, start) if start > 0 => Err(format!("an empty plan starting at step {start}")),
        _ => Ok(()),
    }
}

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
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        match &*tag(r, "state", what)? {
            "healthy" => {
                members!(r, what, once("state") => {});
                Ok(TenantHealth::Healthy)
            }
            "quarantined" => {
                members!(r, what, once("state") => { "until" => until_tick, "reason" => reason });
                Ok(TenantHealth::Quarantined { until_tick, reason })
            }
            "probation" => {
                members!(r, what, once("state") => { "clean" => clean_ticks });
                Ok(TenantHealth::Probation { clean_ticks })
            }
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
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        members!(r, what => {
            "health" => health,
            "failures" => failures,
            "strikes" => strikes,
            "last_error" => last_error,
            "outage" => outage = text(r, "outage", "string")?
                .chars()
                .map(|c| match c {
                    '0' => Ok(false),
                    '1' => Ok(true),
                    other => Err(format!("{what}: bad outage flag {other:?}")),
                })
                .collect::<Result<_, _>>()?,
        });
        Ok(TenantGuard { health, failures, strikes, last_error, outage })
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
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        // Which value member is present says which variant this is.
        let value = if let Some(mut at) = find(*r, "counter", what)? {
            CellValue::Counter(u64::dec(&mut at, "counter")?)
        } else if let Some(mut at) = find(*r, "gauge_bits", what)? {
            CellValue::GaugeBits(u64::dec(&mut at, "gauge_bits")?)
        } else if let Some(mut at) = find(*r, "hist", what)? {
            let at = &mut at;
            members!(at, "hist" => { "bounds" => bounds, "counts" => counts, "sum" => sum });
            CellValue::Hist { bounds, counts, sum }
        } else {
            return Err(format!("{what}: expected counter, gauge_bits or hist"));
        };
        members!(r, what, once("counter", "gauge_bits", "hist") => {
            "name" => name,
            "labels" => labels,
        });
        Ok(CellDump { name, labels, value })
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
                row(out, "{\"kind\":\"resilient\",\"ladder\":", ladder);
                row(out, ",\"primary\":", primary);
            }
        }
        out.push('}');
    }
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        match &*tag(r, "kind", what)? {
            "reactive-max" => {
                members!(r, what, once("kind") => {});
                Ok(PolicyState::ReactiveMax)
            }
            "predictive" => {
                members!(r, what, once("kind") => { "state" => state });
                Ok(PolicyState::Predictive(state))
            }
            "resilient" => {
                members!(r, what, once("kind") => { "ladder" => ladder, "primary" => primary });
                Ok(PolicyState::Resilient { ladder, primary })
            }
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

    /// A plan cursor past the step cursor `t` is a history no run has: a
    /// replan starts its plan at the step it runs in.
    fn plans_fit(&self, t: usize) -> Result<(), String> {
        let plans = match self {
            PolicyState::ReactiveMax => [None, None],
            PolicyState::Predictive(state) => [Some(state), None],
            PolicyState::Resilient { ladder, primary } => [Some(primary), ladder.naive.as_ref()],
        };
        match plans.into_iter().flatten().find(|state| state.plan_start > t) {
            Some(late) => Err(format!("plan_start {} is past the step cursor {t}", late.plan_start)),
            None => Ok(()),
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
                m.restore_state(&ladder, theta, min_nodes).map_err(|e| format!("policy: {e}"))?;
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

/// Serialize a supervised fleet into the schema-v2 checkpoint text.
/// `cfg` must be the configuration the fleet was built from (the engine
/// does not retain it); `tel` is the fleet's telemetry registry (pass
/// [`Telemetry::noop`] when running dark).
///
/// # Errors
/// Fails when a tenant runs an injected custom policy (see
/// [`FleetEngine::set_policy`]) — such state has no spec to rebuild
/// from.
pub fn save(sup: &FleetSupervisor, cfg: &FleetConfig, tel: &Telemetry) -> Result<String, String> {
    let runs = &sup.engine.runs;
    if cfg.tenants != runs.len() {
        return Err(format!(
            "config describes {} tenants but the fleet has {}",
            cfg.tenants,
            runs.len()
        ));
    }
    let mut out = String::from("{\"kind\":\"header\",\"schema\":\"");
    out.push_str(SCHEMA);
    out.push_str("\",\"version\":");
    out.push_str(VERSION);
    row(&mut out, ",\"tick\":", &sup.tick);
    row(&mut out, ",\"total_ticks\":", &sup.total_ticks);
    row(&mut out, ",\"config\":", cfg);
    row(&mut out, ",\"supervisor\":", &sup.cfg);
    out.push_str("}\n");

    for (i, run) in runs.iter().enumerate() {
        row(&mut out, "{\"kind\":\"tenant\",\"id\":", &i);
        row(&mut out, ",\"policy\":", &PolicyState::of(&run.policy)?);
        row(&mut out, ",\"session\":", &run.session.snapshot());
        row(&mut out, ",\"guard\":", &run.guard);
        // Each body is rendered once, by the first save or `finish` that
        // settles the capture, and copied from under its lock.
        out.push_str(",\"events\":[");
        if let Some(capture) = &run.capture {
            for (i, body) in capture.settled().bodies().enumerate() {
                out.push_str(if i > 0 { ",{" } else { "{" });
                out.push_str(body);
            }
        }
        out.push_str("]}\n");
    }

    row(&mut out, "{\"kind\":\"telemetry\",\"cells\":", &tel.dump());
    out.push_str("}\n");
    row(&mut out, "{\"kind\":\"end\",\"tenants\":", &runs.len());
    out.push_str("}\n");
    Ok(out)
}

/// A tenant's captured events: each element of its `events` array is
/// checked as a trace line's body in one pass ([`body`]) and its bytes
/// after the `{` copied (`line` is `r`'s source, `label` the tenant's).
fn bodies(r: &mut Reader<'_>, line: &str, label: &str) -> Result<(String, Vec<usize>), String> {
    // The rest of the line bounds the bodies' bytes, and so their count.
    let left = line.len().saturating_sub(r.offset());
    let (mut text, mut ends) = (String::with_capacity(left), Vec::with_capacity(left / MIN_BODY));
    let mut keys = Vec::new();
    arr(r, "events")?;
    while r.next_element()? {
        obj(r, "events")?;
        let start = r.offset();
        body(r, line, label, &mut keys).map_err(|e| format!("event {}: {e}", ends.len()))?;
        text.push_str(line.get(start..r.offset()).unwrap_or_default());
        ends.push(text.len());
    }
    Ok((text, ends))
}

/// A body's members: exactly `ts_us` (the literal `0`), `level` (one of
/// the four), `span`, `event` and `fields`, each once and in any order —
/// so no `v`, `seq` or `wall_us` — with `fields` an object of scalars, no
/// key twice (`keys` is scratch space), no `*_us` key and a `tenant` of
/// `label`.
fn body<'a>(r: &mut Reader<'a>, line: &str, label: &str, keys: &mut Vec<Cow<'a, str>>) -> Result<(), String> {
    const MEMBERS: [&str; 5] = ["ts_us", "level", "span", "event", "fields"];
    let mut seen = [false; MEMBERS.len()];
    while let Some(key) = r.next_key()? {
        match MEMBERS.iter().position(|m| *m == key).map(|i| std::mem::replace(&mut seen[i], true)) {
            None => return Err(format!("member {key:?} is not one of a captured event's")),
            Some(true) => return Err(format!("repeated member {key:?}")),
            Some(false) if key == "ts_us" => {
                if token(r, line)? != "0" {
                    return Err("ts_us is not 0".to_string());
                }
            }
            Some(false) if key == "fields" => {
                keys.clear();
                obj(r, "fields")?;
                while let Some(key) = r.next_key()? {
                    if key.ends_with("_us") {
                        return Err(format!("field {key:?} is a timing"));
                    } else if keys.contains(&key) {
                        return Err(format!("repeated field {key:?}"));
                    }
                    if key == "tenant" {
                        let tenant = text(r, "fields.tenant", "string")?;
                        if tenant != label {
                            return Err(format!("field tenant {tenant:?} on the line of tenant {label}"));
                        }
                    } else if matches!(r.peek()?, Kind::Bool | Kind::Num | Kind::Str) {
                        r.skip_value()?;
                    } else {
                        return Err(format!("field {key:?} is not a scalar"));
                    }
                    keys.push(key);
                }
                if !keys.iter().any(|k| k == "tenant") {
                    return Err("no tenant field".to_string());
                }
            }
            Some(false) => {
                let value = text(r, &key, "string")?;
                if key == "level" && Level::parse(&value).is_none() {
                    return Err(format!("unknown level {value:?}"));
                }
            }
        }
    }
    match MEMBERS.iter().zip(seen).find(|&(_, seen)| !seen) {
        Some((missing, _)) => Err(format!("missing member {missing:?}")),
        None => Ok(()),
    }
}

/// The header line: `(tick, total_ticks, config, supervisor)`. `kind`,
/// `schema` and `version` are read by look-ahead and checked *before*
/// anything whose shape a version may change is decoded, so a v1 or v3
/// file answers "unsupported version", not a complaint about a member
/// that version shapes differently. The line (about a kilobyte) is validated whole first, so a
/// malformed header says so whatever the look-aheads would have met.
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
    let version = token(&mut at, line)?;
    if version != VERSION {
        return Err(format!("unsupported checkpoint version {version} (reader supports {VERSION})"));
    }

    members!(r, "header", once("kind", "schema", "version") => {
        "tick" => tick,
        "total_ticks" => total_ticks,
        "config" => cfg,
        "supervisor" => sup_cfg,
    });
    Ok((tick, total_ticks, cfg, sup_cfg))
}

/// A guard `ticks` supervised ticks can leave: a tick records at most one
/// outage flag and one strike, and probation ends at `probation_ticks`
/// clean ticks.
fn guard_fits(guard: &TenantGuard, ticks: u64, probation_ticks: u64) -> Result<(), String> {
    let (outage, strikes) = (guard.outage.len(), guard.strikes);
    if outage as u64 > ticks {
        return Err(format!("guard: {outage} outage flags for {ticks} supervised ticks"));
    }
    if u64::from(strikes) > ticks {
        return Err(format!("guard: {strikes} strikes for {ticks} supervised ticks"));
    }
    match guard.health {
        TenantHealth::Probation { clean_ticks } if clean_ticks >= probation_ticks => Err(format!(
            "guard: {clean_ticks} clean ticks on a probation that ends at {probation_ticks}"
        )),
        _ => Ok(()),
    }
}

/// Decode one line after the header — whole, into locals — and then
/// apply it to the fleet rebuilt from `cfg`; `seen` counts the tenant
/// lines so far. Answers whether this was the `end` line.
fn apply_line(
    line: &str,
    cfg: &FleetConfig,
    sup: &mut FleetSupervisor,
    tel: &Telemetry,
    seen: &mut usize,
) -> Result<bool, String> {
    let r = &mut Reader::new(line);
    match &*tag(r, "kind", "line")? {
        "tenant" => {
            // The label of the tenant this line must be (`id` is checked below).
            let label = TenantId(*seen as u32).to_string();
            members!(r, "tenant", once("kind") => {
                "id" => id: usize,
                "policy" => policy: PolicyState,
                "session" => session: SessionSnapshot,
                "guard" => guard: TenantGuard,
                "events" => events = bodies(r, line, &label)?,
            });
            r.end()?;
            if id != *seen {
                return Err(format!("tenant lines out of order: expected {seen}, got {id}"));
            }
            let tenants = sup.engine.runs.len();
            let Some(run) = sup.engine.runs.get_mut(id) else {
                return Err(format!("tenant {id} beyond fleet size {tenants}"));
            };
            guard_fits(&guard, sup.tick, sup.cfg.probation_ticks)?;
            let cursor = session.t;
            run.session.restore(session).map_err(|e| format!("session: {e}"))?;
            policy.plans_fit(cursor).map_err(|e| format!("tenant {id}: {e}"))?;
            policy.restore(&mut run.policy, cfg.theta, cfg.min_nodes)?;
            match &run.capture {
                // The checkpoint's bodies already hold the rebuild's
                // build-time events, so they replace the capture's.
                Some(capture) => capture.restore(events),
                None if events.1.is_empty() => {}
                None => return Err(format!("tenant {id} has captured events but capture is off")),
            }
            run.guard = guard;
            *seen += 1;
        }
        "telemetry" => {
            members!(r, "telemetry", once("kind") => { "cells" => cells: Vec<CellDump> });
            r.end()?;
            tel.restore(&cells).map_err(|e| format!("cells: {e}"))?;
        }
        "end" => {
            members!(r, "end", once("kind") => { "tenants" => n: usize });
            r.end()?;
            if n != *seen {
                return Err(format!("end line says {n} tenants, saw {seen}"));
            }
            return Ok(true);
        }
        other => return Err(format!("unknown line kind {other:?}")),
    }
    Ok(false)
}

/// Rebuild a supervised fleet from checkpoint text: reconstruct every
/// tenant from the embedded config (traces, fault plans and fitted
/// forecasters are re-derived from seeds), then overwrite all mutable
/// state. `tel` receives the restored metric cells **absolutely** (store,
/// not add) and `obs` becomes the fleet-level handle. Returns the
/// supervisor plus the embedded [`FleetConfig`].
///
/// # Errors
/// Malformed or truncated text, a wrong schema or version, a
/// configuration no fleet can be built from, and state that does not fit
/// the rebuilt fleet (a header `tick` past `total_ticks`, a session cursor
/// beyond its trace or contradicting its step records or counters, a plan
/// cursor past it, more outage flags or strikes than supervised ticks, a
/// probation past its end, a metric cell of another kind or shape, a
/// captured event that is not its tenant's trace-line body).
pub fn load(text: &str, tel: &Telemetry, obs: Obs) -> Result<(FleetSupervisor, FleetConfig), String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty checkpoint")?;
    let (tick, total_ticks, cfg, sup_cfg) = read_header(header)?;
    if tick > total_ticks {
        return Err(format!("header: tick {tick} is past total_ticks {total_ticks}"));
    }
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
    sup.tick = tick;

    let mut seen = 0usize;
    let mut closed = false;
    for (n, line) in lines {
        if closed {
            return Err("data after the end line".to_string());
        }
        closed = apply_line(line, &cfg, &mut sup, tel, &mut seen)
            .map_err(|e| format!("line {}: {e}", n + 1))?;
    }
    if !closed {
        return Err("truncated checkpoint: missing end line".to_string());
    }
    let tenants = sup.engine.runs.len();
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

        // A future version is refused rather than misread, and so is v1,
        // whose events were tagged scalars; the version is the token `save`
        // writes, not a number that rounds or parses to it.
        for version in ["1", "3", "2.5", "2.0", "\"u:2\""] {
            let other = text.replacen("\"version\":2", &format!("\"version\":{version}"), 1);
            let err = load(&other, &Telemetry::noop(), Obs::noop()).err().unwrap();
            assert!(err.starts_with(&format!("unsupported checkpoint version {version} ")), "{err}");
        }

        // A foreign schema string is refused.
        let alien = text.replacen(SCHEMA, "someone-elses-format", 1);
        assert!(load(&alien, &Telemetry::noop(), Obs::noop())
            .err()
            .unwrap()
            .contains("unknown checkpoint schema"));

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

        // Well-formed lines whose state does not fit the fleet rebuilt
        // from the header are an `Err` naming the line and the member —
        // not an assert in `SimSession::restore`, `Histogram::new` /
        // `from_parts` or the registry's kind check.
        const BOUNDS: &str = "\"hist\":{\"bounds\":[\"f:";
        let first_bound = text.find(BOUNDS).expect("a histogram cell") + BOUNDS.len();
        let mut infinite_bound = text.clone();
        infinite_bound.replace_range(first_bound..first_bound + 16, "7ff0000000000000");
        let edit = |from: &str, to: &str| {
            let edited = text.replacen(from, to, 1);
            assert_ne!(edited, text, "{from} not found");
            edited
        };
        // A spread no fit produces: NaN, zero or negative.
        const SIGMA: &str = "\"sigma\":\"f:";
        let first_sigma = text.find(SIGMA).expect("a fitted sigma") + SIGMA.len();
        let sigma_line = text[..first_sigma].lines().count();
        let sigma = |bits: &str| {
            let mut edited = text.clone();
            edited.replace_range(first_sigma..first_sigma + 16, bits);
            edited
        };
        // A session cursor its own step records contradict: a run leaves
        // one record per executed tick and its delivered prefix never
        // past the cursor.
        let ran_tel = Telemetry::live();
        let mut ran = FleetSupervisor::wrap_with(
            FleetEngine::with_telemetry(&cfg, &ran_tel),
            SupervisorConfig::default(),
            &ran_tel,
        );
        for _ in 0..60 {
            ran.tick();
        }
        let ran = save(&ran, &cfg, &ran_tel).unwrap();
        let edit_ran = |from: &str, to: &str| {
            let edited = ran.replacen(from, to, 1);
            assert_ne!(edited, ran, "{from} not found");
            edited
        };
        // Counters 60 ticks cannot reach: a fault or scale count moves at
        // most once a step and a strike once a tick, and a probation ends
        // at its length (4 supervised ticks, 12 resilient steps).
        let beyond =
            |key: &str| edit_ran(&format!("\"{key}\":\"u:"), &format!("\"{key}\":\"u:1000"));
        let probation = ran.find("\"probation\":").expect("a resilient tenant");
        let probation_line = ran[..probation].lines().count();
        let on_probation = "{\"state\":\"probation\",\"clean\":\"u:4\"}";
        // Tenant 0 replanned at step 48: a plan of 24 targets from there.
        let plan = ran.find("\"plan\":[").expect("a plan") + "\"plan\":[".len();
        let plan_end = plan + ran[plan..].find(']').expect("the plan's end");
        let no_plan = format!("{}{}", &ran[..plan], &ran[plan_end..]);
        // Tenant 0's first captured event, and its fields.
        let event = |to: &str| edit_ran("\"events\":[{", &format!("\"events\":[{{{to}"));
        let field = |to: &str| edit_ran("\"fields\":{", &format!("\"fields\":{{{to}"));
        // A seventh tenant line in a fleet of six: the last one renumbered,
        // its events left out.
        let mut lines: Vec<String> = ran.lines().map(str::to_string).collect();
        let last = lines[6].replacen("\"id\":\"u:5\"", "\"id\":\"u:6\"", 1);
        let events = last.find(",\"events\":[").expect("an events member");
        lines.insert(7, format!("{},\"events\":[]}}", &last[..events]));
        let extra_tenant = lines.join("\n");
        for (hostile, line, why) in [
            (extra_tenant, 8, "tenant 6 beyond fleet size 6"),
            (
                edit_ran("\"capture_events\":true", "\"capture_events\":false"),
                2,
                "tenant 0 has captured events but capture is off",
            ),
            (
                edit_ran(
                    "\"policies\":[\"predictive\",\"resilient\",",
                    "\"policies\":[\"resilient\",\"predictive\",",
                ),
                2,
                "checkpoint policy kind does not match the rebuilt resilient tenant",
            ),
            (beyond("scale_fail"), 2, "session: counts.scale_fail 1000"),
            (beyond("provision_delay"), 2, "session: counts.provision_delay 1000"),
            (beyond("node_crash"), 2, "session: counts.node_crash 1000"),
            (beyond("metric_dropout"), 2, "session: counts.metric_dropout 1000"),
            (beyond("anomaly_steps"), 2, "session: counts.anomaly_steps 1000"),
            (beyond("scale_out"), 2, "session: cluster.scale_out 1000"),
            (beyond("scale_in"), 2, "session: cluster.scale_in 1000"),
            (beyond("strikes"), 2, "guard: 1000"),
            (edit_ran("{\"state\":\"healthy\"}", on_probation), 2, "guard: 4 clean ticks"),
            (beyond("probation"), probation_line, "policy: probation 1000"),
            (
                edit_ran("\"session\":{\"t\":\"u:60\"", "\"session\":{\"t\":\"u:10\""),
                2,
                "session: snapshot cursor 10 but 60 step records",
            ),
            (
                edit_ran("\"visible\":\"u:", "\"visible\":\"u:99999"),
                2,
                "session: snapshot visible prefix 99999",
            ),
            (
                edit("\"session\":{\"t\":\"u:0\"", "\"session\":{\"t\":\"u:99999\""),
                2,
                "session: snapshot cursor 99999 beyond trace length 288",
            ),
            (
                edit("\"counts\":[", "\"counts\":[\"u:0\","),
                8,
                "cells: metric \"sim.utilization_ratio\": histogram has 9 counts for 7 bounds",
            ),
            (infinite_bound, 8, "cells: metric \"sim.utilization_ratio\": histogram bounds must"),
            (edit("\"counter\":", "\"gauge_bits\":"), 8, "already registered as counter"),
            (sigma("7ff8000000000000"), sigma_line, "sigma NaN is not a finite positive"),
            (sigma("0000000000000000"), sigma_line, "sigma 0 is not a finite positive"),
            (sigma("bff0000000000000"), sigma_line, "sigma -1 is not a finite positive"),
            // A supervised tick records at most one outage flag: 61 after
            // 60 ticks is a history no run has.
            (
                edit_ran("\"outage\":\"", "\"outage\":\"0"),
                2,
                "guard: 61 outage flags for 60 supervised ticks",
            ),
            // A replan starts its plan at the step it runs in, and writes
            // a whole horizon.
            (beyond("plan_start"), 2, "tenant 0: plan_start 100048 is past the step cursor 60"),
            (no_plan, 2, "state: an empty plan starting at step 48"),
            // A captured event is a trace line's body: exactly its five
            // members, once each, `ts_us` 0 and a known level ...
            (edit_ran("[{\"ts_us\":0,", "[{\"ts_us\":7,"), 2, "event 0: ts_us is not 0"),
            (edit_ran("[{\"ts_us\":0,\"level\":\"", "[{\"ts_us\":0,\"level\":\"x"), 2, "event 0: unknown level \"x"),
            (edit_ran("[{\"ts_us\":0,", "[{"), 2, "event 0: missing member \"ts_us\""),
            (event("\"ts_us\":0,"), 2, "event 0: repeated member \"ts_us\""),
            (event("\"v\":1,"), 2, "event 0: member \"v\" is not one of a captured event's"),
            (event("\"seq\":0,"), 2, "event 0: member \"seq\" is not one"),
            (event("\"wall_us\":5,"), 2, "event 0: member \"wall_us\" is not one"),
            (event("\"later\":1,"), 2, "event 0: member \"later\" is not one"),
            (event("\"span\":7,"), 2, "event 0: span: expected string"),
            // ... whose fields are unique scalars, no timing among them,
            // and the tenant's own label.
            (edit_ran("\"fields\":{", "\"fields\":[],\"was\":{"), 2, "event 0: fields: expected object"),
            (field("\"deep\":[1],"), 2, "event 0: field \"deep\" is not a scalar"),
            (field("\"none\":null,"), 2, "event 0: field \"none\" is not a scalar"),
            (field("\"a\":1,\"a\":1,"), 2, "event 0: repeated field \"a\""),
            (field("\"fit_us\":5,"), 2, "event 0: field \"fit_us\" is a timing"),
            (edit_ran("\"tenant\":\"t0000\"", "\"tenant\":\"t0001\""), 2, "event 0: field tenant \"t0001\" on the line of tenant t0000"),
            (edit_ran("\"tenant\":\"t0000\"", "\"tenant\":7"), 2, "event 0: fields.tenant: expected string"),
            (edit_ran("\"tenant\":\"t0000\"", "\"tenant0\":\"t0000\""), 2, "event 0: no tenant field"),
        ] {
            let err = load(&hostile, &Telemetry::live(), Obs::noop()).err().unwrap();
            assert!(err.starts_with(&format!("line {line}: ")) && err.contains(why), "{err}");
        }
        // A fleet saved mid-run cannot be past the end of its own run.
        let past_the_end = edit("\"tick\":\"u:0\"", "\"tick\":\"u:289\"");
        let err = load(&past_the_end, &Telemetry::live(), Obs::noop()).err().unwrap();
        assert_eq!(err, "header: tick 289 is past total_ticks 288");

        // 100 KB of `[` is an `Err`, not a stack overflow: a typed
        // decoder refuses the first level it did not expect, and under a
        // key no decoder asks for the reader's nesting bound does.
        let bomb = "[".repeat(100_000);
        for (hostile, why) in [
            (edit("\"events\":[", &format!("\"events\":[{bomb}")), "events: expected object"),
            (edit_ran("\"events\":[", &format!("\"events\":[{{\"fields\":{bomb}")), "fields: expected object"),
            (edit("\"id\":", &format!("\"later\":{bomb},\"id\":")), "nesting deeper than"),
        ] {
            let err = load(&hostile, &Telemetry::noop(), Obs::noop()).err().unwrap();
            assert!(err.starts_with("line 2: ") && err.contains(why), "{err}");
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
            enc_f64_bits(&mut out, n);
            let want = format!("kept|\"u:{n}\"\"f:{n:016x}\"");
            prop_assert!(out == want, "{n:#x}: wrote {out:?}, want {want:?}");
            Ok(())
        };
        for n in [0, 1, 9, 10, u64::MAX, i64::MIN as u64, i64::MAX as u64, 0xf, 1 << 60] {
            agrees(n).unwrap();
        }
        forall("checkpoint_scalars_vs_fmt", 20_000, |g| agrees(g.u64() >> g.usize_in(0, 64)));
    }

    /// A checkpoint's events are trace lines: each element of an `events`
    /// array, behind the head `finish` would give it, is a line the
    /// schema validator (and so `obs query`) reads.
    #[test]
    fn every_saved_event_is_a_trace_line_behind_its_head() {
        let cfg = chaotic_cfg();
        let tel = Telemetry::live();
        let mut sup = FleetSupervisor::wrap_with(
            FleetEngine::with_telemetry(&cfg, &tel),
            SupervisorConfig::default(),
            &tel,
        );
        for _ in 0..97 {
            sup.tick();
        }
        let text = save(&sup, &cfg, &tel).unwrap();
        let mut events = 0;
        for (n, line) in text.lines().enumerate().filter(|(_, l)| l.contains("\"kind\":\"tenant\"")) {
            let label = TenantId(n as u32 - 1).to_string();
            let mut r = find(Reader::new(line), "events", "line").unwrap().expect("an events member");
            r.begin_array().unwrap();
            while r.next_element().unwrap() {
                let start = r.offset();
                r.skip_value().unwrap();
                let element = &line[start + 1..r.offset()];
                let trace_line = rpas_obs::validate_line(&format!("{{\"v\":1,\"seq\":0,{element}"))
                    .unwrap_or_else(|e| panic!("{e}: {element}"));
                assert_eq!(trace_line.str("tenant"), Some(label.as_str()));
                events += 1;
            }
        }
        assert!(events > 6 * 97, "{events} events");
    }
}
