//! What the checkpoint *reader* promises about text no `save` writes:
//! member order is free, unknown members are ignored, a repeated record
//! member keeps its last value, a repeated tag is refused, a captured
//! event's body is kept byte for byte, and a set of out-of-range edits
//! that have always loaded still load and run.
//!
//! The schema-v2 fixture is the subject throughout: every variation of
//! it must load to the state that saves back as the fixture's own bytes.

use rpas_core::checkpoint::{load, save};
use rpas_core::{FleetConfig, FleetEngine, FleetSupervisor, ReplanSchedule, SupervisorConfig};
use rpas_obs::json::{escape_str, parse};
use rpas_obs::{Json, Obs};
use rpas_simdb::FaultConfig;
use rpas_telemetry::{SloSpec, Telemetry};

const GOLDEN: &str = include_str!("../../../tests/fixtures/checkpoint_v2.jsonl");

/// Members a reader finds by look-ahead: a union's tag, or the member
/// whose presence is the tag.
const TAGS: [&str; 5] = ["kind", "state", "counter", "gauge_bits", "hist"];

/// How [`render`] lays out every object of a line.
struct Layout {
    /// Keys descending with the tags last; ascending (tags wherever they
    /// sort) otherwise. Neither is the order `save` writes.
    tags_last: bool,
    /// An unknown member put first in every state object (a captured
    /// event is not one: its body is kept as written, see [`relaid`]).
    unknown: Option<&'static str>,
}

fn render(j: &Json, layout: &Layout, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(&b.to_string()),
        Json::Num(n) => out.push_str(&n.to_string()),
        Json::Str(s) => out.push_str(&format!("\"{}\"", escape_str(s))),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                render(item, layout, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            let mut keys: Vec<&String> = map.keys().collect();
            if layout.tags_last {
                keys.reverse();
                keys.sort_by_key(|k| TAGS.contains(&k.as_str()));
            }
            out.push('{');
            if let Some(payload) = layout.unknown {
                let comma = if keys.is_empty() { "" } else { "," };
                out.push_str(&format!("\"later\":{payload}{comma}"));
            }
            for (i, key) in keys.into_iter().enumerate() {
                out.push_str(&format!("{}\"{}\":", if i > 0 { "," } else { "" }, escape_str(key)));
                render(&map[key], layout, out);
            }
            out.push('}');
        }
    }
}

/// The fixture with every state object laid out by `layout`. A tenant
/// line's `events` member (its last, as `save` writes it) is moved to the
/// front of the line as written: its bodies are trace-line text, which a
/// tree would re-render.
fn relaid(layout: &Layout) -> String {
    let mut out = String::new();
    for line in GOLDEN.lines() {
        let (state, events) = match line.split_once(",\"events\":") {
            Some((state, events)) => (format!("{state}}}"), Some(&events[..events.len() - 1])),
            None => (line.to_string(), None),
        };
        let mut rendered = String::new();
        render(&parse(&state).expect("fixture line"), layout, &mut rendered);
        match events {
            Some(events) => out.push_str(&format!("{{\"events\":{events},{}", &rendered[1..])),
            None => out.push_str(&rendered),
        }
        out.push('\n');
    }
    out
}

/// Load `text` and save what came back.
fn resaved(text: &str) -> Result<String, String> {
    let tel = Telemetry::live();
    let (sup, cfg) = load(text, &tel, Obs::noop())?;
    save(&sup, &cfg, &tel)
}

#[test]
fn member_order_is_free() {
    for tags_last in [true, false] {
        let text = relaid(&Layout { tags_last, unknown: None });
        assert_ne!(text, GOLDEN);
        assert_eq!(text.len(), GOLDEN.len(), "same members, another order");
        if tags_last {
            assert!(text.starts_with("{\"version\":2,"), "{}", &text[..40]);
            assert!(text.contains(",\"kind\":\"tenant\"}\n"));
            assert!(text.contains(",\"state\":\"quarantined\"}"));
            assert!(text.contains("{\"tier\":\"seasonal-naive\",\"retry\":"));
        }
        assert!(resaved(&text).expect("order-free") == GOLDEN, "tags_last = {tags_last}");
    }
}

#[test]
fn unknown_members_are_ignored_at_every_level() {
    let payloads = ["\"u:7\"", "[1,[\"two\",null],{}]", "{\"deep\":{\"er\":[true]},\"kind\":\"x\"}"];
    for unknown in payloads {
        for tags_last in [true, false] {
            let text = relaid(&Layout { tags_last, unknown: Some(unknown) });
            let first = format!("{{\"later\":{unknown},");
            for level in [
                "", "\"config\":", "\"schedule\":", "\"resilience\":", "\"faults\":", "\"slo\":", "\"burn\":[",
                "\"supervisor\":", "\"policy\":", "\"state\":", "\"ladder\":", "\"primary\":", "\"naive\":",
                "\"session\":", "\"counts\":", "\"cluster\":", "\"storage\":", "\"guard\":",
                "\"health\":", "\"cells\":[", "\"hist\":",
            ] {
                let injected = text.contains(&format!("{level}{first}"));
                assert!(injected, "no unknown member under {level:?}");
            }
            assert!(!text.contains("\"events\":[{\"later\""), "an event's members are closed");
            assert!(resaved(&text).expect("unknown members") == GOLDEN, "{unknown} / {tags_last}");
        }
    }
}

/// `GOLDEN` with the first `from` replaced by `to`.
fn edited(from: &str, to: &str) -> String {
    assert!(GOLDEN.contains(from), "{from} not in the fixture");
    GOLDEN.replacen(from, to, 1)
}

#[test]
fn a_repeated_record_member_keeps_its_last_value_and_a_repeated_tag_is_refused() {
    // Records: one slot per row, overwritten in file order.
    for (from, to) in [
        ("\"id\":\"u:0\"", "\"id\":\"u:3\",\"id\":\"u:0\""),
        ("\"plan_start\":\"u:49\"", "\"plan_start\":\"u:0\",\"plan_start\":\"u:49\""),
        ("\"tick\":\"u:57\"", "\"tick\":\"u:1\",\"tick\":\"u:57\""),
    ] {
        assert!(resaved(&edited(from, to)).expect("last one wins") == GOLDEN, "{to}");
    }
    let err = resaved(&edited("\"id\":\"u:0\"", "\"id\":\"u:0\",\"id\":\"u:3\"")).unwrap_err();
    assert!(err.contains("out of order: expected 0, got 3"), "{err}");
    // Every occurrence is decoded on the way, so an earlier one of the
    // wrong type is refused where a tree would never have looked at it.
    let err = resaved(&edited("\"tick\":\"u:57\"", "\"tick\":true,\"tick\":\"u:57\"")).unwrap_err();
    assert!(err.contains("tick: expected"), "{err}");

    // Tags are read by look-ahead, which stops at the first occurrence;
    // a second one is an error, not a silent first-wins.
    for (from, twice) in [
        ("\"version\":2", "\"version\":2,\"version\":2"),
        ("\"kind\":\"tenant\"", "\"kind\":\"tenant\",\"kind\":\"tenant\""),
        ("\"kind\":\"predictive\"", "\"kind\":\"predictive\",\"kind\":\"reactive-max\""),
        ("\"kind\":\"resilient\"", "\"kind\":\"resilient\",\"kind\":\"resilient\""),
        ("\"state\":\"healthy\"", "\"state\":\"healthy\",\"state\":\"healthy\""),
        ("\"counter\":", "\"counter\":\"u:1\",\"counter\":"),
        ("\"kind\":\"end\"", "\"kind\":\"end\",\"kind\":\"end\""),
    ] {
        let err = resaved(&edited(from, twice)).unwrap_err();
        assert!(err.contains("duplicate member"), "{twice}: {err}");
        assert_eq!(err.starts_with("line "), !from.contains("version"), "{twice}: {err}");
    }
}

/// A captured event's body is trace-line text: whatever its member and
/// field order or spacing, `load` keeps its bytes and `save` writes them
/// back, and its `span/event` need not be one this build's catalogue
/// declares.
#[test]
fn an_events_body_is_kept_byte_for_byte_and_a_foreign_name_survives() {
    let body = "{\"ts_us\":0,\"level\":\"info\",\"span\":\"fault\",\"event\":\"anomaly\",\
                \"fields\":{\"burst\":\"spike\",\"mult\":3.5756384913665853,\"step\":0,\"tenant\":\"t0000\"}}";
    for relaid in [
        "{\"fields\":{\"step\":0,\"tenant\":\"t0000\",\"burst\":\"spike\",\"mult\":3.5756384913665853},\
         \"event\":\"anomaly\",\"span\":\"fault\",\"level\":\"info\",\"ts_us\":0}",
        "{ \"ts_us\" : 0 , \"level\":\"info\",\"span\":\"fault\",\"event\":\"anomaly\",\
         \"fields\":{\"burst\":\"sp\\u0069ke\",\"mult\":3.57563849136658530e0,\"step\":-0,\"tenant\":\"t0000\"} }",
    ] {
        let edited = edited(body, relaid);
        assert!(resaved(&edited).expect("a body in any order") == edited, "{relaid}");
    }
    let foreign = edited(
        "\"span\":\"fault\",\"event\":\"anomaly\"",
        "\"span\":\"fault.v2\",\"event\":\"from \\\"another\\\" build\"",
    );
    assert!(resaved(&foreign).expect("an uncatalogued name") == foreign);
}

/// `text` with the string value of the first `"key":"…"` set to `value`.
fn set(text: &str, key: &str, value: &str) -> String {
    let lead = format!("\"{key}\":\"");
    let start = text.find(&lead).unwrap_or_else(|| panic!("no {key} member")) + lead.len();
    let end = start + text[start..].find('"').expect("closing quote");
    format!("{}{value}{}", &text[..start], &text[end..])
}

#[test]
fn out_of_range_edits_that_always_loaded_still_load_and_run_to_finish() {
    let mut cfg = FleetConfig::new(3, 42);
    cfg.days = 1;
    cfg.schedule = ReplanSchedule { context: 48, horizon: 24 };
    cfg.capture_events = true;
    cfg.faults = Some(FaultConfig::heavy());
    cfg.slo = Some(SloSpec::violation_rate_default());
    let tel = Telemetry::live();
    let mut sup = FleetSupervisor::wrap_with(
        FleetEngine::with_telemetry(&cfg, &tel),
        SupervisorConfig::default(),
        &tel,
    );
    for _ in 0..60 {
        sup.tick();
    }
    let text = save(&sup, &cfg, &tel).unwrap();
    let (header, tenants) = text.split_once('\n').unwrap();
    let in_tenant_0 = |key: &str, value: &str| format!("{header}\n{}", set(tenants, key, value));
    let plan = tenants.find("\"plan\":[").unwrap() + "\"plan\":[".len();
    let plan_end = plan + tenants[plan..].find(']').unwrap();
    // The first histogram's total at `u64::MAX`: its first bucket takes
    // what the others leave.
    let counts = text.find("\"counts\":[\"").unwrap() + "\"counts\":[".len();
    let counts_end = counts + text[counts..].find(']').unwrap();
    let (_, rest) = text[counts..counts_end].split_once(',').unwrap();
    let others: u64 =
        rest.split(',').map(|c| c.trim_matches('"')[2..].parse::<u64>().unwrap()).sum();
    let hist_at_max =
        format!("{}\"u:{}\",{rest}{}", &text[..counts], u64::MAX - others, &text[counts_end..]);

    // An empty plan is the state before the first replan, whose cursor
    // is 0; `checkpoint::tests::corrupted_checkpoints_are_rejected` holds
    // a plan cursor past the step cursor, and an empty plan with one.
    let unplanned = set(&format!("{}{}", &tenants[..plan], &tenants[plan_end..]), "plan_start", "u:0");
    let edits = [
        ("empty plan at step 0", format!("{header}\n{unplanned}")),
        ("next_id 0", in_tenant_0("next_id", "u:0")),
        ("duplicate id", text.replacen("\"id\":\"u:0\"", "\"id\":\"u:0\",\"id\":\"u:0\"", 1)),
        // Counters that can move by more than one a step wrap, in a debug
        // build as in a release one.
        ("next_id at u32::MAX", in_tenant_0("next_id", &format!("u:{}", u32::MAX))),
        (
            "checkpoint_reads at u64::MAX",
            in_tenant_0("checkpoint_reads", &format!("u:{}", u64::MAX)),
        ),
        ("a histogram's count at u64::MAX", hist_at_max),
    ];
    for (what, edit) in edits {
        assert_ne!(edit, text, "{what} changed nothing");
        let (mut resumed, _) = load(&edit, &Telemetry::live(), Obs::noop())
            .unwrap_or_else(|e| panic!("{what} no longer loads: {e}"));
        resumed.run_to_completion();
        let report = resumed.finish();
        assert_eq!(report.tenants.len(), 3, "{what}");
        assert!(report.quarantined.is_empty(), "{what}: {:?}", report.quarantined);
    }
}
