//! What the checkpoint *reader* promises about text no `save` writes:
//! member order is free, unknown members are ignored, a repeated record
//! member keeps its last value and a repeated tag is refused.
//!
//! The schema-v3 fixture is the subject throughout: every variation of
//! it must load to the fleet that saves back as the fixture's own bytes.

use rpas_core::checkpoint::{load, save};
use rpas_obs::json::{escape_str, parse};
use rpas_obs::{Json, Obs};
use rpas_telemetry::Telemetry;

const GOLDEN: &str = include_str!("../../../tests/fixtures/checkpoint_v3.jsonl");

/// Members a reader finds by look-ahead.
const TAGS: [&str; 3] = ["kind", "schema", "version"];

/// How [`relaid`] lays out every object of a line.
struct Layout {
    /// Keys descending with the tags last; ascending (tags wherever they
    /// sort) otherwise. Neither is the order `save` writes.
    tags_last: bool,
    /// An unknown member put first in every object.
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

/// The fixture with every object of both lines laid out by `layout`.
fn relaid(layout: &Layout) -> String {
    let mut out = String::new();
    for line in GOLDEN.lines() {
        render(&parse(line).expect("fixture line"), layout, &mut out);
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
            assert!(text.starts_with("{\"total_ticks\":"), "{}", &text[..40]);
            assert!(text.contains(",\"kind\":\"header\"}\n"));
            assert!(text.contains(",\"kind\":\"digest\"}\n"));
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
                "", "\"config\":", "\"schedule\":", "\"resilience\":", "\"faults\":", "\"slo\":",
                "\"burn\":[", "\"supervisor\":", "\n",
            ] {
                let injected = text.contains(&format!("{level}{first}"));
                assert!(injected, "no unknown member under {level:?}");
            }
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
        ("\"tick\":\"u:57\"", "\"tick\":\"u:1\",\"tick\":\"u:57\""),
        ("\"seed\":\"u:42\"", "\"seed\":\"u:7\",\"seed\":\"u:42\""),
        ("\"fnv1a\":\"", "\"fnv1a\":\"0000000000000000\",\"fnv1a\":\""),
    ] {
        assert!(resaved(&edited(from, to)).expect("last one wins") == GOLDEN, "{to}");
    }
    let err = resaved(&edited("\"tick\":\"u:57\"", "\"tick\":\"u:57\",\"tick\":\"u:56\"")).unwrap_err();
    assert!(err.starts_with("digest mismatch: "), "{err}");
    // Every occurrence is decoded on the way, so an earlier one of the
    // wrong type is refused where a tree would never have looked at it.
    let err = resaved(&edited("\"tick\":\"u:57\"", "\"tick\":true,\"tick\":\"u:57\"")).unwrap_err();
    assert!(err.contains("tick: expected"), "{err}");

    // Tags are read by look-ahead, which stops at the first occurrence;
    // a second one is an error, not a silent first-wins.
    for (from, twice) in [
        ("\"version\":3", "\"version\":3,\"version\":3"),
        ("\"kind\":\"header\"", "\"kind\":\"header\",\"kind\":\"header\""),
        ("\"schema\":\"", "\"schema\":\"rpas-fleet-checkpoint\",\"schema\":\""),
        ("\"kind\":\"digest\"", "\"kind\":\"digest\",\"kind\":\"digest\""),
    ] {
        let err = resaved(&edited(from, twice)).unwrap_err();
        assert!(err.contains("duplicate member"), "{twice}: {err}");
        assert_eq!(err.starts_with("line 2: "), from.contains("digest"), "{twice}: {err}");
    }
}
