//! The gateway's `STATS` answer is hand-built JSON (the workspace has no
//! serializer), so nothing structurally validates it at build time. This
//! test closes that gap with a minimal JSON parser — strict enough to
//! reject trailing commas, unquoted keys, torn braces — and then checks
//! the parsed document has the per-node fields operators and scripts
//! key off.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use ktiler_gateway::{Gateway, GatewayConfig};

/// A parsed JSON value. Numbers are kept as the raw token — the stats
/// document only needs structural validation, not arithmetic.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// Recursive-descent parser over the full input; anything left over
/// after the top-level value is an error.
fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while b.get(*pos).is_some_and(|c| c.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while b.get(*pos).is_some_and(|c| {
                c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
            }) {
                *pos += 1;
            }
            Ok(Json::Num(String::from_utf8_lossy(&b[start..*pos]).into_owned()))
        }
        _ => Err(format!("unexpected byte at {pos}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                let esc = b.get(*pos + 1).ok_or("dangling escape")?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'n' => '\n',
                    b't' => '\t',
                    other => return Err(format!("unsupported escape '\\{}'", *other as char)),
                });
                *pos += 2;
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through byte by byte; the
                // stats document is ASCII, so lossy is exact here.
                out.push(c as char);
                *pos += 1;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        map.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[test]
fn the_parser_rejects_malformed_documents() {
    for bad in
        ["{", "{\"a\": 1,}", "{a: 1}", "{\"a\": 1} x", "[1, 2,]", "{\"a\": }", "\"unterminated"]
    {
        assert!(parse(bad).is_err(), "parser accepted malformed input: {bad}");
    }
    assert!(parse("  {\"k\": [1, true, \"s\"]}").is_ok());
}

#[test]
fn gateway_stats_parse_as_json_with_the_per_node_fields() {
    let mut cfg = GatewayConfig::new(vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()]);
    // No probing: this test validates the document shape, not liveness.
    cfg.probe_interval = None;
    cfg.forwarders = 1;
    cfg.node_timeout = Duration::from_millis(100);
    let gw = Arc::new(Gateway::start(cfg).expect("start gateway"));
    let _ = gw.drain("127.0.0.1:2", true).expect("drain a known node");

    let doc = parse(&gw.stats_json()).expect("STATS must be valid JSON");

    for counter in ["requests", "forwarded", "failovers", "sheds", "errors", "probe_rounds"] {
        assert!(
            matches!(doc.get(counter), Some(Json::Num(_))),
            "top-level counter '{counter}' missing or not a number"
        );
    }
    assert!(doc.get("forward_latency_us").is_some(), "latency histogram missing");

    let Some(Json::Arr(nodes)) = doc.get("nodes") else {
        panic!("'nodes' missing or not an array");
    };
    assert_eq!(nodes.len(), 2);
    for node in nodes {
        assert!(matches!(node.get("addr"), Some(Json::Str(_))));
        assert!(matches!(node.get("forwarded"), Some(Json::Num(_))));
        assert!(matches!(node.get("failures"), Some(Json::Num(_))));
        assert!(matches!(node.get("draining"), Some(Json::Bool(_))));
        let Some(Json::Str(state)) = node.get("state") else {
            panic!("per-node 'state' missing or not a string");
        };
        assert!(
            ["up", "suspect", "down"].contains(&state.as_str()),
            "unexpected state token '{state}'"
        );
        let transitions = node.get("transitions").expect("per-node 'transitions' missing");
        for edge in ["to_suspect", "to_down", "to_up"] {
            assert!(
                matches!(transitions.get(edge), Some(Json::Num(_))),
                "transition counter '{edge}' missing"
            );
        }
    }
    // The drain issued above must be visible in the document.
    let drained = nodes
        .iter()
        .find(|n| n.get("addr") == Some(&Json::Str("127.0.0.1:2".into())))
        .expect("drained node present");
    assert_eq!(drained.get("draining"), Some(&Json::Bool(true)));
}
