//! Frozen decode corpus (`tests/decode_corpus.txt`): seeded mutations of
//! every request body in `tests/wire_corpus.txt`, each with the outcome of
//! decoding it — the decoded query's `request_body` bytes, or the error's
//! `Display` text. Control bytes in an input show as `\xNN`. The
//! mutations cover one byte deleted, inserted or replaced, a member
//! duplicated with another value (last wins), a value
//! swapped for a string, an array, `null`, `-0`, `1.5`, `1e999` or
//! 2^53 + 1, a member dropped, an unknown member, a `\u`-escaped key, and
//! nesting at and past the default depth limit of 64.
//!
//! Every case is decoded twice: through `QueryKind::decode_body`, the
//! text entry the server uses, and through `decode_request(&parse(..))`
//! wherever the body parses. Both must give the frozen line. On a mismatch
//! the produced corpus lands in `CARGO_TARGET_TMPDIR/decode_corpus.txt`,
//! so it can be diffed against the frozen one.

use std::path::PathBuf;

use gf_json::{FromJson, JsonError, ParseLimits, Value};
use gf_support::SplitMix64;
use greenfpga::api::{Query, QueryKind};

const WIRE: &str = include_str!("../wire_corpus.txt");
const FROZEN: &str = include_str!("../decode_corpus.txt");

/// Stands in for a raw lexeme or key in a written tree until the text is
/// spliced; the writer prints it as `"@@RAW@@"`.
const RAW: &str = "@@RAW@@";

/// The value swaps, as raw lexemes: some are not representable as a
/// [`Value`] (`1e999`, 2^53 + 1).
const SWAPS: [&str; 8] = [
    "\"x\"",
    "[]",
    "[1,\"a\"]",
    "null",
    "-0",
    "1.5",
    "1e999",
    "9007199254740993",
];

/// Paths (child indices from the root) of every node of `value`.
fn paths(value: &Value, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    let children: Vec<&Value> = match value {
        Value::Array(items) => items.iter().collect(),
        Value::Object(members) => members.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        paths(child, at, out);
        at.pop();
    }
}

fn node_at<'v>(value: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(value, |node, &i| match node {
        Value::Array(items) => &mut items[i],
        Value::Object(members) => &mut members[i].1,
        _ => unreachable!("paths only descend into containers"),
    })
}

fn text(value: &Value) -> String {
    value.to_json_string().expect("finite tree")
}

/// A random node path other than the root, or `None` for a bare `{}`.
fn pick_child(rng: &mut SplitMix64, body: &Value) -> Option<Vec<usize>> {
    let mut all = Vec::new();
    paths(body, &mut Vec::new(), &mut all);
    all.retain(|path| !path.is_empty());
    (!all.is_empty()).then(|| all[rng.gen_index(all.len())].clone())
}

/// A random object node path (the root is always one).
fn pick_object(rng: &mut SplitMix64, body: &Value) -> Vec<usize> {
    let mut all = Vec::new();
    paths(body, &mut Vec::new(), &mut all);
    let mut body = body.clone();
    all.retain(|path| matches!(node_at(&mut body, path), Value::Object(_)));
    all[rng.gen_index(all.len())].clone()
}

/// `body` with the node at `path` replaced by the raw lexeme `raw`.
fn swapped(body: &Value, path: &[usize], raw: &str) -> String {
    let mut tree = body.clone();
    *node_at(&mut tree, path) = Value::String(RAW.into());
    text(&tree).replacen(&format!("\"{RAW}\""), raw, 1)
}

/// `key` with its characters `\u`-escaped at random (at least one).
fn escape_key(rng: &mut SplitMix64, key: &str) -> String {
    let forced = rng.gen_index(key.chars().count().max(1));
    let mut out = String::from("\"");
    for (i, ch) in key.chars().enumerate() {
        if i == forced || rng.gen_bool() {
            out.push_str(&format!("\\u{:04x}", ch as u32));
        } else {
            out.push(ch);
        }
    }
    out.push('"');
    out
}

/// The seeded mutations of one request body, as `(operation, text)`.
fn mutations(rng: &mut SplitMix64, body: &Value) -> Vec<(String, String)> {
    let source = text(body);
    let mut cases = vec![("identity".to_string(), source.clone())];
    for _ in 0..6 {
        let mut bytes = source.clone().into_bytes();
        let at = rng.gen_index(bytes.len() + 1);
        let byte = rng.gen_index(0x80) as u8;
        let op = match rng.gen_index(3) {
            0 if at < bytes.len() => {
                bytes.remove(at);
                format!("delete@{at}")
            }
            1 if at < bytes.len() => {
                bytes[at] = byte;
                format!("replace@{at}")
            }
            _ => {
                bytes.insert(at, byte);
                format!("insert@{at}")
            }
        };
        cases.push((op, String::from_utf8(bytes).expect("ASCII edits")));
    }
    // Duplicates: one with a perturbed copy of the value (doubled number,
    // flipped bool), one with a swap lexeme.
    for raw in [None, Some(SWAPS[rng.gen_index(SWAPS.len())])] {
        let path = pick_object(rng, body);
        let mut tree = body.clone();
        if let Value::Object(members) = node_at(&mut tree, &path) {
            if !members.is_empty() {
                let (key, value) = members[rng.gen_index(members.len())].clone();
                let value = match (raw, value) {
                    (Some(_), _) => Value::String(RAW.into()),
                    (None, Value::Number(n)) => Value::Number(n * 2.0),
                    (None, Value::Bool(b)) => Value::Bool(!b),
                    (None, other) => other,
                };
                members.push((key, value));
                let mutated = text(&tree).replacen(&format!("\"{RAW}\""), raw.unwrap_or(""), 1);
                cases.push(("duplicate".into(), mutated));
            }
        }
    }
    for raw in SWAPS {
        if let Some(path) = pick_child(rng, body) {
            cases.push((format!("swap:{raw}"), swapped(body, &path, raw)));
        }
    }
    for _ in 0..2 {
        let path = pick_object(rng, body);
        let mut tree = body.clone();
        if let Value::Object(members) = node_at(&mut tree, &path) {
            if !members.is_empty() {
                members.remove(rng.gen_index(members.len()));
                cases.push(("drop".into(), text(&tree)));
            }
        }
    }
    let path = pick_object(rng, body);
    let mut tree = body.clone();
    if let Value::Object(members) = node_at(&mut tree, &path) {
        let at = rng.gen_index(members.len() + 1);
        members.insert(at, ("zz_unknown".into(), Value::String("?".into())));
        cases.push(("unknown".into(), text(&tree)));
    }
    for _ in 0..2 {
        let path = pick_object(rng, body);
        let mut tree = body.clone();
        if let Value::Object(members) = node_at(&mut tree, &path) {
            if !members.is_empty() {
                let member = rng.gen_index(members.len());
                let key = std::mem::replace(&mut members[member].0, RAW.into());
                let escaped = escape_key(rng, &key);
                let mutated = text(&tree).replacen(&format!("\"{RAW}\""), &escaped, 1);
                cases.push(("escaped_key".into(), mutated));
            }
        }
    }
    // Nesting that ends exactly at the default depth limit, then one past
    // it: the node at `path` sits at depth `path.len()`.
    if let Some(path) = pick_child(rng, body) {
        for depth in [64, 65] {
            let wraps = depth - path.len();
            let raw = format!("{}0{}", "[".repeat(wraps), "]".repeat(wraps));
            cases.push((format!("nest{depth}"), swapped(body, &path, &raw)));
        }
    }
    cases
}

/// One decode outcome as a corpus line's tail.
fn outcome(result: Result<Query, JsonError>) -> String {
    match result {
        Ok(query) => format!("ok {}", text(&query.request_body())),
        Err(error) => format!("err {error}"),
    }
}

/// `s` with control bytes shown as `\xNN`, so a case stays on one line.
fn visible(s: &str) -> String {
    s.chars()
        .map(|ch| match ch {
            '\0'..='\x1f' | '\x7f' => format!("\\x{:02x}", ch as u32),
            _ => ch.to_string(),
        })
        .collect()
}

#[test]
fn mutated_request_bodies_decode_as_the_frozen_corpus() {
    let mut rng = SplitMix64::new(0xDEC0_DE00_C0DE_0001);
    let mut produced = Vec::new();
    for line in WIRE.lines() {
        let Some((name, envelope)) = line.split_once(".query ") else {
            continue;
        };
        let query = Query::from_json(&gf_json::parse(envelope).unwrap()).unwrap();
        let kind = query.kind();
        let body = query.request_body();
        for (i, (op, input)) in mutations(&mut rng, &body).into_iter().enumerate() {
            let served = outcome(kind.decode_body(&input, ParseLimits::default()));
            if let Ok(tree) = gf_json::parse(&input) {
                let cold = outcome(kind.decode_request(&tree));
                assert_eq!(cold, served, "{name}.{i} {op}: tree and text decode alike");
            }
            produced.push(format!(
                "{name}.{i:02} {kind} {op} {} => {served}",
                visible(&input)
            ));
        }
    }
    let frozen: Vec<&str> = FROZEN.lines().collect();
    if produced != frozen {
        let actual = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("decode_corpus.txt");
        std::fs::write(&actual, produced.join("\n") + "\n").unwrap();
        let at = produced
            .iter()
            .zip(&frozen)
            .position(|(a, b)| a != b)
            .unwrap_or(produced.len().min(frozen.len()));
        panic!(
            "decode corpus differs at line {} (produced {} lines, frozen {}); \
             the produced corpus is at {}\n produced: {:?}\n   frozen: {:?}",
            at + 1,
            produced.len(),
            frozen.len(),
            actual.display(),
            produced.get(at),
            frozen.get(at),
        );
    }
}

/// The served text entry at the size and depth extremes: a 4 MiB array
/// is read whole and rejected as a non-object, and nesting fails one
/// level past the depth limit, not before.
#[test]
fn bodies_at_the_size_and_depth_extremes_decode_as_pinned() {
    let decode = |body: &str| {
        let error = QueryKind::Batch
            .decode_body(body, ParseLimits::default())
            .unwrap_err();
        error.to_string()
    };
    let zeros = format!("[{}]", vec!["0"; 2 << 20].join(","));
    assert_eq!(decode(&zeros), "JSON schema error: expected an object");
    let points = |depth: usize| {
        let (open, close) = ("[".repeat(depth), "]".repeat(depth));
        format!("{{\"domain\":\"dnn\",\"points\":{open}0{close}}}")
    };
    assert_eq!(
        decode(&points(63)),
        "JSON schema error at points[0]: expected an object"
    );
    assert_eq!(
        decode(&points(64)),
        "JSON nesting exceeds the depth limit of 64"
    );
}
