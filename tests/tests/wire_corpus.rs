//! Frozen wire corpus (`tests/wire_corpus.txt`, one `<name> <json>` case
//! per line): the exact `Query` and `Outcome` envelope bytes of every query
//! kind and its omit-when-default variants, plus the HTTP error body and
//! the `/v1/metrics` and `/v1/trace` shapes with volatile values masked.
//! Unlike the in-process goldens, a codec change that reorders keys or
//! drops a member on both sides fails here. Each `<name>.query` must
//! decode and re-encode to identical bytes, and running it must produce
//! the `<name>.outcome` line that follows (the error body on rejection).

use std::collections::HashSet;
use std::time::Duration;

use gf_json::{FromJson, ToJson, Value};
use gf_server::client::Client;
use gf_server::{Server, ServerConfig};
use greenfpga::api::{Query, QueryKind};
use greenfpga::Engine;

const CORPUS: &str = include_str!("../wire_corpus.txt");

fn text(value: Value) -> String {
    value.to_json_string().unwrap()
}

#[test]
fn query_and_outcome_envelopes_match_the_frozen_corpus() {
    let engine = Engine::with_defaults().unwrap();
    let mut kinds = HashSet::new();
    let mut lines = CORPUS.lines().filter(|line| !line.starts_with("http."));
    while let Some(line) = lines.next() {
        let (name, query_text) = line.split_once(".query ").expect("a query line");
        let query = Query::from_json(&gf_json::parse(query_text).unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(text(query.to_json()), query_text, "{name}: query bytes");
        kinds.insert(query.kind());
        let outcome = match engine.run(&query) {
            Ok(outcome) => outcome.to_json(),
            Err(error) => error.to_json(),
        };
        let expected = lines
            .next()
            .and_then(|line| line.strip_prefix(name)?.strip_prefix(".outcome "))
            .unwrap_or_else(|| panic!("{name}: no outcome line follows"));
        assert_eq!(text(outcome), expected, "{name}: outcome bytes");
    }
    assert_eq!(kinds.len(), QueryKind::ALL.len(), "every kind is pinned");
}

/// Replaces every number with `0`, and every string too when
/// `strings` is set.
fn mask(value: &mut Value, strings: bool) {
    match value {
        Value::Number(n) => *n = 0.0,
        Value::String(s) if strings => s.clear(),
        Value::Array(items) => items.iter_mut().for_each(|v| mask(v, strings)),
        Value::Object(members) => members.iter_mut().for_each(|(_, v)| mask(v, strings)),
        _ => {}
    }
}

/// The member `key` of an object value.
fn member<'v>(value: &'v mut Value, key: &str) -> Option<&'v mut Value> {
    match value {
        Value::Object(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn http_bodies_match_the_frozen_corpus() {
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        idle_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .unwrap()
    .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut produced = Vec::new();

    let (status, body) = client
        .post(
            "/v1/sweep",
            r#"{"domain":"dnn","axis":"apps","from":1,"to":4,"steps":1}"#,
        )
        .unwrap();
    let mut error = gf_json::parse(&body).unwrap();
    if let Some(id) = member(&mut error, "request_id") {
        *id = Value::String(String::new());
    }
    produced.push(format!("http.error {status} {}", text(error)));

    let (_, body) = client.get("/v1/metrics").unwrap();
    let mut metrics = gf_json::parse(&body).unwrap();
    mask(&mut metrics, false);
    produced.push(format!("http.metrics {}", text(metrics)));

    let (_, body) = client.get("/v1/trace").unwrap();
    let mut trace = gf_json::parse(&body).unwrap();
    if let Some(Value::Array(spans)) = member(&mut trace, "spans") {
        spans.truncate(1);
    }
    mask(&mut trace, true);
    produced.push(format!("http.trace {}", text(trace)));
    handle.shutdown();

    let frozen: Vec<&str> = CORPUS
        .lines()
        .filter(|line| line.starts_with("http."))
        .collect();
    assert_eq!(produced, frozen);
}
