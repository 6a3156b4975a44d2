//! Observability integration tests: the `/v1/trace` exposition, the
//! `GET /metrics` Prometheus text format, the `--trace-log` NDJSON
//! stream, and the request-id contract on error responses.
//!
//! The trace rings and the enable switch are process-global, and every
//! test in this binary runs in the same process against its own ephemeral
//! server — so assertions here are existential ("the evaluate request's
//! lifecycle spans exist, correctly shaped") rather than exact-count:
//! concurrent tests legitimately interleave their spans. Tests that count
//! spans count only those under their own requests' `x-request-id`s.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use gf_json::{Document, FromJson, Node, ParseLimits, Value};
use gf_server::client::Client;
use gf_server::{Server, ServerConfig, ServerHandle};
use greenfpga::api::MetricsResponse;

fn spawn_with(config: ServerConfig) -> ServerHandle {
    Server::bind(config).expect("bind ephemeral server").spawn()
}

fn spawn_server() -> ServerHandle {
    spawn_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        idle_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr()).expect("connect to server")
}

const EVALUATE_BODY: &str =
    r#"{"domain":"dnn","point":{"applications":5,"lifetime_years":2.0,"volume":1000000}}"#;

/// Every span-name spelling the exposition may emit. Pinned here so a
/// renamed span class is a visible wire-format change, not drift.
const SPAN_NAMES: [&str; 20] = [
    "parse",
    "admission",
    "queue_wait",
    "decode",
    "compile",
    "execute",
    "serialize",
    "write",
    "cache_hit",
    "cache_miss",
    "job_queue_wait",
    "job_run",
    "eval_batch",
    "cli_compile",
    "cli_eval",
    "catalog_resolve",
    "replay",
    "optimize",
    "optimize_refine",
    "montecarlo",
];

/// A `GET /v1/trace` body as the tests read it from the token tape.
struct Trace {
    enabled: bool,
    spans: Vec<Span>,
}

/// One span of a [`Trace`].
#[derive(Debug)]
struct Span {
    name: String,
    span_id: String,
    request_id: String,
    start_ns: u64,
    duration_ns: u64,
    aux: u64,
}

fn read_trace(body: &str) -> Trace {
    let doc = Document::parse(body, ParseLimits::default()).expect("trace body is JSON");
    let text = |node: Node<'_>, key: &str| {
        node.get(key)
            .and_then(Node::as_str)
            .expect(key)
            .into_owned()
    };
    let number = |node: Node<'_>, key: &str| node.get(key).and_then(Node::as_u64).expect(key);
    let spans = doc
        .root()
        .get("spans")
        .and_then(Node::items)
        .expect("spans");
    Trace {
        enabled: doc
            .root()
            .get("enabled")
            .and_then(Node::as_bool)
            .expect("enabled"),
        spans: spans
            .map(|span| Span {
                name: text(span, "name"),
                span_id: text(span, "span_id"),
                request_id: text(span, "request_id"),
                start_ns: number(span, "start_ns"),
                duration_ns: number(span, "duration_ns"),
                aux: number(span, "aux"),
            })
            .collect(),
    }
}

fn is_hex_id(id: &str) -> bool {
    id.len() == 16
        && id
            .chars()
            .all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
}

#[test]
fn trace_route_has_the_golden_shape() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    for _ in 0..2 {
        let (status, _) = client
            .post("/v1/evaluate", EVALUATE_BODY)
            .expect("evaluate round-trip");
        assert_eq!(status, 200);
    }
    let (status, body) = client.get("/v1/trace").expect("trace");
    assert_eq!(status, 200, "{body}");
    let trace = read_trace(&body);
    assert!(trace.enabled, "tracing is on by default");
    assert!(!trace.spans.is_empty(), "recent traffic left spans");
    for span in &trace.spans {
        assert!(
            SPAN_NAMES.contains(&span.name.as_str()),
            "unknown span name '{}'",
            span.name
        );
        assert!(is_hex_id(&span.span_id), "span id '{}'", span.span_id);
        assert!(
            is_hex_id(&span.request_id),
            "request id '{}'",
            span.request_id
        );
    }
    // The evaluate requests left full lifecycles: some request id owns a
    // parse, an execute and a serialize span (write flushes after the
    // response, so it may still be in flight for the newest request).
    let mut by_request: HashMap<&str, Vec<&str>> = HashMap::new();
    for span in &trace.spans {
        if span.request_id != "0000000000000000" {
            by_request
                .entry(span.request_id.as_str())
                .or_default()
                .push(span.name.as_str());
        }
    }
    assert!(
        by_request.values().any(|names| {
            ["parse", "execute", "serialize"]
                .iter()
                .all(|phase| names.contains(phase))
        }),
        "no request shows the full parse/execute/serialize lifecycle: {by_request:?}"
    );
    handle.shutdown();
}

#[test]
fn a_post_records_decode_before_execute() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let (status, _) = client.post("/v1/evaluate", EVALUATE_BODY).unwrap();
    assert_eq!(status, 200);
    let (_, body) = client.get("/v1/trace").unwrap();
    let trace = read_trace(&body);
    // Other tests share the span rings, so check every request that
    // shows both spans, and that this POST is among them.
    let mut paired = 0;
    for decode in trace.spans.iter().filter(|span| span.name == "decode") {
        let Some(execute) = trace
            .spans
            .iter()
            .find(|span| span.name == "execute" && span.request_id == decode.request_id)
        else {
            continue;
        };
        // The two spans share one boundary stamp; each converts to
        // nanoseconds on its own, so allow a nanosecond of rounding.
        assert!(
            decode.start_ns <= execute.start_ns
                && decode.start_ns + decode.duration_ns <= execute.start_ns + 1,
            "decode {decode:?} ends before execute {execute:?} starts"
        );
        paired += usize::from(decode.aux == EVALUATE_BODY.len() as u64);
    }
    assert!(
        paired >= 1,
        "the POST left a decode span (aux = body bytes)"
    );
    handle.shutdown();
}

/// One parsed sample line of the exposition: name, raw label block
/// (braces stripped, may be empty) and value.
struct Sample {
    name: String,
    labels: String,
    value: f64,
}

/// Parses the text exposition, validating the grammar this parser relies
/// on: every sample belongs to a family announced by exactly one `# TYPE`
/// line *before* its first sample, every family is `gf_`-prefixed, every
/// counter family ends in `_total`, every value parses as a finite float.
/// Returns the samples plus the family -> kind map.
fn parse_exposition(text: &str) -> (Vec<Sample>, HashMap<String, String>) {
    let mut kinds: HashMap<String, String> = HashMap::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().expect("family name").to_string();
            let kind = parts.next().expect("family kind").to_string();
            assert!(parts.next().is_none(), "trailing tokens: {line}");
            assert!(family.starts_with("gf_"), "unprefixed family {family}");
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown kind in {line}"
            );
            if kind == "counter" {
                assert!(family.ends_with("_total"), "counter {family} not *_total");
            }
            assert!(
                kinds.insert(family.clone(), kind).is_none(),
                "family {family} announced twice"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "only # TYPE comments are emitted");
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().expect("sample value parses");
        assert!(value.is_finite(), "non-finite sample in {line}");
        let (name, labels) = match series.split_once('{') {
            Some((name, labels)) => (
                name.to_string(),
                labels
                    .strip_suffix('}')
                    .expect("balanced braces")
                    .to_string(),
            ),
            None => (series.to_string(), String::new()),
        };
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|family| kinds.get(*family).map(String::as_str) == Some("histogram"))
            .unwrap_or(&name)
            .to_string();
        assert!(
            kinds.contains_key(&family),
            "sample {name} has no preceding # TYPE"
        );
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    (samples, kinds)
}

fn sample_value(samples: &[Sample], name: &str, label_contains: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.contains(label_contains))
        .unwrap_or_else(|| panic!("no sample {name}{{{label_contains}}}"))
        .value
}

#[test]
fn prometheus_exposition_is_well_formed_and_matches_the_typed_registry() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    for _ in 0..3 {
        let (status, _) = client
            .post("/v1/evaluate", EVALUATE_BODY)
            .expect("evaluate round-trip");
        assert_eq!(status, 200);
    }
    let (status, _) = client.post("/v1/evaluate", "{not json").unwrap();
    assert_eq!(status, 400);

    // The exposition's own framing: text, not JSON, and a request id.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write!(raw, "GET /metrics HTTP/1.1\r\nHost: loopback\r\n\r\n").expect("send");
    let response = String::from_utf8(read_framed(&mut raw)).expect("UTF-8 response");
    let head = response.split("\r\n\r\n").next().expect("head");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(
        head.contains("\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n"),
        "{head}"
    );
    let header_id = head
        .lines()
        .find_map(|line| line.strip_prefix("x-request-id: "))
        .expect("/metrics carries x-request-id");
    assert!(is_hex_id(header_id), "header id '{header_id}'");
    drop(raw);

    // Quiesced cross-check: the text page first, the typed registry
    // second. Neither request touches the evaluate route or the scenario
    // cache, so those counters must agree exactly across the two reads.
    let (status, text) = client.get("/metrics").expect("prometheus");
    assert_eq!(status, 200);
    let (samples, kinds) = parse_exposition(&text);
    let (status, body) = client.get("/v1/metrics").expect("typed metrics");
    assert_eq!(status, 200);
    let typed = MetricsResponse::from_json(&gf_json::parse(&body).unwrap()).unwrap();

    let evaluate = typed
        .routes
        .iter()
        .find(|r| r.route == "POST /v1/evaluate")
        .expect("evaluate route tracked");
    // Both text scrapes meter under their own route, none under `other`.
    let scrapes = typed
        .routes
        .iter()
        .find(|r| r.route == "GET /metrics")
        .expect("text route tracked");
    assert_eq!((scrapes.requests, scrapes.errors), (2, 0));
    let other = typed.routes.last().expect("fallback bucket");
    assert_eq!((other.route.as_str(), other.requests), ("other", 0));
    let route_label = r#"route="POST /v1/evaluate""#;
    assert_eq!(
        sample_value(&samples, "gf_route_requests_total", route_label),
        evaluate.requests as f64
    );
    assert_eq!(
        sample_value(
            &samples,
            "gf_route_errors_total",
            r#"route="POST /v1/evaluate",class="4xx""#
        ),
        evaluate.errors_4xx as f64
    );
    assert_eq!(
        sample_value(
            &samples,
            "gf_route_errors_total",
            r#"route="POST /v1/evaluate",class="5xx""#
        ),
        evaluate.errors_5xx as f64
    );
    assert_eq!(
        sample_value(&samples, "gf_route_bytes_in_total", route_label),
        evaluate.bytes_in as f64
    );
    let prom_hits: f64 = samples
        .iter()
        .filter(|s| s.name == "gf_cache_hits_total")
        .map(|s| s.value)
        .sum();
    let prom_misses: f64 = samples
        .iter()
        .filter(|s| s.name == "gf_cache_misses_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(
        prom_hits,
        typed.cache_shards.iter().map(|s| s.hits).sum::<u64>() as f64
    );
    assert_eq!(
        prom_misses,
        typed.cache_shards.iter().map(|s| s.misses).sum::<u64>() as f64
    );

    // Histogram discipline on the evaluate route: bucket series cumulative
    // and non-decreasing, closed by +Inf, which equals _count and the
    // typed bucket total.
    let buckets: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "gf_route_latency_us_bucket" && s.labels.contains(route_label))
        .collect();
    assert_eq!(
        buckets.len(),
        evaluate.latency.bounds_us.len() + 1,
        "every typed bound plus +Inf"
    );
    for pair in buckets.windows(2) {
        assert!(
            pair[1].value >= pair[0].value,
            "bucket series must be cumulative"
        );
    }
    let inf = buckets.last().expect("+Inf closes the series");
    assert!(inf.labels.contains(r#"le="+Inf""#));
    assert_eq!(
        inf.value,
        sample_value(&samples, "gf_route_latency_us_count", route_label)
    );
    assert_eq!(
        inf.value,
        evaluate.latency.counts.iter().sum::<u64>() as f64
    );

    // The event-loop families exist with their label sets.
    assert_eq!(
        kinds.get("gf_loop_iteration_us").map(String::as_str),
        Some("histogram")
    );
    for kind in ["received", "coalesced"] {
        let value = sample_value(
            &samples,
            "gf_loop_wakeups_total",
            &format!(r#"kind="{kind}""#),
        );
        assert!(value >= 0.0);
    }
    for state in ["read", "dispatched", "stream", "write", "drain"] {
        sample_value(
            &samples,
            "gf_loop_connections",
            &format!(r#"state="{state}""#),
        );
    }
    assert!(sample_value(&samples, "gf_loop_iterations_total", "") >= 1.0);
    handle.shutdown();
}

#[test]
fn each_offloaded_batch_is_one_received_wakeup() {
    const BATCHES: u32 = 8;
    let handle = spawn_server();
    let mut client = connect(&handle);
    let mut received = || {
        let (status, text) = client.get("/metrics").expect("prometheus");
        assert_eq!(status, 200);
        let (samples, _) = parse_exposition(&text);
        sample_value(&samples, "gf_loop_wakeups_total", r#"kind="received""#)
    };
    let before = received();
    let mut batches = connect(&handle);
    for _ in 0..BATCHES {
        let (status, _) = batches
            .post(
                "/v1/batch",
                r#"{"domain":"dnn","points":[{"applications":3,"lifetime_years":1.5,"volume":20000}]}"#,
            )
            .expect("batch round-trip");
        assert_eq!(status, 200);
    }
    // Each batch runs on the pool and pokes the loop once. The loop may
    // write a reply before it reads that reply's poke, so the last one can
    // land just after.
    let expected = before + f64::from(BATCHES);
    let mut after = received();
    for _ in 0..200 {
        if after >= expected {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        after = received();
    }
    assert_eq!(after, expected);
    handle.shutdown();
}

#[test]
fn trace_log_streams_parseable_ndjson() {
    let path =
        std::env::temp_dir().join(format!("gf_trace_log_test_{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let handle = spawn_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        trace_log: Some(path.clone()),
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    for _ in 0..4 {
        let (status, _) = client
            .post("/v1/evaluate", EVALUATE_BODY)
            .expect("evaluate round-trip");
        assert_eq!(status, 200);
    }
    drop(client);
    // Shutdown stops the log writer, which drains the rings one final
    // time before the file is complete.
    handle.shutdown();

    let text = std::fs::read_to_string(&path).expect("trace log was written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "traffic must leave spans in the log");
    for line in &lines {
        let value = gf_json::parse(line)
            .unwrap_or_else(|e| panic!("trace-log line is not JSON ({e}): {line}"));
        let name = value.get("name").and_then(Value::as_str).expect("name");
        assert!(SPAN_NAMES.contains(&name), "unknown span '{name}' logged");
        for id_key in ["span", "request"] {
            let id = value.get(id_key).and_then(Value::as_str).expect("id");
            assert!(is_hex_id(id), "{id_key} id '{id}'");
        }
        for number_key in ["start_ns", "duration_ns", "aux", "thread"] {
            value
                .get(number_key)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("missing {number_key}: {line}"));
        }
    }
    assert!(
        lines
            .iter()
            .any(|line| line.contains(r#""name":"execute""#)),
        "the evaluate executions reached the log"
    );
    let _ = std::fs::remove_file(&path);
}

/// Reads one `Content-Length`-framed raw response.
fn read_framed(stream: &mut TcpStream) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "closed inside head");
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&raw[..header_end]).expect("ASCII head");
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("length"))
        })
        .expect("framed response");
    while raw.len() < header_end + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "closed inside body");
        raw.extend_from_slice(&chunk[..n]);
    }
    raw
}

#[test]
fn error_responses_echo_the_request_id_in_header_and_body() {
    let handle = spawn_server();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let body = "{not json";
    write!(
        stream,
        "POST /v1/evaluate HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let raw = read_framed(&mut stream);
    let text = String::from_utf8(raw).expect("UTF-8 response");
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
    let header_id = text
        .lines()
        .find_map(|line| line.strip_prefix("x-request-id: "))
        .expect("400 carries x-request-id")
        .to_string();
    assert!(is_hex_id(&header_id), "header id '{header_id}'");
    let json_body = text.split("\r\n\r\n").nth(1).expect("body");
    let value = gf_json::parse(json_body).expect("error body is JSON");
    assert_eq!(
        value.get("request_id").and_then(Value::as_str),
        Some(header_id.as_str()),
        "body request_id echoes the header"
    );
    assert!(value.get("error").is_some(), "taxonomy error object kept");
    handle.shutdown();
}

/// Sends one request on a raw connection and returns its status and its
/// `x-request-id`.
fn send(stream: &mut TcpStream, path: &str, body: &str) -> (u16, String) {
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let raw = String::from_utf8(read_framed(stream)).expect("UTF-8 response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("status line");
    let id = raw
        .lines()
        .find_map(|line| line.strip_prefix("x-request-id: "))
        .expect("x-request-id")
        .to_string();
    (status, id)
}

fn fresh_connection(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
}

/// The spans of one request in a `/v1/trace` body, oldest first.
fn spans_of(trace: &Trace, request_id: &str) -> Vec<(String, u64, u64)> {
    let mut spans: Vec<(String, u64, u64)> = trace
        .spans
        .iter()
        .filter(|span| span.request_id == request_id)
        .map(|span| {
            (
                span.name.clone(),
                span.start_ns,
                span.start_ns + span.duration_ns,
            )
        })
        .collect();
    spans.sort_by_key(|&(_, start, end)| (start, end));
    spans
}

/// Instants at most 1 ns apart are one instant: each span's start and
/// duration convert to nanoseconds on their own.
fn distinct_instants(spans: &[(String, u64, u64)]) -> usize {
    let mut instants: Vec<u64> = spans
        .iter()
        .flat_map(|&(_, start, end)| [start, end])
        .collect();
    instants.sort_unstable();
    1 + instants
        .windows(2)
        .filter(|pair| pair[1] - pair[0] > 1)
        .count()
}

#[test]
fn inline_requests_read_the_clock_once_per_boundary() {
    let handle = spawn_server();
    let requests: [(&str, &str, &[&str]); 4] = [
        ("/v1/evaluate", EVALUATE_BODY, &["cache_hit"]),
        (
            "/v1/scenario",
            r#"{"id":"dnn_baseline"}"#,
            &["catalog_resolve", "cache_hit"],
        ),
        (
            "/v1/compare",
            r#"{"scenarios":[{"domain":"dnn"},{"domain":"crypto"}],"point":{"applications":5,"lifetime_years":2,"volume":1000000}}"#,
            &["cache_hit", "cache_hit"],
        ),
        (
            "/v1/crossover",
            r#"{"domain":"imgproc","point":{"applications":5,"lifetime_years":2,"volume":1000000}}"#,
            &["cache_hit"],
        ),
    ];
    // Compile every scenario first, so each measured request hits the cache.
    let mut warm = connect(&handle);
    for (path, body, _) in requests {
        assert_eq!(warm.post(path, body).expect("warm-up").0, 200);
    }
    let mut stream = fresh_connection(&handle);
    let ids: Vec<String> = requests
        .iter()
        .map(|(path, body, _)| {
            let (status, id) = send(&mut stream, path, body);
            assert_eq!(status, 200, "{path}");
            id
        })
        .collect();
    let (_, body) = warm.get("/v1/trace").expect("trace");
    let trace = read_trace(&body);
    for ((path, _, events), id) in requests.iter().zip(&ids) {
        let spans = spans_of(&trace, id);
        let (phases, recorded_events): (Vec<_>, Vec<_>) = spans
            .iter()
            .partition(|(name, _, _)| !matches!(name.as_str(), "cache_hit" | "catalog_resolve"));
        let names: Vec<&str> = phases.iter().map(|(name, _, _)| name.as_str()).collect();
        assert_eq!(
            names,
            ["parse", "decode", "execute", "serialize", "write"],
            "{path}: {spans:?}"
        );
        for pair in phases.windows(2) {
            assert!(
                pair[1].1.abs_diff(pair[0].2) <= 1,
                "{path}: {} does not start where {} ends: {spans:?}",
                pair[1].0,
                pair[0].0
            );
        }
        let mut expected: Vec<&str> = events.to_vec();
        let mut recorded: Vec<&str> = recorded_events
            .iter()
            .map(|(name, _, _)| name.as_str())
            .collect();
        expected.sort_unstable();
        recorded.sort_unstable();
        assert_eq!(recorded, expected, "{path}: {spans:?}");
        let decode_end = phases[1].2;
        for (name, start, end) in &recorded_events {
            assert!(
                start.abs_diff(decode_end) <= 1 && start == end,
                "{path}: {name} is not dated at the decode span's end: {spans:?}"
            );
        }
        assert_eq!(distinct_instants(&spans), 6, "{path}: {spans:?}");
    }
    handle.shutdown();
}

#[test]
fn an_offloaded_batch_keeps_its_pool_spans_and_one_claim_stamp() {
    let handle = spawn_server();
    let mut stream = fresh_connection(&handle);
    let (status, id) = send(
        &mut stream,
        "/v1/batch",
        r#"{"domain":"dnn","points":[{"applications":1,"lifetime_years":0.5,"volume":1000},{"applications":7,"lifetime_years":4.25,"volume":3000000}]}"#,
    );
    assert_eq!(status, 200);
    let mut client = connect(&handle);
    // The worker closes `job_run` after it hands the reply to the loop, so
    // the span may land just after the response.
    let mut spans = Vec::new();
    for _ in 0..200 {
        let (_, body) = client.get("/v1/trace").expect("trace");
        spans = spans_of(&read_trace(&body), &id);
        if spans.iter().any(|(name, _, _)| name == "job_run") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let find = |name: &str| {
        spans
            .iter()
            .find(|(span, _, _)| span == name)
            .unwrap_or_else(|| panic!("no {name} span under the batch's id: {spans:?}"))
    };
    let (job_wait, job_run) = (find("job_queue_wait"), find("job_run"));
    let (queue_wait, decode) = (find("queue_wait"), find("decode"));
    let claim = job_wait.2;
    for (name, at) in [
        ("queue_wait's end", queue_wait.2),
        ("job_run's start", job_run.1),
        ("decode's start", decode.1),
    ] {
        assert!(
            at.abs_diff(claim) <= 1,
            "{name} is not the pool's claim stamp: {spans:?}"
        );
    }
    handle.shutdown();
}
