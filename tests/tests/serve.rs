//! Integration tests for `greenfpga-serve`: a real server on an ephemeral
//! loopback port, driven by real TCP clients, with every served result
//! **golden-matched bit-for-bit** against direct engine calls.
//!
//! Results only encode, so a served body is checked byte for byte against
//! the in-process encoding of the expected result: built from the direct
//! calls where a test has them, else `Engine::run` plus
//! `Outcome::write_result`. The wire format (`greenfpga::api` over
//! `gf_json`) serializes `f64` with shortest round-trip formatting, so equal
//! bytes carry exactly the bits the engine produced.

use gf_json::{FromJson, JsonWriter, ParseLimits, ToJson, Value};
use gf_server::client::Client;
use gf_server::{Server, ServerConfig, ServerHandle};
use greenfpga::api::{
    BatchEvalRequest, BatchEvalResponse, CompareRequest, CompareResponse, CrossoverResponse,
    EvaluateRequest, EvaluateResponse, FrontierRequest, GridRequest, IndustryRequest,
    MetricsResponse, MonteCarloRequest, Query, QueryKind, SweepRequest, TornadoRequest,
};
use greenfpga::{
    Domain, Engine, Estimator, Knob, MonteCarlo, OperatingPoint, ResultBuffer, ScenarioSpec,
    SweepAxis,
};

/// Boots a server on an ephemeral port with test-friendly settings.
fn spawn_server() -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        idle_timeout: std::time::Duration::from_secs(2),
        ..ServerConfig::default()
    };
    Server::bind(config).expect("bind ephemeral server").spawn()
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr()).expect("connect to server")
}

/// Posts `request`'s encoding and returns the status and the body text.
fn post_json(client: &mut Client, path: &str, request: &impl ToJson) -> (u16, String) {
    let body = request.to_json_string().expect("serialize request");
    client.post(path, &body).expect("request round-trip")
}

/// The compact encoding of an expected result.
fn encoded(result: &impl ToJson) -> String {
    result.to_json_string().expect("results are finite")
}

/// The body the route for `query` answers with, encoded in-process:
/// `Engine::run` plus `Outcome::write_result`.
fn in_process(query: &Query) -> String {
    static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
    let engine = ENGINE.get_or_init(|| Engine::with_defaults().expect("default engine"));
    let mut w = JsonWriter::new();
    engine.run(query).expect("query runs").write_result(&mut w);
    w.finish().expect("results are finite")
}

/// An error body with its `"request_id"` member removed: the id differs
/// per request, every other byte is pinned.
fn without_request_id(body: &str) -> String {
    let start = body
        .find(r#","request_id":""#)
        .unwrap_or_else(|| panic!("no request_id in {body}"));
    let id_end = start + r#","request_id":""#.len() + 16 + 1;
    format!("{}{}", &body[..start], &body[id_end..])
}

fn scenario_cases() -> Vec<ScenarioSpec> {
    let mut specs: Vec<ScenarioSpec> = Domain::ALL
        .into_iter()
        .map(ScenarioSpec::baseline)
        .collect();
    specs.push(ScenarioSpec {
        domain: Domain::Dnn,
        knobs: vec![(Knob::DutyCycle, 0.45), (Knob::UsageGridIntensity, 650.0)],
    });
    specs.push(ScenarioSpec {
        domain: Domain::Crypto,
        knobs: vec![(Knob::EolRecycledFraction, 0.9)],
    });
    specs
}

fn point_cases() -> Vec<OperatingPoint> {
    vec![
        OperatingPoint::paper_default(),
        OperatingPoint {
            applications: 1,
            lifetime_years: 0.25,
            volume: 1_000,
        },
        OperatingPoint {
            applications: 12,
            lifetime_years: 3.5,
            volume: 10_000_000,
        },
    ]
}

#[test]
fn healthz_is_liveness_only_and_metrics_counts_requests() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let (status, body) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    // The member order is pinned, values masked: clients read `workers`
    // from this body at setup.
    let doc = gf_json::Document::parse(&body, gf_json::ParseLimits::default()).unwrap();
    let masked: Vec<String> = doc
        .root()
        .members()
        .expect("an object")
        .map(|(key, _)| format!("{}:_", key.as_str().unwrap()))
        .collect();
    assert_eq!(
        masked.join(","),
        "status:_,version:_,uptime_seconds:_,workers:_",
        "{body}"
    );
    assert!(body.starts_with(r#"{"status":"ok","version":""#), "{body}");
    let value = gf_json::parse(&body).unwrap();
    assert_eq!(value.get("status").and_then(Value::as_str), Some("ok"));
    // The version is gf-server's own CARGO_PKG_VERSION; assert shape, not
    // the value (this test crate may be versioned independently).
    let version = value.get("version").and_then(Value::as_str).unwrap();
    assert!(
        !version.is_empty() && version.chars().next().unwrap().is_ascii_digit(),
        "healthz reports a semver-ish build version, got '{version}'"
    );
    assert!(value.get("uptime_seconds").and_then(Value::as_f64).unwrap() >= 0.0);
    assert!(value.get("workers").and_then(Value::as_u64).unwrap() >= 1);
    // Slimmed: the counters moved to /v1/metrics.
    assert!(value.get("requests_served").is_none());
    assert!(value.get("scenario_cache").is_none());
    // More requests move the metrics counter.
    let (_, body) = client.get("/v1/metrics").expect("metrics");
    let before = MetricsResponse::from_json(&gf_json::parse(&body).unwrap()).unwrap();
    let (status, _) = client.get("/healthz").expect("healthz again");
    assert_eq!(status, 200);
    let (_, body) = client.get("/v1/metrics").expect("metrics again");
    let after = MetricsResponse::from_json(&gf_json::parse(&body).unwrap()).unwrap();
    assert!(after.requests_served > before.requests_served);
    handle.shutdown();
}

#[test]
fn evaluate_is_bit_identical_to_direct_engine_calls() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    for scenario in scenario_cases() {
        // The direct path a library user would run: estimator with the same
        // knob overrides, compiled scenario, point evaluation.
        let direct = Estimator::new(scenario.params())
            .compile(scenario.domain)
            .unwrap();
        for point in point_cases() {
            let request = EvaluateRequest {
                scenario: scenario.clone(),
                point,
            };
            let (status, text) = post_json(&mut client, "/v1/evaluate", &request);
            assert_eq!(status, 200, "{text}");
            let comparison = direct.evaluate(point).unwrap();
            let expected = encoded(&EvaluateResponse { comparison });
            assert_eq!(text, expected, "{scenario:?} {point:?}");
            assert_eq!(text, in_process(&Query::Evaluate(request)));
        }
    }
    handle.shutdown();
}

#[test]
fn batch_matches_the_soa_kernel_bit_for_bit() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let scenario = ScenarioSpec {
        domain: Domain::ImageProcessing,
        knobs: vec![(Knob::FabGridIntensity, 120.0)],
    };
    let points: Vec<OperatingPoint> = (1..=40u64)
        .map(|i| OperatingPoint {
            applications: 1 + i % 9,
            lifetime_years: 0.25 * i as f64,
            volume: 10_000 * i,
        })
        .collect();
    let request = BatchEvalRequest {
        scenario: scenario.clone(),
        points: points.clone(),
    };
    // Direct golden: the same zero-alloc kernel the server routes through.
    let compiled = Estimator::new(scenario.params())
        .compile(scenario.domain)
        .unwrap();
    let mut buffer = ResultBuffer::new();
    compiled.evaluate_into(&points, &mut buffer).unwrap();
    let comparisons = (0..points.len()).map(|i| buffer.comparison(i)).collect();
    let expected = encoded(&BatchEvalResponse { comparisons });
    assert_eq!(expected, in_process(&Query::Batch(request.clone())));
    // Repeated batches on one keep-alive connection hit the same reused
    // server-side buffer; every one must be identical.
    for round in 0..3 {
        let (status, text) = post_json(&mut client, "/v1/batch", &request);
        assert_eq!(status, 200, "round {round}: {text}");
        assert_eq!(text, expected, "round {round}");
    }
    handle.shutdown();
}

#[test]
fn crossover_matches_the_estimator_searches() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    for scenario in scenario_cases() {
        let request = greenfpga::CrossoverRequest::with_default_ranges(
            scenario.clone(),
            OperatingPoint::paper_default(),
        );
        let (status, text) = post_json(&mut client, "/v1/crossover", &request);
        assert_eq!(status, 200, "{text}");
        let compiled = Estimator::new(scenario.params())
            .compile(scenario.domain)
            .unwrap();
        let base = OperatingPoint::paper_default();
        let expected = CrossoverResponse {
            domain: scenario.domain,
            base,
            applications: compiled
                .crossover_in_applications_verified(20, base.lifetime_years, base.volume)
                .unwrap(),
            lifetime: compiled
                .crossover_in_lifetime_verified(base.applications, base.volume, 0.05, 5.0)
                .unwrap(),
            volume: compiled
                .crossover_in_volume_verified(
                    base.applications,
                    base.lifetime_years,
                    1_000,
                    50_000_000,
                )
                .unwrap(),
        };
        assert_eq!(text, encoded(&expected), "{scenario:?}");
    }
    handle.shutdown();
}

#[test]
fn frontier_matches_the_direct_winner_map() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let scenario = ScenarioSpec::baseline(Domain::Dnn);
    let request = FrontierRequest {
        scenario: scenario.clone(),
        base: OperatingPoint::paper_default(),
        x_axis: SweepAxis::Applications,
        x_range: (1.0, 16.0),
        y_axis: SweepAxis::LifetimeYears,
        y_range: (0.25, 3.0),
        steps: 16,
    };
    let (status, text) = post_json(&mut client, "/v1/frontier", &request);
    assert_eq!(status, 200, "{text}");

    let (x_values, y_values) = request.lattice();
    let direct = Estimator::new(scenario.params())
        .compile(scenario.domain)
        .unwrap()
        .frontier(
            request.x_axis,
            &x_values,
            request.y_axis,
            &y_values,
            request.base,
            0,
        )
        .unwrap();
    // The winner mask, the evaluation count and the coordinates, byte for
    // byte.
    assert_eq!(text, encoded(&direct));
    handle.shutdown();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let handle = spawn_server();
    let addr = handle.addr();
    let scenario = ScenarioSpec::baseline(Domain::Dnn);
    let direct = Estimator::default().compile(Domain::Dnn).unwrap();
    let clients = 4;
    let requests_per_client = 50;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let scenario = scenario.clone();
            let direct = &direct;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..requests_per_client {
                    let point = OperatingPoint {
                        applications: 1 + ((c + i) % 10) as u64,
                        lifetime_years: 0.5 + 0.25 * (i % 8) as f64,
                        volume: 100_000 + 10_000 * i as u64,
                    };
                    let request = EvaluateRequest {
                        scenario: scenario.clone(),
                        point,
                    };
                    let (status, text) = post_json(&mut client, "/v1/evaluate", &request);
                    assert_eq!(status, 200);
                    let comparison = direct.evaluate(point).unwrap();
                    let expected = encoded(&EvaluateResponse { comparison });
                    assert_eq!(text, expected, "client {c} request {i}");
                }
            });
        }
    });
    assert!(handle.requests_served() >= (clients * requests_per_client) as u64);
    handle.shutdown();
}

#[test]
fn malformed_requests_are_rejected_without_harming_the_server() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    // Broken JSON.
    let (status, body) = client.post("/v1/evaluate", "{not json").unwrap();
    assert_eq!(status, 400, "{body}");
    // Schema violations.
    let (status, body) = client.post("/v1/evaluate", "{}").unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("domain"), "{body}");
    let (status, _) = client
        .post("/v1/evaluate", r#"{"domain": "warp-core"}"#)
        .unwrap();
    assert_eq!(status, 400);
    let (status, body) = client
        .post("/v1/evaluate", r#"{"domain": "dnn", "knobs": {"flux": 1}}"#)
        .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("flux"), "{body}");
    // A bad list element is named by its index.
    let (status, body) = client
        .post(
            "/v1/compare",
            r#"{"scenarios":[{"domain":"dnn"},{"domain":"gpu"}]}"#,
        )
        .unwrap();
    assert_eq!(status, 400);
    assert_eq!(
        without_request_id(&body),
        r#"{"error":{"code":"bad_request","message":"JSON schema error at scenarios[1].domain: unknown domain 'gpu'","retryable":false}}"#
    );
    // Hostile nesting trips the parser's depth limit, not the stack.
    let deep = format!("{}{}", "[".repeat(50_000), "]".repeat(50_000));
    let (status, _) = client.post("/v1/evaluate", &deep).unwrap();
    assert_eq!(status, 400);
    // Model-level rejection: zero applications is a 422, not a crash.
    let (status, body) = client
        .post(
            "/v1/evaluate",
            r#"{"domain": "dnn", "point": {"applications": 0}}"#,
        )
        .unwrap();
    assert_eq!(status, 422, "{body}");
    // Unknown routes and methods: byte-exact bodies, the request id aside.
    let (status, body) = client.get("/v2/evaluate").unwrap();
    assert_eq!(status, 404);
    assert_eq!(
        without_request_id(&body),
        r#"{"error":{"code":"not_found","message":"no route for GET /v2/evaluate","retryable":false}}"#
    );
    let (status, body) = client.request("DELETE", "/healthz", None).unwrap();
    assert_eq!(status, 405);
    assert_eq!(
        without_request_id(&body),
        r#"{"error":{"code":"method_not_allowed","message":"/healthz only supports GET","retryable":false}}"#
    );
    let (status, body) = client.post("/metrics", "{}").unwrap();
    assert_eq!(status, 405, "the text route answers a JSON 405");
    assert_eq!(
        without_request_id(&body),
        r#"{"error":{"code":"method_not_allowed","message":"/metrics only supports GET","retryable":false}}"#
    );
    // The connection that sent garbage is still serviceable...
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    // ...and so is a fresh one.
    let mut fresh = connect(&handle);
    let (status, _) = fresh.get("/healthz").unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn repeated_server_lifecycle_is_leak_free_and_deadlock_free() {
    // The long-lived-service satellite: engines (server + worker pool +
    // cache) must come up and tear down repeatedly without wedging on a
    // join or accumulating threads. A deadlock here hangs the test; a leak
    // shows up as runaway thread counts under any external inspection.
    for round in 0..10 {
        let handle = spawn_server();
        let mut client = connect(&handle);
        let (status, _) = client.get("/healthz").expect("healthz");
        assert_eq!(status, 200, "round {round}");
        let request = EvaluateRequest {
            scenario: ScenarioSpec::baseline(Domain::Crypto),
            point: OperatingPoint::paper_default(),
        };
        let (status, _) = post_json(&mut client, "/v1/evaluate", &request);
        assert_eq!(status, 200, "round {round}");
        drop(client);
        handle.shutdown(); // must join promptly every round
    }
}

#[test]
fn metrics_route_has_the_golden_shape_and_counts() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    // Traffic across routes, including an error.
    for _ in 0..3 {
        let request = EvaluateRequest {
            scenario: ScenarioSpec::baseline(Domain::Dnn),
            point: OperatingPoint::paper_default(),
        };
        let (status, _) = post_json(&mut client, "/v1/evaluate", &request);
        assert_eq!(status, 200);
    }
    let (status, _) = client.post("/v1/evaluate", "{not json").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    // Unknown paths and wrong methods meter against the `other` bucket,
    // never against the route whose path they name.
    let (status, _) = client.get("/v2/evaluate").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("DELETE", "/healthz", None).unwrap();
    assert_eq!(status, 405);
    let (status, _) = client.post("/metrics", "{}").unwrap();
    assert_eq!(status, 405);

    let (status, body) = client.get("/v1/metrics").unwrap();
    assert_eq!(status, 200, "{body}");
    // The body decodes through the typed schema — golden shape by
    // construction, and every field is internally consistent.
    let metrics = MetricsResponse::from_json(&gf_json::parse(&body).unwrap()).unwrap();
    assert_eq!(metrics.connections_live, 1, "this client is connected");
    assert_eq!(
        metrics.connections_max,
        ServerConfig::default().max_connections as u64
    );
    assert_eq!(metrics.connections_rejected, 0);
    assert!(metrics.requests_served >= 8);
    let route = |label: &str| {
        metrics
            .routes
            .iter()
            .find(|r| r.route == label)
            .unwrap_or_else(|| panic!("missing route {label}"))
            .clone()
    };
    let evaluate = route("POST /v1/evaluate");
    assert_eq!(evaluate.requests, 4);
    assert_eq!(evaluate.errors, 1, "the malformed request counts");
    // The error split: a malformed body is a client fault, and the legacy
    // total stays the sum of the classes.
    assert_eq!(evaluate.errors_4xx, 1);
    assert_eq!(evaluate.errors_5xx, 0);
    assert_eq!(evaluate.errors, evaluate.errors_4xx + evaluate.errors_5xx);
    assert_eq!(
        evaluate.latency.counts.iter().sum::<u64>(),
        evaluate.requests,
        "every request lands in exactly one latency bucket"
    );
    assert_eq!(route("GET /healthz").requests, 1);
    assert_eq!(route("GET /metrics").requests, 0);
    let other = route("other");
    assert_eq!(other.requests, 3, "404 and both 405s");
    assert_eq!(other.errors_4xx, 3);
    assert_eq!(other.bytes_in, 2, "the POST /metrics body");
    // The one scenario cache: its stats match the scenario traffic (one
    // distinct scenario -> one miss, the rest hits).
    assert_eq!(metrics.cache_shards.len(), 1);
    let misses: u64 = metrics.cache_shards.iter().map(|s| s.misses).sum();
    let hits: u64 = metrics.cache_shards.iter().map(|s| s.hits).sum();
    assert_eq!(misses, 1);
    assert_eq!(hits, 2);
    handle.shutdown();
}

#[test]
fn admission_control_rejects_beyond_the_connection_cap() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        max_connections: 2,
        idle_timeout: std::time::Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let handle = Server::bind(config).expect("bind").spawn();
    // Two live connections fill the cap...
    let mut first = connect(&handle);
    let (status, _) = first.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let mut second = connect(&handle);
    let (status, _) = second.get("/healthz").unwrap();
    assert_eq!(status, 200);
    // ...so the third is turned away at accept time: the server answers
    // 503 unprompted and closes. Read passively (sending a request first
    // could race the close into an RST that discards the buffered 503).
    let mut third = std::net::TcpStream::connect(handle.addr()).expect("tcp connect succeeds");
    let mut rejection = String::new();
    {
        use std::io::Read;
        third
            .read_to_string(&mut rejection)
            .expect("read rejection");
    }
    assert!(rejection.starts_with("HTTP/1.1 503 "), "{rejection}");
    assert!(rejection.contains("overloaded"), "{rejection}");
    // The established connections keep working.
    let (status, _) = first.get("/healthz").unwrap();
    assert_eq!(status, 200);
    // Freeing a slot re-admits new connections (poll briefly: the gauge
    // drops when the worker finishes the closed connection).
    drop(second);
    let mut readmitted = None;
    for _ in 0..50 {
        let mut candidate = Client::connect(handle.addr()).expect("tcp connect");
        if let Ok((200, _)) = candidate.get("/healthz") {
            readmitted = Some(candidate);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(readmitted.is_some(), "a freed slot re-admits connections");
    // The rejections are visible in the metrics.
    let (_, body) = first.get("/v1/metrics").unwrap();
    let metrics = MetricsResponse::from_json(&gf_json::parse(&body).unwrap()).unwrap();
    assert!(metrics.connections_rejected >= 1);
    assert_eq!(metrics.connections_max, 2);
    handle.shutdown();
}

#[test]
fn rejected_connections_carry_retry_after() {
    use std::io::Read;
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_connections: 1,
        idle_timeout: std::time::Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let handle = Server::bind(config).expect("bind").spawn();
    let mut occupant = connect(&handle);
    let (status, _) = occupant.get("/healthz").unwrap();
    assert_eq!(status, 200);
    // Raw TCP so the rejection headers are visible; read passively — the
    // server answers 503 at accept time without waiting for a request.
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap(); // server closes after 503
    assert!(
        response.starts_with("HTTP/1.1 503 Service Unavailable"),
        "{response}"
    );
    assert!(response.contains("Retry-After:"), "{response}");
    assert!(response.contains("Connection: close"), "{response}");
    handle.shutdown();
}

#[test]
fn scenario_cache_survives_concurrent_hammering_with_exact_stats() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 8,
        idle_timeout: std::time::Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let handle = Server::bind(config).expect("bind").spawn();
    let addr = handle.addr();
    let clients = 8;
    let rounds = 30;
    // 6 distinct scenarios hammered from every client concurrently.
    let scenarios: Vec<ScenarioSpec> = (0..6)
        .map(|i| ScenarioSpec {
            domain: Domain::ALL[i % Domain::ALL.len()],
            knobs: vec![(Knob::DutyCycle, 0.2 + 0.1 * (i / 3) as f64)],
        })
        .collect();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let scenarios = &scenarios;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..rounds {
                    let scenario = scenarios[(c + i) % scenarios.len()].clone();
                    let direct = Estimator::new(scenario.params())
                        .compile(scenario.domain)
                        .unwrap();
                    let request = EvaluateRequest {
                        scenario,
                        point: OperatingPoint::paper_default(),
                    };
                    let (status, text) = post_json(&mut client, "/v1/evaluate", &request);
                    assert_eq!(status, 200);
                    let comparison = direct.evaluate(OperatingPoint::paper_default()).unwrap();
                    assert_eq!(text, encoded(&EvaluateResponse { comparison }));
                }
            });
        }
    });
    let mut client = connect(&handle);
    let (_, body) = client.get("/v1/metrics").unwrap();
    let metrics = MetricsResponse::from_json(&gf_json::parse(&body).unwrap()).unwrap();
    assert_eq!(metrics.cache_shards.len(), 1);
    let hits: u64 = metrics.cache_shards.iter().map(|s| s.hits).sum();
    let misses: u64 = metrics.cache_shards.iter().map(|s| s.misses).sum();
    assert_eq!(
        hits + misses,
        (clients * rounds) as u64,
        "every lookup counted exactly once"
    );
    assert!(
        misses <= scenarios.len() as u64,
        "at most one compile per scenario"
    );
    handle.shutdown();
}

#[test]
fn duplicate_conflicting_content_length_is_rejected_over_the_wire() {
    use std::io::{Read, Write};
    let handle = spawn_server();
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    // No body bytes follow: the rejection happens at the headers, and any
    // unread body at close could RST away the buffered 400.
    raw.write_all(
        b"POST /v1/evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Length: 17\r\n\r\n",
    )
    .unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap(); // connection closes after 400
    assert!(
        response.starts_with("HTTP/1.1 400 Bad Request"),
        "{response}"
    );
    assert!(
        response.contains("conflicting Content-Length"),
        "{response}"
    );
    // The server remains healthy for well-formed clients.
    let mut fresh = connect(&handle);
    let (status, _) = fresh.get("/healthz").unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn scenario_cache_serves_repeats_compile_free() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let request = EvaluateRequest {
        scenario: ScenarioSpec {
            domain: Domain::Dnn,
            knobs: vec![(Knob::DutyCycle, 0.33)],
        },
        point: OperatingPoint::paper_default(),
    };
    for _ in 0..5 {
        let (status, _) = post_json(&mut client, "/v1/evaluate", &request);
        assert_eq!(status, 200);
    }
    let (_, body) = client.get("/v1/metrics").unwrap();
    let metrics = MetricsResponse::from_json(&gf_json::parse(&body).unwrap()).unwrap();
    let misses: u64 = metrics.cache_shards.iter().map(|s| s.misses).sum();
    let hits: u64 = metrics.cache_shards.iter().map(|s| s.hits).sum();
    assert_eq!(misses, 1, "one compile for five identical scenarios");
    assert_eq!(hits, 4);
    handle.shutdown();
}

#[test]
fn sweep_route_is_bit_identical_to_the_direct_series() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let scenario = ScenarioSpec {
        domain: Domain::Dnn,
        knobs: vec![(Knob::DutyCycle, 0.4)],
    };
    let request = SweepRequest {
        scenario: scenario.clone(),
        base: OperatingPoint::paper_default(),
        axis: SweepAxis::Applications,
        range: (1.0, 12.0),
        steps: 12,
    };
    let (status, text) = post_json(&mut client, QueryKind::Sweep.path(), &request);
    assert_eq!(status, 200, "{text}");
    let direct = Estimator::new(scenario.params())
        .compile(scenario.domain)
        .unwrap()
        .sweep_series(request.axis, &request.values(), request.base, 0)
        .unwrap();
    assert_eq!(text, encoded(&direct));
    assert_eq!(text, in_process(&Query::Sweep(request)));
    handle.shutdown();
}

#[test]
fn grid_route_is_bit_identical_to_the_direct_grid() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let scenario = ScenarioSpec::baseline(Domain::ImageProcessing);
    let request = GridRequest {
        scenario: scenario.clone(),
        base: OperatingPoint::paper_default(),
        x_axis: SweepAxis::Applications,
        x_range: (1.0, 8.0),
        y_axis: SweepAxis::LifetimeYears,
        y_range: (0.5, 2.5),
        steps: 8,
        stream: false,
    };
    let (status, text) = post_json(&mut client, QueryKind::Grid.path(), &request);
    assert_eq!(status, 200, "{text}");
    let (x_values, y_values) = request.lattice();
    let direct = Estimator::new(scenario.params())
        .compile(scenario.domain)
        .unwrap()
        .ratio_grid(
            request.x_axis,
            &x_values,
            request.y_axis,
            &y_values,
            request.base,
            0,
        )
        .unwrap();
    assert_eq!(text, encoded(&direct));
    assert_eq!(text, in_process(&Query::Grid(request)));
    handle.shutdown();
}

/// The grid request the streamed-delivery tests share: `steps` per axis,
/// streamed or buffered per the flag, otherwise identical.
fn grid_request_for_streaming(steps: usize, stream: bool) -> GridRequest {
    GridRequest {
        scenario: ScenarioSpec::baseline(Domain::Dnn),
        base: OperatingPoint::paper_default(),
        x_axis: SweepAxis::Applications,
        x_range: (1.0, 12.0),
        y_axis: SweepAxis::LifetimeYears,
        y_range: (0.25, 3.0),
        steps,
        stream,
    }
}

fn grid_body(steps: usize, stream: bool) -> String {
    grid_request_for_streaming(steps, stream)
        .to_json()
        .to_json_string()
        .expect("serialize request")
}

#[test]
fn streamed_grid_body_is_byte_identical_to_buffered() {
    // 200 steps → 40 000 cells → three row-blocks through the bounded
    // worker→loop channel, so the equality crosses real chunk seams.
    let handle = spawn_server();
    let mut client = connect(&handle);
    let (status, buffered) = client
        .post(QueryKind::Grid.path(), &grid_body(200, false))
        .expect("buffered grid");
    assert_eq!(status, 200, "{buffered}");
    let (status, streamed) = client
        .post(QueryKind::Grid.path(), &grid_body(200, true))
        .expect("streamed grid");
    assert_eq!(status, 200, "{streamed}");
    assert_eq!(
        streamed, buffered,
        "chunk-decoded streamed body must be byte-identical to buffered"
    );
    // An invalid body answers the same 400 in either mode.
    let (status, buffered) = client
        .post(QueryKind::Grid.path(), &grid_body(1, false))
        .expect("invalid buffered grid");
    assert_eq!(status, 400, "{buffered}");
    let (status, streamed) = client
        .post(QueryKind::Grid.path(), &grid_body(1, true))
        .expect("invalid streamed grid");
    assert_eq!(status, 400, "{streamed}");
    assert_eq!(without_request_id(&streamed), without_request_id(&buffered));
    assert_eq!(
        without_request_id(&buffered),
        r#"{"error":{"code":"bad_request","message":"JSON schema error at steps: expected 2 ≤ steps ≤ 1024","retryable":false}}"#
    );
    // The keep-alive connection survives a streamed response.
    let (status, _) = client.get("/healthz").expect("keep-alive after stream");
    assert_eq!(status, 200);
    handle.shutdown();
}

/// The acceptance-scale case: a 1024×1024 (million-point) grid streamed
/// and buffered byte-identically. Minutes under the debug profile, so it
/// is ignored by default — run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "million-point grid; run under --release"]
fn streamed_million_point_grid_is_byte_identical_to_buffered() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let (status, buffered) = client
        .post(QueryKind::Grid.path(), &grid_body(1024, false))
        .expect("buffered grid");
    assert_eq!(status, 200);
    let (status, streamed) = client
        .post(QueryKind::Grid.path(), &grid_body(1024, true))
        .expect("streamed grid");
    assert_eq!(status, 200);
    assert_eq!(streamed.len(), buffered.len());
    assert!(streamed == buffered, "million-point bodies diverge");
    handle.shutdown();
}

#[test]
fn streamed_grid_is_delivered_in_row_block_sized_chunks() {
    // Raw socket: inspect the chunked framing itself. Three row-blocks
    // must arrive as separate data chunks (head, blocks, tail) — proof the
    // response was produced and relayed incrementally, never materialised
    // whole in a server buffer.
    use std::io::{Read, Write};
    let handle = spawn_server();
    let mut socket = std::net::TcpStream::connect(handle.addr()).expect("raw connect");
    let body = grid_body(200, true);
    write!(
        socket,
        "POST /v1/grid HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = Vec::new();
    socket.read_to_end(&mut raw).expect("read to EOF");
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, payload) = text.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let head_lower = head.to_ascii_lowercase();
    assert!(head_lower.contains("transfer-encoding: chunked"), "{head}");
    assert!(!head_lower.contains("content-length"), "{head}");

    let mut chunk_sizes = Vec::new();
    let mut rest = payload;
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            break;
        }
        chunk_sizes.push(size);
        assert_eq!(&tail[size..size + 2], "\r\n", "chunk data CRLF");
        rest = &tail[size + 2..];
    }
    let total: usize = chunk_sizes.iter().sum();
    // head + three row-blocks + tail, each its own chunk.
    assert!(
        chunk_sizes.len() >= 5,
        "expected block-wise chunks, got {chunk_sizes:?}"
    );
    let largest = chunk_sizes.iter().copied().max().unwrap_or(0);
    assert!(
        largest < total / 2,
        "one chunk carries most of the body ({largest} of {total}): not streamed"
    );
    handle.shutdown();
}

#[test]
fn tornado_route_is_bit_identical_to_the_direct_analysis() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let scenario = ScenarioSpec::baseline(Domain::Crypto);
    let request = TornadoRequest {
        scenario: scenario.clone(),
        point: OperatingPoint::paper_default(),
    };
    let (status, text) = post_json(&mut client, QueryKind::Tornado.path(), &request);
    assert_eq!(status, 200, "{text}");
    let direct = Estimator::new(scenario.params())
        .tornado_analysis(scenario.domain, request.point, 0)
        .unwrap();
    assert_eq!(text, encoded(&direct));
    assert_eq!(text, in_process(&Query::Tornado(request)));
    handle.shutdown();
}

#[test]
fn montecarlo_route_is_bit_identical_and_deterministic() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let scenario = ScenarioSpec::baseline(Domain::Dnn);
    let request = MonteCarloRequest {
        scenario: scenario.clone(),
        point: OperatingPoint::paper_default(),
        samples: 64,
        seed: 1234,
    };
    let (status, text) = post_json(&mut client, QueryKind::MonteCarlo.path(), &request);
    assert_eq!(status, 200, "{text}");
    let direct = MonteCarlo::new(request.samples)
        .with_seed(request.seed)
        .run(&scenario.params(), scenario.domain, request.point)
        .unwrap();
    assert_eq!(text, encoded(&direct));
    assert_eq!(text, in_process(&Query::MonteCarlo(request.clone())));
    // Deterministic: a second request answers identically.
    let (_, again) = post_json(&mut client, QueryKind::MonteCarlo.path(), &request);
    assert_eq!(again, text);
    handle.shutdown();
}

#[test]
fn compare_route_matches_per_scenario_evaluations() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let scenarios: Vec<ScenarioSpec> = Domain::ALL
        .into_iter()
        .map(ScenarioSpec::baseline)
        .collect();
    let request = CompareRequest {
        scenarios: scenarios.clone(),
        point: OperatingPoint::paper_default(),
    };
    let (status, text) = post_json(&mut client, QueryKind::Compare.path(), &request);
    assert_eq!(status, 200, "{text}");
    let comparisons = scenarios
        .iter()
        .map(|scenario| {
            Estimator::new(scenario.params())
                .compile(scenario.domain)
                .unwrap()
                .evaluate(request.point)
                .unwrap()
        })
        .collect();
    assert_eq!(text, encoded(&CompareResponse { comparisons }));
    assert_eq!(text, in_process(&Query::Compare(request)));
    handle.shutdown();
}

#[test]
fn industry_route_matches_the_direct_testcases() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let request = IndustryRequest::default();
    let (status, text) = post_json(&mut client, QueryKind::Industry.path(), &request);
    assert_eq!(status, 200, "{text}");
    assert_eq!(text, in_process(&Query::Industry(request)));
    let doc = gf_json::Document::parse(&text, ParseLimits::default()).unwrap();
    let devices: Vec<_> = doc
        .root()
        .get("devices")
        .unwrap()
        .items()
        .unwrap()
        .collect();
    assert_eq!(devices.len(), 4);
    let estimator = Estimator::default();
    let scenario = greenfpga::IndustryScenario::paper_defaults();
    let expected_first = scenario
        .evaluate_fpga(&estimator, &greenfpga::industry_fpga1())
        .unwrap();
    let expected_last = scenario
        .evaluate_asic(&estimator, &greenfpga::industry_asic2())
        .unwrap();
    // Each device's `cfp` member is the direct breakdown's encoding.
    let total = |device: gf_json::Node<'_>| {
        let cfp = device.get("cfp").and_then(|cfp| cfp.get("total_kg"));
        cfp.and_then(|total| total.as_f64()).map(f64::to_bits)
    };
    assert_eq!(
        total(devices[0]),
        Some(expected_first.total().as_kg().to_bits())
    );
    assert_eq!(
        total(devices[3]),
        Some(expected_last.total().as_kg().to_bits())
    );
    assert!(text.contains(&format!(r#""cfp":{}}}"#, encoded(&expected_first))));
    assert!(text.ends_with(&format!(r#""cfp":{}}}]}}"#, encoded(&expected_last))));
    handle.shutdown();
}

#[test]
fn every_query_kind_is_servable_over_the_wire() {
    // The acceptance sweep: send a decodable request to every /v1/<kind>
    // route (POST with a minimal body, or a bare GET for the catalog) and
    // require a 200 whose body is the in-process encoding of the same
    // request's result.
    let handle = spawn_server();
    let mut client = connect(&handle);
    for kind in QueryKind::ALL {
        let body = match kind {
            QueryKind::Batch => r#"{"domain": "dnn", "points": [{"applications": 2}]}"#.to_string(),
            QueryKind::Compare => r#"{"scenarios": [{"domain": "dnn"}]}"#.to_string(),
            QueryKind::Sweep => {
                r#"{"domain": "dnn", "axis": "apps", "from": 1, "to": 4, "steps": 3}"#.to_string()
            }
            QueryKind::MonteCarlo => r#"{"domain": "dnn", "samples": 8}"#.to_string(),
            QueryKind::Industry => "{}".to_string(),
            QueryKind::Frontier | QueryKind::Grid => r#"{"domain": "dnn", "steps": 4}"#.to_string(),
            QueryKind::Scenario | QueryKind::Replay => r#"{"id": "dnn_baseline"}"#.to_string(),
            QueryKind::Optimize => r#"{"domain": "dnn", "objective": {"goal": "min_total"},
                "search": [{"axis": "apps", "min": 1, "max": 8}]}"#
                .to_string(),
            _ => r#"{"domain": "dnn"}"#.to_string(),
        };
        let (status, text) = if kind.method() == "GET" {
            client.get(kind.path()).expect("round-trip")
        } else {
            client.post(kind.path(), &body).expect("round-trip")
        };
        assert_eq!(status, 200, "{kind}: {text}");
        let body = if kind.method() == "GET" { "{}" } else { &body };
        let query = kind.decode_body(body, ParseLimits::default()).unwrap();
        assert_eq!(text, in_process(&query), "{kind}");
    }
    handle.shutdown();
}

#[test]
fn non_finite_results_answer_422_model_not_500() {
    let handle = spawn_server();
    let mut client = connect(&handle);
    let (status, body) = client
        .post(
            QueryKind::Sweep.path(),
            r#"{"domain":"dnn","axis":"volume","from":1e300,"to":1.7e308,"steps":4}"#,
        )
        .expect("sweep round-trip");
    assert_eq!(status, 422, "{body}");
    let error = gf_json::parse(&body).unwrap();
    let code = error.get("error").and_then(|e| e.get("code"));
    assert_eq!(code.and_then(Value::as_str), Some("model"), "{body}");
    handle.shutdown();
}
