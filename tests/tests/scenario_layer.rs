//! Integration suite for the first-class scenario layer: the named
//! catalog, the time-series carbon replay, and the scored verdicts —
//! golden-matched bit-for-bit across the direct engine, the HTTP routes
//! (on both event-loop drivers), and the CLI's query path.
//!
//! Bit-identity works for the same reason as in `serve.rs`: the wire
//! format serializes `f64` with shortest round-trip formatting, so a
//! served body that equals the in-process encoding byte for byte carries
//! exactly the bits the engine produced.

use gf_json::{JsonWriter, Value};
use gf_server::client::Client;
use gf_server::{DriverKind, Server, ServerConfig, ServerHandle};
use greenfpga::api::{
    CatalogRequest, Query, QueryKind, ReplayRequest, ScenarioRef, ScenarioRunRequest,
};
use greenfpga::{
    catalog, catalog_entry, ApiErrorCode, CarbonIntensitySeries, Domain, Engine, EngineConfig,
    Estimator, OperatingPoint, Outcome, ScenarioSpec, SeriesRef, Verdict, HOURS_PER_YEAR,
};

fn spawn_server(driver: DriverKind) -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        idle_timeout: std::time::Duration::from_secs(2),
        driver,
        ..ServerConfig::default()
    };
    Server::bind(config).expect("bind ephemeral server").spawn()
}

/// The drivers available on this platform: the portable fallback always,
/// plus raw epoll where the OS provides it.
fn drivers() -> Vec<DriverKind> {
    if cfg!(target_os = "linux") {
        vec![DriverKind::Portable, DriverKind::Epoll]
    } else {
        vec![DriverKind::Portable]
    }
}

fn post(client: &mut Client, path: &str, body: &str) -> (u16, String) {
    client.post(path, body).expect("request round-trip")
}

/// The bare result body of an outcome, encoded in-process exactly as the
/// matching route writes it.
fn result_text(outcome: &Outcome) -> String {
    let mut w = JsonWriter::new();
    outcome.write_result(&mut w);
    w.finish().expect("results are finite")
}

/// The `error.message` member of an error body.
fn error_message(body: &str) -> String {
    let value = gf_json::parse(body).expect("error bodies are JSON");
    let message = value.get("error").and_then(|e| e.get("message"));
    message
        .and_then(Value::as_str)
        .expect("error message")
        .to_string()
}

/// A scenario query by catalog id, as the CLI builds it.
fn scenario_query(id: &str) -> Query {
    Query::Scenario(ScenarioRunRequest {
        scenario: ScenarioRef::Catalog {
            id: id.to_string(),
            knobs: Vec::new(),
        },
        point: None,
    })
}

#[test]
fn every_cataloged_id_matches_the_direct_computation() {
    // Golden outcome per cataloged id: running by name must equal
    // compiling the cataloged spec directly and scoring its comparison.
    let engine = Engine::with_defaults().unwrap();
    assert!(catalog().len() >= 12, "catalog has {}", catalog().len());
    for entry in catalog() {
        let Outcome::Scenario(served) = engine.run(&scenario_query(entry.id)).unwrap() else {
            panic!("{}: wrong outcome kind", entry.id);
        };
        let direct = Estimator::new(entry.scenario.params())
            .compile(entry.scenario.domain)
            .unwrap()
            .evaluate(entry.point)
            .unwrap();
        assert_eq!(served.id.as_deref(), Some(entry.id));
        assert_eq!(served.point, entry.point, "{}", entry.id);
        assert_eq!(served.comparison, direct, "{}", entry.id);
        assert_eq!(
            served.comparison.fpga.total().as_kg().to_bits(),
            direct.fpga.total().as_kg().to_bits(),
            "{}",
            entry.id
        );
        assert_eq!(
            served.verdict,
            Verdict::from_comparison(&direct),
            "{}",
            entry.id
        );
    }
}

#[test]
fn named_scenarios_are_bit_identical_across_http_cli_and_engine() {
    // One engine outcome per id, compared byte for byte against the served
    // body of both drivers. The CLI's `--json` document reindents these
    // same bytes (`Outcome::write_result`, then `gf_json::pretty`).
    let engine = Engine::with_defaults().unwrap();
    for driver in drivers() {
        let handle = spawn_server(driver);
        let mut client = Client::connect(handle.addr()).expect("connect");
        for entry in catalog() {
            let local = result_text(&engine.run(&scenario_query(entry.id)).unwrap());
            let body = format!(r#"{{"id": "{}"}}"#, entry.id);
            let (status, text) = post(&mut client, QueryKind::Scenario.path(), &body);
            assert_eq!(status, 200, "{driver:?} {}: {text}", entry.id);
            assert_eq!(text, local, "{driver:?} {}", entry.id);
        }
        handle.shutdown();
    }
}

#[test]
fn replay_and_catalog_routes_serve_golden_bodies_on_both_drivers() {
    let engine = Engine::with_defaults().unwrap();
    let replay_query = Query::Replay(ReplayRequest {
        scenario: ScenarioRef::Catalog {
            id: "crypto_fleet_1m_5y".to_string(),
            knobs: Vec::new(),
        },
        point: None,
        series: SeriesRef::Region("solar_duck".to_string()),
        interpolate: true,
        years: 1,
    });
    let replay = engine.run(&replay_query).unwrap();
    let Outcome::Replay(local_replay) = &replay else {
        panic!("wrong outcome kind");
    };
    assert_eq!(local_replay.replay.steps, HOURS_PER_YEAR as u64);
    let local_replay = result_text(&replay);
    let local_catalog = result_text(&engine.run(&Query::Catalog(CatalogRequest)).unwrap());
    assert!(local_catalog.starts_with(r#"{"entries":[{"domain":"#));
    for driver in drivers() {
        let handle = spawn_server(driver);
        let mut client = Client::connect(handle.addr()).expect("connect");
        let body = r#"{"id": "crypto_fleet_1m_5y", "series": "solar_duck", "interpolate": true}"#;
        let (status, text) = post(&mut client, QueryKind::Replay.path(), body);
        assert_eq!(status, 200, "{driver:?}: {text}");
        assert_eq!(text, local_replay, "{driver:?}");
        // A million-year replay on a million-year point is a 400 naming
        // `years`, and the server keeps serving.
        let probe = r#"{"id": "dnn_baseline", "series": "solar_duck", "years": 1000000,
            "point": {"applications": 5, "lifetime_years": 1000000, "volume": 1000000}}"#;
        let (status, text) = post(&mut client, QueryKind::Replay.path(), probe);
        assert_eq!(status, 400, "{driver:?}: {text}");
        let message = error_message(&text);
        assert!(message.contains("years"), "{driver:?}: {message}");
        let (status, text) = post(&mut client, QueryKind::Replay.path(), body);
        assert_eq!(status, 200, "{driver:?}: {text}");
        assert_eq!(text, local_replay, "{driver:?}");

        let (status, text) = client.get(QueryKind::Catalog.path()).expect("catalog GET");
        assert_eq!(status, 200, "{driver:?}: {text}");
        assert_eq!(text, local_catalog, "{driver:?}");
        let doc = gf_json::Document::parse(&text, gf_json::ParseLimits::default()).unwrap();
        let entries = doc.root().get("entries").and_then(|e| e.items());
        assert_eq!(entries.map(|e| e.len()), Some(catalog().len()));
        // POSTing the GET-only route is a 405, not a decode error.
        let (status, text) = post(&mut client, QueryKind::Catalog.path(), "{}");
        assert_eq!(status, 405, "{driver:?}: {text}");
        handle.shutdown();
    }
}

#[test]
fn repeated_named_scenario_requests_hit_the_compiled_cache() {
    let engine = Engine::with_defaults().unwrap();
    let misses = |engine: &Engine| -> u64 { engine.cache_metrics().misses };
    let hits = |engine: &Engine| -> u64 { engine.cache_metrics().hits };
    engine.run(&scenario_query("dnn_fleet_10k_3y")).unwrap();
    let misses_after_first = misses(&engine);
    assert_eq!(misses_after_first, 1, "first run compiles");
    for _ in 0..5 {
        engine.run(&scenario_query("dnn_fleet_10k_3y")).unwrap();
    }
    assert_eq!(misses(&engine), misses_after_first, "no recompilation");
    assert_eq!(hits(&engine), 5, "every repeat hits the cache");
    // Replay traffic for the same id shares the same compiled entry.
    engine
        .run(&Query::Replay(ReplayRequest {
            scenario: ScenarioRef::Catalog {
                id: "dnn_fleet_10k_3y".to_string(),
                knobs: Vec::new(),
            },
            point: None,
            series: SeriesRef::Region(ReplayRequest::DEFAULT_REGION.to_string()),
            interpolate: false,
            years: 1,
        }))
        .unwrap();
    assert_eq!(misses(&engine), misses_after_first);
    assert_eq!(hits(&engine), 6);
}

#[test]
fn replay_is_deterministic_across_engine_thread_counts() {
    // The replay loop is serial by construction; engines configured with
    // different eval-thread counts must produce bit-identical outcomes.
    let outcomes: Vec<greenfpga::api::ReplayResponse> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let engine = Engine::new(EngineConfig {
                eval_threads: threads,
                ..EngineConfig::default()
            })
            .unwrap();
            let Outcome::Replay(response) = engine
                .run(&Query::Replay(ReplayRequest {
                    scenario: ScenarioRef::Catalog {
                        id: "dnn_hyperscale_10m_4y".to_string(),
                        knobs: Vec::new(),
                    },
                    point: None,
                    series: SeriesRef::Region("dirty_coal".to_string()),
                    interpolate: true,
                    years: 1,
                }))
                .unwrap()
            else {
                panic!("wrong outcome kind");
            };
            response
        })
        .collect();
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[0], outcomes[2]);
    assert_eq!(
        outcomes[0].replay.verdict.score.to_bits(),
        outcomes[1].replay.verdict.score.to_bits()
    );
}

#[test]
fn unknown_ids_regions_and_degenerate_series_speak_the_taxonomy() {
    let engine = Engine::with_defaults().unwrap();
    let error = engine.run(&scenario_query("warp_drive")).unwrap_err();
    assert_eq!(error.code, ApiErrorCode::NotFound);
    assert!(error.message.contains("warp_drive"), "{error}");

    let error = engine
        .run(&Query::Replay(ReplayRequest {
            scenario: ScenarioRef::Catalog {
                id: "dnn_baseline".to_string(),
                knobs: Vec::new(),
            },
            point: None,
            series: SeriesRef::Region("mars_colony".to_string()),
            interpolate: false,
            years: 1,
        }))
        .unwrap_err();
    assert_eq!(error.code, ApiErrorCode::BadRequest);
    assert!(error.message.contains("mars_colony"), "{error}");

    // Series validation happens at decode time, naming the series field.
    for bad in [
        r#"{"id": "dnn_baseline", "series": {"points": []}}"#,
        r#"{"id": "dnn_baseline", "series": {"points": [100.0, -5.0]}}"#,
        r#"{"id": "dnn_baseline", "series": {"points": [100.0], "step_hours": 0}}"#,
    ] {
        let error = QueryKind::Replay
            .decode_request(&gf_json::parse(bad).unwrap())
            .unwrap_err();
        assert!(error.to_string().contains("series"), "{bad}: {error}");
    }
}

#[test]
fn duplicate_knob_ids_are_rejected_at_the_wire_naming_the_knob() {
    // Satellite 1: the wire decoder rejects a knob overridden twice with a
    // bad_request naming the id — for inline specs, catalog overrides and
    // the industry request alike.
    for (kind, body) in [
        (
            QueryKind::Evaluate,
            r#"{"domain": "dnn", "knobs": {"duty_cycle": 0.2, "duty_cycle": 0.4}}"#,
        ),
        (
            QueryKind::Scenario,
            r#"{"id": "dnn_baseline", "knobs": {"duty_cycle": 0.2, "duty_cycle": 0.4}}"#,
        ),
        (
            QueryKind::Industry,
            r#"{"knobs": {"usage_grid_intensity": 100, "usage_grid_intensity": 50}}"#,
        ),
    ] {
        let error = kind
            .decode_request(&gf_json::parse(body).unwrap())
            .unwrap_err();
        let message = error.to_string();
        assert!(message.contains("more than once"), "{kind}: {message}");
        assert!(
            message.contains("duty_cycle") || message.contains("usage_grid_intensity"),
            "{kind}: {message}"
        );
    }
}

#[test]
fn catalog_point_overrides_merge_after_the_cataloged_knobs() {
    // A request-level override on a catalog id must behave exactly like an
    // inline spec whose knob list is the cataloged list plus the override.
    let engine = Engine::with_defaults().unwrap();
    let (_, entry) = catalog_entry("fpga_worst_dirty_grid").unwrap();
    let override_point = OperatingPoint {
        applications: 3,
        lifetime_years: 1.5,
        volume: 20_000,
    };
    let Outcome::Scenario(served) = engine
        .run(&Query::Scenario(ScenarioRunRequest {
            scenario: ScenarioRef::Catalog {
                id: entry.id.to_string(),
                knobs: vec![(greenfpga::Knob::DutyCycle, 0.12)],
            },
            point: Some(override_point),
        }))
        .unwrap()
    else {
        panic!("wrong outcome kind");
    };
    let mut spec = entry.scenario.clone();
    spec.knobs.push((greenfpga::Knob::DutyCycle, 0.12));
    let direct = Estimator::new(spec.params())
        .compile(spec.domain)
        .unwrap()
        .evaluate(override_point)
        .unwrap();
    assert_eq!(served.comparison, direct);
    assert_eq!(served.point, override_point);
}

#[test]
fn constant_replay_agrees_with_the_scalar_path_for_every_domain() {
    // Replaying a flat series at the compiled scalar intensity must land
    // within rounding-shape tolerance of the scalar operation totals —
    // the replay is a parallel path, not a different model.
    let engine = Engine::with_defaults().unwrap();
    for domain in Domain::ALL {
        let spec = ScenarioSpec::baseline(domain);
        let point = OperatingPoint::paper_default();
        let params = spec.params();
        let grid = params.deployment().usage_grid.as_grams_per_kwh();
        let compiled = Estimator::new(params).compile(domain).unwrap();
        let flat = CarbonIntensitySeries::new(vec![grid; HOURS_PER_YEAR], 1.0).unwrap();
        let Outcome::Replay(served) = engine
            .run(&Query::Replay(ReplayRequest {
                scenario: ScenarioRef::Inline(spec),
                point: Some(point),
                series: SeriesRef::Inline(flat),
                interpolate: false,
                years: 1,
            }))
            .unwrap()
        else {
            panic!("wrong outcome kind");
        };
        // One replayed year at the scalar intensity ≈ one year of the
        // scalar per-device operation rate for the same deployment
        // (8760 h vs the calendar-year constant).
        let devices = point.volume * compiled.fpga().chips_per_unit();
        let scalar_year = compiled.fpga().operation_kg_per_device_year()
            * devices as f64
            * point.applications as f64;
        let replayed = served.replay.fpga_operational.as_kg();
        let relative = (replayed - scalar_year).abs() / scalar_year;
        assert!(relative < 2e-3, "{domain}: relative error {relative}");
    }
}
