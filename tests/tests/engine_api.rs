//! Golden suite for the unified `Engine` facade and the versioned
//! `Query`/`Outcome` surface.
//!
//! Two families of guarantees:
//!
//! * **Bit-identity**: `Engine::run(Query::X)` must equal the direct
//!   `Estimator`/`CompiledScenario` call a library user would write, for
//!   every query kind — the facade adds caching and dispatch, never
//!   arithmetic.
//! * **Round-tripping**: every request type encodes to JSON, decodes back
//!   to an equal value, and re-encodes to the identical text (`gf_json`'s
//!   shortest-round-trip `f64` writer makes this a bit-level property).
//!   Results only encode: an outcome's envelope is its bare result wrapped
//!   byte for byte, and running the decoded query again encodes the same
//!   bytes.

use gf_json::{parse, Document, FromJson, JsonWriter, ParseLimits, ToJson};
use gf_support::SplitMix64;
use greenfpga::api::{
    CatalogRequest, CompareRequest, EvaluateRequest, GridRequest, IndustryRequest,
    MonteCarloRequest, OptimizeRequest, Outcome, Query, QueryKind, ReplayRequest, ScenarioRef,
    ScenarioRunRequest, SweepRequest, TornadoRequest,
};
use greenfpga::{
    catalog, ApiError, ApiErrorCode, CarbonIntensitySeries, CrossoverRequest, Domain, Engine,
    EngineConfig, Estimator, FrontierRequest, Knob, MonteCarlo, Objective, OperatingPoint,
    OptPlatform, ScenarioSpec, SearchKnob, SeriesRef, SweepAxis,
};

fn engine() -> Engine {
    Engine::with_defaults().expect("default engine")
}

fn scenario_cases() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::baseline(Domain::Dnn),
        ScenarioSpec::baseline(Domain::Crypto),
        ScenarioSpec {
            domain: Domain::ImageProcessing,
            knobs: vec![(Knob::DutyCycle, 0.45), (Knob::UsageGridIntensity, 650.0)],
        },
    ]
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
fn evaluate_and_compare_match_direct_compiled_calls() {
    let engine = engine();
    for scenario in scenario_cases() {
        let direct = Estimator::new(scenario.params())
            .compile(scenario.domain)
            .unwrap();
        for point in point_cases() {
            let Outcome::Evaluate(response) = engine
                .run(&Query::Evaluate(EvaluateRequest {
                    scenario: scenario.clone(),
                    point,
                }))
                .unwrap()
            else {
                panic!("wrong outcome kind");
            };
            let expected = direct.evaluate(point).unwrap();
            assert_eq!(response.comparison, expected);
            assert_eq!(
                response.comparison.fpga.total().as_kg().to_bits(),
                expected.fpga.total().as_kg().to_bits()
            );
        }
    }
    // Compare = one evaluate per scenario, in order.
    let scenarios = scenario_cases();
    let point = OperatingPoint::paper_default();
    let Outcome::Compare(compare) = engine
        .run(&Query::Compare(CompareRequest {
            scenarios: scenarios.clone(),
            point,
        }))
        .unwrap()
    else {
        panic!("wrong outcome kind");
    };
    for (scenario, comparison) in scenarios.iter().zip(&compare.comparisons) {
        let direct = Estimator::new(scenario.params())
            .compile(scenario.domain)
            .unwrap()
            .evaluate(point)
            .unwrap();
        assert_eq!(*comparison, direct);
    }
}

/// Application counts up to the decoder's 2^53 ceiling cost the same as a
/// handful: the closed-form kernel never loops over applications. A
/// per-application loop at ~1.5 ns per step would take seconds for the
/// 2^32 compare below and months for the 2^53 evaluate.
#[test]
fn huge_application_counts_evaluate_in_constant_time() {
    let engine = engine();
    let point = OperatingPoint {
        applications: 1 << 53,
        ..OperatingPoint::paper_default()
    };
    let started = std::time::Instant::now();
    let Outcome::Evaluate(response) = engine
        .run(&Query::Evaluate(EvaluateRequest {
            scenario: ScenarioSpec::baseline(Domain::Dnn),
            point,
        }))
        .unwrap()
    else {
        panic!("wrong outcome kind");
    };
    assert!(response.comparison.fpga.total().as_kg().is_finite());
    assert!(response.comparison.asic.total() > response.comparison.fpga.total());
    let Outcome::Compare(compare) = engine
        .run(&Query::Compare(CompareRequest {
            scenarios: scenario_cases(),
            point: OperatingPoint {
                applications: 4_294_967_297,
                ..point
            },
        }))
        .unwrap()
    else {
        panic!("wrong outcome kind");
    };
    assert_eq!(compare.comparisons.len(), scenario_cases().len());
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "huge application counts took {elapsed:?}"
    );
}

#[test]
fn batch_matches_the_direct_soa_kernel() {
    let engine = engine();
    let scenario = ScenarioSpec {
        domain: Domain::Dnn,
        knobs: vec![(Knob::FabGridIntensity, 120.0)],
    };
    let points: Vec<OperatingPoint> = (1..=32u64)
        .map(|i| OperatingPoint {
            applications: 1 + i % 7,
            lifetime_years: 0.25 * i as f64,
            volume: 5_000 * i,
        })
        .collect();
    let Outcome::Batch(response) = engine
        .run(&Query::Batch(greenfpga::BatchEvalRequest {
            scenario: scenario.clone(),
            points: points.clone(),
        }))
        .unwrap()
    else {
        panic!("wrong outcome kind");
    };
    let compiled = Estimator::new(scenario.params())
        .compile(scenario.domain)
        .unwrap();
    let mut buffer = greenfpga::ResultBuffer::new();
    compiled.evaluate_into(&points, &mut buffer).unwrap();
    assert_eq!(response.comparisons.len(), points.len());
    for (i, comparison) in response.comparisons.iter().enumerate() {
        assert_eq!(*comparison, buffer.comparison(i), "point {i}");
    }
}

#[test]
fn crossover_matches_the_direct_searches() {
    let engine = engine();
    for scenario in scenario_cases() {
        let request = CrossoverRequest::with_default_ranges(
            scenario.clone(),
            OperatingPoint::paper_default(),
        );
        let Outcome::Crossover(response) = engine.run(&Query::Crossover(request)).unwrap() else {
            panic!("wrong outcome kind");
        };
        let compiled = Estimator::new(scenario.params())
            .compile(scenario.domain)
            .unwrap();
        let base = OperatingPoint::paper_default();
        assert_eq!(
            response.applications,
            compiled
                .crossover_in_applications_verified(20, base.lifetime_years, base.volume)
                .unwrap()
        );
        assert_eq!(
            response.lifetime,
            compiled
                .crossover_in_lifetime_verified(base.applications, base.volume, 0.05, 5.0)
                .unwrap()
        );
        assert_eq!(
            response.volume,
            compiled
                .crossover_in_volume_verified(
                    base.applications,
                    base.lifetime_years,
                    1_000,
                    50_000_000
                )
                .unwrap()
        );
    }
}

#[test]
fn frontier_matches_the_direct_refiner_and_renderer() {
    let engine = engine();
    let request = FrontierRequest {
        scenario: ScenarioSpec::baseline(Domain::Dnn),
        base: OperatingPoint::paper_default(),
        x_axis: SweepAxis::Applications,
        x_range: (1.0, 16.0),
        y_axis: SweepAxis::LifetimeYears,
        y_range: (0.25, 3.0),
        steps: 16,
    };
    let Outcome::Frontier(response) = engine.run(&Query::Frontier(request.clone())).unwrap() else {
        panic!("wrong outcome kind");
    };
    let (x_values, y_values) = request.lattice();
    let direct = Estimator::default()
        .compile(Domain::Dnn)
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
    assert_eq!(response, direct);
    for (a, b) in response.lattice.x_values.iter().zip(&x_values) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn sweep_and_grid_match_the_direct_estimator() {
    let engine = engine();
    for scenario in scenario_cases() {
        let sweep = SweepRequest {
            scenario: scenario.clone(),
            base: OperatingPoint::paper_default(),
            axis: SweepAxis::LifetimeYears,
            range: (0.25, 4.0),
            steps: 9,
        };
        let Outcome::Sweep(series) = engine.run(&Query::Sweep(sweep.clone())).unwrap() else {
            panic!("wrong outcome kind");
        };
        let direct = Estimator::new(scenario.params())
            .compile(scenario.domain)
            .unwrap()
            .sweep_series(sweep.axis, &sweep.values(), sweep.base, 0)
            .unwrap();
        assert_eq!(series, direct, "{scenario:?}");

        let grid = GridRequest {
            scenario: scenario.clone(),
            base: OperatingPoint::paper_default(),
            x_axis: SweepAxis::Applications,
            x_range: (1.0, 6.0),
            y_axis: SweepAxis::VolumeUnits,
            y_range: (10_000.0, 1_000_000.0),
            steps: 6,
            stream: false,
        };
        let Outcome::Grid(served) = engine.run(&Query::Grid(grid.clone())).unwrap() else {
            panic!("wrong outcome kind");
        };
        let (x_values, y_values) = grid.lattice();
        let direct = Estimator::new(scenario.params())
            .compile(scenario.domain)
            .unwrap()
            .ratio_grid(grid.x_axis, &x_values, grid.y_axis, &y_values, grid.base, 0)
            .unwrap();
        assert_eq!(served, direct, "{scenario:?}");
    }
}

#[test]
fn tornado_montecarlo_and_industry_match_direct_calls() {
    let engine = engine();
    let scenario = ScenarioSpec {
        domain: Domain::Crypto,
        knobs: vec![(Knob::EolRecycledFraction, 0.9)],
    };
    let point = OperatingPoint::paper_default();
    let Outcome::Tornado(analysis) = engine
        .run(&Query::Tornado(TornadoRequest {
            scenario: scenario.clone(),
            point,
        }))
        .unwrap()
    else {
        panic!("wrong outcome kind");
    };
    assert_eq!(
        analysis,
        Estimator::new(scenario.params())
            .tornado_analysis(scenario.domain, point, 0)
            .unwrap()
    );

    let mc_request = MonteCarloRequest {
        scenario: scenario.clone(),
        point,
        samples: 48,
        seed: 7,
    };
    let Outcome::MonteCarlo(mc) = engine.run(&Query::MonteCarlo(mc_request)).unwrap() else {
        panic!("wrong outcome kind");
    };
    let direct = MonteCarlo::new(48)
        .with_seed(7)
        .run(&scenario.params(), scenario.domain, point)
        .unwrap();
    assert_eq!(mc, direct);

    let Outcome::Industry(industry) = engine
        .run(&Query::Industry(IndustryRequest::default()))
        .unwrap()
    else {
        panic!("wrong outcome kind");
    };
    let estimator = Estimator::default();
    let paper = greenfpga::IndustryScenario::paper_defaults();
    let expected = [
        paper
            .evaluate_fpga(&estimator, &greenfpga::industry_fpga1())
            .unwrap(),
        paper
            .evaluate_fpga(&estimator, &greenfpga::industry_fpga2())
            .unwrap(),
        paper
            .evaluate_asic(&estimator, &greenfpga::industry_asic1())
            .unwrap(),
        paper
            .evaluate_asic(&estimator, &greenfpga::industry_asic2())
            .unwrap(),
    ];
    assert_eq!(industry.devices.len(), expected.len());
    for (device, expected) in industry.devices.iter().zip(&expected) {
        assert_eq!(device.cfp, *expected, "{}", device.device);
    }
}

#[test]
fn tornado_is_bit_identical_across_eval_threads() {
    let request = Query::Tornado(TornadoRequest {
        scenario: ScenarioSpec {
            domain: Domain::Crypto,
            knobs: vec![(Knob::DutyCycle, 0.45)],
        },
        point: OperatingPoint::paper_default(),
    });
    let bars = |threads: usize| {
        let engine = Engine::new(EngineConfig {
            eval_threads: threads,
            ..EngineConfig::default()
        })
        .unwrap();
        let Outcome::Tornado(analysis) = engine.run(&request).unwrap() else {
            panic!("wrong outcome kind");
        };
        analysis
            .entries
            .iter()
            .map(|e| {
                let ratios = [e.ratio_at_low, e.ratio_at_high, e.ratio_at_baseline];
                (e.knob, ratios.map(f64::to_bits))
            })
            .collect::<Vec<_>>()
    };
    let serial = bars(1);
    assert_eq!(serial.len(), Knob::ALL.len());
    for threads in [2, 8] {
        assert_eq!(bars(threads), serial, "{threads} eval threads");
    }
}

#[test]
fn every_query_kind_runs_through_the_engine() {
    // Completeness: each of the fourteen kinds decodes from a minimal body
    // and runs to a matching outcome kind. A kind added to the enum without
    // an engine dispatch arm fails here.
    let engine = engine();
    assert_eq!(QueryKind::ALL.len(), 14);
    for kind in QueryKind::ALL {
        let body = match kind {
            QueryKind::Batch => r#"{"domain": "dnn", "points": [{"applications": 2}]}"#,
            QueryKind::Compare => r#"{"scenarios": [{"domain": "dnn"}]}"#,
            QueryKind::Sweep => {
                r#"{"domain": "dnn", "axis": "apps", "from": 1, "to": 4, "steps": 3}"#
            }
            QueryKind::MonteCarlo => r#"{"domain": "dnn", "samples": 8}"#,
            QueryKind::Industry | QueryKind::Catalog => "{}",
            QueryKind::Frontier | QueryKind::Grid => r#"{"domain": "dnn", "steps": 4}"#,
            QueryKind::Scenario | QueryKind::Replay => r#"{"id": "dnn_baseline"}"#,
            QueryKind::Optimize => {
                r#"{"domain": "dnn", "objective": {"goal": "min_total"},
                    "search": [{"axis": "apps", "min": 1, "max": 8}]}"#
            }
            _ => r#"{"domain": "dnn"}"#,
        };
        let query = kind.decode_request(&parse(body).unwrap()).unwrap();
        assert_eq!(query.kind(), kind);
        let outcome = engine.run(&query).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(outcome.kind(), kind);
        // The route path is derived from the same enumeration.
        assert_eq!(QueryKind::from_path(kind.path()), Some(kind));
    }
}

/// A random but valid query of the given kind — test-data generator for
/// the round-trip properties.
fn random_query(kind: QueryKind, rng: &mut SplitMix64) -> Query {
    let domain = Domain::ALL[(rng.next_u64() % 3) as usize];
    let mut scenario = ScenarioSpec::baseline(domain);
    if rng.next_u64().is_multiple_of(2) {
        scenario
            .knobs
            .push((Knob::DutyCycle, rng.gen_range_f64(0.05, 0.95)));
    }
    let point = OperatingPoint {
        applications: 1 + rng.next_u64() % 20,
        lifetime_years: rng.gen_range_f64(0.1, 6.0),
        volume: 1 + rng.next_u64() % 10_000_000,
    };
    match kind {
        QueryKind::Evaluate => Query::Evaluate(EvaluateRequest { scenario, point }),
        QueryKind::Batch => Query::Batch(greenfpga::BatchEvalRequest {
            scenario,
            points: (0..1 + rng.next_u64() % 5)
                .map(|i| OperatingPoint {
                    applications: 1 + i,
                    lifetime_years: rng.gen_range_f64(0.1, 4.0),
                    volume: 1 + rng.next_u64() % 1_000_000,
                })
                .collect(),
        }),
        QueryKind::Compare => Query::Compare(CompareRequest {
            scenarios: vec![scenario, ScenarioSpec::baseline(Domain::Dnn)],
            point,
        }),
        QueryKind::Crossover => Query::Crossover(CrossoverRequest {
            max_applications: 1 + rng.next_u64() % 30,
            lifetime_range: (0.05, rng.gen_range_f64(1.0, 8.0)),
            volume_range: (1_000, 1_000 + rng.next_u64() % 50_000_000),
            ..CrossoverRequest::with_default_ranges(scenario, point)
        }),
        QueryKind::Frontier => Query::Frontier(FrontierRequest {
            scenario,
            base: point,
            x_axis: SweepAxis::Applications,
            x_range: (1.0, rng.gen_range_f64(4.0, 32.0)),
            y_axis: SweepAxis::LifetimeYears,
            y_range: (0.25, rng.gen_range_f64(1.0, 4.0)),
            steps: 2 + (rng.next_u64() % 30) as usize,
        }),
        QueryKind::Sweep => Query::Sweep(SweepRequest {
            scenario,
            base: point,
            axis: [
                SweepAxis::Applications,
                SweepAxis::LifetimeYears,
                SweepAxis::VolumeUnits,
            ][(rng.next_u64() % 3) as usize],
            range: (1.0, rng.gen_range_f64(2.0, 64.0)),
            steps: 2 + (rng.next_u64() % 50) as usize,
        }),
        QueryKind::Grid => Query::Grid(GridRequest {
            scenario,
            base: point,
            x_axis: SweepAxis::VolumeUnits,
            x_range: (1_000.0, rng.gen_range_f64(10_000.0, 1e7)),
            y_axis: SweepAxis::Applications,
            y_range: (1.0, rng.gen_range_f64(2.0, 16.0)),
            steps: 2 + (rng.next_u64() % 20) as usize,
            stream: false,
        }),
        QueryKind::Tornado => Query::Tornado(TornadoRequest { scenario, point }),
        QueryKind::MonteCarlo => Query::MonteCarlo(MonteCarloRequest {
            scenario,
            point,
            samples: 1 + (rng.next_u64() % 512) as usize,
            seed: rng.next_u64() >> 12, // keep below 2^53 for exact JSON
        }),
        QueryKind::Industry => Query::Industry(IndustryRequest {
            knobs: vec![(Knob::UsageGridIntensity, rng.gen_range_f64(50.0, 800.0))],
            service_years: rng.gen_range_f64(1.0, 10.0),
            fpga_applications: 1 + rng.next_u64() % 6,
            volume: 1 + rng.next_u64() % 5_000_000,
        }),
        QueryKind::Scenario => Query::Scenario(ScenarioRunRequest {
            scenario: if rng.next_u64().is_multiple_of(2) {
                ScenarioRef::Inline(scenario)
            } else {
                random_catalog_ref(rng)
            },
            point: rng.next_u64().is_multiple_of(2).then_some(point),
        }),
        QueryKind::Replay => Query::Replay(ReplayRequest {
            scenario: random_catalog_ref(rng),
            point: rng.next_u64().is_multiple_of(2).then_some(point),
            series: if rng.next_u64().is_multiple_of(2) {
                SeriesRef::Region(
                    CarbonIntensitySeries::REGIONS[(rng.next_u64() % 4) as usize].to_string(),
                )
            } else {
                SeriesRef::Inline(
                    CarbonIntensitySeries::new(
                        (0..24).map(|_| rng.gen_range_f64(20.0, 900.0)).collect(),
                        1.0,
                    )
                    .unwrap(),
                )
            },
            interpolate: rng.next_u64().is_multiple_of(2),
            years: 1,
        }),
        QueryKind::Optimize => Query::Optimize(OptimizeRequest {
            scenario: if rng.next_u64().is_multiple_of(2) {
                ScenarioRef::Inline(scenario)
            } else {
                random_catalog_ref(rng)
            },
            point: rng.next_u64().is_multiple_of(2).then_some(point),
            // Unconstrained objectives only: the generated query must both
            // round-trip and run, and a random constraint can be infeasible.
            objective: [
                Objective::MinTotal(OptPlatform::Fpga),
                Objective::MinOperational(OptPlatform::Asic),
                Objective::MinEmbodied(OptPlatform::Fpga),
                Objective::MaxFpgaMargin,
                Objective::MinRatio,
            ][(rng.next_u64() % 5) as usize],
            search: {
                let mut knobs = vec![SearchKnob {
                    axis: SweepAxis::Applications,
                    min: 1.0,
                    max: (2 + rng.next_u64() % 19) as f64,
                    integer: true,
                }];
                if rng.next_u64().is_multiple_of(2) {
                    knobs.push(SearchKnob {
                        axis: SweepAxis::LifetimeYears,
                        min: 0.25,
                        max: rng.gen_range_f64(1.0, 6.0),
                        integer: false,
                    });
                }
                knobs
            },
            constraints: Vec::new(),
            tolerance: OptimizeRequest::DEFAULT_TOLERANCE,
            max_evals: if rng.next_u64().is_multiple_of(2) {
                OptimizeRequest::DEFAULT_MAX_EVALS
            } else {
                500 + rng.next_u64() % 2_000
            },
        }),
        QueryKind::Catalog => Query::Catalog(CatalogRequest),
    }
}

/// A random catalog reference, half the time carrying a knob override.
fn random_catalog_ref(rng: &mut SplitMix64) -> ScenarioRef {
    let entries = catalog();
    ScenarioRef::Catalog {
        id: entries[(rng.next_u64() as usize) % entries.len()]
            .id
            .to_string(),
        knobs: if rng.next_u64().is_multiple_of(2) {
            vec![(Knob::DutyCycle, rng.gen_range_f64(0.05, 0.95))]
        } else {
            Vec::new()
        },
    }
}

#[test]
fn query_envelopes_round_trip_bit_for_bit() {
    let mut rng = SplitMix64::new(0xA11CE);
    for round in 0..40 {
        for kind in QueryKind::ALL {
            let query = random_query(kind, &mut rng);
            let text = query.to_json().to_json_string().unwrap();
            let decoded = Query::from_json(&parse(&text).unwrap())
                .unwrap_or_else(|e| panic!("round {round} {kind}: {e}\n{text}"));
            assert_eq!(decoded, query, "round {round} {kind}");
            // encode -> decode -> encode is a fixed point.
            let again = decoded.to_json().to_json_string().unwrap();
            assert_eq!(again, text, "round {round} {kind}");
            // The flat request body decodes through the route-side path too.
            let body = query.request_body().to_json_string().unwrap();
            let via_route = kind.decode_request(&parse(&body).unwrap()).unwrap();
            assert_eq!(via_route, query, "round {round} {kind} (route body)");
        }
    }
}

#[test]
fn outcome_envelopes_round_trip_bit_for_bit() {
    // Outcomes carry real model numbers; run cheap queries and round-trip
    // their outcomes. Heavy kinds get small sizes.
    let engine = engine();
    let mut rng = SplitMix64::new(0xB0B);
    for kind in QueryKind::ALL {
        let query = match kind {
            QueryKind::MonteCarlo => Query::MonteCarlo(MonteCarloRequest {
                scenario: ScenarioSpec::baseline(Domain::Dnn),
                point: OperatingPoint::paper_default(),
                samples: 16,
                seed: 3,
            }),
            QueryKind::Frontier | QueryKind::Grid | QueryKind::Sweep => {
                let mut query = random_query(kind, &mut rng);
                match &mut query {
                    Query::Frontier(r) => r.steps = 5,
                    Query::Grid(r) => r.steps = 4,
                    Query::Sweep(r) => r.steps = 4,
                    _ => unreachable!(),
                }
                query
            }
            _ => random_query(kind, &mut rng),
        };
        let outcome = engine.run(&query).unwrap();
        let result = result_text(&outcome);
        // The envelope is the bare result wrapped, byte for byte.
        let text = outcome.to_json_string().unwrap();
        assert_eq!(
            text,
            format!(r#"{{"v":1,"kind":"{kind}","result":{result}}}"#),
            "{kind}"
        );
        // The query's envelope decodes to a query that runs to an equal
        // outcome, which encodes to the same bytes.
        let envelope = query.to_json_string().unwrap();
        let doc = Document::parse(&envelope, ParseLimits::default()).unwrap();
        let rerun = engine.run(&Query::from_node(doc.root()).unwrap()).unwrap();
        assert_eq!(rerun, outcome, "{kind}");
        assert_eq!(result_text(&rerun), result, "{kind}");
        // The tape reads the result back as one well-formed document.
        let doc = Document::parse(&result, ParseLimits::default()).unwrap();
        assert!(doc.root().members().is_some(), "{kind}: {result}");
    }
}

/// The bare result body of an outcome, as the matching route writes it.
fn result_text(outcome: &Outcome) -> String {
    let mut w = JsonWriter::new();
    outcome.write_result(&mut w);
    w.finish().unwrap()
}

#[test]
fn api_errors_round_trip_and_envelope_rejects_garbage() {
    for code in ApiErrorCode::ALL {
        let error = ApiError::new(code, format!("probe \"{code}\""));
        assert_eq!(
            error.to_json_string().unwrap(),
            format!(
                r#"{{"error":{{"code":"{code}","message":"probe \"{code}\"","retryable":{}}}}}"#,
                error.retryable
            )
        );
    }
    // Unknown kinds and unsupported versions are schema errors.
    assert!(Query::from_json(&parse(r#"{"kind": "teleport", "domain": "dnn"}"#).unwrap()).is_err());
    assert!(
        Query::from_json(&parse(r#"{"v": 2, "kind": "evaluate", "domain": "dnn"}"#).unwrap())
            .is_err()
    );
    assert!(Query::from_json(&parse(r#"{"domain": "dnn"}"#).unwrap()).is_err());
}

#[test]
fn engine_errors_speak_the_taxonomy() {
    let engine = engine();
    // Model-level rejection: zero applications.
    let error = engine
        .run(&Query::Evaluate(EvaluateRequest {
            scenario: ScenarioSpec::baseline(Domain::Dnn),
            point: OperatingPoint {
                applications: 0,
                lifetime_years: 1.0,
                volume: 1,
            },
        }))
        .unwrap_err();
    assert_eq!(error.code, ApiErrorCode::Model);
    assert_eq!(error.http_status(), 422);
    assert_eq!(error.exit_code(), 3);
    assert!(!error.retryable);
    // Programmatic requests violating wire-level limits fail identically
    // to their HTTP counterparts instead of silently diverging.
    let too_many = engine
        .run(&Query::Compare(CompareRequest {
            scenarios: vec![ScenarioSpec::baseline(Domain::Dnn); 17],
            point: OperatingPoint::paper_default(),
        }))
        .unwrap_err();
    assert_eq!(too_many.code, ApiErrorCode::BadRequest);
    let big_seed = engine
        .run(&Query::MonteCarlo(MonteCarloRequest {
            scenario: ScenarioSpec::baseline(Domain::Dnn),
            point: OperatingPoint::paper_default(),
            samples: 8,
            seed: (1u64 << 53) + 1,
        }))
        .unwrap_err();
    assert_eq!(big_seed.code, ApiErrorCode::BadRequest);
    assert!(big_seed.message.contains("2^53"), "{big_seed}");
}

#[test]
fn out_of_range_requests_are_bad_requests_through_the_engine() {
    // Decoders check shape only; the range rules live in one `validate` per
    // request type, which the engine runs on every query. So each body below
    // decodes, and the engine — not the decoder — answers bad_request.
    let engine = engine();
    for (kind, body) in [
        (
            QueryKind::Sweep,
            r#""axis":"apps","from":5,"to":1,"steps":1"#,
        ),
        (QueryKind::Sweep, r#""axis":"apps","from":5,"to":1"#),
        (
            QueryKind::Sweep,
            r#""axis":"apps","from":1,"to":4,"steps":100001"#,
        ),
        (QueryKind::Grid, r#""steps":1"#),
        (QueryKind::Grid, r#""x_axis":"lifetime""#),
        (QueryKind::Frontier, r#""x_from":3,"x_to":2"#),
        (QueryKind::Frontier, r#""steps":1025"#),
        (QueryKind::MonteCarlo, r#""samples":0"#),
        (QueryKind::MonteCarlo, r#""seed":9007199254740992"#),
        (QueryKind::Industry, r#""service_years":0"#),
        (QueryKind::Industry, r#""volume":0"#),
        (QueryKind::Replay, r#""years":0"#),
    ] {
        let body = format!(r#"{{"domain":"dnn",{body}}}"#);
        let query = kind.decode_request(&parse(&body).unwrap()).unwrap();
        let error = engine.run(&query).unwrap_err();
        assert_eq!(error.code, ApiErrorCode::BadRequest, "{body}: {error}");
        assert!(query.validate().is_err(), "{body}");
    }
    let compare = Query::Compare(CompareRequest {
        scenarios: Vec::new(),
        point: OperatingPoint::paper_default(),
    });
    assert_eq!(
        engine.run(&compare).unwrap_err().code,
        ApiErrorCode::BadRequest
    );
    // The streamed grid path applies the same rules.
    let Query::Grid(grid) = QueryKind::Grid
        .decode_request(&parse(r#"{"domain":"dnn","steps":1}"#).unwrap())
        .unwrap()
    else {
        unreachable!("grid bodies decode to grid queries");
    };
    let Err(error) = engine.grid_stream(&grid) else {
        panic!("a one-step grid streamed");
    };
    assert_eq!(error.code, ApiErrorCode::BadRequest);
}

#[test]
fn non_finite_results_are_model_errors_naming_the_component() {
    let engine = engine();
    let body = r#"{"domain":"dnn","axis":"volume","from":1e300,"to":1.7e308,"steps":4}"#;
    let query = QueryKind::Sweep
        .decode_request(&parse(body).unwrap())
        .unwrap();
    let error = engine.run(&query).unwrap_err();
    assert_eq!(error.code, ApiErrorCode::Model, "{error}");
    assert_eq!(error.http_status(), 422);
    assert_eq!(error.exit_code(), 3);
    assert!(error.message.contains("sweep values"), "{error}");

    // A lifetime near f64::MAX overflows the operation footprint, on the
    // compiled kernel (evaluate) and the naive estimator (tornado) alike.
    let point = OperatingPoint {
        lifetime_years: 1e308,
        ..OperatingPoint::paper_default()
    };
    let scenario = ScenarioSpec::baseline(Domain::Dnn);
    for query in [
        Query::Evaluate(EvaluateRequest {
            scenario: scenario.clone(),
            point,
        }),
        Query::Tornado(TornadoRequest { scenario, point }),
    ] {
        let error = engine.run(&query).unwrap_err();
        assert_eq!(error.code, ApiErrorCode::Model, "{error}");
        assert!(error.message.contains("operation footprint"), "{error}");
    }

    // A carbon-intensity series near f64::MAX overflows the replay totals.
    let replay = QueryKind::Replay
        .decode_request(&parse(r#"{"domain":"dnn","series":{"points":[1e308,1e308]}}"#).unwrap())
        .unwrap();
    let error = engine.run(&replay).unwrap_err();
    assert_eq!(error.code, ApiErrorCode::Model, "{error}");
    assert!(error.message.contains("replay total"), "{error}");
}
