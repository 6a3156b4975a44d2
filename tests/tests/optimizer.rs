//! Acceptance suite for the inverse-query optimizer.
//!
//! The anchor property: for **every catalog scenario × objective pair**
//! the optimizer's argmin must match a brute-force dense-sweep oracle —
//! bit-identically at the box vertices the analytic tier enumerates, and
//! never worse than the dense lattice. On top of that: constrained
//! argmins against a constrained oracle, the `Infeasible` → `model` error
//! taxonomy end to end, byte-golden wire responses on both event-loop
//! drivers, and determinism across `eval_threads` counts.

use gf_json::{FromJson, JsonWriter, ToJson};
use gf_server::client::Client;
use gf_server::{DriverKind, Server, ServerConfig, ServerHandle};
use greenfpga::api::{OptimizeRequest, Query, QueryKind, ReplayRequest};
use greenfpga::{
    catalog, ApiErrorCode, CompiledScenario, Constraint, Engine, EngineConfig, Objective,
    OperatingPoint, OptPlatform, ScenarioRef, SearchKnob, SolverKind, SweepAxis,
};

/// Samples per axis in the dense oracle — a two-knob sweep is at most
/// 65 × 65 = 4225 evaluations.
const ORACLE_SAMPLES: usize = 65;

fn compiled_entry(entry: &greenfpga::CatalogEntry) -> CompiledScenario {
    CompiledScenario::compile(&entry.scenario.params(), entry.scenario.domain)
        .expect("catalog scenario compiles")
}

/// The per-axis oracle grid: every integer in the box for integer axes
/// (capped at `ORACLE_SAMPLES` evenly spaced integers for wide boxes),
/// `ORACLE_SAMPLES` evenly spaced reals otherwise. Endpoints exact.
fn oracle_grid(knob: &SearchKnob) -> Vec<f64> {
    let mut values = Vec::new();
    if knob.effective_integer() {
        let lo = knob.min.ceil() as u64;
        let hi = knob.max.floor() as u64;
        let span = hi - lo + 1;
        if span as usize <= ORACLE_SAMPLES {
            values.extend((lo..=hi).map(|v| v as f64));
        } else {
            for i in 0..ORACLE_SAMPLES {
                let t = i as f64 / (ORACLE_SAMPLES - 1) as f64;
                let v = (lo as f64 + t * (hi - lo) as f64).round();
                values.push(v);
            }
            values.dedup();
        }
    } else {
        let step = (knob.max - knob.min) / (ORACLE_SAMPLES - 1) as f64;
        for i in 0..ORACLE_SAMPLES {
            values.push(if i == ORACLE_SAMPLES - 1 {
                knob.max
            } else {
                knob.min + step * i as f64
            });
        }
    }
    values
}

fn set_axis(mut point: OperatingPoint, axis: SweepAxis, value: f64) -> OperatingPoint {
    match axis {
        SweepAxis::Applications => point.applications = value as u64,
        SweepAxis::LifetimeYears => point.lifetime_years = value,
        SweepAxis::VolumeUnits => point.volume = value as u64,
        other => panic!("unsearchable axis {other:?}"),
    }
    point
}

/// Brute-force argmin over the full cartesian oracle lattice, scanning in
/// the same lexicographic-ascending order as the solver (first knob
/// outermost) and keeping the first strict minimum — the exact tie rule
/// the analytic tier uses. Returns `(min objective, argmin, evaluations)`;
/// infeasible lattice points are skipped.
fn dense_oracle(
    compiled: &CompiledScenario,
    base: OperatingPoint,
    objective: &Objective,
    search: &[SearchKnob],
    constraints: &[Constraint],
) -> (f64, OperatingPoint, u64) {
    let grids: Vec<Vec<f64>> = search.iter().map(oracle_grid).collect();
    oracle_scan(compiled, base, objective, search, constraints, &grids)
}

/// The oracle restricted to box vertices — the exact candidate set the
/// analytic tier enumerates, in the same order.
fn vertex_oracle(
    compiled: &CompiledScenario,
    base: OperatingPoint,
    objective: &Objective,
    search: &[SearchKnob],
) -> (f64, OperatingPoint, u64) {
    let grids: Vec<Vec<f64>> = search
        .iter()
        .map(|knob| {
            if knob.effective_integer() {
                vec![knob.min.ceil(), knob.max.floor()]
            } else {
                vec![knob.min, knob.max]
            }
        })
        .collect();
    oracle_scan(compiled, base, objective, search, &[], &grids)
}

fn oracle_scan(
    compiled: &CompiledScenario,
    base: OperatingPoint,
    objective: &Objective,
    search: &[SearchKnob],
    constraints: &[Constraint],
    grids: &[Vec<f64>],
) -> (f64, OperatingPoint, u64) {
    let mut index = vec![0usize; grids.len()];
    let mut best = f64::INFINITY;
    let mut argmin = base;
    let mut evals = 0u64;
    assert_eq!(grids.len(), search.len());
    loop {
        let mut point = base;
        for (knob, (grid, &i)) in search.iter().zip(grids.iter().zip(&index)) {
            point = set_axis(point, knob.axis, grid[i]);
        }
        let comparison = compiled.evaluate(point).expect("oracle evaluation");
        evals += 1;
        if constraints.iter().all(|c| c.satisfied(&comparison)) {
            let scalar = objective.scalar(&comparison);
            if scalar < best {
                best = scalar;
                argmin = point;
            }
        }
        // Odometer with the last axis fastest.
        let mut k = grids.len();
        loop {
            if k == 0 {
                return (best, argmin, evals);
            }
            k -= 1;
            index[k] += 1;
            if index[k] < grids[k].len() {
                break;
            }
            index[k] = 0;
        }
    }
}

fn two_knob_search() -> Vec<SearchKnob> {
    vec![
        SearchKnob {
            axis: SweepAxis::Applications,
            min: 1.0,
            max: 12.0,
            integer: true,
        },
        SearchKnob {
            axis: SweepAxis::LifetimeYears,
            min: 0.5,
            max: 4.0,
            integer: false,
        },
    ]
}

#[test]
fn analytic_argmin_matches_the_dense_oracle_on_every_catalog_scenario() {
    // Five affine objectives and the ratio × every catalog entry. The
    // analytic tier evaluates only box vertices, so it must land
    // bit-identically on the oracle's lattice minimum (the lattice contains
    // the vertices, and a function monotone along each axis attains its
    // box minimum at one).
    let objectives = [
        Objective::MinTotal(OptPlatform::Fpga),
        Objective::MinTotal(OptPlatform::Asic),
        Objective::MinOperational(OptPlatform::Fpga),
        Objective::MinEmbodied(OptPlatform::Asic),
        Objective::MaxFpgaMargin,
        Objective::MinRatio,
    ];
    let search = two_knob_search();
    for entry in catalog() {
        let compiled = compiled_entry(entry);
        for objective in &objectives {
            let (oracle_min, _, oracle_evals) =
                dense_oracle(&compiled, entry.point, objective, &search, &[]);
            let (vertex_min, vertex_argmin, _) =
                vertex_oracle(&compiled, entry.point, objective, &search);
            let outcome = compiled
                .optimize(entry.point, objective, &search, &[], 1e-6, 10_000, 1)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.id));
            assert_eq!(outcome.solver, SolverKind::Analytic, "{}", entry.id);
            // Bit-identical to the exhaustive vertex scan — same candidate
            // set, same tie rule, same kernel.
            assert_eq!(
                outcome.objective.to_bits(),
                vertex_min.to_bits(),
                "{} {objective:?}: optimizer {} vs vertex oracle {}",
                entry.id,
                outcome.objective,
                vertex_min
            );
            assert_eq!(outcome.point, vertex_argmin, "{} {objective:?}", entry.id);
            // And never worse than the dense lattice beyond rounding noise
            // (a multilinear objective can be flat along an axis, where an
            // interior lattice point may round 1 ULP under the vertex).
            assert!(
                outcome.objective <= oracle_min + 1e-12 * oracle_min.abs().max(1.0),
                "{} {objective:?}: optimizer {} vs dense oracle {}",
                entry.id,
                outcome.objective,
                oracle_min
            );
            // O(1): four vertices plus at most one certificate probe per
            // knob, against an oracle that swept the whole lattice.
            assert!(
                outcome.evaluations <= 8 && oracle_evals >= 700,
                "{}: {} evals vs oracle {}",
                entry.id,
                outcome.evaluations,
                oracle_evals
            );
            // The reported objective is the kernel's value at the argmin,
            // not the solver's internal arithmetic.
            let check = compiled.evaluate(outcome.point).unwrap();
            assert_eq!(
                objective.scalar(&check).to_bits(),
                outcome.objective.to_bits()
            );
        }
    }
}

#[test]
fn constrained_argmin_matches_the_constrained_oracle() {
    // An FPGA-wins constraint carves the box; the solver must stay inside
    // the feasible region and still match the constrained lattice optimum.
    let search = two_knob_search();
    let constraints = [Constraint::FpgaWins];
    let objective = Objective::MinTotal(OptPlatform::Asic);
    let mut constrained_entries = 0;
    for entry in catalog() {
        let compiled = compiled_entry(entry);
        let (oracle_min, _, _) =
            dense_oracle(&compiled, entry.point, &objective, &search, &constraints);
        let result = compiled.optimize(
            entry.point,
            &objective,
            &search,
            &constraints,
            1e-6,
            10_000,
            1,
        );
        if oracle_min.is_infinite() {
            // The whole lattice is infeasible: the solver must say so, not
            // return an out-of-region point.
            assert!(result.is_err(), "{}: expected infeasible", entry.id);
            continue;
        }
        constrained_entries += 1;
        let outcome = result.unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        assert_eq!(outcome.solver, SolverKind::Search, "{}", entry.id);
        let at_argmin = compiled.evaluate(outcome.point).unwrap();
        assert!(
            constraints.iter().all(|c| c.satisfied(&at_argmin)),
            "{}: argmin violates the constraint",
            entry.id
        );
        assert!(
            outcome.objective <= oracle_min * (1.0 + 1e-6),
            "{}: constrained search found {} but the lattice holds {}",
            entry.id,
            outcome.objective,
            oracle_min
        );
    }
    // The constraint must actually bind somewhere in the catalog, or this
    // test is vacuous.
    assert!(
        constrained_entries >= 3,
        "only {constrained_entries} feasible entries"
    );
}

#[test]
fn infeasible_budget_is_a_model_error_end_to_end() {
    // A 1 kg budget that no point in the box can meet: the engine maps
    // `GreenFpgaError::Infeasible` to the `model` taxonomy entry, which
    // serves as HTTP 422 / CLI exit 3.
    let request = OptimizeRequest {
        scenario: ScenarioRef::Catalog {
            id: "dnn_baseline".to_string(),
            knobs: Vec::new(),
        },
        point: None,
        objective: Objective::MeetBudget {
            platform: OptPlatform::Fpga,
            budget_kg: 1.0,
        },
        search: vec![SearchKnob {
            axis: SweepAxis::VolumeUnits,
            min: 1_000.0,
            max: 1_000_000.0,
            integer: true,
        }],
        constraints: Vec::new(),
        tolerance: OptimizeRequest::DEFAULT_TOLERANCE,
        max_evals: OptimizeRequest::DEFAULT_MAX_EVALS,
    };
    let engine = Engine::with_defaults().unwrap();
    let error = engine
        .run(&Query::Optimize(request.clone()))
        .expect_err("a 1 kg budget is unreachable");
    assert_eq!(error.code, ApiErrorCode::Model);
    assert_eq!(error.http_status(), 422);
    assert_eq!(error.exit_code(), 3);

    let handle = spawn_server(DriverKind::Auto);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let body = request.to_json().to_json_string().unwrap();
    let (status, text) = client
        .post(QueryKind::Optimize.path(), &body)
        .expect("round-trip");
    assert_eq!(status, 422, "{text}");
    assert!(text.contains("\"model\""), "{text}");
    handle.shutdown();
}

fn spawn_server(driver: DriverKind) -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        driver,
        idle_timeout: std::time::Duration::from_secs(2),
        ..ServerConfig::default()
    };
    Server::bind(config).expect("bind ephemeral server").spawn()
}

/// Catalog-reference requests: an unconstrained and a ratio problem solved
/// at the box vertices, and a binding `fpga_wins` constraint on the FPGA
/// total that only the search answers.
fn wire_requests() -> Vec<OptimizeRequest> {
    vec![
        OptimizeRequest {
            scenario: ScenarioRef::Catalog {
                id: "crypto_fleet_1m_5y".to_string(),
                knobs: Vec::new(),
            },
            point: None,
            objective: Objective::MinTotal(OptPlatform::Fpga),
            search: two_knob_search(),
            constraints: Vec::new(),
            tolerance: OptimizeRequest::DEFAULT_TOLERANCE,
            max_evals: OptimizeRequest::DEFAULT_MAX_EVALS,
        },
        OptimizeRequest {
            scenario: ScenarioRef::Catalog {
                id: "dnn_fleet_10k_3y".to_string(),
                knobs: Vec::new(),
            },
            point: None,
            objective: Objective::MinRatio,
            search: two_knob_search(),
            constraints: vec![Constraint::FpgaWins],
            tolerance: 1e-5,
            max_evals: 2_000,
        },
        OptimizeRequest {
            scenario: ScenarioRef::Catalog {
                id: "dnn_baseline".to_string(),
                knobs: Vec::new(),
            },
            point: None,
            objective: Objective::MinTotal(OptPlatform::Fpga),
            search: two_knob_search(),
            constraints: vec![Constraint::FpgaWins],
            tolerance: OptimizeRequest::DEFAULT_TOLERANCE,
            max_evals: OptimizeRequest::DEFAULT_MAX_EVALS,
        },
    ]
}

#[test]
fn served_optimize_responses_are_byte_golden_on_both_drivers() {
    // The served body must be byte-for-byte the engine's own encoding of
    // the same query — on the raw-epoll driver and the portable fallback.
    let engine = Engine::with_defaults().unwrap();
    for driver in [DriverKind::Epoll, DriverKind::Portable] {
        let handle = spawn_server(driver);
        let mut client = Client::connect(handle.addr()).expect("connect");
        for request in wire_requests() {
            let mut golden = JsonWriter::new();
            engine
                .run(&Query::Optimize(request.clone()))
                .expect("engine optimize")
                .write_result(&mut golden);
            let golden = golden.finish().expect("serialize golden");
            let body = request.to_json().to_json_string().unwrap();
            let (status, text) = client
                .post(QueryKind::Optimize.path(), &body)
                .expect("round-trip");
            assert_eq!(status, 200, "{driver:?}: {text}");
            assert_eq!(text, golden, "{driver:?}: served bytes diverge");
        }
        handle.shutdown();
    }
}

#[test]
fn optimize_request_wire_format_is_stable() {
    // Golden encodings: field order, omitted defaults, the `search` member
    // name. A change here is a wire-format break, not a refactor.
    let requests = wire_requests();
    let concise = requests[0].to_json().to_json_string().unwrap();
    assert_eq!(
        concise,
        r#"{"id":"crypto_fleet_1m_5y","knobs":{},"objective":{"goal":"min_total"},"search":[{"axis":"apps","min":1,"max":12,"integer":true},{"axis":"lifetime","min":0.5,"max":4}]}"#
    );
    let full = requests[1].to_json().to_json_string().unwrap();
    assert_eq!(
        full,
        r#"{"id":"dnn_fleet_10k_3y","knobs":{},"objective":{"goal":"min_ratio"},"search":[{"axis":"apps","min":1,"max":12,"integer":true},{"axis":"lifetime","min":0.5,"max":4}],"constraints":[{"kind":"fpga_wins"}],"tolerance":0.00001,"max_evals":2000}"#
    );
    for request in &requests {
        let text = request.to_json().to_json_string().unwrap();
        let decoded = OptimizeRequest::from_json(&gf_json::parse(&text).unwrap()).unwrap();
        assert_eq!(&decoded, request);
        assert_eq!(decoded.to_json().to_json_string().unwrap(), text);
    }
}

#[test]
fn optimize_is_deterministic_across_eval_thread_counts() {
    // The search tier fans batches across the worker pool; results must be
    // bit-identical (same bytes, same evaluation count) for every pool
    // size because batch results land by index. The FPGA-win constraint
    // binds on this request, so it reaches the search.
    let request = wire_requests().remove(2);
    let engine = Engine::with_defaults().unwrap();
    let argmin = |request: OptimizeRequest| match engine.run(&Query::Optimize(request)) {
        Ok(greenfpga::api::Outcome::Optimize(response)) => response.point,
        other => panic!("unexpected outcome {other:?}"),
    };
    let free = OptimizeRequest {
        constraints: Vec::new(),
        ..request.clone()
    };
    assert_ne!(
        argmin(free),
        argmin(request.clone()),
        "the constraint must move the argmin"
    );
    let mut goldens: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(EngineConfig {
            eval_threads: threads,
            ..EngineConfig::default()
        })
        .unwrap();
        let outcome = engine
            .run(&Query::Optimize(request.clone()))
            .expect("engine optimize");
        let greenfpga::api::Outcome::Optimize(response) = &outcome else {
            panic!("unexpected outcome {outcome:?}");
        };
        assert_eq!(response.solver, SolverKind::Search, "threads {threads}");
        goldens.push(response.to_json_string().unwrap());
    }
    assert_eq!(goldens[0], goldens[1], "1 vs 2 threads");
    assert_eq!(goldens[0], goldens[2], "1 vs 8 threads");
}

#[test]
fn replay_years_stitches_validates_and_stays_off_the_wire_when_one() {
    // Satellite: multi-year replay. `years` is omitted at its default of 1
    // (old clients and old goldens stay byte-stable), stitches the series
    // end-to-end when above 1, and must not exceed the device lifetime.
    let mut request = ReplayRequest {
        scenario: ScenarioRef::Catalog {
            id: "dnn_fleet_10k_3y".to_string(),
            knobs: Vec::new(),
        },
        point: None,
        series: greenfpga::SeriesRef::Region("solar_duck".to_string()),
        interpolate: false,
        years: 1,
    };
    let text = request.to_json().to_json_string().unwrap();
    assert!(!text.contains("years"), "{text}");
    let decoded = ReplayRequest::from_json(&gf_json::parse(&text).unwrap()).unwrap();
    assert_eq!(decoded.years, 1);

    request.years = 3;
    let text = request.to_json().to_json_string().unwrap();
    assert!(text.contains("\"years\":3"), "{text}");
    let decoded = ReplayRequest::from_json(&gf_json::parse(&text).unwrap()).unwrap();
    assert_eq!(decoded, request);

    let engine = Engine::with_defaults().unwrap();
    let single = match engine
        .run(&Query::Replay(ReplayRequest {
            years: 1,
            ..request.clone()
        }))
        .unwrap()
    {
        greenfpga::api::Outcome::Replay(response) => response,
        other => panic!("unexpected outcome {other:?}"),
    };
    let stitched = match engine.run(&Query::Replay(request.clone())).unwrap() {
        greenfpga::api::Outcome::Replay(response) => response,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert_eq!(stitched.replay.steps, 3 * single.replay.steps);
    // The engine walks the one-year series three times without copying
    // it; the result is bit for bit the replay of the stitched copy.
    let entry = greenfpga::catalog_entry("dnn_fleet_10k_3y").unwrap().1;
    let year = greenfpga::CarbonIntensitySeries::region("solar_duck").unwrap();
    for interpolate in [false, true] {
        let copied = year
            .repeat(3)
            .unwrap()
            .replay(&compiled_entry(entry), entry.point, interpolate)
            .unwrap();
        let walked = match engine
            .run(&Query::Replay(ReplayRequest {
                interpolate,
                ..request.clone()
            }))
            .unwrap()
        {
            greenfpga::api::Outcome::Replay(response) => response.replay,
            other => panic!("unexpected outcome {other:?}"),
        };
        assert_eq!(walked, copied, "interpolate={interpolate}");
    }

    // Validation: zero years, years beyond the lifetime and more than
    // `MAX_STEPS` replay steps are usage errors, reported before any
    // kernel work. The last two pass the lifetime check on a long-lived
    // point; the second is the probe that once aborted the process on a
    // 70 GB stitched copy.
    let long_lived = Some(OperatingPoint {
        lifetime_years: 1e6,
        ..entry.point
    });
    let past_cap = (ReplayRequest::MAX_STEPS / greenfpga::HOURS_PER_YEAR) as u64 + 1;
    for (years, point) in [
        (0u64, None),
        (10, None),
        (past_cap, long_lived),
        (1_000_000, long_lived),
    ] {
        let error = engine
            .run(&Query::Replay(ReplayRequest {
                years,
                point,
                ..request.clone()
            }))
            .expect_err("invalid years");
        assert_eq!(error.code, ApiErrorCode::BadRequest, "years={years}");
        assert!(error.message.contains("years"), "{}", error.message);
    }
}
