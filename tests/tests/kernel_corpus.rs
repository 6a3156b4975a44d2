//! Frozen kernel corpus (`tests/kernel_corpus.txt`, one `<name> <json>`
//! case per line): the exact outcome bytes of the compute kernels behind
//! `POST /v1/replay`, `POST /v1/montecarlo` and `POST /v1/grid`, over
//! inputs wide enough that a wrong wrap, a reordered sum, a changed
//! per-step, per-trial or per-cell operation, or a moved error shows.
//!
//! * replay: every region preset (the constant `global_flat` cannot show
//!   a wrong wrap or a per-step intensity, the other three can), stepwise
//!   and interpolated, 1–3 years, on three cataloged fleets;
//! * montecarlo: every domain, two seeds, 8 and 512 samples, plus one
//!   spec with knob overrides, each run at two engine thread counts;
//! * grid: every (x, y) axis pair (x == y included, where x wins) in every
//!   domain over fractional coordinates that round on the count axes,
//!   1×N and N×1 lattices, engine requests (one with knob overrides) and
//!   every error the `grid` route can answer. Each lattice is pinned
//!   buffered and streamed; the stream is drained at block heights that
//!   divide its rows and that do not, and every thread count must give
//!   the same bytes. A streamed body is the head, the row-blocks and the
//!   tail concatenated, or the fragments delivered before an error
//!   followed by `!` and the error body;
//! * frontier: every (x, y) axis pair in every domain over ascending,
//!   descending and non-monotone columns (the last take the cell-by-cell
//!   path), plus 1×N, N×1 and 2×5 lattices, built in process because the
//!   wire sends only square, ascending lattices. The cases hold rows with
//!   no flip and flips at the first and at the last column, and every
//!   lattice must give the same bytes at 1 and 3 threads.
//!
//! On a mismatch the produced corpus is written to
//! `target/tmp/kernel_corpus.txt` for inspection.

use std::path::PathBuf;

use greenfpga::api::{
    GridRequest, MonteCarloRequest, Query, ReplayRequest, ScenarioRef, SeriesRef,
};
use greenfpga::{
    ApiError, CarbonIntensitySeries, CompiledScenario, Domain, Engine, EngineConfig,
    FrontierResult, GridStream, Knob, OperatingPoint, ScenarioSpec, SweepAxis,
};

const CORPUS: &str = include_str!("../kernel_corpus.txt");

/// Cataloged fleets whose lifetimes admit a three-year replay.
const FLEETS: [&str; 3] = [
    "dnn_fleet_10k_3y",
    "crypto_fleet_1m_5y",
    "dnn_hyperscale_10m_4y",
];

const SEEDS: [u64; 2] = [1, 0x1F_FFFF_FFFF_FFFF];

fn engine(eval_threads: usize) -> Engine {
    Engine::new(EngineConfig {
        eval_threads,
        ..EngineConfig::default()
    })
    .unwrap()
}

fn outcome_text(engine: &Engine, query: &Query) -> String {
    let outcome = engine
        .run(query)
        .unwrap_or_else(|e| panic!("{query:?}: {e}"));
    gf_json::ToJson::to_json_string(&outcome).unwrap()
}

fn replay_cases() -> Vec<(String, Query)> {
    let mut cases = Vec::new();
    for fleet in FLEETS {
        for region in CarbonIntensitySeries::REGIONS {
            for interpolate in [false, true] {
                for years in 1..=3u64 {
                    let mode = if interpolate { "interp" } else { "step" };
                    cases.push((
                        format!("replay.{fleet}.{region}.{mode}.y{years}"),
                        Query::Replay(ReplayRequest {
                            scenario: ScenarioRef::Catalog {
                                id: fleet.to_string(),
                                knobs: Vec::new(),
                            },
                            point: None,
                            series: SeriesRef::Region(region.to_string()),
                            interpolate,
                            years,
                        }),
                    ));
                }
            }
        }
    }
    cases
}

fn montecarlo_cases() -> Vec<(String, Query)> {
    let mut cases = Vec::new();
    let mut push = |name: String, scenario: ScenarioSpec, samples: usize, seed: u64| {
        cases.push((
            name,
            Query::MonteCarlo(MonteCarloRequest {
                scenario,
                point: greenfpga::OperatingPoint::paper_default(),
                samples,
                seed,
            }),
        ));
    };
    for domain in Domain::ALL {
        for seed in SEEDS {
            for samples in [8, 512] {
                push(
                    format!("montecarlo.{}.s{seed}.n{samples}", domain.id()),
                    ScenarioSpec::baseline(domain),
                    samples,
                    seed,
                );
            }
        }
    }
    push(
        "montecarlo.crypto.knobs.s7.n512".to_string(),
        ScenarioSpec {
            domain: Domain::Crypto,
            knobs: vec![
                (Knob::DutyCycle, 0.45),
                (Knob::FabGridIntensity, 90.0),
                (Knob::EolRecycledFraction, 0.6),
            ],
        },
        512,
        7,
    );
    cases
}

const AXES: [SweepAxis; 3] = [
    SweepAxis::Applications,
    SweepAxis::LifetimeYears,
    SweepAxis::VolumeUnits,
];

fn axis_id(axis: SweepAxis) -> &'static str {
    match axis {
        SweepAxis::Applications => "apps",
        SweepAxis::LifetimeYears => "lifetime",
        _ => "volume",
    }
}

/// Column coordinates per axis: fractional counts that round down, up and
/// on a half (and below 1, which clamps), lifetimes from weeks to years.
fn columns(axis: SweepAxis) -> Vec<f64> {
    match axis {
        SweepAxis::Applications => vec![0.4, 1.5, 2.49, 2.5, 3.51, 7.0, 12.6],
        SweepAxis::LifetimeYears => vec![0.05, 0.5, 1.25, 2.0, 2.0, 3.3],
        _ => vec![0.7, 999.5, 2.5e4, 1e6 + 0.5, 1e6 + 0.5, 3.2e7],
    }
}

/// Row coordinates per axis, of a length no block height below divides.
fn rows(axis: SweepAxis) -> Vec<f64> {
    match axis {
        SweepAxis::Applications => vec![1.0, 2.5, 5.49, 9.5, 24.0],
        SweepAxis::LifetimeYears => vec![0.25, 0.75, 1.5, 2.5, 2.5],
        _ => vec![1.0, 5e3 + 0.5, 2e5, 4.5e6, 4.5e6],
    }
}

/// A streamed body: head, row-blocks and tail concatenated, or the
/// fragments before a failing block followed by `!` and the error body.
fn streamed_text(mut stream: GridStream) -> String {
    let mut text = stream.head_json().unwrap();
    while let Some(block) = stream.next_block() {
        match block {
            Ok(block) => text.push_str(&block.rows_json().unwrap()),
            Err(error) => {
                text.push('!');
                text.push_str(&error_text(&error.into()));
                return text;
            }
        }
    }
    text.push_str(&stream.tail_json().unwrap());
    text
}

fn error_text(error: &ApiError) -> String {
    gf_json::ToJson::to_json_string(error).unwrap()
}

/// The streamed text at the stream's own block height (what the server
/// sends), checked against every other block height and thread count:
/// a complete body must not change, and a failing one must fail with the
/// same error after a prefix of what one-row blocks deliver.
fn stream_all_ways(name: &str, start: impl Fn(usize) -> Result<GridStream, ApiError>) -> String {
    let pinned = match start(1) {
        Ok(stream) => streamed_text(stream),
        Err(error) => return format!("!{}", error_text(&error)),
    };
    let finest = streamed_text(start(1).unwrap().with_block_rows(1));
    for threads in [1, 3] {
        let rows = start(threads).unwrap().lattice().height();
        for block_rows in [1, 2, 3, rows] {
            let text = streamed_text(start(threads).unwrap().with_block_rows(block_rows));
            let at = format!("{name}: {threads} threads, {block_rows}-row blocks");
            match (text.split_once('!'), pinned.split_once('!')) {
                (None, None) => assert_eq!(text, pinned, "{at}"),
                (Some((delivered, error)), Some((_, pinned_error))) => {
                    assert_eq!(error, pinned_error, "{at}");
                    assert!(finest.starts_with(delivered), "{at}: delivered rows");
                }
                _ => panic!("{at}: {text} against {pinned}"),
            }
        }
    }
    pinned
}

/// In-process lattices: every axis pair in every domain, plus 1×N and
/// N×1 shapes, buffered at 1–3 threads and streamed.
fn lattice_lines() -> Vec<String> {
    let base = OperatingPoint {
        applications: 3,
        lifetime_years: 1.5,
        volume: 250_000,
    };
    let mut cases = Vec::new();
    for domain in Domain::ALL {
        for x_axis in AXES {
            for y_axis in AXES {
                cases.push((
                    format!(
                        "grid.{}.{}.{}",
                        domain.id(),
                        axis_id(x_axis),
                        axis_id(y_axis)
                    ),
                    domain,
                    (x_axis, columns(x_axis)),
                    (y_axis, rows(y_axis)),
                ));
            }
        }
    }
    for (x_axis, y_axis) in [
        (SweepAxis::Applications, SweepAxis::LifetimeYears),
        (SweepAxis::VolumeUnits, SweepAxis::Applications),
    ] {
        let (x, y) = (axis_id(x_axis), axis_id(y_axis));
        cases.push((
            format!("grid.dnn.1xN.{x}.{y}"),
            Domain::Dnn,
            (x_axis, vec![columns(x_axis)[3]]),
            (y_axis, rows(y_axis)),
        ));
        cases.push((
            format!("grid.dnn.Nx1.{x}.{y}"),
            Domain::Dnn,
            (x_axis, columns(x_axis)),
            (y_axis, vec![rows(y_axis)[2]]),
        ));
    }
    let mut lines = Vec::new();
    for (name, domain, (x_axis, x_values), (y_axis, y_values)) in cases {
        let compiled =
            CompiledScenario::compile(&ScenarioSpec::baseline(domain).params(), domain).unwrap();
        let buffered = |threads| {
            let grid = compiled
                .ratio_grid(x_axis, &x_values, y_axis, &y_values, base, threads)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            gf_json::ToJson::to_json_string(&grid).unwrap()
        };
        let text = buffered(1);
        for threads in [2, 3] {
            assert_eq!(buffered(threads), text, "{name}: {threads} threads");
        }
        let streamed = stream_all_ways(&name, |threads| {
            Ok(compiled.grid_stream(
                x_axis,
                x_values.clone(),
                y_axis,
                y_values.clone(),
                base,
                threads,
            )?)
        });
        assert_eq!(streamed, text, "{name}: streamed and buffered bodies");
        lines.push(format!("{name}.buffered {text}"));
        lines.push(format!("{name}.stream {streamed}"));
    }
    lines
}

/// Engine requests: a default request, fractional ranges, a spec with
/// knob overrides, and every error the route answers — range rules
/// (`bad_request`), an overflowing axis, a failing cell and a
/// non-finite cell (`model`).
fn grid_requests() -> Vec<(&'static str, GridRequest)> {
    let request = |domain: Domain| GridRequest {
        scenario: ScenarioSpec::baseline(domain),
        base: OperatingPoint::paper_default(),
        x_axis: SweepAxis::Applications,
        x_range: (1.0, 12.0),
        y_axis: SweepAxis::LifetimeYears,
        y_range: (0.25, 3.0),
        steps: 24,
        stream: false,
    };
    let knobs = ScenarioSpec {
        domain: Domain::Crypto,
        knobs: vec![
            (Knob::DutyCycle, 0.45),
            (Knob::FabGridIntensity, 90.0),
            (Knob::EolRecycledFraction, 0.6),
        ],
    };
    vec![
        ("dnn.default", request(Domain::Dnn)),
        (
            "imgproc.volume.apps",
            GridRequest {
                x_axis: SweepAxis::VolumeUnits,
                x_range: (999.5, 3.2e7 + 0.5),
                y_axis: SweepAxis::Applications,
                y_range: (0.6, 9.4),
                steps: 7,
                ..request(Domain::ImageProcessing)
            },
        ),
        (
            "crypto.knobs.lifetime.volume",
            GridRequest {
                scenario: knobs,
                x_axis: SweepAxis::LifetimeYears,
                x_range: (0.1, 4.0),
                y_axis: SweepAxis::VolumeUnits,
                y_range: (1e3, 1e7),
                steps: 9,
                ..request(Domain::Crypto)
            },
        ),
        (
            "error.steps_low",
            GridRequest {
                steps: 1,
                ..request(Domain::Dnn)
            },
        ),
        (
            "error.steps_high",
            GridRequest {
                steps: 1025,
                ..request(Domain::Dnn)
            },
        ),
        (
            "error.same_axis",
            GridRequest {
                y_axis: SweepAxis::Applications,
                ..request(Domain::Dnn)
            },
        ),
        (
            "error.inverted_range",
            GridRequest {
                x_range: (12.0, 1.0),
                ..request(Domain::Dnn)
            },
        ),
        (
            "error.axis_overflow",
            GridRequest {
                x_axis: SweepAxis::LifetimeYears,
                x_range: (-1.7e308, 1.7e308),
                y_axis: SweepAxis::VolumeUnits,
                y_range: (1e3, 1e6),
                steps: 4,
                ..request(Domain::Dnn)
            },
        ),
        (
            "error.negative_lifetime",
            GridRequest {
                y_range: (-1.0, 2.0),
                steps: 5,
                ..request(Domain::Dnn)
            },
        ),
        (
            "error.zero_applications",
            GridRequest {
                base: OperatingPoint {
                    applications: 0,
                    ..OperatingPoint::paper_default()
                },
                x_axis: SweepAxis::LifetimeYears,
                x_range: (0.5, 2.0),
                y_axis: SweepAxis::VolumeUnits,
                y_range: (1e3, 1e6),
                steps: 3,
                ..request(Domain::Dnn)
            },
        ),
        (
            "error.zero_volume",
            GridRequest {
                base: OperatingPoint {
                    volume: 0,
                    ..OperatingPoint::paper_default()
                },
                steps: 3,
                ..request(Domain::Crypto)
            },
        ),
        (
            "error.non_finite_cell",
            GridRequest {
                y_range: (1.0, 1e306),
                steps: 6,
                ..request(Domain::Dnn)
            },
        ),
        (
            "error.non_finite_column",
            GridRequest {
                x_axis: SweepAxis::LifetimeYears,
                x_range: (1e302, 2e303),
                y_axis: SweepAxis::VolumeUnits,
                y_range: (1e3, 1e6),
                steps: 4,
                ..request(Domain::Crypto)
            },
        ),
    ]
}

fn engine_grid_lines() -> Vec<String> {
    let serial = engine(1);
    let fanned = engine(3);
    let mut lines = Vec::new();
    for (name, request) in grid_requests() {
        let name = format!("grid.engine.{name}");
        let query = Query::Grid(request.clone());
        let buffered = |engine: &Engine| match engine.run(&query) {
            Ok(outcome) => gf_json::ToJson::to_json_string(&outcome).unwrap(),
            Err(error) => error_text(&error),
        };
        let text = buffered(&serial);
        assert_eq!(buffered(&fanned), text, "{name}: thread-count independent");
        let streamed = stream_all_ways(&name, |threads| {
            let engine = if threads == 1 { &serial } else { &fanned };
            engine.grid_stream(&request)
        });
        lines.push(format!("{name}.buffered {text}"));
        lines.push(format!("{name}.stream {streamed}"));
    }
    lines
}

/// Where a frontier row's winner flips: every `col` whose winner differs
/// from `col + 1`'s (none for a uniform row).
fn flips(frontier: &FrontierResult, row: usize) -> Vec<usize> {
    (1..frontier.lattice.width())
        .filter(|&col| frontier.fpga_wins(row, col - 1) != frontier.fpga_wins(row, col))
        .map(|col| col - 1)
        .collect()
}

/// In-process frontiers: every axis pair in every domain over ascending,
/// descending and non-monotone columns, plus 1×N, N×1 and 2×5 shapes.
fn frontier_lines() -> Vec<String> {
    let base = OperatingPoint {
        applications: 3,
        lifetime_years: 1.5,
        volume: 250_000,
    };
    let mut cases = Vec::new();
    for domain in Domain::ALL {
        for x_axis in AXES {
            for y_axis in AXES {
                let ascending = columns(x_axis);
                let descending: Vec<f64> = ascending.iter().rev().copied().collect();
                let mut mixed = ascending.clone();
                let last = mixed.len() - 2;
                mixed.swap(1, last);
                let name = format!(
                    "frontier.{}.{}.{}",
                    domain.id(),
                    axis_id(x_axis),
                    axis_id(y_axis)
                );
                for (order, x_values) in
                    [("asc", ascending), ("desc", descending), ("mixed", mixed)]
                {
                    cases.push((
                        format!("{name}.{order}"),
                        domain,
                        (x_axis, x_values),
                        (y_axis, rows(y_axis)),
                    ));
                }
            }
        }
    }
    let (apps, lifetime) = (SweepAxis::Applications, SweepAxis::LifetimeYears);
    cases.push((
        "frontier.dnn.1xN.apps.lifetime".to_string(),
        Domain::Dnn,
        (apps, vec![columns(apps)[3]]),
        (lifetime, rows(lifetime)),
    ));
    cases.push((
        "frontier.dnn.Nx1.apps.lifetime".to_string(),
        Domain::Dnn,
        (apps, columns(apps)),
        (lifetime, vec![rows(lifetime)[2]]),
    ));
    cases.push((
        "frontier.dnn.2x5.apps.lifetime".to_string(),
        Domain::Dnn,
        (apps, vec![1.5, 7.0]),
        (lifetime, rows(lifetime)),
    ));
    let mut lines = Vec::new();
    // Whether some monotone row has no flip, a flip at its first column
    // and a flip at its last.
    let mut seen = [false; 3];
    for (name, domain, (x_axis, x_values), (y_axis, y_values)) in cases {
        let compiled =
            CompiledScenario::compile(&ScenarioSpec::baseline(domain).params(), domain).unwrap();
        let frontier = |threads| {
            compiled
                .frontier(x_axis, &x_values, y_axis, &y_values, base, threads)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let serial = frontier(1);
        let text = gf_json::ToJson::to_json_string(&serial).unwrap();
        let fanned = gf_json::ToJson::to_json_string(&frontier(3)).unwrap();
        assert_eq!(fanned, text, "{name}: 3 threads");
        if name.ends_with(".mixed") {
            assert_eq!(
                serial.evaluations(),
                serial.lattice.len(),
                "{name}: cell by cell"
            );
        } else if serial.lattice.width() > 2 {
            for row in 0..serial.lattice.height() {
                let flips = flips(&serial, row);
                seen[0] |= flips.is_empty();
                seen[1] |= flips.first() == Some(&0);
                seen[2] |= flips.last() == Some(&(serial.lattice.width() - 2));
            }
        }
        lines.push(format!("{name} {text}"));
    }
    assert_eq!(
        seen, [true; 3],
        "no flip, first-column and last-column flips"
    );
    lines
}

#[test]
fn replay_and_montecarlo_outcomes_match_the_frozen_corpus() {
    let serial = engine(1);
    let fanned = engine(3);
    let mut produced = Vec::new();
    for (name, query) in replay_cases() {
        produced.push(format!("{name} {}", outcome_text(&serial, &query)));
    }
    for (name, query) in montecarlo_cases() {
        let text = outcome_text(&serial, &query);
        assert_eq!(
            outcome_text(&fanned, &query),
            text,
            "{name}: thread-count independent"
        );
        produced.push(format!("{name} {text}"));
    }
    produced.extend(lattice_lines());
    produced.extend(engine_grid_lines());
    produced.extend(frontier_lines());
    let frozen: Vec<&str> = CORPUS.lines().collect();
    if produced != frozen {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target/tmp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kernel_corpus.txt");
        std::fs::write(&path, produced.join("\n") + "\n").unwrap();
        for (line, (got, want)) in produced.iter().zip(&frozen).enumerate() {
            assert_eq!(got, want, "line {}; produced corpus in {path:?}", line + 1);
        }
        assert_eq!(
            produced.len(),
            frozen.len(),
            "case count; produced corpus in {path:?}"
        );
    }
}
