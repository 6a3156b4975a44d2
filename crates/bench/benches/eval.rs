//! Headline bench: the analysis-engine kernels versus their naive paths.
//!
//! Measures the workloads the batch engine and the adaptive analysis
//! layers were built for:
//!
//! * a 64×64 DNN ratio heatmap (Fig. 8 class) — naive per-cell
//!   `compare_uniform` versus `CompiledScenario::ratio_grid` (compile +
//!   the lattice kernel, which writes each cell's ratio straight from its
//!   two totals + scoped fan-out),
//! * a 10 000-sample Monte-Carlo study — the naive structure (one
//!   parameter clone per knob per trial, full model rebuild per trial,
//!   serial) versus `MonteCarlo::run`, which resolves the domain template
//!   and each die's yield once per run and per trial only retunes the
//!   knobs, finishes the compile and takes the ratio of the two totals
//!   (`monte_carlo_batch_ns`),
//! * the three crossover searches — the pre-PR scan/bisection algorithms
//!   on a compiled scenario versus the closed-form solver
//!   (`crossover_*_analytic`),
//! * the 64×64 winner map — dense `ratio_grid` versus the per-row
//!   bisection frontier (`CompiledScenario::frontier`), and
//! * the batch kernel — `CompiledScenario::evaluate_into` into a reused
//!   buffer (`evaluate_batch_ns`, gated per point by `bench_gate`'s
//!   absolute `evaluate_ns_per_point` ceiling), and one evaluation at 5
//!   versus 2^53 applications, which the closed form prices the same, and
//! * a streamed 1024×1024 (million-point) ratio grid —
//!   `CompiledScenario::grid_stream` drained block by block, the lattice
//!   kernel end to end with only one row-block of ratios resident
//!   (`grid_1m_ns`), and
//! * a full-year time-series carbon replay — 8760 hourly intensity steps
//!   of the `solar_duck` preset, interpolated, over a cataloged fleet
//!   scenario (`replay_year_ns`): the kernel behind `POST /v1/replay`,
//!   which converts each 256-step block to kg/kWh in one vectorized pass
//!   and then accrues totals and ratio statistics step by step, and
//! * the inverse-query solver — an affine two-knob argmin through the
//!   exact vertex tier (`optimize_analytic_ns`) and a two-knob FPGA-total
//!   minimum subject to `fpga_wins` through the coordinate-search tier
//!   (`optimize_search_ns`), the paths behind `POST /v1/optimize`, and
//! * the wire codec — the served text path of a 64-point batch request
//!   body, lexed to a token tape and decoded from it
//!   (`codec_batch64_parse_ns`), the one-pass writer encoding a 64-point
//!   batch result (`codec_batch64_encode_ns`) and a 64×64 grid result
//!   (`codec_grid64_encode_ns`) into the served body, and the shortest
//!   `f64` printer per number (`codec_f64_ns`).
//!
//! Emits `BENCH_eval.json` (override the path with `GF_BENCH_OUT`) so CI
//! can track the performance trajectory (`bench_gate` compares a fresh run
//! against the committed baseline), and asserts the acceptance bars
//! (≥10x heatmap, ≥5x Monte-Carlo, ≥10x crossover, frontier from ≤20% of
//! the dense evaluations, the per-point ceiling, and a flat cost in the
//! application count) unless `GF_BENCH_NO_ASSERT` is set.

use std::hint::black_box;
use std::time::Duration;

use gf_bench::harness::{bench_pair, bench_with, metrics_json};
use gf_json::{JsonWriter, ToJson};
use gf_support::SplitMix64;
use greenfpga::api::{BatchEvalRequest, GridRequest, Query, QueryKind};
use greenfpga::{
    CompiledScenario, Constraint, Domain, Engine, Estimator, EstimatorParams, Knob, MonteCarlo,
    Objective, OperatingPoint, OptPlatform, Outcome, ResultBuffer, ScenarioSpec, SearchKnob,
    SolverKind, SweepAxis,
};

const GRID_SIZE: usize = 64;
/// Side length of the streamed million-point grid (1024² ≈ 1.05 M cells).
const GRID_1M_SIDE: usize = 1024;
const MC_SAMPLES: usize = 10_000;
const MC_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

fn grid_axes() -> (Vec<f64>, Vec<f64>) {
    let apps: Vec<f64> = (1..=GRID_SIZE).map(|n| n as f64).collect();
    let lifetimes: Vec<f64> = (1..=GRID_SIZE).map(|i| 0.05 * i as f64).collect();
    (apps, lifetimes)
}

/// Numbers the `codec_f64_ns` bench prints per pass.
const CODEC_NUMBERS: usize = 4096;

/// The served body of `outcome`: one writer pass over the typed result.
fn encode_result(outcome: &Outcome) -> String {
    let mut w = JsonWriter::new();
    outcome.write_result(&mut w);
    w.finish().expect("finite result")
}

/// The codec benches' inputs: the 64-point batch request, drawn like the
/// served `bulk_results` batches, and the outcomes of it and of the
/// default 64×64 grid.
fn codec_inputs(engine: &Engine) -> (Query, Outcome, Outcome) {
    let mut rng = SplitMix64::new(0xC0DE_C0DE);
    let points = (0..64)
        .map(|_| OperatingPoint {
            applications: rng.gen_range_u64(1, 24),
            lifetime_years: rng.gen_range_u64(5, 50) as f64 / 10.0,
            volume: 10f64.powf(rng.gen_range_f64(4.0, 6.699)).round() as u64,
        })
        .collect();
    let batch = Query::Batch(BatchEvalRequest {
        scenario: ScenarioSpec::baseline(Domain::Dnn),
        points,
    });
    let grid = Query::Grid(GridRequest {
        scenario: ScenarioSpec::baseline(Domain::Dnn),
        base: OperatingPoint::paper_default(),
        x_axis: SweepAxis::Applications,
        x_range: (1.0, 12.0),
        y_axis: SweepAxis::LifetimeYears,
        y_range: (0.25, 3.0),
        steps: GRID_SIZE,
        stream: false,
    });
    let batch_outcome = engine.run(&batch).expect("batch runs");
    (batch, batch_outcome, engine.run(&grid).expect("grid runs"))
}

/// The served request path up to the engine: lex the body text to a
/// token tape and decode the typed query from it.
fn decode_batch(body: &str) -> Query {
    QueryKind::Batch
        .decode_body(body, gf_json::ParseLimits::default())
        .expect("body decodes")
}

/// The pre-batch-engine heatmap: every cell rebuilds the calibration and the
/// workload vector through `compare_uniform`, serially.
fn naive_grid(estimator: &Estimator) -> Vec<f64> {
    let (apps, lifetimes) = grid_axes();
    let mut ratios = Vec::with_capacity(apps.len() * lifetimes.len());
    for &lifetime in &lifetimes {
        for &napps in &apps {
            let comparison = estimator
                .compare_uniform(Domain::Dnn, napps as u64, lifetime, 1_000_000)
                .expect("naive cell");
            ratios.push(comparison.fpga_to_asic_ratio());
        }
    }
    ratios
}

fn batch_grid(estimator: &Estimator) -> Vec<f64> {
    let (apps, lifetimes) = grid_axes();
    let grid = estimator
        .compile(Domain::Dnn)
        .expect("compile dnn")
        .ratio_grid(
            SweepAxis::Applications,
            &apps,
            SweepAxis::LifetimeYears,
            &lifetimes,
            OperatingPoint::paper_default(),
            0,
        )
        .expect("batch grid");
    grid.ratios
}

/// The pre-batch-engine Monte-Carlo: a single serial RNG stream, one
/// parameter-set clone per knob per trial (`Knob::apply`), and a full naive
/// model evaluation per trial.
fn naive_monte_carlo(base: &EstimatorParams, samples: usize) -> Vec<f64> {
    let point = OperatingPoint::paper_default();
    let mut rng = SplitMix64::new(MC_SEED);
    let mut ratios = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut params = base.clone();
        for knob in Knob::ALL {
            let range = knob.range();
            params = knob.apply(&params, rng.gen_range_f64(range.low, range.high));
        }
        let comparison = Estimator::new(params)
            .compare_uniform(
                Domain::Dnn,
                point.applications,
                point.lifetime_years,
                point.volume,
            )
            .expect("naive trial");
        ratios.push(comparison.fpga_to_asic_ratio());
    }
    ratios.sort_by(f64::total_cmp);
    ratios
}

/// The pre-analytic crossover searches: a linear application scan plus two
/// 64-iteration bisections, all running real model evaluations on the
/// compiled scenario (the PR-1 state of the art).
fn scan_crossovers(compiled: &CompiledScenario) -> (Option<u64>, f64, f64) {
    let point = OperatingPoint::paper_default();
    let diff = |p: OperatingPoint| {
        let c = compiled.evaluate(p).expect("scan point");
        c.fpga.total().as_kg() - c.asic.total().as_kg()
    };

    let apps = (1..=20u64).find(|&n| {
        diff(OperatingPoint {
            applications: n,
            ..point
        }) < 0.0
    });

    let lifetime_diff = |years: f64| {
        diff(OperatingPoint {
            lifetime_years: years,
            ..point
        })
    };
    let (mut lo, mut hi) = (0.05f64, 5.0f64);
    let mut lo_diff = lifetime_diff(lo);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        let mid_diff = lifetime_diff(mid);
        if mid_diff.signum() == lo_diff.signum() {
            lo = mid;
            lo_diff = mid_diff;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-6 {
            break;
        }
    }
    let lifetime = 0.5 * (lo + hi);

    let volume_diff = |v: u64| diff(OperatingPoint { volume: v, ..point });
    let (mut lo, mut hi) = (1_000u64, 50_000_000u64);
    let mut lo_diff = volume_diff(lo);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let mid_diff = volume_diff(mid);
        if mid_diff.signum() == lo_diff.signum() {
            lo = mid;
            lo_diff = mid_diff;
        } else {
            hi = mid;
        }
    }
    (apps, lifetime, hi as f64)
}

/// The closed-form counterpart: three O(1) solves off the compiled
/// coefficients.
fn analytic_crossovers(compiled: &CompiledScenario) -> (f64, f64, f64) {
    let point = OperatingPoint::paper_default();
    let apps = compiled
        .crossover_in_applications_analytic(point.lifetime_years, point.volume)
        .map_or(f64::NAN, |c| c.at);
    let lifetime = compiled
        .crossover_in_lifetime_analytic(point.applications, point.volume)
        .map_or(f64::NAN, |c| c.at);
    let volume = compiled
        .crossover_in_volume_analytic(point.applications, point.lifetime_years)
        .map_or(f64::NAN, |c| c.at);
    (apps, lifetime, volume)
}

fn frontier_axes() -> (Vec<f64>, Vec<f64>) {
    grid_axes()
}

fn main() {
    let estimator = Estimator::new(EstimatorParams::paper_defaults());
    let base = EstimatorParams::paper_defaults();
    let threads = greenfpga::exec::default_threads();
    println!(
        "batch-engine bench: {GRID_SIZE}x{GRID_SIZE} heatmap, {MC_SAMPLES}-sample Monte-Carlo, {threads} threads"
    );

    // Sanity first: the two paths must agree before their speed means
    // anything.
    {
        let naive = naive_grid(&estimator);
        let batch = batch_grid(&estimator);
        assert_eq!(naive.len(), batch.len());
        for (a, b) in naive.iter().zip(&batch) {
            assert!(
                (a - b).abs() <= a.abs() * 1e-12,
                "grid mismatch: naive {a} vs batch {b}"
            );
        }
    }

    let (naive_heatmap, batch_heatmap, heatmap_speedup) = bench_pair(
        (&format!("heatmap_{GRID_SIZE}x{GRID_SIZE}_naive"), || {
            naive_grid(&estimator)
        }),
        (&format!("heatmap_{GRID_SIZE}x{GRID_SIZE}_batch"), || {
            batch_grid(&estimator)
        }),
        Duration::from_millis(300),
        5,
    );
    println!("{naive_heatmap}");
    println!("{batch_heatmap}");
    println!("heatmap speedup: {heatmap_speedup:.1}x");

    let (naive_mc, batch_mc, mc_speedup) = bench_pair(
        (&format!("monte_carlo_{MC_SAMPLES}_naive"), || {
            naive_monte_carlo(&base, MC_SAMPLES)
        }),
        (&format!("monte_carlo_{MC_SAMPLES}_batch"), || {
            MonteCarlo::new(MC_SAMPLES)
                .run(&base, Domain::Dnn, OperatingPoint::paper_default())
                .expect("batch monte carlo")
        }),
        Duration::from_millis(300),
        3,
    );
    println!("{naive_mc}");
    println!("{batch_mc}");
    println!("monte-carlo speedup: {mc_speedup:.1}x");

    // --- Closed-form crossovers vs the scan/bisection searches. ---
    let compiled = estimator.compile(Domain::Dnn).expect("compile dnn");
    {
        // Sanity: the verified searches (analytic + boundary verification)
        // must reproduce the scan/bisection answers before the kernel
        // timing means anything.
        let (scan_apps, scan_lifetime, scan_volume) = scan_crossovers(&compiled);
        let point = OperatingPoint::paper_default();
        let apps = compiled
            .crossover_in_applications_verified(20, point.lifetime_years, point.volume)
            .expect("apps crossover");
        assert_eq!(apps, scan_apps, "applications crossover mismatch");
        let lifetime = compiled
            .crossover_in_lifetime_verified(point.applications, point.volume, 0.05, 5.0)
            .expect("lifetime crossover")
            .expect("lifetime crossover exists");
        assert!(
            (lifetime.at - scan_lifetime).abs() <= 1e-5,
            "lifetime crossover mismatch: analytic {} vs bisection {scan_lifetime}",
            lifetime.at
        );
        let volume = compiled
            .crossover_in_volume_verified(
                point.applications,
                point.lifetime_years,
                1_000,
                50_000_000,
            )
            .expect("volume crossover")
            .expect("volume crossover exists");
        assert_eq!(volume.at, scan_volume, "volume crossover mismatch");
    }
    let (scan_crossover, analytic_crossover, crossover_speedup) = bench_pair(
        ("crossover_3axis_scan_bisect", || scan_crossovers(&compiled)),
        ("crossover_3axis_analytic", || {
            analytic_crossovers(&compiled)
        }),
        Duration::from_millis(100),
        5,
    );
    println!("{scan_crossover}");
    println!("{analytic_crossover}");
    println!("crossover speedup: {crossover_speedup:.1}x");

    // --- Per-row bisection frontier vs the dense winner map. ---
    let (apps, lifetimes) = frontier_axes();
    let frontier_result = compiled
        .frontier(
            SweepAxis::Applications,
            &apps,
            SweepAxis::LifetimeYears,
            &lifetimes,
            OperatingPoint::paper_default(),
            0,
        )
        .expect("frontier");
    {
        // Sanity: bit-consistent winner mask against the dense grid.
        let dense = compiled
            .ratio_grid(
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
                0,
            )
            .expect("dense grid");
        for (row, dense_row) in dense.ratios.chunks(apps.len()).enumerate() {
            for (col, &ratio) in dense_row.iter().enumerate() {
                assert_eq!(
                    frontier_result.fpga_wins(row, col),
                    ratio < 1.0,
                    "winner mask mismatch at ({row},{col})"
                );
            }
        }
    }
    let frontier_evals = frontier_result.evaluations();
    let frontier_fraction = frontier_result.evaluated_fraction();
    println!(
        "frontier evaluations: {frontier_evals} of {} cells ({:.1}%)",
        frontier_result.lattice.len(),
        frontier_fraction * 100.0
    );
    let (dense_heatmap, adaptive_frontier, frontier_speedup) = bench_pair(
        (&format!("heatmap_{GRID_SIZE}x{GRID_SIZE}_batch"), || {
            batch_grid(&estimator)
        }),
        (
            &format!("frontier_{GRID_SIZE}x{GRID_SIZE}_adaptive"),
            || {
                estimator
                    .compile(Domain::Dnn)
                    .expect("compile dnn")
                    .frontier(
                        SweepAxis::Applications,
                        &apps,
                        SweepAxis::LifetimeYears,
                        &lifetimes,
                        OperatingPoint::paper_default(),
                        0,
                    )
                    .expect("frontier")
            },
        ),
        Duration::from_millis(300),
        5,
    );
    println!("{dense_heatmap}");
    println!("{adaptive_frontier}");
    println!("frontier speedup over dense batch grid: {frontier_speedup:.1}x");

    // --- Batch kernel: cost per point, and flat in the application count. ---
    let batch_points: Vec<OperatingPoint> = {
        let (apps, lifetimes) = grid_axes();
        lifetimes
            .iter()
            .flat_map(|&lifetime_years| {
                apps.iter().map(move |&n| OperatingPoint {
                    applications: n as u64,
                    lifetime_years,
                    volume: 1_000_000,
                })
            })
            .collect()
    };
    let mut batch_buffer = ResultBuffer::new();
    let evaluate_batch = bench_with(
        &format!("evaluate_into_{}", batch_points.len()),
        Duration::from_millis(120),
        7,
        || {
            compiled
                .evaluate_into(&batch_points, &mut batch_buffer)
                .expect("batch");
            batch_buffer.comparison(0)
        },
    );
    println!("{evaluate_batch}");
    let ns_per_point = evaluate_batch.median_ns / batch_points.len() as f64;
    println!("batch kernel: {ns_per_point:.1} ns/point");
    let at_apps = |applications: u64| OperatingPoint {
        applications,
        ..OperatingPoint::paper_default()
    };
    let (evaluate_apps_2p53, evaluate_apps_5, apps_cost_ratio) = bench_pair(
        ("evaluate_apps_2p53", || {
            compiled
                .evaluate(black_box(at_apps(1 << 53)))
                .expect("n = 2^53")
        }),
        ("evaluate_apps_5", || {
            compiled.evaluate(black_box(at_apps(5))).expect("n = 5")
        }),
        Duration::from_millis(60),
        5,
    );
    println!("{evaluate_apps_5}");
    println!("{evaluate_apps_2p53}");
    println!("evaluate cost at 2^53 vs 5 applications: {apps_cost_ratio:.2}x");

    // --- Streamed million-point grid: the batch kernel end to end. ---
    let grid_volumes: Vec<f64> = greenfpga::log_spaced_volumes(1_000, 50_000_000, GRID_1M_SIDE)
        .into_iter()
        .map(|v| v as f64)
        .collect();
    let grid_lifetimes: Vec<f64> = (0..GRID_1M_SIDE)
        .map(|i| 0.25 + (3.0 - 0.25) * i as f64 / (GRID_1M_SIDE - 1) as f64)
        .collect();
    let grid_base = OperatingPoint {
        applications: 5,
        lifetime_years: 1.0,
        volume: 1_000_000,
    };
    let grid_1m = bench_with(
        &format!("grid_{GRID_1M_SIDE}x{GRID_1M_SIDE}_stream"),
        Duration::from_millis(300),
        3,
        || {
            let mut stream = compiled
                .grid_stream(
                    SweepAxis::VolumeUnits,
                    grid_volumes.clone(),
                    SweepAxis::LifetimeYears,
                    grid_lifetimes.clone(),
                    grid_base,
                    threads,
                )
                .expect("grid stream");
            while let Some(block) = stream.next_block() {
                block.expect("grid block");
            }
            assert!(stream.is_finished());
            let fraction = stream.fpga_winning_fraction();
            assert!((0.0..=1.0).contains(&fraction), "bad fraction {fraction}");
            fraction
        },
    );
    println!("{grid_1m}");
    println!(
        "streamed {GRID_1M_SIDE}x{GRID_1M_SIDE} grid: {:.1} M cells/s",
        (GRID_1M_SIDE * GRID_1M_SIDE) as f64 / grid_1m.median_ns * 1e3
    );

    // --- Full-year carbon replay: 8760 hourly steps over a fleet. ---
    let (_, fleet) = greenfpga::catalog_entry("crypto_fleet_1m_5y").expect("cataloged fleet");
    let fleet_compiled = Estimator::new(fleet.scenario.params())
        .compile(fleet.scenario.domain)
        .expect("compile fleet scenario");
    let duck = greenfpga::CarbonIntensitySeries::region("solar_duck").expect("region preset");
    {
        // Sanity: the year replays every sample onto finite totals before
        // its speed means anything.
        let outcome = duck
            .replay(&fleet_compiled, fleet.point, true)
            .expect("replay year");
        assert_eq!(outcome.steps, greenfpga::HOURS_PER_YEAR as u64);
        assert!(outcome.fpga_operational.as_kg().is_finite());
        assert!(outcome.asic_operational.as_kg().is_finite());
    }
    let replay_year = bench_with("replay_year_8760", Duration::from_millis(120), 5, || {
        duck.replay(&fleet_compiled, fleet.point, true)
            .expect("replay year")
    });
    println!("{replay_year}");
    println!(
        "replayed {} hourly steps: {:.1} M steps/s",
        greenfpga::HOURS_PER_YEAR,
        greenfpga::HOURS_PER_YEAR as f64 / replay_year.median_ns * 1e3
    );

    // --- Inverse queries: both optimizer tiers over the same fleet. ---
    let opt_knobs = [
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
    ];
    let search_constraints = [Constraint::FpgaWins];
    {
        // Sanity: each problem lands on its intended solver tier; the
        // ratio is monotone along each axis, so it is solved at the
        // vertices too.
        for (objective, constraints, solver) in [
            (
                Objective::MinTotal(OptPlatform::Fpga),
                &[][..],
                SolverKind::Analytic,
            ),
            (Objective::MinRatio, &[][..], SolverKind::Analytic),
            (
                Objective::MinTotal(OptPlatform::Fpga),
                &search_constraints[..],
                SolverKind::Search,
            ),
        ] {
            let outcome = fleet_compiled
                .optimize(
                    fleet.point,
                    &objective,
                    &opt_knobs,
                    constraints,
                    1e-6,
                    10_000,
                    threads,
                )
                .expect("optimize");
            assert_eq!(outcome.solver, solver, "{objective:?} {constraints:?}");
            assert!(outcome.objective.is_finite());
        }
    }
    let optimize_analytic = bench_with("optimize_analytic", Duration::from_millis(120), 5, || {
        fleet_compiled
            .optimize(
                fleet.point,
                &Objective::MinTotal(OptPlatform::Fpga),
                &opt_knobs,
                &[],
                1e-6,
                10_000,
                threads,
            )
            .expect("analytic optimize")
    });
    println!("{optimize_analytic}");
    let optimize_search = bench_with("optimize_search", Duration::from_millis(120), 5, || {
        fleet_compiled
            .optimize(
                fleet.point,
                &Objective::MinTotal(OptPlatform::Fpga),
                &opt_knobs,
                &search_constraints,
                1e-6,
                10_000,
                threads,
            )
            .expect("search optimize")
    });
    println!("{optimize_search}");

    // --- Response codec: typed outcome to body text in one pass. ---
    let engine = Engine::with_defaults().expect("engine");
    let (batch64_query, batch64, grid64) = codec_inputs(&engine);
    let Query::Batch(batch64_request) = &batch64_query else {
        unreachable!("codec_inputs builds a batch query")
    };
    let batch64_body = batch64_request.to_json_string().expect("finite request");
    assert_eq!(
        decode_batch(&batch64_body),
        batch64_query,
        "request round-trips"
    );
    let codec_batch64_parse =
        bench_with("codec_batch64_parse", Duration::from_millis(120), 5, || {
            decode_batch(&batch64_body)
        });
    println!("{codec_batch64_parse}");
    for outcome in [&batch64, &grid64] {
        // Sanity: the body is the envelope's result, byte for byte.
        let body = encode_result(outcome);
        let envelope = format!(r#"{{"v":1,"kind":"{}","result":{body}}}"#, outcome.kind());
        assert_eq!(outcome.to_json_string().expect("finite result"), envelope);
    }
    let codec_batch64 = bench_with(
        "codec_batch64_encode",
        Duration::from_millis(120),
        5,
        || encode_result(&batch64),
    );
    println!("{codec_batch64}");
    let codec_grid64 = bench_with("codec_grid64_encode", Duration::from_millis(120), 5, || {
        encode_result(&grid64)
    });
    println!("{codec_grid64}");
    let mut rng = SplitMix64::new(0xF64);
    // Half ratios near 1, half kilogram totals across six decades: the
    // numbers a served body is made of.
    let numbers: Vec<f64> = (0..CODEC_NUMBERS)
        .map(|i| {
            if i % 2 == 0 {
                rng.gen_range_f64(0.1, 10.0)
            } else {
                10f64.powf(rng.gen_range_f64(3.0, 9.0))
            }
        })
        .collect();
    let mut text = Vec::with_capacity(CODEC_NUMBERS * 24);
    let codec_f64 = bench_with("codec_f64_4096", Duration::from_millis(120), 5, || {
        text.clear();
        for &n in &numbers {
            gf_json::write_f64(&mut text, n);
        }
        text.len()
    });
    println!("{codec_f64}");
    let codec_f64_ns = codec_f64.median_ns / CODEC_NUMBERS as f64;
    println!("shortest f64 printer: {codec_f64_ns:.1} ns/number");

    let json = metrics_json(&[
        ("grid_size", GRID_SIZE as f64),
        ("mc_samples", MC_SAMPLES as f64),
        ("threads", threads as f64),
        ("heatmap_naive_ns", naive_heatmap.median_ns),
        ("heatmap_batch_ns", batch_heatmap.median_ns),
        ("heatmap_speedup", heatmap_speedup),
        ("monte_carlo_naive_ns", naive_mc.median_ns),
        ("monte_carlo_batch_ns", batch_mc.median_ns),
        ("monte_carlo_speedup", mc_speedup),
        ("crossover_scan_ns", scan_crossover.median_ns),
        ("crossover_analytic_ns", analytic_crossover.median_ns),
        ("crossover_speedup", crossover_speedup),
        ("frontier_adaptive_ns", adaptive_frontier.median_ns),
        ("frontier_speedup", frontier_speedup),
        ("frontier_evals", frontier_evals as f64),
        ("frontier_eval_fraction", frontier_fraction),
        ("evaluate_batch_ns", evaluate_batch.median_ns),
        ("evaluate_ns_per_point", ns_per_point),
        ("evaluate_apps_5_ns", evaluate_apps_5.median_ns),
        ("evaluate_apps_2p53_ns", evaluate_apps_2p53.median_ns),
        ("grid_1m_ns", grid_1m.median_ns),
        ("replay_year_ns", replay_year.median_ns),
        ("optimize_analytic_ns", optimize_analytic.median_ns),
        ("optimize_search_ns", optimize_search.median_ns),
        ("codec_batch64_parse_ns", codec_batch64_parse.median_ns),
        ("codec_batch64_encode_ns", codec_batch64.median_ns),
        ("codec_grid64_encode_ns", codec_grid64.median_ns),
        ("codec_f64_ns", codec_f64_ns),
    ]);
    let out = std::env::var("GF_BENCH_OUT").unwrap_or_else(|_| "BENCH_eval.json".to_string());
    std::fs::write(&out, &json).expect("write bench json");
    println!("wrote {out}");

    if std::env::var_os("GF_BENCH_NO_ASSERT").is_none() {
        assert!(
            heatmap_speedup >= 10.0,
            "heatmap speedup {heatmap_speedup:.1}x below the 10x acceptance bar"
        );
        assert!(
            mc_speedup >= 5.0,
            "monte-carlo speedup {mc_speedup:.1}x below the 5x acceptance bar"
        );
        assert!(
            crossover_speedup >= 10.0,
            "crossover speedup {crossover_speedup:.1}x below the 10x acceptance bar"
        );
        assert!(
            frontier_fraction <= 0.20,
            "frontier evaluated {:.1}% of the dense grid, above the 20% acceptance bar",
            frontier_fraction * 100.0
        );
        // The same ceiling `bench_gate` enforces on the artifact (see
        // [`gf_bench::EVALUATE_NS_PER_POINT_CEILING`]).
        let ceiling = gf_bench::EVALUATE_NS_PER_POINT_CEILING;
        assert!(
            ns_per_point <= ceiling,
            "batch kernel at {ns_per_point:.1} ns/point, above the {ceiling} ns ceiling"
        );
        // The closed form: no work grows with the application count.
        assert!(
            apps_cost_ratio <= 1.5,
            "evaluate at 2^53 applications costs {apps_cost_ratio:.2}x the 5-application \
             evaluation — the application count must not drive the cost"
        );
        // The wall-clock bar, frontier no slower than the dense grid, is
        // `bench_gate`'s `frontier_speedup` floor on the written artifact.
    }
}
