//! `greenfpga` — command-line interface to the GreenFPGA carbon model.
//!
//! ```text
//! greenfpga evaluate --domain dnn --apps 5 --lifetime 2.0 --volume 1000000
//! greenfpga compare --domain dnn,crypto
//! greenfpga sweep --domain dnn --axis apps --from 1 --to 12 --steps 12
//! greenfpga crossover --domain imgproc
//! greenfpga frontier --domain dnn --steps 64
//! greenfpga grid --domain dnn --steps 24 --adaptive
//! greenfpga industry
//! greenfpga tornado --domain dnn
//! greenfpga montecarlo --domain crypto --samples 1024
//! greenfpga scenarios
//! greenfpga scenarios dnn_fleet_10k_3y --json
//! greenfpga replay crypto_fleet_1m_5y --region solar_duck --interpolate
//! echo '{"kind":"sweep","domain":"dnn","axis":"apps","from":1,"to":12}' | greenfpga query
//! ```
//!
//! Every subcommand is a thin adapter over [`greenfpga::Engine`]: it
//! builds the same [`greenfpga::Query`] the HTTP service decodes, runs it
//! through the same facade, and renders the typed outcome — as a table by
//! default, or as the identical wire JSON with `--json`. Failures exit
//! with the [`greenfpga::ApiErrorCode`] taxonomy's canonical codes:
//! `2` usage, `3` model, `4` overloaded, `5` internal.

mod args;

use std::io::Read;
use std::process::ExitCode;

use gf_json::{FromJson, ToJson, Value};
use greenfpga::api::{
    CatalogRequest, CompareRequest, EvaluateRequest, FrontierResponse, GridRequest,
    IndustryRequest, MonteCarloRequest, MonteCarloResponse, OptimizeRequest, Outcome, Query,
    ReplayRequest, ScenarioRef, ScenarioRunRequest, SweepRequest, TornadoRequest,
};
use greenfpga::{
    catalog_entry, csv_from_rows, render_table, ApiError, CfpBreakdown, CrossoverRequest, Domain,
    Engine, FrontierRequest, HeatmapRenderer, OperatingPoint, PlatformComparison, ReplayOutcome,
    ScenarioSpec, SeriesRef, SweepAxis, SweepSeries, TornadoAnalysis, Verdict,
};

use args::{Command, GridShape, PointOverrides, ServeArgs, WorkloadArgs, USAGE};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(&raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(ApiError::bad_request(String::new()).exit_code());
        }
    };
    apply_log_level(parsed.verbosity, std::env::var("GF_LOG").ok().as_deref());
    match run(parsed.command, parsed.json) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Resolves the stderr diagnostic cutoff from `-v`/`-vv` and `GF_LOG`
/// (the louder of the two wins) and installs it process-wide.
fn apply_log_level(verbosity: u8, gf_log: Option<&str>) {
    use gf_trace::Level;
    let from_flags = match verbosity {
        0 => None,
        1 => Some(Level::Info),
        _ => Some(Level::Debug),
    };
    let from_env = match gf_log {
        None => None,
        Some(value) => match Level::parse(value) {
            Some(level) => Some(level),
            None => {
                gf_trace::log(
                    Level::Warn,
                    &format!("GF_LOG must be warn|info|debug, ignoring '{value}'"),
                );
                None
            }
        },
    };
    if let Some(level) = from_flags.into_iter().chain(from_env).max() {
        gf_trace::set_max_level(level);
    }
}

fn run(command: Command, json: bool) -> Result<(), ApiError> {
    match command {
        Command::Help => {
            reject_json(json, "help")?;
            println!("{USAGE}");
            Ok(())
        }
        Command::Serve(serve_args) => {
            reject_json(json, "serve")?;
            serve(serve_args)
        }
        Command::Query { file } => run_raw_query(file),
        command => {
            // One request id for the whole analytic run, so engine-level
            // spans (tile batches, cache compiles) land under it and the
            // `-v`/`-vv` diagnostics can read them back afterwards.
            let request_id = gf_trace::next_id();
            gf_trace::set_current_request(request_id);
            let compile = gf_trace::span(gf_trace::SpanName::CliCompile);
            let engine = Engine::with_defaults()?;
            compile.finish();
            let result = if let Command::Grid {
                adaptive: false,
                stream: true,
                ..
            } = command
            {
                let eval = gf_trace::span(gf_trace::SpanName::CliEval);
                let result = run_grid_stream(&engine, &command, json);
                eval.finish();
                result
            } else {
                let query = build_query(&command)?;
                let eval = gf_trace::span(gf_trace::SpanName::CliEval);
                let outcome = engine.run(&query);
                eval.finish();
                let outcome = outcome?;
                if json {
                    print_json(&outcome.result_json())
                } else {
                    render_outcome(&command, &outcome)
                }
            };
            gf_trace::set_current_request(0);
            log_phase_timings(request_id);
            result
        }
    }
}

/// Emits the `-v` phase summary (and the `-vv` per-span detail) for one
/// analytic run, read back from the trace rings.
fn log_phase_timings(request_id: u64) {
    use gf_trace::Level;
    if !gf_trace::level_enabled(Level::Info) {
        return;
    }
    let spans = gf_trace::spans_for_request(request_id);
    let total_us = |name: gf_trace::SpanName| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns as f64 / 1000.0)
            .sum()
    };
    gf_trace::log(
        Level::Info,
        &format!(
            "phases: compile={:.0}us eval={:.0}us",
            total_us(gf_trace::SpanName::CliCompile),
            total_us(gf_trace::SpanName::CliEval)
        ),
    );
    if gf_trace::level_enabled(Level::Debug) {
        for span in &spans {
            gf_trace::log(
                Level::Debug,
                &format!(
                    "span {} start={}ns dur={}ns aux={}",
                    span.name.as_str(),
                    span.start_ns,
                    span.duration_ns,
                    span.aux
                ),
            );
        }
    }
}

/// `--json` on a subcommand that produces no result document is a usage
/// error, reported through the taxonomy instead of silently ignored.
fn reject_json(json: bool, command: &str) -> Result<(), ApiError> {
    if json {
        return Err(ApiError::bad_request(format!(
            "--json does not apply to '{command}': it produces no result document"
        )));
    }
    Ok(())
}

/// Maps an analytic subcommand to its [`Query`] — the same request the
/// HTTP route for that kind decodes.
fn build_query(command: &Command) -> Result<Query, ApiError> {
    Ok(match command {
        Command::Evaluate(workload) => Query::Evaluate(EvaluateRequest {
            scenario: ScenarioSpec::baseline(workload.domain),
            point: operating_point(*workload),
        }),
        Command::Compare { workload, domains } => Query::Compare(CompareRequest {
            scenarios: domains.iter().map(|&d| ScenarioSpec::baseline(d)).collect(),
            point: operating_point(*workload),
        }),
        Command::Crossover(workload) => Query::Crossover(CrossoverRequest::with_default_ranges(
            ScenarioSpec::baseline(workload.domain),
            operating_point(*workload),
        )),
        Command::Sweep {
            workload,
            axis,
            from,
            to,
            steps,
            ..
        } => Query::Sweep(SweepRequest {
            scenario: ScenarioSpec::baseline(workload.domain),
            base: operating_point(*workload),
            axis: *axis,
            range: (*from, *to),
            steps: *steps,
        }),
        Command::Industry => Query::Industry(IndustryRequest::default()),
        Command::Tornado(workload) => Query::Tornado(TornadoRequest {
            scenario: ScenarioSpec::baseline(workload.domain),
            point: operating_point(*workload),
        }),
        Command::MonteCarlo {
            workload,
            samples,
            seed,
        } => Query::MonteCarlo(MonteCarloRequest {
            scenario: ScenarioSpec::baseline(workload.domain),
            point: operating_point(*workload),
            samples: *samples,
            seed: *seed,
        }),
        Command::Grid {
            workload,
            shape,
            adaptive,
            stream,
        } => {
            if *adaptive {
                Query::Frontier(frontier_request(*workload, *shape))
            } else {
                Query::Grid(GridRequest {
                    scenario: ScenarioSpec::baseline(workload.domain),
                    base: operating_point(*workload),
                    x_axis: shape.x_axis,
                    x_range: (shape.x_from, shape.x_to),
                    y_axis: shape.y_axis,
                    y_range: (shape.y_from, shape.y_to),
                    steps: shape.steps,
                    stream: *stream,
                })
            }
        }
        Command::Frontier { workload, shape } => {
            Query::Frontier(frontier_request(*workload, *shape))
        }
        Command::Scenarios { id: None, .. } => Query::Catalog(CatalogRequest),
        Command::Scenarios {
            id: Some(id),
            point,
        } => Query::Scenario(ScenarioRunRequest {
            scenario: catalog_ref(id),
            point: resolved_override(id, *point),
        }),
        Command::Replay {
            id,
            region,
            interpolate,
            point,
            years,
        } => Query::Replay(ReplayRequest {
            scenario: catalog_ref(id),
            point: resolved_override(id, *point),
            series: SeriesRef::Region(
                region
                    .clone()
                    .unwrap_or_else(|| ReplayRequest::DEFAULT_REGION.to_string()),
            ),
            interpolate: *interpolate,
            years: *years,
        }),
        Command::Optimize {
            id,
            domain,
            point,
            objective,
            search,
            constraints,
            tolerance,
            max_evals,
        } => {
            let (scenario, point) = match id {
                Some(id) => (catalog_ref(id), resolved_override(id, *point)),
                None => (
                    ScenarioRef::Inline(ScenarioSpec::baseline(*domain)),
                    paper_override(*point),
                ),
            };
            Query::Optimize(OptimizeRequest {
                scenario,
                point,
                objective: *objective,
                search: search.clone(),
                constraints: constraints.clone(),
                tolerance: tolerance.unwrap_or(OptimizeRequest::DEFAULT_TOLERANCE),
                max_evals: max_evals.unwrap_or(OptimizeRequest::DEFAULT_MAX_EVALS),
            })
        }
        Command::Help | Command::Serve(_) | Command::Query { .. } => {
            unreachable!("handled before query dispatch")
        }
    })
}

/// Like [`resolved_override`] for inline (domain-only) scenarios: partial
/// point flags are completed from the paper-default operating point so the
/// built query carries the same full point the engine would resolve.
fn paper_override(point: PointOverrides) -> Option<OperatingPoint> {
    if point.is_empty() {
        return None;
    }
    let base = OperatingPoint::paper_default();
    Some(OperatingPoint {
        applications: point.apps.unwrap_or(base.applications),
        lifetime_years: point.lifetime_years.unwrap_or(base.lifetime_years),
        volume: point.volume.unwrap_or(base.volume),
    })
}

/// A catalog reference with no knob overrides — exactly the request
/// `{"scenario": {"id": ...}}` decodes to on the wire.
fn catalog_ref(id: &str) -> ScenarioRef {
    ScenarioRef::Catalog {
        id: id.to_string(),
        knobs: Vec::new(),
    }
}

/// Turns partial `--apps`/`--lifetime`/`--volume` overrides into the full
/// request point, filling unset fields from the cataloged default so the
/// built query is byte-identical to the equivalent HTTP request. No flags
/// → `None`, and the engine applies the cataloged point itself; unknown
/// ids also return `None` and let the engine report `not_found`.
fn resolved_override(id: &str, point: PointOverrides) -> Option<OperatingPoint> {
    if point.is_empty() {
        return None;
    }
    let base = catalog_entry(id).map(|(_, entry)| entry.point)?;
    Some(OperatingPoint {
        applications: point.apps.unwrap_or(base.applications),
        lifetime_years: point.lifetime_years.unwrap_or(base.lifetime_years),
        volume: point.volume.unwrap_or(base.volume),
    })
}

fn frontier_request(workload: WorkloadArgs, shape: GridShape) -> FrontierRequest {
    FrontierRequest {
        scenario: ScenarioSpec::baseline(workload.domain),
        base: operating_point(workload),
        x_axis: shape.x_axis,
        x_range: (shape.x_from, shape.x_to),
        y_axis: shape.y_axis,
        y_range: (shape.y_from, shape.y_to),
        steps: shape.steps,
    }
}

/// Streams a ratio grid row-block by row-block: each block prints (and
/// flushes) as soon as the engine finishes it, so a million-point lattice
/// never materialises in memory — the resident buffer is one row-block.
/// `--json` emits the compact single-line grid document, spliced around an
/// incrementally written `ratios` array exactly as the HTTP streaming
/// route does; the human view prints glyph rows in evaluation order
/// (ascending y) instead of the buffered heatmap's top-down frame.
fn run_grid_stream(engine: &Engine, command: &Command, json: bool) -> Result<(), ApiError> {
    use std::io::Write;
    let Command::Grid {
        workload, shape, ..
    } = command
    else {
        return Err(ApiError::internal("streamed grid on a non-grid command"));
    };
    let Query::Grid(request) = build_query(command)? else {
        return Err(ApiError::internal("streamed grid built a non-grid query"));
    };
    let mut stream = engine.grid_stream(&request)?;
    let y_values = stream.y_values().to_vec();
    let columns = stream.columns();
    let mut out = std::io::stdout().lock();
    let io = |e: std::io::Error| ApiError::internal(format!("stdout write failed: {e}"));
    let ser =
        |e: gf_json::JsonError| ApiError::internal(format!("result serialization failed: {e}"));
    if json {
        out.write_all(stream.head_json().map_err(ser)?.as_bytes())
            .map_err(io)?;
        while let Some(block) = stream.next_block() {
            out.write_all(block?.rows_json().map_err(ser)?.as_bytes())
                .map_err(io)?;
            out.flush().map_err(io)?;
        }
        writeln!(out, "{}", stream.tail_json().map_err(ser)?).map_err(io)?;
    } else {
        writeln!(
            out,
            "{} ratio grid, {}x{} cells, streaming {} rows per block (ascending y):",
            workload.domain,
            shape.steps,
            shape.steps,
            stream.block_rows()
        )
        .map_err(io)?;
        writeln!(
            out,
            "FPGA:ASIC CFP ratio — x: {}, y: {} ('#','+' FPGA wins, '=', '.', ' ' ASIC wins)",
            stream.x_axis().label(),
            stream.y_axis().label()
        )
        .map_err(io)?;
        let renderer = HeatmapRenderer::new();
        while let Some(block) = stream.next_block() {
            let block = block?;
            let mut text = String::new();
            for row in 0..block.rows() {
                let y = y_values[block.start_row() + row];
                text.push_str(&renderer.render_row(y, block.row(row)));
            }
            out.write_all(text.as_bytes()).map_err(io)?;
            out.flush().map_err(io)?;
        }
        writeln!(
            out,
            "FPGA wins in {:.1}% of {} cells.",
            stream.fpga_winning_fraction() * 100.0,
            stream.rows_delivered() * columns
        )
        .map_err(io)?;
    }
    Ok(())
}

/// Renders a typed outcome as the human-readable tables and maps.
fn render_outcome(command: &Command, outcome: &Outcome) -> Result<(), ApiError> {
    match (command, outcome) {
        (Command::Evaluate(workload), Outcome::Evaluate(response)) => {
            print_comparison_table(*workload, &response.comparison);
            Ok(())
        }
        (Command::Compare { workload, .. }, Outcome::Compare(response)) => {
            for comparison in &response.comparisons {
                let mut workload = *workload;
                workload.domain = comparison.domain;
                print_comparison_table(workload, comparison);
            }
            Ok(())
        }
        (Command::Crossover(workload), Outcome::Crossover(response)) => {
            println!(
                "Crossover points for {} (around {} apps, {:.1} y, {} units):",
                workload.domain, workload.apps, workload.lifetime_years, workload.volume
            );
            match response.applications {
                Some(n) => println!("  applications: FPGA becomes greener from {n} applications"),
                None => println!("  applications: no crossover within 20 applications"),
            }
            match &response.lifetime {
                Some(c) => println!("  lifetime:     {} at {:.2} years", c.direction, c.at),
                None => println!("  lifetime:     no crossover in 0.05–5 years"),
            }
            match &response.volume {
                Some(c) => println!("  volume:       {} at {:.0} units", c.direction, c.at),
                None => println!("  volume:       no crossover in 1K–50M units"),
            }
            Ok(())
        }
        (Command::Sweep { workload, csv, .. }, Outcome::Sweep(series)) => {
            print_sweep(workload.domain, series, *csv);
            Ok(())
        }
        (Command::Industry, Outcome::Industry(response)) => {
            let rows: Vec<Vec<String>> = response
                .devices
                .iter()
                .map(|device| breakdown_row(&device.device, &device.cfp))
                .collect();
            println!("Industry testcases, 6-year service at 1M units (tCO2e):");
            println!(
                "{}",
                render_table(
                    &[
                        "Device",
                        "Design",
                        "Mfg+Pkg",
                        "EOL",
                        "Operation",
                        "App dev",
                        "Total"
                    ],
                    &rows
                )
            );
            Ok(())
        }
        (Command::Tornado(workload), Outcome::Tornado(analysis)) => {
            print_tornado(*workload, analysis);
            Ok(())
        }
        (
            Command::MonteCarlo {
                workload, samples, ..
            },
            Outcome::MonteCarlo(response),
        ) => {
            print_monte_carlo(*workload, *samples, response);
            Ok(())
        }
        (
            Command::Grid {
                workload, shape, ..
            },
            Outcome::Grid(grid),
        ) => {
            println!(
                "{} ratio grid, {}x{} cells (FPGA wins in {:.1}% of them):",
                workload.domain,
                shape.steps,
                shape.steps,
                grid.fpga_winning_fraction() * 100.0
            );
            print!("{}", HeatmapRenderer::new().render(grid));
            Ok(())
        }
        (
            Command::Frontier { workload, shape }
            | Command::Grid {
                workload, shape, ..
            },
            Outcome::Frontier(frontier),
        ) => {
            print_frontier(*workload, *shape, frontier);
            Ok(())
        }
        (Command::Scenarios { id: None, .. }, Outcome::Catalog(response)) => {
            let rows: Vec<Vec<String>> = response
                .entries
                .iter()
                .map(|entry| {
                    vec![
                        entry.id.clone(),
                        entry.scenario.domain.to_string(),
                        entry.point.applications.to_string(),
                        format!("{:.1}", entry.point.lifetime_years),
                        entry.point.volume.to_string(),
                        entry.title.clone(),
                    ]
                })
                .collect();
            println!("Scenario catalog ({} entries):", response.entries.len());
            println!(
                "{}",
                render_table(
                    &["Id", "Domain", "Apps", "Lifetime", "Volume", "Title"],
                    &rows
                )
            );
            Ok(())
        }
        (Command::Scenarios { .. }, Outcome::Scenario(response)) => {
            let workload = WorkloadArgs {
                domain: response.comparison.domain,
                apps: response.point.applications,
                lifetime_years: response.point.lifetime_years,
                volume: response.point.volume,
            };
            if let Some(id) = &response.id {
                println!("Scenario '{id}':");
            }
            print_comparison_table(workload, &response.comparison);
            print_verdict(&response.verdict);
            Ok(())
        }
        (Command::Replay { .. }, Outcome::Replay(response)) => {
            print_replay(response.id.as_deref(), response.domain, &response.replay);
            Ok(())
        }
        (Command::Optimize { .. }, Outcome::Optimize(response)) => {
            match &response.id {
                Some(id) => println!("Optimum for '{id}' ({}):", response.domain),
                None => println!("Optimum ({}):", response.domain),
            }
            for (axis, value) in &response.argmin {
                println!("  {:14} {value}", format!("{}:", axis.label()));
            }
            println!(
                "  at {} apps, {:.3} y, {} units",
                response.point.applications, response.point.lifetime_years, response.point.volume
            );
            println!(
                "  objective {:.6} via the {} solver ({} evaluations)",
                response.objective, response.solver, response.evaluations
            );
            for probe in &response.certificate {
                println!(
                    "  probe {} = {}: objective {:.6} (delta {:+.6})",
                    probe.axis.label(),
                    probe.at,
                    probe.objective,
                    probe.delta
                );
            }
            print_verdict(&response.verdict);
            Ok(())
        }
        _ => Err(ApiError::internal(
            "outcome kind does not match the subcommand",
        )),
    }
}

fn print_comparison_table(args: WorkloadArgs, comparison: &PlatformComparison) {
    println!(
        "{} — {} applications, {:.1}-year lifetimes, {} units each:",
        comparison.domain, args.apps, args.lifetime_years, args.volume
    );
    let rows = vec![
        breakdown_row("FPGA", &comparison.fpga),
        breakdown_row("ASIC", &comparison.asic),
    ];
    println!(
        "{}",
        render_table(
            &[
                "Platform",
                "Design",
                "Mfg+Pkg",
                "EOL",
                "Operation",
                "App dev",
                "Total (t)"
            ],
            &rows
        )
    );
    println!(
        "FPGA:ASIC ratio {:.3} — greener platform: {}",
        comparison.fpga_to_asic_ratio(),
        comparison.winner()
    );
}

/// One table row of a breakdown, in tons.
fn breakdown_row(label: &str, cfp: &CfpBreakdown) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{:.1}", cfp.design.as_tons()),
        format!("{:.1}", (cfp.manufacturing + cfp.packaging).as_tons()),
        format!("{:.1}", cfp.eol.as_tons()),
        format!("{:.1}", cfp.operation.as_tons()),
        format!("{:.1}", cfp.app_dev.as_tons()),
        format!("{:.1}", cfp.total().as_tons()),
    ]
}

fn print_sweep(domain: Domain, series: &SweepSeries, csv: bool) {
    let axis: SweepAxis = series.axis;
    let rows: Vec<Vec<String>> = series
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.4}", p.x),
                format!("{:.3}", p.fpga.total().as_tons()),
                format!("{:.3}", p.asic.total().as_tons()),
                format!("{:.4}", p.ratio()),
            ]
        })
        .collect();
    let headers = [
        axis.label(),
        "FPGA total (t)",
        "ASIC total (t)",
        "FPGA:ASIC",
    ];
    if csv {
        print!("{}", csv_from_rows(&headers, &rows));
    } else {
        println!("{} sweep for {}:", axis.label(), domain);
        println!("{}", render_table(&headers, &rows));
        for c in series.crossovers() {
            println!("{} crossover at {:.3}", c.direction, c.at);
        }
    }
}

fn print_tornado(args: WorkloadArgs, analysis: &TornadoAnalysis) {
    let rows: Vec<Vec<String>> = analysis
        .entries
        .iter()
        .map(|e| {
            vec![
                e.knob.to_string(),
                format!("{:.3}", e.ratio_at_low),
                format!("{:.3}", e.ratio_at_high),
                format!("{:.3}", e.swing()),
                if e.flips_winner() {
                    "yes".into()
                } else {
                    "no".into()
                },
            ]
        })
        .collect();
    println!(
        "Sensitivity of the FPGA:ASIC ratio for {} (baseline {:.3}):",
        args.domain,
        analysis
            .entries
            .first()
            .map(|e| e.ratio_at_baseline)
            .unwrap_or(f64::NAN)
    );
    println!(
        "{}",
        render_table(
            &[
                "Knob",
                "Ratio @ low",
                "Ratio @ high",
                "Swing",
                "Flips winner?"
            ],
            &rows
        )
    );
}

fn print_monte_carlo(args: WorkloadArgs, samples: usize, response: &MonteCarloResponse) {
    println!(
        "Monte-Carlo study for {} ({samples} samples over the Table 1 ranges):",
        args.domain
    );
    println!("  ratio p5     {:.3}", response.ratio_p5);
    println!("  ratio median {:.3}", response.ratio_median);
    println!("  ratio p95    {:.3}", response.ratio_p95);
    println!("  ratio mean   {:.3}", response.ratio_mean);
    println!(
        "  P(FPGA greener) = {:.1}%",
        response.fpga_win_probability * 100.0
    );
    println!("  majority winner: {}", response.majority_winner);
}

fn print_verdict(verdict: &Verdict) {
    println!(
        "Verdict: score {:.4} (mean excess {:.3}, worst excess {:.3}, loss fraction {:.3}, embodied share {:.3})",
        verdict.score,
        verdict.mean_excess,
        verdict.worst_excess,
        verdict.loss_fraction,
        verdict.embodied_share
    );
}

fn print_replay(id: Option<&str>, domain: Domain, replay: &ReplayOutcome) {
    match id {
        Some(id) => println!("Replay of '{id}' ({domain}, {} steps):", replay.steps),
        None => println!("Replay ({domain}, {} steps):", replay.steps),
    }
    println!(
        "  FPGA total  {:.1} t (operation {:.1} t)",
        replay.fpga_total.as_tons(),
        replay.fpga_operational.as_tons()
    );
    println!(
        "  ASIC total  {:.1} t (operation {:.1} t)",
        replay.asic_total.as_tons(),
        replay.asic_operational.as_tons()
    );
    println!(
        "  FPGA:ASIC ratio mean {:.3}, worst {:.3}, final {:.3}",
        replay.mean_ratio, replay.worst_ratio, replay.final_ratio
    );
    println!(
        "  FPGA greener in {:.1}% of steps",
        replay.fpga_win_fraction * 100.0
    );
    print_verdict(&replay.verdict);
}

fn print_frontier(args: WorkloadArgs, shape: GridShape, frontier: &FrontierResponse) {
    println!(
        "{} crossover frontier, {}x{} cells (FPGA wins in {:.1}%; {} evaluations, {:.1}% of dense):",
        args.domain,
        shape.steps,
        shape.steps,
        frontier.fpga_winning_fraction * 100.0,
        frontier.evaluations,
        frontier.evaluated_fraction * 100.0
    );
    print!(
        "{}",
        HeatmapRenderer::new().render_frontier_response(frontier)
    );
}

/// The `query` subcommand: one raw [`Query`] envelope in, one
/// [`Outcome`] envelope out.
fn run_raw_query(file: Option<String>) -> Result<(), ApiError> {
    let text = match file {
        Some(path) => std::fs::read_to_string(&path)
            .map_err(|e| ApiError::bad_request(format!("cannot read {path}: {e}")))?,
        None => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| ApiError::bad_request(format!("cannot read stdin: {e}")))?;
            text
        }
    };
    let value = gf_json::parse(&text)?;
    let query = Query::from_json(&value)?;
    let engine = Engine::with_defaults()?;
    let outcome = engine.run(&query)?;
    print_json(&outcome.to_json())
}

/// Runs the HTTP service in the foreground until the process is stopped.
fn serve(serve_args: ServeArgs) -> Result<(), ApiError> {
    let config = gf_server::ServerConfig {
        addr: serve_args.addr,
        workers: serve_args.workers,
        eval_threads: serve_args.eval_threads,
        cache_capacity: serve_args.cache_capacity,
        cache_shards: serve_args.cache_shards,
        max_connections: serve_args.max_connections,
        idle_timeout: std::time::Duration::from_secs(serve_args.idle_timeout_secs),
        header_timeout: std::time::Duration::from_secs(serve_args.header_timeout_secs),
        driver: serve_args.driver,
        ..gf_server::ServerConfig::default()
    };
    let workers = config.workers_resolved();
    let driver = config.driver.name();
    let server = gf_server::Server::bind(config)
        .map_err(|e| ApiError::internal(format!("cannot start the server: {e}")))?;
    println!(
        "greenfpga-serve listening on http://{} ({workers} workers, {driver} driver)",
        server.local_addr()
    );
    server.run();
    Ok(())
}

fn operating_point(args: WorkloadArgs) -> OperatingPoint {
    OperatingPoint {
        applications: args.apps,
        lifetime_years: args.lifetime_years,
        volume: args.volume,
    }
}

/// Prints a JSON document (pretty, machine-parseable) to stdout.
///
/// # Errors
///
/// Surfaces serialization failures (a non-finite number in the result) as
/// an internal error, so `--json` consumers get a non-zero exit instead of
/// an empty file.
fn print_json(value: &Value) -> Result<(), ApiError> {
    let text = value
        .to_json_string_pretty()
        .map_err(|e| ApiError::internal(format!("result serialization failed: {e}")))?;
    print!("{text}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_body(line: &str) -> String {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let parsed = args::parse(&argv).expect("parse");
        build_query(&parsed.command)
            .expect("build query")
            .request_body()
            .to_json_string()
            .expect("serialize")
    }

    #[test]
    fn optimize_subcommand_builds_byte_identical_wire_queries() {
        // The CLI must send exactly the bytes a hand-written HTTP client
        // would POST to /v1/optimize — same member order, same omitted
        // defaults — so served responses (and caches) cannot diverge by
        // entry path.
        assert_eq!(
            query_body(
                "optimize dnn_fleet_10k_3y --objective ratio --knob apps:1:12 \
                 --knob lifetime:0.5:4 --fpga-wins --tolerance 1e-5 --max-evals 2000"
            ),
            r#"{"id":"dnn_fleet_10k_3y","knobs":{},"objective":{"goal":"min_ratio"},"search":[{"axis":"apps","min":1,"max":12},{"axis":"lifetime","min":0.5,"max":4}],"constraints":[{"kind":"fpga_wins"}],"tolerance":0.00001,"max_evals":2000}"#
        );
        // Inline scenario, default tolerance/max_evals omitted; a partial
        // point override is completed from the paper-default point.
        assert_eq!(
            query_body("optimize --domain crypto --objective budget --platform asic --budget-kg 5e6 --knob volume:1000:2000000:int --apps 3"),
            r#"{"domain":"crypto","knobs":{},"point":{"applications":3,"lifetime_years":2,"volume":1000000},"objective":{"goal":"budget","platform":"asic","budget_kg":5000000},"search":[{"axis":"volume","min":1000,"max":2000000,"integer":true}]}"#
        );
    }

    #[test]
    fn replay_years_rides_the_wire_only_when_above_one() {
        assert_eq!(
            query_body("replay dnn_fleet_10k_3y --region solar_duck"),
            r#"{"id":"dnn_fleet_10k_3y","knobs":{},"series":"solar_duck","interpolate":false}"#
        );
        assert_eq!(
            query_body("replay dnn_fleet_10k_3y --region solar_duck --years 3"),
            r#"{"id":"dnn_fleet_10k_3y","knobs":{},"series":"solar_duck","interpolate":false,"years":3}"#
        );
    }
}
