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
//! Every subcommand is a thin adapter over [`greenfpga::Engine`]: its
//! flags assemble the request object `POST /v1/<kind>` carries, which is
//! decoded by the server's own `QueryKind::decode_body` and run through the
//! same facade, and the typed outcome is rendered — as a table by
//! default, or as the identical wire JSON with `--json`. Failures exit
//! with the [`greenfpga::ApiErrorCode`] taxonomy's canonical codes:
//! `2` usage, `3` model, `4` overloaded, `5` internal.

mod args;

use std::io::{Read, Write};
use std::process::ExitCode;

use gf_json::{Document, FromJson, JsonError, JsonWriter, ParseLimits, ToJson};
use greenfpga::api::{Outcome, Query};
use greenfpga::{
    csv_from_rows, render_table, ApiError, CfpBreakdown, CrossoverRequest, Engine, GridRequest,
    HeatmapRenderer, OperatingPoint, PlatformComparison, Verdict,
};

use args::{Action, Invocation, USAGE};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match args::parse(&raw) {
        Ok(invocation) => invocation,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(ApiError::bad_request(String::new()).exit_code());
        }
    };
    apply_log_level(
        invocation.verbosity,
        std::env::var("GF_LOG").ok().as_deref(),
    );
    let error = match run(invocation) {
        Ok(()) => return ExitCode::SUCCESS,
        // A reader that stopped reading (`| head`) wants no more output.
        Err(Failure::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            return ExitCode::SUCCESS
        }
        Err(Failure::Io(e)) => ApiError::internal(format!("stdout write failed: {e}")),
        Err(Failure::Api(e)) => e,
    };
    eprintln!("error: {error}");
    ExitCode::from(error.exit_code())
}

/// Why a run stopped short: the engine's error, or stdout refusing output.
enum Failure {
    Api(ApiError),
    Io(std::io::Error),
}

/// `?` converts each error the engine, the decoder or stdout raises.
macro_rules! failure_from {
    ($($source:ty => $variant:ident),*) => {$(
        impl From<$source> for Failure {
            fn from(e: $source) -> Failure {
                Failure::$variant(e.into())
            }
        }
    )*};
}

failure_from!(ApiError => Api, gf_json::JsonError => Api, greenfpga::GreenFpgaError => Api, std::io::Error => Io);

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

fn run(Invocation { action, json, .. }: Invocation) -> Result<(), Failure> {
    let mut out = std::io::stdout().lock();
    match action {
        Action::Help => {
            reject_json(json, "help")?;
            writeln!(out, "{USAGE}")?;
        }
        Action::Serve(config) => {
            reject_json(json, "serve")?;
            // The server runs until the process is stopped.
            drop(out);
            return serve(config);
        }
        Action::RawQuery(file) => run_raw_query(file, &mut out)?,
        Action::Run { kind, body, csv } => {
            // One request id for the whole analytic run, so engine-level
            // spans (tile batches, cache compiles) land under it and the
            // `-v`/`-vv` diagnostics can read them back afterwards.
            let query = kind.decode_body(&body, ParseLimits::default())?;
            let request_id = gf_trace::next_id();
            gf_trace::set_current_request(request_id);
            let result = run_query(query, json, csv, &mut out);
            gf_trace::set_current_request(0);
            log_phase_timings(request_id);
            result?;
        }
    }
    Ok(out.flush()?)
}

/// Runs one decoded request and writes its rendering.
fn run_query(query: Query, json: bool, csv: bool, out: &mut dyn Write) -> Result<(), Failure> {
    let start = gf_trace::open();
    let engine = Engine::with_defaults()?;
    let start = gf_trace::close(gf_trace::SpanName::CliCompile, start, 0);
    if let Query::Grid(request @ GridRequest { stream: true, .. }) = &query {
        let result = run_grid_stream(&engine, request, json, out);
        gf_trace::close(gf_trace::SpanName::CliEval, start, 0);
        return result;
    }
    let outcome = engine.run(&query);
    gf_trace::close(gf_trace::SpanName::CliEval, start, 0);
    let outcome = outcome?;
    if json {
        let mut w = JsonWriter::new();
        outcome.write_result(&mut w);
        write_json(out, w.finish())
    } else {
        Ok(render(out, &query, &outcome, csv)?)
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

/// Streams a ratio grid row-block by row-block: each block prints (and
/// flushes) as soon as the engine finishes it, so a million-point lattice
/// never materialises in memory — the resident buffer is one row-block.
/// `--json` emits the compact single-line grid document, spliced around an
/// incrementally written `ratios` array exactly as the HTTP streaming
/// route does; the human view prints glyph rows in evaluation order
/// (ascending y) instead of the buffered heatmap's top-down frame.
fn run_grid_stream(
    engine: &Engine,
    request: &GridRequest,
    json: bool,
    out: &mut dyn Write,
) -> Result<(), Failure> {
    let mut stream = engine.grid_stream(request)?;
    let lattice = stream.lattice().clone();
    let ser =
        |e: gf_json::JsonError| ApiError::internal(format!("result serialization failed: {e}"));
    if json {
        out.write_all(stream.head_json().map_err(ser)?.as_bytes())?;
        while let Some(block) = stream.next_block() {
            out.write_all(block?.rows_json().map_err(ser)?.as_bytes())?;
            out.flush()?;
        }
        writeln!(out, "{}", stream.tail_json().map_err(ser)?)?;
    } else {
        writeln!(
            out,
            "{} ratio grid, {}x{} cells, streaming {} rows per block (ascending y):",
            request.scenario.domain,
            request.steps,
            request.steps,
            stream.block_rows()
        )?;
        writeln!(
            out,
            "FPGA:ASIC CFP ratio — x: {}, y: {} ('#','+' FPGA wins, '=', '.', ' ' ASIC wins)",
            lattice.x_axis.label(),
            lattice.y_axis.label()
        )?;
        let renderer = HeatmapRenderer::new();
        while let Some(block) = stream.next_block() {
            let block = block?;
            let mut text = String::new();
            for row in 0..block.rows() {
                let y = lattice.y_values[block.start_row() + row];
                text.push_str(&renderer.render_row(y, block.row(row)));
            }
            out.write_all(text.as_bytes())?;
            out.flush()?;
        }
        writeln!(
            out,
            "FPGA wins in {:.1}% of {} cells.",
            stream.fpga_winning_fraction() * 100.0,
            stream.rows_delivered() * lattice.width()
        )?;
    }
    Ok(())
}

/// Renders a typed outcome as the human-readable tables and maps, reading
/// the request for what the response does not repeat.
fn render(out: &mut dyn Write, query: &Query, outcome: &Outcome, csv: bool) -> std::io::Result<()> {
    match (query, outcome) {
        (Query::Evaluate(request), Outcome::Evaluate(response)) => {
            comparison_table(out, &request.point, &response.comparison)
        }
        (Query::Compare(request), Outcome::Compare(response)) => {
            for comparison in &response.comparisons {
                comparison_table(out, &request.point, comparison)?;
            }
            Ok(())
        }
        (Query::Crossover(request), Outcome::Crossover(response)) => {
            let base = &request.base;
            writeln!(
                out,
                "Crossover points for {} (around {} apps, {:.1} y, {} units):",
                request.scenario.domain, base.applications, base.lifetime_years, base.volume
            )?;
            match response.applications {
                Some(n) => writeln!(
                    out,
                    "  applications: FPGA becomes greener from {n} applications"
                )?,
                None => writeln!(
                    out,
                    "  applications: no crossover within {} applications",
                    CrossoverRequest::DEFAULT_MAX_APPLICATIONS
                )?,
            }
            match &response.lifetime {
                Some(c) => writeln!(out, "  lifetime:     {} at {:.2} years", c.direction, c.at)?,
                None => {
                    let (from, to) = CrossoverRequest::DEFAULT_LIFETIME_RANGE;
                    writeln!(out, "  lifetime:     no crossover in {from}–{to} years")?
                }
            }
            match &response.volume {
                Some(c) => writeln!(out, "  volume:       {} at {:.0} units", c.direction, c.at),
                None => {
                    let (from, to) = CrossoverRequest::DEFAULT_VOLUME_RANGE;
                    writeln!(
                        out,
                        "  volume:       no crossover in {}K–{}M units",
                        from / 1_000,
                        to / 1_000_000
                    )
                }
            }
        }
        (Query::Sweep(request), Outcome::Sweep(series)) => {
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
                series.axis.label(),
                "FPGA total (t)",
                "ASIC total (t)",
                "FPGA:ASIC",
            ];
            if csv {
                return write!(out, "{}", csv_from_rows(&headers, &rows));
            }
            let domain = request.scenario.domain;
            writeln!(out, "{} sweep for {domain}:", series.axis.label())?;
            writeln!(out, "{}", render_table(&headers, &rows))?;
            for c in series.crossovers() {
                writeln!(out, "{} crossover at {:.3}", c.direction, c.at)?;
            }
            Ok(())
        }
        (_, Outcome::Industry(response)) => {
            let rows: Vec<Vec<String>> = response
                .devices
                .iter()
                .map(|device| breakdown_row(&device.device, &device.cfp))
                .collect();
            writeln!(
                out,
                "Industry testcases, 6-year service at 1M units (tCO2e):"
            )?;
            writeln!(out, "{}", breakdown_table("Device", "Total", &rows))
        }
        (Query::Tornado(request), Outcome::Tornado(analysis)) => {
            let rows: Vec<Vec<String>> = analysis
                .entries
                .iter()
                .map(|e| {
                    vec![
                        e.knob.to_string(),
                        format!("{:.3}", e.ratio_at_low),
                        format!("{:.3}", e.ratio_at_high),
                        format!("{:.3}", e.swing()),
                        (if e.flips_winner() { "yes" } else { "no" }).to_string(),
                    ]
                })
                .collect();
            let baseline = analysis.entries.first().map(|e| e.ratio_at_baseline);
            writeln!(
                out,
                "Sensitivity of the FPGA:ASIC ratio for {} (baseline {:.3}):",
                request.scenario.domain,
                baseline.unwrap_or(f64::NAN)
            )?;
            let headers = [
                "Knob",
                "Ratio @ low",
                "Ratio @ high",
                "Swing",
                "Flips winner?",
            ];
            writeln!(out, "{}", render_table(&headers, &rows))
        }
        (Query::MonteCarlo(request), Outcome::MonteCarlo(report)) => {
            let (domain, samples) = (request.scenario.domain, request.samples);
            writeln!(
                out,
                "Monte-Carlo study for {domain} ({samples} samples over the Table 1 ranges):"
            )?;
            writeln!(out, "  ratio p5     {:.3}", report.quantile(0.05))?;
            writeln!(out, "  ratio median {:.3}", report.median())?;
            writeln!(out, "  ratio p95    {:.3}", report.quantile(0.95))?;
            writeln!(out, "  ratio mean   {:.3}", report.mean())?;
            let win = report.fpga_win_probability() * 100.0;
            writeln!(out, "  P(FPGA greener) = {win:.1}%")?;
            writeln!(out, "  majority winner: {}", report.majority_winner())
        }
        (Query::Grid(request), Outcome::Grid(grid)) => {
            writeln!(
                out,
                "{} ratio grid, {}x{} cells (FPGA wins in {:.1}% of them):",
                request.scenario.domain,
                request.steps,
                request.steps,
                grid.fpga_winning_fraction() * 100.0
            )?;
            write!(out, "{}", HeatmapRenderer::new().render(grid))
        }
        (Query::Frontier(request), Outcome::Frontier(frontier)) => {
            writeln!(
                out,
                "{} crossover frontier, {}x{} cells (FPGA wins in {:.1}%; {} evaluations, {:.1}% of dense):",
                request.scenario.domain,
                request.steps,
                request.steps,
                frontier.fpga_winning_fraction() * 100.0,
                frontier.evaluations(),
                frontier.evaluated_fraction() * 100.0
            )?;
            write!(out, "{}", HeatmapRenderer::new().render_frontier(frontier))
        }
        (_, Outcome::Catalog(response)) => {
            let rows: Vec<Vec<String>> = response
                .entries
                .iter()
                .map(|entry| {
                    vec![
                        entry.id.to_string(),
                        entry.scenario.domain.to_string(),
                        entry.point.applications.to_string(),
                        format!("{:.1}", entry.point.lifetime_years),
                        entry.point.volume.to_string(),
                        entry.title.to_string(),
                    ]
                })
                .collect();
            writeln!(
                out,
                "Scenario catalog ({} entries):",
                response.entries.len()
            )?;
            writeln!(
                out,
                "{}",
                render_table(
                    &["Id", "Domain", "Apps", "Lifetime", "Volume", "Title"],
                    &rows
                )
            )
        }
        (_, Outcome::Scenario(response)) => {
            if let Some(id) = &response.id {
                writeln!(out, "Scenario '{id}':")?;
            }
            comparison_table(out, &response.point, &response.comparison)?;
            verdict(out, &response.verdict)
        }
        (_, Outcome::Replay(response)) => {
            let (domain, replay) = (response.domain, &response.replay);
            match &response.id {
                Some(id) => writeln!(out, "Replay of '{id}' ({domain}, {} steps):", replay.steps)?,
                None => writeln!(out, "Replay ({domain}, {} steps):", replay.steps)?,
            }
            let (fpga, asic) = (&replay.fpga_total, &replay.asic_total);
            let operation = (&replay.fpga_operational, &replay.asic_operational);
            writeln!(
                out,
                "  FPGA total  {:.1} t (operation {:.1} t)",
                fpga.as_tons(),
                operation.0.as_tons()
            )?;
            writeln!(
                out,
                "  ASIC total  {:.1} t (operation {:.1} t)",
                asic.as_tons(),
                operation.1.as_tons()
            )?;
            writeln!(
                out,
                "  FPGA:ASIC ratio mean {:.3}, worst {:.3}, final {:.3}",
                replay.mean_ratio, replay.worst_ratio, replay.final_ratio
            )?;
            let win = replay.fpga_win_fraction * 100.0;
            writeln!(out, "  FPGA greener in {win:.1}% of steps")?;
            verdict(out, &replay.verdict)
        }
        (_, Outcome::Optimize(response)) => {
            match &response.id {
                Some(id) => writeln!(out, "Optimum for '{id}' ({}):", response.domain)?,
                None => writeln!(out, "Optimum ({}):", response.domain)?,
            }
            for (axis, value) in &response.argmin {
                writeln!(out, "  {:14} {value}", format!("{}:", axis.label()))?;
            }
            writeln!(
                out,
                "  at {} apps, {:.3} y, {} units",
                response.point.applications, response.point.lifetime_years, response.point.volume
            )?;
            writeln!(
                out,
                "  objective {:.6} via the {} solver ({} evaluations)",
                response.objective, response.solver, response.evaluations
            )?;
            for probe in &response.certificate {
                writeln!(
                    out,
                    "  probe {} = {}: objective {:.6} (delta {:+.6})",
                    probe.axis.label(),
                    probe.at,
                    probe.objective,
                    probe.delta
                )?;
            }
            verdict(out, &response.verdict)
        }
        (query, outcome) => unreachable!(
            "the engine answers a {} query with a {} outcome",
            query.kind(),
            outcome.kind()
        ),
    }
}

fn comparison_table(
    out: &mut dyn Write,
    point: &OperatingPoint,
    comparison: &PlatformComparison,
) -> std::io::Result<()> {
    writeln!(
        out,
        "{} — {} applications, {:.1}-year lifetimes, {} units each:",
        comparison.domain, point.applications, point.lifetime_years, point.volume
    )?;
    let rows = vec![
        breakdown_row("FPGA", &comparison.fpga),
        breakdown_row("ASIC", &comparison.asic),
    ];
    writeln!(out, "{}", breakdown_table("Platform", "Total (t)", &rows))?;
    writeln!(
        out,
        "FPGA:ASIC ratio {:.3} — greener platform: {}",
        comparison.fpga_to_asic_ratio(),
        comparison.winner()
    )
}

/// A table of breakdown rows under the given first and last headers.
fn breakdown_table(first: &str, total: &str, rows: &[Vec<String>]) -> String {
    let headers = [
        first,
        "Design",
        "Mfg+Pkg",
        "EOL",
        "Operation",
        "App dev",
        total,
    ];
    render_table(&headers, rows)
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

fn verdict(out: &mut dyn Write, verdict: &Verdict) -> std::io::Result<()> {
    writeln!(
        out,
        "Verdict: score {:.4} (mean excess {:.3}, worst excess {:.3}, loss fraction {:.3}, embodied share {:.3})",
        verdict.score,
        verdict.mean_excess,
        verdict.worst_excess,
        verdict.loss_fraction,
        verdict.embodied_share
    )
}

/// The `query` subcommand: one raw [`Query`] envelope in, one
/// [`Outcome`] envelope out.
fn run_raw_query(file: Option<String>, out: &mut dyn Write) -> Result<(), Failure> {
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
    let query = Query::from_node(Document::parse(&text, ParseLimits::default())?.root())?;
    let engine = Engine::with_defaults()?;
    let outcome = engine.run(&query)?;
    write_json(out, outcome.to_json_string())
}

/// Runs the HTTP service in the foreground until the process is stopped.
fn serve(config: gf_server::ServerConfig) -> Result<(), Failure> {
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

/// Writes a compact JSON document pretty-printed (still machine-parseable).
///
/// # Errors
///
/// Surfaces serialization failures (a non-finite number in the result) as
/// an internal error, so `--json` consumers get a non-zero exit instead of
/// an empty file.
fn write_json(out: &mut dyn Write, compact: Result<String, JsonError>) -> Result<(), Failure> {
    let text =
        compact.map_err(|e| ApiError::internal(format!("result serialization failed: {e}")))?;
    Ok(out.write_all(gf_json::pretty(&text).as_bytes())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_body(line: &str) -> String {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let Action::Run { kind, body, .. } = args::parse(&argv).expect("parse").action else {
            panic!("'{line}' is not a query");
        };
        let mut w = JsonWriter::new();
        kind.decode_body(&body, ParseLimits::default())
            .expect("decode")
            .write_body(&mut w);
        w.finish().expect("serialize")
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
