//! Hand-rolled argument parsing for the `greenfpga` CLI.
//!
//! The binary intentionally avoids an argument-parsing dependency: the
//! interface is a handful of subcommands with `--key value` options, which a
//! small parser covers while keeping the dependency set to the offline
//! whitelist.

use std::fmt;

use greenfpga::{
    Constraint, Domain, MonteCarloRequest, Objective, OptPlatform, SearchKnob, SweepAxis,
};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Compare FPGA vs ASIC at one operating point, in one or more domains
    /// (`--domain dnn,crypto` compares side by side).
    Compare {
        /// Common workload arguments (the domain list overrides its
        /// domain).
        workload: WorkloadArgs,
        /// The domains to compare, in order.
        domains: Vec<Domain>,
    },
    /// Evaluate one operating point in one scenario (the `evaluate` query).
    Evaluate(WorkloadArgs),
    /// Run one raw `Query` JSON envelope from a file or stdin.
    Query {
        /// Path to the envelope (`-`/absent = stdin).
        file: Option<String>,
    },
    /// Sweep one workload axis and print the series (optionally as CSV).
    Sweep {
        /// Common workload arguments (the swept axis value is ignored).
        workload: WorkloadArgs,
        /// Axis to sweep.
        axis: SweepAxis,
        /// First value of the sweep.
        from: f64,
        /// Last value of the sweep.
        to: f64,
        /// Number of samples.
        steps: usize,
        /// Emit CSV instead of a table.
        csv: bool,
    },
    /// Report all three crossover points for a domain.
    Crossover(WorkloadArgs),
    /// Evaluate the Table 3 industry testcases (Figs. 10–11).
    Industry,
    /// One-at-a-time sensitivity (tornado) analysis.
    Tornado(WorkloadArgs),
    /// Monte-Carlo uncertainty analysis.
    MonteCarlo {
        /// Common workload arguments.
        workload: WorkloadArgs,
        /// Number of samples to draw.
        samples: usize,
        /// RNG seed (deterministic results for a fixed seed).
        seed: u64,
    },
    /// Run the HTTP/JSON estimation service (`greenfpga-serve`).
    Serve(ServeArgs),
    /// Evaluate a 2-D ratio grid and print it as a character heatmap
    /// (Fig. 8), using the parallel batch engine.
    Grid {
        /// Common workload arguments (the two swept axes override it).
        workload: WorkloadArgs,
        /// Lattice geometry: axes, ranges and resolution.
        shape: GridShape,
        /// Classify winners by bisecting each row for its flip instead of
        /// evaluating every cell.
        adaptive: bool,
        /// Stream row-blocks as they are computed instead of buffering the
        /// whole grid (bounded memory for million-point lattices).
        stream: bool,
    },
    /// Trace the crossover frontier of a 2-D lattice by bisecting each row
    /// for its single winner flip, and print the winner map.
    Frontier {
        /// Common workload arguments (the two swept axes override it).
        workload: WorkloadArgs,
        /// Lattice geometry: axes, ranges and resolution.
        shape: GridShape,
    },
    /// List the named scenario catalog, or run one cataloged scenario by
    /// id with a scored verdict (the `catalog` / `scenario` queries).
    Scenarios {
        /// Catalog id to run; `None` lists the catalog.
        id: Option<String>,
        /// Operating-point overrides on the cataloged default.
        point: PointOverrides,
    },
    /// Replay a cataloged scenario against a year of time-varying grid
    /// carbon intensity (the `replay` query).
    Replay {
        /// Catalog id of the scenario to replay.
        id: String,
        /// Carbon-intensity region preset (`None` = the wire default).
        region: Option<String>,
        /// Interpolate linearly between hourly samples.
        interpolate: bool,
        /// Operating-point overrides on the cataloged default.
        point: PointOverrides,
        /// How many times the series is stitched end-to-end (`--years`).
        years: u64,
    },
    /// Solve an inverse query: minimize an objective (or fill a carbon
    /// budget) over a box of search knobs (the `optimize` query).
    Optimize {
        /// Catalog id supplying the scenario; `None` uses the baseline of
        /// `--domain`.
        id: Option<String>,
        /// Domain of the inline baseline scenario when no id is given.
        domain: Domain,
        /// Operating-point overrides supplying the non-searched axes.
        point: PointOverrides,
        /// What to minimize or satisfy.
        objective: Objective,
        /// The searched axes and their bounds (`--knob`, repeatable).
        search: Vec<SearchKnob>,
        /// Feasibility constraints (`--fpga-wins`, `--cap-kg`).
        constraints: Vec<Constraint>,
        /// `--tolerance`, when given.
        tolerance: Option<f64>,
        /// `--max-evals`, when given.
        max_evals: Option<u64>,
    },
    /// Print usage information.
    Help,
}

/// Geometry of a 2-D operating-point lattice shared by the `grid` and
/// `frontier` subcommands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridShape {
    /// Axis swept along the columns.
    pub x_axis: SweepAxis,
    /// Column range start.
    pub x_from: f64,
    /// Column range end.
    pub x_to: f64,
    /// Axis swept along the rows.
    pub y_axis: SweepAxis,
    /// Row range start.
    pub y_from: f64,
    /// Row range end.
    pub y_to: f64,
    /// Lattice resolution per axis.
    pub steps: usize,
}

/// Options of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Bind address.
    pub addr: String,
    /// Connection worker threads (`0` = auto).
    pub workers: usize,
    /// Worker threads per batch evaluation.
    pub eval_threads: usize,
    /// Cached compiled scenarios.
    pub cache_capacity: usize,
    /// Scenario cache shards.
    pub cache_shards: usize,
    /// Hard cap on live connections (admission control beyond it).
    pub max_connections: usize,
    /// Keep-alive idle close, in seconds.
    pub idle_timeout_secs: u64,
    /// Slowloris `408` deadline, in seconds.
    pub header_timeout_secs: u64,
    /// Readiness driver for the event loop.
    pub driver: gf_server::DriverKind,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:7878".to_string(),
            workers: 0,
            eval_threads: 1,
            cache_capacity: 64,
            cache_shards: 8,
            max_connections: 4096,
            idle_timeout_secs: 5,
            header_timeout_secs: 10,
            driver: gf_server::DriverKind::Auto,
        }
    }
}

/// A parsed command line: the command plus global output options.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCommand {
    /// The subcommand to run.
    pub command: Command,
    /// Emit JSON (via the `greenfpga::api` serializers) instead of tables.
    pub json: bool,
    /// Stderr diagnostic verbosity: `0` quiet (warnings only), `1` = `-v`
    /// (phase timings), `2` = `-vv` (per-span detail).
    pub verbosity: u8,
}

/// Partial operating-point overrides for the catalog-backed subcommands:
/// each field only replaces the cataloged default when the flag was
/// actually given, so `greenfpga scenarios <id>` with no flags runs the
/// exact request `POST /v1/scenario {"scenario":{"id":...}}` sends.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PointOverrides {
    /// `--apps`, when given.
    pub apps: Option<u64>,
    /// `--lifetime`, when given.
    pub lifetime_years: Option<f64>,
    /// `--volume`, when given.
    pub volume: Option<u64>,
}

impl PointOverrides {
    /// Whether any override flag was given.
    pub fn is_empty(&self) -> bool {
        *self == PointOverrides::default()
    }
}

/// Workload arguments shared by most subcommands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadArgs {
    /// Application domain.
    pub domain: Domain,
    /// Number of applications.
    pub apps: u64,
    /// Per-application lifetime in years.
    pub lifetime_years: f64,
    /// Per-application volume in devices.
    pub volume: u64,
}

impl Default for WorkloadArgs {
    fn default() -> Self {
        WorkloadArgs {
            domain: Domain::Dnn,
            apps: 5,
            lifetime_years: 2.0,
            volume: 1_000_000,
        }
    }
}

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text printed by `greenfpga help` and on parse errors.
pub const USAGE: &str = "\
greenfpga — lifecycle carbon-footprint model for FPGA vs ASIC acceleration

USAGE:
  greenfpga <COMMAND> [OPTIONS]

COMMANDS:
  evaluate     Evaluate one operating point in one scenario
  compare      Compare platforms at one point (1+ domains side by side)
  sweep        Sweep apps | lifetime | volume and print the series
  crossover    Report A2F/F2A crossover points (closed-form solver)
  grid         2-D ratio heatmap over two axes (parallel batch engine)
  frontier     Adaptive crossover-frontier winner map over two axes
  industry     Evaluate the Table 3 industry testcases
  scenarios    List the named scenario catalog, or run one by id
  replay       Replay a cataloged scenario over a year of grid carbon data
  optimize     Solve an inverse query: minimize an objective or fill a
               carbon budget over 1-3 search knobs
  tornado      One-at-a-time sensitivity analysis over the Table 1 knobs
  montecarlo   Monte-Carlo uncertainty analysis over the Table 1 ranges
  query        Run a raw Query JSON envelope from --file or stdin
  serve        Run the HTTP/JSON estimation service (greenfpga-serve)
  help         Show this message

Every command is an adapter over the same engine the HTTP service runs:
the result of `greenfpga <cmd> --json` is identical to the matching
`POST /v1/<kind>` response body.

COMMON OPTIONS:
  --domain <dnn|imgproc|crypto>   application domain       (default: dnn)
                                  (compare: comma-separated list allowed)
  --apps <N>                      number of applications   (default: 5)
  --lifetime <YEARS>              application lifetime     (default: 2.0)
  --volume <UNITS>                application volume       (default: 1000000)
  --json                          emit JSON instead of tables (every
                                  command except serve and help)
  -v / -vv                        stderr diagnostics: phase timings (-v)
                                  or per-span detail (-vv); the GF_LOG
                                  env var (warn|info|debug) sets the same
                                  cutoff, and the louder of the two wins

SERVE OPTIONS:
  --addr <HOST:PORT>              bind address             (default: 127.0.0.1:7878)
  --workers <N>                   connection workers       (default: auto)
  --eval-threads <N>              threads per batch eval   (default: 1)
  --cache-capacity <N>            cached scenarios         (default: 64)
  --cache-shards <N>              scenario cache shards    (default: 8)
  --max-connections <N>           live connection cap      (default: 4096)
  --idle-timeout <SECS>           keep-alive idle close    (default: 5)
  --header-timeout <SECS>         slowloris 408 deadline   (default: 10)
  --driver <epoll|portable|auto>  readiness driver         (default: auto)

SWEEP OPTIONS:
  --axis <apps|lifetime|volume>   axis to sweep            (required)
  --from <VALUE> --to <VALUE>     sweep bounds             (required)
  --steps <N>                     number of samples        (default: 10)
  --csv                           print CSV instead of a table

MONTECARLO OPTIONS:
  --samples <N>                   number of samples        (default: 512)
  --seed <N>                      RNG seed, < 2^53         (default: 2654435769)

QUERY OPTIONS:
  --file <PATH>                   envelope path            (default: stdin)

SCENARIOS / REPLAY OPTIONS:
  <ID>                            catalog scenario id — optional for
                                  scenarios (omitted lists the catalog),
                                  required for replay
  --apps/--lifetime/--volume      override the cataloged operating point
                                  (unset flags keep the cataloged default)
  --region <NAME>                 replay: carbon-intensity preset, one of
                                  global_flat|clean_hydro|dirty_coal|solar_duck
                                  (default: global_flat)
  --interpolate                   replay: interpolate linearly between the
                                  hourly samples instead of stepwise
  --years <N>                     replay: stitch the series end-to-end N
                                  times (must fit the device lifetime)

OPTIMIZE OPTIONS:
  <ID>                            optional catalog scenario id (omitted
                                  optimizes the --domain baseline)
  --objective <GOAL>              total | operational | embodied | margin |
                                  ratio | budget               (required)
  --platform <fpga|asic>          platform the objective reads (default: fpga)
  --budget-kg <KG>                carbon budget for --objective budget
  --knob <axis:min:max[:int]>     search knob, repeatable up to 3 times
                                  (axis = apps|lifetime|volume) (required)
  --fpga-wins                     constrain the argmin to FPGA-winning points
  --cap-kg <KG>                   cap a platform total at the argmin
  --cap-platform <fpga|asic>      platform --cap-kg caps     (default: fpga)
  --tolerance <T>                 search-tier tolerance      (default: 1e-6)
  --max-evals <N>                 evaluation budget          (default: 10000)
  --apps/--lifetime/--volume      non-searched axes of the operating point

GRID / FRONTIER OPTIONS:
  --x-axis <apps|lifetime|volume> column axis              (default: apps)
  --x-from <VALUE> --x-to <VALUE> column range             (default: 1..12)
  --y-axis <apps|lifetime|volume> row axis                 (default: lifetime)
  --y-from <VALUE> --y-to <VALUE> row range                (default: 0.25..3)
  --steps <N>                     resolution per axis      (default: 24)
  --adaptive                      grid only: classify winners by bisecting
                                  each row for its flip instead of
                                  evaluating every cell
  --stream                        grid only: evaluate and print row-blocks
                                  incrementally, holding only one block in
                                  memory at a time
";

fn parse_domain(value: &str) -> Result<Domain, ParseError> {
    match value.to_ascii_lowercase().as_str() {
        "dnn" => Ok(Domain::Dnn),
        "imgproc" | "image" | "imageprocessing" => Ok(Domain::ImageProcessing),
        "crypto" | "cryptography" => Ok(Domain::Crypto),
        other => Err(ParseError(format!("unknown domain '{other}'"))),
    }
}

fn parse_axis(value: &str) -> Result<SweepAxis, ParseError> {
    match value.to_ascii_lowercase().as_str() {
        "apps" | "applications" => Ok(SweepAxis::Applications),
        "lifetime" => Ok(SweepAxis::LifetimeYears),
        "volume" => Ok(SweepAxis::VolumeUnits),
        other => Err(ParseError(format!("unknown sweep axis '{other}'"))),
    }
}

fn parse_number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ParseError> {
    value
        .parse::<T>()
        .map_err(|_| ParseError(format!("invalid value '{value}' for {key}")))
}

struct Options {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, ParseError> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if arg == "-v" || arg == "-vv" {
                flags.push(arg.trim_start_matches('-').to_string());
                i += 1;
            } else if let Some(key) = arg.strip_prefix("--") {
                if matches!(
                    key,
                    "csv" | "adaptive" | "json" | "stream" | "interpolate" | "fpga-wins"
                ) {
                    flags.push(key.to_string());
                    i += 1;
                } else if i + 1 < args.len() {
                    pairs.push((key.to_string(), args[i + 1].clone()));
                    i += 2;
                } else {
                    return Err(ParseError(format!("missing value for --{key}")));
                }
            } else {
                return Err(ParseError(format!("unexpected argument '{arg}'")));
            }
        }
        Ok(Options { pairs, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable option, in command-line order
    /// (unlike [`Options::get`], which is last-wins for scalar options).
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The `--domain` list (`compare` accepts several, comma-separated;
    /// at most [`greenfpga::CompareRequest::MAX_SCENARIOS`], matching the
    /// wire-side limit).
    fn domains(&self) -> Result<Vec<Domain>, ParseError> {
        match self.get("domain") {
            None => Ok(vec![Domain::Dnn]),
            Some(list) => {
                let domains: Vec<Domain> = list
                    .split(',')
                    .map(|part| parse_domain(part.trim()))
                    .collect::<Result<_, _>>()?;
                if domains.is_empty() {
                    return Err(ParseError("--domain must name a domain".to_string()));
                }
                if domains.len() > greenfpga::CompareRequest::MAX_SCENARIOS {
                    return Err(ParseError(format!(
                        "--domain lists at most {} domains",
                        greenfpga::CompareRequest::MAX_SCENARIOS
                    )));
                }
                Ok(domains)
            }
        }
    }

    /// The shared workload arguments. A comma-separated `--domain` list is
    /// only meaningful for `compare` (which parses it via
    /// [`Options::domains`] and supplies the leading domain here); every
    /// other subcommand rejects a list instead of silently dropping
    /// entries.
    fn workload_with(&self, domain: Option<Domain>) -> Result<WorkloadArgs, ParseError> {
        let mut workload = WorkloadArgs::default();
        match (domain, self.get("domain")) {
            (Some(domain), _) => workload.domain = domain,
            (None, Some(v)) => workload.domain = parse_domain(v)?,
            (None, None) => {}
        }
        if let Some(v) = self.get("apps") {
            workload.apps = parse_number("--apps", v)?;
        }
        if let Some(v) = self.get("lifetime") {
            workload.lifetime_years = parse_number("--lifetime", v)?;
        }
        if let Some(v) = self.get("volume") {
            workload.volume = parse_number("--volume", v)?;
        }
        if workload.apps == 0 {
            return Err(ParseError("--apps must be at least 1".to_string()));
        }
        if workload.volume == 0 {
            return Err(ParseError("--volume must be at least 1".to_string()));
        }
        if workload.lifetime_years <= 0.0 || workload.lifetime_years.is_nan() {
            return Err(ParseError("--lifetime must be positive".to_string()));
        }
        Ok(workload)
    }

    fn workload(&self) -> Result<WorkloadArgs, ParseError> {
        self.workload_with(None)
    }

    /// The partial operating-point overrides of the catalog-backed
    /// subcommands: validated like [`Options::workload_with`], but a flag
    /// that was not given stays `None` so the cataloged default survives.
    fn point_overrides(&self) -> Result<PointOverrides, ParseError> {
        let mut point = PointOverrides::default();
        if let Some(v) = self.get("apps") {
            let apps: u64 = parse_number("--apps", v)?;
            if apps == 0 {
                return Err(ParseError("--apps must be at least 1".to_string()));
            }
            point.apps = Some(apps);
        }
        if let Some(v) = self.get("lifetime") {
            let lifetime: f64 = parse_number("--lifetime", v)?;
            if lifetime <= 0.0 || lifetime.is_nan() {
                return Err(ParseError("--lifetime must be positive".to_string()));
            }
            point.lifetime_years = Some(lifetime);
        }
        if let Some(v) = self.get("volume") {
            let volume: u64 = parse_number("--volume", v)?;
            if volume == 0 {
                return Err(ParseError("--volume must be at least 1".to_string()));
            }
            point.volume = Some(volume);
        }
        Ok(point)
    }
}

/// Parses the shared 2-D lattice geometry of the `grid` and `frontier`
/// subcommands.
fn parse_grid_shape(options: &Options) -> Result<GridShape, ParseError> {
    let axis_or = |key: &str, fallback: SweepAxis| -> Result<SweepAxis, ParseError> {
        options.get(key).map_or(Ok(fallback), parse_axis)
    };
    let number_or = |key: &str, fallback: f64| -> Result<f64, ParseError> {
        options
            .get(key)
            .map_or(Ok(fallback), |v| parse_number(key, v))
    };
    let x_axis = axis_or("x-axis", SweepAxis::Applications)?;
    let y_axis = axis_or("y-axis", SweepAxis::LifetimeYears)?;
    if x_axis == y_axis {
        return Err(ParseError("--x-axis and --y-axis must differ".to_string()));
    }
    let x_from = number_or("x-from", 1.0)?;
    let x_to = number_or("x-to", 12.0)?;
    let y_from = number_or("y-from", 0.25)?;
    let y_to = number_or("y-to", 3.0)?;
    let steps: usize = match options.get("steps") {
        Some(v) => parse_number("--steps", v)?,
        None => 24,
    };
    if steps < 2 {
        return Err(ParseError("--steps must be at least 2".to_string()));
    }
    let range_invalid = |from: f64, to: f64| to <= from || to.is_nan() || from.is_nan();
    if range_invalid(x_from, x_to) || range_invalid(y_from, y_to) {
        return Err(ParseError(
            "grid ranges must have --*-to greater than --*-from".to_string(),
        ));
    }
    Ok(GridShape {
        x_axis,
        x_from,
        x_to,
        y_axis,
        y_from,
        y_to,
        steps,
    })
}

/// Parses the options of the `serve` subcommand.
fn parse_serve(options: &Options) -> Result<ServeArgs, ParseError> {
    let mut serve = ServeArgs::default();
    if let Some(v) = options.get("addr") {
        serve.addr = v.to_string();
    }
    if let Some(v) = options.get("workers") {
        serve.workers = parse_number("--workers", v)?;
    }
    if let Some(v) = options.get("eval-threads") {
        serve.eval_threads = parse_number::<usize>("--eval-threads", v)?.max(1);
    }
    // Zero is a configuration bug for these three, not a value to clamp —
    // reject it loudly, matching the library-level cache contract.
    let positive = |flag: &'static str, n: usize| -> Result<usize, ParseError> {
        if n == 0 {
            Err(ParseError(format!("{flag} must be at least 1")))
        } else {
            Ok(n)
        }
    };
    if let Some(v) = options.get("cache-capacity") {
        serve.cache_capacity = positive(
            "--cache-capacity",
            parse_number::<usize>("--cache-capacity", v)?,
        )?;
    }
    if let Some(v) = options.get("cache-shards") {
        serve.cache_shards = positive(
            "--cache-shards",
            parse_number::<usize>("--cache-shards", v)?,
        )?;
    }
    if let Some(v) = options.get("max-connections") {
        serve.max_connections = positive(
            "--max-connections",
            parse_number::<usize>("--max-connections", v)?,
        )?;
    }
    if let Some(v) = options.get("idle-timeout") {
        serve.idle_timeout_secs = positive(
            "--idle-timeout",
            parse_number::<usize>("--idle-timeout", v)?,
        )? as u64;
    }
    if let Some(v) = options.get("header-timeout") {
        serve.header_timeout_secs = positive(
            "--header-timeout",
            parse_number::<usize>("--header-timeout", v)?,
        )? as u64;
    }
    if let Some(v) = options.get("driver") {
        serve.driver = match v {
            "epoll" => gf_server::DriverKind::Epoll,
            "portable" => gf_server::DriverKind::Portable,
            "auto" => gf_server::DriverKind::Auto,
            other => {
                return Err(ParseError(format!(
                    "--driver must be epoll|portable|auto, got '{other}'"
                )))
            }
        };
    }
    Ok(serve)
}

/// Parses `--platform fpga|asic` (default FPGA, matching the wire).
fn parse_platform(value: Option<&str>, key: &str) -> Result<OptPlatform, ParseError> {
    match value {
        None => Ok(OptPlatform::Fpga),
        Some("fpga") => Ok(OptPlatform::Fpga),
        Some("asic") => Ok(OptPlatform::Asic),
        Some(other) => Err(ParseError(format!(
            "{key} must be fpga or asic, got '{other}'"
        ))),
    }
}

/// Parses one `--knob axis:min:max[:int]` specification.
fn parse_knob(spec: &str) -> Result<SearchKnob, ParseError> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() < 3 || parts.len() > 4 {
        return Err(ParseError(format!(
            "--knob expects axis:min:max[:int], got '{spec}'"
        )));
    }
    let axis = parse_axis(parts[0])?;
    let min: f64 = parse_number("--knob min", parts[1])?;
    let max: f64 = parse_number("--knob max", parts[2])?;
    let integer = match parts.get(3) {
        None => false,
        Some(&"int") | Some(&"integer") => true,
        Some(other) => {
            return Err(ParseError(format!(
                "--knob flag must be 'int', got '{other}'"
            )))
        }
    };
    Ok(SearchKnob {
        axis,
        min,
        max,
        integer,
    })
}

/// Parses the `optimize` subcommand: objective, search knobs, constraints
/// and solver controls.
fn parse_optimize(positionals: &[String], options: &Options) -> Result<Command, ParseError> {
    let id = positionals
        .first()
        .cloned()
        .or_else(|| options.get("id").map(str::to_string));
    if id.is_some() && options.get("domain").is_some() {
        return Err(ParseError(
            "--domain conflicts with a catalog id (the catalog entry names its domain)".to_string(),
        ));
    }
    let domain = match options.get("domain") {
        Some(v) => parse_domain(v)?,
        None => Domain::Dnn,
    };
    let platform = parse_platform(options.get("platform"), "--platform")?;
    let budget_kg = match options.get("budget-kg") {
        Some(v) => Some(parse_number::<f64>("--budget-kg", v)?),
        None => None,
    };
    let goal = options
        .get("objective")
        .ok_or_else(|| ParseError("--objective is required".to_string()))?;
    let objective = match goal.to_ascii_lowercase().as_str() {
        "total" | "min_total" | "min-total" => Objective::MinTotal(platform),
        "operational" | "min_operational" | "min-operational" => {
            Objective::MinOperational(platform)
        }
        "embodied" | "min_embodied" | "min-embodied" => Objective::MinEmbodied(platform),
        "margin" | "max_margin" | "max-margin" => Objective::MaxFpgaMargin,
        "ratio" | "min_ratio" | "min-ratio" => Objective::MinRatio,
        "budget" => Objective::MeetBudget {
            platform,
            budget_kg: budget_kg
                .ok_or_else(|| ParseError("--objective budget needs --budget-kg".to_string()))?,
        },
        other => {
            return Err(ParseError(format!(
                "unknown objective '{other}' (expected total, operational, embodied, \
                 margin, ratio or budget)"
            )))
        }
    };
    if budget_kg.is_some() && !matches!(objective, Objective::MeetBudget { .. }) {
        return Err(ParseError(
            "--budget-kg only applies to --objective budget".to_string(),
        ));
    }
    let search = options
        .get_all("knob")
        .into_iter()
        .map(parse_knob)
        .collect::<Result<Vec<_>, _>>()?;
    if search.is_empty() {
        return Err(ParseError(
            "at least one --knob axis:min:max[:int] is required".to_string(),
        ));
    }
    let mut constraints = Vec::new();
    if options.has_flag("fpga-wins") {
        constraints.push(Constraint::FpgaWins);
    }
    if let Some(v) = options.get("cap-kg") {
        constraints.push(Constraint::MaxTotalKg {
            platform: parse_platform(options.get("cap-platform"), "--cap-platform")?,
            limit_kg: parse_number("--cap-kg", v)?,
        });
    } else if options.get("cap-platform").is_some() {
        return Err(ParseError(
            "--cap-platform only applies together with --cap-kg".to_string(),
        ));
    }
    let tolerance = match options.get("tolerance") {
        Some(v) => Some(parse_number::<f64>("--tolerance", v)?),
        None => None,
    };
    let max_evals = match options.get("max-evals") {
        Some(v) => Some(parse_number::<u64>("--max-evals", v)?),
        None => None,
    };
    Ok(Command::Optimize {
        id,
        domain,
        point: options.point_overrides()?,
        objective,
        search,
        constraints,
        tolerance,
        max_evals,
    })
}

/// Parses a full command line (excluding the program name).
pub fn parse(args: &[String]) -> Result<ParsedCommand, ParseError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(ParsedCommand {
            command: Command::Help,
            json: false,
            verbosity: 0,
        });
    };
    // Peel the leading positional tokens (the catalog id of `scenarios`
    // and `replay`) before option parsing, which rejects bare tokens.
    let mut rest = rest;
    let mut positionals = Vec::new();
    while let Some((first, more)) = rest.split_first() {
        if first.starts_with('-') {
            break;
        }
        positionals.push(first.clone());
        rest = more;
    }
    let options = Options::parse(rest)?;
    let json = options.has_flag("json");
    let verbosity = if options.has_flag("vv") {
        2
    } else if options.has_flag("v") {
        1
    } else {
        0
    };
    let command = parse_command(command, &positionals, &options)?;
    Ok(ParsedCommand {
        command,
        json,
        verbosity,
    })
}

fn parse_command(
    command: &str,
    positionals: &[String],
    options: &Options,
) -> Result<Command, ParseError> {
    // Only the catalog-backed subcommands take a positional (the id);
    // everywhere else a bare token is a mistake, as it always was.
    if !positionals.is_empty() && !matches!(command, "scenarios" | "replay" | "optimize") {
        return Err(ParseError(format!(
            "unexpected argument '{}'",
            positionals[0]
        )));
    }
    if positionals.len() > 1 {
        return Err(ParseError(format!(
            "unexpected argument '{}'",
            positionals[1]
        )));
    }
    match command {
        "compare" => {
            let domains = options.domains()?;
            Ok(Command::Compare {
                workload: options.workload_with(Some(domains[0]))?,
                domains,
            })
        }
        "evaluate" => Ok(Command::Evaluate(options.workload()?)),
        "query" => Ok(Command::Query {
            file: options
                .get("file")
                .filter(|path| *path != "-")
                .map(str::to_string),
        }),
        "crossover" => Ok(Command::Crossover(options.workload()?)),
        "tornado" => Ok(Command::Tornado(options.workload()?)),
        "industry" => Ok(Command::Industry),
        "montecarlo" | "monte-carlo" => {
            let samples = match options.get("samples") {
                Some(v) => parse_number("--samples", v)?,
                None => 512,
            };
            if samples == 0 {
                return Err(ParseError("--samples must be at least 1".to_string()));
            }
            let seed: u64 = match options.get("seed") {
                Some(v) => parse_number("--seed", v)?,
                None => MonteCarloRequest::DEFAULT_SEED,
            };
            // The wire format carries the seed as a JSON number, which is
            // only exact below 2^53 — reject larger seeds here so the CLI
            // result always matches the equivalent HTTP request.
            if seed >= (1 << 53) {
                return Err(ParseError("--seed must be below 2^53".to_string()));
            }
            Ok(Command::MonteCarlo {
                workload: options.workload()?,
                samples,
                seed,
            })
        }
        "sweep" => {
            let axis = parse_axis(
                options
                    .get("axis")
                    .ok_or_else(|| ParseError("--axis is required".into()))?,
            )?;
            let from: f64 = parse_number(
                "--from",
                options
                    .get("from")
                    .ok_or_else(|| ParseError("--from is required".into()))?,
            )?;
            let to: f64 = parse_number(
                "--to",
                options
                    .get("to")
                    .ok_or_else(|| ParseError("--to is required".into()))?,
            )?;
            let steps: usize = match options.get("steps") {
                Some(v) => parse_number("--steps", v)?,
                None => 10,
            };
            if steps < 2 {
                return Err(ParseError("--steps must be at least 2".to_string()));
            }
            if to <= from || to.is_nan() || from.is_nan() {
                return Err(ParseError("--to must be greater than --from".to_string()));
            }
            Ok(Command::Sweep {
                workload: options.workload()?,
                axis,
                from,
                to,
                steps,
                csv: options.has_flag("csv"),
            })
        }
        "grid" | "heatmap" => Ok(Command::Grid {
            workload: options.workload()?,
            shape: parse_grid_shape(options)?,
            adaptive: options.has_flag("adaptive"),
            stream: options.has_flag("stream"),
        }),
        "frontier" => Ok(Command::Frontier {
            workload: options.workload()?,
            shape: parse_grid_shape(options)?,
        }),
        "serve" => Ok(Command::Serve(parse_serve(options)?)),
        "scenarios" => Ok(Command::Scenarios {
            id: positionals
                .first()
                .cloned()
                .or_else(|| options.get("id").map(str::to_string)),
            point: options.point_overrides()?,
        }),
        "replay" => Ok(Command::Replay {
            id: positionals
                .first()
                .cloned()
                .or_else(|| options.get("id").map(str::to_string))
                .ok_or_else(|| {
                    ParseError(
                        "replay needs a catalog scenario id (see `greenfpga scenarios`)".into(),
                    )
                })?,
            region: options.get("region").map(str::to_string),
            interpolate: options.has_flag("interpolate"),
            point: options.point_overrides()?,
            years: match options.get("years") {
                Some(v) => {
                    let years: u64 = parse_number("--years", v)?;
                    if years == 0 {
                        return Err(ParseError("--years must be at least 1".to_string()));
                    }
                    years
                }
                None => 1,
            },
        }),
        "optimize" => parse_optimize(positionals, options),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError(format!("unknown command '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// Parses a line and returns the command, ignoring output options.
    fn parse_cmd(line: &str) -> Result<Command, ParseError> {
        parse(&argv(line)).map(|parsed| parsed.command)
    }

    #[test]
    fn empty_command_line_is_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse_cmd("help").unwrap(), Command::Help);
        assert_eq!(parse_cmd("--help").unwrap(), Command::Help);
    }

    #[test]
    fn json_flag_is_global_and_off_by_default() {
        assert!(!parse(&argv("compare")).unwrap().json);
        assert!(parse(&argv("compare --json")).unwrap().json);
        assert!(
            parse(&argv("crossover --domain crypto --json"))
                .unwrap()
                .json
        );
        assert!(parse(&argv("montecarlo --json --samples 16")).unwrap().json);
    }

    #[test]
    fn verbosity_flags_are_global() {
        assert_eq!(parse(&argv("compare")).unwrap().verbosity, 0);
        assert_eq!(parse(&argv("compare -v")).unwrap().verbosity, 1);
        assert_eq!(parse(&argv("compare -vv")).unwrap().verbosity, 2);
        // -vv wins over -v regardless of order, and the flags compose
        // with options anywhere on the line.
        assert_eq!(parse(&argv("compare -v -vv")).unwrap().verbosity, 2);
        assert_eq!(
            parse(&argv("grid -vv --domain crypto --steps 8"))
                .unwrap()
                .verbosity,
            2
        );
        assert_eq!(
            parse(&argv("montecarlo --samples 16 -v"))
                .unwrap()
                .verbosity,
            1
        );
        // Other single-dash spellings are still rejected.
        assert!(parse(&argv("compare -x")).is_err());
        assert!(parse(&argv("compare -vvv")).is_err());
    }

    #[test]
    fn serve_defaults_and_overrides() {
        assert_eq!(
            parse_cmd("serve").unwrap(),
            Command::Serve(ServeArgs::default())
        );
        let command = parse_cmd(
            "serve --addr 0.0.0.0:9999 --workers 4 --eval-threads 2 --cache-capacity 16 \
             --idle-timeout 60 --header-timeout 2 --driver portable \
             --cache-shards 2 --max-connections 32",
        )
        .unwrap();
        match command {
            Command::Serve(serve) => {
                assert_eq!(serve.addr, "0.0.0.0:9999");
                assert_eq!(serve.workers, 4);
                assert_eq!(serve.eval_threads, 2);
                assert_eq!(serve.cache_capacity, 16);
                assert_eq!(serve.cache_shards, 2);
                assert_eq!(serve.max_connections, 32);
                assert_eq!(serve.idle_timeout_secs, 60);
                assert_eq!(serve.header_timeout_secs, 2);
                assert_eq!(serve.driver, gf_server::DriverKind::Portable);
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse_cmd("serve --workers x").is_err());
        assert!(parse_cmd("serve --header-timeout 0").is_err());
        assert!(parse_cmd("serve --driver kqueue").is_err());
        // Zero eval-threads clamps to serial; zero capacities/shards/caps
        // are configuration errors, not clamps.
        match parse_cmd("serve --eval-threads 0").unwrap() {
            Command::Serve(serve) => assert_eq!(serve.eval_threads, 1),
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse_cmd("serve --cache-capacity 0").is_err());
        assert!(parse_cmd("serve --cache-shards 0").is_err());
        assert!(parse_cmd("serve --max-connections 0").is_err());
    }

    #[test]
    fn compare_with_defaults_and_overrides() {
        let cmd = parse_cmd("compare").unwrap();
        assert_eq!(
            cmd,
            Command::Compare {
                workload: WorkloadArgs::default(),
                domains: vec![Domain::Dnn],
            }
        );
        let cmd =
            parse_cmd("compare --domain crypto --apps 3 --lifetime 1.5 --volume 250000").unwrap();
        match cmd {
            Command::Compare {
                workload: w,
                domains,
            } => {
                assert_eq!(w.domain, Domain::Crypto);
                assert_eq!(domains, vec![Domain::Crypto]);
                assert_eq!(w.apps, 3);
                assert!((w.lifetime_years - 1.5).abs() < 1e-12);
                assert_eq!(w.volume, 250_000);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn compare_accepts_a_domain_list() {
        let cmd = parse_cmd("compare --domain dnn,crypto").unwrap();
        match cmd {
            Command::Compare { workload, domains } => {
                assert_eq!(domains, vec![Domain::Dnn, Domain::Crypto]);
                assert_eq!(workload.domain, Domain::Dnn, "workload takes the first");
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse_cmd("compare --domain dnn,gpu").is_err());
        // A list longer than the wire limit is rejected at parse time.
        let many = vec!["dnn"; greenfpga::CompareRequest::MAX_SCENARIOS + 1].join(",");
        assert!(parse_cmd(&format!("compare --domain {many}")).is_err());
        // Other commands reject a list instead of silently dropping entries.
        assert!(parse_cmd("evaluate --domain dnn,crypto").is_err());
        assert!(parse_cmd("sweep --domain dnn,crypto --axis apps --from 1 --to 8").is_err());
        let cmd = parse_cmd("evaluate --domain crypto").unwrap();
        assert!(matches!(
            cmd,
            Command::Evaluate(WorkloadArgs {
                domain: Domain::Crypto,
                ..
            })
        ));
    }

    #[test]
    fn query_takes_an_optional_file() {
        assert_eq!(parse_cmd("query").unwrap(), Command::Query { file: None });
        assert_eq!(
            parse_cmd("query --file q.json").unwrap(),
            Command::Query {
                file: Some("q.json".to_string())
            }
        );
        assert_eq!(
            parse_cmd("query --file -").unwrap(),
            Command::Query { file: None },
            "'-' means stdin"
        );
    }

    #[test]
    fn domain_aliases_are_accepted() {
        for (alias, expected) in [
            ("dnn", Domain::Dnn),
            ("imgproc", Domain::ImageProcessing),
            ("ImageProcessing", Domain::ImageProcessing),
            ("CRYPTO", Domain::Crypto),
        ] {
            let cmd = parse(&argv(&format!("evaluate --domain {alias}")))
                .unwrap()
                .command;
            match cmd {
                Command::Evaluate(w) => assert_eq!(w.domain, expected, "{alias}"),
                other => panic!("unexpected command {other:?}"),
            }
        }
        assert!(parse_cmd("compare --domain gpu").is_err());
    }

    #[test]
    fn sweep_requires_axis_and_bounds() {
        assert!(parse_cmd("sweep").is_err());
        assert!(parse_cmd("sweep --axis apps").is_err());
        assert!(parse_cmd("sweep --axis apps --from 1 --to 0.5").is_err());
        assert!(parse_cmd("sweep --axis apps --from 1 --to 8 --steps 1").is_err());
        let cmd = parse_cmd("sweep --axis lifetime --from 0.2 --to 2.5 --steps 6 --csv").unwrap();
        match cmd {
            Command::Sweep {
                axis,
                from,
                to,
                steps,
                csv,
                ..
            } => {
                assert_eq!(axis, SweepAxis::LifetimeYears);
                assert!((from - 0.2).abs() < 1e-12 && (to - 2.5).abs() < 1e-12);
                assert_eq!(steps, 6);
                assert!(csv);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn montecarlo_sample_parsing() {
        let cmd = parse_cmd("montecarlo --domain dnn --samples 128").unwrap();
        match cmd {
            Command::MonteCarlo {
                samples,
                workload,
                seed,
            } => {
                assert_eq!(samples, 128);
                assert_eq!(workload.domain, Domain::Dnn);
                assert_eq!(seed, MonteCarloRequest::DEFAULT_SEED);
            }
            other => panic!("unexpected command {other:?}"),
        }
        let cmd = parse_cmd("montecarlo --samples 16 --seed 42").unwrap();
        assert!(matches!(cmd, Command::MonteCarlo { seed: 42, .. }));
        assert!(parse_cmd("montecarlo --samples 0").is_err());
        assert!(parse_cmd("montecarlo --samples abc").is_err());
        assert!(parse_cmd("montecarlo --seed x").is_err());
        // Seeds at or above 2^53 would not survive the JSON wire format.
        assert!(parse_cmd("montecarlo --seed 9007199254740992").is_err());
        assert!(parse_cmd("montecarlo --seed 9007199254740991").is_ok());
    }

    #[test]
    fn invalid_inputs_are_rejected_with_messages() {
        assert!(parse_cmd("frobnicate").is_err());
        assert!(parse_cmd("compare --apps 0").is_err());
        assert!(parse_cmd("compare --volume 0").is_err());
        assert!(parse_cmd("compare --lifetime -1").is_err());
        assert!(parse_cmd("compare --apps").is_err());
        assert!(parse_cmd("compare apps 5").is_err());
        let err = parse_cmd("compare --apps x").unwrap_err();
        assert!(err.to_string().contains("--apps"));
    }

    #[test]
    fn last_value_wins_for_repeated_options() {
        let cmd = parse_cmd("compare --apps 3 --apps 7").unwrap();
        match cmd {
            Command::Compare { workload: w, .. } => assert_eq!(w.apps, 7),
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn grid_defaults_and_validation() {
        let cmd = parse_cmd("grid --domain imgproc --steps 8").unwrap();
        match cmd {
            Command::Grid {
                workload,
                shape,
                adaptive,
                stream,
            } => {
                assert_eq!(workload.domain, Domain::ImageProcessing);
                assert_eq!(shape.x_axis, SweepAxis::Applications);
                assert_eq!(shape.y_axis, SweepAxis::LifetimeYears);
                assert_eq!(shape.steps, 8);
                assert!(!adaptive);
                assert!(!stream);
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse_cmd("grid --x-axis apps --y-axis apps").is_err());
        assert!(parse_cmd("grid --steps 1").is_err());
        assert!(parse_cmd("grid --x-from 5 --x-to 2").is_err());
        let cmd = parse_cmd("heatmap --x-axis volume --x-from 1000 --x-to 1000000 --y-axis apps --y-from 1 --y-to 10")
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Grid {
                shape: GridShape {
                    x_axis: SweepAxis::VolumeUnits,
                    y_axis: SweepAxis::Applications,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn grid_adaptive_flag_is_parsed() {
        let cmd = parse_cmd("grid --domain dnn --steps 16 --adaptive").unwrap();
        assert!(matches!(cmd, Command::Grid { adaptive: true, .. }));
    }

    #[test]
    fn grid_stream_flag_is_parsed() {
        let cmd = parse_cmd("grid --domain dnn --steps 16 --stream").unwrap();
        assert!(matches!(cmd, Command::Grid { stream: true, .. }));
    }

    #[test]
    fn frontier_shares_grid_geometry() {
        let cmd = parse_cmd("frontier --domain dnn --x-axis apps --x-from 1 --x-to 32 --y-axis lifetime --y-from 0.1 --y-to 3 --steps 64")
        .unwrap();
        match cmd {
            Command::Frontier { workload, shape } => {
                assert_eq!(workload.domain, Domain::Dnn);
                assert_eq!(shape.x_axis, SweepAxis::Applications);
                assert_eq!(shape.y_axis, SweepAxis::LifetimeYears);
                assert_eq!(shape.steps, 64);
                assert!((shape.x_to - 32.0).abs() < 1e-12);
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse_cmd("frontier --x-axis apps --y-axis apps").is_err());
        assert!(parse_cmd("frontier --steps 1").is_err());
        assert!(parse_cmd("frontier --y-from 3 --y-to 1").is_err());
    }

    #[test]
    fn usage_mentions_every_command() {
        for command in [
            "evaluate",
            "compare",
            "sweep",
            "crossover",
            "grid",
            "frontier",
            "industry",
            "tornado",
            "montecarlo",
            "query",
            "serve",
            "scenarios",
            "replay",
            "optimize",
        ] {
            assert!(USAGE.contains(command), "usage is missing {command}");
        }
    }

    #[test]
    fn scenarios_lists_or_runs_by_id() {
        assert_eq!(
            parse_cmd("scenarios").unwrap(),
            Command::Scenarios {
                id: None,
                point: PointOverrides::default(),
            }
        );
        let cmd = parse_cmd("scenarios dnn_baseline --json").unwrap();
        assert_eq!(
            cmd,
            Command::Scenarios {
                id: Some("dnn_baseline".to_string()),
                point: PointOverrides::default(),
            }
        );
        // `--id` spells the same thing without a positional.
        assert_eq!(parse_cmd("scenarios --id dnn_baseline").unwrap(), cmd);
        // Point overrides stay partial: unset flags keep the cataloged value.
        let cmd = parse_cmd("scenarios dnn_baseline --apps 9").unwrap();
        match cmd {
            Command::Scenarios { point, .. } => {
                assert_eq!(point.apps, Some(9));
                assert_eq!(point.lifetime_years, None);
                assert_eq!(point.volume, None);
                assert!(!point.is_empty());
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse_cmd("scenarios dnn_baseline extra").is_err());
        assert!(parse_cmd("scenarios dnn_baseline --apps 0").is_err());
        assert!(parse_cmd("scenarios dnn_baseline --lifetime -2").is_err());
    }

    #[test]
    fn replay_requires_an_id_and_parses_its_options() {
        assert!(parse_cmd("replay").is_err());
        let cmd = parse_cmd("replay crypto_fleet_1m_5y").unwrap();
        assert_eq!(
            cmd,
            Command::Replay {
                id: "crypto_fleet_1m_5y".to_string(),
                region: None,
                interpolate: false,
                point: PointOverrides::default(),
                years: 1,
            }
        );
        let cmd = parse_cmd("replay dnn_baseline --region solar_duck --interpolate --volume 5000")
            .unwrap();
        match cmd {
            Command::Replay {
                id,
                region,
                interpolate,
                point,
                years,
            } => {
                assert_eq!(id, "dnn_baseline");
                assert_eq!(region.as_deref(), Some("solar_duck"));
                assert!(interpolate);
                assert_eq!(point.volume, Some(5000));
                assert_eq!(years, 1);
            }
            other => panic!("unexpected command {other:?}"),
        }
        let cmd = parse_cmd("replay crypto_fleet_1m_5y --years 5").unwrap();
        assert!(matches!(cmd, Command::Replay { years: 5, .. }));
        assert!(parse_cmd("replay crypto_fleet_1m_5y --years 0").is_err());
        // Positionals stay rejected everywhere else.
        assert!(parse_cmd("evaluate dnn_baseline").is_err());
    }

    #[test]
    fn optimize_parses_objective_knobs_and_constraints() {
        let cmd =
            parse_cmd("optimize --objective total --knob apps:1:12 --knob lifetime:0.5:4").unwrap();
        match cmd {
            Command::Optimize {
                id,
                domain,
                objective,
                search,
                constraints,
                tolerance,
                max_evals,
                ..
            } => {
                assert_eq!(id, None);
                assert_eq!(domain, Domain::Dnn);
                assert_eq!(objective, Objective::MinTotal(OptPlatform::Fpga));
                assert_eq!(search.len(), 2);
                assert_eq!(search[0].axis, SweepAxis::Applications);
                assert!((search[0].min - 1.0).abs() < 1e-12);
                assert!((search[0].max - 12.0).abs() < 1e-12);
                assert!(!search[0].integer);
                assert_eq!(search[1].axis, SweepAxis::LifetimeYears);
                assert!(constraints.is_empty());
                assert_eq!(tolerance, None);
                assert_eq!(max_evals, None);
            }
            other => panic!("unexpected command {other:?}"),
        }

        let cmd = parse_cmd(
            "optimize dnn_baseline --objective budget --platform asic --budget-kg 5e6 \
             --knob volume:1000:2000000:int --tolerance 1e-4 --max-evals 500",
        )
        .unwrap();
        match cmd {
            Command::Optimize {
                id,
                objective,
                search,
                tolerance,
                max_evals,
                ..
            } => {
                assert_eq!(id.as_deref(), Some("dnn_baseline"));
                assert_eq!(
                    objective,
                    Objective::MeetBudget {
                        platform: OptPlatform::Asic,
                        budget_kg: 5e6,
                    }
                );
                assert!(search[0].integer);
                assert_eq!(tolerance, Some(1e-4));
                assert_eq!(max_evals, Some(500));
            }
            other => panic!("unexpected command {other:?}"),
        }

        let cmd = parse_cmd(
            "optimize --objective ratio --knob apps:1:20 --fpga-wins \
             --cap-kg 1e9 --cap-platform asic",
        )
        .unwrap();
        match cmd {
            Command::Optimize { constraints, .. } => {
                assert_eq!(constraints.len(), 2);
                assert_eq!(constraints[0], Constraint::FpgaWins);
                assert_eq!(
                    constraints[1],
                    Constraint::MaxTotalKg {
                        platform: OptPlatform::Asic,
                        limit_kg: 1e9,
                    }
                );
            }
            other => panic!("unexpected command {other:?}"),
        }

        // Required pieces and conflicts are rejected loudly.
        assert!(parse_cmd("optimize --knob apps:1:12").is_err());
        assert!(parse_cmd("optimize --objective total").is_err());
        assert!(parse_cmd("optimize --objective budget --knob apps:1:12").is_err());
        assert!(parse_cmd("optimize --objective total --budget-kg 5 --knob apps:1:12").is_err());
        assert!(parse_cmd("optimize --objective total --knob apps:1").is_err());
        assert!(parse_cmd("optimize --objective total --knob watts:1:2").is_err());
        assert!(parse_cmd("optimize --objective glory --knob apps:1:12").is_err());
        assert!(parse_cmd("optimize --objective total --knob apps:1:12 --platform gpu").is_err());
        assert!(
            parse_cmd("optimize --objective total --knob apps:1:12 --cap-platform asic").is_err()
        );
        assert!(parse_cmd(
            "optimize dnn_baseline --domain crypto --objective total --knob apps:1:12"
        )
        .is_err());
    }
}
