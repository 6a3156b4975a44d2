//! Command-line parsing for the `greenfpga` CLI.
//!
//! A subcommand names a [`QueryKind`], and each `--flag` sets one member of
//! that kind's JSON request object (the body `POST /v1/<kind>` carries). The
//! object is written as text, and that text goes through
//! [`QueryKind::decode_body`], the server's own entry, and
//! `Query::validate`, so the CLI accepts exactly what HTTP accepts. This
//! module rejects only what is wrong with the command line itself: an
//! unknown subcommand or flag, a flag the subcommand does not take, a
//! missing value, and the shape of the few flags that build nested members.

use std::fmt;

use gf_json::{ToJson, Value};
use gf_server::ServerConfig;
use greenfpga::api::QueryKind;
use greenfpga::catalog_entry;

/// A parsed command line: what to do plus the global output options.
#[derive(Debug)]
pub struct Invocation {
    /// What to run.
    pub action: Action,
    /// Emit JSON (the matching route's response body) instead of tables.
    pub json: bool,
    /// Stderr diagnostic verbosity: `0` quiet (warnings only), `1` = `-v`
    /// (phase timings), `2` = `-vv` (per-span detail).
    pub verbosity: u8,
}

/// What a command line asks for.
#[derive(Debug)]
pub enum Action {
    /// Print usage information.
    Help,
    /// Run the HTTP/JSON estimation service.
    Serve(ServerConfig),
    /// Run one raw `Query` envelope from a file (`None` = stdin).
    RawQuery(Option<String>),
    /// Decode `body` as a `kind` request and run it.
    Run {
        /// The query kind the subcommand selects.
        kind: QueryKind,
        /// The request object assembled from the flags, as JSON text.
        body: String,
        /// Render a sweep as CSV instead of a table.
        csv: bool,
    },
}

/// A command-line error (exit 2, printed with the usage text).
#[derive(Debug)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Usage text printed by `greenfpga help` and on command-line errors.
pub const USAGE: &str = concat!(
    "\
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
each flag sets one member of the `POST /v1/<kind>` request body, with the
wire's defaults and rules, and the result of `greenfpga <cmd> --json` is
identical to that route's response body.

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
",
    gf_server::options_help!(),
    "
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
"
);

/// Where a flag's value goes.
enum Target {
    /// The request member at this dotted path takes the value.
    Member(&'static str),
    /// The request member at this path becomes `true` (no value).
    True(&'static str),
    /// `domain`, or `compare`'s comma-separated `scenarios` list.
    Domain,
    /// `objective.goal`, with the short goal names mapped to wire goals.
    Goal,
    /// One `search` entry, from `axis:min:max[:int]`.
    Knob,
    /// The `fpga_wins` constraint (no value).
    FpgaWins,
    /// This member of the `max_total_kg` constraint.
    Cap(&'static str),
    /// Read by the CLI itself, not sent: `--csv`, `--adaptive` (no value)
    /// and `--file`.
    Csv,
    Adaptive,
    File,
}

/// One row of the flag table: the flag, its target and the commands
/// (query kind ids, plus `query`) that take it, space-separated.
struct Flag {
    name: &'static str,
    target: Target,
    commands: &'static str,
}

/// Kinds whose scenario is an inline domain when no catalog id is given.
const INLINE: &str = "evaluate compare crossover tornado montecarlo sweep grid frontier optimize";
/// Kinds with an operating point.
const POINT: &str =
    "evaluate compare crossover tornado montecarlo sweep grid frontier scenario replay optimize";
const LATTICE: &str = "grid frontier";

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "domain", target: Target::Domain, commands: INLINE },
    Flag { name: "apps", target: Target::Member("point.applications"), commands: POINT },
    Flag { name: "lifetime", target: Target::Member("point.lifetime_years"), commands: POINT },
    Flag { name: "volume", target: Target::Member("point.volume"), commands: POINT },
    Flag { name: "axis", target: Target::Member("axis"), commands: "sweep" },
    Flag { name: "from", target: Target::Member("from"), commands: "sweep" },
    Flag { name: "to", target: Target::Member("to"), commands: "sweep" },
    Flag { name: "csv", target: Target::Csv, commands: "sweep" },
    Flag { name: "steps", target: Target::Member("steps"), commands: "sweep grid frontier" },
    Flag { name: "x-axis", target: Target::Member("x_axis"), commands: LATTICE },
    Flag { name: "x-from", target: Target::Member("x_from"), commands: LATTICE },
    Flag { name: "x-to", target: Target::Member("x_to"), commands: LATTICE },
    Flag { name: "y-axis", target: Target::Member("y_axis"), commands: LATTICE },
    Flag { name: "y-from", target: Target::Member("y_from"), commands: LATTICE },
    Flag { name: "y-to", target: Target::Member("y_to"), commands: LATTICE },
    Flag { name: "adaptive", target: Target::Adaptive, commands: "grid" },
    Flag { name: "stream", target: Target::True("stream"), commands: "grid" },
    Flag { name: "samples", target: Target::Member("samples"), commands: "montecarlo" },
    Flag { name: "seed", target: Target::Member("seed"), commands: "montecarlo" },
    Flag { name: "id", target: Target::Member("id"), commands: "scenario replay optimize" },
    Flag { name: "region", target: Target::Member("series"), commands: "replay" },
    Flag { name: "interpolate", target: Target::True("interpolate"), commands: "replay" },
    Flag { name: "years", target: Target::Member("years"), commands: "replay" },
    Flag { name: "objective", target: Target::Goal, commands: "optimize" },
    Flag { name: "platform", target: Target::Member("objective.platform"), commands: "optimize" },
    Flag { name: "budget-kg", target: Target::Member("objective.budget_kg"), commands: "optimize" },
    Flag { name: "knob", target: Target::Knob, commands: "optimize" },
    Flag { name: "fpga-wins", target: Target::FpgaWins, commands: "optimize" },
    Flag { name: "cap-kg", target: Target::Cap("limit_kg"), commands: "optimize" },
    Flag { name: "cap-platform", target: Target::Cap("platform"), commands: "optimize" },
    Flag { name: "tolerance", target: Target::Member("tolerance"), commands: "optimize" },
    Flag { name: "max-evals", target: Target::Member("max_evals"), commands: "optimize" },
    Flag { name: "file", target: Target::File, commands: "query" },
];

/// The table row of a flag the table is known to hold.
fn flag(name: &str) -> &'static Flag {
    FLAGS
        .iter()
        .find(|flag| flag.name == name)
        .expect("a flag of the table")
}

fn error<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(message.into()))
}

/// A value token as a request member: a number when it reads as one, a
/// string otherwise.
fn token(text: &str) -> Value {
    match text.parse::<f64>() {
        Ok(number) if number.is_finite() => Value::Number(number),
        _ => Value::String(text.to_string()),
    }
}

fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Object(members.map(|(k, v)| (k.to_string(), v)).into())
}

/// The member slot at a dotted `path`, created (as `null`, with objects on
/// the way) when absent.
fn slot<'a>(members: &'a mut Vec<(String, Value)>, path: &str) -> &'a mut Value {
    let (key, rest) = path.split_once('.').unwrap_or((path, ""));
    let index = match members.iter().position(|(k, _)| k == key) {
        Some(index) => index,
        None => {
            members.push((key.to_string(), Value::Null));
            members.len() - 1
        }
    };
    let member = &mut members[index].1;
    if rest.is_empty() {
        return member;
    }
    if !matches!(member, Value::Object(_)) {
        *member = Value::Object(Vec::new());
    }
    let Value::Object(inner) = member else {
        unreachable!("just made an object")
    };
    slot(inner, rest)
}

/// Appends to the array member `key`.
fn push(members: &mut Vec<(String, Value)>, key: &str, value: Value) {
    let member = slot(members, key);
    match member {
        Value::Array(items) => items.push(value),
        _ => *member = Value::Array(vec![value]),
    }
}

/// `axis:min:max[:int]` as a `search` entry.
fn knob(spec: &str) -> Result<Value, ParseError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let (axis, min, max) = match parts[..] {
        [axis, min, max] | [axis, min, max, _] => (axis, min, max),
        _ => return error(format!("--knob expects axis:min:max[:int], got '{spec}'")),
    };
    let mut entry = object([
        ("axis", token(axis)),
        ("min", token(min)),
        ("max", token(max)),
    ]);
    match parts.get(3) {
        None => {}
        Some(&"int" | &"integer") => {
            if let Value::Object(members) = &mut entry {
                members.push(("integer".to_string(), Value::Bool(true)));
            }
        }
        Some(other) => return error(format!("--knob flag must be 'int', got '{other}'")),
    }
    Ok(entry)
}

/// The wire goal for an `--objective` spelling: the short names, plus the
/// wire goals themselves in any case with `-` for `_`.
fn goal(name: &str) -> String {
    let name = name.to_ascii_lowercase().replace('-', "_");
    let wire = match name.as_str() {
        "total" => "min_total",
        "operational" => "min_operational",
        "embodied" => "min_embodied",
        "margin" => "max_margin",
        "ratio" => "min_ratio",
        other => other,
    };
    wire.to_string()
}

/// Parses a full command line (excluding the program name).
pub fn parse(args: &[String]) -> Result<Invocation, ParseError> {
    let (name, rest) = match args.split_first() {
        Some((name, rest)) => (name.as_str(), rest),
        None => ("help", &[][..]),
    };
    let mut json = false;
    let mut verbosity = 0;
    let mut tokens = Vec::new();
    for arg in rest {
        match arg.as_str() {
            "--json" => json = true,
            "-v" => verbosity = verbosity.max(1),
            "-vv" => verbosity = 2,
            other => tokens.push(other),
        }
    }
    let action = match name {
        "help" | "--help" | "-h" => match tokens.first() {
            Some(extra) => return error(format!("unexpected argument '{extra}'")),
            None => Action::Help,
        },
        "serve" => match ServerConfig::from_args(&tokens).map_err(ParseError)? {
            Some(config) => Action::Serve(config),
            None => Action::Help,
        },
        _ => command(name, &tokens)?,
    };
    Ok(Invocation {
        action,
        json,
        verbosity,
    })
}

/// Parses an analytic subcommand (or `query`) and its flags.
fn command(name: &str, tokens: &[&str]) -> Result<Action, ParseError> {
    // Leading bare tokens are the catalog id, where one is taken.
    let split = tokens
        .iter()
        .position(|t| t.starts_with('-'))
        .unwrap_or(tokens.len());
    let (positionals, tokens) = tokens.split_at(split);
    let mut flags: Vec<(&Flag, &str)> = Vec::new();
    let mut tokens = tokens.iter();
    while let Some(&token) = tokens.next() {
        let Some(key) = token.strip_prefix("--") else {
            return error(format!("unexpected argument '{token}'"));
        };
        let Some(flag) = FLAGS.iter().find(|flag| flag.name == key) else {
            return error(format!("unknown option '{token}'"));
        };
        let value = match flag.target {
            Target::True(_) | Target::FpgaWins | Target::Csv | Target::Adaptive => "",
            _ => match tokens.next() {
                Some(value) => value,
                None => return error(format!("missing value for {token}")),
            },
        };
        flags.push((flag, value));
    }

    let given = |name: &str| flags.iter().rev().find(|(flag, _)| flag.name == name);
    let id = positionals
        .first()
        .copied()
        .or_else(|| given("id").map(|&(_, value)| value));
    let command = match name {
        "evaluate" | "compare" | "sweep" | "crossover" | "grid" | "frontier" | "industry"
        | "tornado" | "montecarlo" | "replay" | "optimize" | "query" => name,
        "heatmap" => "grid",
        "monte-carlo" => "montecarlo",
        "scenarios" if id.is_some() => "scenario",
        "scenarios" => "catalog",
        other => return error(format!("unknown command '{other}'")),
    };
    let takes = |flag: &Flag| flag.commands.split(' ').any(|c| c == command);
    if let Some(extra) = positionals.get(usize::from(takes(flag("id")))) {
        return error(format!("unexpected argument '{extra}'"));
    }
    if let Some((flag, _)) = flags.iter().find(|(flag, _)| !takes(flag)) {
        let without = if command == "catalog" {
            " without a catalog id"
        } else {
            ""
        };
        return error(format!(
            "--{} does not apply to '{name}'{without}",
            flag.name
        ));
    }
    if command == "query" {
        let file = given("file")
            .map(|&(_, path)| path)
            .filter(|&path| path != "-");
        return Ok(Action::RawQuery(file.map(str::to_string)));
    }
    if command == "replay" && id.is_none() {
        return error("replay needs a catalog scenario id (see `greenfpga scenarios`)");
    }
    if id.is_some() && given("domain").is_some() {
        return error("--domain conflicts with a catalog id (the catalog entry names its domain)");
    }
    let goal_given = given("objective").map(|&(_, name)| goal(name));
    if given("budget-kg").is_some() && goal_given.as_deref() != Some("budget") {
        return error("--budget-kg only applies to --objective budget");
    }

    let mut members = Vec::new();
    // Point flags on a catalog scenario override its cataloged point, so
    // the members they leave unset keep the cataloged values.
    let sets_point = |(flag, _): &(&Flag, &str)| matches!(flag.target, Target::Member(path) if path.starts_with("point."));
    if let Some((_, entry)) = id.and_then(catalog_entry) {
        if flags.iter().any(sets_point) {
            *slot(&mut members, "point") = entry.point.to_json();
        }
    }
    // An inline scenario names its domain on the wire; the CLI's is dnn.
    let domain = (id.is_none() && takes(flag("domain"))).then_some((flag("domain"), "dnn"));
    let (mut csv, mut adaptive, mut cap) = (false, false, Vec::new());
    for &(flag, value) in domain.iter().chain(&flags) {
        match flag.target {
            Target::Member(path) => *slot(&mut members, path) = token(value),
            Target::True(path) => *slot(&mut members, path) = Value::Bool(true),
            Target::Domain if command == "compare" => {
                let scenarios = value
                    .split(',')
                    .map(|d| object([("domain", token(d.trim()))]));
                *slot(&mut members, "scenarios") = Value::Array(scenarios.collect());
            }
            Target::Domain if value.contains(',') => {
                return error("a --domain list only applies to 'compare'")
            }
            Target::Domain => *slot(&mut members, "domain") = token(value),
            Target::Goal => *slot(&mut members, "objective.goal") = Value::String(goal(value)),
            Target::Knob => push(&mut members, "search", knob(value)?),
            Target::FpgaWins => push(
                &mut members,
                "constraints",
                object([("kind", token("fpga_wins"))]),
            ),
            Target::Cap(key) => *slot(&mut cap, key) = token(value),
            Target::Csv => csv = true,
            Target::Adaptive => adaptive = true,
            Target::File => {}
        }
    }
    // A positional id wins over `--id`, as it does for `id` above.
    if let Some(id) = positionals.first() {
        *slot(&mut members, "id") = token(id);
    }
    if !cap.is_empty() {
        if given("cap-kg").is_none() {
            return error("--cap-platform only applies together with --cap-kg");
        }
        *slot(&mut cap, "kind") = token("max_total_kg");
        push(&mut members, "constraints", Value::Object(cap));
    }
    let kind = if adaptive { "frontier" } else { command };
    Ok(Action::Run {
        kind: QueryKind::parse_id(kind).expect("every command names a query kind"),
        body: Value::Object(members)
            .to_json_string()
            .expect("flag values are strings or finite numbers"),
        csv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenfpga::{ApiError, Engine};

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// What a command line comes to: `usage: <message>` for a command-line
    /// error, the `code: message` of a request the decoder or the engine
    /// rejects, or else the request body the engine ran.
    fn outcome(line: &str) -> String {
        static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
        let action = match parse(&argv(line)) {
            Ok(invocation) => invocation.action,
            Err(e) => return format!("usage: {e}"),
        };
        let Action::Run { kind, body, .. } = action else {
            return format!("{action:?}");
        };
        let query = match kind.decode_body(&body, gf_json::ParseLimits::default()) {
            Ok(query) => query,
            Err(e) => return ApiError::from(e).to_string(),
        };
        let engine = ENGINE.get_or_init(|| Engine::with_defaults().expect("engine"));
        match engine.run(&query) {
            Ok(_) => {
                let mut w = gf_json::JsonWriter::new();
                query.write_body(&mut w);
                w.finish().expect("serialize")
            }
            Err(e) => e.to_string(),
        }
    }

    /// Checks `argv => expected` rows, one per line: the outcome starts with
    /// the expected text (a whole body, or an error's code and member).
    fn check(rows: &str) {
        for row in rows.lines().filter(|row| !row.trim().is_empty()) {
            let (line, expected) = row.split_once(" => ").expect("an `argv => expected` row");
            let actual = outcome(line);
            assert!(
                actual.starts_with(expected.trim()),
                "{line}\n  expected {expected}\n  got      {actual}"
            );
        }
    }

    fn kind(line: &str) -> QueryKind {
        match parse(&argv(line)).expect("parse").action {
            Action::Run { kind, .. } => kind,
            other => panic!("'{line}' is not a query: {other:?}"),
        }
    }

    fn serve_config(line: &str) -> ServerConfig {
        match parse(&argv(line)).expect("parse").action {
            Action::Serve(config) => config,
            other => panic!("'{line}' does not serve: {other:?}"),
        }
    }

    #[test]
    fn empty_command_line_is_help() {
        for line in ["", "help", "--help", "-h", "serve --help"] {
            assert!(
                matches!(parse(&argv(line)).unwrap().action, Action::Help),
                "{line}"
            );
        }
        check("help extra => usage: unexpected argument 'extra'");
    }

    #[test]
    fn json_flag_is_global_and_off_by_default() {
        assert!(!parse(&argv("compare")).unwrap().json);
        for line in [
            "compare --json",
            "crossover --domain crypto --json",
            "montecarlo --json --samples 16",
            "serve --json",
        ] {
            assert!(parse(&argv(line)).unwrap().json, "{line}");
        }
    }

    #[test]
    fn verbosity_flags_are_global() {
        // -vv wins over -v regardless of order, and the flags compose with
        // options anywhere on the line.
        for (line, verbosity) in [
            ("compare", 0),
            ("compare -v", 1),
            ("compare -vv", 2),
            ("compare -v -vv", 2),
            ("compare -vv -v", 2),
            ("grid -vv --domain crypto --steps 8", 2),
            ("montecarlo --samples 16 -v", 1),
        ] {
            assert_eq!(parse(&argv(line)).unwrap().verbosity, verbosity, "{line}");
        }
        // Other single-dash spellings are still rejected.
        check(
            "compare -x => usage: unexpected argument '-x'
             compare -vvv => usage: unexpected argument '-vvv'",
        );
    }

    #[test]
    fn serve_defaults_and_overrides() {
        let (config, defaults) = (serve_config("serve"), ServerConfig::default());
        assert_eq!(
            (config.addr, config.driver),
            (defaults.addr, defaults.driver)
        );
        assert_eq!(
            (config.workers, config.eval_threads),
            (defaults.workers, defaults.eval_threads)
        );
        // Every server flag reaches `greenfpga serve`, `--max-body-bytes`,
        // `--trace-log` and `--slow-request-us` included.
        let config = serve_config(
            "serve --addr 0.0.0.0:9999 --workers 4 --eval-threads 2 --cache-capacity 16 \
             --idle-timeout 60 --header-timeout 2 --driver portable -v \
             --max-connections 32 --max-body-bytes 65536 --trace-log t.ndjson --slow-request-us 250",
        );
        assert_eq!(config.addr, "0.0.0.0:9999");
        assert_eq!((config.workers, config.eval_threads), (4, 2));
        assert_eq!(config.cache_capacity, 16);
        assert_eq!((config.max_connections, config.max_body_bytes), (32, 65536));
        assert_eq!(config.idle_timeout, std::time::Duration::from_secs(60));
        assert_eq!(config.header_timeout, std::time::Duration::from_secs(2));
        assert_eq!(config.driver, gf_server::DriverKind::Portable);
        assert_eq!(config.trace_log, Some("t.ndjson".into()));
        assert_eq!(config.slow_request_us, 250);
        // Zero eval-threads clamps to serial; zero capacities/caps are
        // configuration errors, not clamps.
        assert_eq!(serve_config("serve --eval-threads 0").eval_threads, 1);
        check(
            "serve --workers x => usage: invalid value 'x' for --workers
             serve --header-timeout 0 => usage: --header-timeout must be at least 1
             serve --driver kqueue => usage: --driver must be epoll|portable|auto
             serve --cache-capacity 0 => usage: --cache-capacity must be at least 1
             serve --cache-shards 2 => usage: unknown option '--cache-shards'
             serve --max-connections 0 => usage: --max-connections must be at least 1
             serve --trace-log x --frobnicate 1 => usage: unknown option '--frobnicate'",
        );
    }

    #[test]
    fn compare_with_defaults_and_overrides() {
        check(
            r#"
            compare => {"scenarios":[{"domain":"dnn","knobs":{}}],"point":{"applications":5,"lifetime_years":2,"volume":1000000}}
            compare --domain crypto --apps 3 --lifetime 1.5 --volume 250000 => {"scenarios":[{"domain":"crypto","knobs":{}}],"point":{"applications":3,"lifetime_years":1.5,"volume":250000}}
        "#,
        );
    }

    #[test]
    fn compare_accepts_a_domain_list() {
        // A list longer than the wire limit is the wire's error; other
        // commands reject a list instead of silently dropping entries.
        let many = vec!["dnn"; greenfpga::CompareRequest::MAX_SCENARIOS + 1].join(",");
        check(&format!(
            "compare --domain {many} => bad_request: JSON schema error at scenarios:"
        ));
        check(
            r#"
            compare --domain dnn,crypto => {"scenarios":[{"domain":"dnn","knobs":{}},{"domain":"crypto","knobs":{}}],"point":{"applications":5,"lifetime_years":2,"volume":1000000}}
            compare --domain dnn,gpu => bad_request: JSON schema error at scenarios[1].domain: unknown domain 'gpu'
            evaluate --domain dnn,crypto => usage: a --domain list only applies to 'compare'
            sweep --domain dnn,crypto --axis apps --from 1 --to 8 => usage: a --domain list only applies to 'compare'
            evaluate --domain crypto => {"domain":"crypto","knobs":{},"point":{"applications":5,"lifetime_years":2,"volume":1000000}}
        "#,
        );
    }

    #[test]
    fn query_takes_an_optional_file() {
        for (line, file) in [
            ("query", None),
            ("query --file q.json", Some("q.json")),
            ("query --file -", None),
        ] {
            match parse(&argv(line)).unwrap().action {
                Action::RawQuery(path) => assert_eq!(path.as_deref(), file, "{line}"),
                other => panic!("unexpected action {other:?}"),
            }
        }
        check("query --apps 3 => usage: --apps does not apply to 'query'");
    }

    #[test]
    fn domain_aliases_are_accepted() {
        check(
            r#"
            evaluate --domain dnn => {"domain":"dnn","knobs":{},"point"
            evaluate --domain imgproc => {"domain":"imgproc","knobs":{},"point"
            evaluate --domain ImageProcessing => {"domain":"imgproc","knobs":{},"point"
            evaluate --domain CRYPTO => {"domain":"crypto","knobs":{},"point"
            compare --domain gpu => bad_request: JSON schema error at scenarios[0].domain: unknown domain 'gpu'
        "#,
        );
    }

    #[test]
    fn sweep_requires_axis_and_bounds() {
        check(
            r#"
            sweep => bad_request: JSON schema error at axis: missing
            sweep --axis apps => bad_request: JSON schema error at from: missing
            sweep --axis apps --from 1 --to 0.5 => bad_request: JSON schema error at from: sweep range must be finite with to > from
            sweep --axis apps --from 1 --to 8 --steps 1 => bad_request: JSON schema error at steps
            sweep --axis lifetime --from 0.2 --to 2.5 --steps 6 --csv => {"domain":"dnn","knobs":{},"point":{"applications":5,"lifetime_years":2,"volume":1000000},"axis":"lifetime","from":0.2,"to":2.5,"steps":6}
        "#,
        );
        let csv =
            |line| matches!(parse(&argv(line)).unwrap().action, Action::Run { csv, .. } if csv);
        assert!(csv("sweep --axis apps --from 1 --to 2 --csv"));
        assert!(!csv("sweep --axis apps --from 1 --to 2"));
    }

    #[test]
    fn montecarlo_sample_parsing() {
        // Seeds at or above 2^53 would not survive the JSON wire format.
        check(
            r#"
            montecarlo --domain dnn --samples 128 => {"domain":"dnn","knobs":{},"point":{"applications":5,"lifetime_years":2,"volume":1000000},"samples":128,"seed":2654435769}
            monte-carlo --samples 16 --seed 42 => {"domain":"dnn","knobs":{},"point":{"applications":5,"lifetime_years":2,"volume":1000000},"samples":16,"seed":42}
            montecarlo --samples 0 => bad_request: JSON schema error at samples
            montecarlo --samples abc => bad_request: JSON schema error at samples
            montecarlo --seed x => bad_request: JSON schema error at seed
            montecarlo --seed 9007199254740992 => bad_request: JSON schema error at seed
            montecarlo --samples 1 --seed 9007199254740991 => {"domain":"dnn"
        "#,
        );
    }

    #[test]
    fn invalid_inputs_are_rejected_with_messages() {
        // HTTP serves a zero lifetime, so the CLI does too.
        check(
            r#"
            frobnicate => usage: unknown command 'frobnicate'
            batch => usage: unknown command 'batch'
            compare --apps 0 => model: workload must contain at least one application
            compare --volume 0 => model: invalid application volume
            compare --lifetime -1 => model: invalid application lifetime
            compare --apps => usage: missing value for --apps
            compare apps 5 => usage: unexpected argument 'apps'
            compare --apps x => bad_request: JSON schema error at point.applications
            compare --apps 9007199254740994 => bad_request: JSON schema error at point.applications
            evaluate --lifetime inf => bad_request: JSON schema error at point.lifetime_years
            evaluate --frobnicate 1 --steps 9 => usage: unknown option '--frobnicate'
            evaluate --steps 9 => usage: --steps does not apply to 'evaluate'
            industry --apps 0 => usage: --apps does not apply to 'industry'
            evaluate --lifetime 0 => {"domain":"dnn","knobs":{},"point":{"applications":5,"lifetime_years":0,
        "#,
        );
    }

    #[test]
    fn last_value_wins_for_repeated_options() {
        check(
            r#"compare --apps 3 --apps 7 => {"scenarios":[{"domain":"dnn","knobs":{}}],"point":{"applications":7,"lifetime_years":2,"volume":1000000}}"#,
        );
    }

    #[test]
    fn grid_defaults_and_validation() {
        assert_eq!(kind("grid --steps 8"), QueryKind::Grid);
        check(
            r#"
            grid --domain imgproc --steps 8 => {"domain":"imgproc","knobs":{},"point":{"applications":5,"lifetime_years":2,"volume":1000000},"x_axis":"apps","x_from":1,"x_to":12,"y_axis":"lifetime","y_from":0.25,"y_to":3,"steps":8}
            grid --x-axis apps --y-axis apps => bad_request: JSON schema error at y_axis: x_axis and y_axis must differ
            grid --steps 1 => bad_request: JSON schema error at steps
            grid --x-from 5 --x-to 2 => bad_request: JSON schema error at x_from
            heatmap --x-axis volume --x-from 1000 --x-to 1000000 --y-axis apps --y-from 1 --y-to 10 => {"domain":"dnn","knobs":{},"point":{"applications":5,"lifetime_years":2,"volume":1000000},"x_axis":"volume","x_from":1000,"x_to":1000000,"y_axis":"apps","y_from":1,"y_to":10,"steps":24}
        "#,
        );
    }

    #[test]
    fn grid_adaptive_flag_is_parsed() {
        assert_eq!(
            kind("grid --domain dnn --steps 16 --adaptive"),
            QueryKind::Frontier
        );
        check("frontier --adaptive => usage: --adaptive does not apply to 'frontier'");
    }

    #[test]
    fn grid_stream_flag_is_parsed() {
        check(
            r#"
            grid --domain dnn --steps 16 --stream => {"domain":"dnn","knobs":{},"point":{"applications":5,"lifetime_years":2,"volume":1000000},"x_axis":"apps","x_from":1,"x_to":12,"y_axis":"lifetime","y_from":0.25,"y_to":3,"steps":16,"stream":true}
            frontier --stream => usage: --stream does not apply to 'frontier'
        "#,
        );
    }

    #[test]
    fn frontier_shares_grid_geometry() {
        check(
            r#"
            frontier --domain dnn --x-axis apps --x-from 1 --x-to 32 --y-axis lifetime --y-from 0.1 --y-to 3 --steps 64 => {"domain":"dnn","knobs":{},"point":{"applications":5,"lifetime_years":2,"volume":1000000},"x_axis":"apps","x_from":1,"x_to":32,"y_axis":"lifetime","y_from":0.1,"y_to":3,"steps":64}
            frontier --x-axis apps --y-axis apps => bad_request: JSON schema error at y_axis
            frontier --steps 1 => bad_request: JSON schema error at steps
            frontier --y-from 3 --y-to 1 => bad_request: JSON schema error at x_from
        "#,
        );
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
        // The serve section is the server's own option reference.
        assert!(USAGE.contains(gf_server::options_help!()));
    }

    #[test]
    fn scenarios_lists_or_runs_by_id() {
        assert_eq!(kind("scenarios"), QueryKind::Catalog);
        assert_eq!(kind("scenarios dnn_baseline"), QueryKind::Scenario);
        // `--id` spells the positional; point overrides stay partial, so
        // unset flags keep the cataloged value.
        check(
            r#"
            scenarios dnn_baseline --json => {"id":"dnn_baseline","knobs":{}}
            scenarios --id dnn_baseline => {"id":"dnn_baseline","knobs":{}}
            scenarios dnn_fleet_10k_3y --apps 9 => {"id":"dnn_fleet_10k_3y","knobs":{},"point":{"applications":9,"lifetime_years":3,"volume":10000}}
            scenarios dnn_baseline extra => usage: unexpected argument 'extra'
            scenarios --apps 9 => usage: --apps does not apply to 'scenarios' without a catalog id
            scenarios dnn_baseline --domain crypto => usage: --domain does not apply to 'scenarios'
            scenarios dnn_baseline --apps 0 => model: workload must contain at least one application
            scenarios dnn_baseline --lifetime -2 => model: invalid application lifetime
            scenarios no_such_entry --apps 3 => not_found: unknown catalog scenario 'no_such_entry'
        "#,
        );
    }

    #[test]
    fn replay_requires_an_id_and_parses_its_options() {
        // Positionals stay rejected everywhere else.
        check(
            r#"
            replay => usage: replay needs a catalog scenario id
            replay crypto_fleet_1m_5y => {"id":"crypto_fleet_1m_5y","knobs":{},"series":"global_flat","interpolate":false}
            replay dnn_baseline --region solar_duck --interpolate --volume 5000 => {"id":"dnn_baseline","knobs":{},"point":{"applications":5,"lifetime_years":2,"volume":5000},"series":"solar_duck","interpolate":true}
            replay crypto_fleet_1m_5y --years 5 => {"id":"crypto_fleet_1m_5y","knobs":{},"series":"global_flat","interpolate":false,"years":5}
            replay crypto_fleet_1m_5y --years 0 => bad_request: JSON schema error at years
            evaluate dnn_baseline => usage: unexpected argument 'dnn_baseline'
        "#,
        );
    }

    #[test]
    fn optimize_parses_objective_knobs_and_constraints() {
        // Wire goals pass through in any case, with `-` for `_`; required
        // pieces and conflicts are rejected loudly.
        check(
            r#"
            optimize --objective total --knob apps:1:12 --knob lifetime:0.5:4 => {"domain":"dnn","knobs":{},"objective":{"goal":"min_total"},"search":[{"axis":"apps","min":1,"max":12},{"axis":"lifetime","min":0.5,"max":4}]}
            optimize dnn_baseline --objective budget --platform asic --budget-kg 5e6 --knob volume:1000:2000000:int --tolerance 1e-4 --max-evals 500 => {"id":"dnn_baseline","knobs":{},"objective":{"goal":"budget","platform":"asic","budget_kg":5000000},"search":[{"axis":"volume","min":1000,"max":2000000,"integer":true}],"tolerance":0.0001,"max_evals":500}
            optimize --objective ratio --knob apps:1:20 --fpga-wins --cap-kg 1e9 --cap-platform asic => {"domain":"dnn","knobs":{},"objective":{"goal":"min_ratio"},"search":[{"axis":"apps","min":1,"max":20}],"constraints":[{"kind":"fpga_wins"},{"kind":"max_total_kg","platform":"asic","limit_kg":1000000000}]}
            optimize --objective MIN-TOTAL --knob apps:1:12 => {"domain":"dnn","knobs":{},"objective":{"goal":"min_total"}
            optimize --knob apps:1:12 => bad_request: JSON schema error at objective: missing
            optimize --objective total => bad_request: JSON schema error at search: missing
            optimize --objective budget --knob apps:1:12 => bad_request: JSON schema error at objective.budget_kg: missing
            optimize --objective total --budget-kg 5 --knob apps:1:12 => usage: --budget-kg only applies to --objective budget
            optimize --objective total --knob apps:1 => usage: --knob expects axis:min:max[:int], got 'apps:1'
            optimize --objective total --knob apps:1:2:float => usage: --knob flag must be 'int', got 'float'
            optimize --objective total --knob watts:1:2 => bad_request: JSON schema error at search[0].axis: unknown axis 'watts'
            optimize --objective glory --knob apps:1:12 => bad_request: JSON schema error at objective.goal: unknown goal 'glory'
            optimize --objective total --knob apps:1:12 --platform gpu => bad_request: JSON schema error at objective.platform
            optimize --objective total --knob apps:1:12 --cap-platform asic => usage: --cap-platform only applies together with --cap-kg
            optimize dnn_baseline --domain crypto --objective total --knob apps:1:12 => usage: --domain conflicts with a catalog id
            optimize --objective budget --budget-kg 1 --knob apps:1:12 => model: 
        "#,
        );
    }
}
