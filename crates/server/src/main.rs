//! `greenfpga-serve` — the standalone server binary.
//!
//! ```text
//! greenfpga-serve [--addr 127.0.0.1:7878] [--workers N] [--eval-threads N]
//!                 [--cache-capacity N] [--cache-shards N]
//!                 [--max-connections N] [--max-body-bytes N]
//!                 [--idle-timeout SECS] [--header-timeout SECS]
//!                 [--driver epoll|portable|auto]
//!                 [--trace-log PATH] [--slow-request-us N]
//! ```
//!
//! The same server is reachable as `greenfpga serve ...` through the CLI.

use std::process::ExitCode;

use gf_server::{Server, ServerConfig};

const USAGE: &str = "\
greenfpga-serve — HTTP/JSON estimation service over the GreenFPGA engine

USAGE:
  greenfpga-serve [OPTIONS]

OPTIONS:
  --addr <HOST:PORT>      bind address                 (default: 127.0.0.1:7878)
  --workers <N>           connection worker threads    (default: auto)
  --eval-threads <N>      threads per batch evaluation (default: 1)
  --cache-capacity <N>    cached compiled scenarios    (default: 64)
  --cache-shards <N>      scenario cache shards        (default: 8)
  --max-connections <N>   live connection hard cap     (default: 4096)
  --max-body-bytes <N>    request body limit           (default: 4194304)
  --idle-timeout <SECS>   keep-alive idle close        (default: 5)
  --header-timeout <SECS> slowloris 408 deadline       (default: 10)
  --driver <NAME>         epoll | portable | auto      (default: auto)
  --trace-log <PATH>      stream spans to PATH as NDJSON (default: off)
  --slow-request-us <N>   log requests slower than N us  (default: off)

ROUTES:
  GET  /healthz        liveness: status, version, uptime, workers
  GET  /v1/metrics     per-route counters + bytes, latency histograms, cache shards
  GET  /metrics        the same registry as Prometheus text exposition
  GET  /v1/trace       recent spans from the trace rings (typed JSON)
  POST /v1/evaluate    one operating point            {\"domain\", \"knobs\"?, \"point\"?}
  POST /v1/batch       many points, batch kernel      {\"domain\", \"knobs\"?, \"points\"}
  POST /v1/compare     one point, several scenarios   {\"scenarios\", \"point\"?}
  POST /v1/crossover   closed-form crossover solver   {\"domain\", \"knobs\"?, \"point\"?, ranges?}
  POST /v1/frontier    winner map, bisected per row   {\"domain\", \"knobs\"?, axes/ranges/steps?}
  POST /v1/sweep       one-axis linear sweep          {\"domain\", \"knobs\"?, \"axis\", \"from\", \"to\", \"steps\"?}
  POST /v1/grid        dense 2-D ratio heatmap        {\"domain\", \"knobs\"?, axes/ranges/steps?}
  POST /v1/tornado     per-knob sensitivity analysis  {\"domain\", \"knobs\"?, \"point\"?}
  POST /v1/montecarlo  uncertainty analysis           {\"domain\", \"knobs\"?, \"point\"?, \"samples\"?, \"seed\"?}
  POST /v1/industry    Table 3 industry testcases     {\"knobs\"?, \"service_years\"?, \"fpga_applications\"?, \"volume\"?}
  POST /v1/scenario    run a scenario, scored verdict {\"id\"|\"domain\", \"knobs\"?, \"point\"?}
  POST /v1/replay      time-series carbon replay      {\"id\"|\"domain\", \"knobs\"?, \"point\"?, \"series\"?, \"interpolate\"?, \"years\"?}
  POST /v1/optimize    inverse query / argmin solver  {\"id\"|\"domain\", \"knobs\"?, \"point\"?, \"objective\", \"search\", \"constraints\"?}
  GET  /v1/catalog     the named scenario catalog     (no body)

Errors are {\"error\": {\"code\", \"message\", \"retryable\"}} with canonical
HTTP statuses (400 bad_request, 404 not_found, 405 method_not_allowed,
422 model, 503 overloaded + Retry-After, 500 internal).
";

/// Parses `--key value` pairs into a config; the tiny hand parser matches
/// the CLI's dependency-free house style.
fn parse_config(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        if matches!(key, "--help" | "-h" | "help") {
            return Err(String::new());
        }
        let Some(value) = args.get(i + 1) else {
            return Err(format!("missing value for {key}"));
        };
        let parse_usize = |v: &str| -> Result<usize, String> {
            v.parse()
                .map_err(|_| format!("invalid value '{v}' for {key}"))
        };
        // Zero is a configuration bug for these, not a value to clamp —
        // reject it here so the mistake is visible, matching the
        // library-level `ScenarioCache`/`ShardedScenarioCache` contract.
        let parse_positive = |v: &str| -> Result<usize, String> {
            match parse_usize(v)? {
                0 => Err(format!("{key} must be at least 1")),
                n => Ok(n),
            }
        };
        match key {
            "--addr" => config.addr = value.clone(),
            "--workers" => config.workers = parse_usize(value)?,
            "--eval-threads" => config.eval_threads = parse_usize(value)?.max(1),
            "--cache-capacity" => config.cache_capacity = parse_positive(value)?,
            "--cache-shards" => config.cache_shards = parse_positive(value)?,
            "--max-connections" => config.max_connections = parse_positive(value)?,
            "--max-body-bytes" => config.max_body_bytes = parse_usize(value)?.max(1024),
            "--idle-timeout" => {
                config.idle_timeout = std::time::Duration::from_secs(parse_positive(value)? as u64)
            }
            "--header-timeout" => {
                config.header_timeout =
                    std::time::Duration::from_secs(parse_positive(value)? as u64)
            }
            "--trace-log" => config.trace_log = Some(std::path::PathBuf::from(value)),
            "--slow-request-us" => config.slow_request_us = parse_positive(value)? as u64,
            "--driver" => {
                config.driver = match value.as_str() {
                    "epoll" => gf_server::DriverKind::Epoll,
                    "portable" => gf_server::DriverKind::Portable,
                    "auto" => gf_server::DriverKind::Auto,
                    other => {
                        return Err(format!(
                            "--driver must be epoll|portable|auto, got '{other}'"
                        ))
                    }
                }
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 2;
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_config(&args) {
        Ok(config) => config,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = config.workers_resolved();
    let driver = config.driver.name();
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "greenfpga-serve listening on http://{} ({workers} workers, {driver} driver)",
        server.local_addr()
    );
    server.run();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn usage_lists_every_query_route() {
        for kind in greenfpga::api::QueryKind::ALL {
            assert!(
                USAGE.contains(kind.path()),
                "usage is missing {}",
                kind.path()
            );
        }
    }

    #[test]
    fn defaults_and_overrides_parse() {
        let config = parse_config(&[]).unwrap();
        assert_eq!(config.addr, "127.0.0.1:7878");
        assert_eq!(config.cache_shards, 8);
        assert_eq!(config.max_connections, 4096);
        assert_eq!(config.header_timeout, std::time::Duration::from_secs(10));
        assert_eq!(config.driver, gf_server::DriverKind::Auto);
        assert_eq!(config.trace_log, None);
        assert_eq!(config.slow_request_us, 0);
        let config = parse_config(&argv(
            "--addr 0.0.0.0:9000 --workers 8 --eval-threads 2 --cache-shards 4 --max-connections 64 \
             --idle-timeout 30 --header-timeout 3 --driver portable \
             --trace-log /tmp/spans.ndjson --slow-request-us 500",
        ))
        .unwrap();
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(config.workers, 8);
        assert_eq!(config.eval_threads, 2);
        assert_eq!(config.cache_shards, 4);
        assert_eq!(config.max_connections, 64);
        assert_eq!(config.idle_timeout, std::time::Duration::from_secs(30));
        assert_eq!(config.header_timeout, std::time::Duration::from_secs(3));
        assert_eq!(config.driver, gf_server::DriverKind::Portable);
        assert_eq!(
            config.trace_log.as_deref(),
            Some(std::path::Path::new("/tmp/spans.ndjson"))
        );
        assert_eq!(config.slow_request_us, 500);
    }

    #[test]
    fn bad_options_are_rejected() {
        assert!(parse_config(&argv("--workers")).is_err());
        assert!(parse_config(&argv("--workers x")).is_err());
        assert!(parse_config(&argv("--frobnicate 1")).is_err());
        assert_eq!(parse_config(&argv("--help")).unwrap_err(), "");
        // Zero capacities/shards/caps are configuration errors, not clamps.
        assert!(parse_config(&argv("--cache-capacity 0")).is_err());
        assert!(parse_config(&argv("--cache-shards 0")).is_err());
        assert!(parse_config(&argv("--max-connections 0")).is_err());
        assert!(parse_config(&argv("--header-timeout 0")).is_err());
        assert!(parse_config(&argv("--driver kqueue")).is_err());
        // A zero floor means "off" — reached by omitting the flag, not by
        // passing 0 (which reads like a typo for "log everything").
        assert!(parse_config(&argv("--slow-request-us 0")).is_err());
    }
}
