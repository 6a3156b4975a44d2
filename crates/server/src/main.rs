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

const USAGE: &str = concat!(
    "\
greenfpga-serve — HTTP/JSON estimation service over the GreenFPGA engine

USAGE:
  greenfpga-serve [OPTIONS]

OPTIONS:
",
    gf_server::options_help!(),
    "
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
"
);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match ServerConfig::from_args(&args) {
        Ok(Some(config)) => config,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
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
        let config = ServerConfig::from_args::<&str>(&[]).unwrap().unwrap();
        assert_eq!(config.addr, "127.0.0.1:7878");
        assert_eq!(config.cache_shards, 8);
        assert_eq!(config.max_connections, 4096);
        assert_eq!(config.header_timeout, std::time::Duration::from_secs(10));
        assert_eq!(config.driver, gf_server::DriverKind::Auto);
        assert_eq!(config.trace_log, None);
        assert_eq!(config.slow_request_us, 0);
        let config = ServerConfig::from_args(&argv(
            "--addr 0.0.0.0:9000 --workers 8 --eval-threads 2 --cache-shards 4 --max-connections 64 \
             --idle-timeout 30 --header-timeout 3 --driver portable \
             --trace-log /tmp/spans.ndjson --slow-request-us 500",
        ))
        .unwrap()
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
        assert!(ServerConfig::from_args(&argv("--workers")).is_err());
        assert!(ServerConfig::from_args(&argv("--workers x")).is_err());
        assert!(ServerConfig::from_args(&argv("--frobnicate 1")).is_err());
        assert!(ServerConfig::from_args(&argv("--help")).unwrap().is_none());
        // Zero capacities/shards/caps are configuration errors, not clamps.
        assert!(ServerConfig::from_args(&argv("--cache-capacity 0")).is_err());
        assert!(ServerConfig::from_args(&argv("--cache-shards 0")).is_err());
        assert!(ServerConfig::from_args(&argv("--max-connections 0")).is_err());
        assert!(ServerConfig::from_args(&argv("--header-timeout 0")).is_err());
        assert!(ServerConfig::from_args(&argv("--driver kqueue")).is_err());
        // A zero floor means "off" — reached by omitting the flag, not by
        // passing 0 (which reads like a typo for "log everything").
        assert!(ServerConfig::from_args(&argv("--slow-request-us 0")).is_err());
    }
}
