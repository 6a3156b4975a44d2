//! `servebench` — the closed-loop HTTP benchmark for `greenfpga-serve`.
//!
//! ```text
//! servebench --server <greenfpga-serve binary> --workload <name|all>
//!            [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Generates a workload's request bytes from `--seed`, fixes every golden
//! response in-process, starts the server binary with default flags on an
//! ephemeral loopback port, and drives it from two keep-alive connections,
//! one thread each, strictly one request in flight per connection (a closed
//! loop: CLI calls, notebook sweeps and dashboards all wait for each
//! answer). Every response is byte-compared with its golden, masking only
//! the 16-hex `x-request-id`.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs an untraced
//! phase and then a traced one, in which each request answered over HTTP is
//! replayed in-process through the public call of every layer
//! ([`layers`]), and reports the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod client;
mod layers;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use gf_json::FromJson;
use greenfpga::api::MetricsResponse;
use greenfpga::{Engine, EngineConfig, ResultBuffer};

use client::{Connection, ServerProcess};
use workload::{Workload, NAMES};

const USAGE: &str = "usage: servebench --server <greenfpga-serve> --workload <point_lookups|bulk_results|offloaded_compute|all> [--seed N] [--seconds N] [--trace 0|1]";

/// Client connections, one generator thread each.
const CONNECTIONS: usize = 2;
/// Server start-ups per end-to-end run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 15;
/// Length of the windows whose median timings are reported.
const WINDOW_SECONDS: f64 = 2.0;
/// Most answered requests the traced pass replays in-process (an even
/// stride through all of them), bounding the replay's run time.
const TRACE_REPLAY_MAX: usize = 2000;

/// Per-layer metrics in report order, each with the end-to-end metric and
/// workload it should move.
const LAYER_METRICS: [(&str, &str); 24] = [
    (
        "server.ns_per_req",
        "throughput_rps, latency_p50_us on point_lookups",
    ),
    (
        "server.share",
        "throughput_rps, latency_p50_us on point_lookups",
    ),
    ("json.parse.ns_per_req", "latency_p50_us on bulk_results"),
    ("json.parse.share", "latency_p50_us on bulk_results"),
    ("json.parse.bytes_per_req", "latency_p50_us on bulk_results"),
    ("api.decode.ns_per_req", "throughput_rps on point_lookups"),
    ("api.decode.share", "throughput_rps on point_lookups"),
    (
        "engine.resolve.ns_per_req",
        "latency_p99_us on point_lookups; none on bulk_results",
    ),
    (
        "engine.resolve.share",
        "latency_p99_us on point_lookups; none on bulk_results",
    ),
    (
        "engine.cache_hit_ratio",
        "latency_p99_us on point_lookups; none on bulk_results",
    ),
    ("engine.cache_lookups", "base of engine.cache_hit_ratio"),
    (
        "engine.run.ns_per_req",
        "throughput_rps on offloaded_compute",
    ),
    ("engine.run.share", "throughput_rps on offloaded_compute"),
    (
        "eval.kernel.ns_per_req",
        "latency_p50_us on offloaded_compute; part of bulk_results",
    ),
    (
        "eval.points_per_req",
        "latency_p50_us on offloaded_compute; part of bulk_results",
    ),
    (
        "scenario.region.ns_per_req",
        "latency_p50_us on offloaded_compute only",
    ),
    (
        "scenario.replay.ns_per_req",
        "latency_p50_us on offloaded_compute only",
    ),
    (
        "api.materialize.ns_per_req",
        "throughput_rps on bulk_results; none on offloaded_compute",
    ),
    (
        "api.materialize.share",
        "throughput_rps on bulk_results; none on offloaded_compute",
    ),
    (
        "json.encode.ns_per_req",
        "throughput_rps on bulk_results; small on point_lookups",
    ),
    (
        "json.encode.share",
        "throughput_rps on bulk_results; small on point_lookups",
    ),
    (
        "json.encode.bytes_per_req",
        "throughput_rps on bulk_results; small on point_lookups",
    ),
    (
        "traced.latency_p50_us",
        "tracing cost: compare with untraced.latency_p50_us",
    ),
    (
        "untraced.latency_p50_us",
        "tracing cost: compare with traced.latency_p50_us",
    ),
];

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut server, mut workload) = (None, None);
    let (mut seed, mut seconds, mut trace) = (1u64, 30.0f64, false);
    let mut pairs = argv.chunks(2);
    for pair in &mut pairs {
        let [key, value] = pair else {
            return Err(format!("missing value for {}", pair[0]));
        };
        let bad = || format!("invalid value '{value}' for {key}");
        match key.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("servebench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("servebench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one run reports: the result line's counts and metrics.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The result line. Values print with every digit Rust's shortest
    /// round-trip formatting gives them.
    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args) -> Result<Report, String> {
    if args.workload != "all" {
        return run_workload(args, &args.workload, args.trace);
    }
    // Every workload in both modes, metrics prefixed by workload name.
    let mut combined = Report {
        correct: true,
        ..Report::default()
    };
    for name in NAMES {
        for trace in [false, true] {
            let report = run_workload(args, name, trace)?;
            combined.attempted += report.attempted;
            combined.failed += report.failed;
            combined.correct &= report.correct;
            for metric in report.metrics {
                combined.metrics.push(Metric {
                    name: format!("{name}.{}", metric.name),
                    ..metric
                });
            }
        }
    }
    Ok(combined)
}

/// The git commit of the checkout, read from `.git` without running git.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|id| id.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|line| line.strip_suffix(reference)?.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn io_err(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

fn fetch_metrics(server: &ServerProcess) -> Result<MetricsResponse, String> {
    let body = Connection::open(server.addr)
        .and_then(|mut conn| conn.get("/v1/metrics"))
        .map_err(io_err("GET /v1/metrics"))?;
    let text = String::from_utf8(body).map_err(|_| "GET /v1/metrics: not UTF-8".to_string())?;
    let value = gf_json::parse(&text).map_err(|e| format!("GET /v1/metrics: {e}"))?;
    MetricsResponse::from_json(&value).map_err(|e| format!("GET /v1/metrics: {e}"))
}

/// Lifetime (hits, misses) summed over the server's cache shards.
fn cache_counts(metrics: &MetricsResponse) -> (u64, u64) {
    metrics
        .cache_shards
        .iter()
        .fold((0, 0), |(h, m), shard| (h + shard.hits, m + shard.misses))
}

fn run_workload(args: &Args, name: &str, trace: bool) -> Result<Report, String> {
    let engine = Engine::new(EngineConfig {
        eval_threads: 1,
        ..EngineConfig::default()
    })
    .map_err(|e| format!("in-process engine: {e}"))?;
    let generated = Instant::now();
    let workload = Workload::generate(name, args.seed, &engine)?;
    let mix: Vec<String> = workload
        .mix()
        .iter()
        .map(|(kind, count)| format!("{kind} {count}"))
        .collect();
    println!(
        "servebench: workload {} seed {} trace {} -> {} requests ({}) with goldens in {:.2}s, inputs digest {:016x}",
        workload.name,
        args.seed,
        u8::from(trace),
        workload.requests.len(),
        mix.join(", "),
        generated.elapsed().as_secs_f64(),
        workload.digest()
    );

    // Set-up: spawn to first byte-correct response, repeated; the last
    // server started serves the run.
    let probe = workload::probe(&engine)?;
    let spawns = if trace { 1 } else { SETUP_SPAWNS };
    let mut setups = Vec::with_capacity(spawns);
    let mut server: Option<ServerProcess> = None;
    for _ in 0..spawns {
        drop(server.take());
        let started = Instant::now();
        let spawned = ServerProcess::spawn(&args.server).map_err(io_err("start server"))?;
        let mut conn = Connection::open(spawned.addr).map_err(io_err("connect"))?;
        conn.exchange(&probe.wire, &probe.expected)
            .map_err(io_err("first request"))?;
        if !conn.matches(&probe.expected) {
            return Err(format!(
                "first {} response differs from its golden",
                probe.kind
            ));
        }
        setups.push(started.elapsed().as_secs_f64());
        server = Some(spawned);
    }
    let server = server.expect("at least one spawn");

    let health = Connection::open(server.addr)
        .and_then(|mut conn| conn.get("/healthz"))
        .map_err(io_err("GET /healthz"))?;
    let health = gf_json::parse(&String::from_utf8_lossy(&health))
        .map_err(|e| format!("GET /healthz: {e}"))?;
    let workers = health
        .get("workers")
        .and_then(gf_json::Value::as_f64)
        .ok_or("GET /healthz: no workers")?;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "run: seed {} nproc {nproc} server_workers {workers} driver {} profile {profile} commit {} load closed-loop {CONNECTIONS} connections x 1 in flight",
        args.seed,
        server.driver(),
        commit(),
    );

    // Warm-up: every request once over the wire, byte-checked, so caches
    // and lazily spawned workers settle before anything is timed.
    let mut conns = (0..CONNECTIONS)
        .map(|_| Connection::open(server.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io_err("connect"))?;
    for (i, request) in workload.requests.iter().enumerate() {
        let conn = &mut conns[i % CONNECTIONS];
        conn.exchange(&request.wire, &request.expected)
            .map_err(io_err("warm-up"))?;
        if !conn.matches(&request.expected) {
            return Err(format!(
                "warm-up: {} request #{i} got a response that differs from its golden",
                request.kind
            ));
        }
    }

    let mut report = Report::default();
    if trace {
        let untraced = closed_loop(&server, &workload, &mut conns, args.seconds / 2.0, false)?;
        let traced = closed_loop(&server, &workload, &mut conns, args.seconds / 2.0, true)?;
        // The replay runs after the traced phase, on one thread, so neither
        // perturbs the other: round trips see an unshared client, layer
        // calls an idle server.
        let replayed = Instant::now();
        let mut totals = layers::Totals::default();
        let mut buffer = ResultBuffer::new();
        let stride = traced.answered.len().div_ceil(TRACE_REPLAY_MAX).max(1);
        for &(index, round_trip_ns) in traced.answered.iter().step_by(stride) {
            let request = &workload.requests[index];
            layers::replay(&engine, &mut buffer, request, round_trip_ns, &mut totals);
        }
        println!(
            "trace: replayed {} of {} answered requests in-process (stride {stride}) in {:.2}s",
            totals.requests,
            traced.answered.len(),
            replayed.elapsed().as_secs_f64()
        );
        report.attempted = untraced.attempted + traced.attempted;
        report.failed = untraced.failed + traced.failed + totals.mismatches;
        report.correct = report.failed == 0;
        traced_metrics(&mut report, &untraced, &traced, &totals)?;
    } else {
        let phase = closed_loop(&server, &workload, &mut conns, args.seconds, false)?;
        report.attempted = phase.attempted;
        report.failed = phase.failed;
        report.correct = phase.failed == 0;
        end_to_end_metrics(&mut report, phase, &setups, &server)?;
    }
    drop(conns);
    drop(server);

    for metric in &report.metrics {
        let moves = LAYER_METRICS
            .iter()
            .find(|(layer, _)| *layer == metric.name)
            .map_or(String::new(), |(_, moves)| format!("  [moves {moves}]"));
        println!(
            "metric {} = {} {}{moves}",
            metric.name, metric.value, metric.unit
        );
    }
    println!(
        "checked {} responses, {} failed (error_rate {})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", bad.name));
    }
    if report.attempted == 0 {
        return Err("no request was attempted".to_string());
    }
    Ok(report)
}

/// One timed closed-loop phase.
struct Phase {
    attempted: u64,
    failed: u64,
    /// Round trips in ns, ascending; failed requests count as `u64::MAX`.
    latencies: Vec<u64>,
    wall_s: f64,
    windows: Vec<Window>,
    completed: u64,
    cpu_us: f64,
    cache_hits: u64,
    cache_lookups: u64,
    /// With `record`: each byte-correct answer's request index and round
    /// trip, per connection in send order.
    answered: Vec<(usize, u64)>,
}

/// One window of a timed phase.
struct Window {
    seconds: f64,
    completed: u64,
    cpu_us: f64,
    /// Round trips that ended in the window, ascending.
    latencies: Vec<u64>,
}

#[derive(Default)]
struct ConnOutcome {
    attempted: u64,
    failed: u64,
    /// Round trips by the window they ended in.
    latencies: Vec<Vec<u64>>,
    answered: Vec<(usize, u64)>,
}

/// Runs every connection in a closed loop over the workload for `seconds`,
/// sampling throughput and server CPU once per window. With `record`, each
/// answered request is kept for the in-process layer replay.
fn closed_loop(
    server: &ServerProcess,
    workload: &Workload,
    conns: &mut [Connection],
    seconds: f64,
    record: bool,
) -> Result<Phase, String> {
    let metrics_before = fetch_metrics(server)?;
    let cpu_before = server.cpu_us().map_err(io_err("server CPU"))?;
    let windows = ((seconds / WINDOW_SECONDS).round() as usize).max(1);
    let window = Duration::from_secs_f64(seconds / windows as f64);
    let completed = AtomicU64::new(0);
    let barrier = Barrier::new(conns.len() + 1);
    let n = workload.requests.len();
    let addr = server.addr;

    let (outcomes, samples, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (completed, barrier) = (&completed, &barrier);
                scope.spawn(move || {
                    let mut out = ConnOutcome {
                        latencies: vec![Vec::new(); windows],
                        ..ConnOutcome::default()
                    };
                    let mut index = c * n / CONNECTIONS;
                    barrier.wait();
                    let begun = Instant::now();
                    let deadline = begun + window * windows as u32;
                    while Instant::now() < deadline {
                        let request = &workload.requests[index % n];
                        out.attempted += 1;
                        let start = Instant::now();
                        let exchanged = conn.exchange(&request.wire, &request.expected);
                        let end = Instant::now();
                        let ns = (end - start).as_nanos() as u64;
                        let in_window = ((end - begun).as_nanos() / window.as_nanos()) as usize;
                        let latencies = &mut out.latencies[in_window.min(windows - 1)];
                        if exchanged.is_ok() && conn.matches(&request.expected) {
                            latencies.push(ns);
                            completed.fetch_add(1, Ordering::Relaxed);
                            if record {
                                out.answered.push((index % n, ns));
                            }
                        } else {
                            // A failed or refused request misses every
                            // latency limit; the connection may be out of
                            // step, so it is replaced.
                            out.failed += 1;
                            latencies.push(u64::MAX);
                            if let Ok(fresh) = Connection::open(addr) {
                                *conn = fresh;
                            }
                        }
                        index += 1;
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut samples = vec![(0.0, 0u64, cpu_before)];
        for w in 1..=windows {
            let due = start + window * w as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            samples.push((
                start.elapsed().as_secs_f64(),
                completed.load(Ordering::Relaxed),
                server.cpu_us().unwrap_or(f64::NAN),
            ));
        }
        let outcomes: Vec<ConnOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outcomes, samples, start.elapsed().as_secs_f64())
    });
    let cpu_after = server.cpu_us().map_err(io_err("server CPU"))?;
    let metrics_after = fetch_metrics(server)?;

    let mut phase = Phase {
        attempted: 0,
        failed: 0,
        latencies: Vec::new(),
        wall_s: wall,
        windows: samples
            .windows(2)
            .map(|pair| {
                let ((t0, n0, c0), (t1, n1, c1)) = (pair[0], pair[1]);
                Window {
                    seconds: t1 - t0,
                    completed: n1 - n0,
                    cpu_us: c1 - c0,
                    latencies: Vec::new(),
                }
            })
            .collect(),
        completed: completed.load(Ordering::Relaxed),
        cpu_us: cpu_after - cpu_before,
        cache_hits: 0,
        cache_lookups: 0,
        answered: Vec::new(),
    };
    for out in outcomes {
        phase.attempted += out.attempted;
        phase.failed += out.failed;
        for (window, latencies) in phase.windows.iter_mut().zip(out.latencies) {
            phase.latencies.extend_from_slice(&latencies);
            window.latencies.extend(latencies);
        }
        phase.answered.extend(out.answered);
    }
    phase.latencies.sort_unstable();
    for window in &mut phase.windows {
        window.latencies.sort_unstable();
    }
    let (h0, m0) = cache_counts(&metrics_before);
    let (h1, m1) = cache_counts(&metrics_after);
    phase.cache_hits = h1 - h0;
    phase.cache_lookups = (h1 - h0) + (m1 - m0);
    Ok(phase)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Merges adjacent windows pairwise until each holds enough round trips
/// for its p99, so a slow server gets longer windows instead of a failed
/// run.
fn coarsen(mut windows: Vec<Window>) -> Vec<Window> {
    let short = |w: &Window| stats::beyond(w.latencies.len(), 9_900) < stats::MIN_BEYOND;
    while windows.len() > 1 && windows.iter().any(short) {
        let mut merged = Vec::with_capacity(windows.len().div_ceil(2));
        let mut pairs = windows.into_iter();
        while let Some(mut window) = pairs.next() {
            if let Some(next) = pairs.next() {
                window.seconds += next.seconds;
                window.completed += next.completed;
                window.cpu_us += next.cpu_us;
                window.latencies.extend(next.latencies);
                window.latencies.sort_unstable();
            }
            merged.push(window);
        }
        windows = merged;
    }
    windows
}

fn end_to_end_metrics(
    report: &mut Report,
    mut phase: Phase,
    setups: &[f64],
    server: &ServerProcess,
) -> Result<(), String> {
    // Every timing is a median over the phase's windows, so a burst of
    // host interference moves one window, not the figure.
    phase.windows = coarsen(std::mem::take(&mut phase.windows));
    let mut rates = Vec::new();
    let mut cpus = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    for (i, window) in phase.windows.iter().enumerate() {
        let n = window.latencies.len();
        if stats::beyond(n, 9_900) < stats::MIN_BEYOND {
            return Err(format!(
                "window {i} holds {n} round trips, fewer than {} beyond p99",
                stats::MIN_BEYOND
            ));
        }
        rates.push(window.completed as f64 / window.seconds);
        cpus.push(window.cpu_us / window.completed.max(1) as f64);
        p50s.push(us(stats::percentile(&window.latencies, 5_000)));
        p99s.push(us(stats::percentile(&window.latencies, 9_900)));
    }
    let rss = server.rss_peak_mib().map_err(io_err("server RSS"))?;
    report.push("throughput_rps", stats::median(&rates), "req/s");
    report.push("latency_p50_us", stats::median(&p50s), "us");
    report.push("latency_p99_us", stats::median(&p99s), "us");
    report.push("setup_s", stats::median(setups), "s");
    report.push("server_cpu_us_per_req", stats::median(&cpus), "us");
    report.push("server_rss_peak_mb", rss, "MiB");

    let n = phase.latencies.len();
    let fewest = phase.windows.iter().map(|w| w.latencies.len()).min();
    println!(
        "phase: {} requests in {:.3}s ({:.1} req/s overall); timings are medians over {} windows of {:.1}s holding at least {} round trips each ({} beyond p99)",
        phase.completed,
        phase.wall_s,
        phase.completed as f64 / phase.wall_s,
        phase.windows.len(),
        phase.wall_s / phase.windows.len() as f64,
        fewest.unwrap_or(0),
        stats::beyond(fewest.unwrap_or(0), 9_900),
    );
    if let Some(bp) = stats::highest_supported(n) {
        println!(
            "phase: over all {n} round trips, p50 {:.1} us, p99 {:.1} us, highest supported percentile {} = {:.1} us",
            us(stats::percentile(&phase.latencies, 5_000)),
            us(stats::percentile(&phase.latencies, 9_900)),
            stats::label(bp),
            us(stats::percentile(&phase.latencies, bp)),
        );
    }
    let rounded = |values: &[f64]| -> String {
        let parts: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
        parts.join(" ")
    };
    println!("phase: per-window req/s [{}]", rounded(&rates));
    println!("phase: per-window p50 us [{}]", rounded(&p50s));
    println!("phase: per-window p99 us [{}]", rounded(&p99s));
    println!(
        "phase: per-window server CPU us/request [{}]",
        rounded(&cpus)
    );
    println!(
        "phase: server CPU {:.0} us over the phase; set-up over {} start-ups: {:?} s; cache hits {} of {} lookups",
        phase.cpu_us,
        setups.len(),
        setups,
        phase.cache_hits,
        phase.cache_lookups,
    );
    Ok(())
}

fn traced_metrics(
    report: &mut Report,
    untraced: &Phase,
    traced: &Phase,
    totals: &layers::Totals,
) -> Result<(), String> {
    if totals.requests == 0 {
        return Err("the traced pass answered no request".to_string());
    }
    let timed: Vec<f64> = totals
        .timed_ns
        .iter()
        .map(|&sum| totals.per_request(sum))
        .collect();
    let round_trip = totals.per_request(totals.round_trip_ns);
    let split = layers::attribute(round_trip, &timed);
    let share_sum: f64 = split.iter().map(|(_, share)| share).sum();
    if (share_sum - 1.0).abs() > 1e-9 {
        return Err(format!("top-level shares sum to {share_sum}, not 1"));
    }
    let top_level = std::iter::once("server").chain(layers::TIMED);
    let mut shares = Vec::new();
    for (layer, (ns, share)) in top_level.zip(&split) {
        shares.push((layer, *share));
        report.push(&format!("{layer}.ns_per_req"), *ns, "ns");
        report.push(&format!("{layer}.share"), *share, "fraction");
        match layer {
            "json.parse" => report.push(
                "json.parse.bytes_per_req",
                totals.per_request(totals.parse_bytes),
                "B",
            ),
            "json.encode" => report.push(
                "json.encode.bytes_per_req",
                totals.per_request(totals.encode_bytes),
                "B",
            ),
            "engine.resolve" => {
                let ratio = if traced.cache_lookups == 0 {
                    0.0
                } else {
                    traced.cache_hits as f64 / traced.cache_lookups as f64
                };
                report.push("engine.cache_hit_ratio", ratio, "fraction");
                report.push("engine.cache_lookups", traced.cache_lookups as f64, "count");
            }
            "engine.run" => {
                report.push(
                    "eval.kernel.ns_per_req",
                    totals.per_request(totals.kernel_ns),
                    "ns",
                );
                report.push(
                    "eval.points_per_req",
                    totals.per_request(totals.kernel_points),
                    "count",
                );
                report.push(
                    "scenario.region.ns_per_req",
                    totals.per_request(totals.region_ns),
                    "ns",
                );
                report.push(
                    "scenario.replay.ns_per_req",
                    totals.per_request(totals.replay_ns),
                    "ns",
                );
            }
            _ => {}
        }
    }
    let traced_p50 = us(stats::percentile(&traced.latencies, 5_000));
    let untraced_p50 = us(stats::percentile(&untraced.latencies, 5_000));
    report.push("traced.latency_p50_us", traced_p50, "us");
    report.push("untraced.latency_p50_us", untraced_p50, "us");

    // Report in the fixed metric order.
    report.metrics.sort_by_key(|m| {
        LAYER_METRICS
            .iter()
            .position(|(name, _)| *name == m.name)
            .unwrap_or(usize::MAX)
    });
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let ranked: Vec<String> = shares
        .iter()
        .map(|(layer, share)| format!("{layer} {:.1}%", share * 100.0))
        .collect();
    println!(
        "trace: {} requests replayed, mean round trip {:.0} ns, shares sum to {share_sum:.12}; dominant layers: {}",
        totals.requests,
        round_trip,
        ranked.join(", ")
    );
    println!(
        "trace: traced latency_p50_us {traced_p50:.2} beside untraced {untraced_p50:.2} (tracing cost {:+.2} us); cache hits {} of {} lookups",
        traced_p50 - untraced_p50,
        traced.cache_hits,
        traced.cache_lookups
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let args = parse_args(&argv("--server s --workload bulk_results --trace 1")).unwrap();
        assert_eq!(args.workload, "bulk_results");
        assert_eq!((args.seed, args.seconds, args.trace), (1, 30.0, true));
        assert!(parse_args(&argv("--server s")).is_err());
        assert!(parse_args(&argv("--server s --workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--server s --workload x --seconds 0")).is_err());
        assert!(parse_args(&argv("--server s --workload x --seed")).is_err());
    }

    #[test]
    fn result_line_has_the_fixed_keys() {
        let mut report = Report {
            attempted: 3,
            correct: true,
            ..Report::default()
        };
        report.push("latency_p50_us", 12.5, "us");
        report.push("setup_s", 0.25, "s");
        assert_eq!(
            report.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let parsed = gf_json::parse(&report.json_line()).expect("valid JSON");
        assert!(parsed.get("metrics").is_some());
    }

    #[test]
    fn short_windows_merge_until_p99_is_supported() {
        let window = |n: u64| Window {
            seconds: 2.0,
            completed: n,
            cpu_us: 10.0,
            latencies: (0..n).collect(),
        };
        let kept = coarsen(vec![window(1000), window(1200), window(1500)]);
        assert_eq!(kept.len(), 3);
        let merged = coarsen(vec![window(600), window(600), window(300)]);
        assert_eq!(merged.len(), 1);
        assert_eq!((merged[0].completed, merged[0].seconds), (1500, 6.0));
        assert!(merged[0].latencies.windows(2).all(|w| w[0] <= w[1]));
        let halved = coarsen(vec![window(500), window(500), window(700), window(400)]);
        assert_eq!(
            halved.iter().map(|w| w.completed).collect::<Vec<_>>(),
            vec![1000, 1100]
        );
    }

    #[test]
    fn every_layer_metric_is_listed_once() {
        for (i, (name, _)) in LAYER_METRICS.iter().enumerate() {
            assert!(
                LAYER_METRICS[i + 1..]
                    .iter()
                    .all(|(other, _)| other != name),
                "{name} listed twice"
            );
        }
    }
}
