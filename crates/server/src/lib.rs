//! # greenfpga-serve
//!
//! A zero-dependency HTTP/JSON estimation service over the compiled
//! GreenFPGA engine, built on a single-threaded readiness event loop:
//! a non-blocking listener and sockets driven by raw `epoll` on Linux
//! (with a portable speculative-sweep fallback), per-connection state
//! machines that resume partial reads and writes wherever the network
//! fragmented them, and a persistent [`greenfpga::exec::WorkerPool`]
//! that does only *engine* work — heavy queries are offloaded with a
//! completion callback and their responses return to the loop through a
//! wakeup pipe. Connection count is bounded by file descriptors, not
//! threads: 10k+ live keep-alive connections are one loop, not 10k stacks.
//!
//! ## Routes
//!
//! Every route is a thin adapter over one [`greenfpga::Engine`] — the
//! same facade the CLI and library users call, so a served response is
//! bit-identical to a local call by construction:
//!
//! | Route | |
//! |---|---|
//! | `GET /healthz` | liveness, version, uptime |
//! | `GET /v1/metrics` | per-route counters, latency histograms, scenario-cache counters |
//! | `GET /metrics` | the same snapshot as Prometheus text exposition |
//! | `GET /v1/trace` | recent spans from the per-thread trace rings |
//! | `POST /v1/<kind>` | [`greenfpga::Engine::run`] for every [`greenfpga::api::QueryKind`]: `evaluate`, `batch`, `compare`, `crossover`, `frontier`, `sweep`, `grid`, `tornado`, `montecarlo`, `industry`, `scenario`, `replay`, `optimize` |
//! | `GET /v1/catalog` | the named scenario catalog (the one body-less query kind) |
//!
//! Request/response schemas are the typed structs of [`greenfpga::api`]; a
//! scenario (`domain` + Table 1 `knobs` overrides) addresses the engine's
//! keyed LRU cache of [`greenfpga::CompiledScenario`]s, so the
//! common case — same scenario, different operating points — never
//! recompiles anything. Failures speak the stable
//! [`greenfpga::ApiError`] taxonomy (`error.code` / `error.message` /
//! `error.retryable`), mapped to HTTP status canonically.
//!
//! ## Dispatch placement
//!
//! Cheap queries (point evaluations, the `GET` endpoints) run **inline on
//! the event loop**: at microsecond service times, a thread handoff costs
//! more than the work. Fan-out queries (`batch`, `sweep`, `grid`,
//! `frontier`, `tornado`, `montecarlo`, `replay`, `optimize`) go to the
//! worker pool so a millisecond-scale computation never stalls the other
//! connections; the worker completes the response into a queue and pokes
//! the loop's wakeup pipe.
//!
//! ## Embedding
//!
//! ```no_run
//! let config = gf_server::ServerConfig {
//!     addr: "127.0.0.1:0".to_string(), // ephemeral port
//!     ..gf_server::ServerConfig::default()
//! };
//! let handle = gf_server::Server::bind(config)?.spawn();
//! println!("serving on http://{}", handle.addr());
//! handle.shutdown(); // joins the event loop and every worker
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
mod http;
mod metrics;
mod poll;
mod prometheus;
mod routes;
#[allow(unsafe_code)]
mod sys;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use greenfpga::{Engine, EngineConfig};

use conn::{Conn, ConnSlab, ConnState, StreamState};
use metrics::Metrics;
use poll::{Driver, Interest};

pub use poll::DriverKind;

/// Token of the listening socket in readiness reports.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token of the worker wakeup pipe in readiness reports.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Request line + headers cap, per request.
const MAX_HEAD_BYTES: usize = 16 << 10;
/// How long a closing connection may take to drain its final response
/// before the socket is dropped regardless.
const DRAIN_DEADLINE: Duration = Duration::from_millis(50);
/// How long an error/rejection response may take to reach the peer.
const REJECT_WRITE_DEADLINE: Duration = Duration::from_secs(1);
/// Load shedding: reject new connections once this many jobs per worker
/// are queued unclaimed behind the pool.
const SHED_QUEUE_FACTOR: usize = 8;
/// Upper bound on the portable driver's idle back-off between sweeps.
const PORTABLE_IDLE_CAP: Duration = Duration::from_millis(20);
/// Pending-response backpressure: once this many unflushed bytes are
/// queued on a connection, the parse loop stops answering pipelined
/// followers until the peer drains some — bounding memory a reader that
/// pipelines requests but never reads responses can pin.
const OUT_BACKPRESSURE: usize = 256 << 10;
/// How often the connection-state census gauges refresh. Sampling is
/// O(live connections), so it runs on this budget, not every iteration.
const CENSUS_INTERVAL: Duration = Duration::from_millis(100);

/// Server tuning. Every field has a serving-sane default; the CLI exposes
/// the interesting ones as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` for an ephemeral port).
    pub addr: String,
    /// Engine worker threads for offloaded queries
    /// (`0` = [`greenfpga::exec::default_threads`]).
    pub workers: usize,
    /// Worker threads per batch evaluation. Defaults to 1: request-level
    /// concurrency comes from the engine workers, so fanning each batch
    /// out across cores as well would oversubscribe under load.
    pub eval_threads: usize,
    /// Maximum request body size in bytes.
    pub max_body_bytes: usize,
    /// Maximum cached compiled scenarios.
    pub cache_capacity: usize,
    /// Hard cap on live connections. The governor answers `503` with
    /// `Retry-After` beyond it instead of queueing unboundedly. A
    /// connection costs one file descriptor and its buffers — not a
    /// thread — so this can be sized in the tens of thousands.
    pub max_connections: usize,
    /// Idle keep-alive timeout: a connection with no request for this long
    /// is closed (silently — it is owed nothing).
    pub idle_timeout: Duration,
    /// Slowloris defense: once the first byte of a request arrives, the
    /// whole head+body must follow within this window or the connection is
    /// answered `408` and closed. Armed once per request, so trickling
    /// bytes cannot reset it.
    pub header_timeout: Duration,
    /// Readiness driver. `Auto` resolves via the `GF_SERVE_DRIVER`
    /// environment variable, then the platform default (`epoll` on Linux).
    pub driver: DriverKind,
    /// When set, a background thread streams every recorded span to this
    /// file as NDJSON (one JSON object per line). Bounded buffering: a
    /// slow disk loses spans to ring overwrite, it never blocks serving.
    pub trace_log: Option<std::path::PathBuf>,
    /// Log a span breakdown to stderr for any request slower than this
    /// many microseconds. `0` disables the slow-request log.
    pub slow_request_us: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 0,
            eval_threads: 1,
            max_body_bytes: 4 << 20,
            cache_capacity: 64,
            max_connections: 4096,
            idle_timeout: Duration::from_secs(5),
            header_timeout: Duration::from_secs(10),
            driver: DriverKind::Auto,
            trace_log: None,
            slow_request_us: 0,
        }
    }
}

/// The option reference of both server binaries (`greenfpga-serve` and
/// `greenfpga serve`), one line per flag [`ServerConfig::from_args`] reads.
#[macro_export]
macro_rules! options_help {
    () => {
        "  \
  --addr <HOST:PORT>      bind address                 (default: 127.0.0.1:7878)
  --workers <N>           connection worker threads    (default: auto)
  --eval-threads <N>      threads per batch evaluation (default: 1)
  --cache-capacity <N>    cached compiled scenarios    (default: 64)
  --max-connections <N>   live connection hard cap     (default: 4096)
  --max-body-bytes <N>    request body limit           (default: 4194304)
  --idle-timeout <SECS>   keep-alive idle close        (default: 5)
  --header-timeout <SECS> slowloris 408 deadline       (default: 10)
  --driver <NAME>         epoll | portable | auto      (default: auto)
  --trace-log <PATH>      stream spans to PATH as NDJSON (default: off)
  --slow-request-us <N>   log requests slower than N us  (default: off)
"
    };
}

impl ServerConfig {
    /// Parses the server's `--key value` flags (see [`options_help!`]) on
    /// top of the defaults. `Ok(None)` means the arguments ask for help.
    ///
    /// # Errors
    ///
    /// A message naming the unknown option, the missing value or the
    /// invalid one.
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<Option<ServerConfig>, String> {
        let mut config = ServerConfig::default();
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(key) = args.next() {
            if matches!(key, "--help" | "-h" | "help") {
                return Ok(None);
            }
            let value = args
                .next()
                .ok_or_else(|| format!("missing value for {key}"))?;
            let number = || -> Result<usize, String> {
                value
                    .parse()
                    .map_err(|_| format!("invalid value '{value}' for {key}"))
            };
            // Zero is a configuration bug for these, not a value to clamp —
            // rejected so the mistake is visible, matching the library-level
            // `ScenarioCache` contract. (A zero
            // `--slow-request-us` reads like "log everything"; "off" is
            // reached by omitting the flag.)
            let positive = || match number()? {
                0 => Err(format!("{key} must be at least 1")),
                n => Ok(n),
            };
            let seconds = || positive().map(|n| Duration::from_secs(n as u64));
            match key {
                "--addr" => config.addr = value.to_string(),
                "--workers" => config.workers = number()?,
                "--eval-threads" => config.eval_threads = number()?.max(1),
                "--cache-capacity" => config.cache_capacity = positive()?,
                "--max-connections" => config.max_connections = positive()?,
                "--max-body-bytes" => config.max_body_bytes = number()?.max(1024),
                "--idle-timeout" => config.idle_timeout = seconds()?,
                "--header-timeout" => config.header_timeout = seconds()?,
                "--trace-log" => config.trace_log = Some(value.into()),
                "--slow-request-us" => config.slow_request_us = positive()? as u64,
                "--driver" => {
                    config.driver = match value {
                        "epoll" => DriverKind::Epoll,
                        "portable" => DriverKind::Portable,
                        "auto" => DriverKind::Auto,
                        other => {
                            return Err(format!(
                                "--driver must be epoll|portable|auto, got '{other}'"
                            ))
                        }
                    }
                }
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        Ok(Some(config))
    }

    /// The worker count after resolving `0` to the machine default.
    pub fn workers_resolved(&self) -> usize {
        if self.workers == 0 {
            greenfpga::exec::default_threads()
        } else {
            self.workers
        }
    }
}

/// Bounded depth of a streamed response's worker→loop fragment channel:
/// the worker computes at most this many row-blocks ahead of what the
/// peer has accepted, then blocks — backpressure lands on the worker, not
/// on server memory.
const STREAM_CHANNEL_DEPTH: usize = 2;

/// What the loop needs to answer a request, wherever it ran.
#[derive(Clone, Copy)]
struct Meta {
    token: u64,
    /// Metrics-registry index ([`routes::find`]; out of range = `other`).
    route: usize,
    started: Instant,
    bytes_in: u64,
    keep_alive: bool,
    /// Trace id assigned when the request's first byte arrived; echoed in
    /// the response's `x-request-id` header.
    request_id: u64,
}

/// What a worker sends back to the event loop through the completion
/// queue.
enum Completion {
    /// An offloaded request's reply, ready for [`EventLoop::answer`].
    Reply(Meta, routes::Reply),
    /// The worker queued more stream events for `token`'s channel.
    StreamWake { token: u64 },
}

/// One event of a streamed response body.
pub(crate) enum StreamEvent {
    /// A body fragment to chunk-encode onto the wire.
    Chunk(String),
    /// The final fragment; the loop terminates the chunked body after it.
    End {
        /// Response JSON after the streamed rows.
        tail: String,
    },
    /// Unrecoverable mid-stream failure. The status line is already on the
    /// wire, so the loop truncates the chunked body (no terminator) and
    /// closes — the peer's decoder sees the truncation.
    Abort,
}

/// Pokes the event loop out of its wait. One byte per poke, coalesced by
/// the pipe buffer; write errors (full pipe, torn-down loop) are ignored —
/// the loop drains its completion queue on every iteration regardless.
struct Waker {
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
}

impl Waker {
    fn wake(&self) {
        #[cfg(unix)]
        {
            let _ = (&self.tx).write(&[1]);
        }
    }
}

/// The receiving half of the wakeup channel, owned by the event loop.
struct WakePipe {
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

fn wake_channel() -> std::io::Result<(Waker, WakePipe)> {
    #[cfg(unix)]
    {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, WakePipe { rx }))
    }
    #[cfg(not(unix))]
    {
        // No pipe: the loop caps its wait instead (see `next_timeout`).
        Ok((Waker {}, WakePipe {}))
    }
}

/// Shared server state: configuration, the unified engine (scenario cache
/// plus worker pool), the metrics registry, the governor's gauges and the
/// worker→loop completion channel.
pub(crate) struct ServerState {
    pub config: ServerConfig,
    pub engine: Engine,
    pub started: Instant,
    pub stop: AtomicBool,
    pub metrics: Metrics,
    /// Connections admitted and not yet closed — the governor's gauge.
    pub live_connections: AtomicUsize,
    /// Event-loop health counters, written by the loop thread and read by
    /// the Prometheus exposition.
    pub loop_stats: metrics::LoopStats,
    /// Responses finished by workers, awaiting the loop.
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl ServerState {
    /// Queues a finished response and pokes the loop (only when the queue
    /// was empty — one poke wakes the loop for the whole backlog).
    fn complete(&self, completion: Completion) {
        let was_empty = {
            let mut queue = self.completions.lock().expect("completion queue poisoned");
            let was_empty = queue.is_empty();
            queue.push(completion);
            was_empty
        };
        if was_empty {
            self.waker.wake();
        }
    }
}

/// A bound (but not yet serving) server.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    event_loop: EventLoop,
}

impl Server {
    /// Binds the listener, resolves the readiness driver and pre-resolves
    /// the scenario templates.
    ///
    /// # Errors
    ///
    /// I/O errors from binding or driver setup; an invalid
    /// `GF_SERVE_DRIVER`/driver choice surfaces as
    /// [`std::io::ErrorKind::InvalidInput`]; calibration failures surface
    /// as [`std::io::ErrorKind::InvalidData`] (the built-in calibrations
    /// never fail).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let driver_kind = config.driver.resolve()?;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let engine = Engine::new(EngineConfig {
            cache_capacity: config.cache_capacity,
            eval_threads: config.eval_threads.max(1),
            workers: config.workers,
        })
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let (waker, wake_pipe) = wake_channel()?;
        let state = Arc::new(ServerState {
            config,
            engine,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            metrics: Metrics::new(),
            live_connections: AtomicUsize::new(0),
            loop_stats: metrics::LoopStats::new(),
            completions: Mutex::new(Vec::new()),
            waker,
        });
        let event_loop = EventLoop::new(listener, wake_pipe, Arc::clone(&state), driver_kind)?;
        Ok(Server {
            addr,
            state,
            event_loop,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until the process exits (the CLI entry point).
    pub fn run(self) {
        self.event_loop.run();
    }

    /// Serves on a background event-loop thread and returns a handle that
    /// can shut the server down cleanly.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let state = Arc::clone(&self.state);
        let event_loop = self.event_loop;
        let thread = std::thread::spawn(move || event_loop.run());
        ServerHandle {
            addr,
            state,
            thread: Some(thread),
        }
    }
}

/// Handle to a spawned server: address + clean shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far (responses produced, any status): the sum
    /// of the per-route request counters.
    pub fn requests_served(&self) -> u64 {
        self.state.metrics.requests()
    }

    /// Stops the event loop, closes every connection, drains the workers
    /// and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.waker.wake();
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    /// Dropping without [`ServerHandle::shutdown`] still stops the server —
    /// tests that bail on an assert must not leave an event loop running.
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(unix)]
fn raw_fd(stream: &TcpStream) -> std::os::unix::io::RawFd {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd(_stream: &TcpStream) -> i32 {
    // The portable driver (the only choice off unix) ignores fds.
    0
}

/// Moves a connection's deadline, pushing a heap entry only when one is
/// needed: no entry is standing, or the deadline moved *earlier* than the
/// standing entry fires. Later-moving deadlines ride the standing entry,
/// which re-pushes itself when it pops early — so a keep-alive connection
/// costs one heap entry per idle window, not one per request, and the heap
/// stays bounded by the connection count whatever the request rate.
fn arm_deadline(
    timers: &mut BinaryHeap<Reverse<(Instant, u64)>>,
    conn: &mut Conn,
    token: u64,
    deadline: Instant,
) {
    conn.deadline = Some(deadline);
    if conn.timer_at.is_none_or(|at| deadline < at) {
        timers.push(Reverse((deadline, token)));
        conn.timer_at = Some(deadline);
    }
}

/// Writes one slow-request line to stderr: route label (the metrics
/// registry's), status, total latency and the per-span breakdown pulled
/// from the trace rings by request id. Only runs past the
/// `--slow-request-us` floor, so the formatting and the ring scan never
/// touch the fast path.
fn log_slow_request(request_id: u64, label: &str, status: u16, elapsed_us: f64) {
    use std::fmt::Write as _;
    let mut breakdown = String::new();
    for span in gf_trace::spans_for_request(request_id) {
        let _ = write!(
            breakdown,
            " {}={}us",
            span.name.as_str(),
            span.duration_ns / 1_000
        );
    }
    eprintln!(
        "[gf slow] request {request_id:016x} {label} -> {status} took {elapsed_us:.0}us:{breakdown}"
    );
}

/// The readiness event loop: owns the listener, every connection, the
/// timer heap and the driver. Single-threaded — all connection state is
/// plain data, and the only synchronization is the completion queue the
/// workers fill.
struct EventLoop {
    listener: TcpListener,
    driver: Driver,
    state: Arc<ServerState>,
    conns: ConnSlab,
    /// Lazy-deletion deadline heap (see [`arm_deadline`]).
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    events: Vec<poll::Event>,
    scratch: Vec<u8>,
    wake_pipe: WakePipe,
    /// Whether the last iteration accomplished anything — paces the
    /// portable driver's speculative sweeps.
    progress: bool,
    idle_streak: u32,
    workers: usize,
    /// The NDJSON trace-log writer, when `--trace-log` is set. Held so the
    /// loop's teardown stops and joins it (via drop) after the last span.
    trace_log: Option<gf_trace::TraceLog>,
    /// When the connection-state census was last sampled — it is O(live
    /// connections), so it runs on a time budget, not per iteration.
    census_taken: Instant,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        wake_pipe: WakePipe,
        state: Arc<ServerState>,
        driver_kind: DriverKind,
    ) -> std::io::Result<EventLoop> {
        let mut driver = Driver::new(driver_kind)?;
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            driver.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
            driver.register(wake_pipe.rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
        }
        #[cfg(not(unix))]
        {
            driver.register(0, LISTENER_TOKEN, Interest::READ)?;
        }
        let workers = state.config.workers_resolved().max(1);
        let trace_log = match &state.config.trace_log {
            Some(path) => Some(gf_trace::start_ndjson_log(path)?),
            None => None,
        };
        Ok(EventLoop {
            listener,
            driver,
            state,
            conns: ConnSlab::default(),
            timers: BinaryHeap::new(),
            events: Vec::with_capacity(1024),
            scratch: vec![0u8; 64 << 10],
            wake_pipe,
            progress: true,
            idle_streak: 0,
            workers,
            trace_log,
            census_taken: Instant::now(),
        })
    }

    fn run(mut self) {
        while !self.state.stop.load(Ordering::SeqCst) {
            let timeout = self.next_timeout();
            if self.driver.is_speculative() {
                self.pace_speculative_sweep(timeout);
            }
            let wait_from = Instant::now();
            if let Err(e) = self.driver.wait(&mut self.events, timeout) {
                eprintln!("greenfpga-serve: driver wait failed: {e}");
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            let iter_from = Instant::now();
            let wait_ns = iter_from.duration_since(wait_from).as_nanos() as u64;
            self.progress = false;
            let events = std::mem::take(&mut self.events);
            for &event in &events {
                self.handle_event(event);
            }
            self.events = events;
            self.drain_completions();
            self.expire_timers();
            self.sample_census();
            self.state.loop_stats.record_iteration(
                iter_from.elapsed().as_nanos() as u64,
                wait_ns,
                self.timers.len(),
            );
        }
        // Teardown: sever every connection, then drain and join the
        // engine's workers (their late completions go nowhere, harmlessly).
        for token in self.conns.tokens() {
            self.close(token);
        }
        self.state.engine.join_workers();
        if let Some(log) = self.trace_log.take() {
            // After the workers joined: the writer drains the final spans
            // before the file closes.
            log.stop();
        }
    }

    /// How long the wait may block: until the nearest deadline, forever
    /// when none is armed (the wakeup pipe interrupts for completions and
    /// shutdown). Without a wakeup pipe the wait is capped instead.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let timeout = self
            .timers
            .peek()
            .map(|&Reverse((deadline, _))| deadline.saturating_duration_since(now));
        #[cfg(unix)]
        {
            timeout
        }
        #[cfg(not(unix))]
        {
            let cap = Duration::from_millis(10);
            Some(timeout.map_or(cap, |t| t.min(cap)))
        }
    }

    /// The portable driver never blocks in `wait`, so the loop sleeps here
    /// between sweeps once a full pass made no progress — parking on the
    /// wakeup pipe so completions and shutdown still interrupt, with a
    /// deadline-capped exponential back-off so an idle server costs little
    /// and an active one sweeps flat-out.
    fn pace_speculative_sweep(&mut self, timeout: Option<Duration>) {
        if self.progress {
            self.idle_streak = 0;
            return;
        }
        self.idle_streak = self.idle_streak.saturating_add(1);
        let backoff =
            Duration::from_micros(500u64 << self.idle_streak.min(5)).min(PORTABLE_IDLE_CAP);
        let nap = timeout.map_or(backoff, |t| t.min(backoff));
        let nap = nap.max(Duration::from_micros(100));
        #[cfg(unix)]
        {
            let pipe = &self.wake_pipe.rx;
            if pipe.set_read_timeout(Some(nap)).is_ok() && pipe.set_nonblocking(false).is_ok() {
                let mut reader = pipe;
                let mut bytes = [0u8; 8];
                if let Ok(n) = reader.read(&mut bytes) {
                    // Pokes consumed while parked still count as received.
                    self.state
                        .loop_stats
                        .wakeups_received
                        .fetch_add(n as u64, Ordering::Relaxed);
                }
                let _ = pipe.set_nonblocking(true);
            } else {
                std::thread::sleep(nap);
            }
        }
        #[cfg(not(unix))]
        std::thread::sleep(nap);
    }

    fn handle_event(&mut self, event: poll::Event) {
        match event.token {
            LISTENER_TOKEN => self.accept_ready(),
            WAKE_TOKEN => self.drain_wake(),
            token => self.conn_ready(token, event.readable, event.writable),
        }
    }

    fn drain_wake(&mut self) {
        self.state
            .loop_stats
            .wakeup_events
            .fetch_add(1, Ordering::Relaxed);
        #[cfg(unix)]
        {
            // A read that leaves the sink short emptied the pipe, so it is
            // the last: a wakeup costs one read, not a second that only
            // sees `WouldBlock`. A poke written after it makes the pipe
            // readable again.
            let mut reader = &self.wake_pipe.rx;
            let mut sink = [0u8; 64];
            let mut drained = 0u64;
            while let Ok(n) = reader.read(&mut sink) {
                drained += n as u64;
                if n < sink.len() {
                    break;
                }
            }
            if drained > 0 {
                // Each byte is one worker poke; `drained` pokes rode this
                // single readiness event.
                self.state
                    .loop_stats
                    .wakeups_received
                    .fetch_add(drained, Ordering::Relaxed);
            }
        }
    }

    /// Refreshes the connection-state census gauges when the budget allows.
    fn sample_census(&mut self) {
        if self.census_taken.elapsed() < CENSUS_INTERVAL {
            return;
        }
        self.census_taken = Instant::now();
        let counts = self.conns.census();
        for (gauge, count) in self.state.loop_stats.conn_states.iter().zip(counts) {
            gauge.store(count, Ordering::Relaxed);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.progress = true;
                    self.admit(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient (EMFILE, aborted handshake); retried on next event
            }
        }
    }

    /// Admission control, before a connection costs anything but an fd:
    /// past the live cap, or once a deep job backlog is queued unclaimed
    /// behind the workers, the connection gets a `503` + `Retry-After`
    /// queued through the ordinary writable-readiness machinery — the
    /// loop never blocks to deliver a rejection.
    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let live = self.state.live_connections.load(Ordering::SeqCst);
        let shedding = self.state.engine.queue_depth() >= self.workers * SHED_QUEUE_FACTOR;
        let now = Instant::now();
        let rejected = live >= self.state.config.max_connections || shedding;
        let deadline = if rejected {
            now + REJECT_WRITE_DEADLINE
        } else {
            now + self.state.config.idle_timeout
        };
        let mut conn = Conn::new(stream, deadline);
        gf_trace::event(gf_trace::SpanName::Admission, u64::from(rejected));
        if rejected {
            self.state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            conn.counted_live = false;
            conn.state = ConnState::Write;
            conn.close_after_write = true;
            conn.request_id = gf_trace::next_id();
            gf_trace::set_current_request(conn.request_id);
            let body = routes::overload_error_body();
            gf_trace::set_current_request(0);
            http::encode_response(
                &mut conn.outbuf,
                503,
                &body,
                false,
                Some(1),
                conn.request_id,
            );
            conn.interest = conn.desired_interest();
        } else {
            self.state.live_connections.fetch_add(1, Ordering::SeqCst);
        }
        let fd = raw_fd(&conn.stream);
        let interest = conn.interest;
        let token = self.conns.insert(conn);
        if self.driver.register(fd, token, interest).is_err() {
            self.close(token);
            return;
        }
        if let Some(conn) = self.conns.get_mut(token) {
            arm_deadline(&mut self.timers, conn, token, deadline);
        }
        if rejected {
            self.flush_out(token);
            self.update_interest(token);
        }
    }

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(conn) = self.conns.get_mut(token) else {
            return; // stale event for a closed connection
        };
        // Act only on registered interest: the portable driver reports
        // speculatively, and epoll events can outlive an interest change
        // made earlier in this batch.
        let interest = conn.interest;
        if writable && interest.writable {
            self.flush_out(token);
            let resumed = self
                .conns
                .get_mut(token)
                .is_some_and(|conn| conn.state == ConnState::Read && conn.outbuf.is_empty());
            if resumed {
                // A drained response unblocks any pipelined follower.
                self.process_buffered(token);
            }
        }
        let readable_now = self
            .conns
            .get_mut(token)
            .is_some_and(|conn| conn.interest.readable);
        if writable {
            // A drained socket frees outbuf room: pull more of an in-flight
            // streamed body from the worker's channel.
            let streaming = self
                .conns
                .get_mut(token)
                .is_some_and(|conn| conn.state == ConnState::Stream);
            if streaming {
                self.pump_stream(token);
            }
        }
        if readable && readable_now {
            let state = self
                .conns
                .get_mut(token)
                .map(|conn| conn.state)
                .expect("checked above");
            match state {
                ConnState::Read => self.read_ready(token),
                ConnState::Drain => self.drain_ready(token),
                ConnState::Dispatched | ConnState::Stream | ConnState::Write => {}
            }
        }
        self.update_interest(token);
    }

    fn read_ready(&mut self, token: u64) {
        enum After {
            Parse,
            PeerClosed,
            Close,
        }
        let after = {
            let scratch = &mut self.scratch;
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            match conn.stream.read(scratch) {
                Ok(0) => After::PeerClosed,
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&scratch[..n]);
                    if conn.request_id == 0 {
                        // The request owns its trace id from its first byte
                        // — spans recorded anywhere downstream correlate.
                        conn.request_id = gf_trace::next_id();
                    }
                    self.progress = true;
                    After::Parse
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    After::Parse
                }
                Err(_) => After::Close,
            }
        };
        match after {
            After::Parse => self.process_buffered(token),
            After::PeerClosed => self.peer_closed(token),
            After::Close => self.close(token),
        }
    }

    /// EOF from the peer: a clean close between requests, a `400` when it
    /// abandoned a request midway (the send half may still deliver it).
    fn peer_closed(&mut self, token: u64) {
        let mid_request = self
            .conns
            .get_mut(token)
            .is_some_and(|conn| conn.state == ConnState::Read && conn.mid_request());
        if mid_request {
            self.protocol_error(token, 400, "connection closed mid-request");
        } else {
            self.close(token);
        }
    }

    /// Parses and dispatches every complete request already buffered, then
    /// flushes the accumulated responses in **one** write — pipelined
    /// inline requests cost one syscall per segment, not one per response.
    /// Stops when bytes run out, a request is offloaded (responses must
    /// stay in request order), or the backpressure bound trips.
    fn process_buffered(&mut self, token: u64) {
        let limits = http::ReadLimits {
            max_head_bytes: MAX_HEAD_BYTES,
            max_body_bytes: self.state.config.max_body_bytes,
        };
        let header_timeout = self.state.config.header_timeout;
        // One tick read opens the readable pass; after that, request
        // lifecycles hand their last boundary stamp to the next span
        // (parse end opens decode, serialize end opens write, write
        // queue opens the pipelined follower's parse), so a request
        // costs one clock read per span, not two.
        let mut cursor_ticks = gf_trace::open();
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.state != ConnState::Read || conn.outbuf.len() - conn.outpos >= OUT_BACKPRESSURE
            {
                break;
            }
            if conn.request_id == 0 && !conn.inbuf.is_empty() {
                // A pipelined follower's first byte arrived in an earlier
                // read; its id starts when the parser turns to it.
                conn.request_id = gf_trace::next_id();
            }
            let step = conn.assembler.step(&mut conn.inbuf, limits);
            if conn.assembler.take_interim_due() {
                // `Expect: 100-continue`: the interim joins the flush — the
                // peer may be waiting for it before sending the body.
                conn.outbuf.extend_from_slice(http::CONTINUE_RESPONSE);
            }
            match step {
                http::Step::NeedMore => {
                    if conn.mid_request() && !conn.header_deadline_armed {
                        // Slowloris defense: one fixed deadline per
                        // request, armed at its first byte.
                        conn.header_deadline_armed = true;
                        arm_deadline(
                            &mut self.timers,
                            conn,
                            token,
                            Instant::now() + header_timeout,
                        );
                    }
                    break;
                }
                http::Step::Bad { status, message } => {
                    self.protocol_error(token, status, &message);
                    break;
                }
                http::Step::Request(request) => {
                    if conn.request_id == 0 {
                        conn.request_id = gf_trace::next_id();
                    }
                    // The request's id covers everything the loop does for
                    // it from here: its parse span, an inline run, or the
                    // pool job it queues (which carries the id along).
                    gf_trace::set_current_request(conn.request_id);
                    // The span opens when the parser turned to this
                    // request (for a pipelined follower: when the previous
                    // response was queued) and closes with the step that
                    // consumed the head and body.
                    let body_bytes = request.body.len() as u64;
                    let parse_end =
                        gf_trace::close(gf_trace::SpanName::Parse, cursor_ticks, body_bytes);
                    cursor_ticks = self.dispatch(token, request, parse_end);
                    gf_trace::set_current_request(0);
                    // Loop: an inline response leaves the connection in
                    // `Read` with its bytes queued and pipelined followers
                    // possibly buffered; an offloaded or streamed one
                    // leaves it waiting, which ends the loop.
                }
            }
        }
        self.flush_out(token);
        // A closing response the peer is slow to accept needs a write-stall
        // deadline; keep-alive responses already armed theirs when they
        // were encoded.
        let stall_deadline = Instant::now() + self.state.config.idle_timeout;
        if let Some(conn) = self.conns.get_mut(token) {
            if conn.state == ConnState::Write {
                arm_deadline(&mut self.timers, conn, token, stall_deadline);
            }
        }
        self.update_interest(token);
    }

    /// Routes one parsed request, under its request id (set by the
    /// caller). `exec_start_ticks` is the parse span's end stamp
    /// (0 = untraced) — it opens the decode span, and the response's
    /// serialize-end stamp is returned so the caller can open the next
    /// pipelined request's parse span without a fresh clock read (0 =
    /// nothing to hand back: untraced, offloaded or streamed).
    fn dispatch(&mut self, token: u64, request: http::Request, exec_start_ticks: u64) -> u64 {
        let found = routes::find(&request.method, &request.path);
        let (route, offload) = match &found {
            Ok((index, entry)) => (*index, entry.offloads()),
            Err(_) => (usize::MAX, false),
        };
        let found = found.map(|(_, entry)| entry);
        let Some(conn) = self.conns.get_mut(token) else {
            return 0;
        };
        conn.header_deadline_armed = false;
        let meta = Meta {
            token,
            route,
            started: Instant::now(),
            bytes_in: request.body.len() as u64,
            keep_alive: request.keep_alive,
            request_id: conn.request_id,
        };
        if !offload {
            let reply = routes::handle(&self.state, found, &request, exec_start_ticks);
            return self.answer(meta, reply);
        }
        conn.state = ConnState::Dispatched;
        conn.deadline = None; // the engine owes us, the peer owes nothing
        let state = Arc::clone(&self.state);
        let queued = self.state.engine.execute(move |claimed_ticks| {
            // The pool's claim stamp closes the queue wait and opens the
            // decode span.
            gf_trace::close_at(
                gf_trace::SpanName::QueueWait,
                exec_start_ticks,
                claimed_ticks,
                0,
            );
            let reply = routes::handle(&state, found, &request, claimed_ticks);
            state.complete(Completion::Reply(meta, reply));
        });
        if !queued {
            // Only possible racing shutdown: the loop is about to tear
            // everything down anyway.
            self.close(token);
        }
        0
    }

    /// Answers a routed request wherever it ran, under its request id (set
    /// by the caller): queues a buffered response, or opens a streamed one
    /// and hands its row-blocks to a pool worker. Returns the write span's
    /// opening stamp (0 for a stream or when untraced).
    fn answer(&mut self, meta: Meta, reply: routes::Reply) -> u64 {
        let (head, stream) = match reply {
            routes::Reply::Full(response) => return self.finish_request(meta, &response),
            routes::Reply::GridStream { head, stream } => (head, stream),
        };
        let (tx, rx) = std::sync::mpsc::sync_channel(STREAM_CHANNEL_DEPTH);
        self.start_stream(meta, head, rx);
        let state = Arc::clone(&self.state);
        // The worker blocks on the channel whenever the loop (and
        // ultimately the peer) falls behind, and stops early if the
        // connection dies (the rx drops) or the pool is closing (the tx
        // drops unsent).
        self.state.engine.execute(move |_| {
            routes::stream_grid_blocks(&state, meta.token, &tx, stream);
        });
        0
    }

    /// Records and encodes one finished request. The response bytes are
    /// *queued*, not flushed — the caller coalesces the flush (via
    /// [`Self::process_buffered`]) so pipelined responses share a write.
    /// A keep-alive connection goes straight back to `Read` with its idle
    /// deadline re-armed; a closing one waits in `Write` for the flush.
    fn finish_request(&mut self, meta: Meta, response: &routes::Response) -> u64 {
        let keep_alive = meta.keep_alive && !self.state.stop.load(Ordering::SeqCst);
        let (status, body) = (response.status, &response.body);
        // One `Instant` read serves the latency metric and the idle
        // deadline both.
        let now = Instant::now();
        let elapsed_us = now.duration_since(meta.started).as_secs_f64() * 1e6;
        self.state.metrics.record(
            meta.route,
            status,
            elapsed_us,
            meta.bytes_in,
            body.len() as u64,
        );
        let slow_floor = self.state.config.slow_request_us;
        if slow_floor > 0 && elapsed_us >= slow_floor as f64 {
            let label = self.state.metrics.label(meta.route);
            log_slow_request(meta.request_id, label, status, elapsed_us);
        }
        let idle_deadline = now + self.state.config.idle_timeout;
        // The write span opens at the dispatcher's last boundary stamp
        // (serialize end, handed down to avoid a fresh clock read) and
        // closes when the coalesced flush fully drains — so it covers
        // encoding, queueing and the socket write.
        let cursor_ticks = if response.end_ticks != 0 {
            response.end_ticks
        } else {
            gf_trace::open()
        };
        let Some(conn) = self.conns.get_mut(meta.token) else {
            return cursor_ticks; // closed while dispatched (shutdown) — counted, unsendable
        };
        conn.close_after_write = !keep_alive;
        if response.text {
            http::encode_text_response(&mut conn.outbuf, status, body, keep_alive, meta.request_id);
        } else {
            http::encode_response(
                &mut conn.outbuf,
                status,
                body,
                keep_alive,
                None,
                meta.request_id,
            );
        }
        if cursor_ticks != 0 && conn.write_started_ticks == 0 {
            conn.write_started_ticks = cursor_ticks;
            conn.write_request_id = meta.request_id;
        }
        conn.request_id = 0;
        if keep_alive {
            conn.state = ConnState::Read;
            arm_deadline(&mut self.timers, conn, meta.token, idle_deadline);
        } else {
            conn.state = ConnState::Write;
        }
        cursor_ticks
    }

    /// Answers a protocol-level rejection (bad request line, oversized
    /// head, header deadline, ...) and closes after the write. Counted
    /// against the fallback metrics bucket so rejections are not
    /// invisible (`requests_served` is the sum of the per-route counters).
    fn protocol_error(&mut self, token: u64, status: u16, message: &str) {
        let request_id = self.conns.get_mut(token).map_or(0, |conn| {
            if conn.request_id == 0 {
                conn.request_id = gf_trace::next_id();
            }
            conn.request_id
        });
        gf_trace::set_current_request(request_id);
        let body = routes::protocol_error_body(message);
        gf_trace::set_current_request(0);
        self.state.metrics.record(
            self.state.metrics.other_index(),
            status,
            0.0,
            0,
            body.len() as u64,
        );
        {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            conn.close_after_write = true;
            http::encode_response(&mut conn.outbuf, status, &body, false, None, request_id);
            conn.request_id = 0;
            conn.state = ConnState::Write;
        }
        self.flush_out(token);
        let stall_deadline = Instant::now() + REJECT_WRITE_DEADLINE;
        if let Some(conn) = self.conns.get_mut(token) {
            if conn.state == ConnState::Write {
                arm_deadline(&mut self.timers, conn, token, stall_deadline);
            }
        }
        self.update_interest(token);
    }

    /// Writes as much of `outbuf` as the socket accepts. On completion:
    /// back to `Read` for keep-alive, or send-shutdown + `Drain` when the
    /// connection is closing (so the peer's unread bytes cannot turn our
    /// final response into an RST).
    fn flush_out(&mut self, token: u64) {
        let idle_timeout = self.state.config.idle_timeout;
        let mut must_close = false;
        if let Some(conn) = self.conns.get_mut(token) {
            let mut wrote = false;
            while conn.outpos < conn.outbuf.len() {
                match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                    Ok(0) => {
                        must_close = true;
                        break;
                    }
                    Ok(n) => {
                        conn.outpos += n;
                        wrote = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        must_close = true;
                        break;
                    }
                }
            }
            if wrote {
                self.progress = true;
            }
            if !must_close && conn.outpos == conn.outbuf.len() && !conn.outbuf.is_empty() {
                if conn.write_started_ticks != 0 {
                    let flushed = conn.outbuf.len() as u64;
                    gf_trace::set_current_request(conn.write_request_id);
                    gf_trace::close(gf_trace::SpanName::Write, conn.write_started_ticks, flushed);
                    gf_trace::set_current_request(0);
                    conn.write_started_ticks = 0;
                    conn.write_request_id = 0;
                }
                conn.outbuf.clear();
                conn.outpos = 0;
                if conn.state == ConnState::Write {
                    if conn.close_after_write {
                        let _ = conn.stream.shutdown(Shutdown::Write);
                        conn.state = ConnState::Drain;
                        arm_deadline(
                            &mut self.timers,
                            conn,
                            token,
                            Instant::now() + DRAIN_DEADLINE,
                        );
                    } else {
                        conn.state = ConnState::Read;
                        arm_deadline(&mut self.timers, conn, token, Instant::now() + idle_timeout);
                    }
                }
            }
        }
        if must_close {
            self.close(token);
        }
    }

    /// Discards whatever the closing peer already sent, until EOF or the
    /// drain deadline.
    fn drain_ready(&mut self, token: u64) {
        let mut must_close = false;
        {
            let scratch = &mut self.scratch;
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            loop {
                match conn.stream.read(scratch) {
                    Ok(0) => {
                        must_close = true;
                        break;
                    }
                    Ok(_) => {
                        self.progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        must_close = true;
                        break;
                    }
                }
            }
        }
        if must_close {
            self.close(token);
        }
    }

    /// Syncs the driver's interest set with what the connection's state
    /// wants. No syscall when nothing changed.
    fn update_interest(&mut self, token: u64) {
        let mut failed = false;
        if let Some(conn) = self.conns.get_mut(token) {
            let desired = conn.desired_interest();
            if desired != conn.interest {
                conn.interest = desired;
                let fd = raw_fd(&conn.stream);
                failed = self.driver.modify(fd, token, desired).is_err();
            }
        }
        if failed {
            self.close(token);
        }
    }

    fn drain_completions(&mut self) {
        let completed = {
            let mut queue = self
                .state
                .completions
                .lock()
                .expect("completion queue poisoned");
            if queue.is_empty() {
                return;
            }
            std::mem::take(&mut *queue)
        };
        for completion in completed {
            self.progress = true;
            match completion {
                Completion::Reply(meta, reply) => {
                    gf_trace::set_current_request(meta.request_id);
                    self.answer(meta, reply);
                    gf_trace::set_current_request(0);
                    // Flush the queued response, resume any pipelined
                    // follower behind it, and re-sync interest/deadlines.
                    self.process_buffered(meta.token);
                }
                Completion::StreamWake { token } => self.pump_stream(token),
            }
        }
    }

    /// Opens a streamed response: chunked head plus the opening body
    /// fragment, then whatever the worker has already queued. If the
    /// connection died while the request was dispatched, the dropped
    /// receiver stops the worker at its next send.
    fn start_stream(
        &mut self,
        meta: Meta,
        head: String,
        rx: std::sync::mpsc::Receiver<StreamEvent>,
    ) {
        let keep_alive = meta.keep_alive && !self.state.stop.load(Ordering::SeqCst);
        {
            let Some(conn) = self.conns.get_mut(meta.token) else {
                return; // closed while dispatched: rx drops here
            };
            conn.state = ConnState::Stream;
            conn.close_after_write = !keep_alive;
            conn.request_id = 0;
            http::encode_stream_head(&mut conn.outbuf, 200, keep_alive, meta.request_id);
            http::encode_chunk(&mut conn.outbuf, head.as_bytes());
            conn.streaming = Some(StreamState {
                rx,
                route: meta.route,
                started: meta.started,
                bytes_in: meta.bytes_in,
                bytes_out: head.len() as u64,
            });
        }
        self.pump_stream(meta.token);
    }

    /// Relays queued stream events into the connection's output buffer, up
    /// to the backpressure bound, then flushes. Ends the request on
    /// [`StreamEvent::End`] (the connection proceeds exactly like a
    /// buffered response: keep-alive back to `Read`, else `Drain`);
    /// truncates and closes on [`StreamEvent::Abort`] or a vanished
    /// worker.
    fn pump_stream(&mut self, token: u64) {
        use std::sync::mpsc::TryRecvError;
        let idle_timeout = self.state.config.idle_timeout;
        let mut finished: Option<StreamState> = None;
        let mut aborted = false;
        {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.state != ConnState::Stream {
                return;
            }
            loop {
                if conn.outbuf.len() - conn.outpos >= OUT_BACKPRESSURE {
                    break;
                }
                let event = match conn.streaming.as_mut() {
                    Some(stream) => stream.rx.try_recv(),
                    None => return,
                };
                match event {
                    Ok(StreamEvent::Chunk(fragment)) => {
                        if let Some(stream) = conn.streaming.as_mut() {
                            stream.bytes_out += fragment.len() as u64;
                        }
                        http::encode_chunk(&mut conn.outbuf, fragment.as_bytes());
                    }
                    Ok(StreamEvent::End { tail }) => {
                        if let Some(stream) = conn.streaming.as_mut() {
                            stream.bytes_out += tail.len() as u64;
                        }
                        http::encode_chunk(&mut conn.outbuf, tail.as_bytes());
                        http::encode_last_chunk(&mut conn.outbuf);
                        finished = conn.streaming.take();
                        conn.state = ConnState::Write;
                        break;
                    }
                    Ok(StreamEvent::Abort) | Err(TryRecvError::Disconnected) => {
                        aborted = true;
                        break;
                    }
                    Err(TryRecvError::Empty) => break,
                }
            }
        }
        if aborted {
            // The status line is long gone; a truncated chunked body is
            // the only honest signal left.
            self.close(token);
            return;
        }
        if let Some(done) = finished {
            self.state.metrics.record(
                done.route,
                200,
                done.started.elapsed().as_secs_f64() * 1e6,
                done.bytes_in,
                done.bytes_out,
            );
        }
        self.flush_out(token);
        let resumed = self
            .conns
            .get_mut(token)
            .is_some_and(|conn| conn.state == ConnState::Read && conn.outbuf.is_empty());
        if resumed {
            // Keep-alive after a fully flushed stream: any pipelined
            // follower is already buffered.
            self.process_buffered(token);
            return;
        }
        if let Some(conn) = self.conns.get_mut(token) {
            if conn.state == ConnState::Stream {
                if conn.outpos < conn.outbuf.len() {
                    // The peer owes a drain: bound how long it may stall.
                    arm_deadline(&mut self.timers, conn, token, Instant::now() + idle_timeout);
                } else {
                    // Waiting on the worker — it owes the next block, the
                    // peer owes nothing (same contract as `Dispatched`).
                    conn.deadline = None;
                }
            }
        }
        self.update_interest(token);
    }

    fn expire_timers(&mut self) {
        let now = Instant::now();
        while let Some(&Reverse((when, token))) = self.timers.peek() {
            if when > now {
                break;
            }
            self.timers.pop();
            enum Fire {
                Skip,
                HeaderTimeout,
                Close,
            }
            let fire = {
                let Some(conn) = self.conns.get_mut(token) else {
                    continue; // the connection already closed
                };
                if conn.timer_at != Some(when) {
                    continue; // superseded by an earlier entry that already popped
                }
                conn.timer_at = None;
                match conn.deadline {
                    None => Fire::Skip, // dispatched: no peer deadline
                    Some(deadline) if deadline > now => {
                        // The deadline moved later since this entry was
                        // pushed: re-arm the standing entry at its real time.
                        self.timers.push(Reverse((deadline, token)));
                        conn.timer_at = Some(deadline);
                        Fire::Skip
                    }
                    Some(_) => match conn.state {
                        // Slowloris or a stalled body: the peer started a
                        // request and never finished it inside the window.
                        ConnState::Read if conn.mid_request() => Fire::HeaderTimeout,
                        // A streaming deadline only arms while the peer
                        // owes a drain, so firing means a stalled reader.
                        ConnState::Read
                        | ConnState::Stream
                        | ConnState::Write
                        | ConnState::Drain => Fire::Close,
                        ConnState::Dispatched => Fire::Skip,
                    },
                }
            };
            match fire {
                Fire::Skip => {}
                Fire::HeaderTimeout => {
                    self.progress = true;
                    self.protocol_error(token, 408, "request header read timed out");
                }
                Fire::Close => {
                    self.progress = true;
                    self.close(token);
                }
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(token) {
            let fd = raw_fd(&conn.stream);
            self.driver.deregister(fd, token);
            let _ = conn.stream.shutdown(Shutdown::Both);
            if conn.counted_live {
                self.state.live_connections.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}
