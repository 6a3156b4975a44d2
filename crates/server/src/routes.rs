//! Request routing: JSON in, engine call, JSON out.
//!
//! The dispatch table ([`route_table`]) is the single source of route
//! identity: every `/v1/<kind>` entry (method from [`QueryKind::method`],
//! `POST` for all kinds except the body-less `GET /v1/catalog`) is derived
//! from [`QueryKind::ALL`], the metrics registry builds its labels from the
//! same table, and [`route_index`] positions a request against it — so
//! adding a query kind to the core enum makes it servable *and* metered
//! with no server-side list to update.
//!
//! Every query handler decodes the typed request from [`greenfpga::api`],
//! runs it through the shared [`greenfpga::Engine`] — the **same**
//! facade a library user or the CLI calls — and writes the typed
//! response straight into the body in one [`JsonWriter`] pass, so a
//! served response is bit-identical to a local call by construction.
//! Failures speak the [`ApiError`] taxonomy, mapped to HTTP status via
//! [`ApiError::http_status`].

use std::sync::mpsc::SyncSender;
use std::sync::OnceLock;

use gf_json::{object, FromJson, JsonWriter, ToJson, Value};
use greenfpga::api::{MetricsResponse, QueryKind, TraceResponse};
use greenfpga::{ApiError, GridRequest, GridStream, Outcome, ResultBuffer};

use crate::http::Request;
use crate::{Completion, ServerState, StreamEvent};

/// What a dispatch-table entry serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// `GET /healthz`: liveness, version, uptime.
    Healthz,
    /// `GET /v1/metrics`: the typed observability snapshot (JSON).
    Metrics,
    /// `GET /metrics`: the same registry in Prometheus text format. The
    /// one non-JSON response in the table — rendered by the transport
    /// (see [`crate::prometheus`]), not the JSON dispatcher.
    Prometheus,
    /// `GET /v1/trace`: the recent-span rings as typed JSON.
    Trace,
    /// `/v1/<kind>` under [`QueryKind::method`]: one engine query.
    Query(QueryKind),
}

/// One dispatch-table entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Route {
    /// HTTP method the entry answers.
    pub method: &'static str,
    /// Exact request path.
    pub path: &'static str,
    /// What it serves.
    pub endpoint: Endpoint,
}

/// The dispatch table: the observability `GET` endpoints followed by one
/// route per [`QueryKind`], in [`QueryKind::ALL`] order. Built once.
pub(crate) fn route_table() -> &'static [Route] {
    static TABLE: OnceLock<Vec<Route>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = vec![
            Route {
                method: "GET",
                path: "/healthz",
                endpoint: Endpoint::Healthz,
            },
            Route {
                method: "GET",
                path: "/v1/metrics",
                endpoint: Endpoint::Metrics,
            },
            Route {
                method: "GET",
                path: "/metrics",
                endpoint: Endpoint::Prometheus,
            },
            Route {
                method: "GET",
                path: "/v1/trace",
                endpoint: Endpoint::Trace,
            },
        ];
        table.extend(QueryKind::ALL.into_iter().map(|kind| Route {
            method: kind.method(),
            path: kind.path(),
            endpoint: Endpoint::Query(kind),
        }));
        table
    })
}

/// The metrics-registry index of a request — its dispatch-table position,
/// falling back to the trailing bucket for unknown paths and methods.
pub(crate) fn route_index(method: &str, path: &str) -> usize {
    route_table()
        .iter()
        .position(|route| route.method == method && route.path == path)
        .unwrap_or(usize::MAX)
}

/// Whether a request should run on the worker pool instead of inline on
/// the event loop ([`QueryKind::offloads`]). Point lookups finish in
/// single-digit microseconds — handing them to another thread costs more
/// than answering them — while the fan-out kinds can burn milliseconds and
/// would stall every other connection if they ran on the loop.
pub(crate) fn offloads(method: &str, path: &str) -> bool {
    route_table()
        .iter()
        .find(|route| route.method == method && route.path == path)
        .is_some_and(|route| match route.endpoint {
            Endpoint::Query(kind) => kind.offloads(),
            Endpoint::Healthz | Endpoint::Metrics | Endpoint::Prometheus | Endpoint::Trace => false,
        })
}

/// True when the request addresses the Prometheus text endpoint — the one
/// route whose response the transport renders as `text/plain` instead of
/// routing through the JSON dispatcher.
pub(crate) fn is_prometheus(method: &str, path: &str) -> bool {
    route_table()
        .iter()
        .find(|route| route.method == method && route.path == path)
        .is_some_and(|route| route.endpoint == Endpoint::Prometheus)
}

/// What an offloaded request produced on the worker.
pub(crate) enum Reply {
    /// A complete buffered response.
    Full {
        /// HTTP status.
        status: u16,
        /// JSON body.
        body: String,
    },
    /// A `stream: true` grid request: the response head (JSON up to the
    /// streamed rows) is ready and the worker should pump the row-blocks.
    GridStream {
        /// Response JSON up to and including `"ratios":[`.
        head: String,
        /// The bounded-memory grid evaluation to pump.
        stream: Box<GridStream>,
    },
}

/// Routes one offloaded request, additionally recognizing the streamed
/// grid mode ([`Reply::GridStream`]) that the inline path never serves
/// (grids always offload). Everything else behaves exactly like
/// [`handle`].
pub(crate) fn handle_offloaded(
    state: &ServerState,
    buffer: &mut ResultBuffer,
    request: &Request,
    exec_start_ticks: u64,
) -> Reply {
    if request.method == "POST" && request.path == QueryKind::Grid.path() {
        match try_grid_stream(state, request) {
            Ok(Some(stream)) => {
                // The execute span for a streamed grid covers decode and
                // compile, and the serialize span the head; the rows show
                // up as `eval_batch` spans while the stream drains.
                let mid = record_span(gf_trace::SpanName::Execute, exec_start_ticks, 0);
                return match stream.head_json() {
                    Ok(head) => {
                        record_span(gf_trace::SpanName::Serialize, mid, head.len() as u64);
                        Reply::GridStream { head, stream }
                    }
                    Err(e) => Reply::error(&serialization_error(&e)),
                };
            }
            Ok(None) => {} // `stream` not requested: buffered path below
            Err(error) => {
                record_span(gf_trace::SpanName::Execute, exec_start_ticks, 0);
                return Reply::error(&error);
            }
        }
    }
    let (status, body, _) = handle(state, buffer, request, exec_start_ticks);
    Reply::Full { status, body }
}

/// Closes a span opened at `start_ticks` and returns its end stamp, which
/// opens the next span; a no-op returning 0 when `start_ticks` is 0
/// (untraced).
fn record_span(name: gf_trace::SpanName, start_ticks: u64, aux: u64) -> u64 {
    if start_ticks == 0 {
        return 0;
    }
    let end = gf_trace::now_ticks();
    gf_trace::record_span_at(name, start_ticks, end.saturating_sub(start_ticks), aux);
    end
}

fn serialization_error(error: &gf_json::JsonError) -> ApiError {
    ApiError::internal(format!("response serialization failed: {error}"))
}

impl Reply {
    fn error(error: &ApiError) -> Reply {
        Reply::Full {
            status: error.http_status(),
            body: error_body(error),
        }
    }
}

/// Decodes a grid request and, when it asked to stream, compiles the
/// scenario. `Ok(None)` means "buffered request — use the ordinary path".
fn try_grid_stream(
    state: &ServerState,
    request: &Request,
) -> Result<Option<Box<GridStream>>, ApiError> {
    let body = parse_body(state, request)?;
    let grid = GridRequest::from_json(&body)?;
    if !grid.stream {
        return Ok(None);
    }
    Ok(Some(Box::new(state.engine.grid_stream(&grid)?)))
}

/// Evaluates a grid stream block by block on the worker, sending each
/// block's rows (and finally the tail with the winning fraction) through
/// the bounded channel, waking the loop after every event. Returns when
/// the stream ends, serialization fails (→ [`StreamEvent::Abort`]), or
/// the connection dies (send fails on the dropped receiver).
pub(crate) fn stream_grid_blocks(
    state: &ServerState,
    token: u64,
    tx: &SyncSender<StreamEvent>,
    mut stream: Box<GridStream>,
) {
    let wake = |event: StreamEvent| {
        let delivered = tx.send(event).is_ok();
        if delivered {
            state.complete(Completion::StreamWake { token });
        }
        delivered
    };
    while let Some(block) = stream.next_block() {
        // Head already on the wire: truncation is the only error signal left.
        let Ok(Ok(fragment)) = block.map(|block| block.rows_json()) else {
            wake(StreamEvent::Abort);
            return;
        };
        if !wake(StreamEvent::Chunk(fragment)) {
            return; // connection closed: stop evaluating
        }
    }
    match stream.tail_json() {
        Ok(tail) => wake(StreamEvent::End { tail }),
        Err(_) => wake(StreamEvent::Abort),
    };
}

/// What a successful dispatch answers with: a typed response, written
/// into the body only after the execute span closes.
enum Payload {
    /// A `/v1/<kind>` query's outcome; the body is its bare result.
    Outcome(Outcome),
    Metrics(MetricsResponse),
    Trace(TraceResponse),
    Health(Value),
}

impl ToJson for Payload {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Payload::Outcome(outcome) => outcome.write_result(w),
            Payload::Metrics(metrics) => metrics.write_json(w),
            Payload::Trace(trace) => trace.write_json(w),
            Payload::Health(health) => health.write_json(w),
        }
    }
}

/// Routes one request. Returns `(status, body, end_ticks)`; the body is
/// always JSON. `exec_start_ticks` (0 = untraced) opens the execute
/// span, which ends when the engine (or the error) returns; its closing
/// stamp opens the serialize span over the one writer pass that produces
/// the body. The final boundary stamp is returned so the transport can
/// open the write span without a fresh clock read (0 when untraced).
pub(crate) fn handle(
    state: &ServerState,
    buffer: &mut ResultBuffer,
    request: &Request,
    exec_start_ticks: u64,
) -> (u16, String, u64) {
    let result = dispatch(state, buffer, request);
    let mid = record_span(gf_trace::SpanName::Execute, exec_start_ticks, 0);
    let written = result.and_then(|payload| {
        payload
            .to_json_string()
            .map_err(|e| serialization_error(&e))
    });
    let (status, body) = match written {
        Ok(body) => (200, body),
        Err(error) => (error.http_status(), error_body(&error)),
    };
    let end = record_span(gf_trace::SpanName::Serialize, mid, body.len() as u64);
    (status, body, end)
}

/// Finds the dispatch-table entry for a request and runs it.
fn dispatch(
    state: &ServerState,
    buffer: &mut ResultBuffer,
    request: &Request,
) -> Result<Payload, ApiError> {
    let entry = route_table()
        .iter()
        .find(|route| route.path == request.path)
        .ok_or_else(|| {
            ApiError::not_found(format!("no route for {} {}", request.method, request.path))
        })?;
    if entry.method != request.method {
        return Err(ApiError::method_not_allowed(format!(
            "{} only supports {}",
            entry.path, entry.method
        )));
    }
    match entry.endpoint {
        Endpoint::Healthz => Ok(Payload::Health(healthz(state))),
        Endpoint::Metrics => Ok(Payload::Metrics(metrics(state))),
        // The transport intercepts `GET /metrics` before dispatch (its
        // response is text, not JSON); reaching this arm means a bug in
        // that interception, not a client error.
        Endpoint::Prometheus => Err(ApiError::internal(
            "prometheus exposition must be rendered by the transport",
        )),
        Endpoint::Trace => Ok(Payload::Trace(trace())),
        Endpoint::Query(kind) => {
            // `GET` query routes (the catalog) carry no body; decode from
            // the empty object instead of parsing zero bytes as JSON.
            let body = if entry.method == "GET" {
                Value::Object(Vec::new())
            } else {
                parse_body(state, request)?
            };
            let query = kind.decode_request(&body)?;
            Ok(Payload::Outcome(
                state.engine.run_with_buffer(&query, buffer)?,
            ))
        }
    }
}

/// Parses the request body (bounded by the transport's body limit, plus
/// the JSON parser's own depth limit).
fn parse_body(state: &ServerState, request: &Request) -> Result<Value, ApiError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    let limits = gf_json::ParseLimits {
        max_bytes: state.config.max_body_bytes,
        ..gf_json::ParseLimits::default()
    };
    Ok(gf_json::parse_with(text, limits)?)
}

/// Encodes an [`ApiError`] as the JSON error body, attaching the calling
/// thread's current request id (when one is set) so an error response can
/// be correlated with its spans and its `x-request-id` header.
pub(crate) fn error_body(error: &ApiError) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.splice(error);
    let request_id = gf_trace::current_request();
    if request_id != 0 {
        w.member("request_id", &format!("{request_id:016x}"));
    }
    w.end_object();
    w.finish()
        .unwrap_or_else(|_| "{\"error\":{\"code\":\"internal\"}}".to_string())
}

/// Builds the error body for a protocol-level rejection raised by the HTTP
/// reader (bad request line, oversized head/body, ...). The transport
/// keeps its specific status (`413`, `431`, ...); the body carries the
/// canonical `protocol` code.
pub(crate) fn protocol_error_body(message: &str) -> String {
    error_body(&ApiError::protocol(message))
}

/// Builds the `503` body the connection governor answers with when the
/// server is at capacity.
pub(crate) fn overload_error_body() -> String {
    error_body(&ApiError::overloaded(
        "server is at capacity; retry after the Retry-After delay",
    ))
}

fn healthz(state: &ServerState) -> Value {
    // Liveness only: cache and request counters live in `/v1/metrics`.
    object([
        ("status", Value::from("ok")),
        ("version", Value::from(env!("CARGO_PKG_VERSION"))),
        (
            "uptime_seconds",
            Value::Number(state.started.elapsed().as_secs_f64()),
        ),
        ("workers", Value::from(state.config.workers_resolved())),
    ])
}

/// Most spans one `GET /v1/trace` response returns. A bound, not a page:
/// the rings themselves cap history, this just caps the response body.
const TRACE_SNAPSHOT_MAX: usize = 512;

/// Builds the `GET /v1/trace` response: the recent-span rings as typed
/// JSON, newest first, ids rendered as the same fixed-width hex the
/// `x-request-id` header uses.
fn trace() -> TraceResponse {
    let spans = gf_trace::snapshot(TRACE_SNAPSHOT_MAX)
        .into_iter()
        .map(|span| greenfpga::api::TraceSpan {
            name: span.name.as_str().to_string(),
            span_id: format!("{:016x}", span.span_id),
            request_id: format!("{:016x}", span.request_id),
            start_ns: span.start_ns,
            duration_ns: span.duration_ns,
            aux: span.aux,
            thread: span.thread,
        })
        .collect();
    TraceResponse {
        spans,
        enabled: gf_trace::enabled(),
    }
}

fn metrics(state: &ServerState) -> MetricsResponse {
    use std::sync::atomic::Ordering;
    MetricsResponse {
        requests_served: state.requests.load(Ordering::Relaxed),
        connections_live: state.live_connections.load(Ordering::SeqCst) as u64,
        connections_max: state.config.max_connections as u64,
        connections_rejected: state.metrics.rejected.load(Ordering::Relaxed),
        routes: state.metrics.snapshot_routes(),
        cache_shards: state.engine.cache_shard_metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_query_kind_is_in_the_dispatch_table() {
        for kind in QueryKind::ALL {
            let index = route_index(kind.method(), kind.path());
            let entry = &route_table()[index];
            assert_eq!(entry.endpoint, Endpoint::Query(kind), "{kind}");
            assert_eq!(entry.method, kind.method());
        }
        // The catalog is the one body-less query route.
        assert_eq!(route_index("POST", QueryKind::Catalog.path()), usize::MAX);
        assert!(route_index("GET", "/healthz") < route_table().len());
        assert!(route_index("GET", "/v1/metrics") < route_table().len());
        assert!(route_index("GET", "/metrics") < route_table().len());
        assert!(route_index("GET", "/v1/trace") < route_table().len());
        // Unknown requests clamp to the fallback bucket downstream.
        assert_eq!(route_index("GET", "/nope"), usize::MAX);
        assert_eq!(route_index("PATCH", "/healthz"), usize::MAX);
    }

    #[test]
    fn observability_routes_stay_inline_and_prometheus_is_flagged() {
        assert!(!offloads("GET", "/metrics"));
        assert!(!offloads("GET", "/v1/trace"));
        assert!(is_prometheus("GET", "/metrics"));
        assert!(!is_prometheus("GET", "/v1/metrics"));
        assert!(!is_prometheus("POST", "/metrics"), "405s stay JSON");
    }
}
