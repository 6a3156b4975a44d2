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
//! facade a library user or the CLI calls — and encodes the typed
//! response, so a served response is bit-identical to a local call by
//! construction. Failures speak the [`ApiError`] taxonomy, mapped to HTTP
//! status via [`ApiError::http_status`].

use std::sync::mpsc::SyncSender;
use std::sync::OnceLock;

use gf_json::{object, FromJson, ToJson, Value};
use greenfpga::api::QueryKind;
use greenfpga::{ApiError, GridRequest, GridStream, ResultBuffer};

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
            Ok(Some((head, stream))) => {
                // The execute span for a streamed grid covers decode +
                // compile + head build; the row production shows up as
                // `eval_batch` spans while the stream drains.
                record_execute(exec_start_ticks);
                return Reply::GridStream { head, stream };
            }
            Ok(None) => {} // `stream` not requested: buffered path below
            Err(error) => {
                record_execute(exec_start_ticks);
                return Reply::Full {
                    status: error.http_status(),
                    body: error_body(&error),
                };
            }
        }
    }
    let (status, body, _) = handle(state, buffer, request, exec_start_ticks);
    Reply::Full { status, body }
}

/// Closes an execute span opened at `exec_start_ticks` (no-op when 0 —
/// untraced), for paths that don't hand the boundary stamp onward.
fn record_execute(exec_start_ticks: u64) {
    if exec_start_ticks != 0 {
        gf_trace::record_span_at(
            gf_trace::SpanName::Execute,
            exec_start_ticks,
            gf_trace::now_ticks().saturating_sub(exec_start_ticks),
            0,
        );
    }
}

/// Decodes a grid request and, when it asked to stream, compiles the
/// scenario and builds the response head. `Ok(None)` means "buffered
/// request — use the ordinary path".
fn try_grid_stream(
    state: &ServerState,
    request: &Request,
) -> Result<Option<(String, Box<GridStream>)>, ApiError> {
    let body = parse_body(state, request)?;
    let grid = GridRequest::from_json(&body)?;
    if !grid.stream {
        return Ok(None);
    }
    let stream = state.engine.grid_stream(&grid)?;
    let head = stream
        .head_json()
        .map_err(|e| ApiError::internal(format!("response serialization failed: {e}")))?;
    Ok(Some((head, Box::new(stream))))
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

/// Routes one request. Returns `(status, body, end_ticks)`; the body is
/// always JSON. `exec_start_ticks` (0 = untraced) opens the execute
/// span, whose closing stamp also opens the serialize span; the final
/// boundary stamp is returned so the transport can open the write span
/// without a fresh clock read (0 when untraced).
pub(crate) fn handle(
    state: &ServerState,
    buffer: &mut ResultBuffer,
    request: &Request,
    exec_start_ticks: u64,
) -> (u16, String, u64) {
    match dispatch(state, buffer, request) {
        Ok(value) => {
            let mid = if exec_start_ticks != 0 {
                let mid = gf_trace::now_ticks();
                gf_trace::record_span_at(
                    gf_trace::SpanName::Execute,
                    exec_start_ticks,
                    mid.saturating_sub(exec_start_ticks),
                    0,
                );
                mid
            } else {
                0
            };
            match value.to_json_string() {
                Ok(body) => {
                    let end = if mid != 0 {
                        let end = gf_trace::now_ticks();
                        gf_trace::record_span_at(
                            gf_trace::SpanName::Serialize,
                            mid,
                            end.saturating_sub(mid),
                            body.len() as u64,
                        );
                        end
                    } else {
                        0
                    };
                    (200, body, end)
                }
                Err(e) => {
                    let error = ApiError::internal(format!("response serialization failed: {e}"));
                    (error.http_status(), error_body(&error), mid)
                }
            }
        }
        Err(error) => {
            let body = error_body(&error);
            let end = if exec_start_ticks != 0 {
                let end = gf_trace::now_ticks();
                gf_trace::record_span_at(
                    gf_trace::SpanName::Execute,
                    exec_start_ticks,
                    end.saturating_sub(exec_start_ticks),
                    0,
                );
                end
            } else {
                0
            };
            (error.http_status(), body, end)
        }
    }
}

/// Finds the dispatch-table entry for a request and runs it.
fn dispatch(
    state: &ServerState,
    buffer: &mut ResultBuffer,
    request: &Request,
) -> Result<Value, ApiError> {
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
        Endpoint::Healthz => Ok(healthz(state)),
        Endpoint::Metrics => Ok(metrics(state)),
        // The transport intercepts `GET /metrics` before dispatch (its
        // response is text, not JSON); reaching this arm means a bug in
        // that interception, not a client error.
        Endpoint::Prometheus => Err(ApiError::internal(
            "prometheus exposition must be rendered by the transport",
        )),
        Endpoint::Trace => Ok(trace()),
        Endpoint::Query(kind) => {
            // `GET` query routes (the catalog) carry no body; decode from
            // the empty object instead of parsing zero bytes as JSON.
            let body = if entry.method == "GET" {
                Value::Object(Vec::new())
            } else {
                parse_body(state, request)?
            };
            let query = kind.decode_request(&body)?;
            let outcome = state.engine.run_with_buffer(&query, buffer)?;
            Ok(outcome.result_json())
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
    let mut value = error.to_json();
    let request_id = gf_trace::current_request();
    if request_id != 0 {
        if let Value::Object(members) = &mut value {
            members.push((
                "request_id".to_string(),
                Value::String(format!("{request_id:016x}")),
            ));
        }
    }
    value
        .to_json_string()
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
fn trace() -> Value {
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
    greenfpga::api::TraceResponse {
        spans,
        enabled: gf_trace::enabled(),
    }
    .to_json()
}

fn metrics(state: &ServerState) -> Value {
    use std::sync::atomic::Ordering;
    greenfpga::api::MetricsResponse {
        requests_served: state.requests.load(Ordering::Relaxed),
        connections_live: state.live_connections.load(Ordering::SeqCst) as u64,
        connections_max: state.config.max_connections as u64,
        connections_rejected: state.metrics.rejected.load(Ordering::Relaxed),
        routes: state.metrics.snapshot_routes(),
        cache_shards: state.engine.cache_shard_metrics(),
    }
    .to_json()
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
