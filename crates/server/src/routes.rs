//! Request routing: JSON in, engine call, JSON out.
//!
//! The dispatch table ([`route_table`]) is the single source of route
//! identity: every `/v1/<kind>` entry (method from [`QueryKind::method`],
//! `POST` for all kinds except the body-less `GET /v1/catalog`) is derived
//! from [`QueryKind::ALL`], the metrics registry builds its labels from the
//! same table, and [`find`] looks a request up in it once — so adding a
//! query kind to the core enum makes it servable *and* metered with no
//! server-side list to update.
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

use gf_json::{wire_struct, JsonWriter, ToJson};
use greenfpga::api::{MetricsResponse, Query, QueryKind, TraceResponse};
use greenfpga::{ApiError, GridStream, Outcome};

use crate::http::Request;
use crate::{Completion, ServerState, StreamEvent};

/// What a dispatch-table entry serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// `GET /healthz`: liveness, version, uptime.
    Healthz,
    /// `GET /v1/metrics`: the typed observability snapshot (JSON).
    Metrics,
    /// `GET /metrics`: the same snapshot in Prometheus text format — the
    /// one non-JSON response in the table (see [`crate::prometheus`]).
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

impl Route {
    /// Whether the request runs on the worker pool instead of inline on
    /// the event loop ([`QueryKind::offloads`]). Point lookups finish in
    /// single-digit microseconds — handing them to another thread costs
    /// more than answering them — while the fan-out kinds can burn
    /// milliseconds and would stall every other connection on the loop.
    pub(crate) fn offloads(&self) -> bool {
        matches!(self.endpoint, Endpoint::Query(kind) if kind.offloads())
    }
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

/// Looks a request up in the dispatch table — the one scan a request
/// costs. Returns the entry with its table index, which is also its
/// metrics-registry index. An unknown path is a 404 and a known path
/// under another method a 405; both meter against the fallback bucket.
pub(crate) fn find(method: &str, path: &str) -> Result<(usize, &'static Route), ApiError> {
    let (index, entry) = route_table()
        .iter()
        .enumerate()
        .find(|(_, route)| route.path == path)
        .ok_or_else(|| ApiError::not_found(format!("no route for {method} {path}")))?;
    if entry.method != method {
        return Err(ApiError::method_not_allowed(format!(
            "{} only supports {}",
            entry.path, entry.method
        )));
    }
    Ok((index, entry))
}

/// A buffered response.
pub(crate) struct Response {
    /// HTTP status.
    pub status: u16,
    /// Response body: JSON, or Prometheus text when `text` is set.
    pub body: String,
    /// Whether the body is the `text/plain` exposition.
    pub text: bool,
    /// The serialize span's closing stamp (0 when untraced), which opens
    /// the write span.
    pub end_ticks: u64,
}

/// What a routed request produced.
pub(crate) enum Reply {
    /// A complete buffered response.
    Full(Response),
    /// A `stream: true` grid request: the response head (JSON up to the
    /// streamed rows) is ready and a worker should pump the row-blocks.
    GridStream {
        /// Response JSON up to and including `"ratios":[`.
        head: String,
        /// The bounded-memory grid evaluation to pump.
        stream: Box<GridStream>,
    },
}

fn serialization_error(error: &gf_json::JsonError) -> ApiError {
    ApiError::internal(format!("response serialization failed: {error}"))
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

/// What a successful dispatch answers with, written into the body only
/// after the execute span closes.
enum Payload {
    /// A JSON body.
    Json(Json),
    /// `GET /metrics`: the Prometheus text page.
    Text(String),
    /// A `stream: true` grid: its head is written here, its rows by a
    /// worker ([`stream_grid_blocks`]).
    GridStream(Box<GridStream>),
}

/// A JSON response body.
enum Json {
    /// A `/v1/<kind>` query's outcome; the body is its bare result.
    Outcome(Outcome),
    Metrics(MetricsResponse),
    Trace(TraceResponse),
    Health(Health),
}

impl ToJson for Json {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Json::Outcome(outcome) => outcome.write_result(w),
            Json::Metrics(metrics) => metrics.write_json(w),
            Json::Trace(trace) => trace.write_json(w),
            Json::Health(health) => health.write_json(w),
        }
    }
}

/// Runs one request against the entry [`find`] resolved it to (or answers
/// the lookup's 404/405). `exec_start_ticks` (0 = untraced) opens the
/// request's server-side work: a query route's body decode is the decode
/// span, and the execute span runs from its closing stamp until the engine
/// (or the error) returns. That stamp opens the serialize span over the
/// one writer pass that produces the body, and the final boundary stamp
/// rides back in [`Response::end_ticks`].
pub(crate) fn handle(
    state: &ServerState,
    route: Result<&Route, ApiError>,
    request: &Request,
    exec_start_ticks: u64,
) -> Reply {
    let mut start = exec_start_ticks;
    let result = route.and_then(|route| dispatch(state, route, request, &mut start));
    let mid = gf_trace::close(gf_trace::SpanName::Execute, start, 0);
    let written = match result {
        Ok(Payload::GridStream(stream)) => match stream.head_json() {
            Ok(head) => {
                gf_trace::close(gf_trace::SpanName::Serialize, mid, head.len() as u64);
                return Reply::GridStream { head, stream };
            }
            Err(e) => Err(serialization_error(&e)),
        },
        Ok(Payload::Text(text)) => Ok((text, true)),
        Ok(Payload::Json(json)) => json
            .to_json_string()
            .map(|body| (body, false))
            .map_err(|e| serialization_error(&e)),
        Err(error) => Err(error),
    };
    let (status, body, text) = match written {
        Ok((body, text)) => (200, body, text),
        Err(error) => (error.http_status(), error_body(&error), false),
    };
    let end_ticks = gf_trace::close(gf_trace::SpanName::Serialize, mid, body.len() as u64);
    Reply::Full(Response {
        status,
        body,
        text,
        end_ticks,
    })
}

/// Runs a resolved dispatch-table entry. A query body is parsed and
/// decoded once, from its text, in the decode span that `start` opens;
/// `start` then becomes that span's closing stamp. The decoded grid
/// request itself says whether to stream.
fn dispatch(
    state: &ServerState,
    route: &Route,
    request: &Request,
    start: &mut u64,
) -> Result<Payload, ApiError> {
    Ok(match route.endpoint {
        Endpoint::Healthz => Payload::Json(Json::Health(healthz(state))),
        Endpoint::Metrics => Payload::Json(Json::Metrics(metrics(state))),
        Endpoint::Prometheus => Payload::Text(crate::prometheus::render(state, &metrics(state))),
        Endpoint::Trace => Payload::Json(Json::Trace(trace())),
        Endpoint::Query(kind) => {
            // `GET` query routes (the catalog) carry no body; decode from
            // the empty object instead of parsing zero bytes as JSON.
            let text = if route.method == "GET" {
                "{}"
            } else {
                std::str::from_utf8(&request.body)
                    .map_err(|_| ApiError::bad_request("body is not UTF-8"))?
            };
            let limits = gf_json::ParseLimits {
                max_bytes: state.config.max_body_bytes,
                ..gf_json::ParseLimits::default()
            };
            let query = kind.decode_body(text, limits);
            *start = gf_trace::close(
                gf_trace::SpanName::Decode,
                *start,
                request.body.len() as u64,
            );
            match query? {
                Query::Grid(grid) if grid.stream => {
                    Payload::GridStream(Box::new(state.engine.grid_stream(&grid)?))
                }
                query => Payload::Json(Json::Outcome(state.engine.run(&query)?)),
            }
        }
    })
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

wire_struct! {
    /// The `GET /healthz` body: liveness only; cache and request counters
    /// live in `/v1/metrics`.
    struct Health: ToJson {
        status: &'static str,
        version: &'static str,
        uptime_seconds: f64,
        workers: usize,
    }
}

fn healthz(state: &ServerState) -> Health {
    Health {
        status: "ok",
        version: env!("CARGO_PKG_VERSION"),
        uptime_seconds: state.started.elapsed().as_secs_f64(),
        workers: state.config.workers_resolved(),
    }
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
    let routes = state.metrics.snapshot_routes();
    MetricsResponse {
        requests_served: routes.iter().map(|route| route.requests).sum(),
        connections_live: state.live_connections.load(Ordering::SeqCst) as u64,
        connections_max: state.config.max_connections as u64,
        connections_rejected: state.metrics.rejected.load(Ordering::Relaxed),
        routes,
        cache_shards: vec![state.engine.cache_metrics()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_query_kind_is_in_the_dispatch_table() {
        for kind in QueryKind::ALL {
            let (index, entry) = find(kind.method(), kind.path()).unwrap();
            assert_eq!(
                route_table()[index].endpoint,
                Endpoint::Query(kind),
                "{kind}"
            );
            assert_eq!(entry.endpoint, Endpoint::Query(kind), "{kind}");
            assert_eq!(entry.method, kind.method());
        }
        // The catalog is the one body-less query route.
        let error = find("POST", QueryKind::Catalog.path()).unwrap_err();
        assert_eq!(error.code, greenfpga::ApiErrorCode::MethodNotAllowed);
        for path in ["/healthz", "/v1/metrics", "/metrics", "/v1/trace"] {
            assert!(find("GET", path).is_ok(), "{path}");
        }
        // Unknown paths are 404s, known paths under another method 405s.
        let error = find("GET", "/nope").unwrap_err();
        assert_eq!(error.code, greenfpga::ApiErrorCode::NotFound);
        let error = find("PATCH", "/healthz").unwrap_err();
        assert_eq!(error.code, greenfpga::ApiErrorCode::MethodNotAllowed);
    }

    #[test]
    fn observability_routes_stay_inline_and_prometheus_is_flagged() {
        for path in ["/metrics", "/v1/trace", "/v1/metrics", "/healthz"] {
            assert!(!find("GET", path).unwrap().1.offloads(), "{path}");
        }
        assert_eq!(
            find("GET", "/metrics").unwrap().1.endpoint,
            Endpoint::Prometheus
        );
        assert!(find("POST", "/metrics").is_err(), "405s stay JSON");
        assert!(find("POST", QueryKind::Grid.path()).unwrap().1.offloads());
    }
}
