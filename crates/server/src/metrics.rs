//! In-process serving metrics: lock-free counters behind `GET /v1/metrics`.
//!
//! Every counter is a relaxed atomic — recording a request costs a handful
//! of uncontended atomic adds, never a lock, so observability does not
//! serialize the serving path it observes. Snapshots read the counters
//! route by route; the combined view is not one atomic cut, which is the
//! normal contract for monitoring counters.
//!
//! The per-route registry is **derived from the dispatch table** in
//! [`crate::routes`]: one [`RouteStats`] per table entry plus the trailing
//! fallback bucket, with labels built from the same `(method, path)` pairs
//! the dispatcher matches on. An endpoint added to the table can therefore
//! never silently miss its metrics — there is no second list to keep in
//! sync.

use std::sync::atomic::{AtomicU64, Ordering};

use greenfpga::api::{LatencyHistogram, RouteMetrics};

use crate::routes::route_table;

/// Histogram bucket upper bounds in microseconds (inclusive), ascending.
/// Everything above the last bound lands in the implicit overflow bucket,
/// so a snapshot has `LATENCY_BOUNDS_US.len() + 1` counts. The 10µs and
/// 25µs bounds exist because the inline fast path really is that fast
/// (evaluate p50 ≈ 14µs) — a ≤50µs first bucket would hide all of it.
pub(crate) const LATENCY_BOUNDS_US: [f64; 13] = [
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0,
    100_000.0,
];

/// Label of the fallback bucket for unknown routes and protocol-level
/// rejections.
const OTHER_LABEL: &str = "other";

/// One route's counters.
pub(crate) struct RouteStats {
    requests: AtomicU64,
    /// Client-fault responses (4xx statuses).
    errors_4xx: AtomicU64,
    /// Server-fault responses (everything non-2xx that is not 4xx).
    errors_5xx: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    /// Sum of observed latencies in nanoseconds, for Prometheus `_sum`.
    sum_ns: AtomicU64,
    buckets: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
}

impl RouteStats {
    fn new() -> Self {
        RouteStats {
            requests: AtomicU64::new(0),
            errors_4xx: AtomicU64::new(0),
            errors_5xx: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, status: u16, elapsed_us: f64, bytes_in: u64, bytes_out: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        // Split client mistakes from server faults; the snapshot keeps
        // the legacy `errors` field as the sum of both classes.
        if (400..500).contains(&status) {
            self.errors_4xx.fetch_add(1, Ordering::Relaxed);
        } else if !(200..300).contains(&status) {
            self.errors_5xx.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        self.sum_ns
            .fetch_add((elapsed_us * 1e3) as u64, Ordering::Relaxed);
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| elapsed_us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Latency sum in microseconds, for the Prometheus `_sum` series.
    pub fn sum_us(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e3
    }

    fn snapshot(&self, route: &str) -> RouteMetrics {
        let errors_4xx = self.errors_4xx.load(Ordering::Relaxed);
        let errors_5xx = self.errors_5xx.load(Ordering::Relaxed);
        RouteMetrics {
            route: route.to_string(),
            requests: self.requests.load(Ordering::Relaxed),
            errors: errors_4xx + errors_5xx,
            errors_4xx,
            errors_5xx,
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            latency: LatencyHistogram {
                bounds_us: LATENCY_BOUNDS_US.to_vec(),
                counts: self
                    .buckets
                    .iter()
                    .map(|bucket| bucket.load(Ordering::Relaxed))
                    .collect(),
            },
        }
    }
}

/// The server's metrics registry: one [`RouteStats`] per dispatch-table
/// entry (plus the fallback bucket) and the admission-control rejection
/// counter.
pub(crate) struct Metrics {
    /// `labels.len() == routes.len()`; the last entry is the fallback.
    labels: Vec<String>,
    routes: Vec<RouteStats>,
    /// Connections rejected with `503` by the governor.
    pub rejected: AtomicU64,
}

impl Metrics {
    /// Builds the registry from the dispatch table — the single source of
    /// route identity.
    pub fn new() -> Self {
        let mut labels: Vec<String> = route_table()
            .iter()
            .map(|route| format!("{} {}", route.method, route.path))
            .collect();
        labels.push(OTHER_LABEL.to_string());
        let routes = (0..labels.len()).map(|_| RouteStats::new()).collect();
        Metrics {
            labels,
            routes,
            rejected: AtomicU64::new(0),
        }
    }

    /// Index of the fallback bucket.
    pub fn other_index(&self) -> usize {
        self.routes.len() - 1
    }

    /// The label of dispatch-table entry `route` (`"{method} {path}"`);
    /// out-of-range indices read the fallback bucket's `"other"`.
    pub fn label(&self, route: usize) -> &str {
        &self.labels[route.min(self.other_index())]
    }

    /// Records one answered request. `route` is an index into the dispatch
    /// table; out-of-range indices count against the fallback bucket.
    pub fn record(
        &self,
        route: usize,
        status: u16,
        elapsed_us: f64,
        bytes_in: u64,
        bytes_out: u64,
    ) {
        let index = route.min(self.other_index());
        self.routes[index].record(status, elapsed_us, bytes_in, bytes_out);
    }

    /// Requests answered across every route, fallback included.
    pub fn requests(&self) -> u64 {
        self.routes
            .iter()
            .map(|stats| stats.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-route snapshots in dispatch-table order (fallback last).
    pub fn snapshot_routes(&self) -> Vec<RouteMetrics> {
        self.labels
            .iter()
            .zip(&self.routes)
            .map(|(route, stats)| stats.snapshot(route))
            .collect()
    }

    /// Per-route latency sums in microseconds, in [`Self::snapshot_routes`]
    /// order — the Prometheus histogram `_sum` series.
    pub fn sums_us(&self) -> Vec<f64> {
        self.routes.iter().map(RouteStats::sum_us).collect()
    }
}

/// Event-loop iteration-duration bucket bounds in microseconds
/// (inclusive), ascending; one implicit overflow bucket follows.
pub(crate) const LOOP_BOUNDS_US: [f64; 8] = [
    10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0, 20_000.0, 100_000.0,
];

/// Connection-state census slots, in [`crate::conn::ConnState`] order.
pub(crate) const CONN_STATES: [&str; 5] = ["read", "dispatched", "stream", "write", "drain"];

/// Event-loop health counters and gauges, written by the loop thread and
/// read by the Prometheus exposition. All relaxed atomics: the loop pays
/// a handful of uncontended adds per iteration, never a lock.
pub(crate) struct LoopStats {
    /// Loop iterations completed.
    pub iterations: AtomicU64,
    /// Total iteration time (driver wait excluded), nanoseconds.
    pub iter_ns_sum: AtomicU64,
    /// Iteration-duration histogram over [`LOOP_BOUNDS_US`].
    pub iter_buckets: [AtomicU64; LOOP_BOUNDS_US.len() + 1],
    /// Total time blocked in the readiness driver, nanoseconds.
    pub wait_ns_sum: AtomicU64,
    /// Wakeup pokes received (bytes drained from the wakeup pipe).
    pub wakeups_received: AtomicU64,
    /// Wakeup readiness events handled; `received - events` pokes were
    /// coalesced by the pipe before the loop saw them.
    pub wakeup_events: AtomicU64,
    /// Timer-heap entries (gauge, sampled each iteration).
    pub timer_heap: AtomicU64,
    /// Connection-state census (gauges, sampled periodically), in
    /// [`CONN_STATES`] order.
    pub conn_states: [AtomicU64; CONN_STATES.len()],
}

impl LoopStats {
    pub fn new() -> Self {
        LoopStats {
            iterations: AtomicU64::new(0),
            iter_ns_sum: AtomicU64::new(0),
            iter_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            wait_ns_sum: AtomicU64::new(0),
            wakeups_received: AtomicU64::new(0),
            wakeup_events: AtomicU64::new(0),
            timer_heap: AtomicU64::new(0),
            conn_states: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one completed loop iteration.
    pub fn record_iteration(&self, iter_ns: u64, wait_ns: u64, timer_heap: usize) {
        self.iterations.fetch_add(1, Ordering::Relaxed);
        self.iter_ns_sum.fetch_add(iter_ns, Ordering::Relaxed);
        self.wait_ns_sum.fetch_add(wait_ns, Ordering::Relaxed);
        self.timer_heap.store(timer_heap as u64, Ordering::Relaxed);
        let us = iter_ns as f64 / 1e3;
        let bucket = LOOP_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LOOP_BOUNDS_US.len());
        self.iter_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table index of `POST /v1/evaluate` (healthz and metrics precede the
    /// query routes).
    fn evaluate_index() -> usize {
        route_table()
            .iter()
            .position(|route| route.path == "/v1/evaluate")
            .expect("evaluate is routed")
    }

    #[test]
    fn records_land_in_the_right_route_and_bucket() {
        let metrics = Metrics::new();
        let evaluate = evaluate_index();
        metrics.record(evaluate, 200, 60.0, 100, 900); // ≤100µs bucket
        metrics.record(evaluate, 422, 60.0, 50, 80); // client error
        metrics.record(evaluate, 500, 60.0, 10, 80); // server error
        metrics.record(evaluate, 200, 1e9, 100, 900); // overflow bucket
        metrics.record(usize::MAX, 404, 10.0, 0, 40); // clamped to "other"
        let routes = metrics.snapshot_routes();
        assert_eq!(routes.len(), route_table().len() + 1);
        let stats = &routes[evaluate];
        assert_eq!(stats.route, "POST /v1/evaluate");
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.errors, 2, "errors stays the sum of both classes");
        assert_eq!(stats.errors_4xx, 1);
        assert_eq!(stats.errors_5xx, 1);
        assert_eq!(stats.bytes_in, 260);
        assert_eq!(stats.bytes_out, 1960);
        assert_eq!(stats.latency.counts[3], 3, "three 60us observations");
        assert_eq!(*stats.latency.counts.last().unwrap(), 1, "overflow bucket");
        assert_eq!(
            stats.latency.counts.len(),
            stats.latency.bounds_us.len() + 1
        );
        assert!(
            metrics.sums_us()[evaluate] >= 1e9,
            "the sum series tracks observed latency"
        );
        let other = &routes[metrics.other_index()];
        assert_eq!(other.route, "other");
        assert_eq!(other.requests, 1);
        assert_eq!(other.errors, 1);
        assert_eq!(other.errors_4xx, 1);
        assert_eq!(other.errors_5xx, 0);
        assert_eq!(other.bytes_out, 40);
    }

    #[test]
    fn boundary_observations_are_inclusive_and_fast_path_is_visible() {
        let metrics = Metrics::new();
        metrics.record(0, 200, 10.0, 0, 0); // exactly the first bound
        metrics.record(0, 200, 14.0, 0, 0); // the evaluate p50 regime
        metrics.record(0, 200, 30.0, 0, 0);
        let routes = metrics.snapshot_routes();
        assert_eq!(routes[0].latency.bounds_us[0], 10.0);
        assert_eq!(routes[0].latency.bounds_us[1], 25.0);
        assert_eq!(routes[0].latency.counts[0], 1);
        assert_eq!(routes[0].latency.counts[1], 1, "14µs is distinguishable");
        assert_eq!(routes[0].latency.counts[2], 1);
    }

    #[test]
    fn every_dispatch_table_entry_has_a_metrics_bucket() {
        // The drift this registry is designed out of: a route reachable
        // through the dispatcher without a counter. Labels come from the
        // same table the dispatcher matches on, so this holds trivially —
        // the test pins the derivation.
        let metrics = Metrics::new();
        let routes = metrics.snapshot_routes();
        for (i, route) in route_table().iter().enumerate() {
            assert_eq!(routes[i].route, format!("{} {}", route.method, route.path));
        }
        assert_eq!(routes.last().unwrap().route, "other");
    }
}
