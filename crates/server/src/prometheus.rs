//! Hand-rolled Prometheus text exposition for `GET /metrics`.
//!
//! The same [`MetricsResponse`] snapshot `GET /v1/metrics` serializes as
//! typed JSON — plus the uptime, the per-route latency sums and the
//! event-loop stats, which only this page shows — rendered in the
//! [text-based exposition format] a Prometheus scraper ingests —
//! written by hand because the format is a dozen lines of `write!` and the
//! workspace takes no external dependencies. Counter families end in
//! `_total`, histograms emit cumulative `_bucket{le=...}` series closed by
//! `le="+Inf"` plus `_sum`/`_count`, and every family is announced by one
//! `# TYPE` line. Latency units are **microseconds** (the native unit of
//! the registry's bucket bounds), stated in the metric names rather than
//! converted, so a scraped p50 reads directly against the benchmark
//! numbers.
//!
//! [text-based exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use std::fmt::Write;
use std::sync::atomic::Ordering;

use greenfpga::api::{CacheShardMetrics, MetricsResponse, RouteMetrics};

use crate::metrics::{LoopStats, CONN_STATES, LOOP_BOUNDS_US};
use crate::ServerState;

/// Renders the whole exposition page from `snapshot` (the `/v1/metrics`
/// body) and the server's extra counters. Counters are read relaxed,
/// route by route — the page is not one atomic cut, same contract as the
/// JSON view.
pub(crate) fn render(state: &ServerState, snapshot: &MetricsResponse) -> String {
    let mut out = String::with_capacity(8 * 1024);
    let o = &mut out;

    scalar(
        o,
        "gf_uptime_seconds",
        "gauge",
        state.started.elapsed().as_secs_f64(),
    );
    scalar(
        o,
        "gf_requests_total",
        "counter",
        snapshot.requests_served as f64,
    );
    scalar(
        o,
        "gf_connections_live",
        "gauge",
        snapshot.connections_live as f64,
    );
    scalar(
        o,
        "gf_connections_max",
        "gauge",
        snapshot.connections_max as f64,
    );
    scalar(
        o,
        "gf_connections_rejected_total",
        "counter",
        snapshot.connections_rejected as f64,
    );

    routes(o, &snapshot.routes, &state.metrics.sums_us());
    cache(o, snapshot);
    event_loop(o, &state.loop_stats);
    out
}

/// Per-route request/error/byte counters and the latency histogram.
fn routes(o: &mut String, snapshots: &[RouteMetrics], sums_us: &[f64]) {
    let _ = writeln!(o, "# TYPE gf_route_requests_total counter");
    for route in snapshots {
        let label = escape(&route.route);
        let _ = writeln!(
            o,
            "gf_route_requests_total{{route=\"{label}\"}} {}",
            route.requests
        );
    }
    let _ = writeln!(o, "# TYPE gf_route_errors_total counter");
    for route in snapshots {
        let label = escape(&route.route);
        let _ = writeln!(
            o,
            "gf_route_errors_total{{route=\"{label}\",class=\"4xx\"}} {}",
            route.errors_4xx
        );
        let _ = writeln!(
            o,
            "gf_route_errors_total{{route=\"{label}\",class=\"5xx\"}} {}",
            route.errors_5xx
        );
    }
    let _ = writeln!(o, "# TYPE gf_route_bytes_in_total counter");
    for route in snapshots {
        let _ = writeln!(
            o,
            "gf_route_bytes_in_total{{route=\"{}\"}} {}",
            escape(&route.route),
            route.bytes_in
        );
    }
    let _ = writeln!(o, "# TYPE gf_route_bytes_out_total counter");
    for route in snapshots {
        let _ = writeln!(
            o,
            "gf_route_bytes_out_total{{route=\"{}\"}} {}",
            escape(&route.route),
            route.bytes_out
        );
    }

    let _ = writeln!(o, "# TYPE gf_route_latency_us histogram");
    for (route, sum_us) in snapshots.iter().zip(sums_us) {
        let label = escape(&route.route);
        let mut cumulative = 0u64;
        for (bound, count) in route.latency.bounds_us.iter().zip(&route.latency.counts) {
            cumulative += count;
            let _ = writeln!(
                o,
                "gf_route_latency_us_bucket{{route=\"{label}\",le=\"{}\"}} {cumulative}",
                bound_label(*bound)
            );
        }
        cumulative += route.latency.counts.last().copied().unwrap_or(0);
        let _ = writeln!(
            o,
            "gf_route_latency_us_bucket{{route=\"{label}\",le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(o, "gf_route_latency_us_sum{{route=\"{label}\"}} {sum_us}");
        let _ = writeln!(
            o,
            "gf_route_latency_us_count{{route=\"{label}\"}} {cumulative}"
        );
    }
}

/// Scenario-cache occupancy and hit/miss counters.
fn cache(o: &mut String, snapshot: &MetricsResponse) {
    let shards = &snapshot.cache_shards;
    let total = |field: fn(&CacheShardMetrics) -> u64| -> f64 {
        shards.iter().map(field).sum::<u64>() as f64
    };
    scalar(o, "gf_cache_entries", "gauge", total(|s| s.entries));
    scalar(o, "gf_cache_hits_total", "counter", total(|s| s.hits));
    scalar(o, "gf_cache_misses_total", "counter", total(|s| s.misses));
}

/// Event-loop health: iteration-duration histogram, driver wait, wakeup
/// coalescing, timer-heap depth, connection-state census.
fn event_loop(o: &mut String, stats: &LoopStats) {
    let iterations = stats.iterations.load(Ordering::Relaxed);
    scalar(o, "gf_loop_iterations_total", "counter", iterations as f64);

    let _ = writeln!(o, "# TYPE gf_loop_iteration_us histogram");
    let mut cumulative = 0u64;
    for (bound, bucket) in LOOP_BOUNDS_US.iter().zip(&stats.iter_buckets) {
        cumulative += bucket.load(Ordering::Relaxed);
        let _ = writeln!(
            o,
            "gf_loop_iteration_us_bucket{{le=\"{}\"}} {cumulative}",
            bound_label(*bound)
        );
    }
    cumulative += stats.iter_buckets[LOOP_BOUNDS_US.len()].load(Ordering::Relaxed);
    let _ = writeln!(o, "gf_loop_iteration_us_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(
        o,
        "gf_loop_iteration_us_sum {}",
        stats.iter_ns_sum.load(Ordering::Relaxed) as f64 / 1e3
    );
    let _ = writeln!(o, "gf_loop_iteration_us_count {cumulative}");

    scalar(
        o,
        "gf_loop_wait_seconds_total",
        "counter",
        stats.wait_ns_sum.load(Ordering::Relaxed) as f64 / 1e9,
    );

    // `received` counts pokes written into the wakeup pipe; the pipe merges
    // back-to-back pokes, so the loop handles fewer readiness events than
    // pokes were sent — the difference is work the coalescing saved.
    let received = stats.wakeups_received.load(Ordering::Relaxed);
    let events = stats.wakeup_events.load(Ordering::Relaxed);
    let _ = writeln!(o, "# TYPE gf_loop_wakeups_total counter");
    let _ = writeln!(o, "gf_loop_wakeups_total{{kind=\"received\"}} {received}");
    let _ = writeln!(
        o,
        "gf_loop_wakeups_total{{kind=\"coalesced\"}} {}",
        received.saturating_sub(events)
    );

    scalar(
        o,
        "gf_loop_timer_heap_entries",
        "gauge",
        stats.timer_heap.load(Ordering::Relaxed) as f64,
    );

    let _ = writeln!(o, "# TYPE gf_loop_connections gauge");
    for (name, gauge) in CONN_STATES.iter().zip(&stats.conn_states) {
        let _ = writeln!(
            o,
            "gf_loop_connections{{state=\"{name}\"}} {}",
            gauge.load(Ordering::Relaxed)
        );
    }
}

/// One unlabeled single-sample family: `# TYPE` line plus the sample.
fn scalar(o: &mut String, name: &str, kind: &str, value: f64) {
    let _ = writeln!(o, "# TYPE {name} {kind}");
    let _ = writeln!(o, "{name} {value}");
}

/// Renders a bucket bound without a trailing `.0` (`le="10"`, `le="2500"`),
/// keeping fractional bounds exact if any are ever added.
fn bound_label(bound: f64) -> String {
    if bound.fract() == 0.0 {
        format!("{}", bound as u64)
    } else {
        format!("{bound}")
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline). Route labels are ASCII method + path today; the escape keeps
/// the writer correct if that ever changes.
fn escape(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_labels_drop_integral_fractions() {
        assert_eq!(bound_label(10.0), "10");
        assert_eq!(bound_label(2_500.0), "2500");
        assert_eq!(bound_label(0.5), "0.5");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape("GET /healthz"), "GET /healthz");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
