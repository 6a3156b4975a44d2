//! The traced pass's in-process layer replay and its attribution
//! arithmetic.
//!
//! Each request answered over HTTP is replayed through the public call
//! that stands for each layer, timed call by call. The top-level layers run
//! in the order the server runs them; the `server` layer is the residual of
//! the round trip that none of them account for (framing, event loop, pool
//! hand-off, socket I/O). Sub-layers re-run parts of `engine.run` on their
//! own and are reported outside the share sum.

use std::hint::black_box;
use std::time::Instant;

use greenfpga::api::{Query, ScenarioRef, SeriesRef};
use greenfpga::{
    catalog_entry, CarbonIntensitySeries, CompiledScenario, Engine, OperatingPoint, ResultBuffer,
    ScenarioSpec,
};

use crate::workload::Request;

/// Layers timed in-process, in the order a request passes them.
pub const TIMED: [&str; 6] = [
    "json.parse",
    "api.decode",
    "engine.resolve",
    "engine.run",
    "api.materialize",
    "json.encode",
];

/// Per-layer sums over the requests of a traced pass.
#[derive(Debug, Default)]
pub struct Totals {
    /// Requests replayed.
    pub requests: u64,
    /// Round-trip time over HTTP, summed.
    pub round_trip_ns: u64,
    /// Time per [`TIMED`] layer, summed.
    pub timed_ns: [u64; TIMED.len()],
    /// `eval.kernel` time and the points it evaluated.
    pub kernel_ns: u64,
    pub kernel_points: u64,
    /// `scenario.region` and `scenario.replay` time.
    pub region_ns: u64,
    pub replay_ns: u64,
    /// Request and response body bytes.
    pub parse_bytes: u64,
    pub encode_bytes: u64,
    /// Replays whose in-process body differed from the golden.
    pub mismatches: u64,
}

impl Totals {
    /// Mean of a summed quantity per replayed request.
    pub fn per_request(&self, sum: u64) -> f64 {
        sum as f64 / self.requests.max(1) as f64
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The specs a query looks up in the compiled-scenario cache, resolving
/// catalog references the way the engine does (cataloged knobs first,
/// request overrides after), with the point catalog queries run at.
fn resolve_specs(query: &Query) -> (Vec<ScenarioSpec>, Option<OperatingPoint>) {
    let catalog = |scenario: &ScenarioRef, point: Option<OperatingPoint>| match scenario {
        ScenarioRef::Inline(spec) => (vec![spec.clone()], point),
        ScenarioRef::Catalog { id, knobs } => {
            let (_, entry) = catalog_entry(id).expect("generated ids are cataloged");
            let mut spec = entry.scenario.clone();
            spec.knobs.extend(knobs.iter().copied());
            (vec![spec], Some(point.unwrap_or(entry.point)))
        }
    };
    match query {
        Query::Evaluate(r) => (vec![r.scenario.clone()], Some(r.point)),
        Query::Batch(r) => (vec![r.scenario.clone()], None),
        Query::Compare(r) => (r.scenarios.clone(), Some(r.point)),
        Query::Crossover(r) => (vec![r.scenario.clone()], None),
        Query::Sweep(r) => (vec![r.scenario.clone()], None),
        Query::Grid(r) => (vec![r.scenario.clone()], None),
        Query::Scenario(r) => catalog(&r.scenario, r.point),
        Query::Replay(r) => catalog(&r.scenario, r.point),
        Query::Optimize(r) => catalog(&r.scenario, r.point),
        // Monte-Carlo re-parameterizes per sample and never reads the
        // compiled cache; no workload sends the remaining kinds.
        _ => (Vec::new(), None),
    }
}

/// Replays one request through every layer on `engine`, adding its times
/// to `totals`. `round_trip_ns` is the request's HTTP round trip.
pub fn replay(
    engine: &Engine,
    buffer: &mut ResultBuffer,
    request: &Request,
    round_trip_ns: u64,
    totals: &mut Totals,
) {
    let mut stamps = [0u64; TIMED.len()];

    let start = Instant::now();
    let value = gf_json::parse(&request.body).expect("generated bodies parse");
    stamps[0] = elapsed_ns(start);

    let start = Instant::now();
    let query = request
        .kind
        .decode_request(&value)
        .expect("generated bodies decode");
    stamps[1] = elapsed_ns(start);

    let start = Instant::now();
    let (specs, point) = resolve_specs(&query);
    let compiled: Vec<CompiledScenario> = specs
        .iter()
        .map(|spec| engine.compiled(spec).expect("generated specs compile"))
        .collect();
    stamps[2] = elapsed_ns(start);

    let start = Instant::now();
    let outcome = engine
        .run_with_buffer(&query, buffer)
        .expect("generated queries run");
    stamps[3] = elapsed_ns(start);

    let start = Instant::now();
    let result = outcome.result_json();
    stamps[4] = elapsed_ns(start);

    let start = Instant::now();
    let body = result.to_json_string().expect("results serialize");
    stamps[5] = elapsed_ns(start);

    totals.requests += 1;
    totals.round_trip_ns += round_trip_ns;
    for (sum, ns) in totals.timed_ns.iter_mut().zip(stamps) {
        *sum += ns;
    }
    totals.parse_bytes += request.body.len() as u64;
    totals.encode_bytes += body.len() as u64;
    if body.as_bytes() != request.expected.body() {
        totals.mismatches += 1;
    }
    sub_layers(&query, &compiled, point, buffer, totals);
}

/// Re-runs the parts of `engine.run` that have a layer of their own: the
/// evaluation kernel, and the region build and replay of a carbon trace.
fn sub_layers(
    query: &Query,
    compiled: &[CompiledScenario],
    point: Option<OperatingPoint>,
    buffer: &mut ResultBuffer,
    totals: &mut Totals,
) {
    let start = Instant::now();
    let points = match query {
        Query::Evaluate(_) | Query::Scenario(_) | Query::Compare(_) => {
            let point = point.expect("point queries carry a point");
            for scenario in compiled {
                black_box(scenario.evaluate(point).expect("kernel"));
            }
            compiled.len()
        }
        Query::Batch(r) => {
            // The engine's own batch call, on one thread as the server
            // configures it.
            compiled[0]
                .evaluate_indexed_into(r.points.len(), |i| r.points[i], buffer, 1)
                .expect("kernel");
            black_box(&*buffer);
            r.points.len()
        }
        Query::Grid(r) => {
            let (x, y) = r.lattice();
            black_box(
                compiled[0]
                    .ratio_grid(r.x_axis, &x, r.y_axis, &y, r.base, 1)
                    .expect("kernel"),
            );
            x.len() * y.len()
        }
        Query::Sweep(r) => {
            black_box(
                compiled[0]
                    .sweep_series(r.axis, &r.values(), r.base, 1)
                    .expect("kernel"),
            );
            r.steps
        }
        _ => 0,
    };
    if points > 0 {
        totals.kernel_ns += elapsed_ns(start);
        totals.kernel_points += points as u64;
    }

    if let Query::Replay(r) = query {
        let SeriesRef::Region(name) = &r.series else {
            return;
        };
        let start = Instant::now();
        let series = CarbonIntensitySeries::region(name).expect("generated regions exist");
        totals.region_ns += elapsed_ns(start);
        let start = Instant::now();
        let stitched = series.repeat(r.years).expect("generated years stitch");
        black_box(
            stitched
                .replay(&compiled[0], point.expect("resolved"), r.interpolate)
                .expect("replay"),
        );
        totals.replay_ns += elapsed_ns(start);
    }
}

/// Splits a mean round trip across the top-level layers: the `server`
/// residual (round trip minus the timed layers, negative if they exceed
/// it, never clamped) first, then each timed layer. Returns each layer's
/// ns per request and its share of the round trip.
pub fn attribute(round_trip_ns: f64, timed_ns: &[f64]) -> Vec<(f64, f64)> {
    let residual = round_trip_ns - timed_ns.iter().sum::<f64>();
    std::iter::once(residual)
        .chain(timed_ns.iter().copied())
        .map(|ns| (ns, ns / round_trip_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one_with_the_residual_first() {
        let split = attribute(1000.0, &[100.0, 50.0, 25.0, 300.0, 75.0, 150.0]);
        assert_eq!(split.len(), 7);
        assert_eq!(split[0], (300.0, 0.3));
        assert_eq!(split[4], (300.0, 0.3));
        let total: f64 = split.iter().map(|(_, share)| share).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
    }

    #[test]
    fn an_overfull_split_reports_a_negative_residual() {
        let split = attribute(100.0, &[60.0, 70.0]);
        assert_eq!(split[0], (-30.0, -0.3));
        let total: f64 = split.iter().map(|(_, share)| share).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
    }
}
