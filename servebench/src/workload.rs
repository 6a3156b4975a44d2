//! Seeded request generation for the three workloads.
//!
//! Every request is drawn from one [`SplitMix64`] stream seeded by
//! `--seed`, encoded exactly as a client writes it, and run once
//! in-process (`gf_json::parse` → `QueryKind::decode_request` →
//! `Engine::run` → `Outcome::result_json` → `to_json_string`) to fix its
//! golden response body. A draw the engine rejects is redrawn from the same
//! stream, so every generated request succeeds and the same seed always
//! yields the same bytes.

use gf_support::SplitMix64;
use greenfpga::api::{
    BatchEvalRequest, CompareRequest, CrossoverRequest, EvaluateRequest, GridRequest,
    MonteCarloRequest, OptimizeRequest, Query, QueryKind, ReplayRequest, ScenarioRef,
    ScenarioRunRequest, SeriesRef, SweepRequest,
};
use greenfpga::{
    catalog, CarbonIntensitySeries, Constraint, Domain, Engine, Knob, Objective, OperatingPoint,
    ScenarioSpec, SearchKnob, SweepAxis,
};

use crate::client::Expected;

/// The workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["point_lookups", "bulk_results", "offloaded_compute"];

/// Distinct knob-override specs `point_lookups` draws from: about twice
/// the server's default 64-entry compiled-scenario cache, so override
/// lookups keep missing at a steady rate.
const OVERRIDE_POOL: usize = 128;
/// One spec in this many carries knob overrides.
const OVERRIDE_EVERY: u64 = 8;
/// Consecutive rejected draws tolerated before the generator gives up.
const MAX_REDRAWS: usize = 64;

/// `point_lookups` shares, in percent: evaluate, scenario, compare,
/// crossover.
const POINT_LOOKUP_MIX: [usize; 4] = [50, 20, 15, 15];
/// `bulk_results` shares: batch of 64, batch of 512, buffered 64² grid,
/// 256-step sweep, streamed 128² grid.
const BULK_RESULT_MIX: [usize; 5] = [30, 15, 25, 25, 5];
/// `offloaded_compute` shares: replay, optimize, Monte-Carlo, batch of 8.
const OFFLOADED_MIX: [usize; 4] = [35, 20, 20, 25];
/// Replay slots cycle through 3 year counts × 4 regions × 2 lookups.
const REPLAY_CYCLE: usize = 24;

/// One generated request: its wire bytes and the response it must get.
pub struct Request {
    /// The route's query kind.
    pub kind: QueryKind,
    /// The JSON request body.
    pub body: String,
    /// The full HTTP/1.1 request, exactly as written to the socket.
    pub wire: Vec<u8>,
    /// The expected response.
    pub expected: Expected,
}

/// A workload: the request sequence every connection cycles through.
pub struct Workload {
    /// The workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Requests in send order.
    pub requests: Vec<Request>,
}

impl Workload {
    /// Generates the named workload from `seed`, computing every golden
    /// response on `engine`.
    ///
    /// # Errors
    ///
    /// Unknown workload names, and a generator that keeps drawing
    /// requests the engine rejects.
    pub fn generate(name: &str, seed: u64, engine: &Engine) -> Result<Workload, String> {
        type Draw = fn(&mut Draws, usize) -> Query;
        let (name, size, mix, draw): (&'static str, usize, &[usize], Draw) = match name {
            "point_lookups" => (
                "point_lookups",
                4096,
                &POINT_LOOKUP_MIX,
                Draws::point_lookup,
            ),
            "bulk_results" => ("bulk_results", 256, &BULK_RESULT_MIX, Draws::bulk_result),
            "offloaded_compute" => ("offloaded_compute", 512, &OFFLOADED_MIX, Draws::offloaded),
            other => {
                return Err(format!(
                    "unknown workload '{other}' (expected one of {NAMES:?} or all)"
                ))
            }
        };
        let mut draws = Draws::new(seed);
        // Exact per-kind counts, shuffled: every seed sends the same mix,
        // so seeds vary the parameters and the order, not the composition.
        let mut slots: Vec<usize> = (0..size)
            .map(|i| {
                let mut ticket = i * mix.iter().sum::<usize>() / size;
                mix.iter()
                    .position(|&share| match ticket.checked_sub(share) {
                        Some(rest) => {
                            ticket = rest;
                            false
                        }
                        None => true,
                    })
                    .expect("tickets stay below the mix total")
            })
            .collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, draws.rng.gen_index(i + 1));
        }
        let mut requests = Vec::with_capacity(size);
        for slot in slots {
            let mut attempts = 0;
            let request = loop {
                let query = draw(&mut draws, slot);
                if let Some(request) = encode(engine, &query)? {
                    break request;
                }
                attempts += 1;
                if attempts == MAX_REDRAWS {
                    return Err(format!(
                        "{name}: {MAX_REDRAWS} consecutive {} draws were rejected by the engine",
                        query.kind()
                    ));
                }
            };
            requests.push(request);
        }
        Ok(Workload { name, requests })
    }

    /// FNV-1a digest of every request's wire bytes, in send order: equal
    /// digests mean two runs served identical inputs.
    pub fn digest(&self) -> u64 {
        self.requests
            .iter()
            .fold(FNV_OFFSET, |hash, request| fnv1a(hash, &request.wire))
    }

    /// Requests per route (streamed grids apart), for the run record.
    pub fn mix(&self) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for request in &self.requests {
            let route = if request.expected.is_chunked() {
                format!("{} (streamed)", request.kind)
            } else {
                request.kind.to_string()
            };
            match counts.iter_mut().find(|(seen, _)| *seen == route) {
                Some((_, count)) => *count += 1,
                None => counts.push((route, 1)),
            }
        }
        counts
    }
}

/// The request set-up time waits on: one paper-default evaluate, the same
/// for every workload and seed, so `setup_s` measures start-up alone.
pub fn probe(engine: &Engine) -> Result<Request, String> {
    let query = Query::Evaluate(EvaluateRequest {
        scenario: ScenarioSpec::baseline(Domain::Dnn),
        point: OperatingPoint::paper_default(),
    });
    encode(engine, &query)?.ok_or_else(|| "the engine rejects the set-up probe".to_string())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Encodes one query and fixes its golden through the same calls the
/// server makes; `None` when the engine rejects it.
fn encode(engine: &Engine, query: &Query) -> Result<Option<Request>, String> {
    let kind = query.kind();
    let body = query
        .request_body()
        .to_json_string()
        .map_err(|e| format!("{kind} request does not serialize: {e}"))?;
    let value = gf_json::parse(&body).map_err(|e| format!("{kind} body does not parse: {e}"))?;
    let decoded = kind
        .decode_request(&value)
        .map_err(|e| format!("{kind} body does not decode: {e}"))?;
    let Ok(outcome) = engine.run(&decoded) else {
        return Ok(None);
    };
    let golden = outcome
        .result_json()
        .to_json_string()
        .map_err(|e| format!("{kind} result does not serialize: {e}"))?;
    let stream = matches!(query, Query::Grid(grid) if grid.stream);
    let wire = format!(
        "{} {} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
        kind.method(),
        kind.path(),
        body.len()
    )
    .into_bytes();
    Ok(Some(Request {
        kind,
        expected: Expected::new(golden.into_bytes(), stream),
        body,
        wire,
    }))
}

/// The seeded draw stream behind every workload.
struct Draws {
    rng: SplitMix64,
    overrides: Vec<ScenarioSpec>,
    /// Rotation cursor through the catalog for `scenario` requests.
    catalog_cursor: usize,
    /// Rotation cursor through replay years, regions and interpolation.
    replay_cursor: usize,
}

impl Draws {
    fn new(seed: u64) -> Draws {
        let mut rng = SplitMix64::new(seed);
        let overrides = (0..OVERRIDE_POOL)
            .map(|_| override_spec(&mut rng))
            .collect();
        let catalog_cursor = rng.gen_index(catalog().len());
        let replay_cursor = rng.gen_index(REPLAY_CYCLE);
        Draws {
            rng,
            overrides,
            catalog_cursor,
            replay_cursor,
        }
    }

    fn domain(&mut self) -> Domain {
        Domain::ALL[self.rng.gen_index(Domain::ALL.len())]
    }

    /// A point in the paper's operating range: 1–24 applications,
    /// 0.5–5 years in 0.1-year steps, 10⁴–5·10⁶ units (log-uniform).
    fn point(&mut self) -> OperatingPoint {
        OperatingPoint {
            applications: self.rng.gen_range_u64(1, 24),
            lifetime_years: self.rng.gen_range_u64(5, 50) as f64 / 10.0,
            volume: 10f64.powf(self.rng.gen_range_f64(4.0, 6.699)).round() as u64,
        }
    }

    /// Whether the next spec-bearing slot carries knob overrides.
    fn overridden(&mut self) -> bool {
        self.rng.gen_range_u64(1, OVERRIDE_EVERY) == 1
    }

    /// An inline spec: a pooled override spec one time in
    /// [`OVERRIDE_EVERY`], else a domain baseline.
    fn spec(&mut self) -> ScenarioSpec {
        if self.overridden() {
            self.overrides[self.rng.gen_index(OVERRIDE_POOL)].clone()
        } else {
            let domain = self.domain();
            ScenarioSpec::baseline(domain)
        }
    }

    /// `point_lookups`: inline routes with small bodies.
    fn point_lookup(&mut self, slot: usize) -> Query {
        match slot {
            0 => Query::Evaluate(EvaluateRequest {
                scenario: self.spec(),
                point: self.point(),
            }),
            1 => {
                let entry = &catalog()[self.catalog_cursor % catalog().len()];
                self.catalog_cursor += 1;
                let knobs = if self.overridden() {
                    self.overrides[self.rng.gen_index(OVERRIDE_POOL)]
                        .knobs
                        .clone()
                } else {
                    Vec::new()
                };
                Query::Scenario(ScenarioRunRequest {
                    scenario: ScenarioRef::Catalog {
                        id: entry.id.to_string(),
                        knobs,
                    },
                    point: None,
                })
            }
            2 => {
                let count = self.rng.gen_range_u64(2, 4);
                Query::Compare(CompareRequest {
                    scenarios: (0..count).map(|_| self.spec()).collect(),
                    point: self.point(),
                })
            }
            _ => {
                let spec = self.spec();
                let base = self.point();
                Query::Crossover(CrossoverRequest::with_default_ranges(spec, base))
            }
        }
    }

    /// `bulk_results`: offloaded routes with large responses, all on the
    /// DNN baseline spec, so every cache lookup hits.
    fn bulk_result(&mut self, slot: usize) -> Query {
        let scenario = ScenarioSpec::baseline(Domain::Dnn);
        match slot {
            0 | 1 => {
                let count = if slot == 0 { 64 } else { 512 };
                Query::Batch(BatchEvalRequest {
                    scenario,
                    points: (0..count).map(|_| self.point()).collect(),
                })
            }
            3 => Query::Sweep(SweepRequest {
                scenario,
                base: self.point(),
                axis: SweepAxis::LifetimeYears,
                range: (0.25, self.rng.gen_range_u64(2, 6) as f64),
                steps: 256,
            }),
            _ => {
                let streamed = slot == 4;
                Query::Grid(GridRequest {
                    scenario,
                    base: self.point(),
                    x_axis: SweepAxis::Applications,
                    x_range: (1.0, self.rng.gen_range_u64(12, 24) as f64),
                    y_axis: SweepAxis::LifetimeYears,
                    y_range: (0.25, self.rng.gen_range_u64(3, 5) as f64),
                    steps: if streamed { 128 } else { 64 },
                    stream: streamed,
                })
            }
        }
    }

    /// `offloaded_compute`: offloaded routes heavy on compute with small
    /// responses.
    fn offloaded(&mut self, slot: usize) -> Query {
        match slot {
            0 => {
                // Years, region and interpolation rotate together, so every
                // seed replays the same number of hours.
                let cursor = self.replay_cursor;
                self.replay_cursor += 1;
                let years = 1 + (cursor % 3) as u64;
                let regions = CarbonIntensitySeries::REGIONS;
                let region = regions[(cursor / 3) % regions.len()];
                let fleets: Vec<&str> = catalog()
                    .iter()
                    .filter(|entry| entry.point.lifetime_years.ceil() >= years as f64)
                    .map(|entry| entry.id)
                    .collect();
                let id = fleets[self.rng.gen_index(fleets.len())];
                Query::Replay(ReplayRequest {
                    scenario: ScenarioRef::Catalog {
                        id: id.to_string(),
                        knobs: Vec::new(),
                    },
                    point: None,
                    series: SeriesRef::Region(region.to_string()),
                    interpolate: (cursor / 12).is_multiple_of(2),
                    years,
                })
            }
            1 => {
                let entry = &catalog()[self.rng.gen_index(catalog().len())];
                Query::Optimize(OptimizeRequest {
                    scenario: ScenarioRef::Catalog {
                        id: entry.id.to_string(),
                        knobs: Vec::new(),
                    },
                    point: None,
                    objective: Objective::MinRatio,
                    search: vec![
                        SearchKnob {
                            axis: SweepAxis::Applications,
                            min: 1.0,
                            max: self.rng.gen_range_u64(6, 16) as f64,
                            integer: true,
                        },
                        SearchKnob {
                            axis: SweepAxis::LifetimeYears,
                            min: 0.5,
                            max: self.rng.gen_range_u64(2, 5) as f64,
                            integer: false,
                        },
                    ],
                    constraints: vec![Constraint::FpgaWins],
                    tolerance: OptimizeRequest::DEFAULT_TOLERANCE,
                    max_evals: OptimizeRequest::DEFAULT_MAX_EVALS,
                })
            }
            2 => {
                let domain = self.domain();
                Query::MonteCarlo(MonteCarloRequest {
                    scenario: ScenarioSpec::baseline(domain),
                    point: self.point(),
                    samples: 512,
                    seed: self.rng.next_u64() >> 11,
                })
            }
            _ => {
                let domain = self.domain();
                let points = (0..8)
                    .map(|_| OperatingPoint {
                        applications: self.rng.gen_range_u64(1_000, 100_000),
                        ..self.point()
                    })
                    .collect();
                Query::Batch(BatchEvalRequest {
                    scenario: ScenarioSpec::baseline(domain),
                    points,
                })
            }
        }
    }
}

/// One pooled override spec: a random domain with one or two distinct
/// Table 1 knobs set inside their ranges (three decimals).
fn override_spec(rng: &mut SplitMix64) -> ScenarioSpec {
    let domain = Domain::ALL[rng.gen_index(Domain::ALL.len())];
    let first = rng.gen_index(Knob::ALL.len());
    let mut chosen = vec![Knob::ALL[first]];
    if rng.gen_bool() {
        let offset = 1 + rng.gen_index(Knob::ALL.len() - 1);
        chosen.push(Knob::ALL[(first + offset) % Knob::ALL.len()]);
    }
    let knobs = chosen
        .into_iter()
        .map(|knob| {
            let range = knob.range();
            let value = rng.gen_range_f64(range.low, range.high);
            (knob, (value * 1000.0).round() / 1000.0)
        })
        .collect();
    ScenarioSpec { domain, knobs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenfpga::EngineConfig;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            eval_threads: 1,
            ..EngineConfig::default()
        })
        .expect("default engine")
    }

    #[test]
    fn same_seed_gives_identical_bytes() {
        let engine = engine();
        for name in NAMES {
            let a = Workload::generate(name, 7, &engine).expect("generate");
            let b = Workload::generate(name, 7, &engine).expect("generate");
            assert_eq!(a.digest(), b.digest(), "{name}");
            assert!(a
                .requests
                .iter()
                .zip(&b.requests)
                .all(|(x, y)| x.wire == y.wire && x.expected.bytes() == y.expected.bytes()));
            let c = Workload::generate(name, 8, &engine).expect("generate");
            assert_ne!(a.digest(), c.digest(), "{name}: seeds 7 and 8 collide");
        }
    }

    #[test]
    fn point_lookups_overrides_outnumber_the_cache() {
        let engine = engine();
        let workload = Workload::generate("point_lookups", 3, &engine).expect("generate");
        let overridden = workload
            .requests
            .iter()
            .filter(|request| request.body.contains("\"knobs\":{\""))
            .count();
        let share = overridden as f64 / workload.requests.len() as f64;
        assert!((0.06..0.25).contains(&share), "override share {share}");
        let routes: Vec<String> = workload.mix().into_iter().map(|(route, _)| route).collect();
        for route in ["evaluate", "scenario", "compare", "crossover"] {
            assert!(
                routes.iter().any(|r| r == route),
                "{route} missing from the mix"
            );
        }
    }

    #[test]
    fn every_seed_sends_the_same_mix() {
        let engine = engine();
        for name in NAMES {
            let mix = |seed| {
                let mut mix = Workload::generate(name, seed, &engine)
                    .expect("generate")
                    .mix();
                mix.sort();
                mix
            };
            assert_eq!(mix(1), mix(2), "{name}");
        }
        let mix = Workload::generate("bulk_results", 5, &engine)
            .expect("generate")
            .mix();
        assert!(
            mix.contains(&("grid (streamed)".to_string(), 12)),
            "{mix:?}"
        );
    }

    #[test]
    fn unknown_workloads_are_rejected() {
        assert!(Workload::generate("nope", 1, &engine()).is_err());
    }

    #[test]
    fn fnv_digest_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
