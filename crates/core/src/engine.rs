//! The unified engine facade: one entry point for every query kind.
//!
//! [`Engine`] owns the two long-lived pieces of serving state that used to
//! live inside `greenfpga-serve` — the compiled-scenario cache and
//! a persistent [`exec::WorkerPool`] — and dispatches every
//! [`Query`] variant through one [`Engine::run`] call. The HTTP
//! server, the CLI and the bench clients are all thin adapters over this
//! facade, so a result is bit-identical across frontends by construction:
//! they literally execute the same code.
//!
//! ```
//! use greenfpga::api::{EvaluateRequest, Query, Outcome};
//! use greenfpga::{Domain, Engine, OperatingPoint, ScenarioSpec};
//!
//! let engine = Engine::with_defaults()?;
//! let query = Query::Evaluate(EvaluateRequest {
//!     scenario: ScenarioSpec::baseline(Domain::Dnn),
//!     point: OperatingPoint::paper_default(),
//! });
//! let Outcome::Evaluate(response) = engine.run(&query)? else {
//!     unreachable!("evaluate queries produce evaluate outcomes");
//! };
//! assert!(response.comparison.fpga_to_asic_ratio() > 0.0);
//! # Ok::<(), greenfpga::ApiError>(())
//! ```

use std::sync::Mutex;

use crate::api::{
    CacheShardMetrics, CatalogResponse, CompareResponse, CrossoverResponse, EvaluateResponse,
    IndustryDeviceReport, IndustryRequest, IndustryResponse, OptimizeResponse, Outcome, Query,
    ReplayResponse, ScenarioRef, ScenarioRunResponse, SeriesRef, Validate,
};
use crate::scenario::{catalog, catalog_entry, CarbonIntensitySeries, CatalogEntry, Verdict};
use crate::{
    exec, industry_asic1, industry_asic2, industry_fpga1, industry_fpga2, ApiError,
    BatchEvalResponse, CompiledScenario, Estimator, EstimatorParams, GreenFpgaError, GridRequest,
    GridStream, IndustryScenario, MonteCarlo, OperatingPoint, PlatformKind, ResultBuffer,
    ScenarioSpec, ScenarioTemplate,
};

/// Tuning for an [`Engine`]. Every field has a sane default; the server
/// exposes the interesting ones as flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum cached compiled scenarios.
    pub cache_capacity: usize,
    /// Worker threads per batch/sweep/grid evaluation (`0` =
    /// [`exec::default_threads`]). Servers should keep this at 1: request
    /// concurrency already comes from connection workers.
    pub eval_threads: usize,
    /// Threads in the persistent [`exec::WorkerPool`] (`0` =
    /// [`exec::default_threads`]). The pool is spawned lazily on the first
    /// [`Engine::execute`], so one-shot CLI engines never pay for it.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 64,
            eval_threads: 0,
            workers: 0,
        }
    }
}

/// The lazily spawned worker pool behind [`Engine::execute`].
struct PoolSlot {
    pool: Option<exec::WorkerPool>,
    /// Set by [`Engine::join_workers`]; jobs submitted afterwards are
    /// rejected instead of silently respawning the pool.
    closed: bool,
}

/// The unified engine: a compiled-scenario cache, a persistent
/// worker pool, and one [`Engine::run`] dispatch for every [`Query`].
///
/// The `Debug` form reports only the configuration; cache contents and
/// pool state are runtime details.
pub struct Engine {
    config: EngineConfig,
    cache: Mutex<ScenarioCache>,
    pool: Mutex<PoolSlot>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds an engine: resolves every domain template and sizes the
    /// scenario cache.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] (code `model`) for a zero cache capacity, and
    /// propagates calibration failures (the built-in calibrations never
    /// trigger them).
    pub fn new(config: EngineConfig) -> Result<Engine, ApiError> {
        let cache = Mutex::new(ScenarioCache::new(config.cache_capacity)?);
        Ok(Engine {
            config,
            cache,
            pool: Mutex::new(PoolSlot {
                pool: None,
                closed: false,
            }),
        })
    }

    /// An engine with the default configuration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::new`] (never for the defaults).
    pub fn with_defaults() -> Result<Engine, ApiError> {
        Engine::new(EngineConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The compiled scenario for a spec — cached when seen before. A miss
    /// compiles under the cache lock (pure arithmetic, microseconds), so
    /// concurrent misses on one spec compile it once.
    ///
    /// # Errors
    ///
    /// Propagates compile errors (knob overrides are range-clamped, so
    /// spec-derived parameters never trigger them).
    pub fn compiled(&self, spec: &ScenarioSpec) -> Result<CompiledScenario, ApiError> {
        let traced = gf_trace::enabled();
        let from_ticks = if traced { gf_trace::now_ticks() } else { 0 };
        let mut cache = self.cache.lock().expect("scenario cache poisoned");
        let misses_before = cache.misses;
        let result = cache.lookup(spec);
        let missed = cache.misses > misses_before;
        drop(cache);
        if traced {
            if missed {
                let end = gf_trace::now_ticks();
                gf_trace::record_span_at(
                    gf_trace::SpanName::Compile,
                    from_ticks,
                    end.saturating_sub(from_ticks),
                    0,
                );
                gf_trace::record_span_at(gf_trace::SpanName::CacheMiss, end, 0, 0);
            } else {
                // Hit path: reuse the probe's entry stamp — the common case
                // pays exactly one clock read.
                gf_trace::record_span_at(gf_trace::SpanName::CacheHit, from_ticks, 0, 0);
            }
        }
        Ok(result?)
    }

    /// Runs one query and returns its outcome. Allocates a scratch
    /// [`ResultBuffer`] per call; long-lived callers that answer many
    /// batch queries should hold a buffer and use
    /// [`Engine::run_with_buffer`].
    ///
    /// # Errors
    ///
    /// Returns the [`ApiError`] taxonomy: `bad_request` for requests that
    /// break a range rule ([`Query::validate`]), `model` for model-level
    /// rejections (including results that overflow `f64`).
    pub fn run(&self, query: &Query) -> Result<Outcome, ApiError> {
        self.run_with_buffer(query, &mut ResultBuffer::new())
    }

    /// [`Engine::run`] writing batch evaluations through the caller's
    /// reused buffer (the zero-allocation serving path).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run`].
    pub fn run_with_buffer(
        &self,
        query: &Query,
        buffer: &mut ResultBuffer,
    ) -> Result<Outcome, ApiError> {
        query.validate()?;
        let threads = self.config.eval_threads;
        Ok(match query {
            Query::Evaluate(request) => {
                let compiled = self.compiled(&request.scenario)?;
                Outcome::Evaluate(EvaluateResponse {
                    comparison: compiled.evaluate(request.point)?,
                })
            }
            Query::Batch(request) => {
                let compiled = self.compiled(&request.scenario)?;
                compiled.evaluate_indexed_into(
                    request.points.len(),
                    |i| request.points[i],
                    buffer,
                    threads,
                )?;
                Outcome::Batch(BatchEvalResponse {
                    comparisons: buffer.comparisons().collect(),
                })
            }
            Query::Compare(request) => {
                let mut comparisons = Vec::with_capacity(request.scenarios.len());
                for scenario in &request.scenarios {
                    let compiled = self.compiled(scenario)?;
                    comparisons.push(compiled.evaluate(request.point)?);
                }
                Outcome::Compare(CompareResponse { comparisons })
            }
            Query::Crossover(request) => {
                let compiled = self.compiled(&request.scenario)?;
                let base = request.base;
                Outcome::Crossover(CrossoverResponse {
                    domain: request.scenario.domain,
                    base,
                    applications: compiled.crossover_in_applications_verified(
                        request.max_applications,
                        base.lifetime_years,
                        base.volume,
                    )?,
                    lifetime: compiled.crossover_in_lifetime_verified(
                        base.applications,
                        base.volume,
                        request.lifetime_range.0,
                        request.lifetime_range.1,
                    )?,
                    volume: compiled.crossover_in_volume_verified(
                        base.applications,
                        base.lifetime_years,
                        request.volume_range.0,
                        request.volume_range.1,
                    )?,
                })
            }
            Query::Frontier(request) => {
                let compiled = self.compiled(&request.scenario)?;
                let (x_values, y_values) = request.lattice();
                Outcome::Frontier(compiled.frontier(
                    request.x_axis,
                    &x_values,
                    request.y_axis,
                    &y_values,
                    request.base,
                    threads,
                )?)
            }
            Query::Sweep(request) => {
                let compiled = self.compiled(&request.scenario)?;
                Outcome::Sweep(compiled.sweep_series(
                    request.axis,
                    &request.values(),
                    request.base,
                    threads,
                )?)
            }
            Query::Grid(request) => {
                let compiled = self.compiled(&request.scenario)?;
                let (x_values, y_values) = request.lattice();
                Outcome::Grid(compiled.ratio_grid(
                    request.x_axis,
                    &x_values,
                    request.y_axis,
                    &y_values,
                    request.base,
                    threads,
                )?)
            }
            Query::Tornado(request) => {
                let estimator = Estimator::new(request.scenario.params());
                Outcome::Tornado(estimator.tornado_analysis(
                    request.scenario.domain,
                    request.point,
                    threads,
                )?)
            }
            Query::MonteCarlo(request) => Outcome::MonteCarlo(
                MonteCarlo::new(request.samples)
                    .with_seed(request.seed)
                    .with_threads(threads)
                    .run(
                        &request.scenario.params(),
                        request.scenario.domain,
                        request.point,
                    )?,
            ),
            Query::Industry(request) => Outcome::Industry(run_industry(request)?),
            Query::Scenario(request) => {
                let (entry, spec) = resolve_scenario(&request.scenario)?;
                let point = resolved_point(request.point, entry);
                let compiled = self.compiled(&spec)?;
                let comparison = compiled.evaluate(point)?;
                Outcome::Scenario(ScenarioRunResponse {
                    id: request.scenario.catalog_id().map(str::to_string),
                    point,
                    verdict: Verdict::from_comparison(&comparison),
                    comparison,
                })
            }
            Query::Replay(request) => {
                let (entry, spec) = resolve_scenario(&request.scenario)?;
                let point = resolved_point(request.point, entry);
                let series = match &request.series {
                    SeriesRef::Region(name) => {
                        CarbonIntensitySeries::region(name).ok_or_else(|| {
                            ApiError::bad_request(format!(
                                "unknown region preset '{name}' (expected one of {:?})",
                                CarbonIntensitySeries::REGIONS
                            ))
                        })?
                    }
                    SeriesRef::Inline(series) => series,
                };
                if request.years as f64 > point.lifetime_years.ceil() {
                    return Err(ApiError::bad_request(format!(
                        "years ({}) exceeds the device lifetime of {} years",
                        request.years, point.lifetime_years
                    )));
                }
                let compiled = self.compiled(&spec)?;
                let traced = gf_trace::enabled();
                let start = if traced { gf_trace::now_ticks() } else { 0 };
                let replay =
                    series.replay_years(&compiled, point, request.interpolate, request.years)?;
                if traced {
                    let end = gf_trace::now_ticks();
                    gf_trace::record_span_at(
                        gf_trace::SpanName::Replay,
                        start,
                        end.saturating_sub(start),
                        replay.steps,
                    );
                }
                Outcome::Replay(ReplayResponse {
                    id: request.scenario.catalog_id().map(str::to_string),
                    domain: spec.domain,
                    point,
                    replay,
                })
            }
            Query::Optimize(request) => {
                let (entry, spec) = resolve_scenario(&request.scenario)?;
                let point = resolved_point(request.point, entry);
                let compiled = self.compiled(&spec)?;
                let traced = gf_trace::enabled();
                let start = if traced { gf_trace::now_ticks() } else { 0 };
                let outcome = compiled.optimize(
                    point,
                    &request.objective,
                    &request.search,
                    &request.constraints,
                    request.tolerance,
                    request.max_evals,
                    threads,
                )?;
                if traced {
                    let end = gf_trace::now_ticks();
                    gf_trace::record_span_at(
                        gf_trace::SpanName::Optimize,
                        start,
                        end.saturating_sub(start),
                        outcome.evaluations,
                    );
                }
                let argmin = request
                    .search
                    .iter()
                    .map(|knob| {
                        (
                            knob.axis,
                            crate::optimize::axis_value(outcome.point, knob.axis),
                        )
                    })
                    .collect();
                Outcome::Optimize(OptimizeResponse {
                    id: request.scenario.catalog_id().map(str::to_string),
                    domain: spec.domain,
                    point: outcome.point,
                    argmin,
                    objective: outcome.objective,
                    verdict: Verdict::from_comparison(&outcome.comparison),
                    evaluations: outcome.evaluations,
                    solver: outcome.solver,
                    certificate: outcome.certificate,
                })
            }
            Query::Catalog(_) => Outcome::Catalog(CatalogResponse {
                entries: catalog().to_vec(),
            }),
        })
    }

    /// Starts a streaming evaluation of a [`Query::Grid`]-shaped request —
    /// the bounded-memory sibling of the buffered `Query::Grid` arm in
    /// [`Engine::run`]. The caller pulls row-blocks with
    /// [`GridStream::next_block`]; every ratio and the final
    /// `fpga_winning_fraction` are bit-identical to the buffered outcome.
    ///
    /// # Errors
    ///
    /// Same compile/validation conditions as the buffered grid; per-point
    /// model errors surface from [`GridStream::next_block`].
    pub fn grid_stream(&self, request: &GridRequest) -> Result<GridStream, ApiError> {
        request.validate()?;
        let compiled = self.compiled(&request.scenario)?;
        let (x_values, y_values) = request.lattice();
        Ok(compiled.grid_stream(
            request.x_axis,
            x_values,
            request.y_axis,
            y_values,
            request.base,
            self.config.eval_threads,
        )?)
    }

    /// Scenario-cache occupancy and lifetime hit/miss counters.
    pub fn cache_metrics(&self) -> CacheShardMetrics {
        let cache = self.cache.lock().expect("scenario cache poisoned");
        CacheShardMetrics {
            entries: cache.entries.len() as u64,
            hits: cache.hits,
            misses: cache.misses,
        }
    }

    /// Submits a job to the persistent worker pool, spawning the pool on
    /// first use. Returns `false` after [`Engine::join_workers`].
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let mut slot = self.pool.lock().expect("engine pool poisoned");
        if slot.closed {
            return false;
        }
        let workers = self.config.workers;
        slot.pool
            .get_or_insert_with(|| exec::WorkerPool::new(workers))
            .execute(job)
    }

    /// Jobs accepted by the pool and not yet claimed by a worker (`0`
    /// before the pool has spawned).
    pub fn queue_depth(&self) -> usize {
        self.pool
            .lock()
            .expect("engine pool poisoned")
            .pool
            .as_ref()
            .map_or(0, exec::WorkerPool::queue_depth)
    }

    /// Drains queued jobs and joins every pool worker. Jobs submitted
    /// afterwards are rejected. Idempotent; a no-op when the pool never
    /// spawned.
    pub fn join_workers(&self) {
        let pool = {
            let mut slot = self.pool.lock().expect("engine pool poisoned");
            slot.closed = true;
            slot.pool.take()
        };
        // Dropped outside the lock: the drop drains and joins, and a
        // worker's job might call back into the engine.
        drop(pool);
    }
}

/// Resolves a [`ScenarioRef`] in front of the compiled cache: inline
/// specs pass through untouched; catalog ids resolve to the cataloged
/// spec with any request overrides appended after the cataloged knob
/// list (so they win, like later inline overrides do), stamping a
/// `catalog_resolve` span whose `aux` is the entry's catalog index.
///
/// The resolved spec keys the compiled cache exactly like an inline
/// spec, so repeated traffic for the same catalog id is compile-free
/// after its first miss.
fn resolve_scenario(
    scenario: &ScenarioRef,
) -> Result<(Option<&'static CatalogEntry>, ScenarioSpec), ApiError> {
    match scenario {
        ScenarioRef::Inline(spec) => Ok((None, spec.clone())),
        ScenarioRef::Catalog { id, knobs } => {
            let Some((index, entry)) = catalog_entry(id) else {
                return Err(ApiError::not_found(format!(
                    "unknown catalog scenario '{id}'"
                )));
            };
            gf_trace::record_event(gf_trace::SpanName::CatalogResolve, index as u64);
            let mut spec = entry.scenario.clone();
            spec.knobs.extend(knobs.iter().copied());
            Ok((Some(entry), spec))
        }
    }
}

/// The operating point a scenario/replay request runs at: the explicit
/// request point, else the catalog entry's default, else the paper
/// default (inline specs without a point).
fn resolved_point(
    explicit: Option<OperatingPoint>,
    entry: Option<&CatalogEntry>,
) -> OperatingPoint {
    explicit.unwrap_or_else(|| entry.map_or_else(OperatingPoint::paper_default, |e| e.point))
}

/// The [`Query::Industry`] body: every Table 3 device under the requested
/// deployment scenario, FPGAs first — the same evaluations the paper's
/// Figs. 10–11 plot.
fn run_industry(request: &IndustryRequest) -> Result<IndustryResponse, GreenFpgaError> {
    let mut params = EstimatorParams::paper_defaults();
    for &(knob, value) in &request.knobs {
        knob.apply_mut(&mut params, value);
    }
    let estimator = Estimator::new(params);
    let scenario = IndustryScenario {
        service_years: request.service_years,
        fpga_applications: request.fpga_applications,
        volume: request.volume,
        ..IndustryScenario::paper_defaults()
    };
    let mut devices = Vec::with_capacity(4);
    for fpga in [industry_fpga1(), industry_fpga2()] {
        devices.push(IndustryDeviceReport {
            device: fpga.chip().name().to_string(),
            platform: PlatformKind::Fpga,
            cfp: scenario.evaluate_fpga(&estimator, &fpga)?,
        });
    }
    for asic in [industry_asic1(), industry_asic2()] {
        devices.push(IndustryDeviceReport {
            device: asic.chip().name().to_string(),
            platform: PlatformKind::Asic,
            cfp: scenario.evaluate_asic(&estimator, &asic)?,
        });
    }
    Ok(IndustryResponse { devices })
}

/// One cache slot: the canonical key plus the compiled scenario.
struct Entry {
    key: Key,
    compiled: CompiledScenario,
}

/// Canonical scenario key: the domain index plus the knob overrides in
/// application order, with each value keyed by its exact bit pattern (so
/// `-0.0` and `0.0`, or two NaN payloads, never alias).
type Key = (usize, Vec<(u8, u64)>);

fn key_of(spec: &ScenarioSpec) -> Key {
    let domain = crate::Domain::ALL
        .iter()
        .position(|d| *d == spec.domain)
        .expect("every domain is listed in Domain::ALL");
    let knobs = spec
        .knobs
        .iter()
        .map(|&(knob, value)| {
            let index = crate::Knob::ALL
                .iter()
                .position(|k| *k == knob)
                .expect("every knob is listed in Knob::ALL");
            (index as u8, value.to_bits())
        })
        .collect();
    (domain, knobs)
}

/// The engine's scenario cache: a keyed LRU of compiled scenarios.
/// Templates for every domain are resolved once at construction, so even a
/// cache miss pays only the pure-arithmetic [`ScenarioTemplate::compile`],
/// never spec rebuilding. The cache is a plain move-to-front vector: at
/// serving capacities (dozens of distinct scenarios) a linear scan of
/// small keys beats hashing, and [`CompiledScenario`] is `Copy`, so a hit
/// clones nothing and the lock is held only for the scan.
struct ScenarioCache {
    templates: Vec<ScenarioTemplate>,
    entries: Vec<Entry>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl ScenarioCache {
    /// Builds the cache and pre-resolves every domain template.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] for a zero `capacity` — a
    /// cache that can hold nothing is always a caller bug, and silently
    /// clamping it up would mask it. Also propagates calibration errors;
    /// the built-in calibrations never trigger them.
    fn new(capacity: usize) -> Result<Self, GreenFpgaError> {
        if capacity == 0 {
            return Err(GreenFpgaError::InvalidRange {
                what: "scenario cache capacity (must be at least 1)",
            });
        }
        let templates = crate::Domain::ALL
            .iter()
            .map(|&domain| ScenarioTemplate::new(domain))
            .collect::<Result<_, _>>()?;
        Ok(ScenarioCache {
            templates,
            entries: Vec::new(),
            capacity,
            hits: 0,
            misses: 0,
        })
    }

    /// The compiled scenario for a spec, compiled and inserted on a miss.
    fn lookup(&mut self, spec: &ScenarioSpec) -> Result<CompiledScenario, GreenFpgaError> {
        let key = key_of(spec);
        if let Some(position) = self.entries.iter().position(|entry| entry.key == key) {
            self.hits += 1;
            // Move to front: position 0 is most recently used.
            let entry = self.entries.remove(position);
            let compiled = entry.compiled;
            self.entries.insert(0, entry);
            return Ok(compiled);
        }
        self.misses += 1;
        let compiled = self.templates[key.0].compile(&spec.params())?;
        if self.entries.len() >= self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, Entry { key, compiled });
        Ok(compiled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, Knob, OperatingPoint};

    fn spec(domain: Domain, knobs: &[(Knob, f64)]) -> ScenarioSpec {
        ScenarioSpec {
            domain,
            knobs: knobs.to_vec(),
        }
    }

    impl ScenarioCache {
        fn len(&self) -> usize {
            self.entries.len()
        }

        fn stats(&self) -> (u64, u64) {
            (self.hits, self.misses)
        }
    }

    fn engine_with_capacity(cache_capacity: usize) -> Engine {
        Engine::new(EngineConfig {
            cache_capacity,
            ..EngineConfig::default()
        })
        .unwrap()
    }

    /// `(entries, hits, misses)` of an engine's cache.
    fn counts(engine: &Engine) -> (u64, u64, u64) {
        let metrics = engine.cache_metrics();
        (metrics.entries, metrics.hits, metrics.misses)
    }

    #[test]
    fn hit_returns_the_same_compilation() {
        let mut cache = ScenarioCache::new(8).unwrap();
        let spec = spec(Domain::Dnn, &[(Knob::DutyCycle, 0.4)]);
        let first = cache.lookup(&spec).unwrap();
        let second = cache.lookup(&spec).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
        // And the compilation matches a from-scratch estimator.
        let direct = Estimator::new(spec.params()).compile(Domain::Dnn).unwrap();
        assert_eq!(
            first.evaluate(OperatingPoint::paper_default()).unwrap(),
            direct.evaluate(OperatingPoint::paper_default()).unwrap()
        );
    }

    #[test]
    fn distinct_knob_values_get_distinct_entries() {
        let mut cache = ScenarioCache::new(8).unwrap();
        let a = cache
            .lookup(&spec(Domain::Dnn, &[(Knob::DutyCycle, 0.1)]))
            .unwrap();
        let b = cache
            .lookup(&spec(Domain::Dnn, &[(Knob::DutyCycle, 0.6)]))
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (0, 2));
        // Same spec via a different f64 with identical bits hits.
        cache
            .lookup(&spec(Domain::Dnn, &[(Knob::DutyCycle, 0.1)]))
            .unwrap();
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut cache = ScenarioCache::new(2).unwrap();
        let a = spec(Domain::Dnn, &[]);
        let b = spec(Domain::Crypto, &[]);
        let c = spec(Domain::ImageProcessing, &[]);
        cache.lookup(&a).unwrap();
        cache.lookup(&b).unwrap();
        cache.lookup(&a).unwrap(); // a is now most recent
        cache.lookup(&c).unwrap(); // evicts b
        assert_eq!(cache.len(), 2);
        cache.lookup(&a).unwrap();
        assert_eq!(cache.stats().0, 2, "a stayed cached");
        cache.lookup(&b).unwrap();
        assert_eq!(cache.stats().1, 4, "b was evicted and recompiled");
    }

    #[test]
    fn zero_capacity_is_rejected_not_coerced() {
        assert!(matches!(
            ScenarioCache::new(0),
            Err(GreenFpgaError::InvalidRange { .. })
        ));
        // The same contract surfaces through the engine as an ApiError.
        let error = Engine::new(EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        })
        .unwrap_err();
        assert_eq!(error.code, crate::ApiErrorCode::Model);
    }

    #[test]
    fn engine_lookup_matches_direct_compilation_and_counts() {
        let engine = engine_with_capacity(64);
        let spec = spec(Domain::Dnn, &[(Knob::DutyCycle, 0.4)]);
        let first = engine.compiled(&spec).unwrap();
        let second = engine.compiled(&spec).unwrap();
        assert_eq!(first, second, "the second lookup hits");
        assert_eq!(counts(&engine), (1, 1, 1));
        let direct = Estimator::new(spec.params()).compile(Domain::Dnn).unwrap();
        assert_eq!(
            first.evaluate(OperatingPoint::paper_default()).unwrap(),
            direct.evaluate(OperatingPoint::paper_default()).unwrap()
        );
    }

    #[test]
    fn capacity_bounds_entries_across_every_domain() {
        // Capacity 2 over three domains: the engine cache holds two, and
        // the most recent one still hits.
        let engine = engine_with_capacity(2);
        for domain in Domain::ALL {
            engine.compiled(&spec(domain, &[])).unwrap();
        }
        assert_eq!(counts(&engine), (2, 0, Domain::ALL.len() as u64));
        let last = Domain::ALL[Domain::ALL.len() - 1];
        engine.compiled(&spec(last, &[])).unwrap();
        assert_eq!(counts(&engine), (2, 1, Domain::ALL.len() as u64));
    }

    #[test]
    fn concurrent_hammering_keeps_stats_consistent() {
        let engine = engine_with_capacity(64);
        let threads = 8;
        let rounds = 50;
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let engine = &engine;
                scope.spawn(move || {
                    for round in 0..rounds {
                        let domain = Domain::ALL[(worker + round) % Domain::ALL.len()];
                        let duty = 0.1 + 0.1 * ((worker + round) % 5) as f64;
                        let spec = spec(domain, &[(Knob::DutyCycle, duty)]);
                        engine.compiled(&spec).unwrap();
                    }
                });
            }
        });
        let (entries, hits, misses) = counts(&engine);
        assert_eq!(
            hits + misses,
            (threads * rounds) as u64,
            "every lookup is counted exactly once"
        );
        // 3 domains x 5 duty cycles = 15 distinct scenarios, each compiled
        // exactly once: a miss compiles under the lock.
        assert!(misses <= 15, "misses {misses} exceed the distinct specs");
        assert_eq!(entries, misses);
    }

    #[test]
    fn knob_order_is_part_of_the_key() {
        // apply order matters semantically (later overrides win), so the
        // cache must not conflate permutations.
        let mut cache = ScenarioCache::new(8).unwrap();
        cache
            .lookup(&spec(
                Domain::Dnn,
                &[(Knob::DutyCycle, 0.1), (Knob::DutyCycle, 0.5)],
            ))
            .unwrap();
        cache
            .lookup(&spec(
                Domain::Dnn,
                &[(Knob::DutyCycle, 0.5), (Knob::DutyCycle, 0.1)],
            ))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn engine_cache_counts_surface_through_metrics() {
        let engine = Engine::with_defaults().unwrap();
        let spec = ScenarioSpec::baseline(Domain::Dnn);
        for _ in 0..3 {
            engine.compiled(&spec).unwrap();
        }
        assert_eq!(counts(&engine), (1, 2, 1));
    }

    #[test]
    fn worker_pool_spawns_lazily_and_joins_idempotently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let engine = Engine::with_defaults().unwrap();
        assert_eq!(engine.queue_depth(), 0, "no pool before the first job");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            assert!(engine.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        engine.join_workers();
        assert_eq!(counter.load(Ordering::SeqCst), 16, "drained before join");
        assert!(!engine.execute(|| {}), "closed engines reject jobs");
        engine.join_workers(); // idempotent
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }
}
