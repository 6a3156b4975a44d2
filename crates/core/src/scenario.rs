//! The first-class scenario layer: named catalog, time-series carbon
//! replay, scored verdicts — plus the paper's long-horizon evaluation
//! beyond the chip lifetime (Fig. 9).
//!
//! Three pieces make scenarios addressable instead of inline request
//! leaves:
//!
//! * [`catalog`] — a closed registry of named, documented stress
//!   scenarios (per-domain baselines, fleet deployments, adversarial
//!   worst-case packs) that the serving tier resolves by id.
//! * [`CarbonIntensitySeries`] — a time-varying grid carbon intensity
//!   (region presets or user-supplied points) replayed step by step on
//!   the operational-carbon path, where every other query uses one
//!   scalar intensity.
//! * [`Verdict`] — a weighted penalty score over a scenario's ratio
//!   trajectory, so outcomes rank on one number.
//!
//! The paper's experiment E ([`LongHorizonScenario`]) extends the
//! evaluation window past the FPGA's physical lifetime (15 years): when
//! the window exceeds the chip lifetime a *new* FPGA fleet must be
//! manufactured, so the cumulative FPGA footprint jumps at the 15- and
//! 30-year marks. The ASIC curve shows no such jump because a new ASIC
//! is built per application anyway.

use std::sync::OnceLock;

use gf_units::{Carbon, ChipCount, GateCount, TimeSpan};

use crate::{
    Application, CompiledScenario, Domain, Estimator, GreenFpgaError, Knob, OperatingPoint,
    PlatformComparison, ScenarioSpec,
};

/// One yearly sample of the long-horizon scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongHorizonPoint {
    /// Years since the start of the evaluation (1-based: the sample covers
    /// everything up to and including this year).
    pub year: u64,
    /// Cumulative FPGA-platform footprint.
    pub fpga_cumulative: Carbon,
    /// Cumulative ASIC-platform footprint.
    pub asic_cumulative: Carbon,
    /// Number of FPGA fleets manufactured so far (1 + replacements).
    pub fpga_fleets_built: u64,
}

impl LongHorizonPoint {
    /// FPGA cumulative footprint divided by the ASIC's.
    pub fn ratio(&self) -> f64 {
        self.fpga_cumulative
            .ratio_to(self.asic_cumulative)
            .unwrap_or(f64::INFINITY)
    }
}

/// A multi-decade deployment: one new application per application lifetime,
/// with the FPGA fleet replaced every chip lifetime.
///
/// # Examples
///
/// ```
/// use greenfpga::{Domain, Estimator, LongHorizonScenario};
///
/// let scenario = LongHorizonScenario::paper_fig9(Domain::Dnn);
/// let series = scenario.run(&Estimator::default())?;
/// assert_eq!(series.len(), 40);
/// // Cumulative footprints never decrease.
/// assert!(series.windows(2).all(|w| w[1].fpga_cumulative >= w[0].fpga_cumulative));
/// # Ok::<(), greenfpga::GreenFpgaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongHorizonScenario {
    /// Application domain evaluated.
    pub domain: Domain,
    /// Total evaluation window in whole years.
    pub evaluation_years: u64,
    /// Lifetime of each application in whole years (the paper uses 1 year).
    pub application_lifetime_years: u64,
    /// Deployment volume of every application.
    pub volume: u64,
}

impl LongHorizonScenario {
    /// The paper's Fig. 9 setup: a 40-year window, 1-year applications, one
    /// million devices, FPGA chip lifetime taken from the estimator
    /// parameters (15 years by default).
    pub fn paper_fig9(domain: Domain) -> Self {
        LongHorizonScenario {
            domain,
            evaluation_years: 40,
            application_lifetime_years: 1,
            volume: 1_000_000,
        }
    }

    /// Runs the scenario, producing one cumulative sample per year.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] when the evaluation window
    /// or application lifetime is zero, and propagates model errors.
    pub fn run(&self, estimator: &Estimator) -> Result<Vec<LongHorizonPoint>, GreenFpgaError> {
        if self.evaluation_years == 0 {
            return Err(GreenFpgaError::InvalidRange {
                what: "evaluation years",
            });
        }
        if self.application_lifetime_years == 0 {
            return Err(GreenFpgaError::InvalidRange {
                what: "application lifetime",
            });
        }
        let calibration = self.domain.calibration();
        let fpga = calibration.fpga_spec()?;
        let asic = calibration.asic_spec()?;
        let chip_lifetime_years = estimator
            .params()
            .fpga_chip_lifetime()
            .as_years()
            .max(1.0)
            .round() as u64;

        let one_year_app = |index: u64| -> Result<Application, GreenFpgaError> {
            Application::new(
                format!("{}-year-{index}", self.domain),
                calibration.reference_asic_gates(),
                TimeSpan::from_years(1.0),
                ChipCount::new(self.volume),
            )
        };

        let fleet_chips = self.volume
            * fpga.fpgas_for_application(GateCount::new(calibration.reference_asic_gates().get()));
        let fpga_fleet_embodied = estimator
            .fpga_embodied(&fpga, &calibration.fpga_staffing, fleet_chips)?
            .total();

        let mut points = Vec::with_capacity(self.evaluation_years as usize);
        let mut fpga_cumulative = Carbon::ZERO;
        let mut asic_cumulative = Carbon::ZERO;
        let mut fleets_built = 0u64;

        for year in 1..=self.evaluation_years {
            // A new FPGA fleet is needed in year 1 and whenever the previous
            // fleet has reached the end of its physical lifetime.
            if (year - 1) % chip_lifetime_years == 0 {
                fpga_cumulative += fpga_fleet_embodied;
                fleets_built += 1;
            }

            // One year of deployment. A new application starts every
            // `application_lifetime_years`; the ASIC platform then pays a
            // fresh embodied cost, the FPGA platform only a reconfiguration.
            let app = one_year_app(year)?;
            if (year - 1) % self.application_lifetime_years == 0 {
                asic_cumulative += estimator
                    .asic_embodied_for(&asic, &calibration.asic_staffing, &app)?
                    .total();
                fpga_cumulative += estimator.fpga_deployment_for(&fpga, &app)?.app_dev;
            }
            fpga_cumulative += estimator.fpga_deployment_for(&fpga, &app)?.operation;
            asic_cumulative += estimator.asic_deployment_for(&asic, &app)?.total();

            points.push(LongHorizonPoint {
                year,
                fpga_cumulative,
                asic_cumulative,
                fpga_fleets_built: fleets_built,
            });
        }
        Ok(points)
    }
}

// ---------------------------------------------------------------------------
// Named scenario catalog
// ---------------------------------------------------------------------------

/// One named, documented entry of the scenario [`catalog`].
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// Stable wire id (`snake_case`); catalog requests resolve by it.
    pub id: &'static str,
    /// One-line human title.
    pub title: &'static str,
    /// What the scenario stresses and why it is in the catalog.
    pub description: &'static str,
    /// The concrete scenario the id resolves to.
    pub scenario: ScenarioSpec,
    /// The operating point the scenario is evaluated at.
    pub point: OperatingPoint,
}

#[allow(clippy::too_many_arguments)]
fn entry(
    id: &'static str,
    title: &'static str,
    description: &'static str,
    domain: Domain,
    knobs: Vec<(Knob, f64)>,
    applications: u64,
    lifetime_years: f64,
    volume: u64,
) -> CatalogEntry {
    CatalogEntry {
        id,
        title,
        description,
        scenario: ScenarioSpec { domain, knobs },
        point: OperatingPoint {
            applications,
            lifetime_years,
            volume,
        },
    }
}

/// The closed registry of named scenarios, in stable order: per-domain
/// paper baselines, fleet deployments over a refresh horizon, and
/// adversarial worst-case packs for each platform.
///
/// Every id is servable via `POST /v1/scenario` and `greenfpga scenarios
/// run <id>`; the engine keys its compiled-scenario cache by the resolved
/// spec, so repeated catalog traffic is compile-free.
pub fn catalog() -> &'static [CatalogEntry] {
    static CATALOG: OnceLock<Vec<CatalogEntry>> = OnceLock::new();
    CATALOG.get_or_init(|| {
        vec![
            // Per-domain paper baselines.
            entry(
                "dnn_baseline",
                "DNN paper baseline",
                "Table 1 defaults for the DNN domain at the paper's operating point.",
                Domain::Dnn,
                vec![],
                5,
                2.0,
                1_000_000,
            ),
            entry(
                "imgproc_baseline",
                "Image-processing paper baseline",
                "Table 1 defaults for the image-processing domain at the paper's operating point.",
                Domain::ImageProcessing,
                vec![],
                5,
                2.0,
                1_000_000,
            ),
            entry(
                "crypto_baseline",
                "Crypto paper baseline",
                "Table 1 defaults for the crypto domain at the paper's operating point.",
                Domain::Crypto,
                vec![],
                5,
                2.0,
                1_000_000,
            ),
            // Fleet scenarios: N devices over a refresh horizon.
            entry(
                "dnn_fleet_10k_3y",
                "DNN edge fleet, 10k devices, 3-year refresh",
                "A moderate edge-inference fleet refreshed every three years at elevated duty.",
                Domain::Dnn,
                vec![(Knob::DutyCycle, 0.35)],
                3,
                3.0,
                10_000,
            ),
            entry(
                "imgproc_fleet_100k_2y",
                "Image-processing fleet, 100k devices, 2-year refresh",
                "A camera-pipeline fleet with four successive applications on a two-year cycle.",
                Domain::ImageProcessing,
                vec![(Knob::DutyCycle, 0.25)],
                4,
                2.0,
                100_000,
            ),
            entry(
                "crypto_fleet_1m_5y",
                "Crypto fleet, 1M devices, 5-year refresh",
                "A long-lived million-device crypto fleet amortizing embodied carbon slowly.",
                Domain::Crypto,
                vec![(Knob::DutyCycle, 0.3)],
                5,
                5.0,
                1_000_000,
            ),
            entry(
                "dnn_hyperscale_10m_4y",
                "DNN hyperscale, 10M devices, 4-year refresh",
                "A hyperscale deployment on a mid-carbon grid with high utilization.",
                Domain::Dnn,
                vec![(Knob::DutyCycle, 0.5), (Knob::UsageGridIntensity, 450.0)],
                8,
                4.0,
                10_000_000,
            ),
            // Adversarial packs: the worst realistic corner for each platform.
            entry(
                "fpga_worst_dirty_grid",
                "FPGA worst case: dirty grid, hot duty",
                "Maximum duty on a coal-heavy grid — the FPGA's power premium compounds hardest.",
                Domain::Dnn,
                vec![(Knob::DutyCycle, 0.6), (Knob::UsageGridIntensity, 700.0)],
                2,
                5.0,
                1_000_000,
            ),
            entry(
                "fpga_worst_single_app",
                "FPGA worst case: single application",
                "One application only, removing the reuse advantage reconfigurability pays for.",
                Domain::ImageProcessing,
                vec![],
                1,
                2.0,
                1_000_000,
            ),
            entry(
                "asic_worst_many_apps",
                "ASIC worst case: many short applications",
                "Sixteen one-year applications — a fresh ASIC tapeout per application.",
                Domain::ImageProcessing,
                vec![],
                16,
                1.0,
                50_000,
            ),
            entry(
                "asic_worst_clean_grid",
                "ASIC worst case: clean grid, light duty",
                "Hydro-grade grid at minimum duty — operation vanishes and embodied carbon rules.",
                Domain::Crypto,
                vec![(Knob::DutyCycle, 0.1), (Knob::UsageGridIntensity, 30.0)],
                10,
                2.0,
                100_000,
            ),
            // Decarbonization-trajectory scenarios.
            entry(
                "dnn_green_grid_refresh",
                "DNN fleet on a decarbonizing grid",
                "Clean usage and fab grids with circular-economy credits on both ends of life.",
                Domain::Dnn,
                vec![
                    (Knob::UsageGridIntensity, 50.0),
                    (Knob::FabGridIntensity, 100.0),
                    (Knob::RecycledMaterialFraction, 0.3),
                    (Knob::EolRecycledFraction, 0.3),
                ],
                5,
                2.0,
                1_000_000,
            ),
            entry(
                "crypto_low_duty_edge",
                "Crypto edge nodes at minimum duty",
                "A small intermittent edge fleet where per-device embodied carbon dominates.",
                Domain::Crypto,
                vec![(Knob::DutyCycle, 0.05)],
                2,
                4.0,
                1_000,
            ),
            entry(
                "imgproc_long_lifetime",
                "Image processing at maximum chip lifetime",
                "The FPGA fleet kept in service to the physical limit of its chip lifetime.",
                Domain::ImageProcessing,
                vec![(Knob::FpgaChipLifetimeYears, 15.0)],
                7,
                2.0,
                500_000,
            ),
        ]
    })
}

/// Resolves a catalog id to its index and entry; `None` for unknown ids.
pub fn catalog_entry(id: &str) -> Option<(usize, &'static CatalogEntry)> {
    catalog().iter().enumerate().find(|(_, e)| e.id == id)
}

// ---------------------------------------------------------------------------
// Time-series carbon intensity
// ---------------------------------------------------------------------------

/// Steps per year at hourly resolution — the canonical replay length.
pub const HOURS_PER_YEAR: usize = 8760;

/// A time-varying grid carbon intensity: an ordered series of g CO₂e/kWh
/// samples at a fixed step width, replayed on the operational-carbon path
/// where every other query uses one scalar intensity.
///
/// Construction validates the series (no NaN, no negatives, non-empty,
/// positive finite step) so a held value is always replayable.
#[derive(Debug, Clone, PartialEq)]
pub struct CarbonIntensitySeries {
    points: Vec<f64>,
    step_hours: f64,
}

impl CarbonIntensitySeries {
    /// The region-preset ids accepted by [`CarbonIntensitySeries::region`],
    /// in stable order.
    pub const REGIONS: [&'static str; 4] =
        ["global_flat", "clean_hydro", "dirty_coal", "solar_duck"];

    /// Builds a series from explicit samples.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidApplication`] when the series is
    /// empty, any sample is NaN / non-finite / negative, or the step width
    /// is not positive and finite.
    pub fn new(points: Vec<f64>, step_hours: f64) -> Result<Self, GreenFpgaError> {
        if points.is_empty() {
            return Err(GreenFpgaError::InvalidApplication {
                field: "series",
                reason: "intensity series must contain at least one point".to_string(),
            });
        }
        if !step_hours.is_finite() || step_hours <= 0.0 {
            return Err(GreenFpgaError::InvalidApplication {
                field: "series",
                reason: format!("step_hours must be positive and finite, got {step_hours}"),
            });
        }
        if let Some((index, bad)) = points
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite() || **v < 0.0)
        {
            return Err(GreenFpgaError::InvalidApplication {
                field: "series",
                reason: format!(
                    "intensity series point {index} must be finite and non-negative, got {bad}"
                ),
            });
        }
        Ok(CarbonIntensitySeries { points, step_hours })
    }

    /// A deterministic 8760-point hourly year for a named region preset:
    /// `global_flat` (the world-average constant), `clean_hydro` (low and
    /// mildly seasonal), `dirty_coal` (high with an evening peak), or
    /// `solar_duck` (midday solar trough). `None` for unknown names. Each
    /// preset is built once, on its first lookup, and shared after that.
    pub fn region(name: &str) -> Option<&'static CarbonIntensitySeries> {
        static PRESETS: [OnceLock<CarbonIntensitySeries>; 4] = [const { OnceLock::new() }; 4];
        let (index, shape): (usize, fn(f64, f64) -> f64) = match name {
            "global_flat" => (0, |_, _| 475.0),
            "clean_hydro" => (1, |day, _| 50.0 + 15.0 * season(day)),
            "dirty_coal" => (2, |day, hour| {
                650.0 + 40.0 * season(day) + 30.0 * peak(hour, 18.0)
            }),
            "solar_duck" => (3, |day, hour| {
                400.0 + 50.0 * season(day) - 250.0 * peak(hour, 12.0)
            }),
            _ => return None,
        };
        Some(PRESETS[index].get_or_init(|| {
            CarbonIntensitySeries {
                points: (0..HOURS_PER_YEAR)
                    .map(|h| shape((h / 24) as f64, (h % 24) as f64).max(1.0))
                    .collect(),
                step_hours: 1.0,
            }
        }))
    }

    /// Stitches the series end-to-end `years` times: a one-year region
    /// preset becomes a multi-year trace with the same step width.
    /// `repeat(1)` is the identity.
    ///
    /// Replays do not need the copy:
    /// [`CarbonIntensitySeries::replay_years`] walks the one-year series
    /// `years` times and matches a replay of the stitched series bit for
    /// bit. This stays for callers that want the samples themselves, such
    /// as servebench's layer attribution (`servebench/src/layers.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidApplication`] when `years` is zero
    /// or the stitched series would exceed [`usize::MAX`] samples.
    pub fn repeat(&self, years: u64) -> Result<Self, GreenFpgaError> {
        if years == 0 {
            return Err(GreenFpgaError::InvalidApplication {
                field: "series",
                reason: "series repetition count must be at least 1".to_string(),
            });
        }
        if years == 1 {
            return Ok(self.clone());
        }
        let repeats = usize::try_from(years)
            .ok()
            .and_then(|y| self.points.len().checked_mul(y))
            .ok_or_else(|| GreenFpgaError::InvalidApplication {
                field: "series",
                reason: format!("stitching {years} copies overflows the series length"),
            })?;
        let mut points = Vec::with_capacity(repeats);
        for _ in 0..years {
            points.extend_from_slice(&self.points);
        }
        Ok(CarbonIntensitySeries {
            points,
            step_hours: self.step_hours,
        })
    }

    /// Number of samples in the series.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false`: construction rejects empty series.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Step width in hours.
    pub fn step_hours(&self) -> f64 {
        self.step_hours
    }

    /// The raw samples (g CO₂e/kWh).
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Mean intensity over the whole series (g CO₂e/kWh).
    pub fn mean(&self) -> f64 {
        self.points.iter().sum::<f64>() / self.points.len() as f64
    }

    /// The intensity applied over step `index` (g CO₂e/kWh). Stepwise
    /// lookup holds the sample flat across its step; interpolated lookup
    /// averages the step's two bounding samples (trapezoidal, wrapping at
    /// the series end).
    pub fn sample(&self, index: usize, interpolate: bool) -> f64 {
        let here = self.points[index % self.points.len()];
        if interpolate {
            let next = self.points[(index + 1) % self.points.len()];
            0.5 * (here + next)
        } else {
            here
        }
    }

    /// Replays a compiled scenario against this series: embodied,
    /// design and app-dev carbon are paid up front exactly as the scalar
    /// path computes them, then each platform accrues per-step operation
    /// `applications × devices × average-power × step × intensity(step)`
    /// — the same factors as [`CompiledScenario::evaluate`], with the
    /// scalar `lifetime × grid` product replaced by the series integral.
    /// The steps run in series order on one thread, so the result does not
    /// depend on engine thread counts.
    ///
    /// # Errors
    ///
    /// Returns the scalar path's validation errors for a degenerate
    /// operating point (zero applications or volume, bad lifetime).
    pub fn replay(
        &self,
        compiled: &CompiledScenario,
        point: OperatingPoint,
        interpolate: bool,
    ) -> Result<ReplayOutcome, GreenFpgaError> {
        self.replay_years(compiled, point, interpolate, 1)
    }

    /// [`CarbonIntensitySeries::replay`] over `years` back-to-back copies
    /// of the series, without building them: step `i` samples the series
    /// at `i` modulo its length, which is what the stitched series
    /// ([`CarbonIntensitySeries::repeat`]) holds at `i`, interpolation's
    /// wrap at the end included.
    ///
    /// The series is walked in blocks of 256 steps. A block
    /// first converts its samples to kg/kWh ([`CarbonIntensitySeries::sample`]
    /// ÷ 1000) in a loop free of wraps and loop-carried values, which the
    /// compiler vectorizes; then one pass accrues both totals and the ratio
    /// statistics step by step, in series order. The only per-step division
    /// left in that pass is the ratio itself. The block buffer lives on the
    /// stack: a replay allocates nothing, whatever its length or `years`.
    ///
    /// The running maxima are compare-selects (`if ratio > worst`), not
    /// `f64::max` chains, and the worst excess over parity is taken once
    /// from the worst ratio. Both give `f64::max`'s bits on every replay
    /// that succeeds:
    ///
    /// * no ratio is NaN there: a NaN ratio makes the ratio sum NaN, and a
    ///   non-finite mean ratio is an error;
    /// * no tie between `+0.0` and `−0.0` arises, the one case where the
    ///   two forms may pick different bits. A `−0.0` ratio needs a
    ///   non-positive FPGA total, and the FPGA total never falls below its
    ///   up-front base (the steps add non-negative carbon). That base is
    ///   positive whenever no grid intensity or energy input is negative,
    ///   as on every parameter set the knobs reach: per chip, the package
    ///   (0.15 kg + 0.1 kg/cm²) plus manufacturing's gas and material
    ///   terms (≥ 0.29 kg/cm²) outweigh the largest end-of-life credit
    ///   (15 t/t × (10 g + 12 g/cm²)), and design and development carbon
    ///   are not negative.
    ///
    /// The excess `max(ratio − 1, 0)` is monotone in the ratio and never
    /// `−0.0`, so its maximum is the excess of the worst ratio.
    ///
    /// # Errors
    ///
    /// [`GreenFpgaError::InvalidApplication`] when `years` is zero or the
    /// step count overflows `usize`, [`GreenFpgaError::NonFinite`] when a
    /// total or the mean ratio is not finite, plus the errors of
    /// [`CarbonIntensitySeries::replay`].
    pub fn replay_years(
        &self,
        compiled: &CompiledScenario,
        point: OperatingPoint,
        interpolate: bool,
        years: u64,
    ) -> Result<ReplayOutcome, GreenFpgaError> {
        let steps = usize::try_from(years)
            .ok()
            .filter(|&years| years > 0)
            .and_then(|years| self.points.len().checked_mul(years))
            .ok_or_else(|| GreenFpgaError::InvalidApplication {
                field: "series",
                reason: format!("cannot replay the series {years} times"),
            })?;
        let comparison = compiled.evaluate(point)?;
        let apps = point.applications as f64;
        let fpga_devices = (point.volume * compiled.fpga().chips_per_unit()) as f64;
        let asic_devices = point.volume as f64;
        // kWh drawn per step by the whole deployment, per platform.
        let fpga_kwh_per_step =
            apps * fpga_devices * compiled.fpga().average_power_kw() * self.step_hours;
        let asic_kwh_per_step =
            apps * asic_devices * compiled.asic().average_power_kw() * self.step_hours;
        let fpga_base = (comparison.fpga.total() - comparison.fpga.operation).as_kg();
        let asic_base = (comparison.asic.total() - comparison.asic.operation).as_kg();
        let fpga_embodied =
            (comparison.fpga.total() - comparison.fpga.operation - comparison.fpga.app_dev).as_kg();

        let mut fpga_total = fpga_base;
        let mut asic_total = asic_base;
        let mut ratio_sum = 0.0;
        let mut worst_ratio = f64::NEG_INFINITY;
        let mut excess_sum = 0.0;
        let mut losses = 0usize;
        let mut ratio = f64::INFINITY;
        let mut block = [0.0; REPLAY_BLOCK];
        // Year after year over the one series: the stitched copy holds the
        // same samples, and interpolation wraps at each year's end too.
        for _ in 0..years {
            for start in (0..self.points.len()).step_by(REPLAY_BLOCK) {
                for &kg_per_kwh in self.kg_per_kwh(start, interpolate, &mut block) {
                    fpga_total += fpga_kwh_per_step * kg_per_kwh;
                    asic_total += asic_kwh_per_step * kg_per_kwh;
                    ratio = if asic_total > 0.0 {
                        fpga_total / asic_total
                    } else {
                        f64::INFINITY
                    };
                    ratio_sum += ratio;
                    if ratio > worst_ratio {
                        worst_ratio = ratio;
                    }
                    excess_sum += excess_over_parity(ratio);
                    losses += usize::from(ratio > 1.0);
                }
            }
        }
        let step_count = steps as f64;
        // Finite totals and a finite mean ratio bound every other member.
        for (what, value) in [
            ("FPGA replay total", fpga_total),
            ("ASIC replay total", asic_total),
            ("mean replay ratio", ratio_sum / step_count),
        ] {
            if !value.is_finite() {
                return Err(GreenFpgaError::NonFinite {
                    what: format!("the {what}"),
                });
            }
        }
        let embodied_share = if fpga_total > 0.0 {
            (fpga_embodied / fpga_total).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let verdict = Verdict::from_penalties(
            excess_sum / step_count,
            excess_over_parity(worst_ratio),
            losses as f64 / step_count,
            embodied_share,
        );
        Ok(ReplayOutcome {
            steps: steps as u64,
            fpga_operational: Carbon::from_kg(fpga_total - fpga_base),
            asic_operational: Carbon::from_kg(asic_total - asic_base),
            fpga_total: Carbon::from_kg(fpga_total),
            asic_total: Carbon::from_kg(asic_total),
            mean_ratio: ratio_sum / step_count,
            worst_ratio,
            final_ratio: ratio,
            fpga_win_fraction: 1.0 - losses as f64 / step_count,
            verdict,
        })
    }

    /// Fills `block` with the kg/kWh intensities of the steps from `start`
    /// on, as many as fit before the series ends, and returns them: step
    /// `i`'s [`CarbonIntensitySeries::sample`] ÷ 1000. Only the last step
    /// of an interpolated series wraps, so the loop over the others has no
    /// index arithmetic.
    fn kg_per_kwh<'b>(
        &self,
        start: usize,
        interpolate: bool,
        block: &'b mut [f64; REPLAY_BLOCK],
    ) -> &'b [f64] {
        let points = &self.points;
        let end = points.len().min(start + REPLAY_BLOCK);
        let block = &mut block[..end - start];
        let here = &points[start..end];
        if interpolate {
            let next = &points[start + 1..points.len().min(end + 1)];
            for ((kg, here), next) in block.iter_mut().zip(here).zip(next) {
                *kg = 0.5 * (here + next) / 1000.0;
            }
            if end == points.len() {
                block[end - start - 1] = 0.5 * (points[end - 1] + points[0]) / 1000.0;
            }
        } else {
            for (kg, here) in block.iter_mut().zip(here) {
                *kg = here / 1000.0;
            }
        }
        block
    }
}

/// Steps per block of a replay ([`CarbonIntensitySeries::replay_years`]):
/// 2 KiB of kg/kWh intensities on the stack.
const REPLAY_BLOCK: usize = 256;

/// A ratio's excess over parity, `max(ratio − 1, 0)` (`0` for NaN, as
/// `f64::max` gives).
fn excess_over_parity(ratio: f64) -> f64 {
    let excess = ratio - 1.0;
    if excess > 0.0 {
        excess
    } else {
        0.0
    }
}

fn season(day: f64) -> f64 {
    (std::f64::consts::TAU * day / 365.0).cos()
}

fn peak(hour: f64, at: f64) -> f64 {
    (std::f64::consts::TAU * (hour - at) / 24.0).cos()
}

/// The summary a year replay produces: cumulative totals, the ratio
/// trajectory's statistics and the scored [`Verdict`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOutcome {
    /// Number of series steps replayed.
    pub steps: u64,
    /// FPGA operational carbon accrued over the series.
    pub fpga_operational: Carbon,
    /// ASIC operational carbon accrued over the series.
    pub asic_operational: Carbon,
    /// FPGA cumulative total at the end of the series.
    pub fpga_total: Carbon,
    /// ASIC cumulative total at the end of the series.
    pub asic_total: Carbon,
    /// Mean of the per-step cumulative FPGA:ASIC ratios.
    pub mean_ratio: f64,
    /// Worst (highest) per-step cumulative ratio.
    pub worst_ratio: f64,
    /// Ratio at the final step.
    pub final_ratio: f64,
    /// Fraction of steps where the FPGA was the greener platform.
    pub fpga_win_fraction: f64,
    /// The scored verdict over the trajectory.
    pub verdict: Verdict,
}

// ---------------------------------------------------------------------------
// Verdict scoring
// ---------------------------------------------------------------------------

/// A weighted penalty score over a scenario outcome; higher (closer to
/// zero) is better for the FPGA platform, and the all-clear outcome
/// scores exactly `0.0`.
///
/// `score = −(0.4·mean_excess + 0.3·worst_excess + 0.2·loss_fraction
/// + 0.1·embodied_share)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Mean FPGA excess over parity: average of `max(ratio − 1, 0)`.
    pub mean_excess: f64,
    /// Worst single-step excess over parity.
    pub worst_excess: f64,
    /// Fraction of steps where the FPGA lost (`ratio > 1`).
    pub loss_fraction: f64,
    /// FPGA embodied carbon (design + manufacturing + packaging + EOL)
    /// as a share of its final total — exposure to up-front carbon.
    pub embodied_share: f64,
    /// The combined score (≤ 0; `-inf` for an empty trajectory).
    pub score: f64,
}

impl Verdict {
    /// The penalty weights, in `(mean_excess, worst_excess,
    /// loss_fraction, embodied_share)` order.
    pub const WEIGHTS: [f64; 4] = [0.4, 0.3, 0.2, 0.1];

    /// Scores explicit penalty components.
    pub fn from_penalties(
        mean_excess: f64,
        worst_excess: f64,
        loss_fraction: f64,
        embodied_share: f64,
    ) -> Verdict {
        let [w_mean, w_worst, w_loss, w_embodied] = Verdict::WEIGHTS;
        Verdict {
            mean_excess,
            worst_excess,
            loss_fraction,
            embodied_share,
            score: -(w_mean * mean_excess
                + w_worst * worst_excess
                + w_loss * loss_fraction
                + w_embodied * embodied_share),
        }
    }

    /// Scores a ratio trajectory. An empty trajectory scores
    /// `f64::NEG_INFINITY` — no evidence, no credit.
    pub fn from_trajectory(ratios: &[f64], embodied_share: f64) -> Verdict {
        if ratios.is_empty() {
            return Verdict {
                mean_excess: 0.0,
                worst_excess: 0.0,
                loss_fraction: 0.0,
                embodied_share,
                score: f64::NEG_INFINITY,
            };
        }
        let excess = |r: &f64| (r - 1.0).max(0.0);
        let mean = ratios.iter().map(excess).sum::<f64>() / ratios.len() as f64;
        let worst = ratios.iter().map(excess).fold(0.0, f64::max);
        let losses = ratios.iter().filter(|r| **r > 1.0).count();
        Verdict::from_penalties(
            mean,
            worst,
            losses as f64 / ratios.len() as f64,
            embodied_share,
        )
    }

    /// Scores one scalar comparison — a single-step trajectory.
    pub fn from_comparison(comparison: &PlatformComparison) -> Verdict {
        let total = comparison.fpga.total().as_kg();
        let embodied =
            (comparison.fpga.total() - comparison.fpga.operation - comparison.fpga.app_dev).as_kg();
        let share = if total > 0.0 {
            (embodied / total).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Verdict::from_trajectory(&[comparison.fpga_to_asic_ratio()], share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EstimatorParams;
    use gf_support::SplitMix64;

    /// The replay as one serial loop over every step, sampling the series
    /// through [`CarbonIntensitySeries::sample`] with `f64::max` running
    /// maxima: the reference the blocked kernel must match bit for bit.
    fn reference_replay(
        series: &CarbonIntensitySeries,
        compiled: &CompiledScenario,
        point: OperatingPoint,
        interpolate: bool,
        years: u64,
    ) -> Result<ReplayOutcome, GreenFpgaError> {
        let steps = series.len() * years as usize;
        let comparison = compiled.evaluate(point)?;
        let apps = point.applications as f64;
        let fpga_devices = (point.volume * compiled.fpga().chips_per_unit()) as f64;
        let asic_devices = point.volume as f64;
        let fpga_kwh_per_hour = apps * fpga_devices * compiled.fpga().average_power_kw();
        let asic_kwh_per_hour = apps * asic_devices * compiled.asic().average_power_kw();
        let fpga_base = (comparison.fpga.total() - comparison.fpga.operation).as_kg();
        let asic_base = (comparison.asic.total() - comparison.asic.operation).as_kg();
        let fpga_embodied =
            (comparison.fpga.total() - comparison.fpga.operation - comparison.fpga.app_dev).as_kg();
        let mut fpga_total = fpga_base;
        let mut asic_total = asic_base;
        let mut ratio_sum = 0.0;
        let mut worst_ratio = f64::NEG_INFINITY;
        let mut excess_sum = 0.0;
        let mut worst_excess = 0.0f64;
        let mut losses = 0usize;
        let mut ratio = f64::INFINITY;
        for _ in 0..years {
            for step in 0..series.len() {
                let kg_per_kwh = series.sample(step, interpolate) / 1000.0;
                fpga_total += fpga_kwh_per_hour * series.step_hours() * kg_per_kwh;
                asic_total += asic_kwh_per_hour * series.step_hours() * kg_per_kwh;
                ratio = if asic_total > 0.0 {
                    fpga_total / asic_total
                } else {
                    f64::INFINITY
                };
                ratio_sum += ratio;
                worst_ratio = worst_ratio.max(ratio);
                let excess = (ratio - 1.0).max(0.0);
                excess_sum += excess;
                worst_excess = worst_excess.max(excess);
                if ratio > 1.0 {
                    losses += 1;
                }
            }
        }
        let step_count = steps as f64;
        for (what, value) in [
            ("FPGA replay total", fpga_total),
            ("ASIC replay total", asic_total),
            ("mean replay ratio", ratio_sum / step_count),
        ] {
            if !value.is_finite() {
                return Err(GreenFpgaError::NonFinite {
                    what: format!("the {what}"),
                });
            }
        }
        let embodied_share = if fpga_total > 0.0 {
            (fpga_embodied / fpga_total).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Ok(ReplayOutcome {
            steps: steps as u64,
            fpga_operational: Carbon::from_kg(fpga_total - fpga_base),
            asic_operational: Carbon::from_kg(asic_total - asic_base),
            fpga_total: Carbon::from_kg(fpga_total),
            asic_total: Carbon::from_kg(asic_total),
            mean_ratio: ratio_sum / step_count,
            worst_ratio,
            final_ratio: ratio,
            fpga_win_fraction: 1.0 - losses as f64 / step_count,
            verdict: Verdict::from_penalties(
                excess_sum / step_count,
                worst_excess,
                losses as f64 / step_count,
                embodied_share,
            ),
        })
    }

    /// One seeded inline series: hourly-ish samples across five decades,
    /// with exact zeros mixed in, an all-zero series now and then, and
    /// ~1e300 samples that overflow the totals.
    fn random_series(rng: &mut SplitMix64, len: usize) -> CarbonIntensitySeries {
        let shape = rng.gen_index(8);
        let points = (0..len)
            .map(|_| match shape {
                0 => 0.0,
                1 => rng.gen_range_f64(0.5, 2.0) * 1e300,
                _ if rng.gen_index(6) == 0 => 0.0,
                _ => 10f64.powf(rng.gen_range_f64(-1.0, 4.0)),
            })
            .collect();
        let step_hours = [1.0, 0.25, 3.0][rng.gen_index(3)];
        CarbonIntensitySeries::new(points, step_hours).unwrap()
    }

    /// A seeded compiled scenario: a random domain with random knob
    /// overrides, and a random operating point.
    fn random_scenario(rng: &mut SplitMix64) -> (CompiledScenario, OperatingPoint) {
        let mut params = EstimatorParams::paper_defaults();
        for knob in Knob::ALL {
            if rng.gen_bool() {
                let range = knob.range();
                knob.apply_mut(&mut params, rng.gen_range_f64(range.low, range.high));
            }
        }
        let domain = Domain::ALL[rng.gen_index(Domain::ALL.len())];
        // A huge deployment now and then, so ~1e300 samples overflow.
        let applications = if rng.gen_index(4) == 0 {
            1 << 40
        } else {
            rng.gen_range_u64(1, 40)
        };
        let point = OperatingPoint {
            applications,
            lifetime_years: rng.gen_range_f64(0.5, 6.0),
            volume: rng.gen_range_u64(1, 5_000_000),
        };
        (CompiledScenario::compile(&params, domain).unwrap(), point)
    }

    /// Runs `cases` seeded replays, kernel against reference, comparing
    /// every member's bits (or the error) through `Debug`, which tells
    /// `-0.0` from `0.0`. Returns how many replays failed.
    fn replay_differential(seed: u64, cases: usize) -> usize {
        let mut failed = 0;
        let mut rng = SplitMix64::new(seed);
        for case in 0..cases {
            let len = [1, 2, 24, 255, 256, 257, HOURS_PER_YEAR][rng.gen_index(7)];
            let series = random_series(&mut rng, len);
            let (compiled, point) = random_scenario(&mut rng);
            let years = rng.gen_range_u64(1, 4);
            for interpolate in [false, true] {
                let kernel = series.replay_years(&compiled, point, interpolate, years);
                let reference = reference_replay(&series, &compiled, point, interpolate, years);
                assert_eq!(
                    format!("{kernel:?}"),
                    format!("{reference:?}"),
                    "case {case}: len {len}, years {years}, interpolate {interpolate}"
                );
                failed += usize::from(kernel.is_err());
            }
        }
        failed
    }

    #[test]
    fn replay_matches_the_serial_reference_bit_for_bit() {
        let failed = replay_differential(0x5EED_0000_0029_0001, 48);
        assert!(failed > 0, "the seeded cases include overflowing series");
        // The region presets at every horizon the served route allows.
        let (compiled, point) = random_scenario(&mut SplitMix64::new(29));
        for name in CarbonIntensitySeries::REGIONS {
            let series = CarbonIntensitySeries::region(name).unwrap();
            for years in 1..=3 {
                for interpolate in [false, true] {
                    assert_eq!(
                        format!(
                            "{:?}",
                            series.replay_years(&compiled, point, interpolate, years)
                        ),
                        format!(
                            "{:?}",
                            reference_replay(series, &compiled, point, interpolate, years)
                        ),
                        "{name} years {years} interpolate {interpolate}"
                    );
                }
            }
        }
    }

    #[test]
    #[ignore = "long differential run; CI runs it in release with --ignored"]
    fn replay_matches_the_serial_reference_long_run() {
        replay_differential(0x5EED_0000_0029_0002, 40_000);
    }

    #[test]
    fn overflowing_samples_fail_with_the_reference_error() {
        let (compiled, _) = random_scenario(&mut SplitMix64::new(7));
        let point = OperatingPoint {
            applications: 1 << 40,
            lifetime_years: 2.0,
            volume: 1_000_000_000,
        };
        let series = CarbonIntensitySeries::new(vec![1e300; 24], 1.0).unwrap();
        for interpolate in [false, true] {
            let kernel = series.replay_years(&compiled, point, interpolate, 2);
            assert!(
                matches!(&kernel, Err(GreenFpgaError::NonFinite { what }) if what == "the FPGA replay total"),
                "{kernel:?}"
            );
            assert_eq!(
                format!("{kernel:?}"),
                format!(
                    "{:?}",
                    reference_replay(&series, &compiled, point, interpolate, 2)
                )
            );
        }
    }

    #[test]
    fn up_front_carbon_is_positive_at_the_credit_heaviest_corner() {
        // The zero-sign argument of `replay_years` needs a positive FPGA
        // base: check it where the knobs shrink it most.
        let mut params = EstimatorParams::paper_defaults();
        for (knob, value) in [
            (Knob::RecycledMaterialFraction, 1.0),
            (Knob::EolRecycledFraction, 1.0),
            (Knob::FabGridIntensity, 30.0),
            (Knob::DesignHouseEnergy, 2.0),
            (Knob::DesignGridIntensity, 30.0),
        ] {
            knob.apply_mut(&mut params, value);
        }
        for domain in Domain::ALL {
            let compiled = CompiledScenario::compile(&params, domain).unwrap();
            for platform in [compiled.fpga(), compiled.asic()] {
                assert!(platform.hardware_per_chip().as_kg() > 0.0, "{domain}");
                assert!(platform.design().as_kg() > 0.0, "{domain}");
            }
        }
    }

    fn run(domain: Domain) -> Vec<LongHorizonPoint> {
        LongHorizonScenario::paper_fig9(domain)
            .run(&Estimator::default())
            .unwrap()
    }

    #[test]
    fn repeat_stitches_years_end_to_end() {
        let series = CarbonIntensitySeries::new(vec![1.0, 2.0, 3.0], 4.0).unwrap();
        let stitched = series.repeat(3).unwrap();
        assert_eq!(
            stitched.points(),
            &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
        );
        assert_eq!(stitched.step_hours(), 4.0);
        assert_eq!(series.repeat(1).unwrap().points(), series.points());
        assert!(series.repeat(0).is_err());
        // A stitched region preset replays identically to the wrapped
        // single-year series over the same horizon (sampling wraps modulo).
        let year = CarbonIntensitySeries::region("solar_duck").unwrap();
        let two = year.repeat(2).unwrap();
        assert_eq!(two.len(), 2 * year.len());
        for index in [0, 1, 8759, 8760, 12000] {
            assert_eq!(year.sample(index, true), two.sample(index, true));
        }
    }

    #[test]
    fn produces_one_point_per_year() {
        let series = run(Domain::Dnn);
        assert_eq!(series.len(), 40);
        assert_eq!(series.first().unwrap().year, 1);
        assert_eq!(series.last().unwrap().year, 40);
    }

    #[test]
    fn cumulative_footprints_are_monotone() {
        for domain in Domain::ALL {
            let series = run(domain);
            for pair in series.windows(2) {
                assert!(
                    pair[1].fpga_cumulative >= pair[0].fpga_cumulative,
                    "{domain}"
                );
                assert!(
                    pair[1].asic_cumulative >= pair[0].asic_cumulative,
                    "{domain}"
                );
            }
        }
    }

    #[test]
    fn fpga_fleet_is_replaced_at_chip_lifetime_boundaries() {
        let series = run(Domain::Dnn);
        // Default chip lifetime is 15 years: fleets at years 1, 16, 31.
        assert_eq!(series[0].fpga_fleets_built, 1);
        assert_eq!(series[14].fpga_fleets_built, 1);
        assert_eq!(series[15].fpga_fleets_built, 2);
        assert_eq!(series[29].fpga_fleets_built, 2);
        assert_eq!(series[30].fpga_fleets_built, 3);
        assert_eq!(series[39].fpga_fleets_built, 3);
    }

    #[test]
    fn fpga_curve_jumps_at_replacement_years() {
        let series = run(Domain::Dnn);
        let yearly_increase: Vec<f64> = series
            .windows(2)
            .map(|w| (w[1].fpga_cumulative - w[0].fpga_cumulative).as_kg())
            .collect();
        // Increase from year 15→16 (index 14) includes a whole new fleet and
        // must dwarf the ordinary year-over-year increase before it.
        assert!(yearly_increase[14] > 3.0 * yearly_increase[13]);
        assert!(yearly_increase[29] > 3.0 * yearly_increase[28]);
        // The ASIC curve shows no such jump: its increases stay comparable.
        let asic_increase: Vec<f64> = series
            .windows(2)
            .map(|w| (w[1].asic_cumulative - w[0].asic_cumulative).as_kg())
            .collect();
        let max = asic_increase.iter().cloned().fold(0.0, f64::max);
        let min = asic_increase.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max < 1.5 * min);
    }

    #[test]
    fn crypto_stays_fpga_favorable_despite_replacements() {
        // Paper: for Crypto (and DNN) the jumps do not change the choice of
        // the more sustainable platform.
        let series = run(Domain::Crypto);
        assert!(series.iter().skip(2).all(|p| p.ratio() < 1.0));
    }

    #[test]
    fn imgproc_sees_multiple_crossovers_over_the_long_horizon() {
        // Paper Fig. 9: for ImgProc the fleet-replacement jumps lead to
        // multiple A2F and F2A crossovers as the number of years grows — the
        // ratio is above 1 early on, dips below 1 once enough applications
        // have amortized the fleet, and is pushed back up by replacements.
        let series = run(Domain::ImageProcessing);
        assert!(series.first().unwrap().ratio() > 1.0);
        assert!(series.iter().any(|p| p.ratio() < 1.0));
        let crossings = series
            .windows(2)
            .filter(|w| (w[0].ratio() < 1.0) != (w[1].ratio() < 1.0))
            .count();
        assert!(
            crossings >= 1,
            "expected at least one crossover, saw {crossings}"
        );
    }

    #[test]
    fn degenerate_scenarios_are_rejected() {
        let mut s = LongHorizonScenario::paper_fig9(Domain::Dnn);
        s.evaluation_years = 0;
        assert!(s.run(&Estimator::default()).is_err());
        let mut s = LongHorizonScenario::paper_fig9(Domain::Dnn);
        s.application_lifetime_years = 0;
        assert!(s.run(&Estimator::default()).is_err());
    }

    #[test]
    fn shorter_chip_lifetime_means_more_fleets() {
        let estimator = Estimator::new(
            crate::EstimatorParams::paper_defaults()
                .with_fpga_chip_lifetime(TimeSpan::from_years(10.0)),
        );
        let series = LongHorizonScenario::paper_fig9(Domain::Dnn)
            .run(&estimator)
            .unwrap();
        assert_eq!(series.last().unwrap().fpga_fleets_built, 4); // years 1, 11, 21, 31
    }

    #[test]
    fn catalog_ids_are_unique_and_plentiful() {
        let ids: std::collections::HashSet<&str> = catalog().iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), catalog().len(), "duplicate catalog id");
        assert!(catalog().len() >= 12, "catalog holds at least 12 scenarios");
        for domain in Domain::ALL {
            assert!(
                catalog().iter().any(|e| e.scenario.domain == domain),
                "no catalog baseline for {domain}"
            );
        }
    }

    #[test]
    fn catalog_lookup_resolves_every_id() {
        for (index, entry) in catalog().iter().enumerate() {
            let (found, resolved) = catalog_entry(entry.id).unwrap();
            assert_eq!(found, index);
            assert_eq!(resolved, entry);
        }
        assert!(catalog_entry("no_such_scenario").is_none());
    }

    #[test]
    fn series_construction_rejects_degenerate_input() {
        assert!(CarbonIntensitySeries::new(vec![], 1.0).is_err());
        assert!(CarbonIntensitySeries::new(vec![f64::NAN], 1.0).is_err());
        assert!(CarbonIntensitySeries::new(vec![100.0, -1.0], 1.0).is_err());
        assert!(CarbonIntensitySeries::new(vec![100.0], 0.0).is_err());
        assert!(CarbonIntensitySeries::new(vec![100.0], f64::INFINITY).is_err());
        assert!(CarbonIntensitySeries::new(vec![100.0, 200.0], 1.0).is_ok());
    }

    #[test]
    fn region_presets_are_year_length_and_positive() {
        for name in CarbonIntensitySeries::REGIONS {
            let series = CarbonIntensitySeries::region(name).unwrap();
            assert_eq!(series.len(), HOURS_PER_YEAR, "{name}");
            assert!(series.points().iter().all(|v| *v >= 1.0), "{name}");
            assert!(series.step_hours() == 1.0);
        }
        assert!(CarbonIntensitySeries::region("atlantis").is_none());
    }

    #[test]
    fn region_lookups_share_one_bit_identical_build() {
        for name in CarbonIntensitySeries::REGIONS {
            let first = CarbonIntensitySeries::region(name).unwrap();
            let second = CarbonIntensitySeries::region(name).unwrap();
            assert!(std::ptr::eq(first, second), "{name} is built once");
            let bits = |series: &CarbonIntensitySeries| {
                series
                    .points()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(first), bits(second), "{name}");
        }
    }

    #[test]
    fn interpolated_sample_averages_the_step_bounds() {
        let series = CarbonIntensitySeries::new(vec![100.0, 300.0], 1.0).unwrap();
        assert_eq!(series.sample(0, false), 100.0);
        assert_eq!(series.sample(0, true), 200.0);
        // The last step wraps to the first sample.
        assert_eq!(series.sample(1, true), 200.0);
    }

    #[test]
    fn constant_series_replay_matches_the_scalar_operation_rate() {
        // A flat series at the compiled usage-grid intensity must accrue
        // operational carbon at (very nearly) the scalar model's yearly
        // rate for the same deployment.
        let spec = ScenarioSpec::baseline(Domain::Dnn);
        let params = spec.params();
        let grid = params.deployment().usage_grid.as_grams_per_kwh();
        let compiled = CompiledScenario::compile(&params, Domain::Dnn).unwrap();
        let point = OperatingPoint::paper_default();
        let series = CarbonIntensitySeries::new(vec![grid; HOURS_PER_YEAR], 1.0).unwrap();
        let outcome = series.replay(&compiled, point, false).unwrap();
        let fpga_devices = point.volume * compiled.fpga().chips_per_unit();
        let scalar_year_kg = compiled.fpga().operation_kg_per_device_year()
            * fpga_devices as f64
            * point.applications as f64;
        let relative = (outcome.fpga_operational.as_kg() - scalar_year_kg).abs() / scalar_year_kg;
        assert!(relative < 2e-3, "relative deviation {relative}");
    }

    #[test]
    fn replay_is_deterministic_and_interpolation_matters() {
        let compiled = CompiledScenario::compile(
            &ScenarioSpec::baseline(Domain::Crypto).params(),
            Domain::Crypto,
        )
        .unwrap();
        let point = OperatingPoint::paper_default();
        let series = CarbonIntensitySeries::region("solar_duck").unwrap();
        let a = series.replay(&compiled, point, false).unwrap();
        let b = series.replay(&compiled, point, false).unwrap();
        assert_eq!(a, b, "replay is a pure function of its inputs");
        let c = series.replay(&compiled, point, true).unwrap();
        assert_ne!(a.fpga_operational, c.fpga_operational);
    }

    #[test]
    fn verdict_follows_the_weighted_penalty_shape() {
        let v = Verdict::from_penalties(0.5, 1.0, 0.25, 0.1);
        assert_eq!(v.score, -(0.4 * 0.5 + 0.3 * 1.0 + 0.2 * 0.25 + 0.1 * 0.1));
        let clean = Verdict::from_trajectory(&[0.5, 0.9, 0.99], 0.0);
        assert_eq!(clean.score, 0.0, "all-win trajectory is the perfect score");
        assert_eq!(clean.loss_fraction, 0.0);
        let empty = Verdict::from_trajectory(&[], 0.5);
        assert_eq!(empty.score, f64::NEG_INFINITY);
        let mixed = Verdict::from_trajectory(&[0.8, 1.2], 0.0);
        assert_eq!(mixed.loss_fraction, 0.5);
        assert!(mixed.score < 0.0);
        assert!(mixed.score > empty.score, "higher is better");
    }
}
