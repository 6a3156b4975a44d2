//! The batch-evaluation engine: compiled scenarios plus parallel fan-out.
//!
//! Every analysis in this crate — the Figs. 4–6 sweeps, the Fig. 8 heatmap
//! grids, the tornado sensitivity pass and the Monte-Carlo uncertainty study
//! — evaluates the same Eq. (1)–(3) model at thousands to millions of
//! operating points. The naive path ([`Estimator::compare_uniform`]) rebuilds
//! the domain calibration for every point: chip specs (with freshly
//! formatted name strings), the manufacturing model, the design project and
//! a `Vec<Application>` per evaluation. None of that depends on the
//! operating point.
//!
//! [`CompiledScenario::compile`] resolves a domain's calibration against one
//! parameter set **once** — the one-time design carbon, the per-chip
//! (manufacturing, packaging, end-of-life) triple, the deployment power
//! profile and the application-development model for both platforms — after
//! which [`CompiledScenario::evaluate`] costs a handful of multiplies per
//! point, independent of the application count: a uniform workload's `n`
//! identical applications enter as one multiplication by `n`. The naive
//! estimator groups identical applications into the same expression, so
//! compiled results are bit-identical to [`Estimator::compare_uniform`].
//!
//! [`CompiledScenario::evaluate_into`] and
//! [`CompiledScenario::evaluate_indexed_into`] add the parallel fan-out:
//! the points are split into contiguous chunks over the scoped workers of
//! [`crate::exec`] and written in place into a reusable [`ResultBuffer`],
//! deterministically with respect to thread count. Ratio grids fan out
//! the same way but keep only each cell's ratio, no breakdowns.

use gf_act::{NodeParameters, PackagingModel, ProcessedDie, YieldModel};
use gf_lifecycle::{AppDevModel, DesignProject, DevelopmentFlow, OperationProfile};
use gf_units::{Area, Carbon, Mass, Power, TimeSpan};

use crate::{
    exec, CfpBreakdown, ChipSpec, Domain, Estimator, EstimatorParams, FpgaSpec, GreenFpgaError,
    OperatingPoint, PlatformComparison, PlatformKind, SweepAxis,
};

/// One platform of a domain calibration with every point-independent
/// quantity pre-resolved.
///
/// Holds only `Copy` data (precomputed carbons plus the small closed-form
/// operation and app-dev models), so it is free to share across the worker
/// threads of a batch evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledPlatform {
    design: Carbon,
    manufacturing_per_chip: Carbon,
    packaging_per_chip: Carbon,
    eol_per_chip: Carbon,
    chips_per_unit: u64,
    profile: OperationProfile,
    appdev: AppDevModel,
    flow: DevelopmentFlow,
}

impl CompiledPlatform {
    /// One-time design carbon (`C_des`, Eq. 4) of this platform's chip.
    pub fn design(&self) -> Carbon {
        self.design
    }

    /// Per-manufactured-chip hardware carbon: manufacturing + packaging +
    /// end-of-life.
    pub fn hardware_per_chip(&self) -> Carbon {
        self.manufacturing_per_chip + self.packaging_per_chip + self.eol_per_chip
    }

    /// Chips needed per deployed unit (`N_FPGA` for the FPGA platform, 1 for
    /// the ASIC).
    pub fn chips_per_unit(&self) -> u64 {
        self.chips_per_unit
    }

    /// Embodied breakdown for a fleet of `chips` devices: the one-time
    /// design carbon plus `chips` × the per-chip triple.
    pub fn embodied(&self, chips: f64) -> CfpBreakdown {
        CfpBreakdown {
            design: self.design,
            manufacturing: self.manufacturing_per_chip * chips,
            packaging: self.packaging_per_chip * chips,
            eol: self.eol_per_chip * chips,
            ..CfpBreakdown::ZERO
        }
    }

    /// Deployment breakdown of one application living `lifetime` on
    /// `devices` devices: field operation plus application development.
    pub fn deployment(&self, lifetime: TimeSpan, devices: u64) -> CfpBreakdown {
        CfpBreakdown {
            operation: self.profile.carbon_over(lifetime) * devices as f64,
            app_dev: self.appdev.carbon(self.flow, 1, devices),
            ..CfpBreakdown::ZERO
        }
    }

    /// Average draw of one deployed device in kilowatts: peak power ×
    /// duty cycle. The time-series replay path multiplies this by each
    /// step's energy-weighted grid intensity where the scalar path uses
    /// the compiled `usage_grid` constant.
    pub fn average_power_kw(&self) -> f64 {
        self.profile.average_power().as_kilowatts()
    }

    /// Field-operation carbon of one deployed device per year of lifetime
    /// (kg CO₂e / device·year). Operation is linear in the lifetime, so this
    /// single rate determines the whole operational term — the slope the
    /// closed-form crossover solver ([`CompiledScenario::totals_affine`])
    /// builds on.
    pub fn operation_kg_per_device_year(&self) -> f64 {
        self.profile.carbon_over(TimeSpan::from_years(1.0)).as_kg()
    }

    /// Per-application application-development carbon excluding the
    /// per-device configuration term (kg CO₂e): the `N_app × (T_FE + T_BE)`
    /// share of Eq. (7). Zero for the ASIC's software flow.
    pub fn appdev_per_application_kg(&self) -> f64 {
        self.appdev.carbon(self.flow, 1, 0).as_kg()
    }

    /// Per-device configuration carbon of one application deployment
    /// (kg CO₂e): the `N_vol × T_config` share of Eq. (7). Zero for the
    /// ASIC's software flow.
    pub fn appdev_per_device_kg(&self) -> f64 {
        self.appdev.carbon(self.flow, 0, 1).as_kg()
    }
}

/// The parameter-independent half of a domain compilation: everything the
/// calibration determines on its own (chip geometry and node, design
/// projects, fleet sizing, the package of each chip), with the
/// name-string allocation of spec construction already paid.
///
/// Analyses that re-evaluate the model under *many different parameter
/// sets* — Monte-Carlo trials, tornado probes — build one template per
/// domain and call [`ScenarioTemplate::compile`] per parameter set, which
/// is pure arithmetic: no strings, no vectors, no spec rebuilding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioTemplate {
    domain: Domain,
    fpga: PlatformTemplate,
    asic: PlatformTemplate,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct PlatformTemplate {
    project: DesignProject,
    node: NodeParameters,
    area: Area,
    tdp: Power,
    packaged_mass: Mass,
    /// Package footprint of one chip under the model's one package model.
    packaging_per_chip: Carbon,
    chips_per_unit: u64,
    /// `Some` for the FPGA flow (per-device reconfiguration applies).
    config_time: Option<TimeSpan>,
    flow: DevelopmentFlow,
}

impl PlatformTemplate {
    fn new(
        chip: &ChipSpec,
        project: DesignProject,
        chips_per_unit: u64,
        config_time: Option<TimeSpan>,
        flow: DevelopmentFlow,
    ) -> Self {
        PlatformTemplate {
            project,
            node: chip.node().parameters(),
            area: chip.area(),
            tdp: chip.tdp(),
            packaged_mass: chip.packaged_mass(),
            packaging_per_chip: PackagingModel::monolithic().carbon_for_die(chip.area()),
            chips_per_unit,
            config_time,
            flow,
        }
    }
}

impl ScenarioTemplate {
    /// Resolves the parameter-independent half of `domain`'s calibration.
    ///
    /// # Errors
    ///
    /// Propagates calibration errors (degenerate staffing or geometry); the
    /// built-in calibrations never trigger them.
    pub fn new(domain: Domain) -> Result<Self, GreenFpgaError> {
        let calibration = domain.calibration();
        let fpga_spec = calibration.fpga_spec()?;
        let asic_spec = calibration.asic_spec()?;
        Ok(ScenarioTemplate {
            domain,
            fpga: PlatformTemplate::new(
                fpga_spec.chip(),
                calibration.fpga_staffing.project_for(fpga_spec.chip())?,
                fpga_spec.fpgas_for_application(calibration.reference_asic_gates()),
                Some(FpgaSpec::CONFIGURATION_TIME),
                DevelopmentFlow::FpgaHardware,
            ),
            asic: PlatformTemplate::new(
                asic_spec.chip(),
                calibration.asic_staffing.project_for(asic_spec.chip())?,
                1,
                None,
                DevelopmentFlow::AsicSoftware,
            ),
        })
    }

    /// The templated domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Finishes the compilation against one parameter set. Pure
    /// arithmetic: each die's yield under the parameter set's yield model,
    /// then the knob-dependent carbons. A Monte-Carlo run or a tornado pass
    /// resolves the yields once for all its trials and pays only the
    /// second half per trial.
    ///
    /// # Errors
    ///
    /// Propagates manufacturing-model errors (degenerate die area); the
    /// built-in calibrations never trigger them.
    pub fn compile(&self, params: &EstimatorParams) -> Result<CompiledScenario, GreenFpgaError> {
        Ok(self.bind(params)?.compile(params))
    }

    /// Resolves what `params` fixes for a whole study whose trials change
    /// only Table 1 knobs: each die's area and yield under the parameter
    /// set's yield model (no knob moves it), with the yield-scaled
    /// process-gas term. [`ScenarioTemplate::compile`] is this binding
    /// followed by [`TemplateBinding::compile`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScenarioTemplate::compile`].
    pub(crate) fn bind(
        &self,
        params: &EstimatorParams,
    ) -> Result<TemplateBinding<'_>, GreenFpgaError> {
        let die = |t: &PlatformTemplate| ProcessedDie::new(&t.node, params.yield_model(), t.area);
        Ok(TemplateBinding {
            template: self,
            yield_model: params.yield_model(),
            fpga_die: die(&self.fpga)?,
            asic_die: die(&self.asic)?,
        })
    }
}

/// A [`ScenarioTemplate`] bound to one yield model
/// ([`ScenarioTemplate::bind`]): the per-trial half of a compilation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TemplateBinding<'t> {
    template: &'t ScenarioTemplate,
    yield_model: YieldModel,
    fpga_die: ProcessedDie,
    asic_die: ProcessedDie,
}

impl TemplateBinding<'_> {
    /// Compiles the template against `params`, which must share the bound
    /// yield model — the Monte-Carlo and tornado analyses retune knobs
    /// only, and no knob sets the yield model.
    pub(crate) fn compile(&self, params: &EstimatorParams) -> CompiledScenario {
        debug_assert_eq!(params.yield_model(), self.yield_model);
        let eol = params.eol_model();
        let compile_platform = |t: &PlatformTemplate, die: &ProcessedDie| {
            let appdev = match t.config_time {
                Some(config_time) => params.appdev().with_config_time(config_time),
                None => *params.appdev(),
            };
            CompiledPlatform {
                design: params.design_house().design_carbon(&t.project),
                manufacturing_per_chip: die.carbon(params.fab()),
                packaging_per_chip: t.packaging_per_chip,
                eol_per_chip: eol.carbon_per_chip(t.packaged_mass),
                chips_per_unit: t.chips_per_unit,
                profile: OperationProfile::new(
                    t.tdp,
                    params.deployment().duty_cycle,
                    params.deployment().usage_grid,
                ),
                appdev,
                flow: t.flow,
            }
        };
        let template = self.template;
        CompiledScenario {
            domain: template.domain,
            fpga: compile_platform(&template.fpga, &self.fpga_die),
            asic: compile_platform(&template.asic, &self.asic_die),
        }
    }
}

/// A domain calibration compiled against one [`EstimatorParams`], ready for
/// cheap repeated evaluation at arbitrary operating points.
///
/// # Examples
///
/// ```
/// use greenfpga::{CompiledScenario, Domain, Estimator, OperatingPoint};
///
/// let estimator = Estimator::default();
/// let compiled = estimator.compile(Domain::Dnn)?;
/// let point = OperatingPoint::paper_default();
/// let fast = compiled.evaluate(point)?;
/// let slow = estimator.compare_uniform(
///     Domain::Dnn, point.applications, point.lifetime_years, point.volume)?;
/// assert_eq!(fast.fpga.total(), slow.fpga.total());
/// assert_eq!(fast.asic.total(), slow.asic.total());
/// # Ok::<(), greenfpga::GreenFpgaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledScenario {
    domain: Domain,
    fpga: CompiledPlatform,
    asic: CompiledPlatform,
}

impl CompiledScenario {
    /// Resolves `domain`'s calibration against `params`.
    ///
    /// This is the only expensive step of the batch engine: it builds the
    /// chip specs, design projects and manufacturing models exactly once,
    /// where the naive path rebuilds them for every operating point.
    ///
    /// # Errors
    ///
    /// Propagates calibration and model errors (degenerate staffing or die
    /// area); the built-in calibrations never trigger them.
    pub fn compile(params: &EstimatorParams, domain: Domain) -> Result<Self, GreenFpgaError> {
        ScenarioTemplate::new(domain)?.compile(params)
    }

    /// The compiled domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The compiled FPGA platform.
    pub fn fpga(&self) -> &CompiledPlatform {
        &self.fpga
    }

    /// The compiled ASIC platform.
    pub fn asic(&self) -> &CompiledPlatform {
        &self.asic
    }

    /// Evaluates the uniform-workload comparison at one operating point.
    ///
    /// Costs the same at any application count — `n` identical
    /// applications enter as one multiplication by `n` — and is
    /// bit-identical to the naive [`Estimator::compare_uniform`].
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as [`crate::Workload::uniform`]:
    /// [`GreenFpgaError::EmptyWorkload`] for zero applications and
    /// [`GreenFpgaError::InvalidApplication`] for a negative / non-finite
    /// lifetime or zero volume.
    pub fn evaluate(&self, point: OperatingPoint) -> Result<PlatformComparison, GreenFpgaError> {
        let lifetime = self.validate(point)?;
        let (fpga, asic) = self.totals(point, lifetime);
        Ok(PlatformComparison::new(
            self.domain,
            fpga.finite(PlatformKind::Fpga)?,
            asic.finite(PlatformKind::Asic)?,
        ))
    }

    /// [`CompiledScenario::evaluate`] taking the application lines from
    /// `lines` while consecutive points share a lifetime and volume — a
    /// frontier row with the applications on x computes its lines once.
    pub(crate) fn evaluate_with(
        &self,
        point: OperatingPoint,
        lines: &mut LineMemo,
    ) -> Result<PlatformComparison, GreenFpgaError> {
        let lifetime = self.validate(point)?;
        let (fpga, asic) = lines.totals(self, point, lifetime);
        Ok(PlatformComparison::new(
            self.domain,
            fpga.finite(PlatformKind::Fpga)?,
            asic.finite(PlatformKind::Asic)?,
        ))
    }

    /// Validates an operating point, returning its lifetime as a
    /// [`TimeSpan`] on success.
    fn validate(&self, point: OperatingPoint) -> Result<TimeSpan, GreenFpgaError> {
        if point.applications == 0 {
            return Err(GreenFpgaError::EmptyWorkload);
        }
        let lifetime = TimeSpan::from_years(point.lifetime_years);
        if lifetime.is_negative() || !lifetime.is_finite() {
            return Err(GreenFpgaError::InvalidApplication {
                field: "lifetime",
                reason: format!("lifetime must be non-negative and finite, got {lifetime}"),
            });
        }
        if point.volume == 0 {
            return Err(GreenFpgaError::InvalidApplication {
                field: "volume",
                reason: "application volume must be at least one device".to_string(),
            });
        }
        Ok(lifetime)
    }

    /// The model arithmetic every evaluation path shares; `point` must have
    /// passed [`CompiledScenario::validate`]. Callers check the result with
    /// [`CfpBreakdown::finite`] before it leaves the kernel.
    fn totals(&self, point: OperatingPoint, lifetime: TimeSpan) -> (CfpBreakdown, CfpBreakdown) {
        let n = point.applications as f64;
        let (fpga, asic) = self.application_lines(lifetime, point.volume);
        (fpga.at(n), asic.at(n))
    }

    /// Both platforms' footprints as lines in the application count at one
    /// lifetime and volume (Eqs. 1–2): the FPGA pays its embodied carbon
    /// once for a fleet sized to the (uniform) applications plus one
    /// deployment per application; the ASIC pays a fresh embodied cost
    /// plus its own deployment per application.
    ///
    /// Evaluating the line is the closed form of the paper's sums — one
    /// correctly rounded multiply per component where Eqs. (1)–(2) add `n`
    /// equal terms, at least as accurate as an `n`-fold running sum and as
    /// cheap at `n = 2^53` as at `n = 1`. The analytic tier reads its
    /// application-axis coefficients off the same lines
    /// ([`CompiledScenario::totals_affine`]), and [`Estimator::fpga_estimate`]
    /// / [`Estimator::asic_estimate`] group identical applications into the
    /// same expression, so the naive path agrees bit for bit.
    pub(crate) fn application_lines(
        &self,
        lifetime: TimeSpan,
        volume: u64,
    ) -> (ApplicationLine, ApplicationLine) {
        let fpga_devices = volume * self.fpga.chips_per_unit;
        (
            ApplicationLine {
                fixed: self.fpga.embodied(fpga_devices as f64),
                per_application: self.fpga.deployment(lifetime, fpga_devices),
            },
            ApplicationLine {
                fixed: CfpBreakdown::ZERO,
                per_application: self.asic.embodied(volume as f64)
                    + self.asic.deployment(lifetime, volume),
            },
        )
    }

    /// FPGA:ASIC total-CFP ratio at one operating point: the
    /// [`PlatformComparison::fpga_to_asic_ratio`] of
    /// [`CompiledScenario::evaluate`], from the two totals alone.
    ///
    /// # Errors
    ///
    /// Same conditions, checked in the same order, as
    /// [`CompiledScenario::evaluate`].
    pub fn ratio(&self, point: OperatingPoint) -> Result<f64, GreenFpgaError> {
        let lifetime = self.validate(point)?;
        let (fpga, asic) = self.totals(point, lifetime);
        let fpga = fpga.finite_total(PlatformKind::Fpga)?;
        let asic = asic.finite_total(PlatformKind::Asic)?;
        Ok(fpga.ratio_to(asic).unwrap_or(f64::INFINITY))
    }

    /// Evaluates a slice of operating points into a reusable buffer — the
    /// zero-allocation batch kernel.
    ///
    /// After the buffer's first use at a given size, repeated calls perform
    /// **no heap allocation at all**: workers write their contiguous chunk
    /// of the buffer in place. Results are bit-identical to
    /// [`CompiledScenario::evaluate`] point by point and independent of the
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns the point-validation error with the lowest index (same
    /// conditions as [`CompiledScenario::evaluate`]); the buffer's contents
    /// are unspecified in that case.
    pub fn evaluate_into(
        &self,
        points: &[OperatingPoint],
        out: &mut ResultBuffer,
    ) -> Result<(), GreenFpgaError> {
        self.evaluate_indexed_into(points.len(), |i| points[i], out, 0)
    }

    /// [`CompiledScenario::evaluate_into`] with the points produced by an
    /// index function instead of a slice, so grid-shaped batches need not
    /// materialize their lattice, plus an explicit worker-thread count
    /// (`0` = auto).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledScenario::evaluate_into`].
    pub fn evaluate_indexed_into(
        &self,
        n: usize,
        point_of: impl Fn(usize) -> OperatingPoint + Sync,
        out: &mut ResultBuffer,
        threads: usize,
    ) -> Result<(), GreenFpgaError> {
        // Each worker's chunk carries the previous point's lines, so a run
        // of points sharing a lifetime and volume (a sweep over the
        // applications) computes them once.
        let start = gf_trace::open();
        out.prepare(self.domain, n);
        let filled = exec::try_fill_chunks(&mut out.results, threads, |first, chunk| {
            let mut lines = LineMemo::new();
            for (j, slot) in chunk.iter_mut().enumerate() {
                let point = point_of(first + j);
                let lifetime = self.validate(point)?;
                *slot = lines.totals(self, point, lifetime);
            }
            Ok(())
        })
        .and_then(|()| out.check_finite());
        gf_trace::close(gf_trace::SpanName::EvalBatch, start, n as u64);
        filled
    }

    /// Fills `out` row by row with the FPGA:ASIC total-CFP ratios of the
    /// lattice `x_values` × `y_values` (both non-empty; x wins when the
    /// axes coincide) around `base`, for [`CompiledScenario::ratio_grid`]
    /// and every [`GridStream`](crate::GridStream) block. Coordinates
    /// convert once per column and row; each ratio comes straight from the
    /// two totals, by [`CompiledScenario::evaluate`]'s operations in order.
    ///
    /// # Errors
    ///
    /// The lowest-index validation error anywhere, else the lowest
    /// non-finite cell's (FPGA before ASIC), whatever the thread count.
    pub(crate) fn fill_ratio_lattice(
        &self,
        (x_axis, x_values): (SweepAxis, &[f64]),
        (y_axis, y_values): (SweepAxis, &[f64]),
        base: OperatingPoint,
        out: &mut [f64],
        threads: usize,
    ) -> Result<(), GreenFpgaError> {
        let columns = Vec::from_iter(x_values.iter().map(|&x| base.with_axis(x_axis, x)));
        let (width, row_base) = (columns.len(), |row| base.with_axis(y_axis, y_values[row]));
        let cell = |i: usize| row_base(i / width).with_axis_of(x_axis, columns[i % width]);
        let start = gf_trace::open();
        let filled = exec::try_fill_chunks::<_, GreenFpgaError, _>(out, threads, |first, chunk| {
            let (mut lines, mut row, mut col) = (LineMemo::new(), first / width, first % width);
            let mut row_point = row_base(row);
            for slot in chunk {
                let point = row_point.with_axis_of(x_axis, columns[col]);
                let lifetime = self.validate(point)?;
                let (fpga, asic) = lines.totals(self, point, lifetime);
                let (fpga, asic) = (fpga.total(), asic.total());
                // NaN marks a non-finite total; finite totals never divide to NaN.
                *slot = if fpga.as_kg().is_finite() & asic.as_kg().is_finite() {
                    fpga.ratio_to(asic).unwrap_or(f64::INFINITY)
                } else {
                    f64::NAN
                };
                col += 1;
                if col == width && row + 1 < y_values.len() {
                    (row, col, row_point) = (row + 1, 0, row_base(row + 1));
                }
            }
            Ok(())
        })
        .and_then(|()| match out.iter().position(|ratio| ratio.is_nan()) {
            Some(i) => self.ratio(cell(i)).map(drop),
            None => Ok(()),
        });
        gf_trace::close(gf_trace::SpanName::EvalBatch, start, out.len() as u64);
        filled
    }
}

/// One platform's footprint as a line in the application count `n`:
/// `fixed + n × per_application`, component by component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ApplicationLine {
    /// Paid once whatever the application count (the FPGA's embodied
    /// carbon; zero for the ASIC).
    pub(crate) fixed: CfpBreakdown,
    /// Paid by every application.
    pub(crate) per_application: CfpBreakdown,
}

impl ApplicationLine {
    /// The breakdown at `n` applications.
    pub(crate) fn at(&self, n: f64) -> CfpBreakdown {
        self.fixed + self.per_application * n
    }
}

/// The application lines of the last evaluated lifetime and volume, keyed
/// by the lifetime's bits and the volume. The lines depend on nothing else,
/// so reusing them while the key repeats is bit-exact by construction.
#[derive(Debug)]
pub(crate) struct LineMemo {
    key: Option<(u64, u64)>,
    fpga: ApplicationLine,
    asic: ApplicationLine,
}

impl LineMemo {
    /// A memo holding no lines yet.
    pub(crate) fn new() -> LineMemo {
        let none = ApplicationLine {
            fixed: CfpBreakdown::ZERO,
            per_application: CfpBreakdown::ZERO,
        };
        LineMemo {
            key: None,
            fpga: none,
            asic: none,
        }
    }

    /// [`CompiledScenario::totals`] of a validated `point`, computing the
    /// lines only when its lifetime or volume differs from the last
    /// point's. A lone [`CompiledScenario::evaluate`] skips the memo:
    /// filling and reading it made one evaluation slower (about 30 → 45 ns
    /// on a 2-vCPU x86-64 host).
    #[inline]
    fn totals(
        &mut self,
        scenario: &CompiledScenario,
        point: OperatingPoint,
        lifetime: TimeSpan,
    ) -> (CfpBreakdown, CfpBreakdown) {
        let key = Some((point.lifetime_years.to_bits(), point.volume));
        if self.key != key {
            (self.fpga, self.asic) = scenario.application_lines(lifetime, point.volume);
            self.key = key;
        }
        let n = point.applications as f64;
        (self.fpga.at(n), self.asic.at(n))
    }
}

/// Reusable output of the zero-allocation batch kernel
/// ([`CompiledScenario::evaluate_into`]) behind batches and sweeps: one
/// (FPGA, ASIC) breakdown pair per evaluated point, in request order.
/// Refilling allocates only when a batch outgrows every previous one.
/// Ratio grids do not use it; they keep only their ratios.
///
/// # Examples
///
/// ```
/// use greenfpga::{Domain, Estimator, OperatingPoint, ResultBuffer};
///
/// let compiled = Estimator::default().compile(Domain::Dnn)?;
/// let points = vec![OperatingPoint::paper_default(); 256];
/// let mut buffer = ResultBuffer::new();
/// compiled.evaluate_into(&points, &mut buffer)?;            // allocates once
/// compiled.evaluate_into(&points, &mut buffer)?;            // zero-alloc refill
/// assert_eq!(buffer.len(), 256);
/// assert_eq!(
///     buffer.comparison(0),
///     compiled.evaluate(OperatingPoint::paper_default())?,
/// );
/// # Ok::<(), greenfpga::GreenFpgaError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultBuffer {
    domain: Option<Domain>,
    results: Vec<(CfpBreakdown, CfpBreakdown)>,
}

impl ResultBuffer {
    /// Creates an empty buffer; the first fill sizes it.
    pub fn new() -> Self {
        ResultBuffer::default()
    }

    /// Number of evaluated points currently held.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// `true` when the buffer holds no results.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Domain of the last fill, if any.
    pub fn domain(&self) -> Option<Domain> {
        self.domain
    }

    /// FPGA-platform breakdown of point `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn fpga(&self, i: usize) -> CfpBreakdown {
        self.results[i].0
    }

    /// ASIC-platform breakdown of point `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn asic(&self, i: usize) -> CfpBreakdown {
        self.results[i].1
    }

    /// Full comparison of point `i` — bit-identical to what
    /// [`CompiledScenario::evaluate`] returns.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()` or the buffer was never filled.
    pub fn comparison(&self, i: usize) -> PlatformComparison {
        let (fpga, asic) = self.results[i];
        PlatformComparison::new(self.domain.expect("result buffer never filled"), fpga, asic)
    }

    /// Iterates the buffer as reconstructed [`PlatformComparison`] values.
    pub fn comparisons(&self) -> impl Iterator<Item = PlatformComparison> + '_ {
        (0..self.len()).map(|i| self.comparison(i))
    }

    /// Empties the buffer, keeping its capacity for the next fill.
    pub fn clear(&mut self) {
        self.domain = None;
        self.results.clear();
    }

    /// The [`CfpBreakdown::finite`] check over every result, in index
    /// order. One pass after the fill keeps the check out of the per-point
    /// kernel, where it cost a third of a ~20 ns evaluation; the scan costs
    /// a few ns a point, and only a failing batch pays for naming the
    /// component.
    fn check_finite(&self) -> Result<(), GreenFpgaError> {
        let finite = |(fpga, asic): &(CfpBreakdown, CfpBreakdown)| {
            fpga.total().as_kg().is_finite() & asic.total().as_kg().is_finite()
        };
        if self.results.iter().all(finite) {
            return Ok(());
        }
        for &(fpga, asic) in &self.results {
            fpga.finite(PlatformKind::Fpga)?;
            asic.finite(PlatformKind::Asic)?;
        }
        Ok(())
    }

    /// Sizes the buffer for a fill of `n` points in `domain`, reusing
    /// existing capacity.
    fn prepare(&mut self, domain: Domain, n: usize) {
        self.domain = Some(domain);
        self.results
            .resize(n, (CfpBreakdown::ZERO, CfpBreakdown::ZERO));
    }
}

impl Estimator {
    /// Compiles one domain's calibration against this estimator's
    /// parameters for cheap repeated evaluation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledScenario::compile`].
    pub fn compile(&self, domain: Domain) -> Result<CompiledScenario, GreenFpgaError> {
        CompiledScenario::compile(self.params(), domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator() -> Estimator {
        Estimator::default()
    }

    fn points() -> Vec<OperatingPoint> {
        let mut out = Vec::new();
        for applications in [1u64, 3, 8] {
            for lifetime_years in [0.5, 2.0] {
                for volume in [10_000u64, 1_000_000] {
                    out.push(OperatingPoint {
                        applications,
                        lifetime_years,
                        volume,
                    });
                }
            }
        }
        out
    }

    /// The batch kernel is bit-identical to point-wise evaluation and to
    /// the naive estimator under randomized knob overrides, application
    /// counts, lifetimes and volumes, for every thread count.
    #[test]
    fn batch_kernel_matches_point_evaluation_bit_for_bit() {
        use crate::Knob;

        let mut rng = gf_support::SplitMix64::new(0x711E_5EED_0000_0007);
        for case in 0..24 {
            let mut params = EstimatorParams::paper_defaults();
            for knob in Knob::ALL {
                if rng.gen_bool() {
                    let range = knob.range();
                    knob.apply_mut(&mut params, rng.gen_range_f64(range.low, range.high));
                }
            }
            let domain = Domain::ALL[rng.gen_index(Domain::ALL.len())];
            let compiled = CompiledScenario::compile(&params, domain).expect("compile");
            let naive = Estimator::new(params);
            let n = [1usize, 2, 3, 5, 63, 64, 65, 127, 130, 257][rng.gen_index(10)];
            let points: Vec<OperatingPoint> = (0..n)
                .map(|_| OperatingPoint {
                    applications: rng.gen_range_u64(1, 70),
                    lifetime_years: if rng.gen_bool() {
                        rng.gen_range_f64(0.0, 10.0)
                    } else {
                        0.0
                    },
                    volume: rng.gen_range_u64(1, 2_000_000),
                })
                .collect();
            let mut serial = ResultBuffer::new();
            compiled
                .evaluate_indexed_into(n, |i| points[i], &mut serial, 1)
                .expect("evaluate");
            for (i, &point) in points.iter().enumerate() {
                let direct = compiled.evaluate(point).expect("evaluate point");
                assert_eq!(serial.comparison(i), direct, "case {case} point {i}");
                if i < 4 {
                    let slow = naive
                        .compare_uniform(
                            domain,
                            point.applications,
                            point.lifetime_years,
                            point.volume,
                        )
                        .expect("naive");
                    assert_eq!(slow, direct, "case {case} point {i} naive");
                }
            }
            let mut parallel = ResultBuffer::new();
            compiled
                .evaluate_into(&points, &mut parallel)
                .expect("evaluate");
            assert_eq!(serial, parallel, "case {case} ({domain}, n={n})");
        }
    }

    /// The closed form is exact at the decoder's largest application
    /// count: at `n = 2^53` (a power of two) every per-application term
    /// scales exactly, which no `n`-step running sum could reach.
    #[test]
    fn evaluation_is_constant_time_in_the_application_count() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let one = compiled
            .evaluate(OperatingPoint {
                applications: 1,
                ..OperatingPoint::paper_default()
            })
            .unwrap();
        let n = 1u64 << 53;
        let huge = compiled
            .evaluate(OperatingPoint {
                applications: n,
                ..OperatingPoint::paper_default()
            })
            .unwrap();
        // Multiplying by a power of two is exact.
        assert_eq!(huge.fpga.operation, one.fpga.operation * n as f64);
        assert_eq!(
            huge.asic.total().as_kg(),
            one.asic.total().as_kg() * n as f64
        );
        assert_eq!(huge.fpga.design, one.fpga.design);
    }

    #[test]
    fn compiled_matches_naive_bit_for_bit() {
        for domain in Domain::ALL {
            let est = estimator();
            let compiled = est.compile(domain).unwrap();
            for point in points() {
                let fast = compiled.evaluate(point).unwrap();
                let slow = est
                    .compare_uniform(
                        domain,
                        point.applications,
                        point.lifetime_years,
                        point.volume,
                    )
                    .unwrap();
                assert_eq!(fast.fpga, slow.fpga, "{domain} {point:?}");
                assert_eq!(fast.asic, slow.asic, "{domain} {point:?}");
            }
        }
    }

    #[test]
    fn evaluate_validates_points() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let base = OperatingPoint::paper_default();
        assert!(matches!(
            compiled.evaluate(OperatingPoint {
                applications: 0,
                ..base
            }),
            Err(GreenFpgaError::EmptyWorkload)
        ));
        assert!(matches!(
            compiled.evaluate(OperatingPoint { volume: 0, ..base }),
            Err(GreenFpgaError::InvalidApplication {
                field: "volume",
                ..
            })
        ));
        assert!(matches!(
            compiled.evaluate(OperatingPoint {
                lifetime_years: -1.0,
                ..base
            }),
            Err(GreenFpgaError::InvalidApplication {
                field: "lifetime",
                ..
            })
        ));
    }

    #[test]
    fn batch_surfaces_the_lowest_index_error() {
        let mut pts = points();
        pts.insert(
            2,
            OperatingPoint {
                applications: 0,
                ..OperatingPoint::paper_default()
            },
        );
        pts.push(OperatingPoint {
            volume: 0,
            ..OperatingPoint::paper_default()
        });
        let err = estimator()
            .compile(Domain::Dnn)
            .unwrap()
            .evaluate_into(&pts, &mut ResultBuffer::new())
            .unwrap_err();
        assert!(matches!(err, GreenFpgaError::EmptyWorkload));
    }

    #[test]
    fn compiled_platform_accessors_are_consistent() {
        let compiled = estimator().compile(Domain::Crypto).unwrap();
        assert_eq!(compiled.domain(), Domain::Crypto);
        let fpga = compiled.fpga();
        assert!(fpga.design().as_kg() > 0.0);
        assert!(fpga.hardware_per_chip().as_kg() > 0.0);
        assert_eq!(fpga.chips_per_unit(), 1);
        assert_eq!(compiled.asic().chips_per_unit(), 1);
        let embodied = fpga.embodied(100.0);
        assert_eq!(embodied.design, fpga.design());
        assert!(embodied.operation.as_kg() == 0.0);
    }

    #[test]
    fn ratio_matches_evaluate() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let point = OperatingPoint::paper_default();
        assert_eq!(
            compiled.ratio(point).unwrap(),
            compiled.evaluate(point).unwrap().fpga_to_asic_ratio()
        );
    }

    #[test]
    fn evaluate_into_matches_evaluate_bit_for_bit() {
        let pts = points();
        for domain in Domain::ALL {
            let compiled = estimator().compile(domain).unwrap();
            let mut buffer = ResultBuffer::new();
            compiled.evaluate_into(&pts, &mut buffer).unwrap();
            assert_eq!(buffer.len(), pts.len());
            assert_eq!(buffer.domain(), Some(domain));
            for (i, point) in pts.iter().enumerate() {
                let direct = compiled.evaluate(*point).unwrap();
                assert_eq!(buffer.comparison(i), direct, "{domain} point {i}");
                let ratio = direct.fpga_to_asic_ratio();
                assert_eq!(
                    buffer.comparison(i).fpga_to_asic_ratio(),
                    ratio,
                    "{domain} point {i}"
                );
            }
            let all: Vec<PlatformComparison> = buffer.comparisons().collect();
            let each: Vec<PlatformComparison> =
                (0..pts.len()).map(|i| buffer.comparison(i)).collect();
            assert_eq!(all, each, "{domain}");
        }
    }

    #[test]
    fn evaluate_into_is_thread_count_independent_and_reusable() {
        let pts = points();
        for domain in [Domain::Dnn, Domain::Crypto] {
            let compiled = estimator().compile(domain).unwrap();
            let mut serial = ResultBuffer::new();
            compiled
                .evaluate_indexed_into(pts.len(), |i| pts[i], &mut serial, 1)
                .unwrap();
            let mut buffer = ResultBuffer::new();
            for threads in [0, 2, 3, 4, 13, 16] {
                // Reuse the same buffer across fills of different sizes.
                compiled
                    .evaluate_indexed_into(3, |i| pts[i], &mut buffer, threads)
                    .unwrap();
                assert_eq!(buffer.len(), 3);
                compiled
                    .evaluate_indexed_into(pts.len(), |i| pts[i], &mut buffer, threads)
                    .unwrap();
                assert_eq!(serial, buffer, "{domain} {threads} threads");
            }
            buffer.clear();
            assert!(buffer.is_empty());
            assert_eq!(buffer.domain(), None);
        }
    }

    #[test]
    fn evaluate_into_surfaces_the_lowest_index_error() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let mut pts = points();
        pts.insert(
            2,
            OperatingPoint {
                applications: 0,
                ..OperatingPoint::paper_default()
            },
        );
        pts.push(OperatingPoint {
            volume: 0,
            ..OperatingPoint::paper_default()
        });
        for threads in [1, 4] {
            let mut buffer = ResultBuffer::new();
            let err = compiled
                .evaluate_indexed_into(pts.len(), |i| pts[i], &mut buffer, threads)
                .unwrap_err();
            assert!(matches!(err, GreenFpgaError::EmptyWorkload), "{threads}");
        }
    }

    #[test]
    fn platform_coefficient_accessors_are_consistent() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let fpga = compiled.fpga();
        // Operation rate: carbon over one year for one device.
        assert!(fpga.operation_kg_per_device_year() > 0.0);
        // FPGA pays hardware app-dev; the ASIC's software flow is free.
        assert!(fpga.appdev_per_application_kg() > 0.0);
        assert!(fpga.appdev_per_device_kg() > 0.0);
        assert_eq!(compiled.asic().appdev_per_application_kg(), 0.0);
        assert_eq!(compiled.asic().appdev_per_device_kg(), 0.0);
    }
}
