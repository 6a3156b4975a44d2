//! Typed wire format of the estimation service.
//!
//! This module is the single place where model types meet JSON: the
//! [`gf_json::ToJson`] / [`gf_json::FromJson`] impls for the core types,
//! and the typed request/response structs `greenfpga-serve` exposes over
//! HTTP. Putting them in the core crate (rather than the server) means
//! every consumer — the server, the CLI's `--json` output, the load
//! generator and the integration tests — shares one schema.
//!
//! Each wire struct is declared once with [`gf_json::wire_struct!`]; only
//! encoders that add computed members (`ratio`, `winner`, `total_kg`, …)
//! are hand-written. Every type has exactly one encoder,
//! [`ToJson::write_json`], which appends to a [`JsonWriter`] with no
//! intermediate tree. Decoding runs in one direction, text in and
//! [`Query`] out: the request types and their members, the [`Query`]
//! envelope and the [`MetricsResponse`] tree have one decoder each,
//! [`FromJson::from_node`], which reads the token tape of the body text
//! ([`QueryKind::decode_body`]). Results, errors and the [`Outcome`]
//! envelope only encode; tests compare their bytes with an in-process
//! encoding instead of decoding them. Each query kind is one row of the
//! `query_kinds!` table, which generates [`QueryKind`], [`Query`],
//! [`Outcome`] and their dispatch.
//!
//! [`QueryKind::decode_request`], [`Query::request_body`] and
//! [`Outcome::result_json`] are the `Value`-tree adapter the benchmark
//! client is built against; they write and parse, and nothing else here
//! calls them.
//!
//! Numbers are serialized with round-tripping `f64` formatting (see
//! [`gf_json`]), so every number in a response parses back
//! **bit-identical** to the value the engine produced.
//!
//! Decoders check shape only (types, required members, known ids); range
//! rules live in [`Query::validate`], which [`crate::Engine`] runs on
//! every query, so programmatic and wire requests obey the same rules.
//!
//! ## Request schema
//!
//! Every request names a scenario — a domain plus optional knob overrides
//! (Table 1 knobs, keyed by [`Knob::id`]) — and the workload operating
//! point(s):
//!
//! ```json
//! {
//!   "domain": "dnn",
//!   "knobs": {"duty_cycle": 0.3, "usage_grid_intensity": 450.0},
//!   "point": {"applications": 5, "lifetime_years": 2.0, "volume": 1000000}
//! }
//! ```

use gf_json::{
    decode_member, decode_member_or, prefix_schema, wire_struct, Document, FromJson, JsonError,
    JsonWriter, Node, ParseLimits, ToJson, Value,
};

use crate::optimize::{
    CertificateProbe, Constraint, Objective, OptPlatform, SearchKnob, SolverKind,
};
use crate::scenario::{
    CarbonIntensitySeries, CatalogEntry, ReplayOutcome, Verdict, HOURS_PER_YEAR,
};
use crate::{
    ApiError, CfpBreakdown, Crossover, CrossoverDirection, Domain, EstimatorParams, FrontierResult,
    GridSweep, Knob, OperatingPoint, PlatformComparison, PlatformKind, SensitivityEntry, SweepAxis,
    SweepPoint, SweepSeries, TornadoAnalysis, UncertaintyReport,
};
use gf_units::Carbon;

/// Version of the `Query`/`Outcome` JSON envelope (the `"v"` member).
pub const API_VERSION: u64 = 1;

/// Decodes a string id through `parse`, naming `what` in errors.
fn decode_id<T>(
    value: Node<'_>,
    what: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, JsonError> {
    let id = value
        .as_str()
        .ok_or_else(|| JsonError::schema("", format!("expected a {what} string")))?;
    parse(&id).ok_or_else(|| JsonError::schema("", format!("unknown {what} '{id}'")))
}

/// String-valued enums: each variant travels as its fixed id. A
/// `decode` entry, one a request carries, decodes as well.
macro_rules! wire_ids {
    ($ty:ident { $($variant:ident = $id:literal),* }) => {
        impl ToJson for $ty {
            fn write_json(&self, w: &mut JsonWriter) {
                w.string(match self { $($ty::$variant => $id,)* });
            }
        }
    };
    (decode $ty:ident($what:literal) { $($variant:ident = $id:literal),* }) => {
        wire_ids!($ty { $($variant = $id),* });

        impl FromJson for $ty {
            fn from_node(value: Node<'_>) -> Result<$ty, JsonError> {
                decode_id(value, $what, |id| match id {
                    $($id => Some($ty::$variant),)*
                    _ => None,
                })
            }
        }
    };
}

wire_ids!(PlatformKind { Fpga = "FPGA", Asic = "ASIC" });
wire_ids!(CrossoverDirection { AsicToFpga = "A2F", FpgaToAsic = "F2A" });
wire_ids!(decode OptPlatform("platform") { Fpga = "fpga", Asic = "asic" });
wire_ids!(SolverKind { Analytic = "analytic", Search = "search" });

impl ToJson for Domain {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self.id());
    }
}

impl FromJson for Domain {
    fn from_node(value: Node<'_>) -> Result<Domain, JsonError> {
        decode_id(value, "domain", Domain::parse_id)
    }
}

impl ToJson for Knob {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self.id());
    }
}

impl FromJson for Knob {
    fn from_node(value: Node<'_>) -> Result<Knob, JsonError> {
        decode_id(value, "knob", Knob::parse_id)
    }
}

/// The wire id of a sweep axis.
fn axis_id(axis: SweepAxis) -> &'static str {
    match axis {
        SweepAxis::Applications => "apps",
        SweepAxis::LifetimeYears => "lifetime",
        SweepAxis::VolumeUnits => "volume",
    }
}

impl ToJson for SweepAxis {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(axis_id(*self));
    }
}

/// A sweep axis by wire id: case-insensitive, and `applications` is
/// accepted for `apps`.
fn parse_axis(id: &str) -> Option<SweepAxis> {
    let names = [
        ("apps", SweepAxis::Applications),
        ("applications", SweepAxis::Applications),
        ("lifetime", SweepAxis::LifetimeYears),
        ("volume", SweepAxis::VolumeUnits),
    ];
    let found = names
        .into_iter()
        .find(|(name, _)| id.eq_ignore_ascii_case(name));
    found.map(|(_, axis)| axis)
}

impl FromJson for SweepAxis {
    fn from_node(value: Node<'_>) -> Result<SweepAxis, JsonError> {
        decode_id(value, "axis", parse_axis)
    }
}

/// `[with kg]`: a [`Carbon`] member travels as plain kilograms.
mod kg {
    use super::*;

    pub(super) fn write_json(carbon: &Carbon, w: &mut JsonWriter) {
        w.number(carbon.as_kg());
    }
}

/// `[with knob_overrides]`: Table 1 knob overrides travel as an object
/// keyed by [`Knob::id`], in application order; absent means none.
mod knob_overrides {
    use super::*;

    pub(super) fn write_json(knobs: &[(Knob, f64)], w: &mut JsonWriter) {
        w.begin_object();
        for (knob, value) in knobs {
            w.member(knob.id(), value);
        }
        w.end_object();
    }

    /// Members are read in document order: a knob named twice is an
    /// error, not last-wins.
    pub(super) fn from_node(member: Option<Node<'_>>) -> Result<Vec<(Knob, f64)>, JsonError> {
        let mut knobs = Vec::new();
        let Some(member) = member.filter(|member| !member.is_null()) else {
            return Ok(knobs);
        };
        let members = member
            .members()
            .ok_or_else(|| JsonError::schema("", "expected an object of knob values"))?;
        for (id, member) in members {
            let id = id.as_str().unwrap_or_default();
            let knob =
                Knob::parse_id(&id).ok_or_else(|| JsonError::schema(&*id, "unknown knob"))?;
            if knobs.iter().any(|&(seen, _)| seen == knob) {
                return Err(JsonError::schema(
                    &*id,
                    format!("knob '{id}' overridden more than once"),
                ));
            }
            let value = member
                .as_f64()
                .ok_or_else(|| JsonError::schema(&*id, "expected a number"))?;
            knobs.push((knob, value));
        }
        Ok(knobs)
    }
}

/// `[with axis_values]`: per-axis values travel as an object keyed by the
/// axis id, in order.
mod axis_values {
    use super::*;

    pub(super) fn write_json(values: &[(SweepAxis, f64)], w: &mut JsonWriter) {
        w.begin_object();
        for &(axis, value) in values {
            w.member(axis_id(axis), &value);
        }
        w.end_object();
    }
}

wire_struct! {
    impl ToJson for Crossover {
        at: f64,
        direction: CrossoverDirection,
    }
}

wire_struct! {
    impl OperatingPoint {
        applications: u64 [default OperatingPoint::paper_default().applications],
        lifetime_years: f64 [default OperatingPoint::paper_default().lifetime_years],
        volume: u64 [default OperatingPoint::paper_default().volume],
    }
}

impl ToJson for CfpBreakdown {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("design_kg", &self.design.as_kg());
        w.member("manufacturing_kg", &self.manufacturing.as_kg());
        w.member("packaging_kg", &self.packaging.as_kg());
        w.member("eol_kg", &self.eol.as_kg());
        w.member("operation_kg", &self.operation.as_kg());
        w.member("app_dev_kg", &self.app_dev.as_kg());
        w.member("total_kg", &self.total().as_kg());
        w.end_object();
    }
}

impl ToJson for PlatformComparison {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("domain", &self.domain);
        w.member("fpga", &self.fpga);
        w.member("asic", &self.asic);
        w.member("ratio", &self.fpga_to_asic_ratio());
        w.member("winner", &self.winner());
        w.end_object();
    }
}

impl ToJson for SweepPoint {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("x", &self.x);
        w.member("fpga", &self.fpga);
        w.member("asic", &self.asic);
        w.member("ratio", &self.ratio());
        w.end_object();
    }
}

impl ToJson for SweepSeries {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("domain", &self.domain);
        w.member("axis", &self.axis);
        w.member("points", &self.points);
        w.member("crossovers", &self.crossovers());
        w.end_object();
    }
}

impl ToJson for SensitivityEntry {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("knob", &self.knob);
        w.member("ratio_at_low", &self.ratio_at_low);
        w.member("ratio_at_high", &self.ratio_at_high);
        w.member("ratio_at_baseline", &self.ratio_at_baseline);
        w.member("swing", &self.swing());
        w.member("flips_winner", &self.flips_winner());
        w.end_object();
    }
}

wire_struct! {
    impl ToJson for TornadoAnalysis {
        domain: Domain,
        point: OperatingPoint,
        entries: Vec<SensitivityEntry>,
    }
}

/// Opens a lattice response and writes its lattice members, up to the key
/// of its `cells` matrix — shared by [`GridSweep`], the streamed
/// [`crate::GridStream`] (so both produce the same bytes) and
/// [`FrontierResult`].
pub(crate) fn write_grid_head(
    w: &mut JsonWriter,
    domain: Domain,
    (x_axis, x_values): (SweepAxis, &[f64]),
    (y_axis, y_values): (SweepAxis, &[f64]),
    cells: &str,
) {
    w.begin_object();
    w.member("domain", &domain);
    w.member("x_axis", &x_axis);
    w.member("x_values", x_values);
    w.member("y_axis", &y_axis);
    w.member("y_values", y_values);
    w.key(cells);
}

impl ToJson for GridSweep {
    fn write_json(&self, w: &mut JsonWriter) {
        write_grid_head(
            w,
            self.domain,
            (self.x_axis, &self.x_values),
            (self.y_axis, &self.y_values),
            "ratios",
        );
        self.ratios.write_json(w);
        w.member("fpga_winning_fraction", &self.fpga_winning_fraction());
        w.end_object();
    }
}

wire_struct! {
    /// A scenario addressed by a request: a domain template plus Table 1 knob
    /// overrides. Two requests with the same spec compile to the same
    /// [`crate::CompiledScenario`] — the key the server's scenario cache uses.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScenarioSpec {
        /// The application domain.
        pub domain: Domain,
        /// Knob overrides applied on top of
        /// [`EstimatorParams::paper_defaults`], in application order.
        pub knobs: Vec<(Knob, f64)> [with knob_overrides],
    }
}

impl ScenarioSpec {
    /// A baseline (no-override) spec for a domain.
    pub fn baseline(domain: Domain) -> Self {
        ScenarioSpec {
            domain,
            knobs: Vec::new(),
        }
    }

    /// Resolves the spec to a parameter set: paper defaults with every
    /// override applied (clamped to its knob's range, like
    /// [`Knob::apply_mut`] always does).
    pub fn params(&self) -> EstimatorParams {
        let mut params = EstimatorParams::paper_defaults();
        for &(knob, value) in &self.knobs {
            knob.apply_mut(&mut params, value);
        }
        params
    }
}

/// A scenario reference: either an inline [`ScenarioSpec`] (exactly what
/// every pre-catalog request carries) or a named catalog entry with
/// optional knob overrides applied on top of the cataloged overrides.
///
/// On the wire the two forms share one flat object: a string `"id"`
/// member selects the catalog form, otherwise the object is decoded as
/// an inline spec (`"domain"` + `"knobs"`).
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioRef {
    /// An inline spec.
    Inline(ScenarioSpec),
    /// A named entry of [`crate::scenario::catalog`], plus overrides
    /// appended after the cataloged knob list.
    Catalog {
        /// The catalog id.
        id: String,
        /// Knob overrides appended after the cataloged overrides.
        knobs: Vec<(Knob, f64)>,
    },
}

impl ScenarioRef {
    /// The catalog id this reference names, if any.
    pub fn catalog_id(&self) -> Option<&str> {
        match self {
            ScenarioRef::Inline(_) => None,
            ScenarioRef::Catalog { id, .. } => Some(id),
        }
    }
}

impl From<ScenarioSpec> for ScenarioRef {
    fn from(spec: ScenarioSpec) -> ScenarioRef {
        ScenarioRef::Inline(spec)
    }
}

impl ToJson for ScenarioRef {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            ScenarioRef::Inline(spec) => spec.write_json(w),
            ScenarioRef::Catalog { id, knobs } => {
                w.begin_object();
                w.member("id", id);
                w.key("knobs");
                knob_overrides::write_json(knobs, w);
                w.end_object();
            }
        }
    }
}

impl FromJson for ScenarioRef {
    fn from_node(value: Node<'_>) -> Result<ScenarioRef, JsonError> {
        match value.get("id") {
            Some(member) if !member.is_null() => Ok(ScenarioRef::Catalog {
                id: String::from_node(member).map_err(|e| prefix_schema("id", e))?,
                knobs: knob_overrides::from_node(value.get("knobs"))
                    .map_err(|e| prefix_schema("knobs", e))?,
            }),
            _ => Ok(ScenarioRef::Inline(ScenarioSpec::from_node(value)?)),
        }
    }
}

wire_struct! {
    /// `POST /v1/scenario`: one catalog or inline scenario, evaluated and
    /// scored.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScenarioRunRequest {
        /// The scenario to run.
        pub scenario: ScenarioRef [flatten],
        /// Optional operating-point override; absent means the catalog
        /// entry's point (or [`OperatingPoint::paper_default`] for inline
        /// specs).
        pub point: Option<OperatingPoint> [omit None],
    }
}

wire_struct! {
    /// `POST /v1/scenario` response: the comparison plus its scored verdict.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScenarioRunResponse: ToJson {
        /// The resolved catalog id (`None` for inline specs).
        pub id: Option<String>,
        /// The point the scenario was evaluated at.
        pub point: OperatingPoint,
        /// The comparison the engine produced.
        pub comparison: PlatformComparison,
        /// The scored verdict over the outcome.
        pub verdict: Verdict,
    }
}

wire_struct! {
    impl ToJson for Verdict {
        mean_excess: f64,
        worst_excess: f64,
        loss_fraction: f64,
        embodied_share: f64,
        score: f64,
    }
}

/// A carbon-intensity series reference: a named region preset or inline
/// samples.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesRef {
    /// One of [`CarbonIntensitySeries::REGIONS`].
    Region(String),
    /// User-supplied samples (validated at decode time).
    Inline(CarbonIntensitySeries),
}

impl ToJson for SeriesRef {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            SeriesRef::Region(name) => w.string(name),
            SeriesRef::Inline(series) => {
                w.begin_object();
                w.member("points", series.points());
                w.member("step_hours", &series.step_hours());
                w.end_object();
            }
        }
    }
}

impl FromJson for SeriesRef {
    fn from_node(value: Node<'_>) -> Result<SeriesRef, JsonError> {
        if let Some(name) = value.as_str() {
            return Ok(SeriesRef::Region(name.into_owned()));
        }
        if value.members().is_none() {
            return Err(JsonError::schema(
                "series",
                "expected a region name or a {points, step_hours} object",
            ));
        }
        let points: Vec<f64> = decode_member(value, "points")?;
        let step_hours = decode_member_or(value, "step_hours", || 1.0)?;
        let series = CarbonIntensitySeries::new(points, step_hours)
            .map_err(|e| JsonError::schema("series", e.to_string()))?;
        Ok(SeriesRef::Inline(series))
    }
}

wire_struct! {
    /// `POST /v1/replay`: a scenario replayed step by step against a
    /// time-varying grid carbon intensity.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ReplayRequest {
        /// The scenario to replay.
        pub scenario: ScenarioRef [flatten],
        /// Optional operating-point override (same defaulting as
        /// [`ScenarioRunRequest::point`]).
        pub point: Option<OperatingPoint> [omit None],
        /// The intensity series to replay against (defaults to the
        /// `global_flat` region preset).
        pub series: SeriesRef [default SeriesRef::Region(Self::DEFAULT_REGION.to_string())],
        /// Whether step lookup interpolates between bounding samples.
        pub interpolate: bool [default false],
        /// How many times the replay walks the series end to end; must not
        /// exceed the device lifetime in whole years, and series length ×
        /// years must not exceed [`ReplayRequest::MAX_STEPS`]. Omitted from
        /// the wire when 1.
        pub years: u64 [omit 1],
    }
}

impl ReplayRequest {
    /// The region preset used when a request names no series.
    pub const DEFAULT_REGION: &'static str = "global_flat";
    /// The most replay steps (series length × years) one request may ask
    /// for: 1915 years of an hourly region preset.
    pub const MAX_STEPS: usize = 1 << 24;
}

wire_struct! {
    impl ToJson for ReplayOutcome {
        steps: u64,
        fpga_operational: Carbon as "fpga_operational_kg" [with kg],
        asic_operational: Carbon as "asic_operational_kg" [with kg],
        fpga_total: Carbon as "fpga_total_kg" [with kg],
        asic_total: Carbon as "asic_total_kg" [with kg],
        mean_ratio: f64,
        worst_ratio: f64,
        final_ratio: f64,
        fpga_win_fraction: f64,
        verdict: Verdict,
    }
}

wire_struct! {
    /// `POST /v1/replay` response: the replay summary and scored verdict.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ReplayResponse: ToJson {
        /// The resolved catalog id (`None` for inline specs).
        pub id: Option<String>,
        /// The replayed domain.
        pub domain: Domain,
        /// The point the scenario was replayed at.
        pub point: OperatingPoint,
        /// The replay summary (cumulative totals, trajectory statistics,
        /// verdict).
        pub replay: ReplayOutcome,
    }
}

/// Decodes an optional `"platform"` member, defaulting to the FPGA.
fn decode_platform(value: Node<'_>) -> Result<OptPlatform, JsonError> {
    decode_member_or(value, "platform", || OptPlatform::Fpga)
}

/// Encodes a `"platform"` member, omitted when it is the FPGA default.
fn write_platform(w: &mut JsonWriter, platform: OptPlatform) {
    if platform != OptPlatform::Fpga {
        w.member("platform", &platform);
    }
}

impl ToJson for Objective {
    fn write_json(&self, w: &mut JsonWriter) {
        let (goal, platform, budget_kg) = match *self {
            Objective::MinTotal(platform) => ("min_total", platform, None),
            Objective::MinOperational(platform) => ("min_operational", platform, None),
            Objective::MinEmbodied(platform) => ("min_embodied", platform, None),
            Objective::MaxFpgaMargin => ("max_margin", OptPlatform::Fpga, None),
            Objective::MinRatio => ("min_ratio", OptPlatform::Fpga, None),
            Objective::MeetBudget {
                platform,
                budget_kg,
            } => ("budget", platform, Some(budget_kg)),
        };
        w.begin_object();
        w.member("goal", goal);
        write_platform(w, platform);
        if let Some(budget_kg) = budget_kg {
            w.member("budget_kg", &budget_kg);
        }
        w.end_object();
    }
}

impl FromJson for Objective {
    fn from_node(value: Node<'_>) -> Result<Objective, JsonError> {
        let goal: String = decode_member(value, "goal")?;
        match goal.as_str() {
            "min_total" => Ok(Objective::MinTotal(decode_platform(value)?)),
            "min_operational" => Ok(Objective::MinOperational(decode_platform(value)?)),
            "min_embodied" => Ok(Objective::MinEmbodied(decode_platform(value)?)),
            "max_margin" => Ok(Objective::MaxFpgaMargin),
            "min_ratio" => Ok(Objective::MinRatio),
            "budget" => Ok(Objective::MeetBudget {
                platform: decode_platform(value)?,
                budget_kg: decode_member(value, "budget_kg")?,
            }),
            other => Err(JsonError::schema(
                "goal",
                format!(
                    "unknown goal '{other}' (expected min_total, min_operational, \
                     min_embodied, max_margin, min_ratio or budget)"
                ),
            )),
        }
    }
}

wire_struct! {
    impl SearchKnob {
        axis: SweepAxis,
        min: f64,
        max: f64,
        integer: bool [omit false],
    }
}

impl ToJson for Constraint {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        match *self {
            Constraint::FpgaWins => w.member("kind", "fpga_wins"),
            Constraint::MaxTotalKg { platform, limit_kg } => {
                w.member("kind", "max_total_kg");
                write_platform(w, platform);
                w.member("limit_kg", &limit_kg);
            }
        }
        w.end_object();
    }
}

impl FromJson for Constraint {
    fn from_node(value: Node<'_>) -> Result<Constraint, JsonError> {
        let kind: String = decode_member(value, "kind")?;
        match kind.as_str() {
            "fpga_wins" => Ok(Constraint::FpgaWins),
            "max_total_kg" => Ok(Constraint::MaxTotalKg {
                platform: decode_platform(value)?,
                limit_kg: decode_member(value, "limit_kg")?,
            }),
            other => Err(JsonError::schema(
                "kind",
                format!("unknown constraint kind '{other}' (expected fpga_wins or max_total_kg)"),
            )),
        }
    }
}

wire_struct! {
    impl ToJson for CertificateProbe {
        axis: SweepAxis,
        at: f64,
        objective: f64,
        delta: f64,
    }
}

wire_struct! {
    /// `POST /v1/optimize`: an inverse query — minimize an objective (or fill
    /// a carbon budget) over a box of 1–3 search knobs.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OptimizeRequest {
        /// The scenario to optimize over.
        pub scenario: ScenarioRef [flatten],
        /// Optional operating-point override supplying the non-searched axes
        /// (same defaulting as [`ScenarioRunRequest::point`]).
        pub point: Option<OperatingPoint> [omit None],
        /// What to minimize or satisfy.
        pub objective: Objective,
        /// The searched axes and their bounds (the `"search"` wire member).
        pub search: Vec<SearchKnob>,
        /// Feasibility constraints (omitted from the wire when empty).
        pub constraints: Vec<Constraint> [omit Vec::<Constraint>::new()],
        /// Relative solve tolerance for the coordinate search (omitted when
        /// [`OptimizeRequest::DEFAULT_TOLERANCE`]).
        pub tolerance: f64 [omit Self::DEFAULT_TOLERANCE],
        /// Kernel-evaluation budget for the coordinate search (omitted when
        /// [`OptimizeRequest::DEFAULT_MAX_EVALS`]).
        pub max_evals: u64 [omit Self::DEFAULT_MAX_EVALS],
    }
}

impl OptimizeRequest {
    /// Relative tolerance used when a request names none.
    pub const DEFAULT_TOLERANCE: f64 = 1e-6;
    /// Evaluation budget used when a request names none.
    pub const DEFAULT_MAX_EVALS: u64 = 10_000;
}

wire_struct! {
    /// `POST /v1/optimize` response: the argmin, its verdict, and the solve's
    /// evidence trail.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OptimizeResponse: ToJson {
        /// The resolved catalog id (`None` for inline specs).
        pub id: Option<String>,
        /// The optimized domain.
        pub domain: Domain,
        /// The full operating point at the optimum.
        pub point: OperatingPoint,
        /// The argmin values of the searched knobs, in request order.
        pub argmin: Vec<(SweepAxis, f64)> [with axis_values],
        /// The achieved objective scalar (kernel-evaluated at the argmin).
        pub objective: f64,
        /// The scored verdict at the optimum.
        pub verdict: Verdict,
        /// Kernel evaluations spent (including certificate probes).
        pub evaluations: u64,
        /// Which solver tier answered.
        pub solver: SolverKind,
        /// Per-knob one-sided local-optimality probes.
        pub certificate: Vec<CertificateProbe>,
    }
}

/// `GET /v1/catalog`: the scenario catalog listing. The request carries
/// no parameters — the type exists so the catalog rides the same
/// [`Query`]/[`Outcome`] envelope as every other kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CatalogRequest;

impl ToJson for CatalogRequest {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.end_object();
    }
}

impl FromJson for CatalogRequest {
    fn from_node(value: Node<'_>) -> Result<CatalogRequest, JsonError> {
        gf_json::expect_object(value).map(|()| CatalogRequest)
    }
}

wire_struct! {
    /// One catalog entry as listed on the wire: the scenario's members, then
    /// its id, title, description and operating point.
    impl ToJson for CatalogEntry {
        scenario: ScenarioSpec [flatten],
        id: &'static str,
        title: &'static str,
        description: &'static str,
        point: OperatingPoint,
    }
}

wire_struct! {
    /// `GET /v1/catalog` response: every named scenario, in catalog order.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CatalogResponse: ToJson {
        /// The catalog entries.
        pub entries: Vec<CatalogEntry>,
    }
}

wire_struct! {
    /// `POST /v1/evaluate`: one operating point in one scenario.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EvaluateRequest {
        /// The scenario to evaluate in.
        pub scenario: ScenarioSpec [flatten],
        /// The operating point (defaults to [`OperatingPoint::paper_default`]).
        pub point: OperatingPoint [default OperatingPoint::paper_default()],
    }
}

/// `POST /v1/evaluate` response: the full comparison at the point.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluateResponse {
    /// The comparison the engine produced.
    pub comparison: PlatformComparison,
}

impl ToJson for EvaluateResponse {
    fn write_json(&self, w: &mut JsonWriter) {
        self.comparison.write_json(w);
    }
}

wire_struct! {
    /// `POST /v1/batch`: many operating points in one scenario, evaluated
    /// through the zero-allocation batch kernel.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BatchEvalRequest {
        /// The scenario every point is evaluated in.
        pub scenario: ScenarioSpec [flatten],
        /// The operating points, evaluated in order.
        pub points: Vec<OperatingPoint>,
    }
}

/// `{"count", "results"}` — the wire form of a comparison list.
fn write_results(w: &mut JsonWriter, comparisons: &[PlatformComparison]) {
    w.begin_object();
    w.member("count", &comparisons.len());
    w.member("results", comparisons);
    w.end_object();
}

/// `POST /v1/batch` response: one comparison per requested point, in
/// request order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEvalResponse {
    /// The comparisons, in request order.
    pub comparisons: Vec<PlatformComparison>,
}

impl ToJson for BatchEvalResponse {
    fn write_json(&self, w: &mut JsonWriter) {
        write_results(w, &self.comparisons);
    }
}

wire_struct! {
    /// `POST /v1/crossover`: the three crossover searches of the paper's
    /// Figs. 4–6 around a base operating point.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CrossoverRequest {
        /// The scenario to search in.
        pub scenario: ScenarioSpec [flatten],
        /// The base operating point supplying the held parameters.
        pub base: OperatingPoint as "point" [default OperatingPoint::paper_default()],
        /// Upper bound of the application-count search (Fig. 4).
        pub max_applications: u64 [default Self::DEFAULT_MAX_APPLICATIONS],
        /// Lifetime search range in years (Fig. 5).
        pub lifetime_range: (f64, f64) [default Self::DEFAULT_LIFETIME_RANGE],
        /// Volume search range in devices (Fig. 6).
        pub volume_range: (u64, u64) [default Self::DEFAULT_VOLUME_RANGE],
    }
}

impl CrossoverRequest {
    /// Default upper bound of the application-count search.
    pub const DEFAULT_MAX_APPLICATIONS: u64 = 20;
    /// Default lifetime search range in years.
    pub const DEFAULT_LIFETIME_RANGE: (f64, f64) = (0.05, 5.0);
    /// Default volume search range in devices.
    pub const DEFAULT_VOLUME_RANGE: (u64, u64) = (1_000, 50_000_000);

    /// A request with the default search windows (the wire's and the CLI's).
    pub fn with_default_ranges(scenario: ScenarioSpec, base: OperatingPoint) -> Self {
        CrossoverRequest {
            scenario,
            base,
            max_applications: Self::DEFAULT_MAX_APPLICATIONS,
            lifetime_range: Self::DEFAULT_LIFETIME_RANGE,
            volume_range: Self::DEFAULT_VOLUME_RANGE,
        }
    }
}

wire_struct! {
    /// `POST /v1/crossover` response: one entry per searched axis; `None`
    /// where the preferred platform never flips inside the window.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CrossoverResponse: ToJson {
        /// The domain searched.
        pub domain: Domain,
        /// The base operating point the held parameters came from.
        pub base: OperatingPoint as "point",
        /// Smallest winning application count (Fig. 4), if any.
        pub applications: Option<u64>,
        /// Lifetime crossover (Fig. 5), if any.
        pub lifetime: Option<Crossover>,
        /// Volume crossover (Fig. 6), if any.
        pub volume: Option<Crossover>,
    }
}

/// Linearly spaced axis values (endpoints included) — the lattice geometry
/// shared by [`FrontierRequest`], [`GridRequest`] and [`SweepRequest`].
fn linear_axis_values((from, to): (f64, f64), steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|i| from + (to - from) * i as f64 / (steps as f64 - 1.0))
        .collect()
}

wire_struct! {
    /// `POST /v1/frontier`: an adaptive winner map over a 2-D lattice.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FrontierRequest {
        /// The scenario to trace in.
        pub scenario: ScenarioSpec [flatten],
        /// The base operating point supplying the held parameter.
        pub base: OperatingPoint as "point" [default OperatingPoint::paper_default()],
        /// Axis swept along the columns.
        pub x_axis: SweepAxis [default SweepAxis::Applications],
        /// Column range (inclusive on both ends).
        pub x_range: (f64, f64) as ("x_from", "x_to") [default (1.0, 12.0)],
        /// Axis swept along the rows.
        pub y_axis: SweepAxis [default SweepAxis::LifetimeYears],
        /// Row range (inclusive on both ends).
        pub y_range: (f64, f64) as ("y_from", "y_to") [default (0.25, 3.0)],
        /// Lattice resolution per axis (2–1024).
        pub steps: usize [default 24],
    }
}

impl FrontierRequest {
    /// The lattice coordinates this request describes (linear spacing,
    /// endpoints included) — shared by the server handler and clients that
    /// want to reproduce the lattice locally.
    pub fn lattice(&self) -> (Vec<f64>, Vec<f64>) {
        (
            linear_axis_values(self.x_range, self.steps),
            linear_axis_values(self.y_range, self.steps),
        )
    }
}

wire_struct! {
    /// `POST /v1/grid`: a dense FPGA:ASIC ratio heatmap over a 2-D lattice
    /// (the paper's Fig. 8), every cell evaluated through the batch
    /// kernel. Same geometry and defaults as [`FrontierRequest`]; use the
    /// frontier when only the winner of each cell matters.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GridRequest {
        /// The scenario to evaluate in.
        pub scenario: ScenarioSpec [flatten],
        /// The base operating point supplying the held parameter.
        pub base: OperatingPoint as "point" [default OperatingPoint::paper_default()],
        /// Axis swept along the columns.
        pub x_axis: SweepAxis [default SweepAxis::Applications],
        /// Column range (inclusive on both ends).
        pub x_range: (f64, f64) as ("x_from", "x_to") [default (1.0, 12.0)],
        /// Axis swept along the rows.
        pub y_axis: SweepAxis [default SweepAxis::LifetimeYears],
        /// Row range (inclusive on both ends).
        pub y_range: (f64, f64) as ("y_from", "y_to") [default (0.25, 3.0)],
        /// Lattice resolution per axis (2–1024).
        pub steps: usize [default 24],
        /// When `true`, a serving transport delivers the grid as streamed
        /// row-blocks (HTTP chunked transfer-encoding) instead of one buffered
        /// body. The decoded payload is byte-identical either way; this only
        /// bounds transport memory. Defaults to `false` and is omitted from
        /// the encoding when `false`, so buffered requests round-trip to the
        /// pre-streaming wire form.
        pub stream: bool [omit false],
    }
}

impl GridRequest {
    /// The lattice coordinates this request describes — identical
    /// semantics to [`FrontierRequest::lattice`].
    pub fn lattice(&self) -> (Vec<f64>, Vec<f64>) {
        (
            linear_axis_values(self.x_range, self.steps),
            linear_axis_values(self.y_range, self.steps),
        )
    }
}

wire_struct! {
    /// One latency histogram of `GET /v1/metrics`: `bounds_us[i]` is the
    /// inclusive upper bound (microseconds) of bucket `i`, and `counts` has one
    /// extra trailing bucket for everything above the last bound (JSON has no
    /// lexeme for infinity, so the overflow bound is implicit).
    #[derive(Debug, Clone, PartialEq)]
    pub struct LatencyHistogram {
        /// Inclusive bucket upper bounds in microseconds, ascending.
        pub bounds_us: Vec<f64>,
        /// Observation counts; `counts.len() == bounds_us.len() + 1` (the last
        /// bucket is the overflow bucket).
        pub counts: Vec<u64>,
    } check histogram_shape
}

fn histogram_shape(histogram: &LatencyHistogram) -> Result<(), JsonError> {
    if histogram.counts.len() != histogram.bounds_us.len() + 1 {
        return Err(JsonError::schema(
            "counts",
            "expected one count per bound plus the overflow bucket",
        ));
    }
    Ok(())
}

wire_struct! {
    /// One route's counters in `GET /v1/metrics`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RouteMetrics {
        /// Stable route label, e.g. `"POST /v1/evaluate"`.
        pub route: String,
        /// Requests answered on this route (any status).
        pub requests: u64,
        /// Requests answered with a non-2xx status. Kept as the sum of
        /// `errors_4xx + errors_5xx` for consumers that predate the split.
        pub errors: u64,
        /// Requests answered with a 4xx status (client faults).
        pub errors_4xx: u64 [default 0],
        /// Requests answered with a 5xx (or other non-2xx, non-4xx) status —
        /// server faults.
        pub errors_5xx: u64 [default 0],
        /// Request-body bytes received on this route.
        pub bytes_in: u64 [default 0],
        /// Response-body bytes sent on this route.
        pub bytes_out: u64 [default 0],
        /// Handler latency distribution.
        pub latency: LatencyHistogram,
    }
}

wire_struct! {
    /// The scenario cache's counters in `GET /v1/metrics`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CacheShardMetrics {
        /// Compiled scenarios currently cached.
        pub entries: u64,
        /// Lifetime lookup hits.
        pub hits: u64,
        /// Lifetime lookup misses (compilations).
        pub misses: u64,
    }
}

wire_struct! {
    /// `GET /v1/metrics` response: the serving core's observability snapshot —
    /// per-route request/error counters and latency histograms, the
    /// scenario-cache statistics, and the connection governor's gauges.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MetricsResponse {
        /// Requests answered over the server's lifetime (any route, any status).
        pub requests_served: u64,
        /// Connections currently accepted and not yet finished.
        pub connections_live: u64,
        /// The governor's hard cap on live connections.
        pub connections_max: u64,
        /// Connections rejected with `503` by admission control.
        pub connections_rejected: u64,
        /// Per-route counters, in stable route order.
        pub routes: Vec<RouteMetrics>,
        /// Scenario-cache statistics: one element, the engine's one cache
        /// (a list, so readers that fold it keep working).
        pub cache_shards: Vec<CacheShardMetrics>,
    }
}

wire_struct! {
    /// One span in `GET /v1/trace`: a named, timed slice of work with the
    /// request id that correlates it to an `x-request-id` response header.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TraceSpan: ToJson {
        /// Span class, e.g. `"parse"`, `"execute"`, `"cache_hit"`.
        pub name: String,
        /// Unique span id, 16 lowercase hex digits.
        pub span_id: String,
        /// Owning request id, 16 lowercase hex digits (all zeros when the
        /// span is not request-scoped).
        pub request_id: String,
        /// Start, in nanoseconds since the process trace epoch.
        pub start_ns: u64,
        /// Duration in nanoseconds (`0` for instant events).
        pub duration_ns: u64,
        /// Span-class-specific detail (byte count, catalog index, ...).
        pub aux: u64,
        /// Recording thread's trace-ring id.
        pub thread: u64,
    }
}

wire_struct! {
    /// `GET /v1/trace` response: the most recent spans from every thread's
    /// trace ring, newest first.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TraceResponse: ToJson {
        /// Recent spans, newest first.
        pub spans: Vec<TraceSpan>,
        /// Whether tracing is currently recording.
        pub enabled: bool,
    }
}

wire_struct! {
    /// `POST /v1/compare`: one operating point evaluated side by side in
    /// several scenarios (e.g. all three domains at their baselines).
    #[derive(Debug, Clone, PartialEq)]
    pub struct CompareRequest {
        /// The scenarios to evaluate, in response order (1–16).
        pub scenarios: Vec<ScenarioSpec>,
        /// The operating point shared by every scenario.
        pub point: OperatingPoint [default OperatingPoint::paper_default()],
    }
}

impl CompareRequest {
    /// The most scenarios one request may carry.
    pub const MAX_SCENARIOS: usize = 16;
}

/// `POST /v1/compare` response: one comparison per requested scenario, in
/// request order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareResponse {
    /// The comparisons, in request order.
    pub comparisons: Vec<PlatformComparison>,
}

impl ToJson for CompareResponse {
    fn write_json(&self, w: &mut JsonWriter) {
        write_results(w, &self.comparisons);
    }
}

wire_struct! {
    /// `POST /v1/sweep`: one workload axis swept over a linear range, the
    /// other two held at `base` (the paper's Figs. 4–6).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SweepRequest {
        /// The scenario to sweep in.
        pub scenario: ScenarioSpec [flatten],
        /// The operating point supplying the two held parameters.
        pub base: OperatingPoint as "point" [default OperatingPoint::paper_default()],
        /// The swept axis.
        pub axis: SweepAxis,
        /// Sweep range (inclusive on both ends; `to > from`).
        pub range: (f64, f64) as ("from", "to"),
        /// Number of samples (2–100 000).
        pub steps: usize [default 10],
    }
}

impl SweepRequest {
    /// The most samples one request may ask for.
    pub const MAX_STEPS: usize = 100_000;

    /// The sampled axis values (linear spacing, endpoints included).
    pub fn values(&self) -> Vec<f64> {
        linear_axis_values(self.range, self.steps)
    }
}

wire_struct! {
    /// `POST /v1/tornado`: one-at-a-time sensitivity analysis over every
    /// Table 1 knob around the scenario's parameters (the paper's Fig. 12).
    #[derive(Debug, Clone, PartialEq)]
    pub struct TornadoRequest {
        /// The scenario whose parameters anchor the analysis.
        pub scenario: ScenarioSpec [flatten],
        /// The operating point the ratio is probed at.
        pub point: OperatingPoint [default OperatingPoint::paper_default()],
    }
}

wire_struct! {
    /// `POST /v1/montecarlo`: Monte-Carlo uncertainty analysis over the
    /// Table 1 knob ranges (the paper's Fig. 13). Deterministic for a given
    /// `(samples, seed)` regardless of thread count.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MonteCarloRequest {
        /// The scenario whose parameters anchor the study.
        pub scenario: ScenarioSpec [flatten],
        /// The (fixed) workload operating point.
        pub point: OperatingPoint [default OperatingPoint::paper_default()],
        /// Number of parameter samples to draw (1–1 048 576).
        pub samples: usize [default Self::DEFAULT_SAMPLES],
        /// RNG seed. Must stay below 2⁵³ so it survives the JSON number
        /// round-trip exactly.
        pub seed: u64 [default Self::DEFAULT_SEED],
    }
}

impl MonteCarloRequest {
    /// Default sample count (matches the CLI default).
    pub const DEFAULT_SAMPLES: usize = 512;
    /// Default wire seed. Smaller than [`crate::MonteCarlo::new`]'s default
    /// because JSON numbers only represent integers below 2⁵³ exactly.
    pub const DEFAULT_SEED: u64 = 0x9E37_79B9;
    /// The most samples one request may ask for.
    pub const MAX_SAMPLES: usize = 1 << 20;
    /// Exclusive upper bound on seeds (2⁵³): every integer below it has
    /// an exact JSON representation, while 2⁵³ itself is ambiguous (it is
    /// also what 2⁵³+1 rounds to). The engine and the CLI both reject
    /// seeds at or above this bound so local and served runs cannot
    /// silently diverge.
    pub const MAX_SEED: u64 = 1 << 53;

    /// A request with the default sample count and seed.
    pub fn with_defaults(scenario: ScenarioSpec, point: OperatingPoint) -> Self {
        MonteCarloRequest {
            scenario,
            point,
            samples: MonteCarloRequest::DEFAULT_SAMPLES,
            seed: MonteCarloRequest::DEFAULT_SEED,
        }
    }
}

/// `POST /v1/montecarlo` response: the summary statistics of the sampled
/// FPGA:ASIC ratio distribution, computed here (the sample vector itself
/// stays server-side).
impl ToJson for UncertaintyReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("domain", &self.domain);
        w.member("point", &self.point);
        w.member("samples", &self.len());
        w.member("ratio_p5", &self.quantile(0.05));
        w.member("ratio_median", &self.median());
        w.member("ratio_p95", &self.quantile(0.95));
        w.member("ratio_mean", &self.mean());
        w.member("fpga_win_probability", &self.fpga_win_probability());
        w.member("majority_winner", &self.majority_winner());
        w.end_object();
    }
}

wire_struct! {
    /// `POST /v1/industry`: the Table 3 industry testcases (Figs. 10–11) under
    /// a configurable deployment scenario.
    #[derive(Debug, Clone, PartialEq)]
    pub struct IndustryRequest {
        /// Table 1 knob overrides applied on top of the paper defaults.
        pub knobs: Vec<(Knob, f64)> [with knob_overrides],
        /// Total service life in years.
        pub service_years: f64 [default 6.0],
        /// Applications an FPGA serves over the service life.
        pub fpga_applications: u64 [default 3],
        /// Deployment volume in devices.
        pub volume: u64 [default 1_000_000],
    }
}

impl Default for IndustryRequest {
    /// The paper's setup: 6 years, 3 FPGA applications, 1 M units, no
    /// overrides — the field list's defaults.
    fn default() -> Self {
        let empty = Document::parse("{}", ParseLimits::default()).expect("`{}` parses");
        IndustryRequest::from_node(empty.root()).expect("every member has a default")
    }
}

wire_struct! {
    /// One device's footprint in a [`IndustryResponse`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct IndustryDeviceReport: ToJson {
        /// Device name (Table 3).
        pub device: String,
        /// Which platform the device is.
        pub platform: PlatformKind,
        /// Its lifecycle footprint under the requested scenario.
        pub cfp: CfpBreakdown,
    }
}

wire_struct! {
    /// `POST /v1/industry` response: every Table 3 device's footprint, FPGAs
    /// first.
    #[derive(Debug, Clone, PartialEq)]
    pub struct IndustryResponse: ToJson {
        /// Per-device footprints.
        pub devices: Vec<IndustryDeviceReport>,
    }
}

/// `POST /v1/frontier` response: the lattice, the dense winner mask
/// (`fpga_wins[row][col]`) and the refiner's evaluation accounting.
impl ToJson for FrontierResult {
    fn write_json(&self, w: &mut JsonWriter) {
        write_grid_head(
            w,
            self.domain,
            (self.x_axis, &self.x_values),
            (self.y_axis, &self.y_values),
            "fpga_wins",
        );
        self.winner_mask().write_json(w);
        w.member("fpga_winning_fraction", &self.fpga_winning_fraction());
        w.member("evaluations", &self.evaluations());
        w.member("evaluated_fraction", &self.evaluated_fraction());
        w.end_object();
    }
}

impl ToJson for ApiError {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("error");
        w.begin_object();
        w.member("code", self.code.id());
        w.member("message", &self.message);
        w.member("retryable", &self.retryable);
        w.end_object();
        w.end_object();
    }
}

/// The range rules of a decoded request — everything the decoder's shape
/// check does not cover. [`crate::Engine`] runs them on every query
/// ([`Query::validate`]), so a request built in code is held to the same
/// rules as one that arrived as JSON, and each rule is stated once.
pub(crate) trait Validate {
    /// `Ok` when every rule holds; otherwise the schema error naming the
    /// offending member.
    fn validate(&self) -> Result<(), JsonError> {
        Ok(())
    }
}

impl Validate for EvaluateRequest {}
impl Validate for BatchEvalRequest {}
impl Validate for CrossoverRequest {}
impl Validate for TornadoRequest {}
impl Validate for ScenarioRunRequest {}
impl Validate for OptimizeRequest {}
impl Validate for CatalogRequest {}

/// `true` for a finite range with `to > from`.
fn increasing((from, to): (f64, f64)) -> bool {
    from.is_finite() && to.is_finite() && to > from
}

impl Validate for CompareRequest {
    fn validate(&self) -> Result<(), JsonError> {
        if !(1..=Self::MAX_SCENARIOS).contains(&self.scenarios.len()) {
            return Err(JsonError::schema(
                "scenarios",
                format!("expected 1 to {} scenarios", Self::MAX_SCENARIOS),
            ));
        }
        Ok(())
    }
}

impl Validate for SweepRequest {
    fn validate(&self) -> Result<(), JsonError> {
        if !(2..=Self::MAX_STEPS).contains(&self.steps) {
            return Err(JsonError::schema(
                "steps",
                format!("expected 2 ≤ steps ≤ {}", Self::MAX_STEPS),
            ));
        }
        if !increasing(self.range) {
            return Err(JsonError::schema(
                "from",
                "sweep range must be finite with to > from",
            ));
        }
        Ok(())
    }
}

/// The lattice rules [`FrontierRequest`] and [`GridRequest`] share.
fn validate_lattice(
    x: (SweepAxis, (f64, f64)),
    y: (SweepAxis, (f64, f64)),
    steps: usize,
) -> Result<(), JsonError> {
    if !(2..=1024).contains(&steps) {
        return Err(JsonError::schema("steps", "expected 2 ≤ steps ≤ 1024"));
    }
    if x.0 == y.0 {
        return Err(JsonError::schema("y_axis", "x_axis and y_axis must differ"));
    }
    if !increasing(x.1) || !increasing(y.1) {
        return Err(JsonError::schema(
            "x_from",
            "ranges must be finite with to > from",
        ));
    }
    Ok(())
}

impl Validate for FrontierRequest {
    fn validate(&self) -> Result<(), JsonError> {
        validate_lattice(
            (self.x_axis, self.x_range),
            (self.y_axis, self.y_range),
            self.steps,
        )
    }
}

impl Validate for GridRequest {
    fn validate(&self) -> Result<(), JsonError> {
        validate_lattice(
            (self.x_axis, self.x_range),
            (self.y_axis, self.y_range),
            self.steps,
        )
    }
}

impl Validate for MonteCarloRequest {
    fn validate(&self) -> Result<(), JsonError> {
        if !(1..=Self::MAX_SAMPLES).contains(&self.samples) {
            return Err(JsonError::schema(
                "samples",
                format!("expected 1 ≤ samples ≤ {}", Self::MAX_SAMPLES),
            ));
        }
        // Seeds at or above 2^53 would be silently rounded by the JSON wire
        // format (2^53 itself is the rounding target of 2^53+1), so a local
        // run and the equivalent HTTP request could diverge.
        if self.seed >= Self::MAX_SEED {
            return Err(JsonError::schema(
                "seed",
                format!(
                    "montecarlo seed {} exceeds 2^53 and would not survive the JSON wire format",
                    self.seed
                ),
            ));
        }
        Ok(())
    }
}

impl Validate for IndustryRequest {
    fn validate(&self) -> Result<(), JsonError> {
        if !self.service_years.is_finite() || self.service_years <= 0.0 {
            return Err(JsonError::schema(
                "service_years",
                "expected a positive number of years",
            ));
        }
        if self.fpga_applications == 0 {
            return Err(JsonError::schema(
                "fpga_applications",
                "expected at least one application",
            ));
        }
        if self.volume == 0 {
            return Err(JsonError::schema("volume", "expected at least one device"));
        }
        Ok(())
    }
}

impl Validate for ReplayRequest {
    /// The upper bound on `years` (the device lifetime) depends on the
    /// resolved catalog point, so the engine checks it after resolution.
    fn validate(&self) -> Result<(), JsonError> {
        if self.years == 0 {
            return Err(JsonError::schema(
                "years",
                "expected at least 1 (the series replays once per year)",
            ));
        }
        let len = match &self.series {
            SeriesRef::Region(_) => HOURS_PER_YEAR,
            SeriesRef::Inline(series) => series.len(),
        };
        let steps = usize::try_from(self.years)
            .ok()
            .and_then(|years| len.checked_mul(years));
        if steps.is_none_or(|steps| steps > Self::MAX_STEPS) {
            return Err(JsonError::schema(
                "years",
                format!(
                    "expected series length × years ≤ {} steps, got {len} × {}",
                    Self::MAX_STEPS,
                    self.years
                ),
            ));
        }
        Ok(())
    }
}

/// Generates [`QueryKind`], [`Query`] and [`Outcome`] and every per-kind
/// dispatch from one table row per kind.
macro_rules! query_kinds {
    ($(
        $(#[$doc:meta])*
        $variant:ident($id:literal, $method:ident, offload: $offload:literal)
            $request:ty => $response:ty;
    )*) => {
        /// The kind discriminator of [`Query`]/[`Outcome`] — one entry per
        /// workload the engine serves. The kind's [`QueryKind::id`] doubles as
        /// the envelope's `"kind"` member, and [`QueryKind::path`] as the HTTP
        /// route (`/v1/<id>`), so the route table, the envelope dispatch and
        /// the metrics labels all derive from this one enumeration.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum QueryKind {
            $($(#[$doc])* $variant,)*
        }

        impl QueryKind {
            /// Every kind, in documentation and route-table order.
            pub const ALL: [QueryKind; [$($id),*].len()] = [$(QueryKind::$variant),*];

            /// The stable identifier used by the envelope's `"kind"` member.
            pub fn id(self) -> &'static str {
                match self {
                    $(QueryKind::$variant => $id,)*
                }
            }

            /// The HTTP route serving this kind (see [`QueryKind::method`]).
            pub fn path(self) -> &'static str {
                match self {
                    $(QueryKind::$variant => concat!("/v1/", $id),)*
                }
            }

            /// The HTTP method serving this kind: `GET` for the
            /// parameter-less catalog listing, `POST` for every kind that
            /// carries a request body.
            pub fn method(self) -> &'static str {
                match self {
                    $(QueryKind::$variant => stringify!($method),)*
                }
            }

            /// Whether a serving transport runs this kind on its worker
            /// pool rather than inline on the event loop: point lookups
            /// finish in microseconds, while the fan-out kinds can burn
            /// milliseconds.
            pub fn offloads(self) -> bool {
                match self {
                    $(QueryKind::$variant => $offload,)*
                }
            }

            /// Decodes this kind's request payload (the flat request object a
            /// `POST /v1/<kind>` body carries — no envelope members required)
            /// from a tree, exactly as [`QueryKind::decode_body`] decodes the
            /// tree's text. Part of the `Value` adapter the benchmark client
            /// is built against.
            ///
            /// # Errors
            ///
            /// Returns the schema error of the offending member.
            pub fn decode_request(self, value: &Value) -> Result<Query, JsonError> {
                gf_json::decode_value(value, |node| self.request_from_node(node))
            }

            /// Decodes this kind's request payload from body text, parsed
            /// under `limits` into a token tape and decoded from it with no
            /// [`Value`] tree — the entry a serving transport uses.
            ///
            /// # Errors
            ///
            /// The parse error of a malformed body, else the schema error of
            /// the offending member.
            pub fn decode_body(self, text: &str, limits: ParseLimits) -> Result<Query, JsonError> {
                self.request_from_node(Document::parse(text, limits)?.root())
            }

            fn request_from_node(self, node: Node<'_>) -> Result<Query, JsonError> {
                Ok(match self {
                    $(QueryKind::$variant => Query::$variant(<$request>::from_node(node)?),)*
                })
            }
        }

        /// One request against the unified engine surface — every workload
        /// the library, the HTTP server and the CLI can answer, as one
        /// versioned type.
        ///
        /// The JSON form is a flat envelope: the request payload with `"v"`
        /// (the [`API_VERSION`]) and `"kind"` (the [`QueryKind::id`])
        /// prepended:
        ///
        /// ```json
        /// {"v": 1, "kind": "sweep", "domain": "dnn", "axis": "apps",
        ///  "from": 1, "to": 12, "steps": 12}
        /// ```
        #[derive(Debug, Clone, PartialEq)]
        pub enum Query {
            $($(#[$doc])* $variant($request),)*
        }

        impl Query {
            /// This query's kind discriminator.
            pub fn kind(&self) -> QueryKind {
                match self {
                    $(Query::$variant(_) => QueryKind::$variant,)*
                }
            }

            /// The flat request payload (what a `POST /v1/<kind>` body
            /// carries, without the envelope members), written and parsed
            /// back: the `Value` adapter's encoder.
            ///
            /// # Panics
            ///
            /// When the request holds a NaN or infinite number.
            pub fn request_body(&self) -> Value {
                match self {
                    $(Query::$variant(request) => request.to_json(),)*
                }
            }

            /// Writes the flat request payload: what a `POST /v1/<kind>`
            /// body carries, without the envelope members.
            pub fn write_body(&self, w: &mut JsonWriter) {
                match self {
                    $(Query::$variant(request) => request.write_json(w),)*
                }
            }

            /// Splices the request payload's members into the open object.
            fn splice_body(&self, w: &mut JsonWriter) {
                match self {
                    $(Query::$variant(request) => w.splice(request),)*
                }
            }

            /// Checks the request's range rules (step counts, range order,
            /// sample counts, seeds, …) — the checks the decoder leaves out.
            /// [`crate::Engine`] runs this on every query.
            ///
            /// # Errors
            ///
            /// The schema error naming the offending member.
            pub fn validate(&self) -> Result<(), JsonError> {
                match self {
                    $(Query::$variant(request) => request.validate(),)*
                }
            }
        }

        /// The result of running a [`Query`] — one variant per query kind, in
        /// the same order. The JSON form is `{"v": 1, "kind": "<id>",
        /// "result": ...}` where `result` is exactly the body the matching
        /// HTTP route answers with.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Outcome {
            $(
                #[doc = concat!("Result of [`Query::", stringify!($variant), "`].")]
                $variant($response),
            )*
        }

        impl Outcome {
            /// This outcome's kind discriminator.
            pub fn kind(&self) -> QueryKind {
                match self {
                    $(Outcome::$variant(_) => QueryKind::$variant,)*
                }
            }

            /// Writes the bare result payload — exactly the body the
            /// matching `/v1/<kind>` route answers with.
            pub fn write_result(&self, w: &mut JsonWriter) {
                match self {
                    $(Outcome::$variant(response) => response.write_json(w),)*
                }
            }

            /// The bare result payload as a [`Value`], written and parsed
            /// back: the `Value` adapter's result.
            ///
            /// # Panics
            ///
            /// When the result holds a NaN or infinite number, which the
            /// engine reports as a model error instead of returning.
            pub fn result_json(&self) -> Value {
                match self {
                    $(Outcome::$variant(response) => response.to_json(),)*
                }
            }
        }
    };
}

query_kinds! {
    /// One operating point in one scenario.
    Evaluate("evaluate", POST, offload: false) EvaluateRequest => EvaluateResponse;
    /// Many operating points in one scenario (batch kernel).
    Batch("batch", POST, offload: true) BatchEvalRequest => BatchEvalResponse;
    /// One point evaluated side by side in several scenarios.
    Compare("compare", POST, offload: false) CompareRequest => CompareResponse;
    /// The three crossover searches (closed-form solver).
    Crossover("crossover", POST, offload: false) CrossoverRequest => CrossoverResponse;
    /// Winner map over a 2-D lattice (per-row bisection for the flip).
    Frontier("frontier", POST, offload: true) FrontierRequest => FrontierResult;
    /// One axis swept over a linear range.
    Sweep("sweep", POST, offload: true) SweepRequest => SweepSeries;
    /// Dense ratio heatmap over a 2-D lattice.
    Grid("grid", POST, offload: true) GridRequest => GridSweep;
    /// One-at-a-time sensitivity analysis over the Table 1 knobs.
    Tornado("tornado", POST, offload: true) TornadoRequest => TornadoAnalysis;
    /// Monte-Carlo uncertainty analysis over the Table 1 ranges.
    MonteCarlo("montecarlo", POST, offload: true) MonteCarloRequest => UncertaintyReport;
    /// The Table 3 industry testcases.
    Industry("industry", POST, offload: false) IndustryRequest => IndustryResponse;
    /// One named-catalog (or inline) scenario, evaluated and scored.
    Scenario("scenario", POST, offload: false) ScenarioRunRequest => ScenarioRunResponse;
    /// A scenario replayed against a time-varying carbon intensity.
    Replay("replay", POST, offload: true) ReplayRequest => ReplayResponse;
    /// An inverse query: minimize an objective (or fill a carbon budget)
    /// over a box of search knobs.
    Optimize("optimize", POST, offload: true) OptimizeRequest => OptimizeResponse;
    /// The scenario-catalog listing (the one `GET` kind).
    Catalog("catalog", GET, offload: false) CatalogRequest => CatalogResponse;
}

impl QueryKind {
    /// Parses an envelope identifier back to its kind.
    pub fn parse_id(id: &str) -> Option<QueryKind> {
        QueryKind::ALL.into_iter().find(|kind| kind.id() == id)
    }

    /// The kind served at an HTTP path, if any.
    pub fn from_path(path: &str) -> Option<QueryKind> {
        QueryKind::ALL.into_iter().find(|kind| kind.path() == path)
    }
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// Reads and validates the `"v"`/`"kind"` envelope members.
fn decode_envelope(value: Node<'_>) -> Result<QueryKind, JsonError> {
    let version: u64 = decode_member_or(value, "v", || API_VERSION)?;
    if version != API_VERSION {
        return Err(JsonError::schema(
            "v",
            format!("unsupported API version {version} (this build speaks {API_VERSION})"),
        ));
    }
    let id: String = decode_member(value, "kind")?;
    QueryKind::parse_id(&id)
        .ok_or_else(|| JsonError::schema("kind", format!("unknown query kind '{id}'")))
}

impl ToJson for Query {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("v", &API_VERSION);
        w.member("kind", self.kind().id());
        self.splice_body(w);
        w.end_object();
    }
}

impl FromJson for Query {
    fn from_node(value: Node<'_>) -> Result<Query, JsonError> {
        decode_envelope(value)?.request_from_node(value)
    }
}

impl ToJson for Outcome {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("v", &API_VERSION);
        w.member("kind", self.kind().id());
        w.key("result");
        self.write_result(w);
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_json::parse;

    #[test]
    fn domain_and_axis_ids_round_trip() {
        for domain in Domain::ALL {
            assert_eq!(Domain::from_json(&domain.to_json()).unwrap(), domain);
            assert_eq!(Domain::parse_id(domain.id()), Some(domain));
        }
        for axis in [
            SweepAxis::Applications,
            SweepAxis::LifetimeYears,
            SweepAxis::VolumeUnits,
        ] {
            assert_eq!(SweepAxis::from_json(&axis.to_json()).unwrap(), axis);
        }
        assert!(Domain::from_json(&Value::String("gpu".into())).is_err());
        assert!(SweepAxis::from_json(&Value::String("watts".into())).is_err());
    }

    #[test]
    fn knob_ids_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for knob in Knob::ALL {
            assert_eq!(Knob::parse_id(knob.id()), Some(knob));
            assert!(seen.insert(knob.id()), "duplicate id {}", knob.id());
        }
        assert_eq!(Knob::parse_id("warp_drive"), None);
    }

    #[test]
    fn comparison_round_trips_bit_for_bit() {
        let comparison = crate::Estimator::default()
            .compare_uniform(Domain::Dnn, 5, 2.0, 1_000_000)
            .unwrap();
        let text = comparison.to_json_string().unwrap();
        // Every number the tape reads back has the engine's bits.
        let doc = Document::parse(&text, ParseLimits::default()).unwrap();
        let number = |path: &[&str]| {
            let found = path.iter().try_fold(doc.root(), |node, key| node.get(key));
            found.and_then(Node::as_f64).map(f64::to_bits)
        };
        for (platform, cfp) in [("fpga", &comparison.fpga), ("asic", &comparison.asic)] {
            for (member, carbon) in [
                ("design_kg", cfp.design),
                ("manufacturing_kg", cfp.manufacturing),
                ("packaging_kg", cfp.packaging),
                ("eol_kg", cfp.eol),
                ("operation_kg", cfp.operation),
                ("app_dev_kg", cfp.app_dev),
                ("total_kg", cfp.total()),
            ] {
                let bits = Some(carbon.as_kg().to_bits());
                assert_eq!(number(&[platform, member]), bits, "{platform}.{member}");
            }
        }
        let ratio = comparison.fpga_to_asic_ratio().to_bits();
        assert_eq!(number(&["ratio"]), Some(ratio));
        assert!(
            text.starts_with(r#"{"domain":"dnn","fpga":{"design_kg":"#),
            "{text}"
        );
        let winner = comparison.winner().to_json_string().unwrap();
        assert!(
            text.ends_with(&format!(r#","winner":{winner}}}"#)),
            "{text}"
        );
    }

    #[test]
    fn evaluate_request_decodes_with_defaults() {
        let request =
            EvaluateRequest::from_json(&parse(r#"{"domain": "crypto"}"#).unwrap()).unwrap();
        assert_eq!(request.scenario.domain, Domain::Crypto);
        assert!(request.scenario.knobs.is_empty());
        assert_eq!(request.point, OperatingPoint::paper_default());

        let request = EvaluateRequest::from_json(
            &parse(
                r#"{"domain": "dnn", "knobs": {"duty_cycle": 0.5},
                    "point": {"applications": 3, "lifetime_years": 1.5, "volume": 1000}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(request.scenario.knobs, vec![(Knob::DutyCycle, 0.5)]);
        assert_eq!(request.point.applications, 3);
        // Round trip through the encoder.
        let again = EvaluateRequest::from_json(&parse(&request.to_json_string().unwrap()).unwrap())
            .unwrap();
        assert_eq!(again, request);
    }

    #[test]
    fn bad_requests_report_the_offending_field() {
        let missing = EvaluateRequest::from_json(&parse("{}").unwrap()).unwrap_err();
        assert!(missing.to_string().contains("domain"), "{missing}");
        let unknown_knob = EvaluateRequest::from_json(
            &parse(r#"{"domain": "dnn", "knobs": {"warp": 1}}"#).unwrap(),
        )
        .unwrap_err();
        assert!(unknown_knob.to_string().contains("knobs.warp"));
        let bad_point = EvaluateRequest::from_json(
            &parse(r#"{"domain": "dnn", "point": {"volume": -3}}"#).unwrap(),
        )
        .unwrap_err();
        assert!(bad_point.to_string().contains("point"), "{bad_point}");
        let bad_points =
            BatchEvalRequest::from_json(&parse(r#"{"domain": "dnn", "points": 7}"#).unwrap())
                .unwrap_err();
        assert!(bad_points.to_string().contains("points"));
    }

    #[test]
    fn scenario_params_apply_knobs_in_order() {
        let spec = ScenarioSpec {
            domain: Domain::Dnn,
            knobs: vec![(Knob::DutyCycle, 0.1), (Knob::DutyCycle, 0.5)],
        };
        let params = spec.params();
        assert!((params.deployment().duty_cycle.value() - 0.5).abs() < 1e-12);
        assert_eq!(
            ScenarioSpec::baseline(Domain::Dnn).params(),
            EstimatorParams::paper_defaults()
        );
    }

    #[test]
    fn crossover_request_ranges_default_and_decode() {
        let request =
            CrossoverRequest::from_json(&parse(r#"{"domain": "imgproc"}"#).unwrap()).unwrap();
        assert_eq!(request.max_applications, 20);
        assert_eq!(request.lifetime_range, (0.05, 5.0));
        assert_eq!(request.volume_range, (1_000, 50_000_000));
        let request = CrossoverRequest::from_json(
            &parse(
                r#"{"domain": "dnn", "max_applications": 8,
                    "lifetime_range": [0.5, 2.5], "volume_range": [10, 1000]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(request.max_applications, 8);
        assert_eq!(request.lifetime_range, (0.5, 2.5));
        assert_eq!(request.volume_range, (10, 1_000));
        assert!(CrossoverRequest::from_json(
            &parse(r#"{"domain": "dnn", "lifetime_range": [1]}"#).unwrap()
        )
        .is_err());
        // The response encodes every member, `null` where no crossover was
        // found.
        let response = CrossoverResponse {
            domain: Domain::Dnn,
            base: OperatingPoint::paper_default(),
            applications: Some(4),
            lifetime: Some(Crossover {
                at: 1.625,
                direction: CrossoverDirection::FpgaToAsic,
            }),
            volume: None,
        };
        assert_eq!(
            response.to_json_string().unwrap(),
            r#"{"domain":"dnn","point":{"applications":5,"lifetime_years":2,"volume":1000000},"applications":4,"lifetime":{"at":1.625,"direction":"F2A"},"volume":null}"#
        );
    }

    #[test]
    fn frontier_request_validates_geometry() {
        let request = FrontierRequest::from_json(
            &parse(r#"{"domain": "dnn", "steps": 8, "x_to": 32}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(request.steps, 8);
        assert_eq!(request.x_range, (1.0, 32.0));
        let (xs, ys) = request.lattice();
        assert_eq!(xs.len(), 8);
        assert_eq!(ys.len(), 8);
        assert!((xs[0] - 1.0).abs() < 1e-12 && (xs[7] - 32.0).abs() < 1e-12);
        for bad in [
            r#"{"domain": "dnn", "steps": 1}"#,
            r#"{"domain": "dnn", "steps": 4096}"#,
            r#"{"domain": "dnn", "y_axis": "apps"}"#,
            r#"{"domain": "dnn", "x_from": 5, "x_to": 2}"#,
        ] {
            let checked = FrontierRequest::from_json(&parse(bad).unwrap())
                .and_then(|request| Query::Frontier(request).validate());
            assert!(checked.is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn metrics_response_round_trips() {
        let response = MetricsResponse {
            requests_served: 1234,
            connections_live: 7,
            connections_max: 256,
            connections_rejected: 3,
            routes: vec![RouteMetrics {
                route: "POST /v1/evaluate".to_string(),
                requests: 1200,
                errors: 4,
                errors_4xx: 3,
                errors_5xx: 1,
                bytes_in: 96_000,
                bytes_out: 480_000,
                latency: LatencyHistogram {
                    bounds_us: vec![50.0, 100.0, 1000.0],
                    counts: vec![800, 300, 99, 1],
                },
            }],
            cache_shards: vec![
                CacheShardMetrics {
                    entries: 2,
                    hits: 1100,
                    misses: 2,
                },
                CacheShardMetrics {
                    entries: 0,
                    hits: 0,
                    misses: 0,
                },
            ],
        };
        let text = response.to_json_string().unwrap();
        let back = MetricsResponse::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, response);
        // A histogram whose counts don't cover the overflow bucket is a
        // schema violation, not a silent truncation.
        let bad = r#"{"bounds_us": [50.0], "counts": [1]}"#;
        assert!(LatencyHistogram::from_json(&parse(bad).unwrap()).is_err());
        // Pre-split metrics documents (no 4xx/5xx fields) still decode,
        // with the split classes defaulting to zero.
        let legacy = r#"{"route": "other", "requests": 2, "errors": 1,
            "latency": {"bounds_us": [], "counts": [2]}}"#;
        let decoded = RouteMetrics::from_json(&parse(legacy).unwrap()).unwrap();
        assert_eq!(decoded.errors, 1);
        assert_eq!(decoded.errors_4xx, 0);
        assert_eq!(decoded.errors_5xx, 0);
    }

    #[test]
    fn trace_response_round_trips() {
        let response = TraceResponse {
            spans: vec![
                TraceSpan {
                    name: "execute".to_string(),
                    span_id: "00000000000000ab".to_string(),
                    request_id: "00000000000000cd".to_string(),
                    start_ns: 1_000,
                    duration_ns: 250,
                    aux: 4,
                    thread: 0,
                },
                TraceSpan {
                    name: "cache_hit".to_string(),
                    span_id: "00000000000000ef".to_string(),
                    request_id: "0000000000000000".to_string(),
                    start_ns: 900,
                    duration_ns: 0,
                    aux: 2,
                    thread: 1,
                },
            ],
            enabled: true,
        };
        assert_eq!(
            response.to_json_string().unwrap(),
            concat!(
                r#"{"spans":[{"name":"execute","span_id":"00000000000000ab","#,
                r#""request_id":"00000000000000cd","start_ns":1000,"duration_ns":250,"#,
                r#""aux":4,"thread":0},{"name":"cache_hit","span_id":"00000000000000ef","#,
                r#""request_id":"0000000000000000","start_ns":900,"duration_ns":0,"#,
                r#""aux":2,"thread":1}],"enabled":true}"#
            )
        );
    }

    #[test]
    fn batch_response_round_trips() {
        let estimator = crate::Estimator::default();
        let comparisons: Vec<PlatformComparison> = [1u64, 3, 9]
            .iter()
            .map(|&apps| {
                estimator
                    .compare_uniform(Domain::Crypto, apps, 1.5, 20_000)
                    .unwrap()
            })
            .collect();
        let results: Vec<String> = comparisons
            .iter()
            .map(|comparison| comparison.to_json_string().unwrap())
            .collect();
        let response = BatchEvalResponse { comparisons };
        assert_eq!(
            response.to_json_string().unwrap(),
            format!(r#"{{"count":3,"results":[{}]}}"#, results.join(","))
        );
    }
}
