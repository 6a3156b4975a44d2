//! Typed wire format of the estimation service.
//!
//! This module is the single place where model types meet JSON: the
//! [`gf_json::ToJson`] / [`gf_json::FromJson`] impls for the core result
//! types, and the typed request/response structs `greenfpga-serve` exposes
//! over HTTP. Putting them in the core crate (rather than the server) means
//! every consumer — the server, the CLI's `--json` output, the load
//! generator and the integration tests — shares one schema, so a response a
//! test decodes is *structurally guaranteed* to match what the server
//! encoded.
//!
//! Numbers are serialized with round-tripping `f64` formatting (see
//! [`gf_json`]), so decoding a response reconstructs carbon breakdowns
//! **bit-identical** to the values the engine produced.
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

use gf_json::{object, FromJson, JsonError, ToJson, Value};

use crate::optimize::{
    CertificateProbe, Constraint, Objective, OptPlatform, SearchKnob, SolverKind,
};
use crate::scenario::{CarbonIntensitySeries, CatalogEntry, ReplayOutcome, Verdict};
use crate::{
    ApiError, ApiErrorCode, CfpBreakdown, Crossover, CrossoverDirection, Domain, EstimatorParams,
    FrontierResult, GridSweep, Knob, OperatingPoint, PlatformComparison, PlatformKind,
    SensitivityEntry, SweepAxis, SweepPoint, SweepSeries, TornadoAnalysis, UncertaintyReport,
};
use gf_units::Carbon;

/// Version of the `Query`/`Outcome` JSON envelope (the `"v"` member).
pub const API_VERSION: u64 = 1;

/// Reads a required object member.
fn field<'v>(value: &'v Value, key: &'static str) -> Result<&'v Value, JsonError> {
    value
        .get(key)
        .ok_or_else(|| JsonError::schema(key, "missing required field"))
}

/// Reads and decodes a required object member.
fn decode<T: FromJson>(value: &Value, key: &'static str) -> Result<T, JsonError> {
    T::from_json(field(value, key)?).map_err(|e| prefix_schema(key, e))
}

/// Decodes an optional object member, falling back when absent or null.
fn decode_or<T: FromJson>(value: &Value, key: &'static str, fallback: T) -> Result<T, JsonError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(fallback),
        Some(member) => T::from_json(member).map_err(|e| prefix_schema(key, e)),
    }
}

/// Prefixes the field path of a nested schema error, so "lifetime_years"
/// inside "point" reports as `point.lifetime_years`.
fn prefix_schema(key: &str, error: JsonError) -> JsonError {
    match error {
        JsonError::Schema { at, message } => JsonError::Schema {
            at: if at.is_empty()
                || at == key
                || matches!(at.as_str(), "number" | "string" | "bool" | "array")
            {
                key.to_string()
            } else {
                format!("{key}.{at}")
            },
            message,
        },
        other => other,
    }
}

impl ToJson for Domain {
    fn to_json(&self) -> Value {
        Value::String(self.id().to_string())
    }
}

impl FromJson for Domain {
    fn from_json(value: &Value) -> Result<Domain, JsonError> {
        let id = value
            .as_str()
            .ok_or_else(|| JsonError::schema("domain", "expected a domain string"))?;
        Domain::parse_id(id)
            .ok_or_else(|| JsonError::schema("domain", format!("unknown domain '{id}'")))
    }
}

impl ToJson for SweepAxis {
    fn to_json(&self) -> Value {
        let id = match self {
            SweepAxis::Applications => "apps",
            SweepAxis::LifetimeYears => "lifetime",
            SweepAxis::VolumeUnits => "volume",
        };
        Value::String(id.to_string())
    }
}

impl FromJson for SweepAxis {
    fn from_json(value: &Value) -> Result<SweepAxis, JsonError> {
        let id = value
            .as_str()
            .ok_or_else(|| JsonError::schema("axis", "expected an axis string"))?;
        match id.to_ascii_lowercase().as_str() {
            "apps" | "applications" => Ok(SweepAxis::Applications),
            "lifetime" => Ok(SweepAxis::LifetimeYears),
            "volume" => Ok(SweepAxis::VolumeUnits),
            other => Err(JsonError::schema("axis", format!("unknown axis '{other}'"))),
        }
    }
}

impl ToJson for PlatformKind {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl FromJson for PlatformKind {
    fn from_json(value: &Value) -> Result<PlatformKind, JsonError> {
        match value.as_str() {
            Some("FPGA") => Ok(PlatformKind::Fpga),
            Some("ASIC") => Ok(PlatformKind::Asic),
            _ => Err(JsonError::schema("winner", "expected \"FPGA\" or \"ASIC\"")),
        }
    }
}

impl ToJson for CrossoverDirection {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl FromJson for CrossoverDirection {
    fn from_json(value: &Value) -> Result<CrossoverDirection, JsonError> {
        match value.as_str() {
            Some("A2F") => Ok(CrossoverDirection::AsicToFpga),
            Some("F2A") => Ok(CrossoverDirection::FpgaToAsic),
            _ => Err(JsonError::schema(
                "direction",
                "expected \"A2F\" or \"F2A\"",
            )),
        }
    }
}

impl ToJson for Crossover {
    fn to_json(&self) -> Value {
        object([
            ("at", Value::Number(self.at)),
            ("direction", self.direction.to_json()),
        ])
    }
}

impl FromJson for Crossover {
    fn from_json(value: &Value) -> Result<Crossover, JsonError> {
        Ok(Crossover {
            at: decode(value, "at")?,
            direction: decode(value, "direction")?,
        })
    }
}

impl ToJson for OperatingPoint {
    fn to_json(&self) -> Value {
        object([
            ("applications", Value::Number(self.applications as f64)),
            ("lifetime_years", Value::Number(self.lifetime_years)),
            ("volume", Value::Number(self.volume as f64)),
        ])
    }
}

impl FromJson for OperatingPoint {
    fn from_json(value: &Value) -> Result<OperatingPoint, JsonError> {
        if value.as_object().is_none() {
            return Err(JsonError::schema(
                "point",
                "expected an operating-point object",
            ));
        }
        let fallback = OperatingPoint::paper_default();
        Ok(OperatingPoint {
            applications: decode_or(value, "applications", fallback.applications)?,
            lifetime_years: decode_or(value, "lifetime_years", fallback.lifetime_years)?,
            volume: decode_or(value, "volume", fallback.volume)?,
        })
    }
}

impl ToJson for CfpBreakdown {
    fn to_json(&self) -> Value {
        object([
            ("design_kg", self.design.as_kg()),
            ("manufacturing_kg", self.manufacturing.as_kg()),
            ("packaging_kg", self.packaging.as_kg()),
            ("eol_kg", self.eol.as_kg()),
            ("operation_kg", self.operation.as_kg()),
            ("app_dev_kg", self.app_dev.as_kg()),
            ("total_kg", self.total().as_kg()),
        ])
    }
}

impl FromJson for CfpBreakdown {
    fn from_json(value: &Value) -> Result<CfpBreakdown, JsonError> {
        Ok(CfpBreakdown {
            design: Carbon::from_kg(decode(value, "design_kg")?),
            manufacturing: Carbon::from_kg(decode(value, "manufacturing_kg")?),
            packaging: Carbon::from_kg(decode(value, "packaging_kg")?),
            eol: Carbon::from_kg(decode(value, "eol_kg")?),
            operation: Carbon::from_kg(decode(value, "operation_kg")?),
            app_dev: Carbon::from_kg(decode(value, "app_dev_kg")?),
        })
    }
}

impl ToJson for PlatformComparison {
    fn to_json(&self) -> Value {
        object([
            ("domain", self.domain.to_json()),
            ("fpga", self.fpga.to_json()),
            ("asic", self.asic.to_json()),
            ("ratio", Value::Number(self.fpga_to_asic_ratio())),
            ("winner", self.winner().to_json()),
        ])
    }
}

impl FromJson for PlatformComparison {
    fn from_json(value: &Value) -> Result<PlatformComparison, JsonError> {
        Ok(PlatformComparison::new(
            decode(value, "domain")?,
            decode(value, "fpga")?,
            decode(value, "asic")?,
        ))
    }
}

impl ToJson for SweepPoint {
    fn to_json(&self) -> Value {
        object([
            ("x", Value::Number(self.x)),
            ("fpga", self.fpga.to_json()),
            ("asic", self.asic.to_json()),
            ("ratio", Value::Number(self.ratio())),
        ])
    }
}

impl ToJson for SweepSeries {
    fn to_json(&self) -> Value {
        object([
            ("domain", self.domain.to_json()),
            ("axis", self.axis.to_json()),
            (
                "points",
                Value::Array(self.points.iter().map(ToJson::to_json).collect()),
            ),
            (
                "crossovers",
                Value::Array(self.crossovers().iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl ToJson for SensitivityEntry {
    fn to_json(&self) -> Value {
        object([
            ("knob", Value::String(self.knob.id().to_string())),
            ("ratio_at_low", Value::Number(self.ratio_at_low)),
            ("ratio_at_high", Value::Number(self.ratio_at_high)),
            ("ratio_at_baseline", Value::Number(self.ratio_at_baseline)),
            ("swing", Value::Number(self.swing())),
            ("flips_winner", Value::Bool(self.flips_winner())),
        ])
    }
}

impl ToJson for TornadoAnalysis {
    fn to_json(&self) -> Value {
        object([
            ("domain", self.domain.to_json()),
            ("point", self.point.to_json()),
            (
                "entries",
                Value::Array(self.entries.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl ToJson for UncertaintyReport {
    fn to_json(&self) -> Value {
        object([
            ("domain", self.domain.to_json()),
            ("point", self.point.to_json()),
            ("samples", Value::Number(self.ratios.len() as f64)),
            ("ratio_p5", Value::Number(self.quantile(0.05))),
            ("ratio_median", Value::Number(self.median())),
            ("ratio_p95", Value::Number(self.quantile(0.95))),
            ("ratio_mean", Value::Number(self.mean())),
            (
                "fpga_win_probability",
                Value::Number(self.fpga_win_probability()),
            ),
            ("majority_winner", self.majority_winner().to_json()),
        ])
    }
}

impl ToJson for FrontierResult {
    fn to_json(&self) -> Value {
        let winners = Value::Array(
            self.winner_mask()
                .into_iter()
                .map(|row| Value::Array(row.into_iter().map(Value::Bool).collect()))
                .collect(),
        );
        object([
            ("domain", self.domain.to_json()),
            ("x_axis", self.x_axis.to_json()),
            (
                "x_values",
                Value::Array(self.x_values.iter().map(|&x| Value::Number(x)).collect()),
            ),
            ("y_axis", self.y_axis.to_json()),
            (
                "y_values",
                Value::Array(self.y_values.iter().map(|&y| Value::Number(y)).collect()),
            ),
            ("fpga_wins", winners),
            (
                "fpga_winning_fraction",
                Value::Number(self.fpga_winning_fraction()),
            ),
            ("evaluations", Value::Number(self.evaluations() as f64)),
            (
                "evaluated_fraction",
                Value::Number(self.evaluated_fraction()),
            ),
        ])
    }
}

/// A scenario addressed by a request: a domain template plus Table 1 knob
/// overrides. Two requests with the same spec compile to the same
/// [`crate::CompiledScenario`] — the key the server's scenario cache uses.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The application domain.
    pub domain: Domain,
    /// Knob overrides applied on top of
    /// [`EstimatorParams::paper_defaults`], in application order.
    pub knobs: Vec<(Knob, f64)>,
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

impl ToJson for ScenarioSpec {
    fn to_json(&self) -> Value {
        object([
            ("domain", self.domain.to_json()),
            ("knobs", encode_knob_overrides(&self.knobs)),
        ])
    }
}

impl FromJson for ScenarioSpec {
    fn from_json(value: &Value) -> Result<ScenarioSpec, JsonError> {
        Ok(ScenarioSpec {
            domain: decode(value, "domain")?,
            knobs: decode_knob_overrides(value)?,
        })
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
    fn to_json(&self) -> Value {
        match self {
            ScenarioRef::Inline(spec) => spec.to_json(),
            ScenarioRef::Catalog { id, knobs } => object([
                ("id", Value::String(id.clone())),
                ("knobs", encode_knob_overrides(knobs)),
            ]),
        }
    }
}

impl FromJson for ScenarioRef {
    fn from_json(value: &Value) -> Result<ScenarioRef, JsonError> {
        match value.get("id") {
            None | Some(Value::Null) => Ok(ScenarioRef::Inline(ScenarioSpec::from_json(value)?)),
            Some(member) => {
                let id = member
                    .as_str()
                    .ok_or_else(|| JsonError::schema("id", "expected a catalog id string"))?;
                Ok(ScenarioRef::Catalog {
                    id: id.to_string(),
                    knobs: decode_knob_overrides(value)?,
                })
            }
        }
    }
}

/// Decodes an optional `"point"` member (`None` when absent or null, so
/// catalog entries can supply their own default point).
fn decode_point_opt(value: &Value) -> Result<Option<OperatingPoint>, JsonError> {
    match value.get("point") {
        None | Some(Value::Null) => Ok(None),
        Some(member) => Ok(Some(
            OperatingPoint::from_json(member).map_err(|e| prefix_schema("point", e))?,
        )),
    }
}

/// Splices request-specific members after a scenario reference's members,
/// mirroring [`merge_scenario`] for [`ScenarioRef`].
fn merge_scenario_ref(scenario: &ScenarioRef, members: Vec<(&'static str, Value)>) -> Value {
    let mut all = match scenario.to_json() {
        Value::Object(members) => members,
        _ => unreachable!("scenario references serialize to objects"),
    };
    for (key, value) in members {
        all.push((key.to_string(), value));
    }
    Value::Object(all)
}

/// `POST /v1/scenario`: one catalog or inline scenario, evaluated and
/// scored.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRunRequest {
    /// The scenario to run.
    pub scenario: ScenarioRef,
    /// Optional operating-point override; absent means the catalog
    /// entry's point (or [`OperatingPoint::paper_default`] for inline
    /// specs).
    pub point: Option<OperatingPoint>,
}

impl ToJson for ScenarioRunRequest {
    fn to_json(&self) -> Value {
        let mut members = Vec::new();
        if let Some(point) = self.point {
            members.push(("point", point.to_json()));
        }
        merge_scenario_ref(&self.scenario, members)
    }
}

impl FromJson for ScenarioRunRequest {
    fn from_json(value: &Value) -> Result<ScenarioRunRequest, JsonError> {
        Ok(ScenarioRunRequest {
            scenario: ScenarioRef::from_json(value)?,
            point: decode_point_opt(value)?,
        })
    }
}

/// `POST /v1/scenario` response: the comparison plus its scored verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRunResponse {
    /// The resolved catalog id (`None` for inline specs).
    pub id: Option<String>,
    /// The point the scenario was evaluated at.
    pub point: OperatingPoint,
    /// The comparison the engine produced.
    pub comparison: PlatformComparison,
    /// The scored verdict over the outcome.
    pub verdict: Verdict,
}

impl ToJson for ScenarioRunResponse {
    fn to_json(&self) -> Value {
        object([
            (
                "id",
                match &self.id {
                    Some(id) => Value::String(id.clone()),
                    None => Value::Null,
                },
            ),
            ("point", self.point.to_json()),
            ("comparison", self.comparison.to_json()),
            ("verdict", self.verdict.to_json()),
        ])
    }
}

impl FromJson for ScenarioRunResponse {
    fn from_json(value: &Value) -> Result<ScenarioRunResponse, JsonError> {
        let id = match value.get("id") {
            None | Some(Value::Null) => None,
            Some(member) => Some(
                member
                    .as_str()
                    .ok_or_else(|| JsonError::schema("id", "expected a catalog id string"))?
                    .to_string(),
            ),
        };
        Ok(ScenarioRunResponse {
            id,
            point: decode(value, "point")?,
            comparison: decode(value, "comparison")?,
            verdict: decode(value, "verdict")?,
        })
    }
}

impl ToJson for Verdict {
    fn to_json(&self) -> Value {
        object([
            ("mean_excess", Value::Number(self.mean_excess)),
            ("worst_excess", Value::Number(self.worst_excess)),
            ("loss_fraction", Value::Number(self.loss_fraction)),
            ("embodied_share", Value::Number(self.embodied_share)),
            ("score", Value::Number(self.score)),
        ])
    }
}

impl FromJson for Verdict {
    fn from_json(value: &Value) -> Result<Verdict, JsonError> {
        Ok(Verdict {
            mean_excess: decode(value, "mean_excess")?,
            worst_excess: decode(value, "worst_excess")?,
            loss_fraction: decode(value, "loss_fraction")?,
            embodied_share: decode(value, "embodied_share")?,
            score: decode(value, "score")?,
        })
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
    fn to_json(&self) -> Value {
        match self {
            SeriesRef::Region(name) => Value::String(name.clone()),
            SeriesRef::Inline(series) => object([
                (
                    "points",
                    Value::Array(series.points().iter().map(|&v| Value::Number(v)).collect()),
                ),
                ("step_hours", Value::Number(series.step_hours())),
            ]),
        }
    }
}

impl FromJson for SeriesRef {
    fn from_json(value: &Value) -> Result<SeriesRef, JsonError> {
        match value {
            Value::String(name) => Ok(SeriesRef::Region(name.clone())),
            Value::Object(_) => {
                let points: Vec<f64> = decode(value, "points")?;
                let step_hours = decode_or(value, "step_hours", 1.0)?;
                let series = CarbonIntensitySeries::new(points, step_hours)
                    .map_err(|e| JsonError::schema("series", e.to_string()))?;
                Ok(SeriesRef::Inline(series))
            }
            _ => Err(JsonError::schema(
                "series",
                "expected a region name or a {points, step_hours} object",
            )),
        }
    }
}

/// `POST /v1/replay`: a scenario replayed step by step against a
/// time-varying grid carbon intensity.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRequest {
    /// The scenario to replay.
    pub scenario: ScenarioRef,
    /// Optional operating-point override (same defaulting as
    /// [`ScenarioRunRequest::point`]).
    pub point: Option<OperatingPoint>,
    /// The intensity series to replay against (defaults to the
    /// `global_flat` region preset).
    pub series: SeriesRef,
    /// Whether step lookup interpolates between bounding samples.
    pub interpolate: bool,
    /// How many times the series is stitched end-to-end before the replay
    /// ([`CarbonIntensitySeries::repeat`]); must not exceed the device
    /// lifetime in whole years. Omitted from the wire when 1.
    pub years: u64,
}

impl ReplayRequest {
    /// The region preset used when a request names no series.
    pub const DEFAULT_REGION: &'static str = "global_flat";
}

impl ToJson for ReplayRequest {
    fn to_json(&self) -> Value {
        let mut members = Vec::new();
        if let Some(point) = self.point {
            members.push(("point", point.to_json()));
        }
        members.push(("series", self.series.to_json()));
        members.push(("interpolate", Value::Bool(self.interpolate)));
        if self.years != 1 {
            members.push(("years", Value::Number(self.years as f64)));
        }
        merge_scenario_ref(&self.scenario, members)
    }
}

impl FromJson for ReplayRequest {
    fn from_json(value: &Value) -> Result<ReplayRequest, JsonError> {
        let series = match value.get("series") {
            None | Some(Value::Null) => {
                SeriesRef::Region(ReplayRequest::DEFAULT_REGION.to_string())
            }
            Some(member) => SeriesRef::from_json(member).map_err(|e| prefix_schema("series", e))?,
        };
        Ok(ReplayRequest {
            scenario: ScenarioRef::from_json(value)?,
            point: decode_point_opt(value)?,
            series,
            interpolate: decode_or(value, "interpolate", false)?,
            years: decode_or(value, "years", 1u64)?,
        })
    }
}

impl ToJson for ReplayOutcome {
    fn to_json(&self) -> Value {
        object([
            ("steps", Value::Number(self.steps as f64)),
            (
                "fpga_operational_kg",
                Value::Number(self.fpga_operational.as_kg()),
            ),
            (
                "asic_operational_kg",
                Value::Number(self.asic_operational.as_kg()),
            ),
            ("fpga_total_kg", Value::Number(self.fpga_total.as_kg())),
            ("asic_total_kg", Value::Number(self.asic_total.as_kg())),
            ("mean_ratio", Value::Number(self.mean_ratio)),
            ("worst_ratio", Value::Number(self.worst_ratio)),
            ("final_ratio", Value::Number(self.final_ratio)),
            ("fpga_win_fraction", Value::Number(self.fpga_win_fraction)),
            ("verdict", self.verdict.to_json()),
        ])
    }
}

impl FromJson for ReplayOutcome {
    fn from_json(value: &Value) -> Result<ReplayOutcome, JsonError> {
        Ok(ReplayOutcome {
            steps: decode(value, "steps")?,
            fpga_operational: Carbon::from_kg(decode(value, "fpga_operational_kg")?),
            asic_operational: Carbon::from_kg(decode(value, "asic_operational_kg")?),
            fpga_total: Carbon::from_kg(decode(value, "fpga_total_kg")?),
            asic_total: Carbon::from_kg(decode(value, "asic_total_kg")?),
            mean_ratio: decode(value, "mean_ratio")?,
            worst_ratio: decode(value, "worst_ratio")?,
            final_ratio: decode(value, "final_ratio")?,
            fpga_win_fraction: decode(value, "fpga_win_fraction")?,
            verdict: decode(value, "verdict")?,
        })
    }
}

/// `POST /v1/replay` response: the replay summary and scored verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResponse {
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

impl ToJson for ReplayResponse {
    fn to_json(&self) -> Value {
        object([
            (
                "id",
                match &self.id {
                    Some(id) => Value::String(id.clone()),
                    None => Value::Null,
                },
            ),
            ("domain", self.domain.to_json()),
            ("point", self.point.to_json()),
            ("replay", self.replay.to_json()),
        ])
    }
}

impl FromJson for ReplayResponse {
    fn from_json(value: &Value) -> Result<ReplayResponse, JsonError> {
        let id = match value.get("id") {
            None | Some(Value::Null) => None,
            Some(member) => Some(
                member
                    .as_str()
                    .ok_or_else(|| JsonError::schema("id", "expected a catalog id string"))?
                    .to_string(),
            ),
        };
        Ok(ReplayResponse {
            id,
            domain: decode(value, "domain")?,
            point: decode(value, "point")?,
            replay: decode(value, "replay")?,
        })
    }
}

impl ToJson for OptPlatform {
    fn to_json(&self) -> Value {
        Value::String(
            match self {
                OptPlatform::Fpga => "fpga",
                OptPlatform::Asic => "asic",
            }
            .to_string(),
        )
    }
}

impl FromJson for OptPlatform {
    fn from_json(value: &Value) -> Result<OptPlatform, JsonError> {
        match value.as_str() {
            Some("fpga") => Ok(OptPlatform::Fpga),
            Some("asic") => Ok(OptPlatform::Asic),
            _ => Err(JsonError::schema(
                "platform",
                "expected \"fpga\" or \"asic\"",
            )),
        }
    }
}

/// Decodes an optional `"platform"` member, defaulting to the FPGA.
fn decode_platform(value: &Value) -> Result<OptPlatform, JsonError> {
    match value.get("platform") {
        None | Some(Value::Null) => Ok(OptPlatform::Fpga),
        Some(member) => OptPlatform::from_json(member).map_err(|e| prefix_schema("platform", e)),
    }
}

/// Encodes a `"platform"` member, omitted when it is the FPGA default.
fn push_platform(members: &mut Vec<(&'static str, Value)>, platform: OptPlatform) {
    if platform != OptPlatform::Fpga {
        members.push(("platform", platform.to_json()));
    }
}

impl ToJson for Objective {
    fn to_json(&self) -> Value {
        let mut members: Vec<(&'static str, Value)> = Vec::new();
        let goal = match *self {
            Objective::MinTotal(platform) => {
                push_platform(&mut members, platform);
                "min_total"
            }
            Objective::MinOperational(platform) => {
                push_platform(&mut members, platform);
                "min_operational"
            }
            Objective::MinEmbodied(platform) => {
                push_platform(&mut members, platform);
                "min_embodied"
            }
            Objective::MaxFpgaMargin => "max_margin",
            Objective::MinRatio => "min_ratio",
            Objective::MeetBudget {
                platform,
                budget_kg,
            } => {
                push_platform(&mut members, platform);
                members.push(("budget_kg", Value::Number(budget_kg)));
                "budget"
            }
        };
        members.insert(0, ("goal", Value::String(goal.to_string())));
        object(members)
    }
}

impl FromJson for Objective {
    fn from_json(value: &Value) -> Result<Objective, JsonError> {
        let goal = field(value, "goal")?
            .as_str()
            .ok_or_else(|| JsonError::schema("goal", "expected a goal string"))?;
        match goal {
            "min_total" => Ok(Objective::MinTotal(decode_platform(value)?)),
            "min_operational" => Ok(Objective::MinOperational(decode_platform(value)?)),
            "min_embodied" => Ok(Objective::MinEmbodied(decode_platform(value)?)),
            "max_margin" => Ok(Objective::MaxFpgaMargin),
            "min_ratio" => Ok(Objective::MinRatio),
            "budget" => Ok(Objective::MeetBudget {
                platform: decode_platform(value)?,
                budget_kg: decode(value, "budget_kg")?,
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

impl ToJson for SearchKnob {
    fn to_json(&self) -> Value {
        let mut members = vec![
            ("axis", self.axis.to_json()),
            ("min", Value::Number(self.min)),
            ("max", Value::Number(self.max)),
        ];
        if self.integer {
            members.push(("integer", Value::Bool(true)));
        }
        object(members)
    }
}

impl FromJson for SearchKnob {
    fn from_json(value: &Value) -> Result<SearchKnob, JsonError> {
        Ok(SearchKnob {
            axis: decode(value, "axis")?,
            min: decode(value, "min")?,
            max: decode(value, "max")?,
            integer: decode_or(value, "integer", false)?,
        })
    }
}

impl ToJson for Constraint {
    fn to_json(&self) -> Value {
        match *self {
            Constraint::FpgaWins => object([("kind", Value::String("fpga_wins".to_string()))]),
            Constraint::MaxTotalKg { platform, limit_kg } => {
                let mut members = vec![("kind", Value::String("max_total_kg".to_string()))];
                push_platform(&mut members, platform);
                members.push(("limit_kg", Value::Number(limit_kg)));
                object(members)
            }
        }
    }
}

impl FromJson for Constraint {
    fn from_json(value: &Value) -> Result<Constraint, JsonError> {
        let kind = field(value, "kind")?
            .as_str()
            .ok_or_else(|| JsonError::schema("kind", "expected a constraint kind string"))?;
        match kind {
            "fpga_wins" => Ok(Constraint::FpgaWins),
            "max_total_kg" => Ok(Constraint::MaxTotalKg {
                platform: decode_platform(value)?,
                limit_kg: decode(value, "limit_kg")?,
            }),
            other => Err(JsonError::schema(
                "kind",
                format!("unknown constraint kind '{other}' (expected fpga_wins or max_total_kg)"),
            )),
        }
    }
}

impl ToJson for SolverKind {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl FromJson for SolverKind {
    fn from_json(value: &Value) -> Result<SolverKind, JsonError> {
        match value.as_str() {
            Some("analytic") => Ok(SolverKind::Analytic),
            Some("search") => Ok(SolverKind::Search),
            _ => Err(JsonError::schema(
                "solver",
                "expected \"analytic\" or \"search\"",
            )),
        }
    }
}

impl ToJson for CertificateProbe {
    fn to_json(&self) -> Value {
        object([
            ("axis", self.axis.to_json()),
            ("at", Value::Number(self.at)),
            ("objective", Value::Number(self.objective)),
            ("delta", Value::Number(self.delta)),
        ])
    }
}

impl FromJson for CertificateProbe {
    fn from_json(value: &Value) -> Result<CertificateProbe, JsonError> {
        Ok(CertificateProbe {
            axis: decode(value, "axis")?,
            at: decode(value, "at")?,
            objective: decode(value, "objective")?,
            delta: decode(value, "delta")?,
        })
    }
}

/// `POST /v1/optimize`: an inverse query — minimize an objective (or fill
/// a carbon budget) over a box of 1–3 search knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// The scenario to optimize over.
    pub scenario: ScenarioRef,
    /// Optional operating-point override supplying the non-searched axes
    /// (same defaulting as [`ScenarioRunRequest::point`]).
    pub point: Option<OperatingPoint>,
    /// What to minimize or satisfy.
    pub objective: Objective,
    /// The searched axes and their bounds (the `"search"` wire member).
    pub search: Vec<SearchKnob>,
    /// Feasibility constraints (omitted from the wire when empty).
    pub constraints: Vec<Constraint>,
    /// Relative solve tolerance for the search tier (omitted when
    /// [`OptimizeRequest::DEFAULT_TOLERANCE`]).
    pub tolerance: f64,
    /// Kernel-evaluation budget for the search tier (omitted when
    /// [`OptimizeRequest::DEFAULT_MAX_EVALS`]).
    pub max_evals: u64,
}

impl OptimizeRequest {
    /// Relative tolerance used when a request names none.
    pub const DEFAULT_TOLERANCE: f64 = 1e-6;
    /// Evaluation budget used when a request names none.
    pub const DEFAULT_MAX_EVALS: u64 = 10_000;
}

impl ToJson for OptimizeRequest {
    fn to_json(&self) -> Value {
        let mut members = Vec::new();
        if let Some(point) = self.point {
            members.push(("point", point.to_json()));
        }
        members.push(("objective", self.objective.to_json()));
        members.push((
            "search",
            Value::Array(self.search.iter().map(|k| k.to_json()).collect()),
        ));
        if !self.constraints.is_empty() {
            members.push((
                "constraints",
                Value::Array(self.constraints.iter().map(|c| c.to_json()).collect()),
            ));
        }
        if self.tolerance != Self::DEFAULT_TOLERANCE {
            members.push(("tolerance", Value::Number(self.tolerance)));
        }
        if self.max_evals != Self::DEFAULT_MAX_EVALS {
            members.push(("max_evals", Value::Number(self.max_evals as f64)));
        }
        merge_scenario_ref(&self.scenario, members)
    }
}

impl FromJson for OptimizeRequest {
    fn from_json(value: &Value) -> Result<OptimizeRequest, JsonError> {
        let constraints = match value.get("constraints") {
            None | Some(Value::Null) => Vec::new(),
            Some(member) => {
                Vec::<Constraint>::from_json(member).map_err(|e| prefix_schema("constraints", e))?
            }
        };
        Ok(OptimizeRequest {
            scenario: ScenarioRef::from_json(value)?,
            point: decode_point_opt(value)?,
            objective: decode(value, "objective")?,
            search: decode(value, "search")?,
            constraints,
            tolerance: decode_or(value, "tolerance", Self::DEFAULT_TOLERANCE)?,
            max_evals: decode_or(value, "max_evals", Self::DEFAULT_MAX_EVALS)?,
        })
    }
}

/// `POST /v1/optimize` response: the argmin, its verdict, and the solve's
/// evidence trail.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResponse {
    /// The resolved catalog id (`None` for inline specs).
    pub id: Option<String>,
    /// The optimized domain.
    pub domain: Domain,
    /// The full operating point at the optimum.
    pub point: OperatingPoint,
    /// The argmin values of the searched knobs, in request order.
    pub argmin: Vec<(SweepAxis, f64)>,
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

impl ToJson for OptimizeResponse {
    fn to_json(&self) -> Value {
        let argmin = Value::Object(
            self.argmin
                .iter()
                .map(|(axis, value)| {
                    let key = match axis {
                        SweepAxis::Applications => "apps",
                        SweepAxis::LifetimeYears => "lifetime",
                        SweepAxis::VolumeUnits => "volume",
                    };
                    (key.to_string(), Value::Number(*value))
                })
                .collect(),
        );
        object([
            (
                "id",
                match &self.id {
                    Some(id) => Value::String(id.clone()),
                    None => Value::Null,
                },
            ),
            ("domain", self.domain.to_json()),
            ("point", self.point.to_json()),
            ("argmin", argmin),
            ("objective", Value::Number(self.objective)),
            ("verdict", self.verdict.to_json()),
            ("evaluations", Value::Number(self.evaluations as f64)),
            ("solver", self.solver.to_json()),
            (
                "certificate",
                Value::Array(self.certificate.iter().map(|p| p.to_json()).collect()),
            ),
        ])
    }
}

impl FromJson for OptimizeResponse {
    fn from_json(value: &Value) -> Result<OptimizeResponse, JsonError> {
        let id = match value.get("id") {
            None | Some(Value::Null) => None,
            Some(member) => Some(
                member
                    .as_str()
                    .ok_or_else(|| JsonError::schema("id", "expected a catalog id string"))?
                    .to_string(),
            ),
        };
        let argmin_value = field(value, "argmin")?;
        let members = argmin_value
            .as_object()
            .ok_or_else(|| JsonError::schema("argmin", "expected an object of knob values"))?;
        let mut argmin = Vec::with_capacity(members.len());
        for (key, member) in members {
            let axis = SweepAxis::from_json(&Value::String(key.clone()))
                .map_err(|e| prefix_schema("argmin", e))?;
            let knob_value = member
                .as_f64()
                .ok_or_else(|| JsonError::schema("argmin", "expected a numeric knob value"))?;
            argmin.push((axis, knob_value));
        }
        Ok(OptimizeResponse {
            id,
            domain: decode(value, "domain")?,
            point: decode(value, "point")?,
            argmin,
            objective: decode(value, "objective")?,
            verdict: decode(value, "verdict")?,
            evaluations: decode(value, "evaluations")?,
            solver: decode(value, "solver")?,
            certificate: decode(value, "certificate")?,
        })
    }
}

/// `GET /v1/catalog`: the scenario catalog listing. The request carries
/// no parameters — the type exists so the catalog rides the same
/// [`Query`]/[`Outcome`] envelope as every other kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CatalogRequest;

impl ToJson for CatalogRequest {
    fn to_json(&self) -> Value {
        Value::Object(Vec::new())
    }
}

impl FromJson for CatalogRequest {
    fn from_json(value: &Value) -> Result<CatalogRequest, JsonError> {
        if value.as_object().is_none() {
            return Err(JsonError::schema("catalog", "expected an object"));
        }
        Ok(CatalogRequest)
    }
}

/// One catalog entry as listed on the wire — [`CatalogEntry`] with owned
/// strings so responses decode without referencing the process's static
/// catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntryInfo {
    /// Stable wire id.
    pub id: String,
    /// One-line human title.
    pub title: String,
    /// What the scenario stresses.
    pub description: String,
    /// The concrete scenario the id resolves to.
    pub scenario: ScenarioSpec,
    /// The operating point the scenario defaults to.
    pub point: OperatingPoint,
}

impl From<&CatalogEntry> for CatalogEntryInfo {
    fn from(entry: &CatalogEntry) -> CatalogEntryInfo {
        CatalogEntryInfo {
            id: entry.id.to_string(),
            title: entry.title.to_string(),
            description: entry.description.to_string(),
            scenario: entry.scenario.clone(),
            point: entry.point,
        }
    }
}

impl ToJson for CatalogEntryInfo {
    fn to_json(&self) -> Value {
        merge_scenario(
            &self.scenario,
            [
                ("id", Value::String(self.id.clone())),
                ("title", Value::String(self.title.clone())),
                ("description", Value::String(self.description.clone())),
                ("point", self.point.to_json()),
            ],
        )
    }
}

impl FromJson for CatalogEntryInfo {
    fn from_json(value: &Value) -> Result<CatalogEntryInfo, JsonError> {
        Ok(CatalogEntryInfo {
            id: decode(value, "id")?,
            title: decode(value, "title")?,
            description: decode(value, "description")?,
            scenario: ScenarioSpec::from_json(value)?,
            point: decode(value, "point")?,
        })
    }
}

/// `GET /v1/catalog` response: every named scenario, in catalog order.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogResponse {
    /// The catalog entries.
    pub entries: Vec<CatalogEntryInfo>,
}

impl ToJson for CatalogResponse {
    fn to_json(&self) -> Value {
        object([("entries", self.entries.to_json())])
    }
}

impl FromJson for CatalogResponse {
    fn from_json(value: &Value) -> Result<CatalogResponse, JsonError> {
        Ok(CatalogResponse {
            entries: decode(value, "entries")?,
        })
    }
}

/// `POST /v1/evaluate`: one operating point in one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluateRequest {
    /// The scenario to evaluate in.
    pub scenario: ScenarioSpec,
    /// The operating point (defaults to [`OperatingPoint::paper_default`]).
    pub point: OperatingPoint,
}

impl ToJson for EvaluateRequest {
    fn to_json(&self) -> Value {
        merge_scenario(&self.scenario, [("point", self.point.to_json())])
    }
}

impl FromJson for EvaluateRequest {
    fn from_json(value: &Value) -> Result<EvaluateRequest, JsonError> {
        Ok(EvaluateRequest {
            scenario: ScenarioSpec::from_json(value)?,
            point: decode_or(value, "point", OperatingPoint::paper_default())?,
        })
    }
}

/// `POST /v1/evaluate` response: the full comparison at the point.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluateResponse {
    /// The comparison the engine produced.
    pub comparison: PlatformComparison,
}

impl ToJson for EvaluateResponse {
    fn to_json(&self) -> Value {
        self.comparison.to_json()
    }
}

impl FromJson for EvaluateResponse {
    fn from_json(value: &Value) -> Result<EvaluateResponse, JsonError> {
        Ok(EvaluateResponse {
            comparison: PlatformComparison::from_json(value)?,
        })
    }
}

/// `POST /v1/batch`: many operating points in one scenario, evaluated
/// through the zero-allocation batch kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEvalRequest {
    /// The scenario every point is evaluated in.
    pub scenario: ScenarioSpec,
    /// The operating points, evaluated in order.
    pub points: Vec<OperatingPoint>,
}

impl ToJson for BatchEvalRequest {
    fn to_json(&self) -> Value {
        merge_scenario(
            &self.scenario,
            [(
                "points",
                Value::Array(self.points.iter().map(ToJson::to_json).collect()),
            )],
        )
    }
}

impl FromJson for BatchEvalRequest {
    fn from_json(value: &Value) -> Result<BatchEvalRequest, JsonError> {
        Ok(BatchEvalRequest {
            scenario: ScenarioSpec::from_json(value)?,
            points: decode(value, "points")?,
        })
    }
}

/// `POST /v1/batch` response: one comparison per requested point, in
/// request order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEvalResponse {
    /// The comparisons, in request order.
    pub comparisons: Vec<PlatformComparison>,
}

impl ToJson for BatchEvalResponse {
    fn to_json(&self) -> Value {
        object([
            ("count", Value::Number(self.comparisons.len() as f64)),
            (
                "results",
                Value::Array(self.comparisons.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for BatchEvalResponse {
    fn from_json(value: &Value) -> Result<BatchEvalResponse, JsonError> {
        let comparisons: Vec<PlatformComparison> = field(value, "results")?
            .as_array()
            .ok_or_else(|| JsonError::schema("results", "expected an array"))?
            .iter()
            .map(PlatformComparison::from_json)
            .collect::<Result<_, _>>()?;
        Ok(BatchEvalResponse { comparisons })
    }
}

/// `POST /v1/crossover`: the three crossover searches of the paper's
/// Figs. 4–6 around a base operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverRequest {
    /// The scenario to search in.
    pub scenario: ScenarioSpec,
    /// The base operating point supplying the held parameters.
    pub base: OperatingPoint,
    /// Upper bound of the application-count search (Fig. 4).
    pub max_applications: u64,
    /// Lifetime search range in years (Fig. 5).
    pub lifetime_range: (f64, f64),
    /// Volume search range in devices (Fig. 6).
    pub volume_range: (u64, u64),
}

impl CrossoverRequest {
    /// The CLI's default search windows: 20 applications, 0.05–5 years,
    /// 1 K–50 M devices.
    pub fn with_default_ranges(scenario: ScenarioSpec, base: OperatingPoint) -> Self {
        CrossoverRequest {
            scenario,
            base,
            max_applications: 20,
            lifetime_range: (0.05, 5.0),
            volume_range: (1_000, 50_000_000),
        }
    }
}

impl ToJson for CrossoverRequest {
    fn to_json(&self) -> Value {
        merge_scenario(
            &self.scenario,
            [
                ("point", self.base.to_json()),
                (
                    "max_applications",
                    Value::Number(self.max_applications as f64),
                ),
                (
                    "lifetime_range",
                    Value::Array(vec![
                        Value::Number(self.lifetime_range.0),
                        Value::Number(self.lifetime_range.1),
                    ]),
                ),
                (
                    "volume_range",
                    Value::Array(vec![
                        Value::Number(self.volume_range.0 as f64),
                        Value::Number(self.volume_range.1 as f64),
                    ]),
                ),
            ],
        )
    }
}

impl FromJson for CrossoverRequest {
    fn from_json(value: &Value) -> Result<CrossoverRequest, JsonError> {
        let defaults = CrossoverRequest::with_default_ranges(
            ScenarioSpec::from_json(value)?,
            decode_or(value, "point", OperatingPoint::paper_default())?,
        );
        let pair_f64 = |key: &'static str, fallback: (f64, f64)| match value.get(key) {
            None | Some(Value::Null) => Ok(fallback),
            Some(member) => {
                let items = member
                    .as_array()
                    .filter(|items| items.len() == 2)
                    .ok_or_else(|| JsonError::schema(key, "expected [low, high]"))?;
                match (items[0].as_f64(), items[1].as_f64()) {
                    (Some(low), Some(high)) => Ok((low, high)),
                    _ => Err(JsonError::schema(key, "expected two numbers")),
                }
            }
        };
        let (lifetime_low, lifetime_high) = pair_f64("lifetime_range", defaults.lifetime_range)?;
        let volume_range = match value.get("volume_range") {
            None | Some(Value::Null) => defaults.volume_range,
            Some(member) => {
                let items = member
                    .as_array()
                    .filter(|items| items.len() == 2)
                    .ok_or_else(|| JsonError::schema("volume_range", "expected [low, high]"))?;
                match (items[0].as_u64(), items[1].as_u64()) {
                    (Some(low), Some(high)) => (low, high),
                    _ => {
                        return Err(JsonError::schema(
                            "volume_range",
                            "expected two non-negative integers",
                        ))
                    }
                }
            }
        };
        Ok(CrossoverRequest {
            max_applications: decode_or(value, "max_applications", defaults.max_applications)?,
            lifetime_range: (lifetime_low, lifetime_high),
            volume_range,
            ..defaults
        })
    }
}

/// `POST /v1/crossover` response: one entry per searched axis; `None`
/// where the preferred platform never flips inside the window.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverResponse {
    /// The domain searched.
    pub domain: Domain,
    /// The base operating point the held parameters came from.
    pub base: OperatingPoint,
    /// Smallest winning application count (Fig. 4), if any.
    pub applications: Option<u64>,
    /// Lifetime crossover (Fig. 5), if any.
    pub lifetime: Option<Crossover>,
    /// Volume crossover (Fig. 6), if any.
    pub volume: Option<Crossover>,
}

impl ToJson for CrossoverResponse {
    fn to_json(&self) -> Value {
        let opt = |crossover: &Option<Crossover>| match crossover {
            Some(c) => c.to_json(),
            None => Value::Null,
        };
        object([
            ("domain", self.domain.to_json()),
            ("point", self.base.to_json()),
            (
                "applications",
                match self.applications {
                    Some(n) => Value::Number(n as f64),
                    None => Value::Null,
                },
            ),
            ("lifetime", opt(&self.lifetime)),
            ("volume", opt(&self.volume)),
        ])
    }
}

impl FromJson for CrossoverResponse {
    fn from_json(value: &Value) -> Result<CrossoverResponse, JsonError> {
        let opt = |key: &'static str| match value.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(member) => Crossover::from_json(member)
                .map(Some)
                .map_err(|e| prefix_schema(key, e)),
        };
        Ok(CrossoverResponse {
            domain: decode(value, "domain")?,
            base: decode(value, "point")?,
            applications: match value.get("applications") {
                None | Some(Value::Null) => None,
                Some(member) => {
                    Some(u64::from_json(member).map_err(|e| prefix_schema("applications", e))?)
                }
            },
            lifetime: opt("lifetime")?,
            volume: opt("volume")?,
        })
    }
}

/// `POST /v1/frontier`: an adaptive winner map over a 2-D lattice.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRequest {
    /// The scenario to trace in.
    pub scenario: ScenarioSpec,
    /// The base operating point supplying the held parameter.
    pub base: OperatingPoint,
    /// Axis swept along the columns.
    pub x_axis: SweepAxis,
    /// Column range (inclusive on both ends).
    pub x_range: (f64, f64),
    /// Axis swept along the rows.
    pub y_axis: SweepAxis,
    /// Row range (inclusive on both ends).
    pub y_range: (f64, f64),
    /// Lattice resolution per axis.
    pub steps: usize,
}

/// Linearly spaced axis values (endpoints included) — the lattice geometry
/// shared by [`FrontierRequest`], [`GridRequest`] and the CLI.
fn linear_axis_values((from, to): (f64, f64), steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|i| from + (to - from) * i as f64 / (steps as f64 - 1.0))
        .collect()
}

/// The 2-D lattice geometry shared by [`FrontierRequest`] and
/// [`GridRequest`]: axes, ranges and resolution, with their common
/// defaults, decoding and validation.
struct LatticeGeometry {
    x_axis: SweepAxis,
    x_range: (f64, f64),
    y_axis: SweepAxis,
    y_range: (f64, f64),
    steps: usize,
}

impl LatticeGeometry {
    fn decode(value: &Value) -> Result<LatticeGeometry, JsonError> {
        let steps_u64: u64 = decode_or(value, "steps", 24)?;
        let geometry = LatticeGeometry {
            x_axis: decode_or(value, "x_axis", SweepAxis::Applications)?,
            x_range: (
                decode_or(value, "x_from", 1.0)?,
                decode_or(value, "x_to", 12.0)?,
            ),
            y_axis: decode_or(value, "y_axis", SweepAxis::LifetimeYears)?,
            y_range: (
                decode_or(value, "y_from", 0.25)?,
                decode_or(value, "y_to", 3.0)?,
            ),
            steps: steps_u64 as usize,
        };
        if geometry.steps < 2 || geometry.steps > 1024 {
            return Err(JsonError::schema("steps", "expected 2 ≤ steps ≤ 1024"));
        }
        if geometry.x_axis == geometry.y_axis {
            return Err(JsonError::schema("y_axis", "x_axis and y_axis must differ"));
        }
        let range_invalid =
            |(from, to): (f64, f64)| !(from.is_finite() && to.is_finite()) || to <= from;
        if range_invalid(geometry.x_range) || range_invalid(geometry.y_range) {
            return Err(JsonError::schema(
                "x_from",
                "ranges must be finite with to > from",
            ));
        }
        Ok(geometry)
    }

    fn encode_members(&self) -> [(&'static str, Value); 7] {
        [
            ("x_axis", self.x_axis.to_json()),
            ("x_from", Value::Number(self.x_range.0)),
            ("x_to", Value::Number(self.x_range.1)),
            ("y_axis", self.y_axis.to_json()),
            ("y_from", Value::Number(self.y_range.0)),
            ("y_to", Value::Number(self.y_range.1)),
            ("steps", Value::Number(self.steps as f64)),
        ]
    }

    /// The full lattice-request JSON shared by [`FrontierRequest`] and
    /// [`GridRequest`]: flat scenario members, the base point, then the
    /// geometry.
    fn encode_request(&self, scenario: &ScenarioSpec, base: OperatingPoint) -> Value {
        let mut members = vec![("point", base.to_json())];
        members.extend(self.encode_members());
        merge_scenario_vec(scenario, members)
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

impl ToJson for FrontierRequest {
    fn to_json(&self) -> Value {
        LatticeGeometry {
            x_axis: self.x_axis,
            x_range: self.x_range,
            y_axis: self.y_axis,
            y_range: self.y_range,
            steps: self.steps,
        }
        .encode_request(&self.scenario, self.base)
    }
}

impl FromJson for FrontierRequest {
    fn from_json(value: &Value) -> Result<FrontierRequest, JsonError> {
        let geometry = LatticeGeometry::decode(value)?;
        Ok(FrontierRequest {
            scenario: ScenarioSpec::from_json(value)?,
            base: decode_or(value, "point", OperatingPoint::paper_default())?,
            x_axis: geometry.x_axis,
            x_range: geometry.x_range,
            y_axis: geometry.y_axis,
            y_range: geometry.y_range,
            steps: geometry.steps,
        })
    }
}

/// `POST /v1/grid`: a dense FPGA:ASIC ratio heatmap over a 2-D lattice
/// (the paper's Fig. 8), every cell evaluated through the batch
/// kernel. Same geometry and defaults as [`FrontierRequest`]; use the
/// frontier when only the winner of each cell matters.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRequest {
    /// The scenario to evaluate in.
    pub scenario: ScenarioSpec,
    /// The base operating point supplying the held parameter.
    pub base: OperatingPoint,
    /// Axis swept along the columns.
    pub x_axis: SweepAxis,
    /// Column range (inclusive on both ends).
    pub x_range: (f64, f64),
    /// Axis swept along the rows.
    pub y_axis: SweepAxis,
    /// Row range (inclusive on both ends).
    pub y_range: (f64, f64),
    /// Lattice resolution per axis.
    pub steps: usize,
    /// When `true`, a serving transport delivers the grid as streamed
    /// row-blocks (HTTP chunked transfer-encoding) instead of one buffered
    /// body. The decoded payload is byte-identical either way; this only
    /// bounds transport memory. Defaults to `false` and is omitted from
    /// the encoding when `false`, so buffered requests round-trip to the
    /// pre-streaming wire form.
    pub stream: bool,
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

impl ToJson for GridRequest {
    fn to_json(&self) -> Value {
        let geometry = LatticeGeometry {
            x_axis: self.x_axis,
            x_range: self.x_range,
            y_axis: self.y_axis,
            y_range: self.y_range,
            steps: self.steps,
        };
        let mut members = vec![("point", self.base.to_json())];
        members.extend(geometry.encode_members());
        if self.stream {
            members.push(("stream", Value::Bool(true)));
        }
        merge_scenario_vec(&self.scenario, members)
    }
}

impl FromJson for GridRequest {
    fn from_json(value: &Value) -> Result<GridRequest, JsonError> {
        let geometry = LatticeGeometry::decode(value)?;
        Ok(GridRequest {
            scenario: ScenarioSpec::from_json(value)?,
            base: decode_or(value, "point", OperatingPoint::paper_default())?,
            x_axis: geometry.x_axis,
            x_range: geometry.x_range,
            y_axis: geometry.y_axis,
            y_range: geometry.y_range,
            steps: geometry.steps,
            stream: decode_or(value, "stream", false)?,
        })
    }
}

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
}

impl ToJson for LatencyHistogram {
    fn to_json(&self) -> Value {
        object([
            ("bounds_us", self.bounds_us.to_json()),
            ("counts", self.counts.to_json()),
        ])
    }
}

impl FromJson for LatencyHistogram {
    fn from_json(value: &Value) -> Result<LatencyHistogram, JsonError> {
        let histogram = LatencyHistogram {
            bounds_us: decode(value, "bounds_us")?,
            counts: decode(value, "counts")?,
        };
        if histogram.counts.len() != histogram.bounds_us.len() + 1 {
            return Err(JsonError::schema(
                "counts",
                "expected one count per bound plus the overflow bucket",
            ));
        }
        Ok(histogram)
    }
}

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
    pub errors_4xx: u64,
    /// Requests answered with a 5xx (or other non-2xx, non-4xx) status —
    /// server faults.
    pub errors_5xx: u64,
    /// Request-body bytes received on this route.
    pub bytes_in: u64,
    /// Response-body bytes sent on this route.
    pub bytes_out: u64,
    /// Handler latency distribution.
    pub latency: LatencyHistogram,
}

impl ToJson for RouteMetrics {
    fn to_json(&self) -> Value {
        object([
            ("route", Value::String(self.route.clone())),
            ("requests", self.requests.to_json()),
            ("errors", self.errors.to_json()),
            ("errors_4xx", self.errors_4xx.to_json()),
            ("errors_5xx", self.errors_5xx.to_json()),
            ("bytes_in", self.bytes_in.to_json()),
            ("bytes_out", self.bytes_out.to_json()),
            ("latency", self.latency.to_json()),
        ])
    }
}

impl FromJson for RouteMetrics {
    fn from_json(value: &Value) -> Result<RouteMetrics, JsonError> {
        Ok(RouteMetrics {
            route: decode(value, "route")?,
            requests: decode(value, "requests")?,
            errors: decode(value, "errors")?,
            errors_4xx: decode_or(value, "errors_4xx", 0)?,
            errors_5xx: decode_or(value, "errors_5xx", 0)?,
            bytes_in: decode_or(value, "bytes_in", 0)?,
            bytes_out: decode_or(value, "bytes_out", 0)?,
            latency: decode(value, "latency")?,
        })
    }
}

/// One scenario-cache shard's counters in `GET /v1/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheShardMetrics {
    /// Compiled scenarios currently cached in the shard.
    pub entries: u64,
    /// Lifetime lookup hits.
    pub hits: u64,
    /// Lifetime lookup misses (compilations).
    pub misses: u64,
}

impl ToJson for CacheShardMetrics {
    fn to_json(&self) -> Value {
        object([
            ("entries", self.entries.to_json()),
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
        ])
    }
}

impl FromJson for CacheShardMetrics {
    fn from_json(value: &Value) -> Result<CacheShardMetrics, JsonError> {
        Ok(CacheShardMetrics {
            entries: decode(value, "entries")?,
            hits: decode(value, "hits")?,
            misses: decode(value, "misses")?,
        })
    }
}

/// `GET /v1/metrics` response: the serving core's observability snapshot —
/// per-route request/error counters and latency histograms, per-shard
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
    /// Per-shard scenario-cache statistics, in shard order.
    pub cache_shards: Vec<CacheShardMetrics>,
}

impl ToJson for MetricsResponse {
    fn to_json(&self) -> Value {
        object([
            ("requests_served", self.requests_served.to_json()),
            ("connections_live", self.connections_live.to_json()),
            ("connections_max", self.connections_max.to_json()),
            ("connections_rejected", self.connections_rejected.to_json()),
            ("routes", self.routes.to_json()),
            ("cache_shards", self.cache_shards.to_json()),
        ])
    }
}

impl FromJson for MetricsResponse {
    fn from_json(value: &Value) -> Result<MetricsResponse, JsonError> {
        Ok(MetricsResponse {
            requests_served: decode(value, "requests_served")?,
            connections_live: decode(value, "connections_live")?,
            connections_max: decode(value, "connections_max")?,
            connections_rejected: decode(value, "connections_rejected")?,
            routes: decode(value, "routes")?,
            cache_shards: decode(value, "cache_shards")?,
        })
    }
}

/// One span in `GET /v1/trace`: a named, timed slice of work with the
/// request id that correlates it to an `x-request-id` response header.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
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
    /// Span-class-specific detail (cache shard index, byte count, ...).
    pub aux: u64,
    /// Recording thread's trace-ring id.
    pub thread: u64,
}

impl ToJson for TraceSpan {
    fn to_json(&self) -> Value {
        object([
            ("name", Value::String(self.name.clone())),
            ("span_id", Value::String(self.span_id.clone())),
            ("request_id", Value::String(self.request_id.clone())),
            ("start_ns", self.start_ns.to_json()),
            ("duration_ns", self.duration_ns.to_json()),
            ("aux", self.aux.to_json()),
            ("thread", self.thread.to_json()),
        ])
    }
}

impl FromJson for TraceSpan {
    fn from_json(value: &Value) -> Result<TraceSpan, JsonError> {
        Ok(TraceSpan {
            name: decode(value, "name")?,
            span_id: decode(value, "span_id")?,
            request_id: decode(value, "request_id")?,
            start_ns: decode(value, "start_ns")?,
            duration_ns: decode(value, "duration_ns")?,
            aux: decode_or(value, "aux", 0)?,
            thread: decode_or(value, "thread", 0)?,
        })
    }
}

/// `GET /v1/trace` response: the most recent spans from every thread's
/// trace ring, newest first.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResponse {
    /// Recent spans, newest first.
    pub spans: Vec<TraceSpan>,
    /// Whether tracing is currently recording.
    pub enabled: bool,
}

impl ToJson for TraceResponse {
    fn to_json(&self) -> Value {
        object([
            ("spans", self.spans.to_json()),
            ("enabled", Value::Bool(self.enabled)),
        ])
    }
}

impl FromJson for TraceResponse {
    fn from_json(value: &Value) -> Result<TraceResponse, JsonError> {
        Ok(TraceResponse {
            spans: decode(value, "spans")?,
            enabled: decode_or(value, "enabled", true)?,
        })
    }
}

/// Splices request-specific members after the scenario members, so request
/// JSON stays flat: `{"domain": ..., "knobs": ..., "point": ...}`.
fn merge_scenario<const N: usize>(
    scenario: &ScenarioSpec,
    members: [(&'static str, Value); N],
) -> Value {
    merge_scenario_vec(scenario, members.into_iter().collect())
}

/// [`merge_scenario`] for a dynamic member list.
fn merge_scenario_vec(scenario: &ScenarioSpec, members: Vec<(&'static str, Value)>) -> Value {
    let mut all = match scenario.to_json() {
        Value::Object(members) => members,
        _ => unreachable!("scenario serializes to an object"),
    };
    for (key, value) in members {
        all.push((key.to_string(), value));
    }
    Value::Object(all)
}

/// Decodes an optional `"knobs"` object into `(Knob, value)` overrides —
/// shared by [`ScenarioSpec`] and [`IndustryRequest`].
fn decode_knob_overrides(value: &Value) -> Result<Vec<(Knob, f64)>, JsonError> {
    let mut knobs = Vec::new();
    match value.get("knobs") {
        None | Some(Value::Null) => {}
        Some(Value::Object(members)) => {
            for (id, member) in members {
                let knob = Knob::parse_id(id)
                    .ok_or_else(|| JsonError::schema(format!("knobs.{id}"), "unknown knob"))?;
                if knobs.iter().any(|&(seen, _)| seen == knob) {
                    return Err(JsonError::schema(
                        format!("knobs.{id}"),
                        format!("knob '{id}' overridden more than once"),
                    ));
                }
                let value = member
                    .as_f64()
                    .ok_or_else(|| JsonError::schema(format!("knobs.{id}"), "expected a number"))?;
                knobs.push((knob, value));
            }
        }
        Some(_) => {
            return Err(JsonError::schema(
                "knobs",
                "expected an object of knob values",
            ));
        }
    }
    Ok(knobs)
}

/// Encodes knob overrides as the `"knobs"` JSON object.
fn encode_knob_overrides(knobs: &[(Knob, f64)]) -> Value {
    Value::Object(
        knobs
            .iter()
            .map(|&(knob, value)| (knob.id().to_string(), Value::Number(value)))
            .collect(),
    )
}

impl FromJson for SweepPoint {
    /// Decodes one sweep sample; the derived `ratio` member is ignored (it
    /// is recomputed from the decoded breakdowns).
    fn from_json(value: &Value) -> Result<SweepPoint, JsonError> {
        Ok(SweepPoint {
            x: decode(value, "x")?,
            fpga: decode(value, "fpga")?,
            asic: decode(value, "asic")?,
        })
    }
}

impl FromJson for SweepSeries {
    /// Decodes a series; the derived `crossovers` member is ignored (it is
    /// recomputed from the decoded points, bit-identically).
    fn from_json(value: &Value) -> Result<SweepSeries, JsonError> {
        Ok(SweepSeries {
            domain: decode(value, "domain")?,
            axis: decode(value, "axis")?,
            points: decode(value, "points")?,
        })
    }
}

impl ToJson for GridSweep {
    fn to_json(&self) -> Value {
        object([
            ("domain", self.domain.to_json()),
            ("x_axis", self.x_axis.to_json()),
            ("x_values", self.x_values.to_json()),
            ("y_axis", self.y_axis.to_json()),
            ("y_values", self.y_values.to_json()),
            ("ratios", self.ratios.to_json()),
            (
                "fpga_winning_fraction",
                Value::Number(self.fpga_winning_fraction()),
            ),
        ])
    }
}

impl FromJson for GridSweep {
    /// Decodes a ratio grid; the derived `fpga_winning_fraction` member is
    /// ignored. The ratio matrix must match the coordinate lists.
    fn from_json(value: &Value) -> Result<GridSweep, JsonError> {
        let grid = GridSweep {
            domain: decode(value, "domain")?,
            x_axis: decode(value, "x_axis")?,
            x_values: decode(value, "x_values")?,
            y_axis: decode(value, "y_axis")?,
            y_values: decode(value, "y_values")?,
            ratios: decode(value, "ratios")?,
        };
        if grid.ratios.len() != grid.y_values.len()
            || grid
                .ratios
                .iter()
                .any(|row| row.len() != grid.x_values.len())
        {
            return Err(JsonError::schema(
                "ratios",
                "expected one row per y value and one column per x value",
            ));
        }
        Ok(grid)
    }
}

impl FromJson for SensitivityEntry {
    /// Decodes one tornado bar; the derived `swing` and `flips_winner`
    /// members are ignored.
    fn from_json(value: &Value) -> Result<SensitivityEntry, JsonError> {
        let id: String = decode(value, "knob")?;
        let knob = Knob::parse_id(&id)
            .ok_or_else(|| JsonError::schema("knob", format!("unknown knob '{id}'")))?;
        Ok(SensitivityEntry {
            knob,
            ratio_at_low: decode(value, "ratio_at_low")?,
            ratio_at_high: decode(value, "ratio_at_high")?,
            ratio_at_baseline: decode(value, "ratio_at_baseline")?,
        })
    }
}

impl FromJson for TornadoAnalysis {
    fn from_json(value: &Value) -> Result<TornadoAnalysis, JsonError> {
        Ok(TornadoAnalysis {
            domain: decode(value, "domain")?,
            point: decode(value, "point")?,
            entries: decode(value, "entries")?,
        })
    }
}

/// `POST /v1/compare`: one operating point evaluated side by side in
/// several scenarios (e.g. all three domains at their baselines).
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRequest {
    /// The scenarios to evaluate, in response order (1–16).
    pub scenarios: Vec<ScenarioSpec>,
    /// The operating point shared by every scenario.
    pub point: OperatingPoint,
}

impl CompareRequest {
    /// The most scenarios one request may carry.
    pub const MAX_SCENARIOS: usize = 16;
}

impl ToJson for CompareRequest {
    fn to_json(&self) -> Value {
        object([
            (
                "scenarios",
                Value::Array(self.scenarios.iter().map(ToJson::to_json).collect()),
            ),
            ("point", self.point.to_json()),
        ])
    }
}

impl FromJson for CompareRequest {
    fn from_json(value: &Value) -> Result<CompareRequest, JsonError> {
        let scenarios: Vec<ScenarioSpec> = decode(value, "scenarios")?;
        if scenarios.is_empty() || scenarios.len() > CompareRequest::MAX_SCENARIOS {
            return Err(JsonError::schema(
                "scenarios",
                format!("expected 1 to {} scenarios", CompareRequest::MAX_SCENARIOS),
            ));
        }
        Ok(CompareRequest {
            scenarios,
            point: decode_or(value, "point", OperatingPoint::paper_default())?,
        })
    }
}

/// `POST /v1/compare` response: one comparison per requested scenario, in
/// request order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareResponse {
    /// The comparisons, in request order.
    pub comparisons: Vec<PlatformComparison>,
}

impl ToJson for CompareResponse {
    fn to_json(&self) -> Value {
        object([
            ("count", Value::Number(self.comparisons.len() as f64)),
            (
                "results",
                Value::Array(self.comparisons.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for CompareResponse {
    fn from_json(value: &Value) -> Result<CompareResponse, JsonError> {
        Ok(CompareResponse {
            comparisons: decode(value, "results")?,
        })
    }
}

/// `POST /v1/sweep`: one workload axis swept over a linear range, the
/// other two held at `base` (the paper's Figs. 4–6).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The scenario to sweep in.
    pub scenario: ScenarioSpec,
    /// The operating point supplying the two held parameters.
    pub base: OperatingPoint,
    /// The swept axis.
    pub axis: SweepAxis,
    /// Sweep range (inclusive on both ends; `to > from`).
    pub range: (f64, f64),
    /// Number of samples (2–100 000).
    pub steps: usize,
}

impl SweepRequest {
    /// The most samples one request may ask for.
    pub const MAX_STEPS: usize = 100_000;

    /// The sampled axis values (linear spacing, endpoints included).
    pub fn values(&self) -> Vec<f64> {
        linear_axis_values(self.range, self.steps)
    }
}

impl ToJson for SweepRequest {
    fn to_json(&self) -> Value {
        merge_scenario(
            &self.scenario,
            [
                ("point", self.base.to_json()),
                ("axis", self.axis.to_json()),
                ("from", Value::Number(self.range.0)),
                ("to", Value::Number(self.range.1)),
                ("steps", Value::Number(self.steps as f64)),
            ],
        )
    }
}

impl FromJson for SweepRequest {
    fn from_json(value: &Value) -> Result<SweepRequest, JsonError> {
        let steps_u64: u64 = decode_or(value, "steps", 10)?;
        let request = SweepRequest {
            scenario: ScenarioSpec::from_json(value)?,
            base: decode_or(value, "point", OperatingPoint::paper_default())?,
            axis: decode(value, "axis")?,
            range: (decode(value, "from")?, decode(value, "to")?),
            steps: steps_u64 as usize,
        };
        if request.steps < 2 || request.steps > SweepRequest::MAX_STEPS {
            return Err(JsonError::schema(
                "steps",
                format!("expected 2 ≤ steps ≤ {}", SweepRequest::MAX_STEPS),
            ));
        }
        let (from, to) = request.range;
        if !(from.is_finite() && to.is_finite()) || to <= from {
            return Err(JsonError::schema(
                "from",
                "sweep range must be finite with to > from",
            ));
        }
        Ok(request)
    }
}

/// `POST /v1/tornado`: one-at-a-time sensitivity analysis over every
/// Table 1 knob around the scenario's parameters (the paper's Fig. 12).
#[derive(Debug, Clone, PartialEq)]
pub struct TornadoRequest {
    /// The scenario whose parameters anchor the analysis.
    pub scenario: ScenarioSpec,
    /// The operating point the ratio is probed at.
    pub point: OperatingPoint,
}

impl ToJson for TornadoRequest {
    fn to_json(&self) -> Value {
        merge_scenario(&self.scenario, [("point", self.point.to_json())])
    }
}

impl FromJson for TornadoRequest {
    fn from_json(value: &Value) -> Result<TornadoRequest, JsonError> {
        Ok(TornadoRequest {
            scenario: ScenarioSpec::from_json(value)?,
            point: decode_or(value, "point", OperatingPoint::paper_default())?,
        })
    }
}

/// `POST /v1/montecarlo`: Monte-Carlo uncertainty analysis over the
/// Table 1 knob ranges (the paper's Fig. 13). Deterministic for a given
/// `(samples, seed)` regardless of thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloRequest {
    /// The scenario whose parameters anchor the study.
    pub scenario: ScenarioSpec,
    /// The (fixed) workload operating point.
    pub point: OperatingPoint,
    /// Number of parameter samples to draw (1–1 048 576).
    pub samples: usize,
    /// RNG seed. Must stay below 2⁵³ so it survives the JSON number
    /// round-trip exactly.
    pub seed: u64,
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

impl ToJson for MonteCarloRequest {
    fn to_json(&self) -> Value {
        merge_scenario(
            &self.scenario,
            [
                ("point", self.point.to_json()),
                ("samples", Value::Number(self.samples as f64)),
                ("seed", Value::Number(self.seed as f64)),
            ],
        )
    }
}

impl FromJson for MonteCarloRequest {
    fn from_json(value: &Value) -> Result<MonteCarloRequest, JsonError> {
        let samples: u64 = decode_or(value, "samples", MonteCarloRequest::DEFAULT_SAMPLES as u64)?;
        if samples == 0 || samples > MonteCarloRequest::MAX_SAMPLES as u64 {
            return Err(JsonError::schema(
                "samples",
                format!("expected 1 ≤ samples ≤ {}", MonteCarloRequest::MAX_SAMPLES),
            ));
        }
        Ok(MonteCarloRequest {
            scenario: ScenarioSpec::from_json(value)?,
            point: decode_or(value, "point", OperatingPoint::paper_default())?,
            samples: samples as usize,
            seed: decode_or(value, "seed", MonteCarloRequest::DEFAULT_SEED)?,
        })
    }
}

/// `POST /v1/montecarlo` response: the summary statistics of the sampled
/// FPGA:ASIC ratio distribution (the full sample vector stays server-side).
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloResponse {
    /// Domain the study was run in.
    pub domain: Domain,
    /// The (fixed) workload operating point.
    pub point: OperatingPoint,
    /// Number of samples drawn.
    pub samples: u64,
    /// 5th percentile of the ratio distribution.
    pub ratio_p5: f64,
    /// Median ratio.
    pub ratio_median: f64,
    /// 95th percentile of the ratio distribution.
    pub ratio_p95: f64,
    /// Mean ratio.
    pub ratio_mean: f64,
    /// Fraction of samples where the FPGA had the lower footprint.
    pub fpga_win_probability: f64,
    /// The platform winning the majority of samples.
    pub majority_winner: PlatformKind,
}

impl From<&UncertaintyReport> for MonteCarloResponse {
    fn from(report: &UncertaintyReport) -> MonteCarloResponse {
        MonteCarloResponse {
            domain: report.domain,
            point: report.point,
            samples: report.ratios.len() as u64,
            ratio_p5: report.quantile(0.05),
            ratio_median: report.median(),
            ratio_p95: report.quantile(0.95),
            ratio_mean: report.mean(),
            fpga_win_probability: report.fpga_win_probability(),
            majority_winner: report.majority_winner(),
        }
    }
}

impl ToJson for MonteCarloResponse {
    fn to_json(&self) -> Value {
        object([
            ("domain", self.domain.to_json()),
            ("point", self.point.to_json()),
            ("samples", Value::Number(self.samples as f64)),
            ("ratio_p5", Value::Number(self.ratio_p5)),
            ("ratio_median", Value::Number(self.ratio_median)),
            ("ratio_p95", Value::Number(self.ratio_p95)),
            ("ratio_mean", Value::Number(self.ratio_mean)),
            (
                "fpga_win_probability",
                Value::Number(self.fpga_win_probability),
            ),
            ("majority_winner", self.majority_winner.to_json()),
        ])
    }
}

impl FromJson for MonteCarloResponse {
    fn from_json(value: &Value) -> Result<MonteCarloResponse, JsonError> {
        Ok(MonteCarloResponse {
            domain: decode(value, "domain")?,
            point: decode(value, "point")?,
            samples: decode(value, "samples")?,
            ratio_p5: decode(value, "ratio_p5")?,
            ratio_median: decode(value, "ratio_median")?,
            ratio_p95: decode(value, "ratio_p95")?,
            ratio_mean: decode(value, "ratio_mean")?,
            fpga_win_probability: decode(value, "fpga_win_probability")?,
            majority_winner: decode(value, "majority_winner")?,
        })
    }
}

/// `POST /v1/industry`: the Table 3 industry testcases (Figs. 10–11) under
/// a configurable deployment scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct IndustryRequest {
    /// Table 1 knob overrides applied on top of the paper defaults.
    pub knobs: Vec<(Knob, f64)>,
    /// Total service life in years.
    pub service_years: f64,
    /// Applications an FPGA serves over the service life.
    pub fpga_applications: u64,
    /// Deployment volume in devices.
    pub volume: u64,
}

impl Default for IndustryRequest {
    /// The paper's setup: 6 years, 3 FPGA applications, 1 M units, no
    /// overrides.
    fn default() -> Self {
        IndustryRequest {
            knobs: Vec::new(),
            service_years: 6.0,
            fpga_applications: 3,
            volume: 1_000_000,
        }
    }
}

impl ToJson for IndustryRequest {
    fn to_json(&self) -> Value {
        object([
            ("knobs", encode_knob_overrides(&self.knobs)),
            ("service_years", Value::Number(self.service_years)),
            (
                "fpga_applications",
                Value::Number(self.fpga_applications as f64),
            ),
            ("volume", Value::Number(self.volume as f64)),
        ])
    }
}

impl FromJson for IndustryRequest {
    fn from_json(value: &Value) -> Result<IndustryRequest, JsonError> {
        if value.as_object().is_none() {
            return Err(JsonError::schema("industry", "expected a request object"));
        }
        let defaults = IndustryRequest::default();
        let request = IndustryRequest {
            knobs: decode_knob_overrides(value)?,
            service_years: decode_or(value, "service_years", defaults.service_years)?,
            fpga_applications: decode_or(value, "fpga_applications", defaults.fpga_applications)?,
            volume: decode_or(value, "volume", defaults.volume)?,
        };
        if !request.service_years.is_finite() || request.service_years <= 0.0 {
            return Err(JsonError::schema(
                "service_years",
                "expected a positive number of years",
            ));
        }
        if request.fpga_applications == 0 {
            return Err(JsonError::schema(
                "fpga_applications",
                "expected at least one application",
            ));
        }
        if request.volume == 0 {
            return Err(JsonError::schema("volume", "expected at least one device"));
        }
        Ok(request)
    }
}

/// One device's footprint in a [`IndustryResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndustryDeviceReport {
    /// Device name (Table 3).
    pub device: String,
    /// Which platform the device is.
    pub platform: PlatformKind,
    /// Its lifecycle footprint under the requested scenario.
    pub cfp: CfpBreakdown,
}

impl ToJson for IndustryDeviceReport {
    fn to_json(&self) -> Value {
        object([
            ("device", Value::String(self.device.clone())),
            ("platform", self.platform.to_json()),
            ("cfp", self.cfp.to_json()),
        ])
    }
}

impl FromJson for IndustryDeviceReport {
    fn from_json(value: &Value) -> Result<IndustryDeviceReport, JsonError> {
        Ok(IndustryDeviceReport {
            device: decode(value, "device")?,
            platform: decode(value, "platform")?,
            cfp: decode(value, "cfp")?,
        })
    }
}

/// `POST /v1/industry` response: every Table 3 device's footprint, FPGAs
/// first.
#[derive(Debug, Clone, PartialEq)]
pub struct IndustryResponse {
    /// Per-device footprints.
    pub devices: Vec<IndustryDeviceReport>,
}

impl ToJson for IndustryResponse {
    fn to_json(&self) -> Value {
        object([(
            "devices",
            Value::Array(self.devices.iter().map(ToJson::to_json).collect()),
        )])
    }
}

impl FromJson for IndustryResponse {
    fn from_json(value: &Value) -> Result<IndustryResponse, JsonError> {
        Ok(IndustryResponse {
            devices: decode(value, "devices")?,
        })
    }
}

/// `POST /v1/frontier` response: the wire form of a
/// [`crate::FrontierResult`] — the dense winner mask plus the refiner's
/// evaluation accounting (the per-cell ratios of evaluated cells stay
/// engine-side).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierResponse {
    /// Domain the frontier was traced in.
    pub domain: Domain,
    /// Axis swept along the columns.
    pub x_axis: SweepAxis,
    /// Column coordinate values.
    pub x_values: Vec<f64>,
    /// Axis swept along the rows.
    pub y_axis: SweepAxis,
    /// Row coordinate values.
    pub y_values: Vec<f64>,
    /// `fpga_wins[row][col]` is `true` where the FPGA has the lower total.
    pub fpga_wins: Vec<Vec<bool>>,
    /// Fraction of cells the FPGA wins.
    pub fpga_winning_fraction: f64,
    /// Model evaluations the refiner performed.
    pub evaluations: u64,
    /// `evaluations` over the dense cell count.
    pub evaluated_fraction: f64,
}

impl From<&FrontierResult> for FrontierResponse {
    fn from(result: &FrontierResult) -> FrontierResponse {
        FrontierResponse {
            domain: result.domain,
            x_axis: result.x_axis,
            x_values: result.x_values.clone(),
            y_axis: result.y_axis,
            y_values: result.y_values.clone(),
            fpga_wins: result.winner_mask(),
            fpga_winning_fraction: result.fpga_winning_fraction(),
            evaluations: result.evaluations() as u64,
            evaluated_fraction: result.evaluated_fraction(),
        }
    }
}

impl ToJson for FrontierResponse {
    fn to_json(&self) -> Value {
        let winners = Value::Array(
            self.fpga_wins
                .iter()
                .map(|row| Value::Array(row.iter().map(|&b| Value::Bool(b)).collect()))
                .collect(),
        );
        object([
            ("domain", self.domain.to_json()),
            ("x_axis", self.x_axis.to_json()),
            ("x_values", self.x_values.to_json()),
            ("y_axis", self.y_axis.to_json()),
            ("y_values", self.y_values.to_json()),
            ("fpga_wins", winners),
            (
                "fpga_winning_fraction",
                Value::Number(self.fpga_winning_fraction),
            ),
            ("evaluations", Value::Number(self.evaluations as f64)),
            ("evaluated_fraction", Value::Number(self.evaluated_fraction)),
        ])
    }
}

impl FromJson for FrontierResponse {
    fn from_json(value: &Value) -> Result<FrontierResponse, JsonError> {
        let response = FrontierResponse {
            domain: decode(value, "domain")?,
            x_axis: decode(value, "x_axis")?,
            x_values: decode(value, "x_values")?,
            y_axis: decode(value, "y_axis")?,
            y_values: decode(value, "y_values")?,
            fpga_wins: decode(value, "fpga_wins")?,
            fpga_winning_fraction: decode(value, "fpga_winning_fraction")?,
            evaluations: decode(value, "evaluations")?,
            evaluated_fraction: decode(value, "evaluated_fraction")?,
        };
        if response.fpga_wins.len() != response.y_values.len()
            || response
                .fpga_wins
                .iter()
                .any(|row| row.len() != response.x_values.len())
        {
            return Err(JsonError::schema(
                "fpga_wins",
                "expected one row per y value and one column per x value",
            ));
        }
        Ok(response)
    }
}

impl ToJson for ApiError {
    fn to_json(&self) -> Value {
        object([(
            "error",
            object([
                ("code", Value::String(self.code.id().to_string())),
                ("message", Value::String(self.message.clone())),
                ("retryable", Value::Bool(self.retryable)),
            ]),
        )])
    }
}

impl FromJson for ApiError {
    fn from_json(value: &Value) -> Result<ApiError, JsonError> {
        let error = field(value, "error")?;
        let id: String = decode(error, "code")?;
        let code = ApiErrorCode::parse_id(&id)
            .ok_or_else(|| JsonError::schema("error.code", format!("unknown code '{id}'")))?;
        let message: String = decode(error, "message")?;
        let retryable = decode_or(error, "retryable", code.default_retryable())?;
        Ok(ApiError {
            code,
            message,
            retryable,
        })
    }
}

/// The kind discriminator of [`Query`]/[`Outcome`] — one entry per
/// workload the engine serves. The kind's [`QueryKind::id`] doubles as the
/// envelope's `"kind"` member, and [`QueryKind::path`] as the HTTP route
/// (`POST /v1/<id>`), so the route table, the envelope dispatch and the
/// metrics labels all derive from this one enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// One operating point in one scenario.
    Evaluate,
    /// Many operating points in one scenario (batch kernel).
    Batch,
    /// One point evaluated side by side in several scenarios.
    Compare,
    /// The three crossover searches (closed-form solver).
    Crossover,
    /// Adaptive winner map over a 2-D lattice (quadtree refiner).
    Frontier,
    /// One axis swept over a linear range.
    Sweep,
    /// Dense ratio heatmap over a 2-D lattice.
    Grid,
    /// One-at-a-time sensitivity analysis over the Table 1 knobs.
    Tornado,
    /// Monte-Carlo uncertainty analysis over the Table 1 ranges.
    MonteCarlo,
    /// The Table 3 industry testcases.
    Industry,
    /// One named-catalog (or inline) scenario, evaluated and scored.
    Scenario,
    /// A scenario replayed against a time-varying carbon intensity.
    Replay,
    /// An inverse query: minimize an objective (or fill a carbon budget)
    /// over a box of search knobs.
    Optimize,
    /// The scenario-catalog listing (the one `GET` kind).
    Catalog,
}

impl QueryKind {
    /// Every kind, in documentation and route-table order.
    pub const ALL: [QueryKind; 14] = [
        QueryKind::Evaluate,
        QueryKind::Batch,
        QueryKind::Compare,
        QueryKind::Crossover,
        QueryKind::Frontier,
        QueryKind::Sweep,
        QueryKind::Grid,
        QueryKind::Tornado,
        QueryKind::MonteCarlo,
        QueryKind::Industry,
        QueryKind::Scenario,
        QueryKind::Replay,
        QueryKind::Optimize,
        QueryKind::Catalog,
    ];

    /// The stable identifier used by the envelope's `"kind"` member.
    pub fn id(self) -> &'static str {
        match self {
            QueryKind::Evaluate => "evaluate",
            QueryKind::Batch => "batch",
            QueryKind::Compare => "compare",
            QueryKind::Crossover => "crossover",
            QueryKind::Frontier => "frontier",
            QueryKind::Sweep => "sweep",
            QueryKind::Grid => "grid",
            QueryKind::Tornado => "tornado",
            QueryKind::MonteCarlo => "montecarlo",
            QueryKind::Industry => "industry",
            QueryKind::Scenario => "scenario",
            QueryKind::Replay => "replay",
            QueryKind::Optimize => "optimize",
            QueryKind::Catalog => "catalog",
        }
    }

    /// The HTTP route serving this kind (see [`QueryKind::method`]).
    pub fn path(self) -> &'static str {
        match self {
            QueryKind::Evaluate => "/v1/evaluate",
            QueryKind::Batch => "/v1/batch",
            QueryKind::Compare => "/v1/compare",
            QueryKind::Crossover => "/v1/crossover",
            QueryKind::Frontier => "/v1/frontier",
            QueryKind::Sweep => "/v1/sweep",
            QueryKind::Grid => "/v1/grid",
            QueryKind::Tornado => "/v1/tornado",
            QueryKind::MonteCarlo => "/v1/montecarlo",
            QueryKind::Industry => "/v1/industry",
            QueryKind::Scenario => "/v1/scenario",
            QueryKind::Replay => "/v1/replay",
            QueryKind::Optimize => "/v1/optimize",
            QueryKind::Catalog => "/v1/catalog",
        }
    }

    /// The HTTP method serving this kind: `GET` for the parameter-less
    /// catalog listing, `POST` for every kind that carries a request
    /// body.
    pub fn method(self) -> &'static str {
        match self {
            QueryKind::Catalog => "GET",
            _ => "POST",
        }
    }

    /// Parses an envelope identifier back to its kind.
    pub fn parse_id(id: &str) -> Option<QueryKind> {
        QueryKind::ALL.into_iter().find(|kind| kind.id() == id)
    }

    /// The kind served at an HTTP path, if any.
    pub fn from_path(path: &str) -> Option<QueryKind> {
        QueryKind::ALL.into_iter().find(|kind| kind.path() == path)
    }

    /// Decodes this kind's request payload (the flat request object a
    /// `POST /v1/<kind>` body carries — no envelope members required).
    ///
    /// # Errors
    ///
    /// Returns the schema error of the offending member.
    pub fn decode_request(self, value: &Value) -> Result<Query, JsonError> {
        Ok(match self {
            QueryKind::Evaluate => Query::Evaluate(EvaluateRequest::from_json(value)?),
            QueryKind::Batch => Query::Batch(BatchEvalRequest::from_json(value)?),
            QueryKind::Compare => Query::Compare(CompareRequest::from_json(value)?),
            QueryKind::Crossover => Query::Crossover(CrossoverRequest::from_json(value)?),
            QueryKind::Frontier => Query::Frontier(FrontierRequest::from_json(value)?),
            QueryKind::Sweep => Query::Sweep(SweepRequest::from_json(value)?),
            QueryKind::Grid => Query::Grid(GridRequest::from_json(value)?),
            QueryKind::Tornado => Query::Tornado(TornadoRequest::from_json(value)?),
            QueryKind::MonteCarlo => Query::MonteCarlo(MonteCarloRequest::from_json(value)?),
            QueryKind::Industry => Query::Industry(IndustryRequest::from_json(value)?),
            QueryKind::Scenario => Query::Scenario(ScenarioRunRequest::from_json(value)?),
            QueryKind::Replay => Query::Replay(ReplayRequest::from_json(value)?),
            QueryKind::Optimize => Query::Optimize(OptimizeRequest::from_json(value)?),
            QueryKind::Catalog => Query::Catalog(CatalogRequest::from_json(value)?),
        })
    }

    /// Decodes this kind's response payload (the bare result object a
    /// `POST /v1/<kind>` route answers with).
    ///
    /// # Errors
    ///
    /// Returns the schema error of the offending member.
    pub fn decode_result(self, value: &Value) -> Result<Outcome, JsonError> {
        Ok(match self {
            QueryKind::Evaluate => Outcome::Evaluate(EvaluateResponse::from_json(value)?),
            QueryKind::Batch => Outcome::Batch(BatchEvalResponse::from_json(value)?),
            QueryKind::Compare => Outcome::Compare(CompareResponse::from_json(value)?),
            QueryKind::Crossover => Outcome::Crossover(CrossoverResponse::from_json(value)?),
            QueryKind::Frontier => Outcome::Frontier(FrontierResponse::from_json(value)?),
            QueryKind::Sweep => Outcome::Sweep(SweepSeries::from_json(value)?),
            QueryKind::Grid => Outcome::Grid(GridSweep::from_json(value)?),
            QueryKind::Tornado => Outcome::Tornado(TornadoAnalysis::from_json(value)?),
            QueryKind::MonteCarlo => Outcome::MonteCarlo(MonteCarloResponse::from_json(value)?),
            QueryKind::Industry => Outcome::Industry(IndustryResponse::from_json(value)?),
            QueryKind::Scenario => Outcome::Scenario(ScenarioRunResponse::from_json(value)?),
            QueryKind::Replay => Outcome::Replay(ReplayResponse::from_json(value)?),
            QueryKind::Optimize => Outcome::Optimize(OptimizeResponse::from_json(value)?),
            QueryKind::Catalog => Outcome::Catalog(CatalogResponse::from_json(value)?),
        })
    }
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One request against the unified engine surface — every workload the
/// library, the HTTP server and the CLI can answer, as one versioned type.
///
/// The JSON form is a flat envelope: the request payload with `"v"` (the
/// [`API_VERSION`]) and `"kind"` (the [`QueryKind::id`]) prepended:
///
/// ```json
/// {"v": 1, "kind": "sweep", "domain": "dnn", "axis": "apps",
///  "from": 1, "to": 12, "steps": 12}
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// One operating point in one scenario.
    Evaluate(EvaluateRequest),
    /// Many operating points in one scenario.
    Batch(BatchEvalRequest),
    /// One point across several scenarios.
    Compare(CompareRequest),
    /// The three crossover searches.
    Crossover(CrossoverRequest),
    /// Adaptive winner map over a 2-D lattice.
    Frontier(FrontierRequest),
    /// One axis swept over a linear range.
    Sweep(SweepRequest),
    /// Dense ratio heatmap over a 2-D lattice.
    Grid(GridRequest),
    /// One-at-a-time knob sensitivity analysis.
    Tornado(TornadoRequest),
    /// Monte-Carlo uncertainty analysis.
    MonteCarlo(MonteCarloRequest),
    /// The Table 3 industry testcases.
    Industry(IndustryRequest),
    /// One named-catalog (or inline) scenario, evaluated and scored.
    Scenario(ScenarioRunRequest),
    /// A scenario replayed against a time-varying carbon intensity.
    Replay(ReplayRequest),
    /// An inverse query over a box of search knobs.
    Optimize(OptimizeRequest),
    /// The scenario-catalog listing.
    Catalog(CatalogRequest),
}

impl Query {
    /// This query's kind discriminator.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Evaluate(_) => QueryKind::Evaluate,
            Query::Batch(_) => QueryKind::Batch,
            Query::Compare(_) => QueryKind::Compare,
            Query::Crossover(_) => QueryKind::Crossover,
            Query::Frontier(_) => QueryKind::Frontier,
            Query::Sweep(_) => QueryKind::Sweep,
            Query::Grid(_) => QueryKind::Grid,
            Query::Tornado(_) => QueryKind::Tornado,
            Query::MonteCarlo(_) => QueryKind::MonteCarlo,
            Query::Industry(_) => QueryKind::Industry,
            Query::Scenario(_) => QueryKind::Scenario,
            Query::Replay(_) => QueryKind::Replay,
            Query::Optimize(_) => QueryKind::Optimize,
            Query::Catalog(_) => QueryKind::Catalog,
        }
    }

    /// The flat request payload (what a `POST /v1/<kind>` body carries,
    /// without the envelope members).
    pub fn request_body(&self) -> Value {
        match self {
            Query::Evaluate(request) => request.to_json(),
            Query::Batch(request) => request.to_json(),
            Query::Compare(request) => request.to_json(),
            Query::Crossover(request) => request.to_json(),
            Query::Frontier(request) => request.to_json(),
            Query::Sweep(request) => request.to_json(),
            Query::Grid(request) => request.to_json(),
            Query::Tornado(request) => request.to_json(),
            Query::MonteCarlo(request) => request.to_json(),
            Query::Industry(request) => request.to_json(),
            Query::Scenario(request) => request.to_json(),
            Query::Replay(request) => request.to_json(),
            Query::Optimize(request) => request.to_json(),
            Query::Catalog(request) => request.to_json(),
        }
    }
}

/// Reads and validates the `"v"`/`"kind"` envelope members.
fn decode_envelope(value: &Value) -> Result<QueryKind, JsonError> {
    let version: u64 = decode_or(value, "v", API_VERSION)?;
    if version != API_VERSION {
        return Err(JsonError::schema(
            "v",
            format!("unsupported API version {version} (this build speaks {API_VERSION})"),
        ));
    }
    let id: String = decode(value, "kind")?;
    QueryKind::parse_id(&id)
        .ok_or_else(|| JsonError::schema("kind", format!("unknown query kind '{id}'")))
}

impl ToJson for Query {
    fn to_json(&self) -> Value {
        let mut members = vec![
            ("v".to_string(), Value::Number(API_VERSION as f64)),
            (
                "kind".to_string(),
                Value::String(self.kind().id().to_string()),
            ),
        ];
        match self.request_body() {
            Value::Object(body) => members.extend(body),
            // `from_json` decodes the flat object, so a non-object body
            // could never round-trip — fail loudly instead of emitting an
            // envelope the decoder rejects.
            _ => unreachable!("request bodies serialize to objects"),
        }
        Value::Object(members)
    }
}

impl FromJson for Query {
    fn from_json(value: &Value) -> Result<Query, JsonError> {
        decode_envelope(value)?.decode_request(value)
    }
}

/// The result of running a [`Query`] — one variant per query kind, in the
/// same order. The JSON form is `{"v": 1, "kind": "<id>", "result": ...}`
/// where `result` is exactly the body the matching HTTP route answers
/// with.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Result of [`Query::Evaluate`].
    Evaluate(EvaluateResponse),
    /// Result of [`Query::Batch`].
    Batch(BatchEvalResponse),
    /// Result of [`Query::Compare`].
    Compare(CompareResponse),
    /// Result of [`Query::Crossover`].
    Crossover(CrossoverResponse),
    /// Result of [`Query::Frontier`].
    Frontier(FrontierResponse),
    /// Result of [`Query::Sweep`].
    Sweep(SweepSeries),
    /// Result of [`Query::Grid`].
    Grid(GridSweep),
    /// Result of [`Query::Tornado`].
    Tornado(TornadoAnalysis),
    /// Result of [`Query::MonteCarlo`].
    MonteCarlo(MonteCarloResponse),
    /// Result of [`Query::Industry`].
    Industry(IndustryResponse),
    /// Result of [`Query::Scenario`].
    Scenario(ScenarioRunResponse),
    /// Result of [`Query::Replay`].
    Replay(ReplayResponse),
    /// Result of [`Query::Optimize`].
    Optimize(OptimizeResponse),
    /// Result of [`Query::Catalog`].
    Catalog(CatalogResponse),
}

impl Outcome {
    /// This outcome's kind discriminator.
    pub fn kind(&self) -> QueryKind {
        match self {
            Outcome::Evaluate(_) => QueryKind::Evaluate,
            Outcome::Batch(_) => QueryKind::Batch,
            Outcome::Compare(_) => QueryKind::Compare,
            Outcome::Crossover(_) => QueryKind::Crossover,
            Outcome::Frontier(_) => QueryKind::Frontier,
            Outcome::Sweep(_) => QueryKind::Sweep,
            Outcome::Grid(_) => QueryKind::Grid,
            Outcome::Tornado(_) => QueryKind::Tornado,
            Outcome::MonteCarlo(_) => QueryKind::MonteCarlo,
            Outcome::Industry(_) => QueryKind::Industry,
            Outcome::Scenario(_) => QueryKind::Scenario,
            Outcome::Replay(_) => QueryKind::Replay,
            Outcome::Optimize(_) => QueryKind::Optimize,
            Outcome::Catalog(_) => QueryKind::Catalog,
        }
    }

    /// The bare result payload — exactly the body the matching
    /// `POST /v1/<kind>` route answers with.
    pub fn result_json(&self) -> Value {
        match self {
            Outcome::Evaluate(response) => response.to_json(),
            Outcome::Batch(response) => response.to_json(),
            Outcome::Compare(response) => response.to_json(),
            Outcome::Crossover(response) => response.to_json(),
            Outcome::Frontier(response) => response.to_json(),
            Outcome::Sweep(series) => series.to_json(),
            Outcome::Grid(grid) => grid.to_json(),
            Outcome::Tornado(analysis) => analysis.to_json(),
            Outcome::MonteCarlo(response) => response.to_json(),
            Outcome::Industry(response) => response.to_json(),
            Outcome::Scenario(response) => response.to_json(),
            Outcome::Replay(response) => response.to_json(),
            Outcome::Optimize(response) => response.to_json(),
            Outcome::Catalog(response) => response.to_json(),
        }
    }
}

impl ToJson for Outcome {
    fn to_json(&self) -> Value {
        object([
            ("v", Value::Number(API_VERSION as f64)),
            ("kind", Value::String(self.kind().id().to_string())),
            ("result", self.result_json()),
        ])
    }
}

impl FromJson for Outcome {
    fn from_json(value: &Value) -> Result<Outcome, JsonError> {
        let kind = decode_envelope(value)?;
        kind.decode_result(field(value, "result")?)
            .map_err(|e| prefix_schema("result", e))
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
        let text = comparison.to_json().to_json_string().unwrap();
        let back = PlatformComparison::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, comparison);
        assert_eq!(
            back.fpga.total().as_kg().to_bits(),
            comparison.fpga.total().as_kg().to_bits()
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
        // Round trip through to_json.
        let again = EvaluateRequest::from_json(
            &parse(&request.to_json().to_json_string().unwrap()).unwrap(),
        )
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
        // Response round-trip.
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
        let text = response.to_json().to_json_string().unwrap();
        assert_eq!(
            CrossoverResponse::from_json(&parse(&text).unwrap()).unwrap(),
            response
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
            assert!(
                FrontierRequest::from_json(&parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
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
        let text = response.to_json().to_json_string().unwrap();
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
        let text = response.to_json().to_json_string().unwrap();
        let back = TraceResponse::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, response);
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
        let response = BatchEvalResponse {
            comparisons: comparisons.clone(),
        };
        let text = response.to_json().to_json_string().unwrap();
        let back = BatchEvalResponse::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back.comparisons, comparisons);
    }
}
