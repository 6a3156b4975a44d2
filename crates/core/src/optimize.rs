//! Inverse queries: a typed objective model and a two-tier solver over the
//! compiled evaluation kernel.
//!
//! The estimator answers "given these knobs, what is the footprint?"; the
//! optimizer answers the decisions users actually face — "what volume /
//! lifetime / application count minimizes footprint?", "how far can the
//! fleet grow before it blows a carbon budget?", "which knob settings make
//! the FPGA win?". An [`Objective`] names the scalar to minimize (or the
//! budget to satisfy), [`SearchKnob`]s bound a 1–3 dimensional box over
//! the workload axes, and [`Constraint`]s carve out the feasible region.
//!
//! Two solver tiers share one entry point,
//! [`CompiledScenario::optimize`]:
//!
//! * **Analytic** — every `Min*` objective and the FPGA margin are
//!   *multilinear* in (applications, lifetime, volume): degree ≤ 1 in each
//!   axis (see [`CompiledScenario::totals_affine`]). The FPGA:ASIC ratio
//!   is linear-fractional along each axis and so monotone. Either way the
//!   minimum over a box sits at a vertex, so the solver kernel-evaluates
//!   all `2^k ≤ 8` vertices and keeps the best feasible one — O(1)
//!   evaluations, exact. This covers every unconstrained problem and
//!   `min_ratio` subject to `fpga_wins`. Budget objectives invert the
//!   affine algebra in closed form and verify the integer boundary with
//!   the same shared walk the crossover searches use (the `analytic`
//!   module).
//! * **Search** — every other constrained problem falls back to
//!   deterministic coordinate descent: per-axis dense sweeps batched
//!   through the batch kernel (and thereby the `exec` worker pool), then
//!   golden-section (continuous axes) or unit-step walk (integer axes)
//!   refinement to the requested tolerance. Results are independent of
//!   the engine's `eval_threads` by construction, because batch results
//!   are written by index.
//!
//! Every solve reports a [`CertificateProbe`] list: one-sided kernel
//! probes one step inward from the argmin along each searched axis,
//! proving local optimality (`delta ≥ 0` up to rounding) without trusting
//! the solver's own arithmetic.

use crate::analytic::verify_integer_boundary;
use crate::{
    CompiledScenario, GreenFpgaError, OperatingPoint, PlatformComparison, PlatformKind,
    ResultBuffer, SweepAxis,
};

/// The platform whose totals a scalar objective or budget cap reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptPlatform {
    /// The FPGA-based platform (the wire default).
    #[default]
    Fpga,
    /// The ASIC-based platform.
    Asic,
}

impl OptPlatform {
    /// The named platform's total footprint in kg CO₂e.
    pub fn total_kg(self, comparison: &PlatformComparison) -> f64 {
        match self {
            OptPlatform::Fpga => comparison.fpga.total().as_kg(),
            OptPlatform::Asic => comparison.asic.total().as_kg(),
        }
    }
}

/// What the optimizer solves for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize a platform's total CO₂e.
    MinTotal(OptPlatform),
    /// Minimize a platform's operational CO₂e.
    MinOperational(OptPlatform),
    /// Minimize a platform's embodied CO₂e (total − operation − app-dev).
    MinEmbodied(OptPlatform),
    /// Maximize the FPGA-vs-ASIC margin `asic − fpga` (equivalently,
    /// minimize `fpga − asic`).
    MaxFpgaMargin,
    /// Minimize the FPGA:ASIC total ratio — linear-fractional and so
    /// monotone along each axis: solved at the box vertices, alone or
    /// subject only to [`Constraint::FpgaWins`].
    MinRatio,
    /// Maximize the single searched knob subject to the platform's total
    /// staying at or under `budget_kg`. Requires exactly one search knob
    /// and no constraints; an unreachable budget is a model error
    /// ([`GreenFpgaError::Infeasible`]).
    MeetBudget {
        /// The platform whose total the budget caps.
        platform: OptPlatform,
        /// The carbon budget in kg CO₂e.
        budget_kg: f64,
    },
}

impl Objective {
    /// The scalar this objective minimizes, read off one kernel
    /// comparison. For [`Objective::MeetBudget`] this is the capped
    /// platform total (what the budget bounds, and what probes report).
    pub fn scalar(&self, comparison: &PlatformComparison) -> f64 {
        match *self {
            Objective::MinTotal(platform) => platform.total_kg(comparison),
            Objective::MinOperational(platform) => match platform {
                OptPlatform::Fpga => comparison.fpga.operation.as_kg(),
                OptPlatform::Asic => comparison.asic.operation.as_kg(),
            },
            Objective::MinEmbodied(platform) => match platform {
                OptPlatform::Fpga => {
                    (comparison.fpga.total() - comparison.fpga.operation - comparison.fpga.app_dev)
                        .as_kg()
                }
                OptPlatform::Asic => {
                    (comparison.asic.total() - comparison.asic.operation - comparison.asic.app_dev)
                        .as_kg()
                }
            },
            Objective::MaxFpgaMargin => {
                comparison.fpga.total().as_kg() - comparison.asic.total().as_kg()
            }
            Objective::MinRatio => comparison.fpga_to_asic_ratio(),
            Objective::MeetBudget { platform, .. } => platform.total_kg(comparison),
        }
    }

    /// Whether the constrained minimum sits at a vertex of the searched
    /// box, making the vertex enumeration exact.
    ///
    /// Each platform total is multilinear in (applications, lifetime,
    /// volume): degree ≤ 1 in each axis. So the `Min*` objectives and the
    /// margin are affine along every axis, and the FPGA:ASIC ratio is
    /// linear-fractional, `(f₀ + f₁x) / (a₀ + a₁x)`, whose derivative
    /// `(f₁a₀ − f₀a₁) / (a₀ + a₁x)²` keeps one sign while the ASIC total
    /// stays positive. Every objective is thus monotone along each axis,
    /// and its box minimum lies at a vertex. `fpga_wins` (ratio < 1) is
    /// the ratio's own sublevel set, so it cannot move the ratio's
    /// minimum: the best vertex is feasible or nothing is. Any other
    /// constraint can put the minimum inside the box, on its boundary
    /// curve, so it goes to the search.
    fn solved_at_vertices(&self, constraints: &[Constraint]) -> bool {
        match self {
            Objective::MeetBudget { .. } => false,
            Objective::MinRatio => constraints
                .iter()
                .all(|c| matches!(c, Constraint::FpgaWins)),
            _ => constraints.is_empty(),
        }
    }
}

/// One searched workload axis with its box bounds.
///
/// Applications and volume are integer quantities in the model, so those
/// axes are always searched on the integer lattice regardless of the
/// `integer` flag; `integer` additionally snaps the lifetime axis to whole
/// years when set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchKnob {
    /// The workload axis to search.
    pub axis: SweepAxis,
    /// Lower bound (inclusive).
    pub min: f64,
    /// Upper bound (inclusive).
    pub max: f64,
    /// Restrict the axis to integer values (implied for applications and
    /// volume).
    pub integer: bool,
}

impl SearchKnob {
    /// Whether this knob searches the integer lattice — explicit flag or
    /// an inherently integer axis.
    pub fn effective_integer(&self) -> bool {
        self.integer || !matches!(self.axis, SweepAxis::LifetimeYears)
    }
}

/// A feasibility constraint carving the searched box. A constrained
/// problem runs the coordinate search, except [`Objective::MinRatio`]
/// subject only to [`Constraint::FpgaWins`], which stays at the vertices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constraint {
    /// The FPGA must be the strictly greener platform (ties go to the
    /// ASIC, as everywhere in the model).
    FpgaWins,
    /// A platform's total must stay at or under a cap.
    MaxTotalKg {
        /// The platform whose total is capped.
        platform: OptPlatform,
        /// The cap in kg CO₂e.
        limit_kg: f64,
    },
}

impl Constraint {
    /// Whether a kernel comparison satisfies this constraint.
    pub fn satisfied(&self, comparison: &PlatformComparison) -> bool {
        match *self {
            Constraint::FpgaWins => comparison.winner() == PlatformKind::Fpga,
            Constraint::MaxTotalKg { platform, limit_kg } => {
                platform.total_kg(comparison) <= limit_kg
            }
        }
    }
}

/// Which solver tier produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Closed-form via the affine algebra: vertex enumeration or budget
    /// root, O(1) kernel evaluations.
    Analytic,
    /// Coordinate sweep + golden-section / integer-walk refinement.
    Search,
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SolverKind::Analytic => "analytic",
            SolverKind::Search => "search",
        })
    }
}

/// One local-optimality probe: the kernel objective one step from the
/// argmin along one searched axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertificateProbe {
    /// The probed axis.
    pub axis: SweepAxis,
    /// The probed knob value (argmin ± one step, inside the bounds).
    pub at: f64,
    /// The objective scalar at the probe (for budget objectives, the
    /// capped platform total).
    pub objective: f64,
    /// `objective(probe) − objective(argmin)` — non-negative (up to
    /// rounding) proves the argmin is locally optimal along this axis.
    /// For budget objectives, `total(probe) − budget_kg` — positive
    /// proves the knob cannot grow further.
    pub delta: f64,
}

/// The solved optimum: the argmin operating point, its kernel comparison,
/// and the evidence trail.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOutcome {
    /// The argmin operating point (base point with the searched axes
    /// replaced).
    pub point: OperatingPoint,
    /// The achieved objective scalar, from the kernel at `point`.
    pub objective: f64,
    /// The kernel comparison at `point`.
    pub comparison: PlatformComparison,
    /// Kernel evaluations spent (including certificate probes).
    pub evaluations: u64,
    /// Which tier solved it.
    pub solver: SolverKind,
    /// Per-axis one-sided local-optimality probes.
    pub certificate: Vec<CertificateProbe>,
}

/// Per-axis coarse samples in the search tier's coordinate sweep.
const SWEEP_SAMPLES: usize = 17;
/// Coordinate-descent pass cap in the search tier.
const MAX_PASSES: usize = 6;
/// Golden ratio conjugate for section search.
const INV_PHI: f64 = 0.618_033_988_749_894_9;

impl CompiledScenario {
    /// Solves an inverse query over this scenario: minimizes `objective`
    /// (or satisfies its budget) over the box the `search` knobs span
    /// around `base`, subject to `constraints`.
    ///
    /// Unconstrained problems and `min_ratio` subject only to `fpga_wins`
    /// solve exactly in O(1) kernel evaluations, at the box vertices or
    /// by budget inversion; every other constrained problem runs
    /// deterministic coordinate descent to `tolerance`, spending at most
    /// `max_evals` kernel evaluations. `threads` sizes the batch-kernel
    /// fan-out of the sweep stages; the result is bit-identical for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidApplication`] for a malformed
    /// search box or objective configuration,
    /// [`GreenFpgaError::Infeasible`] when no point in the box satisfies
    /// the budget or constraints, and propagates kernel evaluation
    /// errors.
    // The seven knobs of an inverse query plus `&self` — a parameter
    // object would just restate `OptimizeRequest` inside the core crate.
    #[allow(clippy::too_many_arguments)]
    pub fn optimize(
        &self,
        base: OperatingPoint,
        objective: &Objective,
        search: &[SearchKnob],
        constraints: &[Constraint],
        tolerance: f64,
        max_evals: u64,
        threads: usize,
    ) -> Result<OptimizeOutcome, GreenFpgaError> {
        let bounds = validate_search(search)?;
        if !tolerance.is_finite() || tolerance <= 0.0 {
            return Err(invalid(
                "tolerance",
                "tolerance must be positive and finite",
            ));
        }
        if max_evals == 0 {
            return Err(invalid("max_evals", "max_evals must be at least 1"));
        }
        for constraint in constraints {
            if let Constraint::MaxTotalKg { limit_kg, .. } = constraint {
                if !limit_kg.is_finite() || *limit_kg <= 0.0 {
                    return Err(invalid(
                        "constraints",
                        "limit_kg must be positive and finite",
                    ));
                }
            }
        }
        let mut solver = Solver {
            compiled: self,
            base,
            bounds,
            constraints,
            tolerance,
            max_evals,
            threads,
            evals: 0,
            buffer: ResultBuffer::new(),
        };
        match objective {
            Objective::MeetBudget {
                platform,
                budget_kg,
            } => solver.solve_budget(*platform, *budget_kg, objective),
            _ if objective.solved_at_vertices(constraints) => solver.solve_vertices(objective),
            _ => solver.solve_search(objective),
        }
    }
}

/// A validated search bound: integer-snapped where the axis demands it.
#[derive(Debug, Clone, Copy)]
struct Bound {
    axis: SweepAxis,
    lo: f64,
    hi: f64,
    integer: bool,
}

impl Bound {
    fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Snaps a value onto the knob's lattice and into its bounds.
    fn clamp(&self, value: f64) -> f64 {
        let v = if self.integer { value.round() } else { value };
        v.clamp(self.lo, self.hi)
    }
}

fn invalid(field: &'static str, reason: impl Into<String>) -> GreenFpgaError {
    GreenFpgaError::InvalidApplication {
        field,
        reason: reason.into(),
    }
}

fn validate_search(search: &[SearchKnob]) -> Result<Vec<Bound>, GreenFpgaError> {
    if search.is_empty() || search.len() > 3 {
        return Err(invalid(
            "search",
            format!("expected 1 to 3 search knobs, got {}", search.len()),
        ));
    }
    let mut bounds = Vec::with_capacity(search.len());
    for knob in search {
        if bounds.iter().any(|b: &Bound| b.axis == knob.axis) {
            return Err(invalid("search", "each axis may be searched at most once"));
        }
        if !knob.min.is_finite() || !knob.max.is_finite() || knob.max < knob.min {
            return Err(invalid(
                "search",
                format!(
                    "knob bounds must be finite with max >= min, got [{}, {}]",
                    knob.min, knob.max
                ),
            ));
        }
        let floor = match knob.axis {
            SweepAxis::Applications | SweepAxis::VolumeUnits => 1.0,
            SweepAxis::LifetimeYears => f64::MIN_POSITIVE,
        };
        if knob.min < floor {
            return Err(invalid(
                "search",
                match knob.axis {
                    SweepAxis::Applications => "applications bounds must start at 1 or above",
                    SweepAxis::VolumeUnits => "volume bounds must start at 1 or above",
                    SweepAxis::LifetimeYears => "lifetime bounds must be positive",
                },
            ));
        }
        let integer = knob.effective_integer();
        let (lo, hi) = if integer {
            (knob.min.ceil(), knob.max.floor())
        } else {
            (knob.min, knob.max)
        };
        if hi < lo {
            return Err(invalid(
                "search",
                format!(
                    "integer knob bounds [{}, {}] contain no lattice point",
                    knob.min, knob.max
                ),
            ));
        }
        bounds.push(Bound {
            axis: knob.axis,
            lo,
            hi,
            integer,
        });
    }
    Ok(bounds)
}

/// Reads an axis value off an operating point as an `f64`.
pub fn axis_value(point: OperatingPoint, axis: SweepAxis) -> f64 {
    match axis {
        SweepAxis::Applications => point.applications as f64,
        SweepAxis::LifetimeYears => point.lifetime_years,
        SweepAxis::VolumeUnits => point.volume as f64,
    }
}

/// Overrides one axis of an operating point.
fn set_axis(mut point: OperatingPoint, axis: SweepAxis, value: f64) -> OperatingPoint {
    match axis {
        SweepAxis::Applications => point.applications = value as u64,
        SweepAxis::LifetimeYears => point.lifetime_years = value,
        SweepAxis::VolumeUnits => point.volume = value as u64,
    }
    point
}

struct Solver<'a> {
    compiled: &'a CompiledScenario,
    base: OperatingPoint,
    bounds: Vec<Bound>,
    constraints: &'a [Constraint],
    tolerance: f64,
    max_evals: u64,
    threads: usize,
    evals: u64,
    buffer: ResultBuffer,
}

impl Solver<'_> {
    fn point_at(&self, values: &[f64]) -> OperatingPoint {
        let mut point = self.base;
        for (bound, &value) in self.bounds.iter().zip(values) {
            point = set_axis(point, bound.axis, value);
        }
        point
    }

    /// One counted kernel evaluation.
    fn eval(&mut self, values: &[f64]) -> Result<PlatformComparison, GreenFpgaError> {
        self.evals += 1;
        self.compiled.evaluate(self.point_at(values))
    }

    /// A counted batch of kernel evaluations through the batch kernel (and
    /// the exec pool when `threads > 1`); results land by index, so the
    /// outcome is identical for every thread count.
    fn eval_batch(
        &mut self,
        points: &[OperatingPoint],
    ) -> Result<Vec<PlatformComparison>, GreenFpgaError> {
        self.evals += points.len() as u64;
        let mut buffer = std::mem::take(&mut self.buffer);
        let result = self.compiled.evaluate_indexed_into(
            points.len(),
            |i| points[i],
            &mut buffer,
            self.threads,
        );
        let comparisons = result.map(|()| buffer.comparisons().collect());
        self.buffer = buffer;
        comparisons
    }

    fn feasible(&self, comparison: &PlatformComparison) -> bool {
        self.constraints.iter().all(|c| c.satisfied(comparison))
    }

    fn budget_left(&self) -> u64 {
        self.max_evals.saturating_sub(self.evals)
    }

    // -- analytic tier: vertex enumeration ------------------------------

    /// Exact argmin of an objective monotone along each axis (see
    /// [`Objective::solved_at_vertices`]): kernel-evaluate all vertices
    /// (≤ 8) and keep the best feasible one. Ties keep the
    /// lexicographically smallest vertex, matching a dense sweep scanned
    /// in ascending axis order.
    fn solve_vertices(&mut self, objective: &Objective) -> Result<OptimizeOutcome, GreenFpgaError> {
        let axes: Vec<Vec<f64>> = self
            .bounds
            .iter()
            .map(|b| {
                if b.lo == b.hi {
                    vec![b.lo]
                } else {
                    vec![b.lo, b.hi]
                }
            })
            .collect();
        let mut best: Option<(Vec<f64>, f64, PlatformComparison)> = None;
        let mut vertex = vec![0usize; axes.len()];
        loop {
            let values: Vec<f64> = vertex
                .iter()
                .zip(&axes)
                .map(|(&i, choices)| choices[i])
                .collect();
            let comparison = self.eval(&values)?;
            let scalar = objective.scalar(&comparison);
            if self.feasible(&comparison) && best.as_ref().is_none_or(|(_, s, _)| scalar < *s) {
                best = Some((values, scalar, comparison));
            }
            // Advance the odometer, last axis fastest — lexicographic
            // ascending order over the vertices.
            let mut carry = true;
            for (digit, choices) in vertex.iter_mut().zip(&axes).rev() {
                if !carry {
                    break;
                }
                *digit += 1;
                if *digit < choices.len() {
                    carry = false;
                } else {
                    *digit = 0;
                }
            }
            if carry {
                break;
            }
        }
        let Some((values, scalar, comparison)) = best else {
            return Err(GreenFpgaError::Infeasible {
                reason: format!(
                    "no vertex of the searched box satisfies the constraints \
                     ({} vertices probed)",
                    self.evals
                ),
            });
        };
        self.finish(objective, values, scalar, comparison, SolverKind::Analytic)
    }

    // -- analytic tier: budget inversion --------------------------------

    /// Closed-form budget solve on one axis: the platform total is affine
    /// in the searched knob, so the feasibility boundary is the root of
    /// `total(x) = budget`, kernel-verified (for integer axes via the
    /// shared boundary walk the crossover searches use).
    fn solve_budget(
        &mut self,
        platform: OptPlatform,
        budget_kg: f64,
        objective: &Objective,
    ) -> Result<OptimizeOutcome, GreenFpgaError> {
        if self.bounds.len() != 1 {
            return Err(invalid(
                "objective",
                "a budget objective searches exactly one knob",
            ));
        }
        if !self.constraints.is_empty() {
            return Err(invalid(
                "objective",
                "a budget objective takes no extra constraints",
            ));
        }
        if !budget_kg.is_finite() || budget_kg <= 0.0 {
            return Err(invalid(
                "objective",
                "budget_kg must be positive and finite",
            ));
        }
        let bound = self.bounds[0];
        let total_at = |solver: &mut Self, x: f64| -> Result<f64, GreenFpgaError> {
            let comparison = solver.eval(&[x])?;
            Ok(platform.total_kg(&comparison))
        };
        let lo_total = total_at(self, bound.lo)?;
        let hi_total = total_at(self, bound.hi)?;
        let affine = self.compiled.totals_affine(bound.axis, self.base);
        let line = match platform {
            OptPlatform::Fpga => affine.fpga,
            OptPlatform::Asic => affine.asic,
        };
        let infeasible = || GreenFpgaError::Infeasible {
            reason: format!(
                "the {} kg CO2e budget is exceeded everywhere in [{}, {}] \
                 (total spans [{:.3}, {:.3}] kg)",
                budget_kg,
                bound.lo,
                bound.hi,
                lo_total.min(hi_total),
                lo_total.max(hi_total)
            ),
        };
        let best = if hi_total <= budget_kg {
            // The largest knob value is already under budget.
            bound.hi
        } else if lo_total > budget_kg {
            // Totals are monotone along the axis; both ends over budget
            // means everywhere over budget.
            if lo_total.min(hi_total) > budget_kg {
                return Err(infeasible());
            }
            bound.lo
        } else {
            // Rising total crosses the budget inside the box: invert the
            // affine line and verify against the kernel.
            let root = if line.slope_kg != 0.0 {
                (budget_kg - line.intercept_kg) / line.slope_kg
            } else {
                bound.hi
            };
            if bound.integer {
                let over =
                    verify_integer_boundary(Some(root), bound.lo as u64, bound.hi as u64, |x| {
                        let comparison = self.eval(&[x as f64])?;
                        Ok(platform.total_kg(&comparison) > budget_kg)
                    })?;
                match over {
                    // The first over-budget integer; the answer sits one
                    // below it (>= lo, because lo itself was feasible).
                    Some(first_over) => (first_over - 1) as f64,
                    None => bound.hi,
                }
            } else {
                // Kernel-verify the real root; the affine model and the
                // kernel agree to ~1e-9, so at most a few nudges.
                let mut x = root.clamp(bound.lo, bound.hi);
                let step = (self.tolerance * bound.width()).max(f64::EPSILON * bound.hi.abs());
                let mut guard = 0;
                while total_at(self, x)? > budget_kg && guard < 64 {
                    x = (x - step).max(bound.lo);
                    guard += 1;
                }
                x
            }
        };
        let comparison = self.eval(&[best])?;
        let achieved = platform.total_kg(&comparison);
        if achieved > budget_kg {
            return Err(infeasible());
        }
        // Certificate: probe one step up — either the bound blocks, or
        // the kernel proves the next step busts the budget.
        let mut certificate = Vec::new();
        let step = if bound.integer {
            1.0
        } else {
            (self.tolerance * bound.width()).max(f64::EPSILON * bound.hi.abs())
        };
        let probe_at = best + step;
        if probe_at <= bound.hi {
            let probe_total = total_at(self, probe_at)?;
            certificate.push(CertificateProbe {
                axis: bound.axis,
                at: probe_at,
                objective: probe_total,
                delta: probe_total - budget_kg,
            });
        }
        Ok(OptimizeOutcome {
            point: self.point_at(&[best]),
            objective: objective.scalar(&comparison),
            comparison,
            evaluations: self.evals,
            solver: SolverKind::Analytic,
            certificate,
        })
    }

    // -- search tier: coordinate descent --------------------------------

    fn solve_search(&mut self, objective: &Objective) -> Result<OptimizeOutcome, GreenFpgaError> {
        // Seed: full-factorial coarse lattice, evaluated in one batch-kernel
        // call. Feasibility is read off the same comparisons — no extra
        // evaluations.
        let mut per_axis = match self.bounds.len() {
            1 => SWEEP_SAMPLES,
            2 => 7,
            _ => 5,
        };
        // A tight eval budget shrinks the coarse lattice before anything
        // is evaluated: `max_evals` is a ceiling, not a target.
        let budget = self.budget_left() as usize;
        while per_axis > 2 && per_axis.pow(self.bounds.len() as u32) > budget {
            per_axis -= 1;
        }
        let axes: Vec<Vec<f64>> = self.bounds.iter().map(|b| lattice(b, per_axis)).collect();
        let mut grid = Vec::new();
        let mut index = vec![0usize; axes.len()];
        loop {
            grid.push(
                index
                    .iter()
                    .zip(&axes)
                    .map(|(&i, values)| values[i])
                    .collect::<Vec<f64>>(),
            );
            let mut carry = true;
            for (digit, values) in index.iter_mut().zip(&axes).rev() {
                if !carry {
                    break;
                }
                *digit += 1;
                if *digit < values.len() {
                    carry = false;
                } else {
                    *digit = 0;
                }
            }
            if carry {
                break;
            }
        }
        grid.truncate(budget.max(1));
        let points: Vec<OperatingPoint> = grid.iter().map(|v| self.point_at(v)).collect();
        let comparisons = self.eval_batch(&points)?;
        let mut best: Option<(Vec<f64>, f64, PlatformComparison)> = None;
        for (values, comparison) in grid.iter().zip(&comparisons) {
            if !self.feasible(comparison) {
                continue;
            }
            let scalar = objective.scalar(comparison);
            if best.as_ref().is_none_or(|(_, s, _)| scalar < *s) {
                best = Some((values.clone(), scalar, *comparison));
            }
        }
        let Some((mut best_values, mut best_scalar, mut best_comparison)) = best else {
            return Err(GreenFpgaError::Infeasible {
                reason: format!(
                    "no point in the searched box satisfies the constraints \
                     ({} lattice points probed)",
                    grid.len()
                ),
            });
        };

        // Coordinate-descent passes: per axis, a dense 1-D sweep then a
        // refinement stage, until a full pass stops improving.
        for _ in 0..MAX_PASSES {
            let pass_start = best_scalar;
            for k in 0..self.bounds.len() {
                if self.budget_left() == 0 {
                    break;
                }
                let bound = self.bounds[k];
                let mut samples = lattice(&bound, SWEEP_SAMPLES.min(self.budget_left() as usize));
                samples.truncate(self.budget_left() as usize);
                if samples.is_empty() {
                    continue;
                }
                let points: Vec<OperatingPoint> = samples
                    .iter()
                    .map(|&x| {
                        let mut values = best_values.clone();
                        values[k] = x;
                        self.point_at(&values)
                    })
                    .collect();
                let comparisons = self.eval_batch(&points)?;
                let mut sample_best: Option<usize> = None;
                for (i, comparison) in comparisons.iter().enumerate() {
                    if !self.feasible(comparison) {
                        continue;
                    }
                    let scalar = objective.scalar(comparison);
                    let better = match sample_best {
                        None => scalar < best_scalar,
                        Some(j) => scalar < objective.scalar(&comparisons[j]),
                    };
                    if better {
                        sample_best = Some(i);
                    }
                }
                if let Some(i) = sample_best {
                    best_values[k] = samples[i];
                    best_scalar = objective.scalar(&comparisons[i]);
                    best_comparison = comparisons[i];
                    // Refine inside the bracket around the winning sample.
                    let lo = if i > 0 { samples[i - 1] } else { bound.lo };
                    let hi = if i + 1 < samples.len() {
                        samples[i + 1]
                    } else {
                        bound.hi
                    };
                    self.refine(
                        objective,
                        k,
                        lo,
                        hi,
                        &mut best_values,
                        &mut best_scalar,
                        &mut best_comparison,
                    )?;
                }
            }
            let improvement = pass_start - best_scalar;
            if improvement <= self.tolerance * best_scalar.abs().max(1.0) * 1e-3
                || self.budget_left() == 0
            {
                break;
            }
        }
        self.finish(
            objective,
            best_values,
            best_scalar,
            best_comparison,
            SolverKind::Search,
        )
    }

    /// Refines one axis inside `[lo, hi]`: golden-section for continuous
    /// knobs, unit-step walk for integer knobs. Stamped as an
    /// `optimize_refine` span (`aux` = kernel evaluations spent).
    #[allow(clippy::too_many_arguments)]
    fn refine(
        &mut self,
        objective: &Objective,
        k: usize,
        lo: f64,
        hi: f64,
        best_values: &mut Vec<f64>,
        best_scalar: &mut f64,
        best_comparison: &mut PlatformComparison,
    ) -> Result<(), GreenFpgaError> {
        let start = gf_trace::open();
        let evals_before = self.evals;
        let bound = self.bounds[k];
        let try_value = |solver: &mut Self,
                         x: f64,
                         best_values: &mut Vec<f64>,
                         best_scalar: &mut f64,
                         best_comparison: &mut PlatformComparison|
         -> Result<f64, GreenFpgaError> {
            let mut values = best_values.clone();
            values[k] = x;
            let comparison = solver.eval(&values)?;
            let scalar = if solver.feasible(&comparison) {
                objective.scalar(&comparison)
            } else {
                f64::INFINITY
            };
            if scalar < *best_scalar {
                *best_scalar = scalar;
                *best_values = values;
                *best_comparison = comparison;
            }
            Ok(scalar)
        };
        if bound.integer {
            // Unit-step walk from the current best in both directions.
            for direction in [-1.0, 1.0] {
                loop {
                    let next = best_values[k] + direction;
                    if next < lo || next > hi || self.budget_left() == 0 {
                        break;
                    }
                    let before = *best_scalar;
                    try_value(self, next, best_values, best_scalar, best_comparison)?;
                    if *best_scalar >= before {
                        break;
                    }
                }
            }
        } else {
            let (mut a, mut b) = (lo, hi);
            let width_tol = (self.tolerance * bound.width()).max(f64::EPSILON);
            let mut c = b - INV_PHI * (b - a);
            let mut d = a + INV_PHI * (b - a);
            let mut fc = f64::INFINITY;
            let mut fd = f64::INFINITY;
            if self.budget_left() > 0 {
                fc = try_value(self, c, best_values, best_scalar, best_comparison)?;
            }
            if self.budget_left() > 0 {
                fd = try_value(self, d, best_values, best_scalar, best_comparison)?;
            }
            while (b - a) > width_tol && self.budget_left() > 0 {
                if fc < fd {
                    b = d;
                    d = c;
                    fd = fc;
                    c = b - INV_PHI * (b - a);
                    fc = try_value(self, c, best_values, best_scalar, best_comparison)?;
                } else {
                    a = c;
                    c = d;
                    fc = fd;
                    d = a + INV_PHI * (b - a);
                    fd = try_value(self, d, best_values, best_scalar, best_comparison)?;
                }
            }
        }
        let evals = self.evals - evals_before;
        gf_trace::close(gf_trace::SpanName::OptimizeRefine, start, evals);
        Ok(())
    }

    /// Seals a solve: certificate probes one step inward along every axis,
    /// then the outcome.
    fn finish(
        &mut self,
        objective: &Objective,
        best_values: Vec<f64>,
        best_scalar: f64,
        best_comparison: PlatformComparison,
        solver: SolverKind,
    ) -> Result<OptimizeOutcome, GreenFpgaError> {
        let mut certificate = Vec::new();
        for (k, bound) in self.bounds.clone().iter().enumerate() {
            let step = if bound.integer {
                1.0
            } else {
                (self.tolerance * bound.width()).max(f64::EPSILON * bound.hi.abs())
            };
            for direction in [-1.0, 1.0] {
                if self.budget_left() == 0 {
                    break; // Probes count as evaluations; the cap is hard.
                }
                let at = best_values[k] + direction * step;
                if at < bound.lo || at > bound.hi {
                    continue; // The bound itself blocks this direction.
                }
                let mut values = best_values.clone();
                values[k] = at;
                let comparison = self.eval(&values)?;
                if !self.feasible(&comparison) {
                    continue; // A constraint blocks this direction.
                }
                let probe = objective.scalar(&comparison);
                certificate.push(CertificateProbe {
                    axis: bound.axis,
                    at,
                    objective: probe,
                    delta: probe - best_scalar,
                });
            }
        }
        Ok(OptimizeOutcome {
            point: self.point_at(&best_values),
            objective: best_scalar,
            comparison: best_comparison,
            evaluations: self.evals,
            solver,
            certificate,
        })
    }
}

/// Evenly spaced samples over a bound — deduplicated lattice values for
/// integer knobs, always including both endpoints.
fn lattice(bound: &Bound, samples: usize) -> Vec<f64> {
    let samples = samples.max(2);
    if bound.lo == bound.hi {
        return vec![bound.lo];
    }
    let mut values = Vec::with_capacity(samples);
    for i in 0..samples {
        let t = i as f64 / (samples - 1) as f64;
        let x = bound.clamp(bound.lo + t * (bound.hi - bound.lo));
        if values.last() != Some(&x) {
            values.push(x);
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, Estimator};

    fn compiled(domain: Domain) -> CompiledScenario {
        Estimator::default().compile(domain).unwrap()
    }

    fn base() -> OperatingPoint {
        OperatingPoint::paper_default()
    }

    fn knob(axis: SweepAxis, min: f64, max: f64) -> SearchKnob {
        SearchKnob {
            axis,
            min,
            max,
            integer: false,
        }
    }

    #[test]
    fn vertex_argmin_matches_dense_sweep() {
        let scenario = compiled(Domain::Dnn);
        let search = [
            knob(SweepAxis::Applications, 1.0, 12.0),
            knob(SweepAxis::LifetimeYears, 0.5, 4.0),
        ];
        let outcome = scenario
            .optimize(
                base(),
                &Objective::MinTotal(OptPlatform::Fpga),
                &search,
                &[],
                1e-6,
                10_000,
                1,
            )
            .unwrap();
        assert_eq!(outcome.solver, SolverKind::Analytic);
        // Dense oracle over the same box.
        let mut best: Option<(f64, f64, f64)> = None;
        for apps in 1..=12u64 {
            for step in 0..=64 {
                let years = 0.5 + (4.0 - 0.5) * step as f64 / 64.0;
                let point = OperatingPoint {
                    applications: apps,
                    lifetime_years: years,
                    ..base()
                };
                let total = scenario.evaluate(point).unwrap().fpga.total().as_kg();
                if best.is_none_or(|(_, _, b)| total < b) {
                    best = Some((apps as f64, years, total));
                }
            }
        }
        let (apps, years, total) = best.unwrap();
        assert_eq!(outcome.point.applications as f64, apps);
        assert_eq!(outcome.point.lifetime_years.to_bits(), years.to_bits());
        assert_eq!(outcome.objective.to_bits(), total.to_bits());
        assert!(outcome.evaluations <= 16, "{} evals", outcome.evaluations);
        for probe in &outcome.certificate {
            assert!(
                probe.delta >= -1e-9 * outcome.objective.abs(),
                "{probe:?} contradicts the argmin"
            );
        }
    }

    #[test]
    fn budget_objective_fills_the_budget() {
        let scenario = compiled(Domain::Dnn);
        let budget = scenario
            .evaluate(OperatingPoint {
                volume: 600_000,
                ..base()
            })
            .unwrap()
            .fpga
            .total()
            .as_kg();
        let outcome = scenario
            .optimize(
                base(),
                &Objective::MeetBudget {
                    platform: OptPlatform::Fpga,
                    budget_kg: budget,
                },
                &[knob(SweepAxis::VolumeUnits, 1_000.0, 2_000_000.0)],
                &[],
                1e-6,
                10_000,
                1,
            )
            .unwrap();
        assert_eq!(outcome.solver, SolverKind::Analytic);
        assert!(outcome.objective <= budget);
        // The boundary is exact: one more unit busts the budget.
        let over = scenario
            .evaluate(OperatingPoint {
                volume: outcome.point.volume + 1,
                ..base()
            })
            .unwrap()
            .fpga
            .total()
            .as_kg();
        assert!(
            over > budget,
            "volume {} is not maximal",
            outcome.point.volume
        );
        assert!(!outcome.certificate.is_empty());
        assert!(outcome.certificate[0].delta > 0.0);
    }

    #[test]
    fn unreachable_budget_is_infeasible() {
        let scenario = compiled(Domain::Dnn);
        let err = scenario
            .optimize(
                base(),
                &Objective::MeetBudget {
                    platform: OptPlatform::Fpga,
                    budget_kg: 1e-3,
                },
                &[knob(SweepAxis::VolumeUnits, 1_000.0, 2_000_000.0)],
                &[],
                1e-6,
                10_000,
                1,
            )
            .unwrap_err();
        assert!(matches!(err, GreenFpgaError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn ratio_search_beats_every_lattice_point() {
        let scenario = compiled(Domain::Dnn);
        let search = [
            knob(SweepAxis::Applications, 1.0, 12.0),
            knob(SweepAxis::LifetimeYears, 0.25, 4.0),
        ];
        let outcome = scenario
            .optimize(base(), &Objective::MinRatio, &search, &[], 1e-6, 10_000, 1)
            .unwrap();
        assert_eq!(outcome.solver, SolverKind::Analytic);
        for apps in 1..=12u64 {
            for step in 0..=32 {
                let years = 0.25 + (4.0 - 0.25) * step as f64 / 32.0;
                let ratio = scenario
                    .evaluate(OperatingPoint {
                        applications: apps,
                        lifetime_years: years,
                        ..base()
                    })
                    .unwrap()
                    .fpga_to_asic_ratio();
                assert!(
                    outcome.objective <= ratio + 1e-6,
                    "lattice ({apps}, {years}) ratio {ratio} beats {}",
                    outcome.objective
                );
            }
        }
    }

    #[test]
    fn fpga_wins_constraint_restricts_the_argmin() {
        let scenario = compiled(Domain::Dnn);
        // Unconstrained, minimizing the FPGA total over applications pulls
        // to one application — where the ASIC wins. The constraint forces
        // the argmin into FPGA-winning territory.
        let outcome = scenario
            .optimize(
                base(),
                &Objective::MinTotal(OptPlatform::Fpga),
                &[knob(SweepAxis::Applications, 1.0, 20.0)],
                &[Constraint::FpgaWins],
                1e-6,
                10_000,
                1,
            )
            .unwrap();
        assert_eq!(outcome.solver, SolverKind::Search);
        assert_eq!(outcome.comparison.winner(), PlatformKind::Fpga);
        // It matches the first winning count the crossover search reports.
        let first_win = scenario
            .crossover_in_applications_verified(20, base().lifetime_years, base().volume)
            .unwrap()
            .expect("dnn crosses over within 20 applications");
        assert_eq!(outcome.point.applications, first_win);
    }

    #[test]
    fn impossible_constraint_is_infeasible() {
        let scenario = compiled(Domain::Dnn);
        let err = scenario
            .optimize(
                base(),
                &Objective::MinTotal(OptPlatform::Fpga),
                &[knob(SweepAxis::Applications, 1.0, 20.0)],
                &[Constraint::MaxTotalKg {
                    platform: OptPlatform::Fpga,
                    limit_kg: 1e-6,
                }],
                1e-6,
                10_000,
                1,
            )
            .unwrap_err();
        assert!(matches!(err, GreenFpgaError::Infeasible { .. }), "{err}");
        // A single DNN application loses to the ASIC at every lifetime, so
        // no vertex (and therefore no point) of this box lets the FPGA win.
        let err = scenario
            .optimize(
                base(),
                &Objective::MinRatio,
                &[
                    knob(SweepAxis::Applications, 1.0, 1.0),
                    knob(SweepAxis::LifetimeYears, 0.5, 4.0),
                ],
                &[Constraint::FpgaWins],
                1e-6,
                10_000,
                1,
            )
            .unwrap_err();
        assert!(
            matches!(&err, GreenFpgaError::Infeasible { reason } if reason.contains("vertex")),
            "{err}"
        );
    }

    #[test]
    fn search_is_thread_count_invariant() {
        // The FPGA-win constraint binds: the unconstrained argmin (one
        // application) is an ASIC win, so only the search can answer.
        let scenario = compiled(Domain::Dnn);
        let search = [
            knob(SweepAxis::Applications, 1.0, 20.0),
            knob(SweepAxis::LifetimeYears, 0.25, 5.0),
        ];
        let solve = |constraints: &[Constraint], threads: usize| {
            scenario
                .optimize(
                    base(),
                    &Objective::MinTotal(OptPlatform::Fpga),
                    &search,
                    constraints,
                    1e-6,
                    10_000,
                    threads,
                )
                .unwrap()
        };
        let free = solve(&[], 1);
        assert_eq!(free.comparison.winner(), PlatformKind::Asic);
        let solve = |threads| solve(&[Constraint::FpgaWins], threads);
        let one = solve(1);
        assert_eq!(one.solver, SolverKind::Search);
        assert_eq!(one.comparison.winner(), PlatformKind::Fpga);
        for threads in [2, 8] {
            let other = solve(threads);
            assert_eq!(one.point, other.point, "threads {threads}");
            assert_eq!(
                one.objective.to_bits(),
                other.objective.to_bits(),
                "threads {threads}"
            );
            assert_eq!(one.evaluations, other.evaluations, "threads {threads}");
        }
    }

    #[test]
    fn validation_rejects_malformed_searches() {
        let scenario = compiled(Domain::Dnn);
        let minimize = Objective::MinTotal(OptPlatform::Fpga);
        for (search, what) in [
            (vec![], "empty"),
            (
                vec![
                    knob(SweepAxis::Applications, 1.0, 2.0),
                    knob(SweepAxis::Applications, 3.0, 4.0),
                ],
                "duplicate axis",
            ),
            (vec![knob(SweepAxis::Applications, 5.0, 2.0)], "inverted"),
            (vec![knob(SweepAxis::LifetimeYears, -1.0, 2.0)], "negative"),
            (vec![knob(SweepAxis::Applications, 1.2, 1.8)], "no lattice"),
        ] {
            let err = scenario
                .optimize(base(), &minimize, &search, &[], 1e-6, 10_000, 1)
                .unwrap_err();
            assert!(
                matches!(err, GreenFpgaError::InvalidApplication { .. }),
                "{what}: {err}"
            );
        }
        let err = scenario
            .optimize(
                base(),
                &minimize,
                &[knob(SweepAxis::Applications, 1.0, 2.0)],
                &[],
                0.0,
                10_000,
                1,
            )
            .unwrap_err();
        assert!(
            matches!(err, GreenFpgaError::InvalidApplication { .. }),
            "{err}"
        );
    }

    #[test]
    fn integer_lattice_deduplicates() {
        let bound = Bound {
            axis: SweepAxis::Applications,
            lo: 1.0,
            hi: 4.0,
            integer: true,
        };
        assert_eq!(lattice(&bound, 17), vec![1.0, 2.0, 3.0, 4.0]);
        let pinned = Bound {
            axis: SweepAxis::Applications,
            lo: 3.0,
            hi: 3.0,
            integer: true,
        };
        assert_eq!(lattice(&pinned, 17), vec![3.0]);
    }
}
