//! Tunable model knobs with their Table 1 ranges.
//!
//! The paper stresses that GreenFPGA is "configurable with adjustable knobs
//! for each input and assumption". This module gives each major knob a
//! name, its published (or calibrated) range, and a way to apply a value to
//! an [`EstimatorParams`], which is what the sensitivity and uncertainty
//! analyses iterate over.

use std::fmt;

use gf_lifecycle::{AppDevModel, DesignHouse};
use gf_units::{CarbonIntensity, Energy, Fraction, TimeSpan};

use crate::{DeploymentParams, EstimatorParams};

/// An inclusive range of plausible values for one knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnobRange {
    /// Lower end of the range.
    pub low: f64,
    /// Upper end of the range.
    pub high: f64,
}

impl KnobRange {
    /// Creates a range. `low` and `high` may be equal (a fixed knob).
    pub fn new(low: f64, high: f64) -> Self {
        KnobRange {
            low: low.min(high),
            high: high.max(low),
        }
    }

    /// Midpoint of the range.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.low + self.high)
    }

    /// Linear interpolation across the range; `t` in `[0, 1]`.
    pub fn lerp(&self, t: f64) -> f64 {
        self.low + (self.high - self.low) * t.clamp(0.0, 1.0)
    }

    /// Width of the range.
    pub fn width(&self) -> f64 {
        self.high - self.low
    }
}

/// A tunable model parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Knob {
    /// Deployment duty cycle (fraction of time at TDP).
    DutyCycle,
    /// Carbon intensity of the deployment grid (`C_src,use`, g CO₂/kWh).
    UsageGridIntensity,
    /// Carbon intensity of the fab's electricity (g CO₂/kWh).
    FabGridIntensity,
    /// Recycled-material fraction `ρ` in manufacturing (Eq. 5).
    RecycledMaterialFraction,
    /// Recycled chip fraction `δ` at end of life (Eq. 6).
    EolRecycledFraction,
    /// Design-house annual energy `E_des` (GWh).
    DesignHouseEnergy,
    /// Design-house grid intensity `C_src,des` (g CO₂/kWh).
    DesignGridIntensity,
    /// Per-application front-end development time `T_app,FE` (months).
    FrontendMonths,
    /// Per-application back-end development time `T_app,BE` (months).
    BackendMonths,
    /// FPGA chip lifetime (years).
    FpgaChipLifetimeYears,
}

impl Knob {
    /// All knobs, in Table 1 order.
    pub const ALL: [Knob; 10] = [
        Knob::DutyCycle,
        Knob::UsageGridIntensity,
        Knob::FabGridIntensity,
        Knob::RecycledMaterialFraction,
        Knob::EolRecycledFraction,
        Knob::DesignHouseEnergy,
        Knob::DesignGridIntensity,
        Knob::FrontendMonths,
        Knob::BackendMonths,
        Knob::FpgaChipLifetimeYears,
    ];

    /// The knob's plausible range (Table 1 where published, calibrated
    /// bounds otherwise).
    pub fn range(self) -> KnobRange {
        match self {
            Knob::DutyCycle => KnobRange::new(0.05, 0.6),
            Knob::UsageGridIntensity => KnobRange::new(30.0, 700.0),
            Knob::FabGridIntensity => KnobRange::new(30.0, 700.0),
            Knob::RecycledMaterialFraction => KnobRange::new(0.0, 1.0),
            Knob::EolRecycledFraction => KnobRange::new(0.0, 1.0),
            Knob::DesignHouseEnergy => KnobRange::new(2.0, 7.3),
            Knob::DesignGridIntensity => KnobRange::new(30.0, 700.0),
            Knob::FrontendMonths => KnobRange::new(1.5, 2.5),
            Knob::BackendMonths => KnobRange::new(0.5, 1.5),
            Knob::FpgaChipLifetimeYears => KnobRange::new(12.0, 15.0),
        }
    }

    /// The knob's stable machine-readable identifier, used as the JSON key
    /// in API requests and `--json` CLI output.
    pub fn id(self) -> &'static str {
        match self {
            Knob::DutyCycle => "duty_cycle",
            Knob::UsageGridIntensity => "usage_grid_intensity",
            Knob::FabGridIntensity => "fab_grid_intensity",
            Knob::RecycledMaterialFraction => "recycled_material_fraction",
            Knob::EolRecycledFraction => "eol_recycled_fraction",
            Knob::DesignHouseEnergy => "design_house_energy",
            Knob::DesignGridIntensity => "design_grid_intensity",
            Knob::FrontendMonths => "frontend_months",
            Knob::BackendMonths => "backend_months",
            Knob::FpgaChipLifetimeYears => "fpga_chip_lifetime_years",
        }
    }

    /// Resolves a machine-readable identifier back to its knob.
    pub fn parse_id(id: &str) -> Option<Knob> {
        Knob::ALL.into_iter().find(|knob| knob.id() == id)
    }

    /// The knob's unit, for reporting.
    pub fn unit(self) -> &'static str {
        match self {
            Knob::DutyCycle | Knob::RecycledMaterialFraction | Knob::EolRecycledFraction => {
                "fraction"
            }
            Knob::UsageGridIntensity | Knob::FabGridIntensity | Knob::DesignGridIntensity => {
                "g CO2/kWh"
            }
            Knob::DesignHouseEnergy => "GWh",
            Knob::FrontendMonths | Knob::BackendMonths => "months",
            Knob::FpgaChipLifetimeYears => "years",
        }
    }

    /// Applies a value of this knob to a copy of `params`.
    ///
    /// Values are clamped to the knob's range before being applied, so the
    /// result is always a valid parameter set. Prefer
    /// [`Knob::apply_mut`] when retuning many knobs on the same parameter
    /// set — a Monte-Carlo trial that applies every knob needs one clone
    /// total instead of one per knob.
    pub fn apply(self, params: &EstimatorParams, value: f64) -> EstimatorParams {
        let mut params = params.clone();
        self.apply_mut(&mut params, value);
        params
    }

    /// Applies a value of this knob to `params` in place.
    ///
    /// Values are clamped to the knob's range before being applied, so the
    /// result is always a valid parameter set.
    pub fn apply_mut(self, params: &mut EstimatorParams, value: f64) {
        let range = self.range();
        let value = value.clamp(range.low, range.high);
        match self {
            Knob::DutyCycle => {
                let usage = params.deployment().usage_grid;
                params.set_deployment(DeploymentParams::new(Fraction::clamped(value), usage));
            }
            Knob::UsageGridIntensity => {
                let duty = params.deployment().duty_cycle;
                params.set_deployment(DeploymentParams::new(
                    duty,
                    CarbonIntensity::from_grams_per_kwh(value),
                ));
            }
            Knob::FabGridIntensity => {
                params.set_fab_grid(CarbonIntensity::from_grams_per_kwh(value));
            }
            Knob::RecycledMaterialFraction => {
                params.set_recycled_material_fraction(Fraction::clamped(value));
            }
            Knob::EolRecycledFraction => {
                params.set_eol_recycled_fraction(Fraction::clamped(value));
            }
            Knob::DesignHouseEnergy => {
                let house = rebuild_design_house(params.design_house(), Some(value), None);
                params.set_design_house(house);
            }
            Knob::DesignGridIntensity => {
                let house = rebuild_design_house(params.design_house(), None, Some(value));
                params.set_design_house(house);
            }
            Knob::FrontendMonths => {
                let appdev = rebuild_appdev(params.appdev(), Some(value), None);
                params.set_appdev(appdev);
            }
            Knob::BackendMonths => {
                let appdev = rebuild_appdev(params.appdev(), None, Some(value));
                params.set_appdev(appdev);
            }
            Knob::FpgaChipLifetimeYears => {
                params.set_fpga_chip_lifetime(TimeSpan::from_years(value));
            }
        }
    }
}

impl fmt::Display for Knob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Knob::DutyCycle => "duty cycle",
            Knob::UsageGridIntensity => "C_src,use",
            Knob::FabGridIntensity => "fab grid intensity",
            Knob::RecycledMaterialFraction => "rho (recycled materials)",
            Knob::EolRecycledFraction => "delta (EOL recycling)",
            Knob::DesignHouseEnergy => "E_des",
            Knob::DesignGridIntensity => "C_src,des",
            Knob::FrontendMonths => "T_app,FE",
            Knob::BackendMonths => "T_app,BE",
            Knob::FpgaChipLifetimeYears => "FPGA chip lifetime",
        };
        f.write_str(name)
    }
}

fn rebuild_design_house(
    current: &DesignHouse,
    energy_gwh: Option<f64>,
    grid_g_per_kwh: Option<f64>,
) -> DesignHouse {
    let energy = energy_gwh
        .map(Energy::from_gigawatt_hours)
        .unwrap_or_else(|| current.annual_energy());
    let grid = grid_g_per_kwh
        .map(CarbonIntensity::from_grams_per_kwh)
        .unwrap_or_else(|| current.effective_intensity());
    DesignHouse::new(energy, grid, current.total_employees())
        .expect("existing design house has non-zero employees")
}

fn rebuild_appdev(
    current: &AppDevModel,
    frontend_months: Option<f64>,
    backend_months: Option<f64>,
) -> AppDevModel {
    let frontend = frontend_months
        .map(TimeSpan::from_months)
        .unwrap_or_else(|| current.frontend_time());
    let backend = backend_months
        .map(TimeSpan::from_months)
        .unwrap_or_else(|| current.backend_time());
    AppDevModel::default_paper()
        .with_config_time(current.config_time())
        .with_frontend_time(frontend)
        .with_backend_time(backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, Estimator};

    #[test]
    fn ranges_are_well_formed() {
        for knob in Knob::ALL {
            let r = knob.range();
            assert!(r.low <= r.high, "{knob}");
            assert!(r.width() >= 0.0);
            assert!((r.lerp(0.0) - r.low).abs() < 1e-12);
            assert!((r.lerp(1.0) - r.high).abs() < 1e-12);
            assert!((r.midpoint() - r.lerp(0.5)).abs() < 1e-12);
            assert!(!knob.unit().is_empty());
            assert!(!knob.to_string().is_empty());
        }
    }

    #[test]
    fn knob_range_normalizes_inverted_bounds() {
        let r = KnobRange::new(5.0, 1.0);
        assert_eq!((r.low, r.high), (1.0, 5.0));
    }

    #[test]
    fn applying_a_knob_changes_the_estimate_in_the_expected_direction() {
        let base = EstimatorParams::paper_defaults();
        let workload = crate::Workload::uniform(Domain::Dnn, 5, 2.0, 500_000).unwrap();

        // Dirtier usage grid → larger totals.
        let dirty = Knob::UsageGridIntensity.apply(&base, 700.0);
        let clean = Knob::UsageGridIntensity.apply(&base, 30.0);
        let dirty_total = Estimator::new(dirty)
            .compare_domain(&workload)
            .unwrap()
            .fpga
            .total();
        let clean_total = Estimator::new(clean)
            .compare_domain(&workload)
            .unwrap()
            .fpga
            .total();
        assert!(dirty_total > clean_total);

        // More recycling → smaller totals.
        let recycled = Knob::EolRecycledFraction.apply(&base, 1.0);
        let recycled_total = Estimator::new(recycled)
            .compare_domain(&workload)
            .unwrap()
            .fpga
            .total();
        let base_total = Estimator::new(base.clone())
            .compare_domain(&workload)
            .unwrap()
            .fpga
            .total();
        assert!(recycled_total < base_total);
    }

    #[test]
    fn apply_mut_matches_apply() {
        let base = EstimatorParams::paper_defaults();
        for knob in Knob::ALL {
            for t in [0.0, 0.3, 0.5, 1.0] {
                let value = knob.range().lerp(t);
                let cloned = knob.apply(&base, value);
                let mut in_place = base.clone();
                knob.apply_mut(&mut in_place, value);
                assert_eq!(cloned, in_place, "{knob} at {value}");
            }
        }
    }

    #[test]
    fn out_of_range_values_are_clamped() {
        let base = EstimatorParams::paper_defaults();
        let clamped = Knob::DutyCycle.apply(&base, 7.0);
        assert!((clamped.deployment().duty_cycle.value() - 0.6).abs() < 1e-12);
        let clamped = Knob::DutyCycle.apply(&base, -1.0);
        assert!((clamped.deployment().duty_cycle.value() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn every_knob_can_be_applied_at_its_extremes() {
        let base = EstimatorParams::paper_defaults();
        let workload = crate::Workload::uniform(Domain::Crypto, 3, 1.0, 10_000).unwrap();
        for knob in Knob::ALL {
            let r = knob.range();
            for value in [r.low, r.midpoint(), r.high] {
                let params = knob.apply(&base, value);
                let c = Estimator::new(params).compare_domain(&workload).unwrap();
                assert!(c.fpga.total().as_kg() > 0.0, "{knob} at {value}");
                assert!(c.asic.total().as_kg() > 0.0, "{knob} at {value}");
            }
        }
    }

    #[test]
    fn design_knobs_affect_only_the_design_component() {
        let base = EstimatorParams::paper_defaults();
        let workload = crate::Workload::uniform(Domain::Dnn, 3, 2.0, 100_000).unwrap();
        let low = Knob::DesignGridIntensity.apply(&base, 30.0);
        let high = Knob::DesignGridIntensity.apply(&base, 700.0);
        let low_c = Estimator::new(low).compare_domain(&workload).unwrap();
        let high_c = Estimator::new(high).compare_domain(&workload).unwrap();
        assert!(high_c.fpga.design > low_c.fpga.design);
        assert_eq!(high_c.fpga.operation, low_c.fpga.operation);
        assert_eq!(high_c.fpga.manufacturing, low_c.fpga.manufacturing);
    }
}
