//! Design-phase carbon model (Eq. 4 of the paper).
//!
//! GreenFPGA models the design CFP from *design-house sustainability
//! reports* rather than from gate counts alone: the annual electrical energy
//! of a fabless design company, the carbon intensity of its grid, and its
//! headcount give a per-employee-per-year footprint; the number of engineers
//! staffed on the chip, the chip's relative size and the project duration
//! scale that to a per-product design footprint.
//!
//! ```text
//! C_des = C_emp × N_emp,chip × (N_gates / N_gates,avg) × T_proj
//! C_emp = (E_des × C_src,des) / N_emp,total
//! ```

use gf_units::{Carbon, CarbonIntensity, Energy, Fraction, GateCount, TimeSpan};

use crate::LifecycleError;

/// A fabless design house, characterised by its sustainability-report
/// figures.
///
/// Table 1 of the paper gives the ranges used: annual energy 2–7.3 GWh,
/// grid intensity 30–700 g CO₂/kWh, 20K–160K employees, 1–3 year projects.
///
/// # Examples
///
/// ```
/// use gf_lifecycle::DesignHouse;
/// use gf_units::{CarbonIntensity, Energy};
///
/// let house = DesignHouse::new(
///     Energy::from_gigawatt_hours(5.0),
///     CarbonIntensity::from_grams_per_kwh(400.0),
///     40_000,
/// )?;
/// assert!(house.carbon_per_employee_year().as_kg() > 10.0);
/// # Ok::<(), gf_lifecycle::LifecycleError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignHouse {
    annual_energy: Energy,
    grid: CarbonIntensity,
    renewable_share: Fraction,
    total_employees: u64,
    average_chip_gates: GateCount,
}

impl DesignHouse {
    /// Creates a design house from its annual energy use, grid carbon
    /// intensity and total headcount.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError::ZeroCount`] when `total_employees` is zero.
    pub fn new(
        annual_energy: Energy,
        grid: CarbonIntensity,
        total_employees: u64,
    ) -> Result<Self, LifecycleError> {
        if total_employees == 0 {
            return Err(LifecycleError::ZeroCount {
                quantity: "total employees",
            });
        }
        Ok(DesignHouse {
            annual_energy,
            grid,
            renewable_share: Fraction::ZERO,
            total_employees,
            average_chip_gates: GateCount::from_millions(500.0),
        })
    }

    /// A mid-range fabless design house built from the Table 1 ranges:
    /// 5 GWh/year, 365 g CO₂/kWh grid, 30% renewable procurement, 40 000
    /// employees, 500 Mgate average product.
    pub fn default_fabless() -> Self {
        DesignHouse {
            annual_energy: Energy::from_gigawatt_hours(5.0),
            grid: CarbonIntensity::from_grams_per_kwh(365.0),
            renewable_share: Fraction::clamped(0.3),
            total_employees: 40_000,
            average_chip_gates: GateCount::from_millions(500.0),
        }
    }

    /// Sets the fraction of the design house's energy procured from
    /// (near-zero-carbon) renewable sources.
    pub fn with_renewable_share(mut self, share: Fraction) -> Self {
        self.renewable_share = share;
        self
    }

    /// Sets the average product size used to normalise the per-chip scaling
    /// term (`N_gates,des` in the paper).
    pub fn with_average_chip_gates(mut self, gates: GateCount) -> Self {
        self.average_chip_gates = gates;
        self
    }

    /// Annual electrical energy of the design house.
    pub fn annual_energy(&self) -> Energy {
        self.annual_energy
    }

    /// Total company headcount.
    pub fn total_employees(&self) -> u64 {
        self.total_employees
    }

    /// Effective grid intensity after the renewable share is applied
    /// (renewables modeled at 11 g CO₂/kWh, wind-like).
    pub fn effective_intensity(&self) -> CarbonIntensity {
        self.grid.blend(
            CarbonIntensity::from_grams_per_kwh(11.0),
            self.renewable_share.value(),
        )
    }

    /// Company-wide design/test CFP per employee per year (`C_emp`).
    pub fn carbon_per_employee_year(&self) -> Carbon {
        (self.annual_energy * self.effective_intensity()) / self.total_employees as f64
    }

    /// Design CFP of a specific chip project (Eq. 4).
    pub fn design_carbon(&self, project: &DesignProject) -> Carbon {
        let size_scaling = project
            .gates
            .ratio_to(self.average_chip_gates)
            .unwrap_or(1.0);
        self.carbon_per_employee_year()
            * project.engineers as f64
            * size_scaling
            * project.duration.as_years()
    }
}

impl Default for DesignHouse {
    fn default() -> Self {
        DesignHouse::default_fabless()
    }
}

/// A single chip-design project (ASIC or FPGA) within a design house.
///
/// Covers all pre-silicon activities the paper lists — architecture, RTL,
/// verification, synthesis, place and route, analysis, test and post-silicon
/// validation — through the engineer-years staffed on the product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignProject {
    /// Size of the chip in equivalent logic gates (`N_gates`).
    pub gates: GateCount,
    /// Project duration (`T_proj`, typically 1–3 years).
    pub duration: TimeSpan,
    /// Engineers staffed on this product (`N_emp,chip`).
    pub engineers: u64,
}

impl DesignProject {
    /// Creates a design project.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError::NegativeDuration`] for negative durations
    /// and [`LifecycleError::ZeroCount`] when `engineers` is zero.
    pub fn new(
        gates: GateCount,
        duration: TimeSpan,
        engineers: u64,
    ) -> Result<Self, LifecycleError> {
        if duration.is_negative() {
            return Err(LifecycleError::NegativeDuration {
                quantity: "project duration",
                years: duration.as_years(),
            });
        }
        if engineers == 0 {
            return Err(LifecycleError::ZeroCount {
                quantity: "project engineers",
            });
        }
        Ok(DesignProject {
            gates,
            duration,
            engineers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn house() -> DesignHouse {
        DesignHouse::default_fabless()
    }

    fn project() -> DesignProject {
        DesignProject::new(
            GateCount::from_millions(500.0),
            TimeSpan::from_years(2.0),
            300,
        )
        .unwrap()
    }

    #[test]
    fn per_employee_footprint_matches_hand_calculation() {
        let h = DesignHouse::new(
            Energy::from_gigawatt_hours(4.0),
            CarbonIntensity::from_grams_per_kwh(500.0),
            40_000,
        )
        .unwrap();
        // 4 GWh * 0.5 kg/kWh = 2e6 kg; / 40k employees = 50 kg each.
        assert!((h.carbon_per_employee_year().as_kg() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn design_carbon_scales_linearly_with_duration_and_team() {
        let h = house();
        let base = h.design_carbon(&project());
        let double_duration = DesignProject {
            duration: TimeSpan::from_years(4.0),
            ..project()
        };
        let double_team = DesignProject {
            engineers: 600,
            ..project()
        };
        assert!((h.design_carbon(&double_duration).as_kg() - 2.0 * base.as_kg()).abs() < 1e-6);
        assert!((h.design_carbon(&double_team).as_kg() - 2.0 * base.as_kg()).abs() < 1e-6);
    }

    #[test]
    fn design_carbon_scales_with_chip_size() {
        let h = house();
        let small = DesignProject {
            gates: GateCount::from_millions(250.0),
            ..project()
        };
        let large = DesignProject {
            gates: GateCount::from_millions(1000.0),
            ..project()
        };
        assert!(
            (h.design_carbon(&large).as_kg() - 4.0 * h.design_carbon(&small).as_kg()).abs() < 1e-6
        );
    }

    #[test]
    fn renewable_share_reduces_design_carbon() {
        let dirty = house();
        let clean = house().with_renewable_share(Fraction::new(0.9).unwrap());
        assert!(clean.design_carbon(&project()) < dirty.design_carbon(&project()));
    }

    #[test]
    fn zero_average_gates_falls_back_to_unity_scaling() {
        let h = house().with_average_chip_gates(GateCount::ZERO);
        let c = h.design_carbon(&project());
        let expected = h.carbon_per_employee_year() * 300.0 * 2.0;
        assert!((c.as_kg() - expected.as_kg()).abs() < 1e-9);
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(matches!(
            DesignHouse::new(Energy::from_kwh(1.0), CarbonIntensity::ZERO, 0),
            Err(LifecycleError::ZeroCount { .. })
        ));
        assert!(matches!(
            DesignProject::new(GateCount::new(1), TimeSpan::from_years(-1.0), 10),
            Err(LifecycleError::NegativeDuration { .. })
        ));
        assert!(matches!(
            DesignProject::new(GateCount::new(1), TimeSpan::from_years(1.0), 0),
            Err(LifecycleError::ZeroCount { .. })
        ));
    }

    #[test]
    fn table1_extremes_bracket_default() {
        let low = DesignHouse::new(
            Energy::from_gigawatt_hours(2.0),
            CarbonIntensity::from_grams_per_kwh(30.0),
            160_000,
        )
        .unwrap();
        let high = DesignHouse::new(
            Energy::from_gigawatt_hours(7.3),
            CarbonIntensity::from_grams_per_kwh(700.0),
            20_000,
        )
        .unwrap();
        let mid = house();
        let p = project();
        assert!(low.design_carbon(&p) < mid.design_carbon(&p));
        assert!(mid.design_carbon(&p) < high.design_carbon(&p));
    }

    #[test]
    fn accessors_expose_inputs() {
        let h = house();
        assert_eq!(h.total_employees(), 40_000);
        assert!((h.annual_energy().as_gigawatt_hours() - 5.0).abs() < 1e-12);
        assert!(h.effective_intensity().as_grams_per_kwh() < 365.0);
        assert_eq!(DesignHouse::default(), DesignHouse::default_fabless());
    }
}
