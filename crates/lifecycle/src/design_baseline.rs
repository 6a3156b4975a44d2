//! Prior-art gate-count-based design-CFP baseline.
//!
//! ECO-CHIP (the paper's reference [5]) models the design-phase footprint
//! from the number of logic gates alone: the EDA flow is assumed to burn a
//! fixed amount of CPU-server time per gate, and the design CFP is that
//! compute's energy times the grid's carbon intensity. The GreenFPGA paper
//! argues this "grossly underestimates" the design CFP because it leaves out
//! the engineering organisation around the flow (offices, laptops,
//! verification farms, test and post-silicon validation), and replaces it
//! with the sustainability-report-based model of [`crate::DesignHouse`].
//!
//! The baseline is reproduced here so the two models can be compared head to
//! head (see the `ablation_design_model` experiment binary).

use gf_units::{Carbon, CarbonIntensity, Energy, GateCount, Power};

/// ECO-CHIP-style design-CFP model: CPU-hours proportional to gate count.
///
/// # Examples
///
/// ```
/// use gf_lifecycle::GateBasedDesignModel;
/// use gf_units::GateCount;
///
/// let baseline = GateBasedDesignModel::ecochip_defaults();
/// let cfp = baseline.design_carbon(GateCount::from_millions(500.0));
/// assert!(cfp.as_tons() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateBasedDesignModel {
    /// Gates synthesised/verified per CPU-server hour of EDA work.
    pub gates_per_cpu_hour: f64,
    /// Power of one EDA compute server.
    pub cpu_power: Power,
    /// Carbon intensity of the grid powering the EDA compute.
    pub grid: CarbonIntensity,
}

impl GateBasedDesignModel {
    /// Defaults in the range the prior art used: 50 K gates of flow progress
    /// per CPU-hour on 400 W servers at a 475 g CO₂/kWh world-average grid.
    pub fn ecochip_defaults() -> Self {
        GateBasedDesignModel {
            gates_per_cpu_hour: 50_000.0,
            cpu_power: Power::from_watts(400.0),
            grid: CarbonIntensity::from_grams_per_kwh(475.0),
        }
    }

    /// Total EDA compute energy needed to design a chip of the given size.
    pub fn design_energy(&self, gates: GateCount) -> Energy {
        if self.gates_per_cpu_hour <= 0.0 {
            return Energy::ZERO;
        }
        let cpu_hours = gates.get() as f64 / self.gates_per_cpu_hour;
        Energy::from_kwh(self.cpu_power.as_kilowatts() * cpu_hours)
    }

    /// Design-phase footprint of a chip of the given size.
    pub fn design_carbon(&self, gates: GateCount) -> Carbon {
        self.design_energy(gates) * self.grid
    }
}

impl Default for GateBasedDesignModel {
    fn default() -> Self {
        GateBasedDesignModel::ecochip_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignHouse, DesignProject};
    use gf_units::TimeSpan;

    #[test]
    fn design_carbon_is_linear_in_gates() {
        let model = GateBasedDesignModel::ecochip_defaults();
        let small = model.design_carbon(GateCount::from_millions(100.0));
        let large = model.design_carbon(GateCount::from_millions(400.0));
        assert!((large.as_kg() - 4.0 * small.as_kg()).abs() < 1e-6);
    }

    #[test]
    fn hand_calculation() {
        let model = GateBasedDesignModel {
            gates_per_cpu_hour: 1_000.0,
            cpu_power: Power::from_kilowatts(1.0),
            grid: CarbonIntensity::from_kg_per_kwh(0.5),
        };
        // 1M gates → 1000 CPU-hours → 1000 kWh → 500 kg.
        let c = model.design_carbon(GateCount::from_millions(1.0));
        assert!((c.as_kg() - 500.0).abs() < 1e-9);
        let e = model.design_energy(GateCount::from_millions(1.0));
        assert!((e.as_kwh() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_throughput_gives_zero() {
        let model = GateBasedDesignModel {
            gates_per_cpu_hour: 0.0,
            ..GateBasedDesignModel::ecochip_defaults()
        };
        assert_eq!(
            model.design_carbon(GateCount::from_millions(10.0)),
            Carbon::ZERO
        );
    }

    #[test]
    fn baseline_underestimates_the_report_based_model() {
        // The paper's central claim about prior art: for a realistically
        // staffed product the gate-based model reports far less design
        // carbon than the sustainability-report-based model.
        let gates = GateCount::from_millions(1_000.0);
        let baseline = GateBasedDesignModel::ecochip_defaults().design_carbon(gates);
        let house = DesignHouse::default_fabless();
        let project = DesignProject::new(gates, TimeSpan::from_years(2.0), 1_000).unwrap();
        let report_based = house.design_carbon(&project);
        assert!(
            report_based.as_kg() > 3.0 * baseline.as_kg(),
            "report-based {report_based} should dwarf gate-based {baseline}"
        );
    }

    #[test]
    fn default_matches_named_constructor() {
        assert_eq!(
            GateBasedDesignModel::default(),
            GateBasedDesignModel::ecochip_defaults()
        );
    }
}
