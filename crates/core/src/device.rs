//! Chip, FPGA and ASIC descriptions.

use gf_act::TechnologyNode;
use gf_units::{Area, GateCount, Mass, Power, TimeSpan};

use crate::GreenFpgaError;

/// Physical description of a silicon device (either an ASIC or an FPGA).
///
/// # Examples
///
/// ```
/// use greenfpga::ChipSpec;
/// use greenfpga::act::TechnologyNode;
/// use gf_units::{Area, Power};
///
/// // IndustryFPGA1 of the paper (Agilex-7-class).
/// let chip = ChipSpec::new("IndustryFPGA1", Area::from_mm2(380.0), Power::from_watts(160.0),
///     TechnologyNode::N14)?;
/// assert!(chip.gates().get() > 1_000_000_000);
/// # Ok::<(), greenfpga::GreenFpgaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    name: String,
    area: Area,
    tdp: Power,
    node: TechnologyNode,
    gates: GateCount,
    packaged_mass: Mass,
}

impl ChipSpec {
    /// Grams of packaged mass per mm² of die — a lidded flip-chip package
    /// plus substrate weighs roughly an order of magnitude more than the die.
    const PACKAGED_GRAMS_PER_MM2: f64 = 0.12;

    /// Creates a chip description.
    ///
    /// The equivalent gate count defaults to the node's logic density times
    /// the die area, and the packaged mass to a package-proportional
    /// estimate.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidApplication`] when the area or TDP
    /// is not positive and finite.
    pub fn new(
        name: impl Into<String>,
        area: Area,
        tdp: Power,
        node: TechnologyNode,
    ) -> Result<Self, GreenFpgaError> {
        if area.as_mm2() <= 0.0 || !area.is_finite() {
            return Err(GreenFpgaError::InvalidApplication {
                field: "area",
                reason: format!("die area must be positive and finite, got {area}"),
            });
        }
        if tdp.as_watts() <= 0.0 || !tdp.is_finite() {
            return Err(GreenFpgaError::InvalidApplication {
                field: "tdp",
                reason: format!("TDP must be positive and finite, got {tdp}"),
            });
        }
        let gates = GateCount::new(node.parameters().gates_for_area(area.as_mm2()).round() as u64);
        let packaged_mass = Mass::from_grams(area.as_mm2() * Self::PACKAGED_GRAMS_PER_MM2 + 10.0);
        Ok(ChipSpec {
            name: name.into(),
            area,
            tdp,
            node,
            gates,
            packaged_mass,
        })
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Die area.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Thermal design power.
    pub fn tdp(&self) -> Power {
        self.tdp
    }

    /// Fabrication node.
    pub fn node(&self) -> TechnologyNode {
        self.node
    }

    /// Equivalent logic gates on the die.
    pub fn gates(&self) -> GateCount {
        self.gates
    }

    /// Mass of the packaged part (die + package), used by the EOL model.
    pub fn packaged_mass(&self) -> Mass {
        self.packaged_mass
    }
}

/// An FPGA product: a [`ChipSpec`] plus its usable logic capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaSpec {
    chip: ChipSpec,
    capacity: GateCount,
}

impl FpgaSpec {
    /// Fraction of a fabric's raw equivalent gates that is usable by
    /// application logic (routing, configuration and hard blocks take the
    /// rest).
    const USABLE_CAPACITY_FRACTION: f64 = 0.7;

    /// Time to configure one deployed device with a new bitstream: one
    /// minute for every FPGA (Table 1 has no knob for it).
    pub const CONFIGURATION_TIME: TimeSpan = TimeSpan::from_seconds(60.0);

    /// Creates an FPGA description from its chip; capacity defaults to 70%
    /// of the die's equivalent gates.
    pub fn new(chip: ChipSpec) -> Self {
        let capacity = GateCount::new(
            (chip.gates().get() as f64 * Self::USABLE_CAPACITY_FRACTION).round() as u64,
        );
        FpgaSpec { chip, capacity }
    }

    /// Overrides the usable logic capacity.
    pub fn with_capacity(mut self, capacity: GateCount) -> Self {
        self.capacity = capacity;
        self
    }

    /// The underlying chip.
    pub fn chip(&self) -> &ChipSpec {
        &self.chip
    }

    /// Usable logic capacity in equivalent gates.
    pub fn capacity(&self) -> GateCount {
        self.capacity
    }

    /// Number of FPGAs of this type needed to host an application of
    /// `application_gates` equivalent gates (the paper's `N_FPGA`).
    pub fn fpgas_for_application(&self, application_gates: GateCount) -> u64 {
        application_gates.fpgas_required(self.capacity).max(1)
    }
}

/// An ASIC product: a [`ChipSpec`] that serves exactly one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AsicSpec {
    chip: ChipSpec,
}

impl AsicSpec {
    /// Creates an ASIC description.
    pub fn new(chip: ChipSpec) -> Self {
        AsicSpec { chip }
    }

    /// The underlying chip.
    pub fn chip(&self) -> &ChipSpec {
        &self.chip
    }
}

impl From<ChipSpec> for AsicSpec {
    fn from(chip: ChipSpec) -> Self {
        AsicSpec::new(chip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> ChipSpec {
        ChipSpec::new(
            "test-fpga",
            Area::from_mm2(380.0),
            Power::from_watts(160.0),
            TechnologyNode::N14,
        )
        .unwrap()
    }

    #[test]
    fn gates_default_from_node_density() {
        let c = chip();
        let expected = TechnologyNode::N14.parameters().gates_for_area(380.0);
        assert_eq!(c.gates().get(), expected.round() as u64);
    }

    #[test]
    fn packaged_mass_scales_with_area() {
        let small = ChipSpec::new(
            "s",
            Area::from_mm2(50.0),
            Power::from_watts(1.0),
            TechnologyNode::N10,
        )
        .unwrap();
        let large = ChipSpec::new(
            "l",
            Area::from_mm2(600.0),
            Power::from_watts(1.0),
            TechnologyNode::N10,
        )
        .unwrap();
        assert!(large.packaged_mass() > small.packaged_mass());
        assert!(small.packaged_mass().as_grams() > 10.0);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(ChipSpec::new(
            "bad",
            Area::ZERO,
            Power::from_watts(1.0),
            TechnologyNode::N10
        )
        .is_err());
        assert!(ChipSpec::new(
            "bad",
            Area::from_mm2(10.0),
            Power::ZERO,
            TechnologyNode::N10
        )
        .is_err());
        assert!(ChipSpec::new(
            "bad",
            Area::from_mm2(f64::NAN),
            Power::from_watts(1.0),
            TechnologyNode::N10
        )
        .is_err());
    }

    #[test]
    fn fpga_capacity_defaults_to_seventy_percent() {
        let fpga = FpgaSpec::new(chip());
        let expected = (chip().gates().get() as f64 * 0.7).round() as u64;
        assert_eq!(fpga.capacity().get(), expected);
        assert!((FpgaSpec::CONFIGURATION_TIME.as_seconds() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn fpgas_for_application_uses_ceiling_and_at_least_one() {
        let fpga = FpgaSpec::new(chip()).with_capacity(GateCount::new(1000));
        assert_eq!(fpga.fpgas_for_application(GateCount::new(1)), 1);
        assert_eq!(fpga.fpgas_for_application(GateCount::new(1000)), 1);
        assert_eq!(fpga.fpgas_for_application(GateCount::new(1001)), 2);
        assert_eq!(fpga.fpgas_for_application(GateCount::new(5500)), 6);
        // Even an "empty" application occupies one FPGA once deployed.
        assert_eq!(fpga.fpgas_for_application(GateCount::ZERO), 1);
    }

    #[test]
    fn asic_wraps_chip() {
        let asic: AsicSpec = chip().into();
        assert_eq!(asic.chip().name(), "test-fpga");
        assert_eq!(asic.chip().node(), TechnologyNode::N14);
        assert_eq!(asic.chip().area(), Area::from_mm2(380.0));
        assert_eq!(asic.chip().tdp(), Power::from_watts(160.0));
    }

    #[test]
    fn builders_preserve_chip() {
        let fpga = FpgaSpec::new(chip()).with_capacity(GateCount::from_millions(900.0));
        assert_eq!(fpga.chip().name(), "test-fpga");
        assert_eq!(fpga.capacity(), GateCount::from_millions(900.0));
    }
}
