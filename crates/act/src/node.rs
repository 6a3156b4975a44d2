//! Technology-node database for the manufacturing model.
//!
//! The values embedded here are calibrated to the ranges published with the
//! ACT model (carbon per processed cm² of roughly 0.8–3 kg CO₂e from 28 nm
//! down to leading-edge EUV nodes) and the imec sustainable-semiconductor
//! white paper. They are *representative*, not foundry-exact — the paper's
//! own validation section notes that exact values are proprietary. Every
//! parameter can be overridden through [`NodeParameters`].

use std::fmt;

/// Fabrication process node.
///
/// The paper's testcases span 14 nm, 12 nm, 10 nm and 7 nm (Table 3), with
/// 10 nm used for the iso-performance domain comparison. A wider set of
/// nodes is modeled so that design-space exploration around the paper's
/// operating points is possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TechnologyNode {
    /// 28 nm planar node.
    N28,
    /// 20 nm planar node.
    N20,
    /// 16 nm FinFET node.
    N16,
    /// 14 nm FinFET node (IndustryFPGA1 / Stratix-class).
    N14,
    /// 12 nm FinFET node (IndustryASIC1 / Antoum-class).
    N12,
    /// 10 nm FinFET node (iso-performance testcases, IndustryFPGA2).
    N10,
    /// 8 nm node.
    N8,
    /// 7 nm node (IndustryASIC2 / TPU-class).
    N7,
    /// 5 nm EUV node.
    N5,
    /// 3 nm EUV node.
    N3,
}

impl TechnologyNode {
    /// All modeled nodes, from oldest to newest.
    pub const ALL: [TechnologyNode; 10] = [
        TechnologyNode::N28,
        TechnologyNode::N20,
        TechnologyNode::N16,
        TechnologyNode::N14,
        TechnologyNode::N12,
        TechnologyNode::N10,
        TechnologyNode::N8,
        TechnologyNode::N7,
        TechnologyNode::N5,
        TechnologyNode::N3,
    ];

    /// Feature size in nanometres (the node's marketing designation).
    pub fn nanometers(self) -> u32 {
        match self {
            TechnologyNode::N28 => 28,
            TechnologyNode::N20 => 20,
            TechnologyNode::N16 => 16,
            TechnologyNode::N14 => 14,
            TechnologyNode::N12 => 12,
            TechnologyNode::N10 => 10,
            TechnologyNode::N8 => 8,
            TechnologyNode::N7 => 7,
            TechnologyNode::N5 => 5,
            TechnologyNode::N3 => 3,
        }
    }

    /// Returns the node whose designation matches `nm`, if it is modeled.
    pub fn from_nanometers(nm: u32) -> Option<TechnologyNode> {
        TechnologyNode::ALL
            .into_iter()
            .find(|n| n.nanometers() == nm)
    }

    /// Default fab parameters for this node.
    ///
    /// Energy per area (EPA, kWh/cm²) grows toward newer nodes as the number
    /// of masks and EUV exposures grows; direct greenhouse-gas emissions per
    /// area (GPA) and material footprint per area (MPA) grow more slowly.
    /// Defect density improves as a node matures; the values here represent
    /// a high-volume-manufacturing state. Gate density follows a roughly
    /// 1.8× scaling per full node.
    pub fn parameters(self) -> NodeParameters {
        // (epa kWh/cm2, gpa kg/cm2, mpa kg/cm2, defect density #/cm2, Mgates/mm2)
        let (epa, gpa, mpa, d0, gd) = match self {
            TechnologyNode::N28 => (0.90, 0.120, 0.390, 0.060, 3.0),
            TechnologyNode::N20 => (1.05, 0.130, 0.400, 0.070, 4.5),
            TechnologyNode::N16 => (1.20, 0.145, 0.410, 0.080, 6.5),
            TechnologyNode::N14 => (1.30, 0.150, 0.420, 0.085, 7.5),
            TechnologyNode::N12 => (1.45, 0.155, 0.430, 0.090, 9.0),
            TechnologyNode::N10 => (1.60, 0.165, 0.440, 0.095, 11.0),
            TechnologyNode::N8 => (1.80, 0.175, 0.450, 0.100, 13.5),
            TechnologyNode::N7 => (2.00, 0.185, 0.460, 0.105, 16.0),
            TechnologyNode::N5 => (2.55, 0.200, 0.480, 0.120, 25.0),
            TechnologyNode::N3 => (3.10, 0.220, 0.500, 0.140, 38.0),
        };
        NodeParameters {
            node: self,
            energy_per_cm2_kwh: epa,
            gas_per_cm2_kg: gpa,
            material_per_cm2_kg: mpa,
            recycled_material_per_cm2_kg: mpa * 0.45,
            defect_density_per_cm2: d0,
            gate_density_mgates_per_mm2: gd,
        }
    }
}

impl fmt::Display for TechnologyNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nm", self.nanometers())
    }
}

/// Per-node fab footprint parameters used by
/// [`ManufacturingModel`](crate::ManufacturingModel).
///
/// All per-area figures are per cm² of *processed wafer area*, before yield
/// losses are applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeParameters {
    /// The node these parameters describe.
    pub node: TechnologyNode,
    /// Fab electrical energy per processed cm² (kWh/cm²) — the "EPA" term.
    pub energy_per_cm2_kwh: f64,
    /// Direct greenhouse-gas emissions per cm² (kg CO₂e/cm²) — the "GPA"
    /// term: process gases (PFCs, N₂O, …) net of abatement.
    pub gas_per_cm2_kg: f64,
    /// Carbon footprint of sourcing virgin raw materials per cm²
    /// (kg CO₂e/cm²) — the "MPA" term for newly extracted materials.
    pub material_per_cm2_kg: f64,
    /// Carbon footprint of sourcing *recycled* materials per cm²
    /// (kg CO₂e/cm²); used by the Eq. (5) blend.
    pub recycled_material_per_cm2_kg: f64,
    /// Defect density (defects per cm²) feeding the yield model.
    pub defect_density_per_cm2: f64,
    /// Logic density in millions of equivalent gates per mm²; used to relate
    /// gate counts to silicon area.
    pub gate_density_mgates_per_mm2: f64,
}

impl NodeParameters {
    /// Equivalent-gate capacity of a die of `area_mm2` square millimetres at
    /// this node's logic density.
    pub fn gates_for_area(&self, area_mm2: f64) -> f64 {
        area_mm2 * self.gate_density_mgates_per_mm2 * 1.0e6
    }

    /// Silicon area (mm²) needed to hold `gates` equivalent logic gates at
    /// this node's logic density.
    pub fn area_for_gates(&self, gates: f64) -> f64 {
        gates / (self.gate_density_mgates_per_mm2 * 1.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nodes_have_positive_parameters() {
        for node in TechnologyNode::ALL {
            let p = node.parameters();
            assert!(p.energy_per_cm2_kwh > 0.0, "{node}");
            assert!(p.gas_per_cm2_kg > 0.0, "{node}");
            assert!(p.material_per_cm2_kg > 0.0, "{node}");
            assert!(p.recycled_material_per_cm2_kg > 0.0, "{node}");
            assert!(
                p.recycled_material_per_cm2_kg < p.material_per_cm2_kg,
                "{node}"
            );
            assert!(p.defect_density_per_cm2 > 0.0, "{node}");
            assert!(p.gate_density_mgates_per_mm2 > 0.0, "{node}");
        }
    }

    #[test]
    fn energy_per_area_increases_toward_newer_nodes() {
        let mut last = 0.0;
        for node in TechnologyNode::ALL {
            let epa = node.parameters().energy_per_cm2_kwh;
            assert!(epa > last, "EPA must be monotone across nodes ({node})");
            last = epa;
        }
    }

    #[test]
    fn gate_density_increases_toward_newer_nodes() {
        let mut last = 0.0;
        for node in TechnologyNode::ALL {
            let gd = node.parameters().gate_density_mgates_per_mm2;
            assert!(
                gd > last,
                "gate density must be monotone across nodes ({node})"
            );
            last = gd;
        }
    }

    #[test]
    fn from_nanometers_round_trips() {
        for node in TechnologyNode::ALL {
            assert_eq!(
                TechnologyNode::from_nanometers(node.nanometers()),
                Some(node)
            );
        }
        assert_eq!(TechnologyNode::from_nanometers(65), None);
    }

    #[test]
    fn gates_area_round_trip() {
        let p = TechnologyNode::N10.parameters();
        let area = 380.0;
        let gates = p.gates_for_area(area);
        assert!((p.area_for_gates(gates) - area).abs() < 1e-6);
        // 10 nm at 11 Mgates/mm2: a 380 mm2 FPGA-sized die holds ~4.2 Bgates.
        assert!(gates > 1.0e9);
    }

    #[test]
    fn display_formats_designation() {
        assert_eq!(TechnologyNode::N7.to_string(), "7 nm");
        assert_eq!(TechnologyNode::N28.to_string(), "28 nm");
    }
}
