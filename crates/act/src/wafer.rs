//! Wafer geometry: dies per wafer and edge losses.

use gf_units::Area;

/// A silicon wafer, characterised by its diameter and edge exclusion.
///
/// Die-per-wafer counts use the standard first-order formula
/// `DPW = π·(d/2)²/A − π·d/√(2·A)` which accounts for the partial dies lost
/// at the wafer edge.
///
/// # Examples
///
/// ```
/// use gf_act::Wafer;
/// use gf_units::Area;
///
/// let wafer = Wafer::standard_300mm();
/// let dies = wafer.dies_per_wafer(Area::from_mm2(100.0));
/// assert!(dies > 500 && dies < 700);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wafer {
    /// Wafer diameter in millimetres.
    pub diameter_mm: f64,
    /// Edge exclusion ring in millimetres (unusable outer ring).
    pub edge_exclusion_mm: f64,
}

impl Wafer {
    /// Standard 300 mm production wafer with a 3 mm edge exclusion.
    pub fn standard_300mm() -> Self {
        Wafer {
            diameter_mm: 300.0,
            edge_exclusion_mm: 3.0,
        }
    }

    /// Usable wafer diameter after edge exclusion, in millimetres.
    pub fn usable_diameter_mm(&self) -> f64 {
        (self.diameter_mm - 2.0 * self.edge_exclusion_mm).max(0.0)
    }

    /// Number of whole dies of the given area that fit on the wafer,
    /// using the first-order die-per-wafer formula.
    ///
    /// Returns 0 when the die is larger than the usable wafer area.
    pub fn dies_per_wafer(&self, die: Area) -> u64 {
        let a = die.as_mm2();
        if a <= 0.0 {
            return 0;
        }
        let d = self.usable_diameter_mm();
        let gross = std::f64::consts::PI * (d / 2.0) * (d / 2.0) / a
            - std::f64::consts::PI * d / (2.0 * a).sqrt();
        if gross <= 0.0 {
            0
        } else {
            gross.floor() as u64
        }
    }
}

impl Default for Wafer {
    fn default() -> Self {
        Wafer::standard_300mm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usable_diameter_subtracts_edge() {
        let w = Wafer::standard_300mm();
        assert!((w.usable_diameter_mm() - 294.0).abs() < 1e-12);
        let degenerate = Wafer {
            diameter_mm: 4.0,
            edge_exclusion_mm: 3.0,
        };
        assert_eq!(degenerate.usable_diameter_mm(), 0.0);
    }

    #[test]
    fn dies_per_wafer_decreases_with_die_area() {
        let w = Wafer::standard_300mm();
        let small = w.dies_per_wafer(Area::from_mm2(50.0));
        let medium = w.dies_per_wafer(Area::from_mm2(340.0));
        let large = w.dies_per_wafer(Area::from_mm2(800.0));
        assert!(small > medium);
        assert!(medium > large);
        assert!(large > 0);
    }

    #[test]
    fn dies_per_wafer_handles_degenerate_inputs() {
        let w = Wafer::standard_300mm();
        assert_eq!(w.dies_per_wafer(Area::ZERO), 0);
        assert_eq!(w.dies_per_wafer(Area::from_mm2(1.0e6)), 0);
    }

    #[test]
    fn smaller_wafer_holds_fewer_dies() {
        let die = Area::from_mm2(100.0);
        let standard_200mm = Wafer {
            diameter_mm: 200.0,
            edge_exclusion_mm: 3.0,
        };
        assert!(standard_200mm.dies_per_wafer(die) < Wafer::standard_300mm().dies_per_wafer(die));
    }

    #[test]
    fn default_is_300mm() {
        assert_eq!(Wafer::default(), Wafer::standard_300mm());
    }
}
