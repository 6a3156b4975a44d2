//! Package manufacture and assembly footprint (the paper's `C_package`).
//!
//! GreenFPGA uses the monolithic package model of ECO-CHIP: a fixed
//! packaging/assembly overhead plus a term proportional to the silicon area
//! being packaged. The 2.5D-interposer variant is provided as an extension
//! for chiplet-style what-if studies (it is not used by the paper's
//! experiments but is a natural follow-on from ECO-CHIP).

use gf_units::{Area, Carbon, CarbonPerArea};

/// Package carbon model.
///
/// # Examples
///
/// ```
/// use gf_act::PackagingModel;
/// use gf_units::Area;
///
/// let pkg = PackagingModel::monolithic();
/// let cfp = pkg.carbon_for_die(Area::from_mm2(600.0));
/// assert!(cfp.as_kg() > 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum PackagingModel {
    /// Conventional monolithic flip-chip package: a fixed assembly footprint
    /// plus a substrate term proportional to die area.
    Monolithic {
        /// Fixed assembly + test footprint per package.
        base: Carbon,
        /// Substrate/laminate footprint per unit of die area.
        per_area: CarbonPerArea,
    },
    /// 2.5D silicon-interposer package (extension beyond the paper): the
    /// interposer is fabricated at a mature node and its area exceeds the
    /// summed die area by a fan-out factor.
    Interposer2p5D {
        /// Fixed assembly + test footprint per package.
        base: Carbon,
        /// Substrate/laminate footprint per unit of die area.
        per_area: CarbonPerArea,
        /// Footprint of interposer silicon per unit of interposer area.
        interposer_per_area: CarbonPerArea,
        /// Ratio of interposer area to total die area (≥ 1).
        interposer_area_factor: f64,
    },
}

impl PackagingModel {
    /// Default monolithic package model (ECO-CHIP-like constants: ~150 g
    /// fixed assembly plus 0.1 kg/cm² of substrate).
    pub fn monolithic() -> Self {
        PackagingModel::Monolithic {
            base: Carbon::from_kg(0.15),
            per_area: CarbonPerArea::from_kg_per_cm2(0.10),
        }
    }

    /// Default 2.5D interposer model with a 1.3× interposer area factor.
    pub fn interposer_2p5d() -> Self {
        PackagingModel::Interposer2p5D {
            base: Carbon::from_kg(0.25),
            per_area: CarbonPerArea::from_kg_per_cm2(0.10),
            interposer_per_area: CarbonPerArea::from_kg_per_cm2(0.40),
            interposer_area_factor: 1.3,
        }
    }

    /// Packaging footprint for a die (or summed dies) of the given area.
    ///
    /// Zero or negative areas return only the fixed base term for the
    /// monolithic model and zero for degenerate interposer configurations —
    /// packaging an empty die is not an error, it is just the empty package.
    pub fn carbon_for_die(&self, die: Area) -> Carbon {
        let area = Area::from_mm2(die.as_mm2().max(0.0));
        match *self {
            PackagingModel::Monolithic { base, per_area } => base + per_area * area,
            PackagingModel::Interposer2p5D {
                base,
                per_area,
                interposer_per_area,
                interposer_area_factor,
            } => {
                let interposer = area * interposer_area_factor.max(1.0);
                base + per_area * area + interposer_per_area * interposer
            }
        }
    }
}

impl Default for PackagingModel {
    fn default() -> Self {
        PackagingModel::monolithic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monolithic_grows_linearly_with_area() {
        let pkg = PackagingModel::monolithic();
        let a = pkg.carbon_for_die(Area::from_mm2(100.0));
        let b = pkg.carbon_for_die(Area::from_mm2(200.0));
        let c = pkg.carbon_for_die(Area::from_mm2(300.0));
        // Equal increments in area give equal increments in carbon.
        assert!(((b - a).as_kg() - (c - b).as_kg()).abs() < 1e-12);
        assert!(b > a);
    }

    #[test]
    fn zero_area_still_pays_base() {
        let pkg = PackagingModel::monolithic();
        let c = pkg.carbon_for_die(Area::ZERO);
        assert!((c.as_kg() - 0.15).abs() < 1e-12);
        // Negative area is clamped, not amplified.
        assert_eq!(pkg.carbon_for_die(Area::from_mm2(-50.0)), c);
    }

    #[test]
    fn interposer_costs_more_than_monolithic() {
        let die = Area::from_mm2(400.0);
        let mono = PackagingModel::monolithic().carbon_for_die(die);
        let twod = PackagingModel::interposer_2p5d().carbon_for_die(die);
        assert!(twod > mono);
    }

    #[test]
    fn interposer_area_factor_is_clamped_to_one() {
        let pkg = PackagingModel::Interposer2p5D {
            base: Carbon::ZERO,
            per_area: CarbonPerArea::ZERO,
            interposer_per_area: CarbonPerArea::from_kg_per_cm2(1.0),
            interposer_area_factor: 0.2,
        };
        // Factor below 1 behaves as 1: interposer is at least die-sized.
        let c = pkg.carbon_for_die(Area::from_cm2(2.0));
        assert!((c.as_kg() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_monolithic() {
        assert_eq!(PackagingModel::default(), PackagingModel::monolithic());
    }

    #[test]
    fn industry_scale_sanity() {
        // A 550 mm2 FPGA should cost on the order of a kilogram to package,
        // well below its manufacturing footprint.
        let c = PackagingModel::monolithic().carbon_for_die(Area::from_mm2(550.0));
        assert!(c.as_kg() > 0.3 && c.as_kg() < 2.0);
    }
}
