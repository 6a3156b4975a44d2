//! Silicon area and carbon-per-area quantities.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Sub};

use crate::Carbon;

/// Silicon (die) area, stored internally in square millimetres.
///
/// Die areas in the paper are quoted in mm² (Table 3); the ACT-style
/// manufacturing substrate works in carbon-per-cm², so both conversions are
/// provided.
///
/// # Examples
///
/// ```
/// use gf_units::Area;
///
/// let die = Area::from_mm2(340.0); // IndustryASIC1 (Antoum-like)
/// assert!((die.as_cm2() - 3.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Area(f64);

impl Area {
    /// Zero area.
    pub const ZERO: Area = Area(0.0);

    /// Creates an area from square millimetres.
    pub fn from_mm2(mm2: f64) -> Self {
        Area(mm2)
    }

    /// Creates an area from square centimetres.
    pub fn from_cm2(cm2: f64) -> Self {
        Area(cm2 * 100.0)
    }

    /// Returns the area in square millimetres.
    pub fn as_mm2(self) -> f64 {
        self.0
    }

    /// Returns the area in square centimetres.
    pub fn as_cm2(self) -> f64 {
        self.0 / 100.0
    }

    /// Returns `true` when the value is finite (not NaN or infinite).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Area {
    type Output = Area;
    fn add(self, rhs: Area) -> Area {
        Area(self.0 + rhs.0)
    }
}

impl Sub for Area {
    type Output = Area;
    fn sub(self, rhs: Area) -> Area {
        Area(self.0 - rhs.0)
    }
}

impl Mul<f64> for Area {
    type Output = Area;
    fn mul(self, rhs: f64) -> Area {
        Area(self.0 * rhs)
    }
}

impl Mul<Area> for f64 {
    type Output = Area;
    fn mul(self, rhs: Area) -> Area {
        Area(self * rhs.0)
    }
}

impl Div<f64> for Area {
    type Output = Area;
    fn div(self, rhs: f64) -> Area {
        Area(self.0 / rhs)
    }
}

impl Div<Area> for Area {
    type Output = f64;
    fn div(self, rhs: Area) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Area {
    fn sum<I: Iterator<Item = Area>>(iter: I) -> Area {
        iter.fold(Area::ZERO, |acc, a| acc + a)
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} mm2", self.0)
    }
}

/// Carbon emitted per unit of silicon area (kg CO₂e per cm²).
///
/// This is the "CPA" figure of the ACT model: the sum of fab energy, direct
/// gas emissions and material sourcing per centimetre of processed wafer
/// area. Multiplying by an [`Area`] yields a [`Carbon`] footprint.
///
/// # Examples
///
/// ```
/// use gf_units::{Area, CarbonPerArea};
///
/// let cpa = CarbonPerArea::from_kg_per_cm2(1.5);
/// let cfp = cpa * Area::from_mm2(200.0);
/// assert!((cfp.as_kg() - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CarbonPerArea(f64);

impl CarbonPerArea {
    /// Zero carbon intensity per area.
    pub const ZERO: CarbonPerArea = CarbonPerArea(0.0);

    /// Creates a carbon-per-area from kg CO₂e per cm².
    pub fn from_kg_per_cm2(kg_per_cm2: f64) -> Self {
        CarbonPerArea(kg_per_cm2)
    }
}

impl Add for CarbonPerArea {
    type Output = CarbonPerArea;
    fn add(self, rhs: CarbonPerArea) -> CarbonPerArea {
        CarbonPerArea(self.0 + rhs.0)
    }
}

impl Mul<f64> for CarbonPerArea {
    type Output = CarbonPerArea;
    fn mul(self, rhs: f64) -> CarbonPerArea {
        CarbonPerArea(self.0 * rhs)
    }
}

impl Div<f64> for CarbonPerArea {
    type Output = CarbonPerArea;
    fn div(self, rhs: f64) -> CarbonPerArea {
        CarbonPerArea(self.0 / rhs)
    }
}

impl Mul<Area> for CarbonPerArea {
    type Output = Carbon;
    fn mul(self, rhs: Area) -> Carbon {
        Carbon::from_kg(self.0 * rhs.as_cm2())
    }
}

impl Mul<CarbonPerArea> for Area {
    type Output = Carbon;
    fn mul(self, rhs: CarbonPerArea) -> Carbon {
        rhs * self
    }
}

impl fmt::Display for CarbonPerArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} kgCO2e/cm2", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_conversions() {
        assert!((Area::from_cm2(1.0).as_mm2() - 100.0).abs() < 1e-12);
        assert!((Area::from_mm2(550.0).as_cm2() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn area_arithmetic() {
        let total: Area = [Area::from_mm2(100.0), Area::from_mm2(50.0)]
            .into_iter()
            .sum();
        assert!((total.as_mm2() - 150.0).abs() < 1e-12);
        assert!((total / Area::from_mm2(50.0) - 3.0).abs() < 1e-12);
        assert!(((total * 2.0).as_mm2() - 300.0).abs() < 1e-12);
        assert!(((total - Area::from_mm2(25.0)).as_mm2() - 125.0).abs() < 1e-12);
        assert!(((total / 3.0).as_mm2() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn cpa_times_area_both_orders() {
        let cpa = CarbonPerArea::from_kg_per_cm2(2.0);
        let a = Area::from_cm2(3.0);
        assert_eq!(cpa * a, a * cpa);
        assert!(((cpa * a).as_kg() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Area::from_mm2(340.0)), "340.00 mm2");
        assert_eq!(
            format!("{}", CarbonPerArea::from_kg_per_cm2(1.234)),
            "1.234 kgCO2e/cm2"
        );
    }
}
