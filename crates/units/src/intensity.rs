//! Carbon intensity of an energy source (g CO₂e per kWh).

use std::fmt;
use std::ops::{Add, Div, Mul};

/// Carbon intensity of an electricity source, in grams of CO₂e per kWh.
///
/// The paper distinguishes the intensity of the design house's grid
/// (`C_src,des`, Table 1: 30–700 g CO₂/kWh), the fab's energy mix and the
/// end-user grid during operation (`C_src,use`). Named constructors for
/// typical sources are provided by `gf-act::EnergySource`.
///
/// # Examples
///
/// ```
/// use gf_units::{CarbonIntensity, Energy};
///
/// let grid = CarbonIntensity::from_grams_per_kwh(700.0);
/// let solar = CarbonIntensity::from_grams_per_kwh(41.0);
/// assert!(grid > solar);
/// let cfp = Energy::from_kwh(10.0) * solar;
/// assert!((cfp.as_kg() - 0.41).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CarbonIntensity(f64);

impl CarbonIntensity {
    /// Zero-carbon source.
    pub const ZERO: CarbonIntensity = CarbonIntensity(0.0);

    /// Creates an intensity from grams of CO₂e per kWh.
    pub fn from_grams_per_kwh(g_per_kwh: f64) -> Self {
        CarbonIntensity(g_per_kwh)
    }

    /// Creates an intensity from kilograms of CO₂e per kWh.
    pub fn from_kg_per_kwh(kg_per_kwh: f64) -> Self {
        CarbonIntensity(kg_per_kwh * 1000.0)
    }

    /// Returns the intensity in grams of CO₂e per kWh.
    pub fn as_grams_per_kwh(self) -> f64 {
        self.0
    }

    /// Returns the intensity in kilograms of CO₂e per kWh.
    pub fn as_kg_per_kwh(self) -> f64 {
        self.0 / 1000.0
    }

    /// Returns `true` when the value is finite (not NaN or infinite).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Linear blend of two intensities: `self × (1 - w) + other × w`.
    ///
    /// Used to model grids that are partially supplied by renewables, e.g.
    /// a design house reporting a 60% renewable share.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `w` is outside `[0, 1]`.
    pub fn blend(self, other: CarbonIntensity, w: f64) -> CarbonIntensity {
        debug_assert!((0.0..=1.0).contains(&w), "blend weight must be in [0, 1]");
        CarbonIntensity(self.0 * (1.0 - w) + other.0 * w)
    }
}

impl Add for CarbonIntensity {
    type Output = CarbonIntensity;
    fn add(self, rhs: CarbonIntensity) -> CarbonIntensity {
        CarbonIntensity(self.0 + rhs.0)
    }
}

impl Mul<f64> for CarbonIntensity {
    type Output = CarbonIntensity;
    fn mul(self, rhs: f64) -> CarbonIntensity {
        CarbonIntensity(self.0 * rhs)
    }
}

impl Mul<CarbonIntensity> for f64 {
    type Output = CarbonIntensity;
    fn mul(self, rhs: CarbonIntensity) -> CarbonIntensity {
        CarbonIntensity(self * rhs.0)
    }
}

impl Div<f64> for CarbonIntensity {
    type Output = CarbonIntensity;
    fn div(self, rhs: f64) -> CarbonIntensity {
        CarbonIntensity(self.0 / rhs)
    }
}

impl fmt::Display for CarbonIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} gCO2e/kWh", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert!((CarbonIntensity::from_kg_per_kwh(0.5).as_grams_per_kwh() - 500.0).abs() < 1e-9);
        assert!((CarbonIntensity::from_grams_per_kwh(250.0).as_kg_per_kwh() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn blend_endpoints_and_midpoint() {
        let coal = CarbonIntensity::from_grams_per_kwh(1000.0);
        let wind = CarbonIntensity::from_grams_per_kwh(10.0);
        assert_eq!(coal.blend(wind, 0.0), coal);
        assert_eq!(coal.blend(wind, 1.0), wind);
        assert!((coal.blend(wind, 0.5).as_grams_per_kwh() - 505.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = CarbonIntensity::from_grams_per_kwh(100.0);
        assert!(((a * 2.0).as_grams_per_kwh() - 200.0).abs() < 1e-12);
        assert!(((a / 2.0).as_grams_per_kwh() - 50.0).abs() < 1e-12);
        assert!(((a + a).as_grams_per_kwh() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(
            format!("{}", CarbonIntensity::from_grams_per_kwh(475.0)),
            "475.0 gCO2e/kWh"
        );
    }
}
