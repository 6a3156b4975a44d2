//! Mass and carbon-per-mass quantities (end-of-life model).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Sub};

use crate::Carbon;

/// Mass of material, stored internally in kilograms.
///
/// The end-of-life model (Eq. 6 of the paper) uses EPA WARM factors that are
/// quoted per metric ton of e-waste, while the mass of a packaged chip is a
/// few grams, so gram/kilogram/ton constructors are all provided.
///
/// # Examples
///
/// ```
/// use gf_units::Mass;
///
/// let package = Mass::from_grams(30.0);
/// assert!((package.as_tons() - 3.0e-5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Mass(f64);

impl Mass {
    /// Zero mass.
    pub const ZERO: Mass = Mass(0.0);

    /// Creates a mass from kilograms.
    pub fn from_kg(kg: f64) -> Self {
        Mass(kg)
    }

    /// Creates a mass from grams.
    pub fn from_grams(g: f64) -> Self {
        Mass(g / 1000.0)
    }

    /// Creates a mass from metric tons.
    pub fn from_tons(t: f64) -> Self {
        Mass(t * 1000.0)
    }

    /// Returns the mass in kilograms.
    pub fn as_kg(self) -> f64 {
        self.0
    }

    /// Returns the mass in grams.
    pub fn as_grams(self) -> f64 {
        self.0 * 1000.0
    }

    /// Returns the mass in metric tons.
    pub fn as_tons(self) -> f64 {
        self.0 / 1000.0
    }

    /// Returns `true` when the value is finite (not NaN or infinite).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Mass {
    type Output = Mass;
    fn add(self, rhs: Mass) -> Mass {
        Mass(self.0 + rhs.0)
    }
}

impl Sub for Mass {
    type Output = Mass;
    fn sub(self, rhs: Mass) -> Mass {
        Mass(self.0 - rhs.0)
    }
}

impl Mul<f64> for Mass {
    type Output = Mass;
    fn mul(self, rhs: f64) -> Mass {
        Mass(self.0 * rhs)
    }
}

impl Div<f64> for Mass {
    type Output = Mass;
    fn div(self, rhs: f64) -> Mass {
        Mass(self.0 / rhs)
    }
}

impl Sum for Mass {
    fn sum<I: Iterator<Item = Mass>>(iter: I) -> Mass {
        iter.fold(Mass::ZERO, |acc, m| acc + m)
    }
}

impl fmt::Display for Mass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1000.0 {
            write!(f, "{:.3} t", self.0 / 1000.0)
        } else if self.0.abs() >= 1.0 {
            write!(f, "{:.3} kg", self.0)
        } else {
            write!(f, "{:.3} g", self.0 * 1000.0)
        }
    }
}

/// Carbon footprint per unit mass of processed material (kg CO₂e per metric
/// ton).
///
/// The EPA WARM ranges quoted in Table 1 of the paper — discard at
/// 0.03–2.08 MTCO₂e/ton, recycling credit at 7.65–29.83 MTCO₂e/ton — are
/// represented as `CarbonPerMass`. Multiplying by a [`Mass`] yields a
/// [`Carbon`].
///
/// # Examples
///
/// ```
/// use gf_units::{CarbonPerMass, Mass};
///
/// let discard = CarbonPerMass::from_tons_co2_per_ton(2.08);
/// let cfp = discard * Mass::from_tons(0.001);
/// assert!((cfp.as_kg() - 2.08).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CarbonPerMass(f64);

impl CarbonPerMass {
    /// Zero factor.
    pub const ZERO: CarbonPerMass = CarbonPerMass(0.0);

    /// Creates a factor from kg CO₂e per metric ton of material.
    pub fn from_kg_co2_per_ton(kg_per_ton: f64) -> Self {
        CarbonPerMass(kg_per_ton)
    }

    /// Creates a factor from metric tons of CO₂e per metric ton of material
    /// (MTCO₂E/ton — the unit the EPA WARM report and Table 1 use).
    pub fn from_tons_co2_per_ton(t_per_ton: f64) -> Self {
        CarbonPerMass(t_per_ton * 1000.0)
    }

    /// Returns the factor in kg CO₂e per metric ton.
    pub fn as_kg_co2_per_ton(self) -> f64 {
        self.0
    }

    /// Returns the factor in tons of CO₂e per metric ton.
    pub fn as_tons_co2_per_ton(self) -> f64 {
        self.0 / 1000.0
    }
}

impl Mul<Mass> for CarbonPerMass {
    type Output = Carbon;
    fn mul(self, rhs: Mass) -> Carbon {
        Carbon::from_kg(self.0 * rhs.as_tons())
    }
}

impl Mul<CarbonPerMass> for Mass {
    type Output = Carbon;
    fn mul(self, rhs: CarbonPerMass) -> Carbon {
        rhs * self
    }
}

impl Mul<f64> for CarbonPerMass {
    type Output = CarbonPerMass;
    fn mul(self, rhs: f64) -> CarbonPerMass {
        CarbonPerMass(self.0 * rhs)
    }
}

impl fmt::Display for CarbonPerMass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} kgCO2e/t", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_conversions() {
        assert!((Mass::from_grams(1500.0).as_kg() - 1.5).abs() < 1e-12);
        assert!((Mass::from_tons(0.002).as_kg() - 2.0).abs() < 1e-12);
        assert!((Mass::from_kg(30.0).as_grams() - 30_000.0).abs() < 1e-9);
    }

    #[test]
    fn carbon_per_mass_times_mass() {
        let f = CarbonPerMass::from_tons_co2_per_ton(7.65);
        let c = f * Mass::from_tons(2.0);
        assert!((c.as_tons() - 15.3).abs() < 1e-9);
        assert_eq!(f * Mass::from_tons(2.0), Mass::from_tons(2.0) * f);
    }

    #[test]
    fn factor_conversions() {
        let f = CarbonPerMass::from_kg_co2_per_ton(500.0);
        assert!((f.as_tons_co2_per_ton() - 0.5).abs() < 1e-12);
        assert!((f.as_kg_co2_per_ton() - 500.0).abs() < 1e-12);
        assert!(((f * 2.0).as_kg_co2_per_ton() - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn mass_arithmetic_and_display() {
        let total: Mass = [Mass::from_kg(0.5), Mass::from_grams(500.0)]
            .into_iter()
            .sum();
        assert!((total.as_kg() - 1.0).abs() < 1e-12);
        assert!(((total * 3.0).as_kg() - 3.0).abs() < 1e-12);
        assert!(((total / 2.0).as_kg() - 0.5).abs() < 1e-12);
        assert_eq!(format!("{}", Mass::from_grams(25.0)), "25.000 g");
        assert_eq!(format!("{}", Mass::from_kg(2.0)), "2.000 kg");
        assert_eq!(format!("{}", Mass::from_tons(1.5)), "1.500 t");
        assert_eq!(
            format!("{}", CarbonPerMass::from_kg_co2_per_ton(10.0)),
            "10.00 kgCO2e/t"
        );
    }
}
