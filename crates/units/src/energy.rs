//! Electrical energy quantity (kilowatt-hours).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::{Carbon, CarbonIntensity};

/// Electrical energy in kilowatt-hours (kWh).
///
/// Energy appears in the design-CFP model (annual design-house energy in
/// GWh, Table 1 of the paper), and in the operational model (energy spent in
/// the field). Multiplying an `Energy` by a [`CarbonIntensity`] yields a
/// [`Carbon`] footprint.
///
/// # Examples
///
/// ```
/// use gf_units::{Energy, CarbonIntensity};
///
/// let annual = Energy::from_gigawatt_hours(7.3);
/// let cfp = annual * CarbonIntensity::from_grams_per_kwh(300.0);
/// assert!((cfp.as_tons() - 2190.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from kilowatt-hours.
    pub fn from_kwh(kwh: f64) -> Self {
        Energy(kwh)
    }

    /// Creates an energy from megawatt-hours.
    pub fn from_megawatt_hours(mwh: f64) -> Self {
        Energy(mwh * 1.0e3)
    }

    /// Creates an energy from gigawatt-hours (design-house annual figures in
    /// the paper are quoted in GWh).
    pub fn from_gigawatt_hours(gwh: f64) -> Self {
        Energy(gwh * 1.0e6)
    }

    /// Creates an energy from joules.
    pub fn from_joules(joules: f64) -> Self {
        Energy(joules / 3.6e6)
    }

    /// Returns the energy in kilowatt-hours.
    pub fn as_kwh(self) -> f64 {
        self.0
    }

    /// Returns the energy in megawatt-hours.
    pub fn as_megawatt_hours(self) -> f64 {
        self.0 / 1.0e3
    }

    /// Returns the energy in gigawatt-hours.
    pub fn as_gigawatt_hours(self) -> f64 {
        self.0 / 1.0e6
    }

    /// Returns the energy in joules.
    pub fn as_joules(self) -> f64 {
        self.0 * 3.6e6
    }

    /// Returns `true` when the value is finite (not NaN or infinite).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Mul<CarbonIntensity> for Energy {
    type Output = Carbon;
    fn mul(self, rhs: CarbonIntensity) -> Carbon {
        Carbon::from_kg(self.0 * rhs.as_kg_per_kwh())
    }
}

impl Mul<Energy> for CarbonIntensity {
    type Output = Carbon;
    fn mul(self, rhs: Energy) -> Carbon {
        rhs * self
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |acc, e| acc + e)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kwh = self.0;
        if kwh.abs() >= 1.0e6 {
            write!(f, "{:.3} GWh", kwh / 1.0e6)
        } else if kwh.abs() >= 1.0e3 {
            write!(f, "{:.3} MWh", kwh / 1.0e3)
        } else {
            write!(f, "{kwh:.3} kWh")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e = Energy::from_gigawatt_hours(2.0);
        assert!((e.as_kwh() - 2.0e6).abs() < 1e-6);
        assert!((e.as_megawatt_hours() - 2000.0).abs() < 1e-9);
        assert!((e.as_gigawatt_hours() - 2.0).abs() < 1e-12);
        let j = Energy::from_joules(3.6e6);
        assert!((j.as_kwh() - 1.0).abs() < 1e-12);
        assert!((j.as_joules() - 3.6e6).abs() < 1e-3);
    }

    #[test]
    fn energy_times_intensity_is_carbon() {
        let c = Energy::from_kwh(100.0) * CarbonIntensity::from_grams_per_kwh(500.0);
        assert!((c.as_kg() - 50.0).abs() < 1e-12);
        // commutativity of the overloaded multiply
        let c2 = CarbonIntensity::from_grams_per_kwh(500.0) * Energy::from_kwh(100.0);
        assert_eq!(c, c2);
    }

    #[test]
    fn arithmetic() {
        let total: Energy = [Energy::from_kwh(1.0), Energy::from_kwh(2.5)]
            .into_iter()
            .sum();
        assert!((total.as_kwh() - 3.5).abs() < 1e-12);
        assert!(((total * 2.0).as_kwh() - 7.0).abs() < 1e-12);
        assert!(((total / 7.0).as_kwh() - 0.5).abs() < 1e-12);
        assert!(((total - Energy::from_kwh(0.5)).as_kwh() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", Energy::from_kwh(2.0)), "2.000 kWh");
        assert_eq!(format!("{}", Energy::from_kwh(2500.0)), "2.500 MWh");
        assert_eq!(
            format!("{}", Energy::from_gigawatt_hours(1.25)),
            "1.250 GWh"
        );
    }
}
