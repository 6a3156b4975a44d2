//! Electrical power quantity (watts).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Sub};

use crate::{Energy, TimeSpan};

/// Electrical power in watts.
///
/// Thermal design power (TDP) of the accelerators (Table 3 of the paper) and
/// the power of the CPU farm used for application development are both
/// expressed as `Power`. Multiplying by a [`TimeSpan`] gives an [`Energy`].
///
/// # Examples
///
/// ```
/// use gf_units::{Power, TimeSpan};
///
/// let tdp = Power::from_watts(192.0); // IndustryASIC2 (TPU-like)
/// let year = tdp * TimeSpan::from_years(1.0);
/// assert!((year.as_kwh() - 1683.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    pub fn from_watts(watts: f64) -> Self {
        Power(watts)
    }

    /// Creates a power from kilowatts.
    pub fn from_kilowatts(kw: f64) -> Self {
        Power(kw * 1.0e3)
    }

    /// Creates a power from milliwatts.
    pub fn from_milliwatts(mw: f64) -> Self {
        Power(mw / 1.0e3)
    }

    /// Returns the power in watts.
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// Returns the power in kilowatts.
    pub fn as_kilowatts(self) -> f64 {
        self.0 / 1.0e3
    }

    /// Returns `true` when the value is finite (not NaN or infinite).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Mul<Power> for f64 {
    type Output = Power;
    fn mul(self, rhs: Power) -> Power {
        Power(self * rhs.0)
    }
}

impl Div<f64> for Power {
    type Output = Power;
    fn div(self, rhs: f64) -> Power {
        Power(self.0 / rhs)
    }
}

impl Div<Power> for Power {
    type Output = f64;
    fn div(self, rhs: Power) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<TimeSpan> for Power {
    type Output = Energy;
    fn mul(self, rhs: TimeSpan) -> Energy {
        Energy::from_kwh(self.as_kilowatts() * rhs.as_hours())
    }
}

impl Mul<Power> for TimeSpan {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, |acc, p| acc + p)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1.0e3 {
            write!(f, "{:.3} kW", self.0 / 1.0e3)
        } else {
            write!(f, "{:.3} W", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert!((Power::from_kilowatts(1.5).as_watts() - 1500.0).abs() < 1e-9);
        assert!((Power::from_milliwatts(250.0).as_watts() - 0.25).abs() < 1e-12);
        assert!((Power::from_watts(2000.0).as_kilowatts() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_times_time_is_energy_both_orders() {
        let a = Power::from_watts(500.0) * TimeSpan::from_hours(2.0);
        let b = TimeSpan::from_hours(2.0) * Power::from_watts(500.0);
        assert_eq!(a, b);
        assert!((a.as_kwh() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_ratio_is_scalar() {
        let r = Power::from_watts(160.0) / Power::from_watts(53.333_333);
        assert!((r - 3.0).abs() < 1e-6);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Power::from_watts(70.0)), "70.000 W");
        assert_eq!(format!("{}", Power::from_watts(2300.0)), "2.300 kW");
    }
}
