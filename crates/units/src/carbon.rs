//! Carbon-footprint quantity (kilograms of CO₂ equivalent).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A carbon footprint expressed in kilograms of CO₂ equivalent (kg CO₂e).
///
/// `Carbon` is a signed quantity: recycling credits in the end-of-life model
/// (Eq. 6 of the paper) legitimately produce *negative* contributions, so
/// the type does not forbid negative values. Use [`Carbon::is_credit`] to
/// test for that case.
///
/// # Examples
///
/// ```
/// use gf_units::Carbon;
///
/// let mfg = Carbon::from_kg(25.0);
/// let eol = Carbon::from_kg(-1.5); // recycling credit
/// let total = mfg + eol;
/// assert_eq!(total.as_kg(), 23.5);
/// assert!(eol.is_credit());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Carbon(f64);

impl Carbon {
    /// Zero carbon footprint.
    pub const ZERO: Carbon = Carbon(0.0);

    /// Creates a footprint from kilograms of CO₂e.
    pub fn from_kg(kg: f64) -> Self {
        Carbon(kg)
    }

    /// Creates a footprint from grams of CO₂e.
    pub fn from_grams(g: f64) -> Self {
        Carbon(g / 1000.0)
    }

    /// Creates a footprint from metric tons of CO₂e.
    pub fn from_tons(t: f64) -> Self {
        Carbon(t * 1000.0)
    }

    /// Returns the footprint in kilograms of CO₂e.
    pub fn as_kg(self) -> f64 {
        self.0
    }

    /// Returns the footprint in grams of CO₂e.
    pub fn as_grams(self) -> f64 {
        self.0 * 1000.0
    }

    /// Returns the footprint in metric tons of CO₂e.
    pub fn as_tons(self) -> f64 {
        self.0 / 1000.0
    }

    /// Returns `true` when the value represents a net credit (negative CFP),
    /// e.g. the recycling credit of the end-of-life model.
    pub fn is_credit(self) -> bool {
        self.0 < 0.0
    }

    /// Returns `true` when the value is finite (not NaN or infinite).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Ratio of this footprint to another, as a plain scalar.
    ///
    /// Returns `None` when `other` is zero, which avoids silently producing
    /// infinities in comparison tables.
    pub fn ratio_to(self, other: Carbon) -> Option<f64> {
        if other.0 == 0.0 {
            None
        } else {
            Some(self.0 / other.0)
        }
    }

    /// Component-wise minimum.
    pub fn min(self, other: Carbon) -> Carbon {
        Carbon(self.0.min(other.0))
    }

    /// Component-wise maximum.
    pub fn max(self, other: Carbon) -> Carbon {
        Carbon(self.0.max(other.0))
    }

    /// Absolute value of the footprint.
    pub fn abs(self) -> Carbon {
        Carbon(self.0.abs())
    }
}

impl Add for Carbon {
    type Output = Carbon;
    fn add(self, rhs: Carbon) -> Carbon {
        Carbon(self.0 + rhs.0)
    }
}

impl AddAssign for Carbon {
    fn add_assign(&mut self, rhs: Carbon) {
        self.0 += rhs.0;
    }
}

impl Sub for Carbon {
    type Output = Carbon;
    fn sub(self, rhs: Carbon) -> Carbon {
        Carbon(self.0 - rhs.0)
    }
}

impl SubAssign for Carbon {
    fn sub_assign(&mut self, rhs: Carbon) {
        self.0 -= rhs.0;
    }
}

impl Neg for Carbon {
    type Output = Carbon;
    fn neg(self) -> Carbon {
        Carbon(-self.0)
    }
}

impl Mul<f64> for Carbon {
    type Output = Carbon;
    fn mul(self, rhs: f64) -> Carbon {
        Carbon(self.0 * rhs)
    }
}

impl Mul<Carbon> for f64 {
    type Output = Carbon;
    fn mul(self, rhs: Carbon) -> Carbon {
        Carbon(self * rhs.0)
    }
}

impl Div<f64> for Carbon {
    type Output = Carbon;
    fn div(self, rhs: f64) -> Carbon {
        Carbon(self.0 / rhs)
    }
}

impl Sum for Carbon {
    fn sum<I: Iterator<Item = Carbon>>(iter: I) -> Carbon {
        iter.fold(Carbon::ZERO, |acc, c| acc + c)
    }
}

impl<'a> Sum<&'a Carbon> for Carbon {
    fn sum<I: Iterator<Item = &'a Carbon>>(iter: I) -> Carbon {
        iter.copied().sum()
    }
}

impl fmt::Display for Carbon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kg = self.0;
        if kg.abs() >= 1.0e6 {
            write!(f, "{:.3} ktCO2e", kg / 1.0e6)
        } else if kg.abs() >= 1.0e3 {
            write!(f, "{:.3} tCO2e", kg / 1.0e3)
        } else {
            write!(f, "{kg:.3} kgCO2e")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let c = Carbon::from_tons(2.5);
        assert!((c.as_kg() - 2500.0).abs() < 1e-9);
        assert!((c.as_grams() - 2_500_000.0).abs() < 1e-6);
        assert!((c.as_tons() - 2.5).abs() < 1e-12);
        assert!((Carbon::from_grams(500.0).as_kg() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_sum() {
        let parts = [
            Carbon::from_kg(1.0),
            Carbon::from_kg(2.0),
            Carbon::from_kg(-0.5),
        ];
        let total: Carbon = parts.iter().sum();
        assert!((total.as_kg() - 2.5).abs() < 1e-12);
        let scaled = total * 2.0;
        assert!((scaled.as_kg() - 5.0).abs() < 1e-12);
        assert!(((total - Carbon::from_kg(0.5)).as_kg() - 2.0).abs() < 1e-12);
        assert!(((total / 2.0).as_kg() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn credit_detection_and_neg() {
        let credit = -Carbon::from_kg(3.0);
        assert!(credit.is_credit());
        assert!(!Carbon::from_kg(3.0).is_credit());
        assert!((credit.abs().as_kg() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_to_handles_zero() {
        assert_eq!(Carbon::from_kg(1.0).ratio_to(Carbon::ZERO), None);
        let r = Carbon::from_kg(3.0).ratio_to(Carbon::from_kg(2.0)).unwrap();
        assert!((r - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", Carbon::from_kg(12.3456)), "12.346 kgCO2e");
        assert_eq!(format!("{}", Carbon::from_kg(12_345.6)), "12.346 tCO2e");
        assert_eq!(
            format!("{}", Carbon::from_kg(12_345_600.0)),
            "12.346 ktCO2e"
        );
    }

    #[test]
    fn min_max() {
        let a = Carbon::from_kg(1.0);
        let b = Carbon::from_kg(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
