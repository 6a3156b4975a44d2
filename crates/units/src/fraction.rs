//! Dimensionless fractions constrained to the unit interval.

use std::fmt;
use std::ops::Mul;

use crate::UnitError;

/// A dimensionless fraction guaranteed to lie in `[0, 1]`.
///
/// The model uses unit-interval fractions for the recycled-material share
/// `ρ`, the recycling fraction `δ`, duty cycles, yields and renewable-energy
/// shares. Constructing a `Fraction` outside `[0, 1]` is an error, which
/// catches sign and percent/ratio confusion at the API boundary
/// (`C-VALIDATE`).
///
/// # Examples
///
/// ```
/// use gf_units::Fraction;
///
/// let rho = Fraction::new(0.35)?;
/// assert_eq!(rho.as_percent(), 35.0);
/// assert!(Fraction::new(1.2).is_err());
/// # Ok::<(), gf_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Fraction(f64);

impl Fraction {
    /// The fraction 0.
    pub const ZERO: Fraction = Fraction(0.0);
    /// The fraction 1.
    pub const ONE: Fraction = Fraction(1.0);
    /// The fraction 0.5.
    pub const HALF: Fraction = Fraction(0.5);

    /// Creates a fraction.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::FractionOutOfRange`] when `value` is NaN or not
    /// in `[0, 1]`.
    pub fn new(value: f64) -> Result<Self, UnitError> {
        if value.is_nan() || !(0.0..=1.0).contains(&value) {
            Err(UnitError::FractionOutOfRange(value))
        } else {
            Ok(Fraction(value))
        }
    }

    /// Creates a fraction, clamping out-of-range values into `[0, 1]`.
    ///
    /// NaN clamps to zero. Useful for derived values that may stray slightly
    /// outside the interval due to floating-point error.
    pub fn clamped(value: f64) -> Self {
        if value.is_nan() {
            Fraction(0.0)
        } else {
            Fraction(value.clamp(0.0, 1.0))
        }
    }

    /// Returns the underlying value in `[0, 1]`.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns the value as a percentage in `[0, 100]`.
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Returns `true` when the fraction is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns `true` when the fraction is exactly one.
    pub fn is_one(self) -> bool {
        self.0 == 1.0
    }
}

impl Default for Fraction {
    fn default() -> Self {
        Fraction::ZERO
    }
}

impl Mul<Fraction> for Fraction {
    type Output = Fraction;
    fn mul(self, rhs: Fraction) -> Fraction {
        // Product of two values in [0,1] stays in [0,1].
        Fraction(self.0 * rhs.0)
    }
}

impl Mul<f64> for Fraction {
    type Output = f64;
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl Mul<Fraction> for f64 {
    type Output = f64;
    fn mul(self, rhs: Fraction) -> f64 {
        self * rhs.0
    }
}

impl TryFrom<f64> for Fraction {
    type Error = UnitError;
    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Fraction::new(value)
    }
}

impl From<Fraction> for f64 {
    fn from(f: Fraction) -> f64 {
        f.0
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.as_percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_range() {
        assert!(Fraction::new(0.0).is_ok());
        assert!(Fraction::new(1.0).is_ok());
        assert!(Fraction::new(0.5).is_ok());
        assert!(Fraction::new(-0.01).is_err());
        assert!(Fraction::new(1.01).is_err());
        assert!(Fraction::new(f64::NAN).is_err());
    }

    #[test]
    fn clamped_never_fails() {
        assert_eq!(Fraction::clamped(-3.0).value(), 0.0);
        assert_eq!(Fraction::clamped(3.0).value(), 1.0);
        assert_eq!(Fraction::clamped(f64::NAN).value(), 0.0);
        assert_eq!(Fraction::clamped(0.7).value(), 0.7);
    }

    #[test]
    fn complement_and_predicates() {
        assert!(Fraction::ZERO.is_zero());
        assert!(Fraction::ONE.is_one());
        assert!(!Fraction::HALF.is_zero());
        assert_eq!(Fraction::default(), Fraction::ZERO);
    }

    #[test]
    fn multiplication() {
        let a = Fraction::new(0.5).unwrap();
        let b = Fraction::new(0.4).unwrap();
        assert!(((a * b).value() - 0.2).abs() < 1e-12);
        assert!((a * 10.0 - 5.0).abs() < 1e-12);
        assert!((10.0 * a - 5.0).abs() < 1e-12);
    }

    #[test]
    fn conversions_and_display() {
        let f: Fraction = 0.25f64.try_into().unwrap();
        let back: f64 = f.into();
        assert_eq!(back, 0.25);
        assert_eq!(format!("{f}"), "25.0%");
        assert!(Fraction::try_from(2.0).is_err());
    }
}
