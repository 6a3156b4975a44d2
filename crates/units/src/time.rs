//! Durations used by the lifecycle model (years, months, hours).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Sub};

/// A span of calendar time, stored internally in years.
///
/// Application lifetimes (`T_i`), chip lifetimes, project durations
/// (`T_proj`) and application-development times (`T_app,FE`, `T_app,BE`,
/// `T_app,config`) are all `TimeSpan`s. One year is defined as 8766 hours
/// (365.25 days), consistently with [`crate::HOURS_PER_YEAR`].
///
/// # Examples
///
/// ```
/// use gf_units::TimeSpan;
///
/// let fe = TimeSpan::from_months(2.0);
/// let be = TimeSpan::from_months(1.0);
/// assert!(((fe + be).as_years() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct TimeSpan(f64);

impl TimeSpan {
    /// Zero duration.
    pub const ZERO: TimeSpan = TimeSpan(0.0);

    /// Creates a span from years.
    pub fn from_years(years: f64) -> Self {
        TimeSpan(years)
    }

    /// Creates a span from months (1 month = 1/12 year).
    pub fn from_months(months: f64) -> Self {
        TimeSpan(months / 12.0)
    }

    /// Creates a span from hours.
    pub fn from_hours(hours: f64) -> Self {
        TimeSpan(hours / crate::HOURS_PER_YEAR)
    }

    /// Creates a span from seconds.
    pub fn from_seconds(seconds: f64) -> Self {
        Self::from_hours(seconds / 3600.0)
    }

    /// Returns the span in years.
    pub fn as_years(self) -> f64 {
        self.0
    }

    /// Returns the span in months.
    pub fn as_months(self) -> f64 {
        self.0 * 12.0
    }

    /// Returns the span in hours.
    pub fn as_hours(self) -> f64 {
        self.0 * crate::HOURS_PER_YEAR
    }

    /// Returns the span in seconds.
    pub fn as_seconds(self) -> f64 {
        self.as_hours() * 3600.0
    }

    /// Returns `true` when the duration is negative. Negative durations are
    /// rejected by model constructors (`C-VALIDATE`) but the quantity type
    /// itself allows representing them so subtraction is closed.
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }

    /// Returns `true` when the value is finite (not NaN or infinite).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Component-wise minimum.
    pub fn min(self, other: TimeSpan) -> TimeSpan {
        TimeSpan(self.0.min(other.0))
    }

    /// Component-wise maximum.
    pub fn max(self, other: TimeSpan) -> TimeSpan {
        TimeSpan(self.0.max(other.0))
    }
}

impl Add for TimeSpan {
    type Output = TimeSpan;
    fn add(self, rhs: TimeSpan) -> TimeSpan {
        TimeSpan(self.0 + rhs.0)
    }
}

impl Sub for TimeSpan {
    type Output = TimeSpan;
    fn sub(self, rhs: TimeSpan) -> TimeSpan {
        TimeSpan(self.0 - rhs.0)
    }
}

impl Mul<f64> for TimeSpan {
    type Output = TimeSpan;
    fn mul(self, rhs: f64) -> TimeSpan {
        TimeSpan(self.0 * rhs)
    }
}

impl Mul<TimeSpan> for f64 {
    type Output = TimeSpan;
    fn mul(self, rhs: TimeSpan) -> TimeSpan {
        TimeSpan(self * rhs.0)
    }
}

impl Div<f64> for TimeSpan {
    type Output = TimeSpan;
    fn div(self, rhs: f64) -> TimeSpan {
        TimeSpan(self.0 / rhs)
    }
}

impl Div<TimeSpan> for TimeSpan {
    type Output = f64;
    fn div(self, rhs: TimeSpan) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for TimeSpan {
    fn sum<I: Iterator<Item = TimeSpan>>(iter: I) -> TimeSpan {
        iter.fold(TimeSpan::ZERO, |acc, t| acc + t)
    }
}

impl fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1.0 {
            write!(f, "{:.2} years", self.0)
        } else if self.as_months().abs() >= 1.0 {
            write!(f, "{:.2} months", self.as_months())
        } else {
            write!(f, "{:.2} hours", self.as_hours())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert!((TimeSpan::from_months(6.0).as_years() - 0.5).abs() < 1e-12);
        assert!((TimeSpan::from_years(1.0).as_hours() - 8766.0).abs() < 1e-9);
        assert!((TimeSpan::from_hours(8766.0).as_years() - 1.0).abs() < 1e-12);
        assert!((TimeSpan::from_seconds(3600.0).as_hours() - 1.0).abs() < 1e-12);
        assert!((TimeSpan::from_years(2.0).as_months() - 24.0).abs() < 1e-12);
        assert!((TimeSpan::from_years(1.0).as_seconds() - 8766.0 * 3600.0).abs() < 1e-3);
    }

    #[test]
    fn arithmetic_and_ratio() {
        let total: TimeSpan = [TimeSpan::from_years(1.0), TimeSpan::from_months(6.0)]
            .into_iter()
            .sum();
        assert!((total.as_years() - 1.5).abs() < 1e-12);
        assert!((total / TimeSpan::from_months(6.0) - 3.0).abs() < 1e-12);
        assert!(((total * 2.0).as_years() - 3.0).abs() < 1e-12);
        assert!(((total - TimeSpan::from_years(0.5)).as_years() - 1.0).abs() < 1e-12);
        assert!(((total / 3.0).as_years() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negativity_and_bounds() {
        assert!((TimeSpan::from_years(1.0) - TimeSpan::from_years(2.0)).is_negative());
        assert!(!TimeSpan::from_years(1.0).is_negative());
        let a = TimeSpan::from_years(1.0);
        let b = TimeSpan::from_years(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", TimeSpan::from_years(2.0)), "2.00 years");
        assert_eq!(format!("{}", TimeSpan::from_months(3.0)), "3.00 months");
        assert_eq!(format!("{}", TimeSpan::from_hours(5.0)), "5.00 hours");
    }
}
