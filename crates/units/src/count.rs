//! Discrete counts: equivalent logic gates and chip volumes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Sub};

/// A count of equivalent logic gates.
///
/// The paper sizes both applications and FPGA capacity "in terms of
/// equivalent logic gates" and derives the number of FPGAs per application as
/// `ceil(appsize / FPGAcapacity)`; [`GateCount::fpgas_required`] implements
/// exactly that ceiling division.
///
/// # Examples
///
/// ```
/// use gf_units::GateCount;
///
/// let app = GateCount::new(25_000_000);
/// let capacity = GateCount::new(10_000_000);
/// assert_eq!(app.fpgas_required(capacity), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GateCount(u64);

impl GateCount {
    /// Zero gates.
    pub const ZERO: GateCount = GateCount(0);

    /// Creates a gate count.
    pub fn new(gates: u64) -> Self {
        GateCount(gates)
    }

    /// Creates a gate count expressed in millions of gates.
    pub fn from_millions(millions: f64) -> Self {
        GateCount((millions * 1.0e6).round() as u64)
    }

    /// Returns the raw number of gates.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Returns the count in millions of gates.
    pub fn as_millions(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Number of FPGAs of the given `capacity` needed to hold an application
    /// of this size: `ceil(self / capacity)` (the paper's `N_FPGA`).
    ///
    /// Returns 0 only when the application itself has zero gates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero while the application is non-empty — an
    /// FPGA with no capacity cannot host anything.
    pub fn fpgas_required(self, capacity: GateCount) -> u64 {
        if self.0 == 0 {
            return 0;
        }
        assert!(capacity.0 > 0, "FPGA capacity must be non-zero");
        self.0.div_ceil(capacity.0)
    }

    /// Ratio of this gate count to another, as a scalar (used by the design
    /// CFP model's `N_gates / N_gates,des` term).
    ///
    /// Returns `None` when `other` is zero.
    pub fn ratio_to(self, other: GateCount) -> Option<f64> {
        if other.0 == 0 {
            None
        } else {
            Some(self.0 as f64 / other.0 as f64)
        }
    }

    /// Saturating addition of two gate counts.
    pub fn saturating_add(self, other: GateCount) -> GateCount {
        GateCount(self.0.saturating_add(other.0))
    }
}

impl Add for GateCount {
    type Output = GateCount;
    fn add(self, rhs: GateCount) -> GateCount {
        GateCount(self.0 + rhs.0)
    }
}

impl Sub for GateCount {
    type Output = GateCount;
    fn sub(self, rhs: GateCount) -> GateCount {
        GateCount(self.0 - rhs.0)
    }
}

impl Mul<u64> for GateCount {
    type Output = GateCount;
    fn mul(self, rhs: u64) -> GateCount {
        GateCount(self.0 * rhs)
    }
}

impl Sum for GateCount {
    fn sum<I: Iterator<Item = GateCount>>(iter: I) -> GateCount {
        iter.fold(GateCount::ZERO, |acc, g| acc + g)
    }
}

impl fmt::Display for GateCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2} Mgates", self.as_millions())
        } else {
            write!(f, "{} gates", self.0)
        }
    }
}

/// A count of manufactured chips (the paper's application volume `N_vol`).
///
/// # Examples
///
/// ```
/// use gf_units::ChipCount;
///
/// let vol = ChipCount::new(1_000_000);
/// assert_eq!(format!("{vol}"), "1.00 M units");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChipCount(u64);

impl ChipCount {
    /// Zero chips.
    pub const ZERO: ChipCount = ChipCount(0);

    /// Creates a chip count.
    pub fn new(chips: u64) -> Self {
        ChipCount(chips)
    }

    /// Creates a chip count expressed in thousands of units.
    pub fn from_thousands(thousands: f64) -> Self {
        ChipCount((thousands * 1.0e3).round() as u64)
    }

    /// Creates a chip count expressed in millions of units.
    pub fn from_millions(millions: f64) -> Self {
        ChipCount((millions * 1.0e6).round() as u64)
    }

    /// Returns the raw number of chips.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Returns the count as a floating-point number (for scaling footprints).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Returns `true` when the count is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for ChipCount {
    type Output = ChipCount;
    fn add(self, rhs: ChipCount) -> ChipCount {
        ChipCount(self.0 + rhs.0)
    }
}

impl Sub for ChipCount {
    type Output = ChipCount;
    fn sub(self, rhs: ChipCount) -> ChipCount {
        ChipCount(self.0 - rhs.0)
    }
}

impl Mul<u64> for ChipCount {
    type Output = ChipCount;
    fn mul(self, rhs: u64) -> ChipCount {
        ChipCount(self.0 * rhs)
    }
}

impl Div<u64> for ChipCount {
    type Output = ChipCount;
    fn div(self, rhs: u64) -> ChipCount {
        ChipCount(self.0 / rhs)
    }
}

impl Sum for ChipCount {
    fn sum<I: Iterator<Item = ChipCount>>(iter: I) -> ChipCount {
        iter.fold(ChipCount::ZERO, |acc, c| acc + c)
    }
}

impl fmt::Display for ChipCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2} M units", self.0 as f64 / 1.0e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.2} K units", self.0 as f64 / 1.0e3)
        } else {
            write!(f, "{} units", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpgas_required_is_ceiling_division() {
        let cap = GateCount::new(10);
        assert_eq!(GateCount::new(0).fpgas_required(cap), 0);
        assert_eq!(GateCount::new(1).fpgas_required(cap), 1);
        assert_eq!(GateCount::new(10).fpgas_required(cap), 1);
        assert_eq!(GateCount::new(11).fpgas_required(cap), 2);
        assert_eq!(GateCount::new(100).fpgas_required(cap), 10);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn fpgas_required_rejects_zero_capacity() {
        let _ = GateCount::new(5).fpgas_required(GateCount::ZERO);
    }

    #[test]
    fn gate_ratio() {
        let a = GateCount::from_millions(30.0);
        let b = GateCount::from_millions(10.0);
        assert!((a.ratio_to(b).unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(a.ratio_to(GateCount::ZERO), None);
        assert!((a.as_millions() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn gate_arithmetic() {
        let total: GateCount = [GateCount::new(5), GateCount::new(7)].into_iter().sum();
        assert_eq!(total.get(), 12);
        assert_eq!((total * 2).get(), 24);
        assert_eq!((total - GateCount::new(2)).get(), 10);
        assert_eq!(
            GateCount::new(u64::MAX)
                .saturating_add(GateCount::new(1))
                .get(),
            u64::MAX
        );
    }

    #[test]
    fn chip_count_constructors() {
        assert_eq!(ChipCount::from_thousands(300.0).get(), 300_000);
        assert_eq!(ChipCount::from_millions(2.0).get(), 2_000_000);
        assert!(ChipCount::ZERO.is_zero());
        assert!(!ChipCount::new(1).is_zero());
        assert!((ChipCount::new(42).as_f64() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn chip_arithmetic_and_display() {
        let total: ChipCount = [ChipCount::new(100), ChipCount::new(50)].into_iter().sum();
        assert_eq!(total.get(), 150);
        assert_eq!((total * 2).get(), 300);
        assert_eq!((total / 3).get(), 50);
        assert_eq!((total - ChipCount::new(50)).get(), 100);
        assert_eq!(format!("{}", ChipCount::new(999)), "999 units");
        assert_eq!(format!("{}", ChipCount::new(300_000)), "300.00 K units");
        assert_eq!(format!("{}", ChipCount::new(2_000_000)), "2.00 M units");
    }

    #[test]
    fn gate_display() {
        assert_eq!(format!("{}", GateCount::new(500)), "500 gates");
        assert_eq!(
            format!("{}", GateCount::from_millions(12.5)),
            "12.50 Mgates"
        );
    }
}
