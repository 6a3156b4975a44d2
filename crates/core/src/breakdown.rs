//! Per-component carbon-footprint breakdown.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

use gf_units::Carbon;

use crate::{GreenFpgaError, PlatformKind};

/// A total carbon footprint broken down into the lifecycle components the
/// paper tracks (Fig. 3 / Fig. 7 / Figs. 10–11).
///
/// * Embodied components: design, manufacturing, packaging, end-of-life.
/// * Deployment components: field operation and application development.
///
/// # Examples
///
/// ```
/// use greenfpga::CfpBreakdown;
/// use gf_units::Carbon;
///
/// let mut cfp = CfpBreakdown::ZERO;
/// cfp.manufacturing = Carbon::from_kg(5.0);
/// cfp.operation = Carbon::from_kg(2.0);
/// assert_eq!(cfp.embodied(), Carbon::from_kg(5.0));
/// assert_eq!(cfp.total(), Carbon::from_kg(7.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CfpBreakdown {
    /// Design-phase footprint (`C_des`, Eq. 4).
    pub design: Carbon,
    /// Wafer manufacturing footprint (`C_mfg`).
    pub manufacturing: Carbon,
    /// Package manufacture and assembly footprint (`C_package`).
    pub packaging: Carbon,
    /// End-of-life footprint (`C_EOL`, Eq. 6; may be a credit).
    pub eol: Carbon,
    /// Field-operation footprint (`C_op`).
    pub operation: Carbon,
    /// Application-development footprint (`C_app-dev`, Eq. 7).
    pub app_dev: Carbon,
}

impl CfpBreakdown {
    /// The all-zero breakdown.
    pub const ZERO: CfpBreakdown = CfpBreakdown {
        design: Carbon::ZERO,
        manufacturing: Carbon::ZERO,
        packaging: Carbon::ZERO,
        eol: Carbon::ZERO,
        operation: Carbon::ZERO,
        app_dev: Carbon::ZERO,
    };

    /// Embodied carbon: design + manufacturing + packaging + end-of-life.
    pub fn embodied(&self) -> Carbon {
        self.design + self.manufacturing + self.packaging + self.eol
    }

    /// Deployment (operational) carbon: field operation + application
    /// development.
    pub fn deployment(&self) -> Carbon {
        self.operation + self.app_dev
    }

    /// Total carbon footprint.
    pub fn total(&self) -> Carbon {
        self.embodied() + self.deployment()
    }

    /// Fraction of the embodied footprint contributed by the design phase —
    /// the paper reports ~15% for industry FPGAs.
    pub fn design_share_of_embodied(&self) -> Option<f64> {
        self.design.ratio_to(self.embodied())
    }

    /// Named components in display order, for table/CSV rendering.
    pub fn components(&self) -> [(&'static str, Carbon); 6] {
        [
            ("design", self.design),
            ("manufacturing", self.manufacturing),
            ("packaging", self.packaging),
            ("eol", self.eol),
            ("operation", self.operation),
            ("app_dev", self.app_dev),
        ]
    }

    /// `self` when its total is a finite number; otherwise the
    /// [`GreenFpgaError::NonFinite`] naming the first non-finite component
    /// (or `total` when only the sum overflows). Every evaluation path
    /// applies this to the breakdowns it produces, so a result that JSON
    /// cannot carry is a model error, not a serialization failure.
    #[inline]
    pub fn finite(self, platform: PlatformKind) -> Result<CfpBreakdown, GreenFpgaError> {
        self.finite_total(platform).map(|_| self)
    }

    /// [`CfpBreakdown::finite`] returning the checked total itself, for
    /// callers that need only the sum.
    #[inline]
    pub(crate) fn finite_total(self, platform: PlatformKind) -> Result<Carbon, GreenFpgaError> {
        let total = self.total();
        if total.as_kg().is_finite() {
            Ok(total)
        } else {
            Err(self.non_finite(platform))
        }
    }

    /// The error path of [`CfpBreakdown::finite`], kept out of line so the
    /// check itself stays a sum and a compare where it inlines.
    #[cold]
    #[inline(never)]
    fn non_finite(&self, platform: PlatformKind) -> GreenFpgaError {
        let component = self
            .components()
            .into_iter()
            .find(|(_, carbon)| !carbon.as_kg().is_finite())
            .map_or("total", |(name, _)| name);
        GreenFpgaError::NonFinite {
            what: format!("the {platform} {component} footprint"),
        }
    }

    /// Scales every component by a constant (e.g. per-chip → per-fleet).
    pub fn scaled(&self, factor: f64) -> CfpBreakdown {
        CfpBreakdown {
            design: self.design * factor,
            manufacturing: self.manufacturing * factor,
            packaging: self.packaging * factor,
            eol: self.eol * factor,
            operation: self.operation * factor,
            app_dev: self.app_dev * factor,
        }
    }
}

impl Add for CfpBreakdown {
    type Output = CfpBreakdown;
    fn add(self, rhs: CfpBreakdown) -> CfpBreakdown {
        CfpBreakdown {
            design: self.design + rhs.design,
            manufacturing: self.manufacturing + rhs.manufacturing,
            packaging: self.packaging + rhs.packaging,
            eol: self.eol + rhs.eol,
            operation: self.operation + rhs.operation,
            app_dev: self.app_dev + rhs.app_dev,
        }
    }
}

impl AddAssign for CfpBreakdown {
    fn add_assign(&mut self, rhs: CfpBreakdown) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for CfpBreakdown {
    type Output = CfpBreakdown;
    fn mul(self, rhs: f64) -> CfpBreakdown {
        self.scaled(rhs)
    }
}

impl Sum for CfpBreakdown {
    fn sum<I: Iterator<Item = CfpBreakdown>>(iter: I) -> CfpBreakdown {
        iter.fold(CfpBreakdown::ZERO, |acc, b| acc + b)
    }
}

impl fmt::Display for CfpBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {} (embodied {}, deployment {})",
            self.total(),
            self.embodied(),
            self.deployment()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CfpBreakdown {
        CfpBreakdown {
            design: Carbon::from_kg(10.0),
            manufacturing: Carbon::from_kg(50.0),
            packaging: Carbon::from_kg(5.0),
            eol: Carbon::from_kg(-1.0),
            operation: Carbon::from_kg(30.0),
            app_dev: Carbon::from_kg(6.0),
        }
    }

    #[test]
    fn embodied_deployment_total_are_consistent() {
        let b = sample();
        assert!((b.embodied().as_kg() - 64.0).abs() < 1e-12);
        assert!((b.deployment().as_kg() - 36.0).abs() < 1e-12);
        assert!((b.total().as_kg() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn design_share_matches_hand_calculation() {
        let b = sample();
        assert!((b.design_share_of_embodied().unwrap() - 10.0 / 64.0).abs() < 1e-12);
        assert_eq!(CfpBreakdown::ZERO.design_share_of_embodied(), None);
    }

    #[test]
    fn addition_and_sum_are_componentwise() {
        let b = sample();
        let doubled = b + b;
        assert_eq!(doubled, b.scaled(2.0));
        let total: CfpBreakdown = [b, b, b].into_iter().sum();
        assert!((total.total().as_kg() - 300.0).abs() < 1e-9);
        let mut acc = CfpBreakdown::ZERO;
        acc += b;
        assert_eq!(acc, b);
        assert_eq!(b * 2.0, doubled);
    }

    #[test]
    fn components_list_all_six_fields() {
        let b = sample();
        let names: Vec<&str> = b.components().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "design",
                "manufacturing",
                "packaging",
                "eol",
                "operation",
                "app_dev"
            ]
        );
        let component_sum: Carbon = b.components().iter().map(|&(_, c)| c).sum();
        assert!((component_sum.as_kg() - b.total().as_kg()).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_total() {
        assert!(sample().to_string().contains("total"));
    }
}
