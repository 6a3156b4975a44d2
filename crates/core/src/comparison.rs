//! FPGA-vs-ASIC comparison and crossover analysis.

use std::fmt;

use crate::{CfpBreakdown, Domain, GreenFpgaError};

/// Which platform a comparison favours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// The FPGA-based platform.
    Fpga,
    /// The ASIC-based platform.
    Asic,
}

impl fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformKind::Fpga => f.write_str("FPGA"),
            PlatformKind::Asic => f.write_str("ASIC"),
        }
    }
}

/// Direction of a crossover point along a swept parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossoverDirection {
    /// ASIC-to-FPGA: below the point the ASIC has the lower CFP, above it
    /// the FPGA does (the paper's "A2F" point).
    AsicToFpga,
    /// FPGA-to-ASIC: below the point the FPGA has the lower CFP, above it
    /// the ASIC does (the paper's "F2A" point).
    FpgaToAsic,
}

impl fmt::Display for CrossoverDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossoverDirection::AsicToFpga => f.write_str("A2F"),
            CrossoverDirection::FpgaToAsic => f.write_str("F2A"),
        }
    }
}

/// A crossover point found along a swept parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossover {
    /// The value of the swept parameter at which the cheaper platform flips.
    pub at: f64,
    /// Which way the preference flips as the parameter increases.
    pub direction: CrossoverDirection,
}

/// The outcome of comparing the two platforms on the same workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformComparison {
    /// Domain the comparison was made in.
    pub domain: Domain,
    /// Total FPGA-platform footprint.
    pub fpga: CfpBreakdown,
    /// Total ASIC-platform footprint.
    pub asic: CfpBreakdown,
}

impl PlatformComparison {
    /// Creates a comparison result.
    pub fn new(domain: Domain, fpga: CfpBreakdown, asic: CfpBreakdown) -> Self {
        PlatformComparison { domain, fpga, asic }
    }

    /// FPGA total divided by ASIC total — below 1.0 the FPGA is greener.
    /// Returns `f64::INFINITY` when the ASIC total is zero.
    pub fn fpga_to_asic_ratio(&self) -> f64 {
        self.fpga
            .total()
            .ratio_to(self.asic.total())
            .unwrap_or(f64::INFINITY)
    }

    /// The platform with the lower total footprint (ties go to the ASIC,
    /// the paper's incumbent).
    pub fn winner(&self) -> PlatformKind {
        if self.fpga.total() < self.asic.total() {
            PlatformKind::Fpga
        } else {
            PlatformKind::Asic
        }
    }

    /// Carbon saved by choosing the winner over the loser (non-negative).
    pub fn savings(&self) -> gf_units::Carbon {
        (self.fpga.total() - self.asic.total()).abs()
    }
}

impl fmt::Display for PlatformComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: FPGA {} vs ASIC {} (ratio {:.2}, winner {})",
            self.domain,
            self.fpga.total(),
            self.asic.total(),
            self.fpga_to_asic_ratio(),
            self.winner()
        )
    }
}

impl crate::CompiledScenario {
    /// Finds the smallest application count in `1..=max_applications` for
    /// which the FPGA platform has the lower total CFP (the paper's A2F
    /// crossover of Fig. 4), holding the per-application lifetime and volume
    /// fixed: the closed-form root plus kernel verification of the integer
    /// boundary.
    ///
    /// Returns `Ok(None)` when the FPGA never wins within the range.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] when `max_applications` is
    /// zero, and propagates model errors.
    pub fn crossover_in_applications_verified(
        &self,
        max_applications: u64,
        lifetime_years: f64,
        volume: u64,
    ) -> Result<Option<u64>, GreenFpgaError> {
        if max_applications == 0 {
            return Err(GreenFpgaError::InvalidRange {
                what: "application count",
            });
        }
        let wins_at = |n: u64| -> Result<bool, GreenFpgaError> {
            Ok(self
                .evaluate(crate::OperatingPoint {
                    applications: n,
                    lifetime_years,
                    volume,
                })?
                .winner()
                == PlatformKind::Fpga)
        };
        // Evaluate n = 1 first: it validates lifetime/volume exactly like
        // the old scan did, and an immediate FPGA win needs no solving.
        if wins_at(1)? {
            return Ok(Some(1));
        }
        if max_applications == 1 {
            return Ok(None);
        }
        // The totals are affine in the application count, so the first
        // winning count is the first integer past the closed-form root,
        // solved from the kernel's own lines. The root sums components in
        // a different order than the kernel's totals, so the two can
        // disagree by a ulp at the boundary: confirm against the real
        // kernel and let the (monotone) difference walk the candidate at
        // most a step or two.
        let Some(crossover) = self.crossover_in_applications_analytic(lifetime_years, volume)
        else {
            return Ok(None); // Parallel totals: the n = 1 winner never flips.
        };
        if crossover.direction != CrossoverDirection::AsicToFpga {
            // A rising difference with the ASIC already ahead at n = 1
            // stays ASIC forever.
            return Ok(None);
        }
        crate::analytic::verify_integer_boundary(Some(crossover.at), 2, max_applications, wins_at)
    }

    /// Finds the application lifetime at which the preferred platform flips
    /// (the paper's F2A point of Fig. 5), holding the application count and
    /// volume fixed: the closed-form root inside `[min_years, max_years]`,
    /// once the endpoint evaluations show a flip.
    ///
    /// Returns `Ok(None)` when the same platform wins across the whole
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] for an inverted or
    /// non-finite range, and propagates model errors.
    pub fn crossover_in_lifetime_verified(
        &self,
        applications: u64,
        volume: u64,
        min_years: f64,
        max_years: f64,
    ) -> Result<Option<Crossover>, GreenFpgaError> {
        if !min_years.is_finite()
            || !max_years.is_finite()
            || min_years < 0.0
            || max_years <= min_years
        {
            return Err(GreenFpgaError::InvalidRange { what: "lifetime" });
        }
        let diff = |years: f64| -> Result<f64, GreenFpgaError> {
            let c = self.evaluate(crate::OperatingPoint {
                applications,
                lifetime_years: years,
                volume,
            })?;
            Ok(c.fpga.total().as_kg() - c.asic.total().as_kg())
        };
        // Two kernel evaluations bracket the range (and validate the held
        // parameters, like the old bisection's endpoint probes did).
        let lo_diff = diff(min_years)?;
        let hi_diff = diff(max_years)?;
        if lo_diff.signum() == hi_diff.signum() {
            return Ok(None);
        }
        // The totals are affine in the lifetime, so the crossover is the
        // closed-form root — no bisection. The endpoint signs above prove a
        // root exists inside the range; the clamp only guards the last-ulp
        // case where the multiplied-out coefficients land it a hair outside.
        let at = self
            .crossover_in_lifetime_analytic(applications, volume)
            .map_or(0.5 * (min_years + max_years), |c| c.at)
            .clamp(min_years, max_years);
        // If the FPGA wins at short lifetimes, growing the lifetime flips
        // preference to the ASIC (F2A); otherwise the flip is A2F.
        let direction = if lo_diff < 0.0 {
            CrossoverDirection::FpgaToAsic
        } else {
            CrossoverDirection::AsicToFpga
        };
        Ok(Some(Crossover { at, direction }))
    }

    /// Finds the application volume at which the preferred platform flips
    /// (the paper's F2A point of Fig. 6), holding the application count and
    /// lifetime fixed: the smallest integer volume in
    /// `min_volume + 1..=max_volume` past the flip, from the closed-form
    /// root verified against the kernel.
    ///
    /// Returns `Ok(None)` when the same platform wins across the whole
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] for an inverted or zero
    /// range, and propagates model errors.
    pub fn crossover_in_volume_verified(
        &self,
        applications: u64,
        lifetime_years: f64,
        min_volume: u64,
        max_volume: u64,
    ) -> Result<Option<Crossover>, GreenFpgaError> {
        if min_volume == 0 || max_volume <= min_volume {
            return Err(GreenFpgaError::InvalidRange { what: "volume" });
        }
        let diff = |volume: u64| -> Result<f64, GreenFpgaError> {
            let c = self.evaluate(crate::OperatingPoint {
                applications,
                lifetime_years,
                volume,
            })?;
            Ok(c.fpga.total().as_kg() - c.asic.total().as_kg())
        };
        let lo_diff = diff(min_volume)?;
        let hi_diff = diff(max_volume)?;
        if lo_diff.signum() == hi_diff.signum() {
            return Ok(None);
        }
        // The totals are affine in the volume, so the smallest integer
        // volume on the far side of the flip sits right above the
        // closed-form root. The root comes from multiplied-out coefficients,
        // so confirm the candidate against the kernel and let the
        // (monotone) difference walk it at most a step or two.
        let root = self
            .crossover_in_volume_analytic(applications, lifetime_years)
            .map_or(0.5 * (min_volume as f64 + max_volume as f64), |c| c.at);
        // The endpoint signs differ, so the flip is guaranteed in range and
        // the shared walk always lands on it.
        let Some(candidate) = crate::analytic::verify_integer_boundary(
            Some(root),
            min_volume + 1,
            max_volume,
            |v| Ok(diff(v)?.signum() != lo_diff.signum()),
        )?
        else {
            return Ok(None);
        };
        let direction = if lo_diff < 0.0 {
            CrossoverDirection::FpgaToAsic
        } else {
            CrossoverDirection::AsicToFpga
        };
        Ok(Some(Crossover {
            at: candidate as f64,
            direction,
        }))
    }
}

/// Scans a series of `(x, fpga_total_kg, asic_total_kg)` samples for sign
/// changes and reports every crossover, interpolating linearly between
/// samples.
pub(crate) fn crossovers_from_samples(samples: &[(f64, f64, f64)]) -> Vec<Crossover> {
    let mut crossovers = Vec::new();
    for pair in samples.windows(2) {
        let (x0, f0, a0) = pair[0];
        let (x1, f1, a1) = pair[1];
        let d0 = f0 - a0;
        let d1 = f1 - a1;
        if d0 == 0.0 || d0.signum() == d1.signum() {
            continue;
        }
        let t = d0 / (d0 - d1);
        let at = x0 + t * (x1 - x0);
        let direction = if d0 > 0.0 {
            CrossoverDirection::AsicToFpga
        } else {
            CrossoverDirection::FpgaToAsic
        };
        crossovers.push(Crossover { at, direction });
    }
    crossovers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Estimator;
    use gf_units::Carbon;

    fn breakdown(total_kg: f64) -> CfpBreakdown {
        CfpBreakdown {
            manufacturing: Carbon::from_kg(total_kg),
            ..CfpBreakdown::ZERO
        }
    }

    #[test]
    fn winner_and_ratio() {
        let c = PlatformComparison::new(Domain::Dnn, breakdown(50.0), breakdown(100.0));
        assert_eq!(c.winner(), PlatformKind::Fpga);
        assert!((c.fpga_to_asic_ratio() - 0.5).abs() < 1e-12);
        assert!((c.savings().as_kg() - 50.0).abs() < 1e-12);

        let c = PlatformComparison::new(Domain::Dnn, breakdown(100.0), breakdown(50.0));
        assert_eq!(c.winner(), PlatformKind::Asic);
        assert!((c.fpga_to_asic_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ties_go_to_the_asic() {
        let c = PlatformComparison::new(Domain::Crypto, breakdown(10.0), breakdown(10.0));
        assert_eq!(c.winner(), PlatformKind::Asic);
        assert_eq!(c.savings().as_kg(), 0.0);
    }

    #[test]
    fn zero_asic_total_gives_infinite_ratio() {
        let c = PlatformComparison::new(Domain::Crypto, breakdown(10.0), CfpBreakdown::ZERO);
        assert!(c.fpga_to_asic_ratio().is_infinite());
    }

    #[test]
    fn display_mentions_winner() {
        let c = PlatformComparison::new(Domain::Dnn, breakdown(50.0), breakdown(100.0));
        let s = c.to_string();
        assert!(s.contains("FPGA") && s.contains("DNN"));
        assert_eq!(PlatformKind::Fpga.to_string(), "FPGA");
        assert_eq!(CrossoverDirection::AsicToFpga.to_string(), "A2F");
        assert_eq!(CrossoverDirection::FpgaToAsic.to_string(), "F2A");
    }

    #[test]
    fn sample_crossover_detection_interpolates() {
        // FPGA starts higher (d > 0), crosses below between x=2 and x=3.
        let samples = [(1.0, 10.0, 8.0), (2.0, 9.0, 8.5), (3.0, 8.0, 9.0)];
        let crossovers = crossovers_from_samples(&samples);
        assert_eq!(crossovers.len(), 1);
        assert_eq!(crossovers[0].direction, CrossoverDirection::AsicToFpga);
        assert!(crossovers[0].at > 2.0 && crossovers[0].at < 3.0);
    }

    #[test]
    fn no_crossover_for_monotone_samples() {
        let samples = [(1.0, 10.0, 8.0), (2.0, 11.0, 8.5), (3.0, 12.0, 9.0)];
        assert!(crossovers_from_samples(&samples).is_empty());
    }

    #[test]
    fn crossover_search_validates_ranges() {
        let est = Estimator::default();
        assert!(matches!(
            est.compile(Domain::Dnn)
                .unwrap()
                .crossover_in_applications_verified(0, 2.0, 1000),
            Err(GreenFpgaError::InvalidRange { .. })
        ));
        assert!(matches!(
            est.compile(Domain::Dnn)
                .unwrap()
                .crossover_in_lifetime_verified(5, 1000, 2.0, 1.0),
            Err(GreenFpgaError::InvalidRange { .. })
        ));
        assert!(matches!(
            est.compile(Domain::Dnn)
                .unwrap()
                .crossover_in_volume_verified(5, 2.0, 0, 100),
            Err(GreenFpgaError::InvalidRange { .. })
        ));
    }

    #[test]
    fn crypto_crosses_over_immediately_after_first_application() {
        // Paper Fig. 4: for Crypto the A2F crossover is after the first
        // application because FPGA and ASIC implementations match.
        let est = Estimator::default();
        let n = est
            .compile(Domain::Crypto)
            .unwrap()
            .crossover_in_applications_verified(8, 2.0, 1_000_000)
            .unwrap()
            .expect("crypto must cross over");
        assert!(n <= 2, "crypto A2F at {n} applications");
    }

    #[test]
    fn application_crossover_handles_a_range_of_one() {
        // max_applications == 1 with a losing first application must return
        // None (the old scan's behavior), not panic in the candidate clamp.
        let est = Estimator::default();
        assert_eq!(
            est.compile(Domain::Dnn)
                .unwrap()
                .crossover_in_applications_verified(1, 2.0, 1_000_000)
                .unwrap(),
            None
        );
        // And across every domain the answer matches evaluating n = 1.
        for domain in crate::Domain::ALL {
            let wins = est
                .compile(domain)
                .unwrap()
                .evaluate(crate::OperatingPoint {
                    applications: 1,
                    lifetime_years: 2.0,
                    volume: 1_000_000,
                })
                .unwrap()
                .winner()
                == PlatformKind::Fpga;
            assert_eq!(
                est.compile(domain)
                    .unwrap()
                    .crossover_in_applications_verified(1, 2.0, 1_000_000)
                    .unwrap(),
                wins.then_some(1),
                "{domain}"
            );
        }
    }

    #[test]
    fn application_crossover_matches_brute_force_scan() {
        let est = Estimator::default();
        for domain in crate::Domain::ALL {
            let compiled = est.compile(domain).unwrap();
            for (lifetime, volume) in [(0.5, 10_000u64), (2.0, 1_000_000), (4.0, 250_000)] {
                let fast = compiled
                    .crossover_in_applications_verified(24, lifetime, volume)
                    .unwrap();
                let slow = (1..=24u64).find(|&n| {
                    compiled
                        .evaluate(crate::OperatingPoint {
                            applications: n,
                            lifetime_years: lifetime,
                            volume,
                        })
                        .unwrap()
                        .winner()
                        == PlatformKind::Fpga
                });
                assert_eq!(fast, slow, "{domain} lifetime {lifetime} volume {volume}");
            }
        }
    }

    #[test]
    fn volume_crossover_sits_exactly_on_the_sign_flip() {
        let est = Estimator::default();
        let compiled = est.compile(Domain::Dnn).unwrap();
        let diff = |v: u64| {
            let c = compiled
                .evaluate(crate::OperatingPoint {
                    applications: 5,
                    lifetime_years: 2.0,
                    volume: v,
                })
                .unwrap();
            c.fpga.total().as_kg() - c.asic.total().as_kg()
        };
        let crossover = compiled
            .crossover_in_volume_verified(5, 2.0, 1_000, 50_000_000)
            .unwrap()
            .expect("dnn crosses over in volume");
        let at = crossover.at as u64;
        let lo_sign = diff(1_000).signum();
        assert_ne!(diff(at).signum(), lo_sign, "sign must flip at {at}");
        assert_eq!(
            diff(at - 1).signum(),
            lo_sign,
            "{at} must be the first flip"
        );
    }

    #[test]
    fn lifetime_crossover_root_zeroes_the_difference() {
        let est = Estimator::default();
        let compiled = est.compile(Domain::Dnn).unwrap();
        let crossover = compiled
            .crossover_in_lifetime_verified(5, 1_000_000, 0.2, 2.5)
            .unwrap()
            .expect("dnn crosses over in lifetime");
        let c = compiled
            .evaluate(crate::OperatingPoint {
                applications: 5,
                lifetime_years: crossover.at,
                volume: 1_000_000,
            })
            .unwrap();
        let scale = c.asic.total().as_kg().abs();
        assert!(
            (c.fpga.total().as_kg() - c.asic.total().as_kg()).abs() <= 1e-9 * scale,
            "difference at the analytic root must vanish"
        );
    }

    #[test]
    fn dnn_lifetime_crossover_is_f2a_and_near_paper_value() {
        // Paper Fig. 5: DNN F2A at ~1.6 years for 5 applications, 1M units.
        let est = Estimator::default();
        let crossover = est
            .compile(Domain::Dnn)
            .unwrap()
            .crossover_in_lifetime_verified(5, 1_000_000, 0.2, 2.5)
            .unwrap()
            .expect("dnn must cross over in lifetime");
        assert_eq!(crossover.direction, CrossoverDirection::FpgaToAsic);
        assert!(
            crossover.at > 0.8 && crossover.at < 2.5,
            "F2A lifetime {} years is out of the expected band",
            crossover.at
        );
    }
}
