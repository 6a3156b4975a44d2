//! Closed-form crossover analysis on compiled scenarios.
//!
//! The paper's headline artifacts — the application count, lifetime and
//! volume at which the ASIC's embodied+operational carbon overtakes the
//! FPGA's — are roots of `fpga(x) = asic(x)`. Both totals are **affine** in
//! each swept workload parameter:
//!
//! * applications `N`: the FPGA pays embodied once plus `N` deployments,
//!   the ASIC pays `N` × (embodied + deployment) — both `a + b·N`;
//! * lifetime `T`: only field operation depends on `T`, linearly
//!   (`C_op = rate · T`);
//! * volume `V`: fleet hardware, operation and the per-device
//!   configuration share of Eq. (7) all scale linearly with `V`.
//!
//! So instead of scanning application counts one by one or bisecting
//! lifetime/volume ranges through dozens of model evaluations,
//! [`CompiledScenario::totals_affine`] reads the two `(intercept, slope)`
//! pairs straight off the compiled platform coefficients and
//! [`AffineComparison::crossover`] solves for the root in O(1). The sampled
//! path ([`crate::SweepSeries::crossovers`], which interpolates a dense
//! sweep) is kept as the cross-check oracle; golden tests hold the two
//! within 1e-9.

use crate::{
    CompiledScenario, Crossover, CrossoverDirection, GreenFpgaError, OperatingPoint, PlatformKind,
    SweepAxis,
};

/// Kernel-verifies an integer boundary predicted by the affine algebra.
///
/// `flipped(x)` is a monotone predicate over `lo..=hi` — `false` below some
/// boundary, `true` at and above it (a winner flip, a budget bust, a sign
/// change). The affine root predicts where the boundary sits, but the root
/// is solved from component sums while the kernel compares breakdown
/// totals, so the two can disagree by a ulp: seed the candidate from the
/// prediction, then walk it against the real kernel — at most a step or
/// two in practice.
///
/// Returns the first `x` in `lo..=hi` with `flipped(x)`, or `None` when
/// the predicate never flips in range. Both the crossover searches
/// ([`CompiledScenario::crossover_in_applications_verified`],
/// [`CompiledScenario::crossover_in_volume_verified`]) and the optimizer's
/// budget solve ([`CompiledScenario::optimize`]) go through this one
/// helper, so their integer-boundary semantics cannot drift.
///
/// # Errors
///
/// Propagates the predicate's evaluation errors.
pub(crate) fn verify_integer_boundary(
    predicted_root: Option<f64>,
    lo: u64,
    hi: u64,
    mut flipped: impl FnMut(u64) -> Result<bool, GreenFpgaError>,
) -> Result<Option<u64>, GreenFpgaError> {
    debug_assert!(lo <= hi);
    let mut candidate = match predicted_root {
        // The first integer strictly past the real-valued root, clamped
        // into range.
        Some(root) if root.is_finite() => {
            if root < lo as f64 {
                lo
            } else if root >= hi as f64 {
                hi
            } else {
                root.floor() as u64 + 1
            }
        }
        _ => lo,
    };
    candidate = candidate.clamp(lo, hi);
    loop {
        if flipped(candidate)? {
            break;
        }
        if candidate >= hi {
            return Ok(None);
        }
        candidate += 1;
    }
    while candidate > lo && flipped(candidate - 1)? {
        candidate -= 1;
    }
    Ok(Some(candidate))
}

/// An affine total `intercept + slope · x` (kilograms CO₂e) of one platform
/// along one swept workload parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineTotal {
    /// Total at `x = 0`, in kg CO₂e.
    pub intercept_kg: f64,
    /// Increase of the total per unit of the swept parameter, in kg CO₂e.
    pub slope_kg: f64,
}

impl AffineTotal {
    /// Evaluates the total at `x`.
    pub fn at(&self, x: f64) -> f64 {
        self.intercept_kg + self.slope_kg * x
    }
}

/// Both platforms' totals as affine functions of one swept parameter, with
/// the other two workload parameters held at a base operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineComparison {
    /// The swept parameter.
    pub axis: SweepAxis,
    /// The base operating point supplying the two held parameters.
    pub base: OperatingPoint,
    /// FPGA-platform total as a function of the swept parameter.
    pub fpga: AffineTotal,
    /// ASIC-platform total as a function of the swept parameter.
    pub asic: AffineTotal,
}

impl AffineComparison {
    /// `fpga(x) − asic(x)` in kg CO₂e; negative where the FPGA is greener.
    pub fn diff_at(&self, x: f64) -> f64 {
        self.fpga.at(x) - self.asic.at(x)
    }

    /// The platform with the lower total at `x` (ties go to the ASIC, like
    /// [`crate::PlatformComparison::winner`]).
    pub fn winner_at(&self, x: f64) -> PlatformKind {
        if self.diff_at(x) < 0.0 {
            PlatformKind::Fpga
        } else {
            PlatformKind::Asic
        }
    }

    /// Solves `fpga(x) = asic(x)` exactly.
    ///
    /// Returns `None` when the totals are parallel (no root, or identical
    /// everywhere) or the root is not finite. The crossover direction
    /// follows the sign of the difference's slope: a falling difference
    /// means the FPGA takes over as the parameter grows (A2F), a rising one
    /// means the ASIC does (F2A).
    pub fn crossover(&self) -> Option<Crossover> {
        let slope = self.fpga.slope_kg - self.asic.slope_kg;
        let intercept = self.fpga.intercept_kg - self.asic.intercept_kg;
        if slope == 0.0 {
            return None;
        }
        let at = -intercept / slope;
        if !at.is_finite() {
            return None;
        }
        let direction = if slope < 0.0 {
            CrossoverDirection::AsicToFpga
        } else {
            CrossoverDirection::FpgaToAsic
        };
        Some(Crossover { at, direction })
    }

    /// [`AffineComparison::crossover`] restricted to `[min, max]`: returns
    /// `None` when the root falls outside the closed range.
    pub fn crossover_in(&self, min: f64, max: f64) -> Option<Crossover> {
        self.crossover().filter(|c| c.at >= min && c.at <= max)
    }
}

impl CompiledScenario {
    /// Reads both platforms' totals as affine functions of `axis` off the
    /// compiled coefficients, holding the other two workload parameters at
    /// `base`.
    ///
    /// Along the application axis the lines are the kernel's own
    /// (`fixed + n × per_application`), summed over components;
    /// lifetime and volume multiply the coefficients out. Either way the
    /// affine model sums in a different order than the kernel's breakdown
    /// total, so the two agree to floating-point rounding — a few ulp, not
    /// bit-identity; golden tests hold them to ≤1e-9 relative, and integer
    /// boundaries are confirmed against the kernel.
    pub fn totals_affine(&self, axis: SweepAxis, base: OperatingPoint) -> AffineComparison {
        let napps = base.applications as f64;
        let years = base.lifetime_years;
        let volume = base.volume as f64;

        // Per-platform coefficients (kg CO₂e).
        let coeff = |p: &crate::CompiledPlatform| {
            (
                p.design().as_kg(),
                p.hardware_per_chip().as_kg(),
                p.chips_per_unit() as f64,
                p.operation_kg_per_device_year(),
                p.appdev_per_application_kg(),
                p.appdev_per_device_kg(),
            )
        };
        let (fd, fh, fc, fr, fa, fg) = coeff(self.fpga());
        let (ad, ah, ac, ar, aa, ag) = coeff(self.asic());

        // FPGA (Eq. 2): design + fleet hardware once, then per application
        // operation + app-dev over `V·chips_per_unit` devices.
        //   F(N,T,V) = fd + V·fc·fh + N·(V·fc·fr·T + fa + fg·V·fc)
        // ASIC (Eq. 1): every application pays embodied and deployment.
        //   A(N,T,V) = N·(ad + V·ac·ah + V·ac·ar·T + aa + ag·V·ac)
        let (fpga, asic) = match axis {
            SweepAxis::Applications => {
                let line = |l: crate::eval::ApplicationLine| AffineTotal {
                    intercept_kg: l.fixed.total().as_kg(),
                    slope_kg: l.per_application.total().as_kg(),
                };
                let (fpga, asic) =
                    self.application_lines(gf_units::TimeSpan::from_years(years), base.volume);
                (line(fpga), line(asic))
            }
            SweepAxis::LifetimeYears => (
                AffineTotal {
                    intercept_kg: fd + volume * fc * fh + napps * (fa + fg * volume * fc),
                    slope_kg: napps * volume * fc * fr,
                },
                AffineTotal {
                    intercept_kg: napps * (ad + volume * ac * ah + aa + ag * volume * ac),
                    slope_kg: napps * volume * ac * ar,
                },
            ),
            SweepAxis::VolumeUnits => (
                AffineTotal {
                    intercept_kg: fd + napps * fa,
                    slope_kg: fc * (fh + napps * (fr * years + fg)),
                },
                AffineTotal {
                    intercept_kg: napps * (ad + aa),
                    slope_kg: napps * ac * (ah + ar * years + ag),
                },
            ),
        };
        AffineComparison {
            axis,
            base,
            fpga,
            asic,
        }
    }

    /// Closed-form solution of `fpga(N) = asic(N)` over the application
    /// count, holding lifetime and volume fixed (the paper's Fig. 4 axis).
    /// The root is real-valued; the first integer count at which the FPGA
    /// actually wins is `floor(at) + 1` (see
    /// [`CompiledScenario::crossover_in_applications_verified`]).
    pub fn crossover_in_applications_analytic(
        &self,
        lifetime_years: f64,
        volume: u64,
    ) -> Option<Crossover> {
        self.totals_affine(
            SweepAxis::Applications,
            OperatingPoint {
                applications: 1,
                lifetime_years,
                volume,
            },
        )
        .crossover()
    }

    /// Closed-form solution of `fpga(T) = asic(T)` over the application
    /// lifetime, holding the application count and volume fixed (the
    /// paper's Fig. 5 axis).
    pub fn crossover_in_lifetime_analytic(
        &self,
        applications: u64,
        volume: u64,
    ) -> Option<Crossover> {
        self.totals_affine(
            SweepAxis::LifetimeYears,
            OperatingPoint {
                applications,
                lifetime_years: 0.0,
                volume,
            },
        )
        .crossover()
    }

    /// Closed-form solution of `fpga(V) = asic(V)` over the application
    /// volume, holding the application count and lifetime fixed (the
    /// paper's Fig. 6 axis).
    pub fn crossover_in_volume_analytic(
        &self,
        applications: u64,
        lifetime_years: f64,
    ) -> Option<Crossover> {
        self.totals_affine(
            SweepAxis::VolumeUnits,
            OperatingPoint {
                applications,
                lifetime_years,
                volume: 1,
            },
        )
        .crossover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, Estimator};

    fn compiled(domain: Domain) -> CompiledScenario {
        Estimator::default().compile(domain).unwrap()
    }

    /// Relative agreement between the affine model and the evaluation
    /// kernel at a specific point along an axis.
    fn assert_affine_matches_kernel(domain: Domain, axis: SweepAxis, xs: &[f64]) {
        let scenario = compiled(domain);
        let base = OperatingPoint::paper_default();
        let affine = scenario.totals_affine(axis, base);
        for &x in xs {
            let point = match axis {
                SweepAxis::Applications => OperatingPoint {
                    applications: x as u64,
                    ..base
                },
                SweepAxis::LifetimeYears => OperatingPoint {
                    lifetime_years: x,
                    ..base
                },
                SweepAxis::VolumeUnits => OperatingPoint {
                    volume: x as u64,
                    ..base
                },
            };
            let kernel = scenario.evaluate(point).unwrap();
            let fpga_kernel = kernel.fpga.total().as_kg();
            let asic_kernel = kernel.asic.total().as_kg();
            let tol = 1e-9;
            assert!(
                (affine.fpga.at(x) - fpga_kernel).abs() <= tol * fpga_kernel.abs(),
                "{domain} {axis:?} fpga at {x}: affine {} vs kernel {fpga_kernel}",
                affine.fpga.at(x)
            );
            assert!(
                (affine.asic.at(x) - asic_kernel).abs() <= tol * asic_kernel.abs(),
                "{domain} {axis:?} asic at {x}: affine {} vs kernel {asic_kernel}",
                affine.asic.at(x)
            );
        }
    }

    #[test]
    fn affine_model_matches_kernel_along_every_axis() {
        for domain in Domain::ALL {
            assert_affine_matches_kernel(
                domain,
                SweepAxis::Applications,
                &[1.0, 2.0, 5.0, 16.0, 64.0],
            );
            assert_affine_matches_kernel(domain, SweepAxis::LifetimeYears, &[0.05, 0.5, 2.0, 7.5]);
            assert_affine_matches_kernel(
                domain,
                SweepAxis::VolumeUnits,
                &[1.0, 1_000.0, 250_000.0, 10_000_000.0],
            );
        }
    }

    #[test]
    fn dnn_lifetime_crossover_is_f2a_near_the_paper_band() {
        let c = compiled(Domain::Dnn)
            .crossover_in_lifetime_analytic(5, 1_000_000)
            .expect("dnn crosses over in lifetime");
        assert_eq!(c.direction, CrossoverDirection::FpgaToAsic);
        assert!(c.at > 0.8 && c.at < 2.5, "F2A at {} years", c.at);
    }

    #[test]
    fn root_zeroes_the_difference() {
        let scenario = compiled(Domain::Dnn);
        let affine =
            scenario.totals_affine(SweepAxis::LifetimeYears, OperatingPoint::paper_default());
        let root = affine.crossover().unwrap().at;
        let scale = affine.fpga.at(root).abs().max(1.0);
        assert!(affine.diff_at(root).abs() <= 1e-9 * scale);
        // Winner flips across the root.
        assert_ne!(affine.winner_at(root - 0.1), affine.winner_at(root + 0.1));
    }

    #[test]
    fn crossover_in_respects_range() {
        let scenario = compiled(Domain::Dnn);
        let affine =
            scenario.totals_affine(SweepAxis::LifetimeYears, OperatingPoint::paper_default());
        let root = affine.crossover().unwrap().at;
        assert!(affine.crossover_in(root - 1.0, root + 1.0).is_some());
        assert!(affine.crossover_in(root + 1.0, root + 2.0).is_none());
        assert!(affine.crossover_in(root - 2.0, root - 1.0).is_none());
    }

    /// Property: for every monotone predicate and every predicted root
    /// (accurate, a ulp off, wildly wrong, or absent), the shared boundary
    /// walk lands exactly on the brute-force first-flipped integer.
    #[test]
    fn integer_boundary_walk_matches_brute_force_scan() {
        let (lo, hi) = (2u64, 40u64);
        for boundary in lo..=hi + 1 {
            let flipped = |x: u64| Ok(x >= boundary);
            let oracle = (lo..=hi).find(|&x| x >= boundary);
            for predicted in [
                None,
                Some(boundary as f64 - 1.0),
                Some(boundary as f64 - 0.5),
                Some(boundary as f64 + 1.5),
                Some(-7.0),
                Some(1e9),
                Some(f64::NAN),
            ] {
                let got = verify_integer_boundary(predicted, lo, hi, flipped).unwrap();
                assert_eq!(got, oracle, "boundary {boundary}, predicted {predicted:?}");
            }
        }
    }

    /// The crossover search and the optimizer both route integer-boundary
    /// verification through the shared helper; cross-check the helper on a
    /// real kernel predicate against a dense scan.
    #[test]
    fn integer_boundary_walk_matches_kernel_scan() {
        let scenario = compiled(Domain::Dnn);
        let base = OperatingPoint::paper_default();
        let wins_at = |n: u64| -> Result<bool, GreenFpgaError> {
            Ok(scenario
                .evaluate(OperatingPoint {
                    applications: n,
                    ..base
                })?
                .winner()
                == PlatformKind::Fpga)
        };
        let oracle = (2..=64u64).find(|&n| {
            scenario
                .evaluate(OperatingPoint {
                    applications: n,
                    ..base
                })
                .unwrap()
                .winner()
                == PlatformKind::Fpga
        });
        let root = scenario
            .crossover_in_applications_analytic(base.lifetime_years, base.volume)
            .map(|c| c.at);
        let got = verify_integer_boundary(root, 2, 64, wins_at).unwrap();
        assert_eq!(got, oracle);
        assert!(got.is_some(), "dnn flips within 64 applications");
    }

    #[test]
    fn parallel_totals_have_no_crossover() {
        let affine = AffineComparison {
            axis: SweepAxis::LifetimeYears,
            base: OperatingPoint::paper_default(),
            fpga: AffineTotal {
                intercept_kg: 10.0,
                slope_kg: 2.0,
            },
            asic: AffineTotal {
                intercept_kg: 4.0,
                slope_kg: 2.0,
            },
        };
        assert!(affine.crossover().is_none());
        assert_eq!(affine.winner_at(0.0), PlatformKind::Asic);
    }
}
