//! Property-based tests on the GreenFPGA model invariants.
//!
//! Deterministic sampling loops over [`gf_support::SplitMix64`] stand in
//! for the proptest strategies the offline environment cannot fetch.

use gf_support::SplitMix64;
use greenfpga::units::{Fraction, TimeSpan};
use greenfpga::{
    Domain, Estimator, EstimatorParams, LongHorizonScenario, OperatingPoint, PlatformKind,
    SweepAxis, Workload,
};

const CASES: usize = 64;

fn rng(test_id: u64) -> SplitMix64 {
    SplitMix64::new(0xC0DE_0000 ^ test_id)
}

fn any_domain(rng: &mut SplitMix64) -> Domain {
    Domain::ALL[rng.gen_index(Domain::ALL.len())]
}

fn estimator() -> Estimator {
    Estimator::new(EstimatorParams::paper_defaults())
}

#[test]
fn totals_are_positive_and_components_sum() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let domain = any_domain(&mut rng);
        let napps = rng.gen_range_u64(1, 11);
        let lifetime = rng.gen_range_f64(0.1, 5.0);
        let volume = rng.gen_range_u64(1, 1_999_999);
        let workload = Workload::uniform(domain, napps, lifetime, volume).unwrap();
        let c = estimator().compare_domain(&workload).unwrap();
        for cfp in [c.fpga, c.asic] {
            assert!(cfp.total().as_kg() > 0.0);
            assert!(
                (cfp.embodied() + cfp.deployment() - cfp.total())
                    .as_kg()
                    .abs()
                    < 1e-6
            );
            let component_sum: f64 = cfp.components().iter().map(|&(_, v)| v.as_kg()).sum();
            assert!((component_sum - cfp.total().as_kg()).abs() < 1e-6);
        }
    }
}

#[test]
fn asic_total_is_linear_in_application_count() {
    let mut rng = rng(2);
    for _ in 0..CASES {
        let domain = any_domain(&mut rng);
        let napps = rng.gen_range_u64(1, 7);
        let lifetime = rng.gen_range_f64(0.2, 3.0);
        let volume = rng.gen_range_u64(1_000, 999_999);
        let est = estimator();
        let one = est
            .compare_uniform(domain, 1, lifetime, volume)
            .unwrap()
            .asic
            .total()
            .as_kg();
        let many = est
            .compare_uniform(domain, napps, lifetime, volume)
            .unwrap()
            .asic
            .total()
            .as_kg();
        assert!((many - napps as f64 * one).abs() <= many.abs() * 1e-9 + 1e-6);
    }
}

#[test]
fn fpga_embodied_is_independent_of_application_count() {
    let mut rng = rng(3);
    for _ in 0..CASES {
        let domain = any_domain(&mut rng);
        let napps = rng.gen_range_u64(1, 11);
        let lifetime = rng.gen_range_f64(0.2, 3.0);
        let volume = rng.gen_range_u64(1_000, 999_999);
        let est = estimator();
        let one = est
            .compare_uniform(domain, 1, lifetime, volume)
            .unwrap()
            .fpga
            .embodied()
            .as_kg();
        let many = est
            .compare_uniform(domain, napps, lifetime, volume)
            .unwrap()
            .fpga
            .embodied()
            .as_kg();
        assert!((many - one).abs() <= one.abs() * 1e-9 + 1e-6);
    }
}

#[test]
fn more_applications_never_hurt_the_fpga_ratio() {
    let mut rng = rng(4);
    for _ in 0..CASES {
        let domain = any_domain(&mut rng);
        let napps = rng.gen_range_u64(1, 10);
        let lifetime = rng.gen_range_f64(0.2, 3.0);
        let volume = rng.gen_range_u64(1_000, 999_999);
        let est = estimator();
        let fewer = est
            .compare_uniform(domain, napps, lifetime, volume)
            .unwrap();
        let more = est
            .compare_uniform(domain, napps + 1, lifetime, volume)
            .unwrap();
        assert!(more.fpga_to_asic_ratio() <= fewer.fpga_to_asic_ratio() + 1e-9);
    }
}

#[test]
fn totals_are_monotone_in_lifetime_and_volume() {
    let mut rng = rng(5);
    for _ in 0..CASES {
        let domain = any_domain(&mut rng);
        let lifetime = rng.gen_range_f64(0.2, 2.5);
        let volume = rng.gen_range_u64(1_000, 999_999);
        let est = estimator();
        let base = est.compare_uniform(domain, 5, lifetime, volume).unwrap();
        let longer = est
            .compare_uniform(domain, 5, lifetime * 1.5, volume)
            .unwrap();
        let wider = est
            .compare_uniform(domain, 5, lifetime, volume * 2)
            .unwrap();
        assert!(longer.fpga.total() >= base.fpga.total());
        assert!(longer.asic.total() >= base.asic.total());
        assert!(wider.fpga.total() >= base.fpga.total());
        assert!(wider.asic.total() >= base.asic.total());
    }
}

#[test]
fn recycling_knobs_never_increase_the_total() {
    let mut rng = rng(6);
    for _ in 0..CASES {
        let domain = any_domain(&mut rng);
        let rho = rng.next_f64();
        let delta = rng.next_f64();
        let workload = Workload::uniform(domain, 5, 2.0, 500_000).unwrap();
        let base = estimator().compare_domain(&workload).unwrap();
        let circular = Estimator::new(
            EstimatorParams::paper_defaults()
                .with_recycled_material_fraction(Fraction::new(rho).unwrap())
                .with_eol_recycled_fraction(Fraction::new(delta).unwrap()),
        )
        .compare_domain(&workload)
        .unwrap();
        assert!(circular.fpga.total() <= base.fpga.total());
        assert!(circular.asic.total() <= base.asic.total());
    }
}

#[test]
fn crypto_fpga_wins_from_two_applications() {
    let mut rng = rng(7);
    for _ in 0..CASES {
        let napps = rng.gen_range_u64(2, 9);
        let lifetime = rng.gen_range_f64(0.2, 3.0);
        let volume = rng.gen_range_u64(10_000, 1_999_999);
        let c = estimator()
            .compare_uniform(Domain::Crypto, napps, lifetime, volume)
            .unwrap();
        assert_eq!(c.winner(), PlatformKind::Fpga);
    }
}

#[test]
fn single_application_at_volume_favors_the_asic() {
    let mut rng = rng(8);
    for _ in 0..CASES {
        let domain = any_domain(&mut rng);
        let lifetime = rng.gen_range_f64(0.5, 3.0);
        let volume = rng.gen_range_u64(500_000, 1_999_999);
        // With one application and a substantial deployment volume the FPGA
        // has no reuse advantage to amortize its larger silicon, so the ASIC
        // wins (at very low volumes the one-time ASIC design CFP can still
        // dominate, which is the Fig. 6 low-volume regime).
        let c = estimator()
            .compare_uniform(domain, 1, lifetime, volume)
            .unwrap();
        assert_eq!(c.winner(), PlatformKind::Asic);
    }
}

#[test]
fn sweep_points_match_individual_evaluations() {
    let mut rng = rng(9);
    for _ in 0..CASES {
        let domain = any_domain(&mut rng);
        let napps = rng.gen_range_u64(1, 7);
        let est = estimator();
        let base = OperatingPoint::paper_default();
        let counts: Vec<f64> = (1..=napps).map(|n| n as f64).collect();
        let series = est
            .compile(domain)
            .unwrap()
            .sweep_series(SweepAxis::Applications, &counts, base, 0)
            .unwrap();
        let last = series.points.last().unwrap();
        let direct = est
            .compare_uniform(domain, napps, base.lifetime_years, base.volume)
            .unwrap();
        assert!((last.fpga.total().as_kg() - direct.fpga.total().as_kg()).abs() < 1e-6);
        assert!((last.asic.total().as_kg() - direct.asic.total().as_kg()).abs() < 1e-6);
    }
}

#[test]
fn long_horizon_is_cumulative_and_jumps_only_at_replacements() {
    let mut rng = rng(10);
    for _ in 0..CASES {
        let domain = any_domain(&mut rng);
        let chip_lifetime = rng.gen_range_u64(5, 19);
        let est = Estimator::new(
            EstimatorParams::paper_defaults()
                .with_fpga_chip_lifetime(TimeSpan::from_years(chip_lifetime as f64)),
        );
        let scenario = LongHorizonScenario {
            domain,
            evaluation_years: 30,
            application_lifetime_years: 1,
            volume: 100_000,
        };
        let series = scenario.run(&est).unwrap();
        assert_eq!(series.len(), 30);
        for pair in series.windows(2) {
            assert!(pair[1].fpga_cumulative >= pair[0].fpga_cumulative);
            assert!(pair[1].asic_cumulative >= pair[0].asic_cumulative);
            let fleets_delta = pair[1].fpga_fleets_built - pair[0].fpga_fleets_built;
            assert!(fleets_delta <= 1);
            if fleets_delta == 1 {
                assert_eq!(pair[1].year % chip_lifetime, 1 % chip_lifetime);
            }
        }
        let expected_fleets = 1 + (30 - 1) / chip_lifetime;
        assert_eq!(series.last().unwrap().fpga_fleets_built, expected_fleets);
    }
}
