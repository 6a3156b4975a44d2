//! Golden tests for the adaptive analysis engine (closed-form crossovers,
//! the per-row bisection frontier and the batch kernel).
//!
//! The closed-form crossover solver must agree with the sampled oracle —
//! dense sweeps scanned for sign changes with linear interpolation
//! ([`greenfpga::SweepSeries::crossovers`]) — to 1e-9 on every axis, in
//! every domain. (The model is affine along each axis, so linear
//! interpolation of the dense sweep is itself exact up to floating-point
//! rounding: any disagreement is a solver bug, not an oracle artifact.)
//! The adaptive frontier must rasterize to exactly the winner mask of the
//! dense grid, from a small fraction of its evaluations. And the SoA kernel
//! must be bit-identical to point-wise evaluation while reusing its buffer
//! across batches.

use greenfpga::{
    CrossoverDirection, Domain, Estimator, EstimatorParams, OperatingPoint, ResultBuffer, SweepAxis,
};

fn estimator() -> Estimator {
    Estimator::new(EstimatorParams::paper_defaults())
}

/// Asserts two crossover coordinates agree to 1e-9 relative.
fn assert_crossover_close(label: &str, analytic: f64, oracle: f64) {
    let tolerance = 1e-9 * oracle.abs().max(1.0);
    assert!(
        (analytic - oracle).abs() <= tolerance,
        "{label}: analytic {analytic} vs sampled oracle {oracle}"
    );
}

#[test]
fn golden_analytic_crossovers_match_the_sampled_oracle() {
    let est = estimator();
    let base = OperatingPoint::paper_default();
    for domain in Domain::ALL {
        let compiled = est.compile(domain).unwrap();

        // Applications axis: dense integer sweep 1..=64.
        let counts: Vec<f64> = (1..=64).map(|n| n as f64).collect();
        let series = compiled
            .sweep_series(SweepAxis::Applications, &counts, base, 0)
            .unwrap();
        let oracle = series.crossovers();
        assert!(
            oracle.len() <= 1,
            "{domain}: affine diff crosses at most once"
        );
        let analytic =
            compiled.crossover_in_applications_analytic(base.lifetime_years, base.volume);
        match oracle.first() {
            Some(c) => {
                let a = analytic.expect("oracle found a crossover the solver missed");
                assert_eq!(a.direction, c.direction, "{domain} applications direction");
                assert_crossover_close(&format!("{domain} applications"), a.at, c.at);
            }
            None => {
                // No sampled crossover: any analytic root must sit outside
                // the swept range.
                if let Some(a) = analytic {
                    assert!(
                        !(1.0..=64.0).contains(&a.at),
                        "{domain}: analytic root {} inside the swept range but unseen by the oracle",
                        a.at
                    );
                }
            }
        }

        // Lifetime axis: dense sweep over 512 samples of [0.05, 6.0].
        let lifetimes: Vec<f64> = (0..512)
            .map(|i| 0.05 + (6.0 - 0.05) * i as f64 / 511.0)
            .collect();
        let series = compiled
            .sweep_series(SweepAxis::LifetimeYears, &lifetimes, base, 0)
            .unwrap();
        let oracle = series.crossovers();
        assert!(
            oracle.len() <= 1,
            "{domain}: affine diff crosses at most once"
        );
        let analytic = compiled.crossover_in_lifetime_analytic(base.applications, base.volume);
        match oracle.first() {
            Some(c) => {
                let a = analytic.expect("oracle found a crossover the solver missed");
                assert_eq!(a.direction, c.direction, "{domain} lifetime direction");
                assert_crossover_close(&format!("{domain} lifetime"), a.at, c.at);
            }
            None => {
                if let Some(a) = analytic {
                    assert!(
                        !(0.05..=6.0).contains(&a.at),
                        "{domain}: analytic lifetime root {} unseen by the oracle",
                        a.at
                    );
                }
            }
        }

        // Volume axis: log-spaced integer sweep over three decades. The
        // sweep samples are integers but the diff is affine in the volume,
        // so interpolation between any two samples is still exact.
        let volumes: Vec<f64> = greenfpga::log_spaced_volumes(1_000, 50_000_000, 48)
            .into_iter()
            .map(|v| v as f64)
            .collect();
        let series = compiled
            .sweep_series(SweepAxis::VolumeUnits, &volumes, base, 0)
            .unwrap();
        let oracle = series.crossovers();
        assert!(
            oracle.len() <= 1,
            "{domain}: affine diff crosses at most once"
        );
        let analytic =
            compiled.crossover_in_volume_analytic(base.applications, base.lifetime_years);
        match oracle.first() {
            Some(c) => {
                let a = analytic.expect("oracle found a crossover the solver missed");
                assert_eq!(a.direction, c.direction, "{domain} volume direction");
                assert_crossover_close(&format!("{domain} volume"), a.at, c.at);
            }
            None => {
                if let Some(a) = analytic {
                    assert!(
                        !(1_000.0..=50_000_000.0).contains(&a.at),
                        "{domain}: analytic volume root {} unseen by the oracle",
                        a.at
                    );
                }
            }
        }
    }
}

#[test]
fn golden_analytic_crossovers_track_retuned_operating_points() {
    // The paper-default operating point is one corner of the space; the
    // solver must track the oracle across a spread of held parameters too.
    let est = estimator();
    let compiled = est.compile(Domain::Dnn).unwrap();
    for (applications, volume) in [(2u64, 200_000u64), (5, 1_000_000), (9, 4_000_000)] {
        let base = OperatingPoint {
            applications,
            lifetime_years: 2.0,
            volume,
        };
        let lifetimes: Vec<f64> = (0..256).map(|i| 0.05 + 8.0 * i as f64 / 255.0).collect();
        let oracle = compiled
            .sweep_series(SweepAxis::LifetimeYears, &lifetimes, base, 0)
            .unwrap()
            .crossovers();
        let analytic = compiled.crossover_in_lifetime_analytic(applications, volume);
        if let Some(c) = oracle.first() {
            let a = analytic.expect("solver missed an oracle crossover");
            assert_crossover_close(
                &format!("dnn {applications} apps {volume} units"),
                a.at,
                c.at,
            );
        }
    }
}

#[test]
fn golden_frontier_raster_matches_dense_winner_mask() {
    let est = estimator();
    let base = OperatingPoint::paper_default();
    // Apps × lifetime lattice for every domain, plus a volume × apps
    // lattice: the frontier raster must agree with the dense grid cell for
    // cell, bit-consistently (both sides classify with `ratio < 1.0`).
    let apps: Vec<f64> = (1..=24).map(|i| i as f64).collect();
    let lifetimes: Vec<f64> = (1..=24).map(|i| 0.125 * i as f64).collect();
    for domain in Domain::ALL {
        let compiled = est.compile(domain).unwrap();
        let frontier = compiled
            .frontier(
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                base,
                0,
            )
            .unwrap();
        let dense = compiled
            .ratio_grid(
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                base,
                0,
            )
            .unwrap();
        for (row, dense_row) in dense.ratios.chunks(apps.len()).enumerate() {
            for (col, &ratio) in dense_row.iter().enumerate() {
                assert_eq!(
                    frontier.fpga_wins(row, col),
                    ratio < 1.0,
                    "{domain} cell ({row},{col})"
                );
            }
        }
        assert!(
            frontier.evaluations() < frontier.lattice.len(),
            "{domain}: the frontier must beat dense evaluation"
        );
    }

    let volumes: Vec<f64> = greenfpga::log_spaced_volumes(1_000, 10_000_000, 24)
        .into_iter()
        .map(|v| v as f64)
        .collect();
    let dnn = est.compile(Domain::Dnn).unwrap();
    let frontier = dnn
        .frontier(
            SweepAxis::VolumeUnits,
            &volumes,
            SweepAxis::Applications,
            &apps,
            base,
            0,
        )
        .unwrap();
    let dense = dnn
        .ratio_grid(
            SweepAxis::VolumeUnits,
            &volumes,
            SweepAxis::Applications,
            &apps,
            base,
            0,
        )
        .unwrap();
    for (row, dense_row) in dense.ratios.chunks(volumes.len()).enumerate() {
        for (col, &ratio) in dense_row.iter().enumerate() {
            assert_eq!(
                frontier.fpga_wins(row, col),
                ratio < 1.0,
                "volume lattice cell ({row},{col})"
            );
        }
    }
}

#[test]
fn golden_frontier_meets_the_evaluation_budget_at_64x64() {
    // Acceptance criterion: a 64×64-equivalent frontier from ≤20% of the
    // dense grid's point evaluations with a bit-consistent winner mask.
    let dnn = estimator().compile(Domain::Dnn).unwrap();
    let apps: Vec<f64> = (1..=64).map(|i| i as f64).collect();
    let lifetimes: Vec<f64> = (1..=64).map(|i| 0.05 * i as f64).collect();
    let frontier = dnn
        .frontier(
            SweepAxis::Applications,
            &apps,
            SweepAxis::LifetimeYears,
            &lifetimes,
            OperatingPoint::paper_default(),
            0,
        )
        .unwrap();
    assert_eq!(frontier.lattice.len(), 64 * 64);
    assert!(
        frontier.evaluated_fraction() <= 0.20,
        "64x64 frontier evaluated {:.1}% of the lattice",
        frontier.evaluated_fraction() * 100.0
    );
    let dense = dnn
        .ratio_grid(
            SweepAxis::Applications,
            &apps,
            SweepAxis::LifetimeYears,
            &lifetimes,
            OperatingPoint::paper_default(),
            0,
        )
        .unwrap();
    for (row, dense_row) in dense.ratios.chunks(apps.len()).enumerate() {
        for (col, &ratio) in dense_row.iter().enumerate() {
            assert_eq!(
                frontier.fpga_wins(row, col),
                ratio < 1.0,
                "cell ({row},{col})"
            );
        }
    }
}

#[test]
fn golden_estimator_crossovers_keep_their_scan_semantics() {
    // The crossover searches changed engines (scan/bisect → closed form);
    // their observable contracts must not move.
    let est = estimator();
    for domain in Domain::ALL {
        let compiled = est.compile(domain).unwrap();
        // Applications: result equals the first FPGA win of a linear scan.
        let fast = compiled
            .crossover_in_applications_verified(20, 2.0, 1_000_000)
            .unwrap();
        let slow = (1..=20u64).find(|&n| {
            let c = compiled
                .evaluate(OperatingPoint {
                    applications: n,
                    lifetime_years: 2.0,
                    volume: 1_000_000,
                })
                .unwrap();
            c.fpga.total() < c.asic.total()
        });
        assert_eq!(fast, slow, "{domain} applications");

        // Volume: the reported integer is the first sign flip.
        if let Some(c) = compiled
            .crossover_in_volume_verified(5, 2.0, 1_000, 50_000_000)
            .unwrap()
        {
            let diff = |v: u64| {
                let r = compiled
                    .evaluate(OperatingPoint {
                        applications: 5,
                        lifetime_years: 2.0,
                        volume: v,
                    })
                    .unwrap();
                r.fpga.total().as_kg() - r.asic.total().as_kg()
            };
            let at = c.at as u64;
            let lo_sign = diff(1_000).signum();
            assert_ne!(diff(at).signum(), lo_sign, "{domain} flip at {at}");
            assert_eq!(
                diff(at - 1).signum(),
                lo_sign,
                "{domain} first flip at {at}"
            );
        }

        // Lifetime: the root actually zeroes the difference.
        if let Some(c) = compiled
            .crossover_in_lifetime_verified(5, 1_000_000, 0.05, 6.0)
            .unwrap()
        {
            let r = compiled
                .evaluate(OperatingPoint {
                    applications: 5,
                    lifetime_years: c.at,
                    volume: 1_000_000,
                })
                .unwrap();
            let scale = r.asic.total().as_kg().abs();
            assert!(
                (r.fpga.total().as_kg() - r.asic.total().as_kg()).abs() <= 1e-9 * scale,
                "{domain} lifetime root {}",
                c.at
            );
            assert_eq!(c.direction, CrossoverDirection::FpgaToAsic, "{domain}");
        }
    }
}

#[test]
fn golden_soa_kernel_is_bit_identical_and_reusable() {
    let est = estimator();
    let compiled = est.compile(Domain::ImageProcessing).unwrap();
    let points: Vec<OperatingPoint> = (0..257)
        .map(|i| OperatingPoint {
            applications: 1 + (i as u64 % 12),
            lifetime_years: 0.1 + 0.05 * i as f64,
            volume: 1_000 + 37_000 * i as u64,
        })
        .collect();
    let mut buffer = ResultBuffer::new();
    // Fill, refill at a smaller size, then refill at full size: the reused
    // buffer must match point-wise evaluation bit for bit every time.
    compiled.evaluate_into(&points, &mut buffer).unwrap();
    compiled.evaluate_into(&points[..10], &mut buffer).unwrap();
    assert_eq!(buffer.len(), 10);
    compiled.evaluate_into(&points, &mut buffer).unwrap();
    assert_eq!(buffer.len(), points.len());
    for (i, point) in points.iter().enumerate() {
        let direct = compiled.evaluate(*point).unwrap();
        assert_eq!(buffer.comparison(i), direct, "point {i}");
        assert_eq!(
            buffer.comparison(i).fpga_to_asic_ratio(),
            direct.fpga_to_asic_ratio(),
            "point {i}"
        );
    }
    // And the whole pipeline stays thread-count deterministic.
    let mut reference = ResultBuffer::new();
    compiled
        .evaluate_indexed_into(points.len(), |i| points[i], &mut reference, 1)
        .unwrap();
    for threads in [2, 5, 32] {
        let mut parallel = ResultBuffer::new();
        compiled
            .evaluate_indexed_into(points.len(), |i| points[i], &mut parallel, threads)
            .unwrap();
        assert_eq!(reference, parallel, "{threads} threads");
    }
}
