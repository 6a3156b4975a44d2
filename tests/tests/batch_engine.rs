//! Golden tests for the batch-evaluation engine.
//!
//! The compiled path ([`greenfpga::CompiledScenario`]) must be numerically
//! indistinguishable from the naive path (`compare_uniform`, which rebuilds
//! every spec and workload per evaluation) — the acceptance bar is ≤1e-12
//! relative error; the implementation actually achieves bit-identity by
//! mirroring the naive arithmetic. On top of that, the parallel engines
//! must be deterministic: same results for every thread count and across
//! repeated runs.

use gf_support::SplitMix64;
use greenfpga::{
    Domain, Estimator, EstimatorParams, Knob, MonteCarlo, OperatingPoint, ResultBuffer, SweepAxis,
};

fn estimator() -> Estimator {
    Estimator::new(EstimatorParams::paper_defaults())
}

fn assert_close(label: &str, fast: f64, slow: f64) {
    let tolerance = slow.abs() * 1e-12;
    assert!(
        (fast - slow).abs() <= tolerance,
        "{label}: compiled {fast} vs naive {slow}"
    );
}

#[test]
fn golden_compiled_equals_naive_across_domains() {
    let est = estimator();
    let mut rng = SplitMix64::new(0x601D);
    for domain in Domain::ALL {
        let compiled = est.compile(domain).unwrap();
        for trial in 0..200 {
            let point = OperatingPoint {
                applications: rng.gen_range_u64(1, 16),
                lifetime_years: rng.gen_range_f64(0.05, 6.0),
                volume: rng.gen_range_u64(1, 5_000_000),
            };
            let fast = compiled.evaluate(point).unwrap();
            let slow = est
                .compare_uniform(
                    domain,
                    point.applications,
                    point.lifetime_years,
                    point.volume,
                )
                .unwrap();
            let label = format!("{domain} trial {trial}");
            let pairs = [
                (fast.fpga.components(), slow.fpga.components(), "fpga"),
                (fast.asic.components(), slow.asic.components(), "asic"),
            ];
            for (fast_components, slow_components, platform) in pairs {
                for ((name, fast_c), (_, slow_c)) in
                    fast_components.iter().zip(slow_components.iter())
                {
                    assert_close(
                        &format!("{label} {platform} {name}"),
                        fast_c.as_kg(),
                        slow_c.as_kg(),
                    );
                }
            }
            assert_close(
                &format!("{label} fpga total"),
                fast.fpga.total().as_kg(),
                slow.fpga.total().as_kg(),
            );
            assert_close(
                &format!("{label} asic total"),
                fast.asic.total().as_kg(),
                slow.asic.total().as_kg(),
            );
        }
    }
}

#[test]
fn golden_compiled_tracks_retuned_parameters() {
    // The compiled path must agree with the naive path for *any* parameter
    // set, not just the paper defaults — retune every knob to an arbitrary
    // position and re-check.
    let mut rng = SplitMix64::new(0xBEEF);
    for trial in 0..25 {
        let mut params = EstimatorParams::paper_defaults();
        for knob in Knob::ALL {
            let range = knob.range();
            knob.apply_mut(&mut params, rng.gen_range_f64(range.low, range.high));
        }
        let est = Estimator::new(params);
        let point = OperatingPoint {
            applications: rng.gen_range_u64(1, 12),
            lifetime_years: rng.gen_range_f64(0.1, 4.0),
            volume: rng.gen_range_u64(1_000, 2_000_000),
        };
        for domain in Domain::ALL {
            let fast = est.compile(domain).unwrap().evaluate(point).unwrap();
            let slow = est
                .compare_uniform(
                    domain,
                    point.applications,
                    point.lifetime_years,
                    point.volume,
                )
                .unwrap();
            assert_close(
                &format!("retuned {domain} trial {trial} fpga"),
                fast.fpga.total().as_kg(),
                slow.fpga.total().as_kg(),
            );
            assert_close(
                &format!("retuned {domain} trial {trial} asic"),
                fast.asic.total().as_kg(),
                slow.asic.total().as_kg(),
            );
        }
    }
}

#[test]
fn batch_sweep_matches_point_wise_compare_domain() {
    // Proptest-style randomized check: whole sweeps produced by the batch
    // engine match per-point naive evaluations.
    let est = estimator();
    let mut rng = SplitMix64::new(0x5EEE);
    for _ in 0..20 {
        let domain = Domain::ALL[rng.gen_index(Domain::ALL.len())];
        let base = OperatingPoint {
            applications: rng.gen_range_u64(1, 10),
            lifetime_years: rng.gen_range_f64(0.2, 4.0),
            volume: rng.gen_range_u64(10_000, 2_000_000),
        };
        let axis = [
            SweepAxis::Applications,
            SweepAxis::LifetimeYears,
            SweepAxis::VolumeUnits,
        ][rng.gen_index(3)];
        let values: Vec<f64> = match axis {
            SweepAxis::Applications => (1..=rng.gen_range_u64(2, 12)).map(|n| n as f64).collect(),
            SweepAxis::LifetimeYears => (1..=10).map(|_| rng.gen_range_f64(0.1, 5.0)).collect(),
            _ => (1..=10)
                .map(|_| rng.gen_range_u64(1_000, 3_000_000) as f64)
                .collect(),
        };
        let series = est
            .compile(domain)
            .unwrap()
            .sweep_series(axis, &values, base, 0)
            .unwrap();
        assert_eq!(series.points.len(), values.len());
        for point in &series.points {
            let expected = match axis {
                SweepAxis::Applications => est.compare_uniform(
                    domain,
                    point.x.round().max(1.0) as u64,
                    base.lifetime_years,
                    base.volume,
                ),
                SweepAxis::LifetimeYears => {
                    est.compare_uniform(domain, base.applications, point.x, base.volume)
                }
                _ => est.compare_uniform(
                    domain,
                    base.applications,
                    base.lifetime_years,
                    point.x.round().max(1.0) as u64,
                ),
            }
            .unwrap();
            assert_close(
                &format!("{domain} {axis:?} sweep fpga at {}", point.x),
                point.fpga.total().as_kg(),
                expected.fpga.total().as_kg(),
            );
            assert_close(
                &format!("{domain} {axis:?} sweep asic at {}", point.x),
                point.asic.total().as_kg(),
                expected.asic.total().as_kg(),
            );
        }
    }
}

#[test]
fn ratio_grid_matches_point_wise_compare_domain() {
    let est = estimator();
    let apps: Vec<f64> = (1..=6).map(|n| n as f64).collect();
    let volumes: Vec<f64> = [5_000.0, 50_000.0, 500_000.0, 5_000_000.0].to_vec();
    let base = OperatingPoint::paper_default();
    for domain in Domain::ALL {
        let grid = est
            .compile(domain)
            .unwrap()
            .ratio_grid(
                SweepAxis::Applications,
                &apps,
                SweepAxis::VolumeUnits,
                &volumes,
                base,
                0,
            )
            .unwrap();
        for (row, &volume) in volumes.iter().enumerate() {
            for (col, &napps) in apps.iter().enumerate() {
                let naive = est
                    .compare_uniform(domain, napps as u64, base.lifetime_years, volume as u64)
                    .unwrap()
                    .fpga_to_asic_ratio();
                assert_close(
                    &format!("{domain} grid cell ({row},{col})"),
                    grid.ratios[row * apps.len() + col],
                    naive,
                );
            }
        }
    }
}

#[test]
fn monte_carlo_is_deterministic_across_thread_counts_and_runs() {
    let base = EstimatorParams::paper_defaults();
    let point = OperatingPoint::paper_default();
    for domain in Domain::ALL {
        let reference = MonteCarlo::new(200)
            .with_seed(99)
            .with_threads(1)
            .run(&base, domain, point)
            .unwrap();
        for threads in [2, 3, 8, 32] {
            let parallel = MonteCarlo::new(200)
                .with_seed(99)
                .with_threads(threads)
                .run(&base, domain, point)
                .unwrap();
            assert_eq!(reference, parallel, "{domain} with {threads} threads");
        }
        // Repeated runs with the default (auto) thread count agree too.
        let a = MonteCarlo::new(200).with_seed(99).run(&base, domain, point);
        let b = MonteCarlo::new(200).with_seed(99).run(&base, domain, point);
        assert_eq!(a.unwrap(), b.unwrap(), "{domain} repeated auto runs");
    }
}

#[test]
fn evaluate_into_matches_the_naive_model_on_large_point_sets() {
    let est = estimator();
    let mut rng = SplitMix64::new(0xBA7C);
    let points: Vec<OperatingPoint> = (0..500)
        .map(|_| OperatingPoint {
            applications: rng.gen_range_u64(1, 20),
            lifetime_years: rng.gen_range_f64(0.05, 8.0),
            volume: rng.gen_range_u64(1, 10_000_000),
        })
        .collect();
    let mut buffer = ResultBuffer::new();
    est.compile(Domain::Dnn)
        .unwrap()
        .evaluate_into(&points, &mut buffer)
        .unwrap();
    let results: Vec<_> = buffer.comparisons().collect();
    assert_eq!(results.len(), points.len());
    // Spot-check a deterministic sample of cells against the naive path.
    for index in (0..points.len()).step_by(41) {
        let point = points[index];
        let slow = est
            .compare_uniform(
                Domain::Dnn,
                point.applications,
                point.lifetime_years,
                point.volume,
            )
            .unwrap();
        assert_close(
            &format!("batch index {index}"),
            results[index].fpga.total().as_kg(),
            slow.fpga.total().as_kg(),
        );
        assert_close(
            &format!("batch index {index}"),
            results[index].asic.total().as_kg(),
            slow.asic.total().as_kg(),
        );
    }
}

#[test]
fn tornado_analysis_is_deterministic() {
    let est = estimator();
    let a = est
        .tornado_analysis(Domain::Dnn, OperatingPoint::paper_default(), 0)
        .unwrap();
    let b = est
        .tornado_analysis(Domain::Dnn, OperatingPoint::paper_default(), 0)
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(a.entries.len(), Knob::ALL.len());
}
