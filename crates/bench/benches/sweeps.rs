//! Bench: the 1-D sweeps behind Figures 4–6 (batch-engine backed).

use std::hint::black_box;

use gf_bench::harness::bench;
use greenfpga::{
    log_spaced_volumes, Domain, Estimator, EstimatorParams, OperatingPoint, SweepAxis,
};

fn main() {
    let estimator = Estimator::new(EstimatorParams::paper_defaults());
    let base = OperatingPoint::paper_default();

    let counts: Vec<u64> = (1..=12).collect();
    bench("fig4_application_sweep_dnn", || {
        let counts: Vec<f64> = black_box(&counts).iter().map(|&n| n as f64).collect();
        estimator
            .compile(Domain::Dnn)
            .expect("compile")
            .sweep_series(SweepAxis::Applications, &counts, base, 0)
            .expect("sweep")
    });

    let lifetimes: Vec<f64> = (1..=24).map(|i| 0.1 * i as f64).collect();
    bench("fig5_lifetime_sweep_dnn", || {
        estimator
            .compile(Domain::Dnn)
            .expect("compile")
            .sweep_series(SweepAxis::LifetimeYears, black_box(&lifetimes), base, 0)
            .expect("sweep")
    });

    let volumes = log_spaced_volumes(1_000, 10_000_000, 17);
    bench("fig6_volume_sweep_dnn", || {
        let volumes: Vec<f64> = black_box(&volumes).iter().map(|&v| v as f64).collect();
        estimator
            .compile(Domain::Dnn)
            .expect("compile")
            .sweep_series(SweepAxis::VolumeUnits, &volumes, base, 0)
            .expect("sweep")
    });

    // A wide sweep where the parallel fan-out actually matters.
    let wide: Vec<f64> = (1..=512).map(|i| 0.01 * i as f64).collect();
    bench("wide_lifetime_sweep_512_dnn", || {
        estimator
            .compile(Domain::Dnn)
            .expect("compile")
            .sweep_series(SweepAxis::LifetimeYears, black_box(&wide), base, 0)
            .expect("sweep")
    });

    let scenario = greenfpga::LongHorizonScenario::paper_fig9(Domain::Dnn);
    bench("fig9_long_horizon_dnn", || {
        scenario.run(black_box(&estimator)).expect("scenario")
    });
}
