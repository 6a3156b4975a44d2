//! Bench: the 2-D ratio grids behind Figure 8 (batch-engine backed) and
//! their rendering.

use std::hint::black_box;

use gf_bench::harness::bench;
use greenfpga::{Domain, Estimator, EstimatorParams, HeatmapRenderer, OperatingPoint, SweepAxis};

fn main() {
    let estimator = Estimator::new(EstimatorParams::paper_defaults());
    let base = OperatingPoint::paper_default();

    for size in [4usize, 8, 16, 32] {
        let apps: Vec<f64> = (1..=size).map(|n| n as f64).collect();
        let lifetimes: Vec<f64> = (1..=size).map(|i| 0.25 * i as f64).collect();
        bench(&format!("fig8_ratio_grid/{}", size * size), || {
            estimator
                .compile(Domain::Dnn)
                .expect("compile")
                .ratio_grid(
                    SweepAxis::Applications,
                    black_box(&apps),
                    SweepAxis::LifetimeYears,
                    black_box(&lifetimes),
                    base,
                    0,
                )
                .expect("grid")
        });
    }

    let apps: Vec<f64> = (1..=10).map(|n| n as f64).collect();
    let lifetimes: Vec<f64> = (1..=10).map(|i| 0.25 * i as f64).collect();
    let grid = estimator
        .compile(Domain::Dnn)
        .expect("compile")
        .ratio_grid(
            SweepAxis::Applications,
            &apps,
            SweepAxis::LifetimeYears,
            &lifetimes,
            base,
            0,
        )
        .expect("grid");
    let renderer = HeatmapRenderer::new();
    bench("heatmap_render_10x10", || renderer.render(black_box(&grid)));
}
