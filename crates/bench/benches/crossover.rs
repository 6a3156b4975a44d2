//! Bench: crossover searches (the numbers behind the paper's headline
//! claims), running on the compiled-scenario path.

use std::hint::black_box;

use gf_bench::harness::bench;
use greenfpga::{Domain, Estimator, EstimatorParams};

fn main() {
    let estimator = Estimator::new(EstimatorParams::paper_defaults());

    bench("crossover_applications_dnn", || {
        estimator
            .compile(black_box(Domain::Dnn))
            .expect("compile")
            .crossover_in_applications_verified(16, 2.0, 1_000_000)
            .expect("search")
    });

    bench("crossover_lifetime_dnn", || {
        estimator
            .compile(black_box(Domain::Dnn))
            .expect("compile")
            .crossover_in_lifetime_verified(5, 1_000_000, 0.05, 3.0)
            .expect("search")
    });

    bench("crossover_volume_dnn", || {
        estimator
            .compile(black_box(Domain::Dnn))
            .expect("compile")
            .crossover_in_volume_verified(5, 2.0, 1_000, 20_000_000)
            .expect("search")
    });
}
