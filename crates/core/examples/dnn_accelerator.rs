//! DNN accelerator planning study.
//!
//! A product team is choosing between taping out a new inference ASIC for
//! every model generation and deploying reconfigurable FPGAs. Model
//! generations turn over quickly (12–30 months), so the question is where
//! the carbon crossover sits for *their* expected cadence, volume and grid.
//!
//! Run with `cargo run -p greenfpga --example dnn_accelerator`.

use greenfpga::units::{CarbonIntensity, Fraction};
use greenfpga::{
    log_spaced_volumes, DeploymentParams, Domain, Estimator, EstimatorParams, OperatingPoint,
    SweepAxis,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The team deploys in a region with a moderately clean grid and keeps
    // accelerators busier than the default assumption.
    let deployment = DeploymentParams::new(
        Fraction::new(0.3)?,
        CarbonIntensity::from_grams_per_kwh(200.0),
    );
    let estimator = Estimator::new(EstimatorParams::paper_defaults().with_deployment(deployment));
    let dnn = estimator.compile(Domain::Dnn)?;

    println!("== How many model generations until the FPGA is greener? ==");
    for lifetime_years in [1.0, 1.5, 2.0, 2.5] {
        let crossover = dnn.crossover_in_applications_verified(20, lifetime_years, 1_000_000)?;
        match crossover {
            Some(n) => println!(
                "  generation lifetime {lifetime_years:.1} y: FPGA wins from {n} generations"
            ),
            None => println!(
                "  generation lifetime {lifetime_years:.1} y: ASIC stays greener (<= 20 generations)"
            ),
        }
    }

    println!();
    println!("== Sensitivity to deployment volume (5 generations, 2-year cadence) ==");
    let base = OperatingPoint {
        applications: 5,
        lifetime_years: 2.0,
        volume: 1_000_000,
    };
    let volumes: Vec<f64> = log_spaced_volumes(10_000, 10_000_000, 7)
        .into_iter()
        .map(|v| v as f64)
        .collect();
    let series = dnn.sweep_series(SweepAxis::VolumeUnits, &volumes, base, 0)?;
    for point in &series.points {
        println!(
            "  volume {:>12}: FPGA {:>14}  ASIC {:>14}  ratio {:.2}",
            point.x as u64,
            point.fpga.total().to_string(),
            point.asic.total().to_string(),
            point.ratio()
        );
    }
    for crossover in series.crossovers() {
        println!(
            "  -> {} crossover at a volume of about {:.0} devices",
            crossover.direction, crossover.at
        );
    }

    println!();
    println!("== Where does the FPGA's footprint actually go? (5 generations) ==");
    let comparison = estimator.compare_uniform(Domain::Dnn, 5, 2.0, 1_000_000)?;
    for (name, value) in comparison.fpga.components() {
        println!("  {name:<14} {value}");
    }
    Ok(())
}
