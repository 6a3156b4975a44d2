//! Figure 8: pairwise-sweep heatmaps of the FPGA:ASIC CFP ratio for the DNN
//! domain, with (a) `N_vol`, (b) `N_app` and (c) `T_i` held constant.
//!
//! Paper result: FPGAs are sustainable toward many applications, short
//! lifetimes and low volumes; the ratio-1 contour (drawn with `=`) marks the
//! crossover front.

use greenfpga::{
    log_spaced_volumes, Domain, Estimator, HeatmapRenderer, OperatingPoint, SweepAxis,
};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let dnn = Estimator::default().compile(Domain::Dnn)?;
    let base = OperatingPoint {
        applications: 5,
        lifetime_years: 2.0,
        volume: 1_000_000,
    };
    let renderer = HeatmapRenderer::new();

    let apps: Vec<f64> = (1..=10).map(|n| n as f64).collect();
    let lifetimes: Vec<f64> = (1..=10).map(|i| 0.25 * i as f64).collect();
    let volumes: Vec<f64> = log_spaced_volumes(10_000, 9_000_000, 10)
        .into_iter()
        .map(|v| v as f64)
        .collect();

    println!("Figure 8(a) — N_app x T_i grid (N_vol fixed at 1e6):");
    let grid = dnn.ratio_grid(
        SweepAxis::Applications,
        &apps,
        SweepAxis::LifetimeYears,
        &lifetimes,
        base,
        0,
    )?;
    println!("{}", renderer.render(&grid));
    println!(
        "FPGA wins in {:.0}% of the grid",
        grid.fpga_winning_fraction() * 100.0
    );
    println!();

    println!("Figure 8(b) — N_vol x T_i grid (N_app fixed at 5):");
    let grid = dnn.ratio_grid(
        SweepAxis::VolumeUnits,
        &volumes,
        SweepAxis::LifetimeYears,
        &lifetimes,
        base,
        0,
    )?;
    println!("{}", renderer.render(&grid));
    println!(
        "FPGA wins in {:.0}% of the grid",
        grid.fpga_winning_fraction() * 100.0
    );
    println!();

    println!("Figure 8(c) — N_vol x N_app grid (T_i fixed at 2 years):");
    let grid = dnn.ratio_grid(
        SweepAxis::VolumeUnits,
        &volumes,
        SweepAxis::Applications,
        &apps,
        base,
        0,
    )?;
    println!("{}", renderer.render(&grid));
    println!(
        "FPGA wins in {:.0}% of the grid",
        grid.fpga_winning_fraction() * 100.0
    );
    Ok(())
}
