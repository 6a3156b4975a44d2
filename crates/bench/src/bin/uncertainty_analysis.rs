//! Monte-Carlo uncertainty analysis: how robust are the paper's conclusions
//! to the Table 1 input ranges?
//!
//! Every knob is sampled uniformly from its published (or calibrated) range
//! and the FPGA:ASIC ratio distribution is reported per domain at the
//! paper's operating point (5 applications, 2-year lifetimes, 1M units).

use greenfpga::{render_table, Domain, Estimator, MonteCarlo, OperatingPoint};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let estimator = Estimator::default();
    let point = OperatingPoint::paper_default();
    let study = MonteCarlo::new(512);

    let mut rows = Vec::new();
    for domain in Domain::ALL {
        let report = study.run(estimator.params(), domain, point)?;
        rows.push(vec![
            domain.to_string(),
            format!("{:.2}", report.quantile(0.05)),
            format!("{:.2}", report.median()),
            format!("{:.2}", report.quantile(0.95)),
            format!("{:.2}", report.mean()),
            format!("{:.0}%", report.fpga_win_probability() * 100.0),
            report.majority_winner().to_string(),
        ]);
    }

    println!(
        "Monte-Carlo study over the Table 1 ranges ({} samples, N_app=5, T=2 y, N_vol=1e6):",
        512
    );
    println!(
        "{}",
        render_table(
            &[
                "Domain",
                "ratio p5",
                "ratio p50",
                "ratio p95",
                "ratio mean",
                "P(FPGA greener)",
                "Majority winner"
            ],
            &rows
        )
    );

    println!("Reading: ratios below 1.0 mean the FPGA platform has the lower total CFP.");
    Ok(())
}
