//! Figure 5: total CFP versus application lifetime `T_i` (0.2–2.5 years),
//! with `N_app` = 5 and `N_vol` = 1e6, for all three domains.
//!
//! Paper result: Crypto always favours the FPGA, ImgProc always favours the
//! ASIC, and DNN shows an F2A crossover at roughly 1.6 years.

use gf_bench::paper_estimator;
use greenfpga::{csv_from_rows, Domain, OperatingPoint, SweepAxis};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let estimator = paper_estimator();
    let base = OperatingPoint {
        applications: 5,
        lifetime_years: 2.0,
        volume: 1_000_000,
    };
    let lifetimes: Vec<f64> = (1..=12)
        .map(|i| 0.2 + 0.2 * (i as f64 - 1.0) + 0.1)
        .collect();

    let mut rows = Vec::new();
    for domain in Domain::ALL {
        let compiled = estimator.compile(domain)?;
        let series = compiled.sweep_series(SweepAxis::LifetimeYears, &lifetimes, base, 0)?;
        println!("Figure 5 — {domain} (N_app = 5, N_vol = 1e6):");
        for point in &series.points {
            println!(
                "  T_i {:>4.1} y: FPGA {:>10.1} t  ASIC {:>10.1} t  ratio {:.3}",
                point.x,
                point.fpga.total().as_tons(),
                point.asic.total().as_tons(),
                point.ratio()
            );
            rows.push(vec![
                domain.to_string(),
                format!("{:.2}", point.x),
                format!("{:.3}", point.fpga.total().as_tons()),
                format!("{:.3}", point.asic.total().as_tons()),
                format!("{:.4}", point.ratio()),
            ]);
        }
        match compiled.crossover_in_lifetime_verified(5, 1_000_000, 0.05, 3.0)? {
            Some(c) => println!("  -> {} crossover at {:.2} years", c.direction, c.at),
            None => println!("  -> no crossover: the same platform wins at every lifetime"),
        }
        println!();
    }

    println!("CSV series (domain, lifetime_years, fpga_t, asic_t, ratio):");
    println!(
        "{}",
        csv_from_rows(
            &[
                "domain",
                "lifetime_years",
                "fpga_tons",
                "asic_tons",
                "ratio"
            ],
            &rows
        )
    );
    Ok(())
}
