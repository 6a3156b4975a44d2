//! Figure 6: total CFP versus application volume `N_vol` (1e3–1e7), with
//! `N_app` = 5 and `T_i` = 2 years, for all three domains.
//!
//! Paper result: Crypto always favours the FPGA; ImgProc and DNN show F2A
//! crossovers at roughly 300K and 2M units respectively.

use greenfpga::{csv_from_rows, log_spaced_volumes, Domain, Estimator, OperatingPoint, SweepAxis};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let estimator = Estimator::default();
    let base = OperatingPoint {
        applications: 5,
        lifetime_years: 2.0,
        volume: 1_000_000,
    };
    let volumes: Vec<f64> = log_spaced_volumes(1_000, 10_000_000, 17)
        .into_iter()
        .map(|v| v as f64)
        .collect();

    let mut rows = Vec::new();
    for domain in Domain::ALL {
        let compiled = estimator.compile(domain)?;
        let series = compiled.sweep_series(SweepAxis::VolumeUnits, &volumes, base, 0)?;
        println!("Figure 6 — {domain} (N_app = 5, T_i = 2 y):");
        for point in &series.points {
            println!(
                "  N_vol {:>10}: FPGA {:>12.1} t  ASIC {:>12.1} t  ratio {:.3}",
                point.x as u64,
                point.fpga.total().as_tons(),
                point.asic.total().as_tons(),
                point.ratio()
            );
            rows.push(vec![
                domain.to_string(),
                format!("{}", point.x as u64),
                format!("{:.3}", point.fpga.total().as_tons()),
                format!("{:.3}", point.asic.total().as_tons()),
                format!("{:.4}", point.ratio()),
            ]);
        }
        match compiled.crossover_in_volume_verified(5, 2.0, 1_000, 20_000_000)? {
            Some(c) => println!("  -> {} crossover at about {:.0} units", c.direction, c.at),
            None => println!("  -> no crossover: the same platform wins at every volume"),
        }
        println!();
    }

    println!("CSV series (domain, volume, fpga_t, asic_t, ratio):");
    println!(
        "{}",
        csv_from_rows(
            &["domain", "volume", "fpga_tons", "asic_tons", "ratio"],
            &rows
        )
    );
    Ok(())
}
