//! Figure 4: total CFP versus the number of applications `N_app`
//! (1–12), with `T_i` = 2 years and `N_vol` = 1e6, for all three domains.
//!
//! Paper result: A2F crossover after 1 application (Crypto), 6 applications
//! (DNN) and 12 applications (ImgProc).

use gf_bench::paper_estimator;
use greenfpga::{csv_from_rows, Domain, OperatingPoint, SweepAxis};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let estimator = paper_estimator();
    let base = OperatingPoint {
        applications: 5,
        lifetime_years: 2.0,
        volume: 1_000_000,
    };
    let counts: Vec<f64> = (1..=12).map(|n| n as f64).collect();

    let mut rows = Vec::new();
    for domain in Domain::ALL {
        let compiled = estimator.compile(domain)?;
        let series = compiled.sweep_series(SweepAxis::Applications, &counts, base, 0)?;
        println!("Figure 4 — {domain} (T_i = 2 y, N_vol = 1e6):");
        for point in &series.points {
            println!(
                "  N_app {:>2}: FPGA {:>10.1} t  ASIC {:>10.1} t  ratio {:.3}",
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
        match compiled.crossover_in_applications_verified(16, 2.0, 1_000_000)? {
            Some(n) => println!("  -> A2F crossover at {n} applications"),
            None => println!("  -> no A2F crossover within 16 applications"),
        }
        println!();
    }

    println!("CSV series (domain, n_app, fpga_t, asic_t, ratio):");
    println!(
        "{}",
        csv_from_rows(
            &["domain", "n_app", "fpga_tons", "asic_tons", "ratio"],
            &rows
        )
    );
    Ok(())
}
