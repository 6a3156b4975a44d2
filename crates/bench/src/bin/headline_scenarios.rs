//! The paper's headline claims (contribution 5 / abstract): FPGAs are the
//! sustainable choice when (i) application lifetimes are below ~1.6 years,
//! (ii) the FPGA is reused for more than ~5 applications, or (iii)
//! application volumes are below ~2 million units in specific domains.
//!
//! This binary re-derives all three thresholds from the model.

use gf_bench::paper_estimator;
use greenfpga::{render_table, Domain};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let estimator = paper_estimator();
    let mut rows = Vec::new();

    for domain in Domain::ALL {
        let compiled = estimator.compile(domain)?;
        let apps = compiled.crossover_in_applications_verified(20, 2.0, 1_000_000)?;
        let lifetime = compiled.crossover_in_lifetime_verified(5, 1_000_000, 0.05, 3.0)?;
        let volume = compiled.crossover_in_volume_verified(5, 2.0, 1_000, 20_000_000)?;
        rows.push(vec![
            domain.to_string(),
            apps.map_or("never (<=20)".to_string(), |n| format!("{n} apps")),
            lifetime.map_or("no crossover".to_string(), |c| {
                format!("{} at {:.2} y", c.direction, c.at)
            }),
            volume.map_or("no crossover".to_string(), |c| {
                format!("{} at {:.2} M", c.direction, c.at / 1.0e6)
            }),
        ]);
    }

    println!(
        "Headline sustainability thresholds (paper: 1.6 years / >5 apps / <2 M units for DNN):"
    );
    println!(
        "{}",
        render_table(
            &[
                "Domain",
                "A2F in N_app (T=2y, 1M units)",
                "Lifetime crossover (N=5, 1M units)",
                "Volume crossover (N=5, T=2y)"
            ],
            &rows
        )
    );
    Ok(())
}
