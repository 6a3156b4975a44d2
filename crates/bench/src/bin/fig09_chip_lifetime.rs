//! Figure 9: extending the evaluation window past the FPGA's 15-year chip
//! lifetime, with one-year applications.
//!
//! Paper result: the cumulative FPGA curve jumps at the 15- and 30-year
//! marks (new fleets must be manufactured); the ASIC curve does not. For
//! ImgProc the jumps create multiple A2F/F2A crossovers; for DNN and Crypto
//! the greener platform does not change.

use greenfpga::{Domain, Estimator, LongHorizonScenario};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let estimator = Estimator::default();
    for domain in Domain::ALL {
        let series = LongHorizonScenario::paper_fig9(domain).run(&estimator)?;
        println!("Figure 9 — {domain} (1-year applications, 1e6 units, 15-year FPGA lifetime):");
        for point in &series {
            let marker = if point.year > 1 && (point.year - 1) % 15 == 0 {
                "  <-- new FPGA fleet"
            } else {
                ""
            };
            println!(
                "  year {:>2}: FPGA {:>12.1} t  ASIC {:>12.1} t  ratio {:.3}{marker}",
                point.year,
                point.fpga_cumulative.as_tons(),
                point.asic_cumulative.as_tons(),
                point.ratio(),
            );
        }
        let crossings = series
            .windows(2)
            .filter(|w| (w[0].ratio() < 1.0) != (w[1].ratio() < 1.0))
            .count();
        println!("  -> {crossings} crossover(s) over the 40-year horizon");
        println!();
    }
    Ok(())
}
