//! Quickstart: compare the carbon footprint of FPGA- and ASIC-based
//! acceleration for a handful of successive DNN applications.
//!
//! Run with `cargo run -p greenfpga --example quickstart`.

use greenfpga::{Domain, Estimator, EstimatorParams, PlatformKind, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build an estimator from the paper's calibrated defaults. Every knob
    //    of Table 1 (fab grid, recycled materials, EOL factors, design house,
    //    deployment duty cycle, ...) can be overridden on `EstimatorParams`.
    let estimator = Estimator::new(EstimatorParams::paper_defaults());

    // 2. Describe the workload: five successive DNN applications, each
    //    living two years in the field on one million devices.
    let workload = Workload::uniform(Domain::Dnn, 5, 2.0, 1_000_000)?;

    // 3. Compare the two platforms at iso-performance (Table 2 ratios).
    let comparison = estimator.compare_domain(&workload)?;

    println!("Domain:              {}", workload.domain());
    println!("Applications:        {}", workload.len());
    println!();
    println!("FPGA platform total: {}", comparison.fpga.total());
    println!("  embodied           {}", comparison.fpga.embodied());
    println!("  deployment         {}", comparison.fpga.deployment());
    println!("ASIC platform total: {}", comparison.asic.total());
    println!("  embodied           {}", comparison.asic.embodied());
    println!("  deployment         {}", comparison.asic.deployment());
    println!();
    println!(
        "FPGA : ASIC ratio    {:.2}",
        comparison.fpga_to_asic_ratio()
    );
    println!("Greener platform:    {}", comparison.winner());

    // 4. Ask where the preference flips: how many applications does the
    //    FPGA need before its one-time embodied cost is amortized? Fast
    //    analyses run on the domain compiled once against the parameters.
    let dnn = estimator.compile(Domain::Dnn)?;
    if let Some(n) = dnn.crossover_in_applications_verified(16, 2.0, 1_000_000)? {
        println!("FPGA becomes greener from {n} applications onward (A2F crossover).");
    } else {
        println!("The FPGA never catches up within 16 applications.");
    }

    if comparison.winner() == PlatformKind::Fpga {
        println!(
            "Choosing the FPGA saves {} over the workload.",
            comparison.savings()
        );
    }
    Ok(())
}
