//! Internal calibration helper: prints the per-component footprints that
//! position the crossover points, so the domain calibration constants can be
//! tuned against the paper's reported crossovers.

use greenfpga::{Domain, Estimator, OperatingPoint, Workload};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let estimator = Estimator::default();
    for domain in Domain::ALL {
        let cal = domain.calibration();
        let fpga = cal.fpga_spec()?;
        let asic = cal.asic_spec()?;
        let (a_mfg, a_pkg, a_eol) = estimator.hardware_per_chip(asic.chip())?;
        let (f_mfg, f_pkg, f_eol) = estimator.hardware_per_chip(fpga.chip())?;
        let d_a = estimator.design_carbon(asic.chip(), &cal.asic_staffing)?;
        let d_f = estimator.design_carbon(fpga.chip(), &cal.fpga_staffing)?;
        let one = Workload::uniform(domain, 1, 1.0, 1_000_000)?;
        let dep_f = estimator.fpga_deployment_for(&fpga, &one.applications()[0])?;
        let dep_a = estimator.asic_deployment_for(&asic, &one.applications()[0])?;
        println!("=== {domain} ===");
        println!("  ASIC per-chip hw: mfg {a_mfg} pkg {a_pkg} eol {a_eol}");
        println!("  FPGA per-chip hw: mfg {f_mfg} pkg {f_pkg} eol {f_eol}");
        println!("  design: ASIC {d_a}  FPGA {d_f}");
        println!(
            "  per-app (1M units, 1 year): FPGA op {} appdev {}",
            dep_f.operation, dep_f.app_dev
        );
        println!("  per-app (1M units, 1 year): ASIC op {}", dep_a.operation);

        let base = OperatingPoint::paper_default();
        for n in [1u64, 2, 4, 5, 6, 8, 10, 12] {
            let c = estimator.compare_uniform(domain, n, base.lifetime_years, base.volume)?;
            println!("  N={n:2}  ratio {:.3}", c.fpga_to_asic_ratio());
        }
        let compiled = estimator.compile(domain)?;
        if let Some(c) = compiled.crossover_in_lifetime_verified(5, 1_000_000, 0.05, 3.0)? {
            println!("  lifetime crossover: {} at {:.2} y", c.direction, c.at);
        } else {
            println!("  lifetime crossover: none");
        }
        if let Some(c) = compiled.crossover_in_volume_verified(5, 2.0, 1_000, 20_000_000)? {
            println!("  volume crossover: {} at {:.0}", c.direction, c.at);
        } else {
            println!("  volume crossover: none");
        }
    }
    Ok(())
}
