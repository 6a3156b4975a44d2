//! Table 2: iso-performance FPGA testcases — area and power normalized to
//! the ASIC implementation for each domain — plus the calibrated absolute
//! reference implementations this reproduction anchors them to.

use greenfpga::{render_table, Domain};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let mut ratio_rows = Vec::new();
    let mut calibration_rows = Vec::new();
    for domain in Domain::ALL {
        let ratios = domain.iso_performance_ratios();
        ratio_rows.push(vec![
            domain.to_string(),
            format!("{:.2}", ratios.area),
            format!("{:.2}", ratios.power),
        ]);

        let cal = domain.calibration();
        let asic = cal.asic_spec()?;
        let fpga = cal.fpga_spec()?;
        calibration_rows.push(vec![
            domain.to_string(),
            format!("{}", asic.chip().area()),
            format!("{}", asic.chip().tdp()),
            format!("{}", fpga.chip().area()),
            format!("{}", fpga.chip().tdp()),
            cal.node.to_string(),
        ]);
    }

    println!("Table 2 — FPGA testcases at iso-performance with the ASIC (normalized):");
    println!(
        "{}",
        render_table(
            &["Testcase", "Area (norm. to ASIC)", "Power (norm. to ASIC)"],
            &ratio_rows
        )
    );

    println!("Calibrated absolute reference implementations:");
    println!(
        "{}",
        render_table(
            &[
                "Domain",
                "ASIC area",
                "ASIC power",
                "FPGA area",
                "FPGA power",
                "Node"
            ],
            &calibration_rows
        )
    );
    Ok(())
}
