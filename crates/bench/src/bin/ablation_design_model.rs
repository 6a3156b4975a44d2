//! Ablation: GreenFPGA's sustainability-report-based design-CFP model
//! (Eq. 4) versus the prior-art gate-count-based model of ECO-CHIP.
//!
//! The paper's claim: the gate-based model "grossly underestimated" the
//! design CFP; with the report-based model, design is roughly 15% of the
//! embodied CFP for the industry FPGAs.

use greenfpga::lifecycle::GateBasedDesignModel;
use greenfpga::{
    industry_asic1, industry_asic2, industry_fpga1, industry_fpga2, render_table, ChipSpec,
    DesignStaffing, Estimator, IndustryScenario,
};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let estimator = Estimator::default();
    let scenario = IndustryScenario::paper_defaults();
    let staffing: DesignStaffing = scenario.staffing;
    let baseline = GateBasedDesignModel::ecochip_defaults();

    let chips: Vec<ChipSpec> = vec![
        industry_fpga1().chip().clone(),
        industry_fpga2().chip().clone(),
        industry_asic1().chip().clone(),
        industry_asic2().chip().clone(),
    ];

    let mut rows = Vec::new();
    for chip in &chips {
        let report_based = estimator.design_carbon(chip, &staffing)?;
        let gate_based = baseline.design_carbon(chip.gates());
        rows.push(vec![
            chip.name().to_string(),
            format!("{:.2e}", chip.gates().get() as f64),
            format!("{:.1}", gate_based.as_tons()),
            format!("{:.1}", report_based.as_tons()),
            format!(
                "{:.1}x",
                report_based.as_kg() / gate_based.as_kg().max(f64::MIN_POSITIVE)
            ),
        ]);
    }

    println!("Ablation — design-CFP model (values in tCO2e):");
    println!(
        "{}",
        render_table(
            &[
                "Device",
                "Equivalent gates",
                "Gate-based (prior art)",
                "Report-based (GreenFPGA)",
                "Underestimation"
            ],
            &rows
        )
    );

    // Share of embodied carbon attributable to design under each model.
    let mut share_rows = Vec::new();
    for fpga in [industry_fpga1(), industry_fpga2()] {
        let cfp = scenario.evaluate_fpga(&estimator, &fpga)?;
        let embodied_hw = cfp.embodied() - cfp.design;
        let gate_based = baseline.design_carbon(fpga.chip().gates());
        let report_share = cfp.design.as_kg() / cfp.embodied().as_kg();
        let gate_share = gate_based.as_kg() / (embodied_hw + gate_based).as_kg();
        share_rows.push(vec![
            fpga.chip().name().to_string(),
            format!("{:.1}%", gate_share * 100.0),
            format!("{:.1}%", report_share * 100.0),
        ]);
    }
    println!("Design share of embodied CFP (paper reports ~15% with the report-based model):");
    println!(
        "{}",
        render_table(
            &["Device", "Gate-based share", "Report-based share"],
            &share_rows
        )
    );
    Ok(())
}
