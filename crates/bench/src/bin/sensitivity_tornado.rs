//! One-at-a-time (tornado) sensitivity analysis of the FPGA:ASIC verdict.
//!
//! For each Table 1 knob, the FPGA:ASIC ratio is evaluated with the knob at
//! the low and high end of its range while everything else stays at the
//! paper defaults. Knobs are ranked by how much they swing the ratio, and
//! the ones able to flip the greener platform are flagged.

use greenfpga::{render_table, Domain, Estimator, OperatingPoint};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let estimator = Estimator::default();
    let point = OperatingPoint::paper_default();

    for domain in Domain::ALL {
        let tornado = estimator.tornado_analysis(domain, point, 0)?;
        let baseline = tornado
            .entries
            .first()
            .map(|e| e.ratio_at_baseline)
            .unwrap_or(f64::NAN);

        let rows: Vec<Vec<String>> = tornado
            .entries
            .iter()
            .map(|e| {
                vec![
                    e.knob.to_string(),
                    format!(
                        "{:.3} - {:.3} {}",
                        e.knob.range().low,
                        e.knob.range().high,
                        e.knob.unit()
                    ),
                    format!("{:.3}", e.ratio_at_low),
                    format!("{:.3}", e.ratio_at_high),
                    format!("{:.3}", e.swing()),
                    if e.flips_winner() {
                        "yes".into()
                    } else {
                        "no".into()
                    },
                ]
            })
            .collect();

        println!(
            "Tornado analysis — {domain} (baseline FPGA:ASIC ratio {:.3}, N_app=5, T=2 y, N_vol=1e6):",
            baseline
        );
        println!(
            "{}",
            render_table(
                &[
                    "Knob",
                    "Range",
                    "Ratio @ low",
                    "Ratio @ high",
                    "Swing",
                    "Flips winner?"
                ],
                &rows
            )
        );
        let critical = tornado.decision_critical_knobs();
        if critical.is_empty() {
            println!("No single knob flips the verdict for {domain}.");
        } else {
            let names: Vec<String> = critical.iter().map(|k| k.to_string()).collect();
            println!("Decision-critical knobs for {domain}: {}", names.join(", "));
        }
        println!();
    }
    Ok(())
}
