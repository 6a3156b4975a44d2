//! Ablation: how the choice of die-yield model (Poisson, Murphy,
//! negative-binomial) shifts the manufacturing CFP and the DNN crossover
//! points.
//!
//! The yield model determines how heavily the FPGA's larger die is penalised
//! — large dies at a pessimistic yield model make the FPGA's embodied cost
//! harder to amortize, pushing the A2F crossover to more applications.

use greenfpga::act::YieldModel;
use greenfpga::units::Area;
use greenfpga::{render_table, Domain, Estimator, EstimatorParams};

fn main() -> Result<(), greenfpga::GreenFpgaError> {
    let models: [(&str, YieldModel); 4] = [
        ("Murphy (default)", YieldModel::Murphy),
        ("Poisson", YieldModel::Poisson),
        (
            "Neg. binomial (a=3)",
            YieldModel::NegativeBinomial { alpha: 3.0 },
        ),
        ("Perfect yield", YieldModel::Fixed { value: 1.0 }),
    ];

    // Per-die manufacturing footprint of the DNN-domain FPGA under each
    // yield model.
    let cal = Domain::Dnn.calibration();
    let fpga_area: Area = cal.fpga_spec()?.chip().area();
    let mut mfg_rows = Vec::new();
    for (name, model) in models {
        let params = EstimatorParams::paper_defaults().with_yield_model(model);
        let mfg = params
            .manufacturing_model(cal.node)
            .carbon_per_die(fpga_area)?;
        let yield_value = params.manufacturing_model(cal.node).die_yield(fpga_area);
        mfg_rows.push(vec![
            name.to_string(),
            format!("{:.3}", yield_value),
            format!("{:.2}", mfg.as_kg()),
        ]);
    }
    println!("DNN-domain FPGA die ({fpga_area}) manufacturing CFP by yield model:");
    println!(
        "{}",
        render_table(
            &["Yield model", "Die yield", "C_mfg per good die (kg)"],
            &mfg_rows
        )
    );

    // Crossover sensitivity.
    let mut crossover_rows = Vec::new();
    for (name, model) in models {
        let compiled = Estimator::new(EstimatorParams::paper_defaults().with_yield_model(model))
            .compile(Domain::Dnn)?;
        let apps = compiled.crossover_in_applications_verified(20, 2.0, 1_000_000)?;
        let lifetime = compiled.crossover_in_lifetime_verified(5, 1_000_000, 0.05, 3.0)?;
        crossover_rows.push(vec![
            name.to_string(),
            apps.map_or("none".into(), |n| format!("{n}")),
            lifetime.map_or("none".into(), |c| format!("{:.2} y", c.at)),
        ]);
    }
    println!("DNN crossovers by yield model (T=2 y, N_vol=1e6 / N_app=5):");
    println!(
        "{}",
        render_table(
            &[
                "Yield model",
                "A2F crossover (apps)",
                "F2A crossover (lifetime)"
            ],
            &crossover_rows
        )
    );

    println!("Baseline (paper defaults) for reference:");
    let default_dnn = Estimator::default().compile(Domain::Dnn)?;
    println!(
        "  A2F at {:?} applications",
        default_dnn.crossover_in_applications_verified(20, 2.0, 1_000_000)?
    );
    Ok(())
}
