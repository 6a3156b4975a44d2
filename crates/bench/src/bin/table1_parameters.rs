//! Table 1: the input parameter ranges of GreenFPGA and the defaults this
//! reproduction uses.

use greenfpga::lifecycle::EolModel;
use greenfpga::{render_table, Estimator};

fn main() {
    let estimator = Estimator::default();
    let params = estimator.params();
    let appdev = params.appdev();
    let house = params.design_house();

    let rows = vec![
        vec![
            "C_materials".into(),
            "rho (recycled material fraction)".into(),
            "0 - 1".into(),
            format!("{:.2}", params.recycled_material_fraction().value()),
            "-".into(),
        ],
        vec![
            "C_EOL".into(),
            "delta (recycled chip fraction)".into(),
            "0 - 1".into(),
            format!("{:.2}", params.eol_model().recycled_fraction().value()),
            "-".into(),
        ],
        vec![
            "C_EOL".into(),
            "C_recycle".into(),
            format!(
                "{} - {}",
                EolModel::RECYCLE_RANGE_TONS_PER_TON.0,
                EolModel::RECYCLE_RANGE_TONS_PER_TON.1
            ),
            "15.0".into(),
            "MTCO2E/ton".into(),
        ],
        vec![
            "C_EOL".into(),
            "C_dis".into(),
            format!(
                "{} - {}",
                EolModel::DISCARD_RANGE_TONS_PER_TON.0,
                EolModel::DISCARD_RANGE_TONS_PER_TON.1
            ),
            "1.0".into(),
            "MTCO2E/ton".into(),
        ],
        vec![
            "C_app-dev".into(),
            "T_app,FE".into(),
            "1.5 - 2.5".into(),
            format!("{:.1}", appdev.frontend_time().as_months()),
            "months".into(),
        ],
        vec![
            "C_app-dev".into(),
            "T_app,BE".into(),
            "0.5 - 1.5".into(),
            format!("{:.1}", appdev.backend_time().as_months()),
            "months".into(),
        ],
        vec![
            "C_des".into(),
            "E_des".into(),
            "2 - 7.3".into(),
            format!("{:.1}", house.annual_energy().as_gigawatt_hours()),
            "GWh".into(),
        ],
        vec![
            "C_des".into(),
            "C_src,des".into(),
            "30 - 700".into(),
            format!("{:.0}", house.effective_intensity().as_grams_per_kwh()),
            "g CO2/kWh".into(),
        ],
        vec![
            "C_des".into(),
            "N_emp,des".into(),
            "20K - 160K".into(),
            format!("{}", house.total_employees()),
            "employees".into(),
        ],
        vec![
            "C_des".into(),
            "T_proj".into(),
            "1 - 3".into(),
            "2.0 (per domain calibration)".into(),
            "years".into(),
        ],
        vec![
            "C_op".into(),
            "duty cycle".into(),
            "0 - 1".into(),
            format!("{:.2}", params.deployment().duty_cycle.value()),
            "-".into(),
        ],
        vec![
            "C_op".into(),
            "C_src,use".into(),
            "30 - 700".into(),
            format!("{:.0}", params.deployment().usage_grid.as_grams_per_kwh()),
            "g CO2/kWh".into(),
        ],
    ];

    println!("Table 1 — input parameter ranges and this reproduction's defaults:");
    println!(
        "{}",
        render_table(
            &["Model", "Parameter", "Paper range", "Default here", "Unit"],
            &rows
        )
    );
}
