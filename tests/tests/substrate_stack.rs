//! Cross-crate integration tests exercising the substrate crates together
//! (units → act → lifecycle → core) through realistic flows.

use gf_act::{EnergySource, GridMix, ManufacturingModel, PackagingModel, TechnologyNode, Wafer};
use gf_lifecycle::{DesignHouse, DesignProject, DevelopmentFlow, EolModel, OperationProfile};
use gf_units::{Area, CarbonIntensity, ChipCount, Fraction, GateCount, Mass, Power, TimeSpan};
use greenfpga::{
    Application, ChipSpec, DesignStaffing, Domain, Estimator, EstimatorParams, FpgaSpec,
};

#[test]
fn per_chip_embodied_footprint_composes_from_the_substrates() {
    // Build the IndustryFPGA2-class chip by hand from the substrate crates
    // and check the core estimator reports exactly the same hardware
    // footprint.
    let params = EstimatorParams::paper_defaults();
    let estimator = Estimator::new(params.clone());
    let chip = ChipSpec::new(
        "stratix-like",
        Area::from_mm2(550.0),
        Power::from_watts(220.0),
        TechnologyNode::N10,
    )
    .unwrap();

    let (mfg, pkg, eol) = estimator.hardware_per_chip(&chip).unwrap();

    let manual_mfg = params
        .manufacturing_model(TechnologyNode::N10)
        .carbon_per_die(Area::from_mm2(550.0))
        .unwrap();
    let manual_pkg = PackagingModel::monolithic().carbon_for_die(Area::from_mm2(550.0));
    let manual_eol = params.eol_model().carbon_per_chip(chip.packaged_mass());

    assert!((mfg.as_kg() - manual_mfg.as_kg()).abs() < 1e-9);
    assert!((pkg.as_kg() - manual_pkg.as_kg()).abs() < 1e-9);
    assert!((eol.as_kg() - manual_eol.as_kg()).abs() < 1e-9);
}

#[test]
fn design_footprint_matches_a_manual_eq4_evaluation() {
    let estimator = Estimator::new(EstimatorParams::paper_defaults());
    let chip = ChipSpec::new(
        "accelerator",
        Area::from_mm2(200.0),
        Power::from_watts(10.0),
        TechnologyNode::N7,
    )
    .unwrap();
    let staffing = DesignStaffing::new(750, 2.5);
    let from_estimator = estimator.design_carbon(&chip, &staffing).unwrap();

    let house =
        DesignHouse::default_fabless().with_average_chip_gates(GateCount::from_millions(500.0));
    let project = DesignProject::new(chip.gates(), TimeSpan::from_years(2.5), 750).unwrap();
    let manual = house.design_carbon(&project);

    assert!((from_estimator.as_kg() - manual.as_kg()).abs() < 1e-6);
}

#[test]
fn operation_and_appdev_compose_into_the_fpga_deployment() {
    let estimator = Estimator::new(EstimatorParams::paper_defaults());
    let cal = Domain::Dnn.calibration();
    let fpga = cal.fpga_spec().unwrap();
    let app = Application::new(
        "one-year",
        cal.reference_asic_gates(),
        TimeSpan::from_years(1.0),
        ChipCount::new(10_000),
    )
    .unwrap();
    let deployment = estimator.fpga_deployment_for(&fpga, &app).unwrap();

    let profile = OperationProfile::new(
        fpga.chip().tdp(),
        estimator.params().deployment().duty_cycle,
        estimator.params().deployment().usage_grid,
    );
    let manual_operation = profile.carbon_over(TimeSpan::from_years(1.0)) * 10_000.0;
    assert!((deployment.operation.as_kg() - manual_operation.as_kg()).abs() < 1e-6);

    let manual_appdev = estimator
        .params()
        .appdev()
        .with_config_time(FpgaSpec::CONFIGURATION_TIME)
        .carbon(DevelopmentFlow::FpgaHardware, 1, 10_000);
    assert!((deployment.app_dev.as_kg() - manual_appdev.as_kg()).abs() < 1e-6);
}

#[test]
fn cleaner_energy_everywhere_shrinks_every_component() {
    let dirty = Estimator::new(
        EstimatorParams::paper_defaults()
            .with_fab_grid(GridMix::CoalHeavy.carbon_intensity())
            .with_deployment(greenfpga::DeploymentParams::new(
                Fraction::new(0.2).unwrap(),
                GridMix::CoalHeavy.carbon_intensity(),
            )),
    );
    let clean = Estimator::new(
        EstimatorParams::paper_defaults()
            .with_fab_grid(EnergySource::Wind.carbon_intensity())
            .with_fab_renewable_share(Fraction::new(0.9).unwrap())
            .with_design_house(
                DesignHouse::new(
                    gf_units::Energy::from_gigawatt_hours(5.0),
                    CarbonIntensity::from_grams_per_kwh(30.0),
                    40_000,
                )
                .unwrap(),
            )
            .with_deployment(greenfpga::DeploymentParams::new(
                Fraction::new(0.2).unwrap(),
                GridMix::Iceland.carbon_intensity(),
            )),
    );
    let workload = greenfpga::Workload::uniform(Domain::Dnn, 5, 2.0, 500_000).unwrap();
    let dirty_result = dirty.compare_domain(&workload).unwrap();
    let clean_result = clean.compare_domain(&workload).unwrap();
    for (d, c) in [
        (dirty_result.fpga, clean_result.fpga),
        (dirty_result.asic, clean_result.asic),
    ] {
        assert!(c.design < d.design);
        assert!(c.manufacturing < d.manufacturing);
        assert!(c.operation < d.operation);
        assert!(c.total() < d.total());
    }
}

#[test]
fn wafer_and_yield_models_bound_the_manufacturing_cost() {
    // The per-die manufacturing footprint implied by a whole wafer divided
    // by dies-per-wafer must be below the yielded per-die figure (which
    // charges the losses to good dies) but in the same ballpark.
    let node = TechnologyNode::N7;
    let model = ManufacturingModel::for_node(node);
    let die = Area::from_mm2(340.0);
    let wafer = Wafer::standard_300mm();

    let per_good_die = model.carbon_per_die(die).unwrap();
    let breakdown = model.breakdown_per_die(die).unwrap();
    let unyielded = per_good_die * breakdown.die_yield;
    let dies = wafer.dies_per_wafer(die) as f64;
    assert!(dies > 50.0);
    assert!(unyielded < per_good_die);
    assert!(per_good_die.as_kg() < 3.0 * unyielded.as_kg());
}

#[test]
fn eol_credits_flow_through_to_the_platform_totals() {
    let workload =
        greenfpga::Workload::uniform(Domain::ImageProcessing, 3, 2.0, 1_000_000).unwrap();
    let landfill = Estimator::new(EstimatorParams::paper_defaults());
    let recycler = Estimator::new(
        EstimatorParams::paper_defaults().with_eol_recycled_fraction(Fraction::new(0.95).unwrap()),
    );
    let base = landfill.compare_domain(&workload).unwrap();
    let circular = recycler.compare_domain(&workload).unwrap();
    assert!(base.fpga.eol.as_kg() > 0.0);
    assert!(circular.fpga.eol.is_credit());
    assert!(circular.fpga.total() < base.fpga.total());

    // And the EOL model itself agrees about the sign change.
    let eol = EolModel::default_warm().with_recycled_fraction(Fraction::new(0.95).unwrap());
    assert!(eol.carbon_per_chip(Mass::from_grams(50.0)).is_credit());
}

#[test]
fn multi_fpga_applications_scale_the_fleet() {
    let estimator = Estimator::new(EstimatorParams::paper_defaults());
    let cal = Domain::Dnn.calibration();
    let fpga: FpgaSpec = cal.fpga_spec().unwrap();
    // An application four times the FPGA capacity needs four devices per
    // deployed unit.
    let huge = Application::new(
        "huge",
        GateCount::new(fpga.capacity().get() * 4),
        TimeSpan::from_years(1.0),
        ChipCount::new(1_000),
    )
    .unwrap();
    assert_eq!(fpga.fpgas_for_application(huge.gates()), 4);
    let small = Application::new(
        "small",
        fpga.capacity(),
        TimeSpan::from_years(1.0),
        ChipCount::new(1_000),
    )
    .unwrap();
    let small_est = estimator
        .fpga_estimate(&fpga, &cal.fpga_staffing, &[small])
        .unwrap();
    let huge_est = estimator
        .fpga_estimate(&fpga, &cal.fpga_staffing, &[huge])
        .unwrap();
    let small_hw = small_est.manufacturing + small_est.packaging + small_est.eol;
    let huge_hw = huge_est.manufacturing + huge_est.packaging + huge_est.eol;
    assert!((huge_hw.as_kg() - 4.0 * small_hw.as_kg()).abs() < 1e-6);
    assert!((huge_est.operation.as_kg() - 4.0 * small_est.operation.as_kg()).abs() < 1e-6);
}
