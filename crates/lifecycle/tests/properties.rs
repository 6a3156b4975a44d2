//! Property-based tests for the lifecycle models.
//!
//! Deterministic sampling loops over [`gf_support::SplitMix64`] stand in
//! for the proptest strategies the offline environment cannot fetch.

use gf_lifecycle::{
    AppDevModel, DesignHouse, DesignProject, DevelopmentFlow, EolModel, OperationProfile,
};
use gf_support::SplitMix64;
use gf_units::{
    CarbonIntensity, CarbonPerMass, Energy, Fraction, GateCount, Mass, Power, TimeSpan,
};

const CASES: usize = 128;

fn rng(test_id: u64) -> SplitMix64 {
    SplitMix64::new(0x11FE_0000 ^ test_id)
}

#[test]
fn design_carbon_is_nonnegative_and_linear_in_duration() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let gwh = rng.gen_range_f64(2.0, 7.3);
        let grid = rng.gen_range_f64(30.0, 700.0);
        let employees = rng.gen_range_u64(20_000, 160_000);
        let engineers = rng.gen_range_u64(1, 5_000);
        let years = rng.gen_range_f64(0.0, 3.0);
        let mgates = rng.gen_range_f64(1.0, 50_000.0);
        let house = DesignHouse::new(
            Energy::from_gigawatt_hours(gwh),
            CarbonIntensity::from_grams_per_kwh(grid),
            employees,
        )
        .unwrap();
        let p1 = DesignProject::new(
            GateCount::from_millions(mgates),
            TimeSpan::from_years(years),
            engineers,
        )
        .unwrap();
        let p2 = DesignProject::new(
            GateCount::from_millions(mgates),
            TimeSpan::from_years(years * 2.0),
            engineers,
        )
        .unwrap();
        let c1 = house.design_carbon(&p1).as_kg();
        let c2 = house.design_carbon(&p2).as_kg();
        assert!(c1 >= 0.0);
        assert!((c2 - 2.0 * c1).abs() <= c1.abs() * 1e-9 + 1e-9);
    }
}

#[test]
fn more_employees_dilute_per_chip_footprint() {
    let mut rng = rng(2);
    for _ in 0..CASES {
        let employees = rng.gen_range_u64(20_000, 80_000);
        let project = DesignProject::new(
            GateCount::from_millions(500.0),
            TimeSpan::from_years(2.0),
            100,
        )
        .unwrap();
        let smaller = DesignHouse::new(
            Energy::from_gigawatt_hours(5.0),
            CarbonIntensity::from_grams_per_kwh(400.0),
            employees,
        )
        .unwrap();
        let larger = DesignHouse::new(
            Energy::from_gigawatt_hours(5.0),
            CarbonIntensity::from_grams_per_kwh(400.0),
            employees * 2,
        )
        .unwrap();
        assert!(larger.design_carbon(&project).as_kg() < smaller.design_carbon(&project).as_kg());
    }
}

#[test]
fn eol_bounded_by_pure_discard_and_pure_credit() {
    let mut rng = rng(3);
    for _ in 0..CASES {
        let discard = rng.gen_range_f64(0.03, 2.08);
        let credit = rng.gen_range_f64(7.65, 29.83);
        let delta = rng.next_f64();
        let grams = rng.gen_range_f64(1.0, 500.0);
        let mass = Mass::from_grams(grams);
        let model = EolModel::new(
            CarbonPerMass::from_tons_co2_per_ton(discard),
            CarbonPerMass::from_tons_co2_per_ton(credit),
            Fraction::new(delta).unwrap(),
        );
        let c = model.carbon_per_chip(mass).as_kg();
        let full_discard = (CarbonPerMass::from_tons_co2_per_ton(discard) * mass).as_kg();
        let full_credit = -(CarbonPerMass::from_tons_co2_per_ton(credit) * mass).as_kg();
        assert!(c <= full_discard + 1e-9);
        assert!(c >= full_credit - 1e-9);
    }
}

#[test]
fn eol_break_even_is_a_root() {
    let mut rng = rng(4);
    for _ in 0..CASES {
        let discard = rng.gen_range_f64(0.03, 2.08);
        let credit = rng.gen_range_f64(7.65, 29.83);
        let grams = rng.gen_range_f64(1.0, 500.0);
        let model = EolModel::new(
            CarbonPerMass::from_tons_co2_per_ton(discard),
            CarbonPerMass::from_tons_co2_per_ton(credit),
            Fraction::ZERO,
        );
        // C_EOL = (1 - δ)·C_dis - δ·C_recycle is zero at δ = C_dis / (C_dis + C_recycle).
        let delta = Fraction::new(discard / (discard + credit)).unwrap();
        let c = model
            .with_recycled_fraction(delta)
            .carbon_per_chip(Mass::from_grams(grams));
        assert!(c.as_kg().abs() < 1e-6);
    }
}

#[test]
fn appdev_fpga_flow_dominates_asic_flow() {
    let mut rng = rng(5);
    for _ in 0..CASES {
        let apps = rng.gen_range_u64(0, 19);
        let volume = rng.gen_range_u64(0, 9_999_999);
        let fe_months = rng.gen_range_f64(1.5, 2.5);
        let be_months = rng.gen_range_f64(0.5, 1.5);
        let model = AppDevModel::new(
            Power::from_kilowatts(2.0),
            CarbonIntensity::from_grams_per_kwh(400.0),
            TimeSpan::from_months(fe_months),
            TimeSpan::from_months(be_months),
            TimeSpan::from_seconds(600.0),
        )
        .unwrap();
        let fpga = model.carbon(DevelopmentFlow::FpgaHardware, apps, volume);
        let asic = model.carbon(DevelopmentFlow::AsicSoftware, apps, volume);
        assert!(fpga.as_kg() >= asic.as_kg());
        assert_eq!(asic.as_kg(), 0.0);
    }
}

#[test]
fn appdev_monotone_in_apps_and_volume() {
    let mut rng = rng(6);
    for _ in 0..CASES {
        let apps = rng.gen_range_u64(0, 19);
        let volume = rng.gen_range_u64(0, 999_999);
        let model = AppDevModel::default_paper();
        let base = model
            .carbon(DevelopmentFlow::FpgaHardware, apps, volume)
            .as_kg();
        let more_apps = model
            .carbon(DevelopmentFlow::FpgaHardware, apps + 1, volume)
            .as_kg();
        let more_volume = model
            .carbon(DevelopmentFlow::FpgaHardware, apps, volume + 1000)
            .as_kg();
        assert!(more_apps >= base);
        assert!(more_volume >= base);
    }
}

#[test]
fn operation_carbon_is_bilinear() {
    let mut rng = rng(7);
    for _ in 0..CASES {
        let watts = rng.gen_range_f64(1.0, 500.0);
        let duty = rng.next_f64();
        let grid = rng.gen_range_f64(10.0, 900.0);
        let years = rng.gen_range_f64(0.0, 20.0);
        let p = OperationProfile::new(
            Power::from_watts(watts),
            Fraction::new(duty).unwrap(),
            CarbonIntensity::from_grams_per_kwh(grid),
        );
        let c = p.carbon_over(TimeSpan::from_years(years)).as_kg();
        let expected = watts / 1000.0 * duty * 8766.0 * years * grid / 1000.0;
        assert!((c - expected).abs() <= expected.abs() * 1e-9 + 1e-9);
    }
}
