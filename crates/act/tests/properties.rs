//! Property-based tests for the manufacturing substrate.
//!
//! Deterministic sampling loops over [`gf_support::SplitMix64`] stand in
//! for the proptest strategies the offline environment cannot fetch.

use gf_act::{ManufacturingModel, PackagingModel, TechnologyNode, Wafer, YieldModel};
use gf_support::SplitMix64;
use gf_units::{Area, Carbon, CarbonPerArea, Fraction};

const CASES: usize = 128;

fn rng(test_id: u64) -> SplitMix64 {
    SplitMix64::new(0xAC7_0000 ^ test_id)
}

fn any_node(rng: &mut SplitMix64) -> TechnologyNode {
    TechnologyNode::ALL[rng.gen_index(TechnologyNode::ALL.len())]
}

#[test]
fn yield_is_always_a_probability() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let mm2 = rng.gen_range_f64(0.0, 3000.0);
        let d0 = rng.gen_range_f64(0.0, 2.0);
        let alpha = rng.gen_range_f64(0.5, 10.0);
        for model in [
            YieldModel::Poisson,
            YieldModel::Murphy,
            YieldModel::NegativeBinomial { alpha },
        ] {
            let y = model.die_yield(Area::from_mm2(mm2), d0);
            assert!((0.0..=1.0).contains(&y), "{model:?} gave {y}");
        }
    }
}

#[test]
fn yield_monotone_in_area() {
    let mut rng = rng(2);
    for _ in 0..CASES {
        let a = rng.gen_range_f64(1.0, 1500.0);
        let b = rng.gen_range_f64(1.0, 1500.0);
        let d0 = rng.gen_range_f64(0.01, 1.0);
        let (small, large) = if a < b { (a, b) } else { (b, a) };
        for model in [
            YieldModel::Poisson,
            YieldModel::Murphy,
            YieldModel::NegativeBinomial { alpha: 3.0 },
        ] {
            assert!(
                model.die_yield(Area::from_mm2(large), d0)
                    <= model.die_yield(Area::from_mm2(small), d0) + 1e-12
            );
        }
    }
}

#[test]
fn manufacturing_carbon_positive_and_monotone_in_area() {
    let mut rng = rng(3);
    for _ in 0..CASES {
        let node = any_node(&mut rng);
        let a = rng.gen_range_f64(1.0, 900.0);
        let b = rng.gen_range_f64(1.0, 900.0);
        let m = ManufacturingModel::for_node(node);
        let (small, large) = if a < b { (a, b) } else { (b, a) };
        let cs = m.carbon_per_die(Area::from_mm2(small)).unwrap();
        let cl = m.carbon_per_die(Area::from_mm2(large)).unwrap();
        assert!(cs.as_kg() > 0.0);
        assert!(cl.as_kg() + 1e-12 >= cs.as_kg());
    }
}

#[test]
fn recycling_never_increases_manufacturing_carbon() {
    let mut rng = rng(4);
    for _ in 0..CASES {
        let node = any_node(&mut rng);
        let mm2 = rng.gen_range_f64(1.0, 900.0);
        let rho = rng.next_f64();
        let die = Area::from_mm2(mm2);
        let base = ManufacturingModel::for_node(node)
            .carbon_per_die(die)
            .unwrap();
        let recycled = ManufacturingModel::for_node(node)
            .with_recycled_material_fraction(Fraction::new(rho).unwrap())
            .carbon_per_die(die)
            .unwrap();
        assert!(recycled.as_kg() <= base.as_kg() + 1e-9);
    }
}

#[test]
fn breakdown_components_sum_to_total() {
    let mut rng = rng(5);
    for _ in 0..CASES {
        let node = any_node(&mut rng);
        let mm2 = rng.gen_range_f64(1.0, 900.0);
        let m = ManufacturingModel::for_node(node);
        let b = m.breakdown_per_die(Area::from_mm2(mm2)).unwrap();
        let total = m.carbon_per_die(Area::from_mm2(mm2)).unwrap();
        assert!((b.total().as_kg() - total.as_kg()).abs() < 1e-9);
        assert!(b.energy.as_kg() >= 0.0 && b.gas.as_kg() >= 0.0 && b.materials.as_kg() >= 0.0);
    }
}

#[test]
fn dies_per_wafer_conserves_area() {
    let mut rng = rng(6);
    for _ in 0..CASES {
        let mm2 = rng.gen_range_f64(1.0, 2000.0);
        let wafer = Wafer::standard_300mm();
        let die = Area::from_mm2(mm2);
        let dies = wafer.dies_per_wafer(die);
        // Whole dies can never exceed the usable area of the wafer.
        let r = wafer.usable_diameter_mm() / 2.0;
        assert!(dies as f64 * mm2 <= std::f64::consts::PI * r * r + 1e-6);
    }
}

#[test]
fn packaging_monotone_in_area() {
    let mut rng = rng(7);
    for _ in 0..CASES {
        let a = rng.gen_range_f64(0.0, 2000.0);
        let b = rng.gen_range_f64(0.0, 2000.0);
        let (small, large) = if a < b { (a, b) } else { (b, a) };
        for pkg in [
            PackagingModel::monolithic(),
            PackagingModel::Interposer2p5D {
                base: Carbon::from_kg(0.25),
                per_area: CarbonPerArea::from_kg_per_cm2(0.10),
                interposer_per_area: CarbonPerArea::from_kg_per_cm2(0.40),
                interposer_area_factor: 1.3,
            },
        ] {
            assert!(
                pkg.carbon_for_die(Area::from_mm2(large)).as_kg() + 1e-12
                    >= pkg.carbon_for_die(Area::from_mm2(small)).as_kg()
            );
        }
    }
}
