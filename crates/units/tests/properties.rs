//! Property-based tests for the quantity layer.
//!
//! Written as deterministic sampling loops over [`gf_support::SplitMix64`]
//! (the offline build environment cannot fetch proptest); each test draws a
//! few hundred cases from the same ranges the original proptest strategies
//! used.

use gf_support::SplitMix64;
use gf_units::{
    Area, Carbon, CarbonIntensity, CarbonPerArea, ChipCount, Energy, Fraction, GateCount, Mass,
    Power, TimeSpan,
};

const CASES: usize = 256;

fn rng(test_id: u64) -> SplitMix64 {
    SplitMix64::new(0x5EED_0000_0000_0000 ^ test_id)
}

#[test]
fn carbon_addition_is_commutative() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let (a, b) = (
            rng.gen_range_f64(-1.0e9, 1.0e9),
            rng.gen_range_f64(-1.0e9, 1.0e9),
        );
        let x = Carbon::from_kg(a) + Carbon::from_kg(b);
        let y = Carbon::from_kg(b) + Carbon::from_kg(a);
        assert!((x.as_kg() - y.as_kg()).abs() < 1e-6);
    }
}

#[test]
fn carbon_ton_round_trip() {
    let mut rng = rng(2);
    for _ in 0..CASES {
        let kg = rng.gen_range_f64(-1.0e12, 1.0e12);
        let c = Carbon::from_kg(kg);
        assert!((Carbon::from_tons(c.as_tons()).as_kg() - kg).abs() <= kg.abs() * 1e-12 + 1e-9);
    }
}

#[test]
fn energy_round_trips() {
    let mut rng = rng(3);
    for _ in 0..CASES {
        let kwh = rng.gen_range_f64(0.0, 1.0e9);
        let e = Energy::from_kwh(kwh);
        assert!(
            (Energy::from_gigawatt_hours(e.as_gigawatt_hours()).as_kwh() - kwh).abs()
                <= kwh * 1e-12 + 1e-9
        );
    }
}

#[test]
fn power_time_energy_scaling_is_linear() {
    let mut rng = rng(4);
    for _ in 0..CASES {
        let w = rng.gen_range_f64(0.0, 1.0e6);
        let h = rng.gen_range_f64(0.0, 1.0e5);
        let k = rng.gen_range_f64(0.1, 10.0);
        // (k*P) * t == k * (P * t)
        let lhs = (Power::from_watts(w) * k) * TimeSpan::from_hours(h);
        let rhs = (Power::from_watts(w) * TimeSpan::from_hours(h)) * k;
        assert!((lhs.as_kwh() - rhs.as_kwh()).abs() <= lhs.as_kwh().abs() * 1e-9 + 1e-9);
    }
}

#[test]
fn energy_intensity_product_is_monotone() {
    let mut rng = rng(5);
    for _ in 0..CASES {
        let kwh = rng.gen_range_f64(0.0, 1.0e7);
        let g1 = rng.gen_range_f64(0.0, 1000.0);
        let g2 = rng.gen_range_f64(0.0, 1000.0);
        let e = Energy::from_kwh(kwh);
        let lo = CarbonIntensity::from_grams_per_kwh(g1.min(g2));
        let hi = CarbonIntensity::from_grams_per_kwh(g1.max(g2));
        assert!((e * lo).as_kg() <= (e * hi).as_kg() + 1e-9);
    }
}

#[test]
fn area_cm2_round_trip() {
    let mut rng = rng(6);
    for _ in 0..CASES {
        let mm2 = rng.gen_range_f64(0.0, 1.0e9);
        let a = Area::from_mm2(mm2);
        assert!((Area::from_cm2(a.as_cm2()).as_mm2() - mm2).abs() <= mm2 * 1e-12 + 1e-9);
    }
}

#[test]
fn cpa_area_product_scales_with_area() {
    let mut rng = rng(7);
    for _ in 0..CASES {
        let cpa = rng.gen_range_f64(0.0, 100.0);
        let mm2 = rng.gen_range_f64(0.0, 1.0e5);
        let k = rng.gen_range_f64(1.0, 10.0);
        let c = CarbonPerArea::from_kg_per_cm2(cpa);
        let base = (c * Area::from_mm2(mm2)).as_kg();
        let scaled = (c * Area::from_mm2(mm2 * k)).as_kg();
        assert!(scaled + 1e-9 >= base);
    }
}

#[test]
fn timespan_month_round_trip() {
    let mut rng = rng(8);
    for _ in 0..CASES {
        let years = rng.gen_range_f64(0.0, 1.0e4);
        let t = TimeSpan::from_years(years);
        assert!(
            (TimeSpan::from_months(t.as_months()).as_years() - years).abs() <= years * 1e-12 + 1e-9
        );
        assert!(
            (TimeSpan::from_hours(t.as_hours()).as_years() - years).abs() <= years * 1e-9 + 1e-9
        );
    }
}

#[test]
fn fraction_rejects_out_of_range() {
    let mut rng = rng(9);
    for _ in 0..CASES {
        let v = if rng.gen_bool() {
            rng.gen_range_f64(-1.0e6, -1e-9)
        } else {
            rng.gen_range_f64(1.0 + 1e-9, 1.0e6)
        };
        assert!(Fraction::new(v).is_err(), "{v} should be rejected");
    }
}

#[test]
fn fraction_accepts_unit_interval() {
    let mut rng = rng(10);
    for case in 0..CASES {
        // Hit the boundaries exactly as well as interior points.
        let v = match case {
            0 => 0.0,
            1 => 1.0,
            _ => rng.next_f64(),
        };
        let f = Fraction::new(v).unwrap();
        assert!(Fraction::clamped(v).value() == f.value());
    }
}

#[test]
fn fraction_product_stays_in_range() {
    let mut rng = rng(11);
    for _ in 0..CASES {
        let (a, b) = (rng.next_f64(), rng.next_f64());
        let p = Fraction::new(a).unwrap() * Fraction::new(b).unwrap();
        assert!((0.0..=1.0).contains(&p.value()));
    }
}

#[test]
fn gate_ceiling_division_covers_application() {
    let mut rng = rng(12);
    for _ in 0..CASES {
        let app = rng.gen_range_u64(1, 1_000_000_000);
        let cap = rng.gen_range_u64(1, 1_000_000_000);
        let n = GateCount::new(app).fpgas_required(GateCount::new(cap));
        // n FPGAs hold the app, n-1 do not.
        assert!(n * cap >= app);
        assert!((n - 1) * cap < app);
    }
}

#[test]
fn mass_ton_round_trip() {
    let mut rng = rng(13);
    for _ in 0..CASES {
        let kg = rng.gen_range_f64(0.0, 1.0e9);
        let m = Mass::from_kg(kg);
        assert!((Mass::from_tons(m.as_tons()).as_kg() - kg).abs() <= kg * 1e-12 + 1e-9);
        assert!((Mass::from_grams(m.as_grams()).as_kg() - kg).abs() <= kg * 1e-9 + 1e-9);
    }
}

#[test]
fn chip_count_sum_matches_u64_sum() {
    let mut rng = rng(14);
    for _ in 0..CASES {
        let len = rng.gen_index(20);
        let counts: Vec<u64> = (0..len).map(|_| rng.gen_range_u64(0, 999_999)).collect();
        let expected: u64 = counts.iter().sum();
        let total: ChipCount = counts.iter().map(|&c| ChipCount::new(c)).sum();
        assert_eq!(total.get(), expected);
    }
}

#[test]
fn carbon_sum_matches_fold() {
    let mut rng = rng(15);
    for _ in 0..CASES {
        let len = rng.gen_index(50);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range_f64(-1.0e6, 1.0e6)).collect();
        let expected: f64 = values.iter().sum();
        let total: Carbon = values.iter().map(|&v| Carbon::from_kg(v)).sum();
        assert!((total.as_kg() - expected).abs() < 1e-6);
    }
}

#[test]
fn intensity_blend_is_bounded() {
    let mut rng = rng(16);
    for _ in 0..CASES {
        let a = rng.gen_range_f64(0.0, 2000.0);
        let b = rng.gen_range_f64(0.0, 2000.0);
        let w = rng.next_f64();
        let x = CarbonIntensity::from_grams_per_kwh(a);
        let y = CarbonIntensity::from_grams_per_kwh(b);
        let blended = x.blend(y, w).as_grams_per_kwh();
        assert!(blended >= a.min(b) - 1e-9 && blended <= a.max(b) + 1e-9);
    }
}
