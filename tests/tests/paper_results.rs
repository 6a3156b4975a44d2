//! Cross-crate integration tests: do the assembled models reproduce the
//! qualitative results the paper reports for each figure?

use greenfpga::{
    industry_asic1, industry_asic2, industry_fpga1, industry_fpga2, CrossoverDirection, Domain,
    Estimator, EstimatorParams, IndustryScenario, LongHorizonScenario, OperatingPoint,
    PlatformKind, SweepAxis, Workload,
};

fn estimator() -> Estimator {
    Estimator::new(EstimatorParams::paper_defaults())
}

#[test]
fn fig2_fpga_wins_by_double_digit_margin_at_ten_apps() {
    let est = estimator();
    let one = est.compare_uniform(Domain::Dnn, 1, 2.0, 1_000_000).unwrap();
    let ten = est
        .compare_uniform(Domain::Dnn, 10, 2.0, 1_000_000)
        .unwrap();
    assert_eq!(one.winner(), PlatformKind::Asic);
    assert_eq!(ten.winner(), PlatformKind::Fpga);
    // Paper: ~25% lower CFP at ten applications. Accept a generous band.
    let saving = 1.0 - ten.fpga_to_asic_ratio();
    assert!((0.15..0.55).contains(&saving), "saving was {saving}");
}

#[test]
fn fig4_crossover_ordering_matches_the_paper() {
    let est = estimator();
    let crypto = est
        .compile(Domain::Crypto)
        .unwrap()
        .crossover_in_applications_verified(20, 2.0, 1_000_000)
        .unwrap()
        .expect("crypto crossover");
    let dnn = est
        .compile(Domain::Dnn)
        .unwrap()
        .crossover_in_applications_verified(20, 2.0, 1_000_000)
        .unwrap()
        .expect("dnn crossover");
    let imgproc = est
        .compile(Domain::ImageProcessing)
        .unwrap()
        .crossover_in_applications_verified(20, 2.0, 1_000_000)
        .unwrap()
        .expect("imgproc crossover");
    // Paper: 1 app (Crypto) < 6 apps (DNN) < 12 apps (ImgProc).
    assert!(crypto < dnn, "crypto {crypto} !< dnn {dnn}");
    assert!(dnn < imgproc, "dnn {dnn} !< imgproc {imgproc}");
    assert!(crypto <= 2);
    assert!((4..=8).contains(&dnn), "dnn crossover {dnn}");
    assert!((8..=16).contains(&imgproc), "imgproc crossover {imgproc}");
}

#[test]
fn fig5_lifetime_behaviour_matches_the_paper() {
    let est = estimator();
    // Crypto: FPGA wins at every lifetime.
    assert!(est
        .compile(Domain::Crypto)
        .unwrap()
        .crossover_in_lifetime_verified(5, 1_000_000, 0.05, 3.0)
        .unwrap()
        .is_none());
    for lifetime in [0.2, 1.0, 2.5] {
        let c = est
            .compare_uniform(Domain::Crypto, 5, lifetime, 1_000_000)
            .unwrap();
        assert_eq!(c.winner(), PlatformKind::Fpga);
    }
    // ImgProc: ASIC wins at every lifetime.
    assert!(est
        .compile(Domain::ImageProcessing)
        .unwrap()
        .crossover_in_lifetime_verified(5, 1_000_000, 0.05, 3.0)
        .unwrap()
        .is_none());
    for lifetime in [0.2, 1.0, 2.5] {
        let c = est
            .compare_uniform(Domain::ImageProcessing, 5, lifetime, 1_000_000)
            .unwrap();
        assert_eq!(c.winner(), PlatformKind::Asic);
    }
    // DNN: F2A crossover near 1.6 years.
    let crossover = est
        .compile(Domain::Dnn)
        .unwrap()
        .crossover_in_lifetime_verified(5, 1_000_000, 0.05, 3.0)
        .unwrap()
        .expect("dnn lifetime crossover");
    assert_eq!(crossover.direction, CrossoverDirection::FpgaToAsic);
    assert!(
        (1.0..2.3).contains(&crossover.at),
        "DNN F2A at {} years (paper: 1.6)",
        crossover.at
    );
}

#[test]
fn fig6_volume_behaviour_matches_the_paper() {
    let est = estimator();
    // Crypto: FPGA wins at every volume.
    assert!(est
        .compile(Domain::Crypto)
        .unwrap()
        .crossover_in_volume_verified(5, 2.0, 1_000, 20_000_000)
        .unwrap()
        .is_none());
    // DNN and ImgProc: F2A crossovers, with ImgProc flipping at a lower
    // volume than DNN (paper: 300K vs 2M).
    let dnn = est
        .compile(Domain::Dnn)
        .unwrap()
        .crossover_in_volume_verified(5, 2.0, 1_000, 20_000_000)
        .unwrap()
        .expect("dnn volume crossover");
    let imgproc = est
        .compile(Domain::ImageProcessing)
        .unwrap()
        .crossover_in_volume_verified(5, 2.0, 1_000, 20_000_000)
        .unwrap()
        .expect("imgproc volume crossover");
    assert_eq!(dnn.direction, CrossoverDirection::FpgaToAsic);
    assert_eq!(imgproc.direction, CrossoverDirection::FpgaToAsic);
    assert!(
        imgproc.at < dnn.at,
        "imgproc {} !< dnn {}",
        imgproc.at,
        dnn.at
    );
    assert!(
        (100_000.0..4_000_000.0).contains(&dnn.at),
        "dnn volume crossover {}",
        dnn.at
    );
    assert!(
        (30_000.0..1_000_000.0).contains(&imgproc.at),
        "imgproc volume crossover {}",
        imgproc.at
    );
}

#[test]
fn fig7_component_dominance_matches_the_paper() {
    let est = estimator();
    // (a) More applications: ASIC embodied grows and dominates its total.
    let one = est.compare_uniform(Domain::Dnn, 1, 2.0, 1_000_000).unwrap();
    let eight = est.compare_uniform(Domain::Dnn, 8, 2.0, 1_000_000).unwrap();
    assert!(
        eight.asic.embodied().as_kg() > 7.9 * one.asic.embodied().as_kg(),
        "ASIC embodied must scale with applications"
    );
    assert!((eight.fpga.embodied().as_kg() - one.fpga.embodied().as_kg()).abs() < 1.0);
    assert!(eight.asic.embodied() > eight.asic.deployment());
    // (b) Longer lifetimes: FPGA operational carbon grows to dominate.
    let short = est.compare_uniform(Domain::Dnn, 5, 0.5, 1_000_000).unwrap();
    let long = est.compare_uniform(Domain::Dnn, 5, 2.5, 1_000_000).unwrap();
    assert!(long.fpga.operation > short.fpga.operation);
    assert!(long.fpga.operation.as_kg() > 4.0 * short.fpga.operation.as_kg());
    // (c) Low volume: embodied dominates both platforms' totals.
    let low_volume = est.compare_uniform(Domain::Dnn, 5, 2.0, 1_000).unwrap();
    assert!(low_volume.fpga.embodied() > low_volume.fpga.deployment());
    assert!(low_volume.asic.embodied() > low_volume.asic.deployment());
}

#[test]
fn fig8_heatmap_frontier_moves_the_right_way() {
    let est = estimator();
    let base = OperatingPoint::paper_default();
    let apps: Vec<f64> = (1..=8).map(|n| n as f64).collect();
    let lifetimes: Vec<f64> = (1..=8).map(|i| 0.3 * i as f64).collect();
    let grid = est
        .compile(Domain::Dnn)
        .unwrap()
        .ratio_grid(
            SweepAxis::Applications,
            &apps,
            SweepAxis::LifetimeYears,
            &lifetimes,
            base,
            0,
        )
        .unwrap();
    // Within a row (fixed lifetime) the ratio falls as apps increase.
    let width = apps.len();
    for row in grid.ratios.chunks(width) {
        for pair in row.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9);
        }
    }
    // Once enough applications exist for reuse to matter, longer lifetimes
    // erode the FPGA's advantage: the highest-app column must be monotone
    // increasing in lifetime. (At one application the FPGA's fixed embodied
    // cost dominates both totals and the trend can invert, so the check is
    // limited to the reuse-heavy column, which is what the paper's heatmap
    // frontier illustrates.)
    let last_col = width - 1;
    for row in 0..lifetimes.len() - 1 {
        let (below, above) = (
            grid.ratios[row * width + last_col],
            grid.ratios[(row + 1) * width + last_col],
        );
        assert!(above >= below - 1e-9);
    }
    // The FPGA-favourable corner (many apps, short lifetime) and the
    // ASIC-favourable corner (few apps, long lifetime) disagree.
    assert!(grid.ratios[last_col] < 1.0);
    assert!(grid.ratios[(lifetimes.len() - 1) * width] > 1.0);
}

#[test]
fn fig9_replacement_jumps_only_affect_the_fpga_curve() {
    let est = estimator();
    for domain in Domain::ALL {
        let series = LongHorizonScenario::paper_fig9(domain).run(&est).unwrap();
        let fpga_steps: Vec<f64> = series
            .windows(2)
            .map(|w| (w[1].fpga_cumulative - w[0].fpga_cumulative).as_kg())
            .collect();
        let asic_steps: Vec<f64> = series
            .windows(2)
            .map(|w| (w[1].asic_cumulative - w[0].asic_cumulative).as_kg())
            .collect();
        // FPGA steps at the replacement years (15→16 and 30→31, indices 14
        // and 29) are much larger than the step just before.
        assert!(fpga_steps[14] > 2.0 * fpga_steps[13], "{domain}");
        assert!(fpga_steps[29] > 2.0 * fpga_steps[28], "{domain}");
        // ASIC steps stay uniform throughout.
        let max = asic_steps.iter().cloned().fold(0.0, f64::max);
        let min = asic_steps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max < 1.2 * min, "{domain}: ASIC steps vary too much");
    }
}

#[test]
fn fig10_fig11_industry_component_ordering() {
    let est = estimator();
    let scenario = IndustryScenario::paper_defaults();
    for fpga in [industry_fpga1(), industry_fpga2()] {
        let cfp = scenario.evaluate_fpga(&est, &fpga).unwrap();
        // Operation dominates, then manufacturing, then design; app-dev and
        // EOL are minor.
        assert!(cfp.operation > cfp.manufacturing);
        assert!(cfp.manufacturing > cfp.design);
        assert!(cfp.design > cfp.app_dev);
        assert!(cfp.eol.abs().as_kg() < cfp.design.as_kg());
        // Paper: design is ~15% of embodied CFP.
        let share = cfp.design_share_of_embodied().unwrap();
        assert!(
            (0.05..0.35).contains(&share),
            "{}: {share}",
            fpga.chip().name()
        );
    }
    for asic in [industry_asic1(), industry_asic2()] {
        let cfp = scenario.evaluate_asic(&est, &asic).unwrap();
        assert!(cfp.operation > cfp.manufacturing);
        assert!(cfp.manufacturing > cfp.design);
        assert_eq!(cfp.app_dev.as_kg(), 0.0);
    }
}

#[test]
fn headline_claims_hold_for_the_dnn_domain() {
    let est = estimator();
    // (i) Application lifetimes below ~1.6 years favour the FPGA.
    let short = est.compare_uniform(Domain::Dnn, 5, 1.0, 1_000_000).unwrap();
    assert_eq!(short.winner(), PlatformKind::Fpga);
    // (ii) More than five applications favour the FPGA (at 2-year lifetimes).
    let many = est.compare_uniform(Domain::Dnn, 7, 2.0, 1_000_000).unwrap();
    assert_eq!(many.winner(), PlatformKind::Fpga);
    // (iii) Volumes well below the crossover favour the FPGA.
    let small = est.compare_uniform(Domain::Dnn, 5, 2.0, 50_000).unwrap();
    assert_eq!(small.winner(), PlatformKind::Fpga);
    // And the opposite corners favour the ASIC.
    let opposite = est.compare_uniform(Domain::Dnn, 2, 2.5, 5_000_000).unwrap();
    assert_eq!(opposite.winner(), PlatformKind::Asic);
}

#[test]
fn workload_helpers_compose_with_the_estimator() {
    let est = estimator();
    let base = Workload::uniform(Domain::Dnn, 4, 2.0, 1_000_000).unwrap();
    let shorter = base.with_uniform_lifetime(gf_units::TimeSpan::from_years(1.0));
    let a = est.compare_domain(&base).unwrap();
    let b = est.compare_domain(&shorter).unwrap();
    assert!(b.fpga.operation < a.fpga.operation);
    assert!(b.asic.operation < a.asic.operation);
    assert_eq!(a.fpga.embodied(), b.fpga.embodied());
}
