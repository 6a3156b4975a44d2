//! Industry testcases (Table 3) and the Fig. 10 / Fig. 11 scenarios.
//!
//! The paper evaluates GreenFPGA on four industry devices: two ASIC
//! accelerators (modeled after Moffett Antoum and the Google TPU) and two
//! FPGAs (modeled after Intel Agilex 7 and Stratix 10), using the TDP, die
//! area and technology node listed in Table 3.

use gf_act::TechnologyNode;
use gf_units::{Area, ChipCount, Power, TimeSpan};

use crate::{
    Application, AsicSpec, CfpBreakdown, ChipSpec, DesignStaffing, Estimator, FpgaSpec,
    GreenFpgaError,
};

/// IndustryASIC1: a 340 mm², 70 W sparse-inference accelerator at 12 nm
/// (Moffett-Antoum-class).
pub fn industry_asic1() -> AsicSpec {
    AsicSpec::new(
        ChipSpec::new(
            "IndustryASIC1",
            Area::from_mm2(340.0),
            Power::from_watts(70.0),
            TechnologyNode::N12,
        )
        .expect("industry testcase constants are valid"),
    )
}

/// IndustryASIC2: a 600 mm², 192 W datacenter ML accelerator at 7 nm
/// (TPU-class).
pub fn industry_asic2() -> AsicSpec {
    AsicSpec::new(
        ChipSpec::new(
            "IndustryASIC2",
            Area::from_mm2(600.0),
            Power::from_watts(192.0),
            TechnologyNode::N7,
        )
        .expect("industry testcase constants are valid"),
    )
}

/// IndustryFPGA1: a 380 mm², 160 W FPGA at 14 nm (Agilex-7-class).
pub fn industry_fpga1() -> FpgaSpec {
    FpgaSpec::new(
        ChipSpec::new(
            "IndustryFPGA1",
            Area::from_mm2(380.0),
            Power::from_watts(160.0),
            TechnologyNode::N14,
        )
        .expect("industry testcase constants are valid"),
    )
}

/// IndustryFPGA2: a 550 mm², 220 W FPGA at 10 nm (Stratix-10-class).
pub fn industry_fpga2() -> FpgaSpec {
    FpgaSpec::new(
        ChipSpec::new(
            "IndustryFPGA2",
            Area::from_mm2(550.0),
            Power::from_watts(220.0),
            TechnologyNode::N10,
        )
        .expect("industry testcase constants are valid"),
    )
}

/// The deployment scenario of Figs. 10–11: a six-year service life at one
/// million units, with the FPGAs reprogrammed for three successive
/// applications and the ASICs serving the single application they were built
/// for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndustryScenario {
    /// Total service life.
    pub service_years: f64,
    /// Number of applications an FPGA serves over the service life.
    pub fpga_applications: u64,
    /// Deployment volume.
    pub volume: u64,
    /// Design staffing assumed for these flagship products.
    pub staffing: DesignStaffing,
}

impl IndustryScenario {
    /// The paper's setup: 6 years, 3 FPGA applications, 1 M units.
    pub fn paper_defaults() -> Self {
        IndustryScenario {
            service_years: 6.0,
            fpga_applications: 3,
            volume: 1_000_000,
            staffing: DesignStaffing::new(2000, 3.0),
        }
    }

    fn fpga_applications_list(&self, fpga: &FpgaSpec) -> Result<Vec<Application>, GreenFpgaError> {
        let apps = self.fpga_applications.max(1);
        let per_app_years = self.service_years / apps as f64;
        (0..apps)
            .map(|i| {
                Application::new(
                    format!("{}-app-{}", fpga.chip().name(), i + 1),
                    fpga.capacity(),
                    TimeSpan::from_years(per_app_years),
                    ChipCount::new(self.volume),
                )
            })
            .collect()
    }

    /// Evaluates the footprint of an industry FPGA under this scenario
    /// (Fig. 10).
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn evaluate_fpga(
        &self,
        estimator: &Estimator,
        fpga: &FpgaSpec,
    ) -> Result<CfpBreakdown, GreenFpgaError> {
        let applications = self.fpga_applications_list(fpga)?;
        estimator.fpga_estimate(fpga, &self.staffing, &applications)
    }

    /// Evaluates the footprint of an industry ASIC under this scenario
    /// (Fig. 11): one application spanning the full service life.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn evaluate_asic(
        &self,
        estimator: &Estimator,
        asic: &AsicSpec,
    ) -> Result<CfpBreakdown, GreenFpgaError> {
        let application = Application::new(
            format!("{}-app", asic.chip().name()),
            asic.chip().gates(),
            TimeSpan::from_years(self.service_years),
            ChipCount::new(self.volume),
        )?;
        estimator.asic_estimate(asic, &self.staffing, &[application])
    }
}

impl Default for IndustryScenario {
    fn default() -> Self {
        IndustryScenario::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_constants_are_reproduced() {
        let a1 = industry_asic1();
        assert_eq!(a1.chip().area(), Area::from_mm2(340.0));
        assert_eq!(a1.chip().tdp(), Power::from_watts(70.0));
        assert_eq!(a1.chip().node(), TechnologyNode::N12);

        let a2 = industry_asic2();
        assert_eq!(a2.chip().area(), Area::from_mm2(600.0));
        assert_eq!(a2.chip().tdp(), Power::from_watts(192.0));
        assert_eq!(a2.chip().node(), TechnologyNode::N7);

        let f1 = industry_fpga1();
        assert_eq!(f1.chip().area(), Area::from_mm2(380.0));
        assert_eq!(f1.chip().tdp(), Power::from_watts(160.0));
        assert_eq!(f1.chip().node(), TechnologyNode::N14);

        let f2 = industry_fpga2();
        assert_eq!(f2.chip().area(), Area::from_mm2(550.0));
        assert_eq!(f2.chip().tdp(), Power::from_watts(220.0));
        assert_eq!(f2.chip().node(), TechnologyNode::N10);
    }

    #[test]
    fn operational_carbon_dominates_for_industry_fpgas() {
        // Fig. 10: operation is the primary contributor for both FPGAs.
        let estimator = Estimator::default();
        let scenario = IndustryScenario::paper_defaults();
        for fpga in [industry_fpga1(), industry_fpga2()] {
            let cfp = scenario.evaluate_fpga(&estimator, &fpga).unwrap();
            assert!(cfp.operation > cfp.embodied(), "{}", fpga.chip().name());
            assert!(cfp.operation > cfp.app_dev);
        }
    }

    #[test]
    fn app_dev_is_minimal_even_after_three_reconfigurations() {
        // Fig. 10: application development does not substantially contribute.
        let estimator = Estimator::default();
        let scenario = IndustryScenario::paper_defaults();
        for fpga in [industry_fpga1(), industry_fpga2()] {
            let cfp = scenario.evaluate_fpga(&estimator, &fpga).unwrap();
            let share = cfp.app_dev.as_kg() / cfp.total().as_kg();
            assert!(
                share < 0.05,
                "{}: app-dev share {share}",
                fpga.chip().name()
            );
        }
    }

    #[test]
    fn design_is_a_double_digit_share_of_embodied() {
        // The paper reports design CFP ≈ 15% of embodied CFP for the
        // industry FPGAs; check it is a visible but not dominant share.
        let estimator = Estimator::default();
        let scenario = IndustryScenario::paper_defaults();
        for fpga in [industry_fpga1(), industry_fpga2()] {
            let cfp = scenario.evaluate_fpga(&estimator, &fpga).unwrap();
            let share = cfp.design_share_of_embodied().unwrap();
            assert!(
                (0.02..0.6).contains(&share),
                "{}: design share of embodied = {share}",
                fpga.chip().name()
            );
        }
    }

    #[test]
    fn operational_carbon_dominates_for_industry_asics() {
        // Fig. 11: operation dominates, then manufacturing, then design.
        let estimator = Estimator::default();
        let scenario = IndustryScenario::paper_defaults();
        for asic in [industry_asic1(), industry_asic2()] {
            let cfp = scenario.evaluate_asic(&estimator, &asic).unwrap();
            assert!(cfp.operation > cfp.manufacturing, "{}", asic.chip().name());
            assert!(cfp.manufacturing > cfp.design, "{}", asic.chip().name());
            assert_eq!(cfp.app_dev.as_kg(), 0.0);
        }
    }

    #[test]
    fn bigger_hotter_devices_have_bigger_footprints() {
        let estimator = Estimator::default();
        let scenario = IndustryScenario::paper_defaults();
        let f1 = scenario
            .evaluate_fpga(&estimator, &industry_fpga1())
            .unwrap();
        let f2 = scenario
            .evaluate_fpga(&estimator, &industry_fpga2())
            .unwrap();
        assert!(f2.total() > f1.total());
        let a1 = scenario
            .evaluate_asic(&estimator, &industry_asic1())
            .unwrap();
        let a2 = scenario
            .evaluate_asic(&estimator, &industry_asic2())
            .unwrap();
        assert!(a2.total() > a1.total());
    }

    #[test]
    fn eol_is_a_small_contributor() {
        let estimator = Estimator::default();
        let scenario = IndustryScenario::paper_defaults();
        let cfp = scenario
            .evaluate_fpga(&estimator, &industry_fpga1())
            .unwrap();
        assert!(cfp.eol.abs().as_kg() < 0.05 * cfp.embodied().as_kg());
    }
}
