//! The total-CFP estimator: Eqs. (1)–(3) of the paper.

use gf_act::PackagingModel;
use gf_lifecycle::DevelopmentFlow;
use gf_units::Carbon;

use crate::{
    Application, AsicSpec, CfpBreakdown, ChipSpec, DesignStaffing, Domain, EstimatorParams,
    FpgaSpec, GreenFpgaError, PlatformComparison, PlatformKind, Workload,
};

/// Evaluates total lifecycle carbon footprints for FPGA- and ASIC-based
/// acceleration platforms.
///
/// The estimator is a pure function of its [`EstimatorParams`]; it holds no
/// other state, so it is cheap to clone and safe to share across threads.
///
/// # Examples
///
/// ```
/// use greenfpga::{Domain, Estimator, EstimatorParams, Workload};
///
/// let estimator = Estimator::new(EstimatorParams::paper_defaults());
/// let workload = Workload::uniform(Domain::Crypto, 3, 2.0, 100_000)?;
/// let comparison = estimator.compare_domain(&workload)?;
/// // Crypto FPGAs match the ASIC's area/power, so reuse wins immediately.
/// assert!(comparison.fpga.total() < comparison.asic.total());
/// # Ok::<(), greenfpga::GreenFpgaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Estimator {
    params: EstimatorParams,
}

impl Estimator {
    /// Creates an estimator from model parameters.
    pub fn new(params: EstimatorParams) -> Self {
        Estimator { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &EstimatorParams {
        &self.params
    }

    /// Design-phase footprint of one chip product (Eq. 4).
    ///
    /// # Errors
    ///
    /// Returns an error when the staffing is degenerate.
    pub fn design_carbon(
        &self,
        chip: &ChipSpec,
        staffing: &DesignStaffing,
    ) -> Result<Carbon, GreenFpgaError> {
        let project = staffing.project_for(chip)?;
        Ok(self.params.design_house().design_carbon(&project))
    }

    /// Per-chip hardware footprint: manufacturing, packaging and end-of-life
    /// for one manufactured device.
    ///
    /// # Errors
    ///
    /// Propagates manufacturing-model errors (degenerate die area).
    pub fn hardware_per_chip(
        &self,
        chip: &ChipSpec,
    ) -> Result<(Carbon, Carbon, Carbon), GreenFpgaError> {
        let manufacturing = self
            .params
            .manufacturing_model(chip.node())
            .carbon_per_die(chip.area())?;
        let packaging = PackagingModel::monolithic().carbon_for_die(chip.area());
        let eol = self
            .params
            .eol_model()
            .carbon_per_chip(chip.packaged_mass());
        Ok((manufacturing, packaging, eol))
    }

    /// Embodied footprint of an FPGA platform (Eq. 3): one design plus
    /// `fleet_chips` manufactured, packaged and eventually retired devices.
    ///
    /// # Errors
    ///
    /// Propagates design and manufacturing model errors.
    pub fn fpga_embodied(
        &self,
        fpga: &FpgaSpec,
        staffing: &DesignStaffing,
        fleet_chips: u64,
    ) -> Result<CfpBreakdown, GreenFpgaError> {
        let design = self.design_carbon(fpga.chip(), staffing)?;
        let (mfg, pkg, eol) = self.hardware_per_chip(fpga.chip())?;
        let n = fleet_chips as f64;
        Ok(CfpBreakdown {
            design,
            manufacturing: mfg * n,
            packaging: pkg * n,
            eol: eol * n,
            ..CfpBreakdown::ZERO
        })
    }

    /// Deployment footprint of one application on the FPGA platform:
    /// field operation of the fleet over the application's lifetime plus the
    /// hardware application-development overhead (RTL/HLS, synthesis, place
    /// and route, per-device reconfiguration).
    ///
    /// # Errors
    ///
    /// Never fails for valid applications; the `Result` mirrors the other
    /// estimator methods for composability.
    pub fn fpga_deployment_for(
        &self,
        fpga: &FpgaSpec,
        application: &Application,
    ) -> Result<CfpBreakdown, GreenFpgaError> {
        let fpgas_per_unit = fpga.fpgas_for_application(application.gates());
        let devices = application.volume().get() * fpgas_per_unit;
        let profile = self.params.deployment().profile_for(fpga.chip());
        let operation = profile.carbon_over(application.lifetime()) * devices as f64;
        let app_dev = self
            .params
            .appdev()
            .with_config_time(FpgaSpec::CONFIGURATION_TIME)
            .carbon(DevelopmentFlow::FpgaHardware, 1, devices);
        Ok(CfpBreakdown {
            operation,
            app_dev,
            ..CfpBreakdown::ZERO
        })
    }

    /// Total FPGA-platform footprint for a sequence of applications
    /// (Eq. 2): the embodied cost is paid once for a fleet sized to the
    /// most demanding application, then every application adds its
    /// deployment footprint — `count ×` one deployment per run of
    /// consecutive identical applications (same gates, lifetime and
    /// volume), the closed form the compiled kernel evaluates.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::EmptyWorkload`] for an empty application
    /// list and propagates model errors.
    pub fn fpga_estimate(
        &self,
        fpga: &FpgaSpec,
        staffing: &DesignStaffing,
        applications: &[Application],
    ) -> Result<CfpBreakdown, GreenFpgaError> {
        if applications.is_empty() {
            return Err(GreenFpgaError::EmptyWorkload);
        }
        let fleet_chips = applications
            .iter()
            .map(|a| a.volume().get() * fpga.fpgas_for_application(a.gates()))
            .max()
            .unwrap_or(0);
        let mut total = self.fpga_embodied(fpga, staffing, fleet_chips)?;
        for (application, count) in runs(applications) {
            total += self.fpga_deployment_for(fpga, application)? * count as f64;
        }
        total.finite(PlatformKind::Fpga)
    }

    /// Embodied footprint of an ASIC platform for one application: a fresh
    /// design plus `volume` manufactured devices.
    ///
    /// # Errors
    ///
    /// Propagates design and manufacturing model errors.
    pub fn asic_embodied_for(
        &self,
        asic: &AsicSpec,
        staffing: &DesignStaffing,
        application: &Application,
    ) -> Result<CfpBreakdown, GreenFpgaError> {
        let design = self.design_carbon(asic.chip(), staffing)?;
        let (mfg, pkg, eol) = self.hardware_per_chip(asic.chip())?;
        let n = application.volume().as_f64();
        Ok(CfpBreakdown {
            design,
            manufacturing: mfg * n,
            packaging: pkg * n,
            eol: eol * n,
            ..CfpBreakdown::ZERO
        })
    }

    /// Deployment footprint of one application on its ASIC: field operation
    /// only — application bring-up is a software flow whose hardware design
    /// effort is already captured in the design phase, so `T_FE = T_BE = 0`
    /// in Eq. (7).
    ///
    /// # Errors
    ///
    /// Never fails for valid applications; mirrors the FPGA method.
    pub fn asic_deployment_for(
        &self,
        asic: &AsicSpec,
        application: &Application,
    ) -> Result<CfpBreakdown, GreenFpgaError> {
        let profile = self.params.deployment().profile_for(asic.chip());
        let operation = profile.carbon_over(application.lifetime()) * application.volume().as_f64();
        let app_dev = self.params.appdev().carbon(
            DevelopmentFlow::AsicSoftware,
            1,
            application.volume().get(),
        );
        Ok(CfpBreakdown {
            operation,
            app_dev,
            ..CfpBreakdown::ZERO
        })
    }

    /// Total ASIC-platform footprint for a sequence of applications
    /// (Eq. 1): every application pays for a new ASIC — design, volume
    /// manufacturing, packaging, end-of-life — plus its operation, summed
    /// as `count × (embodied + deployment)` per run of consecutive
    /// identical applications.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::EmptyWorkload`] for an empty application
    /// list and propagates model errors.
    pub fn asic_estimate(
        &self,
        asic: &AsicSpec,
        staffing: &DesignStaffing,
        applications: &[Application],
    ) -> Result<CfpBreakdown, GreenFpgaError> {
        if applications.is_empty() {
            return Err(GreenFpgaError::EmptyWorkload);
        }
        let mut total = CfpBreakdown::ZERO;
        for (application, count) in runs(applications) {
            let per_application = self.asic_embodied_for(asic, staffing, application)?
                + self.asic_deployment_for(asic, application)?;
            total += per_application * count as f64;
        }
        total.finite(PlatformKind::Asic)
    }

    /// Compares the FPGA and ASIC platforms for a domain workload at
    /// iso-performance, using the domain's calibrated reference
    /// implementations (Table 2 ratios).
    ///
    /// # Errors
    ///
    /// Propagates model errors from either platform estimate.
    pub fn compare_domain(
        &self,
        workload: &Workload,
    ) -> Result<PlatformComparison, GreenFpgaError> {
        let calibration = workload.domain().calibration();
        let fpga = calibration.fpga_spec()?;
        let asic = calibration.asic_spec()?;
        let fpga_total =
            self.fpga_estimate(&fpga, &calibration.fpga_staffing, workload.applications())?;
        let asic_total =
            self.asic_estimate(&asic, &calibration.asic_staffing, workload.applications())?;
        Ok(PlatformComparison::new(
            workload.domain(),
            fpga_total,
            asic_total,
        ))
    }

    /// Convenience wrapper returning the full comparison for a uniform
    /// workload at a single operating point.
    ///
    /// # Errors
    ///
    /// Propagates workload construction and model errors.
    pub fn compare_uniform(
        &self,
        domain: Domain,
        applications: u64,
        lifetime_years: f64,
        volume: u64,
    ) -> Result<PlatformComparison, GreenFpgaError> {
        let workload = Workload::uniform(domain, applications, lifetime_years, volume)?;
        self.compare_domain(&workload)
    }
}

/// Splits `applications` into runs of consecutive applications that are
/// identical to the model — same gate count, lifetime and volume (names do
/// not enter Eqs. 1–3) — paired with each run's length. A uniform workload
/// is a single run, so its `n` equal terms enter as one multiplication.
fn runs(applications: &[Application]) -> impl Iterator<Item = (&Application, u64)> {
    applications
        .chunk_by(|a, b| {
            a.gates() == b.gates() && a.lifetime() == b.lifetime() && a.volume() == b.volume()
        })
        .map(|run| (&run[0], run.len() as u64))
}

impl Default for Estimator {
    fn default() -> Self {
        Estimator::new(EstimatorParams::paper_defaults())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;
    use gf_units::{ChipCount, GateCount, TimeSpan};

    fn estimator() -> Estimator {
        Estimator::default()
    }

    fn dnn_workload(n: u64, lifetime: f64, volume: u64) -> Workload {
        Workload::uniform(Domain::Dnn, n, lifetime, volume).unwrap()
    }

    #[test]
    fn fpga_embodied_is_paid_once() {
        let est = estimator();
        let cal = Domain::Dnn.calibration();
        let fpga = cal.fpga_spec().unwrap();
        let one = est
            .fpga_estimate(
                &fpga,
                &cal.fpga_staffing,
                dnn_workload(1, 2.0, 1000).applications(),
            )
            .unwrap();
        let five = est
            .fpga_estimate(
                &fpga,
                &cal.fpga_staffing,
                dnn_workload(5, 2.0, 1000).applications(),
            )
            .unwrap();
        // Embodied identical, deployment grows.
        assert!((one.embodied().as_kg() - five.embodied().as_kg()).abs() < 1e-6);
        assert!(five.deployment() > one.deployment());
    }

    #[test]
    fn asic_embodied_scales_with_applications() {
        let est = estimator();
        let cal = Domain::Dnn.calibration();
        let asic = cal.asic_spec().unwrap();
        let one = est
            .asic_estimate(
                &asic,
                &cal.asic_staffing,
                dnn_workload(1, 2.0, 1000).applications(),
            )
            .unwrap();
        let four = est
            .asic_estimate(
                &asic,
                &cal.asic_staffing,
                dnn_workload(4, 2.0, 1000).applications(),
            )
            .unwrap();
        assert!((four.embodied().as_kg() - 4.0 * one.embodied().as_kg()).abs() < 1e-6);
        assert!((four.total().as_kg() - 4.0 * one.total().as_kg()).abs() < 1e-6);
    }

    #[test]
    fn asic_has_no_app_dev_footprint() {
        let est = estimator();
        let cal = Domain::Dnn.calibration();
        let asic = cal.asic_spec().unwrap();
        let total = est
            .asic_estimate(
                &asic,
                &cal.asic_staffing,
                dnn_workload(3, 2.0, 1000).applications(),
            )
            .unwrap();
        assert_eq!(total.app_dev, Carbon::ZERO);
        let fpga = cal.fpga_spec().unwrap();
        let fpga_total = est
            .fpga_estimate(
                &fpga,
                &cal.fpga_staffing,
                dnn_workload(3, 2.0, 1000).applications(),
            )
            .unwrap();
        assert!(fpga_total.app_dev.as_kg() > 0.0);
    }

    #[test]
    fn single_application_favors_the_asic() {
        // Fig. 2 left bar: for one DNN application the FPGA pays its larger
        // area and power without any reuse benefit.
        let est = estimator();
        let comparison = est
            .compare_domain(&dnn_workload(1, 2.0, 1_000_000))
            .unwrap();
        assert!(comparison.asic.total() < comparison.fpga.total());
    }

    #[test]
    fn ten_applications_favor_the_fpga() {
        // Fig. 2 right bar: with ten applications the FPGA's one-time
        // embodied cost is amortized and it wins.
        let est = estimator();
        let comparison = est
            .compare_domain(&dnn_workload(10, 2.0, 1_000_000))
            .unwrap();
        assert!(comparison.fpga.total() < comparison.asic.total());
    }

    #[test]
    fn fleet_sizes_to_largest_application() {
        let est = estimator();
        let cal = Domain::Dnn.calibration();
        let fpga = cal.fpga_spec().unwrap();
        // One application needs 3 FPGAs worth of logic.
        let big_app = Application::new(
            "big",
            GateCount::new(cal.reference_asic_gates().get() * 3),
            TimeSpan::from_years(1.0),
            ChipCount::new(100),
        )
        .unwrap();
        let small_app = Application::new(
            "small",
            cal.reference_asic_gates(),
            TimeSpan::from_years(1.0),
            ChipCount::new(100),
        )
        .unwrap();
        let small_only = est
            .fpga_estimate(&fpga, &cal.fpga_staffing, std::slice::from_ref(&small_app))
            .unwrap();
        let both = est
            .fpga_estimate(&fpga, &cal.fpga_staffing, &[small_app, big_app])
            .unwrap();
        // The mixed workload needs a 3x larger fleet, so embodied hardware
        // (everything except the one-time design) must scale accordingly.
        let small_hw = small_only.embodied() - small_only.design;
        let both_hw = both.embodied() - both.design;
        assert!((both_hw.as_kg() - 3.0 * small_hw.as_kg()).abs() < 1e-6);
    }

    #[test]
    fn empty_application_lists_are_rejected() {
        let est = estimator();
        let cal = Domain::Dnn.calibration();
        let fpga = cal.fpga_spec().unwrap();
        let asic = cal.asic_spec().unwrap();
        assert!(matches!(
            est.fpga_estimate(&fpga, &cal.fpga_staffing, &[]),
            Err(GreenFpgaError::EmptyWorkload)
        ));
        assert!(matches!(
            est.asic_estimate(&asic, &cal.asic_staffing, &[]),
            Err(GreenFpgaError::EmptyWorkload)
        ));
    }

    #[test]
    fn operation_scales_linearly_with_lifetime_and_volume() {
        let est = estimator();
        let cal = Domain::Dnn.calibration();
        let asic = cal.asic_spec().unwrap();
        let base = est
            .asic_deployment_for(&asic, &dnn_workload(1, 1.0, 1000).applications()[0])
            .unwrap();
        let longer = est
            .asic_deployment_for(&asic, &dnn_workload(1, 2.0, 1000).applications()[0])
            .unwrap();
        let wider = est
            .asic_deployment_for(&asic, &dnn_workload(1, 1.0, 3000).applications()[0])
            .unwrap();
        assert!((longer.operation.as_kg() - 2.0 * base.operation.as_kg()).abs() < 1e-9);
        assert!((wider.operation.as_kg() - 3.0 * base.operation.as_kg()).abs() < 1e-9);
    }

    #[test]
    fn design_carbon_uses_staffing() {
        let est = estimator();
        let cal = Domain::Dnn.calibration();
        let chip = cal.asic_spec().unwrap().chip().clone();
        let small = est
            .design_carbon(&chip, &DesignStaffing::new(100, 1.0))
            .unwrap();
        let large = est
            .design_carbon(&chip, &DesignStaffing::new(200, 2.0))
            .unwrap();
        assert!((large.as_kg() - 4.0 * small.as_kg()).abs() < 1e-6);
    }

    #[test]
    fn estimator_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Estimator>();
    }
}
