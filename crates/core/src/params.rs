//! Top-level model parameters (the "knobs" of Table 1).

use gf_act::{GridMix, ManufacturingModel, PackagingModel, TechnologyNode, YieldModel};
use gf_lifecycle::{AppDevModel, DesignHouse, DesignProject, EolModel, OperationProfile};
use gf_units::{CarbonIntensity, CarbonPerMass, Fraction, GateCount, TimeSpan};

use crate::{ChipSpec, GreenFpgaError};

/// Engineering staffing of one chip-design project: the `N_emp,chip` and
/// `T_proj` knobs of the design-CFP model (Eq. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignStaffing {
    /// Engineers working on the product.
    pub engineers: u64,
    /// Project duration in years (Table 1: 1–3 years).
    pub duration_years: f64,
}

impl DesignStaffing {
    /// Creates a staffing description.
    pub fn new(engineers: u64, duration_years: f64) -> Self {
        DesignStaffing {
            engineers,
            duration_years,
        }
    }

    /// Builds the [`DesignProject`] for a specific chip.
    ///
    /// # Errors
    ///
    /// Returns a [`GreenFpgaError::Lifecycle`] error when the staffing is
    /// degenerate (zero engineers or negative duration).
    pub fn project_for(&self, chip: &ChipSpec) -> Result<DesignProject, GreenFpgaError> {
        Ok(DesignProject::new(
            chip.gates(),
            TimeSpan::from_years(self.duration_years),
            self.engineers,
        )?)
    }
}

impl Default for DesignStaffing {
    /// A 500-engineer, two-year project.
    fn default() -> Self {
        DesignStaffing::new(500, 2.0)
    }
}

/// Field-deployment parameters shared by every device in a study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentParams {
    /// Fraction of wall-clock time the accelerator draws its TDP.
    pub duty_cycle: Fraction,
    /// Carbon intensity of the electricity the deployed devices consume
    /// (`C_src,use`).
    pub usage_grid: CarbonIntensity,
}

impl DeploymentParams {
    /// Creates deployment parameters.
    pub fn new(duty_cycle: Fraction, usage_grid: CarbonIntensity) -> Self {
        DeploymentParams {
            duty_cycle,
            usage_grid,
        }
    }

    /// The paper-calibrated default: accelerators busy 20% of the time in a
    /// renewable-heavy deployment (120 g CO₂/kWh).
    pub fn paper_defaults() -> Self {
        DeploymentParams {
            duty_cycle: Fraction::clamped(0.2),
            usage_grid: CarbonIntensity::from_grams_per_kwh(120.0),
        }
    }

    /// Operating profile of a chip under these deployment parameters.
    pub fn profile_for(&self, chip: &ChipSpec) -> OperationProfile {
        OperationProfile::new(chip.tdp(), self.duty_cycle, self.usage_grid)
    }
}

impl Default for DeploymentParams {
    fn default() -> Self {
        DeploymentParams::paper_defaults()
    }
}

/// All GreenFPGA model parameters.
///
/// Every knob of Table 1 of the paper is reachable from here; the
/// [`EstimatorParams::paper_defaults`] constructor fills them with the
/// calibrated defaults used by the experiment harness.
///
/// # Examples
///
/// ```
/// use greenfpga::EstimatorParams;
/// use greenfpga::act::GridMix;
///
/// let params = EstimatorParams::paper_defaults()
///     .with_fab_grid(GridMix::Iceland.carbon_intensity());
/// assert!(params.fab_grid().as_grams_per_kwh() < 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorParams {
    fab_grid: CarbonIntensity,
    fab_renewable_share: Fraction,
    yield_model: YieldModel,
    recycled_material_fraction: Fraction,
    packaging: PackagingModel,
    eol_discard: CarbonPerMass,
    eol_recycle_credit: CarbonPerMass,
    eol_recycled_fraction: Fraction,
    design_house: DesignHouse,
    appdev: AppDevModel,
    deployment: DeploymentParams,
    fpga_chip_lifetime: TimeSpan,
}

impl EstimatorParams {
    /// The calibrated defaults used throughout the experiment harness.
    ///
    /// Fab: Taiwan grid with 20% renewables, Murphy yield, no recycled
    /// materials. EOL: mid-range EPA WARM factors, no recycling. Design: the
    /// default fabless house of [`DesignHouse::default_fabless`]. Deployment:
    /// 20% duty cycle on a 120 g CO₂/kWh grid. FPGA chip lifetime: 15 years
    /// (reconfigurable), per the paper's §2.
    pub fn paper_defaults() -> Self {
        EstimatorParams {
            fab_grid: GridMix::Taiwan.carbon_intensity(),
            fab_renewable_share: Fraction::clamped(0.2),
            yield_model: YieldModel::Murphy,
            recycled_material_fraction: Fraction::ZERO,
            packaging: PackagingModel::monolithic(),
            eol_discard: CarbonPerMass::from_tons_co2_per_ton(1.0),
            eol_recycle_credit: CarbonPerMass::from_tons_co2_per_ton(15.0),
            eol_recycled_fraction: Fraction::ZERO,
            design_house: DesignHouse::default_fabless()
                .with_average_chip_gates(GateCount::from_millions(500.0)),
            appdev: AppDevModel::default_paper(),
            deployment: DeploymentParams::paper_defaults(),
            fpga_chip_lifetime: TimeSpan::from_years(15.0),
        }
    }

    /// Overrides the fab grid carbon intensity.
    pub fn with_fab_grid(mut self, grid: CarbonIntensity) -> Self {
        self.set_fab_grid(grid);
        self
    }

    /// In-place variant of [`Self::with_fab_grid`]; used by
    /// [`crate::Knob::apply_mut`] so batch analyses can retune parameters
    /// without cloning the whole set per knob.
    pub fn set_fab_grid(&mut self, grid: CarbonIntensity) {
        self.fab_grid = grid;
    }

    /// Overrides the fab renewable-energy share.
    pub fn with_fab_renewable_share(mut self, share: Fraction) -> Self {
        self.fab_renewable_share = share;
        self
    }

    /// Overrides the die-yield model.
    pub fn with_yield_model(mut self, model: YieldModel) -> Self {
        self.yield_model = model;
        self
    }

    /// Overrides the recycled-material fraction `ρ` of Eq. (5).
    pub fn with_recycled_material_fraction(mut self, rho: Fraction) -> Self {
        self.set_recycled_material_fraction(rho);
        self
    }

    /// In-place variant of [`Self::with_recycled_material_fraction`].
    pub fn set_recycled_material_fraction(&mut self, rho: Fraction) {
        self.recycled_material_fraction = rho;
    }

    /// Overrides the end-of-life recycled fraction `δ`.
    pub fn with_eol_recycled_fraction(mut self, delta: Fraction) -> Self {
        self.set_eol_recycled_fraction(delta);
        self
    }

    /// In-place variant of [`Self::with_eol_recycled_fraction`].
    pub fn set_eol_recycled_fraction(&mut self, delta: Fraction) {
        self.eol_recycled_fraction = delta;
    }

    /// Overrides the design house.
    pub fn with_design_house(mut self, house: DesignHouse) -> Self {
        self.set_design_house(house);
        self
    }

    /// In-place variant of [`Self::with_design_house`].
    pub fn set_design_house(&mut self, house: DesignHouse) {
        self.design_house = house;
    }

    /// Overrides the application-development model in place.
    pub fn set_appdev(&mut self, appdev: AppDevModel) {
        self.appdev = appdev;
    }

    /// Overrides the deployment parameters.
    pub fn with_deployment(mut self, deployment: DeploymentParams) -> Self {
        self.set_deployment(deployment);
        self
    }

    /// In-place variant of [`Self::with_deployment`].
    pub fn set_deployment(&mut self, deployment: DeploymentParams) {
        self.deployment = deployment;
    }

    /// Overrides the FPGA chip lifetime (the paper uses 12–15 years).
    pub fn with_fpga_chip_lifetime(mut self, lifetime: TimeSpan) -> Self {
        self.set_fpga_chip_lifetime(lifetime);
        self
    }

    /// In-place variant of [`Self::with_fpga_chip_lifetime`].
    pub fn set_fpga_chip_lifetime(&mut self, lifetime: TimeSpan) {
        self.fpga_chip_lifetime = lifetime;
    }

    /// Fab grid carbon intensity.
    pub fn fab_grid(&self) -> CarbonIntensity {
        self.fab_grid
    }

    /// Recycled-material fraction `ρ`.
    pub fn recycled_material_fraction(&self) -> Fraction {
        self.recycled_material_fraction
    }

    /// The packaging model.
    pub fn packaging(&self) -> PackagingModel {
        self.packaging
    }

    /// The design house.
    pub fn design_house(&self) -> &DesignHouse {
        &self.design_house
    }

    /// The application-development model.
    pub fn appdev(&self) -> &AppDevModel {
        &self.appdev
    }

    /// The deployment parameters.
    pub fn deployment(&self) -> &DeploymentParams {
        &self.deployment
    }

    /// FPGA chip lifetime.
    pub fn fpga_chip_lifetime(&self) -> TimeSpan {
        self.fpga_chip_lifetime
    }

    /// Builds the manufacturing model for a given node under these
    /// parameters.
    pub fn manufacturing_model(&self, node: TechnologyNode) -> ManufacturingModel {
        ManufacturingModel::for_node(node)
            .with_fab_grid(self.fab_grid)
            .with_fab_renewable_share(self.fab_renewable_share)
            .with_yield_model(self.yield_model)
            .with_recycled_material_fraction(self.recycled_material_fraction)
    }

    /// Builds the end-of-life model under these parameters.
    pub fn eol_model(&self) -> EolModel {
        EolModel::new(
            self.eol_discard,
            self.eol_recycle_credit,
            self.eol_recycled_fraction,
        )
    }
}

impl Default for EstimatorParams {
    fn default() -> Self {
        EstimatorParams::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_units::{Area, Power};

    #[test]
    fn paper_defaults_are_consistent() {
        let p = EstimatorParams::paper_defaults();
        assert!((p.fpga_chip_lifetime().as_years() - 15.0).abs() < 1e-12);
        assert!(p.recycled_material_fraction().is_zero());
        assert_eq!(EstimatorParams::default(), p);
    }

    #[test]
    fn builders_propagate_to_submodels() {
        let p = EstimatorParams::paper_defaults()
            .with_fab_grid(GridMix::Iceland.carbon_intensity())
            .with_recycled_material_fraction(Fraction::new(0.5).unwrap());
        let dirty =
            EstimatorParams::paper_defaults().with_fab_grid(GridMix::CoalHeavy.carbon_intensity());
        let die = Area::from_mm2(300.0);
        let clean_cfp = p
            .manufacturing_model(TechnologyNode::N10)
            .carbon_per_die(die)
            .unwrap();
        let dirty_cfp = dirty
            .manufacturing_model(TechnologyNode::N10)
            .carbon_per_die(die)
            .unwrap();
        assert!(clean_cfp < dirty_cfp);
    }

    #[test]
    fn eol_model_uses_configured_fractions() {
        let p = EstimatorParams::paper_defaults()
            .with_eol_recycled_fraction(Fraction::new(0.9).unwrap());
        let eol = p.eol_model();
        assert!(eol
            .carbon_per_chip(gf_units::Mass::from_grams(100.0))
            .is_credit());
    }

    #[test]
    fn deployment_profile_uses_chip_tdp() {
        let dep = DeploymentParams::paper_defaults();
        let chip = ChipSpec::new(
            "x",
            Area::from_mm2(100.0),
            Power::from_watts(50.0),
            TechnologyNode::N10,
        )
        .unwrap();
        let profile = dep.profile_for(&chip);
        assert_eq!(profile.peak_power(), Power::from_watts(50.0));
        assert_eq!(profile.duty_cycle(), dep.duty_cycle);
    }

    #[test]
    fn design_staffing_builds_projects() {
        let chip = ChipSpec::new(
            "x",
            Area::from_mm2(100.0),
            Power::from_watts(50.0),
            TechnologyNode::N10,
        )
        .unwrap();
        let staffing = DesignStaffing::new(400, 2.5);
        let project = staffing.project_for(&chip).unwrap();
        assert_eq!(project.engineers, 400);
        assert!((project.duration.as_years() - 2.5).abs() < 1e-12);
        assert_eq!(project.gates, chip.gates());
        assert!(DesignStaffing::new(0, 1.0).project_for(&chip).is_err());
        assert_eq!(DesignStaffing::default().engineers, 500);
    }

    #[test]
    fn chip_lifetime_overrides() {
        let p =
            EstimatorParams::paper_defaults().with_fpga_chip_lifetime(TimeSpan::from_years(12.0));
        assert!((p.fpga_chip_lifetime().as_years() - 12.0).abs() < 1e-12);
    }
}
