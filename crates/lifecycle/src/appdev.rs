//! Application-development carbon model (Eq. 7 of the paper).
//!
//! Deploying a *new application* on an FPGA requires hardware development —
//! RTL or HLS, verification, synthesis and place-and-route — plus
//! configuring every deployed device. An ASIC only needs software-level
//! bring-up because the hardware design effort was already paid in the
//! design phase (Eq. 4). The paper models the development footprint as the
//! CPU-farm power times the total development time times the development
//! site's grid intensity, with
//!
//! `T_app-dev = N_app × (T_FE + T_BE) + N_vol × T_config`.

use gf_units::{Carbon, CarbonIntensity, Fraction, Power, TimeSpan};

use crate::LifecycleError;

/// Which development flow an application follows on a given platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DevelopmentFlow {
    /// FPGA flow: RTL/HLS front-end plus synthesis/place-and-route back-end
    /// per application, plus per-device bitstream configuration.
    FpgaHardware,
    /// ASIC flow: software bring-up only; the hardware effort is part of the
    /// design phase, so `T_FE` and `T_BE` are zero in Eq. (7).
    AsicSoftware,
}

/// Application-development carbon model.
///
/// # Examples
///
/// ```
/// use gf_lifecycle::{AppDevModel, DevelopmentFlow};
///
/// let dev = AppDevModel::default_paper();
/// let fpga = dev.carbon(DevelopmentFlow::FpgaHardware, 3, 1_000_000);
/// let asic = dev.carbon(DevelopmentFlow::AsicSoftware, 3, 1_000_000);
/// assert!(fpga.as_kg() > asic.as_kg());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppDevModel {
    farm_power: Power,
    farm_utilization: Fraction,
    grid: CarbonIntensity,
    frontend_time: TimeSpan,
    backend_time: TimeSpan,
    config_time: TimeSpan,
}

impl AppDevModel {
    /// Creates a model from explicit parameters.
    ///
    /// * `farm_power` — power of the CPU systems running the flow,
    /// * `grid` — carbon intensity of the development site,
    /// * `frontend_time` — `T_app,FE`: RTL/HLS authoring and verification,
    /// * `backend_time` — `T_app,BE`: synthesis, place and route,
    /// * `config_time` — `T_app,config`: per-device configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError::NegativeDuration`] if any duration is
    /// negative.
    pub fn new(
        farm_power: Power,
        grid: CarbonIntensity,
        frontend_time: TimeSpan,
        backend_time: TimeSpan,
        config_time: TimeSpan,
    ) -> Result<Self, LifecycleError> {
        for (name, t) in [
            ("front-end time", frontend_time),
            ("back-end time", backend_time),
            ("configuration time", config_time),
        ] {
            if t.is_negative() {
                return Err(LifecycleError::NegativeDuration {
                    quantity: name,
                    years: t.as_years(),
                });
            }
        }
        Ok(AppDevModel {
            farm_power,
            farm_utilization: Fraction::ONE,
            grid,
            frontend_time,
            backend_time,
            config_time,
        })
    }

    /// Defaults matching Table 1: a 2 kW development farm on a 400 g
    /// CO₂/kWh grid, 2 months of front-end work, 1 month of back-end work
    /// and one minute of per-device configuration.
    pub fn default_paper() -> Self {
        AppDevModel {
            farm_power: Power::from_kilowatts(2.0),
            farm_utilization: Fraction::ONE,
            grid: CarbonIntensity::from_grams_per_kwh(400.0),
            frontend_time: TimeSpan::from_months(2.0),
            backend_time: TimeSpan::from_months(1.0),
            config_time: TimeSpan::from_seconds(60.0),
        }
    }

    /// Overrides the per-device configuration time (e.g. with the value a
    /// specific FPGA product reports).
    pub fn with_config_time(mut self, config_time: TimeSpan) -> Self {
        self.config_time = config_time;
        self
    }

    /// Overrides the per-application front-end (RTL/HLS + verification)
    /// time `T_app,FE`.
    pub fn with_frontend_time(mut self, frontend_time: TimeSpan) -> Self {
        self.frontend_time = frontend_time;
        self
    }

    /// Overrides the per-application back-end (synthesis + place-and-route)
    /// time `T_app,BE`.
    pub fn with_backend_time(mut self, backend_time: TimeSpan) -> Self {
        self.backend_time = backend_time;
        self
    }

    /// Scales the farm power by a utilization factor (a flow that only keeps
    /// the farm busy half the time emits half as much).
    pub fn with_farm_utilization(mut self, utilization: Fraction) -> Self {
        self.farm_utilization = utilization;
        self
    }

    /// Overrides the development-farm power.
    pub fn with_farm_power(mut self, power: Power) -> Self {
        self.farm_power = power;
        self
    }

    /// Overrides the development-site grid intensity.
    pub fn with_grid(mut self, grid: CarbonIntensity) -> Self {
        self.grid = grid;
        self
    }

    /// Front-end (RTL/HLS + verification) time per application.
    pub fn frontend_time(&self) -> TimeSpan {
        self.frontend_time
    }

    /// Back-end (synthesis + place-and-route) time per application.
    pub fn backend_time(&self) -> TimeSpan {
        self.backend_time
    }

    /// Per-device configuration time.
    pub fn config_time(&self) -> TimeSpan {
        self.config_time
    }

    /// Total development time `T_app-dev` of Eq. (7) for `applications`
    /// applications deployed onto `volume` devices.
    pub fn total_development_time(
        &self,
        flow: DevelopmentFlow,
        applications: u64,
        volume: u64,
    ) -> TimeSpan {
        let per_app = match flow {
            DevelopmentFlow::FpgaHardware => self.frontend_time + self.backend_time,
            DevelopmentFlow::AsicSoftware => TimeSpan::ZERO,
        };
        let config = match flow {
            DevelopmentFlow::FpgaHardware => self.config_time * volume as f64,
            DevelopmentFlow::AsicSoftware => TimeSpan::ZERO,
        };
        per_app * applications as f64 + config
    }

    /// Application-development CFP for `applications` applications deployed
    /// onto `volume` devices under the given flow.
    pub fn carbon(&self, flow: DevelopmentFlow, applications: u64, volume: u64) -> Carbon {
        let time = self.total_development_time(flow, applications, volume);
        let energy = (self.farm_power * self.farm_utilization.value()) * time;
        energy * self.grid
    }

    /// Development CFP of a single application (no per-device configuration
    /// term); convenient for per-application accounting.
    pub fn carbon_per_application(&self, flow: DevelopmentFlow) -> Carbon {
        self.carbon(flow, 1, 0)
    }
}

impl Default for AppDevModel {
    fn default() -> Self {
        AppDevModel::default_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AppDevModel {
        AppDevModel::default_paper()
    }

    #[test]
    fn asic_flow_has_zero_development_footprint() {
        let c = model().carbon(DevelopmentFlow::AsicSoftware, 5, 1_000_000);
        assert_eq!(c, Carbon::ZERO);
        assert_eq!(
            model().total_development_time(DevelopmentFlow::AsicSoftware, 5, 1_000_000),
            TimeSpan::ZERO
        );
    }

    #[test]
    fn fpga_flow_scales_with_applications() {
        let one = model().carbon(DevelopmentFlow::FpgaHardware, 1, 0);
        let five = model().carbon(DevelopmentFlow::FpgaHardware, 5, 0);
        assert!((five.as_kg() - 5.0 * one.as_kg()).abs() < 1e-9);
    }

    #[test]
    fn config_term_scales_with_volume() {
        let no_volume = model().carbon(DevelopmentFlow::FpgaHardware, 1, 0);
        let with_volume = model().carbon(DevelopmentFlow::FpgaHardware, 1, 1_000_000);
        assert!(with_volume > no_volume);
        let delta = with_volume - no_volume;
        // 1e6 devices x 10 min = ~19 years of config farm time; the term is
        // visible but not dominant versus months of engineering time.
        assert!(delta.as_kg() > 0.0);
    }

    #[test]
    fn eq7_hand_calculation() {
        // 2 kW farm, 400 g/kWh, 3 months of dev time, no config.
        let m = AppDevModel::new(
            Power::from_kilowatts(2.0),
            CarbonIntensity::from_grams_per_kwh(400.0),
            TimeSpan::from_months(2.0),
            TimeSpan::from_months(1.0),
            TimeSpan::ZERO,
        )
        .unwrap();
        let c = m.carbon(DevelopmentFlow::FpgaHardware, 1, 123);
        let expected_kwh = 2.0 * TimeSpan::from_months(3.0).as_hours();
        assert!((c.as_kg() - expected_kwh * 0.4).abs() < 1e-6);
    }

    #[test]
    fn utilization_scales_footprint() {
        let full = model().carbon(DevelopmentFlow::FpgaHardware, 2, 100);
        let half = model().with_farm_utilization(Fraction::HALF).carbon(
            DevelopmentFlow::FpgaHardware,
            2,
            100,
        );
        assert!((half.as_kg() * 2.0 - full.as_kg()).abs() < 1e-9);
    }

    #[test]
    fn frontend_backend_overrides_scale_the_per_app_term() {
        let base = model().carbon(DevelopmentFlow::FpgaHardware, 1, 0);
        let doubled = model()
            .with_frontend_time(TimeSpan::from_months(4.0))
            .with_backend_time(TimeSpan::from_months(2.0))
            .carbon(DevelopmentFlow::FpgaHardware, 1, 0);
        assert!((doubled.as_kg() - 2.0 * base.as_kg()).abs() < 1e-9);
    }

    #[test]
    fn config_time_override_changes_volume_term_only() {
        let slow = model().with_config_time(TimeSpan::from_seconds(600.0));
        let fast = model().with_config_time(TimeSpan::from_seconds(60.0));
        // No volume: identical.
        assert_eq!(
            slow.carbon(DevelopmentFlow::FpgaHardware, 2, 0),
            fast.carbon(DevelopmentFlow::FpgaHardware, 2, 0)
        );
        // With volume the slower configuration costs more.
        assert!(
            slow.carbon(DevelopmentFlow::FpgaHardware, 2, 1_000_000)
                > fast.carbon(DevelopmentFlow::FpgaHardware, 2, 1_000_000)
        );
    }

    #[test]
    fn builders_override() {
        let bigger = model().with_farm_power(Power::from_kilowatts(4.0)).carbon(
            DevelopmentFlow::FpgaHardware,
            1,
            0,
        );
        let cleaner = model()
            .with_grid(CarbonIntensity::from_grams_per_kwh(40.0))
            .carbon(DevelopmentFlow::FpgaHardware, 1, 0);
        let base = model().carbon(DevelopmentFlow::FpgaHardware, 1, 0);
        assert!(bigger > base);
        assert!(cleaner < base);
    }

    #[test]
    fn negative_durations_rejected() {
        let err = AppDevModel::new(
            Power::from_kilowatts(1.0),
            CarbonIntensity::from_grams_per_kwh(100.0),
            TimeSpan::from_months(-1.0),
            TimeSpan::ZERO,
            TimeSpan::ZERO,
        );
        assert!(matches!(err, Err(LifecycleError::NegativeDuration { .. })));
    }

    #[test]
    fn accessors_expose_table1_defaults() {
        let m = model();
        assert!((m.frontend_time().as_months() - 2.0).abs() < 1e-12);
        assert!((m.backend_time().as_months() - 1.0).abs() < 1e-12);
        assert!(m.config_time().as_seconds() > 0.0);
        assert_eq!(AppDevModel::default(), AppDevModel::default_paper());
        assert!(
            m.carbon_per_application(DevelopmentFlow::FpgaHardware)
                > m.carbon_per_application(DevelopmentFlow::AsicSoftware)
        );
    }
}
