//! Operational (field-use) carbon model.
//!
//! `C_op = C_src,use × E_use`, where the energy spent during usage is the
//! product of peak power, duty cycle and deployment time (§3.3(1) of the
//! paper).

use gf_units::{Carbon, CarbonIntensity, Energy, Fraction, Power, TimeSpan};

/// Operating profile of one deployed device.
///
/// # Examples
///
/// ```
/// use gf_lifecycle::OperationProfile;
/// use gf_units::{CarbonIntensity, Fraction, Power, TimeSpan};
///
/// let profile = OperationProfile::new(
///     Power::from_watts(220.0),                       // Stratix-10-class TDP
///     Fraction::new(0.6)?,                            // 60% duty cycle
///     CarbonIntensity::from_grams_per_kwh(475.0),     // world-average grid
/// );
/// let cfp = profile.carbon_over(TimeSpan::from_years(2.0));
/// assert!(cfp.as_tons() > 0.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationProfile {
    peak_power: Power,
    duty_cycle: Fraction,
    grid: CarbonIntensity,
}

impl OperationProfile {
    /// Creates an operating profile from peak power, duty cycle and the
    /// usage grid's carbon intensity.
    pub fn new(peak_power: Power, duty_cycle: Fraction, grid: CarbonIntensity) -> Self {
        OperationProfile {
            peak_power,
            duty_cycle,
            grid,
        }
    }

    /// Continuous operation (100% duty cycle) on the given grid.
    pub fn continuous(peak_power: Power, grid: CarbonIntensity) -> Self {
        OperationProfile {
            peak_power,
            duty_cycle: Fraction::ONE,
            grid,
        }
    }

    /// Peak power of the device.
    pub fn peak_power(&self) -> Power {
        self.peak_power
    }

    /// Duty cycle (fraction of wall-clock time the device draws peak power).
    pub fn duty_cycle(&self) -> Fraction {
        self.duty_cycle
    }

    /// Carbon intensity of the usage grid (`C_src,use`).
    pub fn grid(&self) -> CarbonIntensity {
        self.grid
    }

    /// Average (duty-cycle-weighted) power draw.
    pub fn average_power(&self) -> Power {
        self.peak_power * self.duty_cycle.value()
    }

    /// Energy consumed over a deployment of the given duration (`E_use`).
    pub fn energy_over(&self, duration: TimeSpan) -> Energy {
        self.average_power() * duration
    }

    /// Operational footprint over a deployment of the given duration.
    pub fn carbon_over(&self, duration: TimeSpan) -> Carbon {
        self.energy_over(duration) * self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> OperationProfile {
        OperationProfile::new(
            Power::from_watts(100.0),
            Fraction::new(0.5).unwrap(),
            CarbonIntensity::from_grams_per_kwh(400.0),
        )
    }

    #[test]
    fn hand_calculation() {
        // 100 W at 50% duty = 50 W avg = 438.3 kWh/year; x 0.4 kg/kWh.
        let c = profile().carbon_over(TimeSpan::from_years(1.0));
        assert!((c.as_kg() - 438.3 * 0.4).abs() < 0.1);
    }

    #[test]
    fn linear_in_duration() {
        let p = profile();
        let one = p.carbon_over(TimeSpan::from_years(1.0));
        let three = p.carbon_over(TimeSpan::from_years(3.0));
        assert!((three.as_kg() - 3.0 * one.as_kg()).abs() < 1e-9);
        assert_eq!(p.carbon_over(TimeSpan::ZERO), Carbon::ZERO);
    }

    #[test]
    fn continuous_profile_has_unit_duty() {
        let p = OperationProfile::continuous(
            Power::from_watts(70.0),
            CarbonIntensity::from_grams_per_kwh(380.0),
        );
        assert!(p.duty_cycle().is_one());
        assert_eq!(p.average_power(), Power::from_watts(70.0));
    }

    #[test]
    fn duty_cycle_scales_energy() {
        let full = OperationProfile::continuous(
            Power::from_watts(200.0),
            CarbonIntensity::from_grams_per_kwh(400.0),
        );
        let half = OperationProfile::new(
            Power::from_watts(200.0),
            Fraction::HALF,
            CarbonIntensity::from_grams_per_kwh(400.0),
        );
        let t = TimeSpan::from_years(1.0);
        assert!((full.energy_over(t).as_kwh() - 2.0 * half.energy_over(t).as_kwh()).abs() < 1e-9);
    }

    #[test]
    fn cleaner_grid_lowers_footprint() {
        let dirty = profile();
        let clean = OperationProfile::new(
            dirty.peak_power(),
            dirty.duty_cycle(),
            CarbonIntensity::from_grams_per_kwh(30.0),
        );
        let year = TimeSpan::from_years(1.0);
        assert!(clean.carbon_over(year) < dirty.carbon_over(year));
        assert_eq!(clean.grid().as_grams_per_kwh(), 30.0);
    }
}
