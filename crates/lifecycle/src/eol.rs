//! End-of-life carbon model (Eq. 6 of the paper).
//!
//! `C_EOL = (1 − δ)·C_dis − δ·C_recycle`: the fraction `δ` of a retired chip
//! that is recycled earns a carbon *credit*, the rest pays the discard
//! (landfill / incineration) footprint. The per-ton factors come from the
//! EPA WARM ranges quoted in Table 1 of the paper.

use gf_units::{Carbon, CarbonPerMass, Fraction, Mass};

/// End-of-life (discard + recycling) carbon model for one packaged chip.
///
/// # Examples
///
/// ```
/// use gf_lifecycle::EolModel;
/// use gf_units::{Fraction, Mass};
///
/// let eol = EolModel::default_warm().with_recycled_fraction(Fraction::new(0.8)?);
/// let cfp = eol.carbon_per_chip(Mass::from_grams(60.0));
/// assert!(cfp.is_credit()); // aggressive recycling earns a net credit
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EolModel {
    discard_factor: CarbonPerMass,
    recycle_credit_factor: CarbonPerMass,
    recycled_fraction: Fraction,
}

impl EolModel {
    /// EPA WARM range for the discard factor (MTCO₂e per ton of e-waste),
    /// as quoted in Table 1 of the paper.
    pub const DISCARD_RANGE_TONS_PER_TON: (f64, f64) = (0.03, 2.08);
    /// EPA WARM range for the recycling credit (MTCO₂e per ton of e-waste),
    /// as quoted in Table 1 of the paper.
    pub const RECYCLE_RANGE_TONS_PER_TON: (f64, f64) = (7.65, 29.83);

    /// Creates an end-of-life model from explicit factors.
    pub fn new(
        discard_factor: CarbonPerMass,
        recycle_credit_factor: CarbonPerMass,
        recycled_fraction: Fraction,
    ) -> Self {
        EolModel {
            discard_factor,
            recycle_credit_factor,
            recycled_fraction,
        }
    }

    /// Mid-range EPA WARM defaults with no recycling (δ = 0).
    pub fn default_warm() -> Self {
        EolModel {
            discard_factor: CarbonPerMass::from_tons_co2_per_ton(1.0),
            recycle_credit_factor: CarbonPerMass::from_tons_co2_per_ton(15.0),
            recycled_fraction: Fraction::ZERO,
        }
    }

    /// Sets the recycled fraction `δ`.
    pub fn with_recycled_fraction(mut self, delta: Fraction) -> Self {
        self.recycled_fraction = delta;
        self
    }

    /// Sets the discard factor (`C_dis`).
    pub fn with_discard_factor(mut self, factor: CarbonPerMass) -> Self {
        self.discard_factor = factor;
        self
    }

    /// Sets the recycling credit factor (`C_recycle`).
    pub fn with_recycle_credit_factor(mut self, factor: CarbonPerMass) -> Self {
        self.recycle_credit_factor = factor;
        self
    }

    /// The recycled fraction `δ` currently configured.
    pub fn recycled_fraction(&self) -> Fraction {
        self.recycled_fraction
    }

    /// End-of-life footprint of one chip of the given packaged mass.
    ///
    /// Negative results are genuine recycling credits.
    pub fn carbon_per_chip(&self, chip_mass: Mass) -> Carbon {
        let delta = self.recycled_fraction.value();
        let discard = self.discard_factor * chip_mass * (1.0 - delta);
        let credit = self.recycle_credit_factor * chip_mass * delta;
        discard - credit
    }

    /// The recycled fraction at which discard emissions and the recycling
    /// credit exactly cancel (`C_EOL = 0`), independent of chip mass.
    ///
    /// Returns `None` when both factors are zero.
    pub fn break_even_fraction(&self) -> Option<Fraction> {
        let d = self.discard_factor.as_kg_co2_per_ton();
        let r = self.recycle_credit_factor.as_kg_co2_per_ton();
        if d + r == 0.0 {
            None
        } else {
            Some(Fraction::clamped(d / (d + r)))
        }
    }
}

impl Default for EolModel {
    fn default() -> Self {
        EolModel::default_warm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHIP: Mass = Mass::ZERO; // placeholder, real masses built in tests

    fn chip_mass() -> Mass {
        Mass::from_grams(50.0)
    }

    #[test]
    fn no_recycling_pays_full_discard() {
        let eol = EolModel::default_warm();
        let c = eol.carbon_per_chip(chip_mass());
        // 50 g = 5e-5 t at 1 tCO2/t = 0.05 kg.
        assert!((c.as_kg() - 0.05).abs() < 1e-9);
        assert!(!c.is_credit());
        let _ = CHIP; // silence unused-const lint in case of refactors
    }

    #[test]
    fn full_recycling_is_a_pure_credit() {
        let eol = EolModel::default_warm().with_recycled_fraction(Fraction::ONE);
        let c = eol.carbon_per_chip(chip_mass());
        assert!(c.is_credit());
        // 5e-5 t * 15 tCO2/t = 0.75 kg credit.
        assert!((c.as_kg() + 0.75).abs() < 1e-9);
    }

    #[test]
    fn eol_is_monotone_decreasing_in_delta() {
        let mut last = f64::INFINITY;
        for i in 0..=10 {
            let delta = Fraction::new(i as f64 / 10.0).unwrap();
            let c = EolModel::default_warm()
                .with_recycled_fraction(delta)
                .carbon_per_chip(chip_mass())
                .as_kg();
            assert!(c < last);
            last = c;
        }
    }

    #[test]
    fn break_even_fraction_zeroes_the_footprint() {
        let eol = EolModel::default_warm();
        let delta = eol.break_even_fraction().unwrap();
        let c = eol
            .with_recycled_fraction(delta)
            .carbon_per_chip(chip_mass());
        assert!(c.as_kg().abs() < 1e-9);
    }

    #[test]
    fn break_even_handles_degenerate_factors() {
        let eol = EolModel::new(CarbonPerMass::ZERO, CarbonPerMass::ZERO, Fraction::ZERO);
        assert_eq!(eol.break_even_fraction(), None);
        assert_eq!(eol.carbon_per_chip(chip_mass()), Carbon::ZERO);
    }

    #[test]
    fn scales_linearly_with_mass() {
        let eol = EolModel::default_warm().with_recycled_fraction(Fraction::HALF);
        let one = eol.carbon_per_chip(Mass::from_grams(30.0));
        let three = eol.carbon_per_chip(Mass::from_grams(90.0));
        assert!((three.as_kg() - 3.0 * one.as_kg()).abs() < 1e-12);
    }

    #[test]
    fn table1_ranges_are_exposed() {
        let (dlo, dhi) = EolModel::DISCARD_RANGE_TONS_PER_TON;
        let (rlo, rhi) = EolModel::RECYCLE_RANGE_TONS_PER_TON;
        assert!(dlo < dhi && rlo < rhi);
        // Default factors sit inside the published ranges.
        let eol = EolModel::default_warm();
        let d = eol.discard_factor.as_tons_co2_per_ton();
        let r = eol.recycle_credit_factor.as_tons_co2_per_ton();
        assert!(d >= dlo && d <= dhi);
        assert!(r >= rlo && r <= rhi);
    }

    #[test]
    fn builder_overrides_apply() {
        let eol = EolModel::default_warm()
            .with_discard_factor(CarbonPerMass::from_tons_co2_per_ton(2.08))
            .with_recycle_credit_factor(CarbonPerMass::from_tons_co2_per_ton(29.83))
            .with_recycled_fraction(Fraction::new(0.25).unwrap());
        assert_eq!(eol.recycled_fraction().value(), 0.25);
        let c = eol.carbon_per_chip(Mass::from_tons(1.0));
        // 0.75*2.08 - 0.25*29.83 tons = -5.8975 t
        assert!((c.as_tons() + 5.8975).abs() < 1e-9);
    }
}
