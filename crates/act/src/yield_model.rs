//! Die-yield models.
//!
//! Manufacturing carbon is reported *per good die*: the footprint of
//! processed wafer area is divided by the die yield, so larger dies at
//! immature nodes carry a disproportionate embodied footprint. ACT uses the
//! classic defect-limited yield models reproduced here.

use gf_units::Area;

/// Defect-limited die-yield model.
///
/// All variants take the die area and the node's defect density `D0`
/// (defects/cm²) and return the fraction of dies that are functional.
///
/// # Examples
///
/// ```
/// use gf_act::YieldModel;
/// use gf_units::Area;
///
/// let y = YieldModel::Murphy.die_yield(Area::from_mm2(600.0), 0.1);
/// assert!(y > 0.5 && y < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum YieldModel {
    /// Poisson model: `Y = exp(-A·D0)`. Pessimistic for large dies.
    Poisson,
    /// Murphy's model: `Y = ((1 - exp(-A·D0)) / (A·D0))²`. The industry
    /// default and what ACT uses.
    Murphy,
    /// Negative-binomial (Stapper) model: `Y = (1 + A·D0/α)^-α`, where `α`
    /// is the defect clustering parameter (typically 2–4).
    NegativeBinomial {
        /// Defect clustering parameter `α`.
        alpha: f64,
    },
    /// A fixed yield independent of area — useful for what-if studies and
    /// for matching externally reported yield figures.
    Fixed {
        /// The yield value in `(0, 1]`.
        value: f64,
    },
}

impl YieldModel {
    /// Returns the fraction of good dies for a die of the given area at
    /// defect density `defect_density_per_cm2`.
    ///
    /// The result is clamped to `[0, 1]`; zero-area dies yield 1.0.
    pub fn die_yield(self, die_area: Area, defect_density_per_cm2: f64) -> f64 {
        let ad = (die_area.as_cm2() * defect_density_per_cm2).max(0.0);
        let y = match self {
            YieldModel::Poisson => (-ad).exp(),
            YieldModel::Murphy => {
                if ad == 0.0 {
                    1.0
                } else {
                    let t = (1.0 - (-ad).exp()) / ad;
                    t * t
                }
            }
            YieldModel::NegativeBinomial { alpha } => {
                let alpha = alpha.max(f64::MIN_POSITIVE);
                (1.0 + ad / alpha).powf(-alpha)
            }
            YieldModel::Fixed { value } => value,
        };
        y.clamp(0.0, 1.0)
    }
}

impl Default for YieldModel {
    /// Murphy's model, as used by ACT.
    fn default() -> Self {
        YieldModel::Murphy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: f64 = 0.1;

    #[test]
    fn zero_area_yields_one() {
        for model in [
            YieldModel::Poisson,
            YieldModel::Murphy,
            YieldModel::NegativeBinomial { alpha: 3.0 },
        ] {
            assert!(
                (model.die_yield(Area::ZERO, D0) - 1.0).abs() < 1e-12,
                "{model:?}"
            );
        }
    }

    #[test]
    fn yield_decreases_with_area() {
        for model in [
            YieldModel::Poisson,
            YieldModel::Murphy,
            YieldModel::NegativeBinomial { alpha: 3.0 },
        ] {
            let small = model.die_yield(Area::from_mm2(50.0), D0);
            let large = model.die_yield(Area::from_mm2(600.0), D0);
            assert!(large < small, "{model:?}: {large} !< {small}");
        }
    }

    #[test]
    fn yield_decreases_with_defect_density() {
        let area = Area::from_mm2(300.0);
        for model in [
            YieldModel::Poisson,
            YieldModel::Murphy,
            YieldModel::NegativeBinomial { alpha: 3.0 },
        ] {
            assert!(
                model.die_yield(area, 0.3) < model.die_yield(area, 0.05),
                "{model:?}"
            );
        }
    }

    #[test]
    fn murphy_is_less_pessimistic_than_poisson() {
        let area = Area::from_mm2(600.0);
        assert!(YieldModel::Murphy.die_yield(area, D0) > YieldModel::Poisson.die_yield(area, D0));
    }

    #[test]
    fn negative_binomial_approaches_poisson_for_large_alpha() {
        let area = Area::from_mm2(400.0);
        let nb = YieldModel::NegativeBinomial { alpha: 1.0e6 }.die_yield(area, D0);
        let poisson = YieldModel::Poisson.die_yield(area, D0);
        assert!((nb - poisson).abs() < 1e-3);
    }

    #[test]
    fn fixed_ignores_area() {
        let model = YieldModel::Fixed { value: 0.875 };
        assert_eq!(model.die_yield(Area::from_mm2(10.0), D0), 0.875);
        assert_eq!(model.die_yield(Area::from_mm2(900.0), 5.0), 0.875);
    }

    #[test]
    fn results_are_probabilities() {
        for model in [
            YieldModel::Poisson,
            YieldModel::Murphy,
            YieldModel::NegativeBinomial { alpha: 2.0 },
            YieldModel::Fixed { value: 0.5 },
        ] {
            for mm2 in [0.0, 1.0, 100.0, 858.0, 2000.0] {
                let y = model.die_yield(Area::from_mm2(mm2), 0.2);
                assert!((0.0..=1.0).contains(&y), "{model:?} at {mm2} mm2 gave {y}");
            }
        }
    }

    #[test]
    fn default_is_murphy() {
        assert_eq!(YieldModel::default(), YieldModel::Murphy);
    }
}
