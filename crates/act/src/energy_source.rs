//! Carbon intensities of electricity sources and regional grid mixes.
//!
//! Lifecycle carbon intensities per generation technology follow the IPCC
//! AR5 median values; grid-mix figures follow commonly cited national
//! averages. These feed the `C_src,des`, fab energy and `C_src,use` knobs of
//! the paper (Table 1 quotes 30–700 g CO₂/kWh for the design-house source).

use std::fmt;

use gf_units::CarbonIntensity;

/// A single electricity generation technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EnergySource {
    /// Coal-fired generation.
    Coal,
    /// Natural-gas generation.
    NaturalGas,
    /// Utility solar photovoltaics.
    Solar,
    /// Onshore wind.
    Wind,
    /// Hydroelectric generation.
    Hydro,
    /// Nuclear generation.
    Nuclear,
    /// Biomass generation.
    Biomass,
    /// Geothermal generation.
    Geothermal,
}

impl EnergySource {
    /// All modeled sources.
    pub const ALL: [EnergySource; 8] = [
        EnergySource::Coal,
        EnergySource::NaturalGas,
        EnergySource::Solar,
        EnergySource::Wind,
        EnergySource::Hydro,
        EnergySource::Nuclear,
        EnergySource::Biomass,
        EnergySource::Geothermal,
    ];

    /// Lifecycle carbon intensity of this source.
    pub fn carbon_intensity(self) -> CarbonIntensity {
        let g_per_kwh = match self {
            EnergySource::Coal => 820.0,
            EnergySource::NaturalGas => 490.0,
            EnergySource::Solar => 41.0,
            EnergySource::Wind => 11.0,
            EnergySource::Hydro => 24.0,
            EnergySource::Nuclear => 12.0,
            EnergySource::Biomass => 230.0,
            EnergySource::Geothermal => 38.0,
        };
        CarbonIntensity::from_grams_per_kwh(g_per_kwh)
    }
}

impl fmt::Display for EnergySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EnergySource::Coal => "coal",
            EnergySource::NaturalGas => "natural gas",
            EnergySource::Solar => "solar",
            EnergySource::Wind => "wind",
            EnergySource::Hydro => "hydro",
            EnergySource::Nuclear => "nuclear",
            EnergySource::Biomass => "biomass",
            EnergySource::Geothermal => "geothermal",
        };
        f.write_str(name)
    }
}

/// A regional electricity grid mix.
///
/// The operational carbon of a deployed accelerator and the energy feeding a
/// fab or design house depend on where they are located; these presets cover
/// the regions most relevant to semiconductor manufacturing and hyperscale
/// deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GridMix {
    /// World average grid.
    WorldAverage,
    /// United States average grid.
    UnitedStates,
    /// Taiwan grid (most leading-edge fabs).
    Taiwan,
    /// South Korea grid.
    SouthKorea,
    /// European Union average grid.
    EuropeanUnion,
    /// China grid.
    China,
    /// India grid.
    India,
    /// Iceland grid (near-fully renewable; lower bound scenario).
    Iceland,
    /// A fully coal-powered grid (upper bound scenario).
    CoalHeavy,
}

impl GridMix {
    /// All modeled grid mixes.
    pub const ALL: [GridMix; 9] = [
        GridMix::WorldAverage,
        GridMix::UnitedStates,
        GridMix::Taiwan,
        GridMix::SouthKorea,
        GridMix::EuropeanUnion,
        GridMix::China,
        GridMix::India,
        GridMix::Iceland,
        GridMix::CoalHeavy,
    ];

    /// Average carbon intensity of this grid.
    pub fn carbon_intensity(self) -> CarbonIntensity {
        let g_per_kwh = match self {
            GridMix::WorldAverage => 475.0,
            GridMix::UnitedStates => 380.0,
            GridMix::Taiwan => 560.0,
            GridMix::SouthKorea => 430.0,
            GridMix::EuropeanUnion => 280.0,
            GridMix::China => 580.0,
            GridMix::India => 700.0,
            GridMix::Iceland => 30.0,
            GridMix::CoalHeavy => 820.0,
        };
        CarbonIntensity::from_grams_per_kwh(g_per_kwh)
    }

    /// Intensity of this grid after offsetting a fraction of consumption with
    /// a renewable source (power-purchase agreements, on-site solar, …).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `renewable_share` is outside `[0, 1]`.
    pub fn with_renewable_share(
        self,
        renewable_share: f64,
        source: EnergySource,
    ) -> CarbonIntensity {
        self.carbon_intensity()
            .blend(source.carbon_intensity(), renewable_share)
    }
}

impl fmt::Display for GridMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            GridMix::WorldAverage => "world average",
            GridMix::UnitedStates => "United States",
            GridMix::Taiwan => "Taiwan",
            GridMix::SouthKorea => "South Korea",
            GridMix::EuropeanUnion => "European Union",
            GridMix::China => "China",
            GridMix::India => "India",
            GridMix::Iceland => "Iceland",
            GridMix::CoalHeavy => "coal-heavy",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renewables_are_cleaner_than_fossil() {
        for renewable in [EnergySource::Solar, EnergySource::Wind, EnergySource::Hydro] {
            for fossil in [EnergySource::Coal, EnergySource::NaturalGas] {
                assert!(
                    renewable.carbon_intensity() < fossil.carbon_intensity(),
                    "{renewable} should be cleaner than {fossil}"
                );
            }
        }
    }

    #[test]
    fn grid_intensities_cover_table1_range() {
        // Table 1 quotes 30-700 gCO2/kWh for C_src,des; the presets span it.
        let values: Vec<f64> = GridMix::ALL
            .iter()
            .map(|g| g.carbon_intensity().as_grams_per_kwh())
            .collect();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        assert!(min <= 30.0);
        assert!(max >= 700.0);
    }

    #[test]
    fn renewable_share_reduces_intensity() {
        let base = GridMix::Taiwan.carbon_intensity();
        let greened = GridMix::Taiwan.with_renewable_share(0.6, EnergySource::Solar);
        assert!(greened < base);
        let fully = GridMix::Taiwan.with_renewable_share(1.0, EnergySource::Solar);
        assert_eq!(fully, EnergySource::Solar.carbon_intensity());
    }

    #[test]
    fn display_names() {
        assert_eq!(EnergySource::NaturalGas.to_string(), "natural gas");
        assert_eq!(GridMix::Taiwan.to_string(), "Taiwan");
    }

    #[test]
    fn all_sources_positive() {
        for s in EnergySource::ALL {
            assert!(s.carbon_intensity().as_grams_per_kwh() > 0.0);
        }
    }
}
