//! Manufacturing carbon-footprint model (the paper's `C_mfg`).
//!
//! Follows the ACT / ECO-CHIP structure: the carbon of one good die is the
//! per-area sum of fab energy, direct gas emissions and material sourcing,
//! multiplied by the die area and divided by the die yield. GreenFPGA adds
//! the recycled-material blend of Eq. (5):
//!
//! `C_materials = ρ·C_materials,recycled + (1 − ρ)·C_materials,new`

use gf_units::{Area, Carbon, CarbonIntensity, Energy, Fraction};

use crate::{ActError, EnergySource, GridMix, NodeParameters, TechnologyNode, YieldModel};

/// Per-die manufacturing footprint, broken into the ACT components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ManufacturingBreakdown {
    /// Footprint of the fab's electricity use.
    pub energy: Carbon,
    /// Direct greenhouse-gas (process gas) emissions.
    pub gas: Carbon,
    /// Material-sourcing footprint after the recycled-material blend.
    pub materials: Carbon,
    /// Die yield used to scale the processed-area footprint to a good die.
    pub die_yield: f64,
}

impl ManufacturingBreakdown {
    /// Total manufacturing footprint of one good die.
    pub fn total(&self) -> Carbon {
        self.energy + self.gas + self.materials
    }
}

/// The fab side of the manufacturing model: the carbon intensity of the
/// fab's grid electricity, the share procured from a renewable source and
/// the recycled-material fraction `ρ` of Eq. (5) — the inputs Table 1
/// varies while a die's area and yield stay fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabInputs {
    /// Carbon intensity of the fab's grid electricity.
    pub grid: CarbonIntensity,
    /// Share of fab electricity procured from a renewable source (modeled
    /// as wind PPA).
    pub renewable_share: Fraction,
    /// The recycled-material fraction `ρ` of Eq. (5).
    pub recycled_material_fraction: Fraction,
}

impl FabInputs {
    /// Effective carbon intensity of fab electricity after the renewable
    /// share is applied.
    pub fn effective_intensity(&self) -> CarbonIntensity {
        self.grid.blend(
            EnergySource::Wind.carbon_intensity(),
            self.renewable_share.value(),
        )
    }
}

impl Default for FabInputs {
    /// Taiwan grid with a 20% renewable share and no recycled materials.
    fn default() -> Self {
        FabInputs {
            grid: GridMix::Taiwan.carbon_intensity(),
            renewable_share: Fraction::clamped(0.2),
            recycled_material_fraction: Fraction::ZERO,
        }
    }
}

/// One die resolved against a node and a yield model: its processed area,
/// its die yield and the yield-scaled process-gas term — everything of
/// `C_mfg` that the [`FabInputs`] do not change, so a study that varies
/// only the fab resolves it once per die.
///
/// # Examples
///
/// ```
/// use gf_act::{FabInputs, ManufacturingModel, ProcessedDie, TechnologyNode, YieldModel};
/// use gf_units::Area;
///
/// let area = Area::from_mm2(380.0);
/// let die = ProcessedDie::new(&TechnologyNode::N10.parameters(), YieldModel::Murphy, area)?;
/// let model = ManufacturingModel::for_node(TechnologyNode::N10);
/// assert_eq!(die.carbon(&FabInputs::default()), model.carbon_per_die(area)?);
/// # Ok::<(), gf_act::ActError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessedDie {
    area_cm2: f64,
    die_yield: f64,
    energy_kwh: f64,
    gas: Carbon,
    material_per_cm2_kg: f64,
    recycled_material_per_cm2_kg: f64,
}

impl ProcessedDie {
    /// Resolves a die of area `die` at `node` under `yield_model`.
    ///
    /// # Errors
    ///
    /// Returns [`ActError::NonPositiveArea`] for non-positive areas and
    /// [`ActError::ZeroYield`] when the yield model collapses to zero.
    pub fn new(
        node: &NodeParameters,
        yield_model: YieldModel,
        die: Area,
    ) -> Result<Self, ActError> {
        let area_cm2 = die.as_cm2();
        if area_cm2 <= 0.0 || area_cm2.is_nan() {
            return Err(ActError::NonPositiveArea(die.as_mm2()));
        }
        let y = yield_model.die_yield(die, node.defect_density_per_cm2);
        if y <= 0.0 {
            return Err(ActError::ZeroYield {
                area_mm2: die.as_mm2(),
                defect_density: node.defect_density_per_cm2,
            });
        }
        Ok(ProcessedDie {
            area_cm2,
            die_yield: y,
            energy_kwh: node.energy_per_cm2_kwh * area_cm2,
            gas: Carbon::from_kg(node.gas_per_cm2_kg * area_cm2) / y,
            material_per_cm2_kg: node.material_per_cm2_kg,
            recycled_material_per_cm2_kg: node.recycled_material_per_cm2_kg,
        })
    }

    /// Manufacturing footprint of one good die from this fab, broken into
    /// components.
    pub fn breakdown(&self, fab: &FabInputs) -> ManufacturingBreakdown {
        let y = self.die_yield;
        let energy = Energy::from_kwh(self.energy_kwh) * fab.effective_intensity();

        // Eq. (5): blend of recycled and newly sourced material footprints.
        let rho = fab.recycled_material_fraction.value();
        let per_cm2 =
            rho * self.recycled_material_per_cm2_kg + (1.0 - rho) * self.material_per_cm2_kg;
        let materials = Carbon::from_kg(per_cm2 * self.area_cm2);

        ManufacturingBreakdown {
            energy: energy / y,
            gas: self.gas,
            materials: materials / y,
            die_yield: y,
        }
    }

    /// Total manufacturing footprint of one good die from this fab
    /// (`C_mfg`).
    pub fn carbon(&self, fab: &FabInputs) -> Carbon {
        self.breakdown(fab).total()
    }
}

/// Manufacturing carbon model for a given technology node and fab
/// configuration.
///
/// # Examples
///
/// ```
/// use gf_act::{GridMix, ManufacturingModel, TechnologyNode};
/// use gf_units::{Area, Fraction};
///
/// let mfg = ManufacturingModel::for_node(TechnologyNode::N7)
///     .with_fab_grid(GridMix::Taiwan.carbon_intensity())
///     .with_recycled_material_fraction(Fraction::new(0.3)?);
/// let cfp = mfg.carbon_per_die(Area::from_mm2(600.0))?;
/// assert!(cfp.as_kg() > 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManufacturingModel {
    node_parameters: NodeParameters,
    fab: FabInputs,
    yield_model: YieldModel,
}

impl ManufacturingModel {
    /// Creates a model for `node` with default fab assumptions
    /// ([`FabInputs::default`]) and Murphy yield.
    pub fn for_node(node: TechnologyNode) -> Self {
        ManufacturingModel {
            node_parameters: node.parameters(),
            fab: FabInputs::default(),
            yield_model: YieldModel::default(),
        }
    }

    /// Overrides the carbon intensity of the fab's grid electricity.
    pub fn with_fab_grid(mut self, intensity: CarbonIntensity) -> Self {
        self.fab.grid = intensity;
        self
    }

    /// Sets the share of fab electricity procured from a renewable source
    /// (modeled as wind PPA).
    pub fn with_fab_renewable_share(mut self, share: Fraction) -> Self {
        self.fab.renewable_share = share;
        self
    }

    /// Overrides the yield model.
    pub fn with_yield_model(mut self, model: YieldModel) -> Self {
        self.yield_model = model;
        self
    }

    /// Sets the recycled-material fraction `ρ` of Eq. (5).
    pub fn with_recycled_material_fraction(mut self, rho: Fraction) -> Self {
        self.fab.recycled_material_fraction = rho;
        self
    }

    /// The technology node in use.
    pub fn node(&self) -> TechnologyNode {
        self.node_parameters.node
    }

    /// Effective carbon intensity of fab electricity after the renewable
    /// share is applied.
    pub fn effective_fab_intensity(&self) -> CarbonIntensity {
        self.fab.effective_intensity()
    }

    /// Die yield for the given die area under this model's yield model and
    /// node defect density.
    pub fn die_yield(&self, die: Area) -> f64 {
        self.yield_model
            .die_yield(die, self.node_parameters.defect_density_per_cm2)
    }

    /// Manufacturing footprint of one good die, broken into components.
    ///
    /// # Errors
    ///
    /// Returns [`ActError::NonPositiveArea`] for non-positive areas and
    /// [`ActError::ZeroYield`] when the yield model collapses to zero.
    pub fn breakdown_per_die(&self, die: Area) -> Result<ManufacturingBreakdown, ActError> {
        Ok(ProcessedDie::new(&self.node_parameters, self.yield_model, die)?.breakdown(&self.fab))
    }

    /// Total manufacturing footprint of one good die (`C_mfg`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ManufacturingModel::breakdown_per_die`].
    pub fn carbon_per_die(&self, die: Area) -> Result<Carbon, ActError> {
        Ok(self.breakdown_per_die(die)?.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ManufacturingModel {
        ManufacturingModel::for_node(TechnologyNode::N10)
    }

    #[test]
    fn footprint_scales_superlinearly_with_area() {
        let m = model();
        let small = m.carbon_per_die(Area::from_mm2(100.0)).unwrap();
        let large = m.carbon_per_die(Area::from_mm2(400.0)).unwrap();
        // 4x the area costs more than 4x the carbon because yield drops.
        assert!(large.as_kg() > 4.0 * small.as_kg());
    }

    #[test]
    fn newer_nodes_cost_more_per_area() {
        let area = Area::from_mm2(300.0);
        let older = ManufacturingModel::for_node(TechnologyNode::N28)
            .carbon_per_die(area)
            .unwrap();
        let newer = ManufacturingModel::for_node(TechnologyNode::N5)
            .carbon_per_die(area)
            .unwrap();
        assert!(newer.as_kg() > older.as_kg());
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = model();
        let die = Area::from_mm2(380.0);
        let b = m.breakdown_per_die(die).unwrap();
        let total = m.carbon_per_die(die).unwrap();
        assert!((b.total().as_kg() - total.as_kg()).abs() < 1e-9);
        assert!(b.energy.as_kg() > 0.0);
        assert!(b.gas.as_kg() > 0.0);
        assert!(b.materials.as_kg() > 0.0);
        assert!(b.die_yield > 0.0 && b.die_yield < 1.0);
    }

    #[test]
    fn recycled_materials_lower_the_footprint() {
        let die = Area::from_mm2(340.0);
        let virgin = model().carbon_per_die(die).unwrap();
        let recycled = model()
            .with_recycled_material_fraction(Fraction::new(0.8).unwrap())
            .carbon_per_die(die)
            .unwrap();
        assert!(recycled < virgin);
        // Only the materials component changes.
        let b_virgin = model().breakdown_per_die(die).unwrap();
        let b_recycled = model()
            .with_recycled_material_fraction(Fraction::new(0.8).unwrap())
            .breakdown_per_die(die)
            .unwrap();
        assert_eq!(b_virgin.energy, b_recycled.energy);
        assert_eq!(b_virgin.gas, b_recycled.gas);
        assert!(b_recycled.materials < b_virgin.materials);
    }

    #[test]
    fn eq5_blend_is_linear_in_rho() {
        let die = Area::from_mm2(200.0);
        let at = |rho: f64| {
            model()
                .with_recycled_material_fraction(Fraction::new(rho).unwrap())
                .breakdown_per_die(die)
                .unwrap()
                .materials
                .as_kg()
        };
        let c0 = at(0.0);
        let c1 = at(1.0);
        let mid = at(0.5);
        assert!((mid - 0.5 * (c0 + c1)).abs() < 1e-9);
    }

    #[test]
    fn cleaner_fab_grid_reduces_energy_component() {
        let die = Area::from_mm2(340.0);
        let dirty = model()
            .with_fab_grid(GridMix::CoalHeavy.carbon_intensity())
            .breakdown_per_die(die)
            .unwrap();
        let clean = model()
            .with_fab_grid(GridMix::Iceland.carbon_intensity())
            .breakdown_per_die(die)
            .unwrap();
        assert!(clean.energy < dirty.energy);
        assert_eq!(clean.gas, dirty.gas);
    }

    #[test]
    fn renewable_share_reduces_effective_intensity() {
        let base = model().effective_fab_intensity();
        let greened = model()
            .with_fab_renewable_share(Fraction::new(0.9).unwrap())
            .effective_fab_intensity();
        assert!(greened < base);
    }

    #[test]
    fn errors_on_degenerate_inputs() {
        let m = model();
        assert!(matches!(
            m.carbon_per_die(Area::ZERO),
            Err(ActError::NonPositiveArea(_))
        ));
        assert!(matches!(
            m.carbon_per_die(Area::from_mm2(-5.0)),
            Err(ActError::NonPositiveArea(_))
        ));
        let zero_yield = model().with_yield_model(YieldModel::Fixed { value: 0.0 });
        assert!(matches!(
            zero_yield.carbon_per_die(Area::from_mm2(100.0)),
            Err(ActError::ZeroYield { .. })
        ));
    }

    #[test]
    fn cpa_is_in_act_published_range() {
        // ACT reports roughly 0.8-3 kgCO2e per cm2 of processed silicon for
        // high-volume nodes; check yield-free CPA stays in a sane window.
        for node in TechnologyNode::ALL {
            let m = ManufacturingModel::for_node(node);
            let die = Area::from_cm2(1.0);
            let b = m.breakdown_per_die(die).unwrap();
            let cpa = b.total().as_kg() * b.die_yield; // undo yield division
            assert!(cpa > 0.5 && cpa < 4.0, "{node}: CPA {cpa}");
        }
    }
}
