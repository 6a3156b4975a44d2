//! ACT-style manufacturing and packaging carbon-footprint substrate.
//!
//! The GreenFPGA paper reuses the manufacturing and packaging models of ACT
//! (Gupta et al., ISCA 2022) and ECO-CHIP (Sudarshan et al., HPCA 2024),
//! which it pulls as data files from those projects' repositories. This crate
//! re-implements that substrate from first principles so the workspace has no
//! external data dependency:
//!
//! * [`TechnologyNode`] — per-node fab footprint parameters (energy per area,
//!   direct gas emissions per area, material sourcing per area, defect
//!   density, logic-gate density),
//! * [`EnergySource`] / [`GridMix`] — carbon intensity of the electricity
//!   feeding the fab, the design house and the deployed device,
//! * [`YieldModel`] — Poisson, Murphy and negative-binomial die-yield models,
//! * [`Wafer`] — dies-per-wafer geometry,
//! * [`ManufacturingModel`] — the carbon-per-area composition including the
//!   recycled-material scaling of Eq. (5) of the paper, split into a
//!   [`ProcessedDie`] (area and yield, fixed for a die) and the
//!   [`FabInputs`] that Table 1 varies,
//! * [`PackagingModel`] — monolithic (and 2.5D-interposer) package assembly
//!   footprint.
//!
//! # Examples
//!
//! ```
//! use gf_act::{ManufacturingModel, PackagingModel, TechnologyNode};
//! use gf_units::Area;
//!
//! let mfg = ManufacturingModel::for_node(TechnologyNode::N10);
//! let die = Area::from_mm2(380.0);
//! let per_die = mfg.carbon_per_die(die)?;
//! let package = PackagingModel::monolithic().carbon_for_die(die);
//! assert!(per_die.as_kg() > 0.0 && package.as_kg() > 0.0);
//! # Ok::<(), gf_act::ActError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod energy_source;
mod error;
mod manufacturing;
mod node;
mod packaging;
mod wafer;
mod yield_model;

pub use energy_source::{EnergySource, GridMix};
pub use error::ActError;
pub use manufacturing::{FabInputs, ManufacturingBreakdown, ManufacturingModel, ProcessedDie};
pub use node::{NodeParameters, TechnologyNode};
pub use packaging::PackagingModel;
pub use wafer::Wafer;
pub use yield_model::YieldModel;
