//! # GreenFPGA
//!
//! A lifecycle carbon-footprint (CFP) model for FPGA- and ASIC-based
//! hardware acceleration, reproducing *"GreenFPGA: Evaluating FPGAs as
//! Environmentally Sustainable Computing Solutions"* (DAC 2024).
//!
//! The central question the tool answers: given that an FPGA at
//! iso-performance with an ASIC is bigger and hungrier (higher embodied and
//! operational carbon), when does its *reconfigurability* — one set of
//! chips serving many successive applications — make it the lower-carbon
//! platform?
//!
//! ## Model structure
//!
//! * Total ASIC footprint, Eq. (1): every application pays design,
//!   manufacturing, packaging, end-of-life *and* operation, because a new
//!   ASIC must be built per application.
//! * Total FPGA footprint, Eq. (2): the embodied cost is paid once; each
//!   application adds operation plus a (hardware) application-development
//!   overhead and per-device reconfiguration.
//! * Embodied CFP, Eq. (3): `C_des + N_vol·N_FPGA·(C_mfg + C_package +
//!   C_EOL)`, with `N_FPGA = ceil(appsize / FPGA capacity)`.
//!
//! The manufacturing/packaging substrate lives in [`gf_act`], the design /
//! end-of-life / application-development / operation models in
//! [`gf_lifecycle`]; this crate composes them into platform estimates,
//! comparisons, crossover searches, parameter sweeps and the paper's
//! experiment scenarios. [`Estimator`] is the naive reference model;
//! [`Estimator::compile`] returns the [`CompiledScenario`] every fast
//! analysis runs on, and [`Engine`] serves those analyses as queries.
//!
//! ## Quick start
//!
//! ```
//! use greenfpga::{Domain, EstimatorParams, Estimator, Workload};
//!
//! // Compare FPGA vs ASIC for five successive DNN applications, each
//! // deployed on one million devices for two years.
//! let params = EstimatorParams::paper_defaults();
//! let estimator = Estimator::new(params);
//! let workload = Workload::uniform(Domain::Dnn, 5, 2.0, 1_000_000)?;
//! let comparison = estimator.compare_domain(&workload)?;
//!
//! println!("FPGA: {}", comparison.fpga.total());
//! println!("ASIC: {}", comparison.asic.total());
//! println!("FPGA:ASIC ratio = {:.2}", comparison.fpga_to_asic_ratio());
//! # Ok::<(), greenfpga::GreenFpgaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analytic;
pub mod api;
mod application;
mod breakdown;
mod comparison;
mod device;
mod domain;
mod engine;
mod error;
mod estimator;
mod eval;
pub mod exec;
mod frontier;
mod knobs;
pub mod optimize;
mod params;
mod report;
mod scenario;
mod sensitivity;
mod sweep;
mod testcases;
mod uncertainty;

pub use analytic::{AffineComparison, AffineTotal};
pub use api::{
    BatchEvalRequest, BatchEvalResponse, CatalogRequest, CatalogResponse, CompareRequest,
    CompareResponse, CrossoverRequest, CrossoverResponse, EvaluateRequest, EvaluateResponse,
    FrontierRequest, GridRequest, IndustryRequest, IndustryResponse, MonteCarloRequest,
    OptimizeRequest, OptimizeResponse, Outcome, Query, QueryKind, ReplayRequest, ReplayResponse,
    ScenarioRef, ScenarioRunRequest, ScenarioRunResponse, ScenarioSpec, SeriesRef, SweepRequest,
    TornadoRequest,
};
pub use application::{Application, Workload};
pub use breakdown::CfpBreakdown;
pub use comparison::{Crossover, CrossoverDirection, PlatformComparison, PlatformKind};
pub use device::{AsicSpec, ChipSpec, FpgaSpec};
pub use domain::{Domain, DomainCalibration, IsoPerformanceRatios};
pub use engine::{Engine, EngineConfig};
pub use error::{ApiError, ApiErrorCode, GreenFpgaError};
pub use estimator::Estimator;
pub use eval::{CompiledPlatform, CompiledScenario, ResultBuffer, ScenarioTemplate};
pub use frontier::FrontierResult;
pub use knobs::{Knob, KnobRange};
pub use optimize::{
    CertificateProbe, Constraint, Objective, OptPlatform, OptimizeOutcome, SearchKnob, SolverKind,
};
pub use params::{DeploymentParams, DesignStaffing, EstimatorParams};
pub use report::{csv_from_rows, render_table, HeatmapRenderer};
pub use scenario::{
    catalog, catalog_entry, CarbonIntensitySeries, CatalogEntry, LongHorizonPoint,
    LongHorizonScenario, ReplayOutcome, Verdict, HOURS_PER_YEAR,
};
pub use sensitivity::{SensitivityEntry, TornadoAnalysis};
pub use sweep::{
    log_spaced_volumes, GridBlock, GridStream, GridSweep, Lattice, OperatingPoint, SweepAxis,
    SweepPoint, SweepSeries,
};
pub use testcases::{
    industry_asic1, industry_asic2, industry_fpga1, industry_fpga2, IndustryScenario,
};
pub use uncertainty::{MonteCarlo, UncertaintyReport};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use gf_act as act;
pub use gf_lifecycle as lifecycle;
pub use gf_units as units;
