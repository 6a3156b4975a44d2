//! Application domains and their iso-performance calibration.
//!
//! The paper compares FPGAs and ASICs at *iso-performance* using the
//! area/power ratios of Table 2 (from Tan's system-level FPGA/ASIC tradeoff
//! study) for three domains: deep neural networks, image processing and
//! cryptography. The absolute size and power of the reference ASIC
//! implementation are not given in the paper; the calibrated values embedded
//! here were chosen so that the crossover behaviour reported in the paper's
//! Figures 4–6 is reproduced (see DESIGN.md and EXPERIMENTS.md).

use std::fmt;

use gf_act::TechnologyNode;
use gf_units::{Area, GateCount, Power};

use crate::params::DesignStaffing;
use crate::{AsicSpec, ChipSpec, FpgaSpec, GreenFpgaError};

/// Iso-performance area and power ratios of an FPGA implementation relative
/// to an ASIC implementation of the same workload (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsoPerformanceRatios {
    /// FPGA die area divided by ASIC die area at equal performance.
    pub area: f64,
    /// FPGA power divided by ASIC power at equal performance.
    pub power: f64,
}

/// An application domain compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Domain {
    /// Deep neural network inference accelerators.
    Dnn,
    /// Image-processing pipelines.
    ImageProcessing,
    /// Cryptography engines.
    Crypto,
}

impl Domain {
    /// All domains, in the order Table 2 lists them.
    pub const ALL: [Domain; 3] = [Domain::Dnn, Domain::ImageProcessing, Domain::Crypto];

    /// The domain's stable machine-readable identifier, used in API
    /// requests, `--json` CLI output and the CLI's `--domain` option.
    pub fn id(self) -> &'static str {
        match self {
            Domain::Dnn => "dnn",
            Domain::ImageProcessing => "imgproc",
            Domain::Crypto => "crypto",
        }
    }

    /// Resolves a machine-readable identifier (or common alias) back to its
    /// domain.
    pub fn parse_id(id: &str) -> Option<Domain> {
        match id.to_ascii_lowercase().as_str() {
            "dnn" => Some(Domain::Dnn),
            "imgproc" | "image" | "imageprocessing" | "image_processing" => {
                Some(Domain::ImageProcessing)
            }
            "crypto" | "cryptography" => Some(Domain::Crypto),
            _ => None,
        }
    }

    /// Iso-performance ratios from Table 2 of the paper.
    pub fn iso_performance_ratios(self) -> IsoPerformanceRatios {
        match self {
            Domain::Dnn => IsoPerformanceRatios {
                area: 4.0,
                power: 3.0,
            },
            Domain::ImageProcessing => IsoPerformanceRatios {
                area: 7.42,
                power: 1.25,
            },
            Domain::Crypto => IsoPerformanceRatios {
                area: 1.0,
                power: 1.0,
            },
        }
    }

    /// The calibrated reference workload for this domain (reference ASIC
    /// implementation, design staffing, iso-performance FPGA derivation).
    pub fn calibration(self) -> DomainCalibration {
        // Reference ASIC accelerators are modeled as edge-class inference /
        // processing engines at the paper's 10 nm comparison node. Design
        // staffing values are the calibration knob that positions the
        // volume-crossover points (Fig. 6); see DESIGN.md.
        match self {
            Domain::Dnn => DomainCalibration {
                domain: self,
                node: TechnologyNode::N10,
                asic_area: Area::from_mm2(100.0),
                asic_power: Power::from_watts(0.5),
                asic_staffing: DesignStaffing::new(2200, 2.0),
                fpga_staffing: DesignStaffing::new(300, 2.0),
            },
            Domain::ImageProcessing => DomainCalibration {
                domain: self,
                node: TechnologyNode::N10,
                asic_area: Area::from_mm2(80.0),
                asic_power: Power::from_watts(0.4),
                asic_staffing: DesignStaffing::new(2200, 2.0),
                fpga_staffing: DesignStaffing::new(300, 2.0),
            },
            Domain::Crypto => DomainCalibration {
                domain: self,
                node: TechnologyNode::N10,
                asic_area: Area::from_mm2(30.0),
                asic_power: Power::from_watts(0.2),
                asic_staffing: DesignStaffing::new(200, 1.5),
                fpga_staffing: DesignStaffing::new(300, 2.0),
            },
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Domain::Dnn => "DNN",
            Domain::ImageProcessing => "ImgProc",
            Domain::Crypto => "Crypto",
        };
        f.write_str(name)
    }
}

/// Calibrated reference implementations for one domain: the ASIC the
/// comparison is anchored to and the iso-performance FPGA derived from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainCalibration {
    /// The domain this calibration belongs to.
    pub domain: Domain,
    /// Fabrication node of both implementations (the paper uses 10 nm).
    pub node: TechnologyNode,
    /// Die area of the reference ASIC implementation.
    pub asic_area: Area,
    /// Power of the reference ASIC implementation.
    pub asic_power: Power,
    /// Design staffing of one ASIC product in this domain.
    pub asic_staffing: DesignStaffing,
    /// Design staffing of the FPGA product used for this domain.
    pub fpga_staffing: DesignStaffing,
}

impl DomainCalibration {
    /// Logic size of the reference ASIC (and therefore of each application
    /// in a uniform workload) in equivalent gates.
    pub fn reference_asic_gates(&self) -> GateCount {
        GateCount::new(
            self.node
                .parameters()
                .gates_for_area(self.asic_area.as_mm2())
                .round() as u64,
        )
    }

    /// Builds the reference ASIC specification.
    ///
    /// # Errors
    ///
    /// Propagates [`GreenFpgaError::InvalidApplication`] if the calibrated
    /// values are degenerate (they are not, for the built-in calibrations).
    pub fn asic_spec(&self) -> Result<AsicSpec, GreenFpgaError> {
        let chip = ChipSpec::new(
            format!("{}-asic", self.domain),
            self.asic_area,
            self.asic_power,
            self.node,
        )?;
        Ok(AsicSpec::new(chip))
    }

    /// Builds the iso-performance FPGA specification by applying the Table 2
    /// area and power ratios to the reference ASIC.
    ///
    /// The FPGA's usable capacity is set to exactly the reference
    /// application size, so a uniform domain workload needs one FPGA per
    /// deployed unit (`N_FPGA = 1`), matching the paper's setup.
    ///
    /// # Errors
    ///
    /// Propagates [`GreenFpgaError::InvalidApplication`] if the calibrated
    /// values are degenerate.
    pub fn fpga_spec(&self) -> Result<FpgaSpec, GreenFpgaError> {
        let ratios = self.domain.iso_performance_ratios();
        let chip = ChipSpec::new(
            format!("{}-fpga", self.domain),
            self.asic_area * ratios.area,
            self.asic_power * ratios.power,
            self.node,
        )?;
        Ok(FpgaSpec::new(chip).with_capacity(self.reference_asic_gates()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_ratios_are_reproduced() {
        let dnn = Domain::Dnn.iso_performance_ratios();
        assert_eq!((dnn.area, dnn.power), (4.0, 3.0));
        let img = Domain::ImageProcessing.iso_performance_ratios();
        assert_eq!((img.area, img.power), (7.42, 1.25));
        let crypto = Domain::Crypto.iso_performance_ratios();
        assert_eq!((crypto.area, crypto.power), (1.0, 1.0));
    }

    #[test]
    fn fpga_spec_applies_ratios() {
        for domain in Domain::ALL {
            let cal = domain.calibration();
            let ratios = domain.iso_performance_ratios();
            let asic = cal.asic_spec().unwrap();
            let fpga = cal.fpga_spec().unwrap();
            let area_ratio = fpga.chip().area() / asic.chip().area();
            let power_ratio = fpga.chip().tdp() / asic.chip().tdp();
            assert!((area_ratio - ratios.area).abs() < 1e-9, "{domain}");
            assert!((power_ratio - ratios.power).abs() < 1e-9, "{domain}");
        }
    }

    #[test]
    fn crypto_fpga_matches_asic_exactly() {
        let cal = Domain::Crypto.calibration();
        let asic = cal.asic_spec().unwrap();
        let fpga = cal.fpga_spec().unwrap();
        assert_eq!(fpga.chip().area(), asic.chip().area());
        assert_eq!(fpga.chip().tdp(), asic.chip().tdp());
    }

    #[test]
    fn reference_application_fits_in_one_fpga() {
        for domain in Domain::ALL {
            let cal = domain.calibration();
            let fpga = cal.fpga_spec().unwrap();
            assert_eq!(
                fpga.fpgas_for_application(cal.reference_asic_gates()),
                1,
                "{domain}"
            );
        }
    }

    #[test]
    fn comparison_node_is_10nm() {
        for domain in Domain::ALL {
            assert_eq!(domain.calibration().node, TechnologyNode::N10, "{domain}");
        }
    }

    #[test]
    fn display_names_match_paper_labels() {
        assert_eq!(Domain::Dnn.to_string(), "DNN");
        assert_eq!(Domain::ImageProcessing.to_string(), "ImgProc");
        assert_eq!(Domain::Crypto.to_string(), "Crypto");
    }

    #[test]
    fn calibration_values_are_physical() {
        for domain in Domain::ALL {
            let cal = domain.calibration();
            assert!(cal.asic_area.as_mm2() > 0.0);
            assert!(cal.asic_power.as_watts() > 0.0);
            assert!(cal.asic_staffing.engineers > 0);
            assert!(cal.fpga_staffing.engineers > 0);
            assert!(cal.reference_asic_gates().get() > 0);
        }
    }
}
