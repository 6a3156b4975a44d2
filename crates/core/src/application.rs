//! Applications and workloads.

use gf_units::{ChipCount, GateCount, TimeSpan};

use crate::{Domain, GreenFpgaError};

/// One application deployed on the acceleration platform.
///
/// An application is characterised by its logic size (equivalent gates), its
/// lifetime in the field (`T_i`) and the number of devices it is deployed on
/// (`N_vol`). After its lifetime ends, an ASIC fleet built for it is retired,
/// while an FPGA fleet is reconfigured for the next application.
///
/// # Examples
///
/// ```
/// use greenfpga::Application;
/// use gf_units::{ChipCount, GateCount, TimeSpan};
///
/// let app = Application::new(
///     "recommendation-v2",
///     GateCount::from_millions(900.0),
///     TimeSpan::from_years(2.0),
///     ChipCount::from_millions(1.0),
/// )?;
/// assert_eq!(app.volume().get(), 1_000_000);
/// # Ok::<(), greenfpga::GreenFpgaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    name: String,
    gates: GateCount,
    lifetime: TimeSpan,
    volume: ChipCount,
}

impl Application {
    /// Creates an application.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidApplication`] when the lifetime is
    /// negative or not finite, or the volume is zero.
    pub fn new(
        name: impl Into<String>,
        gates: GateCount,
        lifetime: TimeSpan,
        volume: ChipCount,
    ) -> Result<Self, GreenFpgaError> {
        if lifetime.is_negative() || !lifetime.is_finite() {
            return Err(GreenFpgaError::InvalidApplication {
                field: "lifetime",
                reason: format!("lifetime must be non-negative and finite, got {lifetime}"),
            });
        }
        if volume.is_zero() {
            return Err(GreenFpgaError::InvalidApplication {
                field: "volume",
                reason: "application volume must be at least one device".to_string(),
            });
        }
        Ok(Application {
            name: name.into(),
            gates,
            lifetime,
            volume,
        })
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logic size in equivalent gates.
    pub fn gates(&self) -> GateCount {
        self.gates
    }

    /// Field lifetime `T_i`.
    pub fn lifetime(&self) -> TimeSpan {
        self.lifetime
    }

    /// Deployment volume `N_vol`.
    pub fn volume(&self) -> ChipCount {
        self.volume
    }

    /// Returns a copy with a different lifetime (used by sweeps).
    pub fn with_lifetime(mut self, lifetime: TimeSpan) -> Self {
        self.lifetime = lifetime;
        self
    }
}

/// A sequence of applications, all drawn from one application domain, that
/// an acceleration platform serves over its life.
///
/// The domain fixes the iso-performance area/power ratios between the FPGA
/// and the ASIC implementations (Table 2 of the paper) and the calibrated
/// reference ASIC the comparisons are anchored to.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    domain: Domain,
    applications: Vec<Application>,
}

impl Workload {
    /// Creates a workload from explicit applications.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::EmptyWorkload`] when `applications` is
    /// empty.
    pub fn new(domain: Domain, applications: Vec<Application>) -> Result<Self, GreenFpgaError> {
        if applications.is_empty() {
            return Err(GreenFpgaError::EmptyWorkload);
        }
        Ok(Workload {
            domain,
            applications,
        })
    }

    /// Creates the uniform workload used by the paper's experiments:
    /// `count` successive applications, each sized to the domain's reference
    /// accelerator, living `lifetime_years` years on `volume` devices.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidApplication`] when `count` or
    /// `volume` is zero or `lifetime_years` is negative.
    pub fn uniform(
        domain: Domain,
        count: u64,
        lifetime_years: f64,
        volume: u64,
    ) -> Result<Self, GreenFpgaError> {
        if count == 0 {
            return Err(GreenFpgaError::EmptyWorkload);
        }
        let calibration = domain.calibration();
        let gates = calibration.reference_asic_gates();
        let applications = (0..count)
            .map(|i| {
                Application::new(
                    format!("{domain}-app-{}", i + 1),
                    gates,
                    TimeSpan::from_years(lifetime_years),
                    ChipCount::new(volume),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Workload {
            domain,
            applications,
        })
    }

    /// The application domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The applications in deployment order.
    pub fn applications(&self) -> &[Application] {
        &self.applications
    }

    /// Number of applications (`N_app`).
    pub fn len(&self) -> usize {
        self.applications.len()
    }

    /// `true` when the workload has no applications. Guaranteed `false` for
    /// any successfully constructed workload.
    pub fn is_empty(&self) -> bool {
        self.applications.is_empty()
    }

    /// Iterates over the applications.
    pub fn iter(&self) -> std::slice::Iter<'_, Application> {
        self.applications.iter()
    }

    /// Returns a copy with every application's lifetime replaced.
    pub fn with_uniform_lifetime(&self, lifetime: TimeSpan) -> Workload {
        Workload {
            domain: self.domain,
            applications: self
                .applications
                .iter()
                .map(|a| a.clone().with_lifetime(lifetime))
                .collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Workload {
    type Item = &'a Application;
    type IntoIter = std::slice::Iter<'a, Application>;
    fn into_iter(self) -> Self::IntoIter {
        self.applications.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(lifetime: f64, volume: u64) -> Application {
        Application::new(
            "a",
            GateCount::from_millions(100.0),
            TimeSpan::from_years(lifetime),
            ChipCount::new(volume),
        )
        .unwrap()
    }

    #[test]
    fn application_validation() {
        assert!(Application::new(
            "bad",
            GateCount::ZERO,
            TimeSpan::from_years(-1.0),
            ChipCount::new(1)
        )
        .is_err());
        assert!(Application::new(
            "bad",
            GateCount::ZERO,
            TimeSpan::from_years(1.0),
            ChipCount::ZERO
        )
        .is_err());
        let ok = app(2.0, 10);
        assert_eq!(ok.name(), "a");
        assert_eq!(ok.volume().get(), 10);
        assert!((ok.lifetime().as_years() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_workload_matches_paper_setup() {
        let w = Workload::uniform(Domain::Dnn, 5, 2.0, 1_000_000).unwrap();
        assert_eq!(w.len(), 5);
        assert_eq!(w.domain(), Domain::Dnn);
        for a in &w {
            assert_eq!(a.gates(), Domain::Dnn.calibration().reference_asic_gates());
        }
    }

    #[test]
    fn empty_workloads_are_rejected() {
        assert!(matches!(
            Workload::uniform(Domain::Crypto, 0, 2.0, 100),
            Err(GreenFpgaError::EmptyWorkload)
        ));
        assert!(matches!(
            Workload::new(Domain::Crypto, Vec::new()),
            Err(GreenFpgaError::EmptyWorkload)
        ));
    }

    #[test]
    fn uniform_rejects_invalid_parameters() {
        assert!(Workload::uniform(Domain::Dnn, 3, -1.0, 100).is_err());
        assert!(Workload::uniform(Domain::Dnn, 3, 1.0, 0).is_err());
    }

    #[test]
    fn with_uniform_lifetime_and_volume_rewrite_all_apps() {
        let w = Workload::uniform(Domain::ImageProcessing, 4, 2.0, 1000).unwrap();
        let w2 = w.with_uniform_lifetime(TimeSpan::from_years(0.5));
        assert!(w2
            .iter()
            .all(|a| (a.lifetime().as_years() - 0.5).abs() < 1e-12));
        // Original untouched.
        assert!(w.iter().all(|a| a.volume().get() == 1000));
    }

    #[test]
    fn custom_workload_preserves_order() {
        let apps = vec![app(1.0, 10), app(2.0, 20), app(3.0, 30)];
        let w = Workload::new(Domain::Crypto, apps).unwrap();
        let lifetimes: Vec<f64> = w.iter().map(|a| a.lifetime().as_years()).collect();
        assert_eq!(lifetimes, vec![1.0, 2.0, 3.0]);
        assert!(!w.is_empty());
    }
}
