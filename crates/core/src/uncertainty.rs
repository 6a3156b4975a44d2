//! Monte-Carlo uncertainty analysis over the Table 1 parameter ranges.
//!
//! The paper's validation section stresses that GreenFPGA's outputs are only
//! as good as its inputs, many of which are proprietary and therefore only
//! known as ranges. This module samples every [`Knob`] uniformly from its
//! range and reports the resulting distribution of the FPGA:ASIC ratio, so
//! a conclusion like "the FPGA is greener" can be qualified with how robust
//! it is to the input uncertainty.

use gf_support::SplitMix64;

use crate::{
    exec, Domain, EstimatorParams, GreenFpgaError, Knob, OperatingPoint, PlatformKind,
    ScenarioTemplate,
};

/// Configuration of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarlo {
    /// Number of parameter samples to draw.
    pub samples: usize,
    /// RNG seed; fixed so studies are reproducible.
    pub seed: u64,
    /// Worker threads (`0` = auto). The result is identical for every
    /// setting: each trial draws from its own RNG stream seeded by
    /// `seed + trial_index`, so the outcome cannot depend on which thread
    /// evaluates it.
    pub threads: usize,
}

impl MonteCarlo {
    /// A 1000-sample study with a fixed seed.
    pub fn new(samples: usize) -> Self {
        MonteCarlo {
            samples,
            seed: 0x9E37_79B9_7F4A_7C15,
            threads: 0,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the worker-thread count (`0` = auto). Only affects
    /// resource usage, never the result.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the study for a uniform workload in the given domain, sampling
    /// every knob of [`Knob::ALL`] independently and uniformly from its
    /// range for each trial.
    ///
    /// Trials run in parallel through the batch engine. Each trial clones
    /// the base parameters **once**, retunes every knob in place
    /// ([`Knob::apply_mut`]), compiles the scenario
    /// ([`crate::CompiledScenario::compile`]) and evaluates the operating point —
    /// where the old implementation cloned the parameter set once per knob
    /// and rebuilt every spec and workload vector from scratch, serially.
    /// The per-trial ratios are written straight into one preallocated
    /// buffer ([`exec::try_fill_indexed`]); nothing is buffered per worker
    /// or reassembled afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] when `samples` is zero, and
    /// propagates model errors.
    pub fn run(
        &self,
        base: &EstimatorParams,
        domain: Domain,
        point: OperatingPoint,
    ) -> Result<UncertaintyReport, GreenFpgaError> {
        if self.samples == 0 {
            return Err(GreenFpgaError::InvalidRange {
                what: "monte carlo sample count",
            });
        }
        let seed = self.seed;
        let template = ScenarioTemplate::new(domain)?;
        let mut ratios = vec![0.0f64; self.samples];
        exec::try_fill_indexed(&mut ratios, self.threads, |trial| {
            let mut rng = SplitMix64::new(seed.wrapping_add(trial as u64));
            let mut params = base.clone();
            for knob in Knob::ALL {
                let range = knob.range();
                knob.apply_mut(&mut params, rng.gen_range_f64(range.low, range.high));
            }
            template.compile(&params)?.ratio(point)
        })?;
        ratios.sort_by(f64::total_cmp);
        Ok(UncertaintyReport {
            domain,
            point,
            ratios,
        })
    }
}

impl Default for MonteCarlo {
    fn default() -> Self {
        MonteCarlo::new(1000)
    }
}

/// The distribution of FPGA:ASIC ratios produced by a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertaintyReport {
    /// Domain the study was run in.
    pub domain: Domain,
    /// The (fixed) workload operating point.
    pub point: OperatingPoint,
    /// FPGA:ASIC total-CFP ratios, sorted ascending.
    pub ratios: Vec<f64>,
}

impl UncertaintyReport {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ratios.len()
    }

    /// `true` when the report holds no samples (never the case for a report
    /// produced by [`MonteCarlo::run`]).
    pub fn is_empty(&self) -> bool {
        self.ratios.is_empty()
    }

    /// Mean FPGA:ASIC ratio.
    pub fn mean(&self) -> f64 {
        if self.ratios.is_empty() {
            return f64::NAN;
        }
        self.ratios.iter().sum::<f64>() / self.ratios.len() as f64
    }

    /// Quantile of the ratio distribution; `q` in `[0, 1]` (nearest-rank).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.ratios.is_empty() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let index = ((self.ratios.len() - 1) as f64 * q).round() as usize;
        self.ratios[index]
    }

    /// Median ratio.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Fraction of trials in which the FPGA had the lower total CFP.
    pub fn fpga_win_probability(&self) -> f64 {
        if self.ratios.is_empty() {
            return 0.0;
        }
        self.ratios.iter().filter(|&&r| r < 1.0).count() as f64 / self.ratios.len() as f64
    }

    /// The platform that wins in the majority of trials.
    pub fn majority_winner(&self) -> PlatformKind {
        if self.fpga_win_probability() > 0.5 {
            PlatformKind::Fpga
        } else {
            PlatformKind::Asic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(domain: Domain, point: OperatingPoint, samples: usize) -> UncertaintyReport {
        MonteCarlo::new(samples)
            .run(&EstimatorParams::paper_defaults(), domain, point)
            .unwrap()
    }

    #[test]
    fn report_is_sorted_and_sized() {
        let report = run(Domain::Dnn, OperatingPoint::paper_default(), 64);
        assert_eq!(report.len(), 64);
        assert!(!report.is_empty());
        assert!(report.ratios.windows(2).all(|w| w[0] <= w[1]));
        assert!(report.quantile(0.0) <= report.median());
        assert!(report.median() <= report.quantile(1.0));
        assert!(report.mean() > 0.0);
    }

    #[test]
    fn fixed_seed_is_reproducible() {
        let a = run(Domain::Dnn, OperatingPoint::paper_default(), 32);
        let b = run(Domain::Dnn, OperatingPoint::paper_default(), 32);
        assert_eq!(a, b);
        let c = MonteCarlo::new(32)
            .with_seed(7)
            .run(
                &EstimatorParams::paper_defaults(),
                Domain::Dnn,
                OperatingPoint::paper_default(),
            )
            .unwrap();
        assert_ne!(a.ratios, c.ratios);
    }

    #[test]
    fn parallel_runs_are_thread_count_independent() {
        let base = EstimatorParams::paper_defaults();
        let point = OperatingPoint::paper_default();
        let serial = MonteCarlo::new(48)
            .with_threads(1)
            .run(&base, Domain::Dnn, point)
            .unwrap();
        for threads in [2, 5, 16] {
            let parallel = MonteCarlo::new(48)
                .with_threads(threads)
                .run(&base, Domain::Dnn, point)
                .unwrap();
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }

    #[test]
    fn crypto_reuse_is_robust_to_input_uncertainty() {
        // Eight crypto applications: the FPGA should win in the vast
        // majority of sampled worlds.
        let point = OperatingPoint {
            applications: 8,
            lifetime_years: 1.0,
            volume: 500_000,
        };
        let report = run(Domain::Crypto, point, 128);
        assert!(report.fpga_win_probability() > 0.9);
        assert_eq!(report.majority_winner(), PlatformKind::Fpga);
    }

    #[test]
    fn single_application_imgproc_is_robustly_asic() {
        let point = OperatingPoint {
            applications: 1,
            lifetime_years: 2.0,
            volume: 1_000_000,
        };
        let report = run(Domain::ImageProcessing, point, 128);
        assert!(report.fpga_win_probability() < 0.1);
        assert_eq!(report.majority_winner(), PlatformKind::Asic);
    }

    #[test]
    fn zero_samples_is_an_error() {
        assert!(matches!(
            MonteCarlo::new(0).run(
                &EstimatorParams::paper_defaults(),
                Domain::Dnn,
                OperatingPoint::paper_default()
            ),
            Err(GreenFpgaError::InvalidRange { .. })
        ));
    }

    #[test]
    fn empty_report_edge_cases() {
        let report = UncertaintyReport {
            domain: Domain::Dnn,
            point: OperatingPoint::paper_default(),
            ratios: Vec::new(),
        };
        assert!(report.is_empty());
        assert!(report.mean().is_nan());
        assert!(report.quantile(0.5).is_nan());
        assert_eq!(report.fpga_win_probability(), 0.0);
        assert_eq!(report.majority_winner(), PlatformKind::Asic);
    }
}
