//! One-at-a-time (tornado) sensitivity analysis.
//!
//! For each [`Knob`], hold everything else at the baseline, evaluate the
//! FPGA:ASIC ratio at the knob's low and high ends, and rank the knobs by
//! how much they swing the outcome. This answers the practical question the
//! paper's validation discussion raises: *which* of the uncertain inputs
//! actually matter for the FPGA-vs-ASIC verdict.

use crate::{exec, Domain, Estimator, GreenFpgaError, Knob, OperatingPoint, ScenarioTemplate};

/// Sensitivity of the FPGA:ASIC ratio to one knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityEntry {
    /// The knob varied.
    pub knob: Knob,
    /// Ratio with the knob at the low end of its range.
    pub ratio_at_low: f64,
    /// Ratio with the knob at the high end of its range.
    pub ratio_at_high: f64,
    /// Ratio with every knob at the baseline.
    pub ratio_at_baseline: f64,
}

impl SensitivityEntry {
    /// Absolute swing of the ratio across the knob's range.
    pub fn swing(&self) -> f64 {
        (self.ratio_at_high - self.ratio_at_low).abs()
    }

    /// `true` when moving this knob across its range flips which platform
    /// has the lower footprint.
    pub fn flips_winner(&self) -> bool {
        (self.ratio_at_low < 1.0) != (self.ratio_at_high < 1.0)
    }
}

/// The result of a tornado analysis: one entry per knob, sorted by swing
/// (largest first).
#[derive(Debug, Clone, PartialEq)]
pub struct TornadoAnalysis {
    /// Domain analysed.
    pub domain: Domain,
    /// Workload operating point held fixed.
    pub point: OperatingPoint,
    /// Entries sorted by descending swing.
    pub entries: Vec<SensitivityEntry>,
}

impl TornadoAnalysis {
    /// Knobs whose range is wide enough to flip the greener platform.
    pub fn decision_critical_knobs(&self) -> Vec<Knob> {
        self.entries
            .iter()
            .filter(|e| e.flips_winner())
            .map(|e| e.knob)
            .collect()
    }
}

impl Estimator {
    /// Runs a one-at-a-time sensitivity analysis around this estimator's
    /// parameters for a uniform workload.
    ///
    /// The baseline and the two endpoints of every knob are evaluated
    /// through the batch engine — each probe retunes one knob in place,
    /// compiles the scenario once and evaluates the point — with the
    /// `2 × knobs` probes fanned out over `threads` workers (0 = automatic,
    /// see [`exec::try_fill_indexed`]). The result is the same for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Propagates model errors from the underlying evaluations.
    pub fn tornado_analysis(
        &self,
        domain: Domain,
        point: OperatingPoint,
        threads: usize,
    ) -> Result<TornadoAnalysis, GreenFpgaError> {
        let template = ScenarioTemplate::new(domain)?;
        let binding = template.bind(self.params())?;
        let baseline_ratio = binding.compile(self.params()).ratio(point)?;

        let probes: Vec<(Knob, f64)> = Knob::ALL
            .iter()
            .flat_map(|&knob| {
                let range = knob.range();
                [(knob, range.low), (knob, range.high)]
            })
            .collect();
        let mut ratios = vec![0.0f64; probes.len()];
        exec::try_fill_indexed(&mut ratios, threads, |i| {
            let (knob, value) = probes[i];
            let mut params = self.params().clone();
            knob.apply_mut(&mut params, value);
            binding.compile(&params).ratio(point)
        })?;

        let mut entries: Vec<SensitivityEntry> = Knob::ALL
            .iter()
            .zip(ratios.chunks_exact(2))
            .map(|(&knob, pair)| SensitivityEntry {
                knob,
                ratio_at_low: pair[0],
                ratio_at_high: pair[1],
                ratio_at_baseline: baseline_ratio,
            })
            .collect();
        entries.sort_by(|a, b| b.swing().total_cmp(&a.swing()));
        Ok(TornadoAnalysis {
            domain,
            point,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis(domain: Domain) -> TornadoAnalysis {
        Estimator::default()
            .tornado_analysis(domain, OperatingPoint::paper_default(), 0)
            .unwrap()
    }

    #[test]
    fn covers_every_knob_and_sorts_by_swing() {
        let t = analysis(Domain::Dnn);
        assert_eq!(t.entries.len(), Knob::ALL.len());
        for pair in t.entries.windows(2) {
            assert!(pair[0].swing() >= pair[1].swing());
        }
    }

    #[test]
    fn operational_knobs_dominate_the_dnn_tradeoff() {
        // The FPGA's 3x power penalty makes the deployment assumptions (duty
        // cycle, usage grid) the highest-leverage knobs for DNN.
        let t = analysis(Domain::Dnn);
        let top_two: Vec<Knob> = t.entries.iter().take(2).map(|e| e.knob).collect();
        assert!(
            top_two.contains(&Knob::DutyCycle) || top_two.contains(&Knob::UsageGridIntensity),
            "top knobs were {top_two:?}"
        );
    }

    #[test]
    fn dnn_verdict_is_sensitive_but_crypto_is_not() {
        // At the paper's operating point the DNN verdict sits near the
        // crossover, so at least one knob can flip it; the Crypto verdict
        // (FPGA wins outright) cannot be flipped by any single knob.
        let dnn = analysis(Domain::Dnn);
        assert!(!dnn.decision_critical_knobs().is_empty());
        let crypto = analysis(Domain::Crypto);
        assert!(crypto.decision_critical_knobs().is_empty());
        assert!(crypto
            .entries
            .iter()
            .all(|e| e.ratio_at_low < 1.0 && e.ratio_at_high < 1.0));
    }

    #[test]
    fn design_only_knobs_do_not_flip_the_crypto_verdict() {
        let crypto = analysis(Domain::Crypto);
        let design_entry = crypto
            .entries
            .iter()
            .find(|e| e.knob == Knob::DesignGridIntensity)
            .expect("design grid knob present");
        assert!(!design_entry.flips_winner());
    }

    #[test]
    fn baseline_ratio_is_shared_across_entries() {
        let t = analysis(Domain::ImageProcessing);
        let baseline = t.entries[0].ratio_at_baseline;
        assert!(t
            .entries
            .iter()
            .all(|e| (e.ratio_at_baseline - baseline).abs() < 1e-12));
    }
}
