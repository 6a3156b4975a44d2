//! Crossover-frontier winner maps for 2-D lattices.
//!
//! A dense [`crate::GridSweep`] heatmap evaluates every cell of an `n × n`
//! lattice even though the only structure in the answer is the crossover
//! frontier — the contour where the greener platform flips. Both totals
//! are affine along every lattice line (see [`crate::AffineTotal`]), so
//! their difference is too, and the winner along a row flips **at most
//! once** when the row's coordinates are monotone.
//!
//! [`CompiledScenario::frontier`] uses this row by row: evaluate both ends,
//! fill the row when they agree, otherwise bisect the column indices for
//! the single flip and fill each side — O(log n) evaluations per row
//! instead of O(n). Only the column order matters; a row whose x
//! coordinates are not monotone is evaluated cell by cell. Rows fan out
//! over [`crate::exec`], and the result is the dense winner mask the CLI
//! renders, cell for cell the full grid's.

use crate::eval::LineMemo;
use crate::{exec, CompiledScenario, Domain, GreenFpgaError, OperatingPoint, SweepAxis};

/// The winner map of a 2-D operating-point lattice.
///
/// Holds the same dense lattice coordinates as a [`crate::GridSweep`], the
/// full winner mask (every cell classified) and the evaluation count — the
/// measure of the saving over dense evaluation. It is the `frontier` query's
/// outcome and encodes as the `POST /v1/frontier` body.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierResult {
    /// Domain the frontier was traced in.
    pub domain: Domain,
    /// Axis swept along the columns.
    pub x_axis: SweepAxis,
    /// Column coordinate values.
    pub x_values: Vec<f64>,
    /// Axis swept along the rows.
    pub y_axis: SweepAxis,
    /// Row coordinate values.
    pub y_values: Vec<f64>,
    /// Row-major winner mask: `winners[row * width + col]` is `true` where
    /// the FPGA has the lower total (ratio < 1).
    winners: Vec<bool>,
    /// Number of model evaluations performed.
    evaluated: usize,
}

impl FrontierResult {
    /// Number of lattice columns.
    pub fn width(&self) -> usize {
        self.x_values.len()
    }

    /// Number of lattice rows.
    pub fn height(&self) -> usize {
        self.y_values.len()
    }

    /// Number of lattice cells.
    pub fn len(&self) -> usize {
        self.winners.len()
    }

    /// `true` when the lattice has no cells.
    pub fn is_empty(&self) -> bool {
        self.winners.is_empty()
    }

    /// `true` where the FPGA has the lower total at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    pub fn fpga_wins(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.height() && col < self.width(),
            "cell out of range"
        );
        self.winners[row * self.width() + col]
    }

    /// Rasterizes the map to the dense row-major winner mask a full
    /// [`crate::GridSweep`] of the same lattice would produce
    /// (`mask[row][col]` = FPGA wins).
    pub fn winner_mask(&self) -> Vec<Vec<bool>> {
        self.winners
            .chunks(self.width().max(1))
            .map(<[bool]>::to_vec)
            .collect()
    }

    /// Number of model evaluations performed.
    pub fn evaluations(&self) -> usize {
        self.evaluated
    }

    /// Evaluations as a fraction of the dense grid's cell count.
    pub fn evaluated_fraction(&self) -> f64 {
        if self.winners.is_empty() {
            return 0.0;
        }
        self.evaluated as f64 / self.winners.len() as f64
    }

    /// Fraction of lattice cells where the FPGA has the lower footprint.
    pub fn fpga_winning_fraction(&self) -> f64 {
        if self.winners.is_empty() {
            return 0.0;
        }
        let wins = self.winners.iter().filter(|&&w| w).count();
        wins as f64 / self.winners.len() as f64
    }
}

impl CompiledScenario {
    /// Traces the crossover frontier of a 2-D operating-point lattice,
    /// classifying **every** lattice cell while evaluating only each row's
    /// ends and the bisection steps to its flip.
    ///
    /// The winner mask is identical to what a dense
    /// [`CompiledScenario::ratio_grid`] over the same `x_values` /
    /// `y_values` would report cell for cell (evaluated cells run the same
    /// compiled kernel; inferred cells follow from the affine structure of
    /// the model — see the module docs). Rows fan out through
    /// [`crate::exec`]; `threads` follows the batch kernel's convention
    /// (`0` = auto) and the result is bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] when either value list is
    /// empty and propagates the model error of the lowest failing row.
    pub fn frontier(
        &self,
        x_axis: SweepAxis,
        x_values: &[f64],
        y_axis: SweepAxis,
        y_values: &[f64],
        base: OperatingPoint,
        threads: usize,
    ) -> Result<FrontierResult, GreenFpgaError> {
        crate::sweep::check_axis_values(x_values, "frontier values")?;
        crate::sweep::check_axis_values(y_values, "frontier values")?;
        let width = x_values.len();
        let bisect = is_monotone(x_values);
        // One `(winners, evaluations)` slot per row, filled in place.
        let mut rows = vec![(Vec::new(), 0); y_values.len()];
        exec::try_fill_indexed(&mut rows, threads, |row| -> Result<_, GreenFpgaError> {
            let row_base = base.with_axis(y_axis, y_values[row]);
            let mut evaluated = 0;
            let mut lines = LineMemo::new();
            let mut wins = |col: usize| -> Result<bool, GreenFpgaError> {
                evaluated += 1;
                let ratio = self
                    .evaluate_with(row_base.with_axis(x_axis, x_values[col]), &mut lines)?
                    .fpga_to_asic_ratio();
                Ok(ratio < 1.0)
            };
            let mut winners = Vec::with_capacity(width);
            if !bisect {
                for col in 0..width {
                    winners.push(wins(col)?);
                }
                return Ok((winners, evaluated));
            }
            // Cells up to `lo` share the left end's winner, cells from `hi`
            // on the right end's; the single flip lies between them.
            let (mut lo, mut hi) = (0, width - 1);
            let left = wins(lo)?;
            let right = if hi == lo { left } else { wins(hi)? };
            if left == right {
                lo = hi;
            }
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if wins(mid)? == left {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            winners.resize(lo + 1, left);
            winners.resize(width, right);
            Ok((winners, evaluated))
        })?;
        Ok(FrontierResult {
            domain: self.domain(),
            x_axis,
            x_values: x_values.to_vec(),
            y_axis,
            y_values: y_values.to_vec(),
            evaluated: rows.iter().map(|(_, evaluated)| evaluated).sum(),
            winners: rows.into_iter().flat_map(|(winners, _)| winners).collect(),
        })
    }
}

/// `true` when the values are entirely non-decreasing or entirely
/// non-increasing (duplicates allowed).
fn is_monotone(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[0] <= w[1]) || values.windows(2).all(|w| w[0] >= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator() -> crate::Estimator {
        crate::Estimator::default()
    }

    fn lattice(n: usize) -> (Vec<f64>, Vec<f64>) {
        (
            axis_values(SweepAxis::Applications, n),
            axis_values(SweepAxis::LifetimeYears, n),
        )
    }

    fn dnn_frontier(n: usize) -> FrontierResult {
        let (apps, lifetimes) = lattice(n);
        estimator()
            .compile(Domain::Dnn)
            .unwrap()
            .frontier(
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap()
    }

    /// `n` ascending coordinates on `axis`.
    fn axis_values(axis: SweepAxis, n: usize) -> Vec<f64> {
        (1..=n)
            .map(|i| match axis {
                SweepAxis::Applications => i as f64,
                SweepAxis::LifetimeYears => 0.05 * i as f64,
                SweepAxis::VolumeUnits => 20_000.0 * i as f64,
            })
            .collect()
    }

    fn assert_matches_dense(
        compiled: &CompiledScenario,
        (x_axis, x_values): (SweepAxis, &[f64]),
        (y_axis, y_values): (SweepAxis, &[f64]),
    ) -> FrontierResult {
        let base = OperatingPoint::paper_default();
        let domain = compiled.domain();
        let frontier = compiled
            .frontier(x_axis, x_values, y_axis, y_values, base, 0)
            .unwrap();
        let dense = compiled
            .ratio_grid(x_axis, x_values, y_axis, y_values, base, 0)
            .unwrap();
        for (row, dense_row) in dense.ratios.iter().enumerate() {
            for (col, &ratio) in dense_row.iter().enumerate() {
                assert_eq!(
                    frontier.fpga_wins(row, col),
                    ratio < 1.0,
                    "{domain} {x_axis:?} x {y_axis:?} cell ({row},{col})"
                );
            }
        }
        frontier
    }

    #[test]
    fn frontier_mask_matches_dense_grid_exactly() {
        let est = estimator();
        let axes = [
            SweepAxis::Applications,
            SweepAxis::LifetimeYears,
            SweepAxis::VolumeUnits,
        ];
        for domain in Domain::ALL {
            let compiled = est.compile(domain).unwrap();
            for x_axis in axes {
                for y_axis in axes.into_iter().filter(|&y| y != x_axis) {
                    let ascending = axis_values(x_axis, 17);
                    let descending: Vec<f64> = ascending.iter().rev().copied().collect();
                    let y_values = axis_values(y_axis, 17);
                    for x_values in [&ascending, &descending] {
                        assert_matches_dense(&compiled, (x_axis, x_values), (y_axis, &y_values));
                    }
                }
            }
        }
        // Row order is irrelevant to the per-row bisection: a shuffled y
        // axis still skips cells.
        let apps = axis_values(SweepAxis::Applications, 17);
        let lifetimes = axis_values(SweepAxis::LifetimeYears, 17);
        let shuffled: Vec<f64> = (0..17).map(|i| lifetimes[i * 7 % 17]).collect();
        let frontier = assert_matches_dense(
            &est.compile(Domain::Dnn).unwrap(),
            (SweepAxis::Applications, &apps),
            (SweepAxis::LifetimeYears, &shuffled),
        );
        assert!(frontier.evaluations() < frontier.len());
    }

    #[test]
    fn refinement_beats_dense_evaluation() {
        let frontier = dnn_frontier(64);
        assert_eq!(frontier.len(), 64 * 64);
        // Acceptance bar: at most 20% of the dense grid's evaluations.
        assert!(
            frontier.evaluated_fraction() <= 0.20,
            "evaluated {} of {} cells ({:.1}%)",
            frontier.evaluations(),
            frontier.len(),
            frontier.evaluated_fraction() * 100.0
        );
        // The DNN frontier cuts this lattice, so both platforms win
        // somewhere.
        let f = frontier.fpga_winning_fraction();
        assert!(f > 0.0 && f < 1.0, "winning fraction {f}");
    }

    #[test]
    fn frontier_is_deterministic() {
        let a = dnn_frontier(33);
        let b = dnn_frontier(33);
        assert_eq!(a, b);
        let (apps, lifetimes) = lattice(33);
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        // Uneven chunks (3 threads over 33 rows) and more threads than rows.
        for threads in [1, 2, 3, 8, 64] {
            let threaded = compiled
                .frontier(
                    SweepAxis::Applications,
                    &apps,
                    SweepAxis::LifetimeYears,
                    &lifetimes,
                    OperatingPoint::paper_default(),
                    threads,
                )
                .unwrap();
            assert_eq!(threaded, a, "threads {threads}");
        }
    }

    #[test]
    fn degenerate_lattices_are_classified() {
        let est = estimator();
        // A single row is one bisection.
        let apps: Vec<f64> = (1..=16).map(|i| i as f64).collect();
        let row = est
            .compile(Domain::Dnn)
            .unwrap()
            .frontier(
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &[2.0],
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert_eq!(row.len(), 16);
        let dense = est
            .compile(Domain::Dnn)
            .unwrap()
            .ratio_grid(
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &[2.0],
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        for (col, &ratio) in dense.ratios[0].iter().enumerate() {
            assert_eq!(row.fpga_wins(0, col), ratio < 1.0, "col {col}");
        }
        // A 1×1 lattice is a single evaluated cell.
        let single = est
            .compile(Domain::Crypto)
            .unwrap()
            .frontier(
                SweepAxis::Applications,
                &[4.0],
                SweepAxis::LifetimeYears,
                &[1.0],
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single.evaluations(), 1);
        assert!(single.fpga_wins(0, 0), "crypto FPGA wins at 4 apps");
    }

    #[test]
    fn shuffled_axes_fall_back_to_the_exact_dense_mask() {
        // Unsorted x coordinates break the single-flip inference along a
        // row; every cell of such a row must be evaluated instead of
        // returning a wrong mask.
        let est = estimator();
        let apps = [1.0, 12.0, 2.0, 9.0, 4.0];
        let lifetimes = [0.5, 2.5, 1.0];
        let frontier = est
            .compile(Domain::Dnn)
            .unwrap()
            .frontier(
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert_eq!(frontier.evaluations(), apps.len() * lifetimes.len());
        let dense = est
            .compile(Domain::Dnn)
            .unwrap()
            .ratio_grid(
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        for (row, dense_row) in dense.ratios.iter().enumerate() {
            for (col, &ratio) in dense_row.iter().enumerate() {
                assert_eq!(frontier.fpga_wins(row, col), ratio < 1.0, "({row},{col})");
            }
        }
        // Descending (still monotone) x keeps the bisection.
        let descending: Vec<f64> = (1..=16).rev().map(|i| i as f64).collect();
        let lifetimes: Vec<f64> = (1..=16).map(|i| 0.2 * i as f64).collect();
        let adaptive = est
            .compile(Domain::Dnn)
            .unwrap()
            .frontier(
                SweepAxis::Applications,
                &descending,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert!(adaptive.evaluations() < adaptive.len());
        let dense = est
            .compile(Domain::Dnn)
            .unwrap()
            .ratio_grid(
                SweepAxis::Applications,
                &descending,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        for (row, dense_row) in dense.ratios.iter().enumerate() {
            for (col, &ratio) in dense_row.iter().enumerate() {
                assert_eq!(adaptive.fpga_wins(row, col), ratio < 1.0, "({row},{col})");
            }
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        assert!(matches!(
            estimator().compile(Domain::Dnn).unwrap().frontier(
                SweepAxis::Applications,
                &[],
                SweepAxis::LifetimeYears,
                &[1.0],
                OperatingPoint::paper_default(),
                0,
            ),
            Err(GreenFpgaError::InvalidRange { .. })
        ));
    }

    #[test]
    fn uniform_rows_need_only_their_ends() {
        // Crypto at ≥2 applications: the FPGA wins everywhere, so each
        // row's two ends settle the whole row.
        let apps: Vec<f64> = (2..=33).map(|i| i as f64).collect();
        let lifetimes: Vec<f64> = (1..=32).map(|i| 0.1 * i as f64).collect();
        let frontier = estimator()
            .compile(Domain::Crypto)
            .unwrap()
            .frontier(
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert_eq!(frontier.evaluations(), 2 * frontier.height());
        assert!((frontier.fpga_winning_fraction() - 1.0).abs() < 1e-12);
    }
}
