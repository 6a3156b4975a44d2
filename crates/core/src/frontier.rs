//! Adaptive crossover-frontier refinement for 2-D winner maps.
//!
//! A dense [`crate::GridSweep`] heatmap evaluates every cell of an `n × n`
//! lattice even though the only structure in the answer is the crossover
//! frontier — the contour where the greener platform flips. Because both
//! totals are affine along every lattice line (see [`crate::AffineTotal`]),
//! the winner along any axis-parallel segment flips **at most once**, and a
//! rectangular block whose four corners agree is therefore uniform
//! throughout: if an interior cell disagreed, some row or column of the
//! block would have to flip twice.
//!
//! [`Estimator::frontier`] exploits this with a quadtree: evaluate a
//! block's corners, fill it wholesale when they agree, subdivide it when
//! they straddle the frontier. Only blocks cut by the contour are refined,
//! so the work scales with the frontier's length — O(n) cells with
//! logarithmic refinement overhead — instead of the dense grid's O(n²).
//! Each refinement wave fans its corner evaluations out over
//! [`crate::exec`], and the result rasterizes back to the dense winner mask
//! the CLI renders, bit-consistent with the full grid's.

use crate::{
    exec, CompiledScenario, Domain, Estimator, GreenFpgaError, OperatingPoint, PlatformKind,
    SweepAxis,
};

/// A rectangular block of lattice indices, inclusive on all sides.
#[derive(Debug, Clone, Copy)]
struct Block {
    x0: usize,
    x1: usize,
    y0: usize,
    y1: usize,
}

impl Block {
    fn corners(&self) -> [(usize, usize); 4] {
        [
            (self.x0, self.y0),
            (self.x1, self.y0),
            (self.x0, self.y1),
            (self.x1, self.y1),
        ]
    }
}

/// The adaptively refined winner map of a 2-D operating-point lattice.
///
/// Holds the same dense lattice coordinates as a [`crate::GridSweep`], the
/// full winner mask (every cell classified), the FPGA:ASIC ratio of every
/// cell the refiner actually evaluated, and the evaluation count — the
/// measure of the adaptive win over dense evaluation.
#[derive(Debug, Clone)]
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
    /// Row-major evaluated ratios; `NaN` where the refiner inferred the
    /// winner without evaluating the cell.
    ratios: Vec<f64>,
    /// Number of model evaluations performed.
    evaluated: usize,
}

impl PartialEq for FrontierResult {
    /// Bitwise equality: the `NaN` markers of unevaluated cells compare
    /// equal (a derived `PartialEq` would make every refined result unequal
    /// to itself).
    fn eq(&self, other: &Self) -> bool {
        self.domain == other.domain
            && self.x_axis == other.x_axis
            && self.x_values == other.x_values
            && self.y_axis == other.y_axis
            && self.y_values == other.y_values
            && self.winners == other.winners
            && self.evaluated == other.evaluated
            && self.ratios.len() == other.ratios.len()
            && self
                .ratios
                .iter()
                .zip(&other.ratios)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
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

    /// The winning platform at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    pub fn winner(&self, row: usize, col: usize) -> PlatformKind {
        if self.fpga_wins(row, col) {
            PlatformKind::Fpga
        } else {
            PlatformKind::Asic
        }
    }

    /// The evaluated FPGA:ASIC ratio at `(row, col)`, or `None` where the
    /// refiner inferred the winner without evaluating the cell.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    pub fn ratio_at(&self, row: usize, col: usize) -> Option<f64> {
        assert!(
            row < self.height() && col < self.width(),
            "cell out of range"
        );
        let ratio = self.ratios[row * self.width() + col];
        if ratio.is_nan() {
            None
        } else {
            Some(ratio)
        }
    }

    /// Rasterizes the refined map to the dense row-major winner mask a full
    /// [`crate::GridSweep`] of the same lattice would produce
    /// (`mask[row][col]` = FPGA wins).
    pub fn winner_mask(&self) -> Vec<Vec<bool>> {
        self.winners
            .chunks(self.width().max(1))
            .map(<[bool]>::to_vec)
            .collect()
    }

    /// Number of model evaluations the refinement performed.
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

    /// Cells lying on the crossover frontier: FPGA-winning cells with at
    /// least one 4-neighbour the ASIC wins (and vice versa), in row-major
    /// order.
    pub fn frontier_cells(&self) -> Vec<(usize, usize)> {
        let (width, height) = (self.width(), self.height());
        let mut cells = Vec::new();
        for row in 0..height {
            for col in 0..width {
                let here = self.winners[row * width + col];
                let mut neighbours = [None; 4];
                if row > 0 {
                    neighbours[0] = Some((row - 1, col));
                }
                if row + 1 < height {
                    neighbours[1] = Some((row + 1, col));
                }
                if col > 0 {
                    neighbours[2] = Some((row, col - 1));
                }
                if col + 1 < width {
                    neighbours[3] = Some((row, col + 1));
                }
                let straddles = neighbours
                    .into_iter()
                    .flatten()
                    .any(|(r, c)| self.winners[r * width + c] != here);
                if straddles {
                    cells.push((row, col));
                }
            }
        }
        cells
    }
}

impl Estimator {
    /// Traces the crossover frontier of a 2-D operating-point lattice by
    /// adaptive quadtree refinement, classifying **every** lattice cell
    /// while evaluating only blocks the frontier cuts.
    ///
    /// The winner mask is identical to what a dense
    /// [`Estimator::ratio_grid`] over the same `x_values` / `y_values`
    /// would report cell for cell (evaluated cells run the same compiled
    /// kernel; inferred cells follow from the affine structure of the
    /// model — see the module docs). Each refinement wave evaluates its
    /// block corners in parallel through [`crate::exec`].
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] when either value list is
    /// empty and propagates the model error with the lowest lattice index.
    pub fn frontier(
        &self,
        domain: Domain,
        x_axis: SweepAxis,
        x_values: &[f64],
        y_axis: SweepAxis,
        y_values: &[f64],
        base: OperatingPoint,
    ) -> Result<FrontierResult, GreenFpgaError> {
        self.compile(domain)?
            .frontier(x_axis, x_values, y_axis, y_values, base)
    }
}

impl CompiledScenario {
    /// [`Estimator::frontier`] on an already-compiled scenario — the entry
    /// point callers with a scenario cache (the server) use to trace winner
    /// maps compile-free. The result is identical to the estimator path,
    /// which delegates here.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::frontier`].
    pub fn frontier(
        &self,
        x_axis: SweepAxis,
        x_values: &[f64],
        y_axis: SweepAxis,
        y_values: &[f64],
        base: OperatingPoint,
    ) -> Result<FrontierResult, GreenFpgaError> {
        crate::sweep::check_axis_values(x_values, "frontier values")?;
        crate::sweep::check_axis_values(y_values, "frontier values")?;
        let domain = self.domain();
        let compiled = self;
        let (width, height) = (x_values.len(), y_values.len());
        let cells = width * height;
        let mut ratios = vec![f64::NAN; cells];
        let mut winners = vec![false; cells];
        let mut evaluated = 0usize;
        let point_at = |index: usize| {
            base.with_axis(y_axis, y_values[index / width])
                .with_axis(x_axis, x_values[index % width])
        };

        // The corners-agree-implies-uniform inference needs lattice index
        // order to be monotone in each coordinate (either direction); with
        // shuffled axes a block can hide opposite-winner cells behind
        // agreeing corners. Fall back to evaluating every cell — still the
        // exact dense mask, just without the adaptive saving.
        if !is_monotone(x_values) || !is_monotone(y_values) {
            let wave = exec::try_map_indexed(cells, 0, |i| compiled.ratio(point_at(i)))?;
            for (index, ratio) in wave.into_iter().enumerate() {
                winners[index] = ratio < 1.0;
                ratios[index] = ratio;
            }
            return Ok(FrontierResult {
                domain,
                x_axis,
                x_values: x_values.to_vec(),
                y_axis,
                y_values: y_values.to_vec(),
                winners,
                ratios,
                evaluated: cells,
            });
        }

        let mut blocks = vec![Block {
            x0: 0,
            x1: width - 1,
            y0: 0,
            y1: height - 1,
        }];
        let mut requested = vec![false; cells];
        while !blocks.is_empty() {
            // Gather the corners this wave needs and has not evaluated yet.
            let mut need: Vec<usize> = Vec::new();
            for block in &blocks {
                for (col, row) in block.corners() {
                    let index = row * width + col;
                    if ratios[index].is_nan() && !requested[index] {
                        requested[index] = true;
                        need.push(index);
                    }
                }
            }
            // Ascending order keeps the "lowest index" error guarantee of
            // the underlying pool meaningful at the lattice level.
            need.sort_unstable();
            let wave = exec::try_map_indexed(need.len(), 0, |i| compiled.ratio(point_at(need[i])))?;
            for (&index, ratio) in need.iter().zip(wave) {
                ratios[index] = ratio;
                requested[index] = false;
            }
            evaluated += need.len();

            // Classify or subdivide every block of the wave.
            let mut next = Vec::new();
            for block in blocks.drain(..) {
                let corner_wins = block
                    .corners()
                    .map(|(col, row)| ratios[row * width + col] < 1.0);
                let uniform = corner_wins.iter().all(|&w| w == corner_wins[0]);
                if uniform {
                    for row in block.y0..=block.y1 {
                        for col in block.x0..=block.x1 {
                            winners[row * width + col] = corner_wins[0];
                        }
                    }
                    continue;
                }
                let splittable_x = block.x1 - block.x0 > 1;
                let splittable_y = block.y1 - block.y0 > 1;
                if !splittable_x && !splittable_y {
                    // Every lattice point of a ≤2×2 block is a corner.
                    for (col, row) in block.corners() {
                        winners[row * width + col] = ratios[row * width + col] < 1.0;
                    }
                    continue;
                }
                let xm = block.x0 + (block.x1 - block.x0) / 2;
                let ym = block.y0 + (block.y1 - block.y0) / 2;
                let x_spans: &[(usize, usize)] = if splittable_x {
                    &[(block.x0, xm), (xm, block.x1)]
                } else {
                    &[(block.x0, block.x1)]
                };
                let y_spans: &[(usize, usize)] = if splittable_y {
                    &[(block.y0, ym), (ym, block.y1)]
                } else {
                    &[(block.y0, block.y1)]
                };
                for &(y0, y1) in y_spans {
                    for &(x0, x1) in x_spans {
                        next.push(Block { x0, x1, y0, y1 });
                    }
                }
            }
            blocks = next;
        }

        Ok(FrontierResult {
            domain,
            x_axis,
            x_values: x_values.to_vec(),
            y_axis,
            y_values: y_values.to_vec(),
            winners,
            ratios,
            evaluated,
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

    fn estimator() -> Estimator {
        Estimator::default()
    }

    fn lattice(n: usize) -> (Vec<f64>, Vec<f64>) {
        let apps: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let lifetimes: Vec<f64> = (1..=n).map(|i| 0.05 * i as f64).collect();
        (apps, lifetimes)
    }

    fn dnn_frontier(n: usize) -> FrontierResult {
        let (apps, lifetimes) = lattice(n);
        estimator()
            .frontier(
                Domain::Dnn,
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
            )
            .unwrap()
    }

    #[test]
    fn frontier_mask_matches_dense_grid_exactly() {
        let (apps, lifetimes) = lattice(17);
        for domain in Domain::ALL {
            let est = estimator();
            let frontier = est
                .frontier(
                    domain,
                    SweepAxis::Applications,
                    &apps,
                    SweepAxis::LifetimeYears,
                    &lifetimes,
                    OperatingPoint::paper_default(),
                )
                .unwrap();
            let dense = est
                .ratio_grid(
                    domain,
                    SweepAxis::Applications,
                    &apps,
                    SweepAxis::LifetimeYears,
                    &lifetimes,
                    OperatingPoint::paper_default(),
                )
                .unwrap();
            for (row, dense_row) in dense.ratios.iter().enumerate() {
                for (col, &ratio) in dense_row.iter().enumerate() {
                    assert_eq!(
                        frontier.fpga_wins(row, col),
                        ratio < 1.0,
                        "{domain} cell ({row},{col})"
                    );
                }
            }
        }
    }

    #[test]
    fn evaluated_cells_carry_the_dense_ratio() {
        let frontier = dnn_frontier(17);
        let (apps, lifetimes) = lattice(17);
        let dense = estimator()
            .ratio_grid(
                Domain::Dnn,
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
            )
            .unwrap();
        let mut seen = 0;
        for row in 0..frontier.height() {
            for col in 0..frontier.width() {
                if let Some(ratio) = frontier.ratio_at(row, col) {
                    assert_eq!(ratio, dense.ratios[row][col], "cell ({row},{col})");
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, frontier.evaluations());
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
        // somewhere and frontier cells exist.
        let f = frontier.fpga_winning_fraction();
        assert!(f > 0.0 && f < 1.0, "winning fraction {f}");
        assert!(!frontier.frontier_cells().is_empty());
    }

    #[test]
    fn frontier_is_deterministic() {
        let a = dnn_frontier(33);
        let b = dnn_frontier(33);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_lattices_are_classified() {
        let est = estimator();
        // A single row exercises the thin-block split path.
        let apps: Vec<f64> = (1..=16).map(|i| i as f64).collect();
        let row = est
            .frontier(
                Domain::Dnn,
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &[2.0],
                OperatingPoint::paper_default(),
            )
            .unwrap();
        assert_eq!(row.len(), 16);
        let dense = est
            .ratio_grid(
                Domain::Dnn,
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &[2.0],
                OperatingPoint::paper_default(),
            )
            .unwrap();
        for (col, &ratio) in dense.ratios[0].iter().enumerate() {
            assert_eq!(row.fpga_wins(0, col), ratio < 1.0, "col {col}");
        }
        // A 1×1 lattice is a single evaluated cell.
        let single = est
            .frontier(
                Domain::Crypto,
                SweepAxis::Applications,
                &[4.0],
                SweepAxis::LifetimeYears,
                &[1.0],
                OperatingPoint::paper_default(),
            )
            .unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single.evaluations(), 1);
        assert!(single.fpga_wins(0, 0), "crypto FPGA wins at 4 apps");
        assert!(single.frontier_cells().is_empty());
    }

    #[test]
    fn shuffled_axes_fall_back_to_the_exact_dense_mask() {
        // Unsorted coordinates break the quadtree's uniformity inference;
        // the refiner must detect it and evaluate every cell instead of
        // returning a wrong mask.
        let est = estimator();
        let apps = [1.0, 12.0, 2.0, 9.0, 4.0];
        let lifetimes = [0.5, 2.5, 1.0];
        let frontier = est
            .frontier(
                Domain::Dnn,
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
            )
            .unwrap();
        assert_eq!(frontier.evaluations(), apps.len() * lifetimes.len());
        let dense = est
            .ratio_grid(
                Domain::Dnn,
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
            )
            .unwrap();
        for (row, dense_row) in dense.ratios.iter().enumerate() {
            for (col, &ratio) in dense_row.iter().enumerate() {
                assert_eq!(frontier.fpga_wins(row, col), ratio < 1.0, "({row},{col})");
                assert_eq!(frontier.ratio_at(row, col), Some(ratio), "({row},{col})");
            }
        }
        // Descending (still monotone) axes keep the adaptive path.
        let descending: Vec<f64> = (1..=16).rev().map(|i| i as f64).collect();
        let lifetimes: Vec<f64> = (1..=16).map(|i| 0.2 * i as f64).collect();
        let adaptive = est
            .frontier(
                Domain::Dnn,
                SweepAxis::Applications,
                &descending,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
            )
            .unwrap();
        assert!(adaptive.evaluations() < adaptive.len());
        let dense = est
            .ratio_grid(
                Domain::Dnn,
                SweepAxis::Applications,
                &descending,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
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
            estimator().frontier(
                Domain::Dnn,
                SweepAxis::Applications,
                &[],
                SweepAxis::LifetimeYears,
                &[1.0],
                OperatingPoint::paper_default(),
            ),
            Err(GreenFpgaError::InvalidRange { .. })
        ));
    }

    #[test]
    fn uniform_grids_need_only_the_corners() {
        // Crypto at ≥2 applications: the FPGA wins everywhere, so the root
        // block's corners settle the whole lattice.
        let apps: Vec<f64> = (2..=33).map(|i| i as f64).collect();
        let lifetimes: Vec<f64> = (1..=32).map(|i| 0.1 * i as f64).collect();
        let frontier = estimator()
            .frontier(
                Domain::Crypto,
                SweepAxis::Applications,
                &apps,
                SweepAxis::LifetimeYears,
                &lifetimes,
                OperatingPoint::paper_default(),
            )
            .unwrap();
        assert_eq!(frontier.evaluations(), 4);
        assert!((frontier.fpga_winning_fraction() - 1.0).abs() < 1e-12);
    }
}
