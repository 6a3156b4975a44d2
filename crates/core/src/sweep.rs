//! One-dimensional parameter sweeps and two-dimensional ratio grids.
//!
//! These drive the paper's Figures 4–8: sweeping the number of applications,
//! the application lifetime and the application volume, and computing the
//! FPGA:ASIC ratio over pairwise grids for the heatmaps.

use gf_json::{JsonError, JsonWriter};

use crate::comparison::crossovers_from_samples;
use crate::{CfpBreakdown, Crossover, Domain, GreenFpgaError, ResultBuffer};

/// The workload parameter varied by a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SweepAxis {
    /// Number of applications `N_app`.
    Applications,
    /// Per-application lifetime `T_i` in years.
    LifetimeYears,
    /// Per-application volume `N_vol` in devices.
    VolumeUnits,
}

impl SweepAxis {
    /// Human-readable axis label (matches the paper's figure axes).
    pub fn label(self) -> &'static str {
        match self {
            SweepAxis::Applications => "Num Apps",
            SweepAxis::LifetimeYears => "App Lifetime (years)",
            SweepAxis::VolumeUnits => "App Volume (units)",
        }
    }
}

/// A fixed operating point; sweeps override one (or two) of its fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Number of applications.
    pub applications: u64,
    /// Per-application lifetime in years.
    pub lifetime_years: f64,
    /// Per-application volume in devices.
    pub volume: u64,
}

impl OperatingPoint {
    /// The paper's default operating point: 5 applications × 2 years × 1M
    /// devices.
    pub fn paper_default() -> Self {
        OperatingPoint {
            applications: 5,
            lifetime_years: 2.0,
            volume: 1_000_000,
        }
    }

    pub(crate) fn with_axis(mut self, axis: SweepAxis, value: f64) -> Self {
        match axis {
            SweepAxis::Applications => self.applications = value.round().max(1.0) as u64,
            SweepAxis::LifetimeYears => self.lifetime_years = value,
            SweepAxis::VolumeUnits => self.volume = value.round().max(1.0) as u64,
        }
        self
    }
}

/// Rejects an empty or non-finite list of lattice coordinates. The
/// coordinates are part of every lattice result, so one that overflowed
/// `f64` (say, a linear range spaced past `f64::MAX`) is a model error
/// rather than a number the JSON writer later refuses.
pub(crate) fn check_axis_values(values: &[f64], what: &'static str) -> Result<(), GreenFpgaError> {
    if values.is_empty() {
        return Err(GreenFpgaError::InvalidRange { what });
    }
    match values.iter().position(|value| !value.is_finite()) {
        Some(index) => Err(GreenFpgaError::NonFinite {
            what: format!("entry {index} of the {what}"),
        }),
        None => Ok(()),
    }
}

impl Default for OperatingPoint {
    fn default() -> Self {
        OperatingPoint::paper_default()
    }
}

/// One sample of a 1-D sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Value of the swept parameter.
    pub x: f64,
    /// FPGA-platform footprint at this point.
    pub fpga: CfpBreakdown,
    /// ASIC-platform footprint at this point.
    pub asic: CfpBreakdown,
}

impl SweepPoint {
    /// FPGA total divided by ASIC total at this point.
    pub fn ratio(&self) -> f64 {
        self.fpga
            .total()
            .ratio_to(self.asic.total())
            .unwrap_or(f64::INFINITY)
    }
}

/// The result of sweeping one workload parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Domain the sweep was evaluated in.
    pub domain: Domain,
    /// Which parameter was swept.
    pub axis: SweepAxis,
    /// Samples in ascending order of the swept parameter.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// All crossover points found between consecutive samples (linear
    /// interpolation).
    pub fn crossovers(&self) -> Vec<Crossover> {
        let samples: Vec<(f64, f64, f64)> = self
            .points
            .iter()
            .map(|p| (p.x, p.fpga.total().as_kg(), p.asic.total().as_kg()))
            .collect();
        crossovers_from_samples(&samples)
    }

    /// The sample closest to a given x value. Returns `None` for an empty
    /// series or a `NaN` probe instead of relying on caller invariants.
    pub fn nearest(&self, x: f64) -> Option<&SweepPoint> {
        if x.is_nan() {
            return None;
        }
        self.points
            .iter()
            .min_by(|a, b| (a.x - x).abs().total_cmp(&(b.x - x).abs()))
    }
}

/// A 2-D grid of FPGA:ASIC total-CFP ratios (the paper's Fig. 8 heatmaps).
#[derive(Debug, Clone, PartialEq)]
pub struct GridSweep {
    /// Domain the grid was evaluated in.
    pub domain: Domain,
    /// Axis swept along the columns.
    pub x_axis: SweepAxis,
    /// Column coordinate values.
    pub x_values: Vec<f64>,
    /// Axis swept along the rows.
    pub y_axis: SweepAxis,
    /// Row coordinate values.
    pub y_values: Vec<f64>,
    /// `ratios[row][col]` = FPGA total / ASIC total at
    /// `(x_values[col], y_values[row])`.
    pub ratios: Vec<Vec<f64>>,
}

impl GridSweep {
    /// Number of grid cells.
    pub fn len(&self) -> usize {
        self.x_values.len() * self.y_values.len()
    }

    /// `true` when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of grid cells where the FPGA has the lower footprint.
    ///
    /// Counts over the cells actually present in `ratios` (not the
    /// coordinate lists), so a hand-built grid whose `ratios` disagree with
    /// its axes — or an entirely empty one — reports a well-defined value
    /// (`0.0` when there are no cells) instead of a skewed quotient.
    pub fn fpga_winning_fraction(&self) -> f64 {
        let total: usize = self.ratios.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let wins = self.ratios.iter().flatten().filter(|&&r| r < 1.0).count();
        wins as f64 / total as f64
    }
}

impl crate::CompiledScenario {
    /// Sweeps one workload parameter over the given values, holding the
    /// other two at `base` (Figs. 4–6; count and volume axes take the
    /// integer values as `f64`).
    ///
    /// The values stream through the batch kernel
    /// ([`CompiledScenario::evaluate_indexed_into`](crate::CompiledScenario::evaluate_indexed_into)).
    /// `threads` follows the kernel's convention (`0` = auto); the result is
    /// identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] for an empty value list and
    /// propagates model errors.
    pub fn sweep_series(
        &self,
        axis: SweepAxis,
        values: &[f64],
        base: OperatingPoint,
        threads: usize,
    ) -> Result<SweepSeries, GreenFpgaError> {
        check_axis_values(values, "sweep values")?;
        let mut buffer = ResultBuffer::new();
        self.evaluate_indexed_into(
            values.len(),
            |i| base.with_axis(axis, values[i]),
            &mut buffer,
            threads,
        )?;
        let points = values
            .iter()
            .enumerate()
            .map(|(i, &x)| SweepPoint {
                x,
                fpga: buffer.fpga(i),
                asic: buffer.asic(i),
            })
            .collect();
        Ok(SweepSeries {
            domain: self.domain(),
            axis,
            points,
        })
    }

    /// Evaluates the FPGA:ASIC total-CFP ratio over a 2-D lattice (Fig. 8).
    ///
    /// The flattened lattice streams through the batch kernel
    /// ([`CompiledScenario::evaluate_indexed_into`](crate::CompiledScenario::evaluate_indexed_into))
    /// without ever materializing the operating points; workers each fill a
    /// contiguous slab of the grid. `threads` follows the kernel's
    /// convention (`0` = auto); the result is identical for every thread
    /// count.
    ///
    /// When only the *winner* of each cell matters, prefer
    /// [`CompiledScenario::frontier`](crate::CompiledScenario::frontier): it
    /// classifies the same lattice from a small fraction of the evaluations
    /// by refining only the crossover contour.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] when either value list is
    /// empty and propagates the model error with the lowest cell index.
    pub fn ratio_grid(
        &self,
        x_axis: SweepAxis,
        x_values: &[f64],
        y_axis: SweepAxis,
        y_values: &[f64],
        base: OperatingPoint,
        threads: usize,
    ) -> Result<GridSweep, GreenFpgaError> {
        check_axis_values(x_values, "grid values")?;
        check_axis_values(y_values, "grid values")?;
        let columns = x_values.len();
        let mut buffer = ResultBuffer::new();
        self.evaluate_indexed_into(
            columns * y_values.len(),
            |i| {
                base.with_axis(y_axis, y_values[i / columns])
                    .with_axis(x_axis, x_values[i % columns])
            },
            &mut buffer,
            threads,
        )?;
        let ratios = (0..y_values.len())
            .map(|row| {
                (0..columns)
                    .map(|col| buffer.ratio(row * columns + col))
                    .collect()
            })
            .collect();
        Ok(GridSweep {
            domain: self.domain(),
            x_axis,
            x_values: x_values.to_vec(),
            y_axis,
            y_values: y_values.to_vec(),
            ratios,
        })
    }

    /// Starts a streaming evaluation of the same lattice as
    /// [`CompiledScenario::ratio_grid`](crate::CompiledScenario::ratio_grid),
    /// yielding row-blocks through one reused [`ResultBuffer`] instead of
    /// materializing the whole grid.
    ///
    /// The peak resident footprint is one block (`block_rows × columns`
    /// cells), so a 1024×1024 — or million-row — grid evaluates in bounded
    /// memory. Every ratio is bit-identical to the buffered path: the same
    /// kernel evaluates the same points in the same order, only the
    /// delivery is chunked.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] when either value list is
    /// empty; per-point model errors surface from
    /// [`GridStream::next_block`].
    pub fn grid_stream(
        &self,
        x_axis: SweepAxis,
        x_values: Vec<f64>,
        y_axis: SweepAxis,
        y_values: Vec<f64>,
        base: OperatingPoint,
        threads: usize,
    ) -> Result<GridStream, GreenFpgaError> {
        check_axis_values(&x_values, "grid values")?;
        check_axis_values(&y_values, "grid values")?;
        // Aim for ~4K cells per block: a block's results (~384 KiB) then
        // weigh no more than a buffered 64×64 grid's, so a streamed response
        // never pins more memory than the buffered routes already do, while
        // thousands of closed-form evaluations still amortize each block's
        // dispatch.
        let columns = x_values.len();
        let block_rows = (GridStream::TARGET_BLOCK_CELLS / columns).clamp(1, y_values.len());
        Ok(GridStream {
            scenario: *self,
            x_axis,
            x_values,
            y_axis,
            y_values,
            base,
            threads,
            block_rows,
            next_row: 0,
            buffer: ResultBuffer::new(),
            wins: 0,
        })
    }
}

/// A pull-based streaming evaluation of a ratio grid, produced by
/// [`CompiledScenario::grid_stream`](crate::CompiledScenario::grid_stream).
///
/// Call [`GridStream::next_block`] until it returns `None`; each block
/// borrows the stream's internal buffer, so memory stays bounded by one
/// block regardless of grid size. After exhaustion,
/// [`GridStream::fpga_winning_fraction`] reports the same value (bit-exact)
/// as [`GridSweep::fpga_winning_fraction`] on the buffered result.
#[derive(Debug)]
pub struct GridStream {
    scenario: crate::CompiledScenario,
    x_axis: SweepAxis,
    x_values: Vec<f64>,
    y_axis: SweepAxis,
    y_values: Vec<f64>,
    base: OperatingPoint,
    threads: usize,
    block_rows: usize,
    next_row: usize,
    buffer: ResultBuffer,
    wins: usize,
}

impl GridStream {
    const TARGET_BLOCK_CELLS: usize = 4 * 1024;

    /// Domain the grid is evaluated in.
    pub fn domain(&self) -> Domain {
        self.scenario.domain()
    }

    /// Axis swept along the columns.
    pub fn x_axis(&self) -> SweepAxis {
        self.x_axis
    }

    /// Column coordinate values.
    pub fn x_values(&self) -> &[f64] {
        &self.x_values
    }

    /// Axis swept along the rows.
    pub fn y_axis(&self) -> SweepAxis {
        self.y_axis
    }

    /// Row coordinate values.
    pub fn y_values(&self) -> &[f64] {
        &self.y_values
    }

    /// Number of grid columns.
    pub fn columns(&self) -> usize {
        self.x_values.len()
    }

    /// Total number of grid rows.
    pub fn rows(&self) -> usize {
        self.y_values.len()
    }

    /// Rows delivered per block (the last block may be shorter).
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Overrides the block height. Clamped to `1..=rows`.
    pub fn with_block_rows(mut self, rows: usize) -> Self {
        self.block_rows = rows.clamp(1, self.rows());
        self
    }

    /// Rows evaluated and delivered so far.
    pub fn rows_delivered(&self) -> usize {
        self.next_row
    }

    /// `true` once every row has been delivered.
    pub fn is_finished(&self) -> bool {
        self.next_row >= self.rows()
    }

    /// Fraction of *delivered* cells where the FPGA has the lower
    /// footprint. Once the stream is exhausted this equals
    /// [`GridSweep::fpga_winning_fraction`] on the buffered grid exactly:
    /// same `< 1.0` predicate over the same ratios, same quotient.
    pub fn fpga_winning_fraction(&self) -> f64 {
        let cells = self.next_row * self.columns();
        if cells == 0 {
            return 0.0;
        }
        self.wins as f64 / cells as f64
    }

    /// Evaluates and returns the next row-block, or `None` when the grid is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Propagates the model error with the lowest cell index inside the
    /// block; the stream terminates (subsequent calls return `None`).
    pub fn next_block(&mut self) -> Option<Result<GridBlock<'_>, GreenFpgaError>> {
        let rows_total = self.y_values.len();
        if self.next_row >= rows_total {
            return None;
        }
        let start_row = self.next_row;
        let rows = self.block_rows.min(rows_total - start_row);
        let columns = self.x_values.len();
        let result = {
            let (x_values, y_values) = (&self.x_values, &self.y_values);
            let (x_axis, y_axis, base) = (self.x_axis, self.y_axis, self.base);
            self.scenario.evaluate_indexed_into(
                rows * columns,
                |i| {
                    base.with_axis(y_axis, y_values[start_row + i / columns])
                        .with_axis(x_axis, x_values[i % columns])
                },
                &mut self.buffer,
                self.threads,
            )
        };
        if let Err(error) = result {
            self.next_row = rows_total;
            return Some(Err(error));
        }
        self.next_row = start_row + rows;
        self.wins += (0..rows * columns)
            .filter(|&i| self.buffer.ratio(i) < 1.0)
            .count();
        Some(Ok(GridBlock {
            start_row,
            rows,
            columns,
            buffer: &self.buffer,
        }))
    }

    /// The streamed wire form's opening fragment: the buffered
    /// [`GridSweep`] JSON up to and including `"ratios":[`. This head, every
    /// block's [`GridBlock::rows_json`] and [`GridStream::tail_json`]
    /// concatenate to exactly the buffered body. Each fails only on a
    /// non-finite number ([`JsonError::NonFinite`]).
    pub fn head_json(&self) -> Result<String, JsonError> {
        let mut w = JsonWriter::new();
        crate::api::write_grid_head(
            &mut w,
            self.domain(),
            (self.x_axis, &self.x_values),
            (self.y_axis, &self.y_values),
            "ratios",
        );
        w.begin_array();
        w.finish()
    }

    /// The streamed wire form's closing fragment, once every block has been
    /// delivered: the winning fraction and the closing braces.
    pub fn tail_json(&self) -> Result<String, JsonError> {
        let mut w = JsonWriter::new();
        w.end_array();
        w.member("fpga_winning_fraction", &self.fpga_winning_fraction());
        w.end_object();
        w.finish()
    }
}

/// One row-block of a [`GridStream`], borrowing the stream's buffer.
#[derive(Debug)]
pub struct GridBlock<'a> {
    start_row: usize,
    rows: usize,
    columns: usize,
    buffer: &'a ResultBuffer,
}

impl GridBlock<'_> {
    /// Absolute index of the block's first row within the grid.
    pub fn start_row(&self) -> usize {
        self.start_row
    }

    /// Number of rows in this block.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (same for every block).
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// FPGA:ASIC ratio at `(row, col)`, with `row` relative to the block.
    pub fn ratio(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.columns, "cell out of block");
        self.buffer.ratio(row * self.columns + col)
    }

    /// Iterates one block-relative row's ratios in column order.
    pub fn row(&self, row: usize) -> impl Iterator<Item = f64> + '_ {
        (0..self.columns).map(move |col| self.ratio(row, col))
    }

    /// This block's rows in the streamed wire form (see
    /// [`GridStream::head_json`]): JSON arrays separated by commas, with a
    /// leading comma unless the block opens the grid.
    pub fn rows_json(&self) -> Result<String, JsonError> {
        // Ratios print in about 20 bytes; the hint spares most regrowth.
        let mut fragment = String::with_capacity(self.rows * (self.columns * 25 + 3));
        if self.start_row > 0 {
            fragment.push(',');
        }
        let mut w = JsonWriter::appending(fragment);
        for row in 0..self.rows {
            w.begin_array();
            for cell in self.row(row) {
                w.number(cell);
            }
            w.end_array();
        }
        w.finish()
    }
}

/// Builds a geometric (log-spaced) list of volumes between `min` and `max`
/// with up to `steps` samples, inclusive of both ends. Useful for volume
/// sweeps spanning decades (1K → 10M).
///
/// The result is guaranteed strictly increasing and guaranteed to end
/// exactly at `max`: rounding collisions are resolved by bumping to the
/// next integer (dropping samples when the range is too narrow to hold
/// `steps` distinct values), so callers never see duplicate or
/// non-monotonic sweep coordinates.
pub fn log_spaced_volumes(min: u64, max: u64, steps: usize) -> Vec<u64> {
    if steps <= 1 || min >= max {
        return vec![min.max(1)];
    }
    let lo = min.max(1);
    let (lo_f, hi_f) = (lo as f64, max as f64);
    let ratio = (hi_f / lo_f).powf(1.0 / (steps as f64 - 1.0));
    let mut values = Vec::with_capacity(steps);
    let mut previous = 0u64;
    // The last slot is reserved for `max` itself, so interior samples stop
    // at `steps - 1` even when rounding keeps them below `max`.
    for i in 0..steps - 1 {
        let raw = (lo_f * ratio.powi(i as i32)).round() as u64;
        let value = raw.max(previous + 1);
        if value >= max {
            break;
        }
        values.push(value);
        previous = value;
    }
    values.push(max);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator() -> crate::Estimator {
        crate::Estimator::default()
    }

    fn compiled(domain: Domain) -> crate::CompiledScenario {
        estimator().compile(domain).unwrap()
    }

    /// Integer sample values as the `f64` coordinates a sweep takes.
    fn as_values(integers: &[u64]) -> Vec<f64> {
        integers.iter().map(|&n| n as f64).collect()
    }

    #[test]
    fn application_sweep_shows_fpga_amortization() {
        let counts: Vec<u64> = (1..=8).collect();
        let series = compiled(Domain::Dnn)
            .sweep_series(
                SweepAxis::Applications,
                &as_values(&counts),
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert_eq!(series.points.len(), 8);
        // The FPGA:ASIC ratio must fall monotonically as apps are added.
        for pair in series.points.windows(2) {
            assert!(pair[1].ratio() < pair[0].ratio());
        }
        // Fig. 4: DNN crossover exists within 8 applications.
        assert_eq!(series.crossovers().len(), 1);
    }

    #[test]
    fn lifetime_sweep_matches_fig5_shapes() {
        let lifetimes: Vec<f64> = (1..=12).map(|i| 0.2 + 0.2 * i as f64).collect();
        let base = OperatingPoint::paper_default();
        // Crypto: FPGA always wins.
        let crypto = compiled(Domain::Crypto)
            .sweep_series(SweepAxis::LifetimeYears, &lifetimes, base, 0)
            .unwrap();
        assert!(crypto.points.iter().all(|p| p.ratio() < 1.0));
        assert!(crypto.crossovers().is_empty());
        // ImgProc: ASIC always wins.
        let img = compiled(Domain::ImageProcessing)
            .sweep_series(SweepAxis::LifetimeYears, &lifetimes, base, 0)
            .unwrap();
        assert!(img.points.iter().all(|p| p.ratio() > 1.0));
        // DNN: one F2A crossover.
        let dnn = compiled(Domain::Dnn)
            .sweep_series(SweepAxis::LifetimeYears, &lifetimes, base, 0)
            .unwrap();
        let crossovers = dnn.crossovers();
        assert_eq!(crossovers.len(), 1);
        assert_eq!(
            crossovers[0].direction,
            crate::CrossoverDirection::FpgaToAsic
        );
    }

    #[test]
    fn volume_sweep_has_f2a_for_dnn_and_none_for_crypto() {
        let volumes = as_values(&log_spaced_volumes(1_000, 10_000_000, 16));
        let base = OperatingPoint::paper_default();
        let dnn = compiled(Domain::Dnn)
            .sweep_series(SweepAxis::VolumeUnits, &volumes, base, 0)
            .unwrap();
        let crossovers = dnn.crossovers();
        assert!(!crossovers.is_empty(), "DNN volume sweep must cross over");
        assert_eq!(
            crossovers[0].direction,
            crate::CrossoverDirection::FpgaToAsic
        );
        let crypto = compiled(Domain::Crypto)
            .sweep_series(SweepAxis::VolumeUnits, &volumes, base, 0)
            .unwrap();
        assert!(crypto.points.iter().all(|p| p.ratio() < 1.0));
    }

    #[test]
    fn sweep_rejects_empty_values() {
        assert!(matches!(
            compiled(Domain::Dnn).sweep_series(
                SweepAxis::Applications,
                &[],
                OperatingPoint::default(),
                0
            ),
            Err(GreenFpgaError::InvalidRange { .. })
        ));
    }

    #[test]
    fn nearest_finds_closest_sample() {
        let series = compiled(Domain::Dnn)
            .sweep_series(
                SweepAxis::Applications,
                &[1.0, 2.0, 4.0, 8.0],
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert_eq!(series.nearest(3.4).unwrap().x, 4.0);
        assert_eq!(series.nearest(0.0).unwrap().x, 1.0);
    }

    #[test]
    fn nearest_handles_empty_series_and_nan_probes() {
        let empty = SweepSeries {
            domain: Domain::Dnn,
            axis: SweepAxis::Applications,
            points: Vec::new(),
        };
        assert!(empty.nearest(1.0).is_none());
        assert!(empty.crossovers().is_empty());
        let series = compiled(Domain::Dnn)
            .sweep_series(
                SweepAxis::Applications,
                &[1.0, 2.0],
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert!(series.nearest(f64::NAN).is_none());
        // All distances to an infinite probe are infinite; ties go to the
        // first sample.
        assert_eq!(series.nearest(f64::INFINITY).unwrap().x, 1.0);
    }

    #[test]
    fn winning_fraction_of_empty_or_inconsistent_grids_is_well_defined() {
        let empty = GridSweep {
            domain: Domain::Dnn,
            x_axis: SweepAxis::Applications,
            x_values: Vec::new(),
            y_axis: SweepAxis::LifetimeYears,
            y_values: Vec::new(),
            ratios: Vec::new(),
        };
        assert_eq!(empty.fpga_winning_fraction(), 0.0);
        assert!(empty.is_empty());
        // A grid whose coordinate lists disagree with its cells counts over
        // the cells actually present.
        let inconsistent = GridSweep {
            domain: Domain::Dnn,
            x_axis: SweepAxis::Applications,
            x_values: vec![1.0, 2.0, 3.0],
            y_axis: SweepAxis::LifetimeYears,
            y_values: vec![0.5, 1.0],
            ratios: vec![vec![0.5, 2.0]],
        };
        assert!((inconsistent.fpga_winning_fraction() - 0.5).abs() < 1e-12);
        let no_cells = GridSweep {
            x_values: vec![1.0],
            y_values: vec![1.0],
            ratios: Vec::new(),
            ..inconsistent
        };
        assert_eq!(no_cells.fpga_winning_fraction(), 0.0);
    }

    #[test]
    fn ratio_grid_is_rectangular_and_finite() {
        let grid = compiled(Domain::Dnn)
            .ratio_grid(
                SweepAxis::Applications,
                &[1.0, 4.0, 8.0],
                SweepAxis::LifetimeYears,
                &[0.5, 1.0, 2.0, 2.5],
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert_eq!(grid.ratios.len(), 4);
        assert!(grid.ratios.iter().all(|row| row.len() == 3));
        assert!(grid
            .ratios
            .iter()
            .flatten()
            .all(|r| r.is_finite() && *r > 0.0));
        assert_eq!(grid.len(), 12);
        assert!(!grid.is_empty());
        let f = grid.fpga_winning_fraction();
        assert!((0.0..=1.0).contains(&f));
        // More apps and shorter lifetimes favour the FPGA: the cell with the
        // most apps and shortest lifetime must have a lower ratio than the
        // cell with the fewest apps and longest lifetime.
        assert!(grid.ratios[0][2] < grid.ratios[3][0]);
    }

    #[test]
    fn grid_stream_matches_buffered_grid_bit_for_bit() {
        let base = OperatingPoint::paper_default();
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        for (x_axis, x_values, y_axis, y_values) in memo_lattices() {
            let buffered = compiled
                .ratio_grid(x_axis, &x_values, y_axis, &y_values, base, 1)
                .unwrap();
            // Exercise block heights that divide the row count, don't, and
            // exceed it, at each thread count.
            for (threads, block_rows) in [1, 2, 8]
                .into_iter()
                .flat_map(|t| [1usize, 2, 3, 7, 100].map(|b| (t, b)))
            {
                let mut stream = compiled
                    .grid_stream(
                        x_axis,
                        x_values.clone(),
                        y_axis,
                        y_values.clone(),
                        base,
                        threads,
                    )
                    .unwrap()
                    .with_block_rows(block_rows);
                assert_eq!(stream.columns(), x_values.len());
                assert_eq!(stream.rows(), y_values.len());
                assert_eq!(stream.block_rows(), block_rows.min(y_values.len()));
                let mut next_expected_row = 0;
                while let Some(block) = stream.next_block() {
                    let block = block.unwrap();
                    assert_eq!(block.start_row(), next_expected_row);
                    for r in 0..block.rows() {
                        let absolute = block.start_row() + r;
                        for (c, ratio) in block.row(r).enumerate() {
                            assert_eq!(
                                ratio.to_bits(),
                                buffered.ratios[absolute][c].to_bits(),
                                "{x_axis:?} x {y_axis:?} cell ({absolute},{c}) diverged at \
                                 block_rows {block_rows}, {threads} threads"
                            );
                        }
                    }
                    next_expected_row += block.rows();
                }
                assert!(stream.is_finished());
                assert_eq!(stream.rows_delivered(), y_values.len());
                assert_eq!(
                    stream.fpga_winning_fraction().to_bits(),
                    buffered.fpga_winning_fraction().to_bits()
                );
            }
        }
    }

    #[test]
    fn grid_stream_rejects_empty_axes_and_reports_errors_once() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        assert!(matches!(
            compiled.grid_stream(
                SweepAxis::Applications,
                Vec::new(),
                SweepAxis::LifetimeYears,
                vec![1.0],
                OperatingPoint::paper_default(),
                0,
            ),
            Err(GreenFpgaError::InvalidRange { .. })
        ));
        // Non-finite coordinates are rejected before any block runs.
        assert!(matches!(
            compiled.grid_stream(
                SweepAxis::Applications,
                vec![1.0],
                SweepAxis::LifetimeYears,
                vec![f64::NAN],
                OperatingPoint::paper_default(),
                0,
            ),
            Err(GreenFpgaError::NonFinite { .. })
        ));
        // A negative lifetime fails validation inside the block; the
        // stream surfaces the error once and then terminates.
        let mut stream = compiled
            .grid_stream(
                SweepAxis::Applications,
                vec![1.0],
                SweepAxis::LifetimeYears,
                vec![-1.0],
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert!(stream.next_block().unwrap().is_err());
        assert!(stream.next_block().is_none());
        assert_eq!(stream.fpga_winning_fraction(), 0.0);
    }

    #[test]
    fn grid_stream_default_block_rows_bound_memory() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        // A wide grid gets a short block; a narrow one takes all its rows.
        let wide = compiled
            .grid_stream(
                SweepAxis::Applications,
                (1..=2048).map(|i| i as f64).collect(),
                SweepAxis::LifetimeYears,
                vec![0.5; 64],
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert_eq!(wide.block_rows(), 2);
        let narrow = compiled
            .grid_stream(
                SweepAxis::Applications,
                vec![1.0, 2.0],
                SweepAxis::LifetimeYears,
                vec![0.5; 10],
                OperatingPoint::paper_default(),
                0,
            )
            .unwrap();
        assert_eq!(narrow.block_rows(), 10);
    }

    #[test]
    fn grid_rejects_empty_axes() {
        assert!(matches!(
            compiled(Domain::Dnn).ratio_grid(
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
    fn log_spaced_volumes_cover_the_range() {
        let v = log_spaced_volumes(1_000, 1_000_000, 7);
        assert_eq!(*v.first().unwrap(), 1_000);
        assert_eq!(*v.last().unwrap(), 1_000_000);
        assert!(v.windows(2).all(|w| w[1] > w[0]));
        // Roughly one sample per half-decade.
        assert_eq!(v.len(), 7);
        assert_eq!(log_spaced_volumes(10, 5, 4), vec![10]);
        assert_eq!(log_spaced_volumes(0, 100, 1), vec![1]);
    }

    #[test]
    fn log_spaced_volumes_stay_strictly_increasing_in_tight_ranges() {
        // Narrow ranges used to produce non-adjacent duplicates that
        // `dedup` missed; the rebuilt generator bumps collisions instead.
        for (min, max, steps) in [(1u64, 20u64, 12usize), (10, 12, 8), (1, 3, 9)] {
            let v = log_spaced_volumes(min, max, steps);
            assert!(
                v.windows(2).all(|w| w[1] > w[0]),
                "not strictly increasing: {v:?}"
            );
            assert_eq!(*v.last().unwrap(), max);
            assert!(v.len() <= steps);
        }
    }

    #[test]
    fn log_spaced_volumes_end_exactly_at_max() {
        // 9_999_999 is prone to rounding to 10M with the old generator.
        let v = log_spaced_volumes(1_000, 9_999_999, 13);
        assert_eq!(*v.first().unwrap(), 1_000);
        assert_eq!(*v.last().unwrap(), 9_999_999);
        assert!(v.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn log_spaced_volumes_never_exceed_the_requested_count() {
        // Huge ranges where rounding keeps every interior sample below max
        // used to emit steps + 1 values.
        for steps in 2..40 {
            let v = log_spaced_volumes(1, 10u64.pow(15) + 1, steps);
            assert!(v.len() <= steps, "steps {steps} gave {} values", v.len());
            assert_eq!(*v.last().unwrap(), 10u64.pow(15) + 1);
            assert!(v.windows(2).all(|w| w[1] > w[0]));
        }
    }

    /// Lattices with the applications on x (each row shares its lifetime
    /// and volume, so the kernel reuses the row's lines) and on y (every
    /// cell changes them), with fractional coordinates that round to the
    /// same application count or repeat a lifetime.
    fn memo_lattices() -> Vec<(SweepAxis, Vec<f64>, SweepAxis, Vec<f64>)> {
        let apps = vec![1.0, 1.2, 1.4, 2.5, 2.6, 3.0, 6.0, 6.49, 6.51, 24.0];
        let lifetimes = vec![0.25, 0.5, 0.5, 1.5, 2.75, 2.75, 3.0];
        let volumes = vec![1e3, 1e3, 5e4, 1e6, 1e6];
        vec![
            (
                SweepAxis::Applications,
                apps.clone(),
                SweepAxis::LifetimeYears,
                lifetimes.clone(),
            ),
            (
                SweepAxis::LifetimeYears,
                lifetimes,
                SweepAxis::Applications,
                apps.clone(),
            ),
            (
                SweepAxis::Applications,
                apps.clone(),
                SweepAxis::VolumeUnits,
                volumes.clone(),
            ),
            (
                SweepAxis::VolumeUnits,
                volumes,
                SweepAxis::Applications,
                apps,
            ),
        ]
    }

    #[test]
    fn grid_matches_naive_point_wise_evaluation() {
        let est = estimator();
        let compiled = est.compile(Domain::Dnn).unwrap();
        let base = OperatingPoint::paper_default();
        for (x_axis, x_values, y_axis, y_values) in memo_lattices() {
            for threads in [1, 2, 8] {
                let grid = compiled
                    .ratio_grid(x_axis, &x_values, y_axis, &y_values, base, threads)
                    .unwrap();
                for (row, &y) in y_values.iter().enumerate() {
                    for (col, &x) in x_values.iter().enumerate() {
                        let point = base.with_axis(y_axis, y).with_axis(x_axis, x);
                        let naive = est
                            .compare_uniform(
                                Domain::Dnn,
                                point.applications,
                                point.lifetime_years,
                                point.volume,
                            )
                            .unwrap()
                            .fpga_to_asic_ratio();
                        assert_eq!(
                            grid.ratios[row][col].to_bits(),
                            naive.to_bits(),
                            "{x_axis:?} x {y_axis:?} cell ({row},{col}), {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn axis_labels_match_paper_terms() {
        assert_eq!(SweepAxis::Applications.label(), "Num Apps");
        assert_eq!(SweepAxis::LifetimeYears.label(), "App Lifetime (years)");
        assert_eq!(SweepAxis::VolumeUnits.label(), "App Volume (units)");
    }
}
