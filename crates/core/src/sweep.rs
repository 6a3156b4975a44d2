//! One-dimensional parameter sweeps and two-dimensional ratio grids.
//!
//! These drive the paper's Figures 4–8: sweeping the number of applications,
//! the application lifetime and the application volume, and computing the
//! FPGA:ASIC ratio over pairwise grids for the heatmaps.

use gf_json::{JsonError, JsonWriter, ToJson};

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

    /// `self` with the `axis` field of `other`, a coordinate converted before.
    pub(crate) fn with_axis_of(mut self, axis: SweepAxis, other: OperatingPoint) -> Self {
        match axis {
            SweepAxis::Applications => self.applications = other.applications,
            SweepAxis::LifetimeYears => self.lifetime_years = other.lifetime_years,
            SweepAxis::VolumeUnits => self.volume = other.volume,
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

/// The head of a 2-D operating-point lattice, shared by the dense
/// [`GridSweep`], the streamed [`GridStream`] and the
/// [`FrontierResult`](crate::FrontierResult) winner map. Their cells are
/// row-major: cell `(row, col)` sits at index `row * width + col` and
/// holds the point `(x_values[col], y_values[row])`.
#[derive(Debug, Clone, PartialEq)]
pub struct Lattice {
    /// Domain the lattice is evaluated in.
    pub domain: Domain,
    /// Axis swept along the columns.
    pub x_axis: SweepAxis,
    /// Column coordinate values.
    pub x_values: Vec<f64>,
    /// Axis swept along the rows.
    pub y_axis: SweepAxis,
    /// Row coordinate values.
    pub y_values: Vec<f64>,
}

impl Lattice {
    /// A lattice over checked coordinates (see [`check_axis_values`];
    /// `what` names them in the error).
    pub(crate) fn new(
        domain: Domain,
        (x_axis, x_values): (SweepAxis, impl Into<Vec<f64>>),
        (y_axis, y_values): (SweepAxis, impl Into<Vec<f64>>),
        what: &'static str,
    ) -> Result<Lattice, GreenFpgaError> {
        let (x_values, y_values) = (x_values.into(), y_values.into());
        check_axis_values(&x_values, what)?;
        check_axis_values(&y_values, what)?;
        Ok(Lattice {
            domain,
            x_axis,
            x_values,
            y_axis,
            y_values,
        })
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.x_values.len()
    }

    /// Number of rows.
    pub fn height(&self) -> usize {
        self.y_values.len()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.width() * self.height()
    }

    /// `true` when the lattice has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a lattice body: its members up to the `cells` matrix, whose
    /// rows [`write_rows`] writes and [`write_tail`] closes.
    pub(crate) fn write_head(&self, w: &mut JsonWriter, cells: &str) {
        w.begin_object();
        w.member("domain", &self.domain);
        w.member("x_axis", &self.x_axis);
        w.member("x_values", &self.x_values);
        w.member("y_axis", &self.y_axis);
        w.member("y_values", &self.y_values);
        w.key(cells);
        w.begin_array();
    }
}

/// Writes row-major `cells` as the JSON rows `[..],[..]` of `width`
/// cells each: the one writer of lattice cell rows, behind the buffered
/// grid, every streamed block and the frontier.
pub(crate) fn write_rows<T: ToJson>(w: &mut JsonWriter, cells: &[T], width: usize) {
    for row in cells.chunks(width.max(1)) {
        w.begin_array();
        for cell in row {
            cell.write_json(w);
        }
        w.end_array();
    }
}

/// Closes a lattice body's cell matrix and writes its winning fraction;
/// the caller adds any further members and closes the object.
pub(crate) fn write_tail(w: &mut JsonWriter, fpga_winning_fraction: f64) {
    w.end_array();
    w.member("fpga_winning_fraction", &fpga_winning_fraction);
}

/// `count` as a fraction of `cells`, `0.0` when there are none: the one
/// quotient behind every lattice's and the Monte-Carlo report's winning
/// fraction and the frontier's evaluated fraction.
pub(crate) fn cell_fraction(count: usize, cells: usize) -> f64 {
    if cells == 0 {
        return 0.0;
    }
    count as f64 / cells as f64
}

/// Number of ratios below 1, where the FPGA wins.
pub(crate) fn fpga_wins(ratios: &[f64]) -> usize {
    ratios.iter().filter(|&&ratio| ratio < 1.0).count()
}

/// A 2-D grid of FPGA:ASIC total-CFP ratios (the paper's Fig. 8 heatmaps).
#[derive(Debug, Clone, PartialEq)]
pub struct GridSweep {
    /// The lattice the ratios cover.
    pub lattice: Lattice,
    /// Row-major ratios: `ratios[row * width + col]` = FPGA total / ASIC
    /// total at `(x_values[col], y_values[row])`.
    pub ratios: Vec<f64>,
}

impl GridSweep {
    /// Fraction of grid cells where the FPGA has the lower footprint.
    ///
    /// Counts over the cells actually present in `ratios` (not the
    /// coordinate lists), so a hand-built grid whose `ratios` disagree with
    /// its axes — or an entirely empty one — reports a well-defined value
    /// (`0.0` when there are no cells) instead of a skewed quotient.
    pub fn fpga_winning_fraction(&self) -> f64 {
        cell_fraction(fpga_wins(&self.ratios), self.ratios.len())
    }
}

impl ToJson for GridSweep {
    fn write_json(&self, w: &mut JsonWriter) {
        self.lattice.write_head(w, "ratios");
        write_rows(w, &self.ratios, self.lattice.width());
        write_tail(w, self.fpga_winning_fraction());
        w.end_object();
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
    /// The lattice kernel converts each coordinate once per column and once
    /// per row and writes every cell's ratio straight from its two totals;
    /// workers each fill a contiguous slab of the grid. `threads` follows
    /// the kernel's convention (`0` = auto); the result is identical for
    /// every thread count and bit-identical to
    /// [`CompiledScenario::evaluate`](crate::CompiledScenario::evaluate)'s
    /// ratio cell by cell. When both axes are the same, the x coordinate
    /// wins.
    ///
    /// When only the *winner* of each cell matters, prefer
    /// [`CompiledScenario::frontier`](crate::CompiledScenario::frontier): it
    /// classifies the same lattice from a small fraction of the evaluations
    /// by refining only the crossover contour.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] when either value list is
    /// empty and [`GreenFpgaError::NonFinite`] for a coordinate that is not
    /// finite. Otherwise the validation error with the lowest cell index
    /// wins over any non-finite cell, and the lowest non-finite cell
    /// reports its FPGA total before its ASIC total.
    pub fn ratio_grid(
        &self,
        x_axis: SweepAxis,
        x_values: &[f64],
        y_axis: SweepAxis,
        y_values: &[f64],
        base: OperatingPoint,
        threads: usize,
    ) -> Result<GridSweep, GreenFpgaError> {
        let (x, y) = ((x_axis, x_values), (y_axis, y_values));
        let lattice = Lattice::new(self.domain(), x, y, "grid values")?;
        let mut ratios = vec![0.0; lattice.len()];
        self.fill_ratio_lattice(x, y, base, &mut ratios, threads)?;
        Ok(GridSweep { lattice, ratios })
    }

    /// Starts a streaming evaluation of the same lattice as
    /// [`CompiledScenario::ratio_grid`](crate::CompiledScenario::ratio_grid),
    /// yielding row-blocks through one reused ratio buffer instead of
    /// materializing the whole grid.
    ///
    /// The peak resident footprint is one block (`block_rows × columns`
    /// ratios), so a 1024×1024 — or million-row — grid evaluates in bounded
    /// memory. Every ratio is bit-identical to the buffered path: each
    /// block runs the same lattice kernel over its rows, only the delivery
    /// is chunked.
    ///
    /// # Errors
    ///
    /// Returns [`GreenFpgaError::InvalidRange`] when either value list is
    /// empty and [`GreenFpgaError::NonFinite`] for a coordinate that is not
    /// finite; per-cell model errors surface from
    /// [`GridStream::next_block`], in the buffered grid's order within
    /// each block.
    pub fn grid_stream(
        &self,
        x_axis: SweepAxis,
        x_values: Vec<f64>,
        y_axis: SweepAxis,
        y_values: Vec<f64>,
        base: OperatingPoint,
        threads: usize,
    ) -> Result<GridStream, GreenFpgaError> {
        let lattice = Lattice::new(
            self.domain(),
            (x_axis, x_values),
            (y_axis, y_values),
            "grid values",
        )?;
        // Aim for ~4K cells per block: thousands of closed-form evaluations
        // amortize each block's dispatch, and a block's ratios (32 KiB)
        // stay small next to its JSON text.
        let block_rows =
            (GridStream::TARGET_BLOCK_CELLS / lattice.width()).clamp(1, lattice.height());
        Ok(GridStream {
            scenario: *self,
            lattice,
            base,
            threads,
            block_rows,
            next_row: 0,
            ratios: Vec::new(),
            wins: 0,
        })
    }
}

/// A pull-based streaming evaluation of a ratio grid, produced by
/// [`CompiledScenario::grid_stream`](crate::CompiledScenario::grid_stream).
///
/// Call [`GridStream::next_block`] until it returns `None`; each block
/// borrows the stream's one ratio buffer, so memory stays bounded by one
/// block regardless of grid size. After exhaustion,
/// [`GridStream::fpga_winning_fraction`] reports the same value (bit-exact)
/// as [`GridSweep::fpga_winning_fraction`] on the buffered result.
#[derive(Debug)]
pub struct GridStream {
    scenario: crate::CompiledScenario,
    lattice: Lattice,
    base: OperatingPoint,
    threads: usize,
    block_rows: usize,
    next_row: usize,
    ratios: Vec<f64>,
    wins: usize,
}

impl GridStream {
    const TARGET_BLOCK_CELLS: usize = 4 * 1024;

    /// The lattice being evaluated.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Rows delivered per block (the last block may be shorter).
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Overrides the block height. Clamped to `1..=rows`.
    pub fn with_block_rows(mut self, rows: usize) -> Self {
        self.block_rows = rows.clamp(1, self.lattice.height());
        self
    }

    /// Rows evaluated and delivered so far.
    pub fn rows_delivered(&self) -> usize {
        self.next_row
    }

    /// `true` once every row has been delivered.
    pub fn is_finished(&self) -> bool {
        self.next_row >= self.lattice.height()
    }

    /// Fraction of *delivered* cells where the FPGA has the lower
    /// footprint. Once the stream is exhausted this equals
    /// [`GridSweep::fpga_winning_fraction`] on the buffered grid exactly:
    /// same `< 1.0` predicate over the same ratios, same quotient.
    pub fn fpga_winning_fraction(&self) -> f64 {
        cell_fraction(self.wins, self.next_row * self.lattice.width())
    }

    /// Evaluates and returns the next row-block, or `None` when the grid is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// The block's error in the order of
    /// [`CompiledScenario::ratio_grid`](crate::CompiledScenario::ratio_grid): the
    /// lowest-index validation error, else the lowest non-finite cell's.
    /// The stream then terminates (subsequent calls return `None`).
    pub fn next_block(&mut self) -> Option<Result<GridBlock<'_>, GreenFpgaError>> {
        let Lattice {
            x_axis,
            ref x_values,
            y_axis,
            ref y_values,
            ..
        } = self.lattice;
        if self.next_row >= y_values.len() {
            return None;
        }
        let start_row = self.next_row;
        let rows = self.block_rows.min(y_values.len() - start_row);
        self.ratios.resize(rows * x_values.len(), 0.0);
        let result = self.scenario.fill_ratio_lattice(
            (x_axis, x_values),
            (y_axis, &y_values[start_row..start_row + rows]),
            self.base,
            &mut self.ratios,
            self.threads,
        );
        if let Err(error) = result {
            self.next_row = y_values.len();
            return Some(Err(error));
        }
        self.next_row = start_row + rows;
        self.wins += fpga_wins(&self.ratios);
        Some(Ok(GridBlock {
            start_row,
            columns: x_values.len(),
            ratios: &self.ratios,
        }))
    }

    /// The streamed wire form's opening fragment: the buffered
    /// [`GridSweep`] JSON up to and including `"ratios":[`. This head, every
    /// block's [`GridBlock::rows_json`] and [`GridStream::tail_json`]
    /// concatenate to exactly the buffered body, whose writer makes the
    /// same three calls. Each fails only on a non-finite number
    /// ([`JsonError::NonFinite`]).
    pub fn head_json(&self) -> Result<String, JsonError> {
        let mut w = JsonWriter::new();
        self.lattice.write_head(&mut w, "ratios");
        w.finish()
    }

    /// The streamed wire form's closing fragment, once every block has been
    /// delivered: the winning fraction and the closing braces.
    pub fn tail_json(&self) -> Result<String, JsonError> {
        let mut w = JsonWriter::new();
        write_tail(&mut w, self.fpga_winning_fraction());
        w.end_object();
        w.finish()
    }
}

/// One row-block of a [`GridStream`]: its ratios, row by row, borrowed
/// from the stream's buffer.
#[derive(Debug)]
pub struct GridBlock<'a> {
    start_row: usize,
    columns: usize,
    ratios: &'a [f64],
}

impl GridBlock<'_> {
    /// Absolute index of the block's first row within the grid.
    pub fn start_row(&self) -> usize {
        self.start_row
    }

    /// Number of rows in this block.
    pub fn rows(&self) -> usize {
        self.ratios.len() / self.columns
    }

    /// Iterates one block-relative row's ratios in column order.
    pub fn row(&self, row: usize) -> impl Iterator<Item = f64> + '_ {
        self.ratios[row * self.columns..][..self.columns]
            .iter()
            .copied()
    }

    /// This block's rows in the streamed wire form (see
    /// [`GridStream::head_json`]): JSON arrays separated by commas, with a
    /// leading comma unless the block opens the grid.
    pub fn rows_json(&self) -> Result<String, JsonError> {
        // Ratios print in about 20 bytes; the hint spares most regrowth.
        let mut fragment = String::with_capacity(self.rows() * (self.columns * 25 + 3));
        if self.start_row > 0 {
            fragment.push(',');
        }
        let mut w = JsonWriter::appending(fragment);
        write_rows(&mut w, self.ratios, self.columns);
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
        let lattice = |x_values: Vec<f64>, y_values: Vec<f64>| Lattice {
            domain: Domain::Dnn,
            x_axis: SweepAxis::Applications,
            x_values,
            y_axis: SweepAxis::LifetimeYears,
            y_values,
        };
        let empty = GridSweep {
            lattice: lattice(Vec::new(), Vec::new()),
            ratios: Vec::new(),
        };
        assert_eq!(empty.fpga_winning_fraction(), 0.0);
        assert!(empty.lattice.is_empty());
        // A grid whose coordinate lists disagree with its cells counts over
        // the cells actually present.
        let inconsistent = GridSweep {
            lattice: lattice(vec![1.0, 2.0, 3.0], vec![0.5, 1.0]),
            ratios: vec![0.5, 2.0],
        };
        assert!((inconsistent.fpga_winning_fraction() - 0.5).abs() < 1e-12);
        let no_cells = GridSweep {
            lattice: lattice(vec![1.0], vec![1.0]),
            ratios: Vec::new(),
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
        assert_eq!((grid.lattice.width(), grid.lattice.height()), (3, 4));
        assert_eq!(grid.ratios.len(), 12);
        assert!(grid.ratios.iter().all(|r| r.is_finite() && *r > 0.0));
        let f = grid.fpga_winning_fraction();
        assert!((0.0..=1.0).contains(&f));
        // More apps and shorter lifetimes favour the FPGA: the cell with the
        // most apps and shortest lifetime must have a lower ratio than the
        // cell with the fewest apps and longest lifetime.
        assert!(grid.ratios[2] < grid.ratios[3 * 3]);
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
                assert_eq!(stream.lattice(), &buffered.lattice);
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
                                buffered.ratios[absolute * x_values.len() + c].to_bits(),
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
                            grid.ratios[row * x_values.len() + col].to_bits(),
                            naive.to_bits(),
                            "{x_axis:?} x {y_axis:?} cell ({row},{col}), {threads} threads"
                        );
                    }
                }
            }
        }
    }

    /// The lattice contract, cell by cell through
    /// [`CompiledScenario::evaluate`](crate::CompiledScenario::evaluate):
    /// coordinates are checked first, then the lowest-index validation error
    /// anywhere in the rows wins, then the lowest non-finite cell's error.
    fn reference_lattice(
        compiled: &crate::CompiledScenario,
        (x_axis, x_values): (SweepAxis, &[f64]),
        (y_axis, y_values): (SweepAxis, &[f64]),
        base: OperatingPoint,
    ) -> Result<Vec<f64>, GreenFpgaError> {
        check_axis_values(x_values, "grid values")?;
        check_axis_values(y_values, "grid values")?;
        let mut ratios = Vec::new();
        let mut non_finite = None;
        for &y in y_values {
            for &x in x_values {
                match compiled.evaluate(base.with_axis(y_axis, y).with_axis(x_axis, x)) {
                    Ok(comparison) => ratios.push(comparison.fpga_to_asic_ratio()),
                    Err(error @ GreenFpgaError::NonFinite { .. }) => {
                        non_finite.get_or_insert(error);
                        ratios.push(f64::NAN);
                    }
                    Err(error) => return Err(error),
                }
            }
        }
        non_finite.map_or(Ok(ratios), Err)
    }

    /// Random lattice coordinates on `axis`: fractional counts (exact
    /// halves included), lifetimes that are now and then negative or large
    /// enough to overflow the model, volumes past `u64::MAX`, and rarely a
    /// coordinate that is not finite.
    fn random_coordinates(rng: &mut gf_support::SplitMix64, axis: SweepAxis) -> Vec<f64> {
        let len = 1 + rng.gen_index(9);
        (0..len)
            .map(|_| {
                let pick = rng.gen_index(32);
                match axis {
                    _ if pick == 0 => f64::INFINITY,
                    SweepAxis::LifetimeYears => match pick {
                        1..=2 => -rng.gen_range_f64(0.0, 2.0),
                        3..=4 => rng.gen_range_f64(1e301, 1e304),
                        _ => rng.gen_range_f64(0.0, 6.0),
                    },
                    SweepAxis::Applications => match pick {
                        1..=6 => rng.gen_index(40) as f64 / 2.0,
                        _ => rng.gen_range_f64(0.0, 60.0),
                    },
                    SweepAxis::VolumeUnits => match pick {
                        1 => 1e25,
                        2..=6 => rng.gen_index(4000) as f64 / 2.0,
                        _ => rng.gen_range_f64(0.0, 5e7),
                    },
                }
            })
            .collect()
    }

    /// Runs `cases` seeded lattices through [`CompiledScenario::ratio_grid`]
    /// and every block of [`CompiledScenario::grid_stream`] against
    /// [`reference_lattice`] — random domains, knobs, axes (x == y
    /// included), coordinates, base points, block heights and thread counts
    /// 1–3 — and returns how many lattices completed, failed with a
    /// validation error and failed on a non-finite number.
    fn lattice_differential(seed: u64, cases: usize) -> [usize; 3] {
        use crate::Knob;

        let axes = [
            SweepAxis::Applications,
            SweepAxis::LifetimeYears,
            SweepAxis::VolumeUnits,
        ];
        let mut rng = gf_support::SplitMix64::new(seed);
        let mut outcomes = [0; 3];
        for case in 0..cases {
            let mut params = crate::EstimatorParams::paper_defaults();
            for knob in Knob::ALL {
                if rng.gen_bool() {
                    let range = knob.range();
                    knob.apply_mut(&mut params, rng.gen_range_f64(range.low, range.high));
                }
            }
            let domain = Domain::ALL[rng.gen_index(Domain::ALL.len())];
            let compiled = crate::CompiledScenario::compile(&params, domain).unwrap();
            let (x_axis, y_axis) = (axes[rng.gen_index(3)], axes[rng.gen_index(3)]);
            let x_values = random_coordinates(&mut rng, x_axis);
            let y_values = random_coordinates(&mut rng, y_axis);
            let base = OperatingPoint {
                applications: rng.gen_range_u64(0, 6),
                lifetime_years: rng.gen_range_f64(0.0, 4.0),
                volume: rng.gen_range_u64(0, 3) * 400_000,
            };
            let threads = 1 + rng.gen_index(3);
            let block_rows = 1 + rng.gen_index(y_values.len() + 1);
            let at = format!(
                "case {case}: {domain} {x_axis:?} {x_values:?} x {y_axis:?} {y_values:?} \
                 at {base:?}, {threads} threads, {block_rows}-row blocks"
            );
            let x = (x_axis, x_values.as_slice());
            let expected = reference_lattice(&compiled, x, (y_axis, &y_values), base);
            let buffered = compiled.ratio_grid(x_axis, &x_values, y_axis, &y_values, base, threads);
            match (&expected, &buffered) {
                (Ok(ratios), Ok(grid)) => {
                    let cells: Vec<u64> = grid.ratios.iter().map(|r| r.to_bits()).collect();
                    let want: Vec<u64> = ratios.iter().map(|r| r.to_bits()).collect();
                    assert_eq!(cells, want, "{at}");
                    outcomes[0] += 1;
                }
                (Err(want), Err(got)) => {
                    assert_eq!(got, want, "{at}");
                    let non_finite = matches!(want, GreenFpgaError::NonFinite { .. });
                    outcomes[1 + usize::from(non_finite)] += 1;
                }
                _ => panic!("{at}: expected {expected:?}, got {buffered:?}"),
            }
            let stream = compiled.grid_stream(
                x_axis,
                x_values.clone(),
                y_axis,
                y_values.clone(),
                base,
                threads,
            );
            let mut stream = match stream {
                Ok(stream) => stream.with_block_rows(block_rows),
                Err(error) => {
                    assert_eq!(Err(error), expected, "{at}: stream start");
                    continue;
                }
            };
            loop {
                let start = stream.rows_delivered();
                let rows = &y_values[start..(start + block_rows).min(y_values.len())];
                let Some(block) = stream.next_block() else {
                    break;
                };
                let want = reference_lattice(&compiled, x, (y_axis, rows), base);
                match (block, want) {
                    (Ok(block), Ok(ratios)) => {
                        let cells: Vec<u64> = (0..block.rows())
                            .flat_map(|row| block.row(row).collect::<Vec<_>>())
                            .map(f64::to_bits)
                            .collect();
                        let want: Vec<u64> = ratios.iter().map(|r| r.to_bits()).collect();
                        assert_eq!(cells, want, "{at}: block at row {start}");
                    }
                    (Err(got), Err(want)) => assert_eq!(got, want, "{at}: block at row {start}"),
                    (got, want) => panic!("{at}: block at row {start}: {got:?}, want {want:?}"),
                }
            }
            assert!(stream.is_finished(), "{at}: a failed block ends the stream");
            if let Ok(grid) = &buffered {
                let fraction = stream.fpga_winning_fraction();
                assert_eq!(
                    fraction.to_bits(),
                    grid.fpga_winning_fraction().to_bits(),
                    "{at}"
                );
            }
        }
        outcomes
    }

    #[test]
    fn lattice_matches_per_cell_evaluation() {
        let outcomes = lattice_differential(0x5EED_0000_0030_0001, 48);
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "every outcome occurs: {outcomes:?}"
        );
    }

    #[test]
    #[ignore = "long differential run; CI runs it in release with --ignored"]
    fn lattice_matches_per_cell_evaluation_long_run() {
        lattice_differential(0x5EED_0000_0030_0002, 20_000);
    }

    #[test]
    fn axis_labels_match_paper_terms() {
        assert_eq!(SweepAxis::Applications.label(), "Num Apps");
        assert_eq!(SweepAxis::LifetimeYears.label(), "App Lifetime (years)");
        assert_eq!(SweepAxis::VolumeUnits.label(), "App Volume (units)");
    }
}
