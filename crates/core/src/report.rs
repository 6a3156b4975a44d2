//! Plain-text and CSV rendering of results.
//!
//! The experiment harness regenerates the paper's tables and figures as
//! text: aligned tables for the console, CSV for plotting, and a coarse
//! character heatmap for the Fig. 8 grids.

use crate::{FrontierResult, GridSweep};

/// Renders an aligned plain-text table.
///
/// # Examples
///
/// ```
/// use greenfpga::render_table;
///
/// let table = render_table(
///     &["Domain", "FPGA", "ASIC"],
///     &[vec!["DNN".to_string(), "1.2".to_string(), "1.0".to_string()]],
/// );
/// assert!(table.contains("Domain"));
/// assert!(table.contains("DNN"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            if cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }

    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, width) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(i).unwrap_or(&empty);
            line.push_str(&format!(" {cell:<width$} |"));
        }
        line.push('\n');
        line
    };
    let separator = {
        let mut line = String::from("+");
        for width in &widths {
            line.push_str(&"-".repeat(width + 2));
            line.push('+');
        }
        line.push('\n');
        line
    };

    out.push_str(&separator);
    out.push_str(&render_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push_str(&separator);
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out.push_str(&separator);
    out
}

/// Renders rows as CSV with a header line. Cells containing commas or
/// quotes are quoted and escaped.
pub fn csv_from_rows(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn escape(cell: &str) -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| escape(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Renders a [`GridSweep`] as a coarse character heatmap.
///
/// Cells where the FPGA wins (ratio < 1) are drawn with `#`/`+` shades,
/// cells where the ASIC wins with `.`/` ` shades, and the crossover contour
/// (ratio ≈ 1) with `=` — mirroring the pink iso-line of the paper's Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeatmapRenderer {
    /// Include numeric row/column coordinate labels.
    pub with_labels: bool,
}

impl HeatmapRenderer {
    /// Creates a renderer with coordinate labels enabled.
    pub fn new() -> Self {
        HeatmapRenderer { with_labels: true }
    }

    fn glyph(ratio: f64) -> char {
        if !ratio.is_finite() {
            return '?';
        }
        if (ratio - 1.0).abs() < 0.05 {
            '='
        } else if ratio < 0.5 {
            '#'
        } else if ratio < 1.0 {
            '+'
        } else if ratio < 2.0 {
            '.'
        } else {
            ' '
        }
    }

    /// Renders one streamed grid row in the same glyph alphabet as
    /// [`HeatmapRenderer::render`]. Streamed delivery is ascending-y
    /// evaluation order, so callers print rows as they arrive instead of
    /// buffering the whole grid for the top-down frame.
    pub fn render_row(&self, y_value: f64, ratios: impl Iterator<Item = f64>) -> String {
        let mut out = String::new();
        if self.with_labels {
            out.push_str(&format!("{y_value:>12.3} | "));
        }
        for ratio in ratios {
            out.push(Self::glyph(ratio));
            out.push(' ');
        }
        out.push('\n');
        out
    }

    /// Renders the grid; rows are printed top-to-bottom in descending
    /// y-value order so the origin sits at the lower left, like the paper's
    /// heatmaps.
    pub fn render(&self, grid: &GridSweep) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "FPGA:ASIC CFP ratio — x: {}, y: {} ('#','+' FPGA wins, '=', '.', ' ' ASIC wins)\n",
            grid.x_axis.label(),
            grid.y_axis.label()
        ));
        for (row_idx, row) in grid.ratios.iter().enumerate().rev() {
            if self.with_labels {
                out.push_str(&format!("{:>12.3} | ", grid.y_values[row_idx]));
            }
            for &ratio in row {
                out.push(Self::glyph(ratio));
                out.push(' ');
            }
            out.push('\n');
        }
        if self.with_labels {
            out.push_str(&format!(
                "{:>12} +-{}\n",
                "",
                "--".repeat(grid.x_values.len())
            ));
            out.push_str(&format!(
                "{:>14}x from {:.3} to {:.3}\n",
                "",
                grid.x_values.first().copied().unwrap_or(0.0),
                grid.x_values.last().copied().unwrap_or(0.0)
            ));
        }
        out
    }

    /// Renders an adaptively refined [`FrontierResult`] winner map: `#`
    /// where the FPGA wins, `.` where the ASIC does, and `=` on the
    /// crossover frontier itself (cells with a neighbour of the opposite
    /// winner), in the same lower-left-origin orientation as
    /// [`HeatmapRenderer::render`].
    pub fn render_frontier(&self, frontier: &FrontierResult) -> String {
        self.render_winner_map(
            frontier.x_axis.label(),
            frontier.y_axis.label(),
            &frontier.x_values,
            &frontier.y_values,
            |row, col| frontier.fpga_wins(row, col),
            frontier.evaluations(),
            frontier.evaluated_fraction(),
        )
    }

    /// Renders a wire-form [`crate::api::FrontierResponse`] winner map —
    /// the same body as [`HeatmapRenderer::render_frontier`], computed from
    /// the mask the response carries, so remote clients (and the CLI's
    /// engine adapter) render identically without the engine-side
    /// [`FrontierResult`].
    pub fn render_frontier_response(&self, frontier: &crate::api::FrontierResponse) -> String {
        self.render_winner_map(
            frontier.x_axis.label(),
            frontier.y_axis.label(),
            &frontier.x_values,
            &frontier.y_values,
            |row, col| frontier.fpga_wins[row][col],
            frontier.evaluations as usize,
            frontier.evaluated_fraction,
        )
    }

    /// The shared winner-map body behind [`HeatmapRenderer::render_frontier`]
    /// and [`HeatmapRenderer::render_frontier_response`]: glyph grid,
    /// 4-neighbour frontier marking, header and axis footer. One body, so
    /// the engine-side and wire-side renderings cannot diverge.
    #[allow(clippy::too_many_arguments)]
    fn render_winner_map(
        &self,
        x_label: &str,
        y_label: &str,
        x_values: &[f64],
        y_values: &[f64],
        wins: impl Fn(usize, usize) -> bool,
        evaluations: usize,
        evaluated_fraction: f64,
    ) -> String {
        let width = x_values.len();
        let height = y_values.len();
        let mut glyphs: Vec<Vec<char>> = (0..height)
            .map(|row| {
                (0..width)
                    .map(|col| if wins(row, col) { '#' } else { '.' })
                    .collect()
            })
            .collect();
        // Frontier cells: any 4-neighbour with the opposite winner (the
        // same rule as `FrontierResult::frontier_cells`).
        for (row, glyph_row) in glyphs.iter_mut().enumerate() {
            for (col, glyph) in glyph_row.iter_mut().enumerate() {
                let here = wins(row, col);
                let neighbours = [
                    row.checked_sub(1).map(|r| (r, col)),
                    (row + 1 < height).then_some((row + 1, col)),
                    col.checked_sub(1).map(|c| (row, c)),
                    (col + 1 < width).then_some((row, col + 1)),
                ];
                if neighbours
                    .into_iter()
                    .flatten()
                    .any(|(r, c)| wins(r, c) != here)
                {
                    *glyph = '=';
                }
            }
        }

        let mut out = String::new();
        out.push_str(&format!(
            "FPGA-vs-ASIC winner map — x: {x_label}, y: {y_label} ('#' FPGA wins, '.' ASIC wins, '=' frontier); {evaluations} of {} cells evaluated ({:.1}%)\n",
            width * height,
            evaluated_fraction * 100.0
        ));
        for (row_idx, row) in glyphs.iter().enumerate().rev() {
            if self.with_labels {
                out.push_str(&format!("{:>12.3} | ", y_values[row_idx]));
            }
            for &glyph in row {
                out.push(glyph);
                out.push(' ');
            }
            out.push('\n');
        }
        if self.with_labels {
            out.push_str(&format!("{:>12} +-{}\n", "", "--".repeat(width)));
            out.push_str(&format!(
                "{:>14}x from {:.3} to {:.3}\n",
                "",
                x_values.first().copied().unwrap_or(0.0),
                x_values.last().copied().unwrap_or(0.0)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, SweepAxis};

    fn rows() -> Vec<Vec<String>> {
        vec![
            vec!["DNN".into(), "1.20".into(), "1.00".into()],
            vec!["Crypto".into(), "0.70".into(), "1.00".into()],
        ]
    }

    #[test]
    fn table_contains_all_cells_and_aligns() {
        let t = render_table(&["Domain", "FPGA", "ASIC"], &rows());
        assert!(t.contains("| Domain"));
        assert!(t.contains("| Crypto"));
        assert!(t.contains("0.70"));
        // Every data line has the same width.
        let widths: Vec<usize> = t.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn table_handles_short_rows() {
        let t = render_table(&["A", "B"], &[vec!["only".into()]]);
        assert!(t.contains("only"));
    }

    #[test]
    fn csv_escapes_special_cells() {
        let csv = csv_from_rows(
            &["name", "value"],
            &[
                vec!["a,b".into(), "say \"hi\"".into()],
                vec!["plain".into(), "1".into()],
            ],
        );
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "name,value");
        assert_eq!(lines.next().unwrap(), "\"a,b\",\"say \"\"hi\"\"\"");
        assert_eq!(lines.next().unwrap(), "plain,1");
    }

    #[test]
    fn heatmap_glyphs_cover_ratio_ranges() {
        assert_eq!(HeatmapRenderer::glyph(0.2), '#');
        assert_eq!(HeatmapRenderer::glyph(0.8), '+');
        assert_eq!(HeatmapRenderer::glyph(1.0), '=');
        assert_eq!(HeatmapRenderer::glyph(1.5), '.');
        assert_eq!(HeatmapRenderer::glyph(5.0), ' ');
        assert_eq!(HeatmapRenderer::glyph(f64::NAN), '?');
    }

    #[test]
    fn heatmap_renders_every_cell() {
        let grid = GridSweep {
            domain: Domain::Dnn,
            x_axis: SweepAxis::Applications,
            x_values: vec![1.0, 2.0, 3.0],
            y_axis: SweepAxis::LifetimeYears,
            y_values: vec![0.5, 1.0],
            ratios: vec![vec![0.4, 1.0, 2.5], vec![0.9, 1.2, 3.0]],
        };
        let rendered = HeatmapRenderer::new().render(&grid);
        assert!(rendered.contains('#'));
        assert!(rendered.contains('='));
        assert!(rendered.contains("Num Apps"));
        // Two data rows plus header/footer.
        assert!(rendered.lines().count() >= 4);
        let unlabeled = HeatmapRenderer::default().render(&grid);
        assert!(unlabeled.lines().count() >= 3);
    }

    #[test]
    fn frontier_rendering_marks_both_regions_and_the_contour() {
        use crate::{Estimator, OperatingPoint};
        let apps: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        let lifetimes: Vec<f64> = (1..=10).map(|i| 0.25 * i as f64).collect();
        let frontier = Estimator::default()
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
        let rendered = HeatmapRenderer::new().render_frontier(&frontier);
        assert!(rendered.contains('#') && rendered.contains('.') && rendered.contains('='));
        assert!(rendered.contains("cells evaluated"));
        assert!(rendered.contains("Num Apps"));
        // One line per row plus header and two footer lines.
        assert_eq!(rendered.lines().count(), lifetimes.len() + 3);
        let unlabeled = HeatmapRenderer::default().render_frontier(&frontier);
        assert_eq!(unlabeled.lines().count(), lifetimes.len() + 1);
    }
}
