//! Plain-text and CSV rendering of results.
//!
//! The experiment harness regenerates the paper's tables and figures as
//! text: aligned tables for the console, CSV for plotting, and a coarse
//! character heatmap for the Fig. 8 grids.

use crate::{FrontierResult, GridSweep, Lattice};

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
        self.push_row(&mut out, y_value, ratios.map(Self::glyph));
        out
    }

    /// Appends one row line: the y label, then each glyph and a space.
    fn push_row(&self, out: &mut String, y_value: f64, glyphs: impl Iterator<Item = char>) {
        if self.with_labels {
            out.push_str(&format!("{y_value:>12.3} | "));
        }
        for glyph in glyphs {
            out.push(glyph);
            out.push(' ');
        }
        out.push('\n');
    }

    /// The frame both maps share: the title line, the rows top-down in
    /// descending y-value order so the origin sits at the lower left, like
    /// the paper's heatmaps, and the labeled axis footer.
    fn frame(
        &self,
        title: &str,
        lattice: &Lattice,
        glyph: impl Fn(usize, usize) -> char,
    ) -> String {
        let mut out = format!("{title}\n");
        for row in (0..lattice.height()).rev() {
            let glyphs = (0..lattice.width()).map(|col| glyph(row, col));
            self.push_row(&mut out, lattice.y_values[row], glyphs);
        }
        if self.with_labels {
            let (x_values, width) = (&lattice.x_values, lattice.width());
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

    /// Renders the grid (see [`HeatmapRenderer`] for the glyphs).
    pub fn render(&self, grid: &GridSweep) -> String {
        let lattice = &grid.lattice;
        let title = format!(
            "FPGA:ASIC CFP ratio — x: {}, y: {} ('#','+' FPGA wins, '=', '.', ' ' ASIC wins)",
            lattice.x_axis.label(),
            lattice.y_axis.label()
        );
        let width = lattice.width();
        self.frame(&title, lattice, |row, col| {
            Self::glyph(grid.ratios[row * width + col])
        })
    }

    /// Renders an adaptively refined [`FrontierResult`] winner map: `#`
    /// where the FPGA wins, `.` where the ASIC does, and `=` on the
    /// crossover frontier itself (cells with a 4-neighbour of the opposite
    /// winner), in the same frame as [`HeatmapRenderer::render`].
    pub fn render_frontier(&self, frontier: &FrontierResult) -> String {
        let lattice = &frontier.lattice;
        let (width, height) = (lattice.width(), lattice.height());
        let title = format!(
            "FPGA-vs-ASIC winner map — x: {}, y: {} ('#' FPGA wins, '.' ASIC wins, '=' frontier); {} of {} cells evaluated ({:.1}%)",
            lattice.x_axis.label(),
            lattice.y_axis.label(),
            frontier.evaluations(),
            width * height,
            frontier.evaluated_fraction() * 100.0
        );
        let wins = |row, col| frontier.fpga_wins(row, col);
        self.frame(&title, lattice, |row, col| {
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
                '='
            } else if here {
                '#'
            } else {
                '.'
            }
        })
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
            lattice: Lattice {
                domain: Domain::Dnn,
                x_axis: SweepAxis::Applications,
                x_values: vec![1.0, 2.0, 3.0],
                y_axis: SweepAxis::LifetimeYears,
                y_values: vec![0.5, 1.0],
            },
            ratios: vec![0.4, 1.0, 2.5, 0.9, 1.2, 3.0],
        };
        // Rows print top-down (the last y first), each cell as a glyph and
        // a space, then the labeled frame's axis footer.
        let labeled = concat!(
            "FPGA:ASIC CFP ratio — x: Num Apps, y: App Lifetime (years) ('#','+' FPGA wins, '=', '.', ' ' ASIC wins)\n",
            "       1.000 | + .   \n",
            "       0.500 | # =   \n",
            "             +-------\n",
            "              x from 1.000 to 3.000\n",
        );
        assert_eq!(HeatmapRenderer::new().render(&grid), labeled);
        let unlabeled = concat!(
            "FPGA:ASIC CFP ratio — x: Num Apps, y: App Lifetime (years) ('#','+' FPGA wins, '=', '.', ' ' ASIC wins)\n",
            "+ .   \n",
            "# =   \n",
        );
        assert_eq!(HeatmapRenderer::default().render(&grid), unlabeled);
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
        // '=' marks every cell with a 4-neighbour of the other winner.
        let labeled = concat!(
            "FPGA-vs-ASIC winner map — x: Num Apps, y: App Lifetime (years) ('#' FPGA wins, '.' ASIC wins, '=' frontier); 60 of 120 cells evaluated (50.0%)\n",
            "       2.500 | . . . . = = # # # # # # \n",
            "       2.250 | . . . . = = # # # # # # \n",
            "       2.000 | . . . . = = # # # # # # \n",
            "       1.750 | . . . . = = # # # # # # \n",
            "       1.500 | . . . = = # # # # # # # \n",
            "       1.250 | . . . = = # # # # # # # \n",
            "       1.000 | . . . = = # # # # # # # \n",
            "       0.750 | . . . = = # # # # # # # \n",
            "       0.500 | . . . = = # # # # # # # \n",
            "       0.250 | . . . = = # # # # # # # \n",
            "             +-------------------------\n",
            "              x from 1.000 to 12.000\n",
        );
        assert_eq!(HeatmapRenderer::new().render_frontier(&frontier), labeled);
        let unlabeled = concat!(
            "FPGA-vs-ASIC winner map — x: Num Apps, y: App Lifetime (years) ('#' FPGA wins, '.' ASIC wins, '=' frontier); 60 of 120 cells evaluated (50.0%)\n",
            ". . . . = = # # # # # # \n",
            ". . . . = = # # # # # # \n",
            ". . . . = = # # # # # # \n",
            ". . . . = = # # # # # # \n",
            ". . . = = # # # # # # # \n",
            ". . . = = # # # # # # # \n",
            ". . . = = # # # # # # # \n",
            ". . . = = # # # # # # # \n",
            ". . . = = # # # # # # # \n",
            ". . . = = # # # # # # # \n",
        );
        assert_eq!(
            HeatmapRenderer::default().render_frontier(&frontier),
            unlabeled
        );
    }
}
