//! Plain-text report rendering shared by every scenario: aligned
//! tables, fixed-height ASCII charts, and percentage formatting.

/// Renders an aligned plain-text table.
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[c]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Renders a numeric series as a fixed-height ASCII chart (for the
/// "figure" experiments).
pub fn ascii_chart(values: &[f64], height: usize, width: usize) -> String {
    if values.is_empty() || height == 0 || width == 0 {
        return String::new();
    }
    // Downsample to `width` columns by averaging.
    let cols: Vec<f64> = (0..width)
        .map(|c| {
            let lo = c * values.len() / width;
            let hi = (((c + 1) * values.len()) / width)
                .max(lo + 1)
                .min(values.len());
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let min = cols.iter().cloned().fold(f64::MAX, f64::min);
    let max = cols.iter().cloned().fold(f64::MIN, f64::max);
    let span = (max - min).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for (c, &v) in cols.iter().enumerate() {
        let r = ((v - min) / span * (height - 1) as f64).round() as usize;
        grid[height - 1 - r][c] = '*';
    }
    let mut out = String::new();
    out.push_str(&format!("{max:10.4} ┐\n"));
    for row in grid {
        out.push_str("           │");
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!("{min:10.4} ┘\n"));
    out
}

/// Formats a fraction as a signed percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer", "22"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("longer"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        TextTable::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn chart_handles_series() {
        let values: Vec<f64> = (0..100).map(|k| (k as f64 / 10.0).sin()).collect();
        let chart = ascii_chart(&values, 8, 40);
        assert_eq!(chart.lines().count(), 10);
        assert!(chart.contains('*'));
        assert!(ascii_chart(&[], 8, 40).is_empty());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.0123), "+1.23%");
        assert_eq!(pct(-0.5), "-50.00%");
    }
}
