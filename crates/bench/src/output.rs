//! Table rendering and CSV artifact output for the experiment binaries.

use rpas_obs::catalog;
use std::path::PathBuf;

/// A simple aligned text table (what the binaries print to stdout).
#[derive(Debug, Clone)]
pub(crate) struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers, borrowed or owned.
    pub(crate) fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row of preformatted cells.
    ///
    /// # Panics
    /// Panics if the width differs from the header row.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "table row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout with a title banner.
    #[expect(clippy::print_stdout, reason = "the printed table is an experiment bin's product")]
    pub(crate) fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Format a float for a table cell (4 significant decimals).
pub(crate) fn f(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A table row: a label, then each value formatted by [`f`].
pub(crate) fn labelled(label: impl Into<String>, values: &[f64]) -> Vec<String> {
    std::iter::once(label.into()).chain(values.iter().map(|&v| f(v))).collect()
}

/// Where experiment artifacts (the CSVs) are written: flat under
/// `$RPAS_RESULTS_DIR` when set (to compare runs in isolation), otherwise
/// under `results/` at the workspace root.
pub(crate) fn results_path(name: &str) -> PathBuf {
    if let Ok(dir) = std::env::var("RPAS_RESULTS_DIR") {
        return PathBuf::from(dir).join(name);
    }
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map(|p| p.parent().and_then(|p| p.parent()).map(|p| p.to_path_buf()).unwrap_or(p))
        .unwrap_or_else(|_| PathBuf::from("."));
    root.join("results").join(name)
}

/// Write named columns, borrowed or owned, as a CSV artifact under
/// `results/`.
#[expect(clippy::print_stdout, reason = "tells the operator where the CSV went")]
pub(crate) fn write_csv<N: AsRef<str>, C: AsRef<[f64]>>(name: &str, columns: &[(N, C)]) {
    let path = results_path(name);
    let columns: Vec<(&str, &[f64])> = columns.iter().map(|(n, c)| (n.as_ref(), c.as_ref())).collect();
    if let Err(err) = rpas_traces::csv::write_columns_to_path(&path, &columns) {
        crate::bench_obs().emit(catalog::BENCH_WRITE_FAILED, |e| {
            e.field("path", path.display().to_string()).field("error", err.to_string());
        });
    } else {
        println!("[wrote {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["model", "mse"]);
        t.row(vec!["arima".into(), "411.1".into()]);
        t.row(vec!["tft".into(), "3.1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("model"));
        assert!(lines[2].starts_with("arima"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.00412), "0.0041");
        assert_eq!(f(411.123), "411.1");
    }
}
