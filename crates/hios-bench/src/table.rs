//! Result tables: CSV and markdown emission.

use std::path::Path;

/// A named result table (one per figure).
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// File stem, e.g. "fig07_num_gpus".
    pub name: String,
    /// Human title, e.g. "Fig. 7: inference latency vs number of GPUs".
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of formatted cells; every row has `columns.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            name: name.into(),
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the cell count does not match the header.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "ragged row in {}", self.name);
        self.rows.push(row);
    }

    /// CSV rendering (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// GitHub-flavoured markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out.push('\n');
        out
    }

    /// Writes the CSV rendering to `path`, creating its directory.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Formats a `mean ± std` cell.
pub fn pm(mean: f64, std: f64) -> String {
    format!("{mean:.2}±{std:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t", "Title", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        t
    }

    #[test]
    fn csv_and_markdown() {
        let t = sample();
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
        let md = t.to_markdown();
        assert!(md.contains("### Title"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "ragged row")]
    fn ragged_rows_panic() {
        let mut t = sample();
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("hios_bench_table_test");
        let _ = std::fs::remove_dir_all(&dir);
        sample().write_csv(&dir.join("t.csv")).unwrap();
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pm(1.234, 0.5), "1.23±0.50");
        assert_eq!(f3(2.0 / 3.0), "0.667");
    }
}
