//! Minimal CSV writing for experiment outputs (no external dependency).
//! This is the engine's CSV sink, also used directly by the figure
//! binaries.

use std::fmt::Display;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// A CSV table under construction.
///
/// # Example
///
/// ```
/// use xp::table::Table;
///
/// let mut t = Table::new(&["n", "diameter"]);
/// t.row(&[&4, &2]);
/// assert_eq!(t.to_csv(), "n,diameter\n4,2\n");
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| (*s).to_owned()).collect(), rows: Vec::new() }
    }

    /// Appends a row; each cell is rendered with `Display`.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header width.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row width must match header");
        self.rows.push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column names, in order.
    #[must_use]
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Rendered data rows, in insertion order.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as CSV text (comma-separated, `\n` line ends).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the table to `path`, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut file = fs::File::create(path)?;
        file.write_all(self.to_csv().as_bytes())
    }
}

/// Formats a float with 3 decimal places for CSV cells.
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut t = Table::new(&["a", "b"]);
        assert!(t.is_empty());
        t.row(&[&1, &"x"]);
        t.row(&[&2.5, &"y"]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.to_csv(), "a,b\n1,x\n2.5,y\n");
        assert_eq!(t.header(), &["a".to_owned(), "b".to_owned()]);
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("xp_csv_test");
        let path = dir.join("t.csv");
        let mut t = Table::new(&["x"]);
        t.row(&[&42]);
        t.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n42\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn f3_formatting() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f3(2.0), "2.000");
    }
}
