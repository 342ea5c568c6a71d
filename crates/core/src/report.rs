//! Plain-text / markdown table rendering for experiment output.
//!
//! Every experiment binary (the `exp_*` binaries in `crates/bench`) prints its results
//! as GitHub-flavoured markdown tables built here, so the rows paste straight into
//! any markdown document.

/// A simple column-aligned markdown table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the number of cells must match the number of headers.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as column-aligned GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let columns = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for i in 0..columns {
                line.push(' ');
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
                line.push_str(" |");
            }
            line
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push('|');
        for width in &widths {
            out.push_str(&"-".repeat(width + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 2 decimal places (the default for table cells).
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimal places.
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(["n", "rounds", "work/ball"]);
        t.row(["1024", "12", "4.20"]);
        t.row(["65536", "18", "4.55"]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| n "));
        assert!(lines[1].starts_with("|--"));
        assert!(lines[2].contains("1024"));
        assert!(lines[3].contains("65536"));
        // All lines have equal width thanks to the alignment.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn row_arity_is_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(["x"]);
        assert!(t.is_empty());
        let md = t.to_markdown();
        assert_eq!(md.lines().count(), 2);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt2(1.23456), "1.23");
        assert_eq!(fmt3(2.0), "2.000");
    }
}
