//! Fixed-width plain-text tables for experiment reports.

use core::fmt;

/// Column alignment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    #[default]
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple fixed-width text table.
///
/// Every experiment driver renders its figure/table through this type so
/// that `reproduce` prints the same rows the paper reports.
///
/// # Examples
///
/// ```
/// use stacksim_stats::{Align, Table};
///
/// let mut t = Table::new(vec!["mix".into(), "speedup".into()]);
/// t.align(1, Align::Right);
/// t.row(vec!["H1".into(), "2.17".into()]);
/// let s = t.to_string();
/// assert!(s.contains("H1"));
/// assert!(s.contains("2.17"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        let aligns = vec![Align::Left; headers.len()];
        Table {
            headers,
            aligns,
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title rendered above the table.
    pub fn title(&mut self, title: impl Into<String>) -> &mut Self {
        self.title = Some(title.into());
        self
    }

    /// Sets the alignment of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn align(&mut self, col: usize, align: Align) -> &mut Self {
        self.aligns[col] = align;
        self
    }

    /// Right-aligns every column except the first (the common numeric shape).
    pub fn numeric(&mut self) -> &mut Self {
        for a in self.aligns.iter_mut().skip(1) {
            *a = Align::Right;
        }
        self
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends a row from anything displayable.
    pub fn row_display<D: fmt::Display>(&mut self, cells: &[D]) -> &mut Self {
        self.row(cells.iter().map(|c| c.to_string()).collect())
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Looks up a cell as text.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row)?.get(col).map(String::as_str)
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Iterates over the data rows.
    pub fn rows(&self) -> impl Iterator<Item = &[String]> {
        self.rows.iter().map(Vec::as_slice)
    }

    /// The title, if set.
    pub fn title_text(&self) -> Option<&str> {
        self.title.as_deref()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        if let Some(title) = &self.title {
            writeln!(f, "== {title} ==")?;
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for i in 0..cols {
                if i > 0 {
                    write!(f, "  ")?;
                }
                match self.aligns[i] {
                    Align::Left => write!(f, "{:<width$}", cells[i], width = widths[i])?,
                    Align::Right => write!(f, "{:>width$}", cells[i], width = widths[i])?,
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name".into(), "val".into()]);
        t.numeric();
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "name   val");
        assert_eq!(lines[2], "alpha    1");
        assert_eq!(lines[3], "b       22");
    }

    #[test]
    fn title_is_rendered() {
        let mut t = Table::new(vec!["a".into()]);
        t.title("Figure 4");
        t.row(vec!["x".into()]);
        assert!(t.to_string().starts_with("== Figure 4 =="));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn cell_lookup() {
        let mut t = Table::new(vec!["a".into()]);
        t.row_display(&[42]);
        assert_eq!(t.cell(0, 0), Some("42"));
        assert_eq!(t.cell(1, 0), None);
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn structured_accessors() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.title("T");
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.headers(), &["a".to_string(), "b".to_string()]);
        assert_eq!(
            t.rows().next().unwrap(),
            &["1".to_string(), "2".to_string()]
        );
        assert_eq!(t.title_text(), Some("T"));
    }
}
