//! Plain-text tables for experiment output.

use std::fmt;

/// A titled table with a header row and data rows, rendered as
/// markdown-compatible plain text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (the experiment id and claim).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and headers.
    pub fn new<S: Into<String>>(title: S, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row (the experiments fill their tables; callers
    /// outside the crate render them).
    pub(crate) fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        writeln!(f)?;
        let widths = self.column_widths();
        let render_row = |cells: &[String]| -> String {
            let mut out = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out
        };
        writeln!(f, "{}", render_row(&self.headers))?;
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<width$}|", "", width = w + 2));
        }
        writeln!(f, "{sep}")?;
        for row in &self.rows {
            writeln!(f, "{}", render_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown_like_table() {
        let mut t = Table::new("E0 — demo", &["name", "value"]);
        assert!(t.is_empty());
        t.push_row(["alpha", "1"]);
        t.push_row(["beta-longer", "22"]);
        assert_eq!(t.len(), 2);
        let text = format!("{t}");
        assert!(text.starts_with("## E0 — demo"));
        assert!(text.contains("| name        | value |"));
        assert!(text.contains("| beta-longer | 22    |"));
        assert!(text.lines().any(|l| l.starts_with("|---")));
    }

    #[test]
    fn tolerates_ragged_rows() {
        let mut t = Table::new("ragged", &["a"]);
        t.push_row(["1", "extra"]);
        let text = format!("{t}");
        assert!(text.contains("extra"));
    }
}
