//! Small plain-text reporting helpers shared by the paper artifacts.

/// A fixed-column text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; extra/missing cells versus the header count are
    /// allowed but render unpadded.
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    fn column_widths(&self) -> Vec<usize> {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        (0..columns)
            .map(|c| {
                std::iter::once(self.headers.get(c).map_or(0, String::len))
                    .chain(self.rows.iter().map(|r| r.get(c).map_or(0, String::len)))
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let widths = self.column_widths();
        writeln!(f, "=== {} ===", self.title)?;
        let render_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, cell)| {
                    format!(
                        "{:>width$}",
                        cell,
                        width = widths.get(i).copied().unwrap_or(0)
                    )
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", render_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1))
        )?;
        for row in &self.rows {
            writeln!(f, "{}", render_row(row))?;
        }
        Ok(())
    }
}

/// Formats a float with the given number of decimals.
#[must_use]
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a ratio as a percentage with no decimals.
#[must_use]
pub fn fmt_pct(value: f64) -> String {
    format!("{:.0}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["scheme", "TFLOPS"]);
        t.add_row(vec!["Q8_20%".to_string(), fmt_f(std::f64::consts::PI, 2)]);
        t.add_row(vec!["Q4".to_string(), fmt_f(12.0, 2)]);
        let text = t.to_string();
        assert!(text.contains("=== Demo ==="));
        assert!(text.contains("Q8_20%"));
        assert!(text.contains("3.14"));
        // Title, header, rule and the two rows.
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(1.23456, 3), "1.235");
        assert_eq!(fmt_pct(0.934), "93%");
    }
}
