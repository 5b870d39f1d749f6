//! Minimal aligned-column table printing for harness output.

/// A simple text table with a title, a header row and data rows.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:>w$}", w = w));
                if i + 1 < cols {
                    line.push_str("  ");
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats nanoseconds with an adaptive unit (re-export convenience).
pub fn ns(v: u64) -> String {
    gengar_workloads::stats::fmt_ns(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["much-longer-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("much-longer-name"));
        let lines: Vec<&str> = s.lines().filter(|l| l.contains("1")).collect();
        assert!(!lines.is_empty());
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn ns_formats() {
        assert_eq!(ns(1500), "1.50us");
    }
}
