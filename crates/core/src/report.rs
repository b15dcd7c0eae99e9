//! Plain-text table rendering for the reproduced results.
//!
//! Every experiment's report implements `Display` using these helpers so
//! `reproduce_all` and the other examples print rows shaped like the
//! paper's tables and figure series.

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a header row.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with column alignment.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Write rows as CSV (quoting cells that contain commas/quotes), for
/// downstream plotting of the reproduced figures.
pub fn write_csv<W: std::io::Write>(
    mut w: W,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    let quote = |cell: &str| -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    writeln!(w, "{}", header.iter().map(|h| quote(h)).collect::<Vec<_>>().join(","))?;
    for row in rows {
        writeln!(w, "{}", row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","))?;
    }
    Ok(())
}

/// Render a `(x, y)` series compactly for figure reproductions.
pub fn series_line(label: &str, points: &[(f64, f64)]) -> String {
    let body: Vec<String> =
        points.iter().map(|(x, y)| format!("({x:.0}, {y:.2})")).collect();
    format!("{label}: {}", body.join(" "))
}

/// Format a paper-vs-measured comparison cell.
pub fn compare(paper: f64, measured: f64) -> String {
    let err = if paper.abs() > f64::EPSILON {
        format!("{:+.0}%", (measured - paper) / paper * 100.0)
    } else {
        "n/a".to_string()
    };
    format!("paper {paper:.1} / ours {measured:.1} ({err})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["Platform", "Tput (Kbps)"]);
        t.row(vec!["VRChat", "31.4/2.6"]);
        t.row(vec!["Worlds", "752/12"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Platform"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("VRChat"));
        // Columns align: "31.4/2.6" starts at the same offset as header col 2.
        let col = lines[0].find("Tput").unwrap();
        assert_eq!(lines[2].find("31.4").unwrap(), col);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn csv_writes_and_escapes() {
        let mut buf = Vec::new();
        write_csv(
            &mut buf,
            &["users", "down,kbps", "note"],
            &[
                vec!["1".into(), "30.1".into(), "plain".into()],
                vec!["2".into(), "39.3".into(), "has \"quotes\"".into()],
            ],
        )
        .unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "users,\"down,kbps\",note");
        assert!(lines[2].contains("\"has \"\"quotes\"\"\""));
    }

    #[test]
    fn series_and_compare_format() {
        let s = series_line("FPS", &[(1.0, 72.0), (15.0, 33.4)]);
        assert_eq!(s, "FPS: (1, 72.00) (15, 33.40)");
        let c = compare(100.0, 110.0);
        assert!(c.contains("+10%"), "{c}");
        assert!(compare(0.0, 5.0).contains("n/a"));
    }
}
