//! Plain-text table rendering for experiment reports. The
//! machine-readable `BENCH_<label>.json` snapshot format lives in
//! `asched-obs` ([`asched_obs::snapshot_json`]).

use asched_obs::RunProfile;
use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are pre-formatted strings).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
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

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>w$}", w = width[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.headers);
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// A section header for experiment output.
pub fn section(id: &str, title: &str) -> String {
    let line = "=".repeat(72);
    format!("\n{line}\n[{id}] {title}\n{line}\n")
}

/// Format a rational period as `a/b = x.xx`.
pub fn period((num, den): (u64, u64)) -> String {
    if num % den == 0 {
        format!("{}", num / den)
    } else {
        format!("{:.2}", num as f64 / den as f64)
    }
}

/// Render a [`RunProfile`] as a report section: the per-pass timing
/// table and the event counters, in the same aligned-table style as
/// the experiment output.
pub fn profile_section(profile: &RunProfile) -> String {
    let mut out = section("PROFILE", "per-pass wall-clock and event counters");
    out.push_str(&profile.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_rendering() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "123"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        // Right-aligned columns have equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn period_formatting() {
        assert_eq!(period((12, 2)), "6");
        assert_eq!(period((13, 2)), "6.50");
    }

    #[test]
    fn section_contains_id() {
        assert!(section("F1", "Figure 1").contains("[F1] Figure 1"));
    }

    #[test]
    fn profile_section_embeds_passes() {
        let mut p = RunProfile::new();
        p.add_pass(asched_obs::Pass::Merge, 1_500_000);
        let s = profile_section(&p);
        assert!(s.contains("[PROFILE]"));
        assert!(s.contains("merge"));
    }
}
