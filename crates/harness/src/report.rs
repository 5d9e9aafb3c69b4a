//! Report helpers: aligned text tables, geometric means, per-SM imbalance
//! formatting and JSON output.

use gpu_sim::{DispatchSummary, SmImbalance};
use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// Geometric mean of a slice of positive values (0.0 for an empty slice;
/// non-positive entries are clamped to a tiny epsilon so a single broken run
/// cannot produce NaNs in a report).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values.iter().map(|&v| v.max(1e-12).ln()).sum();
    (sum / values.len() as f64).exp()
}

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
            let _ = writeln!(
                out,
                "{}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1)))
            );
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Writes a serialisable result as pretty JSON next to the text report.
/// Errors are reported, not fatal — the text output is the primary artefact.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, json)
}

/// Formats a ratio as `x.xx×`.
pub fn speedup(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a fraction as a percentage.
pub fn percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Formats a per-SM IPC imbalance as `min–max (σ stddev)` — the compact cell
/// chip-level reports use to make partitioning skew visible.
pub fn imbalance_cell(im: &SmImbalance) -> String {
    format!("{:.3}-{:.3} (σ {:.4})", im.min_ipc, im.max_ipc, im.stddev_ipc)
}

/// Compact per-tenant dispatcher verdict from a pre-computed
/// [`DispatchSummary`] — `t0 cache (3T/1R), t1 stream (0T/0R)` — so report
/// loops format the digest instead of re-walking the decision log per
/// tenant. Empty for runs whose policy logged no decisions.
pub fn dispatch_verdict(summary: &DispatchSummary) -> String {
    summary
        .tenants
        .iter()
        .map(|t| {
            format!("t{} {} ({}T/{}R)", t.tenant, t.final_class.label(), t.throttles, t.restores)
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Visible marker appended to rows whose run hit an instruction/cycle cap
/// instead of finishing its kernel (empty for clean runs).
pub fn capped_marker(capped: bool) -> &'static str {
    if capped {
        " (capped)"
    } else {
        ""
    }
}

/// One-line summary of how many runs in a batch were capped; empty when none
/// were, so clean reports stay clean.
pub fn capped_summary(capped_runs: usize, total_runs: usize) -> String {
    if capped_runs == 0 {
        String::new()
    } else {
        format!(
            "note: {capped_runs}/{total_runs} runs hit the instruction/cycle cap before \
             finishing their kernel; their IPCs are lower bounds\n"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // Robust to a zero entry.
        assert!(geometric_mean(&[0.0, 1.0]).is_finite());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["bench", "ipc"]);
        t.row(vec!["ATAX".into(), "1.25".into()]);
        t.row(vec!["GESUMMV".into(), "0.5".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("ATAX"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(speedup(1.539), "1.54x");
        assert_eq!(percent(0.1234), "12.3%");
        let im = SmImbalance { min_ipc: 0.1, max_ipc: 0.52, stddev_ipc: 0.0421 };
        assert_eq!(imbalance_cell(&im), "0.100-0.520 (σ 0.0421)");
    }

    #[test]
    fn dispatch_verdict_formats_per_tenant_digest() {
        use gpu_sim::{DispatchTenantSummary, TenantClass};
        assert_eq!(dispatch_verdict(&DispatchSummary::default()), "");
        let summary = DispatchSummary {
            tenants: vec![
                DispatchTenantSummary {
                    tenant: 0,
                    throttles: 3,
                    restores: 1,
                    final_class: TenantClass::CacheSensitive,
                },
                DispatchTenantSummary {
                    tenant: 1,
                    throttles: 0,
                    restores: 0,
                    final_class: TenantClass::Streaming,
                },
            ],
        };
        assert_eq!(dispatch_verdict(&summary), "t0 cache (3T/1R), t1 stream (0T/0R)");
    }

    #[test]
    fn capped_markers_and_summary() {
        assert_eq!(capped_marker(true), " (capped)");
        assert_eq!(capped_marker(false), "");
        assert_eq!(capped_summary(0, 10), "");
        let s = capped_summary(3, 10);
        assert!(s.contains("3/10"));
        assert!(s.contains("cap"));
    }

    #[test]
    fn write_json_roundtrip() {
        let dir = std::env::temp_dir().join("ciao_harness_test_json");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        let back: Vec<i32> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }
}
