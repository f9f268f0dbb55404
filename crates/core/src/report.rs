//! Paper-style table rendering and machine-readable result records.

/// One experiment-cell record, serialisable for EXPERIMENTS.md tooling.
#[derive(Debug, Clone)]
pub struct ResultRecord {
    /// Experiment id, e.g. "table3".
    pub experiment: String,
    /// Task name, e.g. "TLS-120".
    pub task: String,
    /// Model name.
    pub model: String,
    /// Setting, e.g. "per-flow/frozen".
    pub setting: String,
    /// Accuracy in percent.
    pub accuracy: f64,
    /// Macro-F1 in percent.
    pub macro_f1: f64,
    /// Training seconds.
    pub train_secs: f64,
    /// Inference seconds.
    pub infer_secs: f64,
}

/// Serialise records as pretty JSON with a stable, hand-rolled layout
/// (2-space indent, declaration field order, shortest-float formatting).
/// Rolling it by hand keeps the record/journal/manifest byte contract
/// under the engine's own control — golden snapshots and resume-replay
/// equality must not shift when a JSON dependency changes its formatter.
pub fn records_json_pretty(records: &[ResultRecord]) -> String {
    use crate::engine::journal::{escape_json, format_f64};
    if records.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  {\n");
        out.push_str(&format!("    \"experiment\": \"{}\",\n", escape_json(&r.experiment)));
        out.push_str(&format!("    \"task\": \"{}\",\n", escape_json(&r.task)));
        out.push_str(&format!("    \"model\": \"{}\",\n", escape_json(&r.model)));
        out.push_str(&format!("    \"setting\": \"{}\",\n", escape_json(&r.setting)));
        out.push_str(&format!("    \"accuracy\": {},\n", format_f64(r.accuracy)));
        out.push_str(&format!("    \"macro_f1\": {},\n", format_f64(r.macro_f1)));
        out.push_str(&format!("    \"train_secs\": {},\n", format_f64(r.train_secs)));
        out.push_str(&format!("    \"infer_secs\": {}\n", format_f64(r.infer_secs)));
        out.push_str(if i + 1 < records.len() { "  },\n" } else { "  }\n" });
    }
    out.push(']');
    out
}

/// A rendered table: header plus rows of (label, values).
#[derive(Debug, Clone, Default)]
pub struct TableBuilder {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl TableBuilder {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, columns: &[&str]) -> TableBuilder {
        TableBuilder {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, label: &str, values: &[String]) -> &mut Self {
        self.rows.push((label.to_string(), values.to_vec()));
        self
    }

    /// Append a row of percentages formatted to one decimal.
    pub fn row_pct(&mut self, label: &str, values: &[f64]) -> &mut Self {
        let v: Vec<String> = values.iter().map(|x| format!("{:.1}", x * 100.0)).collect();
        self.row(label, &v)
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let label_w =
            self.rows.iter().map(|(l, _)| l.len()).chain(std::iter::once(5)).max().unwrap_or(5) + 2;
        let col_w: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(c, h)| {
                self.rows
                    .iter()
                    .filter_map(|(_, vals)| vals.get(c).map(String::len))
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(h.len())
                    + 2
            })
            .collect();
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("{:<label_w$}", "model"));
        for (h, w) in self.columns.iter().zip(&col_w) {
            out.push_str(&format!("{:>w$}", h, w = w));
        }
        out.push('\n');
        for (label, vals) in &self.rows {
            out.push_str(&format!("{:<label_w$}", label));
            for (v, w) in vals.iter().zip(&col_w) {
                out.push_str(&format!("{:>w$}", v, w = w));
            }
            out.push('\n');
        }
        out
    }
}

/// Render a horizontal-bar chart in text (for Figs. 1, 4, 5, 6).
pub fn bar_chart(title: &str, items: &[(String, f64)], max_width: usize) -> String {
    let max = items.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max).max(1e-12);
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(4) + 2;
    let mut out = format!("== {title} ==\n");
    for (label, v) in items {
        let w = ((v / max) * max_width as f64).round().max(0.0) as usize;
        out.push_str(&format!("{:<label_w$} {:>8.3} {}\n", label, v, "█".repeat(w)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TableBuilder::new("Table X", &["AC", "F1"]);
        t.row_pct("ET-BERT", &[0.847, 0.846]);
        t.row_pct("Pcap-Encoder", &[0.999, 0.999]);
        let s = t.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("84.7"));
        assert!(s.contains("99.9"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].len(), lines[2].len(), "columns aligned");
    }

    #[test]
    fn bar_chart_scales() {
        let s = bar_chart("speed", &[("RF".into(), 1.0), ("netFound".into(), 4.0)], 8);
        let rf_bars = s.lines().find(|l| l.starts_with("RF")).unwrap().matches('█').count();
        let nf_bars = s.lines().find(|l| l.starts_with("netFound")).unwrap().matches('█').count();
        assert_eq!(nf_bars, 8);
        assert_eq!(rf_bars, 2);
    }

    #[test]
    fn empty_table_and_chart_render_without_panic() {
        let t = TableBuilder::new("empty", &["A"]);
        let s = t.render();
        assert!(s.contains("empty"));
        let c = bar_chart("nothing", &[], 10);
        assert!(c.contains("nothing"));
    }

    #[test]
    fn chart_handles_zero_and_negative_values() {
        let s = bar_chart(
            "mixed",
            &[("zero".into(), 0.0), ("neg".into(), -1.0), ("pos".into(), 2.0)],
            10,
        );
        let pos_bars = s.lines().find(|l| l.starts_with("pos")).unwrap().matches('█').count();
        assert_eq!(pos_bars, 10);
        let zero_bars = s.lines().find(|l| l.starts_with("zero")).unwrap().matches('█').count();
        assert_eq!(zero_bars, 0);
    }
}
