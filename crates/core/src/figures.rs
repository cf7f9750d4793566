//! Figure/table result containers and rendering.
//!
//! Every experiment produces a [`FigureResult`]: labeled rows with the
//! measured value, the paper's reported value where the paper gives one,
//! and free-form notes. Results render as ASCII tables with bars (the
//! shape of the original figures) and serialize to JSON for
//! EXPERIMENTS.md regeneration.

use vgrid_simobs::json;

/// One bar/row of a figure.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Row label (environment name).
    pub label: String,
    /// Measured value.
    pub value: f64,
    /// The paper's reported value for this row, if the paper states one.
    pub paper: Option<f64>,
    /// Extra detail for the table.
    pub detail: Option<String>,
}

impl FigureRow {
    /// Plain row.
    pub fn new(label: impl Into<String>, value: f64) -> Self {
        FigureRow {
            label: label.into(),
            value,
            paper: None,
            detail: None,
        }
    }

    /// Attach the paper's reported value.
    pub fn with_paper(mut self, paper: f64) -> Self {
        self.paper = Some(paper);
        self
    }

    /// Attach a detail string.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }
}

/// A reproduced figure or table.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Experiment id ("fig1" ... "fig8", "tab-mem", "abl-*").
    pub id: String,
    /// Human title (matches the paper's caption).
    pub title: String,
    /// Unit of the value column.
    pub unit: String,
    /// The rows.
    pub rows: Vec<FigureRow>,
    /// Methodological notes.
    pub notes: Vec<String>,
}

impl FigureResult {
    /// New empty figure.
    pub fn new(id: impl Into<String>, title: impl Into<String>, unit: impl Into<String>) -> Self {
        FigureResult {
            id: id.into(),
            title: title.into(),
            unit: unit.into(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: FigureRow) {
        self.rows.push(row);
    }

    /// Append a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Value of the row with the given label.
    pub fn value_of(&self, label: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.label == label).map(|r| r.value)
    }

    /// Render an ASCII table with proportional bars.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} — {}\n", self.id, self.title));
        out.push_str(&format!("(unit: {})\n", self.unit));
        let max = self
            .rows
            .iter()
            .map(|r| r.value)
            .fold(0.0_f64, f64::max) // simlint: allow(float-fold-order) -- running max, order-insensitive
            .max(1e-12);
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        for row in &self.rows {
            let bar_len = ((row.value / max) * 40.0).round() as usize;
            let paper = row
                .paper
                .map(|p| format!(" (paper: {p:.2})"))
                .unwrap_or_default();
            let detail = row
                .detail
                .as_deref()
                .map(|d| format!("  [{d}]"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  {:label_w$}  {:>10.3} {}{}{}\n",
                row.label,
                row.value,
                "#".repeat(bar_len),
                paper,
                detail,
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json::string(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json::string(&self.title)));
        out.push_str(&format!("  \"unit\": {},\n", json::string(&self.unit)));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"label\": {},\n", json::string(&row.label)));
            out.push_str(&format!("      \"value\": {},\n", json::number(row.value)));
            match row.paper {
                Some(p) => out.push_str(&format!("      \"paper\": {},\n", json::number(p))),
                None => out.push_str("      \"paper\": null,\n"),
            }
            match &row.detail {
                Some(d) => out.push_str(&format!("      \"detail\": {}\n", json::string(d))),
                None => out.push_str("      \"detail\": null\n"),
            }
            out.push_str(if i + 1 < self.rows.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"notes\": [\n");
        for (i, note) in self.notes.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                json::string(note),
                if i + 1 < self.notes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureResult {
        let mut f = FigureResult::new("fig1", "Relative performance of 7z", "slowdown");
        f.push(FigureRow::new("native", 1.0).with_paper(1.0));
        f.push(FigureRow::new("VMwarePlayer", 1.16).with_paper(1.15));
        f.push(
            FigureRow::new("QEMU", 2.2)
                .with_paper(2.2)
                .with_detail("kqemu enabled"),
        );
        f.note("50 repetitions");
        f
    }

    #[test]
    fn render_contains_rows_and_notes() {
        let s = sample().render();
        assert!(s.contains("fig1"));
        assert!(s.contains("QEMU"));
        assert!(s.contains("paper: 2.20"));
        assert!(s.contains("kqemu"));
        assert!(s.contains("note: 50 repetitions"));
    }

    #[test]
    fn bars_scale_with_values() {
        let s = sample().render();
        let native_line = s.lines().find(|l| l.contains("native")).unwrap();
        let qemu_line = s.lines().find(|l| l.contains("QEMU")).unwrap();
        let hashes = |l: &str| l.chars().filter(|&c| c == '#').count();
        assert!(hashes(qemu_line) > hashes(native_line));
    }

    #[test]
    fn to_json_is_pinned_byte_for_byte() {
        // EXPERIMENTS.md and `vgrid run --json` are gated on these
        // bytes: key order, indentation, shortest round-trip floats.
        let expected = r#"{
  "id": "fig1",
  "title": "Relative performance of 7z",
  "unit": "slowdown",
  "rows": [
    {
      "label": "native",
      "value": 1,
      "paper": 1,
      "detail": null
    },
    {
      "label": "VMwarePlayer",
      "value": 1.16,
      "paper": 1.15,
      "detail": null
    },
    {
      "label": "QEMU",
      "value": 2.2,
      "paper": 2.2,
      "detail": "kqemu enabled"
    }
  ],
  "notes": [
    "50 repetitions"
  ]
}"#;
        assert_eq!(sample().to_json(), expected);
    }

    #[test]
    fn value_of_finds_rows() {
        let f = sample();
        assert_eq!(f.value_of("native"), Some(1.0));
        assert_eq!(f.value_of("nope"), None);
    }
}
