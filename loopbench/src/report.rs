//! Order statistics and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile `q` (0..=1) of `values`; `None` when empty.
pub fn percentile<T: Copy + PartialOrd>(values: &[T], q: f64) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("comparable values"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median of `values` (nearest rank); `None` when empty.
pub fn median<T: Copy + PartialOrd>(values: &[T]) -> Option<T> {
    percentile(values, 0.5)
}

/// One reported metric: value, unit, and a note on how it was obtained.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// One human-readable line per metric.
    pub fn print(&self) {
        for m in &self.0 {
            println!(
                "  {:<28} {:>14.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`, every
/// value printed with all its digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN; a metric that is not a number already fails the run.
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
