//! Metric collection, summary statistics and the result line.

use std::fmt::Write as _;

/// Named metrics in insertion order, each with its unit.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name`; a repeated name is a bug in the benchmark.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.entries.iter().all(|(n, _, _)| n != name),
            "metric `{name}` recorded twice"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.entries.push((name.to_owned(), value, unit));
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for (name, value, unit) in other.entries {
            self.push(&name, value, unit);
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// One human-readable line per metric.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit}");
        }
        out
    }

    /// The benchmark's result line: one JSON object.
    pub fn render_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1]; 0 for no samples. With 200
/// samples, `q = 0.95` leaves ten samples above it.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_leave_the_stated_tail() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), 190.0);
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(median(&xs), 100.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.5, "s");
        m.push("check.visited", 42.0, "count");
        assert_eq!(
            m.render_json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"check.visited\": {\"value\": 42, \"unit\": \"count\"}}}"
        );
    }
}
