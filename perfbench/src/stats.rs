//! Order statistics and the JSON the benchmark prints.

/// The `p`-quantile (0..=1) of `values` by nearest rank; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values`, averaging the middle pair; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The mean of `values` after dropping the lowest and the highest `trim`
/// share (rounded down) of them; `None` when empty.
///
/// Run times on a shared machine fall into regimes of a few seconds that
/// differ by up to a third.  A median jumps between regimes as their shares
/// in a process shift, while this mean moves in proportion to the shares,
/// and the trim keeps a lone stalled run from moving it.
pub fn trimmed_mean(values: &[f64], trim: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `value` (non-finite values become 0).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name, value, unit)),
        }
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// The metrics, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// Per metric, the median over several sets (each set lists the same
    /// names).
    pub fn median_of(sets: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        if let Some(first) = sets.first() {
            for (name, _, unit) in first.iter() {
                let values: Vec<f64> = sets.iter().filter_map(|m| m.get(name)).collect();
                out.set(name, median(&values).unwrap_or(0.0), unit);
            }
        }
        out
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), Some(50.0));
        assert_eq!(percentile(&values, 0.99), Some(99.0));
        assert_eq!(percentile(&[3.0], 0.99), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[1.0, 4.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let values = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0];
        assert_eq!(trimmed_mean(&values, 0.1), Some(4.5));
        assert_eq!(trimmed_mean(&[2.0, 4.0], 0.1), Some(3.0));
        assert_eq!(trimmed_mean(&[], 0.1), None);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms");
        m.set("bad", f64::NAN, "s");
        assert_eq!(
            m.to_json(),
            r#"{"latency_ms": {"value": 1.25, "unit": "ms"}, "bad": {"value": 0, "unit": "s"}}"#
        );
    }
}
