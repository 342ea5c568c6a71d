//! The result line and the output digests.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value (finite).
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value (an empty ratio) is reported as 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The result line: one JSON object with exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Median of `values` (the mean of the middle two for an even count); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// FNV-1a hash, the digest of a pass's outputs: equal outputs give equal digests
/// on every machine and thread count, so a change that alters results shows.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes into the digest.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &byte in data {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds the `Debug` rendering of `value` into the digest (every result type
    /// of the program derives `Debug`, and floats render exactly).
    pub fn debug(self, value: &impl std::fmt::Debug) -> Self {
        self.bytes(format!("{value:?}").as_bytes())
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            48,
            0,
            &[
                Metric::new("wall_s", 2.5, "s"),
                Metric::new("cells_per_s", f64::NAN, "1/s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 48, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 2.5, \"unit\": \"s\"}, \
             \"cells_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_distinguishes_values_and_repeats_exactly() {
        let a = Digest::default().debug(&(1u32, 2.5f64)).value();
        assert_eq!(a, Digest::default().debug(&(1u32, 2.5f64)).value());
        assert_ne!(a, Digest::default().debug(&(1u32, 2.25f64)).value());
        assert_ne!(Digest::default().value(), a);
    }
}
