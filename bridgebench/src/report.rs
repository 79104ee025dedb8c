//! The result line: one JSON object, printed last on standard output.

use crate::run::Metric;
use crate::workload::Checks;
use std::fmt::Write as _;

/// Renders the result object: `correct`, `attempted`, `failed`, and each
/// metric with its value (every digit, as measured) and unit.
pub fn result_json(correct: bool, checks: Checks, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted.max(1),
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_contract_shape() {
        let m = [Metric {
            name: "setup_s".into(),
            value: 0.8127,
            unit: "s",
        }];
        let checks = Checks {
            attempted: 10,
            failed: 0,
        };
        assert_eq!(
            result_json(true, checks, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
