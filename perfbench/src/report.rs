//! Rendering a run: the human-readable listing, the result line and the
//! results file.

use std::fmt::Write as _;

use crate::run::{Metric, RunResult};

/// A JSON number: finite values as Rust's shortest round-trip form, which
/// keeps every digit as measured.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line result: `correct`, `attempted`, `failed` and `metrics`
/// (end-to-end metrics untraced, per-layer metrics traced).
pub fn result_line(result: &RunResult, traced: bool) -> String {
    let metrics = if traced { &result.per_layer } else { &result.end_to_end };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct(),
        result.attempted,
        result.failed,
        metrics_object(metrics)
    )
}

/// The results file: manifest, pass counts, failures and every metric.
pub fn results_json(result: &RunResult) -> String {
    let manifest: Vec<String> =
        result.manifest.iter().map(|(k, v)| format!("    {}: {}", string(k), string(v))).collect();
    let failures: Vec<String> = result.failures.iter().map(|f| string(f)).collect();
    format!(
        "{{\n  \"manifest\": {{\n{}\n  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \
         \"failed\": {},\n  \"failures\": [{}],\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        manifest.join(",\n"),
        result.correct(),
        result.attempted,
        result.failed,
        failures.join(", "),
        metrics_object(&result.end_to_end),
        metrics_object(&result.per_layer),
    )
}

/// The listing printed before the result line: manifest, then every
/// metric by name with its unit.
pub fn listing(result: &RunResult) -> String {
    let mut out = String::new();
    for (k, v) in &result.manifest {
        let _ = writeln!(out, "# {k}: {v}");
    }
    let _ = writeln!(out, "# passes: {} attempted, {} failed", result.attempted, result.failed);
    for f in &result.failures {
        let _ = writeln!(out, "# failure: {f}");
    }
    for m in result.end_to_end.iter().chain(&result.per_layer) {
        let _ = writeln!(out, "{:<32} {:>18} {}", m.name, number(m.value), m.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn non_finite_numbers_stay_valid_json() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(0.25), "0.25");
    }
}
