//! Metric values and the JSON the benchmark prints and writes.

use crate::round::Tally;
use crate::trace::Tracer;
use std::fmt::Write as _;
use std::path::Path;

/// A metric value with its unit, in output order.
pub type Metrics = Vec<(String, f64, &'static str)>;

pub fn json_metrics(m: &Metrics) -> String {
    let mut s = String::from("{");
    for (k, (name, v, unit)) in m.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v));
    }
    s.push('}');
    s
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
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

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line: the last line of stdout.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.wrong.is_empty(),
        tally.attempted,
        tally.failed,
        json_metrics(metrics)
    )
}

/// The full report: configuration, both metric sets, span totals with
/// self times, the wrong outputs, and the result line.
pub fn write(
    path: &Path,
    config: &[(String, String)],
    e2e: &Metrics,
    layer: &Metrics,
    tracer: &Tracer,
    tally: &Tally,
    line: &str,
) -> std::io::Result<()> {
    let config: Vec<String> =
        config.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let spans: Vec<String> = tracer
        .summary()
        .iter()
        .map(|(name, (n, total, own))| {
            format!("\"{name}\": {{\"count\": {n}, \"total_ms\": {total}, \"self_ms\": {own}}}")
        })
        .collect();
    let wrong: Vec<String> = tally.wrong.iter().map(|w| json_str(w)).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"config\": {{{}}}, \"end_to_end\": {}, \"per_layer\": {}, \"spans\": {{{}}}, \"wrong\": [{}], \"result\": {line}}}",
        config.join(", "),
        json_metrics(e2e),
        json_metrics(layer),
        spans.join(", "),
        wrong.join(", ")
    );
    std::fs::write(path, out)
}
