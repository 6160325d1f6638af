//! The metric lists of `BENCHMARK.json`. Every run checks its result
//! against them before printing it, so a run whose metrics differ from
//! the manifest's fails loudly instead of printing an incomplete line.

use serde::Deserialize;
use std::path::PathBuf;

/// One metric as the manifest names it.
#[derive(Debug, Clone, Deserialize)]
pub struct Metric {
    /// Metric name, as printed in the result line.
    pub name: String,
    /// Its unit.
    pub unit: String,
}

#[derive(Debug, Deserialize)]
struct Manifest {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// Where the manifest lives: the root of the checkout this benchmark
/// was built in.
fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// The end-to-end metrics (`trace == false`) or the per-layer metrics
/// (`trace == true`) a run must print.
///
/// # Errors
///
/// Returns a message when the manifest cannot be read or parsed.
pub fn metrics(trace: bool) -> Result<Vec<Metric>, String> {
    let path = path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text, trace)
}

fn parse(text: &str, trace: bool) -> Result<Vec<Metric>, String> {
    let m: Manifest = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(if trace { m.per_layer } else { m.end_to_end })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_manifest_parses_and_names_each_metric_once() {
        for trace in [false, true] {
            let ms = metrics(trace).expect("BENCHMARK.json is readable");
            assert!(!ms.is_empty());
            let mut names: Vec<&str> = ms.iter().map(|m| m.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), ms.len(), "a metric is listed twice");
        }
        let e2e = metrics(false).unwrap();
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn picks_the_list_for_the_mode() {
        let text = r#"{"command": ["x"], "end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}],
                      "per_layer": [{"name": "b", "unit": "ms", "better": "lower"}]}"#;
        assert_eq!(parse(text, false).unwrap()[0].name, "a");
        assert_eq!(parse(text, true).unwrap()[0].unit, "ms");
    }
}
