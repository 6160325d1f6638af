//! The run's result: named metrics with units, operation counts, and
//! the one-line JSON object the benchmark prints last.

use crate::host::HostSpeed;
use crate::manifest::Metric;
use crate::models::Setups;
use crate::stats::median;
use std::fmt::Write as _;
use std::time::Instant;

/// A workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (requests, or accelerator jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, expired or produced a
    /// wrong output.
    pub failed: u64,
    /// Human-readable notes printed before the JSON line (sample
    /// counts, thread count, seed).
    pub notes: Vec<String>,
}

impl Report {
    /// Records metric `name` (replacing an earlier value of that name).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: every reported number must be a
    /// real measurement.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite ({value})");
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a tail percentile if the sample supports it, noting the
    /// omission otherwise.
    pub fn put_tail(&mut self, name: &str, samples: &[f64], q: f64, unit: &'static str) {
        match crate::stats::tail(samples, q) {
            Some(v) => self.put(name, v, unit),
            None => self.note(format!(
                "{name} omitted: {} samples cannot support p{q}",
                samples.len()
            )),
        }
    }

    /// Records the median of rates measured over intervals, each divided
    /// by the host's speed over its interval (see [`crate::host`]).
    pub fn put_rate(
        &mut self,
        name: &str,
        units: &[(Instant, Instant, f64)],
        host: &HostSpeed,
        unit: &'static str,
    ) {
        let raw: Vec<f64> = units.iter().map(|u| u.2).collect();
        self.note(format!("raw {name}={}", median(&raw)));
        self.put(name, median(&host.scale_rates(units)), unit);
    }

    /// Records `setup_s`: the median set-up time, scaled by the host's
    /// speed like every other timing.
    pub fn put_setup(&mut self, setups: &Setups) {
        self.note(format!("raw setup_s={}", median(&setups.raw())));
        self.put("setup_s", median(&setups.scaled()), "s");
    }

    /// Records percentile `q` of latency samples, each scaled by the
    /// host's speed when it was taken (see [`crate::host`]).
    pub fn put_latency(
        &mut self,
        name: &str,
        samples: &[(Instant, f64)],
        host: &HostSpeed,
        q: f64,
        unit: &'static str,
    ) {
        let raw: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        if let Some(v) = crate::stats::tail(&raw, q) {
            self.note(format!("raw {name}={v}"));
        }
        self.put_tail(name, &host.scale_latencies(samples), q, unit);
    }

    /// Records the `client.*` per-layer latencies of a token log: TTFT
    /// p50 and p90 (from when each request was due) and the p99 gap
    /// between consecutive tokens, each sample scaled by the host speed.
    pub fn put_client(
        &mut self,
        ttft_ms: &[(Instant, f64)],
        itl_ms: &[(Instant, f64)],
        host: &HostSpeed,
    ) {
        self.put_latency("client.ttft_p50_ms", ttft_ms, host, 50.0, "ms");
        self.put_latency("client.ttft_p90_ms", ttft_ms, host, 90.0, "ms");
        self.put_latency("client.itl_p99_ms", itl_ms, host, 99.0, "ms");
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(format!("FAIL: {why}"));
    }

    /// The value recorded under `name`, if any.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Adds the metrics of `other` that this report lacks, with its
    /// operation counts and notes: a layer probe's findings joining the
    /// run's own.
    pub fn merge_missing(&mut self, other: Report) {
        for m in other.metrics {
            if !self.metrics.iter().any(|(n, _, _)| *n == m.0) {
                self.metrics.push(m);
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    /// Checks that the report holds exactly the metrics `want` lists,
    /// each in its unit, and puts them in that order.
    ///
    /// # Errors
    ///
    /// Returns a message naming every missing, extra or mis-unit metric.
    pub fn conform(&mut self, want: &[Metric]) -> Result<(), String> {
        let mut problems = Vec::new();
        for w in want {
            match self.metrics.iter().find(|(n, _, _)| *n == w.name) {
                None => problems.push(format!("{} missing", w.name)),
                Some((_, _, u)) if *u != w.unit => {
                    problems.push(format!("{} in {u}, not {}", w.name, w.unit))
                }
                Some(_) => {}
            }
        }
        for (n, _, _) in &self.metrics {
            if !want.iter().any(|w| w.name == *n) {
                problems.push(format!("{n} is not in the manifest"));
            }
        }
        if !problems.is_empty() {
            return Err(problems.join("; "));
        }
        self.metrics
            .sort_by_key(|(n, _, _)| want.iter().position(|w| w.name == *n));
        Ok(())
    }

    /// The final JSON line: `correct`, `attempted`, `failed` and every
    /// metric as `{"value": v, "unit": u}`. `f64`'s `Display` prints the
    /// shortest round-trip decimal and never an exponent, so every digit
    /// is kept and the result is a valid JSON number.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_result_keys() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.put("tok_s", 1234.5678, "1/s");
        r.put("setup_s", 0.25, "s");
        let j = r.json();
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"tok_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.fail("mismatch".into());
        assert!(r
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
    }

    fn metric(name: &str, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
        }
    }

    #[test]
    fn conform_orders_by_the_manifest_and_names_every_gap() {
        let mut r = Report::default();
        r.put("b", 2.0, "ms");
        r.put("a", 1.0, "s");
        r.conform(&[metric("a", "s"), metric("b", "ms")]).unwrap();
        assert!(r
            .json()
            .contains("{\"a\": {\"value\": 1, \"unit\": \"s\"}, \"b\""));
        let err = r
            .conform(&[metric("a", "ms"), metric("c", "s")])
            .unwrap_err();
        assert!(err.contains("a in s, not ms"), "{err}");
        assert!(err.contains("c missing"), "{err}");
        assert!(err.contains("b is not in the manifest"), "{err}");
    }

    #[test]
    fn merge_keeps_the_runs_own_values() {
        let mut own = Report {
            attempted: 3,
            ..Report::default()
        };
        own.put("x", 1.0, "ms");
        let mut probe = Report {
            attempted: 2,
            ..Report::default()
        };
        probe.put("x", 9.0, "ms");
        probe.put("y", 5.0, "count");
        probe.fail("probe mismatch".into());
        own.merge_missing(probe);
        assert_eq!(own.get("x"), Some(1.0));
        assert_eq!(own.get("y"), Some(5.0));
        assert_eq!((own.attempted, own.failed), (5, 1));
    }

    #[test]
    fn unsupported_tail_is_omitted_with_a_note() {
        let mut r = Report::default();
        r.put_tail("itl_p99_ms", &[1.0; 50], 99.0, "ms");
        assert!(r.get("itl_p99_ms").is_none());
        assert_eq!(r.notes.len(), 1);
    }
}
