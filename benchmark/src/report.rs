//! What one run reports: the contract's last stdout line, the detail file
//! under `out/`, and `result.json`, which collects the detail files of a
//! whole series.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use reunion_sim::JsonWriter;

use crate::spec::MetricSpec;
use crate::traced::CellRow;

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub spec: MetricSpec,
    pub value: f64,
    /// How far the samples behind `value` resolve it (end-to-end metrics):
    /// the gap between the two quietest for a minimum, the quartile spread
    /// for a median. `compare` reads it.
    pub spread: Option<f64>,
}

/// Everything one `--workload` run produced.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    pub rounds: usize,
    pub cells_attempted: usize,
    /// `(cell, reason)` per failed cell.
    pub failures: Vec<(String, String)>,
    /// Run-level problems that fail the run without naming a cell.
    pub problems: Vec<String>,
    pub sim_digest: u64,
    pub simulated_instructions: u64,
    /// Mean absolute gap to the paper's class means, in percentage points;
    /// only where a reference exists (`paper_grid`).
    pub fidelity_err_pp: Option<f64>,
    pub metrics: Vec<Measured>,
    /// Traced run: the unit `sim.slowest_unit_ms` was read from.
    pub slowest_unit: String,
    /// Ungated context: median and maximum round time and the like.
    pub info: Vec<(String, f64)>,
    /// Traced run: self time by span name and tag, milliseconds.
    pub layers: Vec<(String, String, f64)>,
    /// Traced run: what the traced loop saw of each cell.
    pub cells: Vec<CellRow>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.problems.is_empty()
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.spec.name,
                json_number(m.value),
                m.spec.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.cells_attempted.max(1),
            self.failures.len(),
        )
    }

    /// The detail file's name under the out directory.
    pub fn file_name(workload: &str, trace: bool) -> String {
        format!("run_{workload}.trace{}.json", u8::from(trace))
    }

    /// The detail document. Flags are 0/1 numbers: the repo's JSON writer
    /// has no boolean.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("workload", &self.workload);
        w.field_u64("seed", self.seed);
        w.field_u64("trace", u64::from(self.trace));
        w.field_u64("smoke", u64::from(self.smoke));
        w.field_u64("rounds", self.rounds as u64);
        w.field_u64("correct", u64::from(self.correct()));
        w.field_u64("cells_attempted", self.cells_attempted as u64);
        w.field_u64("cells_failed", self.failures.len() as u64);
        w.field_str("sim_digest", &format!("{:#018x}", self.sim_digest));
        w.field_u64("simulated_instructions", self.simulated_instructions);
        if let Some(err) = self.fidelity_err_pp {
            w.field_f64("fidelity_err_pp", err);
        }
        if !self.slowest_unit.is_empty() {
            w.field_str("slowest_unit", &self.slowest_unit);
        }
        w.key("metrics");
        w.begin_object();
        for m in &self.metrics {
            w.key(m.spec.name);
            w.begin_object();
            w.field_f64("value", m.value);
            w.field_str("unit", m.spec.unit);
            if let Some(spread) = m.spread {
                w.field_f64("spread", spread);
            }
            w.end_object();
        }
        w.end_object();
        w.key("info");
        w.begin_object();
        for (k, v) in &self.info {
            w.field_f64(k, *v);
        }
        w.end_object();
        w.key("failures");
        w.begin_array();
        for (cell, reason) in &self.failures {
            w.begin_object();
            w.field_str("cell", cell);
            w.field_str("reason", reason);
            w.end_object();
        }
        w.end_array();
        w.key("problems");
        w.begin_array();
        for p in &self.problems {
            w.string(p);
        }
        w.end_array();
        if self.trace {
            w.key("layers");
            w.begin_array();
            for (span, tag, ms) in &self.layers {
                w.begin_object();
                w.field_str("span", span);
                w.field_str("tag", tag);
                w.field_f64("self_ms", *ms);
                w.end_object();
            }
            w.end_array();
            w.key("cells");
            w.begin_array();
            for c in &self.cells {
                w.begin_object();
                w.field_str("cell", &c.label);
                w.field_f64("model_window_ns_per_cycle", c.model_window_ns_per_cycle);
                w.field_u64("recoveries", c.recoveries);
                w.field_f64("skipped_share", c.skipped_share);
                w.end_object();
            }
            w.end_array();
        }
        w.end_object();
        let mut s = w.finish();
        s.push('\n');
        s
    }

    /// Writes the detail file under `out_dir`.
    pub fn write(&self, out_dir: &Path) -> std::io::Result<PathBuf> {
        let path = out_dir.join(Self::file_name(&self.workload, self.trace));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// A finite float with all its digits; JSON has no NaN, so a non-finite
/// value becomes `null` (and the run is reported incorrect elsewhere).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};
    use reunion_sim::{parse_json, JsonValue};

    fn sample(trace: bool) -> RunReport {
        RunReport {
            workload: "paper_grid".into(),
            seed: 7,
            trace,
            rounds: 3,
            cells_attempted: 22,
            sim_digest: 0xDEAD_BEEF,
            simulated_instructions: 123_456,
            fidelity_err_pp: Some(1.25),
            metrics: if trace {
                PER_LAYER
                    .iter()
                    .map(|&spec| Measured {
                        spec,
                        value: 0.5,
                        spread: None,
                    })
                    .collect()
            } else {
                END_TO_END
                    .iter()
                    .map(|&(spec, _)| Measured {
                        spec,
                        value: 12.625,
                        spread: Some(0.03),
                    })
                    .collect()
            },
            info: vec![("round_s.median".into(), 4.2)],
            layers: vec![("core.run_window".into(), "reunion".into(), 1800.5)],
            cells: vec![CellRow {
                label: "fig5/apache/strict/base".into(),
                model_window_ns_per_cycle: 812.0,
                recoveries: 0,
                skipped_share: 0.04,
            }],
            ..RunReport::default()
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        for trace in [false, true] {
            let report = sample(trace);
            let line = report.contract_line();
            assert!(!line.contains('\n'));
            let v = parse_json(&line).expect("contract line parses");
            let JsonValue::Object(pairs) = &v else {
                panic!("not an object")
            };
            let keys: Vec<_> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
            assert_eq!(v.get("attempted").and_then(JsonValue::as_f64), Some(22.0));
            let JsonValue::Object(metrics) = v.get("metrics").unwrap() else {
                panic!("metrics is not an object")
            };
            assert_eq!(metrics.len(), report.metrics.len());
            for ((name, m), want) in metrics.iter().zip(&report.metrics) {
                assert_eq!(name, want.spec.name);
                assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(want.value));
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(want.spec.unit)
                );
            }
        }
    }

    #[test]
    fn a_failed_cell_or_problem_makes_the_run_incorrect() {
        let mut report = sample(false);
        report
            .failures
            .push(("fig5/apache/strict/base".into(), "panicked".into()));
        let v = parse_json(&report.contract_line()).unwrap();
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(false)));
        assert_eq!(v.get("failed").and_then(JsonValue::as_f64), Some(1.0));
        let mut report = sample(true);
        report.problems.push("trace does not sum".into());
        assert!(!report.correct());
    }

    #[test]
    fn detail_document_round_trips_through_the_repo_parser() {
        for trace in [false, true] {
            let report = sample(trace);
            let text = report.to_json();
            let v = parse_json(&text).expect("detail file parses");
            assert_eq!(
                v.get("workload").and_then(JsonValue::as_str),
                Some("paper_grid")
            );
            assert_eq!(
                v.get("sim_digest").and_then(JsonValue::as_str),
                Some("0x00000000deadbeef")
            );
            assert_eq!(
                v.get("fidelity_err_pp").and_then(JsonValue::as_f64),
                Some(1.25)
            );
            assert_eq!(v.get("layers").is_some(), trace);
        }
    }
}
