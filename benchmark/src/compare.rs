//! `benchmark compare <a.json> <b.json>`: does series `b` hold every
//! end-to-end metric of series `a` within the bounds `BENCHMARK.json`
//! fixes? `a` is the base of every ratio.

use reunion_sim::{parse_json, JsonValue};

use crate::spec::{Better, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Ok,
    /// A side's own samples lie further apart than the bound, so the two
    /// sides cannot be told apart at that resolution.
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }

    pub fn exit_code(self) -> i32 {
        match self {
            Verdict::Ok => 0,
            Verdict::Regressed => 1,
            Verdict::Unresolved => 2,
        }
    }
}

/// One side's reading of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: f64,
}

/// The share of `a` by which `b` is worse (negative when better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

pub fn judge(a: Reading, b: Reading, better: Better, bound: f64) -> Verdict {
    if a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else if worsening(a.value, b.value, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The runs of a result file with the given `trace` flag.
fn runs_of(doc: &JsonValue, trace: bool) -> Vec<&JsonValue> {
    let flag = f64::from(u8::from(trace));
    match doc.get("runs") {
        Some(JsonValue::Array(runs)) => runs
            .iter()
            .filter(|r| r.get("trace").and_then(JsonValue::as_f64) == Some(flag))
            .collect(),
        _ => Vec::new(),
    }
}

fn workload_of(run: &JsonValue) -> &str {
    run.get("workload")
        .and_then(JsonValue::as_str)
        .unwrap_or("?")
}

/// Names of the simulated per-layer metrics (unit `count` or `ratio`) that
/// read differently in two traced runs.
fn differing_counts(run_a: &JsonValue, run_b: &JsonValue) -> Vec<String> {
    let Some(JsonValue::Object(metrics)) = run_a.get("metrics") else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter(|(_, m)| {
            matches!(
                m.get("unit").and_then(JsonValue::as_str),
                Some("count" | "ratio")
            )
        })
        .filter(|(name, m)| run_b.get("metrics").and_then(|mb| mb.get(name)) != Some(m))
        .map(|(name, _)| name.clone())
        .collect()
}

fn reading(run: &JsonValue, metric: &str) -> Option<Reading> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread").and_then(JsonValue::as_f64).unwrap_or(0.0),
    })
}

/// Compares two result documents, printing one line per workload and
/// metric, and returns the worst verdict.
pub fn compare_documents(a: &str, b: &str) -> Result<Verdict, String> {
    let a = parse_json(a).map_err(|e| format!("first file: {e}"))?;
    let b = parse_json(b).map_err(|e| format!("second file: {e}"))?;
    let (runs_a, runs_b) = (runs_of(&a, false), runs_of(&b, false));
    if runs_a.is_empty() {
        return Err("first file holds no end-to-end runs".to_string());
    }
    let mut worst = Verdict::Ok;
    for run_a in runs_a {
        let workload = workload_of(run_a);
        let Some(run_b) = runs_b.iter().find(|r| workload_of(r) == workload) else {
            println!("{workload:<16} missing from the second file: regressed");
            worst = worst.max(Verdict::Regressed);
            continue;
        };
        for (spec, bound) in END_TO_END {
            let (Some(ra), Some(rb)) = (reading(run_a, spec.name), reading(run_b, spec.name))
            else {
                println!("{workload:<16} {:<18} missing: regressed", spec.name);
                worst = worst.max(Verdict::Regressed);
                continue;
            };
            let verdict = judge(ra, rb, spec.better, bound);
            println!(
                "{workload:<16} {:<18} {:>12.4} -> {:>12.4} {:<9} x{:.4} of a ({:+.2} % worse, bound {:.0} %, spread {:.1} % / {:.1} %)  {}",
                spec.name,
                ra.value,
                rb.value,
                spec.unit,
                rb.value / ra.value,
                worsening(ra.value, rb.value, spec.better) * 100.0,
                bound * 100.0,
                ra.spread * 100.0,
                rb.spread * 100.0,
                verdict.as_str(),
            );
            worst = worst.max(verdict);
        }
        let num = |run: &JsonValue, key| run.get(key).and_then(JsonValue::as_f64);
        let failed =
            num(run_a, "cells_failed").unwrap_or(0.0) + num(run_b, "cells_failed").unwrap_or(1.0);
        if failed > 0.0 {
            println!("{workload:<16} cells_failed is not 0 on both sides: regressed");
            worst = worst.max(Verdict::Regressed);
        }
        // Simulated quantities repeat exactly on one commit and seed; on
        // different commits a difference means the model changed.
        for key in ["sim_digest", "fidelity_err_pp", "simulated_instructions"] {
            let (va, vb) = (run_a.get(key), run_b.get(key));
            if va.is_some() || vb.is_some() {
                let same = if va == vb { "same" } else { "DIFFERS" };
                println!("{workload:<16} {key:<18} {same}");
            }
        }
    }
    let traced_b = runs_of(&b, true);
    for run_a in runs_of(&a, true) {
        let workload = workload_of(run_a);
        if let Some(run_b) = traced_b.iter().find(|r| workload_of(r) == workload) {
            let differing = differing_counts(run_a, run_b);
            let same = if differing.is_empty() {
                "same".to_string()
            } else {
                format!("DIFFER: {}", differing.join(" "))
            };
            println!("{workload:<16} {:<18} {same}", "per-layer counts");
        }
    }
    println!("verdict: {}", worst.as_str());
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let quiet = 0.02;
        assert_eq!(
            judge(at(100.0, quiet), at(95.0, quiet), Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(at(100.0, quiet), at(130.0, quiet), Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(at(100.0, quiet), at(85.0, quiet), Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(at(4.0, quiet), at(4.5, quiet), Better::Lower, 0.10),
            Verdict::Regressed
        );
        // A side noisier than the bound resolves nothing, either way.
        assert_eq!(
            judge(at(100.0, 0.15), at(85.0, quiet), Better::Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(at(100.0, quiet), at(100.0, 0.3), Better::Higher, 0.25),
            Verdict::Unresolved
        );
        assert!(Verdict::Regressed > Verdict::Unresolved && Verdict::Unresolved > Verdict::Ok);
        assert_eq!(Verdict::Ok.exit_code(), 0);
        assert_ne!(
            Verdict::Regressed.exit_code(),
            Verdict::Unresolved.exit_code()
        );
    }

    fn doc(minstr: f64, setup: f64, digest: &str) -> String {
        format!(
            r#"{{"runs": [
              {{"workload": "paper_grid", "trace": 0, "cells_failed": 0, "sim_digest": "{digest}",
                "metrics": {{
                  "sim_minstr_per_s": {{"value": {minstr}, "unit": "Minstr/s", "spread": 0.02}},
                  "peak_rss_mb": {{"value": 80.0, "unit": "MB", "spread": 0.0}},
                  "setup_s": {{"value": {setup}, "unit": "s", "spread": 0.05}}}}}},
              {{"workload": "paper_grid", "trace": 1, "metrics": {{
                  "mem.l1_hits": {{"value": {minstr}, "unit": "count"}},
                  "mem.load_hit_ns": {{"value": {setup}, "unit": "ns"}}}}}}]}}"#
        )
    }

    #[test]
    fn documents_compare_per_workload_and_metric() {
        let base = doc(12.0, 4.0, "0x1");
        assert_eq!(compare_documents(&base, &base), Ok(Verdict::Ok));
        assert_eq!(
            compare_documents(&base, &doc(11.5, 4.5, "0x2")),
            Ok(Verdict::Ok)
        );
        assert_eq!(
            compare_documents(&base, &doc(8.0, 4.0, "0x1")),
            Ok(Verdict::Regressed)
        );
        assert_eq!(
            compare_documents(&base, &doc(12.0, 5.5, "0x1")),
            Ok(Verdict::Regressed)
        );
        assert_eq!(
            compare_documents(&base, r#"{"runs": []}"#),
            Ok(Verdict::Regressed),
            "a workload missing from the second series"
        );
        assert!(compare_documents(r#"{"runs": []}"#, &base).is_err());
        assert!(compare_documents("not json", &base).is_err());

        // Simulated counts must match exactly; host-time layer metrics may move.
        let parse = |text: &str| parse_json(text).unwrap();
        let traced = |doc: &JsonValue| runs_of(doc, true)[0].clone();
        let (a, b, c) = (
            parse(&base),
            parse(&doc(12.0, 9.0, "0x1")),
            parse(&doc(12.5, 4.0, "0x1")),
        );
        assert!(differing_counts(&traced(&a), &traced(&b)).is_empty());
        assert_eq!(differing_counts(&traced(&a), &traced(&c)), ["mem.l1_hits"]);
    }
}
