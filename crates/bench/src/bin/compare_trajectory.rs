//! Bench-trajectory regression gate.
//!
//! Compares every `BENCH_<id>.json` artifact in a baseline directory
//! against a freshly generated candidate directory and fails (exit code 1)
//! on drift: structural differences always fail, numeric leaves fail when
//! they disagree beyond a relative tolerance. The simulator is fully
//! deterministic, so matching commits produce byte-identical artifacts and
//! the tolerance only exists as headroom for intentional, reviewed
//! refreshes of the baselines.
//!
//! ```text
//! compare_trajectory <baseline_dir> <candidate_dir> [--tolerance <rel>]
//! ```
//!
//! The candidate directory may hold `BENCH_<id>.json` files, shard
//! manifests (`MANIFEST_*.jsonl`) from a sharded run, or a mix: any
//! complete manifest group without a corresponding `BENCH_<id>.json` is
//! merged in memory first — merged output is byte-identical to a
//! single-process run, so it gates identically. An *incomplete* manifest
//! group is a failure, not a skip: a half-run campaign must never pass as
//! "no drift".
//!
//! To accept an intentional change, regenerate the baselines locally:
//!
//! ```text
//! REUNION_OUT_DIR=baselines cargo run --release -p reunion-bench -- run <id> --profile fast
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use reunion_bench::run_options_with_extras;
use reunion_sim::{find_manifests, merge_manifests, parse_json, JsonValue};

/// Default relative tolerance for numeric leaves.
const DEFAULT_TOLERANCE: f64 = 0.02;
/// Absolute slack for values near zero, where relative error is undefined.
const ABS_EPSILON: f64 = 1e-9;

struct Drift {
    path: String,
    detail: String,
}

fn main() -> ExitCode {
    // Shared surface first (uniform flag/environment handling); this
    // tool's own --tolerance flag and the two positional directories come
    // back as leftovers.
    let (_, args) = run_options_with_extras();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut dirs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--tolerance" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = t,
                _ => {
                    eprintln!("--tolerance requires a non-negative number");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            dirs.push(arg.clone());
        }
    }
    let [baseline_dir, candidate_dir] = dirs.as_slice() else {
        eprintln!("usage: compare_trajectory <baseline_dir> <candidate_dir> [--tolerance <rel>]");
        return ExitCode::FAILURE;
    };

    let baselines = match bench_files(Path::new(baseline_dir)) {
        Ok(files) if !files.is_empty() => files,
        Ok(_) => {
            eprintln!("no BENCH_*.json files found under {baseline_dir}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("cannot read {baseline_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    let candidates = match candidate_artifacts(Path::new(candidate_dir)) {
        Ok(c) => c,
        Err(errors) => {
            for e in errors {
                println!("FAIL {e}");
            }
            println!("trajectory drift detected; refresh baselines/ if the change is intentional");
            return ExitCode::FAILURE;
        }
    };
    // A candidate artifact with no checked-in baseline is drift too: a
    // newly added binary must land with its baseline or it is never gated.
    for name in candidates.keys() {
        if !baselines
            .iter()
            .any(|b| b.file_name().is_some_and(|n| n.to_string_lossy() == *name))
        {
            failed = true;
            println!("FAIL {name}: no baseline under {baseline_dir}; add one");
        }
    }
    for base_path in baselines {
        let name = base_path
            .file_name()
            .expect("listed file")
            .to_string_lossy()
            .to_string();
        match compare_against(&base_path, candidates.get(&name), tolerance) {
            Ok(drifts) if drifts.is_empty() => {
                println!("OK   {name}");
            }
            Ok(drifts) => {
                failed = true;
                println!("FAIL {name}: {} drift(s)", drifts.len());
                for d in drifts.iter().take(20) {
                    println!("       {}: {}", d.path, d.detail);
                }
                if drifts.len() > 20 {
                    println!("       ... and {} more", drifts.len() - 20);
                }
            }
            Err(e) => {
                failed = true;
                println!("FAIL {name}: {e}");
            }
        }
    }
    if failed {
        println!("trajectory drift detected; refresh baselines/ if the change is intentional");
        ExitCode::FAILURE
    } else {
        println!("all trajectories within tolerance {tolerance}");
        ExitCode::SUCCESS
    }
}

/// All `BENCH_*.json` files directly under `dir`, sorted by name.
fn bench_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// The candidate artifacts under `dir`, keyed by `BENCH_<id>.json` file
/// name: on-disk report files, plus in-memory merges of any complete shard
/// manifest group that has no report file yet.
fn candidate_artifacts(dir: &Path) -> Result<BTreeMap<String, JsonValue>, Vec<String>> {
    let mut artifacts = BTreeMap::new();
    let mut errors = Vec::new();
    for path in bench_files(dir).unwrap_or_default() {
        let name = path
            .file_name()
            .expect("listed file")
            .to_string_lossy()
            .to_string();
        match std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read candidate {}: {e}", path.display()))
            .and_then(|text| {
                parse_json(&text).map_err(|e| format!("candidate {}: {e}", path.display()))
            }) {
            Ok(v) => {
                artifacts.insert(name, v);
            }
            Err(e) => errors.push(e),
        }
    }
    for (id, paths) in find_manifests(dir).ok().unwrap_or_default() {
        let name = format!("BENCH_{id}.json");
        if artifacts.contains_key(&name) {
            continue;
        }
        match merge_manifests(&paths) {
            Ok(report) => {
                let v = parse_json(&report.to_json()).expect("report JSON always parses");
                artifacts.insert(name, v);
            }
            Err(e) => errors.push(format!("{name}: cannot merge shard manifests: {e}")),
        }
    }
    if errors.is_empty() {
        Ok(artifacts)
    } else {
        Err(errors)
    }
}

fn compare_against(
    base: &Path,
    cand: Option<&JsonValue>,
    tolerance: f64,
) -> Result<Vec<Drift>, String> {
    let cand_json = cand.ok_or_else(|| {
        "missing candidate (no report file or complete manifest group)".to_string()
    })?;
    let base_text = std::fs::read_to_string(base)
        .map_err(|e| format!("cannot read baseline {}: {e}", base.display()))?;
    let base_json =
        parse_json(&base_text).map_err(|e| format!("baseline {}: {e}", base.display()))?;
    let mut drifts = Vec::new();
    compare_values(&base_json, cand_json, tolerance, "$", &mut drifts);
    Ok(drifts)
}

fn compare_values(a: &JsonValue, b: &JsonValue, tol: f64, path: &str, out: &mut Vec<Drift>) {
    match (a, b) {
        (JsonValue::Num(x), JsonValue::Num(y)) => {
            let scale = x.abs().max(y.abs());
            if (x - y).abs() > tol * scale + ABS_EPSILON {
                out.push(Drift {
                    path: path.to_string(),
                    detail: format!("baseline {x} vs candidate {y}"),
                });
            }
        }
        (JsonValue::Array(xs), JsonValue::Array(ys)) => {
            if xs.len() != ys.len() {
                out.push(Drift {
                    path: path.to_string(),
                    detail: format!("array length {} vs {}", xs.len(), ys.len()),
                });
                return;
            }
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                compare_values(x, y, tol, &format!("{path}[{i}]"), out);
            }
        }
        (JsonValue::Object(xs), JsonValue::Object(ys)) => {
            for (k, _) in ys.iter().filter(|(k, _)| a.get(k).is_none()) {
                out.push(Drift {
                    path: format!("{path}.{k}"),
                    detail: "unexpected key in candidate".to_string(),
                });
            }
            for (k, x) in xs {
                match b.get(k) {
                    Some(y) => compare_values(x, y, tol, &format!("{path}.{k}"), out),
                    None => out.push(Drift {
                        path: format!("{path}.{k}"),
                        detail: "missing key in candidate".to_string(),
                    }),
                }
            }
        }
        _ if a == b => {}
        _ => out.push(Drift {
            path: path.to_string(),
            detail: format!("baseline {a:?} vs candidate {b:?}"),
        }),
    }
}
