//! The repo benchmark. `run.sh` builds this package and forwards its
//! arguments here:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one run
//!   under the benchmark contract: `--trace 0` reports the end-to-end
//!   metrics, `--trace 1` the per-layer metrics; the last stdout line is
//!   the result object.
//! * no `--workload` — the whole series: every workload, end-to-end then
//!   traced, one process at a time, collected into `out/result.json`.
//! * `--check` — smoke mode for either: one round, two cells per grid.
//! * `compare <a.json> <b.json>` — two series against the bounds.

mod compare;
mod estimator;
mod grids;
mod measure;
mod probes;
mod report;
mod run;
mod spec;
mod trace;
mod traced;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use reunion_sim::{parse_json, JsonValue, JsonWriter};

use crate::grids::WORKLOADS;
use crate::report::RunReport;
use crate::run::RunArgs;

const USAGE: &str = "usage: run.sh [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace 0|1] [--check]\n       run.sh compare <a.json> <b.json>";

struct Cli {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    check: bool,
    dir: PathBuf,
}

fn parse_cli(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        check: false,
        dir: PathBuf::from("benchmark"),
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--dir" => cli.dir = PathBuf::from(value("--dir")?),
            "--check" => cli.check = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if cli.command.is_none() => cli.command = Some(arg),
            _ => cli.positional.push(arg),
        }
    }
    Ok(cli)
}

/// `run_seconds` of the checked-in `BENCHMARK.json`.
fn declared_seconds() -> f64 {
    parse_json(spec::BENCHMARK_JSON)
        .ok()
        .and_then(|doc| doc.get("run_seconds").and_then(JsonValue::as_f64))
        .expect("BENCHMARK.json declares run_seconds")
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (cli.command.as_deref(), &cli.workload) {
        (Some("compare"), _) => compare_files(&cli.positional),
        (Some("setup-probe"), Some(_)) => setup_probe(&cli, process_start),
        (None, Some(_)) => single_run(&cli, process_start),
        (None, None) => series(&cli),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_args(cli: &Cli) -> RunArgs {
    RunArgs {
        workload: cli.workload.clone().expect("checked by the caller"),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or_else(declared_seconds),
        trace: cli.trace,
        smoke: cli.check,
        dir: cli.dir.clone(),
    }
}

fn single_run(cli: &Cli, process_start: Instant) -> Result<u8, String> {
    let args = run_args(cli);
    let report = if args.trace {
        run::per_layer(&args, process_start)?
    } else {
        run::end_to_end(&args, process_start)?
    };
    report
        .write(&args.out_dir())
        .map_err(|e| format!("detail file: {e}"))?;
    run::print(&report);
    Ok(u8::from(!report.correct()))
}

/// The child side of a set-up sample: set up, print the seconds, exit.
fn setup_probe(cli: &Cli, process_start: Instant) -> Result<u8, String> {
    let (_, seconds) = run::set_up(&run_args(cli), process_start)?;
    println!("{seconds}");
    Ok(0)
}

fn compare_files(paths: &[String]) -> Result<u8, String> {
    let [a, b] = paths else {
        return Err(USAGE.to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let verdict = compare::compare_documents(&read(a)?, &read(b)?)?;
    Ok(verdict.exit_code() as u8)
}

fn first_line_of(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, end-to-end then traced, one child process at a time,
/// then `out/result.json` with a host descriptor.
fn series(cli: &Cli) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = cli.seconds.unwrap_or_else(declared_seconds);
    let out_dir = cli.dir.join("out");
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--dir")
                .arg(&cli.dir);
            if cli.check {
                cmd.arg("--check");
            }
            let status = cmd.status().map_err(|e| format!("{workload}: {e}"))?;
            all_correct &= status.success();
            let path = out_dir.join(RunReport::file_name(workload, trace));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(text.trim_end().to_string());
        }
    }

    let mut host = JsonWriter::new();
    host.begin_object();
    host.field_str("cpu_model", &cpu_model());
    host.field_u64(
        "hardware_threads",
        std::thread::available_parallelism().map_or(1, usize::from) as u64,
    );
    host.field_str("rustc", &first_line_of("rustc", &["--version"], &cli.dir));
    host.field_str(
        "commit",
        &first_line_of("git", &["rev-parse", "HEAD"], &cli.dir),
    );
    host.end_object();
    // The detail files are JSON documents already: splice them in as they are.
    let result = format!(
        "{{\n\"host\": {},\n\"seed\": {},\n\"run_seconds\": {seconds},\n\"smoke\": {},\n\"runs\": [\n{}\n]\n}}\n",
        host.finish(),
        cli.seed,
        u8::from(cli.check),
        runs.join(",\n")
    );
    let path = out_dir.join("result.json");
    std::fs::write(&path, result).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nseries written to {}", path.display());
    Ok(u8::from(!all_correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn contract_arguments_parse() {
        let c = cli(&[
            "--workload",
            "manycore",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
            "--dir",
            "x",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("manycore"));
        assert_eq!(
            (c.seed, c.seconds, c.trace, c.check),
            (42, Some(10.0), true, false)
        );
        assert_eq!(c.dir, PathBuf::from("x"));
        let c = cli(&["compare", "a.json", "b.json"]).unwrap();
        assert_eq!(c.command.as_deref(), Some("compare"));
        assert_eq!(c.positional, ["a.json", "b.json"]);
        let c = cli(&["--check"]).unwrap();
        assert!(c.check && c.workload.is_none() && c.seed == 1);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--trace", "2"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn run_seconds_comes_from_benchmark_json() {
        let s = declared_seconds();
        assert!((1.0..=60.0).contains(&s) && s.fract() == 0.0);
    }

    /// The release profile is copied, not inherited: hold the copy to the
    /// root manifest's.
    #[test]
    fn release_profile_matches_the_root_manifest() {
        let profile = |text: &str| -> Vec<String> {
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        let root = profile(include_str!("../../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(root, profile(include_str!("../Cargo.toml")));
    }
}
