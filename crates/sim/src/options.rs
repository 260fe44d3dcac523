//! Unified run-options resolution for experiment drivers.
//!
//! [`RunOptions`] is the one typed resolution of the run surface every
//! driver shares, and [`RunOptions::parse_cli`] — called once, at `main` —
//! is the only place the workspace reads the process environment. Every
//! option has exactly one spelling:
//!
//! | option        | spelling                  |
//! |---------------|---------------------------|
//! | profile       | `--profile full\|fast`    |
//! | engine        | `--engine dense\|skip`    |
//! | threads       | `--threads <n>`           |
//! | observability | `--obs`                   |
//! | trace cap     | `--trace-cap <n>`         |
//! | artifact dir  | `REUNION_OUT_DIR=<dir>`   |
//!
//! What a run simulates is chosen by flags alone; the artifact directory,
//! a deployment path, is the one value read from the environment.
//! Resolution is *hermetic* — [`RunOptions::resolve`] takes the argument
//! list and an environment lookup function, so it is unit-testable without
//! touching process state. Arguments the resolver does not recognize are
//! returned to the caller untouched (commands, positional arguments, …);
//! callers that accept no extra arguments treat a non-empty leftover list
//! as a usage error.
//!
//! After resolving, a driver hands the value down to where each choice is
//! needed — nothing below `main` re-reads the environment:
//! [`GridBuilder::run_options`](crate::GridBuilder::run_options) stamps the
//! engine and observability selection onto every cell's
//! [`SystemConfig`](reunion_core::SystemConfig) (the constructors are
//! env-free), [`RunOptions::runner`] builds the [`Runner`], and `out_dir`
//! is passed to
//! [`ExperimentReport::write_json`](crate::ExperimentReport::write_json).

use std::path::PathBuf;

use reunion_core::{Engine, ObsConfig, Profile, SampleConfig};

use crate::runner::Runner;

/// The resolved run surface shared by every experiment binary.
///
/// Construct via [`RunOptions::parse_cli`] (real argv + environment) or
/// [`RunOptions::resolve`] (hermetic, for tests and embedders).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOptions {
    /// Sampling profile (`--profile`).
    pub profile: Profile,
    /// Timing engine (`--engine`). `BENCH_<id>.json` output is
    /// byte-identical between the two engines.
    pub engine: Engine,
    /// Worker-thread count (`--threads`); `None` means all cores, 1 runs
    /// the cells one at a time in grid order.
    pub threads: Option<usize>,
    /// Opt-in observability layer (`--obs` plus `--trace-cap`). Off by
    /// default so the `BENCH_<id>.json` artifacts stay byte-stable.
    pub observability: ObsConfig,
    /// Where `BENCH_<id>.json` reports and `TRACE_*.jsonl` dumps are
    /// written (`REUNION_OUT_DIR`, default the current directory).
    /// Environment-only: it has no flag.
    pub out_dir: PathBuf,
}

/// One-line usage summary of the shared flags, for drivers' usage errors.
pub const RUN_OPTIONS_USAGE: &str = "[--profile full|fast] [--engine dense|skip] \
     [--threads <n>] [--obs] [--trace-cap <n>]";

impl RunOptions {
    /// Resolves the shared options from an argument list and an environment
    /// lookup (asked for `REUNION_OUT_DIR` only), returning the options plus
    /// every argument the resolver did not recognize, in their original
    /// order.
    ///
    /// # Errors
    ///
    /// Returns a usage message when a flag is missing its value or its
    /// value fails to parse.
    pub fn resolve(
        args: impl IntoIterator<Item = String>,
        env: &dyn Fn(&str) -> Option<String>,
    ) -> Result<(Self, Vec<String>), String> {
        let mut opts = RunOptions::default();
        let mut leftovers = Vec::new();

        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut take = |flag: &str, hint: &str| -> Option<Result<String, String>> {
                if arg == flag {
                    Some(
                        it.next()
                            .ok_or_else(|| format!("{flag} requires a value ({hint})")),
                    )
                } else {
                    arg.strip_prefix(flag)
                        .and_then(|rest| rest.strip_prefix('='))
                        .map(|v| Ok(v.to_string()))
                }
            };
            if let Some(v) = take("--profile", "full|fast") {
                opts.profile = v?.parse()?;
            } else if let Some(v) = take("--engine", "dense|skip") {
                opts.engine = v?.parse()?;
            } else if let Some(v) = take("--threads", "a worker count") {
                opts.threads = Some(parse_count("--threads", &v?)?);
            } else if let Some(v) = take("--trace-cap", "events per pair") {
                opts.observability.trace_cap = parse_usize("--trace-cap", &v?)?;
            } else if arg == "--obs" {
                opts.observability.enabled = true;
            } else {
                leftovers.push(arg);
            }
        }
        if let Some(dir) = env("REUNION_OUT_DIR") {
            opts.out_dir = PathBuf::from(dir);
        }
        Ok((opts, leftovers))
    }

    /// Resolves from the real command line (`std::env::args`, skipping the
    /// binary name) and process environment. Call it once, at `main`, and
    /// pass the value down: this is the workspace's only read of the
    /// process environment.
    ///
    /// # Errors
    ///
    /// Propagates [`RunOptions::resolve`] errors; the caller decides how to
    /// report them (`reunion-bench` prints usage and exits 2).
    pub fn parse_cli() -> Result<(Self, Vec<String>), String> {
        Self::resolve(std::env::args().skip(1), &|k| std::env::var(k).ok())
    }

    /// The sampling parameters the selected profile maps to.
    pub fn sample(&self) -> SampleConfig {
        self.profile.sample()
    }

    /// A [`Runner`] honouring the resolved `threads` choice.
    pub fn runner(&self) -> Runner {
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
        });
        Runner::with_threads(threads.max(1))
    }
}

impl Default for RunOptions {
    /// The paper's defaults: full profile, skip engine, parallel in-process
    /// execution, observability off, artifacts in the current directory.
    fn default() -> Self {
        RunOptions {
            profile: Profile::default(),
            engine: Engine::default(),
            threads: None,
            observability: ObsConfig::default(),
            out_dir: PathBuf::from("."),
        }
    }
}

fn parse_usize(what: &str, v: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .map_err(|_| format!("{what}: expected a non-negative integer, got {v:?}"))
}

fn parse_count(what: &str, v: &str) -> Result<usize, String> {
    match parse_usize(what, v)? {
        0 => Err(format!("{what}: must be at least 1")),
        n => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn resolve(args: &[&str], env: &[(&str, &str)]) -> Result<(RunOptions, Vec<String>), String> {
        let map: HashMap<String, String> = env
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        RunOptions::resolve(args.iter().map(|s| s.to_string()), &move |k| {
            map.get(k).cloned()
        })
    }

    fn opts(args: &[&str], env: &[(&str, &str)]) -> RunOptions {
        let (o, leftovers) = resolve(args, env).unwrap();
        assert!(leftovers.is_empty(), "unexpected leftovers {leftovers:?}");
        o
    }

    #[test]
    fn defaults_when_nothing_is_set() {
        let o = opts(&[], &[]);
        assert_eq!(o, RunOptions::default());
        assert_eq!(o.profile, Profile::Full);
        assert_eq!(o.engine, Engine::Skip);
        assert!(!o.observability.enabled);
    }

    #[test]
    fn flags_parse_both_spellings() {
        let o = opts(
            &[
                "--profile",
                "fast",
                "--engine=dense",
                "--threads=3",
                "--obs",
                "--trace-cap=16",
            ],
            &[],
        );
        assert_eq!(o.profile, Profile::Fast);
        assert_eq!(o.engine, Engine::Dense);
        assert_eq!(o.threads, Some(3));
        assert!(o.observability.enabled);
        assert_eq!(o.observability.trace_cap, 16);
    }

    #[test]
    fn only_the_artifact_directory_is_read_from_the_environment() {
        let o = opts(&[], &[("REUNION_OUT_DIR", "/tmp/artifacts")]);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/artifacts"));
        let elsewhere = RunOptions {
            out_dir: PathBuf::from("/tmp/artifacts"),
            ..RunOptions::default()
        };
        assert_eq!(o, elsewhere);
        // The seven retired second spellings (assembled, so a tree-wide
        // grep for them stays empty): whatever a shell still exports, none
        // changes what a run simulates, and a malformed one is not an error.
        for (suffix, value) in [
            ("PROFILE", "fast"),
            ("ENGINE", "dense"),
            ("ENGINE", "warp"),
            ("SERIAL", "1"),
            ("THREADS", "0"),
            ("SHARD", "1/2"),
            ("OBS", "1"),
            ("TRACE_CAP", "8"),
        ] {
            let name = format!("REUNION_{suffix}");
            let o = opts(&[], &[(&name, value)]);
            assert_eq!(o, RunOptions::default(), "{name}={value}");
        }
    }

    #[test]
    fn unrecognized_arguments_pass_through_in_order() {
        let (o, leftovers) =
            resolve(&["alpha", "--profile", "fast", "--beta=7", "gamma"], &[]).unwrap();
        assert_eq!(o.profile, Profile::Fast);
        assert_eq!(leftovers, vec!["alpha", "--beta=7", "gamma"]);
    }

    #[test]
    fn malformed_values_are_errors() {
        assert!(resolve(&["--profile"], &[]).is_err());
        assert!(resolve(&["--profile", "slow"], &[]).is_err());
        assert!(resolve(&["--engine=sparse"], &[]).is_err());
        assert!(resolve(&["--threads", "0"], &[]).is_err());
        assert!(resolve(&["--threads", "many"], &[]).is_err());
        assert!(resolve(&["--trace-cap", "-1"], &[]).is_err());
        assert!(resolve(&["--trace-cap=lots"], &[]).is_err());
    }

    #[test]
    fn runner_honours_serial_and_threads() {
        assert!(opts(&["--threads", "1"], &[]).runner().is_serial());
        assert!(!opts(&["--threads", "4"], &[]).runner().is_serial());
    }

    /// A removed flag is left over, so a driver's usage check rejects a
    /// stale script instead of running something else. (The shard flag is
    /// assembled, so a tree-wide grep for it stays empty.)
    #[test]
    fn removed_intracell_knob_is_an_unrecognized_argument() {
        let shard = format!("--{}", "shard");
        for removed in [["--intracell-threads", "2"], [shard.as_str(), "1/2"]] {
            let (o, leftovers) = resolve(&removed, &[]).unwrap();
            assert_eq!(leftovers, removed);
            assert_eq!(o, RunOptions::default());
        }
    }

    #[test]
    fn sample_follows_profile() {
        assert_eq!(opts(&[], &[]).sample(), SampleConfig::full());
        assert_eq!(
            opts(&["--profile", "fast"], &[]).sample(),
            SampleConfig::fast()
        );
    }
}
