//! Unified run-options resolution for experiment drivers.
//!
//! [`RunOptions`] is the one typed resolution of the run surface every
//! driver shares, and [`RunOptions::parse_cli`] — called once, at `main` —
//! is the only place the workspace reads the process environment:
//!
//! | option        | flag                      | environment fallback        |
//! |---------------|---------------------------|-----------------------------|
//! | profile       | `--profile full\|fast`    | `REUNION_PROFILE`           |
//! | engine        | `--engine dense\|skip`    | `REUNION_ENGINE`            |
//! | serial        | `--serial`                | `REUNION_SERIAL=1`          |
//! | threads       | `--threads <n>`           | `REUNION_THREADS`           |
//! | shard         | `--shard i/N`             | `REUNION_SHARD`             |
//! | observability | `--obs`                   | `REUNION_OBS=1`             |
//! | trace cap     | `--trace-cap <n>`         | `REUNION_TRACE_CAP`         |
//! | artifact dir  | —                         | `REUNION_OUT_DIR`           |
//!
//! A flag always wins over its environment fallback. Resolution is
//! *hermetic* — [`RunOptions::resolve`] takes the argument list and an
//! environment lookup function, so precedence is unit-testable without
//! touching process state. Arguments the resolver does not recognize are
//! returned to the caller untouched (binaries with extra flags, positional
//! manifest paths, …); callers that accept no extra arguments treat a
//! non-empty leftover list as a usage error.
//!
//! After resolving, a driver hands the value down to where each choice is
//! needed — nothing below `main` re-reads the environment:
//! [`RunOptions::apply`] stamps the engine and observability selection
//! onto a [`SystemConfig`] (the constructors are env-free),
//! [`GridBuilder::run_options`](crate::GridBuilder::run_options) does the
//! same for every cell of an experiment grid, [`RunOptions::runner`]
//! builds the [`Runner`], and `out_dir` is passed to
//! [`ExperimentReport::write_json`](crate::ExperimentReport::write_json)
//! and [`Runner::run_shard`].

use std::path::PathBuf;

use reunion_core::{Engine, ObsConfig, Profile, SampleConfig, SystemConfig};

use crate::runner::Runner;
use crate::shard::ShardSpec;

/// The resolved run surface shared by every experiment binary.
///
/// Construct via [`RunOptions::parse_cli`] (real argv + environment) or
/// [`RunOptions::resolve`] (hermetic, for tests and embedders).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOptions {
    /// Sampling profile (`--profile`, `REUNION_PROFILE`).
    pub profile: Profile,
    /// Timing engine (`--engine`, `REUNION_ENGINE`). `BENCH_<id>.json`
    /// output is byte-identical between the two engines.
    pub engine: Engine,
    /// Force single-threaded execution (`--serial`, `REUNION_SERIAL=1`).
    pub serial: bool,
    /// Worker-thread cap (`--threads`, `REUNION_THREADS`); `None` means
    /// all cores. Ignored when `serial` is set.
    pub threads: Option<usize>,
    /// Shard slice to execute (`--shard i/N`, `REUNION_SHARD=i/N`);
    /// `None` runs the whole grid in-process.
    pub shard: Option<ShardSpec>,
    /// Opt-in observability layer (`--obs` / `REUNION_OBS=1` plus
    /// `--trace-cap` / `REUNION_TRACE_CAP`). Off by default so the
    /// `BENCH_<id>.json` artifacts stay byte-stable.
    pub observability: ObsConfig,
    /// Where `BENCH_<id>.json` reports, `MANIFEST_*.jsonl` shard manifests
    /// and `TRACE_*.jsonl` dumps are written (`REUNION_OUT_DIR`, default
    /// the current directory). Environment-only: it has no flag.
    pub out_dir: PathBuf,
}

/// One-line usage summary of the shared flags, for drivers' usage errors.
pub const RUN_OPTIONS_USAGE: &str = "[--profile full|fast] [--engine dense|skip] [--serial] \
     [--threads <n>] [--shard i/N] [--obs] [--trace-cap <n>]";

impl RunOptions {
    /// Resolves the shared options from an argument list and an environment
    /// lookup, returning the options plus every argument the resolver did
    /// not recognize, in their original order.
    ///
    /// # Errors
    ///
    /// Returns a usage message when a flag is missing its value or any
    /// flag/environment value fails to parse. A malformed environment value
    /// is an error even though it is merely a fallback — silently ignoring
    /// it would run the (expensive) default configuration.
    pub fn resolve(
        args: impl IntoIterator<Item = String>,
        env: &dyn Fn(&str) -> Option<String>,
    ) -> Result<(Self, Vec<String>), String> {
        Self::default().resolve_over(args, env)
    }

    /// [`resolve`](Self::resolve) with `self` supplying the value of every
    /// option neither a flag nor the environment chose.
    fn resolve_over(
        self,
        args: impl IntoIterator<Item = String>,
        env: &dyn Fn(&str) -> Option<String>,
    ) -> Result<(Self, Vec<String>), String> {
        let mut profile: Option<Profile> = None;
        let mut engine: Option<Engine> = None;
        let mut serial = false;
        let mut threads: Option<usize> = None;
        let mut shard: Option<ShardSpec> = None;
        let mut obs = false;
        let mut trace_cap: Option<usize> = None;
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
                profile = Some(v?.parse()?);
            } else if let Some(v) = take("--engine", "dense|skip") {
                engine = Some(v?.parse()?);
            } else if let Some(v) = take("--threads", "a worker count") {
                threads = Some(parse_count("--threads", &v?)?);
            } else if let Some(v) = take("--shard", "i/N") {
                shard = Some(v?.parse::<ShardSpec>()?);
            } else if let Some(v) = take("--trace-cap", "events per pair") {
                trace_cap = Some(parse_usize("--trace-cap", &v?)?);
            } else if arg == "--serial" {
                serial = true;
            } else if arg == "--obs" {
                obs = true;
            } else {
                leftovers.push(arg);
            }
        }

        let profile = match profile {
            Some(p) => p,
            None => match env("REUNION_PROFILE") {
                Some(v) => v.parse().map_err(|e| format!("REUNION_PROFILE: {e}"))?,
                None => self.profile,
            },
        };
        let engine = match engine {
            Some(e) => e,
            None => match env("REUNION_ENGINE") {
                Some(v) => v.parse().map_err(|e| format!("REUNION_ENGINE: {e}"))?,
                None => self.engine,
            },
        };
        let serial = serial || env_is_one(env, "REUNION_SERIAL") || self.serial;
        let threads = match threads {
            Some(t) => Some(t),
            None => match env("REUNION_THREADS") {
                Some(v) => Some(parse_count("REUNION_THREADS", &v)?),
                None => self.threads,
            },
        };
        let shard = match shard {
            Some(s) => Some(s),
            None => match env("REUNION_SHARD") {
                Some(v) => Some(
                    v.parse::<ShardSpec>()
                        .map_err(|e| format!("REUNION_SHARD: {e}"))?,
                ),
                None => self.shard,
            },
        };
        let obs = obs || env_is_one(env, "REUNION_OBS") || self.observability.enabled;
        let trace_cap = match trace_cap {
            Some(c) => c,
            None => match env("REUNION_TRACE_CAP") {
                Some(v) => parse_usize("REUNION_TRACE_CAP", &v)?,
                None => self.observability.trace_cap,
            },
        };
        let out_dir = env("REUNION_OUT_DIR").map_or(self.out_dir, PathBuf::from);

        Ok((
            RunOptions {
                profile,
                engine,
                serial,
                threads,
                shard,
                observability: ObsConfig {
                    enabled: obs,
                    trace_cap,
                },
                out_dir,
            },
            leftovers,
        ))
    }

    /// Resolves from the real command line (`std::env::args`, skipping the
    /// binary name) and process environment, on top of the calling
    /// binary's `defaults`. Call it once, at `main`, and pass the value
    /// down: this is the workspace's only read of the process environment.
    ///
    /// # Errors
    ///
    /// Propagates [`RunOptions::resolve`] errors; the caller decides how to
    /// report them (the bench harness prints usage and exits 2).
    pub fn parse_cli(defaults: Self) -> Result<(Self, Vec<String>), String> {
        defaults.resolve_over(std::env::args().skip(1), &|k| std::env::var(k).ok())
    }

    /// Stamps the per-system choices — timing engine and observability —
    /// onto a [`SystemConfig`].
    ///
    /// The config constructors are env-free; this (or the equivalent
    /// [`SystemConfig::with_engine`] / [`SystemConfig::with_observability`]
    /// builders) is how a resolved command line reaches a configuration.
    /// Grid-based drivers normally don't call it directly:
    /// [`GridBuilder::run_options`](crate::GridBuilder::run_options)
    /// records the same overlay on the grid, which applies it to every
    /// cell's config.
    pub fn apply(&self, cfg: &mut SystemConfig) {
        cfg.engine = self.engine;
        cfg.obs = self.observability;
    }

    /// The sampling parameters the selected profile maps to.
    pub fn sample(&self) -> SampleConfig {
        self.profile.sample()
    }

    /// A [`Runner`] honouring the resolved `serial`/`threads` choice.
    pub fn runner(&self) -> Runner {
        if self.serial {
            return Runner::serial();
        }
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
            serial: false,
            threads: None,
            shard: None,
            observability: ObsConfig::default(),
            out_dir: PathBuf::from("."),
        }
    }
}

fn env_is_one(env: &dyn Fn(&str) -> Option<String>, name: &str) -> bool {
    env(name).is_some_and(|v| v == "1")
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
                "--serial",
                "--threads=3",
                "--shard",
                "2/4",
                "--obs",
                "--trace-cap=16",
            ],
            &[],
        );
        assert_eq!(o.profile, Profile::Fast);
        assert_eq!(o.engine, Engine::Dense);
        assert!(o.serial);
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.shard, Some(ShardSpec::new(2, 4)));
        assert!(o.observability.enabled);
        assert_eq!(o.observability.trace_cap, 16);
    }

    #[test]
    fn env_fallback_fills_unset_options() {
        let o = opts(
            &[],
            &[
                ("REUNION_PROFILE", "fast"),
                ("REUNION_ENGINE", "dense"),
                ("REUNION_SERIAL", "1"),
                ("REUNION_THREADS", "2"),
                ("REUNION_SHARD", "1/2"),
                ("REUNION_OBS", "1"),
                ("REUNION_TRACE_CAP", "8"),
                ("REUNION_OUT_DIR", "/tmp/artifacts"),
            ],
        );
        assert_eq!(o.profile, Profile::Fast);
        assert_eq!(o.engine, Engine::Dense);
        assert!(o.serial);
        assert_eq!(o.threads, Some(2));
        assert_eq!(o.shard, Some(ShardSpec::new(1, 2)));
        assert!(o.observability.enabled);
        assert_eq!(o.observability.trace_cap, 8);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/artifacts"));
    }

    #[test]
    fn flag_wins_over_environment() {
        let o = opts(
            &["--profile", "full", "--engine", "skip", "--trace-cap", "32"],
            &[
                ("REUNION_PROFILE", "fast"),
                ("REUNION_ENGINE", "dense"),
                ("REUNION_TRACE_CAP", "8"),
            ],
        );
        assert_eq!(o.profile, Profile::Full);
        assert_eq!(o.engine, Engine::Skip);
        assert_eq!(o.observability.trace_cap, 32);
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
        assert!(resolve(&["--shard", "3"], &[]).is_err());
        assert!(resolve(&["--trace-cap", "-1"], &[]).is_err());
        assert!(resolve(&[], &[("REUNION_ENGINE", "warp")]).is_err());
        assert!(resolve(&[], &[("REUNION_THREADS", "0")]).is_err());
        assert!(resolve(&[], &[("REUNION_THREADS", "junk")]).is_err());
        assert!(resolve(&[], &[("REUNION_SHARD", "0/0")]).is_err());
        assert!(resolve(&[], &[("REUNION_TRACE_CAP", "lots")]).is_err());
    }

    #[test]
    fn serial_env_respects_canonical_convention() {
        assert!(opts(&[], &[("REUNION_SERIAL", "1")]).serial);
        assert!(!opts(&[], &[("REUNION_SERIAL", "true")]).serial);
        assert!(!opts(&[], &[("REUNION_SERIAL", "0")]).serial);
    }

    #[test]
    fn runner_honours_serial_and_threads() {
        assert!(opts(&["--serial"], &[]).runner().is_serial());
        assert!(!opts(&["--threads", "4"], &[]).runner().is_serial());
        let both = opts(&["--serial", "--threads", "4"], &[]);
        assert!(both.runner().is_serial(), "serial outranks a thread cap");
    }

    #[test]
    fn removed_intracell_knob_is_an_unrecognized_argument() {
        let (o, leftovers) = resolve(
            &["--intracell-threads", "2"],
            &[("REUNION_INTRACELL_THREADS", "2")],
        )
        .unwrap();
        assert_eq!(leftovers, vec!["--intracell-threads", "2"]);
        assert_eq!(o, RunOptions::default());
    }

    #[test]
    fn binary_defaults_rank_below_flags_and_environment() {
        let fast = || RunOptions {
            profile: Profile::Fast,
            ..RunOptions::default()
        };
        let resolve = |args: &[&str], env: &[(&str, &str)]| {
            let env: HashMap<String, String> = env
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            let args = args.iter().map(|s| s.to_string());
            fast()
                .resolve_over(args, &move |k| env.get(k).cloned())
                .unwrap()
                .0
        };
        assert_eq!(resolve(&[], &[]), fast());
        assert_eq!(
            resolve(&[], &[("REUNION_PROFILE", "full")]).profile,
            Profile::Full
        );
        assert_eq!(resolve(&["--profile", "full"], &[]).profile, Profile::Full);
    }

    #[test]
    fn apply_stamps_engine_and_observability_onto_a_config() {
        use reunion_core::ExecutionMode;
        let o = opts(&["--engine", "dense", "--obs", "--trace-cap", "16"], &[]);
        let mut cfg = SystemConfig::table1(ExecutionMode::Reunion);
        assert_eq!(cfg.engine, Engine::Skip, "env-free constructor default");
        assert!(!cfg.obs.enabled);
        o.apply(&mut cfg);
        assert_eq!(cfg.engine, Engine::Dense);
        assert!(cfg.obs.enabled);
        assert_eq!(cfg.obs.trace_cap, 16);
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
