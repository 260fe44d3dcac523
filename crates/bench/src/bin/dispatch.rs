//! Distributed shard dispatcher: runs a whole sharded campaign against a
//! host pool and merges the result.
//!
//! ```text
//! dispatch --grid <id> --shards <N> --pool <pool.toml|pool.json>
//!          [--profile full|fast] [--out <dir>] [--work-root <dir>]
//!          [--bin-dir <dir>] [--lease-secs <s>] [--poll-ms <ms>]
//!          [--max-host-failures <k>] [--inject-kill <shard>:<cells>]
//! ```
//!
//! The pool spec lists hosts (`name`, `transport = "local"|"ssh"`,
//! `capacity`, ssh `addr`/`remote_dir`, optional `command` argv template
//! with `{grid}`/`{profile}` placeholders). `<id>` must be a row of the
//! experiment registry (checked before any host is contacted). Shards
//! `1/N … N/N` of the named grid are assigned to hosts up to capacity and
//! launched through each host's transport: `local` spawns
//! `reunion-bench run <id>` (from `--bin-dir`, default: next to this
//! executable) with `REUNION_SHARD=i/N`, followed by this invocation's
//! resolved run options as explicit flags (`RunOptions::to_args`), so
//! `--engine`, `--obs`, `--threads`, … reach every worker; `ssh` runs the
//! same command remotely with the manifest format as the only contract
//! (name the remote `reunion-bench` in the host's `command` if it is not
//! on the remote `PATH` at the same location). Progress is monitored by
//! tailing each worker's crash-safe manifest; a worker that dies, or
//! gains no cell within the lease, is killed and its shard re-dispatched
//! to a healthy host, seeded with the partial manifest so completed cells
//! are resumed, not re-run. Hosts exceeding `--max-host-failures` are
//! evicted from the pool.
//!
//! On success, `<out>/BENCH_<id>.json` is **byte-identical** to a
//! single-process run of the same grid and profile, and feeds straight
//! into `compare_trajectory`.
//!
//! `--inject-kill <shard>:<cells>` deliberately kills one worker after
//! its manifest reaches `<cells>` completed cells — the failure-injection
//! hook CI's `dispatch-e2e` job uses to prove the recovery path end to
//! end. If the target worker finishes before the kill can fire, the
//! campaign exits with an error rather than passing without having
//! exercised recovery.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use reunion_bench::{registry, run_options_with_extras, RunOptions, RUN_OPTIONS_USAGE};
use reunion_dispatch::{DispatchConfig, Dispatcher, FailureInjection, HostPool, TransportDefaults};

struct Opts {
    grid: String,
    shards: usize,
    pool: PathBuf,
    out: PathBuf,
    work_root: Option<PathBuf>,
    bin_dir: Option<PathBuf>,
    lease: Duration,
    poll: Duration,
    max_host_failures: u32,
    inject_kill: Option<FailureInjection>,
}

fn usage() -> String {
    format!(
        "usage: dispatch --grid <id> --shards <N> --pool <pool.toml|pool.json>\n\
         \x20      [--out <dir>] [--work-root <dir>]\n\
         \x20      [--bin-dir <dir>] [--lease-secs <s>] [--poll-ms <ms>]\n\
         \x20      [--max-host-failures <k>] [--inject-kill <shard>:<cells>]\n\
         \x20      plus the shared {RUN_OPTIONS_USAGE}"
    )
}

fn parse_inject(s: &str) -> Result<FailureInjection, String> {
    let (shard, cells) = s
        .split_once(':')
        .ok_or_else(|| format!("--inject-kill expects <shard>:<cells>, got {s:?}"))?;
    Ok(FailureInjection {
        shard_index: shard
            .parse()
            .map_err(|_| format!("bad shard index in {s:?}"))?,
        after_cells: cells
            .parse()
            .map_err(|_| format!("bad cell count in {s:?}"))?,
    })
}

fn parse_args(args: impl Iterator<Item = String>, run: &RunOptions) -> Result<Opts, String> {
    let mut grid = None;
    let mut shards = None;
    let mut pool = None;
    let mut out = run.out_dir.clone();
    let mut work_root = None;
    let mut bin_dir = None;
    let mut lease = Duration::from_secs(600);
    let mut poll = Duration::from_millis(500);
    let mut max_host_failures = 2;
    let mut inject_kill = None;
    let mut it = args;
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "--grid" => grid = Some(value("--grid")?),
            "--shards" => {
                shards = Some(
                    value("--shards")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("--shards requires a positive integer")?,
                )
            }
            "--pool" => pool = Some(PathBuf::from(value("--pool")?)),
            "--out" => out = PathBuf::from(value("--out")?),
            "--work-root" => work_root = Some(PathBuf::from(value("--work-root")?)),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value("--bin-dir")?)),
            "--lease-secs" => {
                lease = Duration::from_secs(
                    value("--lease-secs")?
                        .parse()
                        .map_err(|_| "--lease-secs requires a number of seconds")?,
                )
            }
            "--poll-ms" => {
                poll = Duration::from_millis(
                    value("--poll-ms")?
                        .parse()
                        .map_err(|_| "--poll-ms requires a number of milliseconds")?,
                )
            }
            "--max-host-failures" => {
                max_host_failures = value("--max-host-failures")?
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--max-host-failures requires a positive integer")?
            }
            "--inject-kill" => inject_kill = Some(parse_inject(&value("--inject-kill")?)?),
            other => return Err(format!("unrecognized argument {other:?}")),
        }
    }
    // Fail fast, with the id list, before any host is contacted.
    let grid = grid.ok_or("--grid is required")?;
    registry::find(&grid)?;
    Ok(Opts {
        grid,
        shards: shards.ok_or("--shards is required")?,
        pool: pool.ok_or("--pool is required")?,
        out,
        work_root,
        bin_dir,
        lease,
        poll,
        max_host_failures,
        inject_kill,
    })
}

fn main() -> ExitCode {
    // Shared surface first (profile/engine/obs/...), then the
    // dispatcher's own flags from the leftovers.
    let (run, leftovers) = run_options_with_extras();
    let opts = match parse_args(leftovers.into_iter(), &run) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let pool = match HostPool::load(&opts.pool) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    // Workers default to the sibling front door — `dispatch` and
    // `reunion-bench` both live in target/<profile>/ — told what this
    // invocation resolved as explicit flags, which (unlike the process
    // environment) also reach ssh workers. The shard is the transport's to
    // assign, per worker.
    let bin_dir = opts.bin_dir.clone().unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(PathBuf::from))
            .unwrap_or_else(|| PathBuf::from("."))
    });
    let worker_options = RunOptions {
        shard: None,
        ..run.clone()
    };
    let defaults = TransportDefaults {
        work_root: opts
            .work_root
            .clone()
            .unwrap_or_else(|| opts.out.join("hosts")),
        command: [
            bin_dir.join("reunion-bench").display().to_string(),
            "run".to_string(),
            "{grid}".to_string(),
        ]
        .into_iter()
        .chain(worker_options.to_args())
        .collect(),
    };
    let transports = match pool.build_transports(&defaults) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "[dispatch] {} shard(s) of {} over {} host(s) (capacity {}), profile {}",
        opts.shards,
        opts.grid,
        pool.hosts().len(),
        pool.capacity(),
        run.profile,
    );
    let mut cfg = DispatchConfig::new(&opts.grid, opts.shards, &opts.out)
        .profile(run.profile.to_string())
        .lease(opts.lease)
        .poll(opts.poll)
        .max_host_failures(opts.max_host_failures);
    if let Some(injection) = opts.inject_kill {
        cfg = cfg.inject_kill(injection);
    }
    match Dispatcher::new(cfg, transports).run() {
        Ok(report) => {
            println!(
                "[dispatch] campaign complete: {} attempt(s), {} re-dispatch(es), \
                 {} host(s) evicted",
                report.attempts.len(),
                report.redispatches,
                report.evicted_hosts.len(),
            );
            println!(
                "[dispatch] merged artifact: {}",
                report.bench_path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dispatch failed: {e}");
            ExitCode::FAILURE
        }
    }
}
