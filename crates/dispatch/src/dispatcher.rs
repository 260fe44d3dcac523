//! The dispatch lifecycle: assignment, leases, failure handling,
//! re-dispatch, collection, merge.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use reunion_sim::{manifest_progress_from_text, merge_manifests, ShardSpec};

use crate::transport::{DispatchError, ShardTask, Transport, WorkerHandle, WorkerStatus};

/// Kill one worker on purpose, once — the failure-injection hook CI's
/// end-to-end job uses to prove a dead host's shard is re-dispatched and
/// still merges byte-identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailureInjection {
    /// 1-based index of the shard whose worker is killed.
    pub shard_index: usize,
    /// The kill fires the first time the shard's manifest records at
    /// least this many cells (so the re-dispatched worker provably has
    /// partial work to resume).
    pub after_cells: usize,
}

/// Campaign parameters for one [`Dispatcher`] run.
#[derive(Clone, Debug)]
pub struct DispatchConfig {
    /// Grid identifier (names the registry experiment and the artifacts).
    pub grid_id: String,
    /// Partition width: shards `1/N … N/N` are dispatched.
    pub shards: usize,
    /// Where collected manifests and the merged `BENCH_<id>.json` land.
    pub merge_dir: PathBuf,
    /// Sampling profile forwarded to workers (`full` or `fast`).
    pub profile: String,
    /// No-progress lease: a running worker whose manifest gains no cell
    /// for this long is declared stalled, killed, and re-dispatched. Must
    /// comfortably exceed the slowest single cell.
    pub lease: Duration,
    /// Monitor poll interval.
    pub poll: Duration,
    /// Failures (launch errors, deaths, stalls) after which a host is
    /// evicted from the pool.
    pub max_host_failures: u32,
    /// Optional deliberate kill (failure injection for testing).
    pub inject_kill: Option<FailureInjection>,
}

impl DispatchConfig {
    /// A config with defaults: full profile, 10-minute lease, 500 ms
    /// poll, hosts evicted after 2 failures, no injection.
    pub fn new(grid_id: impl Into<String>, shards: usize, merge_dir: impl Into<PathBuf>) -> Self {
        DispatchConfig {
            grid_id: grid_id.into(),
            shards,
            merge_dir: merge_dir.into(),
            profile: "full".to_string(),
            lease: Duration::from_secs(600),
            poll: Duration::from_millis(500),
            max_host_failures: 2,
            inject_kill: None,
        }
    }

    /// Sets the sampling profile workers run under.
    pub fn profile(mut self, profile: impl Into<String>) -> Self {
        self.profile = profile.into();
        self
    }

    /// Sets the no-progress lease.
    pub fn lease(mut self, lease: Duration) -> Self {
        self.lease = lease;
        self
    }

    /// Sets the monitor poll interval.
    pub fn poll(mut self, poll: Duration) -> Self {
        self.poll = poll;
        self
    }

    /// Sets the per-host failure budget before eviction.
    pub fn max_host_failures(mut self, max: u32) -> Self {
        self.max_host_failures = max;
        self
    }

    /// Arms the failure-injection kill.
    pub fn inject_kill(mut self, injection: FailureInjection) -> Self {
        self.inject_kill = Some(injection);
        self
    }
}

/// How one launch of one shard on one host ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The worker finished its slice; the manifest was collected.
    Completed {
        /// Cells recorded in the collected manifest.
        cells: usize,
    },
    /// The worker could not be launched (unreachable host, missing
    /// binary).
    LaunchFailed {
        /// The transport's error.
        detail: String,
    },
    /// The worker exited without a complete manifest.
    Died {
        /// Exit status / incompleteness description.
        detail: String,
    },
    /// The worker made no progress within the lease and was killed.
    Stalled,
    /// The worker was killed by [`FailureInjection`].
    Killed,
}

/// One launch attempt, for the campaign log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// 1-based shard index.
    pub shard: usize,
    /// Pool name of the host the attempt ran on.
    pub host: String,
    /// Cells already present when the worker started (recovered from a
    /// previous attempt's seeded manifest — the resume hand-off working).
    pub seeded: usize,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

/// What a completed campaign produced.
#[derive(Clone, Debug)]
pub struct DispatchReport {
    /// The merged `BENCH_<id>.json` (byte-identical to a single-process
    /// run of the same grid and profile).
    pub bench_path: PathBuf,
    /// Collected per-shard manifests, in shard order.
    pub manifest_paths: Vec<PathBuf>,
    /// Every launch attempt, in the order it resolved.
    pub attempts: Vec<Attempt>,
    /// How many times a shard had to be re-dispatched.
    pub redispatches: usize,
    /// Hosts evicted for exceeding the failure budget.
    pub evicted_hosts: Vec<String>,
}

struct HostState {
    transport: Box<dyn Transport>,
    capacity: usize,
    running: usize,
    failures: u32,
    dead: bool,
}

struct Running {
    host: usize,
    handle: Box<dyn WorkerHandle>,
    last_progress: Instant,
    completed: usize,
    seeded: usize,
}

enum ShardState {
    Pending { seed: Option<String> },
    Running(Running),
    Done { manifest: PathBuf },
}

/// Drives one sharded campaign over a host pool to a merged
/// `BENCH_<id>.json`. See the crate docs for the lifecycle.
pub struct Dispatcher {
    cfg: DispatchConfig,
    hosts: Vec<HostState>,
}

impl Dispatcher {
    /// A dispatcher over `transports` (one `(transport, capacity)` pair
    /// per host — the shape [`HostPool::build_transports`] returns).
    ///
    /// [`HostPool::build_transports`]: crate::HostPool::build_transports
    ///
    /// # Panics
    ///
    /// Panics if the config names zero shards or the pool has no hosts —
    /// both are campaign-spec bugs, not runtime conditions.
    pub fn new(cfg: DispatchConfig, transports: Vec<(Box<dyn Transport>, usize)>) -> Self {
        assert!(cfg.shards >= 1, "campaign needs at least one shard");
        assert!(!transports.is_empty(), "campaign needs at least one host");
        Dispatcher {
            cfg,
            hosts: transports
                .into_iter()
                .map(|(transport, capacity)| HostState {
                    transport,
                    capacity: capacity.max(1),
                    running: 0,
                    failures: 0,
                    dead: false,
                })
                .collect(),
        }
    }

    fn task(&self, shard: usize) -> ShardTask {
        ShardTask {
            grid_id: self.cfg.grid_id.clone(),
            shard: ShardSpec::new(shard + 1, self.cfg.shards),
            profile: self.cfg.profile.clone(),
        }
    }

    /// The alive host with free capacity and the fewest running workers
    /// (declaration order breaks ties), if any.
    fn free_host(&self) -> Option<usize> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.dead && h.running < h.capacity)
            .min_by_key(|(_, h)| h.running)
            .map(|(i, _)| i)
    }

    fn host_failure(&mut self, host: usize, evicted: &mut Vec<String>) {
        let h = &mut self.hosts[host];
        h.failures += 1;
        if !h.dead && h.failures >= self.cfg.max_host_failures {
            h.dead = true;
            let name = h.transport.host().to_string();
            println!(
                "[dispatch] host {name} evicted after {} failure(s)",
                h.failures
            );
            evicted.push(name);
        }
    }

    /// Runs the campaign to completion.
    ///
    /// # Errors
    ///
    /// Fails when every host has been evicted with shards unfinished, or
    /// when the final merge/write fails. Either way the collected and
    /// partial manifests stay on disk: re-running the campaign resumes
    /// them instead of restarting.
    pub fn run(mut self) -> Result<DispatchReport, DispatchError> {
        let n = self.cfg.shards;
        let mut shards: Vec<ShardState> =
            (0..n).map(|_| ShardState::Pending { seed: None }).collect();
        let mut attempts: Vec<Attempt> = Vec::new();
        let mut evicted: Vec<String> = Vec::new();
        let mut redispatches = 0usize;
        let mut injection = self.cfg.inject_kill;

        loop {
            // Launch pending shards onto free hosts (load-spread, up to
            // each host's capacity).
            for (s, slot) in shards.iter_mut().enumerate() {
                let seed = match &*slot {
                    ShardState::Pending { seed } => seed.clone(),
                    _ => continue,
                };
                let Some(h) = self.free_host() else { break };
                let task = self.task(s);
                let host_name = self.hosts[h].transport.host().to_string();
                let seeded = seed
                    .as_deref()
                    .and_then(|t| manifest_progress_from_text(t).ok())
                    .map(|p| p.completed)
                    .unwrap_or(0);
                let launched = (|| -> Result<Box<dyn WorkerHandle>, DispatchError> {
                    if let Some(text) = &seed {
                        self.hosts[h].transport.seed_manifest(&task, text)?;
                    }
                    self.hosts[h].transport.launch(&task)
                })();
                match launched {
                    Ok(handle) => {
                        self.hosts[h].running += 1;
                        println!(
                            "[dispatch] launched {task} on {host_name} (seeded {seeded} cell(s))"
                        );
                        *slot = ShardState::Running(Running {
                            host: h,
                            handle,
                            last_progress: Instant::now(),
                            completed: seeded,
                            seeded,
                        });
                    }
                    Err(e) => {
                        println!("[dispatch] cannot launch {task} on {host_name}: {e}");
                        attempts.push(Attempt {
                            shard: s + 1,
                            host: host_name,
                            seeded,
                            outcome: AttemptOutcome::LaunchFailed {
                                detail: e.to_string(),
                            },
                        });
                        self.host_failure(h, &mut evicted);
                        // The shard stays pending; the next pass tries the
                        // remaining pool.
                    }
                }
            }

            // Poll running shards: tail manifests for progress/heartbeat,
            // then check worker status and the lease.
            for (s, slot) in shards.iter_mut().enumerate() {
                let ShardState::Running(r) = &mut *slot else {
                    continue;
                };
                let task = self.task(s);
                let host_name = self.hosts[r.host].transport.host().to_string();
                // Status first, then the manifest: once the worker is
                // observed exited, every cell it recorded is on disk, so
                // a tail taken *after* the status is the final word —
                // tailing first could miss cells flushed just before the
                // exit and mis-seed the re-dispatch. A transient tail
                // failure is not a verdict — the lease decides when
                // silence becomes one.
                let status = r.handle.poll();
                let text = self.hosts[r.host]
                    .transport
                    .manifest_text(&task)
                    .unwrap_or(None);
                let mut complete = false;
                if let Some(t) = &text {
                    if let Ok(p) = manifest_progress_from_text(t) {
                        if p.completed > r.completed {
                            r.completed = p.completed;
                            r.last_progress = Instant::now();
                            println!(
                                "[dispatch] {task} on {host_name}: {}/{} cell(s)",
                                p.completed, p.owned
                            );
                            // Present only when the campaign runs with the
                            // observability layer enabled; a separate line
                            // so the progress line above stays grep-stable.
                            if let Some(obs) = &p.obs {
                                println!(
                                    "[dispatch] {task} obs: {} check(s) (mean rtt {:.1}), \
                                     {} stall episode(s), {} incoherence gap(s)",
                                    obs.check_latency.count(),
                                    obs.check_latency.mean().unwrap_or(0.0),
                                    obs.stall_episodes.episodes(),
                                    obs.incoherence_gaps.count(),
                                );
                            }
                        }
                        complete = p.is_complete();
                    }
                }

                if let Some(inj) = injection {
                    if inj.shard_index == s + 1
                        && r.completed >= inj.after_cells
                        && status == WorkerStatus::Running
                    {
                        println!(
                            "[dispatch] INJECTED FAILURE: killing {task} on {host_name} \
                             after {} cell(s)",
                            r.completed
                        );
                        r.handle.kill();
                        let seeded = r.seeded;
                        let host = r.host;
                        self.hosts[host].running -= 1;
                        attempts.push(Attempt {
                            shard: s + 1,
                            host: host_name.clone(),
                            seeded,
                            outcome: AttemptOutcome::Killed,
                        });
                        self.host_failure(host, &mut evicted);
                        println!("[dispatch] re-dispatching {task} (resume from partial manifest)");
                        *slot = ShardState::Pending { seed: text };
                        redispatches += 1;
                        injection = None;
                        continue;
                    }
                }

                match status {
                    WorkerStatus::Running => {
                        if r.last_progress.elapsed() > self.cfg.lease {
                            println!(
                                "[dispatch] {task} on {host_name} stalled past the \
                                 {:?} lease; killing worker",
                                self.cfg.lease
                            );
                            r.handle.kill();
                            let seeded = r.seeded;
                            let host = r.host;
                            self.hosts[host].running -= 1;
                            attempts.push(Attempt {
                                shard: s + 1,
                                host: host_name,
                                seeded,
                                outcome: AttemptOutcome::Stalled,
                            });
                            self.host_failure(host, &mut evicted);
                            println!(
                                "[dispatch] re-dispatching {task} (resume from partial manifest)"
                            );
                            *slot = ShardState::Pending { seed: text };
                            redispatches += 1;
                        }
                    }
                    WorkerStatus::Exited { success } => {
                        let host = r.host;
                        let seeded = r.seeded;
                        // A successful exit with an incomplete-looking
                        // manifest is usually a transient tail failure
                        // (an ssh blip reads as `None`), not a dead
                        // worker — honour "a tail failure is not a
                        // verdict" here too: re-tail a couple of times
                        // before discarding the shard's work and
                        // charging the host.
                        let mut text = text;
                        let mut complete = complete;
                        if success && !complete {
                            for _ in 0..2 {
                                std::thread::sleep(self.cfg.poll);
                                if let Ok(Some(t)) = self.hosts[host].transport.manifest_text(&task)
                                {
                                    if let Ok(p) = manifest_progress_from_text(&t) {
                                        r.completed = r.completed.max(p.completed);
                                        complete = p.is_complete();
                                        text = Some(t);
                                        if complete {
                                            break;
                                        }
                                    }
                                }
                            }
                        }
                        let completed = r.completed;
                        self.hosts[host].running -= 1;
                        if success && complete {
                            match self.hosts[host]
                                .transport
                                .collect(&task, &self.cfg.merge_dir)
                            {
                                Ok(path) => {
                                    println!(
                                        "[dispatch] collected {task} from {host_name} \
                                         ({completed} cell(s))"
                                    );
                                    attempts.push(Attempt {
                                        shard: s + 1,
                                        host: host_name,
                                        seeded,
                                        outcome: AttemptOutcome::Completed { cells: completed },
                                    });
                                    *slot = ShardState::Done { manifest: path };
                                }
                                Err(e) => {
                                    println!("[dispatch] cannot collect {task}: {e}");
                                    attempts.push(Attempt {
                                        shard: s + 1,
                                        host: host_name,
                                        seeded,
                                        outcome: AttemptOutcome::Died {
                                            detail: format!("collect failed: {e}"),
                                        },
                                    });
                                    self.host_failure(host, &mut evicted);
                                    *slot = ShardState::Pending { seed: text };
                                    redispatches += 1;
                                }
                            }
                        } else {
                            let detail = if success {
                                format!("worker exited with an incomplete manifest ({completed} cell(s))")
                            } else {
                                "worker exited with failure".to_string()
                            };
                            println!("[dispatch] {task} on {host_name} died: {detail}");
                            attempts.push(Attempt {
                                shard: s + 1,
                                host: host_name,
                                seeded,
                                outcome: AttemptOutcome::Died { detail },
                            });
                            self.host_failure(host, &mut evicted);
                            println!(
                                "[dispatch] re-dispatching {task} (resume from partial manifest)"
                            );
                            *slot = ShardState::Pending { seed: text };
                            redispatches += 1;
                        }
                    }
                }
            }

            if shards.iter().all(|s| matches!(s, ShardState::Done { .. })) {
                // An armed injection that never fired means the target
                // worker finished between polls — the kill was not
                // exercised, so an injection campaign must not pass
                // vacuously.
                if let Some(inj) = injection {
                    return Err(DispatchError::InjectionNeverFired {
                        shard: inj.shard_index,
                    });
                }
                let manifest_paths: Vec<PathBuf> = shards
                    .iter()
                    .map(|s| match s {
                        ShardState::Done { manifest } => manifest.clone(),
                        _ => unreachable!("all shards are done"),
                    })
                    .collect();
                let report = merge_manifests(&manifest_paths)
                    .map_err(|e| DispatchError::Merge(e.to_string()))?;
                std::fs::create_dir_all(&self.cfg.merge_dir)
                    .map_err(|e| DispatchError::Merge(e.to_string()))?;
                let bench_path = self.cfg.merge_dir.join(format!("BENCH_{}.json", report.id));
                std::fs::write(&bench_path, report.to_json())
                    .map_err(|e| DispatchError::Merge(e.to_string()))?;
                println!(
                    "[dispatch] merged {} manifest(s) -> {}",
                    manifest_paths.len(),
                    bench_path.display()
                );
                return Ok(DispatchReport {
                    bench_path,
                    manifest_paths,
                    attempts,
                    redispatches,
                    evicted_hosts: evicted,
                });
            }

            // Unfinished shards with no host left to run them (and none
            // still in flight that could free one up): give up loudly.
            let any_running = shards.iter().any(|s| matches!(s, ShardState::Running(_)));
            if !any_running && self.hosts.iter().all(|h| h.dead) {
                let pending: Vec<usize> = shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !matches!(s, ShardState::Done { .. }))
                    .map(|(i, _)| i + 1)
                    .collect();
                return Err(DispatchError::AllHostsDead { pending });
            }

            std::thread::sleep(self.cfg.poll);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::path::Path;

    use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
    use reunion_sim::{ExperimentGrid, Runner};
    use reunion_workloads::Workload;

    fn tiny_grid() -> ExperimentGrid {
        ExperimentGrid::builder("mock", "dispatcher state-machine grid")
            .base(SystemConfig::small_test)
            .sample(SampleConfig::quick())
            .workloads(vec![Workload::by_name("sparse").unwrap()])
            .modes(&[ExecutionMode::NonRedundant, ExecutionMode::Reunion])
            .build()
    }

    /// Real manifest bytes for shard `i/n` of the tiny grid (the mock
    /// transport serves them so the final merge exercises the real
    /// merge path).
    fn manifest_bytes(index: usize, count: usize) -> String {
        let dir = std::env::temp_dir().join(format!(
            "reunion-dispatcher-mock-{}-{index}of{count}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let outcome = Runner::serial()
            .run_shard(&tiny_grid(), ShardSpec::new(index, count), &dir)
            .unwrap();
        let text = std::fs::read_to_string(outcome.manifest_path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        text
    }

    /// A scripted host: either refuses every launch, or "runs" a worker
    /// that instantly exits successfully with a complete manifest.
    struct MockTransport {
        name: String,
        refuse_launches: bool,
        served: RefCell<Option<String>>,
    }

    impl MockTransport {
        fn good(name: &str) -> Self {
            MockTransport {
                name: name.to_string(),
                refuse_launches: false,
                served: RefCell::new(None),
            }
        }

        fn unreachable(name: &str) -> Self {
            MockTransport {
                name: name.to_string(),
                refuse_launches: true,
                served: RefCell::new(None),
            }
        }
    }

    struct InstantExit;

    impl WorkerHandle for InstantExit {
        fn poll(&mut self) -> WorkerStatus {
            WorkerStatus::Exited { success: true }
        }
        fn kill(&mut self) {}
    }

    impl Transport for MockTransport {
        fn host(&self) -> &str {
            &self.name
        }

        fn launch(&self, task: &ShardTask) -> Result<Box<dyn WorkerHandle>, DispatchError> {
            if self.refuse_launches {
                return Err(DispatchError::Transport {
                    host: self.name.clone(),
                    detail: "connection refused".to_string(),
                });
            }
            *self.served.borrow_mut() =
                Some(manifest_bytes(task.shard.index(), task.shard.count()));
            Ok(Box::new(InstantExit))
        }

        fn manifest_text(&self, _task: &ShardTask) -> Result<Option<String>, DispatchError> {
            Ok(self.served.borrow().clone())
        }

        fn seed_manifest(&self, _task: &ShardTask, _text: &str) -> Result<(), DispatchError> {
            Ok(())
        }

        fn collect(&self, task: &ShardTask, dest: &Path) -> Result<PathBuf, DispatchError> {
            std::fs::create_dir_all(dest).unwrap();
            let path = dest.join(task.manifest_file_name());
            std::fs::write(&path, self.served.borrow().as_deref().unwrap()).unwrap();
            Ok(path)
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("reunion-dispatcher-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// An unreachable host at startup: its launch failures burn its
    /// budget, it is evicted, and the whole campaign lands on the
    /// remaining host — with a merged report identical to a serial run.
    #[test]
    fn unreachable_host_falls_back_to_remaining_pool() {
        let merge = scratch("fallback");
        let cfg = DispatchConfig::new("mock", 2, &merge)
            .poll(Duration::from_millis(5))
            .max_host_failures(1);
        let report = Dispatcher::new(
            cfg,
            vec![
                (
                    Box::new(MockTransport::unreachable("downhost")) as Box<dyn Transport>,
                    1,
                ),
                (
                    Box::new(MockTransport::good("uphost")) as Box<dyn Transport>,
                    1,
                ),
            ],
        )
        .run()
        .expect("campaign must survive one dead host");
        assert_eq!(report.evicted_hosts, vec!["downhost".to_string()]);
        assert!(report
            .attempts
            .iter()
            .any(|a| matches!(a.outcome, AttemptOutcome::LaunchFailed { .. })));
        let completed: Vec<&Attempt> = report
            .attempts
            .iter()
            .filter(|a| matches!(a.outcome, AttemptOutcome::Completed { .. }))
            .collect();
        assert_eq!(completed.len(), 2);
        assert!(completed.iter().all(|a| a.host == "uphost"));
        let merged = std::fs::read_to_string(&report.bench_path).unwrap();
        assert_eq!(merged, Runner::serial().run(&tiny_grid()).to_json());
        std::fs::remove_dir_all(&merge).ok();
    }

    /// Every host dead before any shard completes fails loudly, naming
    /// the unfinished shards.
    #[test]
    fn all_hosts_dead_names_pending_shards() {
        let merge = scratch("alldead");
        let cfg = DispatchConfig::new("mock", 2, &merge)
            .poll(Duration::from_millis(5))
            .max_host_failures(1);
        let err = Dispatcher::new(
            cfg,
            vec![(
                Box::new(MockTransport::unreachable("only")) as Box<dyn Transport>,
                1,
            )],
        )
        .run()
        .expect_err("no host can run anything");
        match err {
            DispatchError::AllHostsDead { pending } => assert_eq!(pending, vec![1, 2]),
            other => panic!("expected AllHostsDead, got {other}"),
        }
        std::fs::remove_dir_all(&merge).ok();
    }

    #[test]
    fn config_builder_applies_every_knob() {
        let cfg = DispatchConfig::new("fig5", 4, "/tmp/m")
            .profile("fast")
            .lease(Duration::from_secs(9))
            .poll(Duration::from_millis(7))
            .max_host_failures(5)
            .inject_kill(FailureInjection {
                shard_index: 2,
                after_cells: 3,
            });
        assert_eq!(cfg.profile, "fast");
        assert_eq!(cfg.lease, Duration::from_secs(9));
        assert_eq!(cfg.poll, Duration::from_millis(7));
        assert_eq!(cfg.max_host_failures, 5);
        assert_eq!(
            cfg.inject_kill,
            Some(FailureInjection {
                shard_index: 2,
                after_cells: 3
            })
        );
    }
}
