//! Pluggable host transports: how the dispatcher launches shard workers
//! and moves manifest bytes.
//!
//! A transport knows four things about a host: how to *launch* a worker
//! for one shard, how to *tail* that worker's manifest (the progress and
//! heartbeat signal), how to *seed* a partial manifest into the host's
//! work directory (the resume hand-off when a shard migrates off a dead
//! host), and how to *collect* a finished manifest back to the merge
//! directory. Everything else — leases, retries, host health — lives in
//! the [`Dispatcher`](crate::Dispatcher), so a new transport (a container
//! scheduler, a batch queue) only has to move bytes.

use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use reunion_sim::ShardSpec;

/// One unit of dispatchable work: shard `i/N` of one experiment grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardTask {
    /// Grid identifier (the experiment's `BENCH_<id>` id).
    pub grid_id: String,
    /// Which slice of the grid's partition this task runs.
    pub shard: ShardSpec,
    /// Sampling profile forwarded to the worker (`full` or `fast`).
    pub profile: String,
}

impl ShardTask {
    /// Canonical manifest file name this task's worker writes.
    pub fn manifest_file_name(&self) -> String {
        self.shard.manifest_file_name(&self.grid_id)
    }
}

impl fmt::Display for ShardTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} shard {}", self.grid_id, self.shard)
    }
}

/// Why a dispatch operation failed.
#[derive(Debug)]
pub enum DispatchError {
    /// A host-pool spec could not be parsed or validated.
    Pool(String),
    /// A transport operation against one host failed.
    Transport {
        /// The host the operation targeted.
        host: String,
        /// What went wrong.
        detail: String,
    },
    /// Every host in the pool was evicted before the campaign finished.
    AllHostsDead {
        /// 1-based indices of the shards still unfinished.
        pending: Vec<usize>,
    },
    /// The collected manifests could not be merged or written.
    Merge(String),
    /// A configured failure injection never fired: the campaign finished
    /// without the deliberate kill happening, so the run proved nothing
    /// about recovery — fail loudly instead of passing vacuously.
    InjectionNeverFired {
        /// 1-based index of the shard the injection targeted.
        shard: usize,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::Pool(e) => write!(f, "host pool: {e}"),
            DispatchError::Transport { host, detail } => write!(f, "host {host}: {detail}"),
            DispatchError::AllHostsDead { pending } => write!(
                f,
                "every host evicted with shard(s) {pending:?} unfinished; \
                 fix the pool and re-run (completed shards resume from their manifests)"
            ),
            DispatchError::Merge(e) => write!(f, "merge: {e}"),
            DispatchError::InjectionNeverFired { shard } => write!(
                f,
                "failure injection for shard {shard} never fired (its worker was never \
                 observed running past the cell threshold); the recovery path was not \
                 exercised — tighten the poll interval or lower the threshold"
            ),
        }
    }
}

impl std::error::Error for DispatchError {}

/// What a worker is doing right now, as far as its handle can tell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerStatus {
    /// Still running.
    Running,
    /// Exited.
    Exited {
        /// Whether the exit status reported success.
        success: bool,
    },
}

/// A launched shard worker the dispatcher can poll and kill.
pub trait WorkerHandle {
    /// Non-blocking status probe.
    fn poll(&mut self) -> WorkerStatus;

    /// Terminates the worker (best effort; idempotent). The shard's
    /// manifest keeps every cell completed before the kill — that is the
    /// crash-safety contract re-dispatch relies on.
    fn kill(&mut self);
}

/// A host the dispatcher can run shard workers on.
pub trait Transport {
    /// The host's pool name (for logs and health bookkeeping).
    fn host(&self) -> &str;

    /// Launches the worker for `task`.
    fn launch(&self, task: &ShardTask) -> Result<Box<dyn WorkerHandle>, DispatchError>;

    /// Current bytes of `task`'s manifest on this host, or `None` while
    /// the worker has not created it yet. This is the dispatcher's
    /// progress *and* heartbeat signal: a growing completed-cell count
    /// renews the lease.
    fn manifest_text(&self, task: &ShardTask) -> Result<Option<String>, DispatchError>;

    /// Places partial manifest bytes into the host's work directory
    /// before launch, so the worker resumes the recorded cells instead of
    /// re-running them (the re-dispatch hand-off).
    fn seed_manifest(&self, task: &ShardTask, text: &str) -> Result<(), DispatchError>;

    /// Copies `task`'s finished manifest into `dest` and returns the
    /// local path.
    fn collect(&self, task: &ShardTask, dest: &Path) -> Result<PathBuf, DispatchError>;
}

/// A live child process (the handle type both built-in transports use —
/// for [`SshCommand`] the child is the local `ssh` client, whose death
/// also means the channel to the remote worker is gone).
pub struct ProcessHandle {
    child: Child,
}

impl ProcessHandle {
    fn new(child: Child) -> Self {
        ProcessHandle { child }
    }
}

impl WorkerHandle for ProcessHandle {
    fn poll(&mut self) -> WorkerStatus {
        match self.child.try_wait() {
            Ok(None) => WorkerStatus::Running,
            Ok(Some(status)) => WorkerStatus::Exited {
                success: status.success(),
            },
            // A wait error means the process is no longer observable;
            // treat it as a failed exit so the shard gets re-dispatched.
            Err(_) => WorkerStatus::Exited { success: false },
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Replaces the `{grid}` and `{profile}` placeholders of a command
/// template with the task's values.
fn substitute(template: &[String], task: &ShardTask) -> Vec<String> {
    template
        .iter()
        .map(|a| {
            a.replace("{grid}", &task.grid_id)
                .replace("{profile}", &task.profile)
        })
        .collect()
}

/// Runs shard workers as child processes on the dispatcher's own machine,
/// one work directory per pool host.
///
/// "Hosts" here are capacity slots sharing the local CPU — exactly what
/// CI's end-to-end dispatch job uses, and the degenerate pool a laptop
/// campaign starts from. The worker command is an argv template whose
/// `{grid}` and `{profile}` placeholders are substituted per task
/// (default: `reunion-bench run {grid}` next to the dispatcher's own
/// executable); the worker is handed `REUNION_SHARD` and `REUNION_OUT_DIR`
/// by the launch and resolves them with the rest of its run options.
pub struct LocalProcess {
    host: String,
    work_dir: PathBuf,
    command: Vec<String>,
    extra_env: Vec<(String, String)>,
}

impl LocalProcess {
    /// A local host named `host`, writing manifests under `work_dir`,
    /// launching `command` (a non-empty argv template; `{grid}` and
    /// `{profile}` are substituted per task).
    ///
    /// # Panics
    ///
    /// Panics if `command` is empty.
    pub fn new(
        host: impl Into<String>,
        work_dir: impl Into<PathBuf>,
        command: Vec<String>,
    ) -> Self {
        assert!(!command.is_empty(), "worker command must name a program");
        LocalProcess {
            host: host.into(),
            work_dir: work_dir.into(),
            command,
            extra_env: Vec::new(),
        }
    }

    /// Adds an environment variable to every worker launched on this host
    /// (the failure-injection tests drive worker fault knobs through
    /// this).
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra_env.push((key.into(), value.into()));
        self
    }

    fn manifest_path(&self, task: &ShardTask) -> PathBuf {
        self.work_dir.join(task.manifest_file_name())
    }

    fn err(&self, detail: impl fmt::Display) -> DispatchError {
        DispatchError::Transport {
            host: self.host.clone(),
            detail: detail.to_string(),
        }
    }
}

impl Transport for LocalProcess {
    fn host(&self) -> &str {
        &self.host
    }

    fn launch(&self, task: &ShardTask) -> Result<Box<dyn WorkerHandle>, DispatchError> {
        std::fs::create_dir_all(&self.work_dir).map_err(|e| self.err(e))?;
        let argv = substitute(&self.command, task);
        let log_path = self.work_dir.join(format!(
            "worker_{}_shard{}.log",
            task.grid_id,
            task.shard.index()
        ));
        let log = File::create(&log_path).map_err(|e| self.err(e))?;
        let log_err = log.try_clone().map_err(|e| self.err(e))?;
        let child = Command::new(&argv[0])
            .args(&argv[1..])
            .env("REUNION_SHARD", task.shard.to_string())
            .env("REUNION_OUT_DIR", &self.work_dir)
            .envs(self.extra_env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log_err)
            .spawn()
            .map_err(|e| self.err(format!("cannot launch {:?}: {e}", argv[0])))?;
        Ok(Box::new(ProcessHandle::new(child)))
    }

    fn manifest_text(&self, task: &ShardTask) -> Result<Option<String>, DispatchError> {
        match std::fs::read_to_string(self.manifest_path(task)) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(self.err(e)),
        }
    }

    fn seed_manifest(&self, task: &ShardTask, text: &str) -> Result<(), DispatchError> {
        std::fs::create_dir_all(&self.work_dir).map_err(|e| self.err(e))?;
        std::fs::write(self.manifest_path(task), text).map_err(|e| self.err(e))
    }

    fn collect(&self, task: &ShardTask, dest: &Path) -> Result<PathBuf, DispatchError> {
        std::fs::create_dir_all(dest).map_err(|e| self.err(e))?;
        let to = dest.join(task.manifest_file_name());
        std::fs::copy(self.manifest_path(task), &to).map_err(|e| self.err(e))?;
        Ok(to)
    }
}

/// Runs shard workers on a remote host by shelling out to `ssh`/`scp`.
///
/// The only contract with the remote side is the manifest format: the
/// remote command is the same `reunion-bench run`, the manifest is tailed
/// with `ssh … cat`, seeded with `ssh … cat > path`, and collected with
/// `scp`. The handle is the local `ssh` client process — if the
/// connection dies, the handle reports a failed exit and the lease logic
/// takes over. `BatchMode=yes` keeps a misconfigured host an error, never
/// an interactive password prompt wedging the campaign.
///
/// Killing the handle kills the local client only; with no pty, sshd
/// does not reliably terminate the remote command, so an orphaned worker
/// may keep running. That is contained, not prevented: a worker opens
/// its manifest by rewriting through a temp file and an atomic rename,
/// so the moment a re-dispatched worker (same host or not) resumes the
/// shard, the orphan is left appending to an unlinked inode and its
/// output disappears; any lines it interleaved into the seeded file
/// before that rename are dropped by the parse-prefix recovery (an
/// anomalous line truncates what resume trusts). The cost of an orphan
/// is therefore wasted remote cycles — and, in the worst interleave, one
/// more re-dispatch round — never a corrupted merge. Pools where
/// orphans are likely (flaky links, long cells) should set the host
/// failure budget to 1 so a killed host is evicted rather than reused.
pub struct SshCommand {
    host: String,
    addr: String,
    remote_dir: String,
    command: Vec<String>,
    ssh: Vec<String>,
    scp: Vec<String>,
}

impl SshCommand {
    /// A remote host named `host`, reached at `addr` (an ssh destination
    /// like `user@node7`), working under `remote_dir`, running `command`
    /// (argv template, `{grid}`/`{profile}` substituted per task).
    ///
    /// # Panics
    ///
    /// Panics if `command` is empty.
    pub fn new(
        host: impl Into<String>,
        addr: impl Into<String>,
        remote_dir: impl Into<String>,
        command: Vec<String>,
    ) -> Self {
        assert!(!command.is_empty(), "worker command must name a program");
        SshCommand {
            host: host.into(),
            addr: addr.into(),
            remote_dir: remote_dir.into(),
            command,
            ssh: vec![
                "ssh".to_string(),
                "-o".to_string(),
                "BatchMode=yes".to_string(),
            ],
            scp: vec![
                "scp".to_string(),
                "-q".to_string(),
                "-o".to_string(),
                "BatchMode=yes".to_string(),
            ],
        }
    }

    fn remote_manifest(&self, task: &ShardTask) -> String {
        format!("{}/{}", self.remote_dir, task.manifest_file_name())
    }

    /// Single-quotes `s` for a POSIX shell (the remote side of every ssh
    /// invocation is a shell command line).
    fn shell_quote(s: &str) -> String {
        format!("'{}'", s.replace('\'', "'\\''"))
    }

    /// The remote command line `launch` runs: create the work directory,
    /// then the worker with its shard environment.
    fn remote_launch_command(&self, task: &ShardTask) -> String {
        let argv: Vec<String> = substitute(&self.command, task)
            .iter()
            .map(|a| Self::shell_quote(a))
            .collect();
        format!(
            "mkdir -p {dir} && cd {dir} && REUNION_SHARD={shard} REUNION_OUT_DIR=. {cmd}",
            dir = Self::shell_quote(&self.remote_dir),
            shard = task.shard,
            cmd = argv.join(" "),
        )
    }

    /// The full local argv `launch` spawns (exposed for tests: ssh
    /// command construction is verifiable without an ssh server).
    pub fn launch_argv(&self, task: &ShardTask) -> Vec<String> {
        let mut argv = self.ssh.clone();
        argv.push(self.addr.clone());
        argv.push(self.remote_launch_command(task));
        argv
    }

    /// The local argv used to tail the remote manifest.
    pub fn tail_argv(&self, task: &ShardTask) -> Vec<String> {
        let mut argv = self.ssh.clone();
        argv.push(self.addr.clone());
        argv.push(format!(
            "cat {}",
            Self::shell_quote(&self.remote_manifest(task))
        ));
        argv
    }

    /// The local argv used to seed a partial manifest (text arrives on
    /// the remote shell's stdin).
    pub fn seed_argv(&self, task: &ShardTask) -> Vec<String> {
        let mut argv = self.ssh.clone();
        argv.push(self.addr.clone());
        argv.push(format!(
            "mkdir -p {dir} && cat > {path}",
            dir = Self::shell_quote(&self.remote_dir),
            path = Self::shell_quote(&self.remote_manifest(task)),
        ));
        argv
    }

    /// The local argv used to fetch the finished manifest into `dest`.
    pub fn collect_argv(&self, task: &ShardTask, dest: &Path) -> Vec<String> {
        let mut argv = self.scp.clone();
        argv.push(format!("{}:{}", self.addr, self.remote_manifest(task)));
        argv.push(dest.join(task.manifest_file_name()).display().to_string());
        argv
    }

    fn err(&self, detail: impl fmt::Display) -> DispatchError {
        DispatchError::Transport {
            host: self.host.clone(),
            detail: detail.to_string(),
        }
    }
}

impl Transport for SshCommand {
    fn host(&self) -> &str {
        &self.host
    }

    fn launch(&self, task: &ShardTask) -> Result<Box<dyn WorkerHandle>, DispatchError> {
        let argv = self.launch_argv(task);
        let child = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| self.err(format!("cannot launch {:?}: {e}", argv[0])))?;
        Ok(Box::new(ProcessHandle::new(child)))
    }

    fn manifest_text(&self, task: &ShardTask) -> Result<Option<String>, DispatchError> {
        let argv = self.tail_argv(task);
        let out = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| self.err(format!("cannot run {:?}: {e}", argv[0])))?;
        if out.status.success() {
            Ok(Some(String::from_utf8_lossy(&out.stdout).into_owned()))
        } else {
            // `cat` of a not-yet-created manifest and an unreachable host
            // both land here; the distinction doesn't matter to the
            // dispatcher — either way there is no progress to observe,
            // and the lease decides when that becomes a failure.
            Ok(None)
        }
    }

    fn seed_manifest(&self, task: &ShardTask, text: &str) -> Result<(), DispatchError> {
        let argv = self.seed_argv(task);
        let mut child = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| self.err(format!("cannot run {:?}: {e}", argv[0])))?;
        child
            .stdin
            .take()
            .expect("stdin was piped")
            .write_all(text.as_bytes())
            .map_err(|e| self.err(e))?;
        let status = child.wait().map_err(|e| self.err(e))?;
        if status.success() {
            Ok(())
        } else {
            Err(self.err(format!("seed command exited with {status}")))
        }
    }

    fn collect(&self, task: &ShardTask, dest: &Path) -> Result<PathBuf, DispatchError> {
        std::fs::create_dir_all(dest).map_err(|e| self.err(e))?;
        let argv = self.collect_argv(task, dest);
        let status = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::null())
            .status()
            .map_err(|e| self.err(format!("cannot run {:?}: {e}", argv[0])))?;
        if status.success() {
            Ok(dest.join(task.manifest_file_name()))
        } else {
            Err(self.err(format!("scp exited with {status}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> ShardTask {
        ShardTask {
            grid_id: "fig5".to_string(),
            shard: ShardSpec::new(2, 3),
            profile: "full".to_string(),
        }
    }

    #[test]
    fn placeholders_substitute_per_task() {
        let argv = substitute(
            &[
                "/bins/{grid}".to_string(),
                "--profile".to_string(),
                "{profile}".to_string(),
            ],
            &task(),
        );
        assert_eq!(argv, ["/bins/fig5", "--profile", "full"]);
    }

    #[test]
    fn ssh_launch_command_carries_shard_environment() {
        let ssh = SshCommand::new(
            "beta",
            "user@beta",
            "/scratch/reunion",
            vec![
                "bin/{grid}".to_string(),
                "--profile".to_string(),
                "{profile}".to_string(),
            ],
        );
        let argv = ssh.launch_argv(&task());
        assert_eq!(argv[0], "ssh");
        assert!(argv.contains(&"BatchMode=yes".to_string()));
        assert_eq!(argv[argv.len() - 2], "user@beta");
        let remote = argv.last().unwrap();
        assert!(remote.contains("REUNION_SHARD=2/3"), "{remote}");
        assert!(remote.contains("mkdir -p '/scratch/reunion'"), "{remote}");
        assert!(remote.contains("'bin/fig5' '--profile' 'full'"), "{remote}");
    }

    #[test]
    fn ssh_tail_seed_collect_name_the_manifest() {
        let ssh = SshCommand::new("beta", "user@beta", "/scratch", vec!["w".to_string()]);
        let manifest = "MANIFEST_fig5.shard2of3.jsonl";
        assert!(ssh.tail_argv(&task()).last().unwrap().contains(manifest));
        assert!(ssh.seed_argv(&task()).last().unwrap().contains(manifest));
        let collect = ssh.collect_argv(&task(), Path::new("/tmp/merge"));
        assert_eq!(collect[0], "scp");
        assert!(collect
            .iter()
            .any(|a| a == &format!("user@beta:/scratch/{manifest}")));
        assert!(collect.last().unwrap().ends_with(manifest));
    }

    #[test]
    fn shell_quoting_survives_embedded_quotes() {
        assert_eq!(SshCommand::shell_quote("a b"), "'a b'");
        assert_eq!(SshCommand::shell_quote("a'b"), "'a'\\''b'");
    }

    #[test]
    fn local_manifest_text_distinguishes_missing_from_unreadable() {
        let dir = std::env::temp_dir().join(format!("reunion-transport-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let local = LocalProcess::new("alpha", &dir, vec!["true".to_string()]);
        let t = task();
        assert_eq!(local.manifest_text(&t).unwrap(), None);
        local.seed_manifest(&t, "seeded\n").unwrap();
        assert_eq!(
            local.manifest_text(&t).unwrap().as_deref(),
            Some("seeded\n")
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
