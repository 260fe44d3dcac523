//! Declarative host pools and their on-disk spec formats.
//!
//! A pool spec lists the hosts a campaign may dispatch shards to: a
//! `name`, a `transport` (`local` or `ssh`), a `capacity` (how many
//! shards may run on the host at once), and per-transport details. Two
//! formats are accepted, chosen by file extension:
//!
//! TOML (a deliberately small subset — `[[host]]` tables, `key = value`
//! lines with strings, integers, and arrays of strings, `#` comments):
//!
//! ```toml
//! [[host]]
//! name = "alpha"
//! transport = "local"
//! capacity = 2
//!
//! [[host]]
//! name = "beta"
//! transport = "ssh"
//! addr = "user@beta.cluster"
//! remote_dir = "scratch/reunion"
//! capacity = 4
//! command = ["reunion/bin/reunion-bench", "run", "{grid}", "--profile", "{profile}"]
//! ```
//!
//! JSON (the same fields under a top-level `hosts` array), parsed with
//! the same parser the `BENCH_<id>.json` artifacts use:
//!
//! ```json
//! {"hosts": [{"name": "alpha", "transport": "local", "capacity": 2}]}
//! ```

use std::path::{Path, PathBuf};

use reunion_sim::{parse_json, JsonValue};

use crate::transport::{DispatchError, LocalProcess, SshCommand, Transport};

/// One materialized transport per pool host, with its capacity — the
/// input shape of [`crate::Dispatcher::new`].
pub type HostTransports = Vec<(Box<dyn Transport>, usize)>;

/// How the dispatcher reaches one host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Child processes on the dispatcher's machine ([`LocalProcess`]).
    Local,
    /// `ssh`/`scp` to a remote machine ([`SshCommand`]).
    Ssh,
}

/// One host in a pool spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostSpec {
    /// Unique pool name (also the local work-directory name).
    pub name: String,
    /// Transport kind.
    pub transport: TransportKind,
    /// Concurrent shards the host may run (≥ 1).
    pub capacity: usize,
    /// ssh destination (`user@host`); required for [`TransportKind::Ssh`].
    pub addr: Option<String>,
    /// Remote work directory (ssh; default `reunion-dispatch`, relative
    /// to the ssh login directory).
    pub remote_dir: Option<String>,
    /// Worker argv template overriding the pool default (`{grid}` and
    /// `{profile}` are substituted per task).
    pub command: Option<Vec<String>>,
}

impl HostSpec {
    fn new(name: String) -> Self {
        HostSpec {
            name,
            transport: TransportKind::Local,
            capacity: 1,
            addr: None,
            remote_dir: None,
            command: None,
        }
    }
}

/// Defaults applied when a host spec leaves transport details out.
#[derive(Clone, Debug)]
pub struct TransportDefaults {
    /// Where local hosts keep their work directories (one subdirectory
    /// per host name).
    pub work_root: PathBuf,
    /// Worker argv template for hosts without an explicit `command`.
    pub command: Vec<String>,
}

impl Default for TransportDefaults {
    fn default() -> Self {
        TransportDefaults {
            work_root: PathBuf::from("dispatch-work"),
            command: ["reunion-bench", "run", "{grid}", "--profile", "{profile}"]
                .map(String::from)
                .to_vec(),
        }
    }
}

/// A validated host pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostPool {
    hosts: Vec<HostSpec>,
}

impl HostPool {
    /// Builds a pool from already-constructed specs, applying the same
    /// validation as [`parse`](Self::parse).
    pub fn from_hosts(hosts: Vec<HostSpec>) -> Result<Self, DispatchError> {
        if hosts.is_empty() {
            return Err(DispatchError::Pool("pool has no hosts".to_string()));
        }
        for (i, h) in hosts.iter().enumerate() {
            if h.name.is_empty() {
                return Err(DispatchError::Pool(format!("host #{} has no name", i + 1)));
            }
            if hosts[..i].iter().any(|other| other.name == h.name) {
                return Err(DispatchError::Pool(format!(
                    "duplicate host name {:?}",
                    h.name
                )));
            }
            if h.capacity == 0 {
                return Err(DispatchError::Pool(format!(
                    "host {:?}: capacity must be at least 1",
                    h.name
                )));
            }
            if h.transport == TransportKind::Ssh && h.addr.is_none() {
                return Err(DispatchError::Pool(format!(
                    "host {:?}: ssh transport requires addr",
                    h.name
                )));
            }
            if let Some(cmd) = &h.command {
                if cmd.is_empty() {
                    return Err(DispatchError::Pool(format!(
                        "host {:?}: command must name a program",
                        h.name
                    )));
                }
            }
        }
        Ok(HostPool { hosts })
    }

    /// Parses a pool spec: JSON when `name` ends in `.json`, the TOML
    /// subset otherwise.
    pub fn parse(name: &str, text: &str) -> Result<Self, DispatchError> {
        let hosts = if name.ends_with(".json") {
            parse_hosts_json(text)
        } else {
            parse_hosts_toml(text)
        }
        .map_err(DispatchError::Pool)?;
        Self::from_hosts(hosts)
    }

    /// Reads and parses the pool spec at `path`.
    pub fn load(path: &Path) -> Result<Self, DispatchError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| DispatchError::Pool(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&path.display().to_string(), &text)
    }

    /// The validated host specs, in declaration order.
    pub fn hosts(&self) -> &[HostSpec] {
        &self.hosts
    }

    /// Total capacity over all hosts.
    pub fn capacity(&self) -> usize {
        self.hosts.iter().map(|h| h.capacity).sum()
    }

    /// Materializes one transport per host, applying `defaults` where the
    /// spec leaves details out. Returns `(transport, capacity)` pairs in
    /// declaration order — exactly the shape [`crate::Dispatcher::new`]
    /// takes.
    pub fn build_transports(
        &self,
        defaults: &TransportDefaults,
    ) -> Result<HostTransports, DispatchError> {
        self.hosts
            .iter()
            .map(|h| {
                let command = h
                    .command
                    .clone()
                    .unwrap_or_else(|| defaults.command.clone());
                let transport: Box<dyn Transport> = match h.transport {
                    TransportKind::Local => Box::new(LocalProcess::new(
                        h.name.clone(),
                        defaults.work_root.join(&h.name),
                        command,
                    )),
                    TransportKind::Ssh => Box::new(SshCommand::new(
                        h.name.clone(),
                        h.addr.clone().expect("validated: ssh host has addr"),
                        h.remote_dir
                            .clone()
                            .unwrap_or_else(|| "reunion-dispatch".to_string()),
                        command,
                    )),
                };
                Ok((transport, h.capacity))
            })
            .collect()
    }
}

fn parse_transport_kind(s: &str) -> Result<TransportKind, String> {
    match s {
        "local" => Ok(TransportKind::Local),
        "ssh" => Ok(TransportKind::Ssh),
        other => Err(format!(
            "unknown transport {other:?} (expected \"local\" or \"ssh\")"
        )),
    }
}

/// One `key = value` assignment into the host being built.
fn assign(host: &mut HostSpec, key: &str, value: TomlValue, lineno: usize) -> Result<(), String> {
    let at = |what: &str| format!("line {lineno}: {key} expects {what}");
    match (key, value) {
        ("name", TomlValue::Str(s)) => host.name = s,
        ("transport", TomlValue::Str(s)) => host.transport = parse_transport_kind(&s)?,
        ("capacity", TomlValue::Int(n)) => host.capacity = n,
        ("addr", TomlValue::Str(s)) => host.addr = Some(s),
        ("remote_dir", TomlValue::Str(s)) => host.remote_dir = Some(s),
        ("command", TomlValue::Array(items)) => host.command = Some(items),
        ("name" | "transport" | "addr" | "remote_dir", _) => return Err(at("a string")),
        ("capacity", _) => return Err(at("an integer")),
        ("command", _) => return Err(at("an array of strings")),
        (other, _) => return Err(format!("line {lineno}: unknown key {other:?}")),
    }
    Ok(())
}

enum TomlValue {
    Str(String),
    Int(usize),
    Array(Vec<String>),
}

/// Parses one TOML value from the supported subset: a double-quoted
/// string, a non-negative integer, or a single-line array of strings.
/// Anything after the value must be whitespace or a `#` comment.
fn parse_toml_value(raw: &str, lineno: usize) -> Result<TomlValue, String> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let (s, after) = take_string_literal(rest, lineno)?;
        expect_only_comment(after, lineno)?;
        return Ok(TomlValue::Str(s));
    }
    if let Some(mut rest) = raw.strip_prefix('[') {
        let mut items = Vec::new();
        loop {
            rest = rest.trim_start();
            if let Some(after) = rest.strip_prefix(']') {
                expect_only_comment(after, lineno)?;
                return Ok(TomlValue::Array(items));
            }
            let inner = rest.strip_prefix('"').ok_or_else(|| {
                format!("line {lineno}: arrays may only contain double-quoted strings")
            })?;
            let (s, after) = take_string_literal(inner, lineno)?;
            items.push(s);
            rest = after.trim_start();
            if let Some(after_comma) = rest.strip_prefix(',') {
                rest = after_comma;
            } else if !rest.starts_with(']') {
                return Err(format!("line {lineno}: expected \",\" or \"]\" in array"));
            }
        }
    }
    let number = raw.split('#').next().unwrap_or_default().trim();
    number
        .parse::<usize>()
        .map(TomlValue::Int)
        .map_err(|_| format!("line {lineno}: cannot parse value {number:?}"))
}

/// Consumes a string literal body (opening quote already stripped),
/// handling `\"` and `\\` escapes; returns the string and the rest of the
/// line after the closing quote.
fn take_string_literal(s: &str, lineno: usize) -> Result<(String, &str), String> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &s[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                _ => return Err(format!("line {lineno}: unsupported escape in string")),
            },
            c => out.push(c),
        }
    }
    Err(format!("line {lineno}: unterminated string"))
}

fn expect_only_comment(rest: &str, lineno: usize) -> Result<(), String> {
    let rest = rest.trim();
    if rest.is_empty() || rest.starts_with('#') {
        Ok(())
    } else {
        Err(format!("line {lineno}: unexpected trailing {rest:?}"))
    }
}

fn parse_hosts_toml(text: &str) -> Result<Vec<HostSpec>, String> {
    let mut hosts: Vec<HostSpec> = Vec::new();
    let mut current: Option<HostSpec> = None;
    for (n, raw) in text.lines().enumerate() {
        let lineno = n + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[host]]" {
            if let Some(done) = current.take() {
                hosts.push(done);
            }
            current = Some(HostSpec::new(String::new()));
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {lineno}: only [[host]] tables are supported, got {line:?}"
            ));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected key = value, got {line:?}"))?;
        let host = current
            .as_mut()
            .ok_or_else(|| format!("line {lineno}: key before the first [[host]] table"))?;
        assign(host, key.trim(), parse_toml_value(value, lineno)?, lineno)?;
    }
    if let Some(done) = current.take() {
        hosts.push(done);
    }
    Ok(hosts)
}

fn json_str(v: &JsonValue, key: &str, host: usize) -> Result<Option<String>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(format!(
            "host #{host}: {key} expects a string, got {other:?}"
        )),
    }
}

fn parse_hosts_json(text: &str) -> Result<Vec<HostSpec>, String> {
    let v = parse_json(text).map_err(|e| e.to_string())?;
    let Some(JsonValue::Array(items)) = v.get("hosts") else {
        return Err("expected a top-level \"hosts\" array".to_string());
    };
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let n = i + 1;
            let mut host = HostSpec::new(
                json_str(item, "name", n)?.ok_or_else(|| format!("host #{n}: missing name"))?,
            );
            if let Some(t) = json_str(item, "transport", n)? {
                host.transport = parse_transport_kind(&t)?;
            }
            if let Some(c) = item.get("capacity") {
                let c = c
                    .as_f64()
                    .filter(|c| c.fract() == 0.0 && *c >= 0.0)
                    .ok_or_else(|| format!("host #{n}: capacity expects an integer"))?;
                host.capacity = c as usize;
            }
            host.addr = json_str(item, "addr", n)?;
            host.remote_dir = json_str(item, "remote_dir", n)?;
            if let Some(cmd) = item.get("command") {
                let JsonValue::Array(args) = cmd else {
                    return Err(format!("host #{n}: command expects an array of strings"));
                };
                host.command = Some(
                    args.iter()
                        .map(|a| {
                            a.as_str().map(str::to_string).ok_or_else(|| {
                                format!("host #{n}: command expects an array of strings")
                            })
                        })
                        .collect::<Result<_, _>>()?,
                );
            }
            Ok(host)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOL_TOML: &str = r#"
# Two-machine campaign pool.
[[host]]
name = "alpha"
transport = "local"
capacity = 2

[[host]]
name = "beta"
transport = "ssh"
addr = "user@beta.cluster"   # jump host configured in ~/.ssh/config
remote_dir = "scratch/reunion"
capacity = 4
command = ["reunion/bin/{grid}", "--profile", "{profile}"]
"#;

    #[test]
    fn toml_pool_round_trip() {
        let pool = HostPool::parse("pool.toml", POOL_TOML).unwrap();
        assert_eq!(pool.hosts().len(), 2);
        assert_eq!(pool.capacity(), 6);
        let alpha = &pool.hosts()[0];
        assert_eq!(alpha.name, "alpha");
        assert_eq!(alpha.transport, TransportKind::Local);
        assert_eq!(alpha.capacity, 2);
        let beta = &pool.hosts()[1];
        assert_eq!(beta.transport, TransportKind::Ssh);
        assert_eq!(beta.addr.as_deref(), Some("user@beta.cluster"));
        assert_eq!(beta.remote_dir.as_deref(), Some("scratch/reunion"));
        assert_eq!(
            beta.command.as_deref().unwrap(),
            ["reunion/bin/{grid}", "--profile", "{profile}"]
        );
    }

    #[test]
    fn json_pool_parses_the_same_fields() {
        let text = r#"{"hosts": [
            {"name": "alpha", "transport": "local", "capacity": 2},
            {"name": "beta", "transport": "ssh", "addr": "u@b",
             "command": ["w", "--profile", "{profile}"]}
        ]}"#;
        let pool = HostPool::parse("pool.json", text).unwrap();
        assert_eq!(pool.hosts().len(), 2);
        assert_eq!(pool.hosts()[0].capacity, 2);
        assert_eq!(pool.hosts()[1].transport, TransportKind::Ssh);
        assert_eq!(pool.hosts()[1].command.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn validation_rejects_bad_pools() {
        for (label, text) in [
            ("empty", ""),
            ("no name", "[[host]]\ncapacity = 1\n"),
            (
                "duplicate names",
                "[[host]]\nname = \"a\"\n[[host]]\nname = \"a\"\n",
            ),
            ("zero capacity", "[[host]]\nname = \"a\"\ncapacity = 0\n"),
            (
                "ssh without addr",
                "[[host]]\nname = \"a\"\ntransport = \"ssh\"\n",
            ),
            (
                "unknown transport",
                "[[host]]\nname = \"a\"\ntransport = \"carrier-pigeon\"\n",
            ),
            ("unknown key", "[[host]]\nname = \"a\"\nspeed = 9\n"),
            ("key outside table", "name = \"a\"\n"),
            ("trailing garbage", "[[host]]\nname = \"a\" nonsense\n"),
        ] {
            assert!(
                HostPool::parse("pool.toml", text).is_err(),
                "{label} must be rejected"
            );
        }
    }

    #[test]
    fn build_transports_applies_defaults() {
        let pool = HostPool::parse(
            "pool.toml",
            "[[host]]\nname = \"alpha\"\n[[host]]\nname = \"beta\"\ncapacity = 3\n",
        )
        .unwrap();
        let built = pool
            .build_transports(&TransportDefaults::default())
            .unwrap();
        assert_eq!(built.len(), 2);
        assert_eq!(built[0].0.host(), "alpha");
        assert_eq!(built[0].1, 1);
        assert_eq!(built[1].1, 3);
    }
}
