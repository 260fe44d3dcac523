//! Incremental shard manifests: crash-safe, append-only record files.
//!
//! A manifest is an append-only JSONL file (`MANIFEST_<id>.shard<i>of<N>.jsonl`)
//! holding one header line describing the (grid, shard, sampling) contract,
//! followed by one compact line per completed cell. A writer appends a
//! line the moment a cell finishes, so a killed writer loses at most the
//! cell in flight: reopening the manifest with the same contract keeps the
//! recorded cells instead of restarting. [`crate::merge_manifests`]
//! combines a complete set of manifests back into an
//! [`ExperimentReport`](crate::ExperimentReport) that is byte-identical to
//! a single-process run.
//!
//! A half-written trailing line (the kill landed mid-append) is detected
//! and discarded on resume; a header that no longer matches — different
//! grid, shard arithmetic, or sampling profile — invalidates the file,
//! which is truncated and restarted rather than silently merged.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use reunion_core::{ObsConfig, SampleConfig};

use crate::grid::SampleOverride;
use crate::json::{parse_json, JsonValue, JsonWriter};
use crate::report::{
    sample_from_json, sample_override_from_json, str_field, u64_field, write_sample_json,
    write_sample_override_json, RunRecord,
};
use crate::shard::ShardSpec;

/// The contract line at the top of every shard manifest.
///
/// Two manifests can only be merged (and an existing manifest only
/// resumed) when their headers agree on everything except the shard
/// position itself.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestHeader {
    /// Grid identifier (`BENCH_<id>.json`).
    pub id: String,
    /// Human-readable grid caption.
    pub caption: String,
    /// Which shard of which partition this manifest records.
    pub shard: ShardSpec,
    /// Total number of cells in the *full* grid (not this shard).
    pub cells: usize,
    /// The grid-wide sampling profile.
    pub sample: SampleConfig,
    /// Sampling overrides, in grid declaration order.
    pub sample_overrides: Vec<SampleOverride>,
    /// Observability configuration the shard ran under. Part of the merge
    /// contract: records carrying `observability` blocks must not merge
    /// with records that lack them. Serialized only when enabled, so
    /// pre-observability manifests parse (and re-serialize) unchanged.
    pub obs: ObsConfig,
}

impl ManifestHeader {
    /// Whether `other` records a shard of the same experiment: everything
    /// must match except the shard index (the partition width must agree).
    pub(crate) fn same_experiment(&self, other: &ManifestHeader) -> bool {
        self.id == other.id
            && self.caption == other.caption
            && self.shard.count() == other.shard.count()
            && self.cells == other.cells
            && self.sample == other.sample
            && self.sample_overrides == other.sample_overrides
            && self.obs.enabled == other.obs.enabled
            // The trace cap is meaningless while disabled (and is not
            // serialized then), so it only contracts when enabled.
            && (!self.obs.enabled || self.obs.trace_cap == other.obs.trace_cap)
    }

    fn to_line(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field_str("kind", "reunion-shard-manifest");
        w.field_u64("version", 1);
        w.field_str("id", &self.id);
        w.field_str("caption", &self.caption);
        w.field_u64("shard", self.shard.index() as u64);
        w.field_u64("of", self.shard.count() as u64);
        w.field_u64("cells", self.cells as u64);
        w.key("sample");
        write_sample_json(&mut w, &self.sample);
        w.key("sample_overrides");
        w.begin_array();
        for o in &self.sample_overrides {
            write_sample_override_json(&mut w, o);
        }
        w.end_array();
        if self.obs.enabled {
            w.field_u64("obs", 1);
            w.field_u64("trace_cap", self.obs.trace_cap as u64);
        }
        w.end_object();
        w.finish()
    }

    fn from_line(line: &str) -> Result<Self, String> {
        let prefix = |e: String| format!("manifest header: {e}");
        let v = parse_json(line).map_err(|e| prefix(e.to_string()))?;
        if v.get("kind").and_then(JsonValue::as_str) != Some("reunion-shard-manifest") {
            return Err("not a reunion shard manifest".to_string());
        }
        let mut sample_overrides = Vec::new();
        if let Some(JsonValue::Array(items)) = v.get("sample_overrides") {
            for item in items {
                sample_overrides.push(sample_override_from_json(item).map_err(prefix)?);
            }
        }
        // The validated accessors (and ShardSpec::try_new) keep a corrupt
        // header an Err, never a panic: one bad file must degrade into the
        // caller's per-file diagnostics, not abort a merge.
        let shard = ShardSpec::try_new(
            u64_field(&v, "shard").map_err(prefix)? as usize,
            u64_field(&v, "of").map_err(prefix)? as usize,
        )
        .map_err(prefix)?;
        // Observability fields are written only when enabled; their absence
        // (every pre-observability manifest) reads back as the default-off
        // configuration.
        let obs = ObsConfig {
            enabled: match v.get("obs") {
                Some(_) => u64_field(&v, "obs").map_err(prefix)? == 1,
                None => false,
            },
            trace_cap: match v.get("trace_cap") {
                Some(_) => u64_field(&v, "trace_cap").map_err(prefix)? as usize,
                None => ObsConfig::default().trace_cap,
            },
        };
        Ok(ManifestHeader {
            id: str_field(&v, "id").map_err(prefix)?.to_string(),
            caption: str_field(&v, "caption").map_err(prefix)?.to_string(),
            shard,
            cells: u64_field(&v, "cells").map_err(prefix)? as usize,
            sample: sample_from_json(v.get("sample").ok_or("manifest header: missing sample")?)?,
            sample_overrides,
            obs,
        })
    }
}

/// An open, appendable shard manifest.
///
/// Created (or resumed) by [`ShardManifest::create_or_resume`]; the writer
/// calls [`append`](ShardManifest::append) once per completed cell.
#[derive(Debug)]
pub struct ShardManifest {
    file: File,
}

impl ShardManifest {
    /// Opens the canonical manifest for `header` under `dir`, resuming a
    /// compatible existing file or starting a fresh one.
    ///
    /// An existing file is resumed only when its header describes the same
    /// experiment *and* shard position; otherwise it is stale (a different
    /// grid, profile, or partition wrote it) and is truncated. A torn final
    /// line from a killed run is discarded.
    pub fn create_or_resume(dir: &Path, header: ManifestHeader) -> io::Result<ShardManifest> {
        let path = dir.join(header.shard.manifest_file_name(&header.id));
        let completed = match std::fs::read_to_string(&path) {
            Ok(text) => match parse_manifest_text(&text) {
                Ok((existing, records))
                    if existing.same_experiment(&header) && existing.shard == header.shard =>
                {
                    records
                }
                _ => BTreeMap::new(),
            },
            Err(_) => BTreeMap::new(),
        };
        // Rewrite rather than blind-append: this truncates stale files and
        // drops any torn trailing line in one pass, leaving a manifest that
        // is exactly header + the valid completed records. The rewrite goes
        // through a temp file and an atomic rename — truncating the real
        // manifest in place would open a window where a second kill loses
        // every completed record, not just the cells in flight.
        let mut text = header.to_line();
        text.push('\n');
        for (index, record) in &completed {
            text.push_str(&entry_line(*index, record));
            text.push('\n');
        }
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(ShardManifest { file })
    }

    /// Appends one completed cell and fsyncs it, making the record durable
    /// (host crash included) before the writer moves on. Cells take seconds
    /// to minutes to simulate, so one `fdatasync` per cell is noise.
    pub fn append(&mut self, index: usize, record: &RunRecord) -> io::Result<()> {
        let mut line = entry_line(index, record);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

fn entry_line(index: usize, record: &RunRecord) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_u64("index", index as u64);
    w.key("record");
    record.write_json(&mut w);
    w.end_object();
    w.finish()
}

fn parse_manifest_text(text: &str) -> Result<(ManifestHeader, BTreeMap<usize, RunRecord>), String> {
    let mut lines = text.lines();
    let header_line = lines.next().ok_or("empty manifest")?;
    let header = ManifestHeader::from_line(header_line)?;
    let mut records = BTreeMap::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        // A torn trailing line (killed mid-append) parses as garbage; it is
        // the price of crash-safety, not an error — stop there and keep the
        // prefix. An out-of-range or repeated cell index is corruption of
        // the same kind: everything from the first anomaly on is dropped,
        // so recovered records are always unique and within the grid (the
        // resumed runner re-executes whatever got dropped).
        let Ok(v) = parse_json(line) else { break };
        let Ok(index) = u64_field(&v, "index") else {
            break;
        };
        let index = index as usize;
        if index >= header.cells || !header.shard.owns(index) || records.contains_key(&index) {
            break;
        }
        let Some(record_json) = v.get("record") else {
            break;
        };
        let Ok(record) = RunRecord::from_json(record_json) else {
            break;
        };
        records.insert(index, record);
    }
    Ok((header, records))
}

/// Reads a complete manifest file: its header and all validly recorded
/// cells (a torn trailing line is ignored, exactly as resume does).
///
/// # Errors
///
/// Returns a message when the file cannot be read or its header is not a
/// shard-manifest header.
pub fn read_manifest(path: &Path) -> Result<(ManifestHeader, BTreeMap<usize, RunRecord>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_manifest_text(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(shard: ShardSpec) -> ManifestHeader {
        ManifestHeader {
            id: "t".to_string(),
            caption: "test grid".to_string(),
            shard,
            cells: 6,
            sample: SampleConfig::quick(),
            sample_overrides: vec![SampleOverride {
                workload: "em3d".to_string(),
                patch: "global".to_string(),
                sample: SampleConfig {
                    warmup: 1,
                    window: 2,
                    windows: 3,
                },
            }],
            obs: ObsConfig::default(),
        }
    }

    #[test]
    fn header_line_round_trips() {
        let h = header(ShardSpec::new(2, 3));
        let parsed = ManifestHeader::from_line(&h.to_line()).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn same_experiment_ignores_shard_index_only() {
        let a = header(ShardSpec::new(1, 3));
        let b = header(ShardSpec::new(2, 3));
        assert!(a.same_experiment(&b));
        let narrower = header(ShardSpec::new(1, 2));
        assert!(!a.same_experiment(&narrower));
        let mut other = header(ShardSpec::new(1, 3));
        other.sample.windows += 1;
        assert!(!a.same_experiment(&other));
    }

    #[test]
    fn rejects_non_manifest_header() {
        assert!(ManifestHeader::from_line("{\"kind\": \"other\"}").is_err());
        assert!(ManifestHeader::from_line("not json").is_err());
    }

    /// A header that is valid JSON but carries impossible shard arithmetic
    /// must surface as a per-file error, never a panic — one corrupt
    /// manifest in a directory cannot be allowed to abort a whole merge.
    #[test]
    fn corrupt_header_fields_are_errors_not_panics() {
        let good = header(ShardSpec::new(2, 3)).to_line();
        for (from, to) in [
            ("\"shard\": 2", "\"shard\": 0"),
            ("\"shard\": 2", "\"shard\": 7"),
            ("\"shard\": 2", "\"shard\": -1"),
            ("\"of\": 3", "\"of\": 0"),
            ("\"cells\": 6", "\"cells\": 1.5"),
        ] {
            assert!(good.contains(from), "fixture drifted: {from} not in header");
            let corrupt = good.replace(from, to);
            assert!(
                ManifestHeader::from_line(&corrupt).is_err(),
                "{to} must be rejected"
            );
        }
    }

    /// A Table-2-shaped (static) record line for cell `index` — the
    /// cheapest record that round-trips through `RunRecord::from_json`.
    fn record_line(index: usize) -> String {
        format!(
            "{{\"index\": {index}, \"record\": {{\"workload\": \"sparse\", \
             \"class\": \"Scientific\", \"mode\": \"reunion\", \"patch\": \"base\", \
             \"private_bytes\": 1, \"shared_bytes\": 1, \"locks\": 1, \
             \"critical_section_len\": 1, \"itlb_miss_per_million\": 1, \
             \"static_len\": 1}}}}"
        )
    }

    /// Record recovery stops at the first anomalous line — out-of-range,
    /// unowned, or repeated cell index — keeping only the trustworthy
    /// prefix (which the resumed runner then completes).
    #[test]
    fn anomalous_record_lines_truncate_recovery() {
        // Shard 1/3 of 6 cells owns indices 0 and 3.
        let head = header(ShardSpec::new(1, 3)).to_line();
        let join = |lines: &[String]| format!("{head}\n{}\n", lines.join("\n"));

        let clean = join(&[record_line(0), record_line(3)]);
        let (_, records) = parse_manifest_text(&clean).unwrap();
        assert_eq!(records.len(), 2);

        for (label, lines) in [
            ("out of range", vec![record_line(0), record_line(9)]),
            ("unowned cell", vec![record_line(0), record_line(1)]),
            ("duplicate", vec![record_line(0), record_line(0)]),
        ] {
            let (_, records) = parse_manifest_text(&join(&lines)).unwrap();
            assert_eq!(records.len(), 1, "{label}: keep only the clean prefix");
            assert!(records.contains_key(&0), "{label}: cell 0 survives");
        }
    }
}
