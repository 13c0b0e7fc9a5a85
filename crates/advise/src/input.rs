//! Artifact loaders: bench histories (with schema refusal) and trace
//! sets (file or directory, visit-order independent).

use noiselab_noise::TraceSet;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Why an advise input could not be used. Every variant names the
/// offending path; `BenchSchema` is the "refuse mismatched bench
/// files" contract — a clear sentence, not a parse backtrace.
#[derive(Debug)]
pub enum AdviseError {
    Io { path: PathBuf, detail: String },
    BenchSchema { path: PathBuf, detail: String },
    Traces { path: PathBuf, detail: String },
}

impl fmt::Display for AdviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdviseError::Io { path, detail } => {
                write!(f, "cannot read {}: {detail}", path.display())
            }
            AdviseError::BenchSchema { path, detail } => {
                write!(f, "refusing bench file {}: {detail}", path.display())
            }
            AdviseError::Traces { path, detail } => {
                write!(f, "cannot load traces from {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for AdviseError {}

/// One (workload, config) cell of a `BENCH_hotpath.json` snapshot: its
/// per-mode host cost.
#[derive(Debug, Clone, PartialEq, serde::Serialize, Deserialize)]
pub struct HotpathCell {
    pub workload: String,
    pub config: String,
    pub events_per_run: u64,
    pub bare_ns_per_event: f64,
    pub telemetry_ns_per_event: f64,
    pub telemetry_overhead_pct: f64,
    pub tracer_overhead_pct: f64,
    pub both_overhead_pct: f64,
}

/// Probe time, in ms, that defines the reference host (a quiet 2-vCPU
/// Xeon VM). A host-time figure `x` measured while
/// `noiselab_bench::probe_ms` took `p` ms reads `x * PROBE_REF_MS / p`
/// on the reference host.
pub const PROBE_REF_MS: f64 = 65.0;

/// One labelled measurement of the whole hotpath sweep, with the
/// commit, toolchain and CPU it was taken on (empty, or 0, in snapshots
/// that predate those fields). Fields serialize in this order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, Deserialize)]
pub struct HotpathSnapshot {
    pub label: String,
    pub reps: u32,
    #[serde(default)]
    pub commit: String,
    #[serde(default)]
    pub rustc: String,
    #[serde(default)]
    pub cpu_model: String,
    /// Median host probe over the sweep, in ms: taken before each cell
    /// and after the last.
    #[serde(default)]
    pub probe_ms: f64,
    pub cells: Vec<HotpathCell>,
}

/// The `BENCH_hotpath.json` trajectory: the `hotpath` bench appends to
/// it and `advise` judges it. Baseline first, then one snapshot per
/// optimization step.
#[derive(Debug, Clone, PartialEq, serde::Serialize, Deserialize)]
pub struct HotpathHistory {
    pub bench: String,
    pub baseline: HotpathSnapshot,
    pub steps: Vec<HotpathSnapshot>,
}

impl HotpathHistory {
    pub fn latest(&self) -> &HotpathSnapshot {
        self.steps.last().unwrap_or(&self.baseline)
    }

    /// All snapshots oldest-first (baseline, then each step).
    pub fn snapshots(&self) -> Vec<&HotpathSnapshot> {
        std::iter::once(&self.baseline)
            .chain(self.steps.iter())
            .collect()
    }

    /// The `(workload, config)` keys present in any snapshot, sorted.
    pub fn cell_keys(&self) -> Vec<(String, String)> {
        let mut keys: Vec<(String, String)> = Vec::new();
        for snap in self.snapshots() {
            for c in &snap.cells {
                let key = (c.workload.clone(), c.config.clone());
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        keys.sort();
        keys
    }

    /// The metric's series for one cell, oldest-first, each value with
    /// its snapshot's `probe_ms`; snapshots missing the cell are
    /// skipped.
    pub fn series<F>(&self, workload: &str, config: &str, metric: F) -> Vec<(f64, f64)>
    where
        F: Fn(&HotpathCell) -> f64,
    {
        self.snapshots()
            .iter()
            .filter_map(|snap| {
                snap.cells
                    .iter()
                    .find(|c| c.workload == workload && c.config == config)
                    .map(|c| (metric(c), snap.probe_ms))
            })
            .collect()
    }
}

/// Read a bench file, insisting on `"bench": "<expected>"` before any
/// shape parsing — a file from the wrong emitter (or from before the
/// tag existed) is refused with a sentence naming both schemas.
fn load_bench_value(path: &Path, expected: &str) -> Result<serde::Value, AdviseError> {
    let text = std::fs::read_to_string(path).map_err(|e| AdviseError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    let value = serde::parse_json(&text).map_err(|e| AdviseError::BenchSchema {
        path: path.to_path_buf(),
        detail: format!("not valid JSON ({e})"),
    })?;
    let obj = value.as_object().ok_or_else(|| AdviseError::BenchSchema {
        path: path.to_path_buf(),
        detail: "not a JSON object".to_string(),
    })?;
    match serde::__field(obj, "bench").and_then(|v| v.as_str()) {
        None => Err(AdviseError::BenchSchema {
            path: path.to_path_buf(),
            detail: format!(
                "no `bench` schema tag; expected a `{expected}` bench file \
                 (regenerate it with `cargo bench -p noiselab-bench --bench {expected}`)"
            ),
        }),
        Some(tag) if tag != expected => Err(AdviseError::BenchSchema {
            path: path.to_path_buf(),
            detail: format!("schema mismatch: this is a `{tag}` bench file, expected `{expected}`"),
        }),
        Some(_) => Ok(value),
    }
}

/// Load and validate `BENCH_hotpath.json`.
pub fn load_hotpath(path: &Path) -> Result<HotpathHistory, AdviseError> {
    let value = load_bench_value(path, "hotpath")?;
    HotpathHistory::from_value(&value).map_err(|e| AdviseError::BenchSchema {
        path: path.to_path_buf(),
        detail: format!("malformed hotpath history: {e}"),
    })
}

/// Load trace evidence for blame attribution. A file is one
/// [`TraceSet`] applied to any flagged cell (key `"*"`); a directory
/// contributes one set per `<cell-label>.json`, iterated in sorted
/// filename order so the report never depends on readdir order.
pub fn load_traces(path: &Path) -> Result<BTreeMap<String, TraceSet>, AdviseError> {
    let mut out = BTreeMap::new();
    let meta = std::fs::metadata(path).map_err(|e| AdviseError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    if meta.is_file() {
        out.insert("*".to_string(), load_trace_file(path)?);
        return Ok(out);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| AdviseError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    for file in files {
        let label = file
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        if label.is_empty() {
            continue;
        }
        out.insert(label, load_trace_file(&file)?);
    }
    if out.is_empty() {
        return Err(AdviseError::Traces {
            path: path.to_path_buf(),
            detail: "directory holds no *.json trace sets".to_string(),
        });
    }
    Ok(out)
}

fn load_trace_file(path: &Path) -> Result<TraceSet, AdviseError> {
    let text = std::fs::read_to_string(path).map_err(|e| AdviseError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    serde_json::from_str(&text).map_err(|e| AdviseError::Traces {
        path: path.to_path_buf(),
        detail: format!("not a TraceSet: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nl-advise-input-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn refuses_untagged_and_mistagged_bench_files() {
        let dir = tmpdir("schema");
        let untagged = dir.join("old.json");
        std::fs::write(&untagged, "{\"workload\": \"nbody\"}").unwrap();
        let err = load_hotpath(&untagged).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("refusing bench file"), "{msg}");
        assert!(msg.contains("no `bench` schema tag"), "{msg}");

        let mistagged = dir.join("telem.json");
        std::fs::write(&mistagged, "{\"bench\": \"telemetry_overhead\"}").unwrap();
        let err = load_hotpath(&mistagged).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("this is a `telemetry_overhead` bench file, expected `hotpath`"),
            "{msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_malformed_body_with_path() {
        let dir = tmpdir("body");
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"bench\": \"hotpath\", \"baseline\": 3}").unwrap();
        let err = load_hotpath(&bad).unwrap_err();
        assert!(matches!(err, AdviseError::BenchSchema { .. }), "{err}");
        assert!(err.to_string().contains("malformed hotpath history"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `hotpath` bench check mode refuses through this same error
    /// when no history is committed.
    #[test]
    fn missing_history_is_one_sentence_naming_the_path() {
        let missing = tmpdir("missing").join("BENCH_hotpath.json");
        let err = load_hotpath(&missing).unwrap_err();
        assert!(matches!(err, AdviseError::Io { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.starts_with("cannot read "), "{msg}");
        assert!(msg.contains("BENCH_hotpath.json"), "{msg}");
        assert!(!msg.contains('\n'), "{msg}");
    }

    const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");

    fn write_and_reload(tag: &str, history: &HotpathHistory) -> HotpathHistory {
        let dir = tmpdir(tag);
        let path = dir.join("BENCH_hotpath.json");
        let json = serde_json::to_string_pretty(history).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        let back = load_hotpath(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        back
    }

    #[test]
    fn committed_history_round_trips() {
        let history = load_hotpath(Path::new(COMMITTED)).unwrap();
        assert!(!history.steps.is_empty());
        assert_eq!(write_and_reload("committed", &history), history);
    }

    #[test]
    fn snapshot_host_metadata_survives_a_write_and_a_read() {
        let mut history = load_hotpath(Path::new(COMMITTED)).unwrap();
        let mut snap = history.latest().clone();
        snap.label = "probed".into();
        snap.commit = "0123456789ab-dirty".into();
        snap.rustc = "rustc 1.95.0 (59807616e 2026-04-14)".into();
        snap.cpu_model = "Intel(R) Xeon(R) CPU @ 2.20GHz".into();
        snap.probe_ms = 71.25;
        history.steps.push(snap.clone());
        let back = write_and_reload("metadata", &history);
        assert_eq!(back.latest(), &snap);
        assert_eq!(back, history);
    }

    #[test]
    fn trace_dir_is_sorted_by_filename() {
        let dir = tmpdir("traces");
        let empty = TraceSet::default();
        let json = serde_json::to_string(&empty).unwrap();
        for name in ["b-cell.json", "a-cell.json", "ignore.txt"] {
            std::fs::write(dir.join(name), &json).unwrap();
        }
        let sets = load_traces(&dir).unwrap();
        let keys: Vec<&String> = sets.keys().collect();
        assert_eq!(keys, ["a-cell", "b-cell"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
