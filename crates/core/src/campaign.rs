//! Checkpointed campaign driver: sweep a list of execution-config cells
//! over many seeds, survive crashes, and resume from the last completed
//! cell with bit-identical results.
//!
//! The state file is plain JSON written atomically (tmp + fsync +
//! rename + directory fsync) after every completed cell. Samples are
//! stored as `f64` and serialised with Rust's shortest-roundtrip float
//! formatting, so a resumed campaign reproduces the uninterrupted
//! campaign bit for bit. A fingerprint of the campaign inputs is
//! embedded in the checkpoint; resuming with different inputs is
//! refused rather than silently mixing incompatible measurements.
//!
//! Checkpoints are versioned: [`CHECKPOINT_SCHEMA`] is written into
//! every new file, files written before versioning existed load as
//! schema 1, and files from a *newer* schema are refused with a typed
//! error instead of being misread. The sharded multi-process engine
//! (`noiselab-campaignd`) reuses [`CellRecord`] as its unit of work and
//! folds shard ledgers back into one [`CampaignState`], including the
//! [`QuarantineRecord`]s naming cells that repeatedly killed workers.

use crate::execconfig::ExecConfig;
use crate::failure::{RetryPolicy, RunFailure};
use crate::harness::{run_many, RunSpec};
use crate::platform::Platform;
use noiselab_kernel::FaultPlan;
use noiselab_stats::Summary;
use noiselab_telemetry::{MetricsSnapshot, TelemetryConfig};
use noiselab_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Schema version written into every new checkpoint. History:
/// * (absent) / 1 — PR 2's single-file checkpoint (fingerprint + cells).
/// * 2 — adds `schema` itself and the `quarantined` shard records of
///   the multi-process engine. Old files still load; their missing
///   fields default.
pub const CHECKPOINT_SCHEMA: u32 = 2;

/// Everything a campaign invocation needs. The same plan (minus
/// `limit`) must be passed when resuming from a checkpoint.
pub struct CampaignPlan<'a> {
    pub platform: &'a Platform,
    pub workload: &'a (dyn Workload + Sync),
    /// (label, config) cells, executed in order.
    pub cells: Vec<(String, ExecConfig)>,
    pub runs_per_cell: usize,
    pub seed_base: u64,
    pub faults: Option<FaultPlan>,
    pub retry: RetryPolicy,
    /// Checkpoint file; `None` runs without persistence.
    pub checkpoint: Option<PathBuf>,
    /// Execute at most this many cells in this invocation — the hook
    /// the kill/resume tests (and staged manual campaigns) use.
    pub limit: Option<usize>,
    /// On resume, re-execute the last completed cell and require its
    /// event-stream hash (and samples) to match the checkpoint bit for
    /// bit before continuing — catches a changed binary, platform or
    /// toolchain masquerading as the same campaign.
    pub verify_resume: bool,
}

impl CampaignPlan<'_> {
    /// Identity of the campaign's inputs. Two plans with the same
    /// fingerprint produce the same measurements cell for cell.
    pub fn fingerprint(&self) -> String {
        let faults = self
            .faults
            .as_ref()
            .map(|f| serde_json::to_string(f).unwrap_or_default())
            .unwrap_or_else(|| "none".into());
        let cells: Vec<&str> = self.cells.iter().map(|(l, _)| l.as_str()).collect();
        format!(
            "v2|{}|{}|[{}]|runs={}|seeds={}|faults={}|retries={}",
            self.platform.label(),
            self.workload.name(),
            cells.join(","),
            self.runs_per_cell,
            self.seed_base,
            faults,
            self.retry.max_retries,
        )
    }
}

/// Identity of one completed cell inside a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellKey {
    pub label: String,
    /// First seed of the cell's seed range.
    pub seed: u64,
}

/// A failed run: the seed that ran and why it produced no measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRecord {
    pub seed: u64,
    pub cause: RunFailure,
}

/// Results of one completed cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    pub key: CellKey,
    /// Execution times (seconds) of the successful runs, seed order.
    pub samples: Vec<f64>,
    pub failures: Vec<FailureRecord>,
    /// Total attempts consumed including retries.
    pub attempts: u64,
    /// [`crate::harness::RunLedger::stream_hash`] of the cell's runs:
    /// the determinism fingerprint `verify_resume` checks.
    pub stream_hash: u64,
    /// Exact aggregate of the cell's per-run metrics snapshots
    /// (counters summed, histograms merged bucket-wise, gauges averaged
    /// over runs). Defaults to empty when loading checkpoints written
    /// before the telemetry layer existed.
    #[serde(default)]
    pub metrics: MetricsSnapshot,
}

/// Cells the sharded engine gave up on: their shard killed workers
/// repeatedly, so the campaign completed without them instead of
/// aborting. The record names exactly which (label, seed) cells are
/// missing and why.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Shard id in the work queue that was quarantined.
    pub shard: u32,
    /// The cells the quarantined shard owned (never executed, or
    /// executed but unreported).
    pub cells: Vec<CellKey>,
    /// How many worker processes died holding this shard.
    pub crashes: u32,
    /// Human-readable cause of the final crash (exit status, timeout).
    pub reason: String,
}

/// The serialised campaign state — the unit of checkpoint/resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignState {
    /// Checkpoint schema version; 0 in files written before versioning
    /// existed (normalised to 1 by [`CampaignState::load`]).
    #[serde(default)]
    pub schema: u32,
    pub fingerprint: String,
    pub cells: Vec<CellRecord>,
    /// Shards the multi-process engine quarantined; empty for
    /// single-process campaigns and legacy checkpoints.
    #[serde(default)]
    pub quarantined: Vec<QuarantineRecord>,
    /// Supervisor health for the sharded engine (worker spawns/crashes,
    /// heartbeat timeouts, chaos kills, quarantine counts) as
    /// `campaignd.*` counters. Folded in by the CLI *after* the
    /// deterministic merge, excluded from `state_hash`, and
    /// default-empty in every state the bit-identity suites compare —
    /// so calm and chaos campaigns still merge to identical ledgers
    /// while `noiselab metrics`/`advise` can read the health record
    /// from the saved checkpoint. Additive like `CellRecord::metrics`:
    /// older checkpoints load with an empty snapshot.
    #[serde(default)]
    pub supervisor: MetricsSnapshot,
}

/// Why a checkpoint could not be loaded: the path, the claimed schema
/// version (when the file parsed far enough to expose one) and the byte
/// offset of the first bad input (when the JSON itself is corrupt) are
/// all named, mirroring the NLTB decoder's `DecodeError`.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read at all.
    Io { path: PathBuf, source: io::Error },
    /// The file is not valid JSON, or is JSON of the wrong shape.
    Corrupt {
        path: PathBuf,
        /// Schema version the file claims, when readable.
        schema: Option<u32>,
        /// Byte offset of the first invalid input, for syntax errors.
        offset: Option<usize>,
        message: String,
    },
    /// The file was written by a newer noiselab than this one.
    UnsupportedSchema {
        path: PathBuf,
        schema: u32,
        supported: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "cannot read checkpoint {}: {source}", path.display())
            }
            CheckpointError::Corrupt {
                path,
                schema,
                offset,
                message,
            } => {
                write!(f, "corrupt checkpoint {}", path.display())?;
                if let Some(v) = schema {
                    write!(f, " (schema v{v})")?;
                }
                if let Some(o) = offset {
                    write!(f, " at byte {o}")?;
                }
                write!(f, ": {message}")
            }
            CheckpointError::UnsupportedSchema {
                path,
                schema,
                supported,
            } => write!(
                f,
                "checkpoint {} has schema v{schema}, but this binary supports \
                 at most v{supported}; it was written by a newer noiselab",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Why a campaign invocation failed before (or instead of) producing a
/// state: checkpoint trouble, a fingerprint that belongs to a different
/// campaign, or a resume whose verification re-run diverged.
#[derive(Debug)]
pub enum CampaignError {
    Checkpoint(CheckpointError),
    /// Saving a checkpoint failed.
    Save {
        path: PathBuf,
        source: io::Error,
    },
    /// The checkpoint belongs to a different campaign.
    FingerprintMismatch {
        path: PathBuf,
    },
    /// `verify_resume` re-ran the last completed cell and it did not
    /// reproduce the checkpointed measurements bit for bit.
    ResumeVerificationFailed {
        label: String,
        replayed_hash: u64,
        recorded_hash: u64,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::Save { path, source } => {
                write!(f, "cannot save checkpoint {}: {source}", path.display())
            }
            CampaignError::FingerprintMismatch { path } => write!(
                f,
                "checkpoint {} belongs to a different campaign \
                 (fingerprint mismatch); refusing to resume",
                path.display()
            ),
            CampaignError::ResumeVerificationFailed {
                label,
                replayed_hash,
                recorded_hash,
            } => write!(
                f,
                "resume verification failed for cell {label:?}: re-run stream hash \
                 {replayed_hash:016x} != checkpointed {recorded_hash:016x}; the \
                 checkpoint was produced by a different binary or environment"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

impl CampaignState {
    /// An empty state for a fresh campaign, at the current schema.
    pub fn new(fingerprint: String) -> CampaignState {
        CampaignState {
            schema: CHECKPOINT_SCHEMA,
            fingerprint,
            cells: Vec::new(),
            quarantined: Vec::new(),
            supervisor: MetricsSnapshot::default(),
        }
    }

    /// Load and validate a checkpoint. Legacy (pre-versioning) files
    /// load as schema 1; files claiming a schema newer than
    /// [`CHECKPOINT_SCHEMA`] are refused.
    pub fn load(path: &Path) -> Result<CampaignState, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        // Parse to the JSON value model first so syntax errors carry a
        // byte offset and shape errors can still name the schema the
        // file claims.
        let value = serde::parse_json(&text).map_err(|e| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            schema: None,
            offset: e.pos(),
            message: e.to_string(),
        })?;
        let schema = match value.get("schema") {
            // Absent (or the derived default 0): a legacy v1 file.
            None => 1,
            Some(v) => match u32::from_value(v) {
                Ok(0) => 1,
                Ok(v) => v,
                Err(e) => {
                    return Err(CheckpointError::Corrupt {
                        path: path.to_path_buf(),
                        schema: None,
                        offset: None,
                        message: format!("unreadable schema field: {e}"),
                    })
                }
            },
        };
        if schema > CHECKPOINT_SCHEMA {
            return Err(CheckpointError::UnsupportedSchema {
                path: path.to_path_buf(),
                schema,
                supported: CHECKPOINT_SCHEMA,
            });
        }
        let mut state =
            CampaignState::from_value(&value).map_err(|e| CheckpointError::Corrupt {
                path: path.to_path_buf(),
                schema: Some(schema),
                offset: None,
                message: e.to_string(),
            })?;
        state.schema = schema;
        Ok(state)
    }

    /// Durable atomic save: the bytes are fsynced before the rename and
    /// the parent directory is fsynced after it, so neither a process
    /// crash (torn file) nor a host crash (lost rename) can damage the
    /// checkpoint the resume contract depends on.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let text = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        crate::durable::write_atomic(path, text.as_bytes())
    }

    /// Condense the state into per-cell summaries and failure counts.
    pub fn report(&self, total_cells: usize) -> CampaignReport {
        let cells: Vec<CellReport> = self
            .cells
            .iter()
            .map(|c| CellReport {
                label: c.key.label.clone(),
                summary: Summary::try_of(&c.samples),
                ok: c.samples.len(),
                failed: c.failures.len(),
            })
            .collect();
        let total_ok = cells.iter().map(|c| c.ok).sum();
        let total_failed = cells.iter().map(|c| c.failed).sum();
        let quarantined: Vec<(String, String)> = self
            .quarantined
            .iter()
            .flat_map(|q| {
                q.cells
                    .iter()
                    .map(move |k| (k.label.clone(), q.reason.clone()))
            })
            .collect();
        CampaignReport {
            complete: self.cells.len() + quarantined.len() >= total_cells,
            cells,
            total_ok,
            total_failed,
            quarantined,
        }
    }
}

/// One cell of a [`CampaignReport`]. `summary` is `None` when every run
/// of the cell failed — still reported, never silently dropped.
#[derive(Debug, Clone)]
pub struct CellReport {
    pub label: String,
    pub summary: Option<Summary>,
    pub ok: usize,
    pub failed: usize,
}

/// Human-readable rollup of a (possibly partial) campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub complete: bool,
    pub cells: Vec<CellReport>,
    pub total_ok: usize,
    pub total_failed: usize,
    /// (cell label, reason) pairs for cells lost to shard quarantine —
    /// graceful degradation is reported by name, never silently.
    pub quarantined: Vec<(String, String)>,
}

/// Render a campaign report as plain text (used by `noiselab campaign`).
pub fn render_campaign_report(r: &CampaignReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "campaign {}: {} cell(s), {} ok run(s), {} failed run(s)",
        if r.complete { "complete" } else { "PARTIAL" },
        r.cells.len(),
        r.total_ok,
        r.total_failed
    ));
    if !r.quarantined.is_empty() {
        out.push_str(&format!(", {} cell(s) QUARANTINED", r.quarantined.len()));
    }
    out.push('\n');
    for c in &r.cells {
        match &c.summary {
            Some(s) => out.push_str(&format!(
                "  {:<24} mean {:.6}s  sd {:.6}s  n={} ({} failed)\n",
                c.label, s.mean, s.sd, c.ok, c.failed
            )),
            None => out.push_str(&format!(
                "  {:<24} NO DATA — all {} run(s) failed\n",
                c.label, c.failed
            )),
        }
    }
    for (label, reason) in &r.quarantined {
        out.push_str(&format!("  {label:<24} QUARANTINED — {reason}\n"));
    }
    out
}

/// Run (or resume) a campaign. Completed cells found in the checkpoint
/// are skipped; each newly completed cell is checkpointed before the
/// next starts, so the process can be killed at any point and resumed
/// from the last completed (config, seed) cell.
pub fn run_campaign(plan: &CampaignPlan) -> Result<CampaignState, CampaignError> {
    let fingerprint = plan.fingerprint();
    let mut state = match &plan.checkpoint {
        Some(path) if path.exists() => {
            let loaded = CampaignState::load(path)?;
            if loaded.fingerprint != fingerprint {
                return Err(CampaignError::FingerprintMismatch { path: path.clone() });
            }
            eprintln!(
                "noiselab: resuming campaign from {} ({} of {} cells done)",
                path.display(),
                loaded.cells.len(),
                plan.cells.len()
            );
            loaded
        }
        _ => CampaignState::new(fingerprint),
    };

    let done = state.cells.len();

    // Resume verification: replay the last completed cell and demand
    // bit-identity with the checkpoint before trusting (or extending)
    // it. Catches resumes under a different binary, toolchain or host
    // float environment that the input fingerprint cannot see.
    if plan.verify_resume && done > 0 {
        let i = done - 1;
        let (label, cfg) = &plan.cells[i];
        let replayed = run_cell(plan, i, label, cfg);
        let recorded = &state.cells[i];
        if replayed.stream_hash != recorded.stream_hash || replayed.samples != recorded.samples {
            return Err(CampaignError::ResumeVerificationFailed {
                label: recorded.key.label.clone(),
                replayed_hash: replayed.stream_hash,
                recorded_hash: recorded.stream_hash,
            });
        }
        eprintln!(
            "noiselab: resume verified: cell {:?} re-ran bit-identical \
             (stream hash {:016x})",
            recorded.key.label, recorded.stream_hash
        );
    }

    let stop = plan
        .limit
        .map_or(plan.cells.len(), |lim| (done + lim).min(plan.cells.len()));
    for (i, (label, cfg)) in plan.cells.iter().enumerate().take(stop).skip(done) {
        state.cells.push(run_cell(plan, i, label, cfg));
        if let Some(path) = &plan.checkpoint {
            state.save(path).map_err(|source| CampaignError::Save {
                path: path.clone(),
                source,
            })?;
        }
    }
    Ok(state)
}

/// First seed of cell `i` when each cell runs `runs_per_cell` seeds
/// from `seed_base`, or `None` when it does not fit u64.
pub fn cell_seed(seed_base: u64, runs_per_cell: usize, i: usize) -> Option<u64> {
    let offset = u64::try_from(i.checked_mul(runs_per_cell)?).ok()?;
    seed_base.checked_add(offset)
}

/// Execute one campaign cell. Each cell owns a disjoint seed range,
/// fixed by its position: resume order cannot change which seeds a cell
/// runs, and a re-run of the same cell is bit-identical. Public so the
/// sharded engine's workers (`noiselab-campaignd`) execute cells by the
/// exact same path as the single-process driver — the merged ledger is
/// then bit-identical by construction.
pub fn run_cell(plan: &CampaignPlan, i: usize, label: &str, cfg: &ExecConfig) -> CellRecord {
    let seed = cell_seed(plan.seed_base, plan.runs_per_cell, i)
        .expect("campaign seed range overflows u64; CampaignSpec::resolve refuses it");
    // Metrics-only telemetry: per-run counters/histograms aggregate
    // into the cell record without storing any timeline.
    let spec = RunSpec {
        faults: plan.faults.as_ref(),
        telemetry: Some(TelemetryConfig::metrics_only()),
        ..RunSpec::new(plan.platform, plan.workload, cfg, seed)
    };
    let ledger = run_many(&spec, plan.runs_per_cell, plan.retry);
    let mut metrics = MetricsSnapshot::default();
    for out in ledger.outputs() {
        if let Some(m) = &out.metrics {
            metrics.merge(m);
        }
    }
    let cell = CellRecord {
        key: CellKey {
            label: label.to_string(),
            seed,
        },
        samples: ledger.samples(),
        failures: ledger
            .failures()
            .into_iter()
            .map(|(seed, cause)| FailureRecord { seed, cause })
            .collect(),
        attempts: ledger.records.iter().map(|r| r.attempts as u64).sum(),
        stream_hash: ledger.stream_hash(),
        metrics,
    };
    // One status line per completed cell so long campaigns show
    // progress without a log scrape.
    let total = plan.runs_per_cell as u64;
    eprintln!(
        "noiselab: cell {}/{} [{}] runs {}/{} retries {} degraded {}",
        i + 1,
        plan.cells.len(),
        label,
        cell.samples.len(),
        total,
        cell.attempts.saturating_sub(total),
        cell.metrics.counter("trace.degraded_runs"),
    );
    cell
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, seed: u64, samples: Vec<f64>, failed: usize) -> CellRecord {
        CellRecord {
            key: CellKey {
                label: label.into(),
                seed,
            },
            samples,
            failures: (0..failed)
                .map(|i| FailureRecord {
                    seed: seed + i as u64,
                    cause: RunFailure::Deadlock,
                })
                .collect(),
            attempts: 0,
            stream_hash: 0xDEAD_BEEF ^ seed,
            metrics: MetricsSnapshot::default(),
        }
    }

    fn state_of(cells: Vec<CellRecord>) -> CampaignState {
        CampaignState {
            cells,
            ..CampaignState::new("f".into())
        }
    }

    #[test]
    fn state_json_roundtrip_is_exact() {
        let mut state = state_of(vec![
            record("omp/RM", 100, vec![0.1234567890123, 2.5e-3], 1),
            record("sycl/RM", 110, vec![], 3),
        ]);
        state.fingerprint = "v1|x".into();
        let text = serde_json::to_string_pretty(&state).unwrap();
        let back: CampaignState = serde_json::from_str(&text).unwrap();
        assert_eq!(state, back);
        // Shortest-roundtrip float formatting: bit-exact samples.
        assert_eq!(
            state.cells[0].samples[0].to_bits(),
            back.cells[0].samples[0].to_bits()
        );
    }

    #[test]
    fn report_counts_and_renders_empty_cells() {
        let state = state_of(vec![
            record("a", 0, vec![1.0, 2.0], 1),
            record("b", 10, vec![], 4),
        ]);
        let r = state.report(3);
        assert!(!r.complete);
        assert_eq!(r.total_ok, 2);
        assert_eq!(r.total_failed, 5);
        assert!(r.cells[1].summary.is_none());
        let text = render_campaign_report(&r);
        assert!(text.contains("PARTIAL"));
        assert!(text.contains("NO DATA"));
    }

    #[test]
    fn report_names_quarantined_cells() {
        let mut state = state_of(vec![record("a", 0, vec![1.0], 0)]);
        state.quarantined.push(QuarantineRecord {
            shard: 3,
            cells: vec![CellKey {
                label: "b".into(),
                seed: 10,
            }],
            crashes: 2,
            reason: "worker SIGKILLed twice".into(),
        });
        let r = state.report(2);
        assert!(r.complete, "quarantined cells count toward completion");
        assert_eq!(r.quarantined.len(), 1);
        let text = render_campaign_report(&r);
        assert!(text.contains("1 cell(s) QUARANTINED"), "{text}");
        assert!(text.contains("b") && text.contains("SIGKILLed"), "{text}");
    }

    #[test]
    fn save_is_atomic_durable_and_loadable() {
        let dir = std::env::temp_dir().join("noiselab-campaign-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let state = state_of(vec![record("a", 0, vec![1.0], 0)]);
        state.save(&path).unwrap();
        // The tmp staging file must never survive a completed save.
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(CampaignState::load(&path).unwrap(), state);
        // Overwriting an existing checkpoint is equally clean.
        let state2 = state_of(vec![
            record("a", 0, vec![1.0], 0),
            record("b", 5, vec![], 1),
        ]);
        state2.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(CampaignState::load(&path).unwrap(), state2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_unversioned_checkpoint_loads_as_schema_1() {
        let dir = std::env::temp_dir().join("noiselab-campaign-legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.json");
        // A PR-2-era checkpoint: no schema, no quarantined.
        let legacy = r#"{
          "fingerprint": "v2|old",
          "cells": [{
            "key": {"label": "OMP/Rm", "seed": 7},
            "samples": [0.5],
            "failures": [],
            "attempts": 1,
            "stream_hash": 12345
          }]
        }"#;
        std::fs::write(&path, legacy).unwrap();
        let state = CampaignState::load(&path).unwrap();
        assert_eq!(state.schema, 1);
        assert_eq!(state.fingerprint, "v2|old");
        assert_eq!(state.cells.len(), 1);
        assert!(state.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_error_names_path_and_offset() {
        let dir = std::env::temp_dir().join("noiselab-campaign-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        // Truncated mid-object: the parser stops at a known byte.
        std::fs::write(&path, r#"{"fingerprint": "x", "cells": [nope"#).unwrap();
        let err = CampaignState::load(&path).unwrap_err();
        match &err {
            CheckpointError::Corrupt { offset, .. } => {
                assert!(offset.is_some(), "syntax errors must carry an offset")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("bad.json"), "{text}");
        assert!(text.contains("at byte"), "{text}");

        // Wrong shape (valid JSON): schema is named, offset is not.
        std::fs::write(&path, r#"{"schema": 2, "fingerprint": 9, "cells": []}"#).unwrap();
        let err = CampaignState::load(&path).unwrap_err();
        match &err {
            CheckpointError::Corrupt { schema, .. } => assert_eq!(*schema, Some(2)),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(err.to_string().contains("schema v2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newer_schema_is_refused() {
        let dir = std::env::temp_dir().join("noiselab-campaign-newer");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("future.json");
        std::fs::write(&path, r#"{"schema": 99, "fingerprint": "x", "cells": []}"#).unwrap();
        let err = CampaignState::load(&path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::UnsupportedSchema { schema: 99, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("newer noiselab"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
