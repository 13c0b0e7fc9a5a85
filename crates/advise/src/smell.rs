//! Pass 1: measurement-smell detection over a campaign checkpoint.
//!
//! A *smell* is evidence that a cell's numbers should not be trusted
//! as-is: dispersion that is statistically too high (bootstrap CI on
//! the CV, not a point estimate), runs that needed retries or were
//! lost outright, traces the ring buffer truncated, cells a
//! quarantined shard never delivered, and supervisor instability.

use crate::AdviseConfig;
use noiselab_core::{CampaignState, CellRecord};
use noiselab_stats::{bootstrap_ci, Summary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How bad a smell is. `Critical` fails `advise --check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    Info,
    Warning,
    Critical,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "WARN",
            Severity::Critical => "CRIT",
        }
    }
}

/// What kind of evidence the smell is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SmellKind {
    /// Bootstrap CI lower bound of the CV exceeds the trust threshold.
    HighVariance,
    /// Retries were consumed and/or runs failed outright.
    RetryCluster,
    /// The tracer ring buffer truncated some of the cell's traces.
    DegradedTraces,
    /// A quarantined shard lost these cells entirely.
    LostCells,
    /// The cell produced no usable measurement at all.
    EmptyCell,
    /// Worker crashes / heartbeat timeouts during the campaign.
    SupervisorInstability,
}

impl SmellKind {
    pub fn label(self) -> &'static str {
        match self {
            SmellKind::HighVariance => "high-variance",
            SmellKind::RetryCluster => "retry-cluster",
            SmellKind::DegradedTraces => "degraded-traces",
            SmellKind::LostCells => "lost-cells",
            SmellKind::EmptyCell => "empty-cell",
            SmellKind::SupervisorInstability => "supervisor-instability",
        }
    }
}

/// One ranked finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Smell {
    pub severity: Severity,
    pub kind: SmellKind,
    /// The cell label (or `campaignd` / a shard name for
    /// campaign-level smells).
    pub cell: String,
    /// Ranking score within a severity band; larger is worse. Unitless
    /// and kind-specific (CV for variance, loss fractions otherwise).
    pub score: f64,
    pub summary: String,
}

/// FNV-1a over a label: mixed into the bootstrap seed so every cell
/// gets its own resampling stream regardless of checkpoint order.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn variance_smell(cell: &CellRecord, cfg: &AdviseConfig) -> Option<Smell> {
    if cell.samples.len() < 2 {
        return None;
    }
    let seed = cfg.seed ^ fnv1a(cell.key.label.as_bytes()) ^ cell.key.seed;
    let ci = bootstrap_ci(&cell.samples, cfg.resamples, seed, cfg.confidence, |xs| {
        Summary::of(xs).cv()
    });
    if ci.lo <= cfg.cv_threshold {
        return None;
    }
    let severity = if ci.lo > 2.0 * cfg.cv_threshold {
        Severity::Critical
    } else {
        Severity::Warning
    };
    Some(Smell {
        severity,
        kind: SmellKind::HighVariance,
        cell: cell.key.label.clone(),
        score: ci.point,
        summary: format!(
            "CV {} ({:.0}% CI {}\u{2013}{}) over {} runs exceeds the {} trust threshold",
            pct(ci.point),
            cfg.confidence * 100.0,
            pct(ci.lo),
            pct(ci.hi),
            cell.samples.len(),
            pct(cfg.cv_threshold),
        ),
    })
}

fn retry_smell(cell: &CellRecord) -> Option<Smell> {
    let succeeded = cell.samples.len() as u64;
    let excess = cell.attempts.saturating_sub(succeeded);
    if excess == 0 && cell.failures.is_empty() {
        return None;
    }
    let mut causes: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &cell.failures {
        *causes.entry(f.cause.cause()).or_insert(0) += 1;
    }
    let cause_list = causes
        .iter()
        .map(|(c, n)| format!("{c}\u{00d7}{n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let (severity, tail) = if cell.failures.is_empty() {
        (
            Severity::Warning,
            "all runs eventually succeeded, but retried runs re-roll their \
             seed and may hide load-sensitive behaviour"
                .to_string(),
        )
    } else {
        (
            Severity::Critical,
            format!("{} run(s) lost ({cause_list})", cell.failures.len()),
        )
    };
    Some(Smell {
        severity,
        kind: SmellKind::RetryCluster,
        cell: cell.key.label.clone(),
        score: excess as f64 / cell.attempts.max(1) as f64,
        summary: format!("{excess} extra attempt(s) beyond {succeeded} successful run(s); {tail}"),
    })
}

fn degraded_smell(cell: &CellRecord) -> Option<Smell> {
    let degraded = cell.metrics.counter("trace.degraded_runs");
    if degraded == 0 {
        return None;
    }
    let runs = cell.metrics.runs.max(1);
    Some(Smell {
        severity: Severity::Warning,
        kind: SmellKind::DegradedTraces,
        cell: cell.key.label.clone(),
        score: degraded as f64 / runs as f64,
        summary: format!(
            "{degraded} of {runs} run(s) recorded truncated traces \
             ({} events dropped); noise budgets under-report interference",
            cell.metrics.counter("trace.dropped"),
        ),
    })
}

fn empty_smell(cell: &CellRecord) -> Option<Smell> {
    if !cell.samples.is_empty() || cell.attempts == 0 {
        return None;
    }
    Some(Smell {
        severity: Severity::Critical,
        kind: SmellKind::EmptyCell,
        cell: cell.key.label.clone(),
        score: 1.0,
        summary: format!(
            "no usable measurement after {} attempt(s); the cell is a hole \
             in every table built from this campaign",
            cell.attempts
        ),
    })
}

fn supervisor_smells(state: &CampaignState) -> Vec<Smell> {
    let s = &state.supervisor;
    let crashes = s.counter("campaignd.worker_crashes");
    let timeouts = s.counter("campaignd.heartbeat_timeouts");
    let chaos = s.counter("campaignd.chaos_kills");
    let spawned = s.counter("campaignd.workers_spawned");
    let mut out = Vec::new();
    if crashes > 0 || timeouts > 0 {
        out.push(Smell {
            severity: Severity::Warning,
            kind: SmellKind::SupervisorInstability,
            cell: "campaignd".to_string(),
            score: crashes as f64 / spawned.max(1) as f64,
            summary: format!(
                "{crashes} unplanned worker crash(es) ({timeouts} from \
                 heartbeat/shard timeouts) across {spawned} spawn(s); \
                 results merged bit-identically, but the host was unhealthy"
            ),
        });
    } else if chaos > 0 {
        out.push(Smell {
            severity: Severity::Info,
            kind: SmellKind::SupervisorInstability,
            cell: "campaignd".to_string(),
            score: 0.0,
            summary: format!(
                "{chaos} planned chaos kill(s) absorbed with no unplanned \
                 crashes; crash recovery is exercised and healthy"
            ),
        });
    }
    out
}

/// Detect every smell in a checkpoint. Output order is fully
/// determined by ([`Severity`] desc, score desc, cell, kind).
pub fn detect_smells(state: &CampaignState, cfg: &AdviseConfig) -> Vec<Smell> {
    let mut out = Vec::new();
    for cell in &state.cells {
        out.extend(variance_smell(cell, cfg));
        out.extend(retry_smell(cell));
        out.extend(degraded_smell(cell));
        out.extend(empty_smell(cell));
    }
    for q in &state.quarantined {
        let labels = q
            .cells
            .iter()
            .map(|k| k.label.as_str())
            .collect::<Vec<_>>()
            .join(", ");
        out.push(Smell {
            severity: Severity::Critical,
            kind: SmellKind::LostCells,
            cell: format!("shard {}", q.shard),
            score: q.cells.len() as f64,
            summary: format!(
                "quarantined after {} crash(es) ({}); lost cells: {labels}",
                q.crashes, q.reason
            ),
        });
    }
    out.extend(supervisor_smells(state));
    sort_smells(&mut out);
    out
}

/// The one canonical smell ordering (worst first, then stable
/// tie-breaks) — shared by every pass that appends smells.
pub fn sort_smells(smells: &mut [Smell]) {
    smells.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| b.score.total_cmp(&a.score))
            .then_with(|| a.cell.cmp(&b.cell))
            .then_with(|| a.kind.cmp(&b.kind))
    });
}
