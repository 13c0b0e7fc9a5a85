//! # noiselab-advise
//!
//! The measurement-quality advisor: turns the artifacts every other
//! subsystem already produces — campaign checkpoints (ledger stream
//! hashes, failure taxonomy, per-cell metrics), OsNoiseTracer trace
//! sets, supervisor health counters, and the committed `BENCH_*.json`
//! history — into a ranked, deterministic diagnosis. Three passes:
//!
//! 1. **Smell detection** ([`smell`]): high-CV cells via a seeded
//!    bootstrap CI on the coefficient of variation, retry and failure
//!    clusters, degraded-trace clusters, quarantined/lost cells, and
//!    supervisor instability.
//! 2. **Blame attribution** ([`blame`]): for flagged cells with trace
//!    data, name the dominant noise source *and* CPU by its share of
//!    excess osnoise over the per-run median.
//! 3. **Regression watch** ([`regress`]): judge the latest bench
//!    snapshot against the trajectory's own step-to-step variability
//!    (robust z over historical changes — statistics, not raw
//!    thresholds).
//!
//! Plus a mitigation recommendation table ([`recommend`]) re-deriving
//! the paper's Table-2-style judgment (pin vs roam, housekeeping
//! width, OMP vs SYCL) with rank-sum significance.
//!
//! Everything is read-only over run artifacts and deterministic: the
//! same inputs produce byte-identical human, JSON and markdown reports
//! regardless of file-visit order (all maps are BTree, all ranking
//! keys are total orders, the bootstrap is seeded).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::ref_as_ptr)]

pub mod blame;
pub mod input;
pub mod recommend;
pub mod regress;
pub mod report;
pub mod smell;

pub use blame::{attribute_set, Blame};
pub use input::{
    load_hotpath, load_traces, AdviseError, HotpathCell, HotpathHistory, HotpathSnapshot,
};
pub use recommend::{recommend, Recommendation};
pub use regress::{hotpath_checks, BenchCheck, Verdict};
pub use smell::{detect_smells, Severity, Smell, SmellKind};

use noiselab_core::CampaignState;
use noiselab_noise::TraceSet;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Tunables for the three passes. The defaults are what the CLI and CI
/// gate use; tests tighten or loosen them explicitly.
#[derive(Debug, Clone)]
pub struct AdviseConfig {
    /// Seed for the bootstrap resampler (combined per cell with the
    /// cell's own identity so cell order cannot matter).
    pub seed: u64,
    /// Bootstrap resamples per cell.
    pub resamples: usize,
    /// Two-sided bootstrap confidence level.
    pub confidence: f64,
    /// A cell smells when the CI *lower* bound of its CV exceeds this.
    pub cv_threshold: f64,
    /// Significance level for rank-sum comparisons.
    pub alpha: f64,
    /// Robust-z threshold for the bench regression watch.
    pub z_threshold: f64,
    /// Minimum relative change the watch will ever call a regression,
    /// whatever the z-score says (guards against a near-zero noise
    /// scale inflating trivia). The default sits just under the
    /// hotpath bench's own ±25% self-gate: steps that bench already
    /// accepts as machine noise are not re-litigated here.
    pub change_floor: f64,
    /// Floor and cap on the step-change noise scale. The floor absorbs
    /// short histories; the cap keeps genuine past *optimization*
    /// jumps from widening the tolerance for future regressions.
    pub scale_floor: f64,
    pub scale_cap: f64,
}

impl Default for AdviseConfig {
    fn default() -> Self {
        AdviseConfig {
            seed: 0xAD_715E,
            resamples: 800,
            confidence: 0.95,
            cv_threshold: 0.05,
            alpha: 0.01,
            z_threshold: 3.0,
            change_floor: 0.20,
            scale_floor: 0.03,
            scale_cap: 0.15,
        }
    }
}

/// Everything advise can consume. All fields optional: the report
/// covers whatever evidence exists.
#[derive(Debug, Default)]
pub struct AdviseInputs {
    pub checkpoint: Option<CampaignState>,
    /// Trace sets keyed by cell label; the `"*"` key applies to any
    /// flagged cell that has no labelled set of its own.
    pub traces: BTreeMap<String, TraceSet>,
    /// `(display name, parsed history)` of `BENCH_hotpath.json`.
    pub hotpath: Option<(String, HotpathHistory)>,
}

/// The assembled diagnosis. Serializes to the JSON report form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdviseReport {
    pub schema: u32,
    /// Campaign fingerprint, or empty when no checkpoint was given.
    pub fingerprint: String,
    /// Workload name parsed from the fingerprint (empty if unknown).
    pub workload: String,
    pub smells: Vec<Smell>,
    pub blames: Vec<Blame>,
    pub bench: Vec<BenchCheck>,
    pub recommendations: Vec<Recommendation>,
}

pub const REPORT_SCHEMA: u32 = 1;

impl AdviseReport {
    pub fn has_critical(&self) -> bool {
        self.smells.iter().any(|s| s.severity == Severity::Critical)
    }

    pub fn has_regression(&self) -> bool {
        self.bench.iter().any(|b| b.verdict == Verdict::Regression)
    }

    /// Should `advise --check` fail the build?
    pub fn check_failed(&self) -> bool {
        self.has_regression() || self.has_critical()
    }

    pub fn render_human(&self) -> String {
        report::render_human(self)
    }

    pub fn render_markdown(&self) -> String {
        report::render_markdown(self)
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

/// Workload field of a `v2|platform|workload|...` campaign
/// fingerprint.
fn workload_of_fingerprint(fp: &str) -> String {
    fp.split('|').nth(2).unwrap_or("").to_string()
}

/// Run all passes over the available inputs.
pub fn advise(inputs: &AdviseInputs, cfg: &AdviseConfig) -> AdviseReport {
    let mut smells = Vec::new();
    let mut blames = Vec::new();
    let mut recommendations = Vec::new();
    let mut bench = Vec::new();
    let (fingerprint, workload) = match &inputs.checkpoint {
        Some(state) => (
            state.fingerprint.clone(),
            workload_of_fingerprint(&state.fingerprint),
        ),
        None => (String::new(), String::new()),
    };

    if let Some(state) = &inputs.checkpoint {
        smells.extend(detect_smells(state, cfg));
        recommendations.extend(recommend(state, cfg));
    }

    // Blame every flagged cell that has trace evidence; with no
    // checkpoint at all, blame each provided set directly so advise
    // still works over raw `noiselab trace` output.
    if inputs.checkpoint.is_some() {
        let flagged: Vec<String> = smells
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    SmellKind::HighVariance | SmellKind::RetryCluster | SmellKind::DegradedTraces
                )
            })
            .map(|s| s.cell.clone())
            .collect();
        let mut done: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for cell in flagged {
            if !done.insert(cell.clone()) {
                continue;
            }
            let set = inputs.traces.get(&cell).or_else(|| inputs.traces.get("*"));
            if let Some(set) = set {
                if let Some(b) = attribute_set(&cell, set) {
                    blames.push(b);
                }
            }
        }
    } else {
        for (label, set) in &inputs.traces {
            if let Some(b) = attribute_set(label, set) {
                blames.push(b);
            }
        }
    }
    blames.sort_by(|a, b| {
        b.share_pct
            .total_cmp(&a.share_pct)
            .then_with(|| a.cell.cmp(&b.cell))
    });

    // Thread-class blame maps onto the paper's scheduling-policy axis:
    // FIFO workload threads cannot be preempted by OTHER-class noise.
    for b in &blames {
        if b.class == "thread" {
            recommendations.push(Recommendation {
                topic: "sched-policy".into(),
                pick: "SCHED_FIFO".into(),
                against: "SCHED_OTHER".into(),
                delta_pct: 0.0,
                p: 1.0,
                significant: false,
                rationale: format!(
                    "thread-class noise ({}) dominates blame for cell {}; \
                     FIFO workload threads would preempt it instead of \
                     queueing behind it",
                    b.source, b.cell
                ),
            });
        }
    }

    if let Some((name, history)) = &inputs.hotpath {
        bench.extend(hotpath_checks(name, history, cfg));
    }
    smell::sort_smells(&mut smells);

    AdviseReport {
        schema: REPORT_SCHEMA,
        fingerprint,
        workload,
        smells,
        blames,
        bench,
        recommendations,
    }
}
