//! Pass 3: the regression watch over committed `BENCH_*.json`
//! trajectories.
//!
//! Raw thresholds ("fail above +25%") treat a historically jittery
//! cell and a rock-stable one identically. The watch instead scores
//! the latest step's relative change against the trajectory's *own*
//! step-to-step variability: a robust z (median/MAD of historical
//! changes, floored so two-snapshot histories aren't oversensitive and
//! capped so past optimization jumps don't widen the tolerance), plus
//! an absolute change floor so statistically-loud trivia is ignored.

use crate::input::HotpathHistory;
use crate::AdviseConfig;
use noiselab_stats::{mad, median};
use serde::{Deserialize, Serialize};

/// Outcome of one watched metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Within the trajectory's own noise.
    Ok,
    /// Significantly better than the trajectory predicts.
    Improvement,
    /// Significantly worse — fails `advise --check`.
    Regression,
    /// Not enough history to judge.
    Inconclusive,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improvement => "improvement",
            Verdict::Regression => "REGRESSION",
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

/// One watched (cell, metric) row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCheck {
    /// Display name of the bench file the row came from.
    pub file: String,
    /// `workload/config` cell, or a cross-check description.
    pub cell: String,
    pub metric: String,
    /// Value at the previous snapshot (or the comparison reference).
    pub previous: f64,
    pub latest: f64,
    /// Relative change latest vs previous, as a fraction.
    pub change: f64,
    /// Robust z of the change against historical step changes (0 for
    /// cross-checks and inconclusive rows).
    pub z: f64,
    pub verdict: Verdict,
    pub summary: String,
}

/// Judge one series (oldest-first) of a metric.
fn judge_series(series: &[f64], cfg: &AdviseConfig) -> Option<(f64, f64, f64, Verdict)> {
    if series.len() < 2 {
        return None;
    }
    let latest = *series.last().expect("non-empty series");
    let previous = series[series.len() - 2];
    if previous <= 0.0 {
        return None;
    }
    let change = latest / previous - 1.0;
    // Historical step-to-step changes, excluding the step under test.
    let history: Vec<f64> = series[..series.len() - 1]
        .windows(2)
        .filter(|w| w[0] > 0.0)
        .map(|w| w[1] / w[0] - 1.0)
        .collect();
    let center = if history.is_empty() {
        0.0
    } else {
        median(&history)
    };
    let scale = if history.is_empty() {
        cfg.scale_floor
    } else {
        (1.4826 * mad(&history)).clamp(cfg.scale_floor, cfg.scale_cap)
    };
    let z = (change - center) / scale;
    let verdict = if z > cfg.z_threshold && change > cfg.change_floor {
        Verdict::Regression
    } else if z < -cfg.z_threshold && change < -cfg.change_floor {
        Verdict::Improvement
    } else {
        Verdict::Ok
    };
    Some((previous, change, z, verdict))
}

/// Watch every cell of the hotpath trajectory on its two host-cost
/// metrics. Rows are ordered by (workload, config, metric).
pub fn hotpath_checks(file: &str, h: &HotpathHistory, cfg: &AdviseConfig) -> Vec<BenchCheck> {
    type Getter = fn(&crate::input::HotpathCell) -> f64;
    let metrics: [(&str, Getter); 2] = [
        ("bare_ns_per_event", |c| c.bare_ns_per_event),
        ("telemetry_ns_per_event", |c| c.telemetry_ns_per_event),
    ];
    let mut out = Vec::new();
    for (workload, config) in h.cell_keys() {
        for (metric, get) in metrics {
            let series = h.series(&workload, &config, get);
            let cell = format!("{workload}/{config}");
            match judge_series(&series, cfg) {
                None => out.push(BenchCheck {
                    file: file.to_string(),
                    cell,
                    metric: metric.to_string(),
                    previous: 0.0,
                    latest: series.last().copied().unwrap_or(0.0),
                    change: 0.0,
                    z: 0.0,
                    verdict: Verdict::Inconclusive,
                    summary: format!(
                        "only {} snapshot(s) carry this cell; need at least 2 to judge",
                        series.len()
                    ),
                }),
                Some((previous, change, z, verdict)) => {
                    let latest = *series.last().expect("non-empty series");
                    out.push(BenchCheck {
                        file: file.to_string(),
                        cell,
                        metric: metric.to_string(),
                        previous,
                        latest,
                        change,
                        z,
                        verdict,
                        summary: format!(
                            "{:.1} \u{2192} {:.1} ns/event ({:+.1}%, robust z {:+.1} over {} snapshot(s)): {}",
                            previous,
                            latest,
                            change * 100.0,
                            z,
                            series.len(),
                            verdict.label(),
                        ),
                    });
                }
            }
        }
    }
    out
}
