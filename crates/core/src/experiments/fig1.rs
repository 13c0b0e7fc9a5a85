//! Figure 1: schedbench execution-time variability on the two A64FX
//! systems — with firmware-reserved OS cores (BSC) and without (MACC) —
//! across schedule methods (st/dy/gd) and chunk sizes.
//!
//! The figure is rendered as a spread table (median, p10-p90 band,
//! s.d.) per x-axis label; the paper's claim is that the unreserved
//! system shows far larger spreads.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::Scale;
use crate::failure::RetryPolicy;
use crate::harness::{run_many, RunSpec};
use crate::platform::Platform;
use noiselab_stats::{percentile, TextTable};
use noiselab_workloads::SchedBench;

#[derive(Debug, Clone)]
pub struct SpreadPoint {
    pub label: String,
    pub median_ms: f64,
    pub p10_ms: f64,
    pub p90_ms: f64,
    pub sd_ms: f64,
}

#[derive(Debug, Clone)]
pub struct Fig1 {
    pub reserved: Vec<SpreadPoint>,
    pub unreserved: Vec<SpreadPoint>,
}

impl Fig1 {
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, points) in [
            ("A64FX:reserved", &self.reserved),
            ("A64FX:w/o", &self.unreserved),
        ] {
            let mut t = TextTable::new(format!("Figure 1: schedbench on {name}")).header(&[
                "sched",
                "median(ms)",
                "p10(ms)",
                "p90(ms)",
                "s.d.(ms)",
            ]);
            for p in points {
                t.row(&[
                    p.label.clone(),
                    format!("{:.1}", p.median_ms),
                    format!("{:.1}", p.p10_ms),
                    format!("{:.1}", p.p90_ms),
                    format!("{:.2}", p.sd_ms),
                ]);
            }
            out.push_str(&t.render());
        }
        // Headline comparison.
        let avg =
            |ps: &[SpreadPoint]| ps.iter().map(|p| p.sd_ms).sum::<f64>() / ps.len().max(1) as f64;
        out.push_str(&format!(
            "average s.d.: reserved {:.2} ms vs w/o {:.2} ms\n",
            avg(&self.reserved),
            avg(&self.unreserved)
        ));
        out
    }

    pub fn avg_sd(points: &[SpreadPoint]) -> f64 {
        points.iter().map(|p| p.sd_ms).sum::<f64>() / points.len().max(1) as f64
    }
}

fn measure(platform: &Platform, scale: Scale, small: bool) -> Vec<SpreadPoint> {
    let mut points = Vec::new();
    for (label, schedule) in SchedBench::figure1_configs() {
        let mut sb = SchedBench::with_schedule(schedule);
        if small {
            sb.repeats = 10;
            sb.items = 4_096;
        } else {
            // ~0.3 s per run on the A64FX, long enough for anomaly
            // windows to overlap the measurement.
            sb.repeats = 200;
        }
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm).with_schedule(schedule);
        let spec = RunSpec::new(platform, &sb, &cfg, 3_000);
        let ledger = run_many(&spec, scale.baseline_runs, RetryPolicy::none());
        let secs = ledger.samples();
        for (seed, cause) in ledger.failures() {
            eprintln!("fig1: run seed {seed} failed ({cause}); excluded from spread");
        }
        let summary = noiselab_stats::Summary::of(&secs);
        points.push(SpreadPoint {
            label,
            median_ms: percentile(&secs, 50.0) * 1e3,
            p10_ms: percentile(&secs, 10.0) * 1e3,
            p90_ms: percentile(&secs, 90.0) * 1e3,
            sd_ms: summary.sd * 1e3,
        });
    }
    points
}

/// Run the Figure 1 experiment.
pub fn run(scale: Scale, small: bool) -> Fig1 {
    let reserved = scale.boost(&Platform::a64fx(true));
    let unreserved = scale.boost(&Platform::a64fx(false));
    Fig1 {
        reserved: measure(&reserved, scale, small),
        unreserved: measure(&unreserved, scale, small),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_nine_configs_per_system() {
        let p = SpreadPoint {
            label: "st:1".into(),
            median_ms: 100.0,
            p10_ms: 99.0,
            p90_ms: 105.0,
            sd_ms: 2.0,
        };
        let f = Fig1 {
            reserved: vec![p.clone()],
            unreserved: vec![p],
        };
        let s = f.render();
        assert!(s.contains("A64FX:reserved"));
        assert!(s.contains("A64FX:w/o"));
        assert!(s.contains("st:1"));
    }
}
