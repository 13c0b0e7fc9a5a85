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
        out.push_str(&format!(
            "average s.d.: reserved {:.2} ms vs w/o {:.2} ms\n",
            Fig1::avg_sd(&self.reserved),
            Fig1::avg_sd(&self.unreserved)
        ));
        out
    }

    pub fn avg_sd(points: &[SpreadPoint]) -> f64 {
        points.iter().map(|p| p.sd_ms).sum::<f64>() / points.len().max(1) as f64
    }

    /// The paper's shape: the unreserved system is markedly noisier.
    pub fn check_shape(&self) -> Result<(), String> {
        let reserved = Fig1::avg_sd(&self.reserved);
        let unreserved = Fig1::avg_sd(&self.unreserved);
        if unreserved > reserved * 1.5 {
            Ok(())
        } else {
            Err(format!(
                "Figure 1: unreserved system should be markedly noisier: \
                 {unreserved:.2} vs {reserved:.2} ms"
            ))
        }
    }
}

fn measure(platform: &Platform, scale: Scale) -> Vec<SpreadPoint> {
    let mut points = Vec::new();
    for (label, schedule) in SchedBench::figure1_configs() {
        let mut sb = SchedBench::with_schedule(schedule);
        // ~0.3 s per run on the A64FX, long enough for anomaly windows
        // to overlap the measurement.
        sb.repeats = 200;
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
pub fn run(scale: Scale) -> Fig1 {
    let reserved = scale.boost(&Platform::a64fx(true));
    let unreserved = scale.boost(&Platform::a64fx(false));
    Fig1 {
        reserved: measure(&reserved, scale),
        unreserved: measure(&unreserved, scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(sd_ms: f64) -> SpreadPoint {
        SpreadPoint {
            label: "st:1".into(),
            median_ms: 100.0,
            p10_ms: 99.0,
            p90_ms: 105.0,
            sd_ms,
        }
    }

    #[test]
    fn shape_needs_unreserved_half_again_noisier() {
        let fig = |reserved, unreserved| Fig1 {
            reserved: vec![point(reserved)],
            unreserved: vec![point(unreserved)],
        };
        assert_eq!(fig(2.0, 3.1).check_shape(), Ok(()));
        let err = fig(2.0, 3.0).check_shape().unwrap_err();
        assert!(err.contains("Figure 1"), "{err}");
    }

    #[test]
    fn render_lists_nine_configs_per_system() {
        let p = point(2.0);
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
