//! Table 1: tracing overhead — average execution time with `osnoise`
//! tracing off and on, per workload. The paper reports increases below
//! 1 %, establishing that traced baselines are representative.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::{suite, Scale};
use crate::failure::RetryPolicy;
use crate::harness::{run_many, RunSpec};
use crate::platform::Platform;
use noiselab_stats::{fmt_pct, fmt_secs, Summary, TextTable};
use noiselab_workloads::Workload;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub off_mean: f64,
    pub on_mean: f64,
    /// Runs (off + on) that produced no measurement.
    pub failed: usize,
}

impl Row {
    pub fn increase(&self) -> f64 {
        self.on_mean / self.off_mean - 1.0
    }
}

#[derive(Debug, Clone)]
pub struct Table1 {
    pub rows: Vec<Row>,
}

impl Table1 {
    pub fn render(&self) -> String {
        let mut t = TextTable::new("Table 1: average execution time with tracing off/on (Intel)")
            .header(&["Workload", "Tracing Off", "Tracing On", "Increase"]);
        for r in &self.rows {
            t.row(&[
                r.workload.clone(),
                fmt_secs(r.off_mean),
                fmt_secs(r.on_mean),
                fmt_pct(r.increase()),
            ]);
        }
        let mut out = t.render();
        let failed: usize = self.rows.iter().map(|r| r.failed).sum();
        if failed > 0 {
            out.push_str(&format!("note: {failed} run(s) failed and were excluded\n"));
        }
        out
    }

    /// The paper's shape: tracing costs every workload less than 2 %.
    pub fn check_shape(&self) -> Result<(), String> {
        for r in &self.rows {
            let below = r.increase() < 0.02;
            if !below {
                return Err(format!(
                    "Table 1: tracing overhead for {} is {:.2}%, expected < 2%",
                    r.workload,
                    r.increase() * 100.0
                ));
            }
        }
        Ok(())
    }
}

/// Run the tracing-overhead experiment on the Intel platform.
pub fn run(scale: Scale) -> Table1 {
    let platform = Platform::intel();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let workloads: Vec<Box<dyn Workload + Sync>> = vec![
        Box::new(suite::nbody_for(&platform)),
        Box::new(suite::babelstream_for(&platform)),
        Box::new(suite::minife_for(&platform)),
    ];

    let mut rows = Vec::new();
    for w in &workloads {
        // Same seeds for off/on: the only difference is the tracer.
        let off = RunSpec::new(&platform, w.as_ref(), &cfg, 1000);
        let on = RunSpec {
            tracing: true,
            ..off.clone()
        };
        let off = run_many(&off, scale.baseline_runs, RetryPolicy::none());
        let on = run_many(&on, scale.baseline_runs, RetryPolicy::none());
        let failed = off.failed_count() + on.failed_count();
        let off_mean = Summary::of(&off.samples()).mean;
        let on_mean = Summary::of(&on.samples()).mean;
        rows.push(Row {
            workload: w.name().to_string(),
            off_mean,
            on_mean,
            failed,
        });
    }
    Table1 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-scale tracing overhead stays small and non-negative-ish
    /// (tracing adds work, so the increase should be >= ~0 and < 2 %).
    #[test]
    fn tracing_overhead_below_two_percent() {
        let platform = Platform::intel();
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let w = suite::small::minife_for(&platform);
        let off = RunSpec::new(&platform, &w, &cfg, 500);
        let on = RunSpec {
            tracing: true,
            ..off.clone()
        };
        let off = run_many(&off, 6, RetryPolicy::none()).samples();
        let on = run_many(&on, 6, RetryPolicy::none()).samples();
        let off_mean: f64 = off.iter().sum::<f64>() / off.len() as f64;
        let on_mean: f64 = on.iter().sum::<f64>() / on.len() as f64;
        let inc = on_mean / off_mean - 1.0;
        assert!(inc < 0.02, "tracing overhead {inc}");
        assert!(inc > -0.01, "tracing made runs faster? {inc}");
    }

    #[test]
    fn render_shape() {
        let t = Table1 {
            rows: vec![Row {
                workload: "nbody".into(),
                off_mean: 0.45,
                on_mean: 0.453,
                failed: 0,
            }],
        };
        let s = t.render();
        assert!(s.contains("nbody"));
        assert!(s.contains("+0.7%"));
        assert_eq!(t.check_shape(), Ok(()));
    }

    #[test]
    fn shape_fails_at_two_percent_overhead() {
        let t = Table1 {
            rows: vec![Row {
                workload: "minife".into(),
                off_mean: 1.0,
                on_mean: 1.03,
                failed: 0,
            }],
        };
        let err = t.check_shape().unwrap_err();
        assert!(err.contains("Table 1") && err.contains("minife"), "{err}");
    }
}
