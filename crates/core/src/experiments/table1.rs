//! Table 1: tracing overhead — average execution time with `osnoise`
//! tracing off and on, per workload. The paper reports increases below
//! 1 %, establishing that traced baselines are representative.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::plan::{Outcome, Plan, Reduce, RunSet};
use crate::experiments::{suite, Scale, Section};
use crate::platform::Platform;
use noiselab_stats::{fmt_pct, fmt_secs, TextTable};
use std::rc::Rc;

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

/// Table 1 on the Intel platform: per workload, an untraced and a
/// traced set on the same seeds, so the tracer is the only difference.
pub fn build(scale: Scale) -> (Plan, Reduce<Section>) {
    let platform = Rc::new(Platform::intel());
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let mut plan = Plan::default();
    let mut sets = Vec::new();
    for w in &suite::paper_workloads(&platform) {
        let off = RunSet::new(&platform, w, cfg.clone(), 1000, scale.baseline_runs);
        let mut on = off.clone();
        on.tracing = true;
        sets.push((w.name().to_string(), plan.set(off), plan.set(on)));
    }
    let reduce = move |out: &Outcome| {
        let row = |(workload, off, on)| Row {
            workload,
            off_mean: out.summary(off).mean,
            on_mean: out.summary(on).mean,
            failed: out.ledger(off).failed_count() + out.ledger(on).failed_count(),
        };
        let rows = sets.into_iter().map(row).collect();
        checked!(Table1 { rows })
    };
    (plan, Box::new(reduce))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::plan::run_plans;
    use noiselab_workloads::Workload;

    /// Smoke-scale tracing overhead stays small and non-negative-ish
    /// (tracing adds work, so the increase should be >= ~0 and < 2 %).
    #[test]
    fn tracing_overhead_below_two_percent() {
        let platform = Rc::new(Platform::intel());
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let w: Rc<dyn Workload + Sync> = Rc::new(suite::small::minife_for(&platform));
        let off = RunSet::new(&platform, &w, cfg, 500, 6);
        let on = RunSet {
            tracing: true,
            ..off.clone()
        };
        let mut plan = Plan::default();
        let (off, on) = (plan.set(off), plan.set(on));
        let out = &run_plans(&[("table1", plan)]).unwrap()[0];
        let inc = out.summary(on).mean / out.summary(off).mean - 1.0;
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
