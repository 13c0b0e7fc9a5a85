//! Table 1: tracing overhead — average execution time with `osnoise`
//! tracing off and on, per workload. The paper reports increases below
//! 1 %, establishing that traced baselines are representative.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::plan::{Outcome, Plan, RunSet};
use crate::experiments::{suite, Scale};
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

/// The tracing-overhead plan on the Intel platform: per workload, an
/// untraced and a traced set on the same seeds, so the tracer is the
/// only difference.
pub fn plan(scale: Scale) -> Plan {
    let platform = Rc::new(Platform::intel());
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let mut plan = Plan::default();
    for w in &suite::paper_workloads(&platform) {
        let off = RunSet::new(&platform, w, cfg.clone(), 1000, scale.baseline_runs);
        let on = RunSet {
            tracing: true,
            ..off.clone()
        };
        plan.sets.extend([off, on]);
    }
    plan
}

/// Table 1 from its plan's ledgers.
pub fn reduce(plan: &Plan, out: &Outcome) -> Table1 {
    let rows = plan
        .sets
        .chunks(2)
        .enumerate()
        .map(|(i, off_on)| Row {
            workload: off_on[0].workload.name().to_string(),
            off_mean: out.summary(2 * i).mean,
            on_mean: out.summary(2 * i + 1).mean,
            failed: out.ledgers[2 * i].failed_count() + out.ledgers[2 * i + 1].failed_count(),
        })
        .collect();
    Table1 { rows }
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
        let sets = vec![off, on];
        let plans = [(
            "table1",
            Plan {
                sets,
                ..Plan::default()
            },
        )];
        let out = run_plans(&plans).unwrap();
        let inc = reduce(&plans[0].1, &out[0]).rows[0].increase();
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
