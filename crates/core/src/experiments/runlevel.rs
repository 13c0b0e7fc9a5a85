//! The runlevel-3 check of §5.1: the paper re-executed the baseline
//! experiments with the GUI disabled (Linux runlevel 3) to rule out
//! GUI-induced noise as the cause of the observed trends — variability
//! generally dropped, but the relative ordering of mitigations was
//! unchanged.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::plan::{Outcome, Plan, Reduce, RunSet};
use crate::experiments::{suite, Scale, Section};
use crate::platform::Platform;
use noiselab_stats::TextTable;
use noiselab_workloads::Workload;
use std::rc::Rc;

#[derive(Debug, Clone)]
pub struct RunlevelRow {
    pub mitigation: Mitigation,
    pub sd_rl5_ms: f64,
    pub sd_rl3_ms: f64,
}

#[derive(Debug, Clone)]
pub struct RunlevelComparison {
    pub rows: Vec<RunlevelRow>,
}

impl RunlevelComparison {
    pub fn render(&self) -> String {
        let mut t = TextTable::new("Runlevel 5 vs 3: baseline s.d. (ms), N-body OMP on Intel")
            .header(&["config", "runlevel 5 (GUI)", "runlevel 3"]);
        for r in &self.rows {
            t.row(&[
                r.mitigation.label().to_string(),
                format!("{:.2}", r.sd_rl5_ms),
                format!("{:.2}", r.sd_rl3_ms),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "average s.d.: runlevel 5 {:.2} ms vs runlevel 3 {:.2} ms (paper: \
             disabling the GUI generally reduced variability; trends unchanged)\n",
            self.avg_rl5(),
            self.avg_rl3()
        ));
        out
    }

    pub fn avg_rl5(&self) -> f64 {
        self.rows.iter().map(|r| r.sd_rl5_ms).sum::<f64>() / self.rows.len().max(1) as f64
    }

    pub fn avg_rl3(&self) -> f64 {
        self.rows.iter().map(|r| r.sd_rl3_ms).sum::<f64>() / self.rows.len().max(1) as f64
    }

    /// The paper's shape: disabling the GUI does not increase
    /// variability (within 20 %).
    pub fn check_shape(&self) -> Result<(), String> {
        if self.avg_rl3() <= self.avg_rl5() * 1.2 {
            Ok(())
        } else {
            Err(format!(
                "runlevel 3: disabling the GUI should not increase variability: \
                 rl3 {:.2} vs rl5 {:.2}",
                self.avg_rl3(),
                self.avg_rl5()
            ))
        }
    }
}

/// The comparison: N-body OMP baselines under every mitigation, with
/// the GUI stack active (runlevel 5) and disabled (runlevel 3), on the
/// same seeds.
pub fn build(scale: Scale) -> (Plan, Reduce<Section>) {
    let rl5 = Rc::new(Platform::intel());
    let rl3 = Rc::new(Platform::intel().runlevel3());
    let workload: Rc<dyn Workload + Sync> = Rc::new(suite::nbody_for(&rl5));
    let mut plan = Plan::default();
    let sets = Mitigation::ALL.map(|mit| {
        let cfg = ExecConfig::new(Model::Omp, mit);
        let set = |p| RunSet::new(p, &workload, cfg.clone(), 4_500, scale.baseline_runs);
        (mit, [&rl5, &rl3].map(|p| plan.set(set(p))))
    });
    let reduce = move |out: &Outcome| {
        let sd_ms = |set| out.summary(set).sd * 1e3;
        let rows = sets.map(|(mitigation, [rl5, rl3])| RunlevelRow {
            mitigation,
            sd_rl5_ms: sd_ms(rl5),
            sd_rl3_ms: sd_ms(rl3),
        });
        checked!(RunlevelComparison { rows: rows.into() })
    };
    (plan, Box::new(reduce))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shape() {
        let c = RunlevelComparison {
            rows: vec![RunlevelRow {
                mitigation: Mitigation::Rm,
                sd_rl5_ms: 7.0,
                sd_rl3_ms: 5.0,
            }],
        };
        let s = c.render();
        assert!(s.contains("runlevel 3"));
        assert_eq!(c.avg_rl5(), 7.0);
        assert_eq!(c.check_shape(), Ok(()));
    }

    #[test]
    fn shape_fails_when_runlevel3_is_much_noisier() {
        let c = RunlevelComparison {
            rows: vec![RunlevelRow {
                mitigation: Mitigation::Rm,
                sd_rl5_ms: 5.0,
                sd_rl3_ms: 6.5,
            }],
        };
        let err = c.check_shape().unwrap_err();
        assert!(err.contains("runlevel 3"), "{err}");
    }
}
