//! Table 2: average run-to-run standard deviation (ms) of baseline
//! executions, per mitigation configuration and programming model,
//! averaged across the evaluated workloads and platforms.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::plan::{Outcome, Plan, Reduce, RunSet};
use crate::experiments::{suite, Scale, Section};
use crate::platform::Platform;
use noiselab_stats::TextTable;
use std::rc::Rc;

#[derive(Debug, Clone)]
pub struct Table2 {
    /// `sd_ms[model][mitigation]`, averaged across workloads/platforms.
    pub omp: [f64; 6],
    pub sycl: [f64; 6],
}

impl Table2 {
    pub fn render(&self) -> String {
        let title = "Table 2: average s.d. (ms) in baseline executions";
        render_by_model(title, &self.omp, &self.sycl)
    }
}

/// A model x mitigation table (Tables 2 and 6): a row per model, two
/// decimals per cell.
pub fn render_by_model(title: &str, omp: &[f64; 6], sycl: &[f64; 6]) -> String {
    let mut t = TextTable::new(title).header(&["", "Rm", "RmHK", "RmHK2", "TP", "TPHK", "TPHK2"]);
    for (model, xs) in [("OMP", omp), ("SYCL", sycl)] {
        let mut row = vec![model.to_string()];
        row.extend(xs.iter().map(|x| format!("{x:.2}")));
        t.row(&row);
    }
    t.render()
}

/// Table 2: every workload, mitigation and model on Intel and AMD, each
/// cell's s.d. averaged over the (platform, workload) pairs.
pub fn build(scale: Scale) -> (Plan, Reduce<Section>) {
    let mut plan = Plan::default();
    // Per (platform, workload) pair, a set per mitigation and model. No
    // anomaly boost here: baseline variability is measured under
    // natural conditions (the boost exists only so small trace
    // collections still catch a worst case).
    let mut pairs = Vec::new();
    for platform in [Platform::intel(), Platform::amd()].map(Rc::new) {
        for (wi, w) in suite::paper_workloads(&platform).iter().enumerate() {
            pairs.push(Mitigation::ALL.map(|mit| {
                [Model::Omp, Model::Sycl].map(|model| {
                    // Seeds vary per workload and model (independent
                    // anomaly dice) but are shared across mitigations
                    // (paired columns).
                    let seed =
                        9_000 + 10_000 * wi as u64 + 100_000 * matches!(model, Model::Sycl) as u64;
                    let cfg = ExecConfig::new(model, mit);
                    plan.set(RunSet::new(&platform, w, cfg, seed, scale.baseline_runs))
                })
            }));
        }
    }
    let reduce = move |out: &Outcome| {
        let sd = |m: usize, i: usize| -> f64 {
            let sds = pairs.iter().map(|pair| out.summary(pair[i][m]).sd * 1e3);
            sds.sum::<f64>() / pairs.len() as f64
        };
        let t = Table2 {
            omp: std::array::from_fn(|i| sd(0, i)),
            sycl: std::array::from_fn(|i| sd(1, i)),
        };
        (t.render(), Ok(()))
    };
    (plan, Box::new(reduce))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_has_all_columns() {
        let t = Table2 {
            omp: [7.8, 6.0, 10.0, 5.9, 7.5, 8.7],
            sycl: [7.2, 7.8, 5.6, 6.8, 7.6, 5.4],
        };
        let s = t.render();
        assert!(s.contains("RmHK2"));
        assert!(s.contains("7.80"));
        assert_eq!(t.sycl[Mitigation::TpHK2.index()], 5.4);
    }
}
