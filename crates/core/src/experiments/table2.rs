//! Table 2: average run-to-run standard deviation (ms) of baseline
//! executions, per mitigation configuration and programming model,
//! averaged across the evaluated workloads and platforms.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::plan::{Outcome, Plan, RunSet};
use crate::experiments::{suite, Scale};
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

/// The baseline-variability plan: every workload, mitigation and model
/// on Intel and AMD.
pub fn plan(scale: Scale) -> Plan {
    let mut plan = Plan::default();
    // No anomaly boost here: baseline variability is measured under
    // natural conditions (the boost exists only so small trace
    // collections still catch a worst case).
    for platform in [Platform::intel(), Platform::amd()].map(Rc::new) {
        for (wi, w) in suite::paper_workloads(&platform).iter().enumerate() {
            for mit in Mitigation::ALL {
                for model in [Model::Omp, Model::Sycl] {
                    // Seeds vary per workload and model (independent
                    // anomaly dice) but are shared across mitigations
                    // (paired columns).
                    let seed =
                        9_000 + 10_000 * wi as u64 + 100_000 * matches!(model, Model::Sycl) as u64;
                    let cfg = ExecConfig::new(model, mit);
                    plan.sets
                        .push(RunSet::new(&platform, w, cfg, seed, scale.baseline_runs));
                }
            }
        }
    }
    plan
}

/// Table 2 from its plan's ledgers: each cell's s.d. averaged over the
/// (platform, workload) pairs.
pub fn reduce(plan: &Plan, out: &Outcome) -> Table2 {
    let mut acc = [[0.0f64; 6]; 2];
    for (i, set) in plan.sets.iter().enumerate() {
        let m = matches!(set.cfg.model, Model::Sycl) as usize;
        acc[m][set.cfg.mitigation.index()] += out.summary(i).sd * 1e3;
    }
    let pairs = (plan.sets.len() / 12) as f64;
    Table2 {
        omp: acc[0].map(|x| x / pairs),
        sycl: acc[1].map(|x| x / pairs),
    }
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
