//! Table 2: average run-to-run standard deviation (ms) of baseline
//! executions, per mitigation configuration and programming model,
//! averaged across the evaluated workloads and platforms.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::{suite, Scale};
use crate::harness::run_baseline;
use crate::platform::Platform;
use noiselab_stats::TextTable;
use noiselab_workloads::Workload;

#[derive(Debug, Clone)]
pub struct Table2 {
    /// `sd_ms[model][mitigation]`, averaged across workloads/platforms.
    pub omp: [f64; 6],
    pub sycl: [f64; 6],
}

impl Table2 {
    pub fn render(&self) -> String {
        let mut t = TextTable::new("Table 2: average s.d. (ms) in baseline executions")
            .header(&["", "Rm", "RmHK", "RmHK2", "TP", "TPHK", "TPHK2"]);
        let fmt = |xs: &[f64; 6]| xs.iter().map(|x| format!("{x:.2}")).collect::<Vec<_>>();
        let mut row = vec!["OMP".to_string()];
        row.extend(fmt(&self.omp));
        t.row(&row);
        let mut row = vec!["SYCL".to_string()];
        row.extend(fmt(&self.sycl));
        t.row(&row);
        t.render()
    }

    pub fn of(&self, model: Model, m: Mitigation) -> f64 {
        let idx = Mitigation::ALL
            .iter()
            .position(|&x| x == m)
            .expect("Mitigation::ALL lists every mitigation");
        match model {
            Model::Omp => self.omp[idx],
            Model::Sycl => self.sycl[idx],
        }
    }
}

/// Run the baseline-variability experiment.
pub fn run(scale: Scale) -> Table2 {
    let platforms = [Platform::intel(), Platform::amd()];
    let mut omp_acc = [0.0f64; 6];
    let mut sycl_acc = [0.0f64; 6];
    let mut cells = 0usize;

    for platform in &platforms {
        // No anomaly boost here: baseline variability is measured under
        // natural conditions (the boost exists only so small trace
        // collections still catch a worst case).
        let platform = platform.clone();
        let workloads: Vec<Box<dyn Workload + Sync>> = vec![
            Box::new(suite::nbody_for(&platform)),
            Box::new(suite::babelstream_for(&platform)),
            Box::new(suite::minife_for(&platform)),
        ];
        for (wi, w) in workloads.iter().enumerate() {
            for (mi, &mit) in Mitigation::ALL.iter().enumerate() {
                for model in [Model::Omp, Model::Sycl] {
                    let cfg = ExecConfig::new(model, mit);
                    // Seeds vary per workload and model (independent
                    // anomaly dice) but are shared across mitigations
                    // (paired columns).
                    let seed =
                        9_000 + 10_000 * wi as u64 + 100_000 * matches!(model, Model::Sycl) as u64;
                    let base = run_baseline(
                        &platform,
                        w.as_ref(),
                        &cfg,
                        scale.baseline_runs,
                        seed,
                        false,
                    );
                    let sd_ms = base.summary.sd * 1e3;
                    match model {
                        Model::Omp => omp_acc[mi] += sd_ms,
                        Model::Sycl => sycl_acc[mi] += sd_ms,
                    }
                }
            }
            cells += 1;
        }
    }
    let n = cells as f64;
    Table2 {
        omp: omp_acc.map(|x| x / n),
        sycl: sycl_acc.map(|x| x / n),
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
        assert_eq!(t.of(Model::Sycl, Mitigation::TpHK2), 5.4);
    }
}
