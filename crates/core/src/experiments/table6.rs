//! Table 6: average relative performance change (%) under noise
//! injection, per programming model and mitigation, aggregated over the
//! rows of Tables 3-5.

use crate::execconfig::Model;
use crate::experiments::inject::InjectionTable;
use crate::experiments::table2::render_by_model;

#[derive(Debug, Clone)]
pub struct Table6 {
    pub omp: [f64; 6],
    pub sycl: [f64; 6],
}

impl Table6 {
    /// Aggregate from the outcomes of Tables 3-5.
    pub fn aggregate<'a>(tables: impl IntoIterator<Item = &'a InjectionTable>) -> Table6 {
        let mut sums = [[0.0f64; 6]; 2];
        let mut counts = [[0usize; 6]; 2];
        for t in tables {
            for (model, mit, pct) in t.pct_samples() {
                let m = match model {
                    Model::Omp => 0,
                    Model::Sycl => 1,
                };
                sums[m][mit.index()] += pct * 100.0;
                counts[m][mit.index()] += 1;
            }
        }
        let avg = |m: usize| {
            let mut out = [0.0; 6];
            for i in 0..6 {
                if counts[m][i] > 0 {
                    out[i] = sums[m][i] / counts[m][i] as f64;
                }
            }
            out
        };
        Table6 {
            omp: avg(0),
            sycl: avg(1),
        }
    }

    /// The paper's headline: SYCL's average improvement over OMP in
    /// percentage points, averaged over the six mitigation columns.
    pub fn sycl_advantage_points(&self) -> f64 {
        let o: f64 = self.omp.iter().sum::<f64>() / 6.0;
        let s: f64 = self.sycl.iter().sum::<f64>() / 6.0;
        o - s
    }

    /// The paper's shape: SYCL is more resilient on average.
    pub fn check_shape(&self) -> Result<(), String> {
        let advantage = self.sycl_advantage_points();
        if advantage > 0.0 {
            Ok(())
        } else {
            Err(format!(
                "Table 6: SYCL should be more resilient on average \
                 (paper: 16.82 points), got {advantage:.2} points"
            ))
        }
    }

    pub fn render(&self) -> String {
        let title = "Table 6: average relative performance change (%) under injection";
        let mut out = render_by_model(title, &self.omp, &self.sycl);
        out.push_str(&format!(
            "SYCL average improvement: {:.2} percentage points (paper: 16.82)\n",
            self.sycl_advantage_points()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::inject::{Block, Cell, RowResult, WorkloadKind};

    fn table_with(model: Model, pcts: [f64; 6]) -> InjectionTable {
        let cells = pcts.map(|p| Cell {
            base_mean: 1.0,
            inj_mean: 1.0 + p,
        });
        InjectionTable {
            title: "t".into(),
            workload: WorkloadKind::NBody,
            failed_runs: 0,
            blocks: vec![Block {
                platform: "p".into(),
                rows: vec![RowResult {
                    label: "r".into(),
                    model,
                    smt: false,
                    trace: 0,
                    cells,
                }],
            }],
            accuracy: vec![],
        }
    }

    #[test]
    fn aggregates_means_per_model() {
        let t1 = table_with(Model::Omp, [0.4, 0.2, 0.1, 0.5, 0.3, 0.2]);
        let t2 = table_with(Model::Omp, [0.2, 0.0, 0.1, 0.3, 0.1, 0.2]);
        let t3 = table_with(Model::Sycl, [0.2, 0.1, 0.1, 0.2, 0.1, 0.1]);
        let agg = Table6::aggregate(&[t1, t2, t3]);
        assert!((agg.omp[0] - 30.0).abs() < 1e-9);
        assert!((agg.sycl[0] - 20.0).abs() < 1e-9);
        assert!(agg.sycl_advantage_points() > 0.0);
        assert_eq!(agg.check_shape(), Ok(()));
    }

    #[test]
    fn shape_fails_without_a_sycl_advantage() {
        let omp = table_with(Model::Omp, [0.1; 6]);
        let sycl = table_with(Model::Sycl, [0.1; 6]);
        let err = Table6::aggregate(&[omp, sycl]).check_shape().unwrap_err();
        assert!(err.contains("Table 6") && err.contains("SYCL"), "{err}");
    }

    #[test]
    fn render_contains_headline() {
        let t = table_with(Model::Omp, [0.1; 6]);
        let agg = Table6::aggregate(&[t]);
        assert!(agg.render().contains("SYCL average improvement"));
    }
}
