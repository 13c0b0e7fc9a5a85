//! Table 7: absolute replication accuracy of the noise injector for
//! each of the ten worst-case traces, computed from the accuracy
//! records of the Tables 3-5 runs.

use crate::experiments::inject::{AccuracyRecord, InjectionTable};
use noiselab_stats::TextTable;

#[derive(Debug, Clone)]
pub struct Table7 {
    pub records: Vec<AccuracyRecord>,
}

impl Table7 {
    pub fn from_tables<'a>(tables: impl IntoIterator<Item = &'a InjectionTable>) -> Table7 {
        Table7 {
            records: tables
                .into_iter()
                .flat_map(|t| t.accuracy.iter().cloned())
                .collect(),
        }
    }

    /// The paper's shape: ten worst-case traces.
    pub fn check_shape(&self) -> Result<(), String> {
        match self.records.len() {
            10 => Ok(()),
            n => Err(format!(
                "Table 7: {n} worst-case traces, expected 10 (the paper uses ten)"
            )),
        }
    }

    /// Mean absolute accuracy (the paper reports 8.57 %).
    pub fn mean_abs(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.error.abs()).sum::<f64>() / self.records.len() as f64
    }

    pub fn render(&self) -> String {
        let mut t = TextTable::new("Table 7: absolute accuracy of noise injection per trace")
            .header(&["Benchmark", "Config", "Accuracy"]);
        for r in &self.records {
            let sign = if r.error < 0.0 { "(-)" } else { "" };
            t.row(&[
                r.workload.to_string(),
                r.config_label.clone(),
                format!("{sign}{:.2}%", r.error.abs() * 100.0),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "Average absolute accuracy: {:.2}% (paper: 8.57%)\n",
            self.mean_abs() * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_abs_uses_absolute_values() {
        let t = Table7 {
            records: vec![
                AccuracyRecord {
                    workload: "N-body".into(),
                    config_label: "Rm-OMP".into(),
                    error: 0.04,
                },
                AccuracyRecord {
                    workload: "Babelstream".into(),
                    config_label: "TP-OMP".into(),
                    error: -0.16,
                },
            ],
        };
        assert!((t.mean_abs() - 0.10).abs() < 1e-12);
        let s = t.render();
        assert!(s.contains("(-)16.00%"));
        assert!(s.contains("4.00%"));
    }

    #[test]
    fn empty_records_render() {
        let t = Table7 { records: vec![] };
        assert_eq!(t.mean_abs(), 0.0);
        assert!(t.render().contains("Average absolute accuracy"));
    }

    #[test]
    fn shape_needs_ten_traces() {
        let record = AccuracyRecord {
            workload: "N-body".into(),
            config_label: "Rm-OMP".into(),
            error: 0.04,
        };
        let t = Table7 {
            records: vec![record; 10],
        };
        assert_eq!(t.check_shape(), Ok(()));
        let err = Table7 { records: vec![] }.check_shape().unwrap_err();
        assert!(err.contains("Table 7") && err.contains("10"), "{err}");
    }
}
