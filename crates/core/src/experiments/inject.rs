//! The injection experiment engine behind Tables 3, 4 and 5 (and, by
//! aggregation, Tables 6 and 7).
//!
//! For each platform a table uses a set of worst-case *trace sources*:
//! configurations whose traced baseline runs supply the worst-case
//! execution the injector replays. Following the provenance the paper
//! gives in Table 7, ten configurations are used in total — six
//! collected on Intel, four on AMD, all but two from OpenMP runs.
//! Configuration "#k" in a row label names the k-th trace source of
//! that platform block.
//!
//! Per (row, mitigation) cell the engine reports the mean injected
//! execution time and its change relative to the same configuration's
//! un-injected baseline — exactly the two numbers per cell in the
//! paper's Tables 3-5.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::{suite, Scale};
use crate::harness::{run_baseline, run_injected};
use crate::platform::Platform;
use noiselab_injector::{generate, GeneratorOptions, InjectionConfig};
use noiselab_stats::{fmt_pct, fmt_secs, TextTable};
use noiselab_workloads::Workload;
use std::collections::BTreeMap;

/// A configuration whose traced runs supply a worst-case trace.
#[derive(Debug, Clone)]
pub struct TraceSource {
    /// Table-7-style label, e.g. `Rm-OMP`, `TPHK-SMT-OMP`.
    pub label: String,
    pub cfg: ExecConfig,
}

impl TraceSource {
    pub fn new(model: Model, mitigation: Mitigation, smt: bool) -> TraceSource {
        let mut cfg = ExecConfig::new(model, mitigation);
        if smt {
            cfg = cfg.with_smt();
        }
        // Paper-style label: mitigation[-SMT]-model.
        let mut label = mitigation.label().to_string();
        if smt {
            label.push_str("-SMT");
        }
        label.push('-');
        label.push_str(model.label());
        TraceSource { label, cfg }
    }
}

/// One row of a table: a model (+SMT) injected with trace `#trace+1`.
#[derive(Debug, Clone)]
pub struct RowSpec {
    pub model: Model,
    pub smt: bool,
    pub trace: usize,
}

impl RowSpec {
    pub fn label(&self) -> String {
        let mut s = self.model.label().to_string();
        if self.smt {
            s.push_str(" SMT");
        }
        s.push_str(&format!(" #{}", self.trace + 1));
        s
    }
}

/// The experiment plan for one platform block.
#[derive(Debug, Clone)]
pub struct PlatformSpec {
    pub platform: Platform,
    pub traces: Vec<TraceSource>,
    pub rows: Vec<RowSpec>,
}

/// Which workload the table evaluates (sized per platform by
/// [`suite`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    NBody,
    Babelstream,
    MiniFE,
}

impl WorkloadKind {
    fn instantiate(self, platform: &Platform) -> Box<dyn Workload + Sync> {
        match self {
            WorkloadKind::NBody => Box::new(suite::nbody_for(platform)),
            WorkloadKind::Babelstream => Box::new(suite::babelstream_for(platform)),
            WorkloadKind::MiniFE => Box::new(suite::minife_for(platform)),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::NBody => "N-body",
            WorkloadKind::Babelstream => "Babelstream",
            WorkloadKind::MiniFE => "MiniFE",
        }
    }
}

/// A full table plan.
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub title: String,
    pub workload: WorkloadKind,
    pub platforms: Vec<PlatformSpec>,
}

/// One cell: baseline vs injected means (seconds).
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub base_mean: f64,
    pub inj_mean: f64,
}

impl Cell {
    pub fn pct(&self) -> f64 {
        self.inj_mean / self.base_mean - 1.0
    }
}

#[derive(Debug, Clone)]
pub struct RowResult {
    pub label: String,
    pub model: Model,
    pub smt: bool,
    pub trace: usize,
    /// One cell per mitigation, in [`Mitigation::ALL`] order.
    pub cells: [Cell; 6],
}

#[derive(Debug, Clone)]
pub struct Block {
    pub platform: String,
    pub rows: Vec<RowResult>,
}

/// Accuracy sample for Table 7: the injected mean of the trace's source
/// configuration vs the anomaly execution time it replays.
#[derive(Debug, Clone)]
pub struct AccuracyRecord {
    pub workload: String,
    pub config_label: String,
    /// Signed replication error (`avg/anomaly - 1`).
    pub error: f64,
}

#[derive(Debug, Clone)]
pub struct InjectionTable {
    pub title: String,
    pub workload: WorkloadKind,
    pub blocks: Vec<Block>,
    pub accuracy: Vec<AccuracyRecord>,
    /// Runs across all stages that produced no measurement.
    pub failed_runs: usize,
}

impl InjectionTable {
    pub fn render(&self) -> String {
        let mut t =
            TextTable::new(&self.title).header(&["", "Rm", "RmHK", "RmHK2", "TP", "TPHK", "TPHK2"]);
        for block in &self.blocks {
            t.row(&[format!("--- {} ---", block.platform), String::new()]);
            for row in &block.rows {
                let mut means = vec![row.label.clone()];
                means.extend(row.cells.iter().map(|c| fmt_secs(c.inj_mean)));
                t.row(&means);
                let mut pcts = vec![String::new()];
                pcts.extend(row.cells.iter().map(|c| fmt_pct(c.pct())));
                t.row(&pcts);
            }
        }
        let mut out = t.render();
        if self.failed_runs > 0 {
            out.push_str(&format!(
                "note: {} run(s) failed and were excluded\n",
                self.failed_runs
            ));
        }
        out
    }

    /// All (model, mitigation, pct) samples, for the Table 6 summary.
    pub fn pct_samples(&self) -> Vec<(Model, Mitigation, f64)> {
        let mut out = Vec::new();
        for block in &self.blocks {
            for row in &block.rows {
                for (i, &mit) in Mitigation::ALL.iter().enumerate() {
                    out.push((row.model, mit, row.cells[i].pct()));
                }
            }
        }
        out
    }
}

/// Execute a table plan.
pub fn run_table(spec: &TableSpec, scale: Scale) -> InjectionTable {
    let mut blocks = Vec::new();
    let mut accuracy = Vec::new();
    // Cell: both the baseline closure and the row loop below add to it.
    let failed_runs = std::cell::Cell::new(0usize);

    for (pi, pspec) in spec.platforms.iter().enumerate() {
        let workload = spec.workload.instantiate(&pspec.platform);
        let boosted = scale.boost(&pspec.platform);

        // --- stage 1+2: trace collection and config generation ---------
        let mut configs: Vec<InjectionConfig> = Vec::new();
        for (ti, source) in pspec.traces.iter().enumerate() {
            let seed = 10_000 * (pi as u64 + 1) + 1_000 * ti as u64;
            let traced = run_baseline(
                &boosted,
                workload.as_ref(),
                &source.cfg,
                scale.traced_runs,
                seed,
                true,
            );
            let cfg = generate(
                format!(
                    "{}/{}/{}",
                    spec.workload.name(),
                    pspec.platform.label(),
                    source.label
                ),
                &traced.traces,
                &GeneratorOptions::default(),
            )
            .expect("trace collection cannot be empty");
            failed_runs.set(failed_runs.get() + traced.failures.len());
            configs.push(cfg);
        }

        // --- baselines (untraced), cached per configuration -------------
        let mut baselines: BTreeMap<String, [f64; 6]> = BTreeMap::new();
        let platform = &pspec.platform;
        let workload_ref: &(dyn Workload + Sync) = workload.as_ref();
        let mut baseline_for = |model: Model, smt: bool| {
            let key = format!("{model:?}/{smt}");
            if let Some(b) = baselines.get(&key) {
                return *b;
            }
            let mut means = [0.0; 6];
            for (i, &mit) in Mitigation::ALL.iter().enumerate() {
                let mut cfg = ExecConfig::new(model, mit);
                if smt {
                    cfg = cfg.with_smt();
                }
                let b = run_baseline(
                    platform,
                    workload_ref,
                    &cfg,
                    scale.baseline_runs,
                    50_000 + i as u64 * 500,
                    false,
                );
                failed_runs.set(failed_runs.get() + b.failures.len());
                means[i] = b.summary.mean;
            }
            baselines.insert(key, means);
            means
        };

        // --- injections per row ------------------------------------------
        let mut rows = Vec::new();
        for (ri, row) in pspec.rows.iter().enumerate() {
            let base = baseline_for(row.model, row.smt);
            let config = &configs[row.trace];
            let mut cells = [Cell {
                base_mean: 0.0,
                inj_mean: 0.0,
            }; 6];
            for (i, &mit) in Mitigation::ALL.iter().enumerate() {
                let mut cfg = ExecConfig::new(row.model, mit);
                if row.smt {
                    cfg = cfg.with_smt();
                }
                let inj = run_injected(
                    &pspec.platform,
                    workload.as_ref(),
                    &cfg,
                    config,
                    scale.inject_runs,
                    100_000 + 1_000 * ri as u64 + 50 * i as u64,
                );
                failed_runs.set(failed_runs.get() + inj.failures.len());
                cells[i] = Cell {
                    base_mean: base[i],
                    inj_mean: inj.summary.mean,
                };
            }
            rows.push(RowResult {
                label: row.label(),
                model: row.model,
                smt: row.smt,
                trace: row.trace,
                cells,
            });
        }

        // --- accuracy: each trace source evaluated on its own config ----
        for (ti, source) in pspec.traces.iter().enumerate() {
            // Find the row + cell matching the source configuration.
            let matching = rows
                .iter()
                .find(|r| r.model == source.cfg.model && r.smt == source.cfg.smt && r.trace == ti);
            if let Some(row) = matching {
                let mit_idx = Mitigation::ALL
                    .iter()
                    .position(|&m| m == source.cfg.mitigation)
                    .expect("Mitigation::ALL lists every mitigation");
                let anomaly = configs[ti].anomaly_exec.as_secs_f64();
                if anomaly > 0.0 {
                    accuracy.push(AccuracyRecord {
                        workload: spec.workload.name().to_string(),
                        config_label: source.label.clone(),
                        error: row.cells[mit_idx].inj_mean / anomaly - 1.0,
                    });
                }
            }
        }

        blocks.push(Block {
            platform: pspec.platform.label().to_string(),
            rows,
        });
    }

    InjectionTable {
        title: spec.title.clone(),
        workload: spec.workload,
        blocks,
        accuracy,
        failed_runs: failed_runs.get(),
    }
}

// ---------------------------------------------------------------------
// Table plans (trace provenance follows paper Table 7).
// ---------------------------------------------------------------------

/// Table 3: N-body under injection.
pub fn table3_spec() -> TableSpec {
    TableSpec {
        title: "Table 3: N-body — avg exec (s) and change vs baseline under injection".into(),
        workload: WorkloadKind::NBody,
        platforms: vec![
            PlatformSpec {
                platform: Platform::intel(),
                traces: vec![
                    TraceSource::new(Model::Omp, Mitigation::Rm, false),
                    TraceSource::new(Model::Omp, Mitigation::Tp, false),
                ],
                rows: vec![
                    RowSpec {
                        model: Model::Omp,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Omp,
                        smt: false,
                        trace: 1,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: false,
                        trace: 1,
                    },
                ],
            },
            PlatformSpec {
                platform: Platform::amd(),
                traces: vec![TraceSource::new(Model::Omp, Mitigation::Rm, true)],
                rows: vec![
                    RowSpec {
                        model: Model::Omp,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Omp,
                        smt: true,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: true,
                        trace: 0,
                    },
                ],
            },
        ],
    }
}

/// Table 4: Babelstream under injection.
pub fn table4_spec() -> TableSpec {
    TableSpec {
        title: "Table 4: Babelstream — avg exec (s) and change vs baseline under injection".into(),
        workload: WorkloadKind::Babelstream,
        platforms: vec![
            PlatformSpec {
                platform: Platform::intel(),
                traces: vec![
                    TraceSource::new(Model::Omp, Mitigation::Rm, false),
                    TraceSource::new(Model::Omp, Mitigation::Tp, false),
                ],
                rows: vec![
                    RowSpec {
                        model: Model::Omp,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Omp,
                        smt: false,
                        trace: 1,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: false,
                        trace: 1,
                    },
                ],
            },
            PlatformSpec {
                platform: Platform::amd(),
                traces: vec![TraceSource::new(Model::Sycl, Mitigation::Tp, false)],
                rows: vec![
                    RowSpec {
                        model: Model::Omp,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Omp,
                        smt: true,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: true,
                        trace: 0,
                    },
                ],
            },
        ],
    }
}

/// Table 5: MiniFE under injection.
pub fn table5_spec() -> TableSpec {
    TableSpec {
        title: "Table 5: MiniFE — avg exec (s) and change vs baseline under injection".into(),
        workload: WorkloadKind::MiniFE,
        platforms: vec![
            PlatformSpec {
                platform: Platform::intel(),
                traces: vec![
                    TraceSource::new(Model::Omp, Mitigation::Rm, false),
                    TraceSource::new(Model::Omp, Mitigation::TpHK2, false),
                ],
                rows: vec![
                    RowSpec {
                        model: Model::Omp,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Omp,
                        smt: false,
                        trace: 1,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: false,
                        trace: 1,
                    },
                ],
            },
            PlatformSpec {
                platform: Platform::amd(),
                traces: vec![
                    TraceSource::new(Model::Omp, Mitigation::TpHK, true),
                    TraceSource::new(Model::Sycl, Mitigation::RmHK2, false),
                ],
                rows: vec![
                    RowSpec {
                        model: Model::Omp,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Omp,
                        smt: true,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: false,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: true,
                        trace: 0,
                    },
                    RowSpec {
                        model: Model::Omp,
                        smt: false,
                        trace: 1,
                    },
                    RowSpec {
                        model: Model::Omp,
                        smt: true,
                        trace: 1,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: false,
                        trace: 1,
                    },
                    RowSpec {
                        model: Model::Sycl,
                        smt: true,
                        trace: 1,
                    },
                ],
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_paper_row_structure() {
        let t3 = table3_spec();
        assert_eq!(t3.platforms[0].rows.len(), 4);
        assert_eq!(t3.platforms[1].rows.len(), 4);
        assert_eq!(t3.platforms[1].rows[1].label(), "OMP SMT #1");

        let t5 = table5_spec();
        assert_eq!(t5.platforms[1].rows.len(), 8);
        // Ten trace sources across the three tables: 6 Intel, 4 AMD.
        let count = |spec: &TableSpec, idx: usize| spec.platforms[idx].traces.len();
        let intel = count(&t3, 0) + count(&table4_spec(), 0) + count(&t5, 0);
        let amd = count(&t3, 1) + count(&table4_spec(), 1) + count(&t5, 1);
        assert_eq!(intel, 6);
        assert_eq!(amd, 4);
        // All but two sources are OpenMP.
        let all_specs = [table3_spec(), table4_spec(), table5_spec()];
        let sycl_sources: usize = all_specs
            .iter()
            .flat_map(|s| s.platforms.iter())
            .flat_map(|p| p.traces.iter())
            .filter(|t| t.cfg.model == Model::Sycl)
            .count();
        assert_eq!(sycl_sources, 2);
    }

    #[test]
    fn trace_source_labels() {
        assert_eq!(
            TraceSource::new(Model::Omp, Mitigation::Rm, true).label,
            "Rm-SMT-OMP"
        );
        assert_eq!(
            TraceSource::new(Model::Sycl, Mitigation::TpHK2, false).label,
            "TPHK2-SYCL"
        );
    }

    #[test]
    fn cell_pct() {
        let c = Cell {
            base_mean: 1.0,
            inj_mean: 1.25,
        };
        assert!((c.pct() - 0.25).abs() < 1e-12);
    }
}
