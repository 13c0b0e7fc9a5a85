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
use crate::experiments::plan::{Outcome, Plan, Reduce, RunSet};
use crate::experiments::{suite, Scale};
use crate::platform::Platform;
use noiselab_injector::MergeStrategy;
use noiselab_stats::{fmt_pct, fmt_secs, TextTable};
use noiselab_workloads::Workload;
use std::rc::Rc;

/// A configuration whose traced runs supply a worst-case trace.
#[derive(Debug, Clone)]
pub struct TraceSource {
    /// Table-7-style label, e.g. `Rm-OMP`, `TPHK-SMT-OMP`.
    pub label: String,
    pub cfg: ExecConfig,
}

impl TraceSource {
    pub fn new(model: Model, mitigation: Mitigation, smt: bool) -> TraceSource {
        // Paper-style label: mitigation[-SMT]-model.
        let mut label = mitigation.label().to_string();
        if smt {
            label.push_str("-SMT");
        }
        label.push('-');
        label.push_str(model.label());
        let cfg = ExecConfig {
            smt,
            ..ExecConfig::new(model, mitigation)
        };
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

impl PlatformSpec {
    /// The (model, SMT) pairs the rows use, in order of first use; each
    /// has one untraced baseline set per mitigation.
    fn baselines(&self) -> Vec<(Model, bool)> {
        let mut keys = Vec::new();
        for row in &self.rows {
            if !keys.contains(&(row.model, row.smt)) {
                keys.push((row.model, row.smt));
            }
        }
        keys
    }
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
    fn instantiate(self, platform: &Platform) -> Rc<dyn Workload + Sync> {
        let [nbody, babelstream, minife] = suite::paper_workloads(platform);
        match self {
            WorkloadKind::NBody => nbody,
            WorkloadKind::Babelstream => babelstream,
            WorkloadKind::MiniFE => minife,
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

impl TableSpec {
    /// The table's plan and reduction. Its collections are every
    /// block's trace sources, traced on the anomaly-boosted platform;
    /// each generates one config. Its sets are, per block, the
    /// baselines of `PlatformSpec::baselines`, then each row's
    /// injections, one set per mitigation each. The reduction sets each
    /// cell's injected mean against its baseline mean, and measures each
    /// trace's replication accuracy on its own source configuration.
    pub fn build(self, scale: Scale) -> (Plan, Reduce<InjectionTable>) {
        let mut plan = Plan::default();
        let mut blocks = Vec::new();
        for (pi, block) in self.platforms.into_iter().enumerate() {
            let workload = self.workload.instantiate(&block.platform);
            let platform = Rc::new(block.platform.clone());
            let boosted = Rc::new(scale.boost(&block.platform));
            let keys = block.baselines();
            let mut traces = Vec::new();
            for (ti, source) in block.traces.into_iter().enumerate() {
                let seed = 10_000 * (pi as u64 + 1) + 1_000 * ti as u64;
                let cfg = source.cfg.clone();
                let set = RunSet::new(&boosted, &workload, cfg, seed, scale.traced_runs);
                let (table, label) = (self.workload.name(), block.platform.label());
                let name = format!("{table}/{label}/{}", source.label);
                let [config] = plan.collection(name, set, [MergeStrategy::Improved]);
                traces.push((source, config));
            }
            // A set per mitigation, seeded `seed`, `seed + step`, ...
            let mut sets = |(model, smt), seed: u64, step: u64, runs, inject| {
                Mitigation::ALL.map(|mit| {
                    let mut cfg = ExecConfig::new(model, mit);
                    cfg.smt = smt;
                    let seed = seed + step * mit.index() as u64;
                    let set = RunSet::new(&platform, &workload, cfg, seed, runs);
                    plan.set(RunSet { inject, ..set })
                })
            };
            let baselines: Vec<_> = keys
                .into_iter()
                .map(|key| (key, sets(key, 50_000, 500, scale.baseline_runs, None)))
                .collect();
            let mut rows = Vec::new();
            for (ri, row) in block.rows.into_iter().enumerate() {
                let key = (row.model, row.smt);
                let base = baselines.iter().find(|(k, _)| *k == key);
                let base = base.expect("every row's pair has baselines").1;
                let seed = 100_000 + 1_000 * ri as u64;
                let inject = Some(traces[row.trace].1);
                rows.push((row, base, sets(key, seed, 50, scale.inject_runs, inject)));
            }
            blocks.push((block.platform.label().to_string(), traces, rows));
        }
        let (title, workload) = (self.title, self.workload);
        let reduce = move |out: &Outcome| {
            let mean = |set| out.summary(set).mean;
            let mut accuracy = Vec::new();
            let blocks = blocks.into_iter().map(|(platform, traces, rows)| {
                let rows: Vec<RowResult> = (rows.into_iter())
                    .map(|(row, base, inj)| RowResult {
                        label: row.label(),
                        model: row.model,
                        smt: row.smt,
                        trace: row.trace,
                        cells: std::array::from_fn(|i| Cell {
                            base_mean: mean(base[i]),
                            inj_mean: mean(inj[i]),
                        }),
                    })
                    .collect();
                for (ti, (source, config)) in traces.into_iter().enumerate() {
                    let cfg = &source.cfg;
                    let matching = rows
                        .iter()
                        .find(|r| r.model == cfg.model && r.smt == cfg.smt && r.trace == ti);
                    let anomaly = out.config(config).anomaly_exec.as_secs_f64();
                    if let Some(row) = matching.filter(|_| anomaly > 0.0) {
                        accuracy.push(AccuracyRecord {
                            workload: workload.name().to_string(),
                            config_label: source.label,
                            error: row.cells[cfg.mitigation.index()].inj_mean / anomaly - 1.0,
                        });
                    }
                }
                Block { platform, rows }
            });
            InjectionTable {
                title,
                workload,
                blocks: blocks.collect(),
                accuracy,
                failed_runs: out.failed(),
            }
        };
        (plan, Box::new(reduce))
    }
}

// ---------------------------------------------------------------------
// Table plans (trace provenance follows paper Table 7).
// ---------------------------------------------------------------------

/// Trace sources `(model, mitigation, SMT)`.
type Sources<'a> = &'a [(Model, Mitigation, bool)];

impl TableSpec {
    /// A table of an Intel block and an AMD block, each tracing its
    /// sources. Each trace is injected into OMP then SYCL, on AMD each
    /// with SMT off then on.
    fn new(title: &str, workload: WorkloadKind, intel: Sources, amd: Sources) -> TableSpec {
        let block = |platform: Platform, sources: Sources, smts: &[bool]| {
            let traces: Vec<TraceSource> = sources
                .iter()
                .map(|&(model, mit, smt)| TraceSource::new(model, mit, smt))
                .collect();
            let mut rows = Vec::new();
            for trace in 0..traces.len() {
                for model in [Model::Omp, Model::Sycl] {
                    for &smt in smts {
                        rows.push(RowSpec { model, smt, trace });
                    }
                }
            }
            PlatformSpec {
                platform,
                traces,
                rows,
            }
        };
        TableSpec {
            title: title.into(),
            workload,
            platforms: vec![
                block(Platform::intel(), intel, &[false]),
                block(Platform::amd(), amd, &[false, true]),
            ],
        }
    }
}

/// Table 3: N-body under injection.
pub fn table3_spec() -> TableSpec {
    TableSpec::new(
        "Table 3: N-body — avg exec (s) and change vs baseline under injection",
        WorkloadKind::NBody,
        &[
            (Model::Omp, Mitigation::Rm, false),
            (Model::Omp, Mitigation::Tp, false),
        ],
        &[(Model::Omp, Mitigation::Rm, true)],
    )
}

/// Table 4: Babelstream under injection.
pub fn table4_spec() -> TableSpec {
    TableSpec::new(
        "Table 4: Babelstream — avg exec (s) and change vs baseline under injection",
        WorkloadKind::Babelstream,
        &[
            (Model::Omp, Mitigation::Rm, false),
            (Model::Omp, Mitigation::Tp, false),
        ],
        &[(Model::Sycl, Mitigation::Tp, false)],
    )
}

/// Table 5: MiniFE under injection.
pub fn table5_spec() -> TableSpec {
    TableSpec::new(
        "Table 5: MiniFE — avg exec (s) and change vs baseline under injection",
        WorkloadKind::MiniFE,
        &[
            (Model::Omp, Mitigation::Rm, false),
            (Model::Omp, Mitigation::TpHK2, false),
        ],
        &[
            (Model::Omp, Mitigation::TpHK, true),
            (Model::Sycl, Mitigation::RmHK2, false),
        ],
    )
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
