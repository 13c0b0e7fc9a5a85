//! Per-table experiment definitions (the evaluation section of the
//! paper). Each submodule regenerates one table or figure as a
//! [`plan::Plan`] and a pure reduction of its ledgers; [`report`] runs
//! the plans, then renders each result with its shape check.

pub mod ablation;
pub mod fig1;
pub mod fig2;
pub mod fwq;
pub mod inject;
pub mod numa;
pub mod plan;
pub mod runlevel;
pub mod suite;
pub mod table1;
pub mod table2;
pub mod table6;
pub mod table7;

use crate::platform::Platform;
use inject::InjectionTable;
use plan::{run_plans, Outcome, Plan};
use std::collections::BTreeMap;

/// Every `noiselab report --what` section but `all`, in the order
/// `all` prints them.
pub const SECTIONS: &str =
    "table1|table2|table3|table4|table5|table6|table7|fig1|fig2|merge|memory|runlevel3|numa|fwq";

/// The sections `what` asks for: one of [`SECTIONS`], or all of them.
fn asked(what: &str) -> impl Iterator<Item = &'static str> + '_ {
    SECTIONS
        .split('|')
        .filter(move |&s| what == "all" || s == what)
}

/// The sections whose plans `what` runs, each once, in plan order:
/// `table6` and `table7` aggregate Tables 3-5, and `fwq` runs no set.
pub fn planned(what: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    for section in asked(what) {
        let needs = match section {
            "table6" | "table7" => vec!["table3", "table4", "table5"],
            "fwq" => vec![],
            one => vec![one],
        };
        for n in needs {
            if !out.contains(&n) {
                out.push(n);
            }
        }
    }
    out
}

/// The spec of Table 3, 4 or 5.
fn table_spec(section: &str) -> Option<inject::TableSpec> {
    let spec = match section {
        "table3" => inject::table3_spec,
        "table4" => inject::table4_spec,
        "table5" => inject::table5_spec,
        _ => return None,
    };
    Some(spec())
}

/// The plan of a section [`planned`] names.
pub fn plan(section: &str, scale: Scale) -> Plan {
    match section {
        "table1" => table1::plan(scale),
        "table2" => table2::plan(scale),
        "fig1" => fig1::plan(scale),
        "fig2" => fig2::plan(scale),
        "merge" => ablation::merge_plan(scale),
        "memory" => ablation::memory_plan(scale),
        "runlevel3" => runlevel::plan(scale),
        "numa" => numa::plan(scale.baseline_runs),
        table => table_spec(table)
            .unwrap_or_else(|| unreachable!("'{table}' has no plan"))
            .plan(scale),
    }
}

/// One printed section: the rendered result and its shape check
/// (Tables 2-5 claim no shape of their own).
pub type Section = (String, Result<(), String>);

/// Regenerate the sections `what` asks for at `scale`, in [`SECTIONS`]
/// order: run every plan they need, then reduce and render each. An
/// error names the section, workload and config of a set whose every
/// run failed.
pub fn report(what: &str, scale: Scale) -> Result<Vec<Section>, String> {
    let plans: Vec<(&str, Plan)> = planned(what)
        .into_iter()
        .map(|s| (s, plan(s, scale)))
        .collect();
    let outcomes = run_plans(&plans)?;
    let ran: BTreeMap<&str, (Plan, Outcome)> = plans
        .into_iter()
        .zip(outcomes)
        .map(|((s, plan), out)| (s, (plan, out)))
        .collect();
    // Tables 3-5 reduce once, for their own sections and both aggregates.
    let tables: BTreeMap<&str, InjectionTable> = ran
        .iter()
        .filter_map(|(&s, (_, out))| table_spec(s).map(|spec| (s, spec.reduce(out))))
        .collect();

    macro_rules! checked {
        ($result:expr) => {{
            let r = $result;
            (r.render(), r.check_shape())
        }};
    }
    let section = |name: &str| -> Section {
        let Some((plan, out)) = ran.get(name) else {
            return match name {
                "table6" => checked!(table6::Table6::aggregate(tables.values())),
                "table7" => checked!(table7::Table7::from_tables(tables.values())),
                _ => checked!(fwq::run()),
            };
        };
        match name {
            "table1" => checked!(table1::reduce(plan, out)),
            "table2" => (table2::reduce(plan, out).render(), Ok(())),
            "fig1" => checked!(fig1::reduce(out)),
            "fig2" => checked!(fig2::reduce(out)),
            "merge" => checked!(ablation::merge_reduce(out)),
            "memory" => checked!(ablation::memory_reduce(out)),
            "runlevel3" => checked!(runlevel::reduce(out)),
            "numa" => checked!(numa::reduce(plan, out)),
            _ => (tables[name].render(), Ok(())),
        }
    };
    Ok(asked(what).map(section).collect())
}

/// Replication counts. The paper uses 1000 baseline and 200 injection
/// repetitions; on a single-CPU simulation host the default bench scale
/// trades statistical resolution for runtime while keeping the pipeline
/// identical. `noiselab report --scale smoke|bench|paper` selects one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Traced baseline runs per trace collection (paper: 1000).
    pub traced_runs: usize,
    /// Untraced baseline runs per configuration cell (paper: 1000).
    pub baseline_runs: usize,
    /// Injection runs per cell (paper: 200).
    pub inject_runs: usize,
    /// Multiplier on the natural anomaly probability, so small trace
    /// collections still contain a worst-case outlier (the paper's 1000
    /// runs catch anomalies at natural rates).
    pub anomaly_boost: f64,
}

impl Scale {
    /// Minimal scale for integration tests.
    pub fn smoke() -> Scale {
        Scale {
            traced_runs: 10,
            baseline_runs: 8,
            inject_runs: 5,
            anomaly_boost: 30.0,
        }
    }

    /// Default scale for `noiselab report`.
    pub fn bench() -> Scale {
        Scale {
            traced_runs: 30,
            baseline_runs: 20,
            inject_runs: 12,
            anomaly_boost: 10.0,
        }
    }

    /// The paper's replication counts.
    pub fn paper() -> Scale {
        Scale {
            traced_runs: 1000,
            baseline_runs: 1000,
            inject_runs: 200,
            anomaly_boost: 1.0,
        }
    }

    /// Apply the anomaly boost to a platform's noise profile.
    pub fn boost(&self, platform: &Platform) -> Platform {
        let mut p = platform.clone();
        p.noise.anomaly_prob = (p.noise.anomaly_prob * self.anomaly_boost).min(0.5);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each plan holds the sets and runs its section's loops have always
    /// run, at smoke scale (10 traced, 8 baseline and 5 injection runs
    /// per set). Nothing runs.
    #[test]
    fn plans_hold_every_sections_sets_and_runs() {
        let smoke = Scale::smoke();
        // (section, collections, plain sets, injection sets, runs).
        // Tables 3-5: a baseline set per mitigation for each (model, SMT)
        // pair of a block's rows (Intel: OMP, SYCL; AMD: both with SMT
        // off and on), an injection set per mitigation for each row.
        let want = [
            ("table1", 0, 3 * 2, 0, 6 * 8),
            ("table2", 0, 2 * 3 * 6 * 2, 0, 72 * 8),
            (
                "table3",
                2 + 1,
                (2 + 4) * 6,
                (4 + 4) * 6,
                3 * 10 + 36 * 8 + 48 * 5,
            ),
            (
                "table4",
                2 + 1,
                (2 + 4) * 6,
                (4 + 4) * 6,
                3 * 10 + 36 * 8 + 48 * 5,
            ),
            (
                "table5",
                2 + 2,
                (2 + 4) * 6,
                (4 + 8) * 6,
                4 * 10 + 36 * 8 + 72 * 5,
            ),
            ("fig1", 0, 2 * 9, 0, 18 * 8),
            ("fig2", 0, 2 * 5, 0, 10 * 8),
            ("merge", 1, 0, 2 * 6, 10 + 12 * 5),
            ("memory", 0, 2 * 2, 0, 4 * 5),
            ("runlevel3", 0, 6 * 2, 0, 12 * 8),
            ("numa", 0, 2, 0, 2 * 8),
        ];
        let (mut traced, mut sets) = (0, 0);
        for (section, collections, plain, injected, runs) in want {
            let p = plan(section, smoke);
            let inj = p.sets.iter().filter(|s| s.inject.is_some()).count();
            let got = (p.collections.len(), p.sets.len() - inj, inj, p.runs());
            assert_eq!(got, (collections, plain, injected, runs), "{section}");
            traced += collections;
            sets += collections + p.sets.len();
        }
        // Tables 3-5: 10 traced, 108 baseline and 168 injection sets.
        let tables = ["table3", "table4", "table5"].map(|s| plan(s, smoke));
        let count = |f: fn(&Plan) -> usize| tables.iter().map(f).sum::<usize>();
        let injection = count(|p| p.sets.iter().filter(|s| s.inject.is_some()).count());
        let baseline = count(|p| p.sets.len()) - injection;
        assert_eq!(
            (count(|p| p.collections.len()), baseline, injection),
            (10, 108, 168)
        );
        // `all`: 11 collections, one pool each, then one pool for the
        // other 412 sets.
        assert_eq!((traced, sets), (11, 423));

        let all: Vec<&str> = want.iter().map(|w| w.0).collect();
        assert_eq!(planned("all"), all);
        for aggregate in ["table6", "table7"] {
            assert_eq!(planned(aggregate), ["table3", "table4", "table5"]);
        }
        assert_eq!(planned("table4"), ["table4"]);
        assert!(planned("fwq").is_empty());
    }

    #[test]
    fn boost_caps_probability() {
        let s = Scale {
            anomaly_boost: 1000.0,
            ..Scale::smoke()
        };
        let p = s.boost(&Platform::intel());
        assert!(p.noise.anomaly_prob <= 0.5);
    }

    #[test]
    fn paper_scale_matches_paper() {
        let p = Scale::paper();
        assert_eq!(p.traced_runs, 1000);
        assert_eq!(p.inject_runs, 200);
        assert_eq!(p.anomaly_boost, 1.0);
    }
}
