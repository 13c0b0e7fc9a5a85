//! Per-table experiment definitions (the evaluation section of the
//! paper). Each submodule's builder returns a section's
//! [`plan::Plan`] with its reduction, a closure over the handles the
//! builder kept. [`report`] looks every section up in one table,
//! `SECTIONS`, runs the plans, then renders each result with its
//! shape check.

/// A reduced result's [`Section`]: what it prints and its shape check.
macro_rules! checked {
    ($result:expr) => {{
        let r = $result;
        (r.render(), r.check_shape())
    }};
}

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
use inject::{InjectionTable, TableSpec};
use plan::{run_plans, Outcome, Plan, Reduce};
use table6::Table6;
use table7::Table7;

/// One printed section: the rendered result and its shape check
/// (Tables 2-5 claim no shape of their own).
pub type Section = (String, Result<(), String>);

/// How [`report`] makes a section.
enum Make {
    /// From a plan of its own, which the builder returns with its
    /// reduction.
    Plan(fn(Scale) -> (Plan, Reduce<Section>)),
    /// Table 3, 4 or 5, which Tables 6 and 7 also read.
    Table(fn() -> TableSpec),
    /// Table 6 or 7: Tables 3-5 are planned for it, and only it prints.
    Aggregate(fn(&[InjectionTable]) -> Section),
}

/// Every `noiselab report --what` section but `all`, in the order
/// `all` prints them.
const SECTIONS: [(&str, Make); 14] = [
    ("table1", Make::Plan(table1::build)),
    ("table2", Make::Plan(table2::build)),
    ("table3", Make::Table(inject::table3_spec)),
    ("table4", Make::Table(inject::table4_spec)),
    ("table5", Make::Table(inject::table5_spec)),
    (
        "table6",
        Make::Aggregate(|t| checked!(Table6::aggregate(t))),
    ),
    (
        "table7",
        Make::Aggregate(|t| checked!(Table7::from_tables(t))),
    ),
    ("fig1", Make::Plan(fig1::build)),
    ("fig2", Make::Plan(fig2::build)),
    ("merge", Make::Plan(ablation::merge)),
    ("memory", Make::Plan(ablation::memory)),
    ("runlevel3", Make::Plan(runlevel::build)),
    ("numa", Make::Plan(numa::build)),
    (
        "fwq",
        Make::Plan(|_| (Plan::default(), Box::new(|_| checked!(fwq::run())))),
    ),
];

/// Every `--what` value: each section, then `all`.
pub fn names() -> impl Iterator<Item = &'static str> {
    SECTIONS.iter().map(|(name, _)| *name).chain(["all"])
}

/// What one planned outcome becomes: a printed section, if any, after
/// adding any Table 3-5 to the tables the aggregates read.
type Step = Box<dyn FnOnce(&Outcome, &mut Vec<InjectionTable>) -> Option<Section>>;

/// The plans the sections `what` asks for need, each once, in
/// [`SECTIONS`] order, and what each outcome becomes. An aggregate's
/// plan is empty.
fn plans(what: &str, scale: Scale) -> (Vec<(&'static str, Plan)>, Vec<Step>) {
    let asked = |name: &str| what == "all" || name == what;
    let aggregated = SECTIONS
        .iter()
        .any(|(name, make)| asked(name) && matches!(make, Make::Aggregate(_)));
    let (mut plans, mut steps) = (Vec::new(), Vec::new());
    for (name, make) in &SECTIONS {
        let print = asked(name);
        let (plan, step): (Plan, Step) = match *make {
            Make::Plan(build) if print => {
                let (plan, reduce) = build(scale);
                (plan, Box::new(|out, _| Some(reduce(out))))
            }
            Make::Table(spec) if print || aggregated => {
                let (plan, reduce) = spec().build(scale);
                let step = move |out: &Outcome, tables: &mut Vec<InjectionTable>| {
                    let table = reduce(out);
                    let section = print.then(|| (table.render(), Ok(())));
                    tables.push(table);
                    section
                };
                (plan, Box::new(step))
            }
            Make::Aggregate(aggregate) if print => {
                (Plan::default(), Box::new(move |_, t| Some(aggregate(t))))
            }
            _ => continue,
        };
        plans.push((*name, plan));
        steps.push(step);
    }
    (plans, steps)
}

/// Regenerate the sections `what` asks for at `scale`, in `SECTIONS`
/// order: run every plan they need, then reduce and render each. An
/// error names the section, workload and config of a set whose every
/// run failed.
pub fn report(what: &str, scale: Scale) -> Result<Vec<Section>, String> {
    let (plans, steps) = plans(what, scale);
    let outcomes = run_plans(&plans)?;
    let mut tables = Vec::new();
    let sections = steps.into_iter().zip(&outcomes);
    Ok(sections
        .filter_map(|(step, out)| step(out, &mut tables))
        .collect())
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

    /// Runs over every set of `plan`, collections included.
    fn runs(plan: &Plan) -> usize {
        let traced = plan.collections.iter().map(|c| c.set.runs);
        traced.chain(plan.sets.iter().map(|s| s.runs)).sum()
    }

    /// The sections whose plans `what` runs, in plan order.
    fn planned(what: &str) -> Vec<&'static str> {
        let (plans, _) = plans(what, Scale::smoke());
        let running = plans.into_iter().filter(|(_, p)| runs(p) > 0);
        running.map(|(section, _)| section).collect()
    }

    /// Each plan holds the sets and runs its section's loops have always
    /// run, at smoke scale (10 traced, 8 baseline and 5 injection runs
    /// per set). Nothing runs.
    #[test]
    fn plans_hold_every_sections_sets_and_runs() {
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
        let counts = |p: &Plan| {
            let inj = p.sets.iter().filter(|s| s.inject.is_some()).count();
            (p.collections.len(), p.sets.len() - inj, inj, runs(p))
        };
        for (section, collections, plain, injected, runs) in want {
            let (plans, _) = plans(section, Scale::smoke());
            assert_eq!(plans.len(), 1, "{section}");
            let got = counts(&plans[0].1);
            assert_eq!(got, (collections, plain, injected, runs), "{section}");
        }
        // Tables 3-5, which Tables 6 and 7 plan: 10 traced, 108 baseline
        // and 168 injection sets.
        for aggregate in ["table6", "table7"] {
            let (plans, _) = plans(aggregate, Scale::smoke());
            let (mut traced, mut baseline, mut injection) = (0, 0, 0);
            for (_, plan) in &plans {
                let (c, b, i, _) = counts(plan);
                (traced, baseline, injection) = (traced + c, baseline + b, injection + i);
            }
            assert_eq!((traced, baseline, injection), (10, 108, 168));
        }
        // `all`: 11 collections, one pool each, then one pool for the
        // other 412 sets.
        let (plans, steps) = plans("all", Scale::smoke());
        assert_eq!(steps.len(), SECTIONS.len());
        let traced: usize = plans.iter().map(|(_, p)| p.collections.len()).sum();
        let sets: usize = plans.iter().map(|(_, p)| p.sets.len()).sum();
        assert_eq!((traced, sets), (11, 412));

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
