//! Evaluation plans: every `noiselab report` section as data. A
//! section's builder adds its traced [`Collection`]s and [`RunSet`]s
//! (each an owned [`RunSpec`] plus a run count) to a [`Plan`] and keeps
//! the handles they return; its [`Reduce`] closure reads the
//! [`Outcome`] through them. [`run_plans`] runs each collection in a
//! pool of its own and reduces it to injection configs before the next
//! starts, so one collection's traces are alive at a time; then one
//! [`run_batch`] pool runs every other set of every plan.

use crate::execconfig::ExecConfig;
use crate::failure::RetryPolicy;
use crate::harness::{measured, run_batch, Baseline, RunLedger, RunSpec};
use crate::platform::Platform;
use noiselab_injector::{generate, GeneratorOptions, InjectionConfig, MergeStrategy};
use noiselab_stats::Summary;
use noiselab_workloads::Workload;
use std::rc::Rc;

/// A run set's handle: where its ledger sits in its plan's outcome.
#[derive(Debug, Clone, Copy)]
pub struct SetId(usize);

/// An injection config's handle: where it sits in its plan's outcome.
#[derive(Debug, Clone, Copy)]
pub struct ConfigId(usize);

/// One run set: what a [`RunSpec`] borrows, owned, plus its run count.
/// It runs seeds `seed..seed + runs`.
#[derive(Clone)]
pub struct RunSet {
    pub platform: Rc<Platform>,
    pub workload: Rc<dyn Workload + Sync>,
    pub cfg: ExecConfig,
    pub seed: u64,
    pub runs: usize,
    pub tracing: bool,
    /// Replay this config, which a collection of the same plan
    /// generates.
    pub inject: Option<ConfigId>,
}

impl RunSet {
    /// An untraced, uninjected set.
    pub fn new(
        platform: &Rc<Platform>,
        workload: &Rc<dyn Workload + Sync>,
        cfg: ExecConfig,
        seed: u64,
        runs: usize,
    ) -> RunSet {
        RunSet {
            platform: Rc::clone(platform),
            workload: Rc::clone(workload),
            cfg,
            seed,
            runs,
            tracing: false,
            inject: None,
        }
    }

    fn spec<'a>(&'a self, configs: &'a [InjectionConfig]) -> RunSpec<'a> {
        RunSpec {
            tracing: self.tracing,
            inject: self.inject.map(|c| &configs[c.0]),
            ..RunSpec::new(&self.platform, self.workload.as_ref(), &self.cfg, self.seed)
        }
    }
}

/// A traced collection: a traced set whose traces, named `name`,
/// generate one injection config per merge strategy.
pub struct Collection {
    name: String,
    pub(super) set: RunSet,
    merges: Vec<MergeStrategy>,
}

/// A section's run sets: its collections, then its other sets.
#[derive(Default)]
pub struct Plan {
    pub(super) collections: Vec<Collection>,
    pub(super) sets: Vec<RunSet>,
}

impl Plan {
    /// Add `set`; its handle reads its ledger.
    pub fn set(&mut self, set: RunSet) -> SetId {
        self.sets.push(set);
        SetId(self.sets.len() - 1)
    }

    /// Add a traced collection of `set`, its traces named `name`: one
    /// config per merge strategy, whose handles come back in order.
    pub fn collection<const N: usize>(
        &mut self,
        name: String,
        mut set: RunSet,
        merges: [MergeStrategy; N],
    ) -> [ConfigId; N] {
        let first: usize = self.collections.iter().map(|c| c.merges.len()).sum();
        set.tracing = true;
        let merges = merges.to_vec();
        self.collections.push(Collection { name, set, merges });
        std::array::from_fn(|k| ConfigId(first + k))
    }
}

/// A section's reduction of its plan's outcome, reading it through the
/// handles its builder kept.
pub type Reduce<T> = Box<dyn FnOnce(&Outcome) -> T>;

/// What a plan's runs hand its reduction.
pub struct Outcome {
    /// One config per collection and merge strategy, in plan order.
    configs: Vec<InjectionConfig>,
    /// Traced runs that produced no measurement.
    traced_failed: usize,
    /// One ledger per set, in plan order; each holds a measurement.
    ledgers: Vec<RunLedger>,
}

impl Outcome {
    /// A set's ledger.
    pub fn ledger(&self, set: SetId) -> &RunLedger {
        &self.ledgers[set.0]
    }

    /// Summary of a set's successful runs.
    pub fn summary(&self, set: SetId) -> Summary {
        Summary::of(&self.ledger(set).samples())
    }

    /// A config a collection generated.
    pub fn config(&self, config: ConfigId) -> &InjectionConfig {
        &self.configs[config.0]
    }

    /// Runs of the whole plan that produced no measurement.
    pub fn failed(&self) -> usize {
        let failed = self.ledgers.iter().map(RunLedger::failed_count);
        self.traced_failed + failed.sum::<usize>()
    }
}

/// The one check every ledger passes before a reduction reads it. Each
/// failed run is named on stderr and excluded; a set left with no
/// measurement is an error naming its section, workload and config.
fn check(section: &str, spec: &RunSpec, ledger: &RunLedger) -> Result<(), String> {
    for (seed, cause) in ledger.failures() {
        eprintln!("{section}: run seed {seed} failed ({cause}); excluded");
    }
    measured(section, spec, ledger)
}

/// Run `plans`, each named by its section, in two phases: every
/// collection in a pool of its own, then every other set of every plan
/// in one pool. One outcome per plan, in order.
pub fn run_plans(plans: &[(&str, Plan)]) -> Result<Vec<Outcome>, String> {
    let retry = RetryPolicy::none();
    let mut generated = Vec::new();
    for (section, plan) in plans {
        let (mut configs, mut traced_failed) = (Vec::new(), 0);
        for c in &plan.collections {
            let spec = c.set.spec(&[]);
            let ledger = run_batch(&[(&spec, c.set.runs)], retry)
                .pop()
                .unwrap_or_default();
            check(section, &spec, &ledger)?;
            traced_failed += ledger.failed_count();
            let traces = Baseline::from_ledger(&spec, ledger).traces;
            for &merge in &c.merges {
                let opts = GeneratorOptions {
                    merge,
                    ..GeneratorOptions::default()
                };
                let config = generate(c.name.clone(), &traces, &opts)
                    .ok_or_else(|| format!("{section} {}: no trace to replay", c.name))?;
                configs.push(config);
            }
        }
        generated.push((configs, traced_failed));
    }

    let specs: Vec<(&str, RunSpec, usize)> = plans
        .iter()
        .zip(&generated)
        .flat_map(|((section, plan), (configs, _))| {
            plan.sets
                .iter()
                .map(|s| (*section, s.spec(configs), s.runs))
        })
        .collect();
    let jobs: Vec<(&RunSpec, usize)> = specs.iter().map(|(_, spec, n)| (spec, *n)).collect();
    let mut ledgers = run_batch(&jobs, retry).into_iter();
    for ((section, spec, _), ledger) in specs.iter().zip(ledgers.as_slice()) {
        check(section, spec, ledger)?;
    }

    let outcomes = plans
        .iter()
        .zip(generated)
        .map(|((_, plan), (configs, traced_failed))| Outcome {
            configs,
            traced_failed,
            ledgers: ledgers.by_ref().take(plan.sets.len()).collect(),
        })
        .collect();
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execconfig::{Mitigation, Model};
    use crate::failure::RunFailure;
    use crate::harness::RunRecord;
    use noiselab_workloads::NBody;

    #[test]
    fn a_set_whose_every_run_failed_is_an_error_naming_it() {
        let platform = Rc::new(Platform::intel());
        let workload: Rc<dyn Workload + Sync> = Rc::new(NBody::default());
        let set = RunSet::new(
            &platform,
            &workload,
            ExecConfig::new(Model::Sycl, Mitigation::TpHK),
            3_000,
            2,
        );
        let failed = |seed| RunRecord {
            seed,
            attempts: 1,
            result: Err(RunFailure::Deadlock),
        };
        let ledger = RunLedger {
            records: vec![failed(3_000), failed(3_001)],
        };
        let err = check("fig1", &set.spec(&[]), &ledger).unwrap_err();
        assert!(
            err.starts_with("fig1 nbody/TPHK-SYCL: all 2 runs failed"),
            "{err}"
        );

        let mut partial = ledger;
        partial.records[1].result = Ok(crate::harness::RunOutput {
            exec: noiselab_sim::SimDuration::from_millis(5),
            trace: None,
            anomaly: None,
            stream_hash: 0,
            metrics: None,
        });
        assert_eq!(check("fig1", &set.spec(&[]), &partial), Ok(()));
    }
}
