//! NUMA extension experiment (paper §5.1/§6 future work).
//!
//! The paper repeatedly notes that its desktop results understate the
//! value of thread pinning: on large multi-domain systems, migrations
//! cross NUMA boundaries and cost far more, so prior HPC work found
//! pinning highly beneficial. This experiment validates that the
//! simulated kernel reproduces the crossover: on a 128-core, 8-domain
//! machine, roaming threads under noise pay remote-migration penalties
//! that pinned threads avoid.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::plan::{Outcome, Plan, Reduce, RunSet};
use crate::experiments::{Scale, Section};
use crate::platform::Platform;
use noiselab_machine::Machine;
use noiselab_noise::{AnomalyKind, AnomalySpec, NoiseProfile};
use noiselab_sim::SimDuration;
use noiselab_stats::TextTable;
use noiselab_workloads::{NBody, Workload};
use std::rc::Rc;

/// The NUMA evaluation platform: a 128-core, 8-domain node with an HPC
/// noise profile plus frequent kworker churn (the trigger for
/// migrations).
pub fn numa_platform() -> Platform {
    let mut noise = NoiseProfile::hpc(None);
    noise.anomaly_prob = 0.5;
    noise.anomalies = vec![AnomalySpec {
        name: "node-daemon-burst".into(),
        kind: AnomalyKind::ThreadStorm {
            threads: 12,
            median_burst: SimDuration::from_millis(2),
            sigma: 0.6,
            mean_gap: SimDuration::from_micros(700),
        },
        window: (SimDuration::from_millis(50), SimDuration::from_millis(300)),
        start: (SimDuration::from_millis(2), SimDuration::from_millis(10)),
    }];
    Platform {
        machine: Machine::epyc_numa(),
        noise,
        run_jitter_sd: 0.001,
    }
}

#[derive(Debug, Clone)]
pub struct NumaRow {
    pub label: String,
    pub mean: f64,
    pub sd_ms: f64,
    pub migrations: f64,
    pub numa_migrations: f64,
}

#[derive(Debug, Clone)]
pub struct NumaComparison {
    pub rows: Vec<NumaRow>,
}

impl NumaComparison {
    pub fn render(&self) -> String {
        let mut t =
            TextTable::new("NUMA extension: N-body on a 128-core 8-domain node under node noise")
                .header(&[
                    "config",
                    "mean (s)",
                    "s.d. (ms)",
                    "migr/run",
                    "cross-NUMA/run",
                ]);
        for r in &self.rows {
            t.row(&[
                r.label.clone(),
                format!("{:.4}", r.mean),
                format!("{:.2}", r.sd_ms),
                format!("{:.0}", r.migrations),
                format!("{:.0}", r.numa_migrations),
            ]);
        }
        let mut out = t.render();
        out.push_str(
            "expected: TP eliminates cross-NUMA migrations; Rm pays them under noise\n\
             (the paper's §5.1/§6 explanation of why pinning matters on HPC systems)\n",
        );
        out
    }

    pub fn row(&self, label: &str) -> Option<&NumaRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// The extension's shape: pinned threads never migrate, roaming
    /// threads do under node noise.
    pub fn check_shape(&self) -> Result<(), String> {
        let (Some(rm), Some(tp)) = (self.row("Rm-OMP"), self.row("TP-OMP")) else {
            return Err("NUMA: the Rm-OMP and TP-OMP rows are both required".into());
        };
        if tp.migrations != 0.0 {
            return Err(format!(
                "NUMA: pinned threads must not migrate: TP-OMP {:.0} migrations per run",
                tp.migrations
            ));
        }
        let roaming_migrate = rm.migrations > 0.0;
        if !roaming_migrate {
            return Err("NUMA: roaming threads should migrate under node noise".into());
        }
        Ok(())
    }
}

/// The comparison: baseline repetitions of roaming and of pinned
/// N-body on the NUMA platform. Migration counts need kernel
/// introspection, so each row also runs `migration_probe` on the
/// first three of its seeds; the probes are single kernel runs outside
/// the run pool.
pub fn build(scale: Scale) -> (Plan, Reduce<Section>) {
    let platform = Rc::new(numa_platform());
    let workload: Rc<dyn Workload + Sync> = Rc::new(NBody {
        bodies: 120_000,
        steps: 5,
        sycl_kernel_efficiency: 1.3,
    });
    let mut plan = Plan::default();
    let sets = [Mitigation::Rm, Mitigation::Tp].map(|mitigation| {
        let cfg = ExecConfig::new(Model::Omp, mitigation);
        let set = RunSet::new(&platform, &workload, cfg, 77_000, scale.baseline_runs);
        (plan.set(set.clone()), set)
    });
    let reduce = move |out: &Outcome| {
        let rows = sets.map(|(id, set)| {
            let summary = out.summary(id);
            let probes = 3.min(set.runs) as u64;
            let (mut migr, mut numa) = (0.0, 0.0);
            for s in 0..probes {
                let (m, n) =
                    migration_probe(&set.platform, set.workload.as_ref(), &set.cfg, set.seed + s);
                migr += m;
                numa += n;
            }
            NumaRow {
                label: set.cfg.label(),
                mean: summary.mean,
                sd_ms: summary.sd * 1e3,
                migrations: migr / probes as f64,
                numa_migrations: numa / probes as f64,
            }
        });
        checked!(NumaComparison { rows: rows.into() })
    };
    (plan, Box::new(reduce))
}

/// Run one seed and count workload-thread migrations.
fn migration_probe(
    platform: &Platform,
    workload: &dyn Workload,
    cfg: &ExecConfig,
    seed: u64,
) -> (f64, f64) {
    use noiselab_kernel::{Kernel, KernelConfig};
    use noiselab_runtime::omp;
    use noiselab_sim::{Rng, SimTime};

    let machine = platform.machine.clone();
    let mut kernel = Kernel::new(machine.clone(), KernelConfig::default(), seed);
    let mut noise_rng = Rng::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
    noiselab_noise::install(&mut kernel, &platform.noise, &mut noise_rng);
    let nthreads = cfg.nthreads(&machine);
    let affinities = cfg.affinities(&machine);
    let program = workload.omp_program(nthreads, cfg.schedule);
    let mut opts = omp::OmpLaunch::new(nthreads, affinities[0]);
    if affinities.len() > 1 {
        opts = omp::OmpLaunch::pinned(nthreads, affinities);
    }
    let team = omp::launch(&mut kernel, program, opts);
    for w in &team.workers {
        if let Err(e) = kernel.run_until_exit(*w, SimTime::from_secs_f64(600.0)) {
            // A failed probe contributes zero counts rather than killing
            // the whole comparison; the main measurement is unaffected.
            eprintln!("numa: migration probe seed {seed} failed ({e:?}); counting zero");
            return (0.0, 0.0);
        }
    }
    let (mut migr, mut numa) = (0u64, 0u64);
    for w in &team.workers {
        migr += kernel.thread(*w).stats.migrations;
        numa += kernel.thread(*w).stats.numa_migrations;
    }
    (migr as f64, numa as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_is_numa() {
        let p = numa_platform();
        assert_eq!(p.machine.numa_domains, 8);
        assert_eq!(p.machine.cores, 128);
        use noiselab_machine::CpuId;
        assert_eq!(p.machine.domain_of(CpuId(0)), 0);
        assert_eq!(p.machine.domain_of(CpuId(127)), 7);
        assert!(!p.machine.same_domain(CpuId(0), CpuId(127)));
        assert!(p.machine.same_domain(CpuId(0), CpuId(15)));
    }

    #[test]
    fn pinning_eliminates_cross_numa_migrations() {
        let scale = Scale {
            baseline_runs: 4,
            ..Scale::smoke()
        };
        let (plan, reduce) = build(scale);
        let out = crate::experiments::plan::run_plans(&[("numa", plan)]).unwrap();
        let (rendered, shape) = reduce(&out[0]);
        // The shape holds exactly when pinned threads never migrate and
        // roaming ones do.
        assert_eq!(shape, Ok(()));
        assert!(rendered.contains("cross-NUMA"));
        let tp = rendered.lines().find(|l| l.contains("TP-OMP")).unwrap();
        assert!(tp.ends_with(" 0"), "pinned threads crossed NUMA: {tp}");
    }

    fn row(label: &str, migrations: f64) -> NumaRow {
        NumaRow {
            label: label.into(),
            mean: 1.0,
            sd_ms: 1.0,
            migrations,
            numa_migrations: 0.0,
        }
    }

    #[test]
    fn shape_fails_when_pinned_threads_migrate() {
        let cmp = NumaComparison {
            rows: vec![row("Rm-OMP", 5.0), row("TP-OMP", 1.0)],
        };
        let err = cmp.check_shape().unwrap_err();
        assert!(err.contains("NUMA") && err.contains("pinned"), "{err}");
    }

    #[test]
    fn shape_fails_when_roaming_threads_stay_put() {
        let cmp = NumaComparison {
            rows: vec![row("Rm-OMP", 0.0), row("TP-OMP", 0.0)],
        };
        let err = cmp.check_shape().unwrap_err();
        assert!(err.contains("NUMA") && err.contains("roaming"), "{err}");
    }
}
