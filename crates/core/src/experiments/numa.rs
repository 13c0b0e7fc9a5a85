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
use crate::failure::RetryPolicy;
use crate::harness::{run_many, RunSpec};
use crate::platform::Platform;
use noiselab_machine::Machine;
use noiselab_noise::{AnomalyKind, AnomalySpec, NoiseProfile};
use noiselab_sim::SimDuration;
use noiselab_stats::TextTable;
use noiselab_workloads::{NBody, Workload};

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
}

/// Run the comparison. `runs` baseline repetitions per configuration.
pub fn run(runs: usize, small: bool) -> NumaComparison {
    let platform = numa_platform();
    let workload = if small {
        NBody {
            bodies: 48_000,
            steps: 3,
            sycl_kernel_efficiency: 1.3,
        }
    } else {
        NBody {
            bodies: 120_000,
            steps: 5,
            sycl_kernel_efficiency: 1.3,
        }
    };

    let mut rows = Vec::new();
    for (label, mitigation) in [("Rm-OMP", Mitigation::Rm), ("TP-OMP", Mitigation::Tp)] {
        let cfg = ExecConfig::new(Model::Omp, mitigation);
        let spec = RunSpec::new(&platform, &workload, &cfg, 77_000);
        let ledger = run_many(&spec, runs, RetryPolicy::none());
        let secs = ledger.samples();
        for (seed, cause) in ledger.failures() {
            eprintln!("numa: run seed {seed} failed ({cause}); excluded from comparison");
        }
        let summary = noiselab_stats::Summary::of(&secs);
        // Migration counts need kernel introspection; probe a few seeds
        // with counters via the dedicated probe below.
        let probes = 3.min(runs) as u64;
        let (mut migr, mut numa) = (0.0, 0.0);
        for s in 0..probes {
            let (m, n) = migration_probe(&platform, &workload, &cfg, 77_000 + s);
            migr += m;
            numa += n;
        }
        migr /= probes as f64;
        numa /= probes as f64;
        rows.push(NumaRow {
            label: label.to_string(),
            mean: summary.mean,
            sd_ms: summary.sd * 1e3,
            migrations: migr,
            numa_migrations: numa,
        });
    }
    NumaComparison { rows }
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
        let cmp = run(4, true);
        let rm = cmp.row("Rm-OMP").unwrap();
        let tp = cmp.row("TP-OMP").unwrap();
        assert_eq!(tp.migrations, 0.0, "pinned threads must not migrate");
        assert_eq!(tp.numa_migrations, 0.0);
        assert!(
            rm.migrations > 0.0,
            "roaming threads should migrate under node noise"
        );
        assert!(cmp.render().contains("cross-NUMA"));
    }
}
