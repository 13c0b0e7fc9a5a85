//! Design-choice ablations.
//!
//! * **Merge strategy (§5.2)** — the paper found a worst-case trace
//!   whose configuration was compromised by the original pessimistic
//!   merge of overlapping events (all mitigation strategies performed
//!   identically; 25.74 % accuracy error), and fixed it by merging
//!   interrupt- and thread-based noise separately and boosting the
//!   priority of thread noise (5.70 %). [`merge`] reproduces the
//!   comparison.
//! * **Memory noise (§6/§7)** — CPU-occupation noise is absorbed by
//!   housekeeping cores, but bandwidth-consuming noise is not: the
//!   contended resource is the socket, not a CPU.
//!   [`memory`] demonstrates the difference, motivating the paper's
//!   future-work extension.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::plan::{Outcome, Plan, Reduce, RunSet};
use crate::experiments::{suite, Scale, Section};
use crate::platform::Platform;
use noiselab_injector::MergeStrategy;
use noiselab_noise::{AnomalyKind, AnomalySpec};
use noiselab_sim::SimDuration;
use noiselab_stats::TextTable;
use noiselab_workloads::Workload;
use std::rc::Rc;

/// Outcome of the merge-strategy ablation.
#[derive(Debug, Clone)]
pub struct MergeAblation {
    /// |avg/anomaly - 1| with the naive pessimistic merge.
    pub naive_accuracy: f64,
    /// Same with the improved merge.
    pub improved_accuracy: f64,
    /// Fraction of injected noise running under FIFO per strategy.
    pub naive_fifo_frac: f64,
    pub improved_fifo_frac: f64,
    /// Spread (max-min) of mean exec across mitigations per strategy —
    /// the compromised config flattens mitigation differences.
    pub naive_mitigation_spread: f64,
    pub improved_mitigation_spread: f64,
}

impl MergeAblation {
    pub fn render(&self) -> String {
        let mut t = TextTable::new("Ablation: overlap-merge strategy (paper §5.2)").header(&[
            "strategy",
            "accuracy",
            "FIFO share",
            "mitigation spread (s)",
        ]);
        t.row(&[
            "naive-pessimistic".to_string(),
            format!("{:.2}%", self.naive_accuracy * 100.0),
            format!("{:.0}%", self.naive_fifo_frac * 100.0),
            format!("{:.4}", self.naive_mitigation_spread),
        ]);
        t.row(&[
            "improved".to_string(),
            format!("{:.2}%", self.improved_accuracy * 100.0),
            format!("{:.0}%", self.improved_fifo_frac * 100.0),
            format!("{:.4}", self.improved_mitigation_spread),
        ]);
        let mut out = t.render();
        out.push_str("paper: compromised trace improved from 25.74% to 5.70%\n");
        out
    }

    /// The paper's shape: the improved merge replicates better and puts
    /// less of the injected noise under FIFO.
    pub fn check_shape(&self) -> Result<(), String> {
        let replicates_better = self.improved_accuracy < self.naive_accuracy;
        if !replicates_better {
            return Err(format!(
                "merge ablation: improved merge should replicate better: {:.2}% vs {:.2}%",
                self.improved_accuracy * 100.0,
                self.naive_accuracy * 100.0
            ));
        }
        let naive_more_fifo = self.naive_fifo_frac > self.improved_fifo_frac;
        if !naive_more_fifo {
            return Err(format!(
                "merge ablation: naive merge should inject more under FIFO: {:.0}% vs {:.0}%",
                self.naive_fifo_frac * 100.0,
                self.improved_fifo_frac * 100.0
            ));
        }
        Ok(())
    }
}

/// The merge-strategy ablation on the Intel platform with MiniFE (its
/// dense reductions give overlapping noise events): one traced
/// collection, reduced with each merge strategy, and each config
/// replayed under every mitigation.
///
/// The paper's compromised trace contained "large contiguous segments
/// of diverse noise" — thread storms overlapping an interrupt storm. To
/// reproduce that condition deterministically, trace collection forces
/// both a kworker storm and an IRQ storm in every run.
pub fn merge(scale: Scale) -> (Plan, Reduce<Section>) {
    let platform = Rc::new(Platform::intel());
    let mut collection = Platform::intel();
    collection.noise.force_all_anomalies = true;
    collection.noise.anomalies = vec![
        AnomalySpec {
            name: "ablation-kworker-storm".into(),
            kind: AnomalyKind::ThreadStorm {
                threads: 3,
                median_burst: SimDuration::from_millis(4),
                sigma: 0.5,
                mean_gap: SimDuration::from_micros(700),
            },
            window: (SimDuration::from_millis(250), SimDuration::from_millis(400)),
            start: (SimDuration::from_millis(10), SimDuration::from_millis(60)),
        },
        AnomalySpec {
            name: "ablation-irq-storm".into(),
            kind: AnomalyKind::IrqStorm {
                cpus: 4,
                mean_interval: SimDuration::from_micros(80),
                service: SimDuration::from_micros(8),
            },
            window: (SimDuration::from_millis(250), SimDuration::from_millis(400)),
            start: (SimDuration::from_millis(10), SimDuration::from_millis(60)),
        },
    ];
    let workload: Rc<dyn Workload + Sync> = Rc::new(suite::minife_for(&platform));
    let collection = Rc::new(collection);
    let source = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let traced = RunSet::new(&collection, &workload, source, 77, scale.traced_runs);
    let mut plan = Plan::default();
    // Per config, a set replaying it under each mitigation.
    let configs = plan.collection("merge-ablation".into(), traced, MERGES);
    let cells = configs.map(|config| {
        let inject = Some(config);
        let sets = Mitigation::ALL.map(|mit| {
            let cfg = ExecConfig::new(Model::Omp, mit);
            let seed = 200_000 + mit.index() as u64 * 97;
            let set = RunSet::new(&platform, &workload, cfg, seed, scale.inject_runs);
            plan.set(RunSet { inject, ..set })
        });
        (config, sets)
    });
    let reduce = move |out: &Outcome| {
        // (accuracy, FIFO share, mitigation spread) of one config.
        let [naive, improved] = cells.map(|(config, sets)| {
            let config = out.config(config);
            let means = sets.map(|s| out.summary(s).mean);
            // Accuracy on the source configuration (Rm).
            let accuracy = (means[0] / config.anomaly_exec.as_secs_f64() - 1.0).abs();
            let spread = means.iter().cloned().fold(f64::MIN, f64::max)
                - means.iter().cloned().fold(f64::MAX, f64::min);
            (accuracy, config.fifo_fraction(), spread)
        });
        checked!(MergeAblation {
            naive_accuracy: naive.0,
            improved_accuracy: improved.0,
            naive_fifo_frac: naive.1,
            improved_fifo_frac: improved.1,
            naive_mitigation_spread: naive.2,
            improved_mitigation_spread: improved.2,
        })
    };
    (plan, Box::new(reduce))
}

/// The strategies [`merge`] compares: naive, then improved.
const MERGES: [MergeStrategy; 2] = [MergeStrategy::NaivePessimistic, MergeStrategy::Improved];

/// Outcome of the memory-noise ablation.
#[derive(Debug, Clone)]
pub struct MemoryNoiseAblation {
    /// Mean exec under a CPU-occupation storm: Rm vs RmHK2.
    pub cpu_rm: f64,
    pub cpu_hk2: f64,
    /// Mean exec under a memory-bandwidth hog: Rm vs RmHK2.
    pub mem_rm: f64,
    pub mem_hk2: f64,
}

impl MemoryNoiseAblation {
    /// Relative benefit of HK2 under each noise kind.
    pub fn cpu_gain(&self) -> f64 {
        1.0 - self.cpu_hk2 / self.cpu_rm
    }

    pub fn mem_gain(&self) -> f64 {
        1.0 - self.mem_hk2 / self.mem_rm
    }

    pub fn render(&self) -> String {
        let mut t =
            TextTable::new("Ablation: CPU-occupation vs memory-bandwidth noise (Babelstream)")
                .header(&["noise kind", "Rm (s)", "RmHK2 (s)", "HK2 benefit"]);
        t.row(&[
            "cpu storm".to_string(),
            format!("{:.3}", self.cpu_rm),
            format!("{:.3}", self.cpu_hk2),
            format!("{:+.1}%", self.cpu_gain() * 100.0),
        ]);
        t.row(&[
            "memory hog".to_string(),
            format!("{:.3}", self.mem_rm),
            format!("{:.3}", self.mem_hk2),
            format!("{:+.1}%", self.mem_gain() * 100.0),
        ]);
        let mut out = t.render();
        out.push_str(
            "expected: housekeeping absorbs CPU noise but not bandwidth noise (paper §6)\n",
        );
        out
    }

    /// The paper's shape: housekeeping helps more against CPU noise
    /// than against memory noise.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.cpu_gain() > self.mem_gain() {
            Ok(())
        } else {
            Err(format!(
                "memory ablation: housekeeping should help less against memory noise: \
                 cpu {:.1}% vs mem {:.1}%",
                self.cpu_gain() * 100.0,
                self.mem_gain() * 100.0
            ))
        }
    }
}

/// The memory-noise ablation: Babelstream under Rm and RmHK2,
/// first with a CPU-occupation storm forced in every run, then with a
/// memory-bandwidth hog.
pub fn memory(scale: Scale) -> (Plan, Reduce<Section>) {
    let base = Platform::intel();
    let workload: Rc<dyn Workload + Sync> = Rc::new(suite::babelstream_for(&base));

    // The CPU-occupation arm uses FIFO-class stalls (an interrupt
    // flood): a CFS thread storm barely hurts a bandwidth-saturated
    // workload, but stalling cores outright blocks every per-iteration
    // barrier. Housekeeping helps because stalled workload threads can
    // escape to the free cores.
    let storm = AnomalySpec {
        name: "ablation-cpu-storm".into(),
        kind: AnomalyKind::IrqStorm {
            cpus: 2,
            mean_interval: SimDuration::from_micros(55),
            service: SimDuration::from_micros(50),
        },
        window: (
            SimDuration::from_millis(1_200),
            SimDuration::from_millis(1_201),
        ),
        start: (SimDuration::from_millis(10), SimDuration::from_millis(11)),
    };
    let memhog = AnomalySpec {
        name: "ablation-memhog".into(),
        kind: AnomalyKind::MemoryHog {
            threads: 3,
            bytes_per_burst: 4_000_000.0,
        },
        window: (
            SimDuration::from_millis(1_200),
            SimDuration::from_millis(1_201),
        ),
        start: (SimDuration::from_millis(10), SimDuration::from_millis(11)),
    };

    let mut plan = Plan::default();
    let [cpu, mem] = [storm, memhog].map(|anomaly| {
        let mut p = base.clone();
        p.noise.anomaly_prob = 1.0;
        p.noise.anomalies = vec![anomaly];
        let p = Rc::new(p);
        [Mitigation::Rm, Mitigation::RmHK2].map(|mit| {
            let cfg = ExecConfig::new(Model::Omp, mit);
            plan.set(RunSet::new(&p, &workload, cfg, 12_345, scale.inject_runs))
        })
    });
    let reduce = move |out: &Outcome| {
        let mean = |set| out.summary(set).mean;
        checked!(MemoryNoiseAblation {
            cpu_rm: mean(cpu[0]),
            cpu_hk2: mean(cpu[1]),
            mem_rm: mean(mem[0]),
            mem_hk2: mean(mem[1]),
        })
    };
    (plan, Box::new(reduce))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merge() -> MergeAblation {
        MergeAblation {
            naive_accuracy: 0.25,
            improved_accuracy: 0.05,
            naive_fifo_frac: 0.9,
            improved_fifo_frac: 0.2,
            naive_mitigation_spread: 0.01,
            improved_mitigation_spread: 0.2,
        }
    }

    fn memory() -> MemoryNoiseAblation {
        MemoryNoiseAblation {
            cpu_rm: 1.2,
            cpu_hk2: 1.0,
            mem_rm: 1.3,
            mem_hk2: 1.28,
        }
    }

    #[test]
    fn render_shapes() {
        let m = merge();
        assert!(m.render().contains("naive-pessimistic"));
        assert_eq!(m.check_shape(), Ok(()));

        let a = memory();
        assert!(a.cpu_gain() > a.mem_gain());
        assert!(a.render().contains("memory hog"));
        assert_eq!(a.check_shape(), Ok(()));
    }

    #[test]
    fn merge_shape_fails_when_improved_is_no_more_accurate() {
        let m = MergeAblation {
            improved_accuracy: 0.25,
            ..merge()
        };
        let err = m.check_shape().unwrap_err();
        assert!(
            err.contains("merge ablation") && err.contains("replicate"),
            "{err}"
        );
    }

    #[test]
    fn merge_shape_fails_when_naive_fifo_share_is_not_larger() {
        let m = MergeAblation {
            naive_fifo_frac: 0.2,
            ..merge()
        };
        let err = m.check_shape().unwrap_err();
        assert!(
            err.contains("merge ablation") && err.contains("FIFO"),
            "{err}"
        );
    }

    #[test]
    fn memory_shape_fails_when_housekeeping_helps_memory_noise_as_much() {
        let a = MemoryNoiseAblation {
            mem_hk2: 1.0,
            ..memory()
        };
        let err = a.check_shape().unwrap_err();
        assert!(err.contains("memory ablation"), "{err}");
    }
}
