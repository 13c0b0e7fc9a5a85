//! Execution configurations: programming model × mitigation strategy ×
//! SMT usage (the row/column labels of the paper's tables).

use noiselab_machine::{CpuSet, Governor, Machine};
use noiselab_runtime::omp::OmpSchedule;
use serde::{Deserialize, Serialize};

/// Programming model under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Model {
    Omp,
    Sycl,
}

impl Model {
    pub fn label(self) -> &'static str {
        match self {
            Model::Omp => "OMP",
            Model::Sycl => "SYCL",
        }
    }
}

/// Mitigation strategies of §5 (figure/table column labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mitigation {
    /// Roam: threads schedule freely over all available CPUs.
    Rm,
    /// Roam + 12.5 % of CPUs left to background tasks.
    RmHK,
    /// Roam + 25 % housekeeping.
    RmHK2,
    /// Thread pinning, all CPUs.
    Tp,
    /// Pinning + 12.5 % housekeeping.
    TpHK,
    /// Pinning + 25 % housekeeping.
    TpHK2,
}

impl Mitigation {
    pub const ALL: [Mitigation; 6] = [
        Mitigation::Rm,
        Mitigation::RmHK,
        Mitigation::RmHK2,
        Mitigation::Tp,
        Mitigation::TpHK,
        Mitigation::TpHK2,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Mitigation::Rm => "Rm",
            Mitigation::RmHK => "RmHK",
            Mitigation::RmHK2 => "RmHK2",
            Mitigation::Tp => "TP",
            Mitigation::TpHK => "TPHK",
            Mitigation::TpHK2 => "TPHK2",
        }
    }

    /// Position in [`Mitigation::ALL`]: the column of a paper table.
    pub fn index(self) -> usize {
        Mitigation::ALL
            .iter()
            .position(|&x| x == self)
            .expect("Mitigation::ALL lists every mitigation")
    }

    pub fn pinned(self) -> bool {
        matches!(self, Mitigation::Tp | Mitigation::TpHK | Mitigation::TpHK2)
    }

    /// Fraction of CPUs reserved as housekeeping.
    pub fn housekeeping_fraction(self) -> f64 {
        match self {
            Mitigation::Rm | Mitigation::Tp => 0.0,
            Mitigation::RmHK | Mitigation::TpHK => 0.125,
            Mitigation::RmHK2 | Mitigation::TpHK2 => 0.25,
        }
    }
}

/// A full execution configuration for one experiment cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecConfig {
    pub model: Model,
    pub mitigation: Mitigation,
    /// SMT toggling (AMD rows labelled "SMT" in the paper). `false`
    /// disables SMT at firmware level (sibling hardware threads do not
    /// exist); `true` keeps SMT enabled but leaves the secondary
    /// hardware threads unallocated so OS noise can land there — the
    /// mitigation of León et al. the paper evaluates. The workload runs
    /// one thread per physical core either way.
    pub smt: bool,
    /// Override the OpenMP schedule (schedbench sweeps); `None` = the
    /// workload default.
    pub schedule: Option<OmpSchedule>,
    /// Override the thread count (Fig. 2 thread sweeps); `None` = one
    /// thread per available CPU.
    pub threads: Option<usize>,
    /// DVFS governor override for frequency-noise cells. `None` leaves
    /// the platform's DVFS config untouched (disabled on every shipped
    /// preset except `intel-dvfs`); `Some` enables DVFS under that
    /// governor. Absent from old serialized configs, hence the default.
    #[serde(default)]
    pub governor: Option<Governor>,
}

impl ExecConfig {
    pub fn new(model: Model, mitigation: Mitigation) -> Self {
        ExecConfig {
            model,
            mitigation,
            smt: false,
            schedule: None,
            threads: None,
            governor: None,
        }
    }

    pub fn with_smt(mut self) -> Self {
        self.smt = true;
        self
    }

    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    pub fn with_schedule(mut self, s: OmpSchedule) -> Self {
        self.schedule = Some(s);
        self
    }

    pub fn with_governor(mut self, g: Governor) -> Self {
        self.governor = Some(g);
        self
    }

    /// Row label, e.g. `Rm-OMP`, `TPHK2-SYCL-SMT`, `TP-OMP-UTIL`. The
    /// governor tag must appear here: campaign fingerprints cover cell
    /// labels, so two cells differing only in governor need distinct
    /// labels to be distinct cells.
    pub fn label(&self) -> String {
        let mut s = format!("{}-{}", self.mitigation.label(), self.model.label());
        if self.smt {
            s.push_str("-SMT");
        }
        if let Some(g) = self.governor {
            s.push('-');
            s.push_str(g.tag());
        }
        s
    }

    /// The CPUs the workload may use: firmware-visible user CPUs,
    /// restricted to the primary hardware thread of each core (with SMT
    /// enabled the secondary threads stay free for OS noise), minus the
    /// housekeeping share (highest-numbered CPUs are left to background
    /// tasks, mirroring the paper's setup).
    pub fn workload_cpus(&self, machine: &Machine) -> CpuSet {
        let base = machine.user_cpus().intersection(machine.primary_threads());
        let n = base.len();
        let hk = (n as f64 * self.mitigation.housekeeping_fraction()).round() as usize;
        let keep = n - hk;
        base.iter().take(keep).collect()
    }

    /// Number of workload threads.
    pub fn nthreads(&self, machine: &Machine) -> usize {
        self.threads
            .unwrap_or_else(|| self.workload_cpus(machine).len())
            .max(1)
    }

    /// Per-worker affinity masks: one shared mask when roaming, one
    /// single-CPU mask per worker when pinned.
    pub fn affinities(&self, machine: &Machine) -> Vec<CpuSet> {
        let cpus = self.workload_cpus(machine);
        if self.mitigation.pinned() {
            let list: Vec<_> = cpus.iter().collect();
            (0..self.nthreads(machine))
                .map(|i| CpuSet::single(list[i % list.len()]))
                .collect()
        } else {
            vec![cpus]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noiselab_machine::CpuId;

    #[test]
    fn labels() {
        assert_eq!(
            ExecConfig::new(Model::Omp, Mitigation::Rm).label(),
            "Rm-OMP"
        );
        assert_eq!(
            ExecConfig::new(Model::Sycl, Mitigation::TpHK2)
                .with_smt()
                .label(),
            "TPHK2-SYCL-SMT"
        );
        assert_eq!(
            ExecConfig::new(Model::Omp, Mitigation::Tp)
                .with_governor(Governor::Schedutil)
                .label(),
            "TP-OMP-UTIL"
        );
    }

    #[test]
    fn housekeeping_reduces_cpus() {
        let m = Machine::intel_9700kf();
        let rm = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let hk = ExecConfig::new(Model::Omp, Mitigation::RmHK);
        let hk2 = ExecConfig::new(Model::Omp, Mitigation::RmHK2);
        assert_eq!(rm.workload_cpus(&m).len(), 8);
        assert_eq!(hk.workload_cpus(&m).len(), 7);
        assert_eq!(hk2.workload_cpus(&m).len(), 6);
    }

    #[test]
    fn smt_toggle_on_amd() {
        // With SMT enabled the workload still runs one thread per core;
        // the sibling hardware threads stay free to absorb noise.
        let m = Machine::amd_9950x3d();
        let smt = ExecConfig::new(Model::Omp, Mitigation::Rm).with_smt();
        assert_eq!(smt.workload_cpus(&m).len(), 16);
        assert_eq!(smt.nthreads(&m), 16);
        // With SMT firmware-disabled the harness hands a 16-cpu machine.
        let mut off = m.clone();
        off.smt = 1;
        let plain = ExecConfig::new(Model::Omp, Mitigation::Rm);
        assert_eq!(plain.workload_cpus(&off).len(), 16);
        assert_eq!(plain.nthreads(&off), 16);
    }

    #[test]
    fn pinning_yields_single_cpu_masks() {
        let m = Machine::intel_9700kf();
        let tp = ExecConfig::new(Model::Omp, Mitigation::Tp);
        let affs = tp.affinities(&m);
        assert_eq!(affs.len(), 8);
        for (i, a) in affs.iter().enumerate() {
            assert_eq!(a.len(), 1);
            assert!(a.contains(CpuId(i as u32)));
        }
    }

    #[test]
    fn roaming_yields_one_shared_mask() {
        let m = Machine::intel_9700kf();
        let rm = ExecConfig::new(Model::Sycl, Mitigation::RmHK);
        let affs = rm.affinities(&m);
        assert_eq!(affs.len(), 1);
        assert_eq!(affs[0].len(), 7);
    }

    #[test]
    fn reserved_cores_excluded_on_a64fx() {
        let m = Machine::a64fx(true);
        let rm = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let cpus = rm.workload_cpus(&m);
        assert_eq!(cpus.len(), 48);
        assert!(!cpus.contains(CpuId(48)));
        assert!(!cpus.contains(CpuId(49)));
    }

    #[test]
    fn thread_override() {
        let m = Machine::a64fx(false);
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm).with_threads(12);
        assert_eq!(cfg.nthreads(&m), 12);
        // Pinned variant places 12 threads on the first 12 cpus.
        let tp = ExecConfig::new(Model::Omp, Mitigation::Tp).with_threads(12);
        assert_eq!(tp.affinities(&m).len(), 12);
    }
}
