//! FWQ — the fixed-work-quantum OS-jitter microbenchmark (referenced by
//! the paper's related work as the traditional way to *measure* noise).
//!
//! One thread per CPU repeatedly executes a fixed quantum of work and
//! records each quantum's wall time; anything above the minimum is
//! interference. Unlike the paper's workloads, FWQ is not lowered
//! through a runtime model — it is a raw per-CPU probe, implemented
//! directly as kernel behaviors — and it provides an *independent*
//! measurement path for validating the noise model: the noise FWQ
//! detects should account for what the osnoise tracer records.

use noiselab_kernel::{Action, Behavior, Ctx, Kernel, Policy, ThreadId, ThreadKind, ThreadSpec};
use noiselab_machine::{CpuSet, WorkUnit};
use noiselab_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Per-CPU sample log: wall time of each quantum.
pub type QuantumLog = Rc<RefCell<Vec<Vec<SimDuration>>>>;

/// FWQ parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Fwq {
    /// Work per quantum, in flops (quantum wall time = flops /
    /// flops_per_ns when undisturbed).
    pub quantum_flops: f64,
    /// Quanta per thread.
    pub samples: usize,
}

impl Default for Fwq {
    fn default() -> Self {
        // ~100 us quanta on the Intel preset, 2000 samples ~ 0.2 s.
        Fwq {
            quantum_flops: 3_000_000.0,
            samples: 2_000,
        }
    }
}

struct FwqThread {
    log: QuantumLog,
    slot: usize,
    samples_left: usize,
    quantum: WorkUnit,
    started_at: Option<SimTime>,
}

impl Behavior for FwqThread {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Action {
        if let Some(start) = self.started_at.take() {
            self.log.borrow_mut()[self.slot].push(ctx.now.since(start));
        }
        if self.samples_left == 0 {
            return Action::Exit;
        }
        self.samples_left -= 1;
        self.started_at = Some(ctx.now);
        Action::Compute(self.quantum)
    }

    fn label(&self) -> &str {
        "fwq"
    }
}

/// Handle to a running FWQ measurement.
pub struct FwqRun {
    pub threads: Vec<ThreadId>,
    pub log: QuantumLog,
}

impl Fwq {
    /// Spawn one pinned FWQ thread per CPU in `cpus`.
    pub fn spawn(&self, kernel: &mut Kernel, cpus: CpuSet) -> FwqRun {
        let log: QuantumLog = Rc::new(RefCell::new(vec![Vec::new(); cpus.len()]));
        let mut threads = Vec::new();
        for (slot, cpu) in cpus.iter().enumerate() {
            let b = FwqThread {
                log: log.clone(),
                slot,
                samples_left: self.samples,
                quantum: WorkUnit::compute(self.quantum_flops),
                started_at: None,
            };
            let spec = ThreadSpec::new(format!("fwq/{}", cpu.0), ThreadKind::Workload)
                .policy(Policy::NORMAL)
                .affinity(CpuSet::single(cpu));
            threads.push(kernel.spawn(spec, Box::new(b)));
        }
        FwqRun { log, threads }
    }
}

/// Analysis of an FWQ sample log.
#[derive(Debug, Clone, PartialEq)]
pub struct FwqReport {
    /// Undisturbed quantum estimate (global minimum).
    pub min_quantum: SimDuration,
    /// Total detected noise: sum over samples of (sample - min).
    pub total_noise: SimDuration,
    /// Largest single detention.
    pub max_detention: SimDuration,
    /// Samples disturbed by more than 1 % of the quantum.
    pub disturbed_samples: usize,
    pub total_samples: usize,
}

/// Reduce the per-CPU logs to a noise report.
pub fn analyze(log: &QuantumLog) -> FwqReport {
    let log = log.borrow();
    let all: Vec<SimDuration> = log.iter().flatten().copied().collect();
    assert!(!all.is_empty(), "no FWQ samples collected");
    let min = all.iter().copied().min().expect("asserted non-empty above");
    let mut total = SimDuration::ZERO;
    let mut max_det = SimDuration::ZERO;
    let mut disturbed = 0;
    let threshold = SimDuration(min.nanos() + min.nanos() / 100);
    for &s in &all {
        let det = s.saturating_sub(min);
        total += det;
        max_det = max_det.max(det);
        if s > threshold {
            disturbed += 1;
        }
    }
    FwqReport {
        min_quantum: min,
        total_noise: total,
        max_detention: max_det,
        disturbed_samples: disturbed,
        total_samples: all.len(),
    }
}

/// Convenience: run FWQ on every CPU of `kernel`'s machine and analyze.
pub fn measure(kernel: &mut Kernel, fwq: &Fwq) -> FwqReport {
    let cpus = kernel.machine.user_cpus();
    let run = fwq.spawn(kernel, cpus);
    for t in &run.threads {
        kernel
            .run_until_exit(*t, SimTime::from_secs_f64(600.0))
            .expect("fwq run exceeded horizon");
    }
    analyze(&run.log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noiselab_kernel::KernelConfig;
    use noiselab_machine::{CpuId, Machine};

    fn quiet_kernel(seed: u64) -> Kernel {
        let cfg = KernelConfig {
            timer_irq_mean: SimDuration::from_nanos(200),
            timer_irq_sd: SimDuration::ZERO,
            softirq_prob: 0.0,
            ..KernelConfig::default()
        };
        Kernel::new(Machine::intel_9700kf(), cfg, seed)
    }

    #[test]
    fn quiet_system_shows_little_noise() {
        let mut k = quiet_kernel(1);
        let fwq = Fwq {
            quantum_flops: 3_000_000.0,
            samples: 200,
        };
        let report = measure(&mut k, &fwq);
        assert_eq!(report.total_samples, 200 * 8);
        // ~100 us quanta.
        assert!((90_000..120_000).contains(&report.min_quantum.nanos()));
        // Only tick IRQs disturb; total noise well under 1 % of runtime.
        let runtime = report.min_quantum.nanos() * report.total_samples as u64;
        assert!(
            report.total_noise.nanos() < runtime / 100,
            "too much noise on a quiet system: {}",
            report.total_noise
        );
    }

    #[test]
    fn fwq_detects_injected_noise() {
        use noiselab_kernel::ScriptBehavior;
        let mut k = quiet_kernel(2);
        // A FIFO hog pinned to cpu3 for 5 ms, 10 ms in.
        k.spawn(
            ThreadSpec::new("hog", ThreadKind::Noise)
                .policy(Policy::Fifo { prio: 50 })
                .affinity(CpuSet::single(CpuId(3)))
                .start_at(SimTime::from_secs_f64(0.010)),
            Box::new(ScriptBehavior::new(vec![Action::Burn(
                SimDuration::from_millis(5),
            )])),
        );
        let fwq = Fwq {
            quantum_flops: 3_000_000.0,
            samples: 300,
        };
        let report = measure(&mut k, &fwq);
        // The 5 ms detention must be visible.
        assert!(
            report.max_detention.nanos() > 4_500_000,
            "missed the hog: max detention {}",
            report.max_detention
        );
        assert!(report.disturbed_samples >= 1);
    }

    /// Cross-validation: the noise FWQ detects on a noisy system should
    /// be comparable to what the osnoise tracer records (FWQ sees only
    /// noise that lands on its busy CPUs, so tracer >= FWQ-ish; both
    /// must be nonzero and within an order of magnitude).
    #[test]
    fn fwq_cross_validates_tracer() {
        use noiselab_noise::{install, NoiseProfile, OsNoiseTracer};
        use noiselab_sim::Rng;

        let mut k = Kernel::new(Machine::intel_9700kf(), KernelConfig::default(), 5);
        let mut rng = Rng::new(55);
        let mut profile = NoiseProfile::desktop();
        profile.anomaly_prob = 1.0;
        install(&mut k, &profile, &mut rng);
        let (tracer, buffer) = OsNoiseTracer::new();
        k.attach_tracer(Box::new(tracer));

        let fwq = Fwq {
            quantum_flops: 3_000_000.0,
            samples: 1_000,
        };
        let report = measure(&mut k, &fwq);
        let trace = buffer.take_trace(0, SimDuration::ZERO);
        let traced_total: u64 = trace.events.iter().map(|e| e.duration.nanos()).sum();

        assert!(report.total_noise.nanos() > 0);
        assert!(traced_total > 0);
        let ratio = traced_total as f64 / report.total_noise.nanos() as f64;
        assert!(
            (0.2..20.0).contains(&ratio),
            "tracer and FWQ disagree wildly: traced {traced_total} vs fwq {}",
            report.total_noise.nanos()
        );
    }
}
