//! Shared scenario and harness builders for the noiselab test suites.
//!
//! Every integration suite in `crates/kernel/tests` and
//! `crates/core/tests` used to carry its own copy of the same handful
//! of helpers — a quiet 4-core machine, a costed machine with realistic
//! switch/migration/wake latencies, a full-tuple trace recorder, the
//! scaled-down paper workloads and the platform matrix. This crate is
//! the single home for those builders; the suites (and the conformance
//! suite in `noiselab-conform`) depend on it as a dev-dependency.
//!
//! The builders are intentionally *exact* copies of what the suites
//! used inline: several gates assert bit-identical behaviour across
//! runs, so the helpers must not drift per-suite.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

use noiselab_core::{
    run, ExecConfig, Mitigation, Model, Platform, RunArena, RunFailure, RunOutput, RunSpec,
};
use noiselab_injector::{CpuNoiseList, InjectPolicy, InjectionConfig, NoiseEventSpec};
use noiselab_kernel::{
    Action, FaultPlan, Kernel, KernelConfig, NoiseClass, Policy, ScriptBehavior, ThreadId,
    ThreadKind, ThreadSpec, TraceSink,
};
use noiselab_machine::{CpuId, CpuSet, Machine, PerfModel, WorkUnit};
use noiselab_sim::{SimDuration, SimTime};
use noiselab_workloads::{Babelstream, MiniFE, NBody, Workload};
use std::cell::RefCell;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Machines and kernel configs
// ---------------------------------------------------------------------

/// A quiet test machine: zero switch/migration/wake overheads, fast
/// ticks kept but with negligible IRQ cost so timing maths stays exact.
pub fn quiet_machine(cores: usize, smt: usize) -> Machine {
    Machine {
        name: "test".into(),
        cores,
        smt,
        perf: PerfModel {
            flops_per_ns: 1.0,
            smt_factor: 0.5,
            per_core_bw: 10.0,
            socket_bw: 20.0,
        },
        migration_cost: SimDuration::ZERO,
        ctx_switch: SimDuration::ZERO,
        wake_latency: SimDuration::ZERO,
        tick_period: SimDuration::from_millis(4),
        reserved_cpus: CpuSet::EMPTY,
        numa_domains: 1,
        dvfs: noiselab_machine::DvfsConfig::default(),
    }
}

/// Kernel config to pair with [`quiet_machine`]: tiny fixed-cost timer
/// IRQs and no softirqs, so per-thread timing is analytically checkable.
pub fn quiet_config() -> KernelConfig {
    KernelConfig {
        timer_irq_mean: SimDuration::from_nanos(200),
        timer_irq_sd: SimDuration::ZERO,
        softirq_prob: 0.0,
        ..KernelConfig::default()
    }
}

/// A quiet kernel at seed 1 — the scheduler behavioural suite's fixture.
pub fn quiet_kernel(cores: usize, smt: usize) -> Kernel {
    Kernel::new(quiet_machine(cores, smt), quiet_config(), 1)
}

/// A costed test machine: realistic migration/context-switch/wake
/// latencies, used by the tickless-equivalence and fault suites.
pub fn costed_machine(cores: usize, smt: usize) -> Machine {
    Machine {
        name: "t".into(),
        cores,
        smt,
        perf: PerfModel {
            flops_per_ns: 1.0,
            smt_factor: 0.5,
            per_core_bw: 10.0,
            socket_bw: 20.0,
        },
        migration_cost: SimDuration::from_nanos(500),
        ctx_switch: SimDuration::from_nanos(300),
        wake_latency: SimDuration::from_nanos(700),
        tick_period: SimDuration::from_millis(4),
        reserved_cpus: CpuSet::EMPTY,
        numa_domains: 1,
        dvfs: noiselab_machine::DvfsConfig::default(),
    }
}

/// Default kernel config with the tickless mode forced to `tickless`.
pub fn tickless_config(tickless: bool) -> KernelConfig {
    KernelConfig {
        tickless,
        ..KernelConfig::default()
    }
}

/// One run of `spec` through a fresh arena: the standalone reference
/// the suites compare ledgers, reused arenas and ablations against.
pub fn run_fresh(spec: &RunSpec) -> Result<RunOutput, RunFailure> {
    run(spec, &mut RunArena::default()).map(|r| r.output)
}

/// The common far-future run horizon.
pub fn horizon() -> SimTime {
    SimTime::from_secs_f64(100.0)
}

/// Spawn a thread that computes `flops` then exits.
pub fn spawn_compute(k: &mut Kernel, name: &str, flops: f64, policy: Policy) -> ThreadId {
    k.spawn(
        ThreadSpec::new(name, ThreadKind::Workload).policy(policy),
        Box::new(ScriptBehavior::new(vec![Action::Compute(
            WorkUnit::compute(flops),
        )])),
    )
}

// ---------------------------------------------------------------------
// Trace recording
// ---------------------------------------------------------------------

/// One recorded trace event: (cpu, class, source, start, duration).
pub type TraceTuple = (u32, NoiseClass, String, u64, u64);

/// A trace sink recording full event tuples for comparison across runs.
#[derive(Default)]
pub struct Recorder(pub Rc<RefCell<Vec<TraceTuple>>>);

impl TraceSink for Recorder {
    fn record(
        &mut self,
        cpu: CpuId,
        class: NoiseClass,
        source: &str,
        _tid: Option<ThreadId>,
        start: SimTime,
        duration: SimDuration,
    ) {
        self.0
            .borrow_mut()
            .push((cpu.0, class, source.to_string(), start.0, duration.nanos()));
    }
}

/// A fresh recorder plus the shared store it writes into, for
/// `kernel.attach_tracer(Box::new(recorder))` + later inspection.
pub fn recorder() -> (Recorder, Rc<RefCell<Vec<TraceTuple>>>) {
    let store = Rc::new(RefCell::new(Vec::new()));
    (Recorder(store.clone()), store)
}

// ---------------------------------------------------------------------
// Scripts
// ---------------------------------------------------------------------

/// The canonical two-phase barrier worker: compute, meet `bar`, compute
/// again. Used by the fault and tickless scenarios.
pub fn barrier_worker(
    bar: noiselab_kernel::BarrierId,
    pre: WorkUnit,
    post: WorkUnit,
) -> ScriptBehavior {
    ScriptBehavior::new(vec![
        Action::Compute(pre),
        Action::Barrier {
            id: bar,
            spin: SimDuration::from_micros(50),
        },
        Action::Compute(post),
    ])
}

// ---------------------------------------------------------------------
// Platforms, workloads and exec configs (full-stack suites)
// ---------------------------------------------------------------------

/// The paper's three platforms, labelled.
pub fn platforms() -> Vec<(&'static str, Platform)> {
    vec![
        ("intel", Platform::intel()),
        ("amd", Platform::amd()),
        ("a64fx", Platform::a64fx(false)),
    ]
}

/// Small-but-realistic N-body instance: long enough to span several
/// timer ticks, noise activations and migrations.
pub fn tiny_nbody(steps: usize) -> NBody {
    NBody {
        bodies: 4_096,
        steps,
        sycl_kernel_efficiency: 1.3,
    }
}

/// The equivalence-matrix N-body cell (smaller than [`tiny_nbody`]).
pub fn scaled_nbody() -> NBody {
    NBody {
        bodies: 2_048,
        steps: 2,
        sycl_kernel_efficiency: 1.3,
    }
}

/// Scaled-down instances of the paper's three core workloads — small
/// enough for a test matrix, long enough to span many timer ticks.
pub fn scaled_workloads() -> Vec<(&'static str, Box<dyn Workload + Sync>)> {
    vec![
        ("nbody", Box::new(scaled_nbody())),
        (
            "babelstream",
            Box::new(Babelstream {
                elements: 200_000,
                iterations: 3,
                ..Babelstream::default()
            }),
        ),
        (
            "minife",
            Box::new(MiniFE {
                nx: 16,
                cg_iterations: 6,
                ..MiniFE::default()
            }),
        ),
    ]
}

/// The default full-stack exec config: OpenMP under the RM mitigation.
pub fn omp_rm() -> ExecConfig {
    ExecConfig::new(Model::Omp, Mitigation::Rm)
}

/// ~5 % of runs lose one workload thread inside the first 2 ms — the
/// resilience gate's crash plan.
pub fn crashy_plan() -> FaultPlan {
    FaultPlan::crashy(0xC0FFEE, 0.05, 2)
}

/// A hand-written replay config: FIFO (IRQ-like) noise on CPU 0 and
/// fair thread noise on CPU 3, all inside the first 1.1 ms. The
/// stream-identity battery pins its injected cells with it.
pub fn small_injection() -> InjectionConfig {
    let event = |start_us: u64, dur_us: u64, policy, source: &str| NoiseEventSpec {
        start: SimTime::ZERO + SimDuration::from_micros(start_us),
        duration: SimDuration::from_micros(dur_us),
        policy,
        source: source.into(),
    };
    InjectionConfig {
        origin: "stream_identity".into(),
        anomaly_exec: SimDuration::from_millis(5),
        lists: vec![
            CpuNoiseList {
                cpu: CpuId(0),
                events: vec![
                    event(100, 40, InjectPolicy::Fifo, "irq/nvme"),
                    event(900, 250, InjectPolicy::Fifo, "irq/nvme"),
                ],
            },
            CpuNoiseList {
                cpu: CpuId(3),
                events: vec![event(300, 800, InjectPolicy::Other { nice: 0 }, "kworker")],
            },
        ],
    }
}

/// A scratch file under the OS temp dir, namespaced per suite.
pub fn tmp_path(suite: &str, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(suite);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_and_costed_machines_have_expected_shape() {
        let q = quiet_machine(4, 1);
        assert_eq!((q.cores, q.smt), (4, 1));
        assert_eq!(q.ctx_switch, SimDuration::ZERO);
        let c = costed_machine(4, 2);
        assert_eq!(c.ctx_switch, SimDuration::from_nanos(300));
        assert_eq!(c.migration_cost, SimDuration::from_nanos(500));
    }

    #[test]
    fn recorder_captures_tuples() {
        let (mut rec, store) = recorder();
        rec.record(
            CpuId(2),
            NoiseClass::Irq,
            "nic:1",
            None,
            SimTime(5),
            SimDuration::from_nanos(7),
        );
        assert_eq!(
            store.borrow().as_slice(),
            &[(2, NoiseClass::Irq, "nic:1".to_string(), 5, 7)]
        );
    }

    #[test]
    fn workload_matrix_is_complete() {
        assert_eq!(platforms().len(), 3);
        assert_eq!(scaled_workloads().len(), 3);
        assert!(crashy_plan().abort.is_some());
    }
}
