//! # noiselab-kernel
//!
//! A deterministic simulated OS kernel. It provides exactly the
//! mechanisms the paper's noise-injection methodology exercises on real
//! Linux:
//!
//! * two scheduling classes — a CFS-like fair class (`SCHED_OTHER`, nice
//!   weights, vruntime preemption) and a FIFO real-time class
//!   (`SCHED_FIFO`, strict priority, no throttling);
//! * per-CPU runqueues with wake placement (idle-CPU preference — this is
//!   how housekeeping cores absorb unpinned noise), idle load balancing
//!   and migration costs;
//! * periodic timer interrupts with softirq follow-ons, the base layer of
//!   OS noise;
//! * SMT contention and max-min-fair memory-bandwidth sharing via the
//!   roofline model of `noiselab-machine`;
//! * barriers with spin-then-block semantics, the building block of the
//!   OpenMP- and SYCL-style runtimes;
//! * trace hooks reporting every interference interval (IRQ, softirq,
//!   foreign thread) to an attached sink — the substrate for the
//!   `osnoise`-style tracer in `noiselab-noise`.
//!
//! Simulated programs are [`action::Behavior`] state machines; no host
//! threads are involved, so a run is a pure function of its seed.
//!
//! ```
//! use noiselab_kernel::{Action, Kernel, KernelConfig, ScriptBehavior, ThreadKind, ThreadSpec};
//! use noiselab_machine::{Machine, WorkUnit};
//! use noiselab_sim::SimTime;
//!
//! let mut kernel = Kernel::new(Machine::intel_9700kf(), KernelConfig::default(), 42);
//! let tid = kernel.spawn(
//!     ThreadSpec::new("worker", ThreadKind::Workload),
//!     Box::new(ScriptBehavior::new(vec![Action::Compute(WorkUnit::compute(3.0e7))])),
//! );
//! let end = kernel.run_until_exit(tid, SimTime::from_secs_f64(1.0)).unwrap();
//! // 30 Mflops at 30 flops/ns: about a millisecond, plus timer-IRQ noise.
//! assert!((0.0009..0.0012).contains(&end.as_secs_f64()));
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::ref_as_ptr)]

pub mod action;
pub mod config;
pub mod cpu;
pub mod dvfs;
pub mod fault;
pub mod ids;
pub mod kernel;
pub mod observe;
pub mod policy;
mod rates;
pub mod sanitize;
pub mod thread;
pub mod trace;
pub mod wire;

pub use action::{Action, Behavior, Ctx, FnBehavior, ScriptBehavior};
pub use config::KernelConfig;
pub use dvfs::{DvfsRuntime, DvfsSummary};
pub use fault::{CpuStallSpec, FaultPlan, FaultStats, SpuriousIrqSpec, ThreadAbortSpec};
pub use ids::{BarrierId, ThreadId};
pub use kernel::{Kernel, KernelStorage, RunError, ThreadSpec};
pub use observe::{DecisionPoint, HostProfiler, KernelObserver, Phase, SchedRecord};
pub use policy::Policy;
pub use rates::RateCounts;
pub use sanitize::{
    EventKind, EventRecord, EventSanitizer, HashCheckpoint, LoggedEvent, SanitizerConfig,
    SanitizerReport,
};
pub use thread::{ThreadKind, ThreadState};
pub use trace::{NoiseClass, TraceSink};
pub use wire::{InternTable, WireRecord, WIRE_NO_THREAD, WIRE_RECORD_BYTES};
