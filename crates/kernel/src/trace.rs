//! Tracing hooks.
//!
//! The kernel reports every interference interval to an attached
//! [`TraceSink`]; the `noiselab-noise` crate implements the full
//! `osnoise`-style tracer on top of this. Keeping only a thin trait here
//! avoids a dependency cycle (kernel → noise).

use crate::ids::ThreadId;
use noiselab_machine::CpuId;
use noiselab_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Classification matching the `osnoise` event types (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NoiseClass {
    /// Hardware interrupt service (e.g. `local_timer:236`).
    Irq,
    /// Softirq service (e.g. `RCU:9`, `SCHED:7`).
    Softirq,
    /// A non-workload thread occupying the CPU (e.g. `kworker/13:1`).
    Thread,
}

/// Receives interference events from the kernel.
pub trait TraceSink {
    /// An interference interval ended: `source` ran on `cpu` from `start`
    /// for `duration`, stealing that time from whatever workload thread
    /// was (or would have been) there. `tid` is set for thread noise.
    fn record(
        &mut self,
        cpu: CpuId,
        class: NoiseClass,
        source: &str,
        tid: Option<ThreadId>,
        start: SimTime,
        duration: SimDuration,
    );
}
