//! OpenMP-style runtime model.
//!
//! Mirrors the behaviour of a libgomp-class CPU runtime as it matters to
//! noise resilience: near-zero dispatch cost, `schedule(static)` by
//! default (one contiguous block per thread — a single delayed thread
//! stalls the whole team at the implicit region barrier), cheap fork/
//! join between regions, and aggressive active spinning at barriers
//! (`OMP_WAIT_POLICY` unset behaviour).
//!
//! ```
//! use noiselab_kernel::{Kernel, KernelConfig};
//! use noiselab_machine::{Machine, WorkUnit};
//! use noiselab_runtime::omp::{default_params, OmpProgram, OmpSchedule};
//! use noiselab_runtime::{spawn_team, TeamOptions};
//! use noiselab_sim::SimTime;
//! use std::rc::Rc;
//!
//! let machine = Machine::intel_9700kf();
//! let mut kernel = Kernel::new(machine.clone(), KernelConfig::default(), 7);
//! let mut program = OmpProgram::new();
//! program.parallel_for(
//!     "saxpy",
//!     1 << 20,
//!     Some(OmpSchedule::Static { chunk: None }),
//!     Rc::new(|_, n| WorkUnit::new(n as f64 * 2.0, n as f64 * 12.0)),
//! );
//! let team = spawn_team(
//!     &mut kernel,
//!     program.build(),
//!     TeamOptions {
//!         nthreads: 8,
//!         affinities: vec![machine.all_cpus()],
//!         params: default_params(),
//!         start_barrier: None,
//!         name_prefix: "omp".into(),
//!         start: SimTime::ZERO,
//!     },
//! );
//! let end = kernel.run_until_exit(team.main(), SimTime::from_secs_f64(1.0)).unwrap();
//! assert!(end.as_secs_f64() < 0.01);
//! ```

use crate::program::{ChunkPolicy, Phase, Program, RuntimeParams, WorkFn};
use noiselab_sim::SimDuration;

/// OpenMP `schedule(...)` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum OmpSchedule {
    /// `schedule(static)` / `schedule(static, chunk)`.
    Static { chunk: Option<usize> },
    /// `schedule(dynamic, chunk)`.
    Dynamic { chunk: usize },
    /// `schedule(guided, min_chunk)`.
    Guided { min_chunk: usize },
}

impl Default for OmpSchedule {
    fn default() -> Self {
        OmpSchedule::Static { chunk: None }
    }
}

impl OmpSchedule {
    fn to_policy(self) -> ChunkPolicy {
        match self {
            OmpSchedule::Static { chunk } => ChunkPolicy::Static { chunk },
            OmpSchedule::Dynamic { chunk } => ChunkPolicy::Dynamic { chunk },
            OmpSchedule::Guided { min_chunk } => ChunkPolicy::Guided { min_chunk },
        }
    }
}

/// Runtime overheads of the modelled OpenMP implementation (GCC libgomp
/// on the paper's platforms).
pub fn default_params() -> RuntimeParams {
    RuntimeParams {
        // Dynamic-schedule bookkeeping per chunk; static pays it too but
        // with one chunk per region it is negligible.
        chunk_overhead: SimDuration::from_nanos(120),
        // Fork/join of a parallel region with a warm thread pool.
        phase_gap: SimDuration::from_micros(2),
        // libgomp busy-waits substantially before sleeping.
        barrier_spin: SimDuration::from_micros(300),
        startup: SimDuration::from_micros(30),
    }
}

/// Builder assembling an OpenMP program as a sequence of
/// `#pragma omp parallel for` regions.
#[derive(Default)]
pub struct OmpProgram {
    program: Program,
    default_schedule: OmpSchedule,
}

impl OmpProgram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the schedule used when a region does not specify one
    /// (`OMP_SCHEDULE`).
    pub fn with_default_schedule(mut self, s: OmpSchedule) -> Self {
        self.default_schedule = s;
        self
    }

    /// Append a `parallel for` region over `items` iterations.
    pub fn parallel_for(
        &mut self,
        name: impl Into<String>,
        items: usize,
        schedule: Option<OmpSchedule>,
        work: WorkFn,
    ) -> &mut Self {
        let schedule = schedule.unwrap_or(self.default_schedule);
        self.program.push(Phase {
            name: name.into(),
            items,
            policy: schedule.to_policy(),
            work,
        });
        self
    }

    pub fn build(self) -> Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noiselab_machine::WorkUnit;
    use std::rc::Rc;

    #[test]
    fn builder_accumulates_regions() {
        let mut b = OmpProgram::new();
        b.parallel_for("a", 100, None, Rc::new(|_, n| WorkUnit::compute(n as f64)));
        b.parallel_for(
            "b",
            200,
            Some(OmpSchedule::Dynamic { chunk: 8 }),
            Rc::new(|_, n| WorkUnit::stream(n as f64)),
        );
        let p = b.build();
        assert_eq!(p.phases.len(), 2);
        assert_eq!(p.phases[0].policy, ChunkPolicy::Static { chunk: None });
        assert_eq!(p.phases[1].policy, ChunkPolicy::Dynamic { chunk: 8 });
    }

    #[test]
    fn default_schedule_applies() {
        let mut b = OmpProgram::new().with_default_schedule(OmpSchedule::Guided { min_chunk: 4 });
        b.parallel_for("a", 100, None, Rc::new(|_, n| WorkUnit::compute(n as f64)));
        let p = b.build();
        assert_eq!(p.phases[0].policy, ChunkPolicy::Guided { min_chunk: 4 });
    }
}
