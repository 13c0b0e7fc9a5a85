//! # noiselab-workloads
//!
//! The paper's benchmarks and mini-application, each in two layers:
//!
//! * a **cost model** that expresses the workload as a [`Program`] of
//!   parallel phases (per-item flops and memory traffic), consumed by
//!   the simulated OpenMP/SYCL runtimes;
//! * a **reference implementation** — real numerics (all-pairs N-body,
//!   STREAM kernels with BabelStream's solution check, sparse CG on a
//!   27-point operator) verifying that the modelled workloads correspond
//!   to correct programs.
//!
//! Workloads: [`NBody`] (compute-bound), [`Babelstream`]
//! (bandwidth-bound), [`MiniFE`] (mixed, reduction-heavy) and
//! [`SchedBench`] (the motivation-figure microbenchmark).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod babelstream;
pub mod fwq;
pub mod minife;
pub mod nbody;
pub mod schedbench;

use noiselab_runtime::omp::OmpSchedule;
use noiselab_runtime::Program;

pub use babelstream::{Babelstream, Kernel};
pub use fwq::{Fwq, FwqReport};
pub use minife::MiniFE;
pub use nbody::NBody;
pub use schedbench::SchedBench;

/// A benchmark that can be lowered to programs for both runtime models.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Lower to an OpenMP-style program. `schedule = None` uses the
    /// workload's default (static, as in the paper's benchmarks).
    fn omp_program(&self, nthreads: usize, schedule: Option<OmpSchedule>) -> Program;

    /// Lower to a SYCL-style program for a pool of `nthreads` workers.
    fn sycl_program(&self, nthreads: usize) -> Program;
}
