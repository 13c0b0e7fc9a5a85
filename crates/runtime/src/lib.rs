//! # noiselab-runtime
//!
//! Models of the two parallel programming systems the paper compares,
//! built on the simulated kernel:
//!
//! * [`omp`] — OpenMP-style fork-join regions with static / dynamic /
//!   guided schedules, near-zero dispatch cost and long barrier spins;
//! * [`sycl`] — SYCL-style in-order queues whose kernels decompose into
//!   dynamically dispatched work-groups, with per-kernel submission
//!   latency and per-work-group overhead.
//!
//! Both are thin front ends over the shared SPMD [`team`] engine; the
//! difference in noise resilience the paper measures falls out of the
//! chunking policy and overhead parameters, not from special-casing.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod omp;
pub mod program;
pub mod sycl;
pub mod team;

pub use program::{ChunkPolicy, Phase, Program, RuntimeParams, WorkFn};
pub use team::{spawn_team, TeamHandle, TeamOptions};
