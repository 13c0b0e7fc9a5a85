//! # noiselab-machine
//!
//! The hardware model under the simulated OS: CPU topology with SMT
//! ([`machine`]), affinity masks ([`cpuset`]), a roofline execution-rate
//! model ([`perf`]) and max-min fair bandwidth sharing ([`waterfill`]).
//!
//! Three platform presets mirror the paper's testbeds: the AMD Ryzen
//! 9950X3D and Intel i7-9700KF desktops used for all evaluation tables,
//! and the two A64FX systems (with and without firmware-reserved OS
//! cores) behind the motivation figures.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod cpuset;
pub mod dvfs;
pub mod machine;
pub mod perf;
pub mod waterfill;

pub use cpuset::{CpuId, CpuSet};
pub use dvfs::{DvfsConfig, FreqLevel, Governor};
pub use machine::Machine;
pub use perf::{PerfModel, SoloProfile, WorkUnit};
pub use waterfill::{waterfill, waterfill_into};
