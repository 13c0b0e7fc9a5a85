//! # noiselab
//!
//! Facade crate re-exporting the full noiselab public API. See the
//! individual crates for details; `noiselab_core::prelude` is the usual
//! entry point.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::ref_as_ptr)]

pub use noiselab_advise as advise;
pub use noiselab_campaignd as campaignd;
pub use noiselab_conform as conform;
pub use noiselab_core as core;
pub use noiselab_injector as injector;
pub use noiselab_kernel as kernel;
pub use noiselab_machine as machine;
pub use noiselab_noise as noise;
pub use noiselab_runtime as runtime;
pub use noiselab_sim as sim;
pub use noiselab_stats as stats;
pub use noiselab_telemetry as telemetry;
pub use noiselab_workloads as workloads;
