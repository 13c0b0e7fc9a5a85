//! # noiselab-noise
//!
//! OS-noise modelling for the simulated kernel:
//!
//! * [`sources`] — the natural background activity of a running system
//!   (kworkers, daemons, GUI, rare anomalies), parameterised per
//!   platform by [`NoiseProfile`];
//! * [`tracer`] — an `osnoise`-style tracer ([`OsNoiseTracer`])
//!   recording every interference interval the kernel reports;
//! * [`trace`] — the trace data model ([`RunTrace`], [`TraceSet`]) the
//!   injector pipeline consumes, serialisable to JSON.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::ref_as_ptr)]

pub mod analysis;
pub mod sources;
pub mod trace;
pub mod tracer;

pub use sources::{
    install, AnomalyKind, AnomalySpec, DaemonSpec, InstalledNoise, KworkerSpec, NoiseProfile,
};
pub use trace::{RunTrace, TraceEvent, TraceSet};
pub use tracer::{OsNoiseTracer, TraceBuffer, DEFAULT_TRACE_CAPACITY};
