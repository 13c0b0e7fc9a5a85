//! # noiselab-sim
//!
//! Deterministic discrete-event simulation primitives used by every other
//! noiselab crate: virtual [`time`], a stable-ordered [`event`] queue with
//! keyed timers, and a self-contained seeded [`rng`].
//!
//! Nothing in this crate knows about CPUs, schedulers or noise — it is the
//! minimal kernel of determinism the paper's "reproducible evaluation"
//! claim rests on: given the same seed, a simulation replays the exact
//! same event sequence.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::ref_as_ptr)]

pub mod event;
pub mod rng;
pub mod time;

pub use event::{EventQueue, Fired};
pub use rng::Rng;
pub use time::{SimDuration, SimTime, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC};
