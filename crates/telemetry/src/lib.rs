//! # noiselab-telemetry
//!
//! The observability subsystem: deterministic virtual-time telemetry
//! with zero overhead when disabled.
//!
//! * [`Telemetry`] / [`recorder`] — a pure
//!   [`noiselab_kernel::KernelObserver`] that turns scheduling records
//!   into structured spans (one timeline track per logical CPU),
//!   instants and runqueue-depth counter samples. Attaching it never
//!   changes the simulation; the purity property test in
//!   `noiselab-core` proves bit-identical `stream_hash` with telemetry
//!   on vs. off.
//! * [`metrics`] — a registry of named counters, gauges and
//!   log2-bucketed histograms, snapshotted per run into `RunOutput`
//!   and merged exactly per campaign cell.
//! * [`chrome`] — Chrome trace-event JSON export, loadable in Perfetto
//!   (ui.perfetto.dev) and chrome://tracing.
//! * [`binary`] — a compact self-describing binary timeline format
//!   with a golden-fixture-tested decoder.
//! * [`profile`] — host-time phase profiling of the simulator itself,
//!   routed through the workspace's single audited [`wall_clock`]
//!   site.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod binary;
pub mod chrome;
pub mod metrics;
pub mod profile;
pub mod recorder;

pub use binary::{decode, encode, BinaryTrace, DecodeError};
pub use chrome::chrome_trace;
pub use metrics::{CounterEntry, GaugeEntry, HistEntry, MetricsRegistry, MetricsSnapshot};
pub use profile::{wall_clock, PhaseProfiler, PhaseReport, PhaseRow};
pub use recorder::{
    CounterSample, FreqSample, InstantMark, Span, SpanCat, Telemetry, TelemetryConfig,
    TelemetryReport,
};
