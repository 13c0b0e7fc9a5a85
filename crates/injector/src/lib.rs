//! # noiselab-injector
//!
//! The paper's noise injector, end to end:
//!
//! 1. **System trace collection** is done by running workloads with the
//!    tracer of `noiselab-noise` attached (driven by the harness in
//!    `noiselab-core`);
//! 2. **Noise configuration generation** ([`generate`]) turns a
//!    [`noiselab_noise::TraceSet`] into an [`InjectionConfig`]: average
//!    inherent noise is computed per source, subtracted from the
//!    worst-case trace (the "delta" refinement of paper Fig. 4), events
//!    are mapped to replay policies and merged per CPU — with both the
//!    original pessimistic and the improved merge strategy of §5.2;
//! 3. **Noise injection** ([`replay`]) spawns one affinity-free process
//!    per configured CPU that synchronises with the workload on a start
//!    barrier and replays its event list under the configured policies
//!    (paper Listing 1);
//! 4. **Accuracy** ([`accuracy`]) computes the replication error metric
//!    of paper Table 7.
//!
//! ```
//! use noiselab_injector::{generate, GeneratorOptions};
//! use noiselab_kernel::NoiseClass;
//! use noiselab_machine::CpuId;
//! use noiselab_noise::{RunTrace, TraceEvent, TraceSet};
//! use noiselab_sim::{SimDuration, SimTime};
//!
//! // Four quiet traced runs plus one carrying a 5 ms anomaly burst.
//! let event = |source: &str, start: u64, dur: u64| TraceEvent {
//!     cpu: CpuId(0),
//!     class: NoiseClass::Thread,
//!     source: source.into(),
//!     start: SimTime(start),
//!     duration: SimDuration(dur),
//! };
//! let quiet = |i: usize| RunTrace::new(
//!     i,
//!     SimDuration(1_000_000),
//!     vec![event("kworker/0:1", 10_000, 20_000)],
//! );
//! let worst = RunTrace::new(
//!     4,
//!     SimDuration(6_000_000),
//!     vec![
//!         event("kworker/0:1", 10_000, 20_000),
//!         event("update-storm", 50_000, 5_000_000),
//!     ],
//! );
//! let traces = TraceSet { runs: vec![quiet(0), quiet(1), quiet(2), quiet(3), worst] };
//! let config = generate("doc", &traces, &GeneratorOptions::default()).unwrap();
//! // The recurring kworker noise is subtracted as inherent (it will
//! // reoccur naturally during injection); only the anomaly delta stays.
//! assert_eq!(config.event_count(), 1);
//! assert_eq!(config.total_noise(), SimDuration(5_000_000));
//! assert_eq!(config.anomaly_exec, SimDuration(6_000_000));
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod accuracy;
pub mod config;
pub mod generate;
pub mod replay;

pub use accuracy::{mean_accuracy, replication_accuracy, replication_error};
pub use config::{CpuNoiseList, InjectPolicy, InjectionConfig, NoiseEventSpec};
pub use generate::{
    build_config, generate, source_statistics, subtract_average, GeneratorOptions, MergeStrategy,
    SourceStats,
};
pub use replay::{spawn_injectors, InjectorProcess};
