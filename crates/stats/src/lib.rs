//! # noiselab-stats
//!
//! Statistics ([`Summary`]: mean, sample s.d., percentiles, relative
//! change) and plain-text table rendering used by the experiment
//! harness and benches to reproduce the paper's tables.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod bootstrap;
pub mod hist;
pub mod summary;
pub mod table;

pub use bootstrap::{
    bootstrap_ci, mad, mann_whitney_u, median, normal_cdf, BootstrapCi, RankSum, SplitMix64,
};
pub use hist::{fmt_ns, Log2Hist, LOG2_BUCKETS};
pub use summary::{percentile, percentile_sorted, Summary};
pub use table::{fmt_ms, fmt_pct, fmt_secs, TextTable};
