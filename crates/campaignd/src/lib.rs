//! # noiselab-campaignd
//!
//! Crash-tolerant sharded campaign engine. A campaign's (cell × seed)
//! space is partitioned into independently checkpointed [`shard`]s and
//! executed by OS worker processes (the `noiselab` binary re-invoked
//! with the hidden `campaign-worker` subcommand) that claim shards from
//! an on-disk work [`queue`] guarded by lease files, stream per-cell
//! progress to the [`supervisor`] over a stdout frame [`proto`]col, and
//! are supervised with heartbeats, per-shard wall-clock timeouts,
//! bounded retry-with-backoff and quarantine. A deterministic
//! [`merge`] folds the shard ledgers back into one
//! [`noiselab_core::CampaignState`], re-verifying every shard's stream
//! hashes against its fingerprint, so a sharded campaign — crashes,
//! retries and all — is bit-identical to the single-process driver.
//!
//! Everything a worker computes is a pure function of the campaign
//! [`spec::CampaignSpec`]; the filesystem only decides *who* computes
//! *when*. That is the whole trick: supervision can be as messy as
//! reality requires while the measurement stays exactly reproducible.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod merge;
pub mod proto;
pub mod queue;
pub mod shard;
pub mod spec;
pub mod supervisor;
pub mod worker;

pub use merge::{merge_queue, merged_metrics, state_hash, MergeError};
pub use proto::{frame, parse_frame, FrameError, WorkerMsg, FRAME_PREFIX};
pub use queue::{QuarantineNote, QueueError, QueueManifest, QueueStatus, WorkQueue, QUEUE_SCHEMA};
pub use shard::{IndexedCell, ShardResult, ShardSpec};
pub use spec::{CampaignSpec, CellSpec, ResolvedCampaign, SpecError};
pub use supervisor::{run_supervised, SupervisedReport, SupervisorConfig};
pub use worker::{worker_main, WorkerConfig, CRASH_SHARD_ENV};
