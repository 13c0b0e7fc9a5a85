//! # noiselab-core
//!
//! The experiment harness tying the stack together: evaluation
//! [`platform`]s, execution configurations ([`execconfig`]: model ×
//! mitigation × SMT), the run [`harness`] (baseline / traced /
//! injected / faulted), the typed run-[`failure`] taxonomy, the
//! checkpointed [`campaign`] driver, the dual-run [`divergence`]
//! bisector behind the determinism contract, and the per-table
//! experiment definitions in [`experiments`].

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::ref_as_ptr)]

pub mod campaign;
pub mod divergence;
pub mod durable;
pub mod execconfig;
pub mod experiments;
pub mod failure;
pub mod harness;
pub mod overhead;
pub mod platform;

pub use campaign::{
    cell_seed, render_campaign_report, run_campaign, run_cell, CampaignError, CampaignPlan,
    CampaignReport, CampaignState, CellKey, CellRecord, CellReport, CheckpointError, FailureRecord,
    QuarantineRecord, CHECKPOINT_SCHEMA,
};
pub use divergence::{
    dual_run, dual_run_harness, DivergenceReport, DivergentEvent, DualRunOutcome, StreamRunner,
    DEFAULT_CADENCE,
};
pub use execconfig::{ExecConfig, Mitigation, Model};
pub use failure::{RetryPolicy, RunFailure};
pub use harness::{
    measured, run, run_baseline, run_batch, run_many, seeds_fit, Baseline, Injected,
    InstrumentedRun, RunLedger, RunOutput, RunRecord, RunSpec,
};
pub use overhead::{measure_overhead, OverheadReport, OverheadRow};
pub use platform::Platform;
