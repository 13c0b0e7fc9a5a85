//! Serializable campaign identity. A [`CampaignSpec`] names platform
//! and workload *by string* so it can cross a process boundary: the
//! supervisor writes it into the queue manifest, every worker re-reads
//! it and resolves the same [`noiselab_core::Platform`] and workload
//! instance through the shared `by_name` tables. The derived
//! [`noiselab_core::CampaignPlan`] fingerprint therefore agrees on both
//! sides, and a worker can never execute a cell under a different
//! interpretation of "intel" or "nbody" than the supervisor hashed.

use noiselab_core::experiments::suite;
use noiselab_core::{cell_seed, seeds_fit, CampaignPlan, ExecConfig, Platform, RetryPolicy};
use noiselab_kernel::FaultPlan;
use noiselab_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One campaign cell: a display label plus the execution config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    pub label: String,
    pub config: ExecConfig,
}

/// The full, self-contained description of a sharded campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Platform preset name ([`Platform::NAMES`]).
    pub platform: String,
    /// Workload name ([`suite::WORKLOAD_NAMES`]).
    pub workload: String,
    pub cells: Vec<CellSpec>,
    pub runs_per_cell: usize,
    pub seed_base: u64,
    pub faults: Option<FaultPlan>,
    pub retry: RetryPolicy,
}

/// A spec that named an unknown platform or workload, carries a fault
/// plan that fails [`FaultPlan::validate`], or runs seeds past
/// `u64::MAX`.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    UnknownPlatform(String),
    UnknownWorkload(String),
    InvalidFaults(String),
    SeedOverflow {
        seed_base: u64,
        cells: usize,
        runs_per_cell: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownPlatform(name) => write!(
                f,
                "unknown platform {name:?} (expected one of {})",
                Platform::NAMES.join(", ")
            ),
            SpecError::UnknownWorkload(name) => write!(
                f,
                "unknown workload {name:?} (expected one of {})",
                suite::WORKLOAD_NAMES.join(", ")
            ),
            SpecError::InvalidFaults(why) => write!(f, "invalid fault plan: {why}"),
            SpecError::SeedOverflow {
                seed_base,
                cells,
                runs_per_cell,
            } => write!(
                f,
                "--seed {seed_base}: {cells} cells of {runs_per_cell} runs from it \
                 run past the largest seed, {}",
                u64::MAX
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// The heavyweight objects a spec's names resolve to, owned so a
/// [`CampaignPlan`] can borrow them.
pub struct ResolvedCampaign {
    pub platform: Platform,
    pub workload: Box<dyn Workload + Sync>,
}

impl fmt::Debug for ResolvedCampaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResolvedCampaign")
            .field("platform", &self.platform.label())
            .field("workload", &self.workload.name())
            .finish()
    }
}

impl CampaignSpec {
    /// Resolve the platform/workload names to concrete instances and
    /// check the fault plan and the seed range, so a worker never runs
    /// a manifest that was edited into nonsense.
    pub fn resolve(&self) -> Result<ResolvedCampaign, SpecError> {
        if let Some(faults) = &self.faults {
            faults.validate().map_err(SpecError::InvalidFaults)?;
        }
        let runs = self.cells.len().checked_mul(self.runs_per_cell);
        let runs = runs.and_then(|n| u64::try_from(n).ok());
        if !runs.is_some_and(|n| seeds_fit(self.seed_base, n)) {
            return Err(SpecError::SeedOverflow {
                seed_base: self.seed_base,
                cells: self.cells.len(),
                runs_per_cell: self.runs_per_cell,
            });
        }
        let platform = Platform::by_name(&self.platform)
            .ok_or_else(|| SpecError::UnknownPlatform(self.platform.clone()))?;
        let workload = suite::workload_by_name(&platform, &self.workload)
            .ok_or_else(|| SpecError::UnknownWorkload(self.workload.clone()))?;
        Ok(ResolvedCampaign { platform, workload })
    }

    /// The single-process plan equivalent to this spec. Workers run
    /// cells through exactly this plan, so `plan.fingerprint()` and
    /// every per-cell seed agree across all processes of a campaign.
    pub fn plan<'a>(&self, resolved: &'a ResolvedCampaign) -> CampaignPlan<'a> {
        CampaignPlan {
            platform: &resolved.platform,
            workload: resolved.workload.as_ref(),
            cells: self
                .cells
                .iter()
                .map(|c| (c.label.clone(), c.config.clone()))
                .collect(),
            runs_per_cell: self.runs_per_cell,
            seed_base: self.seed_base,
            faults: self.faults.clone(),
            retry: self.retry,
            checkpoint: None,
            limit: None,
            verify_resume: false,
        }
    }

    /// The campaign fingerprint (the v2 contract string from the
    /// single-process driver), via name resolution.
    pub fn fingerprint(&self) -> Result<String, SpecError> {
        let resolved = self.resolve()?;
        Ok(self.plan(&resolved).fingerprint())
    }

    /// First seed of cell `i`, identical to the single-process driver's
    /// derivation: fixed by position, independent of execution order.
    pub fn cell_seed(&self, i: usize) -> u64 {
        cell_seed(self.seed_base, self.runs_per_cell, i)
            .expect("seed range overflows u64; CampaignSpec::resolve refuses it")
    }
}

/// A milliseconds-scale 4-cell spec shared by the unit tests of every
/// campaignd module.
#[cfg(test)]
pub(crate) fn tiny_spec() -> CampaignSpec {
    use noiselab_core::{Mitigation, Model};
    let cells = [Model::Omp, Model::Sycl]
        .iter()
        .flat_map(|&m| {
            [Mitigation::Rm, Mitigation::Tp]
                .iter()
                .map(move |&mit| ExecConfig::new(m, mit))
        })
        .map(|cfg| CellSpec {
            label: cfg.label(),
            config: cfg,
        })
        .collect();
    CampaignSpec {
        platform: "intel".into(),
        workload: "nbody-tiny".into(),
        cells,
        runs_per_cell: 2,
        seed_base: 42,
        faults: None,
        retry: RetryPolicy::none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn spec_round_trips_and_fingerprint_matches_plan() {
        let spec = tiny_spec();
        let text = serde_json::to_string_pretty(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec, back);
        let resolved = spec.resolve().unwrap();
        let fp = spec.plan(&resolved).fingerprint();
        assert_eq!(spec.fingerprint().unwrap(), fp);
        assert!(fp.starts_with("v2|"), "{fp}");
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let mut spec = tiny_spec();
        spec.platform = "riscv".into();
        let err = spec.resolve().unwrap_err();
        assert!(matches!(err, SpecError::UnknownPlatform(_)));
        assert!(err.to_string().contains("intel"), "{err}");
        let mut spec = tiny_spec();
        spec.workload = "hpl".into();
        let err = spec.resolve().unwrap_err();
        assert!(err.to_string().contains("nbody"), "{err}");
        let mut spec = tiny_spec();
        spec.faults = Some(FaultPlan::crashy(1, 1.5, 2));
        let err = spec.resolve().unwrap_err();
        assert!(matches!(err, SpecError::InvalidFaults(_)), "{err}");
        assert!(err.to_string().contains("not a probability"), "{err}");
    }

    #[test]
    fn a_seed_range_past_u64_max_is_refused() {
        // 4 cells x 2 runs: seeds seed_base..seed_base + 8.
        let mut spec = tiny_spec();
        spec.seed_base = u64::MAX - 7;
        assert!(spec.resolve().is_ok(), "the last seed is u64::MAX");
        spec.seed_base = u64::MAX - 6;
        let err = spec.resolve().unwrap_err();
        assert!(matches!(err, SpecError::SeedOverflow { .. }), "{err}");
        assert!(
            err.to_string().starts_with("--seed 18446744073709551609:"),
            "{err}"
        );
        let mut spec = tiny_spec();
        spec.runs_per_cell = usize::MAX;
        assert!(matches!(
            spec.resolve().unwrap_err(),
            SpecError::SeedOverflow { .. }
        ));
    }

    #[test]
    fn cell_seeds_are_position_fixed() {
        let spec = tiny_spec();
        assert_eq!(spec.cell_seed(0), 42);
        assert_eq!(spec.cell_seed(3), 42 + 6);
    }
}
