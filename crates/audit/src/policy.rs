//! Per-crate audit policy: which crates are under the determinism
//! contract, which of their directories the taint pass sweeps, and
//! which taint rules apply there.
//!
//! The table is deliberately explicit — adding a crate to the workspace
//! does not silently put it under (or outside) the contract; someone
//! has to write the policy row and the reviewer sees it. The API bans
//! for the same crates are clippy lints: the lists in
//! `crates/clippy.toml` and the lint levels on each crate's root file.

use crate::rules::RuleId;

/// Policy row for one crate.
#[derive(Debug, Clone)]
pub struct CratePolicy {
    /// Crate name as it appears in diagnostics.
    pub name: &'static str,
    /// Workspace-relative crate directory.
    pub root: &'static str,
    /// Crate-relative directories swept (recursively).
    pub dirs: &'static [&'static str],
    /// Taint rules enforced for sinks in this crate.
    pub rules: &'static [RuleId],
}

/// The bench crate's whole purpose is feeding wall-clock durations
/// into reports, so the wall-clock taint rule is off there; the other
/// taint flows stay banned.
const BENCH_RULES: &[RuleId] = &[
    RuleId::TaintHashOrder,
    RuleId::TaintAddr,
    RuleId::TaintEnv,
    RuleId::TaintRelaxed,
    RuleId::TaintFloatOrder,
    RuleId::TaintThreadId,
];

/// A fully deterministic crate: every rule, over `src/`.
const fn contract(name: &'static str, root: &'static str) -> CratePolicy {
    CratePolicy {
        name,
        root,
        dirs: &["src"],
        rules: &RuleId::ALL,
    }
}

/// The determinism contract: the crates whose simulated results must be
/// a pure function of the seed, plus the bench crate's narrower sweep.
/// The advisor, the conformance suite, the campaign engine and the
/// analyzer itself are on it too: their outputs must be byte-stable
/// across runs and file-visit orders.
pub const POLICIES: &[CratePolicy] = &[
    contract("noiselab-sim", "crates/sim"),
    contract("noiselab-machine", "crates/machine"),
    contract("noiselab-kernel", "crates/kernel"),
    contract("noiselab-noise", "crates/noise"),
    contract("noiselab-injector", "crates/injector"),
    contract("noiselab-runtime", "crates/runtime"),
    contract("noiselab-workloads", "crates/workloads"),
    contract("noiselab-stats", "crates/stats"),
    contract("noiselab-advise", "crates/advise"),
    contract("noiselab-core", "crates/core"),
    contract("noiselab-telemetry", "crates/telemetry"),
    contract("noiselab-conform", "crates/conform"),
    contract("noiselab-testutil", "crates/testutil"),
    CratePolicy {
        name: "noiselab-bench",
        root: "crates/bench",
        dirs: &["src", "benches"],
        rules: BENCH_RULES,
    },
    contract("noiselab-campaignd", "crates/campaignd"),
    contract("noiselab-audit", "crates/audit"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// The lint levels behind the `unsafe`/`static mut` and library
    /// `.unwrap()` bans sit on every contract crate's root file.
    /// Dropping one would silently lift the ban for a whole crate, so
    /// their presence is checked here rather than left to review.
    #[test]
    fn every_contract_root_carries_its_lint_levels() {
        let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for p in POLICIES {
            let root_file = workspace.join(p.root).join("src/lib.rs");
            let src = std::fs::read_to_string(&root_file)
                .unwrap_or_else(|e| panic!("{}: {e}", root_file.display()));
            let has = |attr: &str| src.lines().any(|l| l.trim() == attr);
            assert!(
                has("#![forbid(unsafe_code)]"),
                "{}: missing #![forbid(unsafe_code)]",
                p.root
            );
            assert_eq!(
                has("#![deny(clippy::unwrap_used)]"),
                p.name != "noiselab-bench",
                "{}: #![deny(clippy::unwrap_used)] belongs on every root but the bench crate's",
                p.root
            );
        }
    }
}
