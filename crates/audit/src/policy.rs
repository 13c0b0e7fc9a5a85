//! Per-crate audit policy: which crates are under the determinism
//! contract, which of their directories are swept, which rules apply,
//! and which files are approved exceptions.
//!
//! The table is deliberately explicit — adding a crate to the workspace
//! does not silently put it under (or outside) the contract; someone
//! has to write the policy row and the reviewer sees it.

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
    /// Rules enforced in this crate.
    pub rules: &'static [RuleId],
    /// Crate-relative files where host-thread creation is approved
    /// (the harness's host-thread module).
    pub host_thread_approved: &'static [&'static str],
}

/// Every rule, for the fully deterministic crates.
const ALL: &[RuleId] = &RuleId::ALL;

/// The bench crate runs on the host by design (criterion timing), so
/// wall-clock reads are routed through its single annotated
/// `wall_clock()` helper rather than banned outright; host threads and
/// panic paths in bench targets are out of scope. Likewise its whole
/// purpose is feeding wall-clock durations into reports, so the
/// wall-clock *taint* rule is off; the other taint flows stay banned.
const BENCH_RULES: &[RuleId] = &[
    RuleId::HashIteration,
    RuleId::WallClock,
    RuleId::Entropy,
    RuleId::StaticMut,
    RuleId::TaintHashOrder,
    RuleId::TaintAddr,
    RuleId::TaintEnv,
    RuleId::TaintRelaxed,
    RuleId::TaintFloatOrder,
    RuleId::TaintThreadId,
];

/// The determinism contract: the crates whose simulated results must be
/// a pure function of the seed, plus the bench crate's narrower sweep.
pub const POLICIES: &[CratePolicy] = &[
    CratePolicy {
        name: "noiselab-sim",
        root: "crates/sim",
        dirs: &["src"],
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-machine",
        root: "crates/machine",
        dirs: &["src"],
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-kernel",
        root: "crates/kernel",
        dirs: &["src"],
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-noise",
        root: "crates/noise",
        dirs: &["src"],
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-injector",
        root: "crates/injector",
        dirs: &["src"],
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-runtime",
        root: "crates/runtime",
        dirs: &["src"],
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-workloads",
        root: "crates/workloads",
        dirs: &["src"],
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-stats",
        root: "crates/stats",
        dirs: &["src"],
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-advise",
        root: "crates/advise",
        dirs: &["src"],
        // The advisor must be byte-stable across runs and file-visit
        // orders: seeded bootstrap, BTree maps, total-order sort keys.
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-core",
        root: "crates/core",
        dirs: &["src"],
        rules: ALL,
        // The run pool (run_batch) fans runs out over host threads here,
        // and only here: each run stays a pure function of its spec and seed.
        host_thread_approved: &["src/harness.rs"],
    },
    CratePolicy {
        name: "noiselab-telemetry",
        root: "crates/telemetry",
        dirs: &["src"],
        // Fully deterministic except the workspace's single annotated
        // wall-clock site (`profile::wall_clock`), which the host-time
        // profiler and bench banners route through.
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-conform",
        root: "crates/conform",
        dirs: &["src"],
        // The conformance suite replays the kernel's own record stream;
        // a nondeterministic oracle would make shrunk repros worthless.
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-testutil",
        root: "crates/testutil",
        dirs: &["src"],
        rules: ALL,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-bench",
        root: "crates/bench",
        dirs: &["src", "benches"],
        rules: BENCH_RULES,
        host_thread_approved: &[],
    },
    CratePolicy {
        name: "noiselab-campaignd",
        root: "crates/campaignd",
        dirs: &["src"],
        // The campaign engine crosses process boundaries but the cells
        // it runs must stay pure functions of the seed: full rules,
        // with the supervisor's liveness clock as the one annotated
        // wall-clock site and its stdout-reader threads approved.
        rules: ALL,
        host_thread_approved: &["src/supervisor.rs"],
    },
    CratePolicy {
        name: "noiselab-audit",
        root: "crates/audit",
        dirs: &["src"],
        // The analyzer audits itself: its output must be a pure
        // function of the sources it reads, so it is under the same
        // contract it enforces (BTree containers, no wall-clock, no
        // hash-order dependence in its own fixpoint).
        rules: ALL,
        host_thread_approved: &[],
    },
];
