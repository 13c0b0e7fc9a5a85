//! Scheduler conformance suite.
//!
//! Three complementary layers of evidence that the production
//! scheduler in `noiselab-kernel` does what the paper's methodology
//! assumes it does:
//!
//! 1. **Differential oracle** ([`oracle`]) — a naive, obviously
//!    correct reference scheduler replays the recorded decision stream
//!    of an oracle-eligible scenario and re-derives every placement,
//!    pick, steal and preemption from first principles. Agreement on
//!    every record proves trace-identical scheduling.
//! 2. **Metamorphic invariants** ([`invariants`]) — properties that
//!    hold for *any* scenario: stint/IRQ conservation against the
//!    kernel's own accounting, per-CPU work conservation, FIFO
//!    supremacy (zero FIFO-over-OTHER preemption latency), affinity,
//!    and bounded fairness for equal-weight CPU hogs.
//! 3. **Coverage-guided fuzzer** ([`fuzz`]) — a deterministic,
//!    seeded campaign over `{topology, scripts, IRQs, faults, policy
//!    switches}` guided by decision-point edge coverage ([`coverage`]),
//!    with greedy failure shrinking ([`shrink`]) down to one-line
//!    `// conform:repro` strings anyone can replay via
//!    `noiselab conform --replay`.
//!
//! Mutation tests ([`record::Mutation`]) seed intentional scheduler
//! bugs into recorded streams and prove each one is caught by at least
//! one layer.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::ref_as_ptr)]

pub mod coverage;
pub mod fuzz;
pub mod invariants;
pub mod oracle;
pub mod record;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use coverage::{CoverageMap, Signature};
pub use fuzz::{check_scenario, fuzz, Failure, FuzzConfig, FuzzReport};
pub use invariants::{check_invariants, fairness_bound_ns, InvariantOutcome, InvariantStats};
pub use oracle::{check_oracle, OracleStats, Violation};
pub use record::{Mutation, Rec, Recording};
pub use report::{render_json, render_text};
pub use runner::{run, RunOutcome, SchedParams, ThreadMeta, Topo};
pub use scenario::{Scenario, Step, ThreadPlan, REPRO_MARKER};
pub use shrink::shrink;
