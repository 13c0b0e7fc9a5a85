//! Host-time self-profiling: where does the simulator spend *host*
//! time while producing its virtual-time results?
//!
//! The kernel announces phase boundaries (event dispatch, scheduler,
//! tracer) through [`noiselab_kernel::HostProfiler`]; the harness
//! announces its stats phase the same way. This module owns the only
//! place in the workspace where host time is actually read — the
//! clippy-gated [`wall_clock`] below — and attributes *self time* per phase
//! with a frame stack, so nested phases (dispatch contains scheduler
//! contains tracer) do not double-count.
//!
//! Host time never feeds back into the simulation: the profiler's
//! observations are write-only from the kernel's point of view, so a
//! profiled run is bit-identical to an unprofiled one.

use noiselab_kernel::{HostProfiler, Phase};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The single approved host-clock read. Everything host-timed in the
/// workspace (this profiler, the bench harness banner) routes through
/// here, so clippy's `Instant::now` ban has exactly one expected site.
/// Clippy bans calls to this function too: each caller carries its own
/// `#[expect]` saying why host time cannot reach a simulated result.
#[expect(
    clippy::disallowed_methods,
    reason = "the one approved host-timing site; simulated results never read it"
)]
pub fn wall_clock() -> Instant {
    Instant::now()
}

const N_PHASES: usize = Phase::ALL.len();

struct Frame {
    phase: Phase,
    start: Instant,
    /// Host ns spent in nested phases, to subtract for self time.
    child_ns: u64,
}

struct ProfInner {
    stack: Vec<Frame>,
    self_ns: [u64; N_PHASES],
    calls: [u64; N_PHASES],
    /// Enter/exit mismatches observed (should stay 0).
    unbalanced: u64,
}

/// Shared phase-profiler handle: hand [`PhaseProfiler::hook`] to the
/// kernel, optionally bracket harness work with
/// [`PhaseProfiler::enter`]/[`PhaseProfiler::exit`], then take the
/// [`PhaseReport`].
#[derive(Clone)]
pub struct PhaseProfiler {
    inner: Rc<RefCell<ProfInner>>,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseProfiler {
    pub fn new() -> Self {
        PhaseProfiler {
            inner: Rc::new(RefCell::new(ProfInner {
                stack: Vec::new(),
                self_ns: [0; N_PHASES],
                calls: [0; N_PHASES],
                unbalanced: 0,
            })),
        }
    }

    /// The boxed profiler end to attach to a kernel.
    pub fn hook(&self) -> Box<dyn HostProfiler> {
        Box::new(ProfilerHook {
            inner: Rc::clone(&self.inner),
        })
    }

    pub fn enter(&self, phase: Phase) {
        self.inner.borrow_mut().enter(phase);
    }

    pub fn exit(&self, phase: Phase) {
        self.inner.borrow_mut().exit(phase);
    }

    pub fn report(&self) -> PhaseReport {
        let inner = self.inner.borrow();
        let phases = Phase::ALL
            .iter()
            .map(|&p| PhaseRow {
                phase: p.name().to_string(),
                calls: inner.calls[p.index()],
                self_ns: inner.self_ns[p.index()],
            })
            .collect();
        PhaseReport {
            phases,
            unbalanced: inner.unbalanced,
        }
    }
}

impl ProfInner {
    #[expect(
        clippy::disallowed_methods,
        reason = "a phase's host start time only feeds its self-time row"
    )]
    fn enter(&mut self, phase: Phase) {
        self.stack.push(Frame {
            phase,
            start: wall_clock(),
            child_ns: 0,
        });
    }

    fn exit(&mut self, phase: Phase) {
        let Some(frame) = self.stack.pop() else {
            self.unbalanced += 1;
            return;
        };
        if frame.phase != phase {
            self.unbalanced += 1;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "a phase's host end time only feeds its self-time row"
        )]
        let total = wall_clock().duration_since(frame.start).as_nanos() as u64;
        let own = total.saturating_sub(frame.child_ns);
        self.self_ns[frame.phase.index()] += own;
        self.calls[frame.phase.index()] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
    }
}

struct ProfilerHook {
    inner: Rc<RefCell<ProfInner>>,
}

impl HostProfiler for ProfilerHook {
    fn enter(&mut self, phase: Phase) {
        self.inner.borrow_mut().enter(phase);
    }

    fn exit(&mut self, phase: Phase) {
        self.inner.borrow_mut().exit(phase);
    }
}

/// Host self-time per phase for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseRow {
    pub phase: String,
    pub calls: u64,
    pub self_ns: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    pub phases: Vec<PhaseRow>,
    /// Enter/exit mismatches (0 on a correct run).
    pub unbalanced: u64,
}

impl PhaseReport {
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.self_ns).sum()
    }

    /// Human rendering, one phase per line with its share of profiled
    /// host time.
    pub fn render(&self) -> String {
        let total = self.total_ns().max(1) as f64;
        let mut out = String::from("host-time phase profile (self time)\n");
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<10} calls={:<9} self={:<10} ({:4.1}%)\n",
                p.phase,
                p.calls,
                noiselab_stats::fmt_ns(p.self_ns as f64),
                p.self_ns as f64 / total * 100.0,
            ));
        }
        if self.unbalanced > 0 {
            out.push_str(&format!(
                "  WARNING: {} unbalanced phases\n",
                self.unbalanced
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_phases_attribute_self_time() {
        let prof = PhaseProfiler::new();
        prof.enter(Phase::Dispatch);
        prof.enter(Phase::Scheduler);
        std::hint::black_box((0..10_000).sum::<u64>());
        prof.exit(Phase::Scheduler);
        prof.exit(Phase::Dispatch);
        let rep = prof.report();
        assert_eq!(rep.unbalanced, 0);
        let sched = rep.phases.iter().find(|p| p.phase == "scheduler").unwrap();
        let disp = rep.phases.iter().find(|p| p.phase == "dispatch").unwrap();
        assert_eq!(sched.calls, 1);
        assert_eq!(disp.calls, 1);
        // Dispatch self-time excludes the nested scheduler time, so the
        // sum of self times cannot exceed any one wall measurement by
        // double counting; both are recorded independently.
        assert!(rep.total_ns() > 0);
        assert!(rep.render().contains("scheduler"));
    }

    #[test]
    fn unbalanced_exits_are_counted_not_fatal() {
        let prof = PhaseProfiler::new();
        prof.exit(Phase::Tracer);
        prof.enter(Phase::Dispatch);
        prof.exit(Phase::Scheduler);
        let rep = prof.report();
        assert_eq!(rep.unbalanced, 2);
    }

    #[test]
    fn hook_and_handle_share_state() {
        let prof = PhaseProfiler::new();
        let mut hook = prof.hook();
        hook.enter(Phase::Tracer);
        hook.exit(Phase::Tracer);
        prof.enter(Phase::Stats);
        prof.exit(Phase::Stats);
        let rep = prof.report();
        let tracer = rep.phases.iter().find(|p| p.phase == "tracer").unwrap();
        let stats = rep.phases.iter().find(|p| p.phase == "stats").unwrap();
        assert_eq!(tracer.calls, 1);
        assert_eq!(stats.calls, 1);
    }
}
