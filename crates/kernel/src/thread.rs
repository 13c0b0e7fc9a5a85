//! Per-thread kernel state.

use crate::ids::{BarrierId, ThreadId};
use crate::policy::Policy;
use noiselab_machine::{CpuId, CpuSet, SoloProfile};
use noiselab_sim::{SimDuration, SimTime};

/// What kind of task this is, for the tracer's noise classification: the
/// `osnoise` tracer counts everything that is not the traced workload as
/// noise (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadKind {
    /// The application under measurement (runtime workers included).
    Workload,
    /// Natural OS/background activity (kworkers, daemons, GUI, ...).
    Noise,
    /// A replay process of the noise injector.
    Injector,
}

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Created, never started (start timer pending).
    New,
    /// Runnable, waiting in a runqueue.
    Ready,
    /// Currently on a CPU.
    Running,
    /// Waiting for a timer.
    Sleeping,
    /// Blocked at a barrier (off-CPU).
    Blocked,
    /// Done; never runs again.
    Exited,
}

/// An in-progress compute action.
#[derive(Debug, Clone)]
pub struct ActiveCompute {
    /// Roofline profile of the work unit being executed.
    pub solo: SoloProfile,
    /// Remaining solo-equivalent nanoseconds. `f64::INFINITY` while
    /// spinning at a barrier.
    pub remaining: f64,
    /// Rate of progress at the last update (solo-ns per wall-ns).
    pub rate: f64,
    /// Virtual time of the last progress update.
    pub last_update: SimTime,
    /// Unproductive time (context switch, migration penalty) to burn at
    /// rate 1 before productive progress resumes.
    pub overhead_ns: f64,
}

impl ActiveCompute {
    /// Advance progress to time `now` at the current rate.
    pub fn advance_to(&mut self, now: SimTime) {
        let mut dt = now.since(self.last_update).nanos() as f64;
        self.last_update = now;
        if dt <= 0.0 {
            return;
        }
        if self.overhead_ns > 0.0 {
            let burn = self.overhead_ns.min(dt);
            self.overhead_ns -= burn;
            dt -= burn;
        }
        if dt > 0.0 && self.remaining.is_finite() {
            self.remaining = (self.remaining - dt * self.rate).max(0.0);
        }
    }

    /// Wall-clock nanoseconds until completion at the current rate, or
    /// `None` if it will never complete at this rate (spin / zero rate).
    pub fn eta_ns(&self) -> Option<u64> {
        if !self.remaining.is_finite() {
            return None;
        }
        if self.remaining <= 0.0 && self.overhead_ns <= 0.0 {
            return Some(0);
        }
        if self.rate <= 0.0 {
            // Overhead still burns at rate 1 even if work rate is 0 only
            // when the thread is actually on-CPU; a zero rate here means
            // the CPU is stalled (IRQ) so nothing progresses.
            return None;
        }
        let ns = self.overhead_ns + self.remaining / self.rate;
        Some(ns.ceil() as u64)
    }
}

/// Runtime statistics for assertions and reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadStats {
    /// Productive + overhead time spent on-CPU (ns).
    pub cpu_ns: u64,
    /// Number of migrations between CPUs.
    pub migrations: u64,
    /// Migrations that crossed a NUMA domain (subset of `migrations`).
    pub numa_migrations: u64,
    /// Number of involuntary preemptions.
    pub preemptions: u64,
    /// Number of voluntary context switches (sleep/block/yield).
    pub switches: u64,
}

/// Kernel-side thread control block.
pub struct Thread {
    pub id: ThreadId,
    pub name: String,
    pub kind: ThreadKind,
    pub policy: Policy,
    pub affinity: CpuSet,
    pub state: ThreadState,
    /// CPU currently running on (Running) or queued at (Ready).
    pub cpu: Option<CpuId>,
    /// Last CPU the thread ran on, for wake placement and migration cost.
    pub last_cpu: Option<CpuId>,
    /// CFS virtual runtime (weighted ns).
    pub vruntime: u64,
    /// True while the thread spins at a barrier instead of blocking.
    pub spinning: bool,
    /// The barrier the thread is waiting at, spinning or blocked.
    pub barrier: Option<BarrierId>,
    /// Time the thread went on-CPU (for tick-based preemption decisions).
    pub on_cpu_since: SimTime,
    /// Runtime has been charged (vruntime + stats) up to this instant.
    pub charged_until: SimTime,
    /// Unproductive overhead (ctx switch, migration) accumulated while
    /// off-CPU, folded into the next compute as `overhead_ns`.
    pub pending_overhead_ns: f64,
    pub stats: ThreadStats,
    /// Exit timestamp, once exited.
    pub exit_time: Option<SimTime>,
    /// Migration penalty to apply on next dispatch (set when stolen or
    /// woken on a different CPU).
    pub pending_migration: bool,
}

impl Thread {
    pub fn new(
        id: ThreadId,
        name: String,
        kind: ThreadKind,
        policy: Policy,
        affinity: CpuSet,
    ) -> Self {
        Thread {
            id,
            name,
            kind,
            policy,
            affinity,
            state: ThreadState::New,
            cpu: None,
            last_cpu: None,
            vruntime: 0,
            spinning: false,
            barrier: None,
            on_cpu_since: SimTime::ZERO,
            charged_until: SimTime::ZERO,
            pending_overhead_ns: 0.0,
            stats: ThreadStats::default(),
            exit_time: None,
            pending_migration: false,
        }
    }

    #[inline]
    pub fn is_runnable(&self) -> bool {
        matches!(self.state, ThreadState::Ready | ThreadState::Running)
    }

    /// Charge `delta` of on-CPU time to vruntime, weighted by policy.
    pub fn charge_vruntime(&mut self, delta: SimDuration) {
        let w = self.policy.weight();
        self.vruntime += delta.nanos() * 1024 / w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute(remaining: f64, rate: f64) -> ActiveCompute {
        ActiveCompute {
            solo: SoloProfile {
                solo_ns: remaining,
                cpu_ns: remaining,
                bw_demand: 0.0,
            },
            remaining,
            rate,
            last_update: SimTime::ZERO,
            overhead_ns: 0.0,
        }
    }

    #[test]
    fn advance_consumes_at_rate() {
        let mut c = compute(1000.0, 0.5);
        c.advance_to(SimTime(1000));
        assert!((c.remaining - 500.0).abs() < 1e-9);
    }

    #[test]
    fn advance_burns_overhead_first() {
        let mut c = compute(1000.0, 1.0);
        c.overhead_ns = 300.0;
        c.advance_to(SimTime(500));
        assert_eq!(c.overhead_ns, 0.0);
        assert!((c.remaining - 800.0).abs() < 1e-9);
    }

    #[test]
    fn eta_includes_overhead() {
        let mut c = compute(1000.0, 0.5);
        c.overhead_ns = 100.0;
        assert_eq!(c.eta_ns(), Some(2100));
    }

    #[test]
    fn eta_none_when_spinning_or_stalled() {
        let c = compute(f64::INFINITY, 1.0);
        assert_eq!(c.eta_ns(), None);
        let c2 = compute(100.0, 0.0);
        assert_eq!(c2.eta_ns(), None);
    }

    #[test]
    fn vruntime_weighting() {
        let mut heavy = Thread::new(
            ThreadId(0),
            "h".into(),
            ThreadKind::Workload,
            Policy::Other { nice: -5 },
            CpuSet::first_n(1),
        );
        let mut normal = Thread::new(
            ThreadId(1),
            "n".into(),
            ThreadKind::Workload,
            Policy::NORMAL,
            CpuSet::first_n(1),
        );
        heavy.charge_vruntime(SimDuration(1000));
        normal.charge_vruntime(SimDuration(1000));
        assert!(heavy.vruntime < normal.vruntime);
    }

    #[test]
    fn advance_never_goes_negative() {
        let mut c = compute(10.0, 1.0);
        c.advance_to(SimTime(1000));
        assert_eq!(c.remaining, 0.0);
    }
}
