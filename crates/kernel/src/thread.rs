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

/// An in-progress compute action. While its thread runs, the progress
/// (`remaining`, `overhead_ns`) lives only in the rate layer's CPU lanes
/// and these fields are stale; they hold it while the thread is off CPU.
#[derive(Debug, Clone)]
pub struct ActiveCompute {
    /// Roofline profile of the work unit being executed.
    pub solo: SoloProfile,
    /// Remaining solo-equivalent nanoseconds. `f64::INFINITY` while
    /// spinning at a barrier.
    pub remaining: f64,
    /// Unproductive time (context switch, migration penalty) to burn at
    /// rate 1 before productive progress resumes.
    pub overhead_ns: f64,
}

/// The one definition of progress: `dt >= 0` wall ns at `rate` burn the
/// overhead first (at rate 1), and the rest of `dt` consumes `remaining`
/// (left as is while spinning, when it is infinite). Free of branches on
/// the data, and an exact no-op at `dt == 0` or on an idle lane (rate 0,
/// overhead 0), so the rate layer's dense walk runs it over every CPU.
#[inline(always)]
pub(crate) fn advance_progress(remaining: &mut f64, overhead: &mut f64, rate: f64, dt: f64) {
    let burn = if *overhead > 0.0 {
        overhead.min(dt)
    } else {
        0.0
    };
    *overhead -= burn;
    let dt = dt - burn;
    let next = (*remaining - dt * rate).max(0.0);
    // A bit select, not a branch, so a loop over lanes vectorizes.
    let take = u64::from(dt > 0.0 && remaining.is_finite()).wrapping_neg();
    *remaining = f64::from_bits((next.to_bits() & take) | (remaining.to_bits() & !take));
}

/// Wall-clock nanoseconds until a compute with this progress completes
/// at `rate`, or `None` if it never will (spin / zero rate).
pub(crate) fn eta_ns(remaining: f64, overhead: f64, rate: f64) -> Option<u64> {
    if !remaining.is_finite() {
        return None;
    }
    if remaining <= 0.0 && overhead <= 0.0 {
        return Some(0);
    }
    if rate <= 0.0 {
        // Overhead still burns at rate 1 even if work rate is 0 only
        // when the thread is actually on-CPU; a zero rate here means
        // the CPU is stalled (IRQ) so nothing progresses.
        return None;
    }
    let ns = overhead + remaining / rate;
    Some(ns.ceil() as u64)
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

    /// Charge `delta` of on-CPU time to vruntime, weighted by policy.
    pub fn charge_vruntime(&mut self, delta: SimDuration) {
        let w = self.policy.weight();
        self.vruntime += delta.nanos() * 1024 / w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_consumes_at_rate() {
        let (mut remaining, mut overhead) = (1000.0, 0.0);
        advance_progress(&mut remaining, &mut overhead, 0.5, 1000.0);
        assert!((remaining - 500.0).abs() < 1e-9);
    }

    #[test]
    fn advance_burns_overhead_first() {
        let (mut remaining, mut overhead) = (1000.0, 300.0);
        advance_progress(&mut remaining, &mut overhead, 1.0, 500.0);
        assert_eq!(overhead, 0.0);
        assert!((remaining - 800.0).abs() < 1e-9);
    }

    #[test]
    fn eta_includes_overhead() {
        assert_eq!(eta_ns(1000.0, 100.0, 0.5), Some(2100));
    }

    #[test]
    fn eta_none_when_spinning_or_stalled() {
        assert_eq!(eta_ns(f64::INFINITY, 0.0, 1.0), None);
        assert_eq!(eta_ns(100.0, 0.0, 0.0), None);
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

    /// The branchy form `advance_progress` replaced: it must agree bit
    /// for bit, idle lanes and `dt == 0` included.
    fn reference_advance(remaining: &mut f64, overhead: &mut f64, rate: f64, mut dt: f64) {
        if dt <= 0.0 {
            return;
        }
        if *overhead > 0.0 {
            let burn = overhead.min(dt);
            *overhead -= burn;
            dt -= burn;
        }
        if dt > 0.0 && remaining.is_finite() {
            *remaining = (*remaining - dt * rate).max(0.0);
        }
    }

    #[test]
    fn advance_progress_matches_the_branchy_reference() {
        let values = [0.0, -0.0, 1e-300, 0.25, 1.0, 3.0, 1e9, f64::INFINITY];
        let rates = [0.0, 1e-3, 0.5, 1.0];
        let dts = [0.0, 1.0, 2.5, 1e6];
        for &remaining in &values {
            for &overhead in &values[..7] {
                for &rate in &rates {
                    for &dt in &dts {
                        let (mut r1, mut o1) = (remaining, overhead);
                        let (mut r2, mut o2) = (remaining, overhead);
                        advance_progress(&mut r1, &mut o1, rate, dt);
                        reference_advance(&mut r2, &mut o2, rate, dt);
                        assert_eq!(
                            (r1.to_bits(), o1.to_bits()),
                            (r2.to_bits(), o2.to_bits()),
                            "remaining {remaining} overhead {overhead} rate {rate} dt {dt}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn advance_never_goes_negative() {
        let (mut remaining, mut overhead) = (10.0, 0.0);
        advance_progress(&mut remaining, &mut overhead, 1.0, 1000.0);
        assert_eq!(remaining, 0.0);
    }
}
