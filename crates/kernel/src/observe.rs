//! Telemetry observer hooks.
//!
//! Two thin traits let the telemetry layer watch the kernel without the
//! kernel depending on it (the same cycle-avoiding pattern as
//! [`crate::trace::TraceSink`]):
//!
//! * [`KernelObserver`] receives virtual-time scheduling records —
//!   context switches, migrations, preemptions, enqueues, IRQ/softirq
//!   service windows and policy switches. Dispatched events are not
//!   observer records: their one consumer is the kernel-owned
//!   [`crate::sanitize::EventSanitizer`], whose report also carries the
//!   event count. Observers are pure: no method returns a value the
//!   kernel reads, so attaching one cannot perturb the simulation. The
//!   purity property test in `noiselab-core` proves it by `stream_hash`
//!   equality.
//! * [`HostProfiler`] receives host-time phase boundaries (event
//!   dispatch, scheduler, tracer). The kernel never reads a clock — it
//!   only announces phase entry/exit; the boxed implementation in
//!   `noiselab-telemetry` reads the single host-clock site, `wall_clock()`.
//!
//! Every call site is guarded by an `Option` check, so a kernel with no
//! observer attached pays one branch per hook and nothing else.

use crate::thread::{ThreadKind, ThreadState};
use noiselab_sim::SimTime;

/// One scheduling-layer occurrence, flattened for observation. Borrowed
/// string fields keep the hooks allocation-free.
#[derive(Debug, Clone, Copy)]
pub enum SchedRecord<'a> {
    /// A thread went on-CPU.
    SwitchIn {
        cpu: u32,
        thread: u32,
        /// Thread name, for span labels.
        name: &'a str,
        kind: ThreadKind,
        time: SimTime,
        /// Threads left queued on this CPU after the pick.
        runq_depth: u32,
    },
    /// A thread left its CPU into `state`.
    SwitchOut {
        cpu: u32,
        thread: u32,
        time: SimTime,
        state: ThreadState,
    },
    /// The current thread was involuntarily descheduled (stays ready).
    Preempt {
        cpu: u32,
        thread: u32,
        time: SimTime,
    },
    /// A thread was placed in a runqueue; `depth` counts queued threads
    /// on that CPU after insertion.
    Enqueue {
        cpu: u32,
        thread: u32,
        time: SimTime,
        depth: u32,
    },
    /// A thread is being pulled onto `to_cpu` from another CPU.
    Migrate {
        thread: u32,
        to_cpu: u32,
        time: SimTime,
        cross_numa: bool,
    },
    /// An IRQ or softirq service window occupied `cpu` for
    /// `duration_ns` starting at `time`.
    IrqSpan {
        cpu: u32,
        time: SimTime,
        duration_ns: u64,
        source: &'a str,
        softirq: bool,
    },
    /// A queued (Ready) thread was removed from its runqueue without
    /// going on-CPU: a preempted spinner gave up, or a fault abort tore
    /// the thread down while it waited. Steal-path dequeues are *not*
    /// reported here — they surface as [`SchedRecord::Migrate`]. With
    /// this record, runqueue membership is fully reconstructible from
    /// the stream (the conformance invariants depend on that).
    Dequeue {
        cpu: u32,
        thread: u32,
        time: SimTime,
    },
    /// A thread changed scheduling class.
    PolicySwitch {
        thread: u32,
        time: SimTime,
        rt: bool,
    },
    /// The scheduler passed a decision point (pick, placement,
    /// preemption check, steal). The conformance suite derives its
    /// branch-coverage signature from this stream; telemetry counts it.
    Decision {
        cpu: u32,
        time: SimTime,
        point: DecisionPoint,
    },
    /// A CPU changed frequency (DVFS). `from_khz`/`to_khz` name the
    /// levels; the conformance invariants chain these per CPU (each
    /// record's `from_khz` must equal the previous record's `to_khz`)
    /// and audit the per-package turbo budget from the stream alone.
    FreqTransition {
        cpu: u32,
        time: SimTime,
        from_khz: u32,
        to_khz: u32,
    },
    /// A CPU crossed a thermal-throttle boundary. `heat_milli` is the
    /// integer thermal accumulator at the transition; `entered == true`
    /// means the CPU is now clamped to its minimum frequency. The
    /// hysteresis invariant checks enter-heat against the configured
    /// threshold and exit-heat against the release point.
    Throttle {
        cpu: u32,
        time: SimTime,
        heat_milli: u64,
        entered: bool,
    },
}

/// A branch the scheduler can take at one of its decision sites. Each
/// variant is one edge of the decision graph the conformance fuzzer
/// tries to cover; [`DecisionPoint::index`] gives a dense coverage-map
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionPoint {
    /// Dispatch picked the head of the local RT queue.
    PickRt,
    /// Dispatch picked the local CFS argmin-vruntime thread.
    PickFair,
    /// Dispatch pulled a thread from another CPU (idle balance).
    PickSteal,
    /// Dispatch found nothing runnable; the CPU goes idle.
    PickNone,
    /// A wakeup preempted the current thread.
    WakePreempt,
    /// A wakeup left the current thread running.
    WakeNoPreempt,
    /// The scheduler tick preempted the fair current thread.
    TickPreempt,
    /// Placement: previous CPU, on a fully idle physical core.
    PlaceLastCore,
    /// Placement: a fully idle core in the thread's home domain.
    PlaceHomeIdleCore,
    /// Placement: a fully idle core in a remote NUMA domain.
    PlaceRemoteIdleCore,
    /// Placement: the merely-idle previous CPU (busy sibling).
    PlaceLastIdle,
    /// Placement: the first idle CPU in the allowed mask.
    PlaceAnyIdle,
    /// Placement: no idle CPU — the least-loaded allowed CPU.
    PlaceLeastLoaded,
    /// Idle balance stole an RT thread.
    StealRt,
    /// Idle balance stole a fair (CFS-tail) thread.
    StealFair,
    /// Idle balance found no eligible victim.
    StealNone,
    /// The governor requested turbo and a package slot was free.
    TurboGrant,
    /// The governor settled the CPU at base: turbo was requested but
    /// the package budget was exhausted, or load no longer warrants a
    /// boost (schedutil downshift).
    TurboDeny,
    /// The thermal accumulator crossed the throttle threshold; the CPU
    /// clamped to min.
    ThrottleEnter,
    /// A throttled CPU cooled past the release point and rejoined
    /// governor control.
    ThrottleExit,
    /// A CPU with no runnable work dropped to its idle (min) frequency.
    FreqIdle,
}

impl DecisionPoint {
    pub const ALL: [DecisionPoint; 21] = [
        DecisionPoint::PickRt,
        DecisionPoint::PickFair,
        DecisionPoint::PickSteal,
        DecisionPoint::PickNone,
        DecisionPoint::WakePreempt,
        DecisionPoint::WakeNoPreempt,
        DecisionPoint::TickPreempt,
        DecisionPoint::PlaceLastCore,
        DecisionPoint::PlaceHomeIdleCore,
        DecisionPoint::PlaceRemoteIdleCore,
        DecisionPoint::PlaceLastIdle,
        DecisionPoint::PlaceAnyIdle,
        DecisionPoint::PlaceLeastLoaded,
        DecisionPoint::StealRt,
        DecisionPoint::StealFair,
        DecisionPoint::StealNone,
        DecisionPoint::TurboGrant,
        DecisionPoint::TurboDeny,
        DecisionPoint::ThrottleEnter,
        DecisionPoint::ThrottleExit,
        DecisionPoint::FreqIdle,
    ];

    /// Dense index into coverage maps; `ALL[p.index()] == p`.
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            DecisionPoint::PickRt => "pick-rt",
            DecisionPoint::PickFair => "pick-fair",
            DecisionPoint::PickSteal => "pick-steal",
            DecisionPoint::PickNone => "pick-none",
            DecisionPoint::WakePreempt => "wake-preempt",
            DecisionPoint::WakeNoPreempt => "wake-no-preempt",
            DecisionPoint::TickPreempt => "tick-preempt",
            DecisionPoint::PlaceLastCore => "place-last-core",
            DecisionPoint::PlaceHomeIdleCore => "place-home-idle-core",
            DecisionPoint::PlaceRemoteIdleCore => "place-remote-idle-core",
            DecisionPoint::PlaceLastIdle => "place-last-idle",
            DecisionPoint::PlaceAnyIdle => "place-any-idle",
            DecisionPoint::PlaceLeastLoaded => "place-least-loaded",
            DecisionPoint::StealRt => "steal-rt",
            DecisionPoint::StealFair => "steal-fair",
            DecisionPoint::StealNone => "steal-none",
            DecisionPoint::TurboGrant => "turbo-grant",
            DecisionPoint::TurboDeny => "turbo-deny",
            DecisionPoint::ThrottleEnter => "throttle-enter",
            DecisionPoint::ThrottleExit => "throttle-exit",
            DecisionPoint::FreqIdle => "freq-idle",
        }
    }
}

/// A pure observer of the kernel's scheduling layer.
pub trait KernelObserver {
    /// Called at each scheduling-layer hook.
    fn sched(&mut self, rec: &SchedRecord<'_>);
}

/// Host-time phases the kernel announces to an attached
/// [`HostProfiler`]. Phases nest (dispatch contains scheduler, rates
/// and tracer, and scheduler can contain tracer); implementations
/// attribute self-time with a stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Handling one popped event (the whole of `Kernel::handle`).
    Dispatch,
    /// Picking the next thread in `Kernel::dispatch`.
    Scheduler,
    /// Writing records into the attached trace sink.
    Tracer,
    /// Statistics/summary computation (announced by the harness, not
    /// the kernel).
    Stats,
    /// Recomputing execution rates and re-predicting completions
    /// (`Kernel::recompute_rates_for`: the full, local and demandless
    /// passes).
    Rates,
    /// Taking the next event off the event queue in the run loop:
    /// repairing the timer heap, finding the least lane timer and
    /// popping the head of the three sources.
    Queue,
}

impl Phase {
    pub const ALL: [Phase; 6] = [
        Phase::Dispatch,
        Phase::Scheduler,
        Phase::Tracer,
        Phase::Stats,
        Phase::Rates,
        Phase::Queue,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::Scheduler => "scheduler",
            Phase::Tracer => "tracer",
            Phase::Stats => "stats",
            Phase::Rates => "rates",
            Phase::Queue => "queue",
        }
    }

    /// Dense index for per-phase accumulator arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Dispatch => 0,
            Phase::Scheduler => 1,
            Phase::Tracer => 2,
            Phase::Stats => 3,
            Phase::Rates => 4,
            Phase::Queue => 5,
        }
    }
}

/// Receives phase boundaries. The kernel guarantees every `enter` is
/// matched by an `exit` of the same phase in LIFO order.
pub trait HostProfiler {
    fn enter(&mut self, phase: Phase);
    fn exit(&mut self, phase: Phase);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_and_indices_are_stable() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn decision_point_names_and_indices_are_stable() {
        for (i, p) in DecisionPoint::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
        }
    }
}
