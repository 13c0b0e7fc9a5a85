//! Thread behaviors: the coroutine-style interface between simulated
//! programs (workload runtimes, noise sources, injector processes) and
//! the kernel.
//!
//! A [`Behavior`] is a state machine. Whenever the thread's previous
//! action finishes (compute completed, sleep expired, barrier released,
//! ...), the kernel calls [`Behavior::next`] to obtain the next action.
//! This avoids host threads entirely: the whole machine — workload,
//! runtime, noise, injector — executes inside one deterministic
//! event loop.

use crate::ids::{BarrierId, ThreadId};
use crate::policy::Policy;
use noiselab_machine::WorkUnit;
use noiselab_sim::{Rng, SimDuration, SimTime};

/// What a thread asks the kernel to do next.
#[derive(Debug, Clone)]
pub enum Action {
    /// Execute a work unit (roofline-modelled compute + memory traffic).
    /// Completes when the work is done; may be preempted and migrated.
    Compute(WorkUnit),
    /// Occupy the CPU for a fixed amount of *CPU time* (not wall time):
    /// preemption stretches the wall-clock footprint, and SMT contention
    /// slows the work down. Natural noise bursts use this.
    Burn(SimDuration),
    /// Occupy the CPU for a fixed amount of *on-CPU wall time*: the
    /// countdown runs whenever the thread is on a CPU, unaffected by SMT
    /// contention, and pauses while preempted. This is the semantics of
    /// the injector's `Inject(duration)` (paper Listing 1): the recorded
    /// osnoise durations are occupancy intervals, and replaying them
    /// must reproduce the same occupancy.
    BurnWall(SimDuration),
    /// Sleep until an absolute virtual time (timer wake-up).
    SleepUntil(SimTime),
    /// Sleep for a relative duration.
    SleepFor(SimDuration),
    /// Enter barrier `id`. The thread spins on-CPU for up to `spin`
    /// before blocking; the last arrival releases everyone.
    Barrier { id: BarrierId, spin: SimDuration },
    /// Change own scheduling policy (`sched_setscheduler`). Instantaneous.
    SetPolicy(Policy),
    /// Give up the CPU, staying runnable.
    Yield,
    /// Terminate the thread.
    Exit,
}

/// Context handed to [`Behavior::next`].
pub struct Ctx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The thread being asked.
    pub tid: ThreadId,
    /// CPU the thread last ran on (None before first dispatch).
    pub cpu: Option<noiselab_machine::CpuId>,
    /// Deterministic per-kernel RNG (shared stream).
    pub rng: &'a mut Rng,
}

/// A thread's program.
pub trait Behavior {
    /// Produce the next action. Called at spawn (after the start delay)
    /// and after each action completes.
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Action;

    /// Debug label used in panics and traces.
    fn label(&self) -> &str {
        "behavior"
    }
}

/// Convenience: a behavior from an `FnMut` closure.
pub struct FnBehavior<F: FnMut(&mut Ctx<'_>) -> Action> {
    f: F,
}

impl<F: FnMut(&mut Ctx<'_>) -> Action> FnBehavior<F> {
    pub fn new(f: F) -> Self {
        FnBehavior { f }
    }
}

impl<F: FnMut(&mut Ctx<'_>) -> Action> Behavior for FnBehavior<F> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Action {
        (self.f)(ctx)
    }
}

/// A behavior that runs a fixed script of actions, then exits. Useful in
/// tests and for simple noise processes.
pub struct ScriptBehavior {
    actions: std::vec::IntoIter<Action>,
}

impl ScriptBehavior {
    pub fn new(actions: Vec<Action>) -> Self {
        ScriptBehavior {
            actions: actions.into_iter(),
        }
    }
}

impl Behavior for ScriptBehavior {
    fn next(&mut self, _ctx: &mut Ctx<'_>) -> Action {
        self.actions.next().unwrap_or(Action::Exit)
    }

    fn label(&self) -> &str {
        "script"
    }
}
