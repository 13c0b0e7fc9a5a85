//! Kernel tunables.

use noiselab_sim::SimDuration;

/// Scheduler and interrupt-model configuration.
///
/// Defaults approximate the Ubuntu 24.04 kernels of the paper's two
/// platforms with the paper's required override built in: the kernel
/// has no RT throttling, as if it were disabled, so `SCHED_FIFO` noise
/// can occupy 100 % of a CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConfig {
    /// CFS wakeup preemption granularity: a woken fair task preempts the
    /// running fair task only if its vruntime is at least this much
    /// smaller.
    pub wakeup_granularity: SimDuration,
    /// Minimum on-CPU time before tick-driven fair preemption.
    pub min_granularity: SimDuration,
    /// Mean service time of the per-tick local timer interrupt.
    pub timer_irq_mean: SimDuration,
    /// Standard deviation of the timer interrupt service time.
    pub timer_irq_sd: SimDuration,
    /// Probability that a tick raises a follow-on softirq (RCU or SCHED).
    pub softirq_prob: f64,
    /// Mean softirq service time.
    pub softirq_mean: SimDuration,
    /// Per-recorded-event cost charged to the traced CPU when tracing is
    /// enabled (buffer write + timestamp), producing the sub-1 % overhead
    /// of paper Table 1.
    pub trace_event_overhead: SimDuration,
    /// Tickless idle (NO_HZ): an idle CPU parks its timer tick instead
    /// of re-arming it every period, and is re-kicked when it gets work
    /// (or when queued work it could pull appears elsewhere). Ticks stay
    /// on the same per-CPU grid in both modes, and idle ticks are
    /// side-effect-free in both modes, so busy-CPU behaviour — noise
    /// draws, traces, preemption — is identical with the flag on or off;
    /// only the simulator's own event count changes. Exposed so the
    /// equivalence suite can run both modes at the same seed.
    pub tickless: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            wakeup_granularity: SimDuration::from_millis(1),
            min_granularity: SimDuration::from_millis(3),
            timer_irq_mean: SimDuration::from_nanos(1_800),
            timer_irq_sd: SimDuration::from_nanos(600),
            softirq_prob: 0.25,
            softirq_mean: SimDuration::from_nanos(2_500),
            trace_event_overhead: SimDuration::from_nanos(2_000),
            tickless: true,
        }
    }
}
