//! Deterministic simulator-level fault injection.
//!
//! A [`FaultPlan`] describes misbehaviour to impose on a run: timer
//! interrupts that are lost or fire late, spurious device interrupts, a
//! CPU that stalls for a bounded window, and a workload thread that
//! aborts mid-region. All faults are driven by a dedicated RNG stream
//! seeded independently of the kernel's noise RNG, so installing a plan
//! with all probabilities at zero leaves a run bit-identical to one with
//! no plan at all — the property the resilience suite asserts.
//!
//! Faults flow through the same event-engine paths as ordinary events:
//! spurious IRQs and CPU stalls reuse [`crate::Kernel::inject_irq`],
//! lost/late ticks hook the tick service and arming paths, and aborts
//! are scheduled events that tear a thread down through the normal
//! descheduling machinery. The thread-abort *decision* (victim and
//! instant) is made by the harness, which knows which threads form the
//! workload team; the kernel only executes it via
//! [`crate::Kernel::schedule_abort`].

use noiselab_sim::{Rng, SimDuration};
use serde::{Deserialize, Serialize};

/// Spurious device interrupts: a Poisson arrival process over a time
/// window, landing on uniformly random CPUs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpuriousIrqSpec {
    /// Mean arrival rate (interrupts per simulated second).
    pub rate_per_sec: f64,
    /// Mean service time per interrupt (exponentially distributed).
    pub service_mean: SimDuration,
    /// Arrivals are generated over `[0, window)`.
    pub window: SimDuration,
}

/// A single CPU stalling for a bounded window (e.g. a firmware SMI or a
/// hung driver): modelled as one long interrupt-service window on a
/// uniformly chosen CPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuStallSpec {
    /// The stall begins uniformly within `[start.0, start.1)`.
    pub start: (SimDuration, SimDuration),
    /// Stall length, uniform within `[duration.0, duration.1)`.
    pub duration: (SimDuration, SimDuration),
}

/// A workload thread aborting mid-region. Interpreted by the harness
/// (which knows the team membership); with probability `prob` one
/// uniformly chosen worker is torn down at a uniform instant within
/// `window`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadAbortSpec {
    /// Per-run probability that some worker aborts.
    pub prob: f64,
    /// The abort instant is uniform within `[window.0, window.1)`.
    pub window: (SimDuration, SimDuration),
}

/// A deterministic, seeded fault schedule for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Base seed of the fault RNG stream. The harness mixes the run seed
    /// in, so every run of a campaign sees an independent draw.
    #[serde(default)]
    pub seed: u64,
    /// Per-tick probability that the timer interrupt is lost (no IRQ
    /// service, no preemption check), as if the expiry never reached
    /// the CPU.
    #[serde(default)]
    pub lost_tick_prob: f64,
    /// Per-arming probability that a tick fires late, pushed off its
    /// grid slot by up to `late_tick_max`.
    #[serde(default)]
    pub late_tick_prob: f64,
    #[serde(default)]
    pub late_tick_max: SimDuration,
    #[serde(default)]
    pub spurious: Option<SpuriousIrqSpec>,
    #[serde(default)]
    pub stall: Option<CpuStallSpec>,
    #[serde(default)]
    pub abort: Option<ThreadAbortSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            lost_tick_prob: 0.0,
            late_tick_prob: 0.0,
            late_tick_max: SimDuration::ZERO,
            spurious: None,
            stall: None,
            abort: None,
        }
    }
}

impl FaultPlan {
    /// A plan that only aborts a worker thread in roughly `prob` of the
    /// runs, within the first ~`window_ms` milliseconds — the crashy
    /// campaign of the resilience suite. Panics when `window_ms` in
    /// nanoseconds overflows u64; the CLI refuses such a window first.
    pub fn crashy(seed: u64, prob: f64, window_ms: u64) -> FaultPlan {
        let end = SimDuration::checked_from_millis(window_ms)
            .expect("crash window overflows u64 nanoseconds");
        FaultPlan {
            seed,
            abort: Some(ThreadAbortSpec {
                prob,
                window: (SimDuration::ZERO, end),
            }),
            ..FaultPlan::default()
        }
    }

    /// Check probabilities are valid and every half-open `[lo, hi)`
    /// range a fault draws from is non-empty; returns a description of
    /// the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("lost_tick_prob", self.lost_tick_prob),
            ("late_tick_prob", self.late_tick_prob),
            ("abort.prob", self.abort.as_ref().map_or(0.0, |a| a.prob)),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} is not a probability"));
            }
        }
        if self.late_tick_prob > 0.0 && self.late_tick_max == SimDuration::ZERO {
            return Err("late_tick_prob > 0 requires late_tick_max > 0".into());
        }
        if let Some(sp) = &self.spurious {
            if sp.rate_per_sec < 0.0 {
                return Err(format!("spurious.rate_per_sec = {}", sp.rate_per_sec));
            }
        }
        let ranges = [
            ("abort.window", self.abort.as_ref().map(|a| a.window)),
            ("stall.start", self.stall.as_ref().map(|s| s.start)),
            ("stall.duration", self.stall.as_ref().map(|s| s.duration)),
        ];
        for (name, range) in ranges {
            if let Some((lo, hi)) = range.filter(|(lo, hi)| lo >= hi) {
                return Err(format!(
                    "{name} = [{}, {}) ns is empty or inverted",
                    lo.nanos(),
                    hi.nanos()
                ));
            }
        }
        Ok(())
    }

    /// Whether the plan injects anything at all.
    pub fn is_noop(&self) -> bool {
        self.lost_tick_prob == 0.0
            && self.late_tick_prob == 0.0
            && self.spurious.is_none()
            && self.stall.is_none()
            && self.abort.is_none()
    }
}

/// Counters of faults actually delivered during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    pub lost_ticks: u64,
    pub late_ticks: u64,
    pub spurious_irqs: u64,
    pub stall_windows: u64,
    /// Threads torn down by [`crate::Kernel::schedule_abort`].
    pub aborted_threads: u64,
}

/// Live fault state inside a [`crate::Kernel`]. The RNG here is the
/// *fault stream*: it never touches the kernel's noise RNG, so the
/// no-fault event sequence is unchanged by merely installing a plan.
pub(crate) struct FaultState {
    pub(crate) rng: Rng,
    pub(crate) lost_tick_prob: f64,
    pub(crate) late_tick_prob: f64,
    pub(crate) late_tick_max_ns: u64,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan, rng: Rng) -> FaultState {
        FaultState {
            rng,
            lost_tick_prob: plan.lost_tick_prob,
            late_tick_prob: plan.late_tick_prob,
            late_tick_max_ns: plan.late_tick_max.nanos(),
            stats: FaultStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop_and_valid() {
        let p = FaultPlan::default();
        assert!(p.is_noop());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn crashy_plan_has_abort_only() {
        let p = FaultPlan::crashy(9, 0.05, 50);
        assert!(!p.is_noop());
        assert!(p.validate().is_ok());
        let a = p.abort.as_ref().unwrap();
        assert_eq!(a.prob, 0.05);
        assert_eq!(a.window.1, SimDuration(50_000_000));
        assert!(p.spurious.is_none() && p.stall.is_none());
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let p = FaultPlan {
            lost_tick_prob: 1.5,
            ..FaultPlan::default()
        };
        assert!(p.validate().is_err());
        let p = FaultPlan {
            late_tick_prob: 0.1,
            ..FaultPlan::default()
        };
        assert!(p.validate().is_err(), "late prob without max must fail");
    }

    #[test]
    fn validate_rejects_empty_or_inverted_ranges() {
        let ms = SimDuration::from_millis;
        let err = FaultPlan::crashy(1, 0.5, 0).validate().unwrap_err();
        assert_eq!(err, "abort.window = [0, 0) ns is empty or inverted");
        let abort = |window| FaultPlan {
            abort: Some(ThreadAbortSpec { prob: 0.5, window }),
            ..FaultPlan::default()
        };
        assert!(abort((ms(3), ms(2))).validate().is_err());
        assert!(abort((ms(2), ms(3))).validate().is_ok());
        let stall = |start, duration| FaultPlan {
            stall: Some(CpuStallSpec { start, duration }),
            ..FaultPlan::default()
        };
        assert!(stall((ms(1), ms(2)), (ms(3), ms(4))).validate().is_ok());
        let err = stall((ms(2), ms(2)), (ms(3), ms(4)))
            .validate()
            .unwrap_err();
        assert!(err.starts_with("stall.start = "), "{err}");
        let err = stall((ms(1), ms(2)), (ms(4), ms(3)))
            .validate()
            .unwrap_err();
        assert!(err.starts_with("stall.duration = "), "{err}");
    }

    #[test]
    #[should_panic(expected = "crash window overflows u64 nanoseconds")]
    fn crashy_window_in_ns_must_fit_u64() {
        let max_ms = u64::MAX / 1_000_000;
        let p = FaultPlan::crashy(1, 0.5, max_ms);
        assert_eq!(p.abort.unwrap().window.1, SimDuration(max_ms * 1_000_000));
        FaultPlan::crashy(1, 0.5, max_ms + 1);
    }

    #[test]
    fn plan_json_roundtrip() {
        let p = FaultPlan {
            seed: 7,
            lost_tick_prob: 0.01,
            late_tick_prob: 0.02,
            late_tick_max: SimDuration(500_000),
            spurious: Some(SpuriousIrqSpec {
                rate_per_sec: 250.0,
                service_mean: SimDuration(20_000),
                window: SimDuration(100_000_000),
            }),
            stall: Some(CpuStallSpec {
                start: (SimDuration(1_000), SimDuration(2_000)),
                duration: (SimDuration(3_000), SimDuration(4_000)),
            }),
            abort: Some(ThreadAbortSpec {
                prob: 0.05,
                window: (SimDuration::ZERO, SimDuration(10_000_000)),
            }),
        };
        let s = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(p, back);
    }
}
