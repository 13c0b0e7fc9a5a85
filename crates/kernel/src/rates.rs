//! The rate layer: processor sharing over the running computes.
//!
//! Every compute on a CPU progresses at a rate set by two inputs: its
//! CPU's throughput factor (SMT sibling busy, IRQ window open, DVFS
//! frequency; see [`Kernel::compute_factor`]) and its share of the
//! socket's memory bandwidth, a max-min fair water-fill over the demands
//! of every running compute. A change to one CPU's occupant, compute,
//! IRQ window or frequency can therefore move the rate, and so the
//! completion time, of every other compute. The kernel calls
//! [`Kernel::recompute_rates_for`] after each such change, and that
//! entry point runs the cheapest of four passes whose rates are
//! bit-identical to a full re-rating:
//!
//! * **pair**: no running compute wants bandwidth, so only the touched
//!   CPU and its SMT sibling can move;
//! * **local**: the fill is unsaturated before and after the change, so
//!   every allocation is a bit-exact copy of its demand;
//! * **neutral**: the fill is saturated, but the touched pair's demands
//!   are bit-identical before and after, so every allocation is too;
//! * **full**: everything else. It sorts the demands, re-rates every
//!   compute and primes the caches the local and neutral passes read.
//!
//! Every pass but the pair pass first advances each running compute to
//! `now` at its old rate (interval splitting is not associative in f64,
//! so no advance may be skipped). A walk at an instant that already had
//! one is skipped: every compute that joins the running set later starts
//! at `now`, so the repeat walk would be a chain of `dt == 0` no-ops.
//! While a compute runs, its progress lives in the running set's
//! CPU-indexed lanes, so the walk is one branch-free loop over dense
//! arrays (see [`RunningSet`]).
//!
//! Each pass ends by setting rates through [`Kernel::apply_rate`], which
//! re-predicts the compute's completion. That timer is the event queue's
//! lane timer of the same CPU index, not a keyed timer: re-arming it is
//! a store into the lane, with no heap to repair, and it fires as
//! `ComputeDone` of the thread the lane holds. A compute that leaves its
//! CPU disarms it (`Kernel::vacate`), so a lane timer is armed only for
//! its CPU's running compute.
//!
//! The local pass must know whether the fill is still unsaturated, which
//! the full pass decides by summing the running demands in CPU order.
//! The layer keeps an upper bound on every cached demand, and
//! [`certify_unsaturated`] proves from it alone, in O(1), that the sum is
//! within the socket's bandwidth; only when the proof fails does the
//! local pass sum. On the wide machines' fine-chunk cells every local
//! pass is certified.
//!
//! The neutral pass relies on one more fact: between passes, a running
//! CPU's factor can change without a touch only when its IRQ window
//! (or its sibling's) closes at `now` and the `IrqDone` that touches it
//! is still queued, because [`Kernel::compute_factor`] reads
//! `in_irq(now)`. The pass falls back to the full pass in that case.
//!
//! [`RateCounts`] counts the layer's work per run. The simulation never
//! reads it.

use crate::kernel::Kernel;
use crate::observe::Phase;
use crate::thread::{advance_progress, eta_ns, ActiveCompute};
use crate::ThreadId;
use noiselab_machine::{certify_unsaturated, waterfill_into, CpuId, SoloProfile};
use noiselab_sim::{SimDuration, SimTime};

/// Work done by the rate layer in one run: passes by kind, advance
/// walks, compute-timer arms, and the event queue's timer-heap repairs
/// and lane-minimum rescans.
/// Plain counters for tests and reports; no simulated value reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RateCounts {
    /// Full passes: a water-fill over every running compute, then a
    /// re-rating of each.
    pub full: u64,
    /// Unsaturated local passes that stayed local (one that finds the
    /// fill saturated runs, and counts, a full pass instead).
    pub local: u64,
    /// Local passes whose unsaturated fill was certified from the demand
    /// bound alone, without summing the demands (counted in `local` too).
    pub local_certified: u64,
    /// Saturated passes after a change that left the touched pair's
    /// water-fill demands bit-identical.
    pub neutral: u64,
    /// Pair passes, run while no running compute wants bandwidth.
    pub pair: u64,
    /// Demand-neutral changes that ran the full pass instead, because a
    /// running CPU's IRQ window closed at `now` with its `IrqDone` still
    /// queued (counted in `full` too).
    pub closing_fallbacks: u64,
    /// Running-set advance walks run.
    pub walks: u64,
    /// Walks skipped because a walk already ran at the same instant.
    pub walks_skipped: u64,
    /// Compute-completion timers armed (or re-armed).
    pub arms: u64,
    /// Re-arms skipped because the rate was unchanged and the timer
    /// still armed.
    pub rearms_skipped: u64,
    /// Timer-heap repairs that sifted the changed entries.
    pub repairs_sift: u64,
    /// Timer-heap repairs that re-heapified the whole heap.
    pub repairs_heapify: u64,
    /// Lane keys compared while finding the earliest completion timer
    /// (the event queue's lane minimum rescans).
    pub lane_compares: u64,
}

/// What a rate pass does to a compute's completion timer (see
/// `Kernel::timer_after`).
enum LaneTimer {
    Keep,
    /// Arm it this many nanoseconds from now.
    Arm(u64),
    Cancel,
}

/// Water-fill demand of a runnable compute that wants bandwidth: its
/// bandwidth at the upper-bound rate it would reach if bandwidth were
/// free. Every pass uses it, so their demands stay bit-identical.
fn upper_bound_demand(solo: &SoloProfile, factor: f64) -> f64 {
    let r_up = if solo.cpu_ns > 0.0 {
        (factor * solo.solo_ns / solo.cpu_ns).min(1.0)
    } else {
        1.0
    };
    solo.bw_demand * r_up
}

/// Reusable buffers for [`Kernel::recompute_rates`], so the steady-state
/// hot path makes no heap allocations, plus the per-CPU caches the
/// local and neutral passes read and the run's [`RateCounts`].
#[derive(Default)]
pub(crate) struct RateScratch {
    /// Running `(thread index, cpu index)` pairs with active computes.
    running: Vec<(usize, usize)>,
    factors: Vec<f64>,
    demands: Vec<f64>,
    allocs: Vec<f64>,
    order: Vec<usize>,
    /// Waterfill input of the compute running on each CPU as of the
    /// last pass (0.0 when idle or demandless). Only meaningful while
    /// `cache_valid`; lets the local and neutral passes re-derive the
    /// fill's regime without touching other CPUs.
    demand_by_cpu: Vec<f64>,
    /// Upper bound on every `demand_by_cpu` slot (NaN once any slot was
    /// NaN): the full pass sets it to the largest demand it primes, the
    /// local pass raises it. Lets the local pass certify an unsaturated
    /// fill without summing (see [`certify_unsaturated`]).
    demand_max: f64,
    /// Allocation of the compute running on each CPU in the last full
    /// pass (0.0 when idle or demandless). Only meaningful while the
    /// cache is valid and saturated, which only a full pass sets up.
    alloc_by_cpu: Vec<f64>,
    /// Whether the last recompute left the waterfill unsaturated, i.e.
    /// every allocation was a bit-exact copy of its demand.
    cache_unsaturated: bool,
    /// Whether `demand_by_cpu` reflects the live running set. Cleared
    /// by the pair pass (which does not maintain it).
    cache_valid: bool,
    /// Instant of the last running-set advance walk: while it equals
    /// `now`, every running compute is already at `now`.
    walked_at: Option<SimTime>,
    counts: RateCounts,
}

impl RateScratch {
    /// Raise `demand_max` to cover a slot that now holds `d`; a NaN
    /// sticks until the next full pass, so the certificate keeps
    /// falling back to the sum.
    #[inline]
    fn cover_demand(&mut self, d: f64) {
        if d > self.demand_max || d.is_nan() {
            self.demand_max = d;
        }
    }
}

/// Dense index of the CPUs whose current thread holds an active
/// compute — the set every rate recompute iterates. A bitmask (visited
/// in CPU-index order, matching the historical all-CPU scan) plus a
/// per-CPU thread index keep the hot loops on two small arrays instead
/// of walking the full `Cpu` and `Thread` structs.
///
/// While a compute runs, its progress (`remaining`, `overhead_ns`) and
/// its rate and last update live only in this set's CPU-indexed lanes:
/// [`RunningSet::insert`] loads a lane at rate 0 from `now`, and
/// [`Kernel::leave_running`] advances it to `now` and writes the
/// progress back into the `ActiveCompute`.
/// Idle lanes hold rate 0 and overhead 0, which makes advancing them an
/// exact no-op, so the advance walk is one loop over every lane.
///
/// A lane's completion timer (its `due` and `seq`, and whether it is
/// armed) is the event queue's lane timer of the same index, kept in
/// the queue so that one structure orders every pending event; see
/// [`Kernel::apply_rate`].
pub(crate) struct RunningSet {
    mask: Vec<u64>,
    tid: Vec<u32>,
    remaining: Vec<f64>,
    rate: Vec<f64>,
    overhead: Vec<f64>,
    /// Time of the lane's last update in ns, as f64: exact below 2^53 ns
    /// (104 days), and so is the difference of two such instants.
    last: Vec<f64>,
}

/// Lane times are f64 nanoseconds; every integer below this is exact.
const LANE_TIME_LIMIT: u64 = 1 << 53;

impl RunningSet {
    /// A set for `n_cpus` CPUs, all idle.
    pub(crate) fn new(n_cpus: usize) -> Self {
        RunningSet {
            mask: vec![0; n_cpus.div_ceil(64)],
            tid: vec![u32::MAX; n_cpus],
            remaining: vec![0.0; n_cpus],
            rate: vec![0.0; n_cpus],
            overhead: vec![0.0; n_cpus],
            last: vec![0.0; n_cpus],
        }
    }

    /// Thread `ti` runs compute `c` on CPU `ci` from `now`: load its
    /// progress into a lane at rate 0 (the next pass rates it).
    #[inline]
    fn insert(&mut self, ci: usize, ti: usize, c: &ActiveCompute, now: SimTime) {
        assert!(
            now.0 < LANE_TIME_LIMIT,
            "virtual time past the exact range of the rate lanes"
        );
        self.mask[ci >> 6] |= 1u64 << (ci & 63);
        self.tid[ci] = ti as u32;
        self.remaining[ci] = c.remaining;
        self.rate[ci] = 0.0;
        self.overhead[ci] = c.overhead_ns;
        self.last[ci] = now.0 as f64;
    }

    /// CPU `ci`'s compute stops running: drop it from the set and idle
    /// its lane (the caller has written the progress back or drops it).
    #[inline]
    fn remove(&mut self, ci: usize) {
        self.mask[ci >> 6] &= !(1u64 << (ci & 63));
        self.tid[ci] = u32::MAX;
        self.rate[ci] = 0.0;
        self.overhead[ci] = 0.0;
    }

    /// Advance every lane to `now` (see [`advance_progress`]).
    fn advance_all(&mut self, now: SimTime) {
        let now = now.0 as f64;
        let lanes = self
            .remaining
            .iter_mut()
            .zip(&mut self.overhead)
            .zip(&self.rate)
            .zip(&mut self.last);
        for (((remaining, overhead), &rate), last) in lanes {
            advance_progress(remaining, overhead, rate, now - *last);
            *last = now;
        }
    }

    /// Advance CPU `ci`'s lane to `now`; returns its `(remaining,
    /// overhead_ns)`.
    pub(crate) fn advance(&mut self, ci: usize, now: SimTime) -> (f64, f64) {
        let now = now.0 as f64;
        let (remaining, overhead) = (&mut self.remaining[ci], &mut self.overhead[ci]);
        advance_progress(remaining, overhead, self.rate[ci], now - self.last[ci]);
        self.last[ci] = now;
        (*remaining, *overhead)
    }

    /// CPU `ci`'s compute, inserted at this instant, starts running
    /// after `pending` ns of switch overhead accumulated off-CPU.
    pub(crate) fn resume(&mut self, ci: usize, pending: f64) {
        self.overhead[ci] += pending;
    }

    /// Completion time of CPU `ci`'s compute at its lane's rate.
    fn eta_ns(&self, ci: usize) -> Option<u64> {
        eta_ns(self.remaining[ci], self.overhead[ci], self.rate[ci])
    }

    /// The thread whose compute runs in CPU `ci`'s lane.
    #[inline]
    pub(crate) fn thread(&self, ci: usize) -> ThreadId {
        debug_assert!(self.tid[ci] != u32::MAX, "cpu {ci}'s lane is idle");
        ThreadId(self.tid[ci])
    }

    /// Visit running `(cpu index, thread index)` pairs in CPU order.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        for (w, &word) in self.mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let ci = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(ci, self.tid[ci] as usize);
            }
        }
    }
}

impl Kernel {
    /// The rate layer's work counts so far in this run.
    pub fn rate_counts(&self) -> RateCounts {
        let (repairs_sift, repairs_heapify) = self.queue.repair_counts();
        RateCounts {
            repairs_sift,
            repairs_heapify,
            lane_compares: self.queue.lane_compares(),
            ..self.scratch.counts
        }
    }

    // ------------------------------------------------------------------
    // Running-set bookkeeping
    // ------------------------------------------------------------------

    /// Thread `i`, whose compute is set, became CPU `ci`'s occupant.
    pub(crate) fn join_running(&mut self, ci: usize, i: usize) {
        let now = self.now();
        let c = self.computes[i]
            .as_ref()
            .expect("a joining thread has a compute");
        self.running.insert(ci, i, c, now);
        if self.thread_demands_bw(i) {
            self.bw_running += 1;
        }
    }

    /// Thread `i`, whose compute is still set, stops occupying CPU `ci`:
    /// credit its progress up to `now` at the lane's rate and write it
    /// back into the compute.
    pub(crate) fn leave_running(&mut self, ci: usize, i: usize) {
        let (remaining, overhead) = self.running.advance(ci, self.now());
        self.vacate(ci);
        let c = self.computes[i]
            .as_mut()
            .expect("a leaving thread has a compute");
        c.remaining = remaining;
        c.overhead_ns = overhead;
        if self.thread_demands_bw(i) {
            self.bw_running -= 1;
        }
    }

    /// CPU `ci`'s compute stops running: drop it from the running set
    /// and disarm its completion timer, so a lane timer always belongs
    /// to its CPU's running compute.
    fn vacate(&mut self, ci: usize) {
        self.running.remove(ci);
        self.queue.cancel_lane(ci);
    }

    /// Give running thread `i` a fresh compute, which starts at `now`.
    pub(crate) fn set_compute(&mut self, i: usize, compute: ActiveCompute) {
        let had_bw = self.thread_demands_bw(i);
        let wants_bw = compute.solo.bw_demand > 0.0;
        match (had_bw, wants_bw) {
            (false, true) => self.bw_running += 1,
            (true, false) => self.bw_running -= 1,
            _ => {}
        }
        let cpu = self.threads[i]
            .cpu
            .expect("running thread without cpu")
            .index();
        self.running.insert(cpu, i, &compute, self.now());
        self.computes[i] = Some(compute);
    }

    /// Clear thread `i`'s compute, keeping `bw_running` and the running
    /// set in sync when the thread is some CPU's current occupant
    /// (paths that go through `off_cpu` first have already updated both
    /// there).
    pub(crate) fn clear_compute(&mut self, i: usize) {
        let was_bw = self.thread_demands_bw(i);
        let had = self.computes[i].take().is_some();
        if had {
            if let Some(c) = self.threads[i].cpu {
                if self.cpus[c.index()].current == Some(ThreadId(i as u32)) {
                    self.vacate(c.index());
                    if was_bw {
                        self.bw_running -= 1;
                    }
                }
            }
        }
    }

    /// Does thread `i` hold a compute that demands memory bandwidth?
    #[inline]
    fn thread_demands_bw(&self, i: usize) -> bool {
        self.computes[i]
            .as_ref()
            .is_some_and(|c| c.solo.bw_demand > 0.0)
    }

    /// Does any running compute demand memory bandwidth? When none does,
    /// the water-fill couples nothing and rate changes stay local to a
    /// CPU and its SMT sibling. O(1) via the maintained counter; debug
    /// builds cross-check it against the definitional scan.
    fn bw_demand_active(&self) -> bool {
        debug_assert_eq!(
            self.bw_running > 0,
            self.cpus
                .iter()
                .any(|c| { c.current.is_some_and(|t| self.thread_demands_bw(t.index())) }),
            "bw_running counter drifted from the running set"
        );
        self.bw_running > 0
    }

    // ------------------------------------------------------------------
    // Rates
    // ------------------------------------------------------------------

    /// SMT/IRQ/frequency throughput factor for the compute running on
    /// `ci`. Frequency multiplies in here (and nowhere else), so both
    /// the rate and the water-fill demand paths see it consistently; a
    /// disabled DVFS axis contributes exactly nothing.
    pub(crate) fn compute_factor(&self, ci: usize, now: SimTime) -> f64 {
        let mut factor = 1.0;
        if let Some(sib) = self.machine.sibling_of(CpuId(ci as u32)) {
            if let Some(sib_cur) = self.cpus[sib.index()].current {
                if self.computes[sib_cur.index()].is_some() && !self.cpus[sib.index()].in_irq(now) {
                    factor = self.machine.perf.smt_factor;
                }
            }
        }
        if let Some(d) = self.dvfs.as_ref() {
            factor *= d.factor(ci);
        }
        if self.cpus[ci].in_irq(now) {
            factor = 0.0;
        }
        factor
    }

    /// Set the rate of thread `ti`'s compute on CPU `ci` and
    /// (re)schedule its completion: the lane timer of `ci`, which fires
    /// as `ComputeDone` of the lane's thread. When the rate is unchanged
    /// and the timer is still armed, the previously scheduled time
    /// remains exact, so the re-arm is skipped.
    fn apply_rate(&mut self, ci: usize, ti: usize, factor: f64, rate: f64, now: SimTime) {
        let lane_rate = &mut self.running.rate[ci];
        let unchanged = (*lane_rate - rate).abs() <= 1e-12 * rate.max(1.0);
        *lane_rate = rate;
        match self.timer_after(ci, factor, unchanged) {
            LaneTimer::Keep => self.scratch.counts.rearms_skipped += 1,
            LaneTimer::Arm(ns) => {
                self.scratch.counts.arms += 1;
                self.debug_check_compute_owner(ci, ti);
                self.queue.arm_lane(ci, now + SimDuration(ns.max(1)));
            }
            LaneTimer::Cancel => {
                self.queue.cancel_lane(ci);
            }
        }
    }

    /// What a rate pass does to CPU `ci`'s completion timer once the
    /// compute holds its new rate at `factor`: an armed timer whose rate
    /// is `unchanged` stays exact and is kept; otherwise the timer is
    /// armed at the compute's eta, or cancelled when the compute cannot
    /// progress (`factor` 0, or no eta).
    #[inline]
    fn timer_after(&self, ci: usize, factor: f64, unchanged: bool) -> LaneTimer {
        if unchanged && self.queue.lane_armed(ci) {
            return LaneTimer::Keep;
        }
        if factor == 0.0 {
            return LaneTimer::Cancel;
        }
        match self.running.eta_ns(ci) {
            Some(ns) => LaneTimer::Arm(ns),
            None => LaneTimer::Cancel,
        }
    }

    /// Debug check that a completion timer is armed only for the
    /// current occupant of CPU `ci`, holding a compute, in `ci`'s lane.
    #[inline]
    fn debug_check_compute_owner(&self, ci: usize, ti: usize) {
        debug_assert!(
            self.cpus[ci].current == Some(ThreadId(ti as u32))
                && self.threads[ti].state == crate::thread::ThreadState::Running
                && self.threads[ti].cpu == Some(CpuId(ci as u32))
                && self.computes[ti].is_some()
                && self.running.tid[ci] == ti as u32,
            "completion timer armed for thread {ti}, which is not cpu {ci}'s running compute"
        );
    }

    /// Waterfill demand of the compute currently on `cpu`, exactly as
    /// [`Self::recompute_rates`] would feed it to the fill: zero unless
    /// the compute can run (`factor > 0`) and wants bandwidth.
    fn waterfill_demand(&self, cpu: usize, now: SimTime) -> f64 {
        let Some(tid) = self.cpus[cpu].current else {
            return 0.0;
        };
        let Some(c) = self.computes[tid.index()].as_ref() else {
            return 0.0;
        };
        let factor = self.compute_factor(cpu, now);
        if factor > 0.0 && c.solo.bw_demand > 0.0 {
            upper_bound_demand(&c.solo, factor)
        } else {
            0.0
        }
    }

    /// `ci` and its SMT sibling, in CPU-index order: the order the full
    /// pass re-rates them in, which fixes the seqs their re-arms take.
    fn touched_pair(&self, ci: usize) -> [Option<usize>; 2] {
        match self.machine.sibling_of(CpuId(ci as u32)).map(|c| c.index()) {
            Some(sib) if sib < ci => [Some(sib), Some(ci)],
            sib => [Some(ci), sib],
        }
    }

    /// Recompute rates after a change confined to CPU `ci` (its current
    /// thread, compute, IRQ window or frequency changed), with the
    /// cheapest pass that gives bit-identical rates (see the module
    /// docs).
    pub(crate) fn recompute_rates_for(&mut self, ci: usize) {
        self.prof_enter(Phase::Rates);
        if !self.bw_demand_active() {
            self.recompute_rates_pair(ci);
        } else if !self.scratch.cache_valid {
            // No pass has primed the demand cache yet.
            self.recompute_rates();
        } else if self.scratch.cache_unsaturated {
            self.recompute_rates_local(ci);
        } else if self.demand_neutral(ci) {
            self.recompute_rates_neutral(ci);
        } else {
            self.recompute_rates();
        }
        self.prof_exit(Phase::Rates);
    }

    /// Advance every running compute to `now` at its old rate, unless a
    /// walk already ran at this instant: then every running compute is
    /// at `now` (one that joined since started there), and each advance
    /// would be a `dt == 0` no-op.
    fn advance_running(&mut self, now: SimTime) {
        if self.scratch.walked_at == Some(now) {
            self.scratch.counts.walks_skipped += 1;
            #[cfg(debug_assertions)]
            self.running.for_each(|ci, _| {
                debug_assert_eq!(
                    self.running.last[ci], now.0 as f64,
                    "skipped walk left cpu {ci}'s compute behind now"
                );
            });
            return;
        }
        self.running.advance_all(now);
        self.scratch.walked_at = Some(now);
        self.scratch.counts.walks += 1;
    }

    /// Demandless path of [`Self::recompute_rates_for`]: re-rate only
    /// `ci` and its SMT sibling.
    fn recompute_rates_pair(&mut self, ci: usize) {
        self.scratch.counts.pair += 1;
        // No demand cached below, so the next bandwidth-active
        // recompute must start with a full pass.
        self.scratch.cache_valid = false;
        let now = self.now();
        let sib = self.machine.sibling_of(CpuId(ci as u32)).map(|c| c.index());
        for cpu in [Some(ci), sib].into_iter().flatten() {
            let Some(tid) = self.cpus[cpu].current else {
                continue;
            };
            let ti = tid.index();
            if self.computes[ti].is_none() {
                continue;
            }
            self.running.advance(cpu, now);
            let factor = self.compute_factor(cpu, now);
            let rate = {
                let c = self.computes[ti].as_ref().expect("checked is_none above");
                // No bandwidth demand anywhere, so the allocation is 0.
                self.machine.perf.rate(&c.solo, factor, 0.0)
            };
            self.apply_rate(cpu, ti, factor, rate, now);
        }
    }

    /// Bandwidth-active local fast path for a change confined to CPU
    /// `ci`. Valid only while the waterfill is unsaturated before *and*
    /// after the change: then `alloc[k] == demands[k]` bit-for-bit
    /// (see `waterfill_into`), and since an unaffected CPU's factor
    /// inputs are unchanged between recomputes (any event that changes
    /// them recomputes that CPU), its demand, allocation and rate are
    /// bit-identical to what the full pass would produce — so only `ci`
    /// and its SMT sibling need their rate re-applied.
    fn recompute_rates_local(&mut self, ci: usize) {
        let now = self.now();
        self.advance_running(now);
        let sib = self.machine.sibling_of(CpuId(ci as u32)).map(|c| c.index());
        for cpu in [Some(ci), sib].into_iter().flatten() {
            let d = self.waterfill_demand(cpu, now);
            self.scratch.demand_by_cpu[cpu] = d;
            self.scratch.cover_demand(d);
        }
        // The full pass's saturation test sums the running demands in
        // CPU order. Every slot is at most `demand_max`, so a bound on
        // that sum usually decides it without the O(CPUs) walk.
        let socket_bw = self.machine.perf.socket_bw;
        let certified = certify_unsaturated(self.cpus.len(), self.scratch.demand_max, socket_bw);
        debug_assert!(
            !certified || self.running_demand_sum() <= socket_bw,
            "certified an unsaturated fill the CPU-order sum saturates"
        );
        // A NaN sum compares false and takes the conservative branch.
        let unsaturated = certified || self.running_demand_sum() <= socket_bw;
        if !unsaturated {
            // Transitioned into saturation: allocations now couple
            // globally. The full pass skips the walk done above.
            self.recompute_rates();
            return;
        }
        self.scratch.counts.local += 1;
        self.scratch.counts.local_certified += u64::from(certified);
        for cpu in [Some(ci), sib].into_iter().flatten() {
            let Some(tid) = self.cpus[cpu].current else {
                continue;
            };
            let ti = tid.index();
            if self.computes[ti].is_none() {
                continue;
            }
            let factor = self.compute_factor(cpu, now);
            let alloc = self.scratch.demand_by_cpu[cpu];
            let rate = {
                let c = self.computes[ti].as_ref().expect("checked is_none above");
                self.machine.perf.rate(&c.solo, factor, alloc)
            };
            self.apply_rate(cpu, ti, factor, rate, now);
        }
    }

    /// Sum of the running CPUs' cached demands, added in CPU order: the
    /// value sequence the full pass's fill would sum.
    fn running_demand_sum(&self) -> f64 {
        let mut total = 0.0;
        let demand = &self.scratch.demand_by_cpu;
        self.running.for_each(|cpu, _| total += demand[cpu]);
        total
    }

    /// Whether the saturated fill's input is untouched by a change on
    /// `ci`: the pair's demands are bit-identical to the cached ones,
    /// and no running CPU's factor moved without a touch (a window that
    /// closes at `now` before its `IrqDone` fired; the IRQ keys are the
    /// CPU indices). Then the zero demands sort first and take 0, so
    /// every nonzero demand meets the same `remaining` and count, and
    /// every allocation is bit-identical to the last full pass's.
    fn demand_neutral(&mut self, ci: usize) -> bool {
        let now = self.now();
        let pair_same = self.touched_pair(ci).into_iter().flatten().all(|cpu| {
            self.waterfill_demand(cpu, now).to_bits() == self.scratch.demand_by_cpu[cpu].to_bits()
        });
        if !pair_same {
            return false;
        }
        let mut closing = false;
        self.running.for_each(|cpu, _| {
            closing |= self.cpus[cpu].irq_until == now && self.queue.is_armed(cpu);
        });
        self.scratch.counts.closing_fallbacks += u64::from(closing);
        !closing
    }

    /// Saturated demand-neutral pass (see [`Self::demand_neutral`]):
    /// every allocation is the cached one and every untouched factor is
    /// unchanged, so only `ci` and its SMT sibling are re-rated, in the
    /// full pass's order. The full pass's other `apply_rate` calls would
    /// find their rates unchanged and their timers armed.
    fn recompute_rates_neutral(&mut self, ci: usize) {
        self.scratch.counts.neutral += 1;
        let now = self.now();
        self.advance_running(now);
        for cpu in self.touched_pair(ci).into_iter().flatten() {
            let Some(tid) = self.cpus[cpu].current else {
                continue;
            };
            let ti = tid.index();
            let Some(c) = self.computes[ti].as_ref() else {
                continue;
            };
            let factor = self.compute_factor(cpu, now);
            let rate = self
                .machine
                .perf
                .rate(&c.solo, factor, self.scratch.alloc_by_cpu[cpu]);
            self.apply_rate(cpu, ti, factor, rate, now);
        }
        #[cfg(debug_assertions)]
        self.debug_check_full_pass(now);
    }

    /// Debug cross-check of the neutral pass: recompute from scratch
    /// what the full pass would produce (no advance, no queue write) and
    /// assert every running compute already holds that rate, and that
    /// its timer is armed exactly when the full pass would leave it
    /// armed, by the rule [`Self::apply_rate`] applies.
    #[cfg(debug_assertions)]
    fn debug_check_full_pass(&self, now: SimTime) {
        let mut running = Vec::new();
        self.running.for_each(|ci, ti| running.push((ci, ti)));
        let factors: Vec<f64> = running
            .iter()
            .map(|&(ci, _)| self.compute_factor(ci, now))
            .collect();
        let demands: Vec<f64> = running
            .iter()
            .zip(&factors)
            .map(|(&(_, ti), &factor)| {
                let c = self.computes[ti].as_ref().expect("running compute");
                if factor > 0.0 && c.solo.bw_demand > 0.0 {
                    upper_bound_demand(&c.solo, factor)
                } else {
                    0.0
                }
            })
            .collect();
        let allocs = noiselab_machine::waterfill(&demands, self.machine.perf.socket_bw);
        for (k, &(ci, ti)) in running.iter().enumerate() {
            let c = self.computes[ti].as_ref().expect("running compute");
            let rate = self.machine.perf.rate(&c.solo, factors[k], allocs[k]);
            let held = self.running.rate[ci];
            debug_assert_eq!(
                held.to_bits(),
                rate.to_bits(),
                "neutral pass left cpu {ci} at rate {held} where the full pass gives {rate}"
            );
            // The full pass would find the held rate unchanged (asserted
            // above), so it keeps an armed timer, even one of a compute
            // in an IRQ window, and arms or cancels any other.
            let cancelled = matches!(self.timer_after(ci, factors[k], true), LaneTimer::Cancel);
            debug_assert_eq!(
                self.queue.lane_armed(ci),
                !cancelled,
                "neutral pass left cpu {ci}'s completion timer out of step"
            );
        }
    }

    /// Recompute execution rates for every running compute and reschedule
    /// completion events. Called whenever the set of running threads, the
    /// IRQ state, or SMT occupancy changes in a way that is not confined
    /// to one CPU (see [`Self::recompute_rates_for`]).
    fn recompute_rates(&mut self) {
        self.scratch.counts.full += 1;
        let now = self.now();
        // Collect running (tid, cpu) pairs with active computes into the
        // reusable scratch (CPU-index order), driven by the incrementally
        // maintained running-set mask rather than a scan of every CPU.
        {
            let (running, scratch) = (&self.running, &mut self.scratch);
            scratch.running.clear();
            running.for_each(|ci, ti| scratch.running.push((ti, ci)));
        }
        #[cfg(debug_assertions)]
        {
            let mut scan = Vec::new();
            for (ci, cpu) in self.cpus.iter().enumerate() {
                if let Some(tid) = cpu.current {
                    if self.computes[tid.index()].is_some() {
                        scan.push((tid.index(), ci));
                    }
                }
            }
            debug_assert_eq!(
                self.scratch.running, scan,
                "running-set mask drifted from the definitional scan"
            );
        }
        let n = self.scratch.running.len();
        // First: advance progress at old rates.
        self.advance_running(now);
        // Compute factors (SMT) and bandwidth demands.
        self.scratch.factors.clear();
        self.scratch.factors.resize(n, 0.0);
        self.scratch.demands.clear();
        self.scratch.demands.resize(n, 0.0);
        let mut any_demand = false;
        for k in 0..n {
            let (ti, ci) = self.scratch.running[k];
            let factor = self.compute_factor(ci, now);
            self.scratch.factors[k] = factor;
            let c = self.computes[ti]
                .as_ref()
                .expect("a running thread has a compute phase");
            if factor > 0.0 && c.solo.bw_demand > 0.0 {
                self.scratch.demands[k] = upper_bound_demand(&c.solo, factor);
                any_demand = true;
            }
        }
        // Water-fill only when some compute actually wants bandwidth;
        // with all-zero demands every allocation is zero anyway.
        let unsaturated = if any_demand {
            waterfill_into(
                &self.scratch.demands,
                self.machine.perf.socket_bw,
                &mut self.scratch.allocs,
                &mut self.scratch.order,
            )
        } else {
            self.scratch.allocs.clear();
            self.scratch.allocs.resize(n, 0.0);
            true
        };
        // Prime the per-CPU caches for the local and neutral passes.
        let n_cpus = self.cpus.len();
        let scratch = &mut self.scratch;
        scratch.demand_by_cpu.clear();
        scratch.demand_by_cpu.resize(n_cpus, 0.0);
        scratch.alloc_by_cpu.clear();
        scratch.alloc_by_cpu.resize(n_cpus, 0.0);
        scratch.demand_max = 0.0;
        for k in 0..n {
            let (_, ci) = scratch.running[k];
            let d = scratch.demands[k];
            scratch.demand_by_cpu[ci] = d;
            scratch.cover_demand(d);
            scratch.alloc_by_cpu[ci] = scratch.allocs[k];
        }
        scratch.cache_unsaturated = unsaturated;
        scratch.cache_valid = true;
        // Then: set new rates and (re)schedule completions.
        for k in 0..n {
            let (ti, ci) = self.scratch.running[k];
            let factor = self.scratch.factors[k];
            let alloc = self.scratch.allocs[k];
            let rate = {
                let c = self.computes[ti]
                    .as_ref()
                    .expect("a running thread has a compute phase");
                self.machine.perf.rate(&c.solo, factor, alloc)
            };
            self.apply_rate(ci, ti, factor, rate, now);
        }
    }
}
