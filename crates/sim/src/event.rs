//! Discrete-event queue with stable ordering, keyed timers and lane
//! timers.
//!
//! Events are ordered by `(time, sequence)` where `sequence` is a
//! monotonically increasing insertion counter shared by every event.
//! This makes simulations fully deterministic: two events scheduled for
//! the same instant fire in insertion order, independent of heap
//! internals.
//!
//! Three sources share that order, and [`EventQueue::pop`] and
//! [`EventQueue::peek_time`] take the least head of the three:
//!
//! * Plain events ([`EventQueue::schedule`]) are fire-and-forget and
//!   live in a binary heap.
//! * Keyed timers ([`EventQueue::arm`]) carry a small dense key chosen by
//!   the caller, with at most one pending entry per key, in an indexed
//!   min-heap: arming a pending key or cancelling it updates its entry
//!   in place, so a re-predicted event never leaves a dead entry behind.
//! * Lane timers ([`EventQueue::arm_lane`]) are one pending
//!   `(time, seq)` slot per lane, with no heap at all. The kernel's lanes
//!   are its CPUs, and each holds the completion timer of the compute
//!   running there: the timer that every rate change re-predicts, so the
//!   one re-armed most often. Arming a lane is a store; the least lane is
//!   found by a scan of 8-lane blocks that is redone only for the blocks
//!   that changed (see [`Lanes`]).
//!
//! Timer placement is deferred. `arm` and `cancel` stamp the seq and
//! update the entry and its key's slot at once, but only note which heap
//! indices changed; the next [`EventQueue::pop`] or
//! [`EventQueue::peek_time`] repairs the heap in one go. A key re-armed
//! several times between two pops thus sifts once. Neither this nor the
//! lane source's lazy minimum can change what fires when: `(time, seq)`
//! pairs are unique across all three sources, so the pop order is a
//! function of the live pairs alone, not of where they are kept.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What [`EventQueue::pop`] returns: a plain event's payload, the key
/// of a keyed timer that fired, or the lane whose timer fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fired<E> {
    Event(E),
    Timer(usize),
    Lane(usize),
}

/// Marks a key with no pending entry in [`EventQueue::pos`].
const NIL: u32 = u32::MAX;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Ordering: earliest time first, then lowest sequence.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Which source holds the queue's head (see [`EventQueue::pop`]).
#[derive(Clone, Copy)]
enum Source {
    Plain,
    Timer,
    Lane(usize),
}

/// A pending keyed timer.
#[derive(Clone, Copy)]
struct Timer {
    time: SimTime,
    seq: u64,
    key: u32,
}

impl Timer {
    #[inline]
    fn before(&self, other: &Timer) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

/// Lanes per block of [`Lanes`]: the unit a stale minimum is rescanned in.
const BLOCK: usize = 8;

/// Low bits of a lane key that hold the lane (see [`Lanes`]).
const LANE_BITS: u32 = 12;

/// Lane seqs must stay below this so a key's low half stays below
/// `2^63` and every real key below [`STALE`]: 2^51 events per run.
const LANE_SEQ_LIMIT: u64 = 1 << 51;

/// A disarmed lane's key: after every real key.
const IDLE: u128 = u128::MAX;

/// A cached minimum in [`Lanes`] that must be rescanned: after every
/// real key, so it never passes for one.
const STALE: u128 = u128::MAX - 1;

/// The lane timer source: one pending `(time, seq)` slot per lane.
///
/// Each slot is one `u128` key, `time << 64 | seq << 12 | lane`. Seqs are
/// unique, so keys order exactly as their `(time, seq)` pairs do, one
/// comparison orders two timers, and the least key names its own lane.
///
/// The least key is cached per block of [`BLOCK`] lanes and over the
/// whole source. Any change to a lane, arm, cancel or pop, only marks
/// its block and the whole source stale: a store, no comparison. The
/// next look rescans the stale blocks and then the block minima, so
/// popping one lane of 48 and re-arming it (a fine-chunk loop on a wide
/// machine) costs 8 + 6 key comparisons, not 48, and a full rate pass
/// that re-arms all 8 lanes of a small machine costs one rescan of 8.
struct Lanes {
    /// Each lane's key, `IDLE` when disarmed; padded with idle lanes to
    /// whole blocks.
    key: Vec<u128>,
    /// Per block, its least key, or `STALE`.
    block_min: Vec<u128>,
    /// The least key, or `STALE`.
    min: u128,
    /// Lanes with a pending timer.
    armed: usize,
    /// Keys compared while rescanning stale minima: a work count.
    compared: u64,
}

impl Default for Lanes {
    fn default() -> Self {
        Lanes {
            key: Vec::new(),
            block_min: Vec::new(),
            min: IDLE,
            armed: 0,
            compared: 0,
        }
    }
}

impl Lanes {
    /// Disarm every lane and zero the work count, keeping allocations.
    fn reset(&mut self) {
        self.key.clear();
        self.block_min.clear();
        self.min = IDLE;
        self.armed = 0;
        self.compared = 0;
    }

    #[inline]
    fn is_armed(&self, lane: usize) -> bool {
        self.key.get(lane).is_some_and(|&k| k != IDLE)
    }

    /// Arm `lane` at `(time, seq)`.
    #[inline]
    fn arm(&mut self, lane: usize, time: SimTime, seq: u64) {
        assert!(seq < LANE_SEQ_LIMIT, "lane timer seq {seq} out of range");
        let k = (u128::from(time.0) << 64) | u128::from(seq << LANE_BITS) | lane as u128;
        self.set(lane, k);
    }

    /// Set `lane`'s key to `k` (`IDLE` disarms it) and mark its block's
    /// minimum and the overall one stale.
    #[inline]
    fn set(&mut self, lane: usize, k: u128) {
        if lane >= self.key.len() {
            self.grow(lane);
        }
        let old = std::mem::replace(&mut self.key[lane], k);
        self.armed = self.armed + usize::from(k != IDLE) - usize::from(old != IDLE);
        self.block_min[lane / BLOCK] = STALE;
        self.min = STALE;
    }

    /// Add idle blocks up to the one holding `lane`. Out of line: it
    /// runs once per lane per run.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, lane: usize) {
        assert!(lane < 1 << LANE_BITS, "lane {lane} out of range");
        let blocks = lane / BLOCK + 1;
        self.key.resize(blocks * BLOCK, IDLE);
        self.block_min.resize(blocks, IDLE);
    }

    /// The least armed key, rescanning stale minima.
    #[inline]
    fn first(&mut self) -> Option<u128> {
        if self.armed == 0 {
            return None;
        }
        if self.min == STALE {
            self.rescan();
        }
        Some(self.min)
    }

    fn rescan(&mut self) {
        let mut min = IDLE;
        for (b, block_min) in self.block_min.iter_mut().enumerate() {
            if *block_min == STALE {
                let block = &self.key[b * BLOCK..(b + 1) * BLOCK];
                // Which lane wins is data, not a pattern a branch
                // predictor could learn: select, do not branch.
                *block_min = block_min_of(block);
                self.compared += BLOCK as u64;
            }
            min = std::hint::select_unpredictable(*block_min < min, *block_min, min);
        }
        self.compared += self.block_min.len() as u64;
        self.min = min;
    }
}

/// The least of one block's keys, by a tree of pairwise minima: three
/// levels of independent selects instead of a chain of seven.
#[inline]
fn block_min_of(block: &[u128]) -> u128 {
    let mut m = [IDLE; BLOCK];
    m.copy_from_slice(block);
    let mut width = BLOCK;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            m[i] = m[i].min(m[i + width]);
        }
    }
    m[0]
}

/// The lane and `(time, seq)` a lane key packs.
#[inline]
fn unpack(k: u128) -> (usize, SimTime, u64) {
    let low = k as u64;
    let lane = (low & ((1 << LANE_BITS) - 1)) as usize;
    (lane, SimTime((k >> 64) as u64), low >> LANE_BITS)
}

/// The event queue. `E` is the payload type of plain events; timers
/// carry only their key or lane.
pub struct EventQueue<E> {
    plain: BinaryHeap<Reverse<Entry<E>>>,
    /// Indexed min-heap of pending timers, ordered like `plain`.
    timers: Vec<Timer>,
    /// `pos[key]` is the index of `key`'s pending entry in `timers`, or
    /// `NIL`. Grows on demand to the largest key armed.
    pos: Vec<u32>,
    /// Indices in `timers` whose entry changed since the last repair
    /// (possibly repeated, possibly past the end after a removal).
    dirty: Vec<u32>,
    /// Repairs so far by branch: sifted, heapified.
    repairs: (u64, u64),
    lanes: Lanes,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            plain: BinaryHeap::new(),
            timers: Vec::new(),
            pos: Vec::new(),
            dirty: Vec::new(),
            repairs: (0, 0),
            lanes: Lanes::default(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Return the queue to its boot state (time zero, no events, no
    /// armed key or lane, sequence counter restarted) while keeping the
    /// allocations — the arena-reuse hook for repetition loops.
    pub fn reset(&mut self) {
        self.plain.clear();
        self.timers.clear();
        self.pos.clear();
        self.dirty.clear();
        self.repairs = (0, 0);
        self.lanes.reset();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }

    /// Number of pending events: plain, keyed and lane timers.
    #[inline]
    pub fn len(&self) -> usize {
        self.plain.len() + self.timers.len() + self.lanes.armed
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check `at` against `now` and draw the next sequence number.
    /// Scheduling in the past is a logic error and panics in every
    /// build.
    #[inline]
    fn stamp(&mut self, at: SimTime) -> (SimTime, u64) {
        assert!(
            at >= self.now,
            "scheduling event in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        (at, seq)
    }

    /// Schedule the plain event `payload` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let (time, seq) = self.stamp(at);
        self.plain.push(Reverse(Entry { time, seq, payload }));
    }

    /// Whether `key` has a pending entry.
    #[inline]
    pub fn is_armed(&self, key: usize) -> bool {
        self.slot(key) != NIL
    }

    /// Arm timer `key` to fire at `at`. A still-pending entry for the key
    /// is replaced in place: the re-prediction primitive. The heap is
    /// repaired at the next pop or peek.
    pub fn arm(&mut self, key: usize, at: SimTime) {
        let new = self.stamp_timer(key, at);
        let i = match self.slot(key) {
            NIL => {
                if key >= self.pos.len() {
                    self.pos.resize(key + 1, NIL);
                }
                let i = self.timers.len() as u32;
                self.timers.push(new);
                self.pos[key] = i;
                i
            }
            i => {
                self.timers[i as usize] = new;
                i
            }
        };
        self.mark(i);
    }

    /// Cancel `key`'s pending entry. Returns whether there was one;
    /// cancelling an unarmed key is a no-op.
    pub fn cancel(&mut self, key: usize) -> bool {
        let i = self.slot(key);
        if i != NIL {
            self.take(i as usize);
            if (i as usize) < self.timers.len() {
                self.mark(i);
            }
        }
        i != NIL
    }

    /// Whether `lane` has a pending timer.
    #[inline]
    pub fn lane_armed(&self, lane: usize) -> bool {
        self.lanes.is_armed(lane)
    }

    /// Arm `lane`'s timer to fire at `at`, replacing a pending one. Lanes
    /// are dense small indices; the lane source grows to the largest
    /// armed.
    #[inline]
    pub fn arm_lane(&mut self, lane: usize, at: SimTime) {
        let (time, seq) = self.stamp(at);
        self.lanes.arm(lane, time, seq);
    }

    /// Cancel `lane`'s pending timer. Returns whether there was one.
    #[inline]
    pub fn cancel_lane(&mut self, lane: usize) -> bool {
        let armed = self.lanes.is_armed(lane);
        if armed {
            self.lanes.set(lane, IDLE);
        }
        armed
    }

    /// Repairs of the timer heap so far, by branch: `(sifted,
    /// heapified)`. A work count for reports; reset by [`Self::reset`].
    pub fn repair_counts(&self) -> (u64, u64) {
        self.repairs
    }

    /// Lane keys compared so far while finding the least lane timer. A
    /// work count for reports; reset by [`Self::reset`].
    pub fn lane_compares(&self) -> u64 {
        self.lanes.compared
    }

    /// The source holding the least pending `(time, seq)`, with its time.
    fn head(&mut self) -> Option<(SimTime, Source)> {
        self.repair();
        // Each head as `time << 64 | seq`, `u128::MAX` when its source is
        // empty: seqs are unique, so the least is the next event.
        let pair = |time: SimTime, seq: u64| (u128::from(time.0) << 64) | u128::from(seq);
        let plain = self
            .plain
            .peek()
            .map_or(u128::MAX, |Reverse(e)| pair(e.time, e.seq));
        let timer = self
            .timers
            .first()
            .map_or(u128::MAX, |t| pair(t.time, t.seq));
        let (lane, lane_pair) = self.lanes.first().map_or((0, u128::MAX), |k| {
            let (lane, time, seq) = unpack(k);
            (lane, pair(time, seq))
        });
        let first = plain.min(timer).min(lane_pair);
        let source = if first == u128::MAX {
            return None;
        } else if first == plain {
            Source::Plain
        } else if first == timer {
            Source::Timer
        } else {
            Source::Lane(lane)
        };
        Some((SimTime((first >> 64) as u64), source))
    }

    /// Pop the next event, advancing `now` to its timestamp. Firing a
    /// timer disarms its key or lane.
    pub fn pop(&mut self) -> Option<(SimTime, Fired<E>)> {
        self.pop_through(SimTime(u64::MAX))
    }

    /// Pop the next event if it is due at or before `until`: one look
    /// at the three heads where [`Self::peek_time`] and [`Self::pop`]
    /// take two. `None` when the queue is empty or its next event is
    /// later.
    pub fn pop_through(&mut self, until: SimTime) -> Option<(SimTime, Fired<E>)> {
        let (time, source) = self.head().filter(|&(time, _)| time <= until)?;
        let fired = match source {
            Source::Plain => {
                let Reverse(entry) = self.plain.pop().expect("plain head was peeked");
                Fired::Event(entry.payload)
            }
            Source::Timer => {
                let t = self.take(0);
                if !self.timers.is_empty() {
                    self.sift_down(0);
                }
                Fired::Timer(t.key as usize)
            }
            Source::Lane(lane) => {
                self.lanes.set(lane, IDLE);
                Fired::Lane(lane)
            }
        };
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, fired))
    }

    /// Timestamp of the next event without firing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.head().map(|(time, _)| time)
    }

    /// A timer for `key` at `at`, stamped like any other event.
    #[inline]
    fn stamp_timer(&mut self, key: usize, at: SimTime) -> Timer {
        debug_assert!(key < NIL as usize, "timer key {key} out of range");
        let (time, seq) = self.stamp(at);
        Timer {
            time,
            seq,
            key: key as u32,
        }
    }

    /// Heap index of `key`'s pending entry, or `NIL`.
    #[inline]
    fn slot(&self, key: usize) -> u32 {
        self.pos.get(key).copied().unwrap_or(NIL)
    }

    /// Note that the entry at heap index `i` changed.
    #[inline]
    fn mark(&mut self, i: u32) {
        if self.dirty.last() != Some(&i) {
            self.dirty.push(i);
        }
    }

    /// Remove the entry at index `i`, moving the last entry into its
    /// place without restoring the heap order there.
    fn take(&mut self, i: usize) -> Timer {
        let t = self.timers.swap_remove(i);
        self.pos[t.key as usize] = NIL;
        if let Some(moved) = self.timers.get(i) {
            self.pos[moved.key as usize] = i as u32;
        }
        t
    }

    /// Restore the heap order after the changes noted in `dirty`: one
    /// changed entry sifts up or down, several re-heapify the whole heap.
    fn repair(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let n = self.timers.len();
        self.dirty.retain(|&i| (i as usize) < n);
        match *self.dirty.as_slice() {
            [] => {}
            [i] => {
                self.repairs.0 += 1;
                let i = i as usize;
                if i > 0 && self.timers[i].before(&self.timers[(i - 1) / 2]) {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
            _ => {
                self.repairs.1 += 1;
                for i in (0..n / 2).rev() {
                    self.sift_down(i);
                }
            }
        }
        self.dirty.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        let t = self.timers[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.timers[parent];
            if !t.before(&p) {
                break;
            }
            self.timers[i] = p;
            self.pos[p.key as usize] = i as u32;
            i = parent;
        }
        self.timers[i] = t;
        self.pos[t.key as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let t = self.timers[i];
        let n = self.timers.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.timers[right].before(&self.timers[left]) {
                right
            } else {
                left
            };
            let c = self.timers[child];
            if !c.before(&t) {
                break;
            }
            self.timers[i] = c;
            self.pos[c.key as usize] = i as u32;
            i = child;
        }
        self.timers[i] = t;
        self.pos[t.key as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev<E>(t: u64, e: E) -> Option<(SimTime, Fired<E>)> {
        Some((SimTime(t), Fired::Event(e)))
    }

    fn timer<E>(t: u64, key: usize) -> Option<(SimTime, Fired<E>)> {
        Some((SimTime(t), Fired::Timer(key)))
    }

    fn lane<E>(t: u64, lane: usize) -> Option<(SimTime, Fired<E>)> {
        Some((SimTime(t), Fired::Lane(lane)))
    }

    #[test]
    fn ties_across_three_sources_pop_in_seq_order() {
        let mut q = EventQueue::new();
        // 120 events at one instant, cycling plain, keyed and lane, with
        // lanes spread over several blocks and armed out of lane order.
        let mut want = Vec::new();
        for i in 0..120usize {
            match i % 3 {
                0 => {
                    q.schedule(SimTime(5), i);
                    want.push(ev(5, i));
                }
                1 => {
                    q.arm(i, SimTime(5));
                    want.push(timer(5, i));
                }
                _ => {
                    let l = (i * 7) % 40;
                    q.arm_lane(l, SimTime(5));
                    want.push(lane(5, l));
                }
            }
        }
        // A later lane re-armed earlier still fires after every tie that
        // was stamped before it.
        q.arm_lane(45, SimTime(9));
        q.arm_lane(45, SimTime(5));
        want.push(lane(5, 45));
        assert_eq!(q.len(), want.len());
        for w in want {
            assert_eq!(q.pop(), w);
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn lane_timers_rearm_cancel_and_pop() {
        let mut q = EventQueue::<u32>::new();
        for l in 0..20 {
            q.arm_lane(l, SimTime(100 + l as u64));
        }
        assert!(q.lane_armed(19) && !q.lane_armed(20) && !q.lane_armed(5_000));
        // Cancel the minimum, move the next one later, another earlier.
        assert!(q.cancel_lane(0));
        assert!(!q.cancel_lane(0));
        q.arm_lane(1, SimTime(500));
        q.arm_lane(17, SimTime(50));
        assert_eq!(q.len(), 19);
        assert_eq!(q.peek_time(), Some(SimTime(50)));
        assert_eq!(q.pop(), lane(50, 17));
        assert!(!q.lane_armed(17));
        for l in (2..20).filter(|&l| l != 17) {
            assert_eq!(q.pop(), lane(100 + l as u64, l));
        }
        assert_eq!(q.pop(), lane(500, 1));
        assert_eq!(q.pop(), None);
        assert!(q.lane_compares() > 0);
    }

    #[test]
    fn pop_through_stops_at_its_limit() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        q.arm_lane(3, SimTime(20));
        assert_eq!(q.pop_through(SimTime(9)), None);
        assert_eq!(q.pop_through(SimTime(10)), ev(10, 1));
        assert_eq!(q.pop_through(SimTime(19)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_through(SimTime(20)), lane(20, 3));
        assert_eq!(q.now(), SimTime(20));
    }

    #[test]
    fn reset_disarms_every_lane() {
        let mut q = EventQueue::<u32>::new();
        for l in 0..30 {
            q.arm_lane(l, SimTime(10 + l as u64));
        }
        assert_eq!(q.pop(), lane(10, 0));
        q.reset();
        assert!(q.is_empty());
        assert!((0..30).all(|l| !q.lane_armed(l)));
        assert_eq!(q.lane_compares(), 0);
        assert_eq!(q.pop(), None);
        // The lanes start over like a fresh queue's.
        q.arm_lane(29, SimTime(4));
        q.schedule(SimTime(4), 7);
        assert_eq!(q.pop(), lane(4, 29));
        assert_eq!(q.pop(), ev(4, 7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reset_restores_boot_state_and_disarms_every_key() {
        let mut q = EventQueue::new();
        q.arm(3, SimTime(10));
        q.schedule(SimTime(20), 2);
        q.arm(1, SimTime(30));
        assert_eq!(q.pop(), timer(10, 3));
        q.reset();
        assert_eq!(q.now(), SimTime::ZERO);
        assert!(q.is_empty());
        assert!(!q.is_armed(1));
        assert_eq!(q.pop(), None);
        // A second run behaves exactly like a fresh queue, with the
        // sequence counter restarted.
        q.arm(1, SimTime(5));
        q.schedule(SimTime(5), 8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), timer(5, 1));
        assert_eq!(q.pop(), ev(5, 8));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop(), ev(10, "a"));
        assert_eq!(q.pop(), ev(20, "b"));
        assert_eq!(q.pop(), ev(30, "c"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_fire_in_insertion_order_across_both_heaps() {
        let mut q = EventQueue::new();
        for i in 0..100usize {
            if i % 3 == 0 {
                q.arm(i, SimTime(5));
            } else {
                q.schedule(SimTime(5), i);
            }
        }
        for i in 0..100usize {
            let want = if i % 3 == 0 { timer(5, i) } else { ev(5, i) };
            assert_eq!(q.pop(), want);
        }
    }

    #[test]
    fn cancellation_skips_timer() {
        let mut q = EventQueue::<u32>::new();
        q.arm(0, SimTime(10));
        q.arm(1, SimTime(20));
        assert!(q.cancel(0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), timer(20, 1));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_is_idempotent_and_safe_after_fire() {
        let mut q = EventQueue::<u32>::new();
        q.arm(7, SimTime(10));
        assert!(q.cancel(7));
        assert!(!q.cancel(7));
        assert!(!q.cancel(1_000)); // never armed
        assert_eq!(q.pop(), None);
        q.arm(7, SimTime(20));
        assert_eq!(q.pop(), timer(20, 7));
        assert!(!q.is_armed(7));
        assert!(!q.cancel(7)); // already fired: no-op
        assert!(q.is_empty());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(15), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(15));
    }

    #[test]
    fn peek_time_sees_the_earlier_head() {
        let mut q = EventQueue::new();
        q.arm(0, SimTime(5));
        q.schedule(SimTime(9), 2);
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        q.cancel(0);
        assert_eq!(q.peek_time(), Some(SimTime(9)));
        q.arm(0, SimTime(7));
        assert_eq!(q.peek_time(), Some(SimTime(7)));
    }

    #[test]
    #[should_panic(expected = "scheduling event in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    fn arm_replaces_pending_timer() {
        let mut q = EventQueue::<u32>::new();
        q.arm(2, SimTime(50));
        q.arm(2, SimTime(10));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), timer(10, 2));
        assert_eq!(q.pop(), None);
        q.arm(2, SimTime(40)); // nothing pending: plain arm
        assert_eq!(q.pop(), timer(40, 2));
    }

    #[test]
    fn a_burst_of_rearms_and_a_cancel_then_rearm_repair_once() {
        let mut q = EventQueue::<u32>::new();
        for key in 0..6 {
            q.arm(key, SimTime(100 + key as u64));
        }
        assert_eq!(q.pop(), timer(100, 0));
        let before = q.repair_counts();
        // One burst between two pops: key 3 re-armed three times (last
        // arm wins, with its own seq), key 1 cancelled then re-armed.
        q.arm(3, SimTime(500));
        q.arm(3, SimTime(100));
        q.arm(3, SimTime(150));
        assert!(q.cancel(1));
        assert!(!q.is_armed(1));
        q.arm(1, SimTime(150));
        assert!(q.is_armed(1) && q.is_armed(3));
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(SimTime(102)));
        let after = q.repair_counts();
        let repairs = (after.0 - before.0) + (after.1 - before.1);
        assert_eq!(repairs, 1, "the burst is repaired once");
        assert_eq!(q.pop(), timer(102, 2));
        assert_eq!(q.pop(), timer(104, 4));
        assert_eq!(q.pop(), timer(105, 5));
        // Equal times fire in arm order: key 3's last arm came first.
        assert_eq!(q.pop(), timer(150, 3));
        assert_eq!(q.pop(), timer(150, 1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn repair_sifts_one_change_and_heapifies_several() {
        let mut q = EventQueue::<u32>::new();
        for key in 0..200 {
            q.arm(key, SimTime(1_000 + (key as u64 * 7919) % 997));
        }
        q.peek_time();
        let base = q.repair_counts();
        // One key re-armed twice between pops changes one entry: sift.
        q.arm(17, SimTime(9));
        q.arm(17, SimTime(5));
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        assert_eq!(q.repair_counts(), (base.0 + 1, base.1));
        // Two changes: heapify.
        q.arm(150, SimTime(3_000));
        q.cancel(60);
        assert_eq!(q.pop(), timer(5, 17));
        assert_eq!(q.repair_counts(), (base.0 + 1, base.1 + 1));
        let mut last = (SimTime(5), 0);
        while let Some((t, _)) = q.pop() {
            assert!(t >= last.0);
            last.0 = t;
            last.1 += 1;
        }
        assert_eq!(last.1, 198);
    }

    #[test]
    fn churn_leaves_no_dead_entries() {
        let mut q = EventQueue::<u64>::new();
        for i in 0..10_000u64 {
            q.arm((i % 8) as usize, SimTime(1_000_000 + i));
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.timers.len(), 8);
        assert!(q.plain.is_empty());
        let fired: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(fired.len(), 8);
        assert_eq!(fired[0], (SimTime(1_009_992), Fired::Timer(0)));
    }

    #[test]
    fn interleaved_cancel_pop_stress_keeps_counts_consistent() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..40u64 {
                let at = SimTime(round * 1000 + i * 13 % 997);
                if i % 2 == 0 {
                    q.arm((i / 2) as usize, at);
                } else {
                    q.schedule(at, (round, i));
                }
            }
            for key in (0..20).step_by(3) {
                q.cancel(key);
            }
            for _ in 0..20 {
                q.pop();
            }
            let armed = (0..20).filter(|&k| q.is_armed(k)).count();
            assert_eq!(armed, q.timers.len());
        }
        while q.pop().is_some() {}
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
