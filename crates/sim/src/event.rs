//! Discrete-event queue with stable ordering and keyed timers.
//!
//! Events are ordered by `(time, sequence)` where `sequence` is a
//! monotonically increasing insertion counter shared by every event.
//! This makes simulations fully deterministic: two events scheduled for
//! the same instant fire in insertion order, independent of heap
//! internals.
//!
//! Two kinds of event share that order. Plain events
//! ([`EventQueue::schedule`]) are fire-and-forget and live in a binary
//! heap. Keyed timers ([`EventQueue::arm`]) carry a small dense key
//! chosen by the caller, with at most one pending entry per key, in an
//! indexed min-heap: re-arming or cancelling a key updates its entry in
//! place, so the churn of re-predicted events (compute completions move
//! on every rate change) never leaves a dead entry behind.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What [`EventQueue::pop`] returns: a plain event's payload, or the
/// key of a timer that fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fired<E> {
    Event(E),
    Timer(usize),
}

/// Marks a key with no pending entry in [`EventQueue::pos`].
const NIL: u32 = u32::MAX;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: Fired<E>,
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

/// The event queue. `E` is the payload type of plain events; timers
/// carry only their key.
pub struct EventQueue<E> {
    plain: BinaryHeap<Reverse<Entry<E>>>,
    /// Indexed min-heap of pending timers, ordered like `plain`.
    timers: Vec<Timer>,
    /// `pos[key]` is the index of `key`'s pending entry in `timers`, or
    /// `NIL`. Grows on demand to the largest key armed.
    pos: Vec<u32>,
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
    /// armed key, sequence counter restarted) while keeping the heaps'
    /// allocations — the arena-reuse hook for repetition loops.
    pub fn reset(&mut self) {
        self.plain.clear();
        self.timers.clear();
        self.pos.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }

    /// Number of pending events, plain and keyed.
    #[inline]
    pub fn len(&self) -> usize {
        self.plain.len() + self.timers.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clamp `at` to `now` and draw the next sequence number. Scheduling
    /// in the past is a logic error and panics in debug builds; in
    /// release it fires immediately at `now`.
    #[inline]
    fn stamp(&mut self, at: SimTime) -> (SimTime, u64) {
        debug_assert!(
            at >= self.now,
            "scheduling event in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        (at.max(self.now), seq)
    }

    /// Schedule the plain event `payload` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let (time, seq) = self.stamp(at);
        self.plain.push(Reverse(Entry {
            time,
            seq,
            payload: Fired::Event(payload),
        }));
    }

    /// Whether `key` has a pending entry.
    #[inline]
    pub fn is_armed(&self, key: usize) -> bool {
        self.slot(key) != NIL
    }

    /// Arm timer `key` to fire at `at`. A still-pending entry for the key
    /// is *demoted*, not dropped: it keeps its time and sequence and
    /// still fires, but the key no longer refers to it, so it can no
    /// longer be cancelled.
    pub fn arm(&mut self, key: usize, at: SimTime) {
        let new = self.stamp_timer(key, at);
        match self.slot(key) {
            NIL => self.insert(new),
            i => {
                let old = std::mem::replace(&mut self.timers[i as usize], new);
                self.demote(old);
                self.fix(i as usize);
            }
        }
    }

    /// Cancel `key`'s pending entry, if any, and arm it at `at`: the
    /// re-prediction primitive, one in-place heap update.
    pub fn rearm(&mut self, key: usize, at: SimTime) {
        let new = self.stamp_timer(key, at);
        match self.slot(key) {
            NIL => self.insert(new),
            i => {
                self.timers[i as usize] = new;
                self.fix(i as usize);
            }
        }
    }

    /// Cancel `key`'s pending entry. Returns whether there was one;
    /// cancelling an unarmed key is a no-op.
    pub fn cancel(&mut self, key: usize) -> bool {
        let i = self.slot(key);
        if i != NIL {
            self.remove_at(i as usize);
        }
        i != NIL
    }

    /// Pop the next event, advancing `now` to its timestamp. Firing a
    /// timer releases its key: when a demoted entry fires while the key
    /// has a newer pending entry, that entry is demoted in turn, so a
    /// key only ever refers to an entry armed after the key last fired.
    pub fn pop(&mut self) -> Option<(SimTime, Fired<E>)> {
        let plain_first = match (self.plain.peek(), self.timers.first()) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(Reverse(p)), Some(t)) => (p.time, p.seq) < (t.time, t.seq),
        };
        let (time, fired) = if plain_first {
            let Reverse(entry) = self.plain.pop().expect("plain head was peeked");
            if let Fired::Timer(key) = entry.payload {
                let i = self.slot(key);
                if i != NIL {
                    let pending = self.remove_at(i as usize);
                    self.demote(pending);
                }
            }
            (entry.time, entry.payload)
        } else {
            let t = self.remove_at(0);
            (t.time, Fired::Timer(t.key as usize))
        };
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, fired))
    }

    /// Timestamp of the next event without firing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let plain = self.plain.peek().map(|Reverse(e)| e.time);
        let timer = self.timers.first().map(|t| t.time);
        match (plain, timer) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
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

    /// Move a timer that its key no longer refers to into the plain heap.
    fn demote(&mut self, t: Timer) {
        self.plain.push(Reverse(Entry {
            time: t.time,
            seq: t.seq,
            payload: Fired::Timer(t.key as usize),
        }));
    }

    fn insert(&mut self, t: Timer) {
        let key = t.key as usize;
        if key >= self.pos.len() {
            self.pos.resize(key + 1, NIL);
        }
        self.timers.push(t);
        self.sift_up(self.timers.len() - 1);
    }

    fn remove_at(&mut self, i: usize) -> Timer {
        let t = self.timers.swap_remove(i);
        self.pos[t.key as usize] = NIL;
        if i < self.timers.len() {
            self.fix(i);
        }
        t
    }

    /// Restore the heap order around index `i` after its entry changed.
    #[inline]
    fn fix(&mut self, i: usize) {
        if i > 0 && self.timers[i].before(&self.timers[(i - 1) / 2]) {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
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
    fn scheduling_in_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    fn rearm_replaces_pending_timer() {
        let mut q = EventQueue::<u32>::new();
        q.arm(2, SimTime(50));
        q.rearm(2, SimTime(10));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), timer(10, 2));
        assert_eq!(q.pop(), None);
        q.rearm(2, SimTime(40)); // nothing pending: plain arm
        assert_eq!(q.pop(), timer(40, 2));
    }

    #[test]
    fn arm_over_pending_demotes_the_old_entry() {
        let mut q = EventQueue::<u32>::new();
        q.arm(4, SimTime(10));
        q.arm(4, SimTime(30));
        assert_eq!(q.len(), 2);
        // The key now refers to the newer entry only.
        assert!(q.cancel(4));
        assert_eq!(q.pop(), timer(10, 4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn firing_a_demoted_entry_releases_the_key() {
        let mut q = EventQueue::<u32>::new();
        q.arm(4, SimTime(10));
        q.arm(4, SimTime(30));
        assert_eq!(q.pop(), timer(10, 4));
        // The newer entry still fires, but the key let go of it.
        assert!(!q.is_armed(4));
        assert!(!q.cancel(4));
        assert_eq!(q.pop(), timer(30, 4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn churn_leaves_no_dead_entries() {
        let mut q = EventQueue::<u64>::new();
        for i in 0..10_000u64 {
            q.rearm((i % 8) as usize, SimTime(1_000_000 + i));
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
                    q.rearm((i / 2) as usize, at);
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
