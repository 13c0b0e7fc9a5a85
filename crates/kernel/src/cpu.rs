//! Per-CPU scheduler state: the real-time FIFO queue and the fair
//! (CFS-like) vruntime queue.

use crate::ids::ThreadId;
use noiselab_sim::SimTime;
use std::collections::BTreeSet;

/// Fair runqueue ordered by `(vruntime, tid)`; the tid tiebreak keeps the
/// simulation deterministic.
#[derive(Debug, Default)]
pub struct CfsQueue {
    set: BTreeSet<(u64, ThreadId)>,
    /// Monotonic floor used to place newly woken threads so they cannot
    /// starve long-running ones.
    pub min_vruntime: u64,
}

impl CfsQueue {
    pub fn enqueue(&mut self, vruntime: u64, tid: ThreadId) {
        let inserted = self.set.insert((vruntime, tid));
        debug_assert!(inserted, "thread {tid} double-enqueued");
    }

    pub fn dequeue(&mut self, vruntime: u64, tid: ThreadId) -> bool {
        self.set.remove(&(vruntime, tid))
    }

    /// Leftmost (smallest vruntime) thread.
    pub fn peek(&self) -> Option<(u64, ThreadId)> {
        self.set.first().copied()
    }

    pub fn pop(&mut self) -> Option<(u64, ThreadId)> {
        self.set.pop_first()
    }

    pub fn len(&self) -> usize {
        self.set.len()
    }

    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, ThreadId)> + '_ {
        self.set.iter().copied()
    }

    /// Update the min_vruntime floor from the current leftmost entry.
    pub fn refresh_floor(&mut self, running_vruntime: Option<u64>) {
        let leftmost = self.peek().map(|(v, _)| v);
        let candidate = match (leftmost, running_vruntime) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return,
        };
        self.min_vruntime = self.min_vruntime.max(candidate);
    }
}

/// Real-time FIFO runqueue: highest priority first; equal priorities in
/// strict arrival order (SCHED_FIFO semantics — no time slicing).
#[derive(Debug, Default)]
pub struct RtQueue {
    // Small; linear scan is fine and keeps arrival order explicit.
    items: Vec<(u8, ThreadId)>,
}

impl RtQueue {
    pub fn enqueue(&mut self, prio: u8, tid: ThreadId) {
        self.items.push((prio, tid));
    }

    /// Highest priority, earliest arrival.
    pub fn peek(&self) -> Option<(u8, ThreadId)> {
        let best = self
            .items
            .iter()
            .enumerate()
            .max_by(|(ia, (pa, _)), (ib, (pb, _))| pa.cmp(pb).then(ib.cmp(ia)))?;
        Some(*best.1)
    }

    pub fn pop(&mut self) -> Option<(u8, ThreadId)> {
        let (idx, _) = self
            .items
            .iter()
            .enumerate()
            .max_by(|(ia, (pa, _)), (ib, (pb, _))| pa.cmp(pb).then(ib.cmp(ia)))?;
        Some(self.items.remove(idx))
    }

    pub fn remove(&mut self, tid: ThreadId) -> bool {
        if let Some(pos) = self.items.iter().position(|&(_, t)| t == tid) {
            self.items.remove(pos);
            true
        } else {
            false
        }
    }

    pub fn max_prio(&self) -> Option<u8> {
        self.items.iter().map(|&(p, _)| p).max()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (u8, ThreadId)> + '_ {
        self.items.iter().copied()
    }
}

/// Per-CPU state.
pub struct Cpu {
    pub current: Option<ThreadId>,
    pub rt: RtQueue,
    pub cfs: CfsQueue,
    /// CPU is servicing an interrupt until this time (exclusive); the
    /// current thread makes no progress meanwhile.
    pub irq_until: SimTime,
    /// Accumulated busy time (for utilisation assertions).
    pub busy_ns: u64,
    /// Accumulated interrupt time.
    pub irq_ns: u64,
    /// Whether a `Tick` event for this CPU is pending in the event
    /// queue. Under tickless idle a parked CPU has no pending tick and
    /// must be re-armed when it gets (or could pull) work.
    pub tick_armed: bool,
}

impl Cpu {
    pub fn new() -> Self {
        Cpu {
            current: None,
            rt: RtQueue::default(),
            cfs: CfsQueue::default(),
            irq_until: SimTime::ZERO,
            busy_ns: 0,
            irq_ns: 0,
            tick_armed: false,
        }
    }

    /// Number of runnable tasks (running + queued), the load metric for
    /// wake placement and stealing.
    pub fn nr_running(&self) -> usize {
        self.current.is_some() as usize + self.rt.len() + self.cfs.len()
    }

    pub fn in_irq(&self, now: SimTime) -> bool {
        self.irq_until > now
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfs_orders_by_vruntime_then_tid() {
        let mut q = CfsQueue::default();
        q.enqueue(100, ThreadId(2));
        q.enqueue(50, ThreadId(3));
        q.enqueue(50, ThreadId(1));
        assert_eq!(q.pop(), Some((50, ThreadId(1))));
        assert_eq!(q.pop(), Some((50, ThreadId(3))));
        assert_eq!(q.pop(), Some((100, ThreadId(2))));
    }

    #[test]
    fn cfs_dequeue_specific() {
        let mut q = CfsQueue::default();
        q.enqueue(10, ThreadId(1));
        q.enqueue(20, ThreadId(2));
        assert!(q.dequeue(10, ThreadId(1)));
        assert!(!q.dequeue(10, ThreadId(1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cfs_floor_is_monotone() {
        let mut q = CfsQueue::default();
        q.enqueue(100, ThreadId(1));
        q.refresh_floor(None);
        assert_eq!(q.min_vruntime, 100);
        q.dequeue(100, ThreadId(1));
        q.enqueue(50, ThreadId(2));
        q.refresh_floor(None);
        assert_eq!(q.min_vruntime, 100); // never decreases
    }

    #[test]
    fn rt_priority_then_fifo_order() {
        let mut q = RtQueue::default();
        q.enqueue(10, ThreadId(1));
        q.enqueue(20, ThreadId(2));
        q.enqueue(20, ThreadId(3));
        q.enqueue(10, ThreadId(4));
        assert_eq!(q.pop(), Some((20, ThreadId(2))));
        assert_eq!(q.pop(), Some((20, ThreadId(3))));
        assert_eq!(q.pop(), Some((10, ThreadId(1))));
        assert_eq!(q.pop(), Some((10, ThreadId(4))));
    }

    #[test]
    fn rt_remove_by_tid() {
        let mut q = RtQueue::default();
        q.enqueue(5, ThreadId(1));
        q.enqueue(6, ThreadId(2));
        assert!(q.remove(ThreadId(1)));
        assert!(!q.remove(ThreadId(1)));
        assert_eq!(q.max_prio(), Some(6));
    }

    #[test]
    fn nr_running_counts_all_classes() {
        let mut c = Cpu::new();
        assert_eq!(c.nr_running(), 0);
        c.current = Some(ThreadId(0));
        c.rt.enqueue(5, ThreadId(1));
        c.cfs.enqueue(0, ThreadId(2));
        assert_eq!(c.nr_running(), 3);
    }
}
