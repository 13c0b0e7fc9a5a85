//! Property tests for the event queue: total ordering, stable ties,
//! exact cancellation, monotone time, reset, and a model check of keyed
//! timers against a naive reference list.

use noiselab_sim::{EventQueue, Fired, SimTime};
use proptest::prelude::*;

/// Number of distinct timer keys the model check draws from: small, so
/// re-arming a key that is still pending is common.
const KEYS: usize = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Popping returns events in nondecreasing time order, and ties in
    /// insertion order — across plain events and timers alike.
    #[test]
    fn pops_are_totally_ordered(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            // Every third event is a timer with its own key.
            if i % 3 == 0 {
                q.arm(i, SimTime(t));
            } else {
                q.schedule(SimTime(t), i);
            }
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut count = 0;
        while let Some((t, fired)) = q.pop() {
            let idx = match fired {
                Fired::Event(i) | Fired::Timer(i) => i,
            };
            prop_assert_eq!(t, SimTime(times[idx]));
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "tie not in insertion order");
                }
            }
            last = Some((t, idx));
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Cancelling an arbitrary subset of keys removes exactly those
    /// timers and leaves plain events alone.
    #[test]
    fn cancellation_removes_exactly_the_cancelled(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.arm(i, SimTime(t));
            q.schedule(SimTime(t), i);
        }
        let mut expected: Vec<Fired<usize>> = Vec::new();
        for i in 0..times.len() {
            expected.push(Fired::Event(i));
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(i));
            } else {
                expected.push(Fired::Timer(i));
            }
        }
        prop_assert_eq!(q.len(), expected.len());
        let mut seen: Vec<Fired<usize>> = Vec::new();
        while let Some((_, fired)) = q.pop() {
            seen.push(fired);
        }
        let order = |f: &Fired<usize>| match *f {
            Fired::Event(i) => (i, 0),
            Fired::Timer(i) => (i, 1),
        };
        seen.sort_by_key(order);
        expected.sort_by_key(order);
        prop_assert_eq!(seen, expected);
    }

    /// `now` never goes backwards.
    #[test]
    fn now_is_monotone(times in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            if i % 2 == 0 {
                q.schedule(SimTime(t), ());
            } else {
                q.arm(i % KEYS, SimTime(t));
            }
        }
        let mut prev = SimTime::ZERO;
        while q.pop().is_some() {
            prop_assert!(q.now() >= prev);
            prev = q.now();
        }
    }

    /// Random interleavings of schedule, arm (often over a still-pending
    /// key), cancel and pop agree step for step with a naive list
    /// ordered by `(time, seq)` that cancels through the latest handle
    /// per key.
    #[test]
    fn keyed_timers_match_the_reference_model(
        ops in proptest::collection::vec((0u8..5, 0usize..KEYS, 0u64..50), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model = Model::default();
        for (step, &(kind, key, dt)) in ops.iter().enumerate() {
            let at = SimTime(model.now + dt);
            match kind {
                0 => {
                    q.schedule(at, step);
                    model.push(at.0, Fired::Event(step), None);
                }
                1 | 2 => {
                    q.arm(key, at);
                    model.cancel(key);
                    model.push(at.0, Fired::Timer(key), Some(key));
                }
                3 => prop_assert_eq!(q.cancel(key), model.cancel(key)),
                _ => prop_assert_eq!(q.pop(), model.pop()),
            }
            prop_assert_eq!(q.len(), model.live.len());
            prop_assert_eq!(q.peek_time(), model.peek_time());
            prop_assert_eq!(q.now(), SimTime(model.now));
            for k in 0..KEYS {
                prop_assert_eq!(q.is_armed(k), model.armed(k));
            }
        }
        // Drain: the tails agree too.
        loop {
            let got = q.pop();
            prop_assert_eq!(got.clone(), model.pop());
            if got.is_none() {
                break;
            }
        }
    }

    /// A reset queue, dirtied by any history, replays an operation
    /// sequence exactly like a fresh one.
    #[test]
    fn reset_restores_the_boot_state(
        dirt in proptest::collection::vec((0u8..4, 0usize..KEYS, 0u64..50), 0..100),
        ops in proptest::collection::vec((0u8..4, 0usize..KEYS, 0u64..50), 1..100),
    ) {
        let mut used = EventQueue::new();
        drive(&mut used, &dirt);
        used.reset();
        prop_assert!(used.is_empty());
        prop_assert_eq!(used.now(), SimTime::ZERO);
        let mut fresh = EventQueue::new();
        prop_assert_eq!(drive(&mut used, &ops), drive(&mut fresh, &ops));
    }
}

/// Apply `ops` and record everything observable.
fn drive(q: &mut EventQueue<usize>, ops: &[(u8, usize, u64)]) -> Vec<String> {
    let mut log = Vec::new();
    for (step, &(kind, key, dt)) in ops.iter().enumerate() {
        let at = SimTime(q.now().0 + dt);
        match kind {
            0 => q.schedule(at, step),
            1 => q.arm(key, at),
            2 => log.push(format!("cancel {}", q.cancel(key))),
            _ => log.push(format!("pop {:?}", q.pop())),
        }
        log.push(format!(
            "{} {:?} {}",
            q.len(),
            q.peek_time(),
            q.is_armed(key)
        ));
    }
    log
}

/// Reference queue: a flat list searched linearly. Each key holds the
/// sequence number of the last timer armed through it, the way the
/// kernel held one cancellation handle per timer field; the handle is
/// dropped when it is used to cancel or when any timer of that key
/// fires, as the kernel cleared its field in the event handler.
#[derive(Default)]
struct Model {
    /// `(time, seq, payload)` of every live event.
    live: Vec<(u64, u64, Fired<usize>)>,
    handle: [Option<u64>; KEYS],
    next_seq: u64,
    now: u64,
}

impl Model {
    fn push(&mut self, time: u64, payload: Fired<usize>, key: Option<usize>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.push((time, seq, payload));
        if let Some(k) = key {
            self.handle[k] = Some(seq);
        }
    }

    fn armed(&self, key: usize) -> bool {
        self.handle[key].is_some_and(|s| self.live.iter().any(|e| e.1 == s))
    }

    fn cancel(&mut self, key: usize) -> bool {
        let Some(seq) = self.handle[key].take() else {
            return false;
        };
        let before = self.live.len();
        self.live.retain(|e| e.1 != seq);
        self.live.len() < before
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.live.iter().map(|e| SimTime(e.0)).min()
    }

    fn pop(&mut self) -> Option<(SimTime, Fired<usize>)> {
        let (i, _) = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.0, e.1))?;
        let (time, _, payload) = self.live.remove(i);
        if let Fired::Timer(k) = payload {
            self.handle[k] = None;
        }
        self.now = time;
        Some((SimTime(time), payload))
    }
}

proptest! {
    /// The RNG is reproducible and its samplers stay in range.
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>()) {
        let mut a = noiselab_sim::Rng::new(seed);
        let mut b = noiselab_sim::Rng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_bounds(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut r = noiselab_sim::Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(n) < n);
            let f = r.f64();
            prop_assert!((0.0..1.0).contains(&f));
            prop_assert!(r.exp(1.5) >= 0.0);
        }
    }
}
