//! Property tests for the event queue: total ordering, stable ties,
//! exact cancellation, monotone time, reset, and model checks of keyed
//! timers (step by step, and in bursts between pops that exercise the
//! deferred heap repair) and of all three sources together (plain
//! events, keyed timers and lane timers) against a naive reference
//! list.

use noiselab_sim::{EventQueue, Fired, SimTime};
use proptest::prelude::*;

/// Number of distinct timer keys the model check draws from: small, so
/// re-arming a key that is still pending is common.
const KEYS: usize = 6;

/// Largest heap the burst model check fills before its bursts.
const MAX_HEAP: usize = 200;

/// Keys the burst model check draws from: every key of the largest heap
/// plus a quarter more, so bursts also arm fresh keys.
const BURST_KEYS: usize = MAX_HEAP + MAX_HEAP / 4;

/// Lanes the three-source model check draws from: more than two blocks
/// of the lane source, so popping and moving a minimum rescans some
/// blocks and keeps others.
const LANES: usize = 20;

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
                    Fired::Event(i) | Fired::Timer(i) | Fired::Lane(i) => i,
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
            Fired::Lane(i) => (i, 2),
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
        let mut model = Model::new(KEYS);
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

    /// Between pops, bursts of 1–40 arms, same-key re-arms and cancels
    /// hit a timer heap of 2–200 entries. The queue repairs the heap
    /// only at the next peek or pop, sifting when one entry changed and
    /// heapifying when several did; every peek, pop and `is_armed` must
    /// agree with the model either way.
    #[test]
    fn deferred_repair_matches_the_reference_model(
        size in 2usize..MAX_HEAP + 1,
        fill in proptest::collection::vec(0u64..1_000, MAX_HEAP..MAX_HEAP + 1),
        bursts in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0usize..BURST_KEYS, 0u64..1_000), 1..41),
            1..12,
        ),
    ) {
        let mut q = EventQueue::<usize>::new();
        let mut model = Model::new(BURST_KEYS);
        for (key, &t) in fill.iter().take(size).enumerate() {
            q.arm(key, SimTime(t));
            model.cancel(key);
            model.push(t, Fired::Timer(key), Some(key));
        }
        for burst in &bursts {
            let mut last = None;
            for &(kind, key, dt) in burst {
                let at = model.now + dt;
                // Kind 1 re-arms the burst's previous key, so one key
                // often changes several times between two repairs.
                let key = match (kind, last) {
                    (1, Some(k)) => k,
                    _ => key,
                };
                if kind == 2 {
                    prop_assert_eq!(q.cancel(key), model.cancel(key));
                } else {
                    q.arm(key, SimTime(at));
                    model.cancel(key);
                    model.push(at, Fired::Timer(key), Some(key));
                }
                last = Some(key);
            }
            prop_assert_eq!(q.len(), model.live.len());
            for k in 0..BURST_KEYS {
                prop_assert_eq!(q.is_armed(k), model.armed(k));
            }
            prop_assert_eq!(q.peek_time(), model.peek_time());
            prop_assert_eq!(q.pop(), model.pop());
        }
        loop {
            let got = q.pop();
            prop_assert_eq!(got.clone(), model.pop());
            if got.is_none() {
                break;
            }
        }
    }

    /// Random interleavings across all three sources — schedule; arm,
    /// re-arm and cancel of keys; arm, re-arm and cancel of lanes; pop
    /// and peek — agree step for step with the reference list. Time
    /// steps are 0–3 ns, so most events tie with others at their instant
    /// and the order among sources rests on the shared seq alone.
    #[test]
    fn three_sources_match_the_reference_model(
        ops in proptest::collection::vec((0u8..8, 0usize..LANES, 0u64..4), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model = Model::new(KEYS + LANES);
        for (step, &(kind, slot, dt)) in ops.iter().enumerate() {
            let at = SimTime(model.now + dt);
            let key = slot % KEYS;
            match kind {
                0 => {
                    q.schedule(at, step);
                    model.push(at.0, Fired::Event(step), None);
                }
                1 => {
                    q.arm(key, at);
                    model.cancel(key);
                    model.push(at.0, Fired::Timer(key), Some(key));
                }
                2 | 3 => {
                    q.arm_lane(slot, at);
                    model.cancel(KEYS + slot);
                    model.push(at.0, Fired::Lane(slot), Some(KEYS + slot));
                }
                4 => prop_assert_eq!(q.cancel(key), model.cancel(key)),
                5 => prop_assert_eq!(q.cancel_lane(slot), model.cancel(KEYS + slot)),
                _ => prop_assert_eq!(q.pop(), model.pop()),
            }
            prop_assert_eq!(q.len(), model.live.len());
            prop_assert_eq!(q.peek_time(), model.peek_time());
            prop_assert_eq!(q.now(), SimTime(model.now));
            for k in 0..KEYS {
                prop_assert_eq!(q.is_armed(k), model.armed(k));
            }
            for l in 0..LANES {
                prop_assert_eq!(q.lane_armed(l), model.armed(KEYS + l));
            }
        }
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
        dirt in proptest::collection::vec((0u8..6, 0usize..KEYS, 0u64..50), 0..100),
        ops in proptest::collection::vec((0u8..6, 0usize..KEYS, 0u64..50), 1..100),
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
            3 => q.arm_lane(key, at),
            4 => log.push(format!("cancel lane {}", q.cancel_lane(key))),
            _ => log.push(format!("pop {:?}", q.pop())),
        }
        log.push(format!(
            "{} {:?} {} {}",
            q.len(),
            q.peek_time(),
            q.is_armed(key),
            q.lane_armed(key)
        ));
    }
    log
}

/// Reference queue: a flat list searched linearly. Each key holds the
/// sequence number of the last timer armed through it, the way the
/// kernel held one cancellation handle per timer field; the handle is
/// dropped when it is used to cancel or when any timer of that key
/// fires, as the kernel cleared its field in the event handler. Lane
/// `l` of the three-source check is handle `KEYS + l`.
struct Model {
    /// `(time, seq, payload)` of every live event.
    live: Vec<(u64, u64, Fired<usize>)>,
    handle: Vec<Option<u64>>,
    next_seq: u64,
    now: u64,
}

impl Model {
    fn new(keys: usize) -> Self {
        Model {
            live: Vec::new(),
            handle: vec![None; keys],
            next_seq: 0,
            now: 0,
        }
    }

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
        let (time, seq, payload) = self.live.remove(i);
        // The handle that armed this timer, whichever it is, is spent.
        for h in self.handle.iter_mut().filter(|h| **h == Some(seq)) {
            *h = None;
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
