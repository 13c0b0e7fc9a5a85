//! Lint canary for the determinism contract's API bans.
//!
//! The bans are clippy lints configured in `crates/clippy.toml` and
//! lint levels on each crate root. This file holds one compilable
//! instance of every banned shape, each under
//! `#[expect(<lint>, reason = "canary")]`: if a list entry is dropped
//! or stops resolving, the expectation goes unfulfilled and
//! `cargo clippy --all-targets -- -D warnings` fails. Each site uses
//! exactly one list entry, so no other entry can fulfil its
//! expectation. The lookalikes
//! at the bottom carry no `expect`, so they fail the same step if a
//! ban ever widens to catch them.

#![deny(unsafe_code)]
#![deny(clippy::unwrap_used)]

use std::time::Instant;

// ---- hash-iteration -------------------------------------------------

#[expect(clippy::disallowed_types, reason = "canary")]
use std::collections::HashMap;

#[expect(clippy::disallowed_types, reason = "canary")]
fn hash_map(xs: &[u32]) -> usize {
    let m: HashMap<u32, u32> = xs.iter().map(|&x| (x, 1)).collect();
    m.len()
}

#[expect(clippy::disallowed_types, reason = "canary")]
fn hash_set(xs: &[u32]) -> usize {
    let s: std::collections::HashSet<u32> = xs.iter().copied().collect();
    s.len()
}

// ---- wall-clock ------------------------------------------------------

#[expect(clippy::disallowed_methods, reason = "canary")]
fn wall_clock_now() -> Instant {
    Instant::now()
}

#[expect(clippy::disallowed_types, reason = "canary")]
fn wall_clock_epoch() -> std::time::SystemTime {
    std::time::SystemTime::UNIX_EPOCH
}

// ---- entropy ---------------------------------------------------------

#[expect(clippy::disallowed_types, reason = "canary")]
fn entropy() -> std::hash::RandomState {
    std::hash::RandomState::new()
}

#[expect(clippy::disallowed_types, reason = "canary")]
fn entropy_reexport() -> std::collections::hash_map::RandomState {
    std::collections::hash_map::RandomState::new()
}

// ---- host-thread -----------------------------------------------------

#[expect(clippy::disallowed_methods, reason = "canary")]
fn host_thread_spawn() -> u32 {
    std::thread::spawn(|| 1 + 1).join().unwrap_or(0)
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn host_thread_scope() {
    std::thread::scope(|_| {});
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---- static-mut ------------------------------------------------------

static mut RUN_COUNTER: u64 = 0;

fn static_mut_bump() -> u64 {
    #[expect(unsafe_code, reason = "canary")]
    unsafe {
        RUN_COUNTER += 1;
        RUN_COUNTER
    }
}

// ---- panic-path: library code, not a #[test] -------------------------

#[expect(clippy::unwrap_used, reason = "canary")]
fn panic_path(text: &str) -> u64 {
    text.trim().parse().unwrap()
}

// ---- lookalikes: must never fire -------------------------------------

struct Kernel {
    threads: u32,
}

impl Kernel {
    /// Simulated spawn, not a host thread.
    fn spawn(&mut self) -> u32 {
        self.threads += 1;
        self.threads
    }
}

fn lookalikes(kernel: &mut Kernel, cpu: Option<u32>) -> usize {
    let tid = kernel.spawn();
    // An invariant `expect` is legal; only `unwrap` is banned.
    let c = cpu.expect("running thread without cpu");
    // `Instant` as a type mention (no `::now` call) is legal.
    let keep: Option<Instant> = None;
    // Words inside strings never count.
    let s = "Instant::now() and HashMap live happily in a string";
    let r = r#"so does thread::spawn in a raw string"#;
    (tid + c) as usize + keep.map_or(0, |_| 1) + s.len() + r.len()
}

#[test]
fn canary_sites_compile_and_run() {
    assert_eq!((hash_map(&[1, 2, 2]), hash_set(&[1, 2, 2])), (2, 2));
    let _ = (wall_clock_now(), wall_clock_epoch());
    let _ = (entropy(), entropy_reexport());
    assert_eq!(host_thread_spawn(), 2);
    host_thread_scope();
    assert!(host_parallelism() >= 1);
    assert!(static_mut_bump() >= 1);
    assert_eq!(panic_path(" 7 "), 7);
    assert!(lookalikes(&mut Kernel { threads: 0 }, Some(3)) > 0);
}

/// Test code may unwrap (`allow-unwrap-in-tests`).
#[test]
fn unwraps_are_fine_in_tests() {
    let n: u64 = "21".parse().unwrap();
    assert_eq!(n * 2, 42);
}
