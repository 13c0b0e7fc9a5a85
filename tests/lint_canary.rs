//! Lint canary for the determinism contract's API bans.
//!
//! The bans are clippy lints configured in the root `clippy.toml` and
//! lint levels on each crate root. This file holds one compilable
//! instance of every banned shape, each under
//! `#[expect(<lint>, reason = "canary")]`: if a list entry is dropped
//! or stops resolving, the expectation goes unfulfilled and
//! `cargo clippy --all-targets -- -D warnings` fails. Each site uses
//! exactly one list entry, so no other entry can fulfil its
//! expectation. The lookalikes at the bottom carry no `expect`, so they
//! fail the same step if a ban ever widens to catch them.
//!
//! An `#[expect]` of an allow-by-default lint (`unsafe_code`,
//! `clippy::ref_as_ptr`) switches that lint on at its own site, so
//! those cases prove what the lint catches, not that a crate enables
//! it. `every_contract_root_carries_its_lint_levels` below checks the
//! levels themselves.

#![deny(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::ref_as_ptr)]
// Clippy reports a `thread_local!` hit at the crate root whatever item
// holds it, so its canary's expectation sits here (see `per_thread`).
#![expect(clippy::disallowed_macros, reason = "canary")]

use std::path::Path;
use std::sync::atomic::AtomicU64;
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

/// The approved host-timing wrapper, reached through the facade's
/// re-export: the ban follows the function, not the path spelled.
#[expect(clippy::disallowed_methods, reason = "canary")]
fn wall_clock_wrapper() -> Instant {
    noiselab::telemetry::wall_clock()
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

/// An unordered parallel float reduction: the partial sums land in
/// whatever order the host threads finish. Without rayon in the lock
/// file, `thread::scope` (or `spawn`) is the only way to write one.
#[expect(clippy::disallowed_methods, reason = "canary")]
fn host_thread_float_sum(xs: &[f64]) -> f64 {
    let (lo, hi) = xs.split_at(xs.len() / 2);
    std::thread::scope(|s| {
        let a = s.spawn(|| lo.iter().sum::<f64>());
        let b = s.spawn(|| hi.iter().sum::<f64>());
        a.join().unwrap_or(0.0) + b.join().unwrap_or(0.0)
    })
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn host_thread_id() -> std::thread::ThreadId {
    std::thread::current().id()
}

// ---- relaxed atomics -------------------------------------------------

#[expect(clippy::disallowed_types, reason = "canary")]
use std::sync::atomic::Ordering;

fn relaxed_load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

// ---- lazy-global -----------------------------------------------------

#[expect(clippy::disallowed_types, reason = "canary")]
fn once_lock() -> u32 {
    static CELL: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *CELL.get_or_init(|| 7)
}

#[expect(clippy::disallowed_types, reason = "canary")]
fn lazy_lock() -> u32 {
    static CELL: std::sync::LazyLock<u32> = std::sync::LazyLock::new(|| 8);
    *CELL
}

/// The `thread_local!` canary. Its expectation is the crate-level one
/// at the top: an `#[expect]` on this module or a function around it
/// stays unfulfilled.
mod per_thread {
    std::thread_local! {
        pub static CELL: std::cell::Cell<u32> = const { std::cell::Cell::new(9) };
    }
}

fn per_thread() -> u32 {
    per_thread::CELL.with(|c| c.get())
}

// ---- environment -----------------------------------------------------

#[expect(clippy::disallowed_methods, reason = "canary")]
fn env_var() -> bool {
    std::env::var("NOISELAB_CANARY").is_ok()
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn env_var_os() -> bool {
    std::env::var_os("NOISELAB_CANARY").is_some()
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn env_vars() -> usize {
    std::env::vars().count()
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn env_vars_os() -> usize {
    std::env::vars_os().count()
}

// ---- address-as-value ------------------------------------------------

#[expect(clippy::disallowed_methods, reason = "canary")]
fn addr_from_ref(x: &u32) -> usize {
    std::ptr::from_ref(x) as usize
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn addr_from_mut(x: &mut u32) -> usize {
    std::ptr::from_mut(x) as usize
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn addr_slice(xs: &[u32]) -> usize {
    xs.as_ptr() as usize
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn addr_slice_mut(xs: &mut [u32]) -> usize {
    xs.as_mut_ptr() as usize
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn addr_str(s: &str) -> usize {
    s.as_ptr() as usize
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn addr_vec(v: Vec<u32>) -> usize {
    v.as_ptr() as usize
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn addr_vec_mut(v: &mut Vec<u32>) -> usize {
    v.as_mut_ptr() as usize
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn addr_rc(rc: &std::rc::Rc<u32>) -> usize {
    std::rc::Rc::as_ptr(rc) as usize
}

#[expect(clippy::disallowed_methods, reason = "canary")]
fn addr_arc(arc: &std::sync::Arc<u32>) -> usize {
    std::sync::Arc::as_ptr(arc) as usize
}

#[expect(clippy::disallowed_macros, reason = "canary")]
fn addr_of_macro(x: u32) -> usize {
    std::ptr::addr_of!(x) as usize
}

#[expect(clippy::disallowed_macros, reason = "canary")]
fn addr_of_mut_macro(mut x: u32) -> usize {
    std::ptr::addr_of_mut!(x) as usize
}

/// The three cast shapes of the address fixture: a reference, a
/// borrow expression and a mutable reference, each cast to a pointer.
#[expect(clippy::ref_as_ptr, reason = "canary")]
fn addr_casts(ev: &u32, x: u32, m: &mut u32) -> usize {
    let a = ev as *const u32 as usize;
    let b = &x as *const u32 as usize;
    let c = m as *mut u32 as usize;
    a ^ b ^ c
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

    /// Simulated time, not the host clock.
    fn now(&self) -> u64 {
        u64::from(self.threads) * 1_000
    }
}

fn lookalikes(kernel: &mut Kernel, cpu: Option<u32>) -> usize {
    let tid = kernel.spawn();
    let t = kernel.now();
    // An invariant `expect` is legal; only `unwrap` is banned.
    let c = cpu.expect("running thread without cpu");
    // `Instant` as a type mention (no `::now` call) is legal.
    let keep: Option<Instant> = None;
    // The comparison `Ordering` is not the atomic one.
    let order = 1.cmp(&2) == std::cmp::Ordering::Less;
    // Process arguments are the CLI's input, not ambient state.
    let argc = std::env::args().count();
    // Words inside strings never count.
    let s = "Instant::now() and HashMap live happily in a string";
    let r = r#"so does thread::spawn in a raw string"#;
    (tid + c) as usize
        + t as usize
        + keep.map_or(0, |_| 1)
        + usize::from(order)
        + argc
        + s.len()
        + r.len()
}

#[test]
fn canary_sites_compile_and_run() {
    assert_eq!((hash_map(&[1, 2, 2]), hash_set(&[1, 2, 2])), (2, 2));
    let _ = (wall_clock_now(), wall_clock_epoch(), wall_clock_wrapper());
    let _ = (entropy(), entropy_reexport());
    assert_eq!(host_thread_spawn(), 2);
    host_thread_scope();
    assert_eq!(host_thread_float_sum(&[0.5, 0.25, 0.125, 0.125]), 1.0);
    assert!(host_parallelism() >= 1);
    let _ = host_thread_id();
    assert_eq!(relaxed_load(&AtomicU64::new(3)), 3);
    assert_eq!((once_lock(), lazy_lock(), per_thread()), (7, 8, 9));
    let _ = (env_var(), env_var_os(), env_vars(), env_vars_os());
    let (mut x, mut xs, mut v) = (1u32, [1u32, 2], vec![1u32]);
    assert!(addr_from_ref(&x) > 0 && addr_from_mut(&mut x) > 0);
    assert!(addr_slice(&xs) > 0 && addr_slice_mut(&mut xs) > 0);
    assert!(addr_str("canary") > 0);
    assert!(addr_vec_mut(&mut v) > 0 && addr_vec(v) > 0);
    assert!(addr_rc(&std::rc::Rc::new(1)) > 0 && addr_arc(&std::sync::Arc::new(1)) > 0);
    assert!(addr_of_macro(1) > 0 && addr_of_mut_macro(1) > 0);
    let _ = addr_casts(&1, 2, &mut x);
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

/// The lint levels behind the `unsafe`/`static mut`, library
/// `.unwrap()` and reference-to-pointer bans sit on the root package's
/// and every contract crate's root file. Dropping one would silently
/// lift the ban for a whole crate, so their presence is checked here
/// rather than left to review.
#[test]
fn every_contract_root_carries_its_lint_levels() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![repo.join("src/lib.rs")];
    for entry in std::fs::read_dir(repo.join("crates")).unwrap() {
        let lib = entry.unwrap().path().join("src/lib.rs");
        if lib.exists() {
            roots.push(lib);
        }
    }
    roots.sort();
    assert!(roots.len() > 10, "suspiciously few crate roots: {roots:?}");
    for root in &roots {
        let src = std::fs::read_to_string(root).unwrap();
        let has = |attr: &str| src.lines().any(|l| l.trim() == attr);
        let shown = root.strip_prefix(repo).unwrap().display();
        assert!(
            has("#![forbid(unsafe_code)]"),
            "{shown}: missing #![forbid(unsafe_code)]"
        );
        assert!(
            has("#![deny(clippy::ref_as_ptr)]"),
            "{shown}: missing #![deny(clippy::ref_as_ptr)]"
        );
        assert_eq!(
            has("#![deny(clippy::unwrap_used)]"),
            !root.starts_with(repo.join("crates/bench")),
            "{shown}: #![deny(clippy::unwrap_used)] belongs on every root but the bench crate's"
        );
    }
}
