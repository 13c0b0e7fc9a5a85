//! Seeded-bug fixture: a wall-clock value reaches the event-stream
//! hash fold through TWO intermediate function calls.
//!
//! There is no banned identifier anywhere in this file — `wall_clock`
//! is the workspace's approved host-timing wrapper, so no API ban
//! (clippy's `disallowed-methods`) fires. The taint analyzer must report
//! one taint-wall-clock finding at the `fnv1a_extend` fold with the
//! full source→sink hop chain.

/// Models calling the approved host-timing wrapper
/// (`noiselab_telemetry::profile::wall_clock`): invisible to API bans.
fn read_host_timer() -> u64 {
    wall_clock()
}

/// First intermediate: arithmetic laundering.
fn jitter_estimate() -> u64 {
    read_host_timer().wrapping_mul(2654435761)
}

/// Second intermediate: the laundered value reaches the stream hash.
pub fn stamp_stream(acc: u64) -> u64 {
    let j = jitter_estimate();
    fnv1a_extend(acc, j)
}
