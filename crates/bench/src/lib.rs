//! Shared plumbing for the `hotpath` bench and the `noiselab-benchmark`
//! package: the host clock, a wall-time banner, and the host probe that
//! host-time figures are normalized by. The paper's tables and figures
//! are regenerated by `noiselab report`, not by benches.

#![forbid(unsafe_code)]
#![deny(clippy::ref_as_ptr)]

/// Host-side timing for bench banners, routed through the workspace's
/// single host-clock site in `noiselab_telemetry`. Simulated
/// time never touches this — it lives in `noiselab_sim::SimTime`.
pub fn wall_clock() -> std::time::Instant {
    noiselab_telemetry::wall_clock()
}

/// Map operations in one host probe.
const PROBE_OPS: u64 = 400_000;

/// Time a fixed loop of ordered-map inserts and removes over pseudo-
/// random keys, in ms. It shares no code with the simulator but stresses
/// what the simulator's hot path stresses (allocation, branches, pointer
/// chasing through cache), so its time tracks host speed. The same loop
/// as `noiselab-benchmark`'s `host::probe_ms`, so both harnesses
/// normalize to one reference host (`noiselab_advise::input::PROBE_REF_MS`).
pub fn probe_ms() -> f64 {
    let t0 = wall_clock();
    let mut map = std::collections::BTreeMap::new();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for k in 0..PROBE_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, k);
        if k % 3 == 0 {
            map.remove(&(x % 50_000));
        }
    }
    std::hint::black_box(map.len());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Wall-clock banner helper.
pub fn finish(name: &str, t0: std::time::Instant) {
    println!("[{name}: {:.1}s]", t0.elapsed().as_secs_f64());
}
