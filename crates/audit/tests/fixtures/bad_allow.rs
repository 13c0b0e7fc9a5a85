// Known-bad annotations: reasonless, unknown-rule, and stale allows.
pub fn reasonless(seed: u64) -> u64 {
    // audit:allow(taint-wall-clock)
    fnv1a_extend(seed, std::time::Instant::now().elapsed().as_nanos() as u64)
}

// audit:allow(no-such-rule): the rule name does not exist
pub fn unknown_rule() {}

// audit:allow(taint-env): stale — nothing on this or the next line reads the environment
pub fn stale_allow() {}
