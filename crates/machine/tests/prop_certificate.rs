//! Property test for the unsaturated-fill certificate: whenever
//! `certify_unsaturated` answers `true`, the CPU-order f64 sum of the
//! demands it stands in for is within capacity.

use noiselab_machine::certify_unsaturated;
use proptest::prelude::*;

/// A nonnegative demand spanning 2^-40 to 2^40, or zero (about one in
/// five).
fn demand() -> impl Strategy<Value = f64> {
    (0u32..5, -40i32..40, 1.0f64..2.0).prop_map(
        |(z, e, m)| {
            if z == 0 {
                0.0
            } else {
                m * 2f64.powi(e)
            }
        },
    )
}

/// Between 1 and 256 demands; a third of the vectors are all-equal, the
/// worst case for rounding (every partial sum is as large as it can be).
fn demands() -> impl Strategy<Value = Vec<f64>> {
    (
        0u32..3,
        proptest::collection::vec(demand(), 1..257),
        demand(),
        1usize..257,
    )
        .prop_map(|(mode, mixed, d, n)| if mode == 0 { vec![d; n] } else { mixed })
}

/// `x` moved by `k` ulps (x > 0).
fn ulps(x: f64, k: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + k).max(0) as u64)
}

proptest! {
    #[test]
    fn certified_fills_are_unsaturated(
        d in demands(),
        spare_cpus in 0usize..4,
        near_bound in 0u32..2,
        k in -8i64..9,
    ) {
        let sum = d.iter().fold(0.0, |acc, &x| acc + x);
        let max = d.iter().copied().fold(0.0, f64::max);
        // Idle CPUs count towards n but add nothing to the sum.
        let n = d.len() + spare_cpus;
        // Capacities within a few ulps of the sum, or of the bound where
        // the certificate starts to answer.
        let anchor = if near_bound == 1 {
            n as f64 * max * (1.0 + 4.0 * n as f64 * f64::EPSILON)
        } else {
            sum
        };
        let capacity = ulps(anchor, k);
        if certify_unsaturated(n, max, capacity) {
            prop_assert!(sum <= capacity, "sum {sum} over capacity {capacity} (n {n}, max {max})");
        }
    }
}
