//! Max-min fair ("water-filling") bandwidth allocation.
//!
//! When several running threads demand memory bandwidth, the socket's
//! capacity is divided max-min fairly: every thread gets as much as it
//! demands, unless capacity is short, in which case the shortfall is borne
//! by the heaviest demanders first. This is the standard processor-sharing
//! model for a saturated memory controller and is what makes Babelstream
//! behave as a bandwidth-bound workload in the simulation: adding more
//! threads past saturation does not add throughput, and removing a few
//! (housekeeping cores) barely costs any.

/// Allocate `capacity` among `demands` max-min fairly.
///
/// Returns per-demand allocations `a` with the invariants:
/// * `a[i] <= demands[i]` (never allocate more than demanded),
/// * `sum(a) <= capacity + eps`,
/// * if `sum(demands) <= capacity`, then `a == demands`,
/// * max-min fairness: you cannot raise any `a[i]` without lowering some
///   `a[j] <= a[i]`.
pub fn waterfill(demands: &[f64], capacity: f64) -> Vec<f64> {
    let mut alloc = Vec::new();
    let mut order = Vec::new();
    waterfill_into(demands, capacity, &mut alloc, &mut order);
    alloc
}

/// Scratch-buffer variant of [`waterfill`] for hot paths: writes the
/// allocations into `alloc` (cleared first) and uses `order` as index
/// scratch, so steady-state callers make no allocations once the
/// buffers have grown to the working-set size. Produces bit-identical
/// results to [`waterfill`].
///
/// Returns `true` when the fill was unsaturated (`sum(demands) <=
/// capacity`): in that case `alloc` is a bit-exact copy of `demands`,
/// a fact hot callers exploit to keep rate updates local.
pub fn waterfill_into(
    demands: &[f64],
    capacity: f64,
    alloc: &mut Vec<f64>,
    order: &mut Vec<usize>,
) -> bool {
    debug_assert!(capacity >= 0.0);
    debug_assert!(demands.iter().all(|&d| d >= 0.0));
    let n = demands.len();
    alloc.clear();
    if n == 0 {
        return true;
    }
    let total: f64 = demands.iter().sum();
    if total <= capacity {
        alloc.extend_from_slice(demands);
        return true;
    }

    // Sort indices by demand ascending; satisfy small demands fully while
    // they fit under the running fair share.
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| {
        demands[a]
            .partial_cmp(&demands[b])
            .expect("bandwidth demands are never NaN")
            .then(a.cmp(&b))
    });

    alloc.resize(n, 0.0);
    let mut remaining = capacity;
    let mut left = n;
    for (rank, &i) in order.iter().enumerate() {
        let fair = remaining / left as f64;
        if demands[i] <= fair {
            alloc[i] = demands[i];
            remaining -= demands[i];
        } else {
            // All remaining demands are >= this one; they split evenly.
            let share = remaining / left as f64;
            for &j in &order[rank..] {
                alloc[j] = share;
            }
            return false;
        }
        left -= 1;
    }
    false
}

/// Whether `capacity` certainly covers the f64 sum, added left to right
/// in any order, of at most `n` demands that each lie in `[0, max]`,
/// without summing them. `true` proves `sum <= capacity`; `false` proves
/// nothing, and the caller sums.
///
/// Proof. Each addition of nonnegative terms rounds with relative error
/// at most `u = 2^-53`, so the sum of `m <= n` terms is at most
/// `n·max·(1+u)^(n-1) <= n·max·(1 + 2nu)` while `nu < 2^-10`. With
/// `max` normal (or zero) and no overflow, the three roundings in
/// `n·max·(1 + 4nε)` (`ε = 2u`) leave it at least
/// `n·max·(1 + 8nu)(1 - u)^3 >= n·max·(1 + 4nu)`, which covers the sum.
/// A NaN, infinite, negative or subnormal `max`, or `n >= 2^32`, is
/// never certified; an overflowed bound is infinite and fails the test.
pub fn certify_unsaturated(n: usize, max: f64, capacity: f64) -> bool {
    let max_ok = max == 0.0 || (max >= f64::MIN_POSITIVE && max.is_finite());
    if !max_ok || n >= 1 << 32 {
        return false;
    }
    let n = n as f64;
    n * max * (1.0 + 4.0 * n * f64::EPSILON) < capacity
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CPU-order sum the certificate stands in for.
    fn ordered_sum(demands: &[f64]) -> f64 {
        demands.iter().fold(0.0, |acc, &d| acc + d)
    }

    #[test]
    fn nan_or_infinite_max_falls_back() {
        assert!(!certify_unsaturated(4, f64::NAN, 100.0));
        assert!(!certify_unsaturated(4, f64::INFINITY, f64::INFINITY));
        assert!(!certify_unsaturated(4, f64::INFINITY, 100.0));
        assert!(!certify_unsaturated(4, 1.0, f64::NAN));
    }

    #[test]
    fn zero_max_certifies_any_positive_capacity() {
        assert!(certify_unsaturated(48, 0.0, f64::MIN_POSITIVE));
        assert!(!certify_unsaturated(48, 0.0, 0.0));
    }

    #[test]
    fn capacity_just_above_an_equal_sum_needs_the_bound() {
        // 48 equal demands whose sum is exact: a capacity one ulp above
        // it lies inside the rounding margin, so only the sum decides.
        let d = 0.25;
        let sum = ordered_sum(&[d; 48]);
        assert_eq!(sum, 12.0);
        let just_above = f64::from_bits(sum.to_bits() + 1);
        assert!(!certify_unsaturated(48, d, just_above));
        assert!(!certify_unsaturated(48, d, sum));
        // Clear of the margin it certifies.
        let margin = sum * (1.0 + 4.0 * 48.0 * f64::EPSILON);
        let clear = f64::from_bits(margin.to_bits() + 1);
        assert!(certify_unsaturated(48, d, clear));
        assert!(ordered_sum(&[d; 48]) <= clear);
    }

    #[test]
    fn subnormal_max_falls_back() {
        assert!(!certify_unsaturated(2, f64::MIN_POSITIVE / 4.0, 1.0));
        assert!(certify_unsaturated(2, f64::MIN_POSITIVE, 1.0));
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn under_capacity_everyone_satisfied() {
        let a = waterfill(&[1.0, 2.0, 3.0], 10.0);
        assert_eq!(a, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_demands_split_evenly() {
        let a = waterfill(&[5.0, 5.0, 5.0, 5.0], 10.0);
        assert!(a.iter().all(|&x| close(x, 2.5)));
    }

    #[test]
    fn small_demand_fully_served() {
        // fair share would be 4, so the 1.0 demand is fully served and the
        // rest split the remainder.
        let a = waterfill(&[1.0, 10.0, 10.0], 12.0);
        assert!(close(a[0], 1.0));
        assert!(close(a[1], 5.5));
        assert!(close(a[2], 5.5));
    }

    #[test]
    fn conserves_capacity_when_saturated() {
        let d = [3.0, 7.0, 2.0, 9.0, 4.0];
        let a = waterfill(&d, 10.0);
        let s: f64 = a.iter().sum();
        assert!(close(s, 10.0), "sum={s}");
        for i in 0..d.len() {
            assert!(a[i] <= d[i] + 1e-9);
        }
    }

    #[test]
    fn zero_capacity_allocates_nothing() {
        let a = waterfill(&[1.0, 2.0], 0.0);
        assert!(a.iter().all(|&x| close(x, 0.0)));
    }

    #[test]
    fn empty_demands() {
        assert!(waterfill(&[], 5.0).is_empty());
    }

    #[test]
    fn zero_demand_thread_gets_zero() {
        let a = waterfill(&[0.0, 8.0, 8.0], 8.0);
        assert!(close(a[0], 0.0));
        assert!(close(a[1], 4.0));
        assert!(close(a[2], 4.0));
    }
}
