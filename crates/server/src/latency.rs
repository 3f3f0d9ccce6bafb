//! The latency histogram behind [`ServerStats`](crate::ServerStats) and
//! [`SessionStats`](crate::SessionStats).
//!
//! Buckets are eighths of an octave: bucket `k` covers
//! `[2^(k/8), 2^((k+1)/8))` seconds, from 2^-20 s (just under 1 µs) to
//! 2^12 s (a little over an hour). A quantile reports the upper edge of its
//! bucket, so it is never below the true value and at most 2^(1/8) ≈ 9 %
//! above it. Recording is a few relaxed atomics, no lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave.
const STEPS: i32 = 8;
/// `log2` of the lower edge of the first in-range bucket.
const LOW_OCTAVE: i32 = -20;
/// `log2` of the upper edge of the last in-range bucket.
const HIGH_OCTAVE: i32 = 12;
/// In-range buckets plus the underflow bucket 0, which holds zero,
/// negative and non-finite values and reports 0.
const BUCKETS: usize = ((HIGH_OCTAVE - LOW_OCTAVE) * STEPS) as usize + 1;

/// A log-scale histogram with lock-free recording and quantile estimates
/// accurate to 1/8 octave.
#[derive(Debug)]
pub(crate) struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

impl Histogram {
    /// Values below the range land in the first in-range bucket, values
    /// above it in the last.
    fn bucket_index(value: f64) -> usize {
        if !value.is_finite() || value <= 0.0 {
            return 0;
        }
        let step = (value.log2() * f64::from(STEPS)).floor() as i64;
        (step - i64::from(LOW_OCTAVE * STEPS) + 1).clamp(1, BUCKETS as i64 - 1) as usize
    }

    /// Upper edge of bucket `index` — what quantile estimates report.
    fn bucket_upper(index: usize) -> f64 {
        let step = index as i32 + LOW_OCTAVE * STEPS;
        2.0f64.powf(f64::from(step) / f64::from(STEPS))
    }

    /// Records one observation. Non-finite and non-positive values land in
    /// the underflow bucket (they still count toward `count`, not `sum`).
    pub(crate) fn observe(&self, value: f64) {
        self.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if value.is_finite() && value > 0.0 {
            let mut current = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(current) + value).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    current,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => current = actual,
                }
            }
        }
    }

    /// Number of recorded observations.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all finite positive observations.
    pub(crate) fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Quantile estimate: the upper edge of the bucket holding the
    /// `q`-quantile observation. Returns 0.0 for an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return if index == 0 {
                    0.0
                } else {
                    Histogram::bucket_upper(index)
                };
            }
        }
        Histogram::bucket_upper(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Within 1/8 octave above `value`.
    fn bounds(estimate: f64, value: f64) -> bool {
        value <= estimate && estimate <= value * 2f64.powf(0.125)
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let histogram = Histogram::default();
        for _ in 0..90 {
            histogram.observe(0.004);
        }
        for _ in 0..10 {
            histogram.observe(3.0);
        }
        assert_eq!(histogram.count(), 100);
        assert!((histogram.sum() - (90.0 * 0.004 + 30.0)).abs() < 1e-9);
        assert!(bounds(histogram.quantile(0.50), 0.004));
        assert!(bounds(histogram.quantile(0.95), 3.0));
        assert!(bounds(histogram.quantile(0.99), 3.0));
    }

    /// A log2 bucket would report a p99 of 0.13 s as 0.25 s.
    #[test]
    fn p99_is_accurate_to_an_eighth_of_an_octave() {
        let histogram = Histogram::default();
        for _ in 0..1_000 {
            histogram.observe(0.13);
        }
        histogram.observe(0.5);
        let p99 = histogram.quantile(0.99);
        assert!(
            bounds(p99, 0.13),
            "p99 {p99} outside [0.13, 0.13 * 2^(1/8)]"
        );
    }

    #[test]
    fn every_latency_from_a_microsecond_to_an_hour_is_bounded() {
        let mut value = 1e-6;
        while value <= 3600.0 {
            let histogram = Histogram::default();
            histogram.observe(value);
            assert!(bounds(histogram.quantile(1.0), value), "{value}");
            value *= 1.07;
        }
    }

    #[test]
    fn degenerate_values_report_zero() {
        let histogram = Histogram::default();
        assert_eq!(histogram.quantile(0.5), 0.0);
        histogram.observe(0.0);
        histogram.observe(-3.0);
        histogram.observe(f64::NAN);
        histogram.observe(f64::INFINITY);
        assert_eq!(histogram.count(), 4);
        assert_eq!(histogram.sum(), 0.0);
        assert_eq!(histogram.quantile(0.99), 0.0);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let histogram = Histogram::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..1000 {
                        histogram.observe((i % 7) as f64 + 0.5);
                    }
                });
            }
        });
        assert_eq!(histogram.count(), 8000);
    }
}
