//! Log-bucket latency histograms.
//!
//! The per-phase span totals say *how much* time a run spent waiting at
//! barriers or retrying sends; they cannot say whether that was one
//! pathological 400 ms stall or four thousand healthy 100 µs waits —
//! the distinction the paper's straggler analysis (and any serving
//! layer built on top of it) actually needs. A [`Histogram`] records a
//! `u64` sample (microseconds at every call site in this workspace)
//! into power-of-two buckets: bucket `i` covers `[2^i, 2^(i+1))`, with
//! bucket 0 also absorbing zero. 64 buckets cover the full `u64` range,
//! so recording never clips.
//!
//! Design constraints, in order:
//!
//! * **Mergeable.** Bucket counts are plain sums, so per-rank
//!   histograms merge associatively and commutatively into the rank-0
//!   aggregate — the same shape as the counter aggregation in
//!   `cluster_supports_resumable`.
//! * **Cheap.** Recording is one branch, one `ilog2`, four adds under
//!   the global registry mutex. Hot paths only reach here after the
//!   global [`crate::enabled`] gate, and only on events that are
//!   already at least a syscall or a sleep (barrier waits, spill I/O,
//!   checkpoint writes, retry backoff), so the lock is uncontended in
//!   practice.
//!
//! Quantiles are read from the bucket upper bounds, clamped to the
//! observed maximum: p99 of a log-bucket histogram is exact to within a
//! factor of two, which is the right fidelity for "is the tail 100 µs
//! or 100 ms".

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of power-of-two buckets; covers the whole `u64` sample range.
pub const BUCKETS: usize = 64;

/// A mergeable log-bucket histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))`; bucket 0 also
    /// holds zeros.
    pub buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, max: 0, buckets: [0; BUCKETS] }
    }
}

#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        v.ilog2() as usize
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Fold another histogram in. Associative and commutative: merging
    /// per-rank histograms in any grouping yields the same aggregate.
    pub fn merge(&mut self, other: &Histogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the q-th sample, clamped to the observed max (so `p100`
    /// is exact). Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean sample, rounded down; 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

static HISTS: Mutex<BTreeMap<String, Histogram>> = Mutex::new(BTreeMap::new());

/// Record a sample into the named global histogram. No-op while
/// tracing is disabled — same gate as every other recording entry
/// point, so the fault-free untraced path stays free.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !crate::enabled() {
        return;
    }
    HISTS.lock().unwrap().entry(name.to_string()).or_default().record(value);
}

/// [`record`] with a computed name. Gate the `format!` behind
/// [`crate::enabled`].
pub fn record_dyn(name: String, value: u64) {
    if !crate::enabled() {
        return;
    }
    HISTS.lock().unwrap().entry(name).or_default().record(value);
}

/// Current state of one named histogram, if it was ever touched.
pub fn get(name: &str) -> Option<Histogram> {
    HISTS.lock().unwrap().get(name).cloned()
}

/// Copy of every registered histogram, name-sorted (BTreeMap order) so
/// exports are deterministic.
pub fn all() -> Vec<(String, Histogram)> {
    HISTS.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// Clear the registry (called from [`crate::reset`]).
pub fn reset_all() {
    HISTS.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 9);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2, 3
        assert_eq!(h.buckets[2], 2); // 4, 7
        assert_eq!(h.buckets[3], 1); // 8
        assert_eq!(h.buckets[9], 1); // 1023
        assert_eq!(h.buckets[10], 1); // 1024
        assert_eq!(h.max, 1024);
    }

    #[test]
    fn quantiles_track_the_tail() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        assert!(h.p50() >= 100 && h.p50() < 200, "p50={}", h.p50());
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert!(h.p99() <= 1_000_000);
        assert!(h.p99() >= 100);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0);
    }
}
