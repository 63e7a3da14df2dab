//! Log-bucketed latency histograms keyed by span name.
//!
//! Every finished span (see [`crate::trace::span`]) records its
//! wall-clock duration here while tracing is enabled. Buckets are
//! **log-linear**: 8 sub-buckets per power-of-two octave, so a recorded
//! value's bucket upper bound overstates it by at most 2⁻³ = 12.5%.
//! Values below 8 ns land in exact singleton buckets. `count`, `sum`,
//! `min`, and `max` are exact; percentiles are bucket upper bounds
//! clamped into `[min, max]`.
//!
//! Histograms live in [`Recorder`](crate::Recorder)s, like counters: a
//! duration lands in the process recorder while tracing is on and in
//! the current scope recorder while that scope records, which is how
//! batch sessions and connections report their own latency
//! distributions.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::recorder::{self, TRACE};

/// Sub-bucket resolution: 2³ = 8 sub-buckets per octave.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;

/// Map a nanosecond value to its bucket index (monotonic in the value).
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        ((msb - SUB_BITS) as usize) * SUBS + sub + SUBS
    }
}

/// Largest value that maps to bucket `i` (inverse of [`bucket_index`]).
fn bucket_upper(i: usize) -> u64 {
    if i < 2 * SUBS {
        i as u64
    } else {
        let msb = (i / SUBS + SUB_BITS as usize - 1) as u32;
        let sub = (i % SUBS) as u128;
        let upper = (1u128 << msb) + ((sub + 1) << (msb - SUB_BITS)) - 1;
        upper.min(u64::MAX as u128) as u64
    }
}

#[derive(Debug, Default, Clone)]
pub(crate) struct Hist {
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
    buckets: BTreeMap<usize, u64>,
}

impl Hist {
    pub(crate) fn observe(&mut self, ns: u64) {
        if self.count == 0 || ns < self.min_ns {
            self.min_ns = ns;
        }
        if ns > self.max_ns {
            self.max_ns = ns;
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        *self.buckets.entry(bucket_index(ns)).or_default() += 1;
    }

    pub(crate) fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            sum_ns: self.sum_ns,
            min_ns: self.min_ns,
            max_ns: self.max_ns,
            buckets: self.buckets.iter().map(|(&i, &c)| (i, c)).collect(),
        }
    }
}

/// Immutable copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of recorded durations.
    pub count: u64,
    /// Exact sum of recorded nanoseconds (saturating).
    pub sum_ns: u64,
    /// Exact smallest recorded value.
    pub min_ns: u64,
    /// Exact largest recorded value.
    pub max_ns: u64,
    buckets: Vec<(usize, u64)>,
}

impl HistSnapshot {
    /// The `p`-th percentile (`0 < p <= 100`) as the upper bound of the
    /// bucket holding the rank-⌈count·p/100⌉ value, clamped into
    /// `[min_ns, max_ns]` — so the reported value overstates the true
    /// percentile by at most 12.5%. Returns 0 for an empty histogram.
    #[must_use]
    pub fn percentile(&self, p: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as u128 * p as u128).div_ceil(100) as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }
}

/// Record one duration under `name` in every recorder this thread
/// traces into. Callers gate on tracing via [`start`] or
/// [`crate::trace_enabled`].
pub fn record(name: &'static str, ns: u64) {
    recorder::each(TRACE, |r| r.observe(name, ns));
}

/// Start a timing measurement: `Some(now)` while tracing is enabled,
/// `None` (no clock read) otherwise. Pair with [`finish`].
#[must_use]
pub fn start() -> Option<Instant> {
    crate::trace::trace_enabled().then(Instant::now)
}

/// Finish a measurement started with [`start`], recording the elapsed
/// time under `name`. A `None` timer (tracing was off) records nothing.
pub fn finish(name: &'static str, timer: Option<Instant>) {
    if let Some(t) = timer {
        record(
            name,
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
    }
}

/// Render histogram entries as a JSON object keyed by span name, each
/// value `{"count": n, "sum_ns": n, "min_ns": n, "max_ns": n,
/// "p50_ns": n, "p90_ns": n, "p99_ns": n}`. `indent` is the indentation
/// of the object braces; one name per line.
#[must_use]
pub fn hists_to_json(entries: &[(&str, HistSnapshot)], indent: usize) -> String {
    let pad = " ".repeat(indent);
    let inner = " ".repeat(indent + 2);
    let mut out = String::from("{");
    for (i, (name, h)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{inner}{}: {{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
            crate::json::quote(name),
            h.count,
            h.sum_ns,
            h.min_ns,
            h.max_ns,
            h.percentile(50),
            h.percentile(90),
            h.percentile(99),
        ));
    }
    if !entries.is_empty() {
        out.push('\n');
        out.push_str(&pad);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_exact_below_two_octaves() {
        for v in 0..(2 * SUBS as u64) {
            assert_eq!(bucket_index(v), v as usize, "v={v}");
            assert_eq!(bucket_upper(v as usize), v, "v={v}");
        }
        let mut last = 0;
        for v in [0u64, 1, 7, 8, 15, 16, 17, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotonic at v={v}");
            last = i;
            assert!(bucket_upper(i) >= v, "upper bound below value at v={v}");
        }
    }

    #[test]
    fn bucket_upper_bounds_error_at_twelve_point_five_percent() {
        for v in [100u64, 999, 12_345, 1 << 30, 987_654_321] {
            let ub = bucket_upper(bucket_index(v));
            assert!(ub >= v);
            assert!(
                (ub - v) as f64 <= v as f64 * 0.125,
                "v={v} ub={ub}: error above 12.5%"
            );
        }
    }

    #[test]
    fn percentiles_track_recorded_values() {
        let mut h = Hist::default();
        for v in 1..=100u64 {
            h.observe(v * 1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.min_ns, 1000);
        assert_eq!(s.max_ns, 100_000);
        assert_eq!(s.sum_ns, (1..=100u64).map(|v| v * 1000).sum::<u64>());
        let p50 = s.percentile(50);
        assert!((50_000..=56_250).contains(&p50), "p50={p50}");
        let p90 = s.percentile(90);
        assert!((90_000..=101_250).contains(&p90), "p90={p90}");
        assert!(p90 <= s.max_ns);
        assert_eq!(s.percentile(100), s.max_ns);
    }

    #[test]
    fn single_observation_pins_all_percentiles() {
        let mut h = Hist::default();
        h.observe(42_000);
        let s = h.snapshot();
        for p in [1, 50, 90, 99, 100] {
            assert_eq!(s.percentile(p), 42_000, "p={p}");
        }
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let s = Hist::default().snapshot();
        assert_eq!(s.percentile(50), 0);
    }

    #[test]
    fn json_rendering_lists_all_fields() {
        let mut h = Hist::default();
        h.observe(10);
        h.observe(20);
        let entries = vec![("x.y", h.snapshot())];
        let json = hists_to_json(&entries, 0);
        for field in [
            "\"x.y\"",
            "\"count\": 2",
            "\"sum_ns\": 30",
            "\"min_ns\": 10",
            "\"max_ns\": 20",
            "\"p50_ns\"",
            "\"p90_ns\"",
            "\"p99_ns\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert_eq!(hists_to_json(&[], 0), "{}");
    }
}
