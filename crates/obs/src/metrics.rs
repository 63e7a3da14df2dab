//! Named monotonic counters for engine work units.
//!
//! Counters are indexed by the [`Counter`] enum and live in
//! [`Recorder`](crate::Recorder)s: [`add`] lands in the process recorder
//! while counting is on and in the current thread's scope recorder while
//! that scope records (see [`crate::recorder`]). Disabled counting is a
//! load-and-branch; enabled counting is one relaxed `fetch_add` per
//! recorder. Hot loops should accumulate into locals and [`add`] once
//! per operation.

use crate::recorder::{self, METRICS};

/// Every engine counter. The discriminant doubles as the index into a
/// recorder's counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Input tuples visited by scans, joins, and selections. A join
    /// counts both inputs, its build side included whether it built
    /// that side's key index or read one a stored relation kept.
    TuplesScanned,
    /// Hash-table probes (or nested-loop pair tests) performed by joins.
    JoinProbes,
    /// Tuples emitted by join operators.
    JoinOutputRows,
    /// Tuple-pair subsumption tests (naive) or partition probes
    /// (partitioned) performed during subsumption removal, plus the
    /// index insertions and probes of the lattice `D(G)` union's
    /// non-extension semi-joins.
    SubsumptionComparisons,
    /// Tuples removed because another tuple strictly subsumed them
    /// (by a subsumption pass, or by the lattice union's non-extension
    /// rule).
    TuplesSubsumed,
    /// Adaptive subsumption dispatches (`SubsumptionAlgo::Adaptive`
    /// calls that picked a concrete algorithm).
    SubsumptionAdaptiveChoices,
    /// Rows offered to the hashed set primitives: one per
    /// `Table::push_distinct` call, plus every row passed through
    /// `Table::dedup` or `Relation::with_rows`, and every row
    /// `Table::extend_distinct` tests (none when it takes a set whole
    /// into an empty table).
    DedupRows,
    /// `F(J)` tables computed by a full disjunction over connected
    /// subgraphs: one join each in the lattice union (cache hits are not
    /// counted), one join chain each in the naive oracle.
    SubgraphsEnumerated,
    /// Binary outer-join steps executed by the outer-join full
    /// disjunction.
    OuterJoinSteps,
    /// Chase alternatives produced by `data_chase`.
    ChaseAlternativesGenerated,
    /// Chase candidate sites skipped (relation already in the graph).
    ChaseAlternativesPruned,
    /// Walk alternatives produced by `data_walk`.
    WalkAlternativesGenerated,
    /// Walk candidates dropped as duplicates of an existing alternative.
    WalkAlternativesPruned,
    /// Requirement-satisfaction tests evaluated during illustration
    /// selection.
    RequirementsChecked,
    /// Combinations of signature classes the minimum-cover search of
    /// illustration selection tests.
    CoverNodes,
    /// Incremental-cache lookups answered from the cache.
    CacheHits,
    /// Incremental-cache lookups that fell through to a computation.
    CacheMisses,
    /// Incremental-cache entries dropped because a dependency (base
    /// relation content, function registry) changed.
    CacheInvalidations,
    /// Bytes of result tables stored into the incremental cache
    /// (cumulative; the `cache` shell command reports the live size).
    CacheBytes,
    /// Incremental-cache entries spilled to a persistent backend
    /// (`clio_incr`'s `CacheStore`).
    CacheSpills,
    /// Incremental-cache lookups answered from a persistent backend
    /// after missing in memory.
    CacheDiskHits,
    /// Bytes written to a persistent cache backend (cumulative).
    CacheDiskBytes,
    /// Persistent-backend load failures tolerated by falling back to
    /// recomputation (corrupt files, version mismatches, I/O errors).
    CacheLoadErrors,
    /// Incremental-cache entries dropped to stay under the byte budget.
    CacheEvictions,
    /// Recompute nanoseconds avoided by cache answers: each hit adds
    /// the answering entry's recorded recompute cost. Wall-clock
    /// derived, so normalized away in golden-counter gates.
    CacheSavedNs,
    /// Connections accepted by the network front-end.
    NetAccepted,
    /// Connections currently being served (a gauge: incremented on
    /// accept, decremented — via [`sub`] — when the connection closes).
    NetActive,
    /// Well-formed request frames decoded by the network front-end.
    NetFrames,
    /// Malformed frames (bad version byte, oversized or truncated
    /// frames, non-UTF-8 payloads) answered with an error frame.
    NetFrameErrors,
    /// Connections closed because the client sent nothing for the
    /// server's idle timeout.
    NetTimeouts,
    /// Requests whose handler panicked: answered with an error frame,
    /// and only that connection closed.
    NetHandlerPanics,
    /// Pages read from heap files by the pager (buffer-pool misses that
    /// reached the disk).
    PagerPageReads,
    /// Pages written back to heap files by the pager (dirty-page
    /// write-back on eviction or flush).
    PagerPageWrites,
    /// Buffer-pool lookups answered by a resident frame.
    PagerHits,
    /// Buffer-pool lookups that had to read the page from disk.
    PagerMisses,
    /// Frames evicted from the buffer pool to stay under its page
    /// budget.
    PagerEvictions,
    /// Page or heap-file load failures tolerated by degrading to a
    /// typed error (corrupt pages, version mismatches, I/O errors) —
    /// never a wrong answer.
    PagerLoadErrors,
    /// Mapping plans built (one per `explain` or `Q(M)` cache miss).
    PlanBuilt,
    /// Source filters pushed below the full-disjunction union by the
    /// filter-pushdown rewrite (strong filters only; see docs/planner.md).
    PlanPushedFilters,
    /// Connected subgraphs skipped entirely because a pushed filter's
    /// aliases lie outside the subgraph (its padded rows cannot pass).
    PlanPrunedSubgraphs,
    /// Mapping plans run — one per `Q(M)` evaluation that missed the
    /// cache (or ran without one).
    PlanEvals,
}

/// Number of counters (length of [`Counter::ALL`]).
pub const COUNTER_COUNT: usize = Counter::ALL.len();

impl Counter {
    /// All counters, in table order.
    pub const ALL: [Counter; 41] = [
        Counter::TuplesScanned,
        Counter::JoinProbes,
        Counter::JoinOutputRows,
        Counter::SubsumptionComparisons,
        Counter::TuplesSubsumed,
        Counter::SubsumptionAdaptiveChoices,
        Counter::DedupRows,
        Counter::SubgraphsEnumerated,
        Counter::OuterJoinSteps,
        Counter::ChaseAlternativesGenerated,
        Counter::ChaseAlternativesPruned,
        Counter::WalkAlternativesGenerated,
        Counter::WalkAlternativesPruned,
        Counter::RequirementsChecked,
        Counter::CoverNodes,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheInvalidations,
        Counter::CacheBytes,
        Counter::CacheSpills,
        Counter::CacheDiskHits,
        Counter::CacheDiskBytes,
        Counter::CacheLoadErrors,
        Counter::CacheEvictions,
        Counter::CacheSavedNs,
        Counter::NetAccepted,
        Counter::NetActive,
        Counter::NetFrames,
        Counter::NetFrameErrors,
        Counter::NetTimeouts,
        Counter::NetHandlerPanics,
        Counter::PagerPageReads,
        Counter::PagerPageWrites,
        Counter::PagerHits,
        Counter::PagerMisses,
        Counter::PagerEvictions,
        Counter::PagerLoadErrors,
        Counter::PlanBuilt,
        Counter::PlanPushedFilters,
        Counter::PlanPrunedSubgraphs,
        Counter::PlanEvals,
    ];

    /// The stable dotted name used in JSON snapshots and the `stats`
    /// shell command.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::TuplesScanned => "scan.tuples",
            Counter::JoinProbes => "join.probes",
            Counter::JoinOutputRows => "join.output_rows",
            Counter::SubsumptionComparisons => "subsumption.comparisons",
            Counter::TuplesSubsumed => "subsumption.removed",
            Counter::SubsumptionAdaptiveChoices => "subsumption.adaptive_choices",
            Counter::DedupRows => "dedup.rows",
            Counter::SubgraphsEnumerated => "fd.subgraphs",
            Counter::OuterJoinSteps => "fd.outer_join_steps",
            Counter::ChaseAlternativesGenerated => "chase.alternatives_generated",
            Counter::ChaseAlternativesPruned => "chase.alternatives_pruned",
            Counter::WalkAlternativesGenerated => "walk.alternatives_generated",
            Counter::WalkAlternativesPruned => "walk.alternatives_pruned",
            Counter::RequirementsChecked => "illustration.requirements_checked",
            Counter::CoverNodes => "illustration.cover_nodes",
            Counter::CacheHits => "cache.hits",
            Counter::CacheMisses => "cache.misses",
            Counter::CacheInvalidations => "cache.invalidations",
            Counter::CacheBytes => "cache.bytes",
            Counter::CacheSpills => "cache.spills",
            Counter::CacheDiskHits => "cache.disk_hits",
            Counter::CacheDiskBytes => "cache.disk_bytes",
            Counter::CacheLoadErrors => "cache.load_errors",
            Counter::CacheEvictions => "cache.evictions",
            Counter::CacheSavedNs => "cache.saved_ns",
            Counter::NetAccepted => "net.accepted",
            Counter::NetActive => "net.active",
            Counter::NetFrames => "net.frames",
            Counter::NetFrameErrors => "net.frame_errors",
            Counter::NetTimeouts => "net.timeouts",
            Counter::NetHandlerPanics => "net.handler_panics",
            Counter::PagerPageReads => "pager.page_reads",
            Counter::PagerPageWrites => "pager.page_writes",
            Counter::PagerHits => "pager.hits",
            Counter::PagerMisses => "pager.misses",
            Counter::PagerEvictions => "pager.evictions",
            Counter::PagerLoadErrors => "pager.load_errors",
            Counter::PlanBuilt => "plan.built",
            Counter::PlanPushedFilters => "plan.pushed_filters",
            Counter::PlanPrunedSubgraphs => "plan.pruned_subgraphs",
            Counter::PlanEvals => "plan.evals",
        }
    }
}

/// Turn process-wide counting on or off (off by default).
pub fn set_metrics_enabled(on: bool) {
    recorder::set_switch(METRICS, on);
}

/// Whether work on this thread is counted: process counting is on, or
/// an always-on scope is installed.
#[must_use]
pub fn metrics_enabled() -> bool {
    recorder::recording(METRICS)
}

/// Add `n` to a counter (no-op while disabled).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if recorder::open(METRICS) {
        recorder::each(METRICS, |r| r.add(counter, n));
    }
}

/// Add 1 to a counter (no-op while disabled).
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Subtract `n` from a counter, saturating at zero (no-op while
/// disabled). Only gauge-style counters use this — today that is
/// [`Counter::NetActive`], decremented when a connection closes; every
/// other counter stays monotonic.
pub fn sub(counter: Counter, n: u64) {
    if recorder::open(METRICS) {
        recorder::each(METRICS, |r| r.sub(counter, n));
    }
}

/// A point-in-time copy of every counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub(crate) values: [u64; COUNTER_COUNT],
}

/// Read the process counter totals.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    recorder::process().snapshot()
}

impl MetricsSnapshot {
    /// Value of one counter in this snapshot.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    /// `(name, value)` pairs in table order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c.name(), self.get(c)))
    }

    /// Counter-wise difference `self - earlier` (for measuring one
    /// operation against a baseline snapshot).
    #[must_use]
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut values = [0u64; COUNTER_COUNT];
        for (i, slot) in values.iter_mut().enumerate() {
            *slot = self.values[i].saturating_sub(earlier.values[i]);
        }
        MetricsSnapshot { values }
    }

    /// Render as a JSON object `{"scan.tuples": 0, ...}`, indented by
    /// `indent` spaces (nested one level deeper).
    #[must_use]
    pub fn to_json_object(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let mut out = String::from("{\n");
        let mut first = true;
        for (name, value) in self.entries() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("{inner}{}: {value}", crate::json::quote(name)));
        }
        out.push('\n');
        out.push_str(&pad);
        out.push('}');
        out
    }

    /// Human-readable aligned table (used by the `stats` shell command).
    #[must_use]
    pub fn render_table(&self) -> String {
        self.render_table_filtered("")
    }

    /// Like [`MetricsSnapshot::render_table`], keeping only counters
    /// whose dotted name contains `filter` (`"chase"` keeps
    /// `chase.alternatives_generated` and `chase.alternatives_pruned`).
    /// An empty filter keeps everything.
    #[must_use]
    pub fn render_table_filtered(&self, filter: &str) -> String {
        let names: Vec<(&'static str, u64)> = self
            .entries()
            .filter(|(name, _)| name.contains(filter))
            .collect();
        if names.is_empty() {
            return format!("no counters match `{filter}`\n");
        }
        let width = names.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in names {
            out.push_str(&format!("{name:<width$}  {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn adds_outside_a_recording_scope_are_dropped() {
        let rec = Recorder::scope("metrics.test.off");
        rec.run(|| add(Counter::JoinProbes, 100));
        assert_eq!(rec.snapshot().get(Counter::JoinProbes), 0);
    }

    #[test]
    fn adds_accumulate_and_snapshot() {
        let rec = Recorder::new();
        rec.run(|| {
            add(Counter::JoinProbes, 3);
            incr(Counter::JoinProbes);
            add(Counter::TuplesSubsumed, 7);
        });
        let snap = rec.snapshot();
        assert_eq!(snap.get(Counter::JoinProbes), 4);
        assert_eq!(snap.get(Counter::TuplesSubsumed), 7);
        assert_eq!(snap.get(Counter::CoverNodes), 0);
        let json = snap.to_json_object(0);
        assert!(json.contains("\"join.probes\": 4"));
        assert!(json.contains("\"subsumption.removed\": 7"));
        let table = snap.render_table();
        assert!(table.contains("join.probes"));
    }

    #[test]
    fn since_subtracts_baseline() {
        let rec = Recorder::new();
        rec.run(|| add(Counter::TuplesScanned, 10));
        let base = rec.snapshot();
        rec.run(|| add(Counter::TuplesScanned, 5));
        let delta = rec.snapshot().since(&base);
        assert_eq!(delta.get(Counter::TuplesScanned), 5);
    }

    #[test]
    fn sub_saturates() {
        let rec = Recorder::new();
        rec.run(|| {
            add(Counter::NetActive, 3);
            sub(Counter::NetActive, 2);
        });
        assert_eq!(rec.snapshot().get(Counter::NetActive), 1);
        rec.run(|| sub(Counter::NetActive, 10));
        assert_eq!(
            rec.snapshot().get(Counter::NetActive),
            0,
            "saturates at zero"
        );
        // Under a scope that does not record, a sub is dropped: it
        // reaches neither that scope nor the always-on scope around it.
        rec.run(|| add(Counter::NetActive, 1));
        let off = Recorder::scope("metrics.test.sub_off");
        rec.run(|| off.run(|| sub(Counter::NetActive, 1)));
        assert_eq!(
            rec.snapshot().get(Counter::NetActive),
            1,
            "disabled subs are dropped"
        );
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert!(names.iter().all(|n| n.contains('.')));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT);
    }
}
