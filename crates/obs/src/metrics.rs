//! Named monotonic counters for engine work units.
//!
//! Counters are global relaxed `AtomicU64`s indexed by the [`Counter`]
//! enum, gated by a single relaxed `AtomicBool`. Disabled counting is a
//! load-and-branch; enabled counting is a relaxed `fetch_add`. Hot
//! loops should accumulate into locals and [`add`] once per operation.
//!
//! ## Per-session aggregation
//!
//! A thread may carry an optional numeric **session label** (installed
//! with [`with_session`] or [`set_session`]; inherited by `exec` pool
//! workers). While a label is active, every enabled [`add`] is mirrored
//! into a per-label counter table alongside the global one, giving each
//! concurrent session its own view (see `docs/concurrency.md`). The
//! labeled tables surface through [`session_snapshot`] and the
//! `"sessions"` object of the `--metrics` JSON report.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Every engine counter. The discriminant doubles as the index into the
/// global counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Input tuples visited by scans, joins, and selections.
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
    /// `Table::dedup` or `Relation::with_rows`.
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
    /// Iterations of the greedy set-cover loop in illustration
    /// selection (one per chosen example).
    GreedyIterations,
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
    /// Incremental-cache entries dropped to stay under the byte budget
    /// (either policy).
    CacheEvictions,
    /// Evictions chosen by the cost-aware policy (a subset of
    /// `cache.evictions`).
    CacheCostEvictions,
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
    pub const ALL: [Counter; 42] = [
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
        Counter::GreedyIterations,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheInvalidations,
        Counter::CacheBytes,
        Counter::CacheSpills,
        Counter::CacheDiskHits,
        Counter::CacheDiskBytes,
        Counter::CacheLoadErrors,
        Counter::CacheEvictions,
        Counter::CacheCostEvictions,
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
            Counter::GreedyIterations => "illustration.greedy_iterations",
            Counter::CacheHits => "cache.hits",
            Counter::CacheMisses => "cache.misses",
            Counter::CacheInvalidations => "cache.invalidations",
            Counter::CacheBytes => "cache.bytes",
            Counter::CacheSpills => "cache.spills",
            Counter::CacheDiskHits => "cache.disk_hits",
            Counter::CacheDiskBytes => "cache.disk_bytes",
            Counter::CacheLoadErrors => "cache.load_errors",
            Counter::CacheEvictions => "cache.evictions",
            Counter::CacheCostEvictions => "cache.cost_evictions",
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

static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; COUNTER_COUNT] = [ZERO; COUNTER_COUNT];

thread_local! {
    /// The session label carried by the current thread, if any.
    static SESSION: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Per-label counter tables, keyed by session label. A `BTreeMap` so
/// JSON reports list sessions in label order.
static SESSION_COUNTERS: Mutex<BTreeMap<u64, [u64; COUNTER_COUNT]>> = Mutex::new(BTreeMap::new());

/// Display names for session labels. Batch sessions keep their numeric
/// label; the network front-end registers `conn.<n>` so per-connection
/// tables are recognizable in reports (see [`session_display`]).
static SESSION_NAMES: Mutex<BTreeMap<u64, String>> = Mutex::new(BTreeMap::new());

fn names_lock() -> MutexGuard<'static, BTreeMap<u64, String>> {
    SESSION_NAMES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Register a display name for a session label, used as the label's key
/// in JSON reports. Unnamed labels render as the number itself, which
/// keeps batch-mode reports byte-identical.
pub fn set_session_name(label: u64, name: &str) {
    names_lock().insert(label, name.to_owned());
}

/// The display name for a session label: the registered name, or the
/// numeric label rendered as a string.
#[must_use]
pub fn session_display(label: u64) -> String {
    names_lock()
        .get(&label)
        .cloned()
        .unwrap_or_else(|| label.to_string())
}

fn session_lock() -> MutexGuard<'static, BTreeMap<u64, [u64; COUNTER_COUNT]>> {
    SESSION_COUNTERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Install (or clear, with `None`) the current thread's session label.
/// Prefer [`with_session`], which restores the previous label.
pub fn set_session(label: Option<u64>) {
    SESSION.with(|s| s.set(label));
}

/// The current thread's session label, if one is installed.
#[must_use]
pub fn current_session() -> Option<u64> {
    SESSION.with(Cell::get)
}

/// Run `f` with the given session label installed on this thread,
/// restoring the previous label afterwards (also on panic).
pub fn with_session<R>(label: Option<u64>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SESSION.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SESSION.with(|s| s.replace(label)));
    f()
}

/// Ensure a (possibly all-zero) counter table exists for `label`, so a
/// session that did no counted work still appears in reports. No-op
/// while metrics are disabled.
pub fn touch_session(label: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        session_lock().entry(label).or_insert([0; COUNTER_COUNT]);
    }
}

/// Labels that have recorded (or touched) a per-session counter table,
/// in ascending order.
#[must_use]
pub fn session_labels() -> Vec<u64> {
    session_lock().keys().copied().collect()
}

/// Snapshot of one session's counter table, if that label has recorded
/// anything.
#[must_use]
pub fn session_snapshot(label: u64) -> Option<MetricsSnapshot> {
    session_lock()
        .get(&label)
        .map(|values| MetricsSnapshot { values: *values })
}

/// The snapshot for the current context: the per-session table when this
/// thread carries a label (and the label has recorded work), the global
/// table otherwise. The `stats` shell command uses this so each pooled
/// session reports its own work.
#[must_use]
pub fn context_snapshot() -> MetricsSnapshot {
    current_session()
        .and_then(session_snapshot)
        .unwrap_or_else(snapshot)
}

/// Turn counting on or off (off by default).
pub fn set_metrics_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether counting is currently on.
#[must_use]
pub fn metrics_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Add `n` to a counter (no-op while disabled). When the current thread
/// carries a session label, the add is mirrored into that session's
/// table as well as the global one.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
        if let Some(label) = SESSION.with(Cell::get) {
            session_lock().entry(label).or_insert([0; COUNTER_COUNT])[counter as usize] += n;
        }
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
    if ENABLED.load(Ordering::Relaxed) {
        let _ =
            COUNTERS[counter as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
        if let Some(label) = SESSION.with(Cell::get) {
            let mut sessions = session_lock();
            let slot = &mut sessions.entry(label).or_insert([0; COUNTER_COUNT])[counter as usize];
            *slot = slot.saturating_sub(n);
        }
    }
}

/// Current value of one counter.
#[must_use]
pub fn value(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// Zero every counter, global and per-session, and forget registered
/// session names (leaves the enabled flag and installed session labels
/// untouched).
pub fn reset_metrics() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    session_lock().clear();
    names_lock().clear();
}

/// A point-in-time copy of every counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: [u64; COUNTER_COUNT],
}

/// Read all counters at once.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let mut values = [0u64; COUNTER_COUNT];
    for (slot, c) in values.iter_mut().zip(&COUNTERS) {
        *slot = c.load(Ordering::Relaxed);
    }
    MetricsSnapshot { values }
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

    // Counter state is process-global; tests in this module serialize
    // themselves so their exact-value assertions cannot race.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_adds_are_dropped() {
        let _guard = LOCK.lock().unwrap();
        set_metrics_enabled(false);
        reset_metrics();
        add(Counter::JoinProbes, 100);
        assert_eq!(value(Counter::JoinProbes), 0);
    }

    #[test]
    fn enabled_adds_accumulate_and_snapshot() {
        let _guard = LOCK.lock().unwrap();
        set_metrics_enabled(true);
        reset_metrics();
        add(Counter::JoinProbes, 3);
        incr(Counter::JoinProbes);
        add(Counter::TuplesSubsumed, 7);
        let snap = snapshot();
        set_metrics_enabled(false);
        assert_eq!(snap.get(Counter::JoinProbes), 4);
        assert_eq!(snap.get(Counter::TuplesSubsumed), 7);
        assert_eq!(snap.get(Counter::GreedyIterations), 0);
        let json = snap.to_json_object(0);
        assert!(json.contains("\"join.probes\": 4"));
        assert!(json.contains("\"subsumption.removed\": 7"));
        let table = snap.render_table();
        assert!(table.contains("join.probes"));
    }

    #[test]
    fn since_subtracts_baseline() {
        let _guard = LOCK.lock().unwrap();
        set_metrics_enabled(true);
        reset_metrics();
        add(Counter::TuplesScanned, 10);
        let base = snapshot();
        add(Counter::TuplesScanned, 5);
        let delta = snapshot().since(&base);
        set_metrics_enabled(false);
        assert_eq!(delta.get(Counter::TuplesScanned), 5);
    }

    #[test]
    fn session_labels_mirror_adds_and_restore() {
        let _guard = LOCK.lock().unwrap();
        set_metrics_enabled(true);
        reset_metrics();
        assert!(session_labels().is_empty());
        add(Counter::JoinProbes, 2); // unlabeled: global only
        with_session(Some(7), || {
            assert_eq!(current_session(), Some(7));
            add(Counter::JoinProbes, 5);
            with_session(Some(9), || add(Counter::TuplesScanned, 1));
            assert_eq!(current_session(), Some(7), "nested label restored");
        });
        assert_eq!(current_session(), None);
        touch_session(11);
        set_metrics_enabled(false);
        assert_eq!(session_labels(), vec![7, 9, 11]);
        let s7 = session_snapshot(7).expect("session 7 recorded");
        assert_eq!(s7.get(Counter::JoinProbes), 5);
        assert_eq!(s7.get(Counter::TuplesScanned), 0);
        let s9 = session_snapshot(9).expect("session 9 recorded");
        assert_eq!(s9.get(Counter::TuplesScanned), 1);
        let s11 = session_snapshot(11).expect("touched session present");
        assert_eq!(s11.get(Counter::JoinProbes), 0);
        // global table saw everything
        assert_eq!(snapshot().get(Counter::JoinProbes), 7);
        assert!(session_snapshot(42).is_none());
        reset_metrics();
        assert!(session_labels().is_empty(), "reset clears session tables");
    }

    #[test]
    fn context_snapshot_prefers_the_thread_label() {
        let _guard = LOCK.lock().unwrap();
        set_metrics_enabled(true);
        reset_metrics();
        add(Counter::JoinProbes, 10);
        let ctx = with_session(Some(3), || {
            add(Counter::JoinProbes, 1);
            context_snapshot()
        });
        let global = context_snapshot();
        set_metrics_enabled(false);
        assert_eq!(ctx.get(Counter::JoinProbes), 1);
        assert_eq!(global.get(Counter::JoinProbes), 11);
        reset_metrics();
    }

    #[test]
    fn sub_saturates_and_mirrors_sessions() {
        let _guard = LOCK.lock().unwrap();
        set_metrics_enabled(true);
        reset_metrics();
        add(Counter::NetActive, 3);
        sub(Counter::NetActive, 2);
        assert_eq!(value(Counter::NetActive), 1);
        sub(Counter::NetActive, 10);
        assert_eq!(value(Counter::NetActive), 0, "saturates at zero");
        with_session(Some(4), || {
            add(Counter::NetActive, 2);
            sub(Counter::NetActive, 1);
        });
        let s4 = session_snapshot(4).expect("session 4 recorded");
        set_metrics_enabled(false);
        assert_eq!(s4.get(Counter::NetActive), 1);
        sub(Counter::NetActive, 1);
        assert_eq!(value(Counter::NetActive), 1, "disabled subs are dropped");
        reset_metrics();
    }

    #[test]
    fn session_names_register_and_reset() {
        let _guard = LOCK.lock().unwrap();
        reset_metrics();
        assert_eq!(session_display(3), "3", "unnamed labels stay numeric");
        set_session_name(3, "conn.3");
        assert_eq!(session_display(3), "conn.3");
        reset_metrics();
        assert_eq!(session_display(3), "3", "reset forgets names");
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
