//! Hierarchical span tracing via RAII guards.
//!
//! [`span`] returns a guard; guards opened while another guard is alive
//! on the same thread become its children (a thread-local stack tracks
//! nesting). Finished spans are appended to a thread-safe global
//! collector. The whole subsystem is gated by one relaxed `AtomicBool`:
//! while disabled, [`span`] is a load-and-branch that never reads the
//! clock and its guard's `Drop` does nothing.
//!
//! While enabled, each finished span also feeds the timing-telemetry
//! surface: its duration lands in the per-name latency histogram
//! ([`crate::hist`]) and the bounded event ring ([`crate::events`]),
//! and a span slower than the configured threshold (see
//! [`set_slow_threshold_ns`]) emits a rate-limited stderr warning with
//! its ancestry path.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static COLLECTOR: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
/// Spans at least this slow warn on drop; 0 disables the check.
static SLOW_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<(u64, &'static str)>> = const { RefCell::new(Vec::new()) };
    static THREAD_ORDINAL: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Turn tracing on or off (off by default). Enabling pins the process
/// trace epoch (see [`crate::events::epoch`]) so event offsets start
/// near zero.
pub fn set_trace_enabled(on: bool) {
    if on {
        crate::events::epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Warn (rate-limited, with the span's ancestry path) whenever a span's
/// wall-clock duration reaches `ns`. 0 — the default — disables the
/// check. The CLI maps `--slow-ms <n>` / `CLIO_SLOW_MS` here.
pub fn set_slow_threshold_ns(ns: u64) {
    SLOW_NS.store(ns, Ordering::Relaxed);
}

/// The current slow-span threshold in nanoseconds (0 = disabled).
#[must_use]
pub fn slow_threshold_ns() -> u64 {
    SLOW_NS.load(Ordering::Relaxed)
}

/// Whether tracing is currently on.
#[must_use]
pub fn trace_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id, monotonically increasing in start order.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name (dotted, e.g. `fd.lattice`).
    pub name: &'static str,
    /// Wall-clock duration in nanoseconds.
    pub nanos: u128,
    /// Ordinal of the thread the span ran on.
    pub thread: u64,
}

/// RAII guard for one span; the span finishes when the guard drops.
#[must_use = "a span guard measures until it is dropped"]
pub struct Span {
    inner: Option<ActiveSpan>,
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    epoch: Instant,
    start: Instant,
}

/// Open a span. While tracing is disabled this is one relaxed atomic
/// load and returns an inert guard.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !trace_enabled() {
        return Span { inner: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().map(|&(id, _)| id);
        stack.push((id, name));
        parent
    });
    let epoch = crate::events::epoch();
    Span {
        inner: Some(ActiveSpan {
            id,
            parent,
            name,
            epoch,
            start: Instant::now(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        let nanos = active.start.elapsed().as_nanos();
        let dur_ns = u64::try_from(nanos).unwrap_or(u64::MAX);
        let slow_ns = slow_threshold_ns();
        let slow_path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop back to (and including) this span; robust against
            // out-of-order drops of sibling guards.
            while let Some((top, _)) = stack.pop() {
                if top == active.id {
                    break;
                }
            }
            // Ancestry path, built only for spans that will warn.
            (slow_ns != 0 && dur_ns >= slow_ns).then(|| {
                let mut path: Vec<&str> = stack.iter().map(|&(_, n)| n).collect();
                path.push(active.name);
                path.join(" > ")
            })
        });
        let thread = THREAD_ORDINAL.with(|t| *t);
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            nanos,
            thread,
        };
        COLLECTOR
            .lock()
            .expect("span collector poisoned")
            .push(record);
        crate::hist::record(active.name, dur_ns);
        let start_ns = u64::try_from(
            active
                .start
                .saturating_duration_since(active.epoch)
                .as_nanos(),
        )
        .unwrap_or(u64::MAX);
        crate::events::record(crate::events::EventRecord {
            name: active.name,
            thread,
            session: crate::metrics::current_session(),
            start_ns,
            dur_ns,
        });
        if let Some(path) = slow_path {
            crate::warn::warn_limited(
                "slow",
                &format!(
                    "slow span {path}: {} (threshold {})",
                    fmt_ns(nanos),
                    fmt_ns(slow_ns as u128)
                ),
            );
        }
    }
}

/// Drain the collector, returning every finished span.
#[must_use]
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *COLLECTOR.lock().expect("span collector poisoned"))
}

/// Copy the collector without draining it.
#[must_use]
pub fn snapshot_spans() -> Vec<SpanRecord> {
    COLLECTOR.lock().expect("span collector poisoned").clone()
}

/// Discard all collected spans.
pub fn clear_spans() {
    COLLECTOR.lock().expect("span collector poisoned").clear();
}

/// Aggregated view of same-named sibling spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name.
    pub name: &'static str,
    /// How many spans were aggregated into this node.
    pub count: u64,
    /// Summed wall-clock nanoseconds.
    pub total_ns: u128,
    /// `total_ns` minus the children's summed `total_ns` (clamped at 0),
    /// so a parent's total always equals `self + Σ children`.
    pub self_ns: u128,
    /// Aggregated child spans, in first-start order.
    pub children: Vec<SpanNode>,
}

/// Build the aggregated span forest from raw records: siblings with the
/// same name merge into one node (count/total accumulate); spans whose
/// parent never finished are treated as roots.
#[must_use]
pub fn aggregate(records: &[SpanRecord]) -> Vec<SpanNode> {
    let finished: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let mut children_of: HashMap<Option<u64>, Vec<&SpanRecord>> = HashMap::new();
    for r in records {
        let key = match r.parent {
            Some(p) if finished.contains_key(&p) => Some(p),
            _ => None,
        };
        children_of.entry(key).or_default().push(r);
    }
    fn level(
        group: &[&SpanRecord],
        children_of: &HashMap<Option<u64>, Vec<&SpanRecord>>,
    ) -> Vec<SpanNode> {
        // group by name, preserving first-start order
        let mut order: Vec<&'static str> = Vec::new();
        let mut by_name: HashMap<&'static str, Vec<&SpanRecord>> = HashMap::new();
        let mut sorted: Vec<&&SpanRecord> = group.iter().collect();
        sorted.sort_by_key(|r| r.id);
        for r in sorted {
            if !by_name.contains_key(r.name) {
                order.push(r.name);
            }
            by_name.entry(r.name).or_default().push(r);
        }
        order
            .into_iter()
            .map(|name| {
                let members = &by_name[name];
                let total_ns: u128 = members.iter().map(|r| r.nanos).sum();
                let mut kids: Vec<&SpanRecord> = Vec::new();
                for m in members {
                    if let Some(c) = children_of.get(&Some(m.id)) {
                        kids.extend(c.iter().copied());
                    }
                }
                let children = level(&kids, children_of);
                let child_total: u128 = children.iter().map(|c| c.total_ns).sum();
                SpanNode {
                    name,
                    count: members.len() as u64,
                    total_ns,
                    self_ns: total_ns.saturating_sub(child_total),
                    children,
                }
            })
            .collect()
    }
    let roots = children_of.get(&None).cloned().unwrap_or_default();
    level(&roots, &children_of)
}

/// Render nanoseconds with an adaptive unit (`1.234s`, `5.678ms`,
/// `9.1µs`, `42ns`) — the formatting `--trace` trees, `profile spans`,
/// and slow-span warnings share.
#[must_use]
pub fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render records as an indented tree. Same-named siblings aggregate
/// into one line with a `×count`; `self` is total minus children, so
/// every parent's total equals its self time plus its children's totals.
#[must_use]
pub fn render_tree(records: &[SpanRecord]) -> String {
    render_tree_filtered(records, "")
}

/// Subtrees of `forest` rooted at the shallowest nodes whose name
/// contains `filter` (a kept root keeps its whole subtree).
fn filter_forest(forest: &[SpanNode], filter: &str) -> Vec<SpanNode> {
    let mut kept = Vec::new();
    for node in forest {
        if node.name.contains(filter) {
            kept.push(node.clone());
        } else {
            kept.extend(filter_forest(&node.children, filter));
        }
    }
    kept
}

fn count_spans(forest: &[SpanNode]) -> u64 {
    forest
        .iter()
        .map(|n| n.count + count_spans(&n.children))
        .sum()
}

/// Like [`render_tree`], keeping only subtrees rooted at spans whose
/// name contains `filter` (the `--trace-filter` CLI flag). An empty
/// filter keeps the full tree.
#[must_use]
pub fn render_tree_filtered(records: &[SpanRecord], filter: &str) -> String {
    if records.is_empty() {
        return String::from("trace: no spans recorded\n");
    }
    let mut threads: Vec<u64> = records.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    let mut per_thread: Vec<(u64, Vec<SpanNode>)> = Vec::new();
    let mut total: u64 = 0;
    for &t in &threads {
        let subset: Vec<SpanRecord> = records.iter().filter(|r| r.thread == t).cloned().collect();
        let forest = filter_forest(&aggregate(&subset), filter);
        total += count_spans(&forest);
        if !forest.is_empty() {
            per_thread.push((t, forest));
        }
    }
    if per_thread.is_empty() {
        return format!("trace: no spans matching `{filter}`\n");
    }
    let mut out = format!(
        "trace: {} span{} on {} thread{}\n",
        total,
        if total == 1 { "" } else { "s" },
        per_thread.len(),
        if per_thread.len() == 1 { "" } else { "s" },
    );
    let multi = per_thread.len() > 1;
    for (t, forest) in &per_thread {
        if multi {
            out.push_str(&format!("thread {t}:\n"));
        }
        fn walk(node: &SpanNode, depth: usize, out: &mut String) {
            let indent = "  ".repeat(depth);
            out.push_str(&format!(
                "{indent}- {}  ×{}  total {}  self {}\n",
                node.name,
                node.count,
                fmt_ns(node.total_ns),
                fmt_ns(node.self_ns),
            ));
            for child in &node.children {
                walk(child, depth + 1, out);
            }
        }
        for root in forest {
            walk(root, 0, &mut out);
        }
    }
    out
}

/// Render records as a JSON array of aggregated span nodes:
/// `[{"name": ..., "count": n, "total_ns": n, "self_ns": n,
/// "children": [...]}]`. `indent` is the indentation of the array.
#[must_use]
pub fn spans_to_json(records: &[SpanRecord], indent: usize) -> String {
    fn node_json(node: &SpanNode, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let mut out = format!(
            "{{\n{inner}\"name\": {},\n{inner}\"count\": {},\n{inner}\"total_ns\": {},\n{inner}\"self_ns\": {}",
            crate::json::quote(node.name),
            node.count,
            node.total_ns,
            node.self_ns,
        );
        if !node.children.is_empty() {
            out.push_str(&format!(",\n{inner}\"children\": ["));
            for (i, c) in node.children.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&node_json(c, indent + 4));
            }
            out.push(']');
        }
        out.push_str(&format!("\n{pad}}}"));
        out
    }
    let forest = aggregate(records);
    let mut out = String::from("[");
    for (i, node) in forest.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&node_json(node, indent + 2));
    }
    out.push(']');
    out
}

/// Flat per-name profile of `records`: the `top` span names ranked by
/// summed **self** time (descending, name ascending on ties), each with
/// count, total, self, and — when a matching histogram entry is in
/// `hists` — p50/p90/p99 latency percentiles. Backs the `profile spans`
/// shell command.
#[must_use]
pub fn render_profile(
    records: &[SpanRecord],
    hists: &[(&'static str, crate::hist::HistSnapshot)],
    top: usize,
) -> String {
    // Flatten the aggregated forest into per-name sums: the same name
    // may appear at several tree positions (and on several threads).
    let mut by_name: HashMap<&'static str, (u64, u128, u128)> = HashMap::new();
    fn walk(node: &SpanNode, by_name: &mut HashMap<&'static str, (u64, u128, u128)>) {
        let entry = by_name.entry(node.name).or_default();
        entry.0 += node.count;
        entry.1 += node.total_ns;
        entry.2 += node.self_ns;
        for c in &node.children {
            walk(c, by_name);
        }
    }
    for node in &aggregate(records) {
        walk(node, &mut by_name);
    }
    let mut rows: Vec<(&'static str, (u64, u128, u128))> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
    let names = rows.len();
    let shown = top.min(names);
    let mut out = format!(
        "profile: {} span name{}, top {} by self time\n",
        names,
        if names == 1 { "" } else { "s" },
        shown,
    );
    for (name, (count, total_ns, self_ns)) in rows.into_iter().take(top) {
        out.push_str(&format!(
            "- {name}  ×{count}  total {}  self {}",
            fmt_ns(total_ns),
            fmt_ns(self_ns),
        ));
        if let Some((_, h)) = hists.iter().find(|(n, _)| *n == name) {
            out.push_str(&format!(
                "  p50 {}  p90 {}  p99 {}",
                fmt_ns(h.percentile(50) as u128),
                fmt_ns(h.percentile(90) as u128),
                fmt_ns(h.percentile(99) as u128),
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::LOCK;

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = LOCK.lock().unwrap();
        set_trace_enabled(false);
        clear_spans();
        {
            let _s = span("outer");
            let _t = span("inner");
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn nesting_and_aggregation_are_consistent() {
        let _guard = LOCK.lock().unwrap();
        set_trace_enabled(true);
        clear_spans();
        {
            let _root = span("root");
            for _ in 0..3 {
                let _child = span("child");
                let _leaf = span("leaf");
            }
            let _other = span("other");
        }
        set_trace_enabled(false);
        let records = take_spans();
        assert_eq!(records.len(), 8);
        let forest = aggregate(&records);
        assert_eq!(forest.len(), 1);
        let root = &forest[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.count, 1);
        let names: Vec<_> = root.children.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["child", "other"]);
        let child = &root.children[0];
        assert_eq!(child.count, 3);
        assert_eq!(child.children.len(), 1);
        assert_eq!(child.children[0].name, "leaf");
        assert_eq!(child.children[0].count, 3);
        // parent totals always cover their children
        fn check(node: &SpanNode) {
            let child_total: u128 = node.children.iter().map(|c| c.total_ns).sum();
            assert_eq!(node.total_ns, node.self_ns + child_total);
            assert!(node.total_ns >= child_total);
            for c in &node.children {
                check(c);
            }
        }
        check(root);
        let rendered = render_tree(&records);
        assert!(rendered.contains("- root"));
        assert!(rendered.contains("  - child  ×3"));
        let json = spans_to_json(&records, 0);
        assert!(json.contains("\"name\": \"root\""));
        assert!(json.contains("\"count\": 3"));
    }

    #[test]
    fn filtered_tree_keeps_matching_subtrees() {
        let _guard = LOCK.lock().unwrap();
        set_trace_enabled(true);
        clear_spans();
        {
            let _root = span("mapping.evaluate");
            {
                let _c = span("fd.naive");
                let _l = span("ops.join");
            }
            let _o = span("ops.remove_subsumed");
        }
        set_trace_enabled(false);
        let records = take_spans();
        let full = render_tree_filtered(&records, "");
        assert_eq!(full, render_tree(&records));
        let fd = render_tree_filtered(&records, "fd.");
        assert!(fd.contains("- fd.naive"), "{fd}");
        assert!(fd.contains("  - ops.join"), "{fd}"); // subtree kept
        assert!(!fd.contains("mapping.evaluate"), "{fd}");
        assert!(!fd.contains("remove_subsumed"), "{fd}");
        assert!(fd.starts_with("trace: 2 spans"), "{fd}");
        let none = render_tree_filtered(&records, "bogus");
        assert!(none.contains("no spans matching `bogus`"), "{none}");
    }

    #[test]
    fn spans_from_spawned_threads_collect_globally() {
        let _guard = LOCK.lock().unwrap();
        set_trace_enabled(true);
        clear_spans();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span("worker");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_trace_enabled(false);
        let records = take_spans();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.name == "worker"));
    }

    #[test]
    fn finished_spans_feed_histograms_and_events() {
        let _guard = LOCK.lock().unwrap();
        set_trace_enabled(true);
        clear_spans();
        crate::hist::clear_histograms();
        crate::events::clear_events();
        {
            let _outer = span("timed.outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _inner = span("timed.inner");
        }
        set_trace_enabled(false);
        let records = take_spans();
        assert_eq!(records.len(), 2);
        let hists = crate::hist::snapshot_histograms();
        let (_, outer) = hists
            .iter()
            .find(|(n, _)| *n == "timed.outer")
            .expect("outer histogram");
        assert_eq!(outer.count, 1);
        assert!(outer.sum_ns >= 1_000_000, "slept 1ms, sum {}", outer.sum_ns);
        assert_eq!(outer.percentile(50), outer.max_ns);
        let events = crate::events::snapshot_events();
        assert_eq!(events.len(), 2);
        let outer_ev = events.iter().find(|e| e.name == "timed.outer").unwrap();
        let inner_ev = events.iter().find(|e| e.name == "timed.inner").unwrap();
        assert!(inner_ev.start_ns >= outer_ev.start_ns);
        assert!(outer_ev.dur_ns >= inner_ev.dur_ns);
        // the profile ranks by self time and shows percentiles
        let profile = render_profile(&records, &hists, 10);
        assert!(
            profile.starts_with("profile: 2 span names, top 2"),
            "{profile}"
        );
        assert!(profile.contains("- timed.outer  ×1"), "{profile}");
        assert!(profile.contains("p50 "), "{profile}");
        let top1 = render_profile(&records, &hists, 1);
        assert!(top1.contains("top 1 by self time"), "{top1}");
        assert_eq!(top1.lines().count(), 2, "{top1}");
        crate::events::clear_events();
        crate::hist::clear_histograms();
    }

    #[test]
    fn profile_ranks_names_by_self_time() {
        let records = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "outer",
                nanos: 10_000,
                thread: 0,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "inner",
                nanos: 9_000,
                thread: 0,
            },
        ];
        let profile = render_profile(&records, &[], 10);
        // inner's self time (9.0µs) beats outer's (1.0µs)
        assert!(
            profile.contains("- inner  ×1  total 9.0µs  self 9.0µs"),
            "{profile}"
        );
        assert!(
            profile.contains("- outer  ×1  total 10.0µs  self 1.0µs"),
            "{profile}"
        );
        let inner_at = profile.find("- inner").unwrap();
        let outer_at = profile.find("- outer").unwrap();
        assert!(inner_at < outer_at, "{profile}");
    }

    #[test]
    fn slow_spans_warn_with_counts() {
        let _guard = LOCK.lock().unwrap();
        set_trace_enabled(true);
        clear_spans();
        let before = {
            let (p, s) = crate::warn::warn_counts("slow");
            p + s
        };
        set_slow_threshold_ns(1);
        {
            let _outer = span("slowtest.outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_slow_threshold_ns(0);
        set_trace_enabled(false);
        let _ = take_spans();
        crate::events::clear_events();
        crate::hist::clear_histograms();
        let after = {
            let (p, s) = crate::warn::warn_counts("slow");
            p + s
        };
        assert!(
            after > before,
            "slow span did not warn ({before} -> {after})"
        );
    }
}
