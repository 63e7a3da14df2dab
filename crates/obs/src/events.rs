//! Bounded ring buffer of completed spans, exportable as Chrome trace
//! events.
//!
//! Every span finished while tracing is enabled is appended here as an
//! [`EventRecord`]: name, thread ordinal, session label, start offset
//! from a process-wide epoch, and duration. The buffer is bounded
//! (65 536 events); once full, the oldest events are overwritten and a
//! dropped-event counter increments, so a long run cannot grow memory
//! without bound.
//!
//! [`chrome_trace_jsonl`] renders events in the Chrome trace-event
//! format (one complete `"ph": "X"` event per line), loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev> — see
//! `docs/observability.md` for the workflow.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Ring capacity: oldest events are dropped beyond this.
pub const EVENT_CAPACITY: usize = 65_536;

/// One completed span, positioned on the process timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Static span name (dotted, e.g. `fd.lattice`).
    pub name: &'static str,
    /// Ordinal of the thread the span ran on.
    pub thread: u64,
    /// Session label carried by the recording thread, if any.
    pub session: Option<u64>,
    /// Span start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

static RING: Mutex<VecDeque<EventRecord>> = Mutex::new(VecDeque::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn lock() -> std::sync::MutexGuard<'static, VecDeque<EventRecord>> {
    RING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process trace epoch, initialized on first use. [`crate::span`]
/// touches this before reading the span's start time, so every event's
/// `start_ns` offset is non-negative.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Append one event, dropping the oldest when the ring is full.
pub fn record(event: EventRecord) {
    let mut ring = lock();
    if ring.len() >= EVENT_CAPACITY {
        ring.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    ring.push_back(event);
}

/// Drain the ring, returning the buffered events (oldest first) and how
/// many were dropped to the capacity bound since the last clear.
#[must_use]
pub fn take_events() -> (Vec<EventRecord>, u64) {
    let events = lock().drain(..).collect();
    (events, DROPPED.swap(0, Ordering::Relaxed))
}

/// Copy the ring without draining it (oldest first).
#[must_use]
pub fn snapshot_events() -> Vec<EventRecord> {
    lock().iter().cloned().collect()
}

/// Discard all buffered events and reset the dropped-event counter.
pub fn clear_events() {
    lock().clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Nanoseconds rendered as fractional microseconds (`1234567` →
/// `1234.567`), the unit Chrome trace timestamps use.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Render events as Chrome trace-event JSONL: one complete (`"ph":
/// "X"`) event object per line, timestamps and durations in
/// microseconds. Load the file in `chrome://tracing` or Perfetto.
#[must_use]
pub fn chrome_trace_jsonl(events: &[EventRecord]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"name\": {}",
            e.thread,
            us(e.start_ns),
            us(e.dur_ns),
            crate::json::quote(e.name),
        ));
        if let Some(session) = e.session {
            out.push_str(&format!(", \"args\": {{\"session\": {session}}}"));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, start_ns: u64) -> EventRecord {
        EventRecord {
            name,
            thread: 0,
            session: None,
            start_ns,
            dur_ns: 500,
        }
    }

    #[test]
    fn jsonl_renders_one_complete_event_per_line() {
        let events = vec![
            EventRecord {
                name: "fd.naive",
                thread: 2,
                session: Some(1),
                start_ns: 1_234_567,
                dur_ns: 89_012,
            },
            ev("ops.join", 42),
        ];
        let jsonl = chrome_trace_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ph\": \"X\""));
        assert!(lines[0].contains("\"tid\": 2"));
        assert!(lines[0].contains("\"ts\": 1234.567"));
        assert!(lines[0].contains("\"dur\": 89.012"));
        assert!(lines[0].contains("\"name\": \"fd.naive\""));
        assert!(lines[0].contains("\"args\": {\"session\": 1}"));
        assert!(lines[1].contains("\"ts\": 0.042"));
        assert!(!lines[1].contains("args"));
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        // The ring is global: serialize against the span tests (which
        // also record events) and exercise the bound via the public API.
        let _guard = crate::testutil::LOCK.lock().unwrap();
        crate::trace::set_trace_enabled(false);
        clear_events();
        for i in 0..(EVENT_CAPACITY as u64 + 10) {
            record(ev("x", i));
        }
        let (events, dropped) = take_events();
        assert_eq!(events.len(), EVENT_CAPACITY);
        assert_eq!(dropped, 10);
        assert_eq!(events[0].start_ns, 10); // oldest 10 gone
        let (empty, zero) = take_events();
        assert!(empty.is_empty());
        assert_eq!(zero, 0);
    }
}
