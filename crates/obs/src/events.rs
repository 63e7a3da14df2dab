//! Chrome trace-event export of finished spans.
//!
//! Every span records its start as an offset from one process-wide
//! epoch. [`chrome_trace_jsonl`] renders spans in the Chrome trace-event
//! format (one complete `"ph": "X"` event per line), loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev> — see
//! `docs/observability.md` for the workflow.

use std::sync::OnceLock;
use std::time::Instant;

use crate::trace::SpanRecord;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process trace epoch, initialized on first use. [`crate::span`]
/// touches this before reading the span's start time, so every span's
/// `start_ns` offset is non-negative.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds rendered as fractional microseconds (`1234567` →
/// `1234.567`), the unit Chrome trace timestamps use.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Render spans as Chrome trace-event JSONL: one complete (`"ph":
/// "X"`) event object per line, timestamps and durations in
/// microseconds, and the span's scope name as its `session` argument.
/// Load the file in `chrome://tracing` or Perfetto.
#[must_use]
pub fn chrome_trace_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"name\": {}",
            s.thread,
            us(s.start_ns),
            us(u64::try_from(s.nanos).unwrap_or(u64::MAX)),
            crate::json::quote(s.name),
        ));
        if let Some(scope) = &s.scope {
            out.push_str(&format!(
                ", \"args\": {{\"session\": {}}}",
                crate::json::quote(scope)
            ));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64) -> SpanRecord {
        SpanRecord {
            id: 1,
            parent: None,
            name,
            nanos: 500,
            thread: 0,
            start_ns,
            scope: None,
        }
    }

    #[test]
    fn jsonl_renders_one_complete_event_per_line() {
        let spans = vec![
            SpanRecord {
                thread: 2,
                nanos: 89_012,
                scope: Some("conn.1".into()),
                ..span("fd.naive", 1_234_567)
            },
            span("ops.join", 42),
        ];
        let jsonl = chrome_trace_jsonl(&spans);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ph\": \"X\""));
        assert!(lines[0].contains("\"tid\": 2"));
        assert!(lines[0].contains("\"ts\": 1234.567"));
        assert!(lines[0].contains("\"dur\": 89.012"));
        assert!(lines[0].contains("\"name\": \"fd.naive\""));
        assert!(lines[0].contains("\"args\": {\"session\": \"conn.1\"}"));
        assert!(lines[1].contains("\"ts\": 0.042"));
        assert!(!lines[1].contains("args"));
    }
}
