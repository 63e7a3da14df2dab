//! # clio-obs — observability for the Clio engine
//!
//! A **std-only** (zero external dependencies) observability layer with
//! two halves, both recorded into [`Recorder`]s:
//!
//! * [`metrics`] — named **monotonic counters** for engine work units
//!   (tuples scanned, join probes, subsumption comparisons, …).
//! * [`trace`] — hierarchical **span tracing** via RAII guards. Spans
//!   nest through a thread-local stack; each finished span also feeds a
//!   per-name latency histogram ([`hist`]).
//!
//! A [`Recorder`] holds one scope's counter table, finished spans and
//! histograms. The process recorder totals everything recorded while
//! the process switches are on ([`set_metrics_enabled`],
//! [`set_trace_enabled`]); a batch session, a network connection or a
//! test installs a recorder of its own on its threads, and only its own
//! work lands there (see [`recorder`]). While nothing records, every
//! instrumentation site costs one relaxed atomic load and a branch.
//!
//! Hot loops are expected to accumulate counts in locals and flush once
//! per operation via [`metrics::add`]; see `clio-relational`'s
//! `ops/join.rs` for the idiom.
//!
//! ## Reports
//!
//! [`report_json`] renders the process counters, the named scopes'
//! counter tables, the latency histograms and the span tree as one JSON
//! document; the schema is documented in `docs/observability.md`.
//! [`trace::render_tree`] renders finished spans as an indented
//! human-readable tree whose per-span totals sum consistently with their
//! parents (`self = total − Σ children`).

#![warn(missing_docs)]

pub mod events;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod trace;
pub mod warn;

pub use events::chrome_trace_jsonl;
pub use hist::HistSnapshot;
pub use metrics::{add, incr, metrics_enabled, set_metrics_enabled, snapshot, sub, Counter};
pub use recorder::{current_recorder, process, with_current, with_recorder, Recorder};
pub use trace::{
    fmt_ns, render_profile, render_tree_filtered, set_slow_threshold_ns, set_trace_enabled,
    slow_threshold_ns, span, trace_enabled, Span,
};
pub use warn::{warn_counts, warn_limited, warn_summary};

/// Enable or disable both halves at once.
pub fn set_enabled(on: bool) {
    metrics::set_metrics_enabled(on);
    trace::set_trace_enabled(on);
}

/// One JSON document with the process counters, the counter table of
/// every named scope opened while the process counted (see
/// [`Recorder::scope`]), the process latency histograms and the scopes'
/// (when any durations were recorded — i.e. under tracing), and the
/// aggregated span tree (when any spans have been collected):
///
/// ```json
/// {"counters": {...}, "sessions": {"0": {...}},
///  "histograms": {...}, "session_histograms": {"0": {...}},
///  "spans": [...]}
/// ```
///
/// The timing keys are **omitted** when empty, so untraced runs keep
/// producing byte-identical counter documents (the golden-gate
/// invariant in `scripts/verify.sh`).
#[must_use]
pub fn report_json() -> String {
    let process = recorder::process();
    let scopes = recorder::scopes();
    let mut out = String::from("{\n  \"counters\": ");
    out.push_str(&process.snapshot().to_json_object(2));
    push_scopes(&mut out, "sessions", &scopes, |r| {
        Some(r.snapshot().to_json_object(4))
    });
    let hists = process.histograms();
    if !hists.is_empty() {
        out.push_str(",\n  \"histograms\": ");
        out.push_str(&hist::hists_to_json(&hists, 2));
    }
    push_scopes(&mut out, "session_histograms", &scopes, |r| {
        let hists = r.histograms();
        (!hists.is_empty()).then(|| hist::hists_to_json(&hists, 4))
    });
    let spans = process.spans();
    if !spans.is_empty() {
        out.push_str(",\n  \"spans\": ");
        out.push_str(&trace::spans_to_json(&spans, 2));
    }
    out.push_str("\n}\n");
    out
}

/// Append `,"key": {"<scope>": <body>, ...}` over the scopes `body`
/// renders; nothing when it renders none.
fn push_scopes(
    out: &mut String,
    key: &str,
    scopes: &[Recorder],
    body: impl Fn(&Recorder) -> Option<String>,
) {
    let entries: Vec<String> = scopes
        .iter()
        .filter_map(|r| {
            let name = json::quote(r.name().unwrap_or_default());
            body(r).map(|b| format!("\n    {name}: {b}"))
        })
        .collect();
    if !entries.is_empty() {
        out.push_str(&format!(",\n  \"{key}\": {{{}\n  }}", entries.join(",")));
    }
}
