//! Process-level recording: the process switches, the process totals
//! over concurrent scopes, the report, the Chrome trace export and
//! slow-span warnings. These read and toggle process-wide state, so this file
//! holds a single test and runs in a process of its own.

use std::sync::Arc;

use clio_obs::{Counter, Recorder};

/// The same work in every scope: counts, a gauge, and spans on the
/// calling thread plus a helper thread that inherits the scope.
fn work() {
    let _root = clio_obs::span("work");
    clio_obs::add(Counter::JoinProbes, 7);
    clio_obs::incr(Counter::TuplesScanned);
    clio_obs::add(Counter::NetActive, 2);
    clio_obs::sub(Counter::NetActive, 1);
    let scope = clio_obs::current_recorder();
    std::thread::scope(|s| {
        s.spawn(|| {
            clio_obs::with_recorder(scope, || {
                let _s = clio_obs::span("work.helper");
                clio_obs::add(Counter::DedupRows, 3);
            })
        });
    });
}

#[test]
fn process_totals_sum_the_scopes_and_the_report_lists_them() {
    // Switches off: nothing reaches the process or a named scope.
    let quiet = Recorder::scope("quiet");
    quiet.run(work);
    assert_eq!(quiet.snapshot(), clio_obs::snapshot());
    assert_eq!(clio_obs::snapshot().get(Counter::JoinProbes), 0);
    assert!(clio_obs::process().spans().is_empty());

    // What one scope records, serially.
    let serial = Recorder::new();
    serial.run(work);
    let serial = serial.snapshot();
    assert_eq!(serial.get(Counter::JoinProbes), 7);
    assert_eq!(serial.get(Counter::DedupRows), 3);
    assert_eq!(clio_obs::snapshot().get(Counter::JoinProbes), 0);

    clio_obs::set_metrics_enabled(true);
    clio_obs::set_trace_enabled(true);
    const N: usize = 4;
    let scopes: Vec<Arc<Recorder>> = (0..N).map(|i| Recorder::scope(&format!("s.{i}"))).collect();
    std::thread::scope(|s| {
        for scope in &scopes {
            s.spawn(|| scope.run(work));
        }
    });
    let total = clio_obs::snapshot();
    for scope in &scopes {
        assert_eq!(scope.snapshot(), serial, "{:?}", scope.name());
        assert_eq!(scope.spans().len(), 2);
    }
    for c in Counter::ALL {
        let sum: u64 = scopes.iter().map(|r| r.snapshot().get(c)).sum();
        assert_eq!(total.get(c), sum, "{}", c.name());
    }
    assert_eq!(clio_obs::process().spans().len(), 2 * N);

    // Resetting one scope leaves the others and the process totals.
    scopes[0].reset_counters();
    assert_eq!(scopes[0].snapshot().get(Counter::JoinProbes), 0);
    assert_eq!(scopes[1].snapshot().get(Counter::JoinProbes), 7);
    assert_eq!(clio_obs::snapshot(), total);

    // An open scope follows the live switch.
    scopes[1].run(|| {
        clio_obs::set_metrics_enabled(false);
        clio_obs::add(Counter::JoinProbes, 100);
        clio_obs::sub(Counter::NetActive, 1);
        clio_obs::set_metrics_enabled(true);
        clio_obs::add(Counter::JoinProbes, 1);
    });
    assert_eq!(scopes[1].snapshot().get(Counter::JoinProbes), 8);
    assert_eq!(
        scopes[1].snapshot().get(Counter::NetActive),
        1,
        "disabled subs are dropped"
    );
    assert_eq!(clio_obs::snapshot().get(Counter::NetActive), N as u64);

    // The report lists the scopes opened while counting, in order; the
    // quiet scope was opened with counting off.
    let report = clio_obs::report_json();
    let at = |key: &str| {
        report
            .find(key)
            .unwrap_or_else(|| panic!("{key}: {report}"))
    };
    assert!(at("\"counters\"") < at("\"sessions\""));
    assert!(at("\"sessions\"") < at("\"histograms\""));
    assert!(at("\"histograms\"") < at("\"session_histograms\""));
    assert!(at("\"session_histograms\"") < at("\"spans\""));
    let keys: Vec<usize> = (0..N).map(|i| at(&format!("\"s.{i}\": {{"))).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{report}");
    assert!(!report.contains("\"quiet\""), "{report}");

    // A second scope under a listed name shares its tally: one report
    // key, the counts merged; its spans stay its own.
    let again = Recorder::scope("s.2");
    again.run(|| clio_obs::add(Counter::JoinProbes, 5));
    assert_eq!(scopes[2].snapshot().get(Counter::JoinProbes), 12);
    assert!(again.spans().is_empty());
    assert_eq!(clio_obs::report_json().matches("\"s.2\": {").count(), 2);

    // Exported spans carry their scope's name.
    let spans = clio_obs::process().spans();
    assert!(spans.iter().all(|s| s.scope.is_some()));
    let jsonl = clio_obs::chrome_trace_jsonl(&spans);
    assert_eq!(jsonl.lines().count(), 2 * N);
    assert!(
        jsonl.contains("\"args\": {\"session\": \"s.0\"}"),
        "{jsonl}"
    );

    // A slow span warns.
    let warned = |(printed, suppressed): (u64, u64)| printed + suppressed;
    let before = warned(clio_obs::warn_counts("slow"));
    clio_obs::set_slow_threshold_ns(1);
    {
        let _slow = clio_obs::span("slow.outer");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    clio_obs::set_slow_threshold_ns(0);
    assert!(warned(clio_obs::warn_counts("slow")) > before);
}
