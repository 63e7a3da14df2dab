//! Recorders: one scope's counters, finished spans and latency
//! histograms.
//!
//! Every recording site ([`crate::add`], [`crate::span`],
//! [`crate::hist::record`]) lands in up to two recorders:
//!
//! * the **process** recorder ([`process`]), while the matching process
//!   switch ([`crate::set_metrics_enabled`], [`crate::set_trace_enabled`])
//!   is on — so process totals cover every scope, open or closed;
//! * the **scope** recorder installed on the recording thread with
//!   [`with_recorder`] or [`Recorder::run`], if any. `exec` pool workers
//!   install their caller's scope, so work fanned out from a session
//!   still lands in that session.
//!
//! A scope records while the process switches are on, unless it is
//! **always-on**: a recorder made with [`Recorder::new`] records
//! everything done in its scope whatever the switches say, and a named
//! scope ([`Recorder::scope`]) opened under an always-on one is
//! always-on too. Tests install one and read only it, so they never
//! toggle or clear state that another test reads.
//!
//! One relaxed `AtomicUsize` gates it all: bit 0 is the process metrics
//! switch, bit 1 the process trace switch, and the bits above count
//! installed always-on scopes. While no switch is on and no always-on
//! scope is installed, a recording site costs one load and a branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};

use crate::hist::{Hist, HistSnapshot};
use crate::metrics::{Counter, MetricsSnapshot, COUNTER_COUNT};
use crate::trace::SpanRecord;

/// Gate bit of the process metrics switch.
pub(crate) const METRICS: usize = 1;
/// Gate bit of the process trace switch.
pub(crate) const TRACE: usize = 2;
/// Gate increment per installed always-on scope.
const ALWAYS: usize = 4;

static GATE: AtomicUsize = AtomicUsize::new(0);
static PROCESS: LazyLock<Recorder> = LazyLock::new(|| Recorder::with_tally(None, false));
/// The tallies of the named scopes opened while the process counts, one
/// per name, in first-opening order: the `"sessions"` of
/// [`crate::report_json`]. Only tallies are kept, so a closed scope's
/// spans are freed with it.
static SCOPES: Mutex<Vec<(Arc<str>, Arc<Tally>)>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One scope's counter table, finished spans and per-name latency
/// histograms.
pub struct Recorder {
    name: Option<Arc<str>>,
    always: bool,
    tally: Arc<Tally>,
    spans: Mutex<Vec<SpanRecord>>,
}

/// The part of a recorder a report reads: counters and histograms.
struct Tally {
    counters: [AtomicU64; COUNTER_COUNT],
    hists: Mutex<BTreeMap<&'static str, Hist>>,
}

impl Recorder {
    fn with_tally(name: Option<Arc<str>>, always: bool) -> Recorder {
        let tally = Arc::new(Tally {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: Mutex::default(),
        });
        Recorder {
            name,
            always,
            tally,
            spans: Mutex::default(),
        }
    }

    /// An always-on, unnamed recorder: it records everything done in
    /// its scope whatever the process switches say, and no report lists
    /// it.
    #[must_use]
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder::with_tally(None, true))
    }

    /// A named scope of the process — a session or a connection. It
    /// records while the process switches are on (always, when opened
    /// under an always-on scope), and when opened while the process
    /// counts, [`crate::report_json`] lists its counters and histograms
    /// under `name`. Scopes opened under one name while the process
    /// counts share one counter table and one set of histograms (so a
    /// `stats reset` in one zeroes them all); each keeps its own spans.
    #[must_use]
    pub fn scope(name: &str) -> Arc<Recorder> {
        let mut recorder = Recorder::with_tally(Some(name.into()), in_always_on_scope());
        if switch(METRICS) {
            let mut scopes = lock(&SCOPES);
            match scopes.iter().find(|(n, _)| **n == *name) {
                Some((_, tally)) => recorder.tally = Arc::clone(tally),
                None => scopes.push((name.into(), Arc::clone(&recorder.tally))),
            }
        }
        Arc::new(recorder)
    }

    /// The scope's name ([`Recorder::scope`]), if it has one.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Run `f` with this recorder installed on the current thread.
    pub fn run<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        with_recorder(Some(Arc::clone(self)), f)
    }

    /// Read the counter table.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut values = [0u64; COUNTER_COUNT];
        for (slot, c) in values.iter_mut().zip(&self.tally.counters) {
            *slot = c.load(Ordering::Relaxed);
        }
        MetricsSnapshot { values }
    }

    /// Zero the counter table (spans and histograms stay).
    pub fn reset_counters(&self) {
        for c in &self.tally.counters {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Copy of every finished span, in finishing order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock(&self.spans).clone()
    }

    /// Snapshot of every latency histogram, sorted by name.
    #[must_use]
    pub fn histograms(&self) -> Vec<(&'static str, HistSnapshot)> {
        lock(&self.tally.hists)
            .iter()
            .map(|(&n, h)| (n, h.snapshot()))
            .collect()
    }

    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.tally.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn sub(&self, counter: Counter, n: u64) {
        let _ = self.tally.counters[counter as usize].fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| Some(v.saturating_sub(n)),
        );
    }

    pub(crate) fn observe(&self, name: &'static str, ns: u64) {
        lock(&self.tally.hists).entry(name).or_default().observe(ns);
    }

    pub(crate) fn finish_span(&self, record: SpanRecord) {
        self.observe(record.name, u64::try_from(record.nanos).unwrap_or(u64::MAX));
        lock(&self.spans).push(record);
    }
}

/// The process recorder: totals of everything recorded while the
/// process switches were on.
#[must_use]
pub fn process() -> &'static Recorder {
    &PROCESS
}

/// The scope recorder installed on this thread, if any.
#[must_use]
pub fn current_recorder() -> Option<Arc<Recorder>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Call `f` with the current scope's recorder — the process recorder
/// when no scope is installed. The shell's `stats`, `trace` and
/// `profile spans` read through this.
pub fn with_current<R>(f: impl FnOnce(&Recorder) -> R) -> R {
    let scope = current_recorder();
    f(scope.as_deref().unwrap_or(&PROCESS))
}

/// Run `f` with `recorder` installed as this thread's scope (`None`:
/// no scope), restoring the previous scope afterwards, also on panic.
pub fn with_recorder<R>(recorder: Option<Arc<Recorder>>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Recorder>>, usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            GATE.fetch_sub(self.1, Ordering::Relaxed);
        }
    }
    let always = if recorder.as_ref().is_some_and(|r| r.always) {
        ALWAYS
    } else {
        0
    };
    GATE.fetch_add(always, Ordering::Relaxed);
    let _restore = Restore(CURRENT.with(|c| c.replace(recorder)), always);
    f()
}

/// The named scopes listed in the report, in first-opening order, as
/// span-less recorders over their shared tallies.
pub(crate) fn scopes() -> Vec<Recorder> {
    lock(&SCOPES)
        .iter()
        .map(|(name, tally)| Recorder {
            name: Some(Arc::clone(name)),
            always: false,
            tally: Arc::clone(tally),
            spans: Mutex::default(),
        })
        .collect()
}

/// Turn the process switch `bit` on or off.
pub(crate) fn set_switch(bit: usize, on: bool) {
    if on {
        GATE.fetch_or(bit, Ordering::Relaxed);
    } else {
        GATE.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Whether the process switch `bit` is on.
pub(crate) fn switch(bit: usize) -> bool {
    GATE.load(Ordering::Relaxed) & bit != 0
}

/// Whether anything could record under `bit`: its process switch is on
/// or an always-on scope is installed somewhere. The disabled fast path.
#[inline]
pub(crate) fn open(bit: usize) -> bool {
    GATE.load(Ordering::Relaxed) & (bit | !(METRICS | TRACE)) != 0
}

/// Whether work on this thread records under `bit`.
#[inline]
pub(crate) fn recording(bit: usize) -> bool {
    open(bit) && (switch(bit) || in_always_on_scope())
}

/// Whether this thread's scope is always-on.
fn in_always_on_scope() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|r| r.always))
}

/// Hand `f` every recorder that work on this thread records into under
/// `bit`: the process recorder while its switch is on, and the current
/// scope while it records.
pub(crate) fn each(bit: usize, f: impl Fn(&Recorder)) {
    let process = switch(bit);
    if process {
        f(&PROCESS);
    }
    CURRENT.with(|c| {
        if let Some(scope) = c.borrow().as_ref() {
            if process || scope.always {
                f(scope);
            }
        }
    });
}

/// The name of this thread's scope, for span records.
pub(crate) fn current_name() -> Option<Arc<str>> {
    CURRENT.with(|c| c.borrow().as_ref().and_then(|r| r.name.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        assert!(current_recorder().is_none());
        outer.run(|| {
            crate::add(Counter::JoinProbes, 5);
            inner.run(|| crate::add(Counter::TuplesScanned, 1));
            let now = current_recorder().expect("outer restored");
            assert!(Arc::ptr_eq(&now, &outer));
        });
        assert!(current_recorder().is_none());
        let (o, i) = (outer.snapshot(), inner.snapshot());
        assert_eq!(o.get(Counter::JoinProbes), 5);
        assert_eq!(o.get(Counter::TuplesScanned), 0, "inner work stays inner");
        assert_eq!(i.get(Counter::TuplesScanned), 1);
        assert_eq!(i.get(Counter::JoinProbes), 0);
    }

    #[test]
    fn a_panic_restores_the_previous_scope() {
        let rec = Recorder::new();
        let result = std::panic::catch_unwind(|| rec.run(|| panic!("boom")));
        assert!(result.is_err());
        assert!(current_recorder().is_none());
    }

    #[test]
    fn named_scopes_inherit_always_on_and_follow_switches_otherwise() {
        // Outside an always-on scope a named scope follows the process
        // switches, which no test in this crate turns on.
        let following = Recorder::scope("t.follow");
        assert_eq!(following.name(), Some("t.follow"));
        following.run(|| {
            assert!(!crate::metrics_enabled());
            assert!(!crate::trace_enabled());
            crate::add(Counter::JoinProbes, 3);
            let _s = crate::span("t.span");
        });
        assert_eq!(following.snapshot().get(Counter::JoinProbes), 0);
        assert!(following.spans().is_empty());
        // Opened under an always-on scope it records on its own.
        let inherited = Recorder::new().run(|| Recorder::scope("t.always"));
        inherited.run(|| crate::add(Counter::JoinProbes, 3));
        assert_eq!(inherited.snapshot().get(Counter::JoinProbes), 3);
    }

    #[test]
    fn spawned_threads_record_into_the_scope_they_install() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    rec.run(|| {
                        crate::add(Counter::DedupRows, 2);
                        let _s = crate::span("worker");
                    })
                });
            }
            // a thread without the scope records nothing into it
            s.spawn(|| crate::add(Counter::DedupRows, 100));
        });
        assert_eq!(rec.snapshot().get(Counter::DedupRows), 6);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|r| r.name == "worker"));
    }

    #[test]
    fn reset_zeroes_one_scope_only() {
        let (a, b) = (Recorder::new(), Recorder::new());
        a.run(|| crate::add(Counter::JoinProbes, 4));
        b.run(|| crate::add(Counter::JoinProbes, 7));
        a.reset_counters();
        assert_eq!(a.snapshot().get(Counter::JoinProbes), 0);
        assert_eq!(b.snapshot().get(Counter::JoinProbes), 7);
    }
}
