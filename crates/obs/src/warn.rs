//! Rate-limited stderr warnings.
//!
//! Degraded-mode events (a corrupt cache file, a slow span) warn once
//! per occurrence — but a directory of ten thousand corrupt files must
//! not emit ten thousand lines. [`warn_limited`] prints the first
//! [`WARN_LIMIT`] messages of each category verbatim (prefixed
//! `clio: `), announces suppression once, then counts silently;
//! [`warn_summary`] renders the suppressed totals for end-of-process
//! reporting.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Messages printed per category before suppression kicks in.
pub const WARN_LIMIT: u64 = 5;

#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    printed: u64,
    suppressed: u64,
}

static CATEGORIES: Mutex<BTreeMap<&'static str, Tally>> = Mutex::new(BTreeMap::new());

fn lock() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Tally>> {
    CATEGORIES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Print `clio: {message}` to stderr — but only for the first
/// [`WARN_LIMIT`] calls per `category`. The call after the limit prints
/// a one-line suppression notice; every later call just counts (see
/// [`warn_summary`]).
pub fn warn_limited(category: &'static str, message: &str) {
    let mut tallies = lock();
    let tally = tallies.entry(category).or_default();
    if tally.printed < WARN_LIMIT {
        tally.printed += 1;
        drop(tallies);
        eprintln!("clio: {message}");
    } else {
        tally.suppressed += 1;
        let announce = tally.suppressed == 1;
        drop(tallies);
        if announce {
            eprintln!(
                "clio: further `{category}` warnings suppressed after {WARN_LIMIT} (totals on exit)"
            );
        }
    }
}

/// `(printed, suppressed)` tallies for one category.
#[must_use]
pub fn warn_counts(category: &str) -> (u64, u64) {
    lock()
        .get(category)
        .map(|t| (t.printed, t.suppressed))
        .unwrap_or((0, 0))
}

/// One line per category with suppressed warnings (e.g.
/// `clio: 12 \`cache.load\` warnings suppressed (5 shown)`), or `None`
/// when nothing was suppressed.
#[must_use]
pub fn warn_summary() -> Option<String> {
    let tallies = lock();
    let mut out = String::new();
    for (category, t) in tallies.iter() {
        if t.suppressed > 0 {
            out.push_str(&format!(
                "clio: {} `{category}` warning{} suppressed ({} shown)\n",
                t.suppressed,
                if t.suppressed == 1 { "" } else { "s" },
                t.printed,
            ));
        }
    }
    (!out.is_empty()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tally table is global and other test binaries' categories may
    // interleave; use a category unique to this test and assert on its
    // tallies only.
    #[test]
    fn limit_then_suppress_then_summarize() {
        const CAT: &str = "warn.test.limit";
        let (p0, s0) = warn_counts(CAT);
        assert_eq!((p0, s0), (0, 0));
        for i in 0..(WARN_LIMIT + 7) {
            warn_limited(CAT, &format!("event {i}"));
        }
        let (printed, suppressed) = warn_counts(CAT);
        assert_eq!(printed, WARN_LIMIT);
        assert_eq!(suppressed, 7);
        let summary = warn_summary().expect("suppressed warnings must summarize");
        assert!(
            summary.contains("7 `warn.test.limit` warnings suppressed (5 shown)"),
            "{summary}"
        );
    }

    #[test]
    fn summary_is_none_without_suppression() {
        const CAT: &str = "warn.test.quiet";
        warn_limited(CAT, "once");
        let (printed, suppressed) = warn_counts(CAT);
        assert_eq!((printed, suppressed), (1, 0));
        if let Some(summary) = warn_summary() {
            // other categories may have suppressed; ours must not appear
            assert!(!summary.contains("warn.test.quiet"), "{summary}");
        }
    }
}
