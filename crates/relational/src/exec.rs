//! Std-only parallel execution layer for the engine's hot paths.
//!
//! A scoped [`std::thread`] worker pool with **deterministic result
//! ordering**: [`map_slice`] evaluates a function over a slice on up to
//! [`threads`] workers (work-stealing through one shared atomic index)
//! and returns results in input order, so a parallel run is
//! byte-identical to the serial one. No external dependencies, no
//! long-lived threads — each call opens a [`std::thread::scope`], which
//! keeps borrows of the inputs safe and leaves nothing running between
//! calls.
//!
//! The worker count is resolved, in priority order, from:
//!
//! 1. a thread-local override installed by [`with_threads`] (tests and
//!    benches use this so concurrent tests never race on a global);
//! 2. the process-wide setting from [`set_threads`] (the CLI's
//!    `--threads` flag);
//! 3. the `CLIO_THREADS` environment variable (read once);
//! 4. [`std::thread::available_parallelism`].
//!
//! Each worker thread opens one observability span (the caller names it,
//! e.g. `fd.lattice.worker`), so a `--trace` run shows the fan-out as one
//! span tree per worker thread with the per-item engine spans nested
//! underneath (see `docs/observability.md`).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide worker count; 0 means "not configured".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override; 0 means "no override".
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("CLIO_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(0)
    })
}

/// Set the process-wide worker count (the CLI's `--threads` flag).
/// A value of 0 clears the setting back to auto-detection.
pub fn set_threads(n: usize) {
    CONFIGURED.store(n, Ordering::Relaxed);
}

/// The worker count parallel operations will use right now, resolved as
/// documented at the module level. Always at least 1.
#[must_use]
pub fn threads() -> usize {
    let tl = OVERRIDE.with(Cell::get);
    if tl >= 1 {
        return tl;
    }
    let global = CONFIGURED.load(Ordering::Relaxed);
    if global >= 1 {
        return global;
    }
    let env = env_threads();
    if env >= 1 {
        return env;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run `f` with the worker count overridden to `n` **on this thread
/// only**; the previous override is restored afterwards. Parallel and
/// serial runs of the same computation can therefore be compared from
/// concurrent tests without racing on global state.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// Evaluate `f(index, &item)` for every item, in parallel when the
/// resolved worker count allows it, returning the results **in input
/// order**. `span_name` names the per-worker observability span (one per
/// worker thread, wrapping every item that worker processed); the
/// serial path opens the same span once on the calling thread so trace
/// shapes stay comparable across thread counts.
///
/// Items are handed out through a shared atomic cursor, so an expensive
/// item never stalls the whole pool the way fixed chunking would. A
/// panic in `f` is propagated to the caller.
pub fn map_slice<T, R, F>(items: &[T], span_name: &'static str, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_slice_with(threads(), items, span_name, f)
}

/// Like [`map_slice`], but with an explicit worker count instead of the
/// resolved [`threads`] setting (clamped to at least 1 and at most the
/// item count). `SessionPool` uses this so the *session* fan-out width
/// is governed by `--sessions` while the engine parallelism *inside*
/// each session stays governed by `--threads`.
///
/// Worker threads inherit the calling thread's [`with_threads`] override
/// and its observability session label, so nested parallel operations
/// and counters behave the same whether an item runs on the caller or on
/// a pool worker.
pub fn map_slice_with<T, R, F>(workers: usize, items: &[T], span_name: &'static str, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        let _span = clio_obs::span(span_name);
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let inherited_override = OVERRIDE.with(Cell::get);
    let inherited_session = clio_obs::metrics::current_session();
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    OVERRIDE.with(|c| c.set(inherited_override));
                    clio_obs::metrics::set_session(inherited_session);
                    let _span = clio_obs::span(span_name);
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => indexed.extend(local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Like [`map_slice`], but items are *handed out* in the caller-given
/// `order` (a permutation of `0..items.len()`) while results still come
/// back **in input order** — so scheduling is a pure latency decision
/// that cannot change what the caller observes. The incremental
/// evaluator uses this to start the longest-estimated subgraphs first,
/// so a straggler no longer serializes the tail of the fan-out.
///
/// The serial path evaluates in `order` too (then re-sorts), keeping
/// the evaluation sequence identical across thread counts. Panics if
/// `order` is not index-for-index the same length as `items`; an
/// out-of-range or duplicated index panics via slice indexing.
pub fn map_slice_prioritized<T, R, F>(
    items: &[T],
    order: &[usize],
    span_name: &'static str,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert_eq!(
        order.len(),
        items.len(),
        "dispatch order must cover every item exactly once"
    );
    let workers = threads().max(1).min(items.len());
    if workers <= 1 {
        let _span = clio_obs::span(span_name);
        let mut indexed: Vec<(usize, R)> = order.iter().map(|&i| (i, f(i, &items[i]))).collect();
        indexed.sort_unstable_by_key(|&(i, _)| i);
        return indexed.into_iter().map(|(_, r)| r).collect();
    }

    let inherited_override = OVERRIDE.with(Cell::get);
    let inherited_session = clio_obs::metrics::current_session();
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    OVERRIDE.with(|c| c.set(inherited_override));
                    clio_obs::metrics::set_session(inherited_session);
                    let _span = clio_obs::span(span_name);
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let pos = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = order.get(pos) else { break };
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => indexed.extend(local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = with_threads(4, || map_slice(&items, "test.worker", |i, &x| i * 1000 + x));
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 1000 + i);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..57).map(|i| i * 7 % 13).collect();
        let f = |i: usize, x: &u64| (i as u64) ^ (x * 31);
        let serial = with_threads(1, || map_slice(&items, "test.worker", f));
        let parallel = with_threads(8, || map_slice(&items, "test.worker", f));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = vec![];
        assert!(map_slice(&none, "test.worker", |_, &x| x).is_empty());
        assert_eq!(
            with_threads(4, || map_slice(&[9u32], "test.worker", |_, &x| x)),
            vec![9]
        );
    }

    #[test]
    fn with_threads_restores_previous_override() {
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(5, || assert_eq!(threads(), 5));
            assert_eq!(threads(), 3);
        });
    }

    #[test]
    fn threads_is_at_least_one() {
        assert!(threads() >= 1);
    }

    #[test]
    fn errors_keep_first_by_input_index() {
        // callers collect Vec<Result<..>> in order; the first Err they
        // see must be the lowest-index failure regardless of scheduling
        let items: Vec<usize> = (0..64).collect();
        let out: Vec<Result<usize, usize>> = with_threads(4, || {
            map_slice(&items, "test.worker", |i, &x| {
                if x % 10 == 3 {
                    Err(i)
                } else {
                    Ok(x)
                }
            })
        });
        let first_err = out.iter().find_map(|r| r.as_ref().err());
        assert_eq!(first_err, Some(&3));
    }

    #[test]
    fn map_slice_with_uses_explicit_width_and_inherits_context() {
        // Width is explicit: even with a thread override of 1, an
        // explicit width of 4 spawns real workers, and those workers see
        // the caller's override (1) for their own nested operations.
        let items: Vec<usize> = (0..32).collect();
        let out = with_threads(1, || {
            map_slice_with(4, &items, "test.worker", |i, &x| {
                assert_eq!(threads(), 1, "worker inherits caller override");
                i + x
            })
        });
        assert_eq!(out, (0..32).map(|i| 2 * i).collect::<Vec<_>>());
        // Session labels cross into workers too.
        let labels = clio_obs::metrics::with_session(Some(5), || {
            map_slice_with(3, &items, "test.worker", |_, _| {
                clio_obs::metrics::current_session()
            })
        });
        assert!(labels.iter().all(|&l| l == Some(5)));
    }

    #[test]
    fn prioritized_dispatch_preserves_input_order_of_results() {
        let items: Vec<usize> = (0..50).collect();
        // reverse dispatch order: item 49 starts first
        let order: Vec<usize> = (0..50).rev().collect();
        for width in [1, 4] {
            let out = with_threads(width, || {
                map_slice_prioritized(&items, &order, "test.worker", |i, &x| i * 100 + x)
            });
            assert_eq!(out, (0..50).map(|i| i * 101).collect::<Vec<_>>());
        }
    }

    #[test]
    fn prioritized_serial_evaluates_in_dispatch_order() {
        use std::sync::Mutex;
        let items: Vec<usize> = (0..8).collect();
        let order = vec![3, 1, 7, 0, 2, 6, 4, 5];
        let seen = Mutex::new(Vec::new());
        with_threads(1, || {
            map_slice_prioritized(&items, &order, "test.worker", |i, _| {
                seen.lock().unwrap().push(i);
            })
        });
        assert_eq!(*seen.lock().unwrap(), order);
    }

    #[test]
    fn prioritized_rejects_partial_orders() {
        let items: Vec<usize> = (0..4).collect();
        let result = std::panic::catch_unwind(|| {
            map_slice_prioritized(&items, &[0, 1], "test.worker", |_, &x| x)
        });
        assert!(result.is_err());
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                map_slice(&items, "test.worker", |_, &x| {
                    assert!(x != 7, "boom");
                    x
                })
            })
        });
        assert!(result.is_err());
    }
}
