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
/// and its observability scope recorder, so nested parallel operations
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
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let inherited_override = OVERRIDE.with(Cell::get);
    let recorder = clio_obs::current_recorder();
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    OVERRIDE.with(|c| c.set(inherited_override));
                    clio_obs::with_recorder(recorder.clone(), || {
                        let _span = clio_obs::span(span_name);
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break local;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                    })
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
        // The caller's recorder crosses into workers too.
        let rec = clio_obs::Recorder::new();
        let inherited = rec.run(|| {
            map_slice_with(3, &items, "test.worker", |_, _| {
                clio_obs::current_recorder().is_some_and(|r| std::sync::Arc::ptr_eq(&r, &rec))
            })
        });
        assert!(inherited.iter().all(|&same| same));
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
