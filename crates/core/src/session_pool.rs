//! Concurrent session service: many independent [`Session`]s over one
//! `Arc`-shared immutable source snapshot.
//!
//! The paper's Sec 6 machinery assumes a single user exploring mapping
//! alternatives; a [`SessionPool`] serves *N* such users at once. The
//! pool derives the expensive shared state — the source [`Database`],
//! the [`ValueIndex`], and the foreign-key-seeded [`SchemaKnowledge`] —
//! exactly once, then spawns sessions in O(1) by handing each one `Arc`
//! clones ([`Session::from_parts`]). Per-session state (function
//! registry, workspaces, [`clio_incr::EvalCache`]) stays private, and a
//! session that edits its database copies first
//! ([`Session::replace_relation`] is copy-on-write), so sessions can
//! never observe each other's edits.
//!
//! [`SessionPool::run`] fans jobs out on the `exec` worker pool with an
//! **explicit** width (the CLI's `--sessions`), independent of the
//! engine thread setting (`--threads`): each worker thread inherits the
//! caller's engine-thread override, installs the job's observability
//! session label, and wraps the job in a `session.<i>` span. Results
//! come back in input order and a panicking job propagates to the
//! caller — the same deterministic-merge and first-error-by-index
//! discipline as `exec::map_slice` (see `docs/concurrency.md`).

use std::sync::Arc;

use clio_relational::database::Database;
use clio_relational::exec;
use clio_relational::index::ValueIndex;
use clio_relational::schema::RelSchema;

use crate::knowledge::SchemaKnowledge;
use crate::session::Session;

/// Static span names for the first pooled sessions; higher indices share
/// a single overflow name (span names must be `&'static str`).
const SESSION_SPAN_NAMES: [&str; 16] = [
    "session.0",
    "session.1",
    "session.2",
    "session.3",
    "session.4",
    "session.5",
    "session.6",
    "session.7",
    "session.8",
    "session.9",
    "session.10",
    "session.11",
    "session.12",
    "session.13",
    "session.14",
    "session.15",
];

fn session_span_name(index: usize) -> &'static str {
    SESSION_SPAN_NAMES
        .get(index)
        .copied()
        .unwrap_or("session.overflow")
}

/// A factory and scheduler for concurrent [`Session`]s sharing one
/// immutable source snapshot. See the module docs for the sharing and
/// determinism model.
#[derive(Debug, Clone)]
pub struct SessionPool {
    db: Arc<Database>,
    index: Arc<ValueIndex>,
    knowledge: SchemaKnowledge,
    target: RelSchema,
    width: usize,
    cache_enabled: bool,
    store: Option<Arc<dyn clio_incr::CacheStore>>,
}

impl SessionPool {
    /// Build a pool over a source database and target schema, deriving
    /// the shared snapshot state (value index, seed knowledge) once.
    /// The default width is 1 (serial); see [`SessionPool::with_width`].
    #[must_use]
    pub fn new(db: Database, target: RelSchema) -> SessionPool {
        SessionPool::from_shared(Arc::new(db), target)
    }

    /// Build a pool over an already-shared snapshot without copying it.
    #[must_use]
    pub fn from_shared(db: Arc<Database>, target: RelSchema) -> SessionPool {
        let knowledge = SchemaKnowledge::from_database(&db);
        let index = Arc::new(ValueIndex::build(&db));
        SessionPool {
            db,
            index,
            knowledge,
            target,
            width: 1,
            cache_enabled: true,
            store: None,
        }
    }

    /// Set how many sessions [`SessionPool::run`] executes concurrently
    /// (clamped to at least 1).
    #[must_use]
    pub fn with_width(mut self, width: usize) -> SessionPool {
        self.width = width.max(1);
        self
    }

    /// The configured concurrent-session width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether sessions spawned from this pool start with their
    /// incremental cache enabled (on by default).
    pub fn set_cache_enabled(&mut self, on: bool) {
        self.cache_enabled = on;
    }

    /// Attach one shared persistent cache backend: every session the
    /// pool spawns spills to — and is warmed from — the same store, so
    /// a table computed by any session in a batch (or by an earlier
    /// process over the same source) is a disk hit for all the others.
    #[must_use]
    pub fn with_store(mut self, store: Arc<dyn clio_incr::CacheStore>) -> SessionPool {
        self.store = Some(store);
        self
    }

    /// The shared persistent store, if one is attached.
    #[must_use]
    pub fn store(&self) -> Option<Arc<dyn clio_incr::CacheStore>> {
        self.store.clone()
    }

    /// The shared source snapshot.
    #[must_use]
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Spawn one session sharing the pool's snapshot. O(1) in the size
    /// of the database: only `Arc` clones plus the (small) schema
    /// knowledge copy.
    #[must_use]
    pub fn session(&self) -> Session {
        let mut s = Session::from_parts(
            Arc::clone(&self.db),
            Arc::clone(&self.index),
            self.knowledge.clone(),
            self.target.clone(),
        );
        s.set_cache_enabled(self.cache_enabled);
        if let Some(store) = &self.store {
            s.attach_store(Arc::clone(store));
        }
        s
    }

    /// Run `jobs` independent sessions, up to [`SessionPool::width`] at
    /// a time, returning each job's result **in input order**.
    ///
    /// Each job `i` receives a fresh session from [`SessionPool::session`]
    /// and runs with observability session label `i` installed and a
    /// `session.<i>` span open, so counters and spans aggregate per
    /// session. Engine parallelism *inside* a job is divided fairly:
    /// each job sees an engine thread budget of `threads() / width`
    /// (at least 1). A panicking job propagates to the caller.
    pub fn run<R, F>(&self, jobs: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Session) -> R + Sync,
    {
        let indices: Vec<usize> = (0..jobs).collect();
        let workers = self.width.min(jobs.max(1));
        let inner_threads = (exec::threads() / workers).max(1);
        exec::map_slice_with(workers, &indices, "session.pool.worker", |_, &i| {
            clio_obs::metrics::with_session(Some(i as u64), || {
                clio_obs::metrics::touch_session(i as u64);
                exec::with_threads(inner_threads, || {
                    let _span = clio_obs::span(session_span_name(i));
                    f(i, self.session())
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_relational::constraints::ForeignKey;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::schema::Attribute;
    use clio_relational::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("name", DataType::Str)
                .attr("mid", DataType::Str)
                .row(vec!["001".into(), "Anna".into(), "201".into()])
                .row(vec!["002".into(), "Maya".into(), "202".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("Parents")
                .attr_not_null("ID", DataType::Str)
                .attr("affiliation", DataType::Str)
                .row(vec!["201".into(), "IBM".into()])
                .row(vec!["202".into(), "UofT".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.constraints
            .foreign_keys
            .push(ForeignKey::simple("Children", "mid", "Parents", "ID"));
        db
    }

    fn target() -> RelSchema {
        RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("affiliation", DataType::Str),
            ],
        )
        .unwrap()
    }

    fn preview_rows(mut s: Session) -> usize {
        s.add_correspondence("Children.ID", "ID").unwrap();
        let ids = s
            .add_correspondence("Parents.affiliation", "affiliation")
            .unwrap();
        s.confirm(ids[0]).unwrap();
        s.target_preview().unwrap().len()
    }

    #[test]
    fn sessions_share_the_snapshot() {
        let pool = SessionPool::new(db(), target());
        let a = pool.session();
        let b = pool.session();
        assert!(Arc::ptr_eq(&a.shared_database(), pool.database()));
        assert!(Arc::ptr_eq(&b.shared_database(), pool.database()));
    }

    #[test]
    fn run_returns_results_in_input_order_at_any_width() {
        for width in [1, 4] {
            let pool = SessionPool::new(db(), target()).with_width(width);
            let out = pool.run(6, |i, s| (i, preview_rows(s)));
            assert_eq!(
                out,
                (0..6).map(|i| (i, 2)).collect::<Vec<_>>(),
                "width {width}"
            );
        }
    }

    #[test]
    fn concurrent_edits_stay_isolated() {
        let pool = SessionPool::new(db(), target()).with_width(4);
        let rows = pool.run(4, |i, mut s| {
            if i % 2 == 0 {
                // even sessions add a child; odd sessions must not see it
                let mut rel = s.database().relation("Children").unwrap().clone();
                rel.insert(vec![
                    Value::str(format!("00{i}x")),
                    "Zoe".into(),
                    "201".into(),
                ])
                .unwrap();
                s.replace_relation(rel).unwrap();
            }
            s.database().relation("Children").unwrap().len()
        });
        assert_eq!(rows, vec![3, 2, 3, 2]);
        assert_eq!(pool.database().relation("Children").unwrap().len(), 2);
    }

    #[test]
    fn pool_cache_setting_propagates() {
        let mut pool = SessionPool::new(db(), target());
        assert!(pool.session().cache().enabled());
        pool.set_cache_enabled(false);
        assert!(!pool.session().cache().enabled());
    }

    #[test]
    fn shared_store_warms_sessions_across_the_pool() {
        use clio_incr::CacheStore as _;
        let store = Arc::new(clio_incr::MemStore::new());
        let pool = SessionPool::new(db(), target()).with_store(store.clone());
        assert!(pool.store().is_some());
        // first session computes and spills
        assert_eq!(preview_rows(pool.session()), 2);
        let spilled = store.stats().spills;
        assert!(spilled > 0, "pooled session should spill");
        // a later session is warmed from the shared store: identical
        // output, at least one lookup answered by the store
        assert_eq!(preview_rows(pool.session()), 2);
        assert!(store.stats().hits > 0, "second session should be warmed");
    }

    #[test]
    fn store_warming_keeps_batch_results_identical() {
        let store = Arc::new(clio_incr::MemStore::new());
        let cold = SessionPool::new(db(), target()).with_width(4);
        let warm = SessionPool::new(db(), target())
            .with_width(4)
            .with_store(store);
        assert_eq!(
            cold.run(4, |_, s| preview_rows(s)),
            warm.run(4, |_, s| preview_rows(s))
        );
    }

    #[test]
    fn pooled_jobs_mirror_histograms_per_session() {
        let _guard = crate::obs_testutil::lock();
        clio_obs::set_trace_enabled(true);
        clio_obs::clear_histograms();
        let pool = SessionPool::new(db(), target()).with_width(2);
        let _ = pool.run(2, |_, s| preview_rows(s));
        clio_obs::set_trace_enabled(false);
        let _ = clio_obs::take_spans();
        clio_obs::clear_events();
        let sessions = clio_obs::hist::session_histograms();
        clio_obs::clear_histograms();
        let labels: Vec<u64> = sessions.iter().map(|(l, _)| *l).collect();
        assert!(
            labels.contains(&0) && labels.contains(&1),
            "both jobs must mirror histograms: {labels:?}"
        );
        for (label, entries) in &sessions {
            if *label > 1 {
                continue; // spans leaked from concurrently-running tests
            }
            assert!(
                entries.iter().any(|(n, _)| n.starts_with("session.")),
                "session {label} missing its own span histogram: {entries:?}"
            );
        }
    }

    #[test]
    fn job_panics_propagate() {
        let pool = SessionPool::new(db(), target()).with_width(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(4, |i, _s| {
                assert!(i != 2, "job died");
                i
            })
        }));
        assert!(result.is_err());
    }
}
