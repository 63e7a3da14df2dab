//! Pluggable cache backends: the [`CacheStore`] trait.
//!
//! [`EvalCache`](crate::EvalCache) keeps its hot tier in memory; a
//! `CacheStore` is an optional second tier behind it. Inserting an
//! eligible entry *spills* a copy to the store, and a lookup that misses
//! in memory consults the store before falling back to recomputation —
//! a *disk hit* warms the memory tier again. The cache stays correct
//! with any backend (or none): stores only ever hold byte-exact copies
//! of entries keyed by their full structural fingerprint, so a wrong
//! or missing answer from a store can only cause recomputation, never a
//! wrong result.
//!
//! Two implementations ship:
//!
//! * [`MemStore`] — a process-local map, the reference implementation
//!   (used by tests and as a model of the contract);
//! * [`DiskStore`](crate::disk::DiskStore) — fingerprint-keyed files
//!   under a cache directory, surviving process restarts (the CLI's
//!   `--cache-dir`).
//!
//! ## Cross-process validity
//!
//! Fingerprints mix in per-relation *content versions* and the cache
//! *epoch*, both of which restart at zero in every process. Two
//! processes therefore agree on a fingerprint only while both are in
//! their pristine state (no relation edits, no function-registry
//! changes) **and** looking at the same source data. The first half is
//! enforced by [`EvalCache`](crate::EvalCache): it spills only entries
//! whose epoch and the versions their keys mixed are all zero. The
//! second half is the store *namespace*: persistent stores key entries
//! under a digest of the full source database ([`database_digest`]), so
//! pointing one cache directory at a different source degrades to a
//! cold run instead of serving tables computed from other data.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use clio_obs::metrics::{self, Counter};
use clio_relational::database::Database;

use crate::cache::Payload;
use crate::fingerprint::{Fingerprint, FingerprintBuilder};

/// One cache entry as a backend sees it: the result, the base relations
/// it was computed from, and its measured recompute cost.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredEntry {
    /// Sorted, deduplicated base-relation dependencies.
    pub deps: Vec<String>,
    /// The memoized result: a table, or rows of tuple ids.
    pub payload: Payload,
    /// Measured recompute time in nanoseconds (0 when unknown), carried
    /// so a warm restart re-seeds the cost-aware eviction priorities.
    pub cost_ns: u64,
}

/// Point-in-time statistics of one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries written to the backend.
    pub spills: u64,
    /// Lookups answered by the backend.
    pub hits: u64,
    /// Bytes written to the backend (encoded size).
    pub bytes: u64,
    /// Loads (or writes) that failed and were tolerated by falling back
    /// to recomputation — corrupt files, version mismatches, I/O errors.
    pub load_errors: u64,
}

/// Shared bookkeeping for store implementations: local [`StoreStats`]
/// mirrored into the `clio_obs` `cache.spills` / `cache.disk_hits` /
/// `cache.disk_bytes` / `cache.load_errors` counters.
#[derive(Debug, Default)]
pub struct StoreCounters {
    spills: AtomicU64,
    hits: AtomicU64,
    bytes: AtomicU64,
    load_errors: AtomicU64,
}

impl StoreCounters {
    /// Count one spill of `bytes` encoded bytes.
    pub fn record_spill(&self, bytes: u64) {
        self.spills.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        metrics::incr(Counter::CacheSpills);
        metrics::add(Counter::CacheDiskBytes, bytes);
    }

    /// Count one lookup answered by the backend.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        metrics::incr(Counter::CacheDiskHits);
    }

    /// Count one tolerated load/write failure.
    pub fn record_load_error(&self) {
        self.load_errors.fetch_add(1, Ordering::Relaxed);
        metrics::incr(Counter::CacheLoadErrors);
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            spills: self.spills.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            load_errors: self.load_errors.load(Ordering::Relaxed),
        }
    }
}

/// A persistent (or at least out-of-cache) backend for memoized entries.
///
/// Implementations must be safe to share between threads — a
/// `SessionPool` hands one store to every concurrent session. All
/// methods are infallible by signature: a backend that cannot serve a
/// request returns `None`/`false` (counting a load error where
/// appropriate) and the cache recomputes. A store must only return an
/// entry that was previously stored under exactly the same fingerprint.
pub trait CacheStore: Send + Sync + std::fmt::Debug {
    /// Fetch the entry stored under `fp`, if any.
    fn load(&self, fp: Fingerprint) -> Option<StoredEntry> {
        self.load_checked(fp, &mut |_| true)
    }

    /// Fetch the entry stored under `fp` if `usable` accepts it. An
    /// entry the caller cannot use — rows of tuple ids with an id past
    /// its relation's end, say — counts as a load error, never as a
    /// hit, and is removed, so a recomputed entry can take its place.
    fn load_checked(
        &self,
        fp: Fingerprint,
        usable: &mut dyn FnMut(&StoredEntry) -> bool,
    ) -> Option<StoredEntry>;

    /// Write `entry` under `fp`. Returns whether a new entry was
    /// written (idempotent: spilling an already-present fingerprint is
    /// a cheap no-op returning `false`).
    fn spill(&self, fp: Fingerprint, entry: &StoredEntry) -> bool;

    /// Every entry the backend currently holds, in a deterministic
    /// order (used by `cache load` to pre-warm the memory tier).
    fn load_all(&self) -> Vec<(Fingerprint, StoredEntry)>;

    /// Backend statistics.
    fn stats(&self) -> StoreStats;

    /// A short human-readable description for the `cache` shell command
    /// (e.g. `disk:/tmp/clio-cache`).
    fn describe(&self) -> String;
}

/// The reference in-memory [`CacheStore`]: a fingerprint-keyed map.
/// Survives nothing (it dies with the process) but exercises the whole
/// spill/load protocol, so tests can pin the cache↔store contract
/// without touching the filesystem.
#[derive(Debug, Default)]
pub struct MemStore {
    entries: Mutex<HashMap<Fingerprint, StoredEntry>>,
    counters: StoreCounters,
}

impl MemStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> MemStore {
        MemStore::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<Fingerprint, StoredEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of entries held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Is the store empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

impl CacheStore for MemStore {
    fn load_checked(
        &self,
        fp: Fingerprint,
        usable: &mut dyn FnMut(&StoredEntry) -> bool,
    ) -> Option<StoredEntry> {
        let entry = self.lock().get(&fp).cloned()?;
        if usable(&entry) {
            self.counters.record_hit();
            Some(entry)
        } else {
            self.lock().remove(&fp);
            self.counters.record_load_error();
            None
        }
    }

    fn spill(&self, fp: Fingerprint, entry: &StoredEntry) -> bool {
        let mut entries = self.lock();
        if entries.contains_key(&fp) {
            return false;
        }
        let bytes = entry.payload.bytes() as u64;
        entries.insert(fp, entry.clone());
        drop(entries);
        self.counters.record_spill(bytes);
        true
    }

    fn load_all(&self) -> Vec<(Fingerprint, StoredEntry)> {
        let mut all: Vec<(Fingerprint, StoredEntry)> =
            self.lock().iter().map(|(&fp, e)| (fp, e.clone())).collect();
        all.sort_by_key(|(fp, _)| *fp);
        all
    }

    fn stats(&self) -> StoreStats {
        self.counters.stats()
    }

    fn describe(&self) -> String {
        format!("mem ({} entries)", self.len())
    }
}

fn hash_value(fp: &mut FingerprintBuilder, v: &clio_relational::value::Value) {
    use clio_relational::value::Value;
    match v {
        Value::Null => {
            fp.number(0);
        }
        Value::Int(i) => {
            fp.number(1).number(*i as u64);
        }
        Value::Float(f) => {
            fp.number(2).number(f.to_bits());
        }
        Value::Str(s) => {
            fp.number(3).text(s);
        }
        Value::Bool(b) => {
            fp.number(4).number(u64::from(*b));
        }
    }
}

/// Digest of a full source database: every relation's name, schema, and
/// rows (in stored order), plus the declared foreign keys. Persistent
/// stores use this as their *namespace* so cache directories are safe
/// to share between runs over different sources — entries written for
/// one source are invisible to sessions over another.
#[must_use]
pub fn database_digest(db: &Database) -> u64 {
    let mut fp = FingerprintBuilder::new("source-db");
    fp.number(db.relation_count() as u64);
    for rel in db.relations() {
        fp.text(rel.name());
        fp.text(&rel.schema().to_string());
        fp.number(rel.len() as u64);
        for row in rel.rows() {
            for v in row {
                hash_value(&mut fp, v);
            }
        }
    }
    for fk in &db.constraints.foreign_keys {
        fp.text(&fk.to_string());
    }
    fp.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::schema::{Column, Scheme};
    use clio_relational::table::Table;
    use clio_relational::value::{DataType, Value};

    fn table(rows: usize, tag: &str) -> Table {
        let scheme = Scheme::new(vec![Column::new("T", "a", DataType::Str)]);
        let rows = (0..rows)
            .map(|i| vec![Value::str(format!("{tag}{i}"))])
            .collect();
        Table::new(scheme, rows)
    }

    fn entry(rows: usize, tag: &str) -> StoredEntry {
        StoredEntry {
            deps: vec!["R".into()],
            payload: Payload::Table(table(rows, tag)),
            cost_ns: 12_345,
        }
    }

    #[test]
    fn mem_store_round_trips_and_counts() {
        let store = MemStore::new();
        assert!(store.load(Fingerprint(1)).is_none());
        assert!(store.spill(Fingerprint(1), &entry(3, "r")));
        assert!(!store.spill(Fingerprint(1), &entry(3, "r")), "idempotent");
        let got = store.load(Fingerprint(1)).expect("hit");
        assert_eq!(got, entry(3, "r"));
        let s = store.stats();
        assert_eq!((s.spills, s.hits, s.load_errors), (1, 1, 0));
        assert_eq!(s.bytes, crate::cache::table_bytes(&table(3, "r")) as u64);
        assert_eq!(store.len(), 1);
        assert!(store.describe().contains("mem"));
    }

    #[test]
    fn an_unusable_entry_is_a_load_error_and_is_removed() {
        let store = MemStore::new();
        store.spill(Fingerprint(1), &entry(2, "r"));
        assert!(store.load_checked(Fingerprint(1), &mut |_| false).is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.load_errors), (0, 1));
        assert!(
            store.is_empty(),
            "a fresh entry can be spilled in its place"
        );
        assert!(store.spill(Fingerprint(1), &entry(2, "r")));
    }

    #[test]
    fn load_all_is_sorted_by_fingerprint() {
        let store = MemStore::new();
        store.spill(Fingerprint(9), &entry(1, "c"));
        store.spill(Fingerprint(2), &entry(1, "a"));
        store.spill(Fingerprint(5), &entry(1, "b"));
        let fps: Vec<u64> = store.load_all().iter().map(|(fp, _)| fp.0).collect();
        assert_eq!(fps, vec![2, 5, 9]);
    }

    #[test]
    fn database_digest_tracks_content_schema_and_constraints() {
        let base = || {
            let mut db = Database::new();
            db.add_relation(
                RelationBuilder::new("R")
                    .attr_not_null("id", DataType::Str)
                    .row(vec!["1".into()])
                    .build()
                    .unwrap(),
            )
            .unwrap();
            db
        };
        let a = database_digest(&base());
        assert_eq!(a, database_digest(&base()), "deterministic");
        // a content edit changes the digest
        let mut edited = base();
        let rel = RelationBuilder::new("R")
            .attr_not_null("id", DataType::Str)
            .row(vec!["2".into()])
            .build()
            .unwrap();
        edited.replace_relation(rel).unwrap();
        assert_ne!(a, database_digest(&edited));
        // an extra relation changes the digest
        let mut grown = base();
        grown
            .add_relation(
                RelationBuilder::new("S")
                    .attr("x", DataType::Int)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_ne!(a, database_digest(&grown));
        // a constraint changes the digest
        let mut constrained = base();
        constrained.constraints.foreign_keys.push(
            clio_relational::constraints::ForeignKey::simple("R", "id", "R", "id"),
        );
        assert_ne!(a, database_digest(&constrained));
    }
}
