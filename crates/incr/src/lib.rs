//! Incremental evaluation support: a memoizing cache for engine result
//! tables, keyed by structural fingerprints with dependency-tracked
//! invalidation.
//!
//! The paper's Section 5.3 (continuous evolution of illustrations) is
//! built on the observation that a refinement step — adding a
//! correspondence, a filter, a walk — changes only part of the mapping
//! state, so most of what the previous state established can be reused.
//! This crate supplies the machinery: [`EvalCache`] stores result
//! [`clio_relational::table::Table`]s and rows of tuple ids
//! ([`IdRows`]) under [`Fingerprint`] keys,
//! tracks which base relations (and which of their columns)
//! each entry depends on, and drops exactly the dependent entries when a
//! relation's row-set or column version is bumped.
//!
//! The crate is deliberately generic: it knows nothing about query
//! graphs or mappings. `clio-core` computes the fingerprints (see
//! `clio_core::incremental` and `docs/incremental.md` for the scheme)
//! and decides what to cache; this crate provides deterministic hashing
//! ([`FingerprintBuilder`]), storage under a byte budget with
//! cost-aware eviction (see [`EvictionPolicy`]), pluggable
//! persistence ([`CacheStore`], with [`DiskStore`] surviving process
//! restarts — see `docs/incremental.md`, *Persistence*), and
//! observability (the `cache.*` counters in [`clio_obs`]).

pub mod cache;
pub mod disk;
pub mod fingerprint;
pub mod store;

pub use cache::{
    table_bytes, CacheStats, Dep, EvalCache, EvictionPolicy, IdRows, LookupTier, Payload,
    RelationVersions, DEFAULT_CAPACITY_BYTES,
};
pub use disk::DiskStore;
pub use fingerprint::{Fingerprint, FingerprintBuilder};
pub use store::{database_digest, CacheStore, MemStore, StoreStats, StoredEntry};
