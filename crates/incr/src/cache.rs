//! The memoizing evaluation cache.
//!
//! [`EvalCache`] maps [`Fingerprint`]s to results: value [`Table`]s, or
//! rows of tuple ids ([`IdRows`]) that name base tuples by position.
//! Three mechanisms keep entries honest (see `docs/incremental.md`):
//!
//! * **Content versions** — every base relation has a monotonically
//!   increasing version, mixed into fingerprints by the caller. Editing
//!   a relation calls [`EvalCache::bump_version`], which both retires
//!   the old fingerprints (they can never be asked for again) and
//!   eagerly drops entries that declared the relation as a dependency.
//! * **The epoch** — a cache-wide version covering ambient evaluation
//!   state that is not per-relation (the function registry). Bumping it
//!   clears everything.
//! * **A byte budget with cost-aware eviction** — entries are charged
//!   an estimated byte size; inserting past the capacity evicts the
//!   entries with the lowest GreedyDual-style priority, which keeps
//!   expensive-to-recompute tables resident, and admission control turns
//!   away a newcomer worth less than the residents it would displace
//!   (see `docs/incremental.md`, *Eviction*).
//!
//! Lookups and insertions count into the `cache.*` counters of
//! [`clio_obs`] (when metrics are enabled) and into per-cache
//! [`CacheStats`] (always, for the `cache` shell command).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use clio_obs::metrics::{self, Counter};
use clio_relational::table::Table;
use clio_relational::value::Value;

use crate::fingerprint::Fingerprint;
use crate::store::{CacheStore, StoredEntry};

/// Default cache capacity: 64 MiB of estimated table bytes.
pub const DEFAULT_CAPACITY_BYTES: usize = 64 << 20;

/// The eviction policy, reported by [`EvalCache::policy`]. There is
/// one: GreedyDual-style cost-aware eviction. Each entry carries a
/// priority `H = clock + freq · cost_ns · SCALE / bytes`, recomputed on
/// every hit (which also bumps `freq`). The victim is the minimum `H`
/// (ties broken least-recently-used), and the clock inflates to the
/// victim's priority so long-resident entries age out instead of
/// squatting forever. Entries with no recorded cost degenerate to exact
/// least-recently-used order.
///
/// The type exists only so that provenance lines that print
/// `cache().policy().name()` (perfbench's) keep compiling; nothing
/// chooses between policies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// GreedyDual-style cost-aware eviction.
    #[default]
    CostAware,
}

impl EvictionPolicy {
    /// The policy's name, `cost`.
    #[must_use]
    pub fn name(self) -> &'static str {
        "cost"
    }
}

/// Fixed-point scale for the cost/size ratio in the GreedyDual
/// priority, so small ratios (cheap-but-large tables) still order
/// against each other instead of all truncating to zero.
const PRIORITY_SCALE: u64 = 1 << 10;

/// The GreedyDual priority `clock + freq · cost_ns · SCALE / bytes`
/// (saturating). Zero-cost entries collapse to `clock`, which makes
/// eviction degrade to exact least-recently-used order via the recency
/// tie-break.
fn gd_priority(clock: u64, cost_ns: u64, bytes: usize, freq: u64) -> u64 {
    let value = cost_ns.saturating_mul(freq).saturating_mul(PRIORITY_SCALE) / (bytes.max(1) as u64);
    clock.saturating_add(value)
}

/// Estimate the resident size of a table: one `Value` slot per cell plus
/// string payloads. Good enough for budgeting; never used for
/// correctness.
///
/// Each string cell is charged its payload, once per entry and per cell.
/// Cells share their strings (`Value::Str` holds an `Arc<str>`), so a
/// payload held by several cells, entries or base relations is resident
/// once and the number is an upper bound. It is kept that way on purpose:
/// charging by pointer would make a budget's meaning depend on which
/// other tables happen to share a string.
#[must_use]
pub fn table_bytes(table: &Table) -> usize {
    let cell = std::mem::size_of::<Value>();
    let mut bytes = 0;
    for row in table.rows() {
        bytes += row.len() * cell;
        for v in row {
            if let Value::Str(s) = v {
                bytes += s.len();
            }
        }
    }
    bytes
}

/// Rows of tuple ids: `width` ids per row, row after row. A result held
/// this way names the base tuples it combines by their positions in
/// their relations instead of copying their values. The cache does not
/// interpret the ids, and cannot check them: a reader must check each id
/// against its relation before use ([`EvalCache::get_ids`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdRows {
    /// Ids per row; at least 1 when there are ids.
    pub width: usize,
    /// The ids, `width` per row.
    pub ids: Vec<u32>,
}

impl IdRows {
    /// The number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len().checked_div(self.width).unwrap_or(0)
    }

    /// Are there no rows?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The bytes an entry of these rows is charged: four per id.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<u32>()
    }
}

/// What one cache entry holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A value table.
    Table(Table),
    /// Rows of tuple ids.
    Ids(IdRows),
}

impl Payload {
    /// The bytes the entry is charged: [`table_bytes`] for a table,
    /// [`IdRows::bytes`] for id rows.
    #[must_use]
    pub fn bytes(&self) -> usize {
        match self {
            Payload::Table(table) => table_bytes(table),
            Payload::Ids(rows) => rows.bytes(),
        }
    }
}

/// Point-in-time statistics of one [`EvalCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a computation.
    pub misses: u64,
    /// Entries dropped because a dependency changed.
    pub invalidations: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// Recompute nanoseconds avoided by hits (sum of the answering
    /// entries' recorded costs, memory and disk tiers alike).
    pub saved_ns: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated bytes currently resident.
    pub bytes: usize,
}

/// Which tier answered an [`EvalCache::get_ids`] lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupTier {
    /// The cache was disabled; nothing was counted.
    Disabled,
    /// Served from the in-memory table (counted as `cache.hits`).
    Memory,
    /// Served from the attached store (counted as `cache.disk_hits`
    /// inside the store), warming the memory tier on the way.
    Disk,
    /// A full miss (counted as `cache.misses`).
    Miss,
}

#[derive(Debug, Clone)]
struct Entry {
    payload: Payload,
    deps: Vec<String>,
    bytes: usize,
    last_used: u64,
    /// Measured recompute time, reported by the caller at insert or
    /// read from the store's entry (0 when the caller does not know it).
    cost_ns: u64,
    /// Reference count: starts at 1 on first admission (or resumes
    /// from ghost history on a re-insert) and bumps on every hit.
    freq: u64,
    /// GreedyDual priority, recomputed on every hit.
    priority: u64,
}

/// History record for an entry that lost residency (evicted) or lost
/// admission (rejected): the frequency it had accumulated, and the tick
/// the record was written (for pruning the oldest once the history map
/// is full).
#[derive(Debug, Clone)]
struct Ghost {
    freq: u64,
    tick: u64,
}

/// Bound on the ghost-history map. Fingerprints embed dependency
/// versions, so ghosts of invalidated lineages are dead weight; the cap
/// keeps them from accumulating without a scan.
const MAX_GHOSTS: usize = 1024;

#[derive(Debug, Clone, Default)]
struct Inner {
    entries: HashMap<Fingerprint, Entry>,
    versions: HashMap<String, u64>,
    epoch: u64,
    bytes: usize,
    tick: u64,
    /// GreedyDual aging clock: inflates to each victim's priority so
    /// entries admitted later start "older" than long-dead residents.
    clock: u64,
    /// Ghost history: fingerprints that were evicted or rejected, with
    /// the frequency they had earned. A re-insert of the same
    /// fingerprint resumes at that frequency instead of restarting at
    /// one — recurring entries climb across edit rounds while one-shot
    /// fingerprints (whose deps changed) never benefit.
    ghosts: HashMap<Fingerprint, Ghost>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
    saved_ns: u64,
    /// Optional second tier behind the memory tier. Shared (`Arc`) so a
    /// cloned session keeps spilling to — and loading from — the same
    /// backend.
    store: Option<Arc<dyn CacheStore>>,
}

/// A memoizing cache of evaluation results with dependency-tracked
/// invalidation. Interior-mutable: lookups, insertions, and version
/// bumps all take `&self`, so `&Session` methods like `target_preview`
/// can populate it.
pub struct EvalCache {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    inner: Mutex<Inner>,
}

impl EvalCache {
    /// Lock the inner state, recovering from mutex poisoning. Every
    /// critical section leaves `Inner` consistent at each assignment
    /// (bytes are adjusted in the same statement group as the entry map),
    /// so a panic while the lock is held — e.g. a worker session dying
    /// mid-operation — must not wedge every other session sharing the
    /// process: we take the guard back with
    /// `unwrap_or_else(PoisonError::into_inner)`.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An enabled cache with the default byte budget.
    #[must_use]
    pub fn new() -> EvalCache {
        EvalCache::with_capacity(DEFAULT_CAPACITY_BYTES)
    }

    /// An enabled cache with an explicit byte budget.
    #[must_use]
    pub fn with_capacity(capacity_bytes: usize) -> EvalCache {
        EvalCache {
            enabled: AtomicBool::new(true),
            capacity: AtomicUsize::new(capacity_bytes),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The eviction policy (there is one; see [`EvictionPolicy`]).
    #[must_use]
    pub fn policy(&self) -> EvictionPolicy {
        EvictionPolicy::CostAware
    }

    /// Whether lookups and insertions are active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn the cache on or off. Disabling keeps resident entries and
    /// keeps processing version bumps, so re-enabling is always safe.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The byte budget.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Change the byte budget at runtime (`cache limit <bytes>`),
    /// evicting the lowest-priority entries until resident bytes fit.
    pub fn set_capacity(&self, capacity_bytes: usize) {
        self.capacity.store(capacity_bytes, Ordering::Relaxed);
        let mut inner = self.lock();
        Self::evict_to(&mut inner, capacity_bytes);
    }

    /// Attach (or detach, with `None`) a second-tier backend. Lookups
    /// that miss in memory consult the store; eligible insertions spill
    /// copies to it.
    pub fn set_store(&self, store: Option<Arc<dyn CacheStore>>) {
        self.lock().store = store;
    }

    /// The attached second-tier backend, if any.
    #[must_use]
    pub fn store(&self) -> Option<Arc<dyn CacheStore>> {
        self.lock().store.clone()
    }

    /// Evict until resident bytes fit `capacity`. A zero budget means
    /// *nothing* stays resident — even zero-byte tables, which would
    /// otherwise "fit" — so `set_capacity(0)` is a guaranteed flush.
    /// Victim selection is deterministic: `last_used` ticks are unique,
    /// so the `(priority, last_used)` key never ties and `HashMap`
    /// iteration order cannot leak into which entry dies.
    fn evict_to(inner: &mut Inner, capacity: usize) {
        while inner.bytes > capacity || (capacity == 0 && !inner.entries.is_empty()) {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| (e.priority, e.last_used))
                .map(|(&fp, _)| fp);
            let Some(victim) = victim else { break };
            if let Some(e) = inner.entries.remove(&victim) {
                inner.bytes -= e.bytes;
                inner.evictions += 1;
                metrics::incr(Counter::CacheEvictions);
                Self::remember_ghost(inner, victim, e.freq);
                // Age the cache: everything admitted from now on starts
                // at least as "warm" as the entry that just lost, which
                // is what lets stale expensive entries eventually drain.
                inner.clock = inner.clock.max(e.priority);
            }
        }
    }

    /// Record history for a fingerprint that just lost residency or
    /// admission, so a later re-insert of the *same* fingerprint can
    /// resume its accumulated frequency. Pruning the oldest record once
    /// the map is full is deterministic: ties on `tick` (several losses
    /// inside one operation) break on the fingerprint value.
    fn remember_ghost(inner: &mut Inner, fp: Fingerprint, freq: u64) {
        let tick = inner.tick;
        inner.ghosts.insert(fp, Ghost { freq, tick });
        if inner.ghosts.len() > MAX_GHOSTS {
            let oldest = inner
                .ghosts
                .iter()
                .min_by_key(|(fp, g)| (g.tick, fp.0))
                .map(|(&fp, _)| fp);
            if let Some(oldest) = oldest {
                inner.ghosts.remove(&oldest);
            }
        }
    }

    /// GreedyDual admission control: may an entry of `bytes` at
    /// `cost_ns` (resuming at `freq` if its fingerprint has ghost
    /// history) displace the victims it needs? Walks the hypothetical
    /// eviction order without removing anything; the answer is no as
    /// soon as a required victim strictly outranks the candidate —
    /// evicting a proven earner for an unproven newcomer is the churn
    /// that recency-only eviction suffers under pressure.
    /// A rejection is the candidate being its own (immediate) victim,
    /// so the clock still inflates to the candidate's priority: a
    /// workload whose inserts keep losing raises the bar each time and
    /// eventually outbids residents that stopped earning hits, so
    /// nothing can squat forever.
    fn admission_beats_victims(
        inner: &mut Inner,
        capacity: usize,
        bytes: usize,
        cost_ns: u64,
        freq: u64,
    ) -> bool {
        let need = (inner.bytes + bytes).saturating_sub(capacity);
        if need == 0 {
            return true;
        }
        let candidate = gd_priority(inner.clock, cost_ns, bytes, freq);
        let mut ranked: Vec<(u64, u64, usize)> = inner
            .entries
            .values()
            .map(|e| (e.priority, e.last_used, e.bytes))
            .collect();
        ranked.sort_unstable();
        let mut freed = 0usize;
        for (priority, _, victim_bytes) in ranked {
            if freed >= need {
                break;
            }
            if priority > candidate {
                inner.clock = inner.clock.max(candidate);
                return false;
            }
            freed += victim_bytes;
        }
        true
    }

    /// Is an entry with these dependencies in the pristine state that
    /// makes its fingerprint reproducible by a fresh process — epoch
    /// zero and every declared dependency still at content version
    /// zero? Only such entries are worth spilling: post-edit
    /// fingerprints can never be requested across a restart.
    fn spill_eligible(inner: &Inner, deps: &[String]) -> bool {
        inner.epoch == 0
            && deps
                .iter()
                .all(|d| inner.versions.get(d).copied().unwrap_or(0) == 0)
    }

    /// Current content version of a base relation (0 until first bump).
    #[must_use]
    pub fn version(&self, relation: &str) -> u64 {
        self.lock().versions.get(relation).copied().unwrap_or(0)
    }

    /// The epoch and the content version of each of `relations`, read
    /// under one lock: what a pass of fingerprints mixes in, read once.
    #[must_use]
    pub fn epoch_and_versions<'r>(
        &self,
        relations: impl IntoIterator<Item = &'r str>,
    ) -> (u64, Vec<u64>) {
        let inner = self.lock();
        let versions = relations
            .into_iter()
            .map(|r| inner.versions.get(r).copied().unwrap_or(0))
            .collect();
        (inner.epoch, versions)
    }

    /// The cache-wide epoch covering non-relation evaluation state.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Record a content change to `relation`: bump its version and drop
    /// every entry that declared it as a dependency. Processed even
    /// while disabled, so stale entries cannot survive a disable/edit/
    /// enable sequence.
    pub fn bump_version(&self, relation: &str) {
        let mut inner = self.lock();
        *inner.versions.entry(relation.to_owned()).or_insert(0) += 1;
        let stale: Vec<Fingerprint> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.deps.iter().any(|d| d == relation))
            .map(|(&fp, _)| fp)
            .collect();
        let dropped = stale.len() as u64;
        for fp in stale {
            if let Some(e) = inner.entries.remove(&fp) {
                inner.bytes -= e.bytes;
            }
            // the fingerprint embeds the old version — it can never be
            // requested again, so its history is dead too
            inner.ghosts.remove(&fp);
        }
        inner.invalidations += dropped;
        metrics::add(Counter::CacheInvalidations, dropped);
    }

    /// Record a change to ambient evaluation state (e.g. the function
    /// registry): bump the epoch and drop everything.
    pub fn bump_epoch(&self) {
        let mut inner = self.lock();
        inner.epoch += 1;
        let dropped = inner.entries.len() as u64;
        inner.entries.clear();
        inner.ghosts.clear();
        inner.bytes = 0;
        inner.invalidations += dropped;
        metrics::add(Counter::CacheInvalidations, dropped);
    }

    /// Look up a table. A memory hit counts `cache.hits`; a lookup
    /// answered by the attached store counts `cache.disk_hits` (inside
    /// the store) and warms the memory tier; only a full miss counts
    /// `cache.misses` — so `hits + disk_hits + misses` equals lookups.
    /// Returns `None` without counting anything while disabled.
    #[must_use]
    pub fn get(&self, fp: Fingerprint) -> Option<Table> {
        self.lookup(fp, |payload| match payload {
            Payload::Table(table) => Some(table.clone()),
            Payload::Ids(_) => None,
        })
        .0
    }

    /// Look up rows of tuple ids, handing them to `decode`, which turns
    /// them into the caller's form or rejects them. Only the caller
    /// knows the relations the ids point into, so it must check each id
    /// there and reject an entry with one out of range. A rejected
    /// memory entry is dropped; a rejected store entry counts
    /// `cache.load_errors` (not `cache.disk_hits`) and is removed from
    /// the store. Either way the lookup goes on as a miss. Counts as
    /// [`get`](Self::get) does, and also reports which tier answered —
    /// the timing-telemetry hook that lets callers record distinct
    /// latency histograms for memory hits, store loads, and cold misses.
    pub fn get_ids<T>(
        &self,
        fp: Fingerprint,
        mut decode: impl FnMut(&IdRows) -> Option<T>,
    ) -> (Option<T>, LookupTier) {
        self.lookup(fp, |payload| match payload {
            Payload::Ids(rows) => decode(rows),
            Payload::Table(_) => None,
        })
    }

    /// The lookup behind [`get`](Self::get) and
    /// [`get_ids`](Self::get_ids): `decode` reads an entry's payload, or
    /// rejects it (`None`).
    fn lookup<T>(
        &self,
        fp: Fingerprint,
        mut decode: impl FnMut(&Payload) -> Option<T>,
    ) -> (Option<T>, LookupTier) {
        if !self.enabled() {
            return (None, LookupTier::Disabled);
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let clock = inner.clock;
        if let Some(e) = inner.entries.get_mut(&fp) {
            if let Some(value) = decode(&e.payload) {
                e.last_used = tick;
                e.freq = e.freq.saturating_add(1);
                e.priority = gd_priority(clock, e.cost_ns, e.bytes, e.freq);
                let saved = e.cost_ns;
                inner.hits += 1;
                inner.saved_ns = inner.saved_ns.saturating_add(saved);
                metrics::incr(Counter::CacheHits);
                metrics::add(Counter::CacheSavedNs, saved);
                return (Some(value), LookupTier::Memory);
            }
            if let Some(e) = inner.entries.remove(&fp) {
                inner.bytes -= e.bytes;
            }
        }
        // Memory miss: consult the second tier with the lock released
        // (store loads may do I/O and must not serialize other sessions).
        let store = inner.store.clone();
        drop(inner);
        if let Some(store) = store {
            let mut value = None;
            let loaded = store.load_checked(fp, &mut |entry| {
                value = decode(&entry.payload);
                value.is_some()
            });
            if let Some(entry) = loaded {
                let bytes = entry.payload.bytes();
                self.admit(fp, entry.deps, bytes, entry.cost_ns, || entry.payload);
                let mut inner = self.lock();
                inner.saved_ns = inner.saved_ns.saturating_add(entry.cost_ns);
                drop(inner);
                metrics::add(Counter::CacheSavedNs, entry.cost_ns);
                return (value, LookupTier::Disk);
            }
        }
        let mut inner = self.lock();
        inner.misses += 1;
        metrics::incr(Counter::CacheMisses);
        (None, LookupTier::Miss)
    }

    /// Non-promoting residency check: is `fp` in the memory tier
    /// (always `false` while disabled)? Copies nothing, touches no
    /// recency tick, frequency, priority, or counter, and never consults
    /// the attached store — so *inspecting* the cache (the warmth line
    /// of the `cache` shell command's stats, `explain`'s `[warm]` /
    /// `[cold]` branch marks) cannot change what gets evicted next.
    #[must_use]
    pub fn peek(&self, fp: Fingerprint) -> bool {
        self.enabled() && self.lock().entries.contains_key(&fp)
    }

    /// Store a result under `fp`, declaring the base relations it was
    /// computed from. Equivalent to [`EvalCache::insert_costed`] with an
    /// unknown (zero) recompute cost.
    pub fn insert(&self, fp: Fingerprint, deps: Vec<String>, table: &Table) {
        self.insert_costed(fp, deps, table, 0);
    }

    /// Store a result under `fp` together with its measured recompute
    /// time, which feeds the eviction priority and the saved-time
    /// statistics. No-op while disabled, when the entry
    /// already exists, when the table alone exceeds the whole budget, or
    /// when admission control turns it away. Evicts the lowest-priority
    /// entries to stay under the budget, and spills a copy (cost
    /// included) to the attached store when the entry is eligible (see
    /// [`EvalCache::spill_all`] for the eligibility rule).
    pub fn insert_costed(&self, fp: Fingerprint, deps: Vec<String>, table: &Table, cost_ns: u64) {
        self.insert_with(fp, deps, table_bytes(table), cost_ns, || {
            Payload::Table(table.clone())
        });
    }

    /// [`EvalCache::insert_costed`] for rows of tuple ids, charged four
    /// bytes per id.
    pub fn insert_ids(&self, fp: Fingerprint, deps: Vec<String>, rows: &IdRows, cost_ns: u64) {
        self.insert_with(fp, deps, rows.bytes(), cost_ns, || {
            Payload::Ids(rows.clone())
        });
    }

    /// Admit the payload `make` builds (charged `bytes`), then spill a
    /// second copy when the entry is eligible. `make` runs only for what
    /// is kept.
    fn insert_with(
        &self,
        fp: Fingerprint,
        deps: Vec<String>,
        bytes: usize,
        cost_ns: u64,
        make: impl Fn() -> Payload,
    ) {
        if !self.enabled() {
            return;
        }
        if let Some(store) = self.admit(fp, deps.clone(), bytes, cost_ns, &make) {
            store.spill(
                fp,
                &StoredEntry {
                    deps,
                    payload: make(),
                    cost_ns,
                },
            );
        }
    }

    /// Insert into the memory tier only; `make` builds the payload
    /// (charged `bytes`) once it is admitted. Returns the store to spill
    /// to when the entry was admitted fresh and is spill-eligible (the
    /// actual spill happens outside the lock).
    fn admit(
        &self,
        fp: Fingerprint,
        deps: Vec<String>,
        bytes: usize,
        cost_ns: u64,
        make: impl FnOnce() -> Payload,
    ) -> Option<Arc<dyn CacheStore>> {
        let capacity = self.capacity();
        if capacity == 0 || bytes > capacity {
            return None;
        }
        let mut inner = self.lock();
        if inner.entries.contains_key(&fp) {
            return None;
        }
        // A re-insert of a previously seen fingerprint resumes its
        // accumulated frequency; the insert itself is a reference, so
        // the count also advances on every (re)attempt. This is what
        // separates recurring entries (same fingerprint across edit
        // rounds) from one-shot aggregates whose fingerprints die with
        // every dependency bump and therefore always compete at one.
        let freq = inner.ghosts.get(&fp).map_or(1, |g| g.freq + 1);
        if !Self::admission_beats_victims(&mut inner, capacity, bytes, cost_ns, freq) {
            Self::remember_ghost(&mut inner, fp, freq);
            return None;
        }
        inner.ghosts.remove(&fp);
        Self::evict_to(&mut inner, capacity.saturating_sub(bytes));
        inner.tick += 1;
        let last_used = inner.tick;
        let priority = gd_priority(inner.clock, cost_ns, bytes, freq);
        let spill_to = if Self::spill_eligible(&inner, &deps) {
            inner.store.clone()
        } else {
            None
        };
        inner.entries.insert(
            fp,
            Entry {
                payload: make(),
                deps,
                bytes,
                last_used,
                cost_ns,
                freq,
                priority,
            },
        );
        inner.bytes += bytes;
        metrics::add(Counter::CacheBytes, bytes as u64);
        spill_to
    }

    /// Spill every spill-eligible resident entry to the attached store
    /// (`cache save`). An entry is eligible when the cache epoch is
    /// zero and all its declared dependencies are still at content
    /// version zero — exactly the entries whose fingerprints a fresh
    /// process over the same source will reproduce. Returns the number
    /// of entries newly written.
    pub fn spill_all(&self) -> usize {
        let Some(store) = self.store() else {
            return 0;
        };
        self.spill_to(store.as_ref())
    }

    /// Spill every spill-eligible resident entry to an explicit store
    /// (`cache save <dir>`), which need not be the attached one. Same
    /// eligibility rule as [`EvalCache::spill_all`]; returns the number
    /// of entries newly written.
    pub fn spill_to(&self, store: &dyn CacheStore) -> usize {
        let inner = self.lock();
        let eligible: Vec<(Fingerprint, StoredEntry)> = inner
            .entries
            .iter()
            .filter(|(_, e)| Self::spill_eligible(&inner, &e.deps))
            .map(|(&fp, e)| {
                (
                    fp,
                    StoredEntry {
                        deps: e.deps.clone(),
                        payload: e.payload.clone(),
                        cost_ns: e.cost_ns,
                    },
                )
            })
            .collect();
        drop(inner);
        eligible
            .into_iter()
            .filter(|(fp, entry)| store.spill(*fp, entry))
            .count()
    }

    /// Pre-warm the memory tier with every entry the attached store
    /// holds (`cache load`). Entries are admitted only while the cache
    /// is still in the pristine state their fingerprints were minted in
    /// (epoch zero, dependency versions zero); anything else is skipped
    /// — a post-edit session can never ask for those fingerprints.
    /// Returns the number of entries admitted.
    pub fn preload(&self) -> usize {
        let Some(store) = self.store() else {
            return 0;
        };
        self.preload_from(store.as_ref())
    }

    /// Pre-warm the memory tier from an explicit store (`cache load
    /// \<dir\>`), which need not be the attached one. Same admission rule
    /// as [`EvalCache::preload`]; returns the number of entries
    /// admitted.
    pub fn preload_from(&self, store: &dyn CacheStore) -> usize {
        if !self.enabled() {
            return 0;
        }
        let mut admitted = 0;
        for (fp, entry) in store.load_all() {
            let ok = {
                let inner = self.lock();
                !inner.entries.contains_key(&fp) && Self::spill_eligible(&inner, &entry.deps)
            };
            if ok {
                let bytes = entry.payload.bytes();
                self.admit(fp, entry.deps, bytes, entry.cost_ns, || entry.payload);
                admitted += 1;
            }
        }
        admitted
    }

    /// Current statistics (for the `cache` shell command and tests).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            invalidations: inner.invalidations,
            evictions: inner.evictions,
            saved_ns: inner.saved_ns,
            entries: inner.entries.len(),
            bytes: inner.bytes,
        }
    }

    /// Per-entry residency ledger — `(deps, bytes, cost_ns, freq,
    /// priority)` per resident entry, unordered. Diagnostic surface for
    /// benchmarks and tests that need to see *why* eviction kept or
    /// dropped an entry; not part of the stable API.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_entries(&self) -> Vec<(Vec<String>, usize, u64, u64, u64)> {
        self.lock()
            .entries
            .values()
            .map(|e| (e.deps.clone(), e.bytes, e.cost_ns, e.freq, e.priority))
            .collect()
    }

    /// Drop every resident entry (statistics and versions survive).
    /// Used by cold-path benchmarks.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.ghosts.clear();
        inner.bytes = 0;
    }
}

impl Default for EvalCache {
    fn default() -> EvalCache {
        EvalCache::new()
    }
}

// Session derives Clone; a cloned session gets an independent cache with
// the same resident entries, versions, and statistics. The attached
// store (if any) is shared: both caches keep spilling to the same
// backend.
impl Clone for EvalCache {
    fn clone(&self) -> EvalCache {
        EvalCache {
            enabled: AtomicBool::new(self.enabled()),
            capacity: AtomicUsize::new(self.capacity()),
            inner: Mutex::new(self.lock().clone()),
        }
    }
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EvalCache")
            .field("enabled", &self.enabled())
            .field("capacity", &self.capacity())
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_relational::schema::{Column, Scheme};
    use clio_relational::value::{DataType, Value};

    fn table(rows: usize, tag: &str) -> Table {
        let scheme = Scheme::new(vec![Column::new("T", "a", DataType::Str)]);
        let rows = (0..rows)
            .map(|i| vec![Value::str(format!("{tag}{i}"))])
            .collect();
        Table::new(scheme, rows)
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn table_bytes_charges_every_cell_and_every_string_payload() {
        // Two rows share one `Arc<str>` in column `a`; each cell is still
        // charged its payload.
        let shared = Value::str("shared");
        let scheme = Scheme::new(vec![
            Column::new("T", "a", DataType::Str),
            Column::new("T", "b", DataType::Int),
        ]);
        let t = Table::new(
            scheme,
            vec![
                vec![shared.clone(), Value::Int(1)],
                vec![shared, Value::Null],
                vec![Value::str("xy"), Value::Int(3)],
            ],
        );
        let cells = 6;
        let strings = "shared".len() * 2 + "xy".len();
        assert_eq!(
            table_bytes(&t),
            cells * std::mem::size_of::<Value>() + strings
        );
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let cache = EvalCache::new();
        assert!(cache.get(fp(1)).is_none());
        cache.insert(fp(1), vec!["R".into()], &table(3, "r"));
        let got = cache.get(fp(1)).expect("hit");
        assert_eq!(got.len(), 3);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.bytes, table_bytes(&table(3, "r")));
    }

    #[test]
    fn get_ids_reports_the_answering_tier() {
        let rows = |n: u32| IdRows {
            width: 1,
            ids: (0..n).collect(),
        };
        let count = |r: &IdRows| Some(r.len());
        let cache = EvalCache::new();
        cache.set_enabled(false);
        assert_eq!(cache.get_ids(fp(1), count), (None, LookupTier::Disabled));
        cache.set_enabled(true);
        assert_eq!(cache.get_ids(fp(1), count), (None, LookupTier::Miss));
        cache.insert_ids(fp(1), vec!["R".into()], &rows(2), 0);
        assert_eq!(cache.get_ids(fp(1), count), (Some(2), LookupTier::Memory));
        // spill to a store, drop memory, and the store answers
        let store = Arc::new(crate::store::MemStore::new());
        cache.set_store(Some(store));
        cache.insert_ids(fp(2), vec![], &rows(1), 0);
        cache.clear();
        assert_eq!(cache.get_ids(fp(2), count), (Some(1), LookupTier::Disk));
        // the disk hit warmed memory
        assert_eq!(cache.get_ids(fp(2), count).1, LookupTier::Memory);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn bump_version_drops_only_dependents() {
        let cache = EvalCache::new();
        cache.insert(fp(1), vec!["R".into()], &table(1, "r"));
        cache.insert(fp(2), vec!["S".into()], &table(1, "s"));
        cache.insert(fp(3), vec!["R".into(), "S".into()], &table(1, "b"));
        assert_eq!(cache.version("R"), 0);
        cache.bump_version("R");
        assert_eq!(cache.version("R"), 1);
        assert!(cache.get(fp(1)).is_none());
        assert!(cache.get(fp(3)).is_none());
        assert!(cache.get(fp(2)).is_some());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn bump_epoch_clears_everything() {
        let cache = EvalCache::new();
        cache.insert(fp(1), vec!["R".into()], &table(1, "r"));
        cache.insert(fp(2), vec!["S".into()], &table(1, "s"));
        let epoch = cache.epoch();
        cache.bump_epoch();
        assert_eq!(cache.epoch(), epoch + 1);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn oversized_tables_are_not_cached() {
        let cache = EvalCache::with_capacity(1);
        cache.insert(fp(1), vec![], &table(10, "big"));
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn disabled_cache_neither_stores_nor_counts() {
        let cache = EvalCache::new();
        cache.set_enabled(false);
        assert!(cache.get(fp(1)).is_none());
        cache.insert(fp(1), vec![], &table(1, "r"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn bump_version_works_while_disabled() {
        let cache = EvalCache::new();
        cache.insert(fp(1), vec!["R".into()], &table(1, "r"));
        cache.set_enabled(false);
        cache.bump_version("R");
        cache.set_enabled(true);
        assert!(cache.get(fp(1)).is_none(), "stale entry must not survive");
        assert_eq!(cache.version("R"), 1);
    }

    #[test]
    fn poisoned_mutex_recovers_and_cache_stays_usable() {
        let cache = EvalCache::new();
        cache.insert(fp(1), vec!["R".into()], &table(1, "r"));
        // Poison the inner mutex: panic while holding the guard, the way
        // a dying worker session would.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.inner.lock().unwrap();
            panic!("worker died mid-operation");
        }));
        assert!(caught.is_err());
        assert!(cache.inner.is_poisoned(), "mutex should be poisoned");
        // Every operation must still work on the recovered state.
        assert_eq!(cache.get(fp(1)).expect("hit survives poisoning").len(), 1);
        cache.insert(fp(2), vec!["S".into()], &table(2, "s"));
        assert_eq!(cache.get(fp(2)).expect("insert after poisoning").len(), 2);
        cache.bump_version("R");
        assert!(cache.get(fp(1)).is_none(), "invalidation after poisoning");
        assert_eq!(cache.version("R"), 1);
        cache.bump_epoch();
        assert_eq!(cache.stats().entries, 0);
        let copy = cache.clone();
        assert_eq!(copy.stats().entries, 0);
        cache.clear();
    }

    #[test]
    fn set_capacity_evicts_down_to_new_budget() {
        let one = table_bytes(&table(1, "x"));
        let cache = EvalCache::with_capacity(4 * one);
        cache.insert(fp(1), vec![], &table(1, "a"));
        cache.insert(fp(2), vec![], &table(1, "b"));
        cache.insert(fp(3), vec![], &table(1, "c"));
        assert!(cache.get(fp(1)).is_some(), "refresh 1 so 2 is the victim");
        cache.set_capacity(2 * one);
        assert_eq!(cache.capacity(), 2 * one);
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert!(s.bytes <= 2 * one);
        assert!(
            cache.get(fp(2)).is_none(),
            "least recent entry evicted by shrink"
        );
        assert!(cache.get(fp(1)).is_some());
    }

    #[test]
    fn insert_spills_to_store_and_miss_is_served_from_it() {
        use crate::store::{CacheStore, MemStore};
        let store = std::sync::Arc::new(MemStore::new());
        let cache = EvalCache::new();
        cache.set_store(Some(store.clone()));
        cache.insert(fp(1), vec!["R".into()], &table(2, "r"));
        assert_eq!(store.len(), 1, "eligible insert spills");
        // a second cache sharing the store serves the memory miss from it
        let warm = EvalCache::new();
        warm.set_store(Some(store.clone()));
        let got = warm.get(fp(1)).expect("disk hit");
        assert_eq!(got.len(), 2);
        let s = warm.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "store hit is neither");
        assert_eq!(store.stats().hits, 1);
        // the entry is now memory-resident: a second lookup is a plain hit
        assert!(warm.get(fp(1)).is_some());
        assert_eq!(warm.stats().hits, 1);
        // and a store-backed entry still honors invalidation
        warm.bump_version("R");
        assert_eq!(warm.stats().entries, 0);
    }

    #[test]
    fn id_rows_are_charged_four_bytes_an_id_and_rejected_ones_miss() {
        use crate::store::{CacheStore, MemStore};
        let rows = IdRows {
            width: 2,
            ids: vec![0, 1, 2, 3, 4, 5],
        };
        let store = std::sync::Arc::new(MemStore::new());
        let cache = EvalCache::new();
        cache.set_store(Some(store.clone()));
        cache.insert_ids(fp(1), vec!["R".into()], &rows, 5);
        assert_eq!(cache.stats().bytes, 24);
        // a table lookup never reads ids: it rejects both copies
        assert!(cache.get(fp(1)).is_none());
        assert_eq!((cache.stats().entries, store.stats().load_errors), (0, 1));
        cache.insert_ids(fp(1), vec!["R".into()], &rows, 5);
        let in_range = |r: &IdRows| r.ids.iter().all(|&id| id < 6).then(|| r.len());
        assert_eq!(cache.get_ids(fp(1), in_range).0, Some(3));
        // a memory entry its reader rejects is dropped, and the lookup
        // goes on to the store, whose copy is rejected too
        let short = |r: &IdRows| r.ids.iter().all(|&id| id < 4).then(|| r.len());
        assert_eq!(cache.get_ids(fp(1), short), (None, LookupTier::Miss));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert_eq!(store.stats().load_errors, 2);
        assert!(store.is_empty());
        // the recomputed entry takes the old one's place in both tiers
        cache.insert_ids(fp(1), vec!["R".into()], &rows, 5);
        assert_eq!(store.len(), 1);
        assert_eq!(cache.get_ids(fp(1), in_range).0, Some(3));
    }

    #[test]
    fn post_edit_entries_are_not_spilled() {
        use crate::store::MemStore;
        let store = std::sync::Arc::new(MemStore::new());
        let cache = EvalCache::new();
        cache.set_store(Some(store.clone()));
        cache.bump_version("R");
        cache.insert(fp(1), vec!["R".into()], &table(1, "r"));
        assert_eq!(store.len(), 0, "version-1 dep blocks the spill");
        cache.insert(fp(2), vec!["S".into()], &table(1, "s"));
        assert_eq!(store.len(), 1, "untouched dep still spills");
        cache.bump_epoch();
        cache.insert(fp(3), vec!["T".into()], &table(1, "t"));
        assert_eq!(store.len(), 1, "non-zero epoch blocks every spill");
        assert_eq!(cache.spill_all(), 0, "nothing eligible after the bumps");
    }

    #[test]
    fn spill_all_and_preload_round_trip() {
        use crate::store::MemStore;
        let store = std::sync::Arc::new(MemStore::new());
        // build a warm cache with no store attached, then save explicitly
        let cache = EvalCache::new();
        cache.insert(fp(1), vec!["R".into()], &table(1, "r"));
        cache.insert(fp(2), vec!["S".into()], &table(2, "s"));
        assert_eq!(cache.spill_all(), 0, "no store attached");
        cache.set_store(Some(store.clone()));
        assert_eq!(cache.spill_all(), 2);
        assert_eq!(cache.spill_all(), 0, "idempotent");
        // preload into a fresh cache
        let warm = EvalCache::new();
        warm.set_store(Some(store.clone()));
        assert_eq!(warm.preload(), 2);
        assert_eq!(warm.stats().entries, 2);
        assert_eq!(warm.preload(), 0, "already resident");
        // preload after an edit skips the now-stale entry
        let edited = EvalCache::new();
        edited.set_store(Some(store));
        edited.bump_version("R");
        assert_eq!(edited.preload(), 1, "only the S-dependent entry");
    }

    #[test]
    fn disabled_cache_ignores_the_store() {
        use crate::store::MemStore;
        let store = std::sync::Arc::new(MemStore::new());
        store.spill(
            fp(1),
            &crate::store::StoredEntry {
                deps: vec![],
                payload: crate::cache::Payload::Table(table(1, "r")),
                cost_ns: 0,
            },
        );
        let cache = EvalCache::new();
        cache.set_store(Some(store.clone()));
        cache.set_enabled(false);
        assert!(cache.get(fp(1)).is_none());
        assert_eq!(store.stats().hits, 0, "store not consulted while off");
        assert_eq!(cache.preload(), 0);
    }

    #[test]
    fn clone_is_independent() {
        let cache = EvalCache::new();
        cache.insert(fp(1), vec![], &table(1, "r"));
        let copy = cache.clone();
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(copy.stats().entries, 1);
    }

    #[test]
    fn the_one_policy_is_cost_aware_and_survives_clone() {
        let cache = EvalCache::new();
        assert_eq!(cache.policy(), EvictionPolicy::CostAware);
        assert_eq!(cache.clone().policy().name(), "cost");
    }

    #[test]
    fn peek_does_not_promote_or_count() {
        let one = table_bytes(&table(1, "x"));
        let cache = EvalCache::with_capacity(2 * one);
        cache.insert(fp(1), vec![], &table(1, "a"));
        cache.insert(fp(2), vec![], &table(1, "b"));
        // peek 1 repeatedly: were this a promoting get, 1 would become
        // most-recent (and most-frequent) and 2 the next victim.
        for _ in 0..5 {
            assert!(cache.peek(fp(1)));
        }
        cache.insert(fp(3), vec![], &table(1, "c"));
        assert!(!cache.peek(fp(1)), "peek must not refresh recency");
        assert!(cache.peek(fp(2)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "peek counts nothing");
    }

    #[test]
    fn peek_never_consults_the_store() {
        use crate::store::MemStore;
        let store = std::sync::Arc::new(MemStore::new());
        store.spill(
            fp(1),
            &crate::store::StoredEntry {
                deps: vec![],
                payload: crate::cache::Payload::Table(table(1, "r")),
                cost_ns: 0,
            },
        );
        let cache = EvalCache::new();
        cache.set_store(Some(store.clone()));
        assert!(!cache.peek(fp(1)), "peek is memory-tier only");
        assert_eq!(store.stats().hits, 0);
        cache.set_enabled(false);
        assert!(!cache.peek(fp(1)));
    }

    #[test]
    fn cost_aware_eviction_keeps_the_expensive_entry() {
        let one = table_bytes(&table(1, "x"));
        let cache = EvalCache::with_capacity(2 * one);
        // 1 is expensive and *older*; 2 is free and more recent.
        // Recency alone would kill 1; cost-aware eviction kills 2.
        cache.insert_costed(fp(1), vec![], &table(1, "a"), 1_000_000);
        cache.insert(fp(2), vec![], &table(1, "b"));
        cache.insert_costed(fp(3), vec![], &table(1, "c"), 500_000);
        assert!(cache.peek(fp(1)), "expensive entry survives");
        assert!(!cache.peek(fp(2)), "cheap entry is the victim");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn cost_aware_degrades_to_lru_without_costs() {
        // With every cost at zero, priorities are all `clock` and the
        // recency tie-break reproduces exact least-recently-used order.
        let one = table_bytes(&table(1, "x"));
        let cache = EvalCache::with_capacity(2 * one);
        cache.insert(fp(1), vec![], &table(1, "a"));
        cache.insert(fp(2), vec![], &table(1, "b"));
        // touch 1 so 2 becomes the least recently used
        assert!(cache.get(fp(1)).is_some());
        cache.insert(fp(3), vec![], &table(1, "c"));
        assert!(!cache.peek(fp(2)), "least recent entry is the victim");
        assert!(cache.peek(fp(1)));
        assert!(cache.peek(fp(3)));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= 2 * one);
    }

    #[test]
    fn saturating_cost_keeps_the_oldest_entry_resident() {
        // a `u64::MAX` cost saturates the priority instead of wrapping,
        // so the oldest entry outranks both free newcomers
        let one = table_bytes(&table(1, "x"));
        let cache = EvalCache::with_capacity(2 * one);
        cache.insert_costed(fp(1), vec![], &table(1, "a"), u64::MAX);
        cache.insert(fp(2), vec![], &table(1, "b"));
        cache.insert(fp(3), vec![], &table(1, "c"));
        assert!(cache.peek(fp(1)), "oldest survives on its cost");
        assert!(!cache.peek(fp(2)));
        assert!(cache.peek(fp(3)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn clock_inflation_lets_stale_expensive_entries_drain() {
        let one = table_bytes(&table(1, "x"));
        let cache = EvalCache::with_capacity(one);
        cache.insert_costed(fp(1), vec![], &table(1, "a"), 1_000);
        // Each new insert evicts the resident entry and inflates the
        // clock past its priority, so the *next* equally-expensive
        // entry is admitted warmer and the old one cannot squat.
        cache.insert_costed(fp(2), vec![], &table(1, "b"), 1_000);
        assert!(!cache.peek(fp(1)));
        assert!(cache.peek(fp(2)));
        cache.insert_costed(fp(3), vec![], &table(1, "c"), 1_000);
        assert!(!cache.peek(fp(2)));
        assert!(cache.peek(fp(3)));
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn hits_accumulate_saved_ns_and_frequency_protects_entries() {
        let one = table_bytes(&table(1, "x"));
        let cache = EvalCache::with_capacity(2 * one);
        cache.insert_costed(fp(1), vec![], &table(1, "a"), 300);
        cache.insert_costed(fp(2), vec![], &table(1, "b"), 400);
        assert!(cache.get(fp(1)).is_some());
        assert!(cache.get(fp(1)).is_some());
        assert!(cache.get(fp(2)).is_some());
        assert_eq!(cache.stats().saved_ns, 300 + 300 + 400);
        // both residents are proven earners (freq·cost outranks a
        // single-shot 100ns newcomer), so admission control turns the
        // insert away instead of churning either of them out
        cache.insert_costed(fp(3), vec![], &table(1, "c"), 100);
        assert!(cache.peek(fp(1)), "frequent entry survives");
        assert!(cache.peek(fp(2)), "earner outranks the newcomer");
        assert!(!cache.peek(fp(3)), "cheap newcomer rejected");
        assert_eq!(cache.stats().evictions, 0, "rejection is not an eviction");
    }

    #[test]
    fn admission_control_rejects_low_value_inserts_under_pressure() {
        let one = table_bytes(&table(1, "x"));
        let cache = EvalCache::with_capacity(one);
        cache.insert_costed(fp(1), vec![], &table(1, "a"), 1_000_000);
        // a cheap insert into a full cache loses to the expensive
        // resident: nothing is evicted, nothing is admitted
        cache.insert_costed(fp(2), vec![], &table(1, "b"), 10);
        assert!(cache.peek(fp(1)));
        assert!(!cache.peek(fp(2)));
        assert_eq!(cache.stats().evictions, 0);
        // a more expensive insert wins and displaces the resident
        cache.insert_costed(fp(3), vec![], &table(1, "c"), 2_000_000);
        assert!(!cache.peek(fp(1)));
        assert!(cache.peek(fp(3)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn rejections_age_the_clock_so_losers_eventually_win() {
        let one = table_bytes(&table(1, "x"));
        let cache = EvalCache::with_capacity(one);
        cache.insert_costed(fp(1), vec![], &table(1, "a"), 1_000_000);
        // each rejected cheap insert inflates the clock by its own
        // priority, so sustained demand eventually outbids a resident
        // that has stopped earning hits
        let mut admitted_at = None;
        for i in 0..10_000u64 {
            cache.insert_costed(fp(100 + i), vec![], &table(1, "b"), 50_000);
            if !cache.peek(fp(1)) {
                admitted_at = Some(i);
                break;
            }
        }
        assert!(
            admitted_at.is_some(),
            "stale expensive entry squatted through 10k rejections"
        );
    }

    #[test]
    fn ghost_history_resumes_frequency_across_readmission() {
        let one = table_bytes(&table(1, "x"));
        let cache = EvalCache::with_capacity(one);
        // a recurring fingerprint rejected round after round accumulates
        // ghost frequency, so its candidate priority compounds instead
        // of growing one clock step at a time: against a 10x-cost
        // resident, clock aging alone needs 10 attempts, ghost history
        // roughly halves that
        cache.insert_costed(fp(1), vec![], &table(1, "a"), 10_000_000);
        let mut admitted_at = None;
        for round in 0..64u64 {
            cache.insert_costed(fp(2), vec![], &table(1, "b"), 1_000_000);
            if cache.peek(fp(2)) {
                admitted_at = Some(round);
                break;
            }
        }
        let round = admitted_at.expect("recurring entry never readmitted");
        assert!(
            round < 9,
            "ghost frequency should compound faster than clock aging alone \
             (admitted at round {round})"
        );
        // invalidation kills the history too: the fingerprint can never
        // be requested again once a dependency version moved
        let cache = EvalCache::with_capacity(one);
        cache.insert_costed(fp(3), vec!["R".into()], &table(1, "a"), 500);
        cache.bump_version("R");
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn cost_survives_the_store_round_trip() {
        use crate::store::MemStore;
        let store = std::sync::Arc::new(MemStore::new());
        let cache = EvalCache::new();
        cache.set_store(Some(store.clone()));
        cache.insert_costed(fp(1), vec!["R".into()], &table(1, "r"), 7_500);
        // a fresh cache loads the entry from the store, cost included
        let warm = EvalCache::new();
        warm.set_store(Some(store));
        assert!(warm.get(fp(1)).is_some());
        assert_eq!(warm.stats().saved_ns, 7_500, "disk hit counts the cost");
        let resident = warm.debug_entries();
        assert_eq!(resident.len(), 1);
        assert_eq!(resident[0].2, 7_500, "the loaded entry keeps its cost");
    }
}
