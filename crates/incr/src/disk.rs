//! The on-disk [`CacheStore`]: fingerprint-keyed files under a cache
//! directory, surviving process restarts.
//!
//! ## File format (version 3)
//!
//! One entry per file, named `{namespace:016x}-{fingerprint:016x}.clc`.
//! Integers, strings and values use the shared encoding of
//! [`clio_relational::codec`] (little-endian; strings are `u32` length +
//! UTF-8 bytes), which heap files' records use too. Layout:
//!
//! ```text
//! magic      b"CLIC"
//! version    u32            (currently 3)
//! namespace  u64            (database_digest of the source)
//! fp         u64            (the entry fingerprint)
//! cost_ns    u64            (measured recompute time; 0 = unknown)
//! deps       u32 count, then count strings
//! kind       u8             (0 table, 1 tuple ids)
//! table:
//!   scheme   u32 ncols, then per column: qualifier, name, u8 type tag
//!   rows     u64 nrows, then nrows × ncols tagged values
//! tuple ids:
//!   width    u32            (ids per row)
//!   rows     u64 nrows, then nrows × width u32 ids
//! checksum   u64            (FNV-1a 64 over everything above)
//! ```
//!
//! Type tags: `0` int, `1` float, `2` string, `3` bool.
//!
//! Version 2 added `cost_ns` (between `fp` and `deps`) so a warm
//! restart re-seeds the cost-aware eviction priorities; version 3 added
//! `kind` and tuple-id entries (and changed what the tree `D(G)` holds:
//! rows subsumed by a near-duplicate are gone). Files of any other
//! version are rejected like every defective file — one rate-limited
//! warning, a `cache.load_errors` count, the file removed, and a cold
//! recompute that rewrites the entry in the current format. The decoder trusts no count: every
//! length is checked against the bytes that remain before anything is
//! allocated. Ids are not checked against the relations they point
//! into — the store does not know them; the reader does
//! ([`CacheStore::load_checked`]).
//!
//! ## Crash safety and tolerance
//!
//! Writes go through [`write_atomic`], the one atomic write every clio
//! file uses: a `.tmp-{pid}-{seq}` file in the same directory, fsynced
//! and renamed into place. Readers never observe a half-written entry,
//! and concurrent sessions spilling the same fingerprint race
//! harmlessly (both rename byte-identical content). Reads never trust
//! the directory: a truncated file, a wrong magic/version, a namespace
//! or fingerprint mismatch, or a failed checksum logs one line to
//! stderr (rate-limited per category via [`clio_obs::warn_limited`], so
//! a directory of corrupt files cannot flood the terminal), counts
//! `cache.load_errors`, removes the file, and behaves as a miss — the
//! cache recomputes and spills the entry afresh, so a damaged directory
//! can degrade performance once but never an answer.
//! An unusable directory (e.g. unwritable) degrades the store to an
//! inert no-op the same way.

use std::fs;
use std::path::{Path, PathBuf};

use clio_relational::codec::{put_len, put_str, put_u32, put_u64, put_value, Reader};
use clio_relational::schema::{Column, Scheme};
use clio_relational::table::Table;
use clio_relational::value::DataType;
use clio_relational::{fnv1a, write_atomic, FNV_OFFSET_BASIS};

use crate::cache::{IdRows, Payload};
use crate::fingerprint::Fingerprint;
use crate::store::{CacheStore, StoreCounters, StoreStats, StoredEntry};

/// Current file format version.
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: &[u8; 4] = b"CLIC";

/// A persistent [`CacheStore`] over a directory of entry files.
#[derive(Debug)]
pub struct DiskStore {
    /// `None` when the directory proved unusable at open time; the
    /// store then answers every call as an inert no-op.
    dir: Option<PathBuf>,
    namespace: u64,
    counters: StoreCounters,
}

impl DiskStore {
    /// Open (creating if needed) a store over `dir`, namespaced by
    /// `namespace` (a [`database_digest`](crate::store::database_digest)
    /// of the source). Never errors: an unusable directory is reported
    /// once on stderr, counted as a load error, and yields a degraded
    /// store that spills nothing and loads nothing.
    #[must_use]
    pub fn open(dir: &Path, namespace: u64) -> DiskStore {
        let usable = fs::create_dir_all(dir)
            .and_then(|()| {
                // Probe writability up front so degradation happens once,
                // loudly, instead of once per spill.
                let probe = dir.join(format!(".probe-{}", std::process::id()));
                fs::write(&probe, b"")?;
                fs::remove_file(&probe)
            })
            .map(|()| dir.to_path_buf());
        let counters = StoreCounters::default();
        let dir = match usable {
            Ok(dir) => Some(dir),
            Err(e) => {
                clio_obs::warn_limited(
                    "cache.dir",
                    &format!(
                        "cache dir `{}` unusable ({e}); continuing without persistence",
                        dir.display()
                    ),
                );
                counters.record_load_error();
                None
            }
        };
        DiskStore {
            dir,
            namespace,
            counters,
        }
    }

    /// The namespace this store serves.
    #[must_use]
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// Is the store degraded (directory unusable)?
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.dir.is_none()
    }

    fn entry_path(&self, dir: &Path, fp: Fingerprint) -> PathBuf {
        dir.join(format!("{:016x}-{:016x}.clc", self.namespace, fp.0))
    }

    fn read_entry(&self, path: &Path, fp: Fingerprint) -> Option<StoredEntry> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                clio_obs::warn_limited(
                    "cache.load",
                    &format!(
                        "cache entry `{}` unreadable ({e}); recomputing",
                        path.display()
                    ),
                );
                self.counters.record_load_error();
                return None;
            }
        };
        decode(&bytes, self.namespace, fp)
            .map_err(|why| self.reject(path, &why))
            .ok()
    }

    /// Log and count a rejected entry file and remove it: `spill` never
    /// overwrites, so this makes room for the recompute.
    fn reject(&self, path: &Path, why: &str) {
        clio_obs::warn_limited(
            "cache.load",
            &format!(
                "cache entry `{}` rejected ({why}); recomputing",
                path.display()
            ),
        );
        self.counters.record_load_error();
        let _ = fs::remove_file(path);
    }
}

impl CacheStore for DiskStore {
    fn load_checked(
        &self,
        fp: Fingerprint,
        usable: &mut dyn FnMut(&StoredEntry) -> bool,
    ) -> Option<StoredEntry> {
        let dir = self.dir.as_deref()?;
        let path = self.entry_path(dir, fp);
        let entry = self.read_entry(&path, fp)?;
        if usable(&entry) {
            self.counters.record_hit();
            return Some(entry);
        }
        self.reject(&path, "unusable by its reader");
        None
    }

    fn spill(&self, fp: Fingerprint, entry: &StoredEntry) -> bool {
        let Some(dir) = self.dir.as_deref() else {
            return false;
        };
        let path = self.entry_path(dir, fp);
        if path.exists() {
            return false;
        }
        let bytes = encode(self.namespace, fp, entry);
        match write_atomic(&path, &bytes) {
            Ok(()) => {
                self.counters.record_spill(bytes.len() as u64);
                true
            }
            Err(e) => {
                clio_obs::warn_limited(
                    "cache.spill",
                    &format!(
                        "cache spill to `{}` failed ({e}); continuing",
                        path.display()
                    ),
                );
                self.counters.record_load_error();
                false
            }
        }
    }

    fn load_all(&self) -> Vec<(Fingerprint, StoredEntry)> {
        let Some(dir) = self.dir.as_deref() else {
            return Vec::new();
        };
        let prefix = format!("{:016x}-", self.namespace);
        let mut names: Vec<String> = match fs::read_dir(dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.starts_with(&prefix) && n.ends_with(".clc"))
                .collect(),
            Err(e) => {
                clio_obs::warn_limited(
                    "cache.dir",
                    &format!(
                        "cache dir `{}` unreadable ({e}); loading nothing",
                        dir.display()
                    ),
                );
                self.counters.record_load_error();
                return Vec::new();
            }
        };
        names.sort();
        let mut out = Vec::new();
        for name in names {
            let hex = &name[prefix.len()..name.len() - ".clc".len()];
            let Ok(raw) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            let fp = Fingerprint(raw);
            if let Some(entry) = self.read_entry(&dir.join(&name), fp) {
                out.push((fp, entry));
            }
        }
        out
    }

    fn stats(&self) -> StoreStats {
        self.counters.stats()
    }

    fn describe(&self) -> String {
        match &self.dir {
            Some(dir) => format!("disk:{}", dir.display()),
            None => "disk:(degraded)".to_owned(),
        }
    }
}

/// Column types by their tag byte: the one table the encoder and the
/// decoder read.
const TYPES: [DataType; 4] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
];

/// Encode one entry into the version-3 file bytes (checksum included).
#[must_use]
pub fn encode(namespace: u64, fp: Fingerprint, entry: &StoredEntry) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u64(&mut out, namespace);
    put_u64(&mut out, fp.0);
    put_u64(&mut out, entry.cost_ns);
    put_len(&mut out, entry.deps.len());
    for dep in &entry.deps {
        put_str(&mut out, dep);
    }
    match &entry.payload {
        Payload::Table(table) => {
            out.push(0);
            let scheme = table.scheme();
            put_len(&mut out, scheme.arity());
            for col in scheme.columns() {
                put_str(&mut out, &col.qualifier);
                put_str(&mut out, &col.name);
                let tag = TYPES.iter().position(|&t| t == col.ty);
                out.push(tag.expect("every column type has a tag") as u8);
            }
            put_u64(&mut out, table.len() as u64);
            for row in table.rows() {
                for v in row {
                    put_value(&mut out, v);
                }
            }
        }
        Payload::Ids(rows) => {
            out.push(1);
            put_len(&mut out, rows.width);
            put_u64(&mut out, rows.len() as u64);
            for &id in &rows.ids {
                put_u32(&mut out, id);
            }
        }
    }
    let checksum = fnv1a(FNV_OFFSET_BASIS, &out);
    put_u64(&mut out, checksum);
    out
}

/// Decode version-3 file bytes, verifying magic, version,
/// namespace, fingerprint, and checksum. Any defect yields a description
/// of why the file was rejected.
pub fn decode(bytes: &[u8], namespace: u64, fp: Fingerprint) -> Result<StoredEntry, String> {
    if bytes.len() < MAGIC.len() + 4 + 8 + 8 + 8 + 8 {
        return Err("truncated".to_owned());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(FNV_OFFSET_BASIS, body) != declared {
        return Err("checksum mismatch".to_owned());
    }
    let mut cur = Reader::new(body);
    if cur.take(MAGIC.len())? != MAGIC {
        return Err("bad magic".to_owned());
    }
    let version = cur.u32()?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version {version}, expected {FORMAT_VERSION}"
        ));
    }
    let file_ns = cur.u64()?;
    if file_ns != namespace {
        return Err("namespace mismatch".to_owned());
    }
    let file_fp = cur.u64()?;
    if file_fp != fp.0 {
        return Err("fingerprint mismatch".to_owned());
    }
    let cost_ns = cur.u64()?;
    let ndeps = cur.u32()? as usize;
    let mut deps = Vec::with_capacity(ndeps.min(1024));
    for _ in 0..ndeps {
        deps.push(cur.str()?.to_owned());
    }
    let payload = match cur.u8()? {
        0 => Payload::Table(decode_table(&mut cur)?),
        1 => Payload::Ids(decode_ids(&mut cur)?),
        kind => return Err(format!("unknown entry kind {kind}")),
    };
    cur.done()?;
    Ok(StoredEntry {
        deps,
        payload,
        cost_ns,
    })
}

/// A table entry's scheme and rows.
fn decode_table(cur: &mut Reader) -> Result<Table, String> {
    let ncols = cur.u32()? as usize;
    let mut cols = Vec::with_capacity(ncols.min(1024));
    for _ in 0..ncols {
        let qualifier = cur.str()?;
        let name = cur.str()?;
        let ty = *TYPES
            .get(usize::from(cur.u8()?))
            .ok_or("unknown type tag")?;
        cols.push(Column::new(qualifier, name, ty));
    }
    let nrows = cur.u64()?;
    // Every value takes at least one byte, so the rest of the body bounds
    // the row count; zero-width rows take none, but all are equal and a
    // stored table is a set, so it holds at most one. Without this check
    // a forged count on a zero-column table would loop pushing rows.
    let room = match ncols {
        0 => 1,
        n => cur.remaining() / n,
    };
    if nrows > room as u64 {
        return Err(format!("row count {nrows} exceeds the body"));
    }
    let nrows = nrows as usize;
    let mut rows = Vec::with_capacity(nrows.min(4096));
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(cur.value()?);
        }
        rows.push(row);
    }
    Ok(Table::new(Scheme::new(cols), rows))
}

/// A tuple-id entry's width and ids. The id count must fit the bytes
/// that remain (four per id), and rows need a width of at least one.
fn decode_ids(cur: &mut Reader) -> Result<IdRows, String> {
    let width = cur.u32()? as usize;
    let nrows = cur.u64()?;
    if width == 0 && nrows > 0 {
        return Err("tuple-id rows of width 0".to_owned());
    }
    let room = (cur.remaining() / 4) as u64;
    let count = nrows
        .checked_mul(width as u64)
        .filter(|&n| n <= room)
        .ok_or_else(|| format!("{nrows} rows of {width} ids exceed the body"))?;
    let ids = cur
        .take(count as usize * 4)?
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    Ok(IdRows { width, ids })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_relational::value::Value;

    fn entry(rows: usize, tag: &str) -> StoredEntry {
        let scheme = Scheme::new(vec![
            Column::new("T", "a", DataType::Str),
            Column::new("T", "n", DataType::Int),
        ]);
        let rows = (0..rows)
            .map(|i| vec![Value::str(format!("{tag}{i}")), Value::Int(i as i64)])
            .collect();
        StoredEntry {
            deps: vec!["R".into(), "S".into()],
            payload: Payload::Table(Table::new(scheme, rows)),
            cost_ns: 987_654,
        }
    }

    fn all_types_entry() -> StoredEntry {
        let scheme = Scheme::new(vec![
            Column::new("T", "i", DataType::Int),
            Column::new("T", "f", DataType::Float),
            Column::new("T", "s", DataType::Str),
            Column::new("T", "b", DataType::Bool),
        ]);
        StoredEntry {
            deps: vec![],
            payload: Payload::Table(Table::new(
                scheme,
                vec![
                    vec![
                        Value::Int(-7),
                        Value::Float(2.5),
                        Value::str("x"),
                        Value::Bool(true),
                    ],
                    vec![Value::Null, Value::Null, Value::Null, Value::Bool(false)],
                ],
            )),
            cost_ns: 0,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("clio-disk-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn encode_decode_round_trip_all_value_kinds() {
        let e = all_types_entry();
        let bytes = encode(7, Fingerprint(42), &e);
        let back = decode(&bytes, 7, Fingerprint(42)).expect("round trip");
        assert_eq!(back, e);
    }

    /// A bool byte other than 0 or 1 is a defect, not `true`, even
    /// under a valid checksum.
    #[test]
    fn decode_rejects_bool_bytes_other_than_zero_and_one() {
        let good = encode(7, Fingerprint(42), &all_types_entry());
        // the body ends with the last row's `Bool(false)`: tag 4, byte 0
        let body_len = good.len() - 8;
        assert_eq!(&good[body_len - 2..body_len], &[4, 0]);
        let mut forged = good.clone();
        forged[body_len - 1] = 2;
        let sum = fnv1a(FNV_OFFSET_BASIS, &forged[..body_len]);
        forged[body_len..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&forged, 7, Fingerprint(42)).unwrap_err();
        assert!(err.contains("bool"), "{err}");
    }

    #[test]
    fn decode_rejects_defects() {
        let e = entry(2, "r");
        let good = encode(7, Fingerprint(42), &e);
        // truncation at every prefix length fails, never panics
        for n in 0..good.len() {
            assert!(decode(&good[..n], 7, Fingerprint(42)).is_err(), "len {n}");
        }
        // single-byte corruption is caught by the checksum
        let mut flipped = good.clone();
        flipped[10] ^= 0xff;
        assert!(decode(&flipped, 7, Fingerprint(42))
            .unwrap_err()
            .contains("checksum"));
        // wrong version (re-checksummed so the version check fires)
        let mut wrong_ver = good.clone();
        wrong_ver[4] = 99;
        let body_len = wrong_ver.len() - 8;
        let sum = fnv1a(FNV_OFFSET_BASIS, &wrong_ver[..body_len]);
        wrong_ver[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode(&wrong_ver, 7, Fingerprint(42))
            .unwrap_err()
            .contains("version"));
        // wrong namespace / fingerprint at lookup time
        assert!(decode(&good, 8, Fingerprint(42))
            .unwrap_err()
            .contains("namespace"));
        assert!(decode(&good, 7, Fingerprint(43))
            .unwrap_err()
            .contains("fingerprint"));
    }

    #[test]
    fn disk_store_round_trips_across_instances() {
        let dir = tmp_dir("roundtrip");
        let e = entry(3, "r");
        {
            let store = DiskStore::open(&dir, 7);
            assert!(!store.degraded());
            assert!(store.load(Fingerprint(1)).is_none());
            assert!(store.spill(Fingerprint(1), &e));
            assert!(!store.spill(Fingerprint(1), &e), "idempotent");
            let s = store.stats();
            assert_eq!((s.spills, s.load_errors), (1, 0));
            assert!(s.bytes > 0);
        }
        // a second instance (fresh process restart in miniature) sees it
        let store = DiskStore::open(&dir, 7);
        assert_eq!(store.load(Fingerprint(1)).expect("disk hit"), e);
        assert_eq!(store.stats().hits, 1);
        // but a different namespace does not
        let other = DiskStore::open(&dir, 8);
        assert!(other.load(Fingerprint(1)).is_none());
        assert_eq!(other.stats().load_errors, 0, "a miss, not an error");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_all_returns_namespace_entries_in_order() {
        let dir = tmp_dir("loadall");
        let store = DiskStore::open(&dir, 7);
        store.spill(Fingerprint(9), &entry(1, "c"));
        store.spill(Fingerprint(2), &entry(1, "a"));
        let other = DiskStore::open(&dir, 8);
        other.spill(Fingerprint(5), &entry(1, "x"));
        let fps: Vec<u64> = store.load_all().iter().map(|(fp, _)| fp.0).collect();
        assert_eq!(fps, vec![2, 9], "sorted, other namespace excluded");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_corrupt_files_degrade_to_misses() {
        let dir = tmp_dir("corrupt");
        let store = DiskStore::open(&dir, 7);
        store.spill(Fingerprint(1), &entry(2, "r"));
        let path = dir.join(format!("{:016x}-{:016x}.clc", 7, 1));
        let bytes = fs::read(&path).unwrap();
        // truncate; every rejected file is removed
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.load(Fingerprint(1)).is_none());
        assert_eq!(store.stats().load_errors, 1);
        assert!(!path.exists());
        // corrupt one byte (restore length first)
        let mut flipped = bytes.clone();
        flipped[20] ^= 0x55;
        fs::write(&path, &flipped).unwrap();
        assert!(store.load(Fingerprint(1)).is_none());
        assert_eq!(store.stats().load_errors, 2);
        assert!(!path.exists());
        // future format version
        let mut future = bytes.clone();
        future[4] = 4;
        let body_len = future.len() - 8;
        let sum = fnv1a(FNV_OFFSET_BASIS, &future[..body_len]);
        future[body_len..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &future).unwrap();
        assert!(store.load(Fingerprint(1)).is_none());
        assert_eq!(store.stats().load_errors, 3);
        // load_all tolerates the same file
        fs::write(&path, &future).unwrap();
        assert!(store.load_all().is_empty());
        assert_eq!(store.stats().load_errors, 4);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A version-2 file: the current encoding of `e` without the kind
    /// byte, re-checksummed.
    fn version_two_file(e: &StoredEntry) -> Vec<u8> {
        let mut v2 = encode(7, Fingerprint(1), e);
        // header, deps ("R", "S"), then the kind byte
        let kind_at = 32 + 4 + 2 * 5;
        assert_eq!(v2[kind_at], 0);
        v2.remove(kind_at);
        v2[4] = 2;
        resummed(v2)
    }

    /// `old` is rejected naming its `version`; through a store it is one
    /// load error and a miss, and the file is removed so the recompute
    /// spills `e` afresh.
    fn assert_rejected_and_rewritten(version: u32, old: &[u8], e: &StoredEntry) {
        let why = decode(old, 7, Fingerprint(1)).unwrap_err();
        assert!(
            why.contains(&format!("format version {version}")),
            "got: {why}"
        );
        let dir = tmp_dir(&format!("v{version}"));
        let store = DiskStore::open(&dir, 7);
        let path = dir.join(format!("{:016x}-{:016x}.clc", 7, 1));
        fs::write(&path, old).unwrap();
        assert!(store.load(Fingerprint(1)).is_none());
        assert_eq!(store.stats().load_errors, 1);
        assert!(store.spill(Fingerprint(1), e));
        assert_eq!(&store.load(Fingerprint(1)).expect("rewritten"), e);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_one_files_degrade_to_misses() {
        // Reconstruct a version-1 file byte for byte: a version-2 file
        // without the cost_ns word (bytes 24..32), version field 1,
        // re-checksummed.
        let e = entry(2, "r");
        let v2 = version_two_file(&e);
        let mut v1: Vec<u8> = Vec::new();
        v1.extend_from_slice(&v2[..24]);
        v1.extend_from_slice(&v2[32..]);
        v1[4] = 1;
        assert_rejected_and_rewritten(1, &resummed(v1), &e);
    }

    #[test]
    fn version_two_files_degrade_to_misses() {
        // version 3 changed what the tree `D(G)` entries hold, so a
        // version-2 table is never served: not in its own layout, and
        // not in the current one under the old number
        let e = entry(2, "r");
        assert_rejected_and_rewritten(2, &version_two_file(&e), &e);
        let mut relabeled = encode(7, Fingerprint(1), &e);
        relabeled[4] = 2;
        assert_rejected_and_rewritten(2, &resummed(relabeled), &e);
    }

    fn ids_entry() -> StoredEntry {
        StoredEntry {
            deps: vec!["R".into()],
            payload: Payload::Ids(IdRows {
                width: 3,
                ids: vec![0, 1, 2, 7, 0, u32::MAX],
            }),
            cost_ns: 11,
        }
    }

    /// `bytes` with its checksum recomputed over the new body.
    fn resummed(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 8;
        let sum = fnv1a(FNV_OFFSET_BASIS, &bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn tuple_id_entries_round_trip_and_forged_counts_are_rejected() {
        let e = ids_entry();
        let good = encode(7, Fingerprint(3), &e);
        assert_eq!(decode(&good, 7, Fingerprint(3)).expect("round trip"), e);
        // header, one dep ("R"), kind: width at 32 + 4 + 5 + 1
        let width_at = 42;
        let rows_at = width_at + 4;
        for (at, claim) in [
            (rows_at, u64::MAX),
            (rows_at, 3),
            (width_at, u64::from(u32::MAX)),
            (width_at, 0),
        ] {
            let mut forged = good.clone();
            let width = if at == width_at { 4 } else { 8 };
            forged[at..at + width].copy_from_slice(&claim.to_le_bytes()[..width]);
            let why = decode(&resummed(forged), 7, Fingerprint(3)).unwrap_err();
            assert!(
                why.contains("ids") || why.contains("width 0") || why.contains("trailing"),
                "{why}"
            );
        }
        let mut kind = good.clone();
        kind[width_at - 1] = 9;
        assert!(decode(&resummed(kind), 7, Fingerprint(3))
            .unwrap_err()
            .contains("kind"));
    }

    /// `hex` as bytes.
    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Every persisted record kind keeps its bytes: one heap record, one
    /// `_index.clh` entry and one cache file of each payload kind,
    /// encoded through the shared codec, against bytes written before it
    /// was shared. Each also decodes back to what was encoded.
    #[test]
    fn every_record_kind_keeps_its_golden_bytes() {
        use clio_relational::index::Occurrence;
        use clio_relational::schema::{Attribute, RelSchema};
        use clio_relational::storage::{
            decode_index_entry, decode_row, encode_index_entry, encode_row,
        };

        let row = vec![
            Value::Int(-7),
            Value::Float(2.5),
            Value::str("héllo"),
            Value::Bool(true),
            Value::Null,
        ];
        let golden_row = unhex(concat!(
            "0500000001f9ffffffffffffff020000000000000440030600000068c3a96c6c",
            "6f040100",
        ));
        assert_eq!(encode_row(&row), golden_row);
        let schema = RelSchema::new(
            "R",
            ["i", "f", "s", "b", "n"]
                .iter()
                .zip([
                    DataType::Int,
                    DataType::Float,
                    DataType::Str,
                    DataType::Bool,
                    DataType::Int,
                ])
                .map(|(name, ty)| Attribute::new(*name, ty))
                .collect(),
        )
        .unwrap();
        assert_eq!(decode_row(&golden_row, &schema).unwrap(), row);

        let occs = vec![
            Occurrence {
                relation: "Children".into(),
                attribute: "ID".into(),
                row: 3,
            },
            Occurrence {
                relation: "SBPS".into(),
                attribute: "ID".into(),
                row: 0,
            },
        ];
        let golden_entry = unhex(concat!(
            "030300000030303202000000080000004368696c6472656e0200000049440300",
            "00000000000004000000534250530200000049440000000000000000",
        ));
        assert_eq!(encode_index_entry(&Value::str("002"), &occs), golden_entry);
        assert_eq!(
            decode_index_entry(&golden_entry).unwrap(),
            (Value::str("002"), occs)
        );

        let table = StoredEntry {
            deps: vec!["R".into(), "S".into()],
            cost_ns: 987_654,
            ..all_types_entry()
        };
        let golden_table = unhex(concat!(
            "434c49430300000007000000000000002a0000000000000006120f0000000000",
            "0200000001000000520100000053000400000001000000540100000069000100",
            "0000540100000066010100000054010000007302010000005401000000620302",
            "0000000000000001f9ffffffffffffff02000000000000044003010000007804",
            "010000000400227b2a8ec7776367",
        ));
        assert_eq!(encode(7, Fingerprint(42), &table), golden_table);
        assert_eq!(decode(&golden_table, 7, Fingerprint(42)).unwrap(), table);
        let golden_ids = unhex(concat!(
            "434c494303000000070000000000000003000000000000000b00000000000000",
            "0100000001000000520103000000020000000000000000000000010000000200",
            "00000700000000000000ffffffff5273e8c6417328ee",
        ));
        assert_eq!(encode(7, Fingerprint(3), &ids_entry()), golden_ids);
        assert_eq!(decode(&golden_ids, 7, Fingerprint(3)).unwrap(), ids_entry());
    }

    #[test]
    fn an_entry_its_reader_rejects_is_a_load_error_and_is_removed() {
        let dir = tmp_dir("reject");
        let store = DiskStore::open(&dir, 7);
        assert!(store.spill(Fingerprint(4), &ids_entry()));
        assert!(store.load_checked(Fingerprint(4), &mut |_| false).is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.load_errors), (0, 1));
        assert!(store.load(Fingerprint(4)).is_none(), "the file is gone");
        assert!(
            store.spill(Fingerprint(4), &ids_entry()),
            "and can be rewritten"
        );
        assert_eq!(store.load(Fingerprint(4)).expect("hit"), ids_entry());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cost_survives_the_disk_round_trip() {
        let dir = tmp_dir("cost");
        let store = DiskStore::open(&dir, 7);
        let e = entry(1, "r");
        assert!(store.spill(Fingerprint(5), &e));
        let back = store.load(Fingerprint(5)).expect("hit");
        assert_eq!(back.cost_ns, 987_654);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_dir_degrades_to_inert_store() {
        // a file where the directory should be → create_dir_all fails
        let blocker =
            std::env::temp_dir().join(format!("clio-disk-test-{}-blocker", std::process::id()));
        fs::write(&blocker, b"not a directory").unwrap();
        let store = DiskStore::open(&blocker, 7);
        assert!(store.degraded());
        assert_eq!(store.stats().load_errors, 1);
        assert!(!store.spill(Fingerprint(1), &entry(1, "r")));
        assert!(store.load(Fingerprint(1)).is_none());
        assert!(store.load_all().is_empty());
        assert_eq!(store.stats().spills, 0);
        assert!(store.describe().contains("degraded"));
        let _ = fs::remove_file(&blocker);
    }

    #[test]
    fn corrupt_file_warnings_are_rate_limited() {
        let dir = tmp_dir("ratelimit");
        let store = DiskStore::open(&dir, 7);
        let flood = clio_obs::warn::WARN_LIMIT + 20;
        for i in 0..flood {
            store.spill(Fingerprint(i), &entry(1, "r"));
            let path = dir.join(format!("{:016x}-{:016x}.clc", 7u64, i));
            fs::write(&path, b"garbage").unwrap();
        }
        let (printed_before, suppressed_before) = clio_obs::warn_counts("cache.load");
        for i in 0..flood {
            assert!(store.load(Fingerprint(i)).is_none());
        }
        assert_eq!(store.stats().load_errors, flood);
        let (printed_after, suppressed_after) = clio_obs::warn_counts("cache.load");
        // Other parallel tests share the category, so assert deltas and
        // bounds rather than exact totals: every flood miss was tallied,
        // but at most WARN_LIMIT lines ever print.
        assert!(printed_after <= clio_obs::warn::WARN_LIMIT);
        assert!(
            (printed_after + suppressed_after) - (printed_before + suppressed_before) >= flood,
            "all {flood} corrupt loads must be tallied"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_tmp_files_left_behind() {
        let dir = tmp_dir("tmpfiles");
        let store = DiskStore::open(&dir, 7);
        store.spill(Fingerprint(1), &entry(1, "r"));
        store.spill(Fingerprint(2), &entry(1, "s"));
        let leftovers: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray tmp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
