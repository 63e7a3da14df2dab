//! Paged on-disk storage backend for source databases.
//!
//! A paged database is a directory: the same `_schema.txt` manifest the
//! CSV layout uses, one `<Relation>.clh` heap file per relation, and a
//! persisted [`ValueIndex`] in `_index.clh` — all in the `clio-pager`
//! checksummed page format, served through one shared buffer pool.
//! [`open_paged`] verifies every record once (streaming, bounded
//! memory) and then faults relations in lazily, so the working set —
//! not the database — bounds resident memory.
//!
//! Degradation contract: a corrupt heap file fails [`open_paged`] with
//! a typed error; a file that goes bad *after* open is skipped with a
//! logged `pager.load` warning and a `pager.load_errors` bump; a
//! corrupt or missing `_index.clh` merely makes [`Database`]
//! `stored_index()` return `None`, so callers rebuild the index — slow,
//! never wrong.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use clio_pager::{write_atomic, HeapWriter, Pager};

use crate::codec::{put_len, put_str, put_u64, put_value, Reader};
use crate::constraints::Constraints;
use crate::csv::{parse_manifest, schema_manifest};
use crate::database::Database;
use crate::error::{Error, Result};
use crate::index::{Occurrence, ValueIndex};
use crate::relation::Relation;
use crate::schema::RelSchema;
use crate::value::Value;

/// File name of the persisted value index inside a paged directory.
pub const INDEX_FILE: &str = "_index.clh";

/// Heap-file name for a relation.
fn heap_name(relation: &str) -> String {
    format!("{relation}.clh")
}

/// One row as a heap record: `u32` arity, then its values in the
/// [`codec`](crate::codec) encoding.
#[must_use]
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    put_len(&mut out, row.len());
    for v in row {
        put_value(&mut out, v);
    }
    out
}

/// Decode a heap record of a relation with `schema`.
///
/// # Errors
///
/// A short human detail when the bytes are not one whole record of
/// `schema`'s arity.
pub fn decode_row(bytes: &[u8], schema: &RelSchema) -> std::result::Result<Vec<Value>, String> {
    let mut r = Reader::new(bytes);
    let n = r.u32()? as usize;
    if n != schema.arity() {
        return Err(format!(
            "record arity {n} does not match schema arity {}",
            schema.arity()
        ));
    }
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(r.value()?);
    }
    r.done()?;
    Ok(row)
}

/// One `_index.clh` record: the value, a `u32` occurrence count, then
/// each occurrence's relation, attribute and `u64` row.
#[must_use]
pub fn encode_index_entry(value: &Value, occs: &[Occurrence]) -> Vec<u8> {
    let mut out = Vec::new();
    put_value(&mut out, value);
    put_len(&mut out, occs.len());
    for occ in occs {
        put_str(&mut out, &occ.relation);
        put_str(&mut out, &occ.attribute);
        put_u64(&mut out, occ.row as u64);
    }
    out
}

/// Decode one `_index.clh` record.
///
/// # Errors
///
/// A short human detail when the bytes are not one whole entry.
pub fn decode_index_entry(bytes: &[u8]) -> std::result::Result<(Value, Vec<Occurrence>), String> {
    let mut r = Reader::new(bytes);
    let value = r.value()?;
    let count = r.u32()? as usize;
    // an untrusted count: each occurrence takes at least 16 bytes
    let mut occs = Vec::with_capacity(count.min(r.remaining() / 16));
    for _ in 0..count {
        let relation = r.str()?.to_owned();
        let attribute = r.str()?.to_owned();
        let row = usize::try_from(r.u64()?).map_err(|_| "row index overflow".to_owned())?;
        occs.push(Occurrence {
            relation,
            attribute,
            row,
        });
    }
    r.done()?;
    Ok((value, occs))
}

/// Log one decode defect the same way the pager logs page defects
/// (rate-limited stderr + `pager.load_errors`) and produce the error.
fn degraded(path: &Path, detail: impl Into<String>) -> Error {
    let detail = detail.into();
    clio_obs::incr(clio_obs::Counter::PagerLoadErrors);
    clio_obs::warn_limited(
        "pager.load",
        &format!("cannot read heap file `{}`: {detail}", path.display()),
    );
    Error::Invalid(format!("`{}`: {detail}", path.display()))
}

/// Write `db` to `dir` as a paged database: `_schema.txt`, one
/// checksummed heap file per relation, and a persisted value index.
/// Every file is built in a tmp sibling and renamed into place
/// ([`clio_pager::write_atomic`]), so a crash never leaves a torn file
/// behind.
///
/// # Errors
///
/// [`Error::Invalid`] wrapping the underlying I/O or pager failure.
pub fn save_database(db: &Database, dir: &Path, page_size: usize) -> Result<()> {
    let io_err = |e: &dyn std::fmt::Display| Error::Invalid(format!("db save: {e}"));
    std::fs::create_dir_all(dir).map_err(|e| io_err(&e))?;
    write_atomic(&dir.join("_schema.txt"), schema_manifest(db).as_bytes())
        .map_err(|e| io_err(&e))?;
    for rel in db.relations() {
        let mut w = HeapWriter::create(&dir.join(heap_name(rel.name())), page_size)
            .map_err(|e| io_err(&e))?;
        for row in rel.rows() {
            w.append(&encode_row(row)).map_err(|e| io_err(&e))?;
        }
        w.finish().map_err(|e| io_err(&e))?;
    }
    // Persist the value index alongside the data so sessions over the
    // paged backend skip the `index.build` scan. Entries are sorted by
    // their encoded bytes so the file is byte-deterministic.
    let index = ValueIndex::build(db);
    let mut entries: Vec<Vec<u8>> = index
        .entries()
        .map(|(v, occs)| encode_index_entry(v, occs))
        .collect();
    entries.sort_unstable();
    let mut w = HeapWriter::create(&dir.join(INDEX_FILE), page_size).map_err(|e| io_err(&e))?;
    for entry in &entries {
        w.append(entry).map_err(|e| io_err(&e))?;
    }
    w.finish().map_err(|e| io_err(&e))?;
    Ok(())
}

/// Open a paged database rooted at `dir` with a buffer pool of
/// `pool_pages` pages shared across all its heap files.
///
/// Every record of every relation is stream-decoded once up front —
/// bounded memory, but all of the pager's fault classes (truncation,
/// torn pages, checksums, versions) surface here as typed errors
/// instead of later, mid-walk.
///
/// # Errors
///
/// [`Error::Invalid`] when the manifest or any heap file is missing or
/// corrupt (each defect also logged and counted in
/// `pager.load_errors`).
pub fn open_paged(dir: &Path, pool_pages: usize) -> Result<Database> {
    let manifest = std::fs::read_to_string(dir.join("_schema.txt")).map_err(|e| {
        Error::Invalid(format!(
            "cannot open paged database `{}`: {e}",
            dir.display()
        ))
    })?;
    let (schemas, keys, fks) = parse_manifest(&manifest)?;
    let pager = Pager::new(pool_pages);
    let mut files = Vec::with_capacity(schemas.len());
    let mut row_counts = Vec::with_capacity(schemas.len());
    for schema in &schemas {
        let path = dir.join(heap_name(schema.name()));
        let file = pager
            .open(&path)
            .map_err(|e| Error::Invalid(format!("cannot open paged database: {e}")))?;
        let mut rows: u64 = 0;
        for rec in pager.cursor(file) {
            let rec =
                rec.map_err(|e| Error::Invalid(format!("cannot open paged database: {e}")))?;
            decode_row(&rec, schema).map_err(|d| degraded(&path, d))?;
            rows += 1;
        }
        if rows != pager.record_count(file) {
            return Err(degraded(
                &path,
                format!(
                    "header claims {} records, file holds {rows}",
                    pager.record_count(file)
                ),
            ));
        }
        files.push(file);
        row_counts.push(rows);
    }
    let cells = schemas.iter().map(|_| OnceLock::new()).collect();
    let paged = PagedStorage {
        inner: Arc::new(PagedInner {
            dir: dir.to_path_buf(),
            pager,
            schemas,
            files,
            row_counts,
            cells,
            index_cell: OnceLock::new(),
        }),
    };
    Ok(Database::from_paged(
        paged,
        Constraints {
            keys,
            foreign_keys: fks,
        },
    ))
}

/// The paged backend behind a [`Database`]: heap files plus lazily
/// faulted relations. Cloning shares the buffer pool and the
/// materialized cells (all mutation goes through
/// [`Database::promote`], which leaves the share untouched).
#[derive(Clone)]
pub struct PagedStorage {
    inner: Arc<PagedInner>,
}

struct PagedInner {
    dir: PathBuf,
    pager: Pager,
    schemas: Vec<RelSchema>,
    files: Vec<clio_pager::FileId>,
    row_counts: Vec<u64>,
    /// Per-relation materialization cell: `None` after a failed load
    /// (already logged), so a bad file is skipped, not retried forever.
    cells: Vec<OnceLock<Option<Relation>>>,
    index_cell: OnceLock<Option<Arc<ValueIndex>>>,
}

impl std::fmt::Debug for PagedStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedStorage")
            .field("dir", &self.inner.dir)
            .field("pool_pages", &self.inner.pager.pool_pages())
            .finish_non_exhaustive()
    }
}

impl PagedStorage {
    pub(crate) fn schemas(&self) -> &[RelSchema] {
        &self.inner.schemas
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.inner.dir
    }

    pub(crate) fn total_rows(&self) -> usize {
        self.inner
            .row_counts
            .iter()
            .map(|&n| usize::try_from(n).expect("row count fits usize"))
            .sum()
    }

    pub(crate) fn relation(&self, name: &str) -> Option<&Relation> {
        let i = self.inner.schemas.iter().position(|s| s.name() == name)?;
        self.relation_at(i)
    }

    pub(crate) fn iter_relations(&self) -> impl Iterator<Item = &Relation> + '_ {
        (0..self.inner.schemas.len()).filter_map(|i| self.relation_at(i))
    }

    pub(crate) fn materialize_all(&self) -> Result<Vec<Relation>> {
        (0..self.inner.schemas.len())
            .map(|i| {
                self.relation_at(i).cloned().ok_or_else(|| {
                    Error::Invalid(format!(
                        "cannot materialize relation `{}` from `{}`",
                        self.inner.schemas[i].name(),
                        self.inner.dir.display()
                    ))
                })
            })
            .collect()
    }

    pub(crate) fn stored_index(&self) -> Option<Arc<ValueIndex>> {
        self.inner
            .index_cell
            .get_or_init(|| self.load_index())
            .clone()
    }

    /// Fault relation `i` in on first touch; a load failure pins the
    /// cell to `None` (the defect is logged and counted exactly once).
    fn relation_at(&self, i: usize) -> Option<&Relation> {
        self.inner.cells[i]
            .get_or_init(|| self.load_relation(i))
            .as_ref()
    }

    fn load_relation(&self, i: usize) -> Option<Relation> {
        let inner = &*self.inner;
        let path = inner.dir.join(heap_name(inner.schemas[i].name()));
        let schema = &inner.schemas[i];
        let mut rows = Vec::new();
        for rec in inner.pager.cursor(inner.files[i]) {
            let rec = rec.ok()?; // pager already logged + counted
            match decode_row(&rec, schema) {
                Ok(row) => rows.push(row),
                Err(detail) => {
                    let _ = degraded(&path, detail);
                    return None;
                }
            }
        }
        Relation::with_rows(schema.clone(), rows)
            .map_err(|e| degraded(&path, e.to_string()))
            .ok()
    }

    fn load_index(&self) -> Option<Arc<ValueIndex>> {
        let path = self.inner.dir.join(INDEX_FILE);
        if !path.exists() {
            // A database saved without an index is fine: rebuild.
            return None;
        }
        let file = self.inner.pager.open(&path).ok()?;
        let mut entries = Vec::new();
        for rec in self.inner.pager.cursor(file) {
            let rec = rec.ok()?;
            match decode_index_entry(&rec) {
                Ok(entry) => entries.push(entry),
                Err(detail) => {
                    let _ = degraded(&path, detail);
                    return None;
                }
            }
        }
        Some(Arc::new(ValueIndex::from_entries(entries)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_pager::DEFAULT_PAGE_SIZE;

    use crate::constraints::Key;
    use crate::relation::RelationBuilder;
    use crate::value::DataType;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clio-storage-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Tricky")
                .attr_not_null("id", DataType::Int)
                .attr("text", DataType::Str)
                .attr("score", DataType::Float)
                .attr("flag", DataType::Bool)
                .row(vec![
                    1i64.into(),
                    "line\nbreak".into(),
                    1.5f64.into(),
                    true.into(),
                ])
                .row(vec![2i64.into(), Value::Null, Value::Null, false.into()])
                .row(vec![3i64.into(), "".into(), (-0.25f64).into(), Value::Null])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("Other")
                .attr_not_null("k", DataType::Str)
                .row(vec!["001".into()])
                .row(vec!["002".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.constraints.keys.push(Key::new("Tricky", vec!["id"]));
        db
    }

    /// Every malformed heap record is an `Err`, never a panic or a
    /// wrong row: each truncation, an arity the schema does not have, an
    /// unknown value tag, a bool byte other than 0 or 1, trailing bytes.
    #[test]
    fn decode_row_rejects_malformed_records() {
        let db = sample_db();
        let schema = db.relation("Tricky").unwrap().schema().clone();
        let row = vec![
            Value::Int(1),
            Value::str("line\nbreak"),
            Value::Float(1.5),
            Value::Bool(true),
        ];
        let good = encode_row(&row);
        assert_eq!(decode_row(&good, &schema).unwrap(), row);
        for n in 0..good.len() {
            assert!(decode_row(&good[..n], &schema).is_err(), "len {n}");
        }
        for arity in [0, 3, 5, u32::MAX] {
            let mut forged = good.clone();
            forged[..4].copy_from_slice(&arity.to_le_bytes());
            assert!(decode_row(&forged, &schema).is_err(), "arity {arity}");
        }
        // the first value's tag follows the 4-byte arity
        let mut forged = good.clone();
        forged[4] = 9;
        let err = decode_row(&forged, &schema).unwrap_err();
        assert!(err.contains("unknown value tag"), "{err}");
        // the record ends with the bool's tag and byte
        let last = good.len() - 1;
        assert_eq!(&good[last - 1..], &[4, 1]);
        let mut forged = good.clone();
        forged[last] = 2;
        let err = decode_row(&forged, &schema).unwrap_err();
        assert!(err.contains("bool"), "{err}");
        let mut trailing = good;
        trailing.push(0);
        assert!(decode_row(&trailing, &schema).is_err());
    }

    #[test]
    fn forged_occurrence_counts_do_not_preallocate() {
        let occ = Occurrence {
            relation: "R".into(),
            attribute: "a".into(),
            row: 7,
        };
        let good = encode_index_entry(&Value::Int(1), std::slice::from_ref(&occ));
        assert_eq!(
            decode_index_entry(&good).unwrap(),
            (Value::Int(1), vec![occ])
        );
        // the count sits after the 9-byte Int value; claiming u32::MAX
        // occurrences must fail on the missing bytes, not reserve ~240 GB
        let mut forged = good.clone();
        forged[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_index_entry(&forged).is_err());
        assert!(decode_index_entry(&forged[..13]).is_err());
    }

    #[test]
    fn database_round_trips_through_paged_directory() {
        let dir = tmp_dir("roundtrip");
        let db = sample_db();
        save_database(&db, &dir, DEFAULT_PAGE_SIZE).unwrap();
        let back = open_paged(&dir, 4).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.paged_dir(), Some(dir.as_path()));
        assert_eq!(back.total_rows(), db.total_rows());
        assert_eq!(back.relation_names(), db.relation_names());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_pool_and_tiny_pages_still_answer_identically() {
        let dir = tmp_dir("tiny");
        let db = sample_db();
        // 64-byte pages fragment every row; a 1-page pool evicts
        // constantly. Answers must not change.
        save_database(&db, &dir, 64).unwrap();
        let back = open_paged(&dir, 1).unwrap();
        assert_eq!(back, db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stored_index_agrees_with_a_fresh_build() {
        let dir = tmp_dir("index");
        let db = sample_db();
        save_database(&db, &dir, DEFAULT_PAGE_SIZE).unwrap();
        let back = open_paged(&dir, 4).unwrap();
        let stored = back.stored_index().expect("index persisted");
        let fresh = ValueIndex::build(&db);
        assert_eq!(stored.distinct_values(), fresh.distinct_values());
        for v in [
            Value::str("001"),
            Value::Int(1),
            Value::str("line\nbreak"),
            Value::Bool(false),
        ] {
            assert_eq!(stored.occurrences(&v), fresh.occurrences(&v), "{v:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_index_degrades_to_a_rebuild_not_a_wrong_answer() {
        let dir = tmp_dir("badindex");
        let db = sample_db();
        save_database(&db, &dir, DEFAULT_PAGE_SIZE).unwrap();
        // Flip one byte inside the index's data page.
        let path = dir.join(INDEX_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[DEFAULT_PAGE_SIZE + 40] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        let back = open_paged(&dir, 4).unwrap();
        assert!(back.stored_index().is_none(), "corrupt index must not load");
        // The data itself is untouched and still serves.
        assert_eq!(back, db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_index_is_quietly_absent() {
        let dir = tmp_dir("noindex");
        save_database(&sample_db(), &dir, DEFAULT_PAGE_SIZE).unwrap();
        std::fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let back = open_paged(&dir, 4).unwrap();
        assert!(back.stored_index().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_heap_file_fails_open_with_a_typed_error() {
        let dir = tmp_dir("badheap");
        save_database(&sample_db(), &dir, DEFAULT_PAGE_SIZE).unwrap();
        let path = dir.join(heap_name("Other"));
        let mut bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        bytes.truncate(len - 16);
        std::fs::write(&path, bytes).unwrap();
        let err = open_paged(&dir, 4).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutation_promotes_to_memory_without_touching_disk() {
        let dir = tmp_dir("promote");
        let db = sample_db();
        save_database(&db, &dir, DEFAULT_PAGE_SIZE).unwrap();
        let before = std::fs::read(dir.join(heap_name("Other"))).unwrap();
        let mut back = open_paged(&dir, 4).unwrap();
        back.relation_mut("Other")
            .unwrap()
            .insert(vec!["003".into()])
            .unwrap();
        assert_eq!(back.relation("Other").unwrap().len(), 3);
        assert!(
            back.paged_dir().is_none(),
            "edit must leave the paged backend"
        );
        assert_eq!(
            std::fs::read(dir.join(heap_name("Other"))).unwrap(),
            before,
            "source directory must be untouched by edits"
        );
        // The directory still opens to the original contents.
        assert_eq!(open_paged(&dir, 4).unwrap(), db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saves_are_byte_deterministic() {
        let a = tmp_dir("det-a");
        let b = tmp_dir("det-b");
        let db = sample_db();
        save_database(&db, &a, DEFAULT_PAGE_SIZE).unwrap();
        save_database(&db, &b, DEFAULT_PAGE_SIZE).unwrap();
        for name in ["_schema.txt", "Tricky.clh", "Other.clh", INDEX_FILE] {
            assert_eq!(
                std::fs::read(a.join(name)).unwrap(),
                std::fs::read(b.join(name)).unwrap(),
                "{name}"
            );
        }
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn open_missing_directory_is_an_error() {
        let dir = tmp_dir("gone").join("nope");
        assert!(open_paged(&dir, 4).is_err());
    }
}
