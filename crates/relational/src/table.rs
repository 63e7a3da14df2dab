//! Derived tables: the working representation of join results and data
//! associations.
//!
//! A [`Table`] pairs a wide, qualified [`Scheme`] with rows. Unlike stored
//! [`Relation`](crate::relation::Relation)s, tables permit all-null rows
//! (padding during outer operations produces them transiently) and do not
//! deduplicate on push — operators deduplicate where the algebra requires it.
//!
//! Set semantics are hashed: [`Table::push_distinct`] is amortized O(1)
//! (a lazily built row index, see below), [`Table::extend_distinct`]
//! merges a whole table the same way, and [`Table::dedup`] is one
//! linear pass. All keep the first occurrence of each row, and all
//! decide membership with `Value`'s `==` — a hash match is only a
//! candidate — so they answer exactly what a `Vec::contains` scan would.
//!
//! **One probe, owned rows or borrowed cells.** A row is offered to the
//! index either owned ([`Table::push_distinct`], `extend_distinct`) or
//! as a view of cells that lie elsewhere ([`Table::push_distinct_view`]:
//! a projection's target row, read through its association). Both go
//! through the same probe: the cells are hashed where they lie, each
//! candidate is confirmed cell by cell with `==`, and only a row the
//! table keeps is stored. An owned row is moved in; a view's cells are
//! cloned into a new row then, and only then, so a duplicate offered as
//! a view allocates nothing.
//!
//! **One hasher.** The crate's row index (`RowIndex`) hashes each key
//! once, in place, and files it under that hash as is: the joins, the
//! distinct pushes and the subsumption probes pay one hash per key and
//! allocate nothing per key. Every index hashes with one keyed
//! `RandomState`, created on first use and kept for the process: a hash
//! computed for one index is valid in every other, and the key is still
//! random per process, so colliding keys cannot be chosen in advance.
//!
//! **Stored hashes.** A table's `push_distinct` index keeps each row's
//! hash beside it, so [`Table::extend_distinct`] links another table's
//! rows under the hashes that table computed when its rows were pushed,
//! without hashing them again. The join and subsumption indexes keep no
//! hashes.
//!
//! **The set flag.** A table knows when it is a set (`Table::is_set`):
//! every row came through `push_distinct`, `extend_distinct` or
//! [`Table::dedup`]. The flag
//! survives `Clone` and [`Table::sort_canonical`]; [`Table::new`],
//! [`Table::push`] and [`Table::rows_mut`] clear it. Subsumption removal
//! skips its duplicate pass on a set, and `extend_distinct` into an
//! empty table takes a set whole.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

use clio_obs::metrics::{self, Counter};

use crate::display::render_table;
use crate::error::Result;
use crate::expr::Cells;
use crate::schema::{ColumnRef, Scheme};
use crate::value::Value;

/// A derived table: wide scheme + rows.
///
/// `PartialEq` and `Debug` see only the scheme and the rows. `Clone`
/// copies the set flag but not the [`Table::push_distinct`] index, which
/// is a cache.
pub struct Table {
    scheme: Scheme,
    rows: Vec<Vec<Value>>,
    /// Row index for [`Table::push_distinct`] and
    /// [`Table::extend_distinct`], built on the first call of either and
    /// dropped by every other mutation.
    index: Option<Box<RowSet>>,
    /// Whether every row is known to be distinct (`Table::is_set`).
    set: bool,
}

/// Exact hash index over rows by a set of key columns: each key hash
/// heads a chain of the positions whose keys share it. A hash match is
/// only a candidate; the caller confirms it with the equality it needs
/// (`Value`'s `==` for set semantics, SQL `=` for join keys). Serves
/// [`Table::push_distinct`] (the key is the whole row), the build side of
/// a hash join, and the projection probes of subsumption removal.
///
/// A key is hashed once: its values are fed in place to the process's
/// keyed [`RandomState`] hasher (see the module docs), and the `heads`
/// map uses that `u64` as its own hash (`PassThrough`) instead of
/// hashing it a second time.
#[derive(Default)]
pub(crate) struct RowIndex {
    /// Key hash → the first position of its chain.
    heads: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    /// `next[p]`: the position after `p` on its chain, if any.
    next: Vec<Option<usize>>,
}

impl RowIndex {
    /// An empty index expecting about `positions` linked positions.
    pub(crate) fn with_capacity(positions: usize) -> RowIndex {
        let mut index = RowIndex::default();
        index.heads.reserve(positions);
        index.next.reserve(positions);
        index
    }

    /// Hash a key: the values in order, hashed in place with the
    /// process's one keyed hasher.
    pub(crate) fn hash<'v>(key: impl IntoIterator<Item = &'v Value>) -> u64 {
        static HASHER: OnceLock<RandomState> = OnceLock::new();
        let mut state = HASHER.get_or_init(RandomState::new).build_hasher();
        key.into_iter().for_each(|v| v.hash(&mut state));
        state.finish()
    }

    /// Put `position` at the head of its key's chain: a chain lists its
    /// positions in the reverse of the order they were linked in.
    pub(crate) fn link(&mut self, position: usize, hash: u64) {
        if position >= self.next.len() {
            self.next.resize(position + 1, None);
        }
        self.next[position] = self.heads.insert(hash, position);
    }

    /// The positions on the chain of `hash`, head first.
    pub(crate) fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.heads.get(&hash).copied(), |&p| self.next[p])
    }
}

/// The hasher of [`RowIndex`]'s `heads`: its keys are already keyed
/// hashes, so the `u64` passes through unchanged.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("RowIndex heads are keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A table's [`Table::push_distinct`] index: every row linked whole
/// under its hash, and `hashes[p]` the hash of row `p`.
struct RowSet {
    index: RowIndex,
    hashes: Vec<u64>,
}

impl RowSet {
    /// Index every row whole, in order; and whether no row equals an
    /// earlier one.
    fn build(rows: &[Vec<Value>]) -> (RowSet, bool) {
        let mut set = RowSet {
            index: RowIndex::with_capacity(rows.len()),
            hashes: Vec::with_capacity(rows.len()),
        };
        let mut distinct = true;
        for row in rows {
            let hash = RowIndex::hash(row);
            distinct = distinct && !set.holds(rows, row.iter(), hash);
            set.link(hash);
        }
        (set, distinct)
    }

    /// Does a linked row of `rows` equal the row `cells` reads, whose
    /// hash is `hash`? Each candidate is confirmed cell by cell with
    /// `Value`'s `==`.
    fn holds<'v>(
        &self,
        rows: &[Vec<Value>],
        cells: impl Iterator<Item = &'v Value> + Clone,
        hash: u64,
    ) -> bool {
        self.index
            .candidates(hash)
            .any(|p| rows[p].iter().eq(cells.clone()))
    }

    /// Link the next position under `hash`.
    fn link(&mut self, hash: u64) {
        self.index.link(self.hashes.len(), hash);
        self.hashes.push(hash);
    }
}

/// Drop exact duplicate rows, keeping each row's first occurrence. One
/// hashed pass; counts every row offered in `dedup.rows`.
pub(crate) fn dedup_rows(rows: &mut Vec<Vec<Value>>) {
    metrics::add(Counter::DedupRows, rows.len() as u64);
    let keep: Vec<bool> = {
        let mut seen: HashSet<&[Value]> = HashSet::with_capacity(rows.len());
        rows.iter().map(|row| seen.insert(row.as_slice())).collect()
    };
    let mut keep = keep.into_iter();
    rows.retain(|_| keep.next().expect("retain visits each row once, in order"));
}

impl Table {
    /// Build from parts. Rows must match the scheme's arity; this is
    /// asserted (operator code constructs rows, not end users). The
    /// table is not flagged as a set, whatever its rows.
    #[must_use]
    pub fn new(scheme: Scheme, rows: Vec<Vec<Value>>) -> Table {
        debug_assert!(rows.iter().all(|r| r.len() == scheme.arity()));
        Table {
            scheme,
            rows,
            index: None,
            set: false,
        }
    }

    /// An empty table over `scheme`.
    #[must_use]
    pub fn empty(scheme: Scheme) -> Table {
        Table::new(scheme, Vec::new())
    }

    /// The scheme.
    #[must_use]
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// The rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Mutable access to the rows. Callers must keep every row at the
    /// scheme's arity. Clears the set flag.
    pub fn rows_mut(&mut self) -> &mut Vec<Vec<Value>> {
        self.index = None;
        self.set = false;
        &mut self.rows
    }

    /// Consume into rows.
    #[must_use]
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Is the table known to be a set: did every row come through
    /// [`Table::push_distinct`], [`Table::extend_distinct`] or
    /// [`Table::dedup`]? `false` says only that no such guarantee is
    /// kept, not that the rows repeat.
    #[must_use]
    pub(crate) fn is_set(&self) -> bool {
        self.set
    }

    /// Push a row (no dedup). Clears the set flag.
    pub fn push(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.scheme.arity());
        self.index = None;
        self.set = false;
        self.rows.push(row);
    }

    /// Push a row only if an identical row is not already present.
    /// Amortized O(1): the first call indexes the rows already present
    /// (and flags the table a set when none of them repeats), later
    /// calls keep that index up to date.
    pub fn push_distinct(&mut self, row: Vec<Value>) {
        metrics::incr(Counter::DedupRows);
        let hash = RowIndex::hash(&row);
        if self.admit(row.iter(), hash) {
            self.rows.push(row);
        }
    }

    /// [`Table::push_distinct`] of the row `row` views, one cell per
    /// column: the cells are hashed and compared where they lie, and
    /// cloned into a new row only when no equal row is present.
    pub fn push_distinct_view<C: Cells + ?Sized>(&mut self, row: &C) {
        metrics::incr(Counter::DedupRows);
        let cells = (0..self.scheme.arity()).map(|i| row.at(i));
        let hash = RowIndex::hash(cells.clone());
        if self.admit(cells.clone(), hash) {
            self.rows.push(cells.cloned().collect());
        }
    }

    /// Push every row of `other` that is not already present, in order:
    /// the rows [`Table::push_distinct`] of each would keep. A row is
    /// hashed at most once: into an empty table a set is taken whole,
    /// with its index if it has one; otherwise `other`'s rows are linked
    /// under the hashes its own index kept (hashed here only when it
    /// has none), each candidate confirmed with `==`. Counts the rows
    /// tested in `dedup.rows`; a set taken whole is tested against
    /// nothing. The schemes must have the same arity.
    pub fn extend_distinct(&mut self, other: Table) {
        debug_assert_eq!(self.scheme.arity(), other.scheme.arity());
        if self.rows.is_empty() && other.set {
            self.rows = other.rows;
            self.index = other.index;
            self.set = true;
            return;
        }
        metrics::add(Counter::DedupRows, other.rows.len() as u64);
        let hashes = match other.index {
            Some(kept) => kept.hashes,
            None => other.rows.iter().map(RowIndex::hash).collect(),
        };
        for (row, hash) in other.rows.into_iter().zip(hashes) {
            if self.admit(row.iter(), hash) {
                self.rows.push(row);
            }
        }
    }

    /// The one probe of every distinct push: is the row `cells` reads,
    /// whose hash is `hash`, new? When it is, its position is linked
    /// under `hash` and the caller must push it next. The first probe
    /// indexes the rows already present.
    fn admit<'v>(&mut self, cells: impl Iterator<Item = &'v Value> + Clone, hash: u64) -> bool {
        let rows = &self.rows;
        let index = self.index.get_or_insert_with(|| {
            let (index, distinct) = RowSet::build(rows);
            self.set = distinct;
            Box::new(index)
        });
        let new = !index.holds(rows, cells, hash);
        if new {
            index.link(hash);
        }
        new
    }

    /// Remove exact duplicate rows, preserving first-occurrence order.
    /// Flags the table a set.
    pub fn dedup(&mut self) {
        self.index = None;
        self.set = true;
        dedup_rows(&mut self.rows);
    }

    /// Keep the rows whose flag in `keep` is set, in order. A set stays
    /// one. `keep` must hold one flag per row.
    pub(crate) fn retain(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.rows.len());
        self.index = None;
        let mut keep = keep.iter();
        self.rows
            .retain(|_| *keep.next().expect("one flag per row"));
    }

    /// The value of `col` in row `row_idx`.
    pub fn value(&self, row_idx: usize, col: &ColumnRef) -> Result<&Value> {
        let idx = self.scheme.resolve(col)?;
        Ok(&self.rows[row_idx][idx])
    }

    /// Sort rows by the total value order, column by column. Gives
    /// deterministic output for golden tests and rendered figures. A
    /// set stays one.
    pub fn sort_canonical(&mut self) {
        self.index = None;
        self.rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x.total_cmp(y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            set: self.set,
            ..Table::new(self.scheme.clone(), self.rows.clone())
        }
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.scheme == other.scheme && self.rows == other.rows
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("scheme", &self.scheme)
            .field("rows", &self.rows)
            .finish()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render_table(&self.scheme, &self.rows, &[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::value::DataType;

    fn t() -> Table {
        RelationBuilder::new("R")
            .attr("a", DataType::Int)
            .attr("b", DataType::Str)
            .row(vec![2i64.into(), "y".into()])
            .row(vec![1i64.into(), "x".into()])
            .build()
            .unwrap()
            .to_table("R")
    }

    #[test]
    fn value_lookup() {
        let t = t();
        assert_eq!(
            t.value(0, &ColumnRef::qualified("R", "b")).unwrap(),
            &Value::str("y")
        );
        assert!(t.value(0, &ColumnRef::qualified("S", "b")).is_err());
    }

    #[test]
    fn sort_canonical_orders_rows() {
        let mut t = t();
        t.sort_canonical();
        assert_eq!(t.rows()[0][0], Value::Int(1));
        assert_eq!(t.rows()[1][0], Value::Int(2));
    }

    /// Equality is exact across Int and Float past 2^53, so a distinct
    /// table keeps the same rows whatever order they arrive in.
    #[test]
    fn push_distinct_past_two_to_the_53_keeps_the_same_rows_in_any_order() {
        use crate::schema::Column;
        let big = 1i64 << 53;
        let pushed = |values: [Value; 3]| {
            let column = Column::new("R", "x", DataType::Float);
            let mut t = Table::empty(Scheme::new(vec![column]));
            for v in values {
                t.push_distinct(vec![v]);
            }
            t.rows().to_vec()
        };
        let a = pushed([
            Value::Float(big as f64),
            Value::Int(big),
            Value::Int(big + 1),
        ]);
        let b = pushed([
            Value::Int(big),
            Value::Int(big + 1),
            Value::Float(big as f64),
        ]);
        assert_eq!(
            a,
            vec![vec![Value::Float(big as f64)], vec![Value::Int(big + 1)]]
        );
        assert_eq!(b, vec![vec![Value::Int(big)], vec![Value::Int(big + 1)]]);
    }

    #[test]
    fn push_distinct_and_dedup() {
        let mut t = t();
        t.push_distinct(vec![1i64.into(), "x".into()]);
        assert_eq!(t.len(), 2);
        t.push(vec![1i64.into(), "x".into()]);
        assert_eq!(t.len(), 3);
        t.dedup();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn push_distinct_stays_exact_after_every_mutation_drops_its_index() {
        let row = |a: i64, b: &str| vec![Value::Int(a), Value::str(b)];
        let mut t = t();
        t.push_distinct(row(3, "z"));
        assert!(t.index.is_some(), "first push_distinct builds the index");

        t.push(row(4, "w"));
        assert!(t.index.is_none(), "push drops the index");
        t.push_distinct(row(4, "w"));
        t.push_distinct(row(5, "v"));
        assert_eq!(t.len(), 5, "the rebuilt index saw the plain push");

        t.rows_mut().push(row(6, "u"));
        assert!(t.index.is_none(), "rows_mut drops the index");
        t.push_distinct(row(6, "u"));
        assert_eq!(t.len(), 6);

        t.sort_canonical();
        assert!(t.index.is_none(), "sort_canonical drops the index");
        t.push_distinct(row(1, "x"));
        t.push_distinct(row(7, "t"));
        assert_eq!(t.len(), 7);

        t.push(row(7, "t"));
        t.push_distinct(row(8, "s"));
        t.dedup();
        assert!(t.index.is_none(), "dedup drops the index");
        t.push_distinct(row(8, "s"));
        t.push_distinct(row(7, "t"));
        assert_eq!(t.len(), 8);
        let firsts: Vec<i64> = t
            .rows()
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(firsts, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn the_push_distinct_index_is_invisible_to_clone_and_equality() {
        let mut indexed = t();
        indexed.push_distinct(vec![3i64.into(), "z".into()]);
        let mut plain = t();
        plain.push(vec![3i64.into(), "z".into()]);
        assert!(indexed.index.is_some() && plain.index.is_none());
        assert_eq!(indexed, plain);
        assert_eq!(format!("{indexed:?}"), format!("{plain:?}"));
        let copy = indexed.clone();
        assert!(copy.index.is_none(), "clones carry no index");
        assert_eq!(copy, indexed);
    }

    fn row(a: i64, b: &str) -> Vec<Value> {
        vec![Value::Int(a), Value::str(b)]
    }

    /// `t()`'s scheme, built without a relation (which counts
    /// `dedup.rows`).
    fn scheme() -> Scheme {
        use crate::schema::Column;
        Scheme::new(vec![
            Column::new("R", "a", DataType::Int),
            Column::new("R", "b", DataType::Str),
        ])
    }

    /// A set built by `push_distinct`, as a projection builds one.
    fn pushed(rows: &[(i64, &str)]) -> Table {
        let mut t = Table::empty(scheme());
        for &(a, b) in rows {
            t.push_distinct(row(a, b));
        }
        t
    }

    /// The rows as they are, not flagged a set.
    fn listed(rows: &[(i64, &str)]) -> Table {
        Table::new(scheme(), rows.iter().map(|&(a, b)| row(a, b)).collect())
    }

    #[test]
    fn the_set_flag_follows_how_the_rows_came_in() {
        let mut t = t();
        assert!(!t.is_set(), "Table::new promises nothing");
        t.push_distinct(row(3, "z"));
        assert!(t.is_set(), "indexing found no repeated row");
        t.sort_canonical();
        assert!(t.is_set(), "sorting keeps a set");
        assert!(t.clone().is_set(), "clones keep the flag");
        t.push(row(3, "z"));
        assert!(!t.is_set(), "push clears it");
        t.push_distinct(row(4, "w"));
        assert!(!t.is_set(), "a repeated row was indexed");
        t.dedup();
        assert!(t.is_set(), "dedup makes a set");
        t.rows_mut();
        assert!(!t.is_set(), "rows_mut clears it");
        t.retain(&[true, false, true, true]);
        assert!(!t.is_set(), "retain keeps what was there");
        let mut set = pushed(&[(1, "x"), (2, "y")]);
        set.retain(&[false, true]);
        assert!(set.is_set() && set.len() == 1, "a subset of a set is one");
    }

    #[test]
    fn extend_distinct_keeps_what_push_distinct_would() {
        let a = [(1, "x"), (2, "y"), (3, "z")];
        let b = [(3, "z"), (4, "w"), (1, "x"), (5, "v"), (4, "w")];
        let by_row = |parts: &[&[(i64, &str)]]| {
            let mut t = Table::empty(scheme());
            for &(x, y) in parts.iter().copied().flatten() {
                t.push_distinct(row(x, y));
            }
            t
        };
        // `other` with its index, as a clone without it, and as a table
        // that is not flagged a set (it repeats a row)
        type Make = fn(&[(i64, &str)]) -> Table;
        let others: [Make; 3] = [pushed, |r| pushed(r).clone(), listed];
        for (k, other) in others.iter().enumerate() {
            for start in [pushed(&a), listed(&a), Table::empty(scheme())] {
                let expected = if start.is_empty() {
                    by_row(&[&b])
                } else {
                    by_row(&[&a, &b])
                };
                let mut merged = start;
                merged.extend_distinct(other(&b));
                assert_eq!(merged.rows(), expected.rows(), "other #{k}");
                assert!(merged.is_set(), "other #{k}");
                // the merged index stays exact for later pushes
                merged.push_distinct(row(5, "v"));
                merged.push_distinct(row(6, "u"));
                assert_eq!(merged.len(), expected.len() + 1, "other #{k}");
            }
        }
    }

    #[test]
    fn extend_distinct_takes_a_set_whole_and_hashes_no_row_twice() {
        let rec = clio_obs::Recorder::new();
        rec.run(|| {
            let mut merged = Table::empty(scheme());
            let first = pushed(&[(1, "x"), (2, "y")]); // 2
            merged.extend_distinct(first); // taken whole: + 0
            assert!(merged.index.is_some(), "with its index");
            merged.extend_distinct(pushed(&[(2, "y"), (3, "z"), (4, "w")])); // 3 + 3
            assert_eq!(merged.len(), 4);
        });
        assert_eq!(rec.snapshot().get(Counter::DedupRows), 2 + 3 + 3);
        // every stored hash is the one a fresh hash of its row gives
        let mut t = pushed(&[(1, "x"), (2, "y")]);
        t.extend_distinct(pushed(&[(3, "z")]).clone());
        let kept = &t.index.as_ref().expect("indexed").hashes;
        let fresh: Vec<u64> = t.rows().iter().map(RowIndex::hash).collect();
        assert_eq!(kept, &fresh);
    }

    #[test]
    fn pushing_views_keeps_what_pushing_owned_rows_keeps() {
        /// A row read through a permutation of a wider record, as a
        /// projection reads its target cells.
        struct Picked<'a>(&'a [Value], [usize; 2]);
        impl Cells for Picked<'_> {
            fn at(&self, i: usize) -> &Value {
                &self.0[self.1[i]]
            }
        }
        let records: Vec<[Value; 3]> = vec![
            [Value::str("x"), Value::Null, Value::Int(1)],
            [Value::str("x"), Value::Int(0), Value::Float(1.0)],
            [Value::str("y"), Value::Null, Value::Int(1)],
            [Value::str("x"), Value::Null, Value::Float(1.5)],
            [Value::str("y"), Value::Int(7), Value::Int(1)],
            // 2^53 and 2^53 + 1 hash alike: only `==` keeps both
            [Value::str("z"), Value::Null, Value::Int(1 << 53)],
            [Value::str("z"), Value::Null, Value::Int((1 << 53) + 1)],
        ];
        let (rec_owned, rec_views) = (clio_obs::Recorder::new(), clio_obs::Recorder::new());
        for start in [Table::empty(scheme()), listed(&[(1, "x"), (1, "x")]), t()] {
            let start_len = start.len();
            let mut owned = start.clone();
            let mut views = start;
            rec_owned.run(|| {
                for r in &records {
                    owned.push_distinct(vec![r[2].clone(), r[0].clone()]);
                }
            });
            rec_views.run(|| {
                for r in &records {
                    views.push_distinct_view(&Picked(r, [2, 0]));
                }
            });
            assert_eq!(format!("{:?}", views.rows()), format!("{:?}", owned.rows()));
            assert_eq!(views.is_set(), owned.is_set());
            if start_len == 0 {
                assert_eq!(views.len(), 5, "two offered rows repeat an earlier one");
            }
        }
        let (a, b) = (rec_owned.snapshot(), rec_views.snapshot());
        assert_eq!(a.get(Counter::DedupRows), 3 * records.len() as u64);
        assert_eq!(b.get(Counter::DedupRows), a.get(Counter::DedupRows));
    }

    #[test]
    fn dedup_rows_counts_every_row_offered() {
        use crate::relation::Relation;
        use crate::schema::{Attribute, RelSchema};
        let rec = clio_obs::Recorder::new();
        rec.run(|| {
            let mut t = t();
            for i in 0..5 {
                t.push_distinct(vec![Value::Int(i % 3), "x".into()]); // 5
            }
            t.dedup(); // + the 6 rows present (2 seeded, 4 pushed)
            let schema = RelSchema::new("R", vec![Attribute::new("a", DataType::Int)]).unwrap();
            let rows = vec![
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ];
            Relation::with_rows(schema, rows).unwrap(); // + 3
        });
        let counted = rec.snapshot().get(Counter::DedupRows);
        assert_eq!(counted, 5 + 6 + 3);
    }

    #[test]
    fn display_contains_headers_and_null_dash() {
        let mut t = t();
        t.push(vec![Value::Null, "z".into()]);
        let s = t.to_string();
        assert!(s.contains("R.a"));
        assert!(s.contains("R.b"));
        assert!(s.contains('-'));
    }
}
