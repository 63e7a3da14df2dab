//! Derived tables: the working representation of join results and data
//! associations.
//!
//! A [`Table`] pairs a wide, qualified [`Scheme`] with rows. Unlike stored
//! [`Relation`](crate::relation::Relation)s, tables permit all-null rows
//! (padding during outer operations produces them transiently) and do not
//! deduplicate on push — operators deduplicate where the algebra requires it.
//!
//! Set semantics are hashed: [`Table::push_distinct`] is amortized O(1)
//! (a lazily built row index, see below) and [`Table::dedup`] is one
//! linear pass. Both keep the first occurrence of each row, and both
//! decide membership with `Value`'s `==` — a hash match is only a
//! candidate — so they answer exactly what a `Vec::contains` scan would.
//!
//! The crate's row index (`RowIndex`) hashes each key once, in place,
//! with a keyed `RandomState`, and files it under that hash as is: the
//! joins, `push_distinct` and the subsumption probes pay one hash per
//! key and allocate nothing per key.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use clio_obs::metrics::{self, Counter};

use crate::display::render_table;
use crate::error::Result;
use crate::schema::{ColumnRef, Scheme};
use crate::value::Value;

/// A derived table: wide scheme + rows.
///
/// `Clone`, `PartialEq` and `Debug` see only the scheme and the rows: the
/// [`Table::push_distinct`] index is a cache, never copied or compared.
pub struct Table {
    scheme: Scheme,
    rows: Vec<Vec<Value>>,
    /// Row index for [`Table::push_distinct`], built on its first call
    /// and dropped by every other mutation.
    index: Option<Box<RowIndex>>,
}

/// Exact hash index over rows by a set of key columns: each key hash
/// heads a chain of the positions whose keys share it. A hash match is
/// only a candidate; the caller confirms it with the equality it needs
/// (`Value`'s `==` for set semantics, SQL `=` for join keys). Serves
/// [`Table::push_distinct`] (the key is the whole row), the build side of
/// a hash join, and the projection probes of subsumption removal.
///
/// A key is hashed once: its values are fed in place to a keyed
/// [`RandomState`] hasher (so colliding keys cannot be chosen in
/// advance), and the `heads` map uses that `u64` as its own hash
/// (`PassThrough`) instead of hashing it a second time.
#[derive(Default)]
pub(crate) struct RowIndex {
    hasher: RandomState,
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

    /// Index every row whole, in order.
    fn build(rows: &[Vec<Value>]) -> RowIndex {
        let mut index = RowIndex::with_capacity(rows.len());
        for (p, row) in rows.iter().enumerate() {
            let hash = index.hash(row);
            index.link(p, hash);
        }
        index
    }

    /// Hash a key: the values in order, hashed in place.
    pub(crate) fn hash<'v>(&self, key: impl IntoIterator<Item = &'v Value>) -> u64 {
        let mut state = self.hasher.build_hasher();
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
    /// asserted (operator code constructs rows, not end users).
    #[must_use]
    pub fn new(scheme: Scheme, rows: Vec<Vec<Value>>) -> Table {
        debug_assert!(rows.iter().all(|r| r.len() == scheme.arity()));
        Table {
            scheme,
            rows,
            index: None,
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
    /// scheme's arity.
    pub fn rows_mut(&mut self) -> &mut Vec<Vec<Value>> {
        self.index = None;
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

    /// Push a row (no dedup).
    pub fn push(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.scheme.arity());
        self.index = None;
        self.rows.push(row);
    }

    /// Push a row only if an identical row is not already present.
    /// Amortized O(1): the first call indexes the rows already present,
    /// later calls keep that index up to date.
    pub fn push_distinct(&mut self, row: Vec<Value>) {
        metrics::incr(Counter::DedupRows);
        let rows = &mut self.rows;
        let index = self
            .index
            .get_or_insert_with(|| Box::new(RowIndex::build(rows)));
        let hash = index.hash(&row);
        if !index.candidates(hash).any(|p| rows[p] == row) {
            index.link(rows.len(), hash);
            rows.push(row);
        }
    }

    /// Remove exact duplicate rows, preserving first-occurrence order.
    pub fn dedup(&mut self) {
        self.index = None;
        dedup_rows(&mut self.rows);
    }

    /// The value of `col` in row `row_idx`.
    pub fn value(&self, row_idx: usize, col: &ColumnRef) -> Result<&Value> {
        let idx = self.scheme.resolve(col)?;
        Ok(&self.rows[row_idx][idx])
    }

    /// Sort rows by the total value order, column by column. Gives
    /// deterministic output for golden tests and rendered figures.
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

    /// Project row `row_idx` onto the columns of `sub` (which must be a
    /// sub-scheme of this table's scheme).
    pub fn project_row(&self, row_idx: usize, sub: &Scheme) -> Result<Vec<Value>> {
        let pos = self.scheme.positions_of(sub)?;
        Ok(pos.iter().map(|&i| self.rows[row_idx][i].clone()).collect())
    }
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table::new(self.scheme.clone(), self.rows.clone())
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
    fn project_row_onto_sub_scheme() {
        let t = t();
        let sub = Scheme::new(vec![t.scheme().columns()[1].clone()]);
        assert_eq!(t.project_row(0, &sub).unwrap(), vec![Value::str("y")]);
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
