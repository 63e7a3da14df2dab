//! Stored relations: a [`RelSchema`] plus a set of tuples.
//!
//! Following the paper's preliminaries, a relation is a *named, finite set
//! of tuples*; we additionally enforce the paper's standing assumption that
//! no stored tuple is null on **all** attributes ("the relations in the
//! source database do not contain any tuples that are null on all
//! attributes").

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::error::{Error, Result};
use crate::schema::{Attribute, RelSchema, Scheme};
use crate::table::{dedup_rows, RowIndex, Table};
use crate::value::{DataType, Value};

/// A stored relation.
///
/// `PartialEq` and `Debug` see only the schema and the rows: the
/// near-duplicate flag ([`Relation::has_near_duplicates`]) and the kept
/// join indexes are caches of them, which `Clone` shares.
pub struct Relation {
    schema: RelSchema,
    rows: Vec<Vec<Value>>,
    /// [`Relation::has_near_duplicates`], computed on its first call and
    /// reset by [`Relation::insert`].
    near_duplicates: OnceLock<bool>,
    /// The hash joins' indexes of the rows, one per list of key columns
    /// ([`Relation::join_index`]), dropped by [`Relation::insert`].
    join_indexes: JoinIndexes,
}

/// A relation's kept join indexes, keyed by their key columns. Behind a
/// lock: the sessions of a pool and the engine's workers join one
/// shared relation at once.
type JoinIndexes = Mutex<Vec<(Vec<usize>, Arc<RowIndex>)>>;

impl Relation {
    /// An empty relation with the given scheme.
    #[must_use]
    pub fn empty(schema: RelSchema) -> Relation {
        Relation {
            schema,
            rows: Vec::new(),
            near_duplicates: OnceLock::new(),
            join_indexes: JoinIndexes::default(),
        }
    }

    /// Build a relation from `rows`: each row is validated as
    /// [`Relation::insert`] validates it (the first invalid row is the
    /// error), then exact duplicates are dropped in one hashed pass that
    /// keeps first occurrences — the rows `insert` in a loop would keep.
    pub fn with_rows(schema: RelSchema, mut rows: Vec<Vec<Value>>) -> Result<Relation> {
        let mut rel = Relation::empty(schema);
        for row in &rows {
            rel.check_row(row)?;
        }
        dedup_rows(&mut rows);
        rel.rows = rows;
        Ok(rel)
    }

    /// The relation scheme.
    #[must_use]
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// The relation name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// The stored tuples, in insertion order.
    #[must_use]
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a tuple. Validates arity, types, `NOT NULL` attributes, the
    /// all-null prohibition, and set semantics (exact duplicates are
    /// silently ignored, as relations are sets). Each call scans the
    /// stored rows; load many rows at once with [`Relation::with_rows`].
    pub fn insert(&mut self, row: Vec<Value>) -> Result<()> {
        self.check_row(&row)?;
        if !self.rows.contains(&row) {
            self.rows.push(row);
            self.near_duplicates = OnceLock::new();
            self.join_indexes = JoinIndexes::default();
        }
        Ok(())
    }

    /// Does the relation hold a *near-duplicate*: a tuple that another of
    /// its tuples subsumes (paper Def 3.8, under `Value`'s `==` — the
    /// predicate [`remove_subsumed_naive`](crate::ops::remove_subsumed_naive)
    /// uses) or equals? A copy of a tuple with a nullable cell set to
    /// null is one.
    ///
    /// Computed on the first call (span `relation.near_duplicates`) and
    /// kept until [`Relation::insert`] changes the rows. The pass clones
    /// no row and tests only the tuples that hold a null: relations are
    /// sets, so a null-free tuple is subsumed only by itself. It counts
    /// no work counter: it is a property of the data, not of a query.
    ///
    /// Without near-duplicates, two tuples of the relation agree on the
    /// non-null cells of one of them only when they are the same tuple —
    /// what lets the `D(G)` plans compare combinations of tuples by
    /// their positions instead of their values.
    pub fn has_near_duplicates(&self) -> bool {
        *self.near_duplicates.get_or_init(|| {
            let _span = clio_obs::span("relation.near_duplicates");
            let scheme = Scheme::of_relation(&self.schema, self.name());
            crate::ops::holds_subsumed_row(&(&scheme, self.rows.as_slice()))
        })
    }

    /// The hash index of the rows on the attribute positions `keys`, as
    /// a join with this relation as its build side reads it: `build`
    /// makes it on the first call for these keys (span
    /// `relation.join_index`), and it is kept until
    /// [`Relation::insert`] changes the rows. The lock is held while
    /// `build` runs, so concurrent joins build an index once.
    pub(crate) fn join_index(
        &self,
        keys: &[usize],
        build: impl FnOnce() -> RowIndex,
    ) -> Arc<RowIndex> {
        let mut kept = self
            .join_indexes
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, index)) = kept.iter().find(|(k, _)| k == keys) {
            return Arc::clone(index);
        }
        let _span = clio_obs::span("relation.join_index");
        let index = Arc::new(build());
        kept.push((keys.to_vec(), Arc::clone(&index)));
        index
    }

    /// The checks [`Relation::insert`] makes before its duplicate test.
    fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        if row.iter().all(Value::is_null) {
            return Err(Error::Invalid(format!(
                "all-null tuple rejected in relation `{}` (paper Sec 3 assumption)",
                self.name()
            )));
        }
        for (v, a) in row.iter().zip(self.schema.attrs()) {
            if v.is_null() && a.not_null {
                return Err(Error::NullViolation {
                    relation: self.name().to_owned(),
                    attribute: a.name.clone(),
                });
            }
            if !v.conforms_to(a.ty) {
                return Err(Error::TypeMismatch(format!(
                    "value `{v}` does not conform to {}.{}: {}",
                    self.name(),
                    a.name,
                    a.ty
                )));
            }
        }
        Ok(())
    }

    /// The value at `(row, attr)`.
    pub fn value(&self, row: usize, attr: &str) -> Result<&Value> {
        let idx = self.schema.index_of(attr)?;
        self.rows
            .get(row)
            .map(|r| &r[idx])
            .ok_or_else(|| Error::Invalid(format!("row {row} out of bounds in `{}`", self.name())))
    }

    /// All values of one attribute, in row order.
    pub fn column(&self, attr: &str) -> Result<Vec<&Value>> {
        let idx = self.schema.index_of(attr)?;
        Ok(self.rows.iter().map(|r| &r[idx]).collect())
    }

    /// Find rows where `attr == value` under SQL equality.
    pub fn rows_where(&self, attr: &str, value: &Value) -> Result<Vec<&Vec<Value>>> {
        let idx = self.schema.index_of(attr)?;
        Ok(self
            .rows
            .iter()
            .filter(|r| r[idx].sql_eq(value).passes())
            .collect())
    }

    /// Convert to a derived [`Table`] under the given alias.
    #[must_use]
    pub fn to_table(&self, alias: &str) -> Table {
        Table::new(Scheme::of_relation(&self.schema, alias), self.rows.clone())
    }

    /// A renamed copy (relation copies in mappings, e.g. `Parents2`).
    #[must_use]
    pub fn renamed(&self, new_name: &str) -> Relation {
        Relation {
            schema: self.schema.renamed(new_name),
            ..self.clone()
        }
    }
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        let kept = self
            .join_indexes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        Relation {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            near_duplicates: self.near_duplicates.clone(),
            join_indexes: Mutex::new(kept),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("rows", &self.rows)
            .finish()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table(self.schema.name()))
    }
}

/// Fluent builder for relations in tests, examples, and the paper dataset.
///
/// ```
/// use clio_relational::relation::RelationBuilder;
/// use clio_relational::value::DataType;
///
/// let rel = RelationBuilder::new("Children")
///     .attr_not_null("ID", DataType::Str)
///     .attr("name", DataType::Str)
///     .attr("age", DataType::Int)
///     .row(vec!["001".into(), "Anna".into(), 6i64.into()])
///     .row(vec!["002".into(), "Maya".into(), 4i64.into()])
///     .build()
///     .unwrap();
/// assert_eq!(rel.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RelationBuilder {
    name: String,
    attrs: Vec<Attribute>,
    rows: Vec<Vec<Value>>,
}

impl RelationBuilder {
    /// Start a builder for relation `name`.
    pub fn new(name: impl Into<String>) -> RelationBuilder {
        RelationBuilder {
            name: name.into(),
            attrs: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Add a nullable attribute.
    #[must_use]
    pub fn attr(mut self, name: impl Into<String>, ty: DataType) -> Self {
        self.attrs.push(Attribute::new(name, ty));
        self
    }

    /// Add a `NOT NULL` attribute.
    #[must_use]
    pub fn attr_not_null(mut self, name: impl Into<String>, ty: DataType) -> Self {
        self.attrs.push(Attribute::not_null(name, ty));
        self
    }

    /// Add a tuple (validated at [`RelationBuilder::build`]).
    #[must_use]
    pub fn row(mut self, row: Vec<Value>) -> Self {
        self.rows.push(row);
        self
    }

    /// Validate and build the relation.
    pub fn build(self) -> Result<Relation> {
        let schema = RelSchema::new(self.name, self.attrs)?;
        Relation::with_rows(schema, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        RelationBuilder::new("Children")
            .attr_not_null("ID", DataType::Str)
            .attr("name", DataType::Str)
            .attr("age", DataType::Int)
            .row(vec!["001".into(), "Anna".into(), 6i64.into()])
            .row(vec!["002".into(), "Maya".into(), 4i64.into()])
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_read_back() {
        let rel = sample();
        assert_eq!(rel.name(), "Children");
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.value(1, "name").unwrap(), &Value::str("Maya"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut rel = sample();
        assert!(matches!(
            rel.insert(vec!["003".into(), "Ben".into()]),
            Err(Error::ArityMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn all_null_tuple_rejected() {
        let schema = RelSchema::new("R", vec![Attribute::new("a", DataType::Int)]).unwrap();
        let mut rel = Relation::empty(schema);
        assert!(rel.insert(vec![Value::Null]).is_err());
    }

    #[test]
    fn not_null_enforced() {
        let mut rel = sample();
        let err = rel
            .insert(vec![Value::Null, "Ben".into(), 5i64.into()])
            .unwrap_err();
        assert!(matches!(err, Error::NullViolation { .. }));
    }

    #[test]
    fn type_checked_on_insert() {
        let mut rel = sample();
        let err = rel
            .insert(vec!["003".into(), "Ben".into(), "five".into()])
            .unwrap_err();
        assert!(matches!(err, Error::TypeMismatch(_)));
    }

    #[test]
    fn null_allowed_in_nullable_attribute() {
        let mut rel = sample();
        rel.insert(vec!["003".into(), Value::Null, 5i64.into()])
            .unwrap();
        assert_eq!(rel.len(), 3);
        assert!(rel.value(2, "name").unwrap().is_null());
    }

    #[test]
    fn set_semantics_deduplicates() {
        let mut rel = sample();
        rel.insert(vec!["001".into(), "Anna".into(), 6i64.into()])
            .unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn rows_where_uses_sql_equality() {
        let rel = sample();
        let hits = rel.rows_where("ID", &Value::str("002")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0][1], Value::str("Maya"));
        // null probe matches nothing under SQL equality
        let misses = rel.rows_where("name", &Value::Null).unwrap();
        assert!(misses.is_empty());
    }

    #[test]
    fn column_extraction() {
        let rel = sample();
        let ages: Vec<_> = rel.column("age").unwrap();
        assert_eq!(ages, vec![&Value::Int(6), &Value::Int(4)]);
    }

    #[test]
    fn to_table_qualifies_by_alias() {
        let t = sample().to_table("C");
        assert_eq!(t.scheme().columns()[0].qualified_name(), "C.ID");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn a_copy_with_a_nullable_cell_nulled_is_a_near_duplicate() {
        let mut rel = sample();
        assert!(!rel.has_near_duplicates());
        rel.insert(vec!["002".into(), "Maya".into(), Value::Null])
            .unwrap();
        assert!(rel.has_near_duplicates(), "insert resets the flag");
        // the flag is invisible to equality and to the debug rendering
        let plain = Relation::with_rows(rel.schema().clone(), rel.rows().to_vec()).unwrap();
        assert_eq!(plain, rel);
        assert_eq!(format!("{plain:?}"), format!("{rel:?}"));
        assert!(plain.has_near_duplicates());
    }

    #[test]
    fn a_null_foreign_key_on_a_unique_id_is_no_near_duplicate() {
        let rel = RelationBuilder::new("Children")
            .attr_not_null("ID", DataType::Str)
            .attr("mid", DataType::Str)
            .row(vec!["001".into(), "201".into()])
            .row(vec!["002".into(), Value::Null])
            .row(vec!["003".into(), "201".into()])
            .build()
            .unwrap();
        assert!(!rel.has_near_duplicates());
    }

    /// A key every tuple fills puts each tuple in a group of its own, so
    /// the near-duplicate pass compares nothing: neither the flag nor
    /// the same pass counted (`subsumed_among` over the tuples with a
    /// null) makes a subsumption comparison.
    #[test]
    fn a_filled_key_makes_the_near_duplicate_pass_compare_nothing() {
        let rel = RelationBuilder::new("Children")
            .attr_not_null("ID", DataType::Str)
            .attr("mid", DataType::Str)
            .attr("fid", DataType::Str)
            .row(vec!["001".into(), "201".into(), "301".into()])
            .row(vec!["002".into(), Value::Null, "301".into()])
            .row(vec!["003".into(), "201".into(), Value::Null])
            .row(vec!["004".into(), Value::Null, Value::Null])
            .build()
            .unwrap();
        let rec = clio_obs::Recorder::new();
        let flagged = rec.run(|| rel.has_near_duplicates());
        assert!(!flagged);
        let scheme = Scheme::of_relation(rel.schema(), rel.name());
        let with_null: Vec<bool> = rel
            .rows()
            .iter()
            .map(|r| r.contains(&Value::Null))
            .collect();
        let keep = rec.run(|| crate::ops::subsumed_among(&(&scheme, rel.rows()), &with_null));
        assert_eq!(keep, vec![true; 4]);
        let comparisons = clio_obs::metrics::Counter::SubsumptionComparisons;
        assert_eq!(rec.snapshot().get(comparisons), 0);
    }

    /// The flag answers what the pairwise minimum union does on the
    /// relation's own tuples: it is set exactly when
    /// `remove_subsumed_naive` removes a tuple.
    #[test]
    fn the_flag_agrees_with_naive_subsumption_on_tricky_numbers() {
        use crate::ops::remove_subsumed_naive;
        let big = 1i64 << 53;
        let cases: Vec<(bool, Vec<Vec<Value>>)> = vec![
            // -0.0 and 0.0 differ under `==`: nothing is subsumed
            (
                false,
                vec![
                    vec![Value::Float(-0.0), Value::Null],
                    vec![Value::Float(0.0), Value::Int(1)],
                ],
            ),
            // NaN equals itself under `==`: subsumed
            (
                true,
                vec![
                    vec![Value::Float(f64::NAN), Value::Null],
                    vec![Value::Float(f64::NAN), Value::Int(1)],
                ],
            ),
            // Int(2^53) == Float(2^53): subsumed across types
            (
                true,
                vec![
                    vec![Value::Int(big), Value::Null],
                    vec![Value::Float(big as f64), Value::Int(1)],
                ],
            ),
            // Int(2^53 + 1) != Float(2^53): equality is exact, so
            // nothing is subsumed
            (
                false,
                vec![
                    vec![Value::Int(big + 1), Value::Null],
                    vec![Value::Float(big as f64), Value::Int(1)],
                ],
            ),
            // Int(2^53 + 1) != Int(2^53): nothing is subsumed, and the
            // float equal to the first is dropped as its copy
            (
                false,
                vec![
                    vec![Value::Int(big), Value::Null],
                    vec![Value::Int(big + 1), Value::Int(2)],
                    vec![Value::Float(big as f64), Value::Null],
                ],
            ),
        ];
        for (expected, rows) in cases {
            let schema = RelSchema::new(
                "R",
                vec![
                    Attribute::new("a", DataType::Float),
                    Attribute::new("b", DataType::Int),
                ],
            )
            .unwrap();
            let rel = Relation::with_rows(schema, rows).unwrap();
            let mut naive = rel.to_table("R");
            remove_subsumed_naive(&mut naive);
            assert_eq!(naive.len() < rel.len(), expected, "{:?}", rel.rows());
            assert_eq!(rel.has_near_duplicates(), expected, "{:?}", rel.rows());
        }
    }

    #[test]
    fn renamed_copy_shares_rows() {
        let r2 = sample().renamed("Children2");
        assert_eq!(r2.name(), "Children2");
        assert_eq!(r2.len(), 2);
    }
}
