//! Mappings `M = ⟨G, V, C_S, C_T⟩` and their mapping queries (paper
//! Def 3.14).
//!
//! A mapping combines the three activities of mapping construction:
//! *data linking* (the query graph `G`), *determining correspondences*
//! (the value correspondences `V`), and *data trimming* (the source
//! filters `C_S` over the associations and target filters `C_T` over the
//! produced target tuples). The mapping query is
//!
//! ```sql
//! SELECT * FROM (
//!     SELECT v1(...) AS B1, ..., vm(...) AS Bm
//!     FROM D(G)
//!     WHERE c_s1 AND ... AND c_sk
//! ) WHERE c_t1 AND ... AND c_tl
//! ```
//!
//! evaluated by compiling the mapping to its [`Plan`](crate::plan::Plan)
//! — that algebra tree, with source filters pushed below the minimum
//! union where that is answer-invisible — and running the tree. A
//! session compiles each mapping once and reruns the compiled form after
//! a data edit.

use std::fmt;

use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::{BoundExpr, Expr};
use clio_relational::funcs::FuncRegistry;
use clio_relational::schema::{RelSchema, Scheme};
use clio_relational::table::Table;
use clio_relational::value::Value;

use crate::association::AssociationSet;
use crate::correspondence::ValueCorrespondence;
use crate::example::Example;
use crate::full_disjunction::FdAlgo;
use crate::plan::CompiledMapping;
use crate::query_graph::QueryGraph;

/// A schema mapping from a set of source relations to one target relation.
///
/// ```
/// use clio_core::prelude::*;
/// use clio_relational::prelude::*;
///
/// // source: Children(ID, mid), Parents(ID, affiliation)
/// let mut db = Database::new();
/// db.add_relation(
///     RelationBuilder::new("Children")
///         .attr_not_null("ID", DataType::Str)
///         .attr("mid", DataType::Str)
///         .row(vec!["002".into(), "203".into()])
///         .row(vec!["004".into(), Value::Null])
///         .build()
///         .unwrap(),
/// )
/// .unwrap();
/// db.add_relation(
///     RelationBuilder::new("Parents")
///         .attr_not_null("ID", DataType::Str)
///         .attr("affiliation", DataType::Str)
///         .row(vec!["203".into(), "Almaden".into()])
///         .build()
///         .unwrap(),
/// )
/// .unwrap();
///
/// // M = <G, V, C_S, C_T>
/// let mut g = QueryGraph::new();
/// let c = g.add_node(Node::new("Children")).unwrap();
/// let p = g.add_node(Node::new("Parents")).unwrap();
/// g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap()).unwrap();
/// let target = RelSchema::new(
///     "Kids",
///     vec![
///         Attribute::not_null("ID", DataType::Str),
///         Attribute::new("affiliation", DataType::Str),
///     ],
/// )
/// .unwrap();
/// let mapping = Mapping::new(g, target)
///     .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
///     .with_correspondence(ValueCorrespondence::identity("Parents.affiliation", "affiliation"))
///     .with_target_not_null_filters();
///
/// let funcs = FuncRegistry::with_builtins();
/// mapping.validate(&db, &funcs).unwrap();
/// let out = mapping.evaluate(&db, &funcs).unwrap();
/// assert_eq!(out.len(), 2); // Maya with Almaden, motherless 004 with null
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// The query graph `G` (data linking).
    pub graph: QueryGraph,
    /// The value correspondences `V`.
    pub correspondences: Vec<ValueCorrespondence>,
    /// Source filters `C_S` — predicates over the data associations.
    pub source_filters: Vec<Expr>,
    /// Target filters `C_T` — predicates over the produced target tuples.
    pub target_filters: Vec<Expr>,
    /// The target relation scheme `T(B1, …, Bm)`.
    pub target: RelSchema,
}

impl Mapping {
    /// A mapping with no correspondences and no filters.
    #[must_use]
    pub fn new(graph: QueryGraph, target: RelSchema) -> Mapping {
        Mapping {
            graph,
            correspondences: Vec::new(),
            source_filters: Vec::new(),
            target_filters: Vec::new(),
            target,
        }
    }

    /// Builder-style: add or replace the correspondence for a target
    /// attribute. (The interactive operator layer in
    /// [`operators`](crate::operators) additionally spawns alternative
    /// mappings when a second correspondence arrives for the same
    /// attribute; this method is the raw mutation.)
    #[must_use]
    pub fn with_correspondence(mut self, v: ValueCorrespondence) -> Mapping {
        self.set_correspondence(v);
        self
    }

    /// Add or replace the correspondence for `v.target_attr`.
    pub fn set_correspondence(&mut self, v: ValueCorrespondence) {
        match self
            .correspondences
            .iter_mut()
            .find(|c| c.target_attr == v.target_attr)
        {
            Some(slot) => *slot = v,
            None => self.correspondences.push(v),
        }
    }

    /// The correspondence populating `attr`, if any.
    #[must_use]
    pub fn correspondence_for(&self, attr: &str) -> Option<&ValueCorrespondence> {
        self.correspondences.iter().find(|c| c.target_attr == attr)
    }

    /// Builder-style: add a source filter.
    #[must_use]
    pub fn with_source_filter(mut self, e: Expr) -> Mapping {
        self.source_filters.push(e);
        self
    }

    /// Builder-style: add a target filter.
    #[must_use]
    pub fn with_target_filter(mut self, e: Expr) -> Mapping {
        self.target_filters.push(e);
        self
    }

    /// Add `B IS NOT NULL` target filters for every `NOT NULL` attribute
    /// of the target schema — how Clio turns target constraints into data
    /// trimming (paper Sec 2: "a target constraint may indicate that every
    /// Kid tuple must have an ID value").
    #[must_use]
    pub fn with_target_not_null_filters(mut self) -> Mapping {
        for attr in self.target.attrs() {
            if attr.not_null {
                let e = Expr::IsNull {
                    expr: Box::new(Expr::col(&format!("{}.{}", self.target.name(), attr.name))),
                    negated: true,
                };
                if !self.target_filters.contains(&e) {
                    self.target_filters.push(e);
                }
            }
        }
        self
    }

    /// The mapping `φ(M) = ⟨G, V, ∅, ∅⟩` without any filters (paper
    /// Sec 4.1) — used to compute the target tuple of *negative* examples.
    #[must_use]
    pub fn without_filters(&self) -> Mapping {
        Mapping {
            graph: self.graph.clone(),
            correspondences: self.correspondences.clone(),
            source_filters: Vec::new(),
            target_filters: Vec::new(),
            target: self.target.clone(),
        }
    }

    /// The target relation's scheme, qualified by the target name.
    #[must_use]
    pub fn target_scheme(&self) -> Scheme {
        Scheme::of_relation(&self.target, self.target.name())
    }

    /// Validate every component against the database.
    pub fn validate(&self, db: &Database, funcs: &FuncRegistry) -> Result<()> {
        self.graph.validate(db, funcs)?;
        let scheme = self.graph.scheme(db)?;
        for v in &self.correspondences {
            v.validate(&scheme, &self.target)?;
        }
        let mut seen: Vec<&str> = Vec::new();
        for v in &self.correspondences {
            if seen.contains(&v.target_attr.as_str()) {
                return Err(Error::Invalid(format!(
                    "two correspondences for target attribute `{}` within one mapping; \
                     alternative computations belong in separate mappings (paper Sec 6.2)",
                    v.target_attr
                )));
            }
            seen.push(&v.target_attr);
        }
        for e in &self.source_filters {
            e.bind(&scheme)?;
        }
        let tscheme = self.target_scheme();
        for e in &self.target_filters {
            e.bind(&tscheme)?;
        }
        Ok(())
    }

    /// The data associations `D(G)` of this mapping's graph, routed
    /// through an incremental cache. `None` (or a disabled cache) is
    /// exactly the uncached path.
    pub fn associations_cached(
        &self,
        db: &Database,
        algo: FdAlgo,
        funcs: &FuncRegistry,
        cache: Option<&clio_incr::EvalCache>,
    ) -> Result<AssociationSet> {
        crate::incremental::full_disjunction_cached(db, &self.graph, algo, funcs, cache)
    }

    /// Prepare an evaluator with all expressions bound.
    pub fn evaluator(&self, db: &Database, _funcs: &FuncRegistry) -> Result<MappingEvaluator> {
        MappingEvaluator::bind(
            &self.correspondences,
            &self.target,
            &self.graph.scheme(db)?,
            &self.source_filters,
            &self.target_filters,
        )
    }

    /// Evaluate the mapping query: the subset of the target relation this
    /// mapping produces (paper Def 3.14). Result rows are distinct.
    pub fn evaluate(&self, db: &Database, funcs: &FuncRegistry) -> Result<Table> {
        self.evaluate_cached(db, funcs, None)
    }

    /// Like [`Mapping::evaluate`], routed through an incremental cache:
    /// the mapping is compiled for the call
    /// ([`Plan::new`](crate::plan::Plan::new)'s form), and the result
    /// table is memoized per full mapping state under its `"Q(M)"`
    /// fingerprint; on a miss the plan runs, and its `D(G)` stage
    /// memoizes `D(G)` / `F(J)` layers of its own. `None` is the same
    /// pipeline without memoization. A
    /// [`Session`](crate::session::Session) keeps each mapping compiled
    /// and runs that form instead.
    pub fn evaluate_cached(
        &self,
        db: &Database,
        funcs: &FuncRegistry,
        cache: Option<&clio_incr::EvalCache>,
    ) -> Result<Table> {
        CompiledMapping::new(self, db, funcs, 0)?.evaluate(db, funcs, cache)
    }

    /// Generate all examples of the mapping (paper Def 4.1): one per data
    /// association `d`, with target tuple `Q_{φ(M)}(d)` and positive flag
    /// `d ⊨ C_S ∧ t ⊨ C_T`.
    pub fn examples(&self, db: &Database, funcs: &FuncRegistry) -> Result<Vec<Example>> {
        self.examples_cached(db, funcs, None)
    }

    /// Like [`Mapping::examples`], with the `D(G)` the population is
    /// built over served from an incremental cache when available. The
    /// mapping is compiled for the call; each association's values are
    /// built once, into its example.
    pub fn examples_cached(
        &self,
        db: &Database,
        funcs: &FuncRegistry,
        cache: Option<&clio_incr::EvalCache>,
    ) -> Result<Vec<Example>> {
        CompiledMapping::new(self, db, funcs, 0)?.examples(db, funcs, cache)
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "mapping -> {}", self.target.name())?;
        write!(f, "{}", self.graph)?;
        for v in &self.correspondences {
            writeln!(f, "corr {v}")?;
        }
        for e in &self.source_filters {
            writeln!(f, "where (source) {e}")?;
        }
        for e in &self.target_filters {
            writeln!(f, "where (target) {e}")?;
        }
        Ok(())
    }
}

/// A mapping with every expression bound against its schemes, ready for
/// repeated evaluation over association rows.
#[derive(Debug)]
pub struct MappingEvaluator {
    /// one slot per target attribute: the bound correspondence, or `None`
    /// (attribute not mapped → null)
    slots: Vec<Option<BoundExpr>>,
    source_filters: Vec<BoundExpr>,
    target_filters: Vec<BoundExpr>,
}

impl MappingEvaluator {
    /// Bind the correspondences and source filters against `scheme` and
    /// the target filters against the target relation's scheme. The
    /// first correspondence for a target attribute populates it.
    pub(crate) fn bind<'e>(
        correspondences: &[ValueCorrespondence],
        target: &RelSchema,
        scheme: &Scheme,
        source_filters: impl IntoIterator<Item = &'e Expr>,
        target_filters: impl IntoIterator<Item = &'e Expr>,
    ) -> Result<MappingEvaluator> {
        let tscheme = Scheme::of_relation(target, target.name());
        Ok(MappingEvaluator {
            slots: target
                .attrs()
                .iter()
                .map(|a| {
                    let v = correspondences.iter().find(|v| v.target_attr == a.name);
                    v.map(|v| v.expr.bind(scheme)).transpose()
                })
                .collect::<Result<_>>()?,
            source_filters: source_filters
                .into_iter()
                .map(|e| e.bind(scheme))
                .collect::<Result<_>>()?,
            target_filters: target_filters
                .into_iter()
                .map(|e| e.bind(&tscheme))
                .collect::<Result<_>>()?,
        })
    }

    /// Compute the target tuple for an association row (no filters —
    /// `Q_{φ(M)}(d)`).
    pub fn target_row(&self, assoc: &[Value], funcs: &FuncRegistry) -> Result<Vec<Value>> {
        // an exact-capacity loop: `collect` over a `Result` iterator cannot
        // size its vector up front
        let mut row = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            row.push(match slot {
                None => Value::Null,
                Some(b) => b.eval(assoc, funcs)?,
            });
        }
        Ok(row)
    }

    /// Do the filters accept `(assoc, target)`?
    pub fn passes_filters(
        &self,
        assoc: &[Value],
        target: &[Value],
        funcs: &FuncRegistry,
    ) -> Result<bool> {
        Ok(all_pass(&self.source_filters, assoc, funcs)?
            && all_pass(&self.target_filters, target, funcs)?)
    }

    /// The full mapping query on one association: `Some(target_row)` when
    /// all filters pass, `None` otherwise. The source filters run first,
    /// as `WHERE` before `SELECT`: a correspondence is never evaluated on
    /// an association they reject, so its errors there never surface.
    pub fn target_row_if_passing(
        &self,
        assoc: &[Value],
        funcs: &FuncRegistry,
    ) -> Result<Option<Vec<Value>>> {
        if !all_pass(&self.source_filters, assoc, funcs)? {
            return Ok(None);
        }
        let target = self.target_row(assoc, funcs)?;
        Ok(all_pass(&self.target_filters, &target, funcs)?.then_some(target))
    }
}

/// Does `row` pass every bound filter? Stops at the first that rejects
/// it.
pub(crate) fn all_pass(filters: &[BoundExpr], row: &[Value], funcs: &FuncRegistry) -> Result<bool> {
    for f in filters {
        if !f.eval_truth(row, funcs)?.passes() {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::Node;
    use clio_relational::parser::parse_expr;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::schema::Attribute;
    use clio_relational::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("name", DataType::Str)
                .attr("age", DataType::Int)
                .attr("mid", DataType::Str)
                .row(vec!["001".into(), "Anna".into(), 6i64.into(), "201".into()])
                .row(vec!["002".into(), "Maya".into(), 4i64.into(), "202".into()])
                .row(vec!["003".into(), "Ben".into(), 9i64.into(), "201".into()])
                .row(vec!["004".into(), "Tom".into(), 5i64.into(), Value::Null])
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
                .row(vec!["205".into(), "MIT".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn target() -> RelSchema {
        RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("name", DataType::Str),
                Attribute::new("affiliation", DataType::Str),
            ],
        )
        .unwrap()
    }

    fn graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        g
    }

    fn mapping() -> Mapping {
        Mapping::new(graph(), target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity("Children.name", "name"))
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ))
            .with_source_filter(parse_expr("Children.age < 7").unwrap())
            .with_target_not_null_filters()
    }

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    #[test]
    fn validates() {
        mapping().validate(&db(), &funcs()).unwrap();
    }

    #[test]
    fn not_null_filters_derived_from_target_schema() {
        let m = mapping();
        assert_eq!(m.target_filters.len(), 1);
        assert_eq!(m.target_filters[0].to_string(), "Kids.ID IS NOT NULL");
        // idempotent
        let m2 = m.clone().with_target_not_null_filters();
        assert_eq!(m2.target_filters.len(), 1);
    }

    #[test]
    fn evaluate_produces_target_subset() {
        let out = mapping().evaluate(&db(), &funcs()).unwrap();
        // children under 7: Anna(6), Maya(4), Tom(5, motherless).
        // Ben(9) trimmed by the source filter; parent 205 association
        // trimmed by Kids.ID IS NOT NULL.
        assert_eq!(out.len(), 3);
        let names: Vec<String> = out.rows().iter().map(|r| r[1].to_string()).collect();
        assert!(names.contains(&"Anna".to_owned()));
        assert!(names.contains(&"Maya".to_owned()));
        assert!(names.contains(&"Tom".to_owned()));
        // Tom has no mother, so his affiliation is null
        let tom = out
            .rows()
            .iter()
            .find(|r| r[1] == Value::str("Tom"))
            .unwrap();
        assert!(tom[2].is_null());
    }

    #[test]
    fn unmapped_target_attributes_are_null() {
        let m = Mapping::new(graph(), target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"));
        let out = m.evaluate(&db(), &funcs()).unwrap();
        assert!(out.rows().iter().all(|r| r[1].is_null() && r[2].is_null()));
    }

    #[test]
    fn examples_classify_positive_and_negative() {
        let examples = mapping().examples(&db(), &funcs()).unwrap();
        // 5 associations: 4 child rows (3 with mothers incl Ben, Tom alone)
        // + parent 205 alone
        assert_eq!(examples.len(), 5);
        let positives = examples.iter().filter(|e| e.positive).count();
        assert_eq!(positives, 3);
        // Ben's example is negative with a *computed* target tuple
        let ben = examples
            .iter()
            .find(|e| e.target.first() == Some(&Value::str("003")))
            .unwrap();
        assert!(!ben.positive);
        assert_eq!(ben.target[1], Value::str("Ben"));
        // parent 205's example is negative because Kids.ID is null
        let alone = examples.iter().find(|e| e.coverage == 0b10).unwrap();
        assert!(!alone.positive);
        assert!(alone.target[0].is_null());
    }

    #[test]
    fn source_filters_reject_an_association_before_its_correspondences_run() {
        // Zoe is 0: `100 / Children.age` divides by zero on her
        // association alone, and the source filter rejects exactly that one
        let mut db = db();
        let mut children = db.relation("Children").unwrap().clone();
        children
            .insert(vec!["005".into(), "Zoe".into(), 0i64.into(), "201".into()])
            .unwrap();
        db.replace_relation(children).unwrap();
        let target = RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("per_year", DataType::Int),
                Attribute::new("affiliation", DataType::Str),
            ],
        )
        .unwrap();
        let m = Mapping::new(graph(), target)
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(
                ValueCorrespondence::parse("100 / Children.age", "per_year").unwrap(),
            )
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ))
            .with_target_not_null_filters();
        assert!(matches!(
            m.evaluate(&db, &funcs()),
            Err(Error::DivisionByZero)
        ));
        let m = m.with_source_filter(parse_expr("Children.age > 0").unwrap());
        let row = |id: &str, per_year: i64, affiliation: Value| {
            vec![Value::str(id), Value::Int(per_year), affiliation]
        };
        let expected = vec![
            row("001", 16, "IBM".into()),
            row("002", 25, "UofT".into()),
            row("003", 11, "IBM".into()),
            row("004", 20, Value::Null),
        ];
        let cache = clio_incr::EvalCache::new();
        for cache in [None, Some(&cache)] {
            let out = m.evaluate_cached(&db, &funcs(), cache).unwrap();
            assert_eq!(out.rows(), expected);
        }
    }

    #[test]
    fn without_filters_is_phi_of_m() {
        let phi = mapping().without_filters();
        assert!(phi.source_filters.is_empty());
        assert!(phi.target_filters.is_empty());
        let out = phi.evaluate(&db(), &funcs()).unwrap();
        assert_eq!(out.len(), 5); // everything, including Ben and 205-alone
    }

    #[test]
    fn set_correspondence_replaces_existing() {
        let mut m = mapping();
        m.set_correspondence(ValueCorrespondence::identity("Parents.ID", "affiliation"));
        assert_eq!(m.correspondences.len(), 3);
        assert_eq!(
            m.correspondence_for("affiliation")
                .unwrap()
                .expr
                .to_string(),
            "Parents.ID"
        );
    }

    #[test]
    fn duplicate_correspondences_rejected_by_validate() {
        let mut m = mapping();
        m.correspondences
            .push(ValueCorrespondence::identity("Parents.ID", "ID"));
        assert!(m.validate(&db(), &funcs()).is_err());
    }

    #[test]
    fn validate_catches_bad_filters() {
        let m = mapping().with_source_filter(parse_expr("SBPS.time = '8:00'").unwrap());
        assert!(m.validate(&db(), &funcs()).is_err());
        let m = mapping().with_target_filter(parse_expr("Kids.BusSchedule IS NULL").unwrap());
        assert!(m.validate(&db(), &funcs()).is_err());
    }

    #[test]
    fn display_mentions_all_components() {
        let s = mapping().to_string();
        assert!(s.contains("mapping -> Kids"));
        assert!(s.contains("corr Children.ID -> ID"));
        assert!(s.contains("where (source) Children.age < 7"));
        assert!(s.contains("where (target) Kids.ID IS NOT NULL"));
    }
}
