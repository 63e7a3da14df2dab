//! Data trimming operators (paper Sec 5): modify `C_S` / `C_T` without
//! touching the query graph, and report the effect on examples.
//!
//! Trimming operators are "illustrated using positive and negative
//! examples so a user can see the effect of the different filters" — the
//! [`trim_effect`] diff computes exactly which examples flip polarity.

use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::Expr;
use clio_relational::funcs::FuncRegistry;
use clio_relational::parser::parse_expr;

use crate::example::Example;
use crate::mapping::Mapping;

/// Add a source filter (parsed from text) to a mapping.
pub fn add_source_filter(mapping: &Mapping, filter: &str) -> Result<Mapping> {
    let e = parse_expr(filter)?;
    Ok(mapping.clone().with_source_filter(e))
}

/// Add a target filter (parsed from text) to a mapping.
pub fn add_target_filter(mapping: &Mapping, filter: &str) -> Result<Mapping> {
    let e = parse_expr(filter)?;
    Ok(mapping.clone().with_target_filter(e))
}

/// Remove the `i`-th source filter.
#[must_use]
pub fn remove_source_filter(mapping: &Mapping, i: usize) -> Mapping {
    let mut m = mapping.clone();
    if i < m.source_filters.len() {
        m.source_filters.remove(i);
    }
    m
}

/// Remove the `i`-th target filter.
#[must_use]
pub fn remove_target_filter(mapping: &Mapping, i: usize) -> Mapping {
    let mut m = mapping.clone();
    if i < m.target_filters.len() {
        m.target_filters.remove(i);
    }
    m
}

/// Mark a target attribute as *required*: add
/// `Target.attr IS NOT NULL` to `C_T`. This is the paper's Section-2
/// gesture — "upon seeing a null in the BusSchedule column, [the user may]
/// indicate that BusSchedule is really a required field", turning the
/// corresponding left outer join into an inner join.
#[must_use]
pub fn require_target_attribute(mapping: &Mapping, attr: &str) -> Mapping {
    let e = Expr::IsNull {
        expr: Box::new(Expr::col(&format!("{}.{attr}", mapping.target.name()))),
        negated: true,
    };
    if mapping.target_filters.contains(&e) {
        mapping.clone()
    } else {
        mapping.clone().with_target_filter(e)
    }
}

/// The example-level effect of a trimming operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TrimEffect {
    /// Examples positive before and negative after (trimmed away).
    pub newly_negative: Vec<Example>,
    /// Examples negative before and positive after (re-admitted).
    pub newly_positive: Vec<Example>,
    /// Positive-example counts before and after.
    pub positive_before: usize,
    /// Positive-example count after the change.
    pub positive_after: usize,
}

/// Compare two mappings that share a query graph: which examples change
/// polarity? Both example populations are generated over the graph's one
/// `D(G)`, in the same order; mappings over different graphs are an
/// error.
pub fn trim_effect(
    before: &Mapping,
    after: &Mapping,
    db: &Database,
    funcs: &FuncRegistry,
) -> Result<TrimEffect> {
    if before.graph != after.graph {
        return Err(Error::Invalid(
            "trim_effect compares two mappings over one query graph".into(),
        ));
    }
    let eb = before.examples(db, funcs)?;
    let ea = after.examples(db, funcs)?;
    let mut newly_negative = Vec::new();
    let mut newly_positive = Vec::new();
    for (b, a) in eb.iter().zip(&ea) {
        if b.positive && !a.positive {
            newly_negative.push(a.clone());
        } else if !b.positive && a.positive {
            newly_positive.push(a.clone());
        }
    }
    Ok(TrimEffect {
        positive_before: eb.iter().filter(|e| e.positive).count(),
        positive_after: ea.iter().filter(|e| e.positive).count(),
        newly_negative,
        newly_positive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correspondence::ValueCorrespondence;
    use crate::query_graph::{Node, QueryGraph};
    use clio_relational::relation::RelationBuilder;
    use clio_relational::schema::{Attribute, RelSchema};
    use clio_relational::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("age", DataType::Int)
                .attr("mid", DataType::Str)
                .row(vec!["001".into(), 6i64.into(), "201".into()])
                .row(vec!["002".into(), 4i64.into(), "202".into()])
                .row(vec!["003".into(), 9i64.into(), Value::Null])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("SBPS")
                .attr("ID", DataType::Str)
                .attr("time", DataType::Str)
                .row(vec!["002".into(), "8:15".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn mapping() -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let s = g.add_node(Node::new("SBPS").with_code("S")).unwrap();
        g.add_edge(c, s, Expr::col_eq("Children.ID", "SBPS.ID"))
            .unwrap();
        let target = RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("BusSchedule", DataType::Str),
            ],
        )
        .unwrap();
        Mapping::new(g, target)
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity("SBPS.time", "BusSchedule"))
            .with_target_not_null_filters()
    }

    fn funcs() -> clio_relational::funcs::FuncRegistry {
        clio_relational::funcs::FuncRegistry::with_builtins()
    }

    #[test]
    fn add_and_remove_filters() {
        let m = mapping();
        let m2 = add_source_filter(&m, "Children.age < 7").unwrap();
        assert_eq!(m2.source_filters.len(), 1);
        let m3 = remove_source_filter(&m2, 0);
        assert_eq!(m3.source_filters, m.source_filters);
        let m4 = add_target_filter(&m, "Kids.BusSchedule IS NOT NULL").unwrap();
        assert_eq!(m4.target_filters.len(), 2);
        let m5 = remove_target_filter(&m4, 1);
        assert_eq!(m5.target_filters, m.target_filters);
        // out-of-range removal is a no-op
        assert_eq!(remove_source_filter(&m, 7), m);
    }

    #[test]
    fn parse_errors_surface() {
        assert!(add_source_filter(&mapping(), "age <").is_err());
    }

    #[test]
    fn section_2_bus_schedule_required() {
        // before: kids without a bus schedule appear with a null
        let m = mapping();
        let before = m.evaluate(&db(), &funcs()).unwrap();
        assert_eq!(before.len(), 3);
        // after requiring BusSchedule, only Maya (002) remains
        let m2 = require_target_attribute(&m, "BusSchedule");
        let after = m2.evaluate(&db(), &funcs()).unwrap();
        assert_eq!(after.len(), 1);
        assert_eq!(after.rows()[0][0], Value::str("002"));
        // idempotent
        let m3 = require_target_attribute(&m2, "BusSchedule");
        assert_eq!(m3.target_filters.len(), m2.target_filters.len());
    }

    #[test]
    fn trim_effect_reports_flipped_examples() {
        let m = mapping();
        let m2 = require_target_attribute(&m, "BusSchedule");
        let effect = trim_effect(&m, &m2, &db(), &funcs()).unwrap();
        assert_eq!(effect.positive_before, 3);
        assert_eq!(effect.positive_after, 1);
        assert_eq!(effect.newly_negative.len(), 2);
        assert!(effect.newly_positive.is_empty());
        // loosening filters re-admits examples
        let back = trim_effect(&m2, &m, &db(), &funcs()).unwrap();
        assert_eq!(back.newly_positive.len(), 2);
        assert!(back.newly_negative.is_empty());
    }

    #[test]
    fn trim_effect_of_identical_mappings_is_empty() {
        let m = mapping();
        let effect = trim_effect(&m, &m, &db(), &funcs()).unwrap();
        assert!(effect.newly_negative.is_empty() && effect.newly_positive.is_empty());
    }

    #[test]
    fn trim_effect_of_mappings_over_different_graphs_is_an_error() {
        let m = mapping();
        let mut other = m.clone();
        other.graph = QueryGraph::new();
        other.graph.add_node(Node::new("Children")).unwrap();
        let err = trim_effect(&m, &other, &db(), &funcs()).unwrap_err();
        assert!(
            matches!(err, clio_relational::error::Error::Invalid(_)),
            "{err:?}"
        );
    }
}
