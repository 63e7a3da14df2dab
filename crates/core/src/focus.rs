//! Focused illustrations (paper Def 4.7).
//!
//! A user may know specific data well ("the user is familiar with Maya").
//! An illustration is **focused** on a set of tuples `f` of a focus
//! relation `F` when *every* data association involving a tuple of `f`
//! induces an example included in the illustration — the user learns
//! everything about the data she knows.

use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::Cells;
use clio_relational::funcs::FuncRegistry;
use clio_relational::schema::Scheme;
use clio_relational::value::Value;

use crate::example::Example;
use crate::illustration::Illustration;
use crate::mapping::Mapping;
use crate::plan::CompiledMapping;
use crate::query_graph::NodeId;

/// A focus: a node of the mapping's graph plus distinguished tuples of its
/// relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Focus {
    /// The focus node (paper: focus *relation*; per-node so a specific
    /// copy can be focused).
    pub node: NodeId,
    /// The focus tuples (rows over the node's relation scheme).
    pub tuples: Vec<Vec<Value>>,
}

impl Focus {
    /// Focus on the tuples of `node`'s relation for which `attr = value`
    /// — the common "focus on Maya" gesture.
    pub fn on_value(
        mapping: &Mapping,
        db: &Database,
        node: NodeId,
        attr: &str,
        value: &Value,
    ) -> Result<Focus> {
        let rel_name = &mapping
            .graph
            .nodes()
            .get(node)
            .ok_or_else(|| Error::Invalid("focus node out of range".into()))?
            .relation;
        let rel = db.relation(rel_name)?;
        let tuples = rel.rows_where(attr, value)?.into_iter().cloned().collect();
        Ok(Focus { node, tuples })
    }

    /// Does the association row involve one of the focus tuples? The
    /// projection of `d` onto the focus node's columns — `columns`, its
    /// positions in the association scheme, resolved once per scheme
    /// ([`Scheme::indexes_of_qualifier`]) — must equal a focus tuple
    /// (paper: `Π_{S_F}(d) ∈ f`). The row is read where it lies.
    #[must_use]
    pub fn involves<C: Cells + ?Sized>(&self, columns: &[usize], association: &C) -> bool {
        self.tuples.iter().any(|t| {
            t.len() == columns.len() && t.iter().zip(columns).all(|(a, &i)| a == association.at(i))
        })
    }
}

/// All examples focused on `focus` — every example whose association
/// involves a focus tuple. This is the *smallest* illustration focused on
/// `f`; any superset is also focused. The population's rows are read in
/// place, and only the focused examples are built.
pub fn focused_examples(
    mapping: &Mapping,
    db: &Database,
    funcs: &FuncRegistry,
    focus: &Focus,
) -> Result<Vec<Example>> {
    let compiled = CompiledMapping::new(mapping, db, funcs, 0)?;
    let alias = &mapping.graph.nodes()[focus.node].alias;
    let columns = compiled.scheme().indexes_of_qualifier(alias);
    let focused = compiled.illustrate(db, funcs, None, |population| {
        Ok((0..population.len())
            .filter(|&i| focus.involves(&columns, &population.association(i)))
            .collect())
    })?;
    Ok(focused.examples)
}

/// Is `illustration` focused on `focus` (Def 4.7) relative to the full
/// population `all`?
#[must_use]
pub fn is_focused(
    illustration: &Illustration,
    all: &[Example],
    scheme: &Scheme,
    node_alias: &str,
    focus: &Focus,
) -> bool {
    let columns = scheme.indexes_of_qualifier(node_alias);
    all.iter()
        .filter(|e| focus.involves(&columns, e.association.as_slice()))
        .all(|required| illustration.examples.contains(required))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correspondence::ValueCorrespondence;
    use crate::query_graph::{Node, QueryGraph};
    use clio_relational::parser::parse_expr;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::schema::{Attribute, RelSchema};
    use clio_relational::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("name", DataType::Str)
                .attr("mid", DataType::Str)
                .row(vec!["001".into(), "Anna".into(), "201".into()])
                .row(vec!["002".into(), "Maya".into(), "202".into()])
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

    fn mapping() -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        let target = RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("affiliation", DataType::Str),
            ],
        )
        .unwrap();
        Mapping::new(g, target)
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ))
            .with_target_not_null_filters()
    }

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    #[test]
    fn focus_on_maya_selects_her_associations() {
        let m = mapping();
        let database = db();
        let focus = Focus::on_value(&m, &database, 0, "ID", &Value::str("002")).unwrap();
        assert_eq!(focus.tuples.len(), 1);
        let examples = focused_examples(&m, &database, &funcs(), &focus).unwrap();
        assert_eq!(examples.len(), 1);
        assert_eq!(examples[0].target[0], Value::str("002"));
    }

    #[test]
    fn focused_check_matches_example_4_8() {
        let m = mapping();
        let database = db();
        let all = m.examples(&database, &funcs()).unwrap();
        let scheme = m.graph.scheme(&database).unwrap();

        // illustration holding every child example but NOT parent 205's
        let child_only = Illustration {
            examples: all
                .iter()
                .filter(|e| e.coverage & 0b01 != 0)
                .cloned()
                .collect(),
        };
        let focus_children = Focus {
            node: 0,
            tuples: database.relation("Children").unwrap().rows().to_vec(),
        };
        assert!(is_focused(
            &child_only,
            &all,
            &scheme,
            "Children",
            &focus_children
        ));

        // but it is NOT focused on parent 205
        let focus_205 = Focus::on_value(&m, &database, 1, "ID", &Value::str("205")).unwrap();
        assert!(!is_focused(
            &child_only,
            &all,
            &scheme,
            "Parents",
            &focus_205
        ));

        // adding 205's association makes it focused
        let full = Illustration {
            examples: all.clone(),
        };
        assert!(is_focused(&full, &all, &scheme, "Parents", &focus_205));
    }

    #[test]
    fn empty_focus_is_trivially_focused() {
        let m = mapping();
        let database = db();
        let all = m.examples(&database, &funcs()).unwrap();
        let scheme = m.graph.scheme(&database).unwrap();
        let focus = Focus {
            node: 0,
            tuples: vec![],
        };
        assert!(is_focused(
            &Illustration::empty(),
            &all,
            &scheme,
            "Children",
            &focus
        ));
    }

    #[test]
    fn focus_on_missing_value_selects_nothing() {
        let m = mapping();
        let database = db();
        let focus = Focus::on_value(&m, &database, 0, "ID", &Value::str("999")).unwrap();
        assert!(focus.tuples.is_empty());
        let examples = focused_examples(&m, &database, &funcs(), &focus).unwrap();
        assert!(examples.is_empty());
    }

    #[test]
    fn focus_node_out_of_range_errors() {
        let m = mapping();
        assert!(Focus::on_value(&m, &db(), 9, "ID", &Value::str("002")).is_err());
    }
}
