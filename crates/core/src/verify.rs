//! Mapping verification ("lint"): data-driven diagnostics beyond
//! structural validation.
//!
//! The paper's thesis is that *data* exposes mapping problems a schema
//! view hides. This module runs a mapping against the source instance and
//! reports the problems a user would otherwise discover late: target-key
//! conflicts (two source combinations disagreeing on one key — the data
//! merging hazard), attributes that can never be populated, dead graph
//! nodes, and empty results.

use std::collections::HashMap;
use std::fmt;

use clio_relational::database::Database;
use clio_relational::error::Result;
use clio_relational::funcs::FuncRegistry;
use clio_relational::table::Table;
use clio_relational::value::Value;

use crate::mapping::Mapping;

/// One diagnostic about a mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// A target attribute has no correspondence — it will always be null.
    UnmappedAttribute {
        /// The attribute name.
        attr: String,
    },
    /// A `NOT NULL` target attribute has no correspondence: combined with
    /// the derived `IS NOT NULL` filter, the mapping can never produce a
    /// tuple.
    RequiredAttributeUnmapped {
        /// The attribute name.
        attr: String,
    },
    /// Two distinct target tuples agree on the key attributes but differ
    /// elsewhere — merging them into one target relation loses or
    /// duplicates information.
    KeyConflict {
        /// The key attribute names.
        key: Vec<String>,
        /// The conflicting key value.
        key_values: Vec<Value>,
        /// How many distinct tuples share the key.
        tuples: usize,
    },
    /// A leaf node of the query graph is referenced by no correspondence
    /// and no filter: it only trims/expands rows silently.
    UnusedNode {
        /// The node alias.
        alias: String,
    },
    /// The mapping query produces no tuples on this instance.
    EmptyResult,
    /// An expression has a definite static type error (it would fail on
    /// first evaluation over a matching row).
    TypeError {
        /// Where the expression lives: `"correspondence for <attr>"`,
        /// `"source filter"`, `"target filter"`, or `"edge <a> -- <b>"`.
        context: String,
        /// The type checker's message.
        message: String,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::UnmappedAttribute { attr } => {
                write!(f, "target attribute `{attr}` is unmapped (always null)")
            }
            Finding::RequiredAttributeUnmapped { attr } => write!(
                f,
                "required target attribute `{attr}` is unmapped: the mapping can never \
                 produce a tuple once its NOT NULL constraint is enforced"
            ),
            Finding::KeyConflict {
                key,
                key_values,
                tuples,
            } => write!(
                f,
                "key conflict: {tuples} distinct tuples share {}({})",
                key.join(","),
                key_values
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            Finding::UnusedNode { alias } => write!(
                f,
                "graph node `{alias}` feeds no correspondence or filter; it only \
                 changes which rows appear"
            ),
            Finding::EmptyResult => write!(f, "the mapping produces no tuples on this instance"),
            Finding::TypeError { context, message } => {
                write!(f, "type error in {context}: {message}")
            }
        }
    }
}

/// Run all diagnostics. `target_keys` lists candidate keys of the target
/// relation (attribute-name sets) to check for merge conflicts.
pub fn verify_mapping(
    mapping: &Mapping,
    db: &Database,
    funcs: &FuncRegistry,
    target_keys: &[Vec<String>],
) -> Result<Vec<Finding>> {
    verify_with(mapping, db, funcs, target_keys, || {
        mapping.evaluate(db, funcs)
    })
}

/// [`verify_mapping`] with the data checks reading the mapping's result
/// from `evaluate`, called at most once: a
/// [`Session`](crate::session::Session) passes its compiled form's
/// evaluation through its cache.
pub(crate) fn verify_with(
    mapping: &Mapping,
    db: &Database,
    funcs: &FuncRegistry,
    target_keys: &[Vec<String>],
    evaluate: impl FnOnce() -> Result<Table>,
) -> Result<Vec<Finding>> {
    mapping.validate(db, funcs)?;
    let mut findings = Vec::new();

    // static type checks (advisory: inference errors become findings)
    let scheme = mapping.graph.scheme(db)?;
    let tscheme = mapping.target_scheme();
    for v in &mapping.correspondences {
        if let Err(e) = clio_relational::typing::infer_type(&v.expr, &scheme) {
            findings.push(Finding::TypeError {
                context: format!("correspondence for {}", v.target_attr),
                message: e.to_string(),
            });
        }
    }
    for e in &mapping.source_filters {
        if let Err(err) = clio_relational::typing::infer_type(e, &scheme) {
            findings.push(Finding::TypeError {
                context: "source filter".into(),
                message: err.to_string(),
            });
        }
    }
    for e in &mapping.target_filters {
        if let Err(err) = clio_relational::typing::infer_type(e, &tscheme) {
            findings.push(Finding::TypeError {
                context: "target filter".into(),
                message: err.to_string(),
            });
        }
    }
    for edge in mapping.graph.edges() {
        if let Err(err) = clio_relational::typing::infer_type(&edge.predicate, &scheme) {
            findings.push(Finding::TypeError {
                context: format!(
                    "edge {} -- {}",
                    mapping.graph.nodes()[edge.a].alias,
                    mapping.graph.nodes()[edge.b].alias
                ),
                message: err.to_string(),
            });
        }
    }

    // unmapped attributes
    for attr in mapping.target.attrs() {
        if mapping.correspondence_for(&attr.name).is_none() {
            if attr.not_null {
                findings.push(Finding::RequiredAttributeUnmapped {
                    attr: attr.name.clone(),
                });
            } else {
                findings.push(Finding::UnmappedAttribute {
                    attr: attr.name.clone(),
                });
            }
        }
    }

    // unused leaf nodes
    for (i, node) in mapping.graph.nodes().iter().enumerate() {
        if mapping.graph.neighbors(i).len() > 1 {
            continue; // interior nodes legitimately route joins
        }
        let alias = node.alias.as_str();
        let used_by_corr = mapping
            .correspondences
            .iter()
            .any(|v| v.source_qualifiers().contains(&alias));
        let used_by_filter = mapping
            .source_filters
            .iter()
            .any(|e| e.qualifiers().contains(&alias));
        if !used_by_corr && !used_by_filter && mapping.graph.node_count() > 1 {
            findings.push(Finding::UnusedNode {
                alias: alias.to_owned(),
            });
        }
    }

    // evaluate once for the data-driven checks — unless static typing
    // already found definite errors (evaluation would fail the same way)
    if findings
        .iter()
        .any(|f| matches!(f, Finding::TypeError { .. }))
    {
        return Ok(findings);
    }
    let out = evaluate()?;
    if out.is_empty() {
        findings.push(Finding::EmptyResult);
    }

    for key in target_keys {
        let idxs: Vec<usize> = key
            .iter()
            .map(|a| mapping.target.index_of(a))
            .collect::<Result<_>>()?;
        // the key values in the order they first appear in the result,
        // each with the number of tuples holding it
        let mut groups: Vec<(Vec<Value>, usize)> = Vec::new();
        let mut group_of: HashMap<Vec<Value>, usize> = HashMap::new();
        for row in out.rows() {
            let kv: Vec<Value> = idxs.iter().map(|&i| row[i].clone()).collect();
            if kv.iter().any(Value::is_null) {
                continue;
            }
            let g = *group_of.entry(kv.clone()).or_insert_with(|| {
                groups.push((kv, 0));
                groups.len() - 1
            });
            groups[g].1 += 1;
        }
        for (kv, count) in groups {
            if count > 1 {
                findings.push(Finding::KeyConflict {
                    key: key.clone(),
                    key_values: kv,
                    tuples: count,
                });
            }
        }
    }

    Ok(findings)
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
                .attr("mid", DataType::Str)
                .row(vec!["001".into(), "201".into()])
                .row(vec!["002".into(), "202".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("Parents")
                .attr_not_null("ID", DataType::Str)
                .attr("phone", DataType::Str)
                .row(vec!["201".into(), "555-1".into()])
                .row(vec!["201".into(), "555-2".into()]) // two phones!
                .row(vec!["202".into(), "555-3".into()])
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
                Attribute::new("phone", DataType::Str),
                Attribute::new("nickname", DataType::Str),
            ],
        )
        .unwrap()
    }

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    fn mapping() -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        Mapping::new(g, target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity("Parents.phone", "phone"))
            .with_target_not_null_filters()
    }

    #[test]
    fn reports_unmapped_nullable_attribute() {
        let findings = verify_mapping(&mapping(), &db(), &funcs(), &[]).unwrap();
        assert!(findings
            .iter()
            .any(|f| matches!(f, Finding::UnmappedAttribute { attr } if attr == "nickname")));
    }

    #[test]
    fn reports_key_conflicts_from_fanout() {
        // child 001's mother has two phones: two target tuples share ID 001
        let findings =
            verify_mapping(&mapping(), &db(), &funcs(), &[vec!["ID".to_owned()]]).unwrap();
        let conflict = findings
            .iter()
            .find(|f| matches!(f, Finding::KeyConflict { .. }))
            .expect("expected a key conflict");
        let Finding::KeyConflict {
            key_values, tuples, ..
        } = conflict
        else {
            unreachable!()
        };
        assert_eq!(key_values, &vec![Value::str("001")]);
        assert_eq!(*tuples, 2);
    }

    /// Key conflicts come out in the order their key values first
    /// appear in the mapping's result, the same in every run.
    #[test]
    fn key_conflicts_follow_the_result_order() {
        let mut kids = RelationBuilder::new("Children")
            .attr_not_null("ID", DataType::Str)
            .attr("mid", DataType::Str);
        let mut parents = RelationBuilder::new("Parents")
            .attr_not_null("ID", DataType::Str)
            .attr("phone", DataType::Str);
        for (i, id) in ["005", "003", "001", "006", "004", "002"]
            .iter()
            .enumerate()
        {
            let mid = format!("2{i:02}");
            kids = kids.row(vec![(*id).into(), mid.as_str().into()]);
            for phone in ["a", "b"] {
                parents = parents.row(vec![mid.as_str().into(), format!("{id}-{phone}").into()]);
            }
        }
        let mut db = Database::new();
        db.add_relation(kids.build().unwrap()).unwrap();
        db.add_relation(parents.build().unwrap()).unwrap();
        let mut first_seen: Vec<Value> = Vec::new();
        for row in mapping().evaluate(&db, &funcs()).unwrap().rows() {
            if !first_seen.contains(&row[0]) {
                first_seen.push(row[0].clone());
            }
        }
        let findings = verify_mapping(&mapping(), &db, &funcs(), &[vec!["ID".to_owned()]]).unwrap();
        let conflicts: Vec<Value> = findings
            .iter()
            .filter_map(|f| match f {
                Finding::KeyConflict {
                    key_values, tuples, ..
                } => {
                    assert_eq!(*tuples, 2);
                    Some(key_values[0].clone())
                }
                _ => None,
            })
            .collect();
        assert_eq!(conflicts.len(), 6);
        assert_eq!(conflicts, first_seen);
    }

    #[test]
    fn reports_required_attribute_unmapped() {
        let mut m = mapping();
        m.correspondences.retain(|c| c.target_attr != "ID");
        let findings = verify_mapping(&m, &db(), &funcs(), &[]).unwrap();
        assert!(findings
            .iter()
            .any(|f| matches!(f, Finding::RequiredAttributeUnmapped { attr } if attr == "ID")));
        // and indeed the result is empty (ID filter can never pass)
        assert!(findings.contains(&Finding::EmptyResult));
    }

    #[test]
    fn reports_unused_leaf_node() {
        let mut m = mapping();
        m.correspondences.retain(|c| c.target_attr != "phone");
        let findings = verify_mapping(&m, &db(), &funcs(), &[]).unwrap();
        assert!(findings
            .iter()
            .any(|f| matches!(f, Finding::UnusedNode { alias } if alias == "Parents")));
    }

    #[test]
    fn clean_mapping_with_unique_keys_has_no_conflicts() {
        let mut database = db();
        // remove the duplicate phone
        let parents = RelationBuilder::new("ParentsClean")
            .attr_not_null("ID", DataType::Str)
            .attr("phone", DataType::Str)
            .row(vec!["201".into(), "555-1".into()])
            .row(vec!["202".into(), "555-3".into()])
            .build()
            .unwrap();
        database.add_relation(parents).unwrap();
        let mut m = mapping();
        // swap the node to the clean copy
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g
            .add_node(Node::copy_of("Parents", "ParentsClean"))
            .unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        m.graph = g;
        let findings = verify_mapping(&m, &database, &funcs(), &[vec!["ID".to_owned()]]).unwrap();
        assert!(!findings
            .iter()
            .any(|f| matches!(f, Finding::KeyConflict { .. })));
        assert!(!findings.contains(&Finding::EmptyResult));
    }

    #[test]
    fn type_errors_surface_as_findings() {
        let mut m = mapping();
        // comparing a string ID with an integer is a definite mismatch
        m.source_filters
            .push(parse_expr("Children.ID < 5").unwrap());
        let findings = verify_mapping(&m, &db(), &funcs(), &[]).unwrap();
        let type_err = findings
            .iter()
            .find(|f| matches!(f, Finding::TypeError { .. }))
            .expect("expected a type error finding");
        let Finding::TypeError { context, message } = type_err else {
            unreachable!()
        };
        assert_eq!(context, "source filter");
        assert!(message.contains("cannot compare"));
    }

    #[test]
    fn arithmetic_type_error_in_correspondence() {
        let mut m = mapping();
        m.set_correspondence(ValueCorrespondence::parse("Children.ID + 1", "phone").unwrap());
        let findings = verify_mapping(&m, &db(), &funcs(), &[]).unwrap();
        assert!(findings
            .iter()
            .any(|f| matches!(f, Finding::TypeError { context, .. } if context.contains("phone"))));
    }

    #[test]
    fn findings_render_readably() {
        let f = Finding::KeyConflict {
            key: vec!["ID".into()],
            key_values: vec![Value::str("001")],
            tuples: 2,
        };
        assert_eq!(
            f.to_string(),
            "key conflict: 2 distinct tuples share ID(001)"
        );
        assert!(Finding::EmptyResult.to_string().contains("no tuples"));
    }
}
