//! SQL generation: render a mapping as the view definition Clio would
//! install (paper Sec 2's `create view Kids as select … left join …`).
//!
//! The generated SQL is a *presentation* of the mapping for DBAs and for
//! export; the authoritative semantics is
//! [`Mapping::evaluate`](crate::mapping::Mapping::evaluate) over the full
//! disjunction. For tree-shaped graphs rooted at a required relation —
//! the common case the paper's example shows — the rendered
//! `LEFT JOIN` chain computes the same result: associations not involving
//! the root are exactly those the root-attribute `IS NOT NULL` target
//! filter trims, and required (inner-joined) nodes are those whose
//! attributes some target filter forces non-null.

use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::Expr;
use clio_relational::simplify::simplify;
use clio_relational::value::Value;

use crate::mapping::Mapping;
use crate::plan::ir::is_strict_scalar;
use crate::query_graph::NodeId;

/// Options controlling SQL rendering.
#[derive(Debug, Clone, Default)]
pub struct SqlOptions {
    /// Root node alias for the join chain. Defaults to a node required by
    /// the target filters, else the first node.
    pub root: Option<String>,
    /// Emit `CREATE VIEW <target> AS` before the query.
    pub create_view: bool,
}

/// Which graph nodes are *required* (inner-joined): nodes referenced by
/// the null-strict correspondence of a target attribute that some
/// target filter forces non-null. A correspondence that is not strict
/// (`coalesce(Parents.salary, Parents2.salary)`) can be non-null with a
/// node missing, so it requires none of its nodes.
#[must_use]
pub fn required_nodes(mapping: &Mapping) -> Vec<NodeId> {
    let mut required = Vec::new();
    for filter in &mapping.target_filters {
        let Expr::IsNull {
            expr,
            negated: true,
        } = filter
        else {
            continue;
        };
        let Expr::Column(col) = expr.as_ref() else {
            continue;
        };
        let Some(v) = mapping
            .correspondence_for(&col.name)
            .filter(|v| is_strict_scalar(&v.expr))
        else {
            continue;
        };
        for q in v.source_qualifiers() {
            if let Some(id) = mapping.graph.node_by_alias(q) {
                if !required.contains(&id) {
                    required.push(id);
                }
            }
        }
    }
    required
}

/// Render the mapping as SQL.
pub fn generate_sql(mapping: &Mapping, db: &Database, options: &SqlOptions) -> Result<String> {
    let graph = &mapping.graph;
    if graph.node_count() == 0 {
        return Err(Error::Invalid(
            "cannot render SQL for an empty graph".into(),
        ));
    }
    let required = required_nodes(mapping);
    let root = match &options.root {
        Some(alias) => graph
            .node_by_alias(alias)
            .ok_or_else(|| Error::Invalid(format!("unknown root alias `{alias}`")))?,
        None => *required.first().unwrap_or(&0),
    };
    let order = graph.connected_order(root)?;

    let mut sql = String::new();
    if options.create_view {
        sql.push_str(&format!("CREATE VIEW {} AS\n", mapping.target.name()));
    }

    // SELECT clause: one output per target attribute, in target order
    sql.push_str("SELECT ");
    let mut first = true;
    for attr in mapping.target.attrs() {
        if !first {
            sql.push_str(",\n       ");
        }
        first = false;
        match mapping.correspondence_for(&attr.name) {
            Some(v) => sql.push_str(&format!("{} AS {}", v.expr, attr.name)),
            None => sql.push_str(&format!("{} AS {}", Expr::Literal(Value::Null), attr.name)),
        }
    }
    sql.push('\n');

    // FROM clause: join chain in connected order
    let render_rel = |id: NodeId| {
        let n = &graph.nodes()[id];
        if n.alias == n.relation {
            n.relation.clone()
        } else {
            format!("{} AS {}", n.relation, n.alias)
        }
    };
    sql.push_str(&format!("FROM {}", render_rel(order[0])));
    let mut included: u64 = 1 << order[0];
    for &n in &order[1..] {
        let preds: Vec<Expr> = graph
            .edges()
            .iter()
            .filter(|e| {
                (e.a == n && included & (1 << e.b) != 0) || (e.b == n && included & (1 << e.a) != 0)
            })
            .map(|e| e.predicate.clone())
            .collect();
        let on = simplify(&Expr::conjunction(preds));
        let kind = if required.contains(&n) {
            "JOIN"
        } else {
            "LEFT JOIN"
        };
        sql.push_str(&format!("\n  {kind} {} ON {on}", render_rel(n)));
        included |= 1 << n;
    }
    sql.push('\n');

    // WHERE: source filters
    if !mapping.source_filters.is_empty() {
        let w = simplify(&Expr::conjunction(mapping.source_filters.clone()));
        sql.push_str(&format!("WHERE {w}\n"));
    }

    // target filters that are not already realized structurally: the
    // root's / required nodes' IS NOT NULL filters are absorbed by the
    // join chain; everything else wraps the query (Def 3.14's outer
    // SELECT)
    let residual: Vec<&Expr> = mapping
        .target_filters
        .iter()
        .filter(|f| !absorbed_by_joins(f, mapping, db, &required, root))
        .collect();
    if !residual.is_empty() {
        let inner = sql;
        let conj = simplify(&Expr::conjunction(residual.into_iter().cloned().collect()));
        let mut out = String::new();
        if options.create_view {
            // keep the CREATE VIEW header outermost
            let body = inner
                .strip_prefix(&format!("CREATE VIEW {} AS\n", mapping.target.name()))
                .unwrap_or(&inner)
                .to_owned();
            out.push_str(&format!("CREATE VIEW {} AS\n", mapping.target.name()));
            out.push_str(&format!(
                "SELECT * FROM (\n{}\n) AS {}\nWHERE {}\n",
                indent(body.trim_end()),
                mapping.target.name(),
                conj
            ));
        } else {
            out.push_str(&format!(
                "SELECT * FROM (\n{}\n) AS {}\nWHERE {}\n",
                indent(inner.trim_end()),
                mapping.target.name(),
                conj
            ));
        }
        sql = out;
    }

    // sanity: every alias used in the SQL binds against the database
    mapping.validate(db, &clio_relational::funcs::FuncRegistry::with_builtins())?;
    Ok(sql)
}

/// Is this target filter realized structurally by the join chain? True
/// for `T.B IS NOT NULL` when `B`'s correspondence only references the
/// root or inner-joined nodes (those rows always have the node present).
fn absorbed_by_joins(
    filter: &Expr,
    mapping: &Mapping,
    db: &Database,
    required: &[NodeId],
    root: NodeId,
) -> bool {
    let Expr::IsNull {
        expr,
        negated: true,
    } = filter
    else {
        return false;
    };
    let Expr::Column(col) = expr.as_ref() else {
        return false;
    };
    let Some(v) = mapping.correspondence_for(&col.name) else {
        return false;
    };
    // only a bare column correspondence guarantees non-null from presence
    let Expr::Column(src) = &v.expr else {
        return false;
    };
    let Some(q) = &src.qualifier else {
        return false;
    };
    let Some(id) = mapping.graph.node_by_alias(q) else {
        return false;
    };
    if id != root && !required.contains(&id) {
        return false;
    }
    // presence guarantees non-null only if the source attribute itself is
    // declared NOT NULL
    let node = &mapping.graph.nodes()[id];
    match db.relation(&node.relation) {
        Ok(rel) => rel
            .schema()
            .attr(&src.name)
            .map(|a| a.not_null)
            .unwrap_or(false),
        Err(_) => false,
    }
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
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
        for (name, attrs) in [
            ("Children", vec!["ID", "name", "mid", "fid"]),
            ("Parents", vec!["ID", "affiliation", "address"]),
            ("PhoneDir", vec!["ID", "number"]),
            ("SBPS", vec!["ID", "time"]),
        ] {
            let mut b = RelationBuilder::new(name);
            for a in attrs {
                let not_null = (a == "ID" && name != "SBPS") || (name == "SBPS" && a == "time");
                b = if not_null {
                    b.attr_not_null(a, DataType::Str)
                } else {
                    b.attr(a, DataType::Str)
                };
            }
            db.add_relation(b.build().unwrap()).unwrap();
        }
        db
    }

    /// The final Section-2 mapping: Children left-joined to Parents (fid),
    /// Parents2 (mid), PhoneDir and SBPS.
    fn section2_mapping() -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        let p2 = g.add_node(Node::copy_of("Parents2", "Parents")).unwrap();
        let d = g.add_node(Node::new("PhoneDir").with_code("Ph")).unwrap();
        let s = g.add_node(Node::new("SBPS").with_code("S")).unwrap();
        g.add_edge(c, p, parse_expr("Children.fid = Parents.ID").unwrap())
            .unwrap();
        g.add_edge(c, p2, parse_expr("Children.mid = Parents2.ID").unwrap())
            .unwrap();
        g.add_edge(p2, d, parse_expr("PhoneDir.ID = Parents2.ID").unwrap())
            .unwrap();
        g.add_edge(c, s, parse_expr("Children.ID = SBPS.ID").unwrap())
            .unwrap();

        let target = RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("name", DataType::Str),
                Attribute::new("affiliation", DataType::Str),
                Attribute::new("contactPh", DataType::Str),
                Attribute::new("BusSchedule", DataType::Str),
            ],
        )
        .unwrap();
        Mapping::new(g, target)
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity("Children.name", "name"))
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ))
            .with_correspondence(ValueCorrespondence::identity(
                "PhoneDir.number",
                "contactPh",
            ))
            .with_correspondence(ValueCorrespondence::identity("SBPS.time", "BusSchedule"))
            .with_target_not_null_filters()
    }

    #[test]
    fn section_2_sql_shape() {
        let sql = generate_sql(
            &section2_mapping(),
            &db(),
            &SqlOptions {
                root: Some("Children".into()),
                create_view: true,
            },
        )
        .unwrap();
        assert!(sql.starts_with("CREATE VIEW Kids AS"));
        assert!(sql.contains("Children.ID AS ID"));
        assert!(sql.contains("Children.name AS name"));
        assert!(sql.contains("PhoneDir.number AS contactPh"));
        assert!(sql.contains("SBPS.time AS BusSchedule"));
        assert!(sql.contains("FROM Children"));
        // four left joins, as in the paper's query
        assert_eq!(sql.matches("LEFT JOIN").count(), 4);
        assert!(sql.contains("LEFT JOIN Parents AS Parents2 ON Children.mid = Parents2.ID"));
        assert!(sql.contains("LEFT JOIN SBPS ON Children.ID = SBPS.ID"));
        // the Kids.ID IS NOT NULL filter is absorbed by rooting at Children
        assert!(!sql.contains("Kids.ID IS NOT NULL"));
    }

    #[test]
    fn requiring_bus_schedule_turns_left_join_inner() {
        // the paper: "Clio would then change this left outer join to an
        // inner join"
        let m =
            crate::operators::trim::require_target_attribute(&section2_mapping(), "BusSchedule");
        let sql = generate_sql(
            &m,
            &db(),
            &SqlOptions {
                root: Some("Children".into()),
                create_view: false,
            },
        )
        .unwrap();
        assert!(sql.contains("\n  JOIN SBPS ON Children.ID = SBPS.ID"));
        assert_eq!(sql.matches("LEFT JOIN").count(), 3);
    }

    #[test]
    fn source_filters_render_in_where() {
        let m =
            section2_mapping().with_source_filter(parse_expr("Children.name IS NOT NULL").unwrap());
        let sql = generate_sql(
            &m,
            &db(),
            &SqlOptions {
                root: Some("Children".into()),
                create_view: false,
            },
        )
        .unwrap();
        assert!(sql.contains("WHERE Children.name IS NOT NULL"));
    }

    #[test]
    fn residual_target_filters_wrap_the_query() {
        let m = section2_mapping().with_target_filter(parse_expr("Kids.name IS NOT NULL").unwrap());
        let sql = generate_sql(
            &m,
            &db(),
            &SqlOptions {
                root: Some("Children".into()),
                create_view: false,
            },
        )
        .unwrap();
        // name is nullable in the source, so the filter is not absorbed
        assert!(sql.contains("SELECT * FROM ("));
        assert!(sql.contains("WHERE Kids.name IS NOT NULL"));
    }

    #[test]
    fn unmapped_attributes_render_as_null() {
        let mut m = section2_mapping();
        m.correspondences.retain(|c| c.target_attr != "BusSchedule");
        let sql = generate_sql(
            &m,
            &db(),
            &SqlOptions {
                root: Some("Children".into()),
                create_view: false,
            },
        )
        .unwrap();
        assert!(sql.contains("NULL AS BusSchedule"));
    }

    #[test]
    fn default_root_is_a_required_node() {
        let m = section2_mapping();
        let sql = generate_sql(&m, &db(), &SqlOptions::default()).unwrap();
        assert!(sql.contains("FROM Children"));
        assert_eq!(required_nodes(&m), vec![0]);
    }

    #[test]
    fn unknown_root_alias_errors() {
        let m = section2_mapping();
        let opts = SqlOptions {
            root: Some("Nope".into()),
            create_view: false,
        };
        assert!(generate_sql(&m, &db(), &opts).is_err());
    }

    #[test]
    fn create_view_wraps_residual_filter_correctly() {
        let m = section2_mapping().with_target_filter(parse_expr("Kids.name IS NOT NULL").unwrap());
        let sql = generate_sql(
            &m,
            &db(),
            &SqlOptions {
                root: Some("Children".into()),
                create_view: true,
            },
        )
        .unwrap();
        assert!(sql.starts_with("CREATE VIEW Kids AS\nSELECT * FROM ("));
        assert_eq!(sql.matches("CREATE VIEW").count(), 1);
    }
}
