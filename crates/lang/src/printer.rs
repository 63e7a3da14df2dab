//! Canonical printer: render a [`Mapping`] as `MAP ...` statement text.
//!
//! The output always parses back to an equal mapping
//! (`parse_map(&print_mapping(&m)) == m`). Identifiers are quoted under
//! the expression lexer's rules *plus* the language's own clause
//! keywords: a relation named `from` prints as `"from"` so it cannot be
//! read as a clause boundary.

use clio_core::prelude::{Mapping, Node};
use clio_relational::schema::{format_ident, ident_needs_quoting, RelSchema};

/// The language's keywords, quoted by [`lang_ident`] in addition to the
/// expression language's own.
const KEYWORDS: [&str; 10] = [
    "MAP", "FROM", "JOIN", "ON", "WHERE", "SELECT", "AS", "CODE", "SOURCE", "TARGET",
];

/// Render an identifier so the statement parser reads it back verbatim:
/// like [`format_ident`], but clause keywords are also quoted.
#[must_use]
pub fn lang_ident(name: &str) -> String {
    if !ident_needs_quoting(name) && KEYWORDS.iter().any(|k| k.eq_ignore_ascii_case(name)) {
        format!("\"{}\"", name.replace('"', "\"\""))
    } else {
        format_ident(name)
    }
}

/// Render a target schema as `Name (attr type [not null], ...)`: the
/// `MAP` clause's header, which
/// [`parse_target_schema`](crate::parse_target_schema) reads back.
#[must_use]
pub fn print_target_schema(schema: &RelSchema) -> String {
    let attrs: Vec<String> = schema
        .attrs()
        .iter()
        .map(|a| {
            let not_null = if a.not_null { " not null" } else { "" };
            format!("{} {}{not_null}", lang_ident(&a.name), a.ty)
        })
        .collect();
    format!("{} ({})", lang_ident(schema.name()), attrs.join(", "))
}

/// Serialize a mapping as canonical `MAP` statement text: one clause
/// per line, in `MAP`, `FROM`, `JOIN`, `WHERE SOURCE`, `WHERE TARGET`,
/// `SELECT` order.
#[must_use]
pub fn print_mapping(m: &Mapping) -> String {
    let mut out = format!("MAP {}\n", print_target_schema(&m.target));
    if m.graph.node_count() > 0 {
        let items: Vec<String> = m.graph.nodes().iter().map(node_item).collect();
        out.push_str(&format!("FROM {}\n", items.join(", ")));
    }
    for e in m.graph.edges() {
        out.push_str(&format!(
            "JOIN {}, {} ON {}\n",
            lang_ident(&m.graph.nodes()[e.a].alias),
            lang_ident(&m.graph.nodes()[e.b].alias),
            e.predicate
        ));
    }
    for f in &m.source_filters {
        out.push_str(&format!("WHERE SOURCE {f}\n"));
    }
    for f in &m.target_filters {
        out.push_str(&format!("WHERE TARGET {f}\n"));
    }
    if !m.correspondences.is_empty() {
        let items: Vec<String> = m
            .correspondences
            .iter()
            .map(|v| format!("{} AS {}", v.expr, lang_ident(&v.target_attr)))
            .collect();
        out.push_str(&format!("SELECT {}\n", items.join(", ")));
    }
    out
}

/// One `FROM` item: `relation [AS alias] [CODE code]`, with `CODE`
/// emitted only when the code differs from the node's derived default.
fn node_item(n: &Node) -> String {
    let mut s = lang_ident(&n.relation);
    if n.alias != n.relation {
        s.push_str(&format!(" AS {}", lang_ident(&n.alias)));
    }
    let default_node = if n.alias == n.relation {
        Node::new(n.alias.clone())
    } else {
        Node::copy_of(n.alias.clone(), n.relation.clone())
    };
    if n.code != default_node.code {
        s.push_str(&format!(" CODE {}", lang_ident(&n.code)));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_map;
    use clio_core::prelude::{QueryGraph, ValueCorrespondence};
    use clio_relational::parser::parse_expr;
    use clio_relational::schema::Attribute;
    use clio_relational::value::DataType;

    fn sample_mapping() -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p2 = g.add_node(Node::copy_of("Parents2", "Parents")).unwrap();
        let ph = g.add_node(Node::new("PhoneDir")).unwrap();
        g.add_edge(c, p2, parse_expr("Children.mid = Parents2.ID").unwrap())
            .unwrap();
        g.add_edge(p2, ph, parse_expr("PhoneDir.ID = Parents2.ID").unwrap())
            .unwrap();
        let target = RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("contactPh", DataType::Str),
            ],
        )
        .unwrap();
        Mapping::new(g, target)
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(
                ValueCorrespondence::parse(
                    "concat(PhoneDir.type, ',', PhoneDir.number)",
                    "contactPh",
                )
                .unwrap(),
            )
            .with_source_filter(parse_expr("Children.age < 7").unwrap())
            .with_target_not_null_filters()
    }

    #[test]
    fn printed_text_is_readable() {
        let text = print_mapping(&sample_mapping());
        assert!(
            text.contains("MAP Kids (ID str not null, contactPh str)"),
            "{text}"
        );
        assert!(
            text.contains("FROM Children, Parents AS Parents2, PhoneDir"),
            "{text}"
        );
        assert!(
            text.contains("JOIN Children, Parents2 ON Children.mid = Parents2.ID"),
            "{text}"
        );
        assert!(text.contains("WHERE SOURCE Children.age < 7"), "{text}");
        assert!(text.contains("WHERE TARGET Kids.ID IS NOT NULL"), "{text}");
        assert!(text.contains("AS contactPh"), "{text}");
    }

    #[test]
    fn print_parse_round_trips() {
        let m = sample_mapping();
        assert_eq!(parse_map(&print_mapping(&m)).unwrap(), m);
    }

    #[test]
    fn quoted_and_keyword_identifiers_round_trip() {
        let mut g = QueryGraph::new();
        let a = g.add_node(Node::copy_of("My Rel", "weird rel")).unwrap();
        let b = g.add_node(Node::new("Other").with_code("x y")).unwrap();
        let f = g.add_node(Node::copy_of("from", "select")).unwrap();
        g.add_edge(a, b, parse_expr("\"My Rel\".\"a b\" = Other.z").unwrap())
            .unwrap();
        g.add_edge(b, f, parse_expr("Other.z = \"from\".x").unwrap())
            .unwrap();
        let target = RelSchema::new(
            "Tar get",
            vec![
                Attribute::not_null("id col", DataType::Str),
                Attribute::new("and", DataType::Int),
                Attribute::new("where", DataType::Int),
            ],
        )
        .unwrap();
        let m = Mapping::new(g, target)
            .with_correspondence(
                ValueCorrespondence::parse("\"My Rel\".\"a b\"", "id col").unwrap(),
            )
            .with_source_filter(parse_expr("\"My Rel\".\"a b\" IS NOT NULL").unwrap());
        let text = print_mapping(&m);
        assert!(text.contains("FROM \"weird rel\" AS \"My Rel\""), "{text}");
        assert!(text.contains("\"select\" AS \"from\""), "{text}");
        assert!(text.contains("\"where\" int"), "{text}");
        assert_eq!(parse_map(&text).unwrap(), m);
    }

    #[test]
    fn custom_codes_round_trip_and_default_codes_are_omitted() {
        let mut g = QueryGraph::new();
        g.add_node(Node::new("PhoneDir").with_code("D")).unwrap();
        g.add_node(Node::new("Parents")).unwrap();
        let m = Mapping::new(
            g,
            RelSchema::new("T", vec![Attribute::new("a", DataType::Int)]).unwrap(),
        );
        let text = print_mapping(&m);
        assert!(text.contains("PhoneDir CODE D"), "{text}");
        assert!(!text.contains("Parents CODE"), "{text}");
        assert_eq!(parse_map(&text).unwrap(), m);
    }

    #[test]
    fn target_schemas_round_trip_on_their_own() {
        use crate::parser::parse_target_schema;
        let quoted = RelSchema::new(
            "Tar get",
            vec![
                Attribute::not_null("id col", DataType::Str),
                Attribute::new("and", DataType::Int),
                Attribute::new("from", DataType::Bool),
            ],
        )
        .unwrap();
        let text = print_target_schema(&quoted);
        assert_eq!(
            text,
            "\"Tar get\" (\"id col\" str not null, \"and\" int, \"from\" bool)"
        );
        for schema in [
            quoted,
            sample_mapping().target,
            RelSchema::new("Empty", vec![]).unwrap(),
        ] {
            let text = print_target_schema(&schema);
            assert_eq!(parse_target_schema(&text).unwrap(), schema, "{text}");
        }
    }

    #[test]
    fn target_only_mappings_round_trip() {
        let m = Mapping::new(
            QueryGraph::new(),
            RelSchema::new("T", vec![Attribute::new("a", DataType::Int)]).unwrap(),
        );
        let text = print_mapping(&m);
        assert_eq!(text, "MAP T (a int)\n");
        assert_eq!(parse_map(&text).unwrap(), m);
    }
}
