//! The `explain` tree renderer.
//!
//! Renders a [`Plan`] as an indented tree using box-drawing connectors,
//! one operator per line, with the pushdown decisions and branch warmth
//! annotated in place: pushed filter copies are marked `pushed`, the
//! minimum-union line reports how many subgraph branches the rewrite
//! pruned, and each branch line carries its node set and whether the
//! plan's cache holds its `F(J)` right now (`[warm]`) or not (`[cold]`).

use clio_relational::schema::format_ident;

use super::ir::{FilterScope, RelExpr};
use super::Plan;
use crate::incremental::Versions;

/// Render `plan` as the multi-line `explain` tree.
#[must_use]
pub(super) fn render(plan: &Plan) -> String {
    let mut out = String::new();
    let algo = match plan.disjunction() {
        RelExpr::Union { .. } => "minimum-union (cyclic)",
        _ => "outer-join (tree)",
    };
    out.push_str(&format!(
        "plan for {} — {algo}",
        format_ident(plan.compiled.mapping.target.name())
    ));
    if !plan.compiled.pushed.is_empty() {
        out.push_str(&format!(
            ", {} filter(s) pushed, {} subgraph(s) pruned",
            plan.compiled.pushed.len(),
            plan.compiled.pruned
        ));
    }
    out.push('\n');
    node(plan, plan.root(), "", "", &mut out);
    out
}

fn label(plan: &Plan, e: &RelExpr) -> String {
    match e {
        RelExpr::Scan { alias, relation } if alias == relation => {
            format!("Scan {}", format_ident(relation))
        }
        RelExpr::Scan { alias, relation } => {
            format!("Scan {} AS {}", format_ident(relation), format_ident(alias))
        }
        RelExpr::Join {
            predicate, outer, ..
        } => {
            let kind = if *outer { "FullOuterJoin" } else { "Join" };
            format!("{kind} ON {predicate}")
        }
        RelExpr::Filter {
            predicate,
            scope,
            pushed,
            ..
        } => {
            let scope = match scope {
                FilterScope::Source => "source",
                FilterScope::Target => "target",
            };
            let pushed = if *pushed { ", pushed" } else { "" };
            format!("Filter ({scope}{pushed}) {predicate}")
        }
        RelExpr::Union { inputs, .. } => {
            let mut s = format!("MinUnion of {} subgraph(s)", inputs.len());
            if plan.compiled.pruned > 0 {
                s.push_str(&format!(
                    " ({} pruned by pushed filters)",
                    plan.compiled.pruned
                ));
            }
            s
        }
        RelExpr::Project {
            correspondences,
            target,
            ..
        } => {
            let attrs: Vec<String> = target
                .attrs()
                .iter()
                .map(|a| format_ident(&a.name))
                .collect();
            format!(
                "Project {}({}) via {} correspondence(s)",
                format_ident(target.name()),
                attrs.join(", "),
                correspondences.len()
            )
        }
    }
}

/// One line for `e` under `head` (connector of this line) / `tail`
/// (prefix for its children), then recurse.
fn node(plan: &Plan, e: &RelExpr, head: &str, tail: &str, out: &mut String) {
    out.push_str(head);
    out.push_str(&label(plan, e));
    out.push('\n');
    let (children, masks): (Vec<&RelExpr>, &[u64]) = match e {
        RelExpr::Scan { .. } => (Vec::new(), &[]),
        RelExpr::Join { left, right, .. } => (vec![left, right], &[]),
        RelExpr::Filter { input, .. } | RelExpr::Project { input, .. } => (vec![input], &[]),
        RelExpr::Union { inputs, masks, .. } => (inputs.iter().collect(), masks),
    };
    // a non-promoting peek per branch: rendering never changes what the
    // cache keeps
    let graph = &plan.compiled.mapping.graph;
    let cache = plan
        .cache
        .filter(|c| c.enabled() && !masks.is_empty())
        .map(|c| (c, Versions::read(graph, c)));
    for (i, child) in children.iter().enumerate() {
        let last = i + 1 == children.len();
        let (branch, cont) = if last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        let head = format!("{tail}{branch}");
        let tail = format!("{tail}{cont}");
        if let Some(&mask) = masks.get(i) {
            // annotate the branch with its subgraph and warmth
            let members: Vec<String> = graph
                .nodes()
                .iter()
                .enumerate()
                .filter(|(j, _)| mask & (1 << j) != 0)
                .map(|(_, n)| n.code.clone())
                .collect();
            let warm = cache.as_ref().is_some_and(|(c, versions)| {
                let key = plan.compiled.form.built_key(mask);
                key.is_some_and(|key| c.peek(key.key(versions)))
            });
            let warmth = if warm { "warm" } else { "cold" };
            out.push_str(&format!("{head}F({{{}}}) [{warmth}]\n", members.join(",")));
            node(
                plan,
                child,
                &format!("{tail}└─ "),
                &format!("{tail}   "),
                out,
            );
        } else {
            node(plan, child, &head, &tail, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::correspondence::ValueCorrespondence;
    use crate::mapping::Mapping;
    use crate::plan::Plan;
    use crate::query_graph::{Node, QueryGraph};
    use clio_relational::database::Database;
    use clio_relational::funcs::FuncRegistry;
    use clio_relational::parser::parse_expr;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::schema::{Attribute, RelSchema};
    use clio_relational::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("age", DataType::Int)
                .attr("mid", DataType::Str)
                .row(vec!["001".into(), 6i64.into(), "201".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("Parents")
                .attr_not_null("ID", DataType::Str)
                .row(vec!["201".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn target() -> RelSchema {
        RelSchema::new("Kids", vec![Attribute::not_null("ID", DataType::Str)]).unwrap()
    }

    #[test]
    fn tree_plans_render_outer_join_chains() {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        let m = Mapping::new(g, target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_target_not_null_filters();
        let plan = Plan::new(&m, &db(), &FuncRegistry::with_builtins(), None).unwrap();
        let text = plan.explain();
        assert!(text.contains("outer-join (tree)"), "{text}");
        assert!(
            text.contains("Filter (target) Kids.ID IS NOT NULL"),
            "{text}"
        );
        assert!(
            text.contains("Project Kids(ID) via 1 correspondence(s)"),
            "{text}"
        );
        assert!(
            text.contains("FullOuterJoin ON Children.mid = Parents.ID"),
            "{text}"
        );
        assert!(text.contains("└─ Scan Parents"), "{text}");
    }

    #[test]
    fn cyclic_plans_render_branches_with_annotations() {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        let p2 = g.add_node(Node::copy_of("P2", "Parents")).unwrap();
        g.add_edge(c, p2, parse_expr("Children.mid = P2.ID").unwrap())
            .unwrap();
        g.add_edge(p, p2, parse_expr("Parents.ID = P2.ID").unwrap())
            .unwrap();
        let m = Mapping::new(g, target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_source_filter(parse_expr("Children.age < 7").unwrap());
        let plan = Plan::new(&m, &db(), &FuncRegistry::with_builtins(), None).unwrap();
        let text = plan.explain();
        assert!(text.contains("minimum-union (cyclic)"), "{text}");
        assert!(text.contains("1 filter(s) pushed"), "{text}");
        assert!(text.contains("pruned by pushed filters"), "{text}");
        assert!(
            text.contains("Filter (source, pushed) Children.age < 7"),
            "{text}"
        );
        assert!(text.contains("[cold]"), "{text}");
        assert!(text.contains("F({"), "{text}");
    }
}
