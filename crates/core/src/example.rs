//! Mapping examples (paper Def 4.1).
//!
//! An example of a mapping `M` is a pair `e = (d, t)` where `d ∈ D(G)` is
//! a data association and `t = Q_{φ(M)}(d)` is the target tuple it induces
//! under the filter-free mapping. The example is **positive** when `d`
//! satisfies all source filters and `t` all target filters, **negative**
//! otherwise — negative examples show the user what data trimming removed.

use clio_relational::bitset::Bitset;
use clio_relational::schema::Scheme;
use clio_relational::value::Value;

use crate::query_graph::QueryGraph;

/// One mapping example `(d, t)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Example {
    /// The data association `d` (row over the graph's wide scheme).
    pub association: Vec<Value>,
    /// Coverage mask of `d`.
    pub coverage: u64,
    /// The induced target tuple `t = Q_{φ(M)}(d)`.
    pub target: Vec<Value>,
    /// `true` when `d ⊨ C_S` and `t ⊨ C_T`.
    pub positive: bool,
}

impl Example {
    /// What the sufficiency requirements read of this example.
    #[must_use]
    pub fn signature(&self) -> Signature {
        Signature::new(self.coverage, self.positive, &self.target)
    }

    /// Polarity tag used in rendered illustrations: `+` / `-`.
    #[must_use]
    pub fn polarity_tag(&self) -> &'static str {
        if self.positive {
            "+"
        } else {
            "-"
        }
    }
}

/// The part of an example every sufficiency requirement reads (paper
/// Defs 4.2–4.6): its coverage, its polarity and which of its target
/// values are null. The requirements read the null mask of a positive
/// example only.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Coverage mask of the association.
    pub coverage: u64,
    /// `true` when the example is positive.
    pub positive: bool,
    /// Bit `a` set when target value `a` is null.
    pub nulls: Bitset,
}

impl Signature {
    /// The signature of an example of `coverage` and polarity
    /// `positive` whose target row's cells are `target`.
    pub fn new<'v>(
        coverage: u64,
        positive: bool,
        target: impl IntoIterator<Item = &'v Value, IntoIter: ExactSizeIterator>,
    ) -> Signature {
        let target = target.into_iter();
        let mut nulls = Bitset::new(target.len());
        for (a, _) in target.enumerate().filter(|(_, v)| v.is_null()) {
            nulls.set(a);
        }
        Signature {
            coverage,
            positive,
            nulls,
        }
    }
}

/// Render a set of examples in the paper's Figure-9 style: association
/// rows tagged `"<coverage> <polarity>"`.
#[must_use]
pub fn render_examples(graph: &QueryGraph, scheme: &Scheme, examples: &[&Example]) -> String {
    let rows: Vec<Vec<Value>> = examples.iter().map(|e| e.association.clone()).collect();
    let tags: Vec<String> = examples
        .iter()
        .map(|e| format!("{} {}", graph.coverage_tag(e.coverage), e.polarity_tag()))
        .collect();
    clio_relational::display::render_table(scheme, &rows, &tags)
}

/// Render the *target side* of a set of examples (the induced tuples).
#[must_use]
pub fn render_example_targets(target_scheme: &Scheme, examples: &[&Example]) -> String {
    let rows: Vec<Vec<Value>> = examples.iter().map(|e| e.target.clone()).collect();
    let tags: Vec<String> = examples
        .iter()
        .map(|e| e.polarity_tag().to_owned())
        .collect();
    clio_relational::display::render_table(target_scheme, &rows, &tags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::Node;
    use clio_relational::expr::Expr;
    use clio_relational::schema::Column;
    use clio_relational::value::DataType;

    fn graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        g.add_node(Node::new("Children")).unwrap();
        g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(0, 1, Expr::col_eq("Children.mid", "Parents.ID"))
            .unwrap();
        g
    }

    fn example(positive: bool) -> Example {
        Example {
            association: vec!["002".into(), "202".into()],
            coverage: 0b11,
            target: vec!["002".into(), Value::Null],
            positive,
        }
    }

    #[test]
    fn polarity_tags() {
        assert_eq!(example(true).polarity_tag(), "+");
        assert_eq!(example(false).polarity_tag(), "-");
    }

    #[test]
    fn render_includes_coverage_and_polarity() {
        let scheme = Scheme::new(vec![
            Column::new("Children", "ID", DataType::Str),
            Column::new("Parents", "ID", DataType::Str),
        ]);
        let e = example(true);
        let s = render_examples(&graph(), &scheme, &[&e]);
        assert!(s.contains("CP +"));
        assert!(s.contains("002"));
    }

    #[test]
    fn render_targets_shows_induced_tuples() {
        let tscheme = Scheme::new(vec![
            Column::new("Kids", "ID", DataType::Str),
            Column::new("Kids", "affiliation", DataType::Str),
        ]);
        let e = example(false);
        let s = render_example_targets(&tscheme, &[&e]);
        assert!(s.contains("Kids.ID"));
        assert!(s.lines().nth(3).unwrap().contains('-')); // polarity tag
    }
}
