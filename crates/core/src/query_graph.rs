//! Query graphs (paper Def 3.3): the data-linking component of a mapping.
//!
//! A query graph is an undirected, connected graph whose nodes are
//! (references to) source relations and whose edges are labelled by
//! conjunctions of **strong** join predicates. A mapping may reference
//! multiple copies of one relation; each node therefore carries an *alias*
//! (the unique name, e.g. `Parents2`) in addition to the underlying
//! relation name, and all predicates and schemes are qualified by alias.

use std::fmt;

use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::Expr;
use clio_relational::funcs::FuncRegistry;
use clio_relational::schema::Scheme;
use clio_relational::table::Table;

/// Identifier of a node within a query graph (index into the node list).
pub type NodeId = usize;

/// A node: one (copy of a) source relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Unique alias within the graph; qualifies columns (`Parents2.ID`).
    pub alias: String,
    /// Name of the underlying stored relation.
    pub relation: String,
    /// Short code used in coverage tags (`C`, `P`, `Ph`, `S`). Defaults to
    /// a code derived from the alias.
    pub code: String,
}

impl Node {
    /// A node whose alias equals the relation name, with a derived code.
    pub fn new(name: impl Into<String>) -> Node {
        let name = name.into();
        Node {
            code: derive_code(&name),
            relation: name.clone(),
            alias: name,
        }
    }

    /// A relation copy: alias differs from the stored relation name.
    pub fn copy_of(alias: impl Into<String>, relation: impl Into<String>) -> Node {
        let alias = alias.into();
        Node {
            code: derive_code(&alias),
            relation: relation.into(),
            alias,
        }
    }

    /// Override the coverage code (the paper uses `Ph` for `PhoneDir`).
    #[must_use]
    pub fn with_code(mut self, code: impl Into<String>) -> Node {
        self.code = code.into();
        self
    }
}

/// Derive a default coverage code from an alias: the leading uppercase
/// letter, plus the second letter when the alias is CamelCase with a
/// lowercase second character (`PhoneDir` → `Ph`, matching the paper's
/// tags), plus any trailing digits (`Parents2` → `P2`).
fn derive_code(alias: &str) -> String {
    let chars: Vec<char> = alias.chars().collect();
    let mut out = String::new();
    if let Some(&c) = chars.first() {
        out.push(c.to_ascii_uppercase());
    }
    let has_later_upper = chars.iter().skip(1).any(|c| c.is_ascii_uppercase());
    if has_later_upper {
        if let Some(&c) = chars.get(1) {
            if c.is_ascii_lowercase() {
                out.push(c);
            }
        }
    }
    let digits: String = chars
        .iter()
        .rev()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    out.extend(digits.chars().rev());
    out
}

/// An undirected edge labelled by a join predicate (conjunction).
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// The join predicate; must be strong and reference only the two
    /// endpoint aliases.
    pub predicate: Expr,
}

/// A query graph over a source database schema.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl QueryGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> QueryGraph {
        QueryGraph::default()
    }

    /// Add a node; aliases must be unique. Returns the new node's id.
    pub fn add_node(&mut self, node: Node) -> Result<NodeId> {
        if self.nodes.iter().any(|n| n.alias == node.alias) {
            return Err(Error::Invalid(format!(
                "duplicate node alias `{}` in query graph",
                node.alias
            )));
        }
        if self.nodes.len() >= 64 {
            return Err(Error::Invalid(
                "query graphs are limited to 64 nodes (coverage masks are u64)".into(),
            ));
        }
        self.nodes.push(node);
        Ok(self.nodes.len() - 1)
    }

    /// Add an edge between existing nodes. The predicate's qualifiers must
    /// be a subset of the two endpoint aliases, and at most one edge may
    /// exist per node pair (label conjunction: extend the existing edge's
    /// predicate instead).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, predicate: Expr) -> Result<()> {
        if a >= self.nodes.len() || b >= self.nodes.len() {
            return Err(Error::Invalid("edge endpoint out of range".into()));
        }
        if a == b {
            return Err(Error::Invalid(
                "self-loops are not allowed in query graphs".into(),
            ));
        }
        if self.edge_between(a, b).is_some() {
            return Err(Error::Invalid(format!(
                "an edge between `{}` and `{}` already exists; conjoin predicates instead",
                self.nodes[a].alias, self.nodes[b].alias
            )));
        }
        let allowed = [self.nodes[a].alias.as_str(), self.nodes[b].alias.as_str()];
        for q in predicate.qualifiers() {
            if !allowed.contains(&q) {
                return Err(Error::Invalid(format!(
                    "edge predicate references `{q}`, which is not an endpoint \
                     (endpoints: {}, {})",
                    allowed[0], allowed[1]
                )));
            }
        }
        self.edges.push(Edge { a, b, predicate });
        Ok(())
    }

    /// The nodes, indexed by [`NodeId`].
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The edges.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Find a node id by alias.
    #[must_use]
    pub fn node_by_alias(&self, alias: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.alias == alias)
    }

    /// Node ids whose underlying relation is `relation`.
    #[must_use]
    pub fn nodes_of_relation(&self, relation: &str) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.relation == relation)
            .map(|(i, _)| i)
            .collect()
    }

    /// The edge between `a` and `b`, if any (undirected).
    #[must_use]
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<&Edge> {
        self.edges
            .iter()
            .find(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a))
    }

    /// Neighbours of a node.
    #[must_use]
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for e in &self.edges {
            if e.a == n {
                out.push(e.b);
            } else if e.b == n {
                out.push(e.a);
            }
        }
        out
    }

    /// The node-set bitmask of the whole graph (`0` when empty).
    #[must_use]
    pub fn node_mask(&self) -> u64 {
        match self.nodes.len() {
            0 => 0,
            n => u64::MAX >> (64 - n),
        }
    }

    /// Is the whole graph connected? (The empty graph is not; a single
    /// node is.)
    #[must_use]
    pub fn is_connected(&self) -> bool {
        !self.nodes.is_empty() && self.is_subset_connected(self.node_mask())
    }

    /// Is the node subset given by `mask` connected in the induced
    /// subgraph? Empty masks are not connected; singletons are.
    #[must_use]
    pub fn is_subset_connected(&self, mask: u64) -> bool {
        if mask == 0 {
            return false;
        }
        let start = mask.trailing_zeros() as usize;
        let mut seen = 1u64 << start;
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            for m in self.neighbors(n) {
                let bit = 1u64 << m;
                if mask & bit != 0 && seen & bit == 0 {
                    seen |= bit;
                    stack.push(m);
                }
            }
        }
        seen == mask
    }

    /// Is the graph a tree (connected, |E| = |N| − 1)? Trees admit the
    /// optimized outer-join full-disjunction plan.
    #[must_use]
    pub fn is_tree(&self) -> bool {
        self.is_connected() && self.edges.len() == self.nodes.len().saturating_sub(1)
    }

    /// Edges of the subgraph induced by `mask` (both endpoints inside).
    #[must_use]
    pub fn induced_edges(&self, mask: u64) -> Vec<&Edge> {
        self.edges
            .iter()
            .filter(|e| mask & (1 << e.a) != 0 && mask & (1 << e.b) != 0)
            .collect()
    }

    /// The wide scheme of the graph: node schemes concatenated in node
    /// order, columns qualified by alias.
    pub fn scheme(&self, db: &Database) -> Result<Scheme> {
        let mut scheme = Scheme::empty();
        for n in &self.nodes {
            let rel = db.relation(&n.relation)?;
            scheme = scheme.concat(&Scheme::of_relation(rel.schema(), &n.alias))?;
        }
        Ok(scheme)
    }

    /// The table of one node's relation, qualified by its alias.
    pub fn node_table(&self, db: &Database, n: NodeId) -> Result<Table> {
        let node = &self.nodes[n];
        Ok(db.relation(&node.relation)?.to_table(&node.alias))
    }

    /// A BFS order of node ids starting from `root`, in which every node
    /// after the first is adjacent to an earlier node — the join order of
    /// the rendered SQL (`sql::generate_sql`). The planner's outer-join
    /// chain orders its nodes with its own BFS over a node mask
    /// (`plan::ir::chain_order`). Errors if the graph is disconnected.
    pub fn connected_order(&self, root: NodeId) -> Result<Vec<NodeId>> {
        if root >= self.nodes.len() {
            return Err(Error::Invalid("root out of range".into()));
        }
        let mut order = vec![root];
        let mut seen = 1u64 << root;
        let mut i = 0;
        while i < order.len() {
            for m in self.neighbors(order[i]) {
                if seen & (1 << m) == 0 {
                    seen |= 1 << m;
                    order.push(m);
                }
            }
            i += 1;
        }
        if order.len() != self.nodes.len() {
            return Err(Error::Invalid("query graph is not connected".into()));
        }
        Ok(order)
    }

    /// Validate the graph against a database: connected, every node's
    /// relation exists, edge predicates bind against their endpoints'
    /// combined scheme and are strong (paper Sec 3 requires join
    /// predicates to be strong).
    pub fn validate(&self, db: &Database, funcs: &FuncRegistry) -> Result<()> {
        if !self.is_connected() {
            return Err(Error::Invalid("query graph must be connected".into()));
        }
        for e in &self.edges {
            let ra = db.relation(&self.nodes[e.a].relation)?;
            let rb = db.relation(&self.nodes[e.b].relation)?;
            let scheme = Scheme::of_relation(ra.schema(), &self.nodes[e.a].alias)
                .concat(&Scheme::of_relation(rb.schema(), &self.nodes[e.b].alias))?;
            e.predicate.bind(&scheme)?;
            if !e.predicate.is_strong(&scheme, funcs)? {
                return Err(Error::Invalid(format!(
                    "edge predicate `{}` between `{}` and `{}` is not strong",
                    e.predicate, self.nodes[e.a].alias, self.nodes[e.b].alias
                )));
            }
        }
        Ok(())
    }

    /// Render a coverage mask as the paper's tags (`CPPh`, `PPh`, …):
    /// concatenated node codes in node order.
    #[must_use]
    pub fn coverage_tag(&self, mask: u64) -> String {
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if mask & (1 << i) != 0 {
                out.push_str(&n.code);
            }
        }
        out
    }

    /// A fresh alias for a new copy of `relation`: the relation name with
    /// the smallest numeric suffix ≥ 2 not yet used (`Parents` →
    /// `Parents2` → `Parents3`).
    #[must_use]
    pub fn fresh_alias(&self, relation: &str) -> String {
        if self.node_by_alias(relation).is_none() {
            return relation.to_owned();
        }
        let mut k = 2;
        loop {
            let candidate = format!("{relation}{k}");
            if self.node_by_alias(&candidate).is_none() {
                return candidate;
            }
            k += 1;
        }
    }
}

impl fmt::Display for QueryGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nodes: ")?;
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            if n.alias == n.relation {
                write!(f, "{}", n.alias)?;
            } else {
                write!(f, "{} (copy of {})", n.alias, n.relation)?;
            }
        }
        writeln!(f)?;
        for e in &self.edges {
            writeln!(
                f,
                "edge {} -- {} : {}",
                self.nodes[e.a].alias, self.nodes[e.b].alias, e.predicate
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_relational::parser::parse_expr;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        for (name, attrs) in [
            ("Children", vec!["ID", "mid", "fid"]),
            ("Parents", vec!["ID", "affiliation"]),
            ("PhoneDir", vec!["ID", "number"]),
        ] {
            let mut b = RelationBuilder::new(name);
            for a in attrs {
                b = b.attr(a, DataType::Str);
            }
            db.add_relation(b.build().unwrap()).unwrap();
        }
        db
    }

    /// The paper's running graph: Children — Parents — PhoneDir.
    fn path_graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        let ph = g.add_node(Node::new("PhoneDir").with_code("Ph")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        g.add_edge(p, ph, parse_expr("PhoneDir.ID = Parents.ID").unwrap())
            .unwrap();
        g
    }

    #[test]
    fn build_and_navigate() {
        let g = path_graph();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.node_by_alias("Parents"), Some(1));
        assert_eq!(g.neighbors(1), vec![0, 2]);
        assert!(g.edge_between(0, 1).is_some());
        assert!(g.edge_between(1, 0).is_some());
        assert!(g.edge_between(0, 2).is_none());
    }

    #[test]
    fn duplicate_alias_rejected() {
        let mut g = path_graph();
        assert!(g.add_node(Node::new("Parents")).is_err());
        // but a copy with a fresh alias is fine
        g.add_node(Node::copy_of("Parents2", "Parents")).unwrap();
        assert_eq!(g.nodes_of_relation("Parents"), vec![1, 3]);
    }

    #[test]
    fn edge_validation() {
        let mut g = path_graph();
        assert!(g.add_edge(0, 0, parse_expr("TRUE").unwrap()).is_err());
        assert!(g
            .add_edge(0, 1, parse_expr("Children.fid = Parents.ID").unwrap())
            .is_err()); // second edge between same pair
        assert!(g
            .add_edge(0, 2, parse_expr("Children.ID = SBPS.ID").unwrap())
            .is_err()); // references a non-endpoint qualifier
    }

    #[test]
    fn connectivity_checks() {
        let g = path_graph();
        assert!(g.is_connected());
        assert!(g.is_subset_connected(0b011));
        assert!(g.is_subset_connected(0b110));
        assert!(!g.is_subset_connected(0b101)); // Children + PhoneDir, no edge
        assert!(g.is_subset_connected(0b010));
        assert!(!g.is_subset_connected(0));
        let mut disconnected = QueryGraph::new();
        disconnected.add_node(Node::new("Children")).unwrap();
        disconnected.add_node(Node::new("Parents")).unwrap();
        assert!(!disconnected.is_connected());
        assert!(!QueryGraph::new().is_connected());
    }

    #[test]
    fn tree_detection() {
        let mut g = path_graph();
        assert!(g.is_tree());
        let s = g.add_node(Node::new("SBPS").with_code("S")).unwrap();
        assert!(!g.is_tree()); // disconnected
        g.add_edge(0, s, parse_expr("Children.ID = SBPS.ID").unwrap())
            .unwrap();
        assert!(g.is_tree()); // star-ish tree again
    }

    #[test]
    fn connected_order_reaches_all() {
        let g = path_graph();
        assert_eq!(g.connected_order(0).unwrap(), vec![0, 1, 2]);
        assert_eq!(g.connected_order(2).unwrap(), vec![2, 1, 0]);
        let mut disconnected = QueryGraph::new();
        disconnected.add_node(Node::new("Children")).unwrap();
        disconnected.add_node(Node::new("Parents")).unwrap();
        assert!(disconnected.connected_order(0).is_err());
    }

    #[test]
    fn scheme_concatenates_in_node_order() {
        let g = path_graph();
        let s = g.scheme(&db()).unwrap();
        assert_eq!(s.arity(), 7);
        assert_eq!(s.columns()[0].qualified_name(), "Children.ID");
        assert_eq!(s.columns()[6].qualified_name(), "PhoneDir.number");
    }

    #[test]
    fn validate_against_database() {
        let g = path_graph();
        g.validate(&db(), &FuncRegistry::with_builtins()).unwrap();

        // non-strong edge predicate is rejected
        let mut bad = QueryGraph::new();
        let c = bad.add_node(Node::new("Children")).unwrap();
        let p = bad.add_node(Node::new("Parents")).unwrap();
        bad.add_edge(
            c,
            p,
            parse_expr("Children.mid = Parents.ID OR Children.mid IS NULL").unwrap(),
        )
        .unwrap();
        assert!(bad.validate(&db(), &FuncRegistry::with_builtins()).is_err());
    }

    #[test]
    fn validate_rejects_unknown_relation() {
        let mut g = QueryGraph::new();
        g.add_node(Node::new("Children")).unwrap();
        let k = g.add_node(Node::new("Kids")).unwrap();
        g.add_edge(0, k, parse_expr("Children.ID = Kids.ID").unwrap())
            .unwrap();
        assert!(g.validate(&db(), &FuncRegistry::with_builtins()).is_err());
    }

    #[test]
    fn coverage_tags_match_paper_style() {
        let g = path_graph();
        assert_eq!(g.coverage_tag(0b111), "CPPh");
        assert_eq!(g.coverage_tag(0b110), "PPh");
        assert_eq!(g.coverage_tag(0b001), "C");
        assert_eq!(g.coverage_tag(0), "");
    }

    #[test]
    fn derived_codes() {
        assert_eq!(Node::new("Children").code, "C");
        assert_eq!(Node::copy_of("Parents2", "Parents").code, "P2");
        assert_eq!(Node::new("PhoneDir").code, "Ph"); // CamelCase alias
        assert_eq!(Node::new("SBPS").code, "S"); // all-caps alias
        assert_eq!(Node::new("PhoneDir").with_code("Ph").code, "Ph");
    }

    #[test]
    fn fresh_alias_numbers_copies() {
        let mut g = path_graph();
        assert_eq!(g.fresh_alias("SBPS"), "SBPS");
        assert_eq!(g.fresh_alias("Parents"), "Parents2");
        g.add_node(Node::copy_of("Parents2", "Parents")).unwrap();
        assert_eq!(g.fresh_alias("Parents"), "Parents3");
    }

    #[test]
    fn display_lists_nodes_and_edges() {
        let s = path_graph().to_string();
        assert!(s.contains("Children, Parents, PhoneDir"));
        assert!(s.contains("edge Children -- Parents : Children.mid = Parents.ID"));
    }

    #[test]
    fn induced_edges_filters_by_mask() {
        let g = path_graph();
        assert_eq!(g.induced_edges(0b111).len(), 2);
        assert_eq!(g.induced_edges(0b011).len(), 1);
        assert_eq!(g.induced_edges(0b101).len(), 0);
    }
}
