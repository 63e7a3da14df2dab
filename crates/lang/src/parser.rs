//! Recursive-descent clause parser and lowering to [`Mapping`].
//!
//! The grammar (keywords case-insensitive; `MAP` must come first, the
//! remaining clauses may appear in any order and `JOIN`/`WHERE` may
//! repeat):
//!
//! ```text
//! statement     := MAP <target-schema>
//!                  [FROM node [, node]*]
//!                  [JOIN a , b ON <expr>]*
//!                  [WHERE (SOURCE|TARGET) <expr>]*
//!                  [SELECT <expr> AS attr [, <expr> AS attr]*]
//! node          := relation [AS alias] [CODE code]
//! target-schema := name ( [attr type [NOT NULL] [, attr type [NOT NULL]]*] )
//! type          := int | float | str | bool
//! ```
//!
//! [`parse_target_schema`] also reads a target schema on its own (the
//! `--target` flag, a paged directory's `_target.txt`). `<expr>` is the
//! relational expression language. Expression fragments are delegated to
//! [`clio_relational::parser::parse_expr`]; their errors are relocated
//! so line/column always refer to the original statement text.
//!
//! Identifiers follow the expression lexer's quoting rules, so a
//! relation, alias, code or attribute whose name collides with a clause
//! keyword (or carries whitespace) is written `"..."` and never
//! terminates a clause. Qualified column references like `R.from` are
//! also safe: a word adjacent to a `.` is never read as a clause
//! keyword.

use clio_core::prelude::{Mapping, Node, QueryGraph, ValueCorrespondence};
use clio_relational::error::{Error, Result};
use clio_relational::expr::Expr;
use clio_relational::parser::parse_expr;
use clio_relational::schema::{Attribute, RelSchema};
use clio_relational::value::DataType;

use crate::token::{tokenize, TokKind, Token};

/// An identifier with its source position, kept through lowering so
/// semantic errors (an unknown alias in `JOIN`) still point at the
/// statement text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The identifier text (unquoted).
    pub text: String,
    /// Character offset in the statement.
    pub pos: usize,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

/// One `FROM`-clause item: `relation [AS alias] [CODE code]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDecl {
    /// The stored relation to scan.
    pub relation: Spanned,
    /// Optional alias; defaults to the relation name.
    pub alias: Option<Spanned>,
    /// Optional node code used in `F({...})` notation.
    pub code: Option<Spanned>,
}

/// One `JOIN a, b ON predicate` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinDecl {
    /// First endpoint (a `FROM` alias).
    pub a: Spanned,
    /// Second endpoint (a `FROM` alias).
    pub b: Spanned,
    /// The join predicate.
    pub predicate: Expr,
}

/// One `SELECT` item: `expr AS attr` — a value correspondence.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The source expression.
    pub expr: Expr,
    /// The target attribute it populates.
    pub attr: Spanned,
}

/// The parsed form of a `MAP` statement, before lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct MapStmt {
    /// The target relation schema from the `MAP` clause.
    pub target: RelSchema,
    /// `FROM`-clause nodes, in declaration order.
    pub nodes: Vec<NodeDecl>,
    /// `JOIN` clauses, in declaration order.
    pub joins: Vec<JoinDecl>,
    /// `WHERE SOURCE` predicates, in declaration order.
    pub source_filters: Vec<Expr>,
    /// `WHERE TARGET` predicates, in declaration order.
    pub target_filters: Vec<Expr>,
    /// `SELECT` items, in declaration order.
    pub selects: Vec<SelectItem>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clause {
    Map,
    From,
    Join,
    Where,
    Select,
}

fn clause_of(word: &str) -> Option<Clause> {
    for (kw, c) in [
        ("MAP", Clause::Map),
        ("FROM", Clause::From),
        ("JOIN", Clause::Join),
        ("WHERE", Clause::Where),
        ("SELECT", Clause::Select),
    ] {
        if word.eq_ignore_ascii_case(kw) {
            return Some(c);
        }
    }
    None
}

/// Is token `i` a clause keyword at top level? Quoted identifiers and
/// words adjacent to a `.` (qualified-name parts inside expressions)
/// are not.
fn clause_start(toks: &[Token], i: usize) -> Option<Clause> {
    let t = &toks[i];
    if t.kind != TokKind::Word {
        return None;
    }
    let c = clause_of(&t.text)?;
    if i > 0 && toks[i - 1].kind == TokKind::Sym('.') {
        return None;
    }
    if toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Sym('.')) {
        return None;
    }
    Some(c)
}

fn err_at(t: &Token, message: impl Into<String>) -> Error {
    Error::Parse {
        pos: t.cpos,
        line: t.line,
        column: t.col,
        token: t.text.clone(),
        message: message.into(),
    }
}

/// An error at line 1, column 1, for input with no tokens.
fn err_at_start(message: &str) -> Error {
    Error::Parse {
        pos: 0,
        line: 1,
        column: 1,
        token: String::new(),
        message: message.into(),
    }
}

fn err_at_span(s: &Spanned, message: impl Into<String>) -> Error {
    Error::Parse {
        pos: s.pos,
        line: s.line,
        column: s.col,
        token: s.text.clone(),
        message: message.into(),
    }
}

/// An identifier token (bare word or quoted), as a [`Spanned`].
fn ident(t: &Token, what: &str) -> Result<Spanned> {
    match t.kind {
        TokKind::Word | TokKind::Quoted => Ok(Spanned {
            text: t.text.clone(),
            pos: t.cpos,
            line: t.line,
            col: t.col,
        }),
        _ => Err(err_at(t, format!("expected {what}, got `{}`", t.text))),
    }
}

/// Parse the raw text under `body` (a contiguous token run) as a
/// relational expression, relocating any error onto the statement.
fn sub_expr(input: &str, body: &[Token]) -> Result<Expr> {
    let first = &body[0];
    let frag = &input[first.start..body[body.len() - 1].end];
    parse_expr(frag).map_err(|e| match e {
        Error::Parse {
            pos,
            line,
            column,
            token,
            message,
        } => Error::Parse {
            pos: first.cpos + pos,
            line: first.line + line - 1,
            column: if line == 1 {
                first.col + column - 1
            } else {
                column
            },
            token,
            message,
        },
        other => other,
    })
}

/// Split a token run on top-level commas (outside parentheses).
fn comma_groups(body: &[Token]) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, t) in body.iter().enumerate() {
        match t.kind {
            TokKind::Sym('(') => depth += 1,
            TokKind::Sym(')') => depth -= 1,
            TokKind::Sym(',') if depth == 0 => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&body[start..]);
    out
}

fn parse_from(body: &[Token], kw: &Token) -> Result<Vec<NodeDecl>> {
    let mut nodes = Vec::new();
    for group in comma_groups(body) {
        let Some(first) = group.first() else {
            return Err(err_at(kw, "FROM clause has an empty item"));
        };
        let relation = ident(first, "a relation name in FROM")?;
        let mut alias = None;
        let mut code = None;
        let mut it = group[1..].iter();
        while let Some(t) = it.next() {
            if t.is_word("AS") {
                if alias.is_some() {
                    return Err(err_at(t, "duplicate AS in FROM item"));
                }
                let name = it.next().ok_or_else(|| err_at(t, "AS needs an alias"))?;
                alias = Some(ident(name, "an alias after AS")?);
            } else if t.is_word("CODE") {
                if code.is_some() {
                    return Err(err_at(t, "duplicate CODE in FROM item"));
                }
                let name = it.next().ok_or_else(|| err_at(t, "CODE needs a value"))?;
                code = Some(ident(name, "a code after CODE")?);
            } else {
                return Err(err_at(
                    t,
                    format!("unexpected token `{}` in FROM clause", t.text),
                ));
            }
        }
        nodes.push(NodeDecl {
            relation,
            alias,
            code,
        });
    }
    Ok(nodes)
}

fn parse_join(input: &str, body: &[Token], kw: &Token) -> Result<JoinDecl> {
    let usage = "JOIN clause needs `JOIN a, b ON predicate`";
    if body.len() < 5 {
        return Err(err_at(kw, usage));
    }
    let a = ident(&body[0], "a node alias in JOIN")?;
    if body[1].kind != TokKind::Sym(',') {
        return Err(err_at(&body[1], usage));
    }
    let b = ident(&body[2], "a node alias in JOIN")?;
    if !body[3].is_word("ON") {
        return Err(err_at(&body[3], usage));
    }
    let predicate = sub_expr(input, &body[4..])?;
    Ok(JoinDecl { a, b, predicate })
}

/// `true` for a `WHERE SOURCE` filter, `false` for `WHERE TARGET`.
fn parse_where(input: &str, body: &[Token], kw: &Token) -> Result<(bool, Expr)> {
    let usage = "WHERE clause needs `WHERE SOURCE|TARGET predicate`";
    let Some(first) = body.first() else {
        return Err(err_at(kw, usage));
    };
    let on_source = if first.is_word("SOURCE") {
        true
    } else if first.is_word("TARGET") {
        false
    } else {
        return Err(err_at(first, usage));
    };
    if body.len() < 2 {
        return Err(err_at(first, usage));
    }
    Ok((on_source, sub_expr(input, &body[1..])?))
}

fn parse_select(input: &str, body: &[Token], kw: &Token) -> Result<Vec<SelectItem>> {
    let mut items = Vec::new();
    for group in comma_groups(body) {
        let Some(first) = group.first() else {
            return Err(err_at(kw, "SELECT clause has an empty item"));
        };
        // split on the LAST top-level AS, so expressions containing
        // quoted identifiers can never confuse the split
        let mut depth = 0i32;
        let mut as_idx = None;
        for (i, t) in group.iter().enumerate() {
            match t.kind {
                TokKind::Sym('(') => depth += 1,
                TokKind::Sym(')') => depth -= 1,
                _ if depth == 0 && t.is_word("AS") => as_idx = Some(i),
                _ => {}
            }
        }
        let Some(as_idx) = as_idx else {
            return Err(err_at(first, "SELECT item needs `expr AS attr`"));
        };
        if as_idx == 0 {
            return Err(err_at(first, "SELECT item has an empty expression"));
        }
        let attr = match &group[as_idx + 1..] {
            [t] => ident(t, "a target attribute after AS")?,
            [] => return Err(err_at(&group[as_idx], "AS needs a target attribute")),
            [_, extra, ..] => {
                return Err(err_at(
                    extra,
                    format!("unexpected token `{}` after SELECT item", extra.text),
                ))
            }
        };
        let expr = sub_expr(input, &group[..as_idx])?;
        items.push(SelectItem { expr, attr });
    }
    Ok(items)
}

/// Reads a token run front to back; running out reports at the last
/// token read.
struct Cursor<'a> {
    toks: &'a [Token],
    i: usize,
}

impl<'a> Cursor<'a> {
    /// The next token. `toks` must be non-empty, so there is always a
    /// last token to point at.
    fn next(&mut self, what: &str) -> Result<&'a Token> {
        let t = self.toks.get(self.i).ok_or_else(|| {
            let last = &self.toks[self.i - 1];
            err_at(last, format!("expected {what} after `{}`", last.text))
        })?;
        self.i += 1;
        Ok(t)
    }
}

const TYPES: [DataType; 4] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
];

/// Parse a non-empty token run as `name ( attr type [NOT NULL], ... )`.
fn target_schema(toks: &[Token]) -> Result<RelSchema> {
    let name = ident(&toks[0], "a target relation name")?;
    let mut cur = Cursor { toks, i: 1 };
    let open = cur.next("`(`")?;
    if open.kind != TokKind::Sym('(') {
        return Err(err_at(open, "target schema needs `(attrs)`"));
    }
    let mut attrs = Vec::new();
    let mut t = cur.next("an attribute or `)`")?;
    if t.kind != TokKind::Sym(')') {
        loop {
            let attr = ident(t, "an attribute name")?;
            let ty_tok = cur.next("a type")?;
            let ty = TYPES
                .into_iter()
                .find(|ty| ty_tok.is_word(&ty.to_string()))
                .ok_or_else(|| err_at(ty_tok, format!("unknown type `{}`", ty_tok.text)))?;
            t = cur.next("`,` or `)`")?;
            let not_null = t.is_word("NOT");
            if not_null {
                let null = cur.next("NULL")?;
                if !null.is_word("NULL") {
                    return Err(err_at(null, "expected NULL after NOT"));
                }
                t = cur.next("`,` or `)`")?;
            }
            attrs.push(Attribute {
                name: attr.text,
                ty,
                not_null,
            });
            match t.kind {
                TokKind::Sym(',') => t = cur.next("an attribute")?,
                TokKind::Sym(')') => break,
                _ => {
                    return Err(err_at(
                        t,
                        format!("unexpected attribute modifier `{}`", t.text),
                    ))
                }
            }
        }
    }
    if let Some(extra) = toks.get(cur.i) {
        return Err(err_at(
            extra,
            format!("unexpected token `{}` after the target schema", extra.text),
        ));
    }
    RelSchema::new(name.text.clone(), attrs).map_err(|e| err_at_span(&name, e.to_string()))
}

/// Parse a target-schema declaration on its own,
/// `Name (attr type [not null], ...)`, as
/// [`print_target_schema`](crate::print_target_schema) writes it.
pub fn parse_target_schema(input: &str) -> Result<RelSchema> {
    let toks = tokenize(input)?;
    if toks.is_empty() {
        return Err(err_at_start("empty target schema"));
    }
    target_schema(&toks)
}

/// Parse a `MAP` statement into its AST without lowering it.
pub fn parse_statement(input: &str) -> Result<MapStmt> {
    let toks = tokenize(input)?;
    if toks.is_empty() {
        return Err(err_at_start("empty mapping statement"));
    }
    let bounds: Vec<(usize, Clause)> = (0..toks.len())
        .filter_map(|i| clause_start(&toks, i).map(|c| (i, c)))
        .collect();
    if bounds.first() != Some(&(0, Clause::Map)) {
        return Err(err_at(
            &toks[0],
            "expected `MAP` to start the mapping statement",
        ));
    }
    let mut target: Option<RelSchema> = None;
    let mut nodes: Option<Vec<NodeDecl>> = None;
    let mut joins = Vec::new();
    let mut source_filters = Vec::new();
    let mut target_filters = Vec::new();
    let mut selects: Option<Vec<SelectItem>> = None;
    for (k, &(ti, clause)) in bounds.iter().enumerate() {
        let end = bounds.get(k + 1).map_or(toks.len(), |&(j, _)| j);
        let body = &toks[ti + 1..end];
        let kw = &toks[ti];
        match clause {
            Clause::Map => {
                if target.is_some() {
                    return Err(err_at(kw, "duplicate MAP clause"));
                }
                if body.is_empty() {
                    return Err(err_at(kw, "MAP clause needs a target schema"));
                }
                target = Some(target_schema(body)?);
            }
            Clause::From => {
                if nodes.is_some() {
                    return Err(err_at(kw, "duplicate FROM clause"));
                }
                nodes = Some(parse_from(body, kw)?);
            }
            Clause::Join => joins.push(parse_join(input, body, kw)?),
            Clause::Where => {
                let (on_source, e) = parse_where(input, body, kw)?;
                if on_source {
                    source_filters.push(e);
                } else {
                    target_filters.push(e);
                }
            }
            Clause::Select => {
                if selects.is_some() {
                    return Err(err_at(kw, "duplicate SELECT clause"));
                }
                selects = Some(parse_select(input, body, kw)?);
            }
        }
    }
    Ok(MapStmt {
        target: target.expect("MAP clause is checked above"),
        nodes: nodes.unwrap_or_default(),
        joins,
        source_filters,
        target_filters,
        selects: selects.unwrap_or_default(),
    })
}

impl MapStmt {
    /// Lower the statement to a [`Mapping`]: build the query graph from
    /// `FROM`/`JOIN`, attach `SELECT` correspondences and `WHERE`
    /// filters. Alias errors point back at the statement text.
    pub fn lower(&self) -> Result<Mapping> {
        let mut graph = QueryGraph::new();
        for n in &self.nodes {
            let alias = n.alias.as_ref().unwrap_or(&n.relation);
            let mut node = if alias.text == n.relation.text {
                Node::new(n.relation.text.clone())
            } else {
                Node::copy_of(alias.text.clone(), n.relation.text.clone())
            };
            if let Some(c) = &n.code {
                node = node.with_code(c.text.clone());
            }
            graph
                .add_node(node)
                .map_err(|e| err_at_span(alias, e.to_string()))?;
        }
        for j in &self.joins {
            let a = graph
                .node_by_alias(&j.a.text)
                .ok_or_else(|| err_at_span(&j.a, format!("unknown node `{}` in JOIN", j.a.text)))?;
            let b = graph
                .node_by_alias(&j.b.text)
                .ok_or_else(|| err_at_span(&j.b, format!("unknown node `{}` in JOIN", j.b.text)))?;
            graph.add_edge(a, b, j.predicate.clone())?;
        }
        let mut m = Mapping::new(graph, self.target.clone());
        m.correspondences = self
            .selects
            .iter()
            .map(|s| ValueCorrespondence::new(s.expr.clone(), s.attr.text.clone()))
            .collect();
        m.source_filters = self.source_filters.clone();
        m.target_filters = self.target_filters.clone();
        Ok(m)
    }
}

/// Parse a `MAP` statement and lower it to a [`Mapping`] in one step.
pub fn parse_map(input: &str) -> Result<Mapping> {
    parse_statement(input)?.lower()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
MAP Kids (ID str not null, contactPh str, FamilyIncome int)
FROM Children, Parents AS Parents2, PhoneDir
JOIN Children, Parents2 ON Children.mid = Parents2.ID
JOIN Parents2, PhoneDir ON PhoneDir.ID = Parents2.ID
WHERE SOURCE Children.age < 7
WHERE TARGET Kids.ID IS NOT NULL
SELECT Children.ID AS ID, concat(PhoneDir.type, ',', PhoneDir.number) AS contactPh
";

    #[test]
    fn statement_lowers_to_the_hand_built_mapping() {
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
                Attribute::new("FamilyIncome", DataType::Int),
            ],
        )
        .unwrap();
        let expected = Mapping::new(g, target)
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(
                ValueCorrespondence::parse(
                    "concat(PhoneDir.type, ',', PhoneDir.number)",
                    "contactPh",
                )
                .unwrap(),
            )
            .with_source_filter(parse_expr("Children.age < 7").unwrap())
            .with_target_not_null_filters();
        assert_eq!(parse_map(SAMPLE).unwrap(), expected);
    }

    #[test]
    fn keywords_are_case_insensitive_and_order_is_flexible() {
        let text = "map T (a int)\nselect R.x as a\nfrom R\nwhere source R.x = 1\n";
        let m = parse_map(text).unwrap();
        assert_eq!(m.target.name(), "T");
        assert_eq!(m.graph.node_count(), 1);
        assert_eq!(m.correspondences.len(), 1);
        assert_eq!(m.source_filters.len(), 1);
    }

    #[test]
    fn node_codes_and_aliases_lower_onto_nodes() {
        let m = parse_map("MAP T (a int)\nFROM Parents AS P2 CODE Q, PhoneDir CODE D\n").unwrap();
        let nodes = m.graph.nodes();
        assert_eq!(nodes[0].alias, "P2");
        assert_eq!(nodes[0].relation, "Parents");
        assert_eq!(nodes[0].code, "Q");
        assert_eq!(nodes[1].alias, "PhoneDir");
        assert_eq!(nodes[1].code, "D");
    }

    #[test]
    fn quoted_identifiers_survive() {
        let text = "MAP \"Tar get\" (\"id col\" str)\nFROM \"weird rel\" AS \"My Rel\"\nSELECT \"My Rel\".\"a b\" AS \"id col\"\nWHERE SOURCE \"My Rel\".\"a b\" IS NOT NULL\n";
        let m = parse_map(text).unwrap();
        assert_eq!(m.target.name(), "Tar get");
        assert_eq!(m.graph.nodes()[0].alias, "My Rel");
        assert_eq!(m.graph.nodes()[0].relation, "weird rel");
        assert_eq!(m.correspondences[0].target_attr, "id col");
    }

    #[test]
    fn quoted_keywords_are_names_not_clause_breaks() {
        // a relation named `from` and an attribute named `select`
        let text = "MAP T (\"select\" int)\nFROM \"from\"\nSELECT \"from\".x AS \"select\"\n";
        let m = parse_map(text).unwrap();
        assert_eq!(m.graph.nodes()[0].relation, "from");
        assert_eq!(m.correspondences[0].target_attr, "select");
    }

    #[test]
    fn qualified_names_matching_keywords_do_not_split_clauses() {
        // `R.select` inside the WHERE expression must not start a clause
        let text = "MAP T (a int)\nFROM R\nWHERE SOURCE R.select = 1\n";
        let m = parse_map(text).unwrap();
        assert_eq!(m.source_filters.len(), 1);
    }

    #[test]
    fn string_literals_containing_keywords_do_not_split_clauses() {
        let text = "MAP T (a int)\nFROM R\nWHERE SOURCE R.x = 'WHERE SELECT FROM'\n";
        let m = parse_map(text).unwrap();
        assert_eq!(m.source_filters.len(), 1);
        assert!(m.source_filters[0].to_string().contains("WHERE SELECT"));
    }

    #[test]
    fn expression_errors_are_relocated_to_the_statement() {
        let text = "MAP T (a int)\nFROM R\nWHERE SOURCE R.x = )\n";
        let err = parse_map(text).unwrap_err().to_string();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("column 20"), "{err}");
        assert!(err.contains("near `)`"), "{err}");

        let text = "MAP T (a int)\nFROM R\nJOIN R, R ON R.x ==\n";
        let err = parse_map(text).unwrap_err().to_string();
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn structural_errors_carry_positions() {
        for (text, needle) in [
            ("", "empty mapping statement"),
            ("FROM R", "expected `MAP`"),
            ("MAP T (a int)\nMAP T (b int)", "duplicate MAP"),
            ("MAP T (a int)\nFROM R\nFROM S", "duplicate FROM"),
            ("MAP T (a int)\nFROM R,", "empty item"),
            ("MAP T (a int)\nFROM R frobs", "unexpected token `frobs`"),
            ("MAP T (a int)\nFROM R AS", "AS needs an alias"),
            ("MAP T (a int)\nJOIN R ON R.x = 1", "JOIN a, b ON"),
            ("MAP T (a int)\nFROM R\nWHERE R.x = 1", "SOURCE|TARGET"),
            ("MAP T (a int)\nFROM R\nSELECT R.x", "needs `expr AS attr`"),
            (
                "MAP T (a int)\nFROM R\nSELECT R.x AS a b",
                "after SELECT item",
            ),
            ("MAP T (a frobs)", "unknown type"),
            (
                "MAP T (a int)\nFROM R\nJOIN R, S ON R.x = S.x",
                "unknown node `S`",
            ),
            // header errors point at the offending token
            (
                "MAP T (a int,\n  b int zesty)",
                "line 2, column 9: unexpected attribute modifier `zesty`",
            ),
            (
                "MAP T (a int,\n  b frobs)\nFROM R",
                "line 2, column 5: unknown type `frobs`",
            ),
            (
                "MAP T (a int\nFROM R",
                "line 1, column 10: expected `,` or `)` after `int`",
            ),
            (
                "MAP T a int",
                "line 1, column 7: target schema needs `(attrs)`",
            ),
            (
                "MAP T (a int,)",
                "line 1, column 14: expected an attribute name",
            ),
            ("MAP T (a int not)", "expected NULL after NOT"),
            ("MAP T (a int) extra", "after the target schema"),
            ("MAP T (a int, a str)", "duplicate attribute"),
        ] {
            let err = parse_map(text).unwrap_err().to_string();
            assert!(err.contains(needle), "for {text:?}: got {err}");
        }
        // positions on a structural error
        let err = parse_map("MAP T (a int)\nFROM R\nJOIN R, S ON R.x = S.x")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 3, column 9"), "{err}");
    }

    #[test]
    fn function_call_commas_do_not_split_select_items() {
        let text = "MAP T (a str, b str)\nFROM R\nSELECT concat(R.x, ',', R.y) AS a, R.z AS b\n";
        let m = parse_map(text).unwrap();
        assert_eq!(m.correspondences.len(), 2);
    }
}
