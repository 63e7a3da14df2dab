//! Expression AST, evaluation, and strongness analysis.
//!
//! Expressions serve three roles in the mapping framework:
//!
//! * **join predicates** labelling query-graph edges (must be *strong*),
//! * **selection predicates** in the source/target filters `C_S` / `C_T`,
//! * **value correspondences** computing target attribute values.
//!
//! Evaluation follows SQL three-valued semantics: comparisons involving
//! null are [`Truth::Unknown`]; arithmetic and `concat` propagate null.
//!
//! Expressions can be evaluated directly against a [`Scheme`] (resolving
//! column references by name each time) or *bound* once into a
//! [`BoundExpr`] with pre-resolved column indexes — the fast path used by
//! joins, full disjunction, and the benchmark harness.
//!
//! A bound expression reads its row through [`Cells`], a view that hands
//! out each cell by position: a value row (`[Value]`), a join's pair of
//! input rows, or a row of tuple ids read through into the relations
//! holding them. Nothing is copied into a scratch row to be evaluated.

use std::borrow::Cow;
use std::fmt;

use crate::error::{Error, Result};
use crate::funcs::FuncRegistry;
use crate::schema::{ColumnRef, Scheme};
use crate::truth::Truth;
use crate::value::Value;

/// Binary operators of the predicate/correspondence language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `||` string concatenation (null-propagating)
    Concat,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// SQL `LIKE` with `%` and `_` wildcards
    Like,
    /// logical `AND`
    And,
    /// logical `OR`
    Or,
}

impl BinOp {
    /// Surface syntax of the operator.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Concat => "||",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Like => "LIKE",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    /// Is this a comparison producing a truth value?
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Like
        )
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference, e.g. `C.age`.
    Column(ColumnRef),
    /// A literal value.
    Literal(Value),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Logical negation (three-valued).
    Not(Box<Expr>),
    /// `IS NULL` / `IS NOT NULL` — the only null-accepting predicate.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `true` renders as `IS NOT NULL`.
        negated: bool,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Scalar function call.
    Func {
        /// Function name (resolved against a [`FuncRegistry`]).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Searched `CASE WHEN c1 THEN v1 … [ELSE v] END`. The first branch
    /// whose condition evaluates to `True` wins; no match and no `ELSE`
    /// yields null (SQL semantics).
    Case {
        /// `(condition, value)` branches, in order.
        branches: Vec<(Expr, Expr)>,
        /// Optional `ELSE` value.
        otherwise: Option<Box<Expr>>,
    },
    /// `expr [NOT] IN (e1, …, en)` under three-valued semantics
    /// (equivalent to the Kleene disjunction of the equalities).
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `true` renders as `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high` (inclusive, three-valued).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// `true` renders as `NOT BETWEEN`.
        negated: bool,
    },
}

impl Expr {
    /// Convenience: a column expression from `"Q.attr"` or `"attr"`.
    #[must_use]
    pub fn col(s: &str) -> Expr {
        Expr::Column(ColumnRef::parse_simple(s))
    }

    /// Convenience: a literal expression.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience: equality of two columns — the common join-edge label.
    #[must_use]
    pub fn col_eq(a: &str, b: &str) -> Expr {
        Expr::binary(BinOp::Eq, Expr::col(a), Expr::col(b))
    }

    /// Convenience: build a binary node.
    #[must_use]
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Convenience: conjunction of a list (empty list is `TRUE`).
    #[must_use]
    pub fn conjunction(exprs: Vec<Expr>) -> Expr {
        let mut it = exprs.into_iter();
        match it.next() {
            None => Expr::lit(true),
            Some(first) => it.fold(first, |acc, e| Expr::binary(BinOp::And, acc, e)),
        }
    }

    /// Collect every column reference (pre-order, with duplicates).
    #[must_use]
    pub fn columns(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c);
            }
        });
        out
    }

    /// The distinct qualifiers mentioned by the expression's columns.
    #[must_use]
    pub fn qualifiers(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for c in self.columns() {
            if let Some(q) = c.qualifier.as_deref() {
                if !out.contains(&q) {
                    out.push(q);
                }
            }
        }
        out
    }

    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::Neg(e) | Expr::Not(e) => e.walk(f),
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (c, v) in branches {
                    c.walk(f);
                    v.walk(f);
                }
                if let Some(e) = otherwise {
                    e.walk(f);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
        }
    }

    /// Rewrite every column qualifier via `f` (used when mapping operators
    /// introduce relation copies: `Parents` → `Parents2`).
    #[must_use]
    pub fn map_qualifiers(&self, f: &impl Fn(&str) -> String) -> Expr {
        match self {
            Expr::Column(c) => Expr::Column(ColumnRef {
                qualifier: c.qualifier.as_deref().map(f),
                name: c.name.clone(),
            }),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_qualifiers(f))),
            Expr::Not(e) => Expr::Not(Box::new(e.map_qualifiers(f))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.map_qualifiers(f)),
                negated: *negated,
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.map_qualifiers(f)),
                right: Box::new(right.map_qualifiers(f)),
            },
            Expr::Func { name, args } => Expr::Func {
                name: name.clone(),
                args: args.iter().map(|a| a.map_qualifiers(f)).collect(),
            },
            Expr::Case {
                branches,
                otherwise,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.map_qualifiers(f), v.map_qualifiers(f)))
                    .collect(),
                otherwise: otherwise.as_ref().map(|e| Box::new(e.map_qualifiers(f))),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.map_qualifiers(f)),
                list: list.iter().map(|e| e.map_qualifiers(f)).collect(),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.map_qualifiers(f)),
                low: Box::new(low.map_qualifiers(f)),
                high: Box::new(high.map_qualifiers(f)),
                negated: *negated,
            },
        }
    }

    /// Bind against a scheme: resolve all column references to indexes.
    pub fn bind(&self, scheme: &Scheme) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Column(c) => BoundExpr::Column(scheme.resolve(c)?),
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Neg(e) => BoundExpr::Neg(Box::new(e.bind(scheme)?)),
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind(scheme)?)),
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(expr.bind(scheme)?),
                negated: *negated,
            },
            Expr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(left.bind(scheme)?),
                right: Box::new(right.bind(scheme)?),
            },
            Expr::Func { name, args } => BoundExpr::Func {
                name: name.clone(),
                args: args.iter().map(|a| a.bind(scheme)).collect::<Result<_>>()?,
            },
            Expr::Case {
                branches,
                otherwise,
            } => BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((c.bind(scheme)?, v.bind(scheme)?)))
                    .collect::<Result<_>>()?,
                otherwise: match otherwise {
                    Some(e) => Some(Box::new(e.bind(scheme)?)),
                    None => None,
                },
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(expr.bind(scheme)?),
                list: list.iter().map(|e| e.bind(scheme)).collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(expr.bind(scheme)?),
                low: Box::new(low.bind(scheme)?),
                high: Box::new(high.bind(scheme)?),
                negated: *negated,
            },
        })
    }

    /// Evaluate against a row under `scheme` (resolves names on the fly;
    /// bind first when evaluating over many rows).
    pub fn eval(&self, scheme: &Scheme, row: &[Value], funcs: &FuncRegistry) -> Result<Value> {
        self.bind(scheme)?.eval(row, funcs)
    }

    /// Evaluate as a predicate (three-valued).
    pub fn eval_truth(
        &self,
        scheme: &Scheme,
        row: &[Value],
        funcs: &FuncRegistry,
    ) -> Result<Truth> {
        self.bind(scheme)?.eval_truth(row, funcs)
    }

    /// Is this expression *strong* over `scheme` (paper Sec 3): does it
    /// fail to pass on the tuple that is null on **all** attributes?
    /// There is exactly one such tuple per scheme, so the check is exact:
    /// we evaluate on it and require the result not be `True`.
    pub fn is_strong(&self, scheme: &Scheme, funcs: &FuncRegistry) -> Result<bool> {
        let all_null = vec![Value::Null; scheme.arity()];
        Ok(!self.eval_truth(scheme, &all_null, funcs)?.passes())
    }
}

/// Operands that are not primaries must be parenthesized when embedded in
/// another operator, or the rendering would reparse differently
/// (`NOT (a) + b` vs `NOT (a + b)`).
fn needs_parens(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Binary { .. }
            | Expr::IsNull { .. }
            | Expr::Not(_)
            | Expr::InList { .. }
            | Expr::Between { .. }
    )
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let wrapped = |f: &mut fmt::Formatter<'_>, e: &Expr| {
            if needs_parens(e) {
                write!(f, "({e})")
            } else {
                write!(f, "{e}")
            }
        };
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Literal(Value::Null) => f.write_str("NULL"),
            Expr::Literal(Value::Bool(b)) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Neg(e) => {
                f.write_str("-")?;
                wrapped(f, e)
            }
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::IsNull { expr, negated } => {
                wrapped(f, expr)?;
                write!(f, " IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Binary { op, left, right } => {
                wrapped(f, left)?;
                write!(f, " {} ", op.symbol())?;
                wrapped(f, right)
            }
            Expr::Func { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                f.write_str("CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = otherwise {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                wrapped(f, expr)?;
                write!(f, " {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                wrapped(f, expr)?;
                write!(f, " {}BETWEEN ", if *negated { "NOT " } else { "" })?;
                wrapped(f, low)?;
                f.write_str(" AND ")?;
                wrapped(f, high)
            }
        }
    }
}

/// A row as a [`BoundExpr`] reads it: each cell by its position in the
/// scheme the expression was bound against. The view decides where a
/// cell lies; evaluation borrows it and clones only what it computes
/// with.
pub trait Cells {
    /// The value at position `i`.
    fn at(&self, i: usize) -> &Value;
}

impl Cells for [Value] {
    fn at(&self, i: usize) -> &Value {
        &self[i]
    }
}

/// An expression with column references resolved to row indexes.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Column at index.
    Column(usize),
    /// Literal value.
    Literal(Value),
    /// Arithmetic negation.
    Neg(Box<BoundExpr>),
    /// Logical negation.
    Not(Box<BoundExpr>),
    /// `IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Negated flag.
        negated: bool,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Scalar function call.
    Func {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<BoundExpr>,
    },
    /// Searched CASE.
    Case {
        /// `(condition, value)` branches.
        branches: Vec<(BoundExpr, BoundExpr)>,
        /// Optional ELSE value.
        otherwise: Option<Box<BoundExpr>>,
    },
    /// `[NOT] IN` list membership.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// Negated flag.
        negated: bool,
    },
    /// `[NOT] BETWEEN`.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        low: Box<BoundExpr>,
        /// Upper bound.
        high: Box<BoundExpr>,
        /// Negated flag.
        negated: bool,
    },
}

impl BoundExpr {
    /// Evaluate to a value, reading each cell through `row`.
    /// Truth-valued subexpressions yield `Value::Bool` or `Value::Null`.
    pub fn eval<C: Cells + ?Sized>(&self, row: &C, funcs: &FuncRegistry) -> Result<Value> {
        Ok(match self {
            BoundExpr::Column(i) => row.at(*i).clone(),
            BoundExpr::Literal(v) => v.clone(),
            BoundExpr::Neg(e) => match &*e.operand(row, funcs)? {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(-i),
                Value::Float(f) => Value::Float(-f),
                v => return Err(Error::TypeMismatch(format!("cannot negate {v}"))),
            },
            BoundExpr::Not(e) => truth_to_value(e.eval_truth(row, funcs)?.not()),
            BoundExpr::IsNull { expr, negated } => {
                let is_null = expr.operand(row, funcs)?.is_null();
                Value::Bool(is_null != *negated)
            }
            BoundExpr::Binary { op, left, right } => {
                if *op == BinOp::And || *op == BinOp::Or {
                    let l = left.eval_truth(row, funcs)?;
                    let r = right.eval_truth(row, funcs)?;
                    return Ok(truth_to_value(if *op == BinOp::And {
                        l.and(r)
                    } else {
                        l.or(r)
                    }));
                }
                let l = left.operand(row, funcs)?;
                let r = right.operand(row, funcs)?;
                let (l, r) = (&*l, &*r);
                match op {
                    BinOp::Add => l.add(r)?,
                    BinOp::Sub => l.sub(r)?,
                    BinOp::Mul => l.mul(r)?,
                    BinOp::Div => l.div(r)?,
                    BinOp::Concat => concat_values(l, r)?,
                    BinOp::Eq => truth_to_value(l.sql_eq(r)),
                    BinOp::Ne => truth_to_value(l.sql_eq(r).not()),
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        truth_to_value(compare(*op, l, r))
                    }
                    BinOp::Like => truth_to_value(like(l, r)?),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
            BoundExpr::Func { name, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(row, funcs))
                    .collect::<Result<_>>()?;
                funcs.call(name, &vals)?
            }
            BoundExpr::Case {
                branches,
                otherwise,
            } => {
                let mut out = Value::Null;
                let mut matched = false;
                for (c, v) in branches {
                    if c.eval_truth(row, funcs)?.passes() {
                        out = v.eval(row, funcs)?;
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    if let Some(e) = otherwise {
                        out = e.eval(row, funcs)?;
                    }
                }
                out
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = expr.operand(row, funcs)?;
                let mut t = Truth::False;
                for e in list {
                    let candidate = e.operand(row, funcs)?;
                    t = t.or(needle.sql_eq(&candidate));
                    if t == Truth::True {
                        break;
                    }
                }
                truth_to_value(if *negated { t.not() } else { t })
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.operand(row, funcs)?;
                let lo = low.operand(row, funcs)?;
                let hi = high.operand(row, funcs)?;
                let t = compare(BinOp::Ge, &v, &lo).and(compare(BinOp::Le, &v, &hi));
                truth_to_value(if *negated { t.not() } else { t })
            }
        })
    }

    /// This expression's value over `row`, borrowed where it lies when
    /// it is a bare column or a literal, evaluated otherwise: what an
    /// operator reads of its operands without cloning them.
    fn operand<'a, C: Cells + ?Sized>(
        &'a self,
        row: &'a C,
        funcs: &FuncRegistry,
    ) -> Result<Cow<'a, Value>> {
        Ok(match self {
            BoundExpr::Column(i) => Cow::Borrowed(row.at(*i)),
            BoundExpr::Literal(v) => Cow::Borrowed(v),
            e => Cow::Owned(e.eval(row, funcs)?),
        })
    }

    /// Evaluate as a three-valued predicate.
    pub fn eval_truth<C: Cells + ?Sized>(&self, row: &C, funcs: &FuncRegistry) -> Result<Truth> {
        match self.eval(row, funcs)? {
            Value::Bool(b) => Ok(Truth::from_bool(b)),
            Value::Null => Ok(Truth::Unknown),
            v => Err(Error::TypeMismatch(format!(
                "expected boolean predicate, got {v}"
            ))),
        }
    }
}

fn truth_to_value(t: Truth) -> Value {
    match t {
        Truth::True => Value::Bool(true),
        Truth::False => Value::Bool(false),
        Truth::Unknown => Value::Null,
    }
}

fn compare(op: BinOp, l: &Value, r: &Value) -> Truth {
    match l.sql_cmp(r) {
        None => Truth::Unknown,
        Some(ord) => Truth::from_bool(match op {
            BinOp::Lt => ord.is_lt(),
            BinOp::Le => ord.is_le(),
            BinOp::Gt => ord.is_gt(),
            BinOp::Ge => ord.is_ge(),
            _ => unreachable!(),
        }),
    }
}

fn concat_values(l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    Ok(Value::str(format!("{l}{r}")))
}

/// SQL LIKE with `%` (any run) and `_` (single char).
fn like(l: &Value, r: &Value) -> Result<Truth> {
    let (s, p) = match (l, r) {
        (Value::Null, _) | (_, Value::Null) => return Ok(Truth::Unknown),
        (Value::Str(s), Value::Str(p)) => (s, p),
        _ => return Err(Error::TypeMismatch("LIKE requires string operands".into())),
    };
    Ok(Truth::from_bool(like_match(
        &s.chars().collect::<Vec<_>>(),
        &p.chars().collect::<Vec<_>>(),
    )))
}

fn like_match(s: &[char], p: &[char]) -> bool {
    match p.first() {
        None => s.is_empty(),
        Some('%') => {
            // '%' matches zero or more characters.
            (0..=s.len()).any(|k| like_match(&s[k..], &p[1..]))
        }
        Some('_') => !s.is_empty() && like_match(&s[1..], &p[1..]),
        Some(c) => s.first() == Some(c) && like_match(&s[1..], &p[1..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::value::DataType;

    fn scheme() -> Scheme {
        let rel = RelationBuilder::new("Children")
            .attr("ID", DataType::Str)
            .attr("name", DataType::Str)
            .attr("age", DataType::Int)
            .build()
            .unwrap();
        Scheme::of_relation(rel.schema(), "C")
    }

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    fn row(id: &str, name: Option<&str>, age: Option<i64>) -> Vec<Value> {
        vec![id.into(), name.map(Value::str).into(), age.into()]
    }

    fn eval(e: &Expr, r: &[Value]) -> Value {
        e.eval(&scheme(), r, &funcs()).unwrap()
    }

    fn truth(e: &Expr, r: &[Value]) -> Truth {
        e.eval_truth(&scheme(), r, &funcs()).unwrap()
    }

    #[test]
    fn column_and_literal() {
        let r = row("002", Some("Maya"), Some(4));
        assert_eq!(eval(&Expr::col("C.name"), &r), Value::str("Maya"));
        assert_eq!(eval(&Expr::lit(7i64), &r), Value::Int(7));
    }

    #[test]
    fn comparison_with_null_is_unknown() {
        let r = row("002", None, Some(4));
        let e = Expr::binary(BinOp::Eq, Expr::col("C.name"), Expr::lit("Maya"));
        assert_eq!(truth(&e, &r), Truth::Unknown);
    }

    #[test]
    fn age_filter_from_paper_example_3_13() {
        // "Children.Age < 7"
        let e = Expr::binary(BinOp::Lt, Expr::col("C.age"), Expr::lit(7i64));
        assert_eq!(truth(&e, &row("1", None, Some(4))), Truth::True);
        assert_eq!(truth(&e, &row("1", None, Some(9))), Truth::False);
        assert_eq!(truth(&e, &row("1", None, None)), Truth::Unknown);
    }

    #[test]
    fn is_null_and_is_not_null() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::col("C.name")),
            negated: false,
        };
        assert_eq!(truth(&e, &row("1", None, None)), Truth::True);
        assert_eq!(truth(&e, &row("1", Some("x"), None)), Truth::False);
        let ne = Expr::IsNull {
            expr: Box::new(Expr::col("C.name")),
            negated: true,
        };
        assert_eq!(truth(&ne, &row("1", Some("x"), None)), Truth::True);
    }

    #[test]
    fn and_or_not_follow_kleene() {
        let is_null = Expr::IsNull {
            expr: Box::new(Expr::col("C.name")),
            negated: false,
        };
        let unknown = Expr::binary(BinOp::Eq, Expr::col("C.name"), Expr::lit("x"));
        let r = row("1", None, None);
        assert_eq!(
            truth(
                &Expr::binary(BinOp::Or, is_null.clone(), unknown.clone()),
                &r
            ),
            Truth::True
        );
        assert_eq!(
            truth(
                &Expr::binary(BinOp::And, is_null.clone(), unknown.clone()),
                &r
            ),
            Truth::Unknown
        );
        assert_eq!(truth(&Expr::Not(Box::new(unknown)), &r), Truth::Unknown);
    }

    #[test]
    fn arithmetic_and_concat_operator() {
        let r = row("002", Some("Maya"), Some(4));
        let sum = Expr::binary(BinOp::Add, Expr::col("C.age"), Expr::lit(10i64));
        assert_eq!(eval(&sum, &r), Value::Int(14));
        let cc = Expr::binary(BinOp::Concat, Expr::col("C.name"), Expr::lit("!"));
        assert_eq!(eval(&cc, &r), Value::str("Maya!"));
        let cc_null = Expr::binary(BinOp::Concat, Expr::col("C.name"), Expr::lit("!"));
        assert_eq!(eval(&cc_null, &row("1", None, None)), Value::Null);
    }

    #[test]
    fn function_calls_resolve_through_registry() {
        let r = row("002", Some("Maya"), Some(4));
        let e = Expr::Func {
            name: "concat".into(),
            args: vec![Expr::col("C.ID"), Expr::lit(","), Expr::col("C.name")],
        };
        assert_eq!(eval(&e, &r), Value::str("002,Maya"));
    }

    #[test]
    fn like_patterns() {
        let r = row("002", Some("Maya"), None);
        let e = |p: &str| Expr::binary(BinOp::Like, Expr::col("C.name"), Expr::lit(p));
        assert_eq!(truth(&e("Ma%"), &r), Truth::True);
        assert_eq!(truth(&e("%ya"), &r), Truth::True);
        assert_eq!(truth(&e("M_ya"), &r), Truth::True);
        assert_eq!(truth(&e("M_a"), &r), Truth::False);
        assert_eq!(truth(&e("%"), &row("1", None, None)), Truth::Unknown);
    }

    #[test]
    fn join_equality_is_strong() {
        // join predicates reject the all-null tuple (paper Sec 3)
        let e = Expr::col_eq("C.ID", "C.name"); // same scheme suffices for the check
        assert!(e.is_strong(&scheme(), &funcs()).unwrap());
    }

    #[test]
    fn is_null_predicate_is_not_strong() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::col("C.name")),
            negated: false,
        };
        assert!(!e.is_strong(&scheme(), &funcs()).unwrap());
    }

    #[test]
    fn tautology_is_not_strong() {
        assert!(!Expr::lit(true).is_strong(&scheme(), &funcs()).unwrap());
    }

    #[test]
    fn conjunction_builder() {
        assert_eq!(Expr::conjunction(vec![]), Expr::lit(true));
        let c = Expr::conjunction(vec![
            Expr::col_eq("C.ID", "C.name"),
            Expr::binary(BinOp::Lt, Expr::col("C.age"), Expr::lit(7i64)),
        ]);
        assert_eq!(c.to_string(), "(C.ID = C.name) AND (C.age < 7)");
    }

    #[test]
    fn columns_and_qualifiers_collection() {
        let e = Expr::binary(
            BinOp::And,
            Expr::col_eq("C.mid", "P.ID"),
            Expr::binary(BinOp::Lt, Expr::col("C.age"), Expr::lit(7i64)),
        );
        assert_eq!(e.columns().len(), 3);
        assert_eq!(e.qualifiers(), vec!["C", "P"]);
    }

    #[test]
    fn map_qualifiers_renames_copies() {
        let e = Expr::col_eq("C.mid", "Parents.ID");
        let renamed = e.map_qualifiers(&|q| {
            if q == "Parents" {
                "Parents2".to_owned()
            } else {
                q.to_owned()
            }
        });
        assert_eq!(renamed.to_string(), "C.mid = Parents2.ID");
    }

    #[test]
    fn display_round_trips_shape() {
        let e = Expr::binary(
            BinOp::Or,
            Expr::Not(Box::new(Expr::col_eq("C.ID", "C.name"))),
            Expr::IsNull {
                expr: Box::new(Expr::col("C.age")),
                negated: true,
            },
        );
        assert_eq!(
            e.to_string(),
            "(NOT (C.ID = C.name)) OR (C.age IS NOT NULL)"
        );
        let s = Expr::lit("O'Hare").to_string();
        assert_eq!(s, "'O''Hare'");
    }

    #[test]
    fn bind_catches_unknown_columns_eagerly() {
        assert!(Expr::col("P.salary").bind(&scheme()).is_err());
    }

    #[test]
    fn bound_eval_matches_unbound() {
        let e = Expr::binary(BinOp::Add, Expr::col("C.age"), Expr::lit(1i64));
        let b = e.bind(&scheme()).unwrap();
        let r = row("002", Some("Maya"), Some(4));
        assert_eq!(
            b.eval(r.as_slice(), &funcs()).unwrap(),
            e.eval(&scheme(), &r, &funcs()).unwrap()
        );
    }

    #[test]
    fn negation_of_numbers() {
        let e = Expr::Neg(Box::new(Expr::col("C.age")));
        assert_eq!(eval(&e, &row("1", None, Some(4))), Value::Int(-4));
        assert_eq!(eval(&e, &row("1", None, None)), Value::Null);
    }

    #[test]
    fn case_expression_semantics() {
        // CASE WHEN age < 5 THEN 'young' WHEN age < 10 THEN 'mid' ELSE 'old' END
        let e = Expr::Case {
            branches: vec![
                (
                    Expr::binary(BinOp::Lt, Expr::col("C.age"), Expr::lit(5i64)),
                    Expr::lit("young"),
                ),
                (
                    Expr::binary(BinOp::Lt, Expr::col("C.age"), Expr::lit(10i64)),
                    Expr::lit("mid"),
                ),
            ],
            otherwise: Some(Box::new(Expr::lit("old"))),
        };
        assert_eq!(eval(&e, &row("1", None, Some(4))), Value::str("young"));
        assert_eq!(eval(&e, &row("1", None, Some(7))), Value::str("mid"));
        assert_eq!(eval(&e, &row("1", None, Some(12))), Value::str("old"));
        // null age: all comparisons Unknown -> ELSE
        assert_eq!(eval(&e, &row("1", None, None)), Value::str("old"));
        // without ELSE: null
        let e2 = Expr::Case {
            branches: vec![(
                Expr::binary(BinOp::Lt, Expr::col("C.age"), Expr::lit(5i64)),
                Expr::lit("young"),
            )],
            otherwise: None,
        };
        assert_eq!(eval(&e2, &row("1", None, Some(12))), Value::Null);
    }

    #[test]
    fn in_list_three_valued() {
        let e = |negated| Expr::InList {
            expr: Box::new(Expr::col("C.ID")),
            list: vec![Expr::lit("001"), Expr::lit("002")],
            negated,
        };
        assert_eq!(truth(&e(false), &row("002", None, None)), Truth::True);
        assert_eq!(truth(&e(false), &row("009", None, None)), Truth::False);
        assert_eq!(truth(&e(true), &row("009", None, None)), Truth::True);
        // null needle: Unknown either way
        let null_needle = Expr::InList {
            expr: Box::new(Expr::col("C.name")),
            list: vec![Expr::lit("x")],
            negated: false,
        };
        assert_eq!(truth(&null_needle, &row("1", None, None)), Truth::Unknown);
        // null in the list: x IN (y, NULL) is Unknown when x != y
        let null_in_list = Expr::InList {
            expr: Box::new(Expr::col("C.ID")),
            list: vec![Expr::lit("zzz"), Expr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(
            truth(&null_in_list, &row("002", None, None)),
            Truth::Unknown
        );
    }

    #[test]
    fn between_inclusive_and_three_valued() {
        let e = |negated| Expr::Between {
            expr: Box::new(Expr::col("C.age")),
            low: Box::new(Expr::lit(4i64)),
            high: Box::new(Expr::lit(7i64)),
            negated,
        };
        assert_eq!(truth(&e(false), &row("1", None, Some(4))), Truth::True);
        assert_eq!(truth(&e(false), &row("1", None, Some(7))), Truth::True);
        assert_eq!(truth(&e(false), &row("1", None, Some(9))), Truth::False);
        assert_eq!(truth(&e(true), &row("1", None, Some(9))), Truth::True);
        assert_eq!(truth(&e(false), &row("1", None, None)), Truth::Unknown);
    }

    #[test]
    fn new_forms_display_and_qualify() {
        let e = Expr::Case {
            branches: vec![(Expr::col_eq("C.ID", "S.ID"), Expr::col("S.time"))],
            otherwise: Some(Box::new(Expr::lit("walk"))),
        };
        assert_eq!(
            e.to_string(),
            "CASE WHEN C.ID = S.ID THEN S.time ELSE 'walk' END"
        );
        assert_eq!(e.qualifiers(), vec!["C", "S"]);
        let renamed = e.map_qualifiers(&|q| if q == "S" { "S2".into() } else { q.into() });
        assert!(renamed.to_string().contains("S2.time"));

        let i = Expr::InList {
            expr: Box::new(Expr::col("C.ID")),
            list: vec![Expr::lit("001")],
            negated: true,
        };
        assert_eq!(i.to_string(), "C.ID NOT IN ('001')");
        let b = Expr::Between {
            expr: Box::new(Expr::col("C.age")),
            low: Box::new(Expr::lit(1i64)),
            high: Box::new(Expr::lit(2i64)),
            negated: false,
        };
        assert_eq!(b.to_string(), "C.age BETWEEN 1 AND 2");
    }

    #[test]
    fn division_by_zero_bubbles_up() {
        let e = Expr::binary(BinOp::Div, Expr::col("C.age"), Expr::lit(0i64));
        assert_eq!(
            e.eval(&scheme(), &row("1", None, Some(4)), &funcs()),
            Err(Error::DivisionByZero)
        );
    }
}
