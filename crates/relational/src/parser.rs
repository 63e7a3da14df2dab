//! Lexer and recursive-descent parser for the predicate / correspondence
//! expression language.
//!
//! The surface syntax is the SQL fragment the paper writes its predicates
//! in: `C.age < 7`, `Children.mid = Parents.ID`, `Kids.ID IS NOT NULL`,
//! `concat(Ph.type, ',', Ph.number)`, `P.salary + P2.salary`.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! expr    := and ( OR and )*
//! and     := not ( AND not )*
//! not     := NOT not | cmp
//! cmp     := add ( (= | <> | != | < | <= | > | >=) add
//!               | IS [NOT] NULL
//!               | [NOT] LIKE add
//!               | [NOT] IN ( expr [, expr]* )
//!               | [NOT] BETWEEN add AND add )?
//! add     := mul ( (+ | - | ||) mul )*
//! mul     := unary ( (* | /) unary )*
//! unary   := - unary | primary
//! primary := NULL | TRUE | FALSE | number | 'string'
//!          | ident [ . ident ] | ident ( args )
//!          | CASE (WHEN expr THEN expr)+ [ELSE expr] END
//!          | ( expr )
//! ident   := plain identifier | "double-quoted identifier"
//! ```
//!
//! Identifiers that are not of the plain `[A-Za-z_][A-Za-z0-9_]*` shape
//! (or that collide with a keyword) are written double-quoted, with `""`
//! escaping an embedded quote: `"My Rel".x = 'y'`. Parse errors carry
//! the 1-based line/column of the offending token plus its text (see
//! [`crate::error::Error::Parse`]).
//!
//! [`lex`] is the workspace's one tokenizer: the MAP statement parser in
//! `clio-lang` lexes a whole statement with it, finds its clauses on the
//! tokens, and hands each embedded expression's token run to
//! [`parse_expr_tokens`], so every position is already a statement
//! position.

use std::fmt;

use crate::error::{Error, Result};
use crate::expr::{BinOp, Expr};
use crate::schema::ColumnRef;
use crate::value::Value;

/// Parse a complete expression from text.
///
/// ```
/// use clio_relational::parser::parse_expr;
///
/// let join = parse_expr("Children.mid = Parents.ID").unwrap();
/// assert_eq!(join.qualifiers(), vec!["Children", "Parents"]);
///
/// let filter = parse_expr("C.age < 7 AND C.name IS NOT NULL").unwrap();
/// assert_eq!(filter.to_string(), "(C.age < 7) AND (C.name IS NOT NULL)");
///
/// // errors carry line/column positions and the offending token
/// let err = parse_expr("C.age < )").unwrap_err();
/// assert!(err.to_string().contains("line 1, column 9"));
/// ```
pub fn parse_expr(input: &str) -> Result<Expr> {
    parse_expr_tokens(&lex(input)?)
}

/// Parse a complete expression from a run of [`lex`] tokens, such as
/// one clause of a larger statement. Errors carry the tokens' own
/// positions; running out of tokens reports just past the last one
/// (line 1, column 1 for an empty run).
pub fn parse_expr_tokens(tokens: &[Token]) -> Result<Expr> {
    let mut p = Parser {
        tokens,
        pos: 0,
        end: tokens.last().map_or(Pos::START, |t| t.end),
    };
    let e = p.parse_or()?;
    if let Some(tok) = p.peek() {
        return Err(tok.error(format!("unexpected trailing input `{}`", tok.kind)));
    }
    Ok(e)
}

/// What a [`Token`] is.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // the symbol and keyword variants are self-describing
pub enum TokenKind {
    /// A plain identifier, or a `"..."`-quoted one (`name` unescaped).
    /// A quoted identifier is never a keyword of any grammar built on
    /// these tokens.
    Ident {
        name: String,
        quoted: bool,
    },
    Int(i64),
    Float(f64),
    /// A `'...'` string literal, unescaped.
    Str(String),
    // symbols
    Plus,
    Minus,
    Star,
    Slash,
    ConcatOp,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LParen,
    RParen,
    Comma,
    Dot,
    // keywords
    And,
    Or,
    Not,
    Is,
    Null,
    Like,
    True,
    False,
    In,
    Between,
    Case,
    When,
    Then,
    Else,
    End,
}

/// How errors quote a token: identifiers by name, string literals in
/// `'...'`, keywords in upper case.
impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        let text = match self {
            Ident { name, .. } => return f.write_str(name),
            Int(i) => return write!(f, "{i}"),
            Float(x) => return write!(f, "{x}"),
            Str(s) => return write!(f, "'{s}'"),
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            ConcatOp => "||",
            Eq => "=",
            Ne => "<>",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            LParen => "(",
            RParen => ")",
            Comma => ",",
            Dot => ".",
            And => "AND",
            Or => "OR",
            Not => "NOT",
            Is => "IS",
            Null => "NULL",
            Like => "LIKE",
            True => "TRUE",
            False => "FALSE",
            In => "IN",
            Between => "BETWEEN",
            Case => "CASE",
            When => "WHEN",
            Then => "THEN",
            Else => "ELSE",
            End => "END",
        };
        f.write_str(text)
    }
}

/// A position in the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// Character offset.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based column, in characters.
    pub column: usize,
}

impl Pos {
    /// The first character of the input.
    pub const START: Pos = Pos {
        offset: 0,
        line: 1,
        column: 1,
    };
}

/// One lexed token with the positions of its first character and of
/// the character just past it.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it starts.
    pub start: Pos,
    /// Just past where it ends.
    pub end: Pos,
}

impl Token {
    /// Is this an unquoted identifier equal to `word`, ignoring ASCII
    /// case? `"FROM"` is a name, `from` may be a keyword.
    pub fn is_word(&self, word: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident { name, quoted: false } if name.eq_ignore_ascii_case(word))
    }

    /// A parse error pointing at this token.
    pub fn error(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            pos: self.start.offset,
            line: self.start.line,
            column: self.start.column,
            token: self.kind.to_string(),
            message: message.into(),
        }
    }
}

/// Is `word` (case-insensitively) a keyword of the expression language?
/// Keyword-shaped identifiers must be double-quoted to be used as names.
pub(crate) fn is_keyword(word: &str) -> bool {
    keyword(word).is_some()
}

fn keyword(word: &str) -> Option<TokenKind> {
    match word.to_ascii_uppercase().as_str() {
        "AND" => Some(TokenKind::And),
        "OR" => Some(TokenKind::Or),
        "NOT" => Some(TokenKind::Not),
        "IS" => Some(TokenKind::Is),
        "NULL" => Some(TokenKind::Null),
        "LIKE" => Some(TokenKind::Like),
        "TRUE" => Some(TokenKind::True),
        "FALSE" => Some(TokenKind::False),
        "IN" => Some(TokenKind::In),
        "BETWEEN" => Some(TokenKind::Between),
        "CASE" => Some(TokenKind::Case),
        "WHEN" => Some(TokenKind::When),
        "THEN" => Some(TokenKind::Then),
        "ELSE" => Some(TokenKind::Else),
        "END" => Some(TokenKind::End),
        _ => None,
    }
}

/// The operator or punctuation token that starts with `c` (followed by
/// `next`), and how many characters it spans.
fn symbol(c: char, next: Option<char>) -> Option<(TokenKind, usize)> {
    use TokenKind::*;
    Some(match (c, next) {
        ('|', Some('|')) => (ConcatOp, 2),
        ('!', Some('=')) | ('<', Some('>')) => (Ne, 2),
        ('<', Some('=')) => (Le, 2),
        ('>', Some('=')) => (Ge, 2),
        ('<', _) => (Lt, 1),
        ('>', _) => (Gt, 1),
        ('(', _) => (LParen, 1),
        (')', _) => (RParen, 1),
        (',', _) => (Comma, 1),
        ('.', _) => (Dot, 1),
        ('+', _) => (Plus, 1),
        ('-', _) => (Minus, 1),
        ('*', _) => (Star, 1),
        ('/', _) => (Slash, 1),
        ('=', _) => (Eq, 1),
        _ => return None,
    })
}

/// Lex `input` into positioned tokens, skipping whitespace.
///
/// Errors (an unterminated quote, a stray character, an out-of-range
/// number) point at the offending token's first character.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let chars: Vec<char> = input.chars().collect();
    let step = |at: &mut Pos| {
        if chars[at.offset] == '\n' {
            at.line += 1;
            at.column = 1;
        } else {
            at.column += 1;
        }
        at.offset += 1;
    };
    let mut out = Vec::new();
    let mut at = Pos::START;
    while let Some(&c) = chars.get(at.offset) {
        let start = at;
        // the lexer's error at the token's start, blaming `token`
        let err = |token: &str, message: &str| Error::Parse {
            pos: start.offset,
            line: start.line,
            column: start.column,
            token: token.into(),
            message: message.into(),
        };
        let kind = match c {
            c if c.is_whitespace() => {
                step(&mut at);
                continue;
            }
            quote @ ('\'' | '"') => {
                // `''` / `""` escapes an embedded quote
                step(&mut at);
                let mut s = String::new();
                loop {
                    match chars.get(at.offset) {
                        None if quote == '"' => {
                            return Err(err("\"", "unterminated quoted identifier"))
                        }
                        None => return Err(err("'", "unterminated string literal")),
                        Some(&q) if q == quote => {
                            step(&mut at);
                            if chars.get(at.offset) != Some(&quote) {
                                break;
                            }
                            s.push(quote);
                        }
                        Some(&ch) => s.push(ch),
                    }
                    step(&mut at);
                }
                match quote {
                    '\'' => TokenKind::Str(s),
                    _ if s.is_empty() => return Err(err("\"\"", "empty quoted identifier")),
                    _ => TokenKind::Ident {
                        name: s,
                        quoted: true,
                    },
                }
            }
            c if c.is_ascii_digit() => {
                let digits = |at: &mut Pos| {
                    while chars.get(at.offset).is_some_and(char::is_ascii_digit) {
                        step(at);
                    }
                };
                digits(&mut at);
                // a fractional part requires a digit after '.', so that
                // `R.1x` style errors are caught and `2.attr` never lexes
                let is_float = chars.get(at.offset) == Some(&'.')
                    && chars.get(at.offset + 1).is_some_and(char::is_ascii_digit);
                if is_float {
                    step(&mut at);
                    digits(&mut at);
                }
                let text: String = chars[start.offset..at.offset].iter().collect();
                if is_float {
                    let x = text.parse();
                    TokenKind::Float(x.map_err(|_| err(&text, &format!("invalid float `{text}`")))?)
                } else {
                    let i = text.parse();
                    TokenKind::Int(i.map_err(|_| err(&text, &format!("invalid integer `{text}`")))?)
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                while chars
                    .get(at.offset)
                    .is_some_and(|&ch| ch.is_alphanumeric() || ch == '_')
                {
                    step(&mut at);
                }
                let word: String = chars[start.offset..at.offset].iter().collect();
                keyword(&word).unwrap_or(TokenKind::Ident {
                    name: word,
                    quoted: false,
                })
            }
            c => {
                let Some((kind, width)) = symbol(c, chars.get(at.offset + 1).copied()) else {
                    return Err(match c {
                        '|' => err("|", "expected `||`"),
                        '!' => err("!", "expected `!=`"),
                        _ => err(&c.to_string(), &format!("unexpected character `{c}`")),
                    });
                };
                for _ in 0..width {
                    step(&mut at);
                }
                kind
            }
        };
        out.push(Token {
            kind,
            start,
            end: at,
        });
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Where "end of input" errors point.
    end: Pos,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            let found = match self.peek() {
                Some(t) => t.kind.to_string(),
                None => "end of input".into(),
            };
            Err(self.err_here(format!("expected `{kind}`, found `{found}`")))
        }
    }

    fn err_here(&self, message: impl Into<String>) -> Error {
        match self.peek() {
            Some(t) => t.error(message),
            None => Error::Parse {
                pos: self.end.offset,
                line: self.end.line,
                column: self.end.column,
                token: String::new(),
                message: message.into(),
            },
        }
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat(&TokenKind::Or) {
            let right = self.parse_and()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat(&TokenKind::And) {
            let right = self.parse_not()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Not) {
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let left = self.parse_add()?;
        let op = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Eq) => Some(BinOp::Eq),
            Some(TokenKind::Ne) => Some(BinOp::Ne),
            Some(TokenKind::Lt) => Some(BinOp::Lt),
            Some(TokenKind::Le) => Some(BinOp::Le),
            Some(TokenKind::Gt) => Some(BinOp::Gt),
            Some(TokenKind::Ge) => Some(BinOp::Ge),
            Some(TokenKind::Like) => Some(BinOp::Like),
            Some(TokenKind::Is) => {
                self.pos += 1;
                let negated = self.eat(&TokenKind::Not);
                self.expect(&TokenKind::Null)?;
                return Ok(Expr::IsNull {
                    expr: Box::new(left),
                    negated,
                });
            }
            Some(TokenKind::In) => {
                self.pos += 1;
                return self.parse_in_tail(left, false);
            }
            Some(TokenKind::Between) => {
                self.pos += 1;
                return self.parse_between_tail(left, false);
            }
            Some(TokenKind::Not) => {
                // NOT LIKE / NOT IN / NOT BETWEEN
                self.pos += 1;
                if self.eat(&TokenKind::In) {
                    return self.parse_in_tail(left, true);
                }
                if self.eat(&TokenKind::Between) {
                    return self.parse_between_tail(left, true);
                }
                self.expect(&TokenKind::Like)?;
                let right = self.parse_add()?;
                return Ok(Expr::Not(Box::new(Expr::binary(BinOp::Like, left, right))));
            }
            _ => None,
        };
        match op {
            None => Ok(left),
            Some(op) => {
                self.pos += 1;
                let right = self.parse_add()?;
                Ok(Expr::binary(op, left, right))
            }
        }
    }

    /// `IN ( expr [, expr]* )` — the opening paren is still pending.
    fn parse_in_tail(&mut self, left: Expr, negated: bool) -> Result<Expr> {
        self.expect(&TokenKind::LParen)?;
        let mut list = Vec::new();
        loop {
            list.push(self.parse_or()?);
            if self.eat(&TokenKind::RParen) {
                break;
            }
            self.expect(&TokenKind::Comma)?;
        }
        Ok(Expr::InList {
            expr: Box::new(left),
            list,
            negated,
        })
    }

    /// `BETWEEN add AND add` — bounds parse at `add` level so the `AND`
    /// separator is unambiguous.
    fn parse_between_tail(&mut self, left: Expr, negated: bool) -> Result<Expr> {
        let low = self.parse_add()?;
        self.expect(&TokenKind::And)?;
        let high = self.parse_add()?;
        Ok(Expr::Between {
            expr: Box::new(left),
            low: Box::new(low),
            high: Box::new(high),
            negated,
        })
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut left = self.parse_mul()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                Some(TokenKind::ConcatOp) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_mul()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            Ok(Expr::Neg(Box::new(self.parse_unary()?)))
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let tok = match self.peek() {
            Some(t) => t.clone(),
            None => return Err(self.err_here("unexpected end of input")),
        };
        match tok.kind {
            TokenKind::Null => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Null))
            }
            TokenKind::True => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(true)))
            }
            TokenKind::False => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(false)))
            }
            TokenKind::Int(i) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(i)))
            }
            TokenKind::Float(f) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(f)))
            }
            TokenKind::Str(s) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::str(s)))
            }
            TokenKind::LParen => {
                self.pos += 1;
                let e = self.parse_or()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Case => {
                self.pos += 1;
                let mut branches = Vec::new();
                while self.eat(&TokenKind::When) {
                    let cond = self.parse_or()?;
                    self.expect(&TokenKind::Then)?;
                    let value = self.parse_or()?;
                    branches.push((cond, value));
                }
                if branches.is_empty() {
                    return Err(self.err_here("CASE requires at least one WHEN branch"));
                }
                let otherwise = if self.eat(&TokenKind::Else) {
                    Some(Box::new(self.parse_or()?))
                } else {
                    None
                };
                self.expect(&TokenKind::End)?;
                Ok(Expr::Case {
                    branches,
                    otherwise,
                })
            }
            TokenKind::Ident { name, .. } => {
                self.pos += 1;
                if self.eat(&TokenKind::LParen) {
                    // function call
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.parse_or()?);
                            if self.eat(&TokenKind::RParen) {
                                break;
                            }
                            self.expect(&TokenKind::Comma)?;
                        }
                    }
                    Ok(Expr::Func { name, args })
                } else if self.eat(&TokenKind::Dot) {
                    match self.peek().map(|t| t.kind.clone()) {
                        Some(TokenKind::Ident { name: attr, .. }) => {
                            self.pos += 1;
                            Ok(Expr::Column(ColumnRef::qualified(name, attr)))
                        }
                        _ => Err(self.err_here("expected attribute name after `.`")),
                    }
                } else {
                    Ok(Expr::Column(ColumnRef::bare(name)))
                }
            }
            _ => Err(tok.error(format!("unexpected token `{}`", tok.kind))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    fn p(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    #[test]
    fn parses_paper_join_predicates() {
        assert_eq!(
            p("Children.mid = Parents.ID"),
            Expr::col_eq("Children.mid", "Parents.ID")
        );
        assert_eq!(p("C.fid = P.ID"), Expr::col_eq("C.fid", "P.ID"));
    }

    #[test]
    fn parses_paper_filters() {
        assert_eq!(
            p("C.age < 7"),
            Expr::binary(BinOp::Lt, Expr::col("C.age"), Expr::lit(7i64))
        );
        assert_eq!(
            p("Kids.FamilyIncome < 100000"),
            Expr::binary(
                BinOp::Lt,
                Expr::col("Kids.FamilyIncome"),
                Expr::lit(100_000i64)
            )
        );
    }

    #[test]
    fn parses_is_null_family() {
        assert_eq!(
            p("Kids.ID IS NOT NULL"),
            Expr::IsNull {
                expr: Box::new(Expr::col("Kids.ID")),
                negated: true
            }
        );
        assert_eq!(
            p("C.mid is null"),
            Expr::IsNull {
                expr: Box::new(Expr::col("C.mid")),
                negated: false
            }
        );
    }

    #[test]
    fn precedence_and_over_or_cmp_over_and() {
        let e = p("a = 1 OR b = 2 AND c = 3");
        // OR(a=1, AND(b=2, c=3))
        match e {
            Expr::Binary {
                op: BinOp::Or,
                right,
                ..
            } => match *right {
                Expr::Binary { op: BinOp::And, .. } => {}
                other => panic!("expected AND on the right, got {other}"),
            },
            other => panic!("expected OR at top, got {other}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let e = p("P.salary + P2.salary * 2");
        match e {
            Expr::Binary {
                op: BinOp::Add,
                right,
                ..
            } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("expected +, got {other}"),
        }
        // parens override
        let e = p("(P.salary + P2.salary) * 2");
        assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn family_income_correspondence_parses() {
        // v: Parents.Salary + Parents2.Salary -> Kids.FamilyIncome
        let e = p("Parents.salary + Parents2.salary");
        assert_eq!(e.qualifiers(), vec!["Parents", "Parents2"]);
    }

    #[test]
    fn function_calls_and_nesting() {
        let e = p("concat(Ph.type, ',', Ph.number)");
        match &e {
            Expr::Func { name, args } => {
                assert_eq!(name, "concat");
                assert_eq!(args.len(), 3);
            }
            other => panic!("expected function, got {other}"),
        }
        let e = p("upper(concat(a, b))");
        assert!(matches!(e, Expr::Func { .. }));
        let e = p("coalesce()");
        assert!(matches!(e, Expr::Func { ref args, .. } if args.is_empty()));
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(p("'O''Hare'"), Expr::lit("O'Hare"));
        assert_eq!(
            p("name = 'Maya'"),
            Expr::binary(BinOp::Eq, Expr::col("name"), Expr::lit("Maya"))
        );
    }

    #[test]
    fn not_and_not_like() {
        assert_eq!(
            p("NOT a = 1"),
            Expr::Not(Box::new(Expr::binary(
                BinOp::Eq,
                Expr::col("a"),
                Expr::lit(1i64)
            )))
        );
        let e = p("name NOT LIKE 'M%'");
        assert!(matches!(e, Expr::Not(_)));
        let e = p("name LIKE 'M%'");
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinOp::Like,
                ..
            }
        ));
    }

    #[test]
    fn ne_spellings() {
        assert_eq!(p("a <> 1"), p("a != 1"));
    }

    #[test]
    fn concat_operator_parses() {
        let e = p("Ph.type || ',' || Ph.number");
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinOp::Concat,
                ..
            }
        ));
    }

    #[test]
    fn unary_minus_and_floats() {
        assert_eq!(p("-3"), Expr::Neg(Box::new(Expr::lit(3i64))));
        assert_eq!(p("2.5"), Expr::lit(2.5f64));
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = parse_expr("a = ").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
        let err = parse_expr("a = 'unterminated").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
        let err = parse_expr("a # b").unwrap_err();
        assert!(err.to_string().contains('#'));
        assert!(parse_expr("(a = 1").is_err());
        assert!(parse_expr("a = 1 extra junk +").is_err());
    }

    #[test]
    fn round_trip_display_reparses_to_same_ast() {
        for src in [
            "C.mid = P.ID",
            "C.age < 7 AND Kids.ID IS NOT NULL",
            "concat(Ph.type, ',', Ph.number)",
            "NOT (a = 1) OR b IS NULL",
            "P.salary + P2.salary",
            "(x + 1) * 2 = 6",
            "name LIKE 'M%'",
        ] {
            let e1 = p(src);
            let e2 = p(&e1.to_string());
            assert_eq!(e1, e2, "round-trip failed for `{src}`");
        }
    }

    #[test]
    fn parses_in_lists() {
        let e = p("C.ID IN ('001', '002')");
        assert!(matches!(e, Expr::InList { negated: false, ref list, .. } if list.len() == 2));
        let e = p("C.ID NOT IN ('001')");
        assert!(matches!(e, Expr::InList { negated: true, .. }));
        assert!(parse_expr("C.ID IN ()").is_err());
        assert!(parse_expr("C.ID IN ('a',)").is_err());
    }

    #[test]
    fn parses_between() {
        let e = p("C.age BETWEEN 4 AND 7");
        assert!(matches!(e, Expr::Between { negated: false, .. }));
        let e = p("C.age NOT BETWEEN 4 AND 7");
        assert!(matches!(e, Expr::Between { negated: true, .. }));
        // the AND after the BETWEEN bounds still works as conjunction
        let e = p("C.age BETWEEN 4 AND 7 AND C.ID = '1'");
        assert!(matches!(e, Expr::Binary { op: BinOp::And, .. }));
        assert!(parse_expr("C.age BETWEEN 4").is_err());
    }

    #[test]
    fn parses_case_expressions() {
        let e = p("CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END");
        match &e {
            Expr::Case {
                branches,
                otherwise,
            } => {
                assert_eq!(branches.len(), 2);
                assert!(otherwise.is_some());
            }
            other => panic!("expected CASE, got {other}"),
        }
        let e = p("CASE WHEN a IS NULL THEN 0 END");
        assert!(matches!(e, Expr::Case { ref otherwise, .. } if otherwise.is_none()));
        // nested
        let e = p("CASE WHEN a = 1 THEN CASE WHEN b = 2 THEN 3 END ELSE 4 END");
        assert!(matches!(e, Expr::Case { .. }));
        assert!(parse_expr("CASE ELSE 1 END").is_err());
        assert!(parse_expr("CASE WHEN a THEN 1").is_err());
    }

    #[test]
    fn new_forms_round_trip() {
        for src in [
            "C.ID IN ('001', '002')",
            "C.ID NOT IN ('001')",
            "C.age BETWEEN 4 AND 7",
            "C.age NOT BETWEEN 4 AND 7",
            "CASE WHEN a = 1 THEN 'one' ELSE 'many' END",
            "CASE WHEN a IS NULL THEN 0 END",
        ] {
            let e1 = p(src);
            let e2 = p(&e1.to_string());
            assert_eq!(e1, e2, "round-trip failed for `{src}`");
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(p("a and b or not c"), p("a AND b OR NOT c"));
        assert_eq!(p("x Is NoT nUlL"), p("x IS NOT NULL"));
    }

    #[test]
    fn errors_carry_line_column_and_token() {
        // offending token on line 2
        let err = parse_expr("a = 1\nAND b = )").unwrap_err();
        match err {
            Error::Parse {
                line,
                column,
                ref token,
                ..
            } => {
                assert_eq!(line, 2);
                assert_eq!(column, 9);
                assert_eq!(token, ")");
            }
            other => panic!("expected parse error, got {other}"),
        }
        // end of input: position past the last char, empty token
        let err = parse_expr("a =").unwrap_err();
        match err {
            Error::Parse {
                pos,
                line,
                column,
                ref token,
                ..
            } => {
                assert_eq!((pos, line, column), (3, 1, 4));
                assert!(token.is_empty());
            }
            other => panic!("expected parse error, got {other}"),
        }
        assert!(parse_expr("a =")
            .unwrap_err()
            .to_string()
            .contains("line 1, column 4"));
    }

    #[test]
    fn token_runs_parse_on_their_own() {
        let toks = lex("(a = 1\n  FROM \"FROM\" 'x\ny'").unwrap();
        assert!(toks[4].is_word("from"));
        assert!(!toks[5].is_word("from"));
        assert_eq!(
            toks[5].kind,
            TokenKind::Ident {
                name: "FROM".into(),
                quoted: true
            }
        );
        // a string spanning lines ends on its closing line
        let end = Pos {
            offset: 26,
            line: 3,
            column: 3,
        };
        assert_eq!(toks[6].end, end);
        assert_eq!(parse_expr_tokens(&toks[1..4]).unwrap(), p("a = 1"));
        // end of a run: just past its last token, not the input's end
        match parse_expr_tokens(&toks[..4]).unwrap_err() {
            Error::Parse {
                pos,
                line,
                column,
                ref token,
                ref message,
            } => {
                assert_eq!((pos, line, column), (6, 1, 7));
                assert!(token.is_empty());
                assert_eq!(message, "expected `)`, found `end of input`");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn quoted_identifiers_lex_as_idents() {
        let e = p("\"My Rel\".x = 1");
        assert_eq!(e.qualifiers(), vec!["My Rel"]);
        // keywords lose their meaning when quoted
        let e = p("\"select\" = 'x'");
        assert!(matches!(e, Expr::Binary { op: BinOp::Eq, .. }));
        // `""` escapes an embedded quote
        let e = p("\"a\"\"b\" IS NULL");
        match e {
            Expr::IsNull { expr, .. } => match *expr {
                Expr::Column(ref c) => assert_eq!(c.name, "a\"b"),
                other => panic!("expected column, got {other}"),
            },
            other => panic!("expected IS NULL, got {other}"),
        }
        assert!(parse_expr("\"unterminated").is_err());
        assert!(parse_expr("\"\" = 1").is_err());
        // round-trip through Display
        for src in ["\"My Rel\".\"a b\" = 1", "\"select\" < 2"] {
            let e1 = p(src);
            let e2 = p(&e1.to_string());
            assert_eq!(e1, e2, "round-trip failed for `{src}`");
        }
    }
}
