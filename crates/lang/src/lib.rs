//! `clio-lang` — the MAP language, the one text format for schema
//! mappings.
//!
//! A clause-oriented statement that reads like the SQL a mapping
//! compiles to (paper Sec 5). The shell's `save`/`load`, `map show` and
//! `--mapping` all speak it:
//!
//! ```text
//! MAP Kids (ID str not null, contactPh str)
//! FROM Children, Parents AS Parents2, PhoneDir CODE D
//! JOIN Children, Parents2 ON Children.mid = Parents2.ID
//! JOIN Parents2, PhoneDir ON PhoneDir.ID = Parents2.ID
//! WHERE SOURCE Children.age < 7
//! WHERE TARGET Kids.ID IS NOT NULL
//! SELECT Children.ID AS ID,
//!        concat(PhoneDir.type, ',', PhoneDir.number) AS contactPh
//! ```
//!
//! * [`parse_statement`] tokenizes and parses a statement into a
//!   [`MapStmt`] AST; [`MapStmt::lower`] turns it into a
//!   `clio_core` [`Mapping`](clio_core::prelude::Mapping), and
//!   [`parse_map`] does both.
//! * [`print_mapping`] renders a mapping back as canonical statement
//!   text; `parse_map(&print_mapping(&m)) == m` for every mapping.
//! * [`parse_target_schema`] and [`print_target_schema`] read and write
//!   the `MAP` clause's target-schema header on its own (the CLI's
//!   `--target` flag, a paged directory's `_target.txt`).
//! * Errors carry 1-based line/column positions into the statement
//!   text: a statement is lexed once, by the expression language's
//!   lexer, so errors inside embedded expressions are positioned by
//!   that one lexer, and lowering errors like an unknown `JOIN` alias
//!   point back at the statement too.
//!
//! Keywords are case-insensitive. Names follow the expression
//! language's quoting rule: one that collides with a keyword of either
//! grammar, starts with a digit or carries whitespace/punctuation is
//! `"..."`-quoted.

#![warn(missing_docs)]

pub mod parser;
pub mod printer;

pub use parser::{
    parse_map, parse_statement, parse_target_schema, JoinDecl, MapStmt, NodeDecl, SelectItem,
    Spanned,
};
pub use printer::{lang_ident, print_mapping, print_target_schema};
