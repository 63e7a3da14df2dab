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
//!   text, including errors inside embedded expressions (relocated from
//!   the expression parser) and lowering errors like an unknown `JOIN`
//!   alias.
//!
//! Keywords are case-insensitive; identifiers that collide with them
//! (or carry whitespace/punctuation) are `"..."`-quoted exactly as in
//! the expression language.

#![warn(missing_docs)]

mod token;

pub mod parser;
pub mod printer;

pub use parser::{
    parse_map, parse_statement, parse_target_schema, JoinDecl, MapStmt, NodeDecl, SelectItem,
    Spanned,
};
pub use printer::{lang_ident, print_mapping, print_target_schema};
