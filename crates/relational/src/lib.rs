//! `clio-relational` — the in-memory relational engine underneath the Clio
//! schema-mapping reproduction.
//!
//! This crate implements the paper's preliminaries (SIGMOD 2001, Sec 3):
//! typed values with SQL null semantics, relations and databases,
//! predicates under three-valued logic with *strong*-predicate analysis,
//! an SQL-ish expression language with parser and function registry, and
//! the relational operators that mapping queries are built from — joins
//! (inner/outer), outer union, subsumption removal, and **minimum union**.
//!
//! # Quick tour
//!
//! ```
//! use clio_relational::prelude::*;
//!
//! let children = RelationBuilder::new("Children")
//!     .attr_not_null("ID", DataType::Str)
//!     .attr("mid", DataType::Str)
//!     .row(vec!["002".into(), "202".into()])
//!     .row(vec!["004".into(), Value::Null])
//!     .build()
//!     .unwrap();
//! let parents = RelationBuilder::new("Parents")
//!     .attr_not_null("ID", DataType::Str)
//!     .attr("affiliation", DataType::Str)
//!     .row(vec!["202".into(), "UofT".into()])
//!     .build()
//!     .unwrap();
//!
//! let funcs = FuncRegistry::with_builtins();
//! let pred = parse_expr("C.mid = P.ID").unwrap();
//! let joined = join(
//!     &children.to_table("C"),
//!     &parents.to_table("P"),
//!     &pred,
//!     JoinKind::LeftOuter,
//!     &funcs,
//! )
//! .unwrap();
//! assert_eq!(joined.len(), 2); // Maya matched, 004 padded with nulls
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod codec;
pub mod constraints;
pub mod csv;
pub mod database;
pub mod display;
pub mod error;
pub mod exec;
pub mod expr;
pub mod funcs;
pub mod index;
pub mod ops;
pub mod parser;
pub mod relation;
pub mod schema;
pub mod simplify;
pub mod storage;
pub mod table;
pub mod truth;
pub mod typing;
pub mod value;

/// The one atomic file write (defined in `clio-pager`).
pub use clio_pager::write_atomic;
/// FNV-1a 64, the one digest behind page checksums, cache-file
/// checksums and cache fingerprints (defined in `clio-pager`).
pub use clio_pager::{fnv1a, FNV_OFFSET_BASIS};

/// Convenient re-exports of the crate's main types.
pub mod prelude {
    pub use crate::constraints::{Constraints, ForeignKey, Key};
    pub use crate::database::Database;
    pub use crate::error::{Error, Result};
    pub use crate::exec;
    pub use crate::expr::{BinOp, Expr};
    pub use crate::funcs::{Arity, FuncRegistry};
    pub use crate::index::ValueIndex;
    pub use crate::ops::{
        join, minimum_union, minimum_union_all, outer_union, select, JoinKind, SubsumptionAlgo,
    };
    pub use crate::parser::parse_expr;
    pub use crate::relation::{Relation, RelationBuilder};
    pub use crate::schema::{Attribute, Column, ColumnRef, RelSchema, Scheme};
    pub use crate::simplify::simplify;
    pub use crate::table::Table;
    pub use crate::truth::Truth;
    pub use crate::typing::{infer_type, InferredType};
    pub use crate::value::{DataType, Value};
}
