//! Relational operators over derived [`Table`](crate::table::Table)s.
//!
//! These are the algebraic building blocks of mapping queries and full
//! disjunctions: selection, projection, cartesian product, inner and outer
//! joins, outer union, subsumption removal, and minimum union (paper
//! Defs 3.5–3.11).

mod join;
mod minimum_union;
mod project;
mod select;
mod subsumption;

pub use join::{cartesian_product, join, join_rows, join_with, JoinInput, JoinKind, Joined};
pub use minimum_union::{
    minimum_union, minimum_union_all, outer_union, outer_union_all, pad_to, unified_scheme,
};
pub use project::project;
pub use select::select;
pub(crate) use subsumption::holds_subsumed_row;
pub use subsumption::{
    remove_subsumed, remove_subsumed_among, remove_subsumed_naive, remove_subsumed_partitioned,
    strictly_subsumes, subsumed_among, subsumes, SubsumptionAlgo,
};
