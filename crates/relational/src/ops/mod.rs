//! Relational operators over derived [`Table`](crate::table::Table)s.
//!
//! These are the algebraic building blocks of mapping queries and full
//! disjunctions: selection, projection, cartesian product, inner and outer
//! joins, outer union, subsumption removal, and minimum union (paper
//! Defs 3.5–3.11).

mod aggregate;
mod join;
mod minimum_union;
mod project;
mod select;
mod sort;
mod subsumption;

pub use aggregate::{group_by, AggFunc, Aggregate};
pub use join::{cartesian_product, join, JoinKind};
pub use minimum_union::{minimum_union, minimum_union_all, outer_union, pad_to, unified_scheme};
pub use project::{out_col, project, project_columns};
pub use select::select;
pub use sort::{limit, order_by, SortKey};
pub use subsumption::{
    extended_rows, remove_subsumed, remove_subsumed_among, remove_subsumed_naive,
    remove_subsumed_partitioned, strictly_subsumes, subsumes, SubsumptionAlgo,
};
