//! `clio-core` — schema mappings, examples, illustrations and operators.
#![warn(missing_docs)]

pub mod association;
pub mod correspondence;
pub mod evolution;
pub mod example;
pub mod focus;
pub mod full_disjunction;
pub mod illustration;
pub mod incremental;
pub mod knowledge;
pub mod mapping;
pub mod mining;
pub mod operators;
pub mod plan;
pub mod profile;
pub mod query_graph;
pub mod ranking;
pub mod session;
pub mod session_pool;
pub mod sql;
pub mod subgraph;
pub mod verify;

/// Convenient re-exports of the crate's main types.
pub mod prelude {
    pub use crate::association::AssociationSet;
    pub use crate::correspondence::ValueCorrespondence;
    pub use crate::evolution::{
        continuity_holds, evolve_illustration, evolve_illustration_cached, Evolution,
    };
    pub use crate::example::Example;
    pub use crate::focus::{focused_examples, is_focused, Focus};
    pub use crate::full_disjunction::{
        full_associations, full_disjunction, full_disjunction_naive, FdAlgo,
    };
    pub use crate::illustration::{
        is_sufficient, requirements, select_greedy, Illustration, Requirement, SufficiencyScope,
    };
    pub use crate::incremental::{
        full_disjunction_cached, graph_fingerprint, mapping_fingerprint, relation_deps,
    };
    pub use crate::knowledge::{JoinSpec, PathStep, Provenance, SchemaKnowledge};
    pub use crate::mapping::{Mapping, MappingEvaluator};
    pub use crate::mining::{
        enrich_knowledge, mine_inclusion_dependencies, MinedDependency, MiningConfig,
    };
    pub use crate::operators::{
        add_correspondence, data_chase, data_walk, require_target_attribute, trim_effect,
        AddOutcome, ChaseAlternative, TrimEffect, WalkAlternative,
    };
    pub use crate::plan::{is_extension_stable, Exec, FilterScope, Plan, RelExpr};
    pub use crate::profile::{profile_database, render_profile, AttributeProfile};
    pub use crate::query_graph::{Edge, Node, NodeId, QueryGraph};
    pub use crate::ranking::{join_support, rank_walk_alternatives, RankScore};
    pub use crate::session::{Contribution, Session, Workspace};
    pub use crate::session_pool::SessionPool;
    pub use crate::sql::{generate_sql, SqlOptions};
    pub use crate::subgraph::{connected_subsets, connected_subsets_exhaustive};
    pub use crate::verify::{verify_mapping, Finding};
    pub use clio_incr::{CacheStats, EvalCache, Fingerprint, FingerprintBuilder};
}
