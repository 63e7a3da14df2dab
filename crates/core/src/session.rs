//! Clio's mapping framework: workspaces, the active mapping, alternative
//! management, and the WYSIWYG target view (paper Sec 6).
//!
//! A [`Session`] owns the source database, the target schema, the schema
//! knowledge and value index, and a set of [`Workspace`]s — one per
//! mapping alternative, each with a synchronized illustration. When a
//! data walk or chase produces several alternatives, new workspaces are
//! created (ranked most-likely first, the first becoming active) and the
//! workspace they replace is discarded; `confirm` keeps one alternative
//! and deletes its siblings. Multiple mappings can be *accepted* for one
//! target (paper Example 6.1 — complementary filters for motherless
//! children); the target view is the minimum union of all accepted
//! mappings plus the active one.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::funcs::FuncRegistry;
use clio_relational::index::ValueIndex;
use clio_relational::parser::parse_expr;
use clio_relational::relation::Relation;
use clio_relational::schema::RelSchema;
use clio_relational::table::Table;
use clio_relational::value::Value;

use clio_incr::EvalCache;

use crate::correspondence::ValueCorrespondence;
use crate::evolution::{evolve, positions_in};
use crate::illustration::Illustration;
use crate::knowledge::SchemaKnowledge;
use crate::mapping::Mapping;
use crate::operators::chase::{confirm_chase, data_chase};
use crate::operators::correspondence_ops::{add_correspondence, AddOutcome};
use crate::operators::walk::data_walk;
use crate::plan::{CompiledMapping, Plan};
use crate::query_graph::{Node, QueryGraph};

/// One mapping alternative plus its illustration.
#[derive(Debug, Clone, PartialEq)]
pub struct Workspace {
    /// Stable identifier.
    pub id: usize,
    /// The workspace's mapping.
    pub mapping: Mapping,
    /// The synchronized illustration.
    pub illustration: Illustration,
    /// Alternatives created by one operation share a generation tag;
    /// `confirm` deletes same-generation siblings.
    pub generation: usize,
    /// Human-readable description of how this alternative arose.
    pub description: String,
    /// Graph state before the last data-linking operation (used to roll
    /// back when a second correspondence spawns an alternative mapping —
    /// paper Example 6.2).
    pub graph_before_last_link: Option<QueryGraph>,
}

/// One accepted mapping's share of the target view (the `contributions`
/// report).
#[derive(Debug, Clone, PartialEq)]
pub struct Contribution {
    /// Index of the mapping among the accepted mappings.
    pub mapping_index: usize,
    /// Tuples this mapping produces.
    pub produced: usize,
    /// Of those, tuples no other accepted mapping produces.
    pub exclusive: usize,
}

/// The session's compiled forms, one per distinct mapping its workspaces
/// and accepted mappings hold. A form is only ever used after
/// [`CompiledMapping::is_current`] confirms it describes the mapping at
/// hand, so assigning a workspace's mapping in place needs no reset
/// here: the next use finds no form for it and compiles afresh.
#[derive(Default)]
struct Forms(Mutex<Vec<Arc<CompiledMapping>>>);

impl Forms {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<CompiledMapping>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for Forms {
    fn clone(&self) -> Forms {
        Forms(Mutex::new(self.lock().clone()))
    }
}

impl std::fmt::Debug for Forms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Forms({} forms)", self.lock().len())
    }
}

/// A Clio mapping session.
///
/// The source database and value index are held behind [`Arc`]s, so
/// sessions spawned from one snapshot (see `SessionPool`) share them
/// without copying. [`Session::replace_relation`] — the only mutation
/// path — goes through [`Arc::make_mut`], i.e. copy-on-write: the first
/// edit in a sharing session materializes a private copy, and sibling
/// sessions keep observing the original snapshot
/// (`docs/concurrency.md`).
///
/// The value index is built lazily after an edit: an edit drops the
/// session's index, and the next [`Session::data_chase`] — its only
/// reader — builds one over the edited database. A run of edits with no
/// chase between them builds no index.
#[derive(Debug, Clone)]
pub struct Session {
    db: Arc<Database>,
    funcs: FuncRegistry,
    /// Schema knowledge driving data walks (seeded from foreign keys,
    /// extended by confirmed chases).
    pub knowledge: SchemaKnowledge,
    /// The value index over `db`; `None` after an edit until a chase
    /// needs it.
    index: Option<Arc<ValueIndex>>,
    target: RelSchema,
    workspaces: Vec<Workspace>,
    active: Option<usize>,
    accepted: Vec<Mapping>,
    next_id: usize,
    generation: usize,
    /// Maximum path length searched by data walks.
    pub walk_max_steps: usize,
    /// Memoized evaluation results (`F(J)`, `D(G)`, mapping queries),
    /// invalidated by relation edits and function-registry changes.
    cache: EvalCache,
    /// The compiled form of each distinct mapping held, reused across
    /// data edits.
    forms: Forms,
}

impl Session {
    /// Start a session over a source database and a target relation
    /// schema. Knowledge is seeded from the database's foreign keys; the
    /// value index is built eagerly.
    #[must_use]
    pub fn new(db: Database, target: RelSchema) -> Session {
        Session::shared(Arc::new(db), target)
    }

    /// Start a session over an `Arc`-shared source snapshot without
    /// copying it. Knowledge and the value index are still derived
    /// eagerly — except over a paged database that ships a persisted
    /// index (`_index.clh`), which is loaded instead of rebuilt so
    /// opening a session does not scan every relation. Use
    /// [`Session::from_parts`] to share pre-built parts directly.
    #[must_use]
    pub fn shared(db: Arc<Database>, target: RelSchema) -> Session {
        let knowledge = SchemaKnowledge::from_database(&db);
        let index = db
            .stored_index()
            .unwrap_or_else(|| Arc::new(ValueIndex::build(&db)));
        Session::from_parts(db, index, knowledge, target)
    }

    /// Assemble a session from pre-built shared parts. This is the cheap
    /// constructor `SessionPool` uses to spawn sessions: the database,
    /// value index, and seed knowledge are computed once per pool and
    /// shared by every session (the knowledge is cloned — sessions
    /// extend it independently via confirmed chases). Each session still
    /// gets its own function registry, workspaces, and [`EvalCache`].
    ///
    /// The caller is responsible for `index` and `knowledge` actually
    /// matching `db`; mismatched parts produce wrong walk/chase results,
    /// not errors.
    #[must_use]
    pub fn from_parts(
        db: Arc<Database>,
        index: Arc<ValueIndex>,
        knowledge: SchemaKnowledge,
        target: RelSchema,
    ) -> Session {
        Session {
            knowledge,
            index: Some(index),
            db,
            funcs: FuncRegistry::with_builtins(),
            target,
            workspaces: Vec::new(),
            active: None,
            accepted: Vec::new(),
            next_id: 0,
            generation: 0,
            walk_max_steps: 4,
            cache: EvalCache::new(),
            forms: Forms::default(),
        }
    }

    /// The source database.
    #[must_use]
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The target relation schema this session maps into.
    #[must_use]
    pub fn target_schema(&self) -> &RelSchema {
        &self.target
    }

    /// The source database as a shareable snapshot handle. Cloning the
    /// returned `Arc` is O(1); the snapshot stays valid even if this
    /// session later edits its database (the edit copies first).
    #[must_use]
    pub fn shared_database(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// The function registry every evaluation in this session resolves
    /// its function calls against.
    #[must_use]
    pub fn funcs(&self) -> &FuncRegistry {
        &self.funcs
    }

    /// The function registry (register custom correspondence functions
    /// here before adding correspondences that use them). Taking the
    /// mutable registry conservatively invalidates the whole evaluation
    /// cache — a redefined function can change any cached result — and,
    /// through the epoch it bumps, every compiled mapping.
    pub fn funcs_mut(&mut self) -> &mut FuncRegistry {
        self.cache.bump_epoch();
        &mut self.funcs
    }

    /// The session's incremental evaluation cache (for statistics and
    /// benchmarks; see `docs/incremental.md`).
    #[must_use]
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Turn the incremental cache on or off (on by default). Disabling
    /// routes every operator through the plain evaluation paths; output
    /// is byte-identical either way.
    pub fn set_cache_enabled(&mut self, on: bool) {
        self.cache.set_enabled(on);
    }

    /// The planner's `explain` tree for the active workspace's mapping.
    pub fn explain_active(&self) -> Result<String> {
        let compiled = self.compiled(&self.require_active()?.mapping)?;
        Ok(Plan::compiled(compiled, &self.funcs, Some(&self.cache)).explain())
    }

    /// The compiled form of `mapping`: the kept form that is current for
    /// it (same mapping, relation schemes and function epoch), otherwise
    /// a fresh compilation. A compilation is kept beside the current
    /// forms of the mappings a workspace or an accepted mapping still
    /// holds; every other form is dropped.
    fn compiled(&self, mapping: &Mapping) -> Result<Arc<CompiledMapping>> {
        let epoch = self.cache.epoch();
        let mut forms = self.forms.lock();
        if let Some(c) = forms
            .iter()
            .find(|c| c.is_current(mapping, &self.db, epoch))
        {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(CompiledMapping::new(mapping, &self.db, &self.funcs, epoch)?);
        forms.retain(|f| {
            let held = f.mapping();
            f.is_current(held, &self.db, epoch)
                && (self.accepted.contains(held)
                    || self.workspaces.iter().any(|w| w.mapping == *held))
        });
        forms.push(Arc::clone(&c));
        Ok(c)
    }

    /// Attach a persistent second-tier cache backend (e.g. a
    /// [`clio_incr::DiskStore`] over the CLI's `--cache-dir`): eligible
    /// cache insertions spill to it, and lookups that miss in memory
    /// consult it before recomputing. Output stays byte-identical with
    /// or without a store — only the work to produce it changes.
    pub fn attach_store(&mut self, store: Arc<dyn clio_incr::CacheStore>) {
        self.cache.set_store(Some(store));
    }

    /// Replace the contents of one base relation (a content edit — the
    /// schema must stay identical, so every mapping stays valid). The
    /// value index is dropped (the next [`Session::data_chase`] builds
    /// one over the edited data), dependent cache entries are invalidated,
    /// and each workspace's illustration is *evolved* over the new data
    /// (paper Sec 5.3 continuity, applied to data instead of graph
    /// changes): familiar examples that survive the edit are retained,
    /// sufficiency is repaired by adding examples. Each workspace evolves
    /// through its compiled mapping, so an edit compiles nothing.
    ///
    /// What is invalidated depends on what the edit changed. When the
    /// new relation has as many rows as the old one and neither holds a
    /// near-duplicate ([`Relation::has_near_duplicates`]), the two are
    /// compared row by row in place and only the columns with a changed
    /// cell are bumped ([`EvalCache::bump_columns`]): the `F(J)` and
    /// `D(G)` entries, whose keys read only the columns their join
    /// predicates read, survive an edit to other cells, while every
    /// `Q(M)` entry of the relation goes. A reorder shows up as changed
    /// cells of the columns that differ between the swapped rows. Any
    /// other edit bumps the whole relation ([`EvalCache::bump_version`]):
    /// a changed row count, or a near-duplicate on either side, whose
    /// residual passes read every cell of the relation through the ids.
    ///
    /// The edit is all or nothing: every workspace is evolved before any
    /// illustration changes. When one evolution fails (say, a
    /// correspondence divides by a value the edit made zero), the old
    /// relation and the index are restored and the same versions are
    /// bumped once more, so nothing computed on the rejected data is
    /// ever served, and the error is returned.
    pub fn replace_relation(&mut self, rel: Relation) -> Result<()> {
        let _span = clio_obs::span("session.replace_relation");
        let name = rel.name().to_owned();
        let old_schema = self.db.relation(&name)?.schema();
        if old_schema != rel.schema() {
            return Err(Error::Invalid(format!(
                "replace_relation only supports content edits; \
                 the schema of `{name}` changed"
            )));
        }
        // Copy-on-write: if the snapshot is shared with other sessions,
        // clone it first; they keep seeing the pre-edit data.
        let old = std::mem::replace(Arc::make_mut(&mut self.db).relation_mut(&name)?, rel);
        let index = self.index.take();
        let changed = changed_columns(&old, self.db.relation(&name)?);
        let bump = |cache: &EvalCache| match &changed {
            Some(columns) => cache.bump_columns(&name, columns),
            None => cache.bump_version(&name),
        };
        bump(&self.cache);
        match self.evolve_workspaces() {
            Ok(illustrations) => {
                for (w, illustration) in self.workspaces.iter_mut().zip(illustrations) {
                    w.illustration = illustration;
                }
                Ok(())
            }
            Err(e) => {
                *Arc::make_mut(&mut self.db).relation_mut(&name)? = old;
                self.index = index;
                bump(&self.cache);
                Err(e)
            }
        }
    }

    /// Every workspace's illustration evolved onto its own mapping over
    /// the current data, in workspace order.
    fn evolve_workspaces(&self) -> Result<Vec<Illustration>> {
        self.workspaces
            .iter()
            .map(|w| {
                let compiled = self.compiled(&w.mapping)?;
                let evo = evolve(
                    &w.illustration,
                    compiled.own_positions(),
                    &compiled,
                    &self.db,
                    &self.funcs,
                    Some(&self.cache),
                )?;
                Ok(evo.illustration)
            })
            .collect()
    }

    /// All workspaces.
    #[must_use]
    pub fn workspaces(&self) -> &[Workspace] {
        &self.workspaces
    }

    /// The active workspace, if any.
    #[must_use]
    pub fn active(&self) -> Option<&Workspace> {
        self.active
            .and_then(|id| self.workspaces.iter().find(|w| w.id == id))
    }

    fn require_active(&self) -> Result<&Workspace> {
        self.active()
            .ok_or_else(|| Error::Invalid("no active workspace".into()))
    }

    fn active_mut(&mut self) -> Result<&mut Workspace> {
        let id = self
            .active
            .ok_or_else(|| Error::Invalid("no active workspace".into()))?;
        self.workspaces
            .iter_mut()
            .find(|w| w.id == id)
            .ok_or_else(|| Error::Invalid("active workspace vanished".into()))
    }

    /// Mappings accepted so far.
    #[must_use]
    pub fn accepted(&self) -> &[Mapping] {
        &self.accepted
    }

    /// Make workspace `id` active.
    pub fn activate(&mut self, id: usize) -> Result<()> {
        if self.workspaces.iter().any(|w| w.id == id) {
            self.active = Some(id);
            Ok(())
        } else {
            Err(Error::Invalid(format!("no workspace {id}")))
        }
    }

    /// Delete a workspace (rejecting an alternative).
    pub fn delete(&mut self, id: usize) -> Result<()> {
        let before = self.workspaces.len();
        self.workspaces.retain(|w| w.id != id);
        if self.workspaces.len() == before {
            return Err(Error::Invalid(format!("no workspace {id}")));
        }
        if self.active == Some(id) {
            self.active = self.workspaces.first().map(|w| w.id);
        }
        Ok(())
    }

    /// Confirm workspace `id` as the correct alternative (so far): its
    /// same-generation siblings are deleted and it becomes active.
    pub fn confirm(&mut self, id: usize) -> Result<()> {
        let generation = self
            .workspaces
            .iter()
            .find(|w| w.id == id)
            .ok_or_else(|| Error::Invalid(format!("no workspace {id}")))?
            .generation;
        self.workspaces
            .retain(|w| w.id == id || w.generation != generation);
        self.active = Some(id);
        Ok(())
    }

    /// Accept the active workspace's mapping as (part of) the target
    /// mapping. Several mappings may be accepted for one target (paper
    /// Example 6.1). The accepted mapping shares the workspace's
    /// compiled form, the form of an equal mapping.
    pub fn accept_active(&mut self) -> Result<()> {
        let mapping = self.require_active()?.mapping.clone();
        mapping.validate(&self.db, &self.funcs)?;
        self.accepted.push(mapping);
        Ok(())
    }

    fn push_workspace(
        &mut self,
        mapping: Mapping,
        illustration: Illustration,
        description: String,
        generation: usize,
        graph_before_last_link: Option<QueryGraph>,
    ) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.workspaces.push(Workspace {
            id,
            mapping,
            illustration,
            generation,
            description,
            graph_before_last_link,
        });
        id
    }

    /// Validate `mapping` and push it as a new workspace of `generation`
    /// with a fresh minimal sufficient illustration of it. Returns the
    /// new workspace's id.
    fn open_workspace(
        &mut self,
        mapping: Mapping,
        description: String,
        generation: usize,
    ) -> Result<usize> {
        mapping.validate(&self.db, &self.funcs)?;
        let illustration = self.illustrate(&mapping)?;
        Ok(self.push_workspace(mapping, illustration, description, generation, None))
    }

    /// A minimal sufficient illustration of `mapping`.
    fn illustrate(&self, mapping: &Mapping) -> Result<Illustration> {
        let population = self.examples(mapping)?;
        Ok(Illustration::minimal_sufficient(
            &population,
            mapping.target.arity(),
        ))
    }

    /// The examples of `mapping`, through its compiled form.
    fn examples(&self, mapping: &Mapping) -> Result<Vec<crate::example::Example>> {
        self.compiled(mapping)?
            .examples(&self.db, &self.funcs, Some(&self.cache))
    }

    /// The query result of `mapping`, through its compiled form.
    fn evaluate(&self, mapping: &Mapping) -> Result<Table> {
        self.compiled(mapping)?
            .evaluate(&self.db, &self.funcs, Some(&self.cache))
    }

    /// Evolve `origin`'s illustration onto `mapping` (continuity, paper
    /// Sec 5.3).
    fn evolve_onto(&self, origin: &Workspace, mapping: &Mapping) -> Result<Illustration> {
        let old = self.compiled(&origin.mapping)?;
        let new = self.compiled(mapping)?;
        let positions = positions_in(old.scheme(), new.scheme())?;
        let evo = evolve(
            &origin.illustration,
            &positions,
            &new,
            &self.db,
            &self.funcs,
            Some(&self.cache),
        )?;
        Ok(evo.illustration)
    }

    /// Validate `mapping`, make it the active workspace's mapping and
    /// give that workspace a fresh minimal sufficient illustration of
    /// it. Returns the workspace's id.
    fn assign_active(&mut self, mapping: Mapping) -> Result<usize> {
        mapping.validate(&self.db, &self.funcs)?;
        let illustration = self.illustrate(&mapping)?;
        let ws = self.active_mut()?;
        ws.mapping = mapping;
        ws.illustration = illustration;
        Ok(ws.id)
    }

    /// Add a value correspondence (text form: `"Children.ID"`,
    /// `"Parents.salary + Parents2.salary"`). Behaviour follows the paper:
    ///
    /// * no workspace yet → a workspace is created whose graph holds the
    ///   single source relation the expression references;
    /// * all referenced relations already in the active graph → the
    ///   mapping is extended (or an alternative is spawned when the target
    ///   attribute is already mapped — Example 6.2);
    /// * exactly one referenced relation missing → Clio runs a data walk
    ///   to it and creates one alternative workspace per way of linking it
    ///   (the Figure 3 / Figure 4 scenarios), each with the new
    ///   correspondence in place. Returns the new workspace ids.
    pub fn add_correspondence(&mut self, expr: &str, target_attr: &str) -> Result<Vec<usize>> {
        let v = ValueCorrespondence::new(parse_expr(expr)?, target_attr);
        self.target.index_of(target_attr)?;

        // bootstrap: no workspace yet
        if self.active.is_none() {
            let quals = v.source_qualifiers();
            let [rel] = quals.as_slice() else {
                return Err(Error::Invalid(
                    "the first correspondence must reference exactly one source relation".into(),
                ));
            };
            let rel = (*rel).to_owned();
            self.db.relation(&rel)?;
            let mut graph = QueryGraph::new();
            graph.add_node(Node::new(rel.clone()))?;
            let mapping = Mapping::new(graph, self.target.clone())
                .with_correspondence(v)
                .with_target_not_null_filters();
            let id = self.open_workspace(mapping, format!("start from {rel}"), 0)?;
            self.active = Some(id);
            return Ok(vec![id]);
        }

        let active = self.require_active()?.clone();
        let graph = &active.mapping.graph;
        let missing: Vec<String> = v
            .source_qualifiers()
            .iter()
            .filter(|q| graph.node_by_alias(q).is_none())
            .map(|q| (*q).to_owned())
            .collect();

        match missing.as_slice() {
            [] => {
                // everything bound: extend or spawn an alternative
                let base = active.graph_before_last_link.clone();
                match add_correspondence(&active.mapping, v, base.as_ref()) {
                    AddOutcome::Extended(m) => Ok(vec![self.assign_active(m)?]),
                    AddOutcome::NewAlternative { alternative, .. } => {
                        self.generation += 1;
                        let id = self.open_workspace(
                            alternative,
                            format!("alternative computation of {target_attr}"),
                            self.generation,
                        )?;
                        Ok(vec![id])
                    }
                }
            }
            [rel] => {
                // one missing relation: walk to it from every graph node,
                // creating one workspace per alternative (Figure 3 flow)
                let rel = rel.clone();
                self.walk_internal(&active, &rel, Some(v))
            }
            more => Err(Error::Invalid(format!(
                "correspondence references {} relations missing from the graph ({}); \
                 link them one at a time",
                more.len(),
                more.join(", ")
            ))),
        }
    }

    /// Run a data walk from `start_alias` (or from every node when `None`)
    /// to `end_relation`. Creates one workspace per alternative (evolved
    /// illustrations, continuity preserved); the best-ranked becomes
    /// active; the originating workspace is discarded (paper Sec 6.1).
    /// Returns the new workspace ids, ranked.
    pub fn data_walk(
        &mut self,
        start_alias: Option<&str>,
        end_relation: &str,
    ) -> Result<Vec<usize>> {
        let active = self.require_active()?.clone();
        let Some(start) = start_alias else {
            return self.walk_internal(&active, end_relation, None);
        };
        let alternatives = data_walk(
            &active.mapping,
            &self.db,
            &self.knowledge,
            start,
            end_relation,
            self.walk_max_steps,
            &self.funcs,
        )?;
        self.install_walk_alternatives(&active, alternatives, None)
    }

    /// Walk from every node of `active`'s graph to `end_relation` and
    /// install the alternatives, shortest first, setting `correspondence`
    /// on each.
    fn walk_internal(
        &mut self,
        active: &Workspace,
        end_relation: &str,
        correspondence: Option<ValueCorrespondence>,
    ) -> Result<Vec<usize>> {
        let mut all = Vec::new();
        for node in active.mapping.graph.nodes() {
            let mut alts = data_walk(
                &active.mapping,
                &self.db,
                &self.knowledge,
                &node.alias,
                end_relation,
                self.walk_max_steps,
                &self.funcs,
            )?;
            all.append(&mut alts);
        }
        all.sort_by_key(|a| (a.path_len, a.new_nodes.len()));
        all.dedup_by(|a, b| a.mapping.graph == b.mapping.graph);
        self.install_walk_alternatives(active, all, correspondence)
    }

    fn install_walk_alternatives(
        &mut self,
        origin: &Workspace,
        alternatives: Vec<crate::operators::walk::WalkAlternative>,
        correspondence: Option<ValueCorrespondence>,
    ) -> Result<Vec<usize>> {
        if alternatives.is_empty() {
            return Err(Error::Invalid(
                "no way to link the requested relation was found; \
                 try a data chase to discover one"
                    .into(),
            ));
        }
        let alternatives = alternatives
            .into_iter()
            .map(|alt| {
                let mut m = alt.mapping;
                if let Some(v) = &correspondence {
                    m.set_correspondence(v.clone());
                }
                m.validate(&self.db, &self.funcs)?;
                Ok((m, alt.description))
            })
            .collect::<Result<Vec<_>>>()?;
        self.install_alternatives(origin, alternatives)
    }

    /// Install `alternatives`, (mapping, description) pairs best first
    /// and at least one, as one new generation of workspaces, each with
    /// `origin`'s illustration evolved onto it (continuity); then discard
    /// `origin` and activate the first. Returns the new ids.
    fn install_alternatives(
        &mut self,
        origin: &Workspace,
        alternatives: Vec<(Mapping, String)>,
    ) -> Result<Vec<usize>> {
        self.generation += 1;
        let mut ids = Vec::with_capacity(alternatives.len());
        for (mapping, description) in alternatives {
            let illustration = self.evolve_onto(origin, &mapping)?;
            ids.push(self.push_workspace(
                mapping,
                illustration,
                description,
                self.generation,
                Some(origin.mapping.graph.clone()),
            ));
        }
        self.workspaces.retain(|w| w.id != origin.id);
        self.active = Some(ids[0]);
        Ok(ids)
    }

    /// Run a data chase from `alias.attr` on `value`. Creates one
    /// workspace per occurrence site (paper Fig 5). Returns the ids.
    pub fn data_chase(&mut self, alias: &str, attr: &str, value: &Value) -> Result<Vec<usize>> {
        let active = self.require_active()?.clone();
        let index = self
            .index
            .get_or_insert_with(|| Arc::new(ValueIndex::build(&self.db)));
        let alternatives = data_chase(
            &active.mapping,
            &self.db,
            index,
            alias,
            attr,
            value,
            &self.funcs,
        )?;
        if alternatives.is_empty() {
            return Err(Error::Invalid(format!(
                "value `{value}` does not occur outside the current mapping"
            )));
        }
        let installed = alternatives
            .iter()
            .map(|alt| (alt.mapping.clone(), alt.description.clone()))
            .collect();
        let ids = self.install_alternatives(&active, installed)?;

        // confirming a chase later (via `confirm`) should teach the
        // knowledge base; record the discovered specs now so walks can
        // use them once the user confirms
        let start_rel = active
            .mapping
            .graph
            .node_by_alias(alias)
            .map(|i| active.mapping.graph.nodes()[i].relation.clone())
            .unwrap_or_else(|| alias.to_owned());
        for alt in &alternatives {
            confirm_chase(&mut self.knowledge, alt, &start_rel, attr);
        }
        Ok(ids)
    }

    /// Adopt an externally-built mapping (e.g. loaded from a saved MAP
    /// statement) as a new workspace and make it active. The mapping is
    /// validated and its target schema must match the session's.
    pub fn adopt_mapping(&mut self, mapping: Mapping, description: &str) -> Result<usize> {
        if mapping.target != self.target {
            return Err(Error::Invalid(format!(
                "mapping targets `{}`, session targets `{}`",
                mapping.target.name(),
                self.target.name()
            )));
        }
        let id = self.open_workspace(mapping, description.to_owned(), self.generation)?;
        self.active = Some(id);
        Ok(id)
    }

    /// Mark a target attribute as required on the active mapping
    /// (`Target.attr IS NOT NULL` — the paper's inner-join refinement).
    pub fn require_target_attribute(&mut self, attr: &str) -> Result<()> {
        self.target.index_of(attr)?;
        let m =
            crate::operators::trim::require_target_attribute(&self.require_active()?.mapping, attr);
        self.assign_active(m).map(drop)
    }

    /// Add a source filter (text) to the active mapping.
    pub fn add_source_filter(&mut self, filter: &str) -> Result<()> {
        let m = crate::operators::trim::add_source_filter(&self.require_active()?.mapping, filter)?;
        self.assign_active(m).map(drop)
    }

    /// Add a target filter (text) to the active mapping.
    pub fn add_target_filter(&mut self, filter: &str) -> Result<()> {
        let m = crate::operators::trim::add_target_filter(&self.require_active()?.mapping, filter)?;
        self.assign_active(m).map(drop)
    }

    /// Every example of the active workspace's mapping (paper Def 4.1),
    /// through its compiled form and the session cache.
    pub fn examples_active(&self) -> Result<Vec<crate::example::Example>> {
        self.examples(&self.require_active()?.mapping)
    }

    /// Alternative examples that could replace slot `slot` of the active
    /// workspace's illustration without losing sufficiency (paper Sec 2:
    /// the user may ask "for different example tuples").
    pub fn example_alternatives(&self, slot: usize) -> Result<Vec<crate::example::Example>> {
        let w = self.require_active()?;
        let population = self.examples(&w.mapping)?;
        Ok(w.illustration.alternatives_for(
            slot,
            &population,
            w.mapping.target.arity(),
            crate::illustration::SufficiencyScope::mapping(),
        ))
    }

    /// Swap illustration slot `slot` of the active workspace for the
    /// `alt`-th alternative from [`Session::example_alternatives`].
    pub fn swap_example(&mut self, slot: usize, alt: usize) -> Result<()> {
        let alternatives = self.example_alternatives(slot)?;
        let replacement = alternatives
            .get(alt)
            .ok_or_else(|| {
                Error::Invalid(format!(
                    "no alternative {alt} for slot {slot} ({} available)",
                    alternatives.len()
                ))
            })?
            .clone();
        let w = self.require_active()?;
        let population = self.examples(&w.mapping)?;
        let arity = w.mapping.target.arity();
        let ws = self.active_mut()?;
        let ok = ws.illustration.swap(
            slot,
            replacement,
            &population,
            arity,
            crate::illustration::SufficiencyScope::mapping(),
        );
        if ok {
            Ok(())
        } else {
            Err(Error::Invalid("swap would break sufficiency".into()))
        }
    }

    /// Run data-driven verification on the active mapping (see
    /// [`verify_mapping`](crate::verify::verify_mapping)), its data
    /// checks reading the result through the mapping's compiled form and
    /// the session cache. `target_keys` lists candidate keys of the
    /// target to check for merge conflicts; pass an empty slice to skip
    /// key checking.
    pub fn verify_active(
        &self,
        target_keys: &[Vec<String>],
    ) -> Result<Vec<crate::verify::Finding>> {
        let m = &self.require_active()?.mapping;
        crate::verify::verify_with(m, &self.db, &self.funcs, target_keys, || self.evaluate(m))
    }

    /// The WYSIWYG target view: the minimum union of all accepted
    /// mappings' query results plus the active mapping's (paper Sec 6.1:
    /// "the target view always shows the contents of the target as they
    /// would be under the \[active\] mapping"). Minimum-union semantics
    /// (Def 3.9): a tuple another mapping strictly extends is merged into
    /// the more complete one. Each mapping runs its compiled form, and
    /// its result is merged with the row hashes its projection computed
    /// ([`Table::extend_distinct`]); the merged table is a set, so the
    /// minimum union skips its duplicate pass.
    pub fn target_preview(&self) -> Result<Table> {
        let _span = clio_obs::span("session.preview");
        let mut out = Table::empty(clio_relational::schema::Scheme::of_relation(
            &self.target,
            self.target.name(),
        ));
        let active = self.active().map(|w| &w.mapping);
        for m in self.accepted.iter().chain(active) {
            out.extend_distinct(self.evaluate(m)?);
        }
        clio_relational::ops::remove_subsumed_partitioned(&mut out);
        Ok(out)
    }

    /// How many tuples each accepted mapping produces, and how many of
    /// them no other accepted mapping produces: read from the same
    /// compiled results, through the same cache, as
    /// [`Session::target_preview`] merges, before the merge.
    pub fn contributions(&self) -> Result<Vec<Contribution>> {
        let results: Vec<Table> = self
            .accepted
            .iter()
            .map(|m| self.evaluate(m))
            .collect::<Result<_>>()?;
        // a mapping's result rows are distinct, so a row's count is the
        // number of mappings that produce it
        let mut producers: HashMap<&[Value], usize> = HashMap::new();
        for row in results.iter().flat_map(Table::rows) {
            *producers.entry(row).or_default() += 1;
        }
        let elsewhere = |row: &[Value]| producers[row] - 1;
        Ok(results
            .iter()
            .enumerate()
            .map(|(i, t)| Contribution {
                mapping_index: i,
                produced: t.len(),
                exclusive: t.rows().iter().filter(|r| elsewhere(r) == 0).count(),
            })
            .collect())
    }
}

/// The columns in which `new` differs from `old` when rows may be
/// compared by position: both hold as many rows and neither holds a
/// near-duplicate. Otherwise `None`: the edit changed the relation as a
/// whole. Cells compare by variant and value, so an `Int` replaced by
/// the equal `Float` counts as changed.
fn changed_columns(old: &Relation, new: &Relation) -> Option<Vec<usize>> {
    if old.len() != new.len() || old.has_near_duplicates() || new.has_near_duplicates() {
        return None;
    }
    let mut changed = vec![false; old.schema().arity()];
    for (a, b) in old.rows().iter().zip(new.rows()) {
        for ((flag, x), y) in changed.iter_mut().zip(a).zip(b) {
            *flag |= std::mem::discriminant(x) != std::mem::discriminant(y) || x != y;
        }
    }
    Some((0..changed.len()).filter(|&c| changed[c]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_relational::constraints::ForeignKey;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::schema::Attribute;
    use clio_relational::value::DataType;

    /// Source database with the Figure-1 shape (trimmed) and FKs.
    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("name", DataType::Str)
                .attr("mid", DataType::Str)
                .attr("fid", DataType::Str)
                .row(vec![
                    "001".into(),
                    "Anna".into(),
                    "201".into(),
                    "202".into(),
                ])
                .row(vec![
                    "002".into(),
                    "Maya".into(),
                    "203".into(),
                    "204".into(),
                ])
                .row(vec!["004".into(), "Tom".into(), Value::Null, "201".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("Parents")
                .attr_not_null("ID", DataType::Str)
                .attr("affiliation", DataType::Str)
                .row(vec!["201".into(), "IBM".into()])
                .row(vec!["202".into(), "UofT".into()])
                .row(vec!["203".into(), "MIT".into()])
                .row(vec!["204".into(), "Almaden".into()])
                .row(vec!["205".into(), "Acme".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("PhoneDir")
                .attr_not_null("ID", DataType::Str)
                .attr("number", DataType::Str)
                .row(vec!["201".into(), "555-0101".into()])
                .row(vec!["202".into(), "555-0102".into()])
                .row(vec!["203".into(), "555-0103".into()])
                .row(vec!["204".into(), "555-0104".into()])
                .row(vec!["205".into(), "555-0105".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("SBPS")
                .attr("ID", DataType::Str)
                .attr("time", DataType::Str)
                .row(vec!["002".into(), "8:15".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.constraints.foreign_keys.extend([
            ForeignKey::simple("Children", "mid", "Parents", "ID"),
            ForeignKey::simple("Children", "fid", "Parents", "ID"),
            ForeignKey::simple("PhoneDir", "ID", "Parents", "ID"),
        ]);
        db
    }

    fn target() -> RelSchema {
        RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("name", DataType::Str),
                Attribute::new("affiliation", DataType::Str),
                Attribute::new("contactPh", DataType::Str),
                Attribute::new("BusSchedule", DataType::Str),
            ],
        )
        .unwrap()
    }

    fn session() -> Session {
        Session::new(db(), target())
    }

    #[test]
    fn first_correspondence_bootstraps_a_workspace() {
        let mut s = session();
        let ids = s.add_correspondence("Children.ID", "ID").unwrap();
        assert_eq!(ids.len(), 1);
        let w = s.active().unwrap();
        assert_eq!(w.mapping.graph.node_count(), 1);
        assert!(!w.illustration.is_empty());
        // WYSIWYG target shows all three children
        assert_eq!(s.target_preview().unwrap().len(), 3);
    }

    #[test]
    fn affiliation_correspondence_triggers_walk_with_two_scenarios() {
        // the Figure 3 flow: mapping Children; adding Parents.affiliation
        // yields the mid- and fid-scenarios as alternative workspaces
        let mut s = session();
        s.add_correspondence("Children.ID", "ID").unwrap();
        s.add_correspondence("Children.name", "name").unwrap();
        let ids = s
            .add_correspondence("Parents.affiliation", "affiliation")
            .unwrap();
        assert_eq!(ids.len(), 2);
        // both alternatives carry the new correspondence and the old ones
        for id in &ids {
            let w = s.workspaces().iter().find(|w| w.id == *id).unwrap();
            assert!(w.mapping.correspondence_for("affiliation").is_some());
            assert!(w.mapping.correspondence_for("ID").is_some());
        }
        // the two scenarios differ in the join predicate
        let preds: Vec<String> = ids
            .iter()
            .map(|id| {
                let w = s.workspaces().iter().find(|w| w.id == *id).unwrap();
                w.mapping.graph.edges()[0].predicate.to_string()
            })
            .collect();
        assert!(preds.contains(&"Children.mid = Parents.ID".to_owned()));
        assert!(preds.contains(&"Children.fid = Parents.ID".to_owned()));
        // user picks the fid scenario (Scenario 1 of the paper)
        let fid = ids
            .iter()
            .find(|id| {
                let w = s.workspaces().iter().find(|w| w.id == **id).unwrap();
                w.mapping.graph.edges()[0].predicate.to_string() == "Children.fid = Parents.ID"
            })
            .copied()
            .unwrap();
        s.confirm(fid).unwrap();
        assert_eq!(s.workspaces().len(), 1);
        assert_eq!(s.active().unwrap().id, fid);
    }

    #[test]
    fn explicit_data_walk_creates_ranked_alternatives() {
        let mut s = session();
        s.add_correspondence("Children.ID", "ID").unwrap();
        s.add_correspondence("Parents.affiliation", "affiliation")
            .unwrap();
        let picked = s.workspaces()[0].id;
        s.confirm(picked).unwrap();
        // Figure 4: find phone numbers — several scenarios, some via a
        // Parents copy
        let ids = s.data_walk(None, "PhoneDir").unwrap();
        assert!(ids.len() >= 2);
        let has_copy = ids.iter().any(|id| {
            let w = s.workspaces().iter().find(|w| w.id == *id).unwrap();
            w.mapping.graph.node_by_alias("Parents2").is_some()
        });
        assert!(has_copy, "expected an alternative introducing Parents2");
        // active is the best-ranked (shortest path)
        assert_eq!(s.active().unwrap().id, ids[0]);
    }

    #[test]
    fn data_chase_discovers_sbps() {
        let mut s = session();
        s.add_correspondence("Children.ID", "ID").unwrap();
        // chase Maya's ID: SBPS is not linked by any foreign key
        let ids = s.data_chase("Children", "ID", &Value::str("002")).unwrap();
        assert_eq!(ids.len(), 1);
        let w = s.active().unwrap();
        assert!(w.mapping.graph.node_by_alias("SBPS").is_some());
        // the chase taught the knowledge base
        assert_eq!(s.knowledge.specs_between("Children", "SBPS").len(), 1);
        // now a walk to SBPS would also work from scratch
        s.add_correspondence("SBPS.time", "BusSchedule").unwrap();
        let preview = s.target_preview().unwrap();
        let maya = preview
            .rows()
            .iter()
            .find(|r| r[0] == Value::str("002"))
            .unwrap();
        assert_eq!(maya[4], Value::str("8:15"));
    }

    #[test]
    fn example_6_1_accepting_two_complementary_mappings() {
        let mut s = session();
        s.add_correspondence("Children.ID", "ID").unwrap();
        let ids = s
            .add_correspondence("Parents.affiliation", "affiliation")
            .unwrap();
        // scenario joined via mid
        let mid = ids
            .iter()
            .find(|id| {
                let w = s.workspaces().iter().find(|w| w.id == **id).unwrap();
                w.mapping.graph.edges()[0].predicate.to_string() == "Children.mid = Parents.ID"
            })
            .copied()
            .unwrap();
        s.confirm(mid).unwrap();
        // mapping 1: children with mothers
        s.add_source_filter("Children.mid IS NOT NULL").unwrap();
        s.accept_active().unwrap();
        // mapping 2: motherless children, father's affiliation — emulate
        // by flipping the filter and the join via a fresh session flow:
        // simplest here: change filters on the active workspace
        let w = s.active().unwrap().clone();
        let mut m2 = w.mapping.clone();
        m2.source_filters.clear();
        m2 = m2.with_source_filter(parse_expr("Children.mid IS NULL").unwrap());
        // replace the mid edge with fid
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(c, p, parse_expr("Children.fid = Parents.ID").unwrap())
            .unwrap();
        m2.graph = g;
        let ws = s.active_mut().unwrap();
        ws.mapping = m2;
        s.accept_active().unwrap();
        assert_eq!(s.accepted().len(), 2);
        // the union covers all children exactly once each
        let preview = s.target_preview().unwrap();
        let toms: Vec<_> = preview
            .rows()
            .iter()
            .filter(|r| r[0] == Value::str("004"))
            .collect();
        assert_eq!(toms.len(), 1);
        assert_eq!(toms[0][2], Value::str("IBM")); // father's affiliation
    }

    #[test]
    fn confirm_and_delete_manage_alternatives() {
        let mut s = session();
        s.add_correspondence("Children.ID", "ID").unwrap();
        let ids = s
            .add_correspondence("Parents.affiliation", "affiliation")
            .unwrap();
        assert_eq!(s.workspaces().len(), 2);
        s.delete(ids[1]).unwrap();
        assert_eq!(s.workspaces().len(), 1);
        assert!(s.active().is_some());
        assert!(s.delete(999).is_err());
    }

    #[test]
    fn add_correspondence_errors() {
        let mut s = session();
        // multi-relation first correspondence
        assert!(s
            .add_correspondence("Children.ID || Parents.ID", "ID")
            .is_err());
        // unknown target attribute
        assert!(s.add_correspondence("Children.ID", "Nope").is_err());
        s.add_correspondence("Children.ID", "ID").unwrap();
        // two missing relations at once
        assert!(s
            .add_correspondence("Parents.affiliation || PhoneDir.number", "contactPh")
            .is_err());
    }

    #[test]
    fn walk_without_active_workspace_errors() {
        let mut s = session();
        assert!(s.data_walk(None, "PhoneDir").is_err());
        assert!(s.data_chase("Children", "ID", &Value::str("002")).is_err());
        assert!(s.accept_active().is_err());
    }

    #[test]
    fn custom_functions_flow_through_sessions() {
        use clio_relational::funcs::Arity;
        use std::sync::Arc;
        let mut s = session();
        s.funcs_mut().register(
            "mask_id",
            Arity::Exact(1),
            Arc::new(|args: &[Value]| {
                Ok(match &args[0] {
                    Value::Str(v) => Value::str(format!("kid-{v}")),
                    other => other.clone(),
                })
            }),
        );
        s.add_correspondence("mask_id(Children.ID)", "ID").unwrap();
        let preview = s.target_preview().unwrap();
        assert!(preview.rows().iter().any(|r| r[0] == Value::str("kid-002")));
    }

    #[test]
    fn unregistered_function_fails_loudly() {
        let mut s = session();
        assert!(s
            .add_correspondence("no_such_fn(Children.ID)", "ID")
            .is_err());
        assert!(s.active().is_none());
    }

    #[test]
    fn data_walk_with_explicit_start() {
        let mut s = session();
        s.add_correspondence("Children.ID", "ID").unwrap();
        let ids = s
            .add_correspondence("Parents.affiliation", "affiliation")
            .unwrap();
        s.confirm(ids[0]).unwrap();
        // explicit start narrows the search to walks beginning at Parents
        let ids = s.data_walk(Some("Parents"), "PhoneDir").unwrap();
        assert!(!ids.is_empty());
        for id in ids {
            let w = s.workspaces().iter().find(|w| w.id == id).unwrap();
            assert!(w.mapping.graph.node_by_alias("PhoneDir").is_some());
        }
        // unknown start errors
        assert!(s.data_walk(Some("Nope"), "SBPS").is_err());
    }

    #[test]
    fn replace_relation_invalidates_and_evolves() {
        let mut s = session();
        s.add_correspondence("Children.ID", "ID").unwrap();
        s.add_correspondence("Children.name", "name").unwrap();
        let before = s.target_preview().unwrap();
        assert_eq!(before.len(), 3);
        assert!(s.cache().stats().entries > 0, "preview should populate");
        // content edit: a fourth child appears
        let mut rel = s.database().relation("Children").unwrap().clone();
        rel.insert(vec!["005".into(), "Zoe".into(), "205".into(), Value::Null])
            .unwrap();
        s.replace_relation(rel).unwrap();
        assert!(s.cache().stats().invalidations > 0);
        let after = s.target_preview().unwrap();
        assert_eq!(after.len(), 4);
        assert!(after.rows().iter().any(|r| r[0] == Value::str("005")));
        // the illustration was refreshed over the new data
        let ill = &s.active().unwrap().illustration;
        assert!(!ill.is_empty());
    }

    /// The `fd.lattice` spans each data edit and the preview after it
    /// record, on a session over [`cyclic_mapping`] whose cache holds
    /// half its working set (the cycle-edit benchmark's setting). First
    /// `setup` rows are inserted, one relation at a time; then each of
    /// `edits` sets `column` of row `round` of `relation` to `value`
    /// followed by `round`, in rounds 0 and 1. Every preview must equal
    /// a cache-off session's, and the cache must stay within budget.
    fn lattices_per_edit(
        setup: &[(&str, Vec<Value>)],
        edits: &[(&str, usize, &str)],
    ) -> Vec<usize> {
        let mut cached = session();
        let mut plain = session();
        plain.set_cache_enabled(false);
        for s in [&mut cached, &mut plain] {
            s.adopt_mapping(cyclic_mapping(), "cyclic").unwrap();
            for (name, row) in setup {
                let mut rel = s.database().relation(name).unwrap().clone();
                rel.insert(row.clone()).unwrap();
                s.replace_relation(rel).unwrap();
            }
        }
        cached.target_preview().unwrap();
        let budget = cached.cache().stats().bytes / 2;
        cached.cache().set_capacity(budget);
        let mut lattices = Vec::new();
        for round in 0..2 {
            for &(name, column, value) in edits {
                let value = format!("{value}{round}");
                let edited = |s: &Session| {
                    let rel = s.database().relation(name).unwrap();
                    let mut rows = rel.rows().to_vec();
                    rows[round][column] = Value::str(value.as_str());
                    Relation::with_rows(rel.schema().clone(), rows).unwrap()
                };
                let rel = edited(&cached);
                let rec = clio_obs::Recorder::new();
                let preview = rec.run(|| {
                    cached.replace_relation(rel).unwrap();
                    cached.target_preview().unwrap()
                });
                let spans = rec.spans();
                lattices.push(spans.iter().filter(|s| s.name == "fd.lattice").count());
                plain.replace_relation(edited(&plain)).unwrap();
                assert_eq!(preview, plain.target_preview().unwrap(), "{name} {round}");
            }
        }
        assert!(cached.cache().stats().bytes <= budget);
        lattices
    }

    /// A payload edit keeps every `F(J)` and the `D(G)` memo: their keys
    /// read only the join columns, so the examples pass and the preview
    /// are both served the memo and no edit runs the lattice.
    #[test]
    fn a_payload_edit_runs_no_lattice_at_half_budget() {
        let payload = [
            ("Children", 1, "Ana"),
            ("Parents", 1, "CMU"),
            ("PhoneDir", 1, "555-0199"),
        ];
        assert_eq!(lattices_per_edit(&[], &payload), [0; 6]);
    }

    /// A join-column edit moves the keys of the `F(J)`s that read it and
    /// of the `D(G)` memo: the examples pass runs the lattice once, and
    /// the preview is served the memo it stored.
    #[test]
    fn a_join_column_edit_runs_one_lattice_at_half_budget() {
        let joins = [("Children", 2, "20"), ("PhoneDir", 0, "20")];
        assert_eq!(lattices_per_edit(&[], &joins), [1; 4]);
    }

    /// While a relation holds a near-duplicate, the residual pass reads
    /// every cell of its tuples, so a payload edit to it is an edit of
    /// the whole relation: the lattice runs once.
    #[test]
    fn a_payload_edit_to_a_relation_holding_a_near_duplicate_runs_one_lattice() {
        let near_duplicate = ("Parents", vec!["203".into(), Value::Null]);
        let payload = [("Parents", 1, "CMU")];
        assert_eq!(lattices_per_edit(&[near_duplicate], &payload), [1; 2]);
    }

    /// The cyclic `Children`–`Parents`–`PhoneDir` mapping.
    fn cyclic_mapping() -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        let ph = g.add_node(Node::new("PhoneDir")).unwrap();
        for (a, b, pred) in [
            (c, p, "Children.mid = Parents.ID"),
            (p, ph, "PhoneDir.ID = Parents.ID"),
            (c, ph, "Children.mid = PhoneDir.ID"),
        ] {
            g.add_edge(a, b, parse_expr(pred).unwrap()).unwrap();
        }
        Mapping::new(g, target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity("Children.name", "name"))
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ))
            .with_correspondence(ValueCorrespondence::identity(
                "PhoneDir.number",
                "contactPh",
            ))
    }

    /// A data edit reruns the compiled mappings: six pairs of
    /// `replace_relation` and `target_preview` at half budget, each under
    /// its own recorder, compile nothing (no `plan.build` span,
    /// `plan.built` 0), and every preview equals a cache-off session's.
    #[test]
    fn an_edit_compiles_nothing() {
        let mut cached = session();
        let mut plain = session();
        plain.set_cache_enabled(false);
        for s in [&mut cached, &mut plain] {
            s.adopt_mapping(cyclic_mapping(), "cyclic").unwrap();
            s.target_preview().unwrap();
        }
        let working_set = cached.cache().stats().bytes;
        cached.cache().set_capacity(working_set / 2);
        let edits = [
            ("Children", "Ana"),
            ("Parents", "CMU"),
            ("PhoneDir", "555-0199"),
        ];
        for round in 0..2 {
            for &(name, value) in &edits {
                let value = format!("{value}{round}");
                let edited = |s: &Session| {
                    let rel = s.database().relation(name).unwrap();
                    let mut rows = rel.rows().to_vec();
                    rows[round][1] = Value::str(value.as_str());
                    clio_relational::relation::Relation::with_rows(rel.schema().clone(), rows)
                        .unwrap()
                };
                let rel = edited(&cached);
                let rec = clio_obs::Recorder::new();
                let preview = rec.run(|| {
                    cached.replace_relation(rel).unwrap();
                    cached.target_preview().unwrap()
                });
                let at = format!("edit of {name} in round {round}");
                assert_eq!(rec.snapshot().get(clio_obs::Counter::PlanBuilt), 0, "{at}");
                assert!(rec.spans().iter().all(|s| s.name != "plan.build"), "{at}");
                plain.replace_relation(edited(&plain)).unwrap();
                assert_eq!(preview, plain.target_preview().unwrap(), "{at}");
            }
        }
    }

    /// The session spans sit where `docs/observability.md` puts them: an
    /// edit's evolution under `session.replace_relation`, and the
    /// projection loop under `mapping.evaluate` under `session.preview`.
    #[test]
    fn session_spans_hold_the_engine_spans() {
        let mut s = session();
        s.adopt_mapping(cyclic_mapping(), "cyclic").unwrap();
        s.set_cache_enabled(false);
        let mut rel = s.database().relation("Children").unwrap().clone();
        rel.insert(vec!["005".into(), "Zoe".into(), "205".into(), Value::Null])
            .unwrap();
        let rec = clio_obs::Recorder::new();
        rec.run(|| {
            s.replace_relation(rel).unwrap();
            s.target_preview().unwrap();
        });
        let spans = rec.spans();
        let parent = |name: &str| -> Vec<&str> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| {
                    let p = s.parent.expect("a nested span");
                    spans.iter().find(|q| q.id == p).expect("its parent").name
                })
                .collect()
        };
        assert_eq!(parent("evolution.evolve"), ["session.replace_relation"]);
        assert_eq!(parent("mapping.examples"), ["evolution.evolve"]);
        assert_eq!(parent("mapping.evaluate"), ["session.preview"]);
        assert_eq!(parent("plan.project"), ["mapping.evaluate"]);
        for top in ["session.replace_relation", "session.preview"] {
            assert!(spans.iter().any(|s| s.name == top && s.parent.is_none()));
        }
    }

    /// An edit whose evolution fails changes nothing: the relation, the
    /// index and the illustration stay, and later previews are the
    /// pre-edit ones, with the cache on and off.
    #[test]
    fn a_failed_edit_leaves_the_session_as_it_was() {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("R")
                .attr("a", DataType::Int)
                .attr("b", DataType::Int)
                .row(vec![6i64.into(), 3i64.into()])
                .row(vec![8i64.into(), 2i64.into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        let target = RelSchema::new("T", vec![Attribute::new("q", DataType::Int)]).unwrap();
        for cache in [true, false] {
            let mut s = Session::new(db.clone(), target.clone());
            s.set_cache_enabled(cache);
            s.add_correspondence("R.a / R.b", "q").unwrap();
            let preview = s.target_preview().unwrap();
            let illustration = s.active().unwrap().illustration.clone();
            let before = s.database().relation("R").unwrap().clone();
            let mut rows = before.rows().to_vec();
            rows[1][1] = 0i64.into();
            let zero =
                clio_relational::relation::Relation::with_rows(before.schema().clone(), rows)
                    .unwrap();
            let err = s.replace_relation(zero).unwrap_err();
            assert!(matches!(err, Error::DivisionByZero), "{err:?}");
            assert_eq!(s.database().relation("R").unwrap(), &before);
            assert!(s.index.is_some(), "the index of the kept data stays");
            assert_eq!(s.active().unwrap().illustration, illustration);
            assert_eq!(s.target_preview().unwrap(), preview, "cache {cache}");
        }
    }

    #[test]
    fn chases_after_an_edit_see_the_edited_data() {
        let mut s = session();
        s.add_correspondence("Children.ID", "ID").unwrap();
        // before the edit `001` occurs only in Children, which the
        // mapping already references
        assert!(s.data_chase("Children", "ID", &Value::str("001")).is_err());
        // the edit moves SBPS's one row from `002` to `001`
        let sbps = RelationBuilder::new("SBPS")
            .attr("ID", DataType::Str)
            .attr("time", DataType::Str)
            .row(vec!["001".into(), "8:15".into()])
            .build()
            .unwrap();
        s.replace_relation(sbps).unwrap();
        assert!(s.index.is_none(), "the edit drops the index");
        // the removed value's SBPS site is gone...
        assert!(s.data_chase("Children", "ID", &Value::str("002")).is_err());
        assert!(s.index.is_some(), "the chase built the index");
        // ...and the introduced value's is found
        let ids = s.data_chase("Children", "ID", &Value::str("001")).unwrap();
        assert_eq!(ids.len(), 1);
        let w = s.active().unwrap();
        assert!(w.mapping.graph.node_by_alias("SBPS").is_some());
    }

    #[test]
    fn replace_relation_rejects_schema_changes_and_unknown_relations() {
        let mut s = session();
        let bad = RelationBuilder::new("Children")
            .attr("other", DataType::Str)
            .build()
            .unwrap();
        assert!(s.replace_relation(bad).is_err());
        let unknown = RelationBuilder::new("Nope")
            .attr("x", DataType::Str)
            .build()
            .unwrap();
        assert!(s.replace_relation(unknown).is_err());
    }

    #[test]
    fn shared_sessions_copy_on_write_isolates_edits() {
        let snapshot = Arc::new(db());
        let mut a = Session::shared(Arc::clone(&snapshot), target());
        let mut b = Session::shared(Arc::clone(&snapshot), target());
        // Spawning from one snapshot does not copy the database.
        assert!(Arc::ptr_eq(&a.shared_database(), &snapshot));
        assert!(Arc::ptr_eq(&b.shared_database(), &snapshot));
        a.add_correspondence("Children.ID", "ID").unwrap();
        b.add_correspondence("Children.ID", "ID").unwrap();
        // Session `a` edits Children; `b` and the snapshot must not see it.
        let mut rel = a.database().relation("Children").unwrap().clone();
        rel.insert(vec!["005".into(), "Zoe".into(), "205".into(), Value::Null])
            .unwrap();
        a.replace_relation(rel).unwrap();
        assert!(
            !Arc::ptr_eq(&a.shared_database(), &snapshot),
            "the edit must have materialized a private copy"
        );
        assert!(Arc::ptr_eq(&b.shared_database(), &snapshot));
        assert_eq!(a.database().relation("Children").unwrap().len(), 4);
        assert_eq!(b.database().relation("Children").unwrap().len(), 3);
        assert_eq!(snapshot.relation("Children").unwrap().len(), 3);
        assert_eq!(a.target_preview().unwrap().len(), 4);
        assert_eq!(b.target_preview().unwrap().len(), 3);
    }

    #[test]
    fn uniquely_owned_session_edits_without_copying() {
        let mut s = session();
        let before = Arc::as_ptr(&s.shared_database());
        let mut rel = s.database().relation("Parents").unwrap().clone();
        rel.insert(vec!["206".into(), "Initech".into()]).unwrap();
        s.replace_relation(rel).unwrap();
        assert_eq!(
            Arc::as_ptr(&s.shared_database()),
            before,
            "an unshared snapshot should be edited in place"
        );
    }

    #[test]
    fn cache_toggle_keeps_session_state_byte_identical() {
        let run = |cached: bool| {
            let mut s = session();
            s.set_cache_enabled(cached);
            s.add_correspondence("Children.ID", "ID").unwrap();
            let ids = s
                .add_correspondence("Parents.affiliation", "affiliation")
                .unwrap();
            s.confirm(ids[0]).unwrap();
            s.add_source_filter("Children.mid IS NOT NULL").unwrap();
            let preview1 = s.target_preview().unwrap();
            let preview2 = s.target_preview().unwrap();
            let ill = s.active().unwrap().illustration.clone();
            (preview1, preview2, ill)
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.0.scheme(), off.0.scheme());
        assert_eq!(on.0.rows(), off.0.rows());
        assert_eq!(on.1.rows(), off.1.rows());
        assert_eq!(on.2, off.2);
    }

    #[test]
    fn funcs_mut_bumps_the_cache_epoch() {
        let mut s = session();
        s.add_correspondence("Children.ID", "ID").unwrap();
        s.target_preview().unwrap();
        let epoch = s.cache().epoch();
        let _ = s.funcs_mut();
        assert_eq!(s.cache().epoch(), epoch + 1);
        assert_eq!(s.cache().stats().entries, 0);
    }

    #[test]
    fn illustrations_stay_synchronized() {
        let mut s = session();
        s.add_correspondence("Children.ID", "ID").unwrap();
        let before = s.active().unwrap().illustration.clone();
        s.add_source_filter("Children.name IS NOT NULL").unwrap();
        let after = &s.active().unwrap().illustration;
        // the mapping changed, the illustration was refreshed (it may or
        // may not differ in content, but it must reflect the new mapping:
        // all examples carry polarity consistent with the filter)
        for e in &after.examples {
            let name_null = e.association[1].is_null();
            if name_null {
                assert!(!e.positive);
            }
        }
        let _ = before;
    }

    /// The two-relation source of the Example 6.1 phone tests: Tom (004)
    /// has no mother.
    fn phone_db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("mid", DataType::Str)
                .attr("fid", DataType::Str)
                .row(vec!["001".into(), "201".into(), "202".into()])
                .row(vec!["004".into(), Value::Null, "202".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("PhoneDir")
                .attr_not_null("ID", DataType::Str)
                .attr("number", DataType::Str)
                .row(vec!["201".into(), "555-1".into()])
                .row(vec!["202".into(), "555-2".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn phone_target() -> RelSchema {
        RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("contactPh", DataType::Str),
            ],
        )
        .unwrap()
    }

    /// The phone of the parent `Children.{via}` names, kept where
    /// `filter` holds.
    fn phone_mapping(via: &str, filter: &str) -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let d = g.add_node(Node::new("PhoneDir")).unwrap();
        g.add_edge(
            c,
            d,
            parse_expr(&format!("Children.{via} = PhoneDir.ID")).unwrap(),
        )
        .unwrap();
        Mapping::new(g, phone_target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity(
                "PhoneDir.number",
                "contactPh",
            ))
            .with_source_filter(parse_expr(filter).unwrap())
            .with_target_not_null_filters()
    }

    /// Phone via the mother (loses Tom), as in Example 6.1.
    fn mother_mapping() -> Mapping {
        phone_mapping("mid", "Children.mid IS NOT NULL")
    }

    /// Father's phone when there is no mother.
    fn father_mapping() -> Mapping {
        phone_mapping("fid", "Children.mid IS NULL")
    }

    /// IDs only (no phones): a partial contributor the merge absorbs.
    fn ids_mapping() -> Mapping {
        let mut g = QueryGraph::new();
        g.add_node(Node::new("Children")).unwrap();
        Mapping::new(g, phone_target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_target_not_null_filters()
    }

    /// A session over [`phone_db`] that adopted and accepted `mappings`
    /// in order; the last stays active.
    fn accepting(mappings: &[Mapping]) -> Session {
        let mut s = Session::new(phone_db(), phone_target());
        for m in mappings {
            s.adopt_mapping(m.clone(), "adopted").unwrap();
            s.accept_active().unwrap();
        }
        s
    }

    #[test]
    fn adopting_checks_the_target() {
        let mut s = accepting(&[mother_mapping()]);
        let other = RelSchema::new("Other", vec![Attribute::new("x", DataType::Int)]).unwrap();
        let mut g = QueryGraph::new();
        g.add_node(Node::new("Children")).unwrap();
        assert!(s.adopt_mapping(Mapping::new(g, other), "other").is_err());
    }

    #[test]
    fn example_6_1_preview_covers_all_children() {
        let s = accepting(&[mother_mapping(), father_mapping()]);
        let out = s.target_preview().unwrap();
        assert_eq!(out.len(), 2);
        let tom = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::str("004"))
            .unwrap();
        assert_eq!(tom[1], Value::str("555-2")); // father's phone
    }

    #[test]
    fn the_preview_merges_partial_tuples() {
        // (001, null), (004, null) and (001, 555-1)
        let s = accepting(&[ids_mapping(), mother_mapping()]);
        let merged = s.target_preview().unwrap();
        assert_eq!(merged.len(), 2); // (001,null) merged into (001,555-1)
        let anna = merged
            .rows()
            .iter()
            .find(|r| r[0] == Value::str("001"))
            .unwrap();
        assert_eq!(anna[1], Value::str("555-1"));
    }

    #[test]
    fn contributions_report_exclusive_tuples() {
        let s = accepting(&[mother_mapping(), father_mapping(), ids_mapping()]);
        let contribs = s.contributions().unwrap();
        assert_eq!(contribs.len(), 3);
        // mother mapping: (001, 555-1) — exclusive
        assert_eq!(contribs[0].produced, 1);
        assert_eq!(contribs[0].exclusive, 1);
        // ids mapping produces (001,null),(004,null) — both exclusive as
        // exact tuples (other mappings emit non-null phones)
        assert_eq!(contribs[2].produced, 2);
        assert_eq!(contribs[2].exclusive, 2);
    }

    /// A tuple two accepted mappings both produce is exclusive to neither.
    #[test]
    fn a_tuple_two_mappings_produce_is_exclusive_to_neither() {
        let s = accepting(&[ids_mapping(), mother_mapping(), ids_mapping()]);
        let counts: Vec<(usize, usize)> = s
            .contributions()
            .unwrap()
            .iter()
            .map(|c| (c.produced, c.exclusive))
            .collect();
        assert_eq!(counts, [(2, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn a_session_without_mappings_previews_nothing() {
        let s = accepting(&[]);
        assert!(s.target_preview().unwrap().is_empty());
        assert!(s.contributions().unwrap().is_empty());
    }

    /// `contributions` right after the preview reads the results the
    /// preview memoized: no join runs and nothing compiles. The counts
    /// equal a cache-off session's.
    #[test]
    fn contributions_after_the_preview_join_nothing() {
        let mappings = [mother_mapping(), father_mapping(), ids_mapping()];
        let mut counts = Vec::new();
        for cache in [true, false] {
            let mut s = accepting(&mappings);
            s.set_cache_enabled(cache);
            s.target_preview().unwrap();
            let rec = clio_obs::Recorder::new();
            let contribs = rec.run(|| s.contributions().unwrap());
            let snapshot = rec.snapshot();
            assert_eq!(
                snapshot.get(clio_obs::Counter::PlanBuilt),
                0,
                "cache {cache}"
            );
            if cache {
                assert_eq!(snapshot.get(clio_obs::Counter::JoinProbes), 0);
                assert_eq!(snapshot.get(clio_obs::Counter::CacheHits), 3);
            }
            counts.push(contribs);
        }
        assert_eq!(counts[0], counts[1]);
    }

    /// `verify` right after the preview reads the active mapping's
    /// result through its compiled form from the cache the preview
    /// filled: nothing compiles and nothing joins, and the findings are
    /// `verify_mapping`'s.
    #[test]
    fn verify_after_the_preview_compiles_and_joins_nothing() {
        let mut s = accepting(&[ids_mapping()]);
        s.adopt_mapping(mother_mapping(), "active").unwrap();
        s.target_preview().unwrap();
        let keys = vec![vec!["contactPh".to_owned()]];
        let rec = clio_obs::Recorder::new();
        let findings = rec.run(|| s.verify_active(&keys).unwrap());
        let snapshot = rec.snapshot();
        assert_eq!(snapshot.get(clio_obs::Counter::PlanBuilt), 0);
        assert_eq!(snapshot.get(clio_obs::Counter::JoinProbes), 0);
        let direct =
            crate::verify::verify_mapping(&mother_mapping(), s.database(), s.funcs(), &keys)
                .unwrap();
        assert_eq!(findings, direct);
    }

    /// Mappings over one graph keep forms of their own: the filtered
    /// mapping's examples and tuples are its own, not those of the
    /// unfiltered mapping accepted before it.
    #[test]
    fn mappings_over_one_graph_keep_their_own_forms() {
        let mut s = accepting(&[ids_mapping()]);
        s.add_source_filter("Children.mid IS NOT NULL").unwrap();
        // Tom (004) has no mother
        let examples = s.examples_active().unwrap();
        let tom = examples
            .iter()
            .find(|e| e.association[0] == Value::str("004"))
            .unwrap();
        assert!(!tom.positive);
        s.accept_active().unwrap();
        let counts: Vec<(usize, usize)> = s
            .contributions()
            .unwrap()
            .iter()
            .map(|c| (c.produced, c.exclusive))
            .collect();
        assert_eq!(counts, [(2, 1), (1, 0)]);
    }

    /// Two workspaces holding equal mappings share one compiled form, and
    /// so does the mapping accepted from either.
    #[test]
    fn one_mapping_adopted_twice_compiles_once() {
        let mut s = session();
        let rec = clio_obs::Recorder::new();
        rec.run(|| {
            s.adopt_mapping(cyclic_mapping(), "first").unwrap();
            s.adopt_mapping(cyclic_mapping(), "second").unwrap();
            s.accept_active().unwrap();
            s.target_preview().unwrap();
            s.contributions().unwrap();
        });
        assert_eq!(s.workspaces().len(), 2);
        assert_eq!(rec.snapshot().get(clio_obs::Counter::PlanBuilt), 1);
    }
}
