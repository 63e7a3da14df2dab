//! `bulk-eval`: the WYSIWYG refresh over a large source. A seeded chain
//! of 4 relations × 1000 rows is saved as a paged database outside the
//! clock; each set-up opens it with a pool smaller than its heap. A
//! 2-relation prefix mapping is accepted and the full chain mapping is
//! active; with the cache off, one op (`Session::target_preview`) runs
//! two `Q(M)` evaluations, the merge `push_distinct` and subsumption
//! removal.

use std::path::PathBuf;
use std::time::Instant;

use clio_core::mapping::Mapping;
use clio_core::query_graph::{Node, QueryGraph};
use clio_core::session::Session;
use clio_core::session_pool::SessionPool;
use clio_datagen::synthetic::{generate, Synthetic, SyntheticSpec, Topology};
use clio_relational::constraints::ForeignKey;
use clio_relational::expr::Expr;
use clio_relational::funcs::FuncRegistry;
use clio_relational::schema::RelSchema;
use clio_relational::storage::open_paged;

use crate::layers::{self, Extra};
use crate::trace::Tracer;
use crate::{runs_dir, Samples, Workload};

pub const SETUPS: usize = 11;
const RELATIONS: usize = 4;
const ROWS: usize = 1000;
const PREFIX: usize = 2;
const WARMUP_OPS: usize = 2;

/// Inputs made from the seed, outside every clock. The in-memory source
/// is dropped once saved: set-ups read the paged copy.
pub struct Prep {
    target: RelSchema,
    mapping: Mapping,
    prefix: Mapping,
    dir: PathBuf,
    pool_pages: usize,
    want_rows: usize,
    want_digest: u64,
}

/// The first `prefix` relations of a chain workload as their own mapping
/// (the accepted mapping the full chain later extends).
fn chain_prefix(w: &Synthetic, prefix: usize) -> Mapping {
    let mut g = QueryGraph::new();
    for i in 0..prefix {
        g.add_node(Node::new(format!("R{i}"))).expect("fresh alias");
    }
    for i in 1..prefix {
        let pred = Expr::col_eq(&format!("R{i}.l{}", i - 1), &format!("R{}.id", i - 1));
        g.add_edge(i - 1, i, pred).expect("valid chain edge");
    }
    let mut m = w.mapping.clone();
    m.graph = g;
    let keep: Vec<String> = (0..prefix).map(|i| format!("R{i}")).collect();
    m.correspondences.retain(|c| {
        c.source_qualifiers()
            .iter()
            .all(|q| keep.iter().any(|k| k == q))
    });
    m
}

impl Prep {
    pub fn new(seed: u64) -> Prep {
        let w = generate(&SyntheticSpec {
            topology: Topology::Chain,
            relations: RELATIONS,
            rows: ROWS,
            match_rate: 0.7,
            payload_attrs: 1,
            seed,
        });
        let prefix = chain_prefix(&w, PREFIX);
        let dir = runs_dir().join(format!("bulk-eval-{}", std::process::id()));
        let pool_pages = layers::save_paged(&w.db, &dir);
        let want = layers::cache_off_preview(&w.db, &[&prefix, &w.mapping], &w.target);
        Prep {
            want_rows: want.len(),
            want_digest: layers::digest(&want),
            target: w.target,
            mapping: w.mapping,
            prefix,
            dir,
            pool_pages,
        }
    }
}

impl Drop for Prep {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub struct Bulk<'a> {
    prep: &'a Prep,
    session: Session,
    funcs: FuncRegistry,
}

impl<'a> Bulk<'a> {
    pub fn setup(prep: &'a Prep) -> Bulk<'a> {
        let db = open_paged(&prep.dir, prep.pool_pages).expect("open the paged source");
        let mut session = Session::new(db, prep.target.clone());
        session.set_cache_enabled(false);
        session
            .adopt_mapping(prep.prefix.clone(), "prefix")
            .expect("valid prefix mapping");
        session.accept_active().expect("accept the prefix");
        session
            .adopt_mapping(prep.mapping.clone(), "chain")
            .expect("valid chain mapping");
        for _ in 0..WARMUP_OPS {
            std::hint::black_box(session.target_preview().expect("preview"));
        }
        Bulk {
            prep,
            session,
            funcs: FuncRegistry::with_builtins(),
        }
    }

    fn check(&self, rows: usize, digest: u64) -> bool {
        rows == self.prep.want_rows && digest == self.prep.want_digest
    }
}

impl Workload for Bulk<'_> {
    fn describe(&self) -> String {
        format!(
            "input=chain{RELATIONS}x{ROWS}(seeded) mappings=prefix{PREFIX}+chain{RELATIONS} \
             cache=off preview_rows={} paged_pool_pages={} page_size={}",
            self.prep.want_rows,
            self.prep.pool_pages,
            layers::PAGE_SIZE
        )
    }

    fn unit(&mut self, s: &mut Samples) {
        let t = Instant::now();
        let out = self.session.target_preview();
        let latency = t.elapsed();
        s.busy += latency;
        let ok = out.is_ok_and(|t| self.check(t.len(), layers::digest(&t)));
        s.record(latency, ok);
    }

    fn traced_unit(&mut self, s: &mut Samples, tr: &Tracer, op: &mut u64) {
        *op += 1;
        let session = &self.session;
        let active = &session.active().expect("active chain mapping").mapping;
        let mappings = [&session.accepted()[0], active];
        let t = Instant::now();
        let out = tr.span(*op, 0, "core.preview", |p| {
            layers::replay_preview(
                session.database(),
                &mappings,
                session.target_schema(),
                &self.funcs,
                None,
                tr,
                *op,
                p,
            )
        });
        let latency = t.elapsed();
        s.busy += latency;
        let ok = self.check(out.len(), layers::digest(&out));
        s.record(latency, ok);
    }

    fn layers(&mut self, tr: &Tracer, op: &mut u64) -> Extra {
        let mut extra = Extra::default();
        layers::probe_pager(&self.prep.dir, self.prep.pool_pages, 15, tr, op, &mut extra);
        extra.set(
            "incr.store_hits_per_pass",
            0.0,
            "no store on this workload".into(),
        );
        extra.set("incr.hit_ratio", 0.0, "cache off on this workload".into());
        extra.set(
            "incr.evictions_per_op",
            0.0,
            "cache off on this workload".into(),
        );
        let s = &self.session;
        let active = s.active().expect("active chain mapping");
        layers::probe_index(s.database(), 15, tr, op);
        layers::probe_plan(s, 15, tr, op);
        layers::probe_evolve(
            s.database(),
            &active.mapping,
            &active.illustration,
            15,
            tr,
            op,
        );
        crate::wire::probe(
            synthetic_probe_pool(s),
            &synthetic_probe_script(s),
            10,
            tr,
            op,
        );
        extra
    }
}

/// Control-probe pool over a synthetic source. The generator hands its
/// joins to the session as knowledge, not as constraints; a pool derives
/// knowledge from foreign keys, so declare each link attribute `l<a>`
/// of `R<b>` as a key reference to `R<a>.id`.
pub fn synthetic_probe_pool(s: &Session) -> SessionPool {
    let mut db = s.database().clone();
    let mut fks = Vec::new();
    for rel in db.relations() {
        for attr in rel.schema().attrs() {
            if let Some(a) = attr.name.strip_prefix('l') {
                fks.push(ForeignKey::simple(
                    rel.name(),
                    &attr.name,
                    format!("R{a}"),
                    "id",
                ));
            }
        }
    }
    db.constraints.foreign_keys.extend(fks);
    SessionPool::new(db, s.target_schema().clone())
}

/// Control-probe script for the synthetic chain and cycle sources: a
/// one-relation mapping, a data walk to `R1`, and a chase of an `R1.id`
/// value that `R2` references.
pub fn synthetic_probe_script(s: &Session) -> Vec<String> {
    let r2 = s.database().relation("R2").expect("R2 exists");
    let l1 = r2.schema().index_of("l1").expect("R2 links to R1");
    let value = r2
        .rows()
        .iter()
        .map(|row| row[l1].to_string())
        .find(|v| v.starts_with("r1-"))
        .expect("some R2 row references R1");
    [
        "corr R0.p0 -> B0".to_owned(),
        "walk R0 R1".to_owned(),
        "confirm 1".to_owned(),
        format!("chase R1.id {value}"),
        "explain".to_owned(),
        "status".to_owned(),
    ]
    .to_vec()
}
