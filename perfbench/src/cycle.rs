//! `cycle-edit`: writes beside reads. A seeded cycle of 5 relations ×
//! 100 rows with the cache on, the default (cost-aware) policy, and a
//! byte budget of half the working set measured at set-up. An edit is
//! `Session::replace_relation` changing one payload cell (seeded row and
//! value) followed by `Session::target_preview`; the edited relation
//! rotates R0..R4, and one op is one full rotation of five edits, so
//! every op is the same mix.

use std::collections::HashMap;
use std::time::Instant;

use clio_core::evolution::evolve_illustration_cached;
use clio_core::illustration::Illustration;
use clio_core::mapping::Mapping;
use clio_core::session::Session;
use clio_datagen::synthetic::{generate, Synthetic, SyntheticSpec, Topology};
use clio_incr::EvalCache;
use clio_relational::database::Database;
use clio_relational::funcs::FuncRegistry;
use clio_relational::index::ValueIndex;
use clio_relational::relation::Relation;
use clio_relational::schema::RelSchema;
use clio_relational::table::Table;
use clio_relational::value::Value;

use crate::layers::{self, Extra};
use crate::trace::Tracer;
use crate::{runs_dir, Samples, Workload};

pub const SETUPS: usize = 21;
const RELATIONS: u64 = 5;
const ROWS: usize = 100;
/// Every k-th rotation's last preview is checked against a cache-off
/// evaluation of the edited database (outside the clock).
const CHECK_EVERY: u64 = 4;

pub struct Prep {
    seed: u64,
    traced: bool,
    w: Synthetic,
}

impl Prep {
    pub fn new(seed: u64, traced: bool) -> Prep {
        let w = generate(&SyntheticSpec {
            topology: Topology::Cycle,
            relations: RELATIONS as usize,
            rows: ROWS,
            match_rate: 0.7,
            payload_attrs: 1,
            seed,
        });
        Prep { seed, traced, w }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Edit `n` of the sequence: relation `R(n mod 5)` with one payload
/// cell replaced, both chosen from the seed.
fn edit(db: &Database, seed: u64, n: u64) -> Relation {
    let rel = db
        .relation(&format!("R{}", n % RELATIONS))
        .expect("cycle relation");
    let col = rel.schema().index_of("p0").expect("payload column");
    let h = splitmix64(seed ^ n.wrapping_mul(0xA24B_AED4_963E_E407));
    let mut rows = rel.rows().to_vec();
    let row = (h % rows.len() as u64) as usize;
    rows[row][col] = Value::str(format!("v0-{}", (h >> 32) % 1000));
    Relation::with_rows(rel.schema().clone(), rows).expect("same schema, valid rows")
}

/// The traced replay's own copy of what a session holds, built from
/// public parts: the database, its value index, an evaluation cache
/// with the same budget, and the workspace illustration.
struct Shadow {
    db: Database,
    index: ValueIndex,
    cache: EvalCache,
    illustration: Illustration,
    next: u64,
}

/// One rotation replayed as public calls: per edit,
/// `Session::replace_relation`'s steps (`Database::replace_relation`,
/// `ValueIndex::build`, `EvalCache::bump_version`,
/// `evolve_illustration_cached`), then the preview replay. Returns the
/// last preview.
fn replay_rotation(
    sh: &mut Shadow,
    rels: Vec<Relation>,
    m: &Mapping,
    target: &RelSchema,
    funcs: &FuncRegistry,
    tr: &Tracer,
    op: u64,
) -> Table {
    let mut last = None;
    for rel in rels {
        let name = rel.name().to_owned();
        tr.span(op, 0, "core.replace_relation", |id| {
            tr.span(op, id, "relational.replace", |_| {
                sh.db.replace_relation(rel).expect("content edit");
            });
            sh.index = tr.span(op, id, "relational.index_build", |_| {
                ValueIndex::build(&sh.db)
            });
            tr.span(op, id, "incr.invalidate", |_| sh.cache.bump_version(&name));
            let evo = tr.span(op, id, "core.evolve", |_| {
                evolve_illustration_cached(&sh.illustration, m, m, &sh.db, funcs, Some(&sh.cache))
                    .expect("evolve onto the same mapping")
            });
            sh.illustration = evo.illustration;
        });
        last = Some(tr.span(op, 0, "core.preview", |p| {
            layers::replay_preview(&sh.db, &[m], target, funcs, Some(&sh.cache), tr, op, p)
        }));
    }
    last.expect("a rotation has edits")
}

pub struct Cycle<'a> {
    prep: &'a Prep,
    session: Session,
    working_set: usize,
    budget: usize,
    next: u64,
    shadow: Option<Shadow>,
    /// Digest of each untraced rotation's last preview, by rotation
    /// number: the traced replay of the same rotation must match it.
    seen: HashMap<u64, u64>,
    funcs: FuncRegistry,
    traced_ops: u64,
    hits: u64,
    lookups: u64,
    evictions: u64,
}

impl<'a> Cycle<'a> {
    pub fn setup(prep: &'a Prep) -> Cycle<'a> {
        let mut session = Session::new(prep.w.db.clone(), prep.w.target.clone());
        session
            .adopt_mapping(prep.w.mapping.clone(), "cycle")
            .expect("valid cycle mapping");
        let start = prep.traced.then(|| {
            let ws = session.active().expect("adopted mapping is active");
            (session.database().clone(), ws.illustration.clone())
        });
        std::hint::black_box(session.target_preview().expect("preview"));
        let working_set = session.cache().stats().bytes;
        let budget = (working_set / 2).max(1);
        session.cache().set_capacity(budget);
        let mut c = Cycle {
            prep,
            session,
            working_set,
            budget,
            next: 0,
            shadow: None,
            seen: HashMap::new(),
            funcs: FuncRegistry::with_builtins(),
            traced_ops: 0,
            hits: 0,
            lookups: 0,
            evictions: 0,
        };
        // warm-up: one rotation
        c.unit(&mut Samples::default());
        if let Some((db, illustration)) = start {
            // The shadow cache goes through the session's set-up: the
            // adopt's examples and the first preview unbounded, then the
            // budget, then the warm-up rotation.
            let m = &prep.w.mapping;
            let cache = EvalCache::new();
            m.examples_cached(&db, &c.funcs, Some(&cache))
                .expect("valid cycle mapping");
            layers::replay_preview(
                &db,
                &[m],
                &prep.w.target,
                &c.funcs,
                Some(&cache),
                &Tracer::new(),
                0,
                0,
            );
            cache.set_capacity(budget);
            let mut sh = Shadow {
                index: ValueIndex::build(&db),
                db,
                cache,
                illustration,
                next: 0,
            };
            let rels = (0..RELATIONS).map(|j| edit(&sh.db, prep.seed, j)).collect();
            replay_rotation(
                &mut sh,
                rels,
                m,
                &prep.w.target,
                &c.funcs,
                &Tracer::new(),
                0,
            );
            sh.next = RELATIONS;
            c.shadow = Some(sh);
        }
        c
    }

    fn reference(&self, db: &Database) -> u64 {
        layers::digest(&layers::cache_off_preview(
            db,
            &[&self.prep.w.mapping],
            &self.prep.w.target,
        ))
    }
}

impl Workload for Cycle<'_> {
    fn describe(&self) -> String {
        format!(
            "input=cycle{RELATIONS}x{ROWS}(seeded) op=rotation of {RELATIONS} edits \
             (replace_relation+target_preview) cache=on policy={} budget={}B \
             working_set={}B check_every={CHECK_EVERY}",
            self.session.cache().policy().name(),
            self.budget,
            self.working_set
        )
    }

    fn unit(&mut self, s: &mut Samples) {
        let seed = self.prep.seed;
        let rels: Vec<Relation> = (0..RELATIONS)
            .map(|j| edit(self.session.database(), seed, self.next + j))
            .collect();
        let t = Instant::now();
        let mut last = None;
        for rel in rels {
            let edited = self.session.replace_relation(rel);
            last = edited.and_then(|()| self.session.target_preview()).ok();
            if last.is_none() {
                break;
            }
        }
        let latency = t.elapsed();
        s.busy += latency;
        self.next += RELATIONS;
        let rotation = self.next / RELATIONS;
        let ok = last.is_some_and(|p| {
            let d = layers::digest(&p);
            self.seen.insert(rotation, d);
            !rotation.is_multiple_of(CHECK_EVERY) || d == self.reference(self.session.database())
        });
        s.record(latency, ok);
    }

    fn traced_unit(&mut self, s: &mut Samples, tr: &Tracer, op: &mut u64) {
        let sh = self
            .shadow
            .as_mut()
            .expect("traced runs build the shadow state");
        let seed = self.prep.seed;
        let rels = (0..RELATIONS)
            .map(|j| edit(&sh.db, seed, sh.next + j))
            .collect();
        *op += 1;
        let before = sh.cache.stats();
        let t = Instant::now();
        let m = &self.prep.w.mapping;
        let last = replay_rotation(sh, rels, m, &self.prep.w.target, &self.funcs, tr, *op);
        let latency = t.elapsed();
        s.busy += latency;
        let after = sh.cache.stats();
        self.hits += after.hits - before.hits;
        self.lookups += after.hits + after.misses - before.hits - before.misses;
        self.evictions += after.evictions - before.evictions;
        self.traced_ops += 1;
        sh.next += RELATIONS;
        let rotation = sh.next / RELATIONS;
        let d = layers::digest(&last);
        let mut ok = self.seen.get(&rotation).is_none_or(|&u| u == d);
        if rotation.is_multiple_of(CHECK_EVERY) {
            let db = &self.shadow.as_ref().expect("shadow").db;
            ok &= d == self.reference(db);
        }
        s.record(latency, ok);
    }

    fn layers(&mut self, tr: &Tracer, op: &mut u64) -> Extra {
        let mut extra = Extra::default();
        extra.ratio("incr.hit_ratio", self.hits, self.lookups, "lookups");
        extra.set(
            "incr.evictions_per_op",
            self.evictions as f64 / self.traced_ops.max(1) as f64,
            format!(
                "{} over {} traced rotations",
                self.evictions, self.traced_ops
            ),
        );
        extra.set(
            "incr.store_hits_per_pass",
            0.0,
            "no store on this workload".into(),
        );
        layers::probe_plan(&self.session, 15, tr, op);
        let db = self.session.database();
        let dir = runs_dir().join(format!("cycle-edit-{}", std::process::id()));
        let pool = layers::save_paged(db, &dir);
        layers::probe_pager(&dir, pool, 30, tr, op, &mut extra);
        let _ = std::fs::remove_dir_all(&dir);
        let pool = crate::bulk::synthetic_probe_pool(&self.session);
        let script = crate::bulk::synthetic_probe_script(&self.session);
        crate::wire::probe(pool, &script, 10, tr, op);
        extra
    }
}
