//! `refine`: the designer's loop over the wire. Each pass opens a fresh
//! connection to an in-process server (a `ShellHandler` per connection
//! over one `SessionPool` with the cache on and a shared `MemStore`) and
//! replays the Kids refinement session; every request is one op. The
//! Figure-1 database is fixed, so the seed is unused.

use std::sync::Arc;

use clio_cli::engine::{Outcome, Shell};
use clio_core::session::Session;
use clio_core::session_pool::SessionPool;
use clio_datagen::paper::{kids_target, paper_database};
use clio_incr::{CacheStore, MemStore};

use crate::layers::{self, Extra};
use crate::trace::Tracer;
use crate::wire::Served;
use crate::{runs_dir, Samples, Workload};

/// Set-ups per run; each is milliseconds, so take many.
pub const SETUPS: usize = 41;

/// Passes at the end of each set-up (they fill the shared store).
const WARMUP_PASSES: usize = 1;

/// The demo.clio body as the B15 experiment replays it, plus a data walk
/// and `explain`; the `confirm` ids follow the walk's new workspaces.
const SCRIPT: [&str; 19] = [
    "corr Children.ID -> ID",
    "accept",
    "corr Children.name -> name",
    "corr Parents.affiliation -> affiliation",
    "confirm 1",
    "target",
    "illustration",
    "walk Children PhoneDir",
    "confirm 3",
    "chase Children.ID 002",
    "confirm 5",
    "corr SBPS.time -> BusSchedule",
    "require BusSchedule",
    "mapping",
    "sql",
    "explain",
    "accept",
    "target",
    "contributions",
];

/// The script and its expected responses: an in-process `Shell` replay
/// of the same lines (the wire must be byte-identical to it).
pub struct Prep {
    script: Vec<String>,
    want: Vec<String>,
    /// The local session after the replay (for the control probes).
    replayed: Session,
    /// The local session as `explain` finds it (for the plan probe).
    at_explain: Session,
}

impl Prep {
    pub fn new() -> Prep {
        let script: Vec<String> = SCRIPT.iter().map(|s| (*s).to_owned()).collect();
        let mut shell = Shell::new(Session::new(paper_database(), kids_target()));
        let mut at_explain = None;
        let want = script
            .iter()
            .map(|line| {
                if line == "explain" {
                    at_explain = Some(shell.session.clone());
                }
                match shell.execute(line) {
                    Outcome::Continue(text) => text,
                    Outcome::Quit => String::new(),
                }
            })
            .collect();
        Prep {
            script,
            want,
            replayed: shell.session,
            at_explain: at_explain.expect("the script runs `explain`"),
        }
    }
}

pub struct Refine<'a> {
    prep: &'a Prep,
    served: Served,
    store: Arc<MemStore>,
    traced_passes: u64,
    traced_requests: u64,
    store_hits: u64,
    cache_hits: u64,
    cache_lookups: u64,
    evictions: u64,
}

impl<'a> Refine<'a> {
    pub fn setup(prep: &'a Prep) -> Refine<'a> {
        let store = Arc::new(MemStore::new());
        let mut pool = SessionPool::new(paper_database(), kids_target())
            .with_store(Arc::clone(&store) as Arc<dyn CacheStore>);
        pool.set_cache_enabled(true);
        let served = Served::start(pool);
        let mut warmup = Samples::default();
        for _ in 0..WARMUP_PASSES {
            served.pass(&prep.script, &prep.want, &mut warmup);
        }
        Refine {
            prep,
            served,
            store,
            traced_passes: 0,
            traced_requests: 0,
            store_hits: 0,
            cache_hits: 0,
            cache_lookups: 0,
            evictions: 0,
        }
    }
}

impl Workload for Refine<'_> {
    fn describe(&self) -> String {
        let db = self.prep.replayed.database();
        format!(
            "input=paper-figure1({} relations, {} rows) script_lines={} clients=1 \
             cache=on store=mem setup_warmup_passes={WARMUP_PASSES}",
            db.relation_count(),
            db.total_rows(),
            self.prep.script.len()
        )
    }

    fn unit(&mut self, s: &mut Samples) {
        self.served.pass(&self.prep.script, &self.prep.want, s);
    }

    fn traced_unit(&mut self, s: &mut Samples, tr: &Tracer, op: &mut u64) {
        let hits = self.store.stats().hits;
        self.served
            .traced_pass(&self.prep.script, &self.prep.want, s, tr, op);
        // the plan `explain` renders, built after the pass's clock stops
        layers::probe_plan(&self.prep.at_explain, 1, tr, op);
        self.store_hits += self.store.stats().hits - hits;
        let c = self.served.last_cache_stats();
        self.cache_hits += c.hits;
        self.cache_lookups += c.hits + c.misses;
        self.evictions += c.evictions;
        self.traced_passes += 1;
        self.traced_requests += self.prep.script.len() as u64;
    }

    fn layers(&mut self, tr: &Tracer, op: &mut u64) -> Extra {
        self.served.drain_spans(tr);
        let mut extra = Extra::default();
        extra.set(
            "incr.store_hits_per_pass",
            self.store_hits as f64 / self.traced_passes.max(1) as f64,
            format!(
                "{} store hits over {} passes",
                self.store_hits, self.traced_passes
            ),
        );
        extra.ratio(
            "incr.hit_ratio",
            self.cache_hits,
            self.cache_lookups,
            "lookups",
        );
        extra.set(
            "incr.evictions_per_op",
            self.evictions as f64 / self.traced_requests.max(1) as f64,
            format!("{} over {} requests", self.evictions, self.traced_requests),
        );
        // Controls: the layers below `Shell::execute`, timed on the
        // session state the script leaves behind.
        let s = &self.prep.replayed;
        let db = s.database();
        let active = s.active().expect("the script leaves a workspace active");
        let mut mappings: Vec<_> = s.accepted().iter().collect();
        mappings.push(&active.mapping);
        layers::probe_preview(db, &mappings, s.target_schema(), 50, tr, op);
        layers::probe_evolve(db, &active.mapping, &active.illustration, 50, tr, op);
        layers::probe_index(db, 50, tr, op);
        let dir = runs_dir().join(format!("refine-{}", std::process::id()));
        let pool = layers::save_paged(db, &dir);
        layers::probe_pager(&dir, pool, 50, tr, op, &mut extra);
        let _ = std::fs::remove_dir_all(&dir);
        extra
    }
}
