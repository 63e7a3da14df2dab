//! Per-layer metrics: the table of names and units, the public-call
//! replays the traced ops share, and the control probes that time a
//! layer on a workload whose op does not call it.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

use clio_core::full_disjunction::{engine_subsumption, FdAlgo};
use clio_core::illustration::Illustration;
use clio_core::incremental::{mapping_fingerprint, relation_deps};
use clio_core::mapping::Mapping;
use clio_core::plan::Plan;
use clio_core::session::Session;
use clio_incr::EvalCache;
use clio_obs::Counter;
use clio_relational::database::Database;
use clio_relational::funcs::FuncRegistry;
use clio_relational::index::ValueIndex;
use clio_relational::ops::remove_subsumed;
use clio_relational::schema::{RelSchema, Scheme};
use clio_relational::storage::{open_paged, save_database};
use clio_relational::table::Table;

use crate::percentile;
use crate::trace::{Profile, Tracer};

/// Where a per-layer value comes from: a percentile of per-op span
/// totals or self times over the listed span names, or a value the
/// workload or the run loop (`drive`) counted itself.
enum Src {
    Total(&'static [&'static str], f64),
    SelfTime(&'static [&'static str], f64),
    Counted,
}

const EXECUTE: &[&str] = &["cli.execute", "core.walk", "core.chase"];

/// Every per-layer metric, in output order, with its unit.
const PER_LAYER: &[(&str, &str, Src)] = &[
    ("net.rtt_us", "us", Src::Total(&["net.request"], 50.0)),
    (
        "net.overhead_us",
        "us",
        Src::SelfTime(&["net.request"], 50.0),
    ),
    ("cli.parse_us", "us", Src::Total(&["cli.parse"], 50.0)),
    ("cli.execute_us", "us", Src::Total(EXECUTE, 50.0)),
    ("cli.execute_p99_us", "us", Src::Total(EXECUTE, 99.0)),
    ("core.walk_us", "us", Src::Total(&["core.walk"], 50.0)),
    ("core.chase_us", "us", Src::Total(&["core.chase"], 50.0)),
    (
        "core.plan_build_us",
        "us",
        Src::Total(&["core.plan_build"], 50.0),
    ),
    ("incr.store_hits_per_pass", "count", Src::Counted),
    ("pager.open_ms", "ms", Src::Total(&["pager.open"], 50.0)),
    ("pager.hit_ratio", "ratio", Src::Counted),
    (
        "relational.index_build_ms",
        "ms",
        Src::Total(&["relational.index_build"], 50.0),
    ),
    ("core.fd_ms", "ms", Src::Total(&["core.fd"], 50.0)),
    ("core.qm_ms", "ms", Src::Total(&["core.qm"], 50.0)),
    (
        "relational.merge_dedup_ms",
        "ms",
        Src::Total(&["relational.merge_dedup"], 50.0),
    ),
    (
        "relational.subsumption_ms",
        "ms",
        Src::Total(&["relational.subsumption"], 50.0),
    ),
    ("core.evolve_ms", "ms", Src::Total(&["core.evolve"], 50.0)),
    ("incr.hit_ratio", "ratio", Src::Counted),
    ("incr.evictions_per_op", "count", Src::Counted),
    ("relational.join_probes_per_op", "count", Src::Counted),
    ("relational.subsumption_cmps_per_op", "count", Src::Counted),
    ("relational.tuples_scanned_per_op", "count", Src::Counted),
    ("obs.trace_overhead_pct", "%", Src::Counted),
];

/// Values a workload or the run loop counted, each with its base.
#[derive(Default)]
pub struct Extra {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Extra {
    pub fn set(&mut self, name: &'static str, value: f64, base: String) {
        self.values.insert(name, (value, base));
    }

    /// `part / whole` with the base spelled out (0 when `whole` is 0).
    pub fn ratio(&mut self, name: &'static str, part: u64, whole: u64, what: &str) {
        let value = if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        };
        self.set(name, value, format!("{part} of {whole} {what}"));
    }
}

/// Print every per-layer metric with its base and return them for the
/// JSON line. A span-timed metric with no spans is a bug: every
/// workload times every layer, in its op or in a control probe.
pub fn per_layer(profile: &Profile, extra: &Extra) -> Vec<(&'static str, f64, &'static str)> {
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for (name, unit, src) in PER_LAYER {
        let scale = if *unit == "us" { 1e3 } else { 1e6 };
        let (value, base) = match src {
            Src::Total(names, p) | Src::SelfTime(names, p) => {
                let per_op = match src {
                    Src::Total(..) => profile.totals(names),
                    _ => profile.self_times(names),
                };
                assert!(!per_op.is_empty(), "no spans recorded for `{name}`");
                let kind = if matches!(src, Src::Total(..)) {
                    "total"
                } else {
                    "self"
                };
                (
                    percentile(&per_op, *p) as f64 / scale,
                    format!(
                        "p{p} {kind} over {} ops of {}",
                        per_op.len(),
                        names.join("+")
                    ),
                )
            }
            Src::Counted => extra
                .values
                .get(name)
                .cloned()
                .unwrap_or_else(|| panic!("no value counted for `{name}`")),
        };
        println!("layer {name}: {value:.6} {unit} ({base})");
        out.push((*name, value, *unit));
    }
    out
}

/// The self-time table of every span name: ops that opened it, median
/// per-op total and self time, and its share of all recorded self time.
pub fn print_profile(profile: &Profile) {
    let all: u64 = profile
        .by_name
        .values()
        .flat_map(|v| v.iter().map(|t| t.1))
        .sum();
    println!("span profile (per op: p50 total / p50 self; share of all self time):");
    for (name, per_op) in &profile.by_name {
        let totals: Vec<u64> = per_op.iter().map(|t| t.0).collect();
        let selfs: Vec<u64> = per_op.iter().map(|t| t.1).collect();
        let share = selfs.iter().sum::<u64>() as f64 / all.max(1) as f64;
        println!(
            "  {name:<24} ops={:<7} total={:>12.3} us self={:>12.3} us share={:>6.2}%",
            per_op.len(),
            percentile(&totals, 50.0) as f64 / 1e3,
            percentile(&selfs, 50.0) as f64 / 1e3,
            100.0 * share
        );
    }
}

/// Order-sensitive digest of a table's rows.
pub fn digest(t: &Table) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.rows().hash(&mut h);
    h.finish()
}

/// `Session::target_preview` computed without the session or a cache:
/// each mapping's `Q(M)`, merged with `push_distinct`, then minimum
/// union's subsumption removal. The reference the ops are checked by.
pub fn cache_off_preview(db: &Database, mappings: &[&Mapping], target: &RelSchema) -> Table {
    let funcs = FuncRegistry::with_builtins();
    let mut out = Table::empty(Scheme::of_relation(target, target.name()));
    for m in mappings {
        for row in m.evaluate(db, &funcs).expect("valid mapping").into_rows() {
            out.push_distinct(row);
        }
    }
    remove_subsumed(&mut out, engine_subsumption());
    out
}

/// `Session::target_preview` replayed as its public layer calls under
/// spans: per mapping `Q(M)` (`core.qm`) = `D(G)` (`core.fd`) then the
/// projection (`core.project`), with the result-cache lookup and costed
/// insert `Mapping::evaluate_cached` performs; then the merge
/// (`relational.merge_dedup`) and subsumption removal.
#[allow(clippy::too_many_arguments)]
pub fn replay_preview(
    db: &Database,
    mappings: &[&Mapping],
    target: &RelSchema,
    funcs: &FuncRegistry,
    cache: Option<&EvalCache>,
    tr: &Tracer,
    op: u64,
    parent: u64,
) -> Table {
    let cache = cache.filter(|c| c.enabled());
    let results: Vec<Table> = mappings
        .iter()
        .map(|m| {
            tr.span(op, parent, "core.qm", |qm| {
                replay_qm(db, m, funcs, cache, tr, op, qm)
            })
        })
        .collect();
    let mut out = Table::empty(Scheme::of_relation(target, target.name()));
    tr.span(op, parent, "relational.merge_dedup", |_| {
        for t in results {
            for row in t.into_rows() {
                out.push_distinct(row);
            }
        }
    });
    tr.span(op, parent, "relational.subsumption", |_| {
        remove_subsumed(&mut out, engine_subsumption());
    });
    out
}

fn replay_qm(
    db: &Database,
    m: &Mapping,
    funcs: &FuncRegistry,
    cache: Option<&EvalCache>,
    tr: &Tracer,
    op: u64,
    qm: u64,
) -> Table {
    let fp = cache.map(|c| mapping_fingerprint(m, c));
    if let (Some(c), Some(fp)) = (cache, fp) {
        if let Some(t) = c.get(fp) {
            return t;
        }
    }
    let t0 = Instant::now();
    let assocs = tr.span(op, qm, "core.fd", |_| {
        m.associations_cached(db, FdAlgo::Auto, funcs, cache)
            .expect("valid mapping")
    });
    let inner = t0.elapsed();
    let out = tr.span(op, qm, "core.project", |_| {
        let eval = m.evaluator(db, funcs).expect("valid mapping");
        let mut out = Table::empty(m.target_scheme());
        for i in 0..assocs.len() {
            if let Some(row) = eval
                .target_row_if_passing(assocs.row(i), funcs)
                .expect("valid mapping")
            {
                out.push_distinct(row);
            }
        }
        out
    });
    if let (Some(c), Some(fp)) = (cache, fp) {
        let cost = u64::try_from((t0.elapsed() - inner).as_nanos()).unwrap_or(u64::MAX);
        c.insert_costed(fp, relation_deps(&m.graph), &out, cost);
    }
    out
}

/// Control probe: the uncached preview replay, `reps` times.
pub fn probe_preview(
    db: &Database,
    mappings: &[&Mapping],
    target: &RelSchema,
    reps: usize,
    tr: &Tracer,
    op: &mut u64,
) {
    let funcs = FuncRegistry::with_builtins();
    let want = digest(&cache_off_preview(db, mappings, target));
    for _ in 0..reps {
        *op += 1;
        let got = tr.span(*op, 0, "core.preview", |p| {
            replay_preview(db, mappings, target, &funcs, None, tr, *op, p)
        });
        assert_eq!(
            digest(&got),
            want,
            "preview replay differs from the reference"
        );
    }
}

/// Control probe: `evolve_illustration_cached` of an illustration onto
/// its own mapping over the current data (what a content edit runs).
pub fn probe_evolve(
    db: &Database,
    mapping: &Mapping,
    illustration: &Illustration,
    reps: usize,
    tr: &Tracer,
    op: &mut u64,
) {
    let funcs = FuncRegistry::with_builtins();
    for _ in 0..reps {
        *op += 1;
        tr.span(*op, 0, "core.evolve", |_| {
            std::hint::black_box(
                clio_core::evolution::evolve_illustration_cached(
                    illustration,
                    mapping,
                    mapping,
                    db,
                    &funcs,
                    None,
                )
                .expect("evolution onto the same mapping"),
            );
        });
    }
}

/// `Plan::new` for the session's active mapping (the plan `explain`
/// renders), `reps` times. Outside every op clock, so the traced ops do
/// the same work as the untraced ones.
pub fn probe_plan(session: &Session, reps: usize, tr: &Tracer, op: &mut u64) {
    let funcs = FuncRegistry::with_builtins();
    let w = session.active().expect("a workspace is active");
    for _ in 0..reps {
        *op += 1;
        tr.span(*op, 0, "core.plan_build", |_| {
            std::hint::black_box(
                Plan::new(
                    &w.mapping,
                    session.database(),
                    &funcs,
                    Some(session.cache()),
                )
                .expect("plan for a valid mapping"),
            );
        });
    }
}

/// Control probe: `ValueIndex::build` over the workload's source.
pub fn probe_index(db: &Database, reps: usize, tr: &Tracer, op: &mut u64) {
    for _ in 0..reps {
        *op += 1;
        tr.span(*op, 0, "relational.index_build", |_| {
            std::hint::black_box(ValueIndex::build(db));
        });
    }
}

/// Page size of the saved sources (small pages keep heaps many pages
/// long, so a quarter-size pool really misses).
pub const PAGE_SIZE: usize = 1024;

/// Save `db` as a paged database under `dir`; returns a buffer-pool
/// size of a quarter of its heap pages (smaller than the heap).
pub fn save_paged(db: &Database, dir: &Path) -> usize {
    let _ = std::fs::remove_dir_all(dir);
    save_database(db, dir, PAGE_SIZE).expect("save the paged source");
    let bytes: u64 = std::fs::read_dir(dir)
        .expect("read the paged source directory")
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    (bytes / PAGE_SIZE as u64 / 4).max(4) as usize
}

/// Control probe (and bulk-eval's pager measurement): `open_paged`
/// plus a scan of every relation, `reps` times, with the pager's
/// counters on. Sets `pager.hit_ratio`.
pub fn probe_pager(
    dir: &Path,
    pool: usize,
    reps: usize,
    tr: &Tracer,
    op: &mut u64,
    extra: &mut Extra,
) {
    let (mut hits, mut misses) = (0, 0);
    for _ in 0..reps {
        *op += 1;
        clio_obs::set_metrics_enabled(true);
        let before = clio_obs::snapshot();
        tr.span(*op, 0, "pager.open", |_| {
            let db = open_paged(dir, pool).expect("open the paged source");
            let rows: usize = db.relations().map(|r| r.len()).sum();
            std::hint::black_box(rows);
        });
        let delta = clio_obs::snapshot().since(&before);
        clio_obs::set_metrics_enabled(false);
        hits += delta.get(Counter::PagerHits);
        misses += delta.get(Counter::PagerMisses);
    }
    extra.ratio(
        "pager.hit_ratio",
        hits,
        hits + misses,
        &format!("page lookups over {reps} opens (pool {pool} pages)"),
    );
}
