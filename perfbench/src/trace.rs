//! The benchmark's own span recorder. Spans are opened around calls into
//! the engine's public API (never inside it), kept in memory, and written
//! out as JSON lines when the run ends. A span has a name, a start and an
//! end, a parent (0 for a root), and the id of the op it belongs to.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub op: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span ids and timestamps are process-wide, so spans recorded into
/// different logs (client side and server side of one request) can be
/// merged and still link to their parents.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A thread-safe in-memory span log.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Run `f` inside a span of op `op` under `parent` (0: a root span).
    /// `f` receives the new span's id, for opening child spans.
    pub fn span<R>(&self, op: u64, parent: u64, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed) + 1;
        let start_ns = now_ns();
        let out = f(id);
        let end_ns = now_ns();
        self.spans
            .lock()
            .expect("a span-recording thread panicked")
            .push(SpanRec {
                op,
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("a span-recording thread panicked")
            .clone()
    }

    /// Move every span of `other` into this log.
    pub fn absorb(&self, other: &Tracer) {
        let moved = std::mem::take(
            &mut *other
                .spans
                .lock()
                .expect("a span-recording thread panicked"),
        );
        self.spans
            .lock()
            .expect("a span-recording thread panicked")
            .extend(moved);
    }
}

/// Per-op totals of every span name: for each name, one entry per op
/// that opened it, holding the summed duration and the summed self time
/// (duration minus the time its child spans cover).
pub struct Profile {
    pub by_name: BTreeMap<&'static str, Vec<(u64, u64)>>,
}

impl Profile {
    pub fn new(spans: &[SpanRec]) -> Profile {
        let mut children: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *children.entry(s.parent).or_default() += s.dur_ns();
        }
        let mut per_op: BTreeMap<(&'static str, u64), (u64, u64)> = BTreeMap::new();
        for s in spans {
            let own = s
                .dur_ns()
                .saturating_sub(children.get(&s.id).copied().unwrap_or(0));
            let e = per_op.entry((s.name, s.op)).or_default();
            e.0 += s.dur_ns();
            e.1 += own;
        }
        let mut by_name: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for ((name, _), totals) in per_op {
            by_name.entry(name).or_default().push(totals);
        }
        Profile { by_name }
    }

    /// Per-op summed durations over the spans named in `names`.
    pub fn totals(&self, names: &[&str]) -> Vec<u64> {
        self.select(names, |t| t.0)
    }

    /// Per-op summed self times over the spans named in `names`.
    pub fn self_times(&self, names: &[&str]) -> Vec<u64> {
        self.select(names, |t| t.1)
    }

    fn select(&self, names: &[&str], pick: impl Fn(&(u64, u64)) -> u64) -> Vec<u64> {
        names
            .iter()
            .filter_map(|n| self.by_name.get(n))
            .flat_map(|v| v.iter().map(&pick))
            .collect()
    }
}

/// Write spans as JSON lines (one object per span, in recording order).
pub fn write_jsonl(spans: &[SpanRec], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
